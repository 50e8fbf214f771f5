"""Tests of the benchmark harness's own arithmetic, plus a smoke run of
every workload in both modes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import analysis, spans
from perfbench.layers import LAYERS, LayerReport
from perfbench.run import END_TO_END

ROOT = Path(__file__).resolve().parents[2]


def span(sid, start, end, parent=None, name="x", op=None, tag=None):
    return (sid, parent, name, start, end, op, tag)


# ------------------------------------------------------------ self time

def test_self_time_counts_overlapping_children_once():
    parent = span(1, 0.0, 10.0)
    children = [span(2, 1.0, 4.0, 1), span(3, 3.0, 6.0, 1), span(4, 8.0, 9.0, 1)]
    # children cover [1, 6] and [8, 9]: 6 of the parent's 10 seconds
    assert analysis.self_time(parent, children) == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    parent = span(1, 2.0, 6.0)
    # an async child that outlives its parent only covers [5, 6] of it
    assert analysis.self_time(parent, [span(2, 5.0, 12.0, 1)]) == pytest.approx(3.0)
    assert analysis.self_time(parent, [span(2, 0.0, 1.0, 1)]) == pytest.approx(4.0)


def test_union_length_merges_nested_and_touching_intervals():
    assert analysis.union_length([(0, 2), (1, 3), (3, 4), (5, 6), (5.5, 5.7)]) == pytest.approx(5.0)
    assert analysis.union_length([]) == 0.0


# ----------------------------------------------------------- percentiles

def test_percentile_interpolates_between_ranks():
    values = list(range(1, 11))  # 1..10
    assert analysis.percentile(values, 50) == pytest.approx(statistics.median(values))
    assert analysis.percentile(values, 90) == pytest.approx(9.1)
    assert analysis.percentile(values, 0) == 1
    assert analysis.percentile(values, 100) == 10
    assert analysis.percentile([], 50) == 0.0


def test_tail_sample_count_is_what_lies_beyond_the_percentile():
    values = list(range(100))
    assert analysis.beyond(values, 90) == 10
    assert analysis.beyond(list(range(20)), 90) == 2  # too few for a p90 claim


# -------------------------------------------------- grouping across processes

def test_merge_keeps_parent_links_and_groups_by_op():
    client = [span(1, 0.0, 10.0, name="op", op="o1"),
              span(2, 1.0, 9.0, 1, name="client.request", op="o1", tag=["POST", "o1.0"])]
    # the server process numbers its spans from 1 as well
    server = [span(1, 2.0, 8.0, name="http.handle", op="o1", tag=["replica-0", "o1.0", False]),
              span(2, 3.0, 4.0, 1, name="router.resolve", op="o1"),
              span(3, 5.0, 6.0, name="http.handle", op="o2", tag=["replica-0", "o2.0", False])]
    merged = analysis.merge(client, server)
    assert len({s[analysis.SID] for s in merged}) == 5
    by_id = {s[analysis.SID]: s for s in merged}
    resolve = next(s for s in merged if s[analysis.NAME] == "router.resolve")
    assert by_id[resolve[analysis.PARENT]][analysis.NAME] == "http.handle"
    grouped = analysis.by_op(merged)
    assert sorted(s[analysis.NAME] for s in grouped["o1"]) == [
        "client.request", "http.handle", "op", "router.resolve"]
    assert [s[analysis.NAME] for s in grouped["o2"]] == ["http.handle"]


def test_attribution_charges_the_deepest_span_and_leaves_gaps_out():
    root = span(1, 0.0, 10.0, name="op", op="o1")
    spans_ = [root,
              span(2, 1.0, 9.0, 1, name="client.request"),
              span(3, 2.0, 8.0, name="http.handle"),        # server process
              span(4, 3.0, 5.0, 3, name="router.resolve")]
    layer_of = {"client.request": "client", "http.handle": "http",
                "router.resolve": "router"}.get
    shares = analysis.attribute(root, spans_, layer_of)
    assert shares == pytest.approx({"client": 2.0, "http": 4.0, "router": 2.0})
    # [0, 1] and [9, 10] are the client's own work outside any request
    assert 10.0 - sum(shares.values()) == pytest.approx(2.0)


def test_layer_report_on_a_synthetic_gateway_trace():
    rid = "o1.0"
    recorded = [
        span(1, 0.0, 10.0, name="op", op="o1"),
        span(2, 0.5, 9.5, 1, name="client.request", op="o1", tag=["POST", rid]),
        span(10, 1.0, 9.0, name="http.handle", op="o1", tag=["gw", rid, False]),
        span(11, 2.0, 7.0, 10, name="transport.request", op="o1", tag=["POST", rid]),
        span(12, 3.0, 6.0, name="http.handle", op="o1", tag=["replica-0", rid, False]),
    ]
    report = LayerReport(recorded, (0.0, 20.0), payload_bytes=100, overhead_ratio=0.9)
    values = report.metrics()
    assert set(values) == {name for name, *_ in LAYERS}
    assert values["client.http_requests_per_op"] == 1.0
    assert values["http.wire_us"] == pytest.approx(1e6)          # 9 s client − 8 s gateway
    assert values["gateway.self_us"] == pytest.approx(3e6)       # 8 s − 5 s forward
    assert values["gateway.forward_us"] == pytest.approx(5e6)
    assert values["gateway.attempts_per_forward"] == 1.0
    assert values["trace.overhead_ratio"] == 0.9
    # server layers cover [1, 2], [3, 6] and [7, 9]; the client's and the
    # forward's self time is between processes, so it stays unattributed
    assert values["trace.unattributed_share"] == pytest.approx(0.4)
    assert values["blob.put_ms"] == 0.0


def test_recorder_carries_the_op_into_pool_threads():
    from concurrent.futures import ThreadPoolExecutor

    recorder = spans.install()
    try:
        def work():
            with ThreadPoolExecutor(max_workers=1) as pool:
                return pool.submit(lambda: spans._OP.get()).result()

        class Result:
            start, latency = 0.0, 1.0

        seen = []
        recorder.op("o7", lambda: seen.append(work()) or Result())
        assert seen == ["o7"]
        op_span = recorder.spans[-1]
        assert (op_span[analysis.NAME], op_span[analysis.OP]) == ("op", "o7")
        assert (op_span[analysis.START], op_span[analysis.END]) == (0.0, 1.0)
    finally:
        recorder.uninstall()


# ------------------------------------------------------------------ smoke

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["gateway-submit", "local-reuse", "workflow-hilbert",
                                      "blob-pipeline"])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert completed.returncode == 0, completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = dict(END_TO_END) if trace == 0 else {name: unit for name, unit, *_ in LAYERS}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    report = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert any(name in line and unit in line for line in lines[:-1]), (name, report)


def test_refuses_to_run_without_the_platform_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for source in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_text(source.read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local-reuse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
