"""The platform benchmark: one workload, one run, every op's output checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: gateway-submit, local-reuse, workflow-hilbert, blob-pipeline
(see ``perfbench/README.md`` for why each exists). The TCP workloads run
the system under test in a server process of their own
(``perfbench/server.py``); ``local-reuse`` runs it in this process. Load
is a closed loop from this process.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` measures an
untraced window and then a traced one of ``S/2`` seconds each, and
reports the per-layer metrics (``perfbench/layers.py``) with the
blocking-path reconciliation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import itertools
import json
import os
import select
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The end-to-end metrics, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("submit_p50_ms", "ms"),
    ("mb_per_s", "MB/s"),
    ("cpu_ms_per_op", "ms"),
    ("rss_peak_mb", "MB"),
    ("ok_ratio", "ratio"),
]
#: Platforms started per run to measure set-up; the median is reported.
SETUP_REPEATS = 9
#: An untraced window is cut into slices this long; the server's CPU
#: and the machine's steal are sampled at every slice boundary.
SLICE_S = 1.0
#: Share of the slices, those with the least host steal, whose ops the
#: window-dependent metrics are computed over. On a shared host steal
#: comes in spells of seconds to minutes, and 16–26% of it was seen to
#: raise blob-pipeline's p90 by 60–120% while it lasted; the calmer half
#: of a run moves far less from run to run than the whole run or the
#: median of its sub-windows.
CALM_SHARE = 0.5
#: Ops before the window, so lazy set-up and connection pools are warm.
WARMUP_S = 1.0
#: Longest a server process may take to start or to stop.
SERVER_TIMEOUT_S = 60.0


# ------------------------------------------------------------ resources

def cpu_seconds(pid: int) -> float:
    """User + system CPU of ``pid`` so far, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (stat field 3); utime and stime are 14 and 15
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def host_jiffies() -> tuple[int, int]:
    """``(steal, total)`` CPU time of the whole machine so far, in clock
    ticks, from ``/proc/stat``: steal is time a hypervisor ran someone
    else while this machine had work."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------- servers

class Server:
    """One ``server.py`` process; its first output line is its address,
    printed once the platform has accepted its first request."""

    def __init__(self, workload: str, workdir: Path, trace: bool = False):
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        command = [sys.executable, str(ROOT / "perfbench" / "server.py"),
                   "--workload", workload, "--workdir", str(workdir)]
        command += ["--trace"] * trace
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "TMPDIR": str(workdir)})
        ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.stop()
            raise RuntimeError(f"{workload} server did not start (exit {self.proc.returncode})")
        self.info = json.loads(line)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        try:
            self.proc.wait(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Target:
    """Where a run sends load: a server process, or (``local-reuse``) a
    platform in this process."""

    def __init__(self, workload: str, workdir: Path, trace: bool = False):
        from perfbench import deploy
        from repro.http.registry import TransportRegistry

        self.server = self.platform = None
        workdir.mkdir(parents=True, exist_ok=True)
        if workload == "local-reuse":
            tempfile.tempdir = str(workdir)
            self.platform = deploy.BUILDERS[workload](str(workdir))
            self.registry, self.submit_uri = self.platform.registry, self.platform.submit_uri
            self.pid, self.blob_stats_uris = os.getpid(), []
        else:
            self.server = Server(workload, workdir, trace=trace)
            self.registry = TransportRegistry()
            self.submit_uri = self.server.info["submit_uri"]
            self.pid, self.blob_stats_uris = self.server.pid, self.server.info["blob_stats_uris"]

    def close(self) -> None:
        if self.platform is not None:
            self.platform.close()
        if self.server is not None:
            self.server.stop()


def measure_setup(workload: str, workdir: Path) -> list[float]:
    """Seconds from platform process start until its first request is
    accepted, once per fresh process."""
    times = []
    for attempt in range(SETUP_REPEATS):
        start = time.perf_counter()
        server = Server(workload, workdir / f"setup-{attempt}")
        times.append(time.perf_counter() - start)
        server.stop()
    return times


# ------------------------------------------------------------------- runs

def drive(name: str, seed: int, target: Target, seconds: float, recorder=None, parts: int = 1):
    """Warm up, then one measured closed-loop window; returns
    ``(workload, stats)``, with the server's CPU seconds and the
    machine's ``host_jiffies()`` sampled at the window's start, each
    slice boundary and end."""
    from perfbench import loads

    workload = loads.WORKLOADS[name](seed, target.registry, target.submit_uri)
    indices = itertools.count()
    try:
        workload.warmup(time.perf_counter() + WARMUP_S, indices)
        workload.reset()
        stats = loads.run_loop(workload, seconds, indices, recorder=recorder,
                               sample=lambda: (cpu_seconds(target.pid), *host_jiffies()),
                               parts=parts)
    finally:
        workload.close()
    return workload, stats


def window_slices(stats) -> list[dict]:
    """Each slice of the window: the ops that completed in it, its
    length, the server's CPU seconds and the machine's steal share."""
    bounds = [when for when, _ in stats.marks]
    groups: list[list] = [[] for _ in bounds[1:]]
    for done, result in stats.results:
        part = bisect.bisect_right(bounds, done) - 1
        groups[min(max(part, 0), len(groups) - 1)].append(result)
    slices = []
    for part, results in enumerate(groups):
        cpu, steal, ticks = (after - before for after, before
                             in zip(stats.marks[part + 1][1], stats.marks[part][1]))
        slices.append({"results": results, "seconds": bounds[part + 1] - bounds[part],
                       "cpu": cpu, "steal_share": steal / ticks if ticks else 0.0})
    return slices


def calm_slices(slices: list[dict]) -> list[dict]:
    """The ``CALM_SHARE`` of ``slices`` with the least host steal, in
    time order. Ties go to even slices first, so on a quiet host the
    choice spreads over the whole window rather than favouring its
    start (ops on ``blob-pipeline`` slow a little as the stores fill)."""
    count = max(1, round(len(slices) * CALM_SHARE))
    ranked = sorted(range(len(slices)),
                    key=lambda part: (slices[part]["steal_share"], part % 2, part))
    return [slices[part] for part in sorted(ranked[:count])]


def window_metrics(slices: list[dict]) -> dict:
    """The window-dependent end-to-end metrics over the ops of ``slices``
    taken together."""
    from perfbench.analysis import percentile

    results = [result for piece in slices for result in piece["results"]]
    if not results:
        return {}
    seconds = sum(piece["seconds"] for piece in slices)
    latencies = [result.latency for result in results]
    return {
        "ops_per_s": len(results) / seconds,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "submit_p50_ms": percentile(
            [r.submit for r in results if r.submit is not None], 50) * 1e3,
        "mb_per_s": sum(result.payload for result in results) / 1e6 / seconds,
        "cpu_ms_per_op": sum(piece["cpu"] for piece in slices) * 1e3 / len(results),
    }


def blob_dedup(target: Target) -> list[int]:
    from repro.http.client import RestClient

    client = RestClient(target.registry)
    return [client.get(uri)["chunks_deduped"] for uri in target.blob_stats_uris]


def end_to_end(name: str, seed: int, seconds: float, workdir: Path, out) -> tuple[dict, object]:
    from perfbench.analysis import beyond, median

    setup = measure_setup(name, workdir)
    target = Target(name, workdir / "main")
    try:
        dedup_before = blob_dedup(target)
        workload, stats = drive(name, seed, target, seconds,
                                parts=max(1, round(seconds / SLICE_S)))
        dedup = [after - before for after, before in zip(blob_dedup(target), dedup_before)]
        rss = peak_rss_mb(target.pid)
    finally:
        target.close()
    slices = window_slices(stats)
    calm = calm_slices(slices)
    values = window_metrics(calm)
    values.update({
        "setup_s": median(setup),
        "rss_peak_mb": rss,
        "ok_ratio": stats.verified / stats.attempted if stats.attempted else 0.0,
    })
    latencies = stats.latencies
    for line in workload.describe():
        print(f"inputs: {line}", file=out)
    if dedup:
        print(f"inputs: chunks deduplicated on upload/stage in the window "
              f"(source, transform, sink): {dedup}", file=out)
    print(f"set-up runs (s): {', '.join(f'{t:.3f}' for t in setup)}", file=out)
    calm_latencies = [result.latency for piece in calm for result in piece["results"]]
    print(f"latency samples {len(latencies)}, beyond p90 {beyond(latencies, 90)}; "
          f"submit samples {len(stats.submits)}; window {stats.elapsed:.2f} s in "
          f"{len(slices)} slices; metrics are over the {len(calm)} with the least host "
          f"steal ({len(calm_latencies)} samples, beyond p90 {beyond(calm_latencies, 90)})",
          file=out)
    used = {id(piece) for piece in calm}
    print("host steal share per slice (* = used): " + " ".join(
        f"{piece['steal_share']:.3f}{'*' * (id(piece) in used)}" for piece in slices),
          file=out)
    whole = window_metrics(slices)
    print("whole window, for comparison: " + ", ".join(
        f"{metric} {value:.5g}" for metric, value in whole.items()), file=out)
    fail_ratio = stats.failed / stats.attempted if stats.attempted else 1.0
    print(f"fail_ratio {fail_ratio:.6f} ({stats.failed} of {stats.attempted} ops)", file=out)
    return values, stats


def per_layer(name: str, seed: int, seconds: float, workdir: Path, out) -> tuple[dict, object]:
    from perfbench import analysis, spans
    from perfbench.layers import LAYERS, LayerReport

    half = seconds / 2
    target = Target(name, workdir / "untraced")
    try:
        _, reference = drive(name, seed, target, half)
    finally:
        target.close()
    recorder = spans.install()
    target = Target(name, workdir / "traced", trace=True)
    try:
        workload, stats = drive(name, seed, target, half, recorder=recorder)
    finally:
        target.close()
    recorded = recorder.spans
    if target.server is not None:
        with open(target.server.workdir / "spans.json") as handle:
            recorded = analysis.merge(recorded, [tuple(span) for span in json.load(handle)])
    untraced_rate = reference.verified / reference.elapsed
    traced_rate = stats.verified / stats.elapsed
    report = LayerReport(recorded, (stats.marks[0][0], stats.marks[-1][0]),
                         stats.payload, traced_rate / untraced_rate if untraced_rate else 0.0)
    values = report.metrics()
    for line in workload.describe():
        print(f"inputs: {line}", file=out)
    if name == "blob-pipeline":
        referenced = sum(span[analysis.TAG] for span in report.named["blob.stage"])
        print(f"inputs: chunks fetched {len(report.named['blob.fetch'])} of {referenced} "
              "referenced by staging", file=out)
    print(f"traced ops/s {traced_rate:.1f}, untraced ops/s {untraced_rate:.1f}, "
          f"trace.overhead_ratio {values['trace.overhead_ratio']:.3f}", file=out)
    print(f"latency_p50_ms (traced) {analysis.median(stats.latencies) * 1e3:.3f}", file=out)
    report.print_reconciliation(out)
    print("per-layer metrics (should move / most work / next to none):", file=out)
    for metric, unit, _, moves, where in LAYERS:
        print(f"  {metric:30s} {values[metric]:12.3f} {unit:12s} {moves} | {where}", file=out)
    stats.attempted += reference.attempted
    stats.failed += reference.failed
    return values, stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="MathCloud platform benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["gateway-submit", "local-reuse", "workflow-hilbert",
                                 "blob-pipeline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no platform source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.layers import LAYERS

    out = sys.stdout
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}", file=out)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=_scratch_root()))
    try:
        if args.trace:
            values, stats = per_layer(args.workload, args.seed, args.seconds, workdir, out)
            units = {metric: unit for metric, unit, *_ in LAYERS}
        else:
            values, stats = end_to_end(args.workload, args.seed, args.seconds, workdir, out)
            units = dict(END_TO_END)
            for metric, unit in END_TO_END:
                print(f"  {metric:16s} {values.get(metric, 0.0):14.4f} {unit}", file=out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    for error in stats.errors:
        print(f"failed op: {error}", file=out)
    result = {
        "correct": stats.failed == 0 and stats.attempted > 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {metric: {"value": values.get(metric, 0.0), "unit": unit}
                    for metric, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def _scratch_root() -> str:
    """Run directories live under the checkout (``.perfbench/``)."""
    path = ROOT / ".perfbench"
    path.mkdir(exist_ok=True)
    return str(path)


if __name__ == "__main__":
    sys.exit(main())
