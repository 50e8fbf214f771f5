"""Server process of one workload's system under test.

Usage::

    python3 perfbench/server.py --workload NAME --workdir DIR [--trace]

Builds the workload's platform (``perfbench.deploy``), sends it its first
request (over TCP when the platform serves TCP) and then prints one JSON
line naming its submit URI: that line marks the end of set-up. It then
serves until a ``stop`` line (or end of input) arrives on standard input,
writes its spans to ``DIR/spans.json`` when traced, shuts the platform
down and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from perfbench import deploy, spans

    recorder = spans.install() if args.trace else None
    platform = deploy.BUILDERS[args.workload](args.workdir)
    deploy.first_request(platform.registry, platform.submit_uri)
    print(json.dumps({"submit_uri": platform.submit_uri,
                      "blob_stats_uris": platform.blob_stats_uris}), flush=True)
    for line in sys.stdin:
        if line.strip() == "stop":
            break
    if recorder is not None:
        recorder.dump(os.path.join(args.workdir, "spans.json"))
    platform.close()
    sys.stdout.flush()
    # handler and syncer threads are daemons or already joined; exit
    # without waiting on any straggler the interpreter would otherwise join
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
