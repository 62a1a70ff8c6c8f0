"""One benchmark sample, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/sample.py --workload NAME --seed N \
        --mode timed|traced --workers N [--spans PATH]

Sets the workload up, runs it once, checks its output and prints one
JSON object. ``--mode traced`` first installs the span wrappers of
:mod:`spans` and adds the per-layer summary. ``perfbench/run.py`` starts
one of these per sample, so registry state never leaks between samples
and ``ru_maxrss`` (which only grows within a process) stays meaningful.
All work sits under the ``__main__`` guard: spawned shard workers
re-import this file and must not run it.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, List

from spans import NullRecorder, SpanRecorder, instrument_layers
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--spans", help="write the spans here (traced mode)")
    args = parser.parse_args()

    runners: List[Any] = []
    recorder: Any = NullRecorder()
    if args.mode == "traced":
        recorder = SpanRecorder()
        instrument_layers(recorder, runners)
    result = WORKLOADS[args.workload].sample(args.seed, args.workers,
                                             recorder, runners)
    if args.mode == "traced":
        result["spans"] = recorder.summary()
        result["counts"] = recorder.counts
        if args.spans:
            recorder.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
