"""Benchmark of the EWH join engine, one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload stream-window --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
repeats the untraced run and adds a traced one, and reports the per-layer
metrics.  ``--workload all`` runs every workload in turn, each in its own
process.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``README.md`` beside
this file describes the workloads and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("batch-tableiv", "stream-window", "stream-sticky")
TRACE_DIR = HERE.parent / ".perfbench"

#: Per-workload names of the metrics, for the printed table.
DISPLAY_NAMES = {
    "batch-tableiv": {
        "capacity_tuples_per_s": "batch_tuples_per_s",
        "latency_p50_ms": "batch_join_p50_ms",
        "model_cost": "batch_model_cost",
    },
    "stream": {
        "capacity_tuples_per_s": "stream_capacity_tuples_per_s",
        "latency_p50_ms": "stream_latency_p50_ms",
        "loadgen.latency_p99_ms": "stream_latency_p99_ms",
        "model_cost": "stream_model_max_load",
    },
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Run each workload in a child process; fail if any run failed."""
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(HERE.parent / "src"))
    import repro  # noqa: F401  -- fail before printing if the program is absent

    from common import END_TO_END_UNITS, PER_LAYER_UNITS, stop_helper_processes

    try:
        if args.workload == "batch-tableiv":
            import batch

            outcome = batch.run(args.seed, args.seconds, bool(args.trace))
            names = DISPLAY_NAMES["batch-tableiv"]
        else:
            import stream

            outcome = stream.run(
                args.workload, args.seed, args.seconds, bool(args.trace)
            )
            names = DISPLAY_NAMES["stream"]
    finally:
        stop_helper_processes()

    if args.trace:
        units = PER_LAYER_UNITS
        values = {name: outcome.layers.get(name, 0) for name in units}
        TRACE_DIR.mkdir(exist_ok=True)
        outcome.tracer.write_chrome_trace(
            str(TRACE_DIR / f"{args.workload}-seed{args.seed}.trace.json")
        )
    else:
        units = END_TO_END_UNITS
        values = outcome.metrics

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}")
    for note in outcome.notes:
        print(f"  {note}")
    for name, value in values.items():
        label = names.get(name, name)
        print(f"  {label:<48} {value:>16.6g} {units[name]}")
    print("deterministic " + json.dumps(outcome.deterministic, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and len(values) == len(units),
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
