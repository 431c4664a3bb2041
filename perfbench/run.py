"""Benchmark entry point.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it times one workload end to end through the ``stirbess``
CLI; with ``--trace 1`` it makes the traced in-process run of every layer
instead.  Human-readable lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record, with provenance and every raw sample, is written to
``.bench_out/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import harness
import workloads


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="standard",
                        help="problem sizes: standard (measured), full (baseline figures, traced run "
                             "only), tiny (smoke test)")
    args = parser.parse_args(argv)
    if args.size == "full" and not args.trace:
        parser.error("--size full is for the traced run (--trace 1) only")
    return args


def _format(value: float) -> str:
    return f"{value:.6g}"


def _number(value: float) -> float | None:
    """A metric the run could not measure (it also counts as failed) is
    null rather than NaN, which is not JSON."""
    return value if math.isfinite(value) else None


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness.require_source_tree()
    except harness.NoSourceTree as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    digests = workloads.load_digests()

    if args.trace:
        import layers

        record = layers.run_layers(args.size, args.seed, digests)
        trace_path = harness.OUT / "traces" / f"{args.workload}-seed{args.seed}-{args.size}.json"
        spans = record.pop("spans")
        harness.write_json(trace_path, spans)
        print(f"spans (self time / duration, s), written to {trace_path.relative_to(harness.ROOT)}:")
        for span in spans:
            print(f"  {span['trace_id']:>12s} {span['name']:36s} {span['self_s']:10.4f} {span['duration_s']:10.4f}")
        verify_self = sum(span["self_s"] for span in spans if span["trace_id"] == "verify-all")
        metrics = record["metrics"]
        print(f"verify-all spans: self times sum to {verify_self:.4f} s, tracing overhead ratio "
              f"{_format(metrics['trace.overhead_ratio'][0])}; the same calls untraced in a fresh "
              f"interpreter took {metrics['trace.verify_all_untraced_s'][0]:.4f} s")
    else:
        record = workloads.run_end_to_end(args.workload, args.size, args.seed, args.seconds, digests)
        runs = sum(len(v) for v in record["samples"].values())
        wall = record["metrics"]["wall_s"][0]
        print(f"{runs} operation runs; work per round {record['work_per_pass']}, "
              f"{record['throughput_name']} {_format(record['work_per_pass'] / wall)} 1/s")
    metrics = {name: {"value": _number(value), "unit": unit} for name, (value, unit) in record["metrics"].items()}
    attempted, failed = record["attempted"], record["failed"]
    harness.write_json(
        harness.OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json",
        {**record, "workload": args.workload, "trace": args.trace, "metrics": metrics,
         "provenance": harness.provenance()})

    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{attempted} attempted, {failed} failed, failed_ratio {_format(failed / attempted)}")
    for name, (value, unit) in record["metrics"].items():
        print(f"  {name:40s} {_format(value):>14s} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
