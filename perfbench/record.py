"""Record a baseline file, or compare two of them.

    python3 perfbench/record.py record perfbench/BENCH_0.json --seeds 10
    python3 perfbench/record.py compare perfbench/BENCH_0.json BENCH_new.json

``record`` runs every workload once per seed with tracing off, then one
traced run at the measured size and one at the full size, and writes each
metric's median, quartiles and raw values with the machine's provenance.
``compare`` prints the change of every median against the bound in
BENCHMARK.json, and refuses files recorded with different core counts.  It
exits 1 if a median is worse than its bound, or if a workload has more failed
operations than in the old file.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import harness
import workloads

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int, size: str) -> tuple[dict, dict]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace), "--size", size]
    done = subprocess.run(argv, cwd=harness.ROOT, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((harness.OUT / "results" / f"{workload}-seed{seed}-trace{trace}-{size}.json").read_text())
    return result, record


def summarize(values: list[float | None]) -> dict:
    """Median, quartiles and spread of the runs that measured the metric
    (a run whose operations all failed reports null)."""
    measured = [v for v in values if v is not None]
    summary = {"median": statistics.median(measured) if measured else None, "n": len(measured),
               "values": values}
    if len(measured) >= 2:
        q1, _, q3 = statistics.quantiles(measured, n=4)
        med = summary["median"]
        summary.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return summary


def record(path: str, seeds: int) -> None:
    out: dict = {"run_seconds": BENCHMARK["run_seconds"], "size": "standard", "end_to_end": {}, "failed": {}}
    for workload in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in range(1, seeds + 1):
            result, rec = _run(workload, seed, 0, "standard")
            out.setdefault("provenance", rec["provenance"])
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        out["end_to_end"][workload] = {name: summarize(v) for name, v in values.items()}
        out["failed"][workload] = failed
    for size in ("standard", "full"):
        result, rec = _run(workloads.WORKLOADS[0], 1, 1, size)
        out[f"per_layer_{size}"] = {k: m["value"] for k, m in result["metrics"].items()}
        out[f"per_layer_{size}_failed"] = result["failed"]
        print(f"traced run at {size} size: {result['failed']} failed", flush=True)
    harness.write_json(Path(path), out)
    for workload, metrics in out["end_to_end"].items():
        for name, s in metrics.items():
            print(f"{workload:15s} {name:12s} median {s['median'] or math.nan:.5g}  "
                  f"spread {s.get('spread') or math.nan:.4f}")


def compare(old_path: str, new_path: str) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    cores = [(r["provenance"]["cpu_count"], r["provenance"]["affinity_cpus"]) for r in (old, new)]
    if cores[0] != cores[1]:
        print(f"refusing to compare: recorded with (cpu_count, affinity) {cores[0]} and {cores[1]}",
              file=sys.stderr)
        return 2
    bounds = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    worse = 0
    for workload, failed in new["failed"].items():
        if failed > old["failed"].get(workload, 0):
            worse += 1
            print(f"{workload:15s} failed operations {old['failed'].get(workload, 0)} -> {failed}  WORSE")
    for workload, metrics in new["end_to_end"].items():
        for name, s in metrics.items():
            base = old["end_to_end"].get(workload, {}).get(name)
            if base is None or base["median"] is None:
                continue
            if s["median"] is None:
                worse += 1
                print(f"{workload:15s} {name:12s} not measured: every run failed  WORSE")
                continue
            change = s["median"] / base["median"] - 1
            spec = bounds[name]
            regressed = change > spec["bound"] if spec["better"] == "lower" else -change > spec["bound"]
            worse += regressed
            print(f"{workload:15s} {name:12s} {base['median']:12.5g} -> {s['median']:12.5g}  "
                  f"{change:+8.1%}  bound {spec['bound']:.0%}{'  WORSE' if regressed else ''}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/record.py")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_rec = sub.add_parser("record")
    p_rec.add_argument("path")
    p_rec.add_argument("--seeds", type=int, default=10)
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("old")
    p_cmp.add_argument("new")
    args = parser.parse_args(argv)
    harness.require_source_tree()
    if args.cmd == "record":
        record(args.path, args.seeds)
        return 0
    return compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
