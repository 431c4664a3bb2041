"""Smoke test of the benchmark itself, at tiny problem sizes (about a minute).

    python3 perfbench/smoke.py

It runs every workload once end to end and once traced, and checks that

- each run exits 0 and its last stdout line is the result object, with
  every metric BENCHMARK.json declares for that mode, under its unit, and
  no other;
- a deliberately corrupted output digest counts that operation as failed,
  and the failed operation is not timed;
- a copy of the benchmark without the package source exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import harness
import workloads

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def run(args: list[str], cwd=harness.ROOT) -> tuple[int, list[str]]:
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout.strip().splitlines()


def result(args: list[str]) -> dict:
    code, lines = run(args)
    assert code == 0, f"{args}: exit code {code}"
    payload = json.loads(lines[-1])
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}, payload.keys()
    return payload


def expect_metrics(payload: dict, declared: list[dict], what: str) -> None:
    got = {name: m["unit"] for name, m in payload["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"{what}: metrics differ from BENCHMARK.json: " \
        f"missing {sorted(want.keys() - got.keys())}, extra {sorted(got.keys() - want.keys())}, " \
        f"units {[(k, got[k], want[k]) for k in got.keys() & want.keys() if got[k] != want[k]]}"
    for name, m in payload["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{what}: {name} is not a number"


def main() -> int:
    harness.require_source_tree()
    common = ["--seed", "7", "--seconds", "1", "--size", "tiny"]
    for workload in workloads.WORKLOADS:
        for trace, declared in (("0", BENCHMARK["end_to_end"]), ("1", BENCHMARK["per_layer"])):
            payload = result(["--workload", workload, "--trace", trace, *common])
            assert payload["correct"] and payload["failed"] == 0, f"{workload} trace {trace}: {payload}"
            assert payload["attempted"] >= 1
            expect_metrics(payload, declared, f"{workload} trace {trace}")
            print(f"ok  {workload} trace {trace}: {payload['attempted']} attempted")
            if workload != workloads.WORKLOADS[0]:
                break  # the traced run does not depend on the workload; once is enough

    digests = workloads.load_digests()
    victim = next(op.key for op in workloads.build_ops("triangle-rows", "tiny", 7))
    digests[victim] = "0" * 64
    record = workloads.run_end_to_end("triangle-rows", "tiny", 7, 1, digests)
    assert record["failed"] >= 1 and any(f.startswith(victim) for f in record["failures"]), record["failures"]
    assert math.isnan(record["metrics"]["wall_s"][0]), "a failed operation was timed"
    print(f"ok  corrupted digest for {victim!r}: {record['failed']} of {record['attempted']} failed")

    bare = harness.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(harness.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run(["--workload", "verify-all", "--trace", "0", *common], cwd=bare)
    shutil.rmtree(bare)
    assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    print(f"ok  no source tree: exit code {code}, no result printed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
