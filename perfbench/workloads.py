"""The four end-to-end workloads and the checks on their outputs.

Each operation is one ``stirbess`` CLI invocation in a fresh interpreter, so
interpreter start-up, imports, cold caches and pool start-up are paid on
every operation, as they are for a user.  The benchmark reads no timing that
the program reports about itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import harness

WORKLOADS = ("verify-all", "triangle-rows", "simulate-long", "simulate-short")

# Problem sizes.  "standard" is what the benchmark measures; it is scaled so
# one pass of every workload fits several times into a run.  "full" is the
# size the project's baseline figures were taken at; only the traced run
# uses it.  "tiny" is for the smoke test.
SIZES = {
    "tiny": {
        "verify_n": 6, "tri_n": 20, "gs_n": 10,
        "long_steps": 1000, "long_paths": 40000,
        "short_steps": 1000, "short_paths": 40000,
        "walk_steps": 500, "walk_paths": 40000,
    },
    "standard": {
        "verify_n": 30, "tri_n": 250, "gs_n": 100,
        "long_steps": 5000, "long_paths": 65536,
        "short_steps": 1000, "short_paths": 131072,
        "walk_steps": 2000, "walk_paths": 65536,
    },
    "full": {
        "verify_n": 40, "tri_n": 400, "gs_n": 150,
        "walk_steps": 10000, "walk_paths": 65536,
    },
}

LONG_ALPHAS = ("0.3", "0.5", "0.7")
SHORT_ALPHAS = ("0.3", "0.7")
SHORT_T = Fraction(1, 2)
MOMENTS = 4
Z_LIMIT = 5.0
SETUP_PER_OP = 2  # set-up samples taken before each operation run
SETUP_SAMPLES = 15  # at least this many, more when the run has more operations
RUN_DEADLINE_S = 165.0  # every run must end well inside 180 s

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Op:
    args: tuple[str, ...]  # arguments after ``stirbess``
    work: int  # identity cases, triangle entries or path-steps
    check: Callable[[bytes], list[str]]  # returns the problems found in stdout
    exact_output: bool  # stdout must match the recorded digest

    @property
    def key(self) -> str:
        return " ".join(self.args)


def derive_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"stirbess-perfbench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# ---------------------------------------------------------------------------
# verify

def identity_cases(n_max: int) -> int:
    from stirbess import identities

    return sum(sum(1 for _ in identities.REGISTRY[i].cases(n_max)) for i in identities.IDENTITY_IDS)


def check_verify_json(stdout: bytes) -> list[str]:
    from stirbess import identities

    reports = json.loads(stdout)
    problems = []
    ids = [r["id"] for r in reports]
    if ids != list(identities.IDENTITY_IDS):
        problems.append(f"identity list differs from the registry: {ids}")
    problems += [f"identity {r['id']} status {r['status']}" for r in reports if r["status"] != "pass"]
    return problems


# ---------------------------------------------------------------------------
# triangles: spot checks computed here, independently of the package

def _rows_from_csv(stdout: bytes) -> list[list[int]]:
    lines = stdout.decode().splitlines()
    if lines[0] != "n,k,value":
        raise ValueError(f"unexpected csv header {lines[0]!r}")
    rows: list[list[int]] = []
    for line in lines[1:]:
        n, k, value = line.split(",")
        if int(k) == 0:
            rows.append([])
        if len(rows) - 1 != int(n) or len(rows[-1]) != int(k):
            raise ValueError(f"csv cell ({n}, {k}) out of order")
        rows[-1].append(int(value))
    return rows


def _rows_from_table(stdout: bytes) -> list[list[int]]:
    return [[int(v) for v in line.split()] for line in stdout.decode().splitlines()]


def _shape_problems(rows: list, n_max: int) -> list[str]:
    if len(rows) != n_max + 1:
        return [f"{len(rows)} rows, expected {n_max + 1}"]
    return [f"row {n} has {len(r)} entries" for n, r in enumerate(rows) if len(r) != n + 1]


def _lah_row_sums(n_max: int) -> list[int]:
    # sum_k L(n, k): a(n) = (2n-1) a(n-1) - (n-1)(n-2) a(n-2), a(0) = a(1) = 1
    sums = [1, 1]
    for n in range(2, n_max + 1):
        sums.append((2 * n - 1) * sums[-1] - (n - 1) * (n - 2) * sums[-2])
    return sums[: n_max + 1]


def check_stirling1(n_max: int, stdout: bytes) -> list[str]:
    rows = _rows_from_csv(stdout)
    problems = _shape_problems(rows, n_max)
    problems += [f"stirling1 row {n} sums to {sum(r)}, not {n}!"
                 for n, r in enumerate(rows) if sum(r) != math.factorial(n)]
    return problems


def check_bessel_b(n_max: int, stdout: bytes) -> list[str]:
    rows = _rows_from_csv(stdout)
    problems = _shape_problems(rows, n_max)
    for n in range(1, len(rows)):
        r = rows[n]
        first = math.factorial(2 * n - 2) // (2 ** (n - 1) * math.factorial(n - 1))
        expected = {0: 0, 1: first if n % 2 else -first, n: 1}
        if n >= 2:
            expected[n - 1] = -n * (n - 1) // 2
        problems += [f"b({n}, {k}) = {r[k]}, expected {v}" for k, v in expected.items() if r[k] != v]
    return problems


def check_lah(n_max: int, stdout: bytes) -> list[str]:
    rows = _rows_from_table(stdout)
    problems = _shape_problems(rows, n_max)
    for n, (r, total) in enumerate(zip(rows, _lah_row_sums(n_max))):
        if sum(r) != total:
            problems.append(f"lah row {n} sums to {sum(r)}, expected {total}")
        if n >= 1 and r[1] != math.factorial(n):
            problems.append(f"L({n}, 1) = {r[1]}, expected {n}!")
    return problems


GS_S, GS_H = Fraction(1, 2), Fraction(-3, 2)


def check_gs(n_max: int, stdout: bytes) -> list[str]:
    payload = json.loads(stdout)
    problems = []
    header = {k: payload.get(k) for k in ("family", "n_max", "s", "h")}
    if header != {"family": "gs", "n_max": n_max, "s": str(GS_S), "h": str(GS_H)}:
        problems.append(f"unexpected gs header {header}")
    rows = [[Fraction(v) for v in row] for row in payload["rows"]]
    problems += _shape_problems(rows, n_max)
    for n in range(1, len(rows)):
        r = rows[n]
        # T(m+1, m) = T(m, m-1) + h*m, so T(n, n-1) = h n(n-1)/2
        expected = {0: 0, n: 1, n - 1: GS_H * n * (n - 1) / 2}
        problems += [f"GS({n}, {k}) = {r[k]}, expected {v}" for k, v in expected.items() if r[k] != v]
    return problems


def triangle_ops(size: dict) -> list[Op]:
    n, g = size["tri_n"], size["gs_n"]
    entries = (n + 1) * (n + 2) // 2
    return [
        Op(("triangle", "stirling1", "--n", str(n), "--format", "csv"), entries,
           lambda out: check_stirling1(n, out), True),
        Op(("triangle", "bessel-b", "--n", str(n), "--format", "csv"), entries,
           lambda out: check_bessel_b(n, out), True),
        Op(("triangle", "lah", "--n", str(n), "--format", "table"), entries,
           lambda out: check_lah(n, out), True),
        Op(("triangle", "gs", "--s", str(GS_S), "--h", str(GS_H), "--n", str(g), "--format", "json"),
           (g + 1) * (g + 2) // 2, lambda out: check_gs(g, out), True),
    ]


# ---------------------------------------------------------------------------
# simulate

def exact_moment(alpha: Fraction, n: int, t: Fraction) -> Fraction:
    """t^n P_n(alpha, -1/2) from the Stirling closed form, not the
    central-binomial form the simulator reports against."""
    from stirbess import families

    return t**n * families.pn_closed_form(n).substitute_z(Fraction(-1, 2))(alpha)


def check_simulate(alpha: str, steps: int, paths: int, seed: int, t: Fraction | None,
                   stdout: bytes) -> list[str]:
    payload = json.loads(stdout)
    sections = [(Fraction(1), payload)] if t is None else [
        (Fraction(1), payload["moments"]), (t, payload["self_similarity"])]
    problems = []
    a = Fraction(float(alpha))  # the CLI parses --alpha as a float
    for frac, result in sections:
        cfg = result["config"]
        if (cfg["alpha"], cfg["steps"], cfg["paths"], cfg["seed"]) != (float(alpha), steps, paths, seed):
            problems.append(f"config echo differs: {cfg}")
        if result["paths_used"] != paths or Fraction(result["time_fraction"]) != frac:
            problems.append(f"paths_used/time_fraction differ: {result['paths_used']} {result['time_fraction']}")
        if [m["n"] for m in result["moments"]] != list(range(1, MOMENTS + 1)):
            problems.append("moment orders differ")
        for m in result["moments"]:
            exact = exact_moment(a, m["n"], frac)
            if Fraction(m["exact"]) != exact:
                problems.append(f"t={frac} n={m['n']}: exact {m['exact']} != {exact}")
            if m["z_score"] is None or abs(m["z_score"]) >= Z_LIMIT:
                problems.append(f"t={frac} n={m['n']}: z = {m['z_score']}")
    return problems


def simulate_op(alphas, steps: int, paths: int, t: Fraction | None, seed: int) -> Op:
    """One simulate operation; the seed picks alpha and the walk seed.

    A run repeats this one operation, so its timing is a median over many
    equal runs and every repeat is also a determinism check.  Different
    seeds cover every alpha.
    """
    alpha = alphas[seed % len(alphas)]
    walk_seed = derive_seed(seed, 0)
    args = ["simulate", "--alpha", alpha, "--steps", str(steps), "--paths", str(paths),
            "--moments", str(MOMENTS), "--seed", str(walk_seed)]
    intervals = steps
    if t is not None:
        args += ["--t", str(t)]
        intervals += math.floor(t * steps)
    args += ["--format", "json"]
    return Op(tuple(args), paths * intervals,
              lambda out: check_simulate(alpha, steps, paths, walk_seed, t, out), False)


def build_ops(workload: str, size_name: str, seed: int) -> list[Op]:
    size = SIZES[size_name]
    if workload == "verify-all":
        n = size["verify_n"]
        return [Op(("verify", "--all", "--n-max", str(n), "--format", "json"), identity_cases(n),
                   check_verify_json, True)]
    if workload == "triangle-rows":
        return triangle_ops(size)
    if workload == "simulate-long":
        return [simulate_op(LONG_ALPHAS, size["long_steps"], size["long_paths"], None, seed)]
    if workload == "simulate-short":
        return [simulate_op(SHORT_ALPHAS, size["short_steps"], size["short_paths"], SHORT_T, seed)]
    raise ValueError(f"unknown workload {workload!r}")


THROUGHPUT_NAME = {
    "verify-all": "cases_per_s",
    "triangle-rows": "entries_per_s",
    "simulate-long": "path_steps_per_s",
    "simulate-short": "path_steps_per_s",
}


# ---------------------------------------------------------------------------
# the timed loop

def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


class DeterminismLog:
    """Digests of outputs that must repeat byte for byte, kept across runs in
    the same checkout and keyed by the source tree, so a changed program
    starts a fresh log."""

    def __init__(self):
        self.path = harness.OUT / f"determinism-{harness.source_digest()[:16]}.json"
        self.seen = json.loads(self.path.read_text()) if self.path.exists() else {}

    def check(self, key: str, digest: str) -> list[str]:
        first = self.seen.setdefault(key, digest)
        return [] if first == digest else [f"output differs from an earlier run of the same command ({first[:12]})"]

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.seen, indent=1, sort_keys=True))
        tmp.replace(self.path)


def _op_problems(op: Op, run: harness.ChildRun, checked: dict, digests: dict, log: DeterminismLog):
    if run.timed_out:
        return ["timed out"]
    problems = []
    if run.returncode != 0:
        problems.append(f"exit code {run.returncode}")
    if "Traceback" in run.stderr:
        problems.append("traceback on stderr: " + run.stderr.strip().splitlines()[-1])
    if problems:
        return problems
    digest = run.sha256
    if op.exact_output:
        expected = digests.get(op.key)
        if digest != expected:
            problems.append(f"stdout sha256 {digest[:12]} != recorded {str(expected)[:12]}")
    else:
        problems += log.check(op.key, digest)
    if checked.get(op.key) != digest:  # parse each distinct output once per run
        try:
            found = op.check(run.stdout)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            found = [f"unparseable output: {exc!r}"]
        problems += found
        if not found:
            checked[op.key] = digest
    return problems


def measure_setup() -> tuple[float, list[str]]:
    """One cold ``import stirbess.cli`` in a fresh interpreter."""
    run = harness.run_child([sys.executable, "-c", "import stirbess.cli"], 60, "setup")
    problems = [] if run.returncode == 0 else [f"import stirbess.cli failed: {run.stderr.strip()[-200:]}"]
    return run.wall_s, problems


def run_end_to_end(workload: str, size_name: str, seed: int, seconds: float,
                   digests: dict[str, str]) -> dict:
    """Run the workload's operations round robin for about ``seconds``.

    Every operation runs at least once; after that, the next one starts only
    if it is expected to end within the time box.  Set-up samples are taken
    before each operation, so set-up and operations see the same machine
    load.  Each timing is the sum over operations of that operation's median
    over its runs that did not fail, which keeps a burst of load from other
    processes on the machine out of the result.  Failed runs are never
    timed: if every run of an operation fails, the timings are NaN.
    """
    ops = build_ops(workload, size_name, seed)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    log = DeterminismLog()
    checked: dict[str, str] = {}
    setup_runs: list[tuple[float, bool]] = []  # (wall time, import succeeded)
    samples: dict[str, list[dict]] = {op.key: [] for op in ops}
    failures: list[str] = []
    attempted = failed = 0

    def setup_sample() -> None:
        nonlocal attempted, failed
        wall, problems = measure_setup()
        setup_runs.append((wall, not problems))
        attempted += 1
        failed += bool(problems)
        failures.extend(problems)

    measure_start = time.perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        for _ in range(SETUP_PER_OP):
            setup_sample()
        run = harness.run_child(harness.cli_argv(list(op.args)), deadline - time.perf_counter())
        attempted += 1
        problems = _op_problems(op, run, checked, digests, log)
        if problems:
            failed += 1
            failures.append(f"{op.key}: {'; '.join(problems)}")
        samples[op.key].append({"wall_s": run.wall_s, "cpu_s": run.cpu_s, "rss_mb": run.rss_mb,
                                "ok": not problems})
        i += 1
        upcoming = samples[ops[i % len(ops)].key]
        if i >= len(ops):
            now = time.perf_counter()
            expected = upcoming[-1]["wall_s"] + SETUP_PER_OP * setup_runs[-1][0]
            if now - measure_start + expected > seconds or now + 2 * expected > deadline:
                break
    while len(setup_runs) < SETUP_SAMPLES:
        setup_sample()
    log.save()

    passed = {key: [r for r in runs if r["ok"]] for key, runs in samples.items()}
    setup_times = [wall for wall, ok in setup_runs if ok]

    def per_pass(field: str) -> float:
        if not all(passed.values()):
            return math.nan
        return sum(statistics.median(r[field] for r in runs) for runs in passed.values())

    wall = per_pass("wall_s")
    work = sum(op.work for op in ops)
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (per_pass("cpu_s"), "s"),
        "setup_s": (statistics.median(setup_times) if setup_times else math.nan, "s"),
        "peak_rss_mb": (max((r["rss_mb"] for runs in passed.values() for r in runs), default=math.nan), "MB"),
        "work_per_s": (work / wall, "1/s"),
    }
    return {
        "workload": workload,
        "size": size_name,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "work_per_pass": work,  # one round of the operations
        "throughput_name": THROUGHPUT_NAME[workload],
        "setup_samples_s": [wall for wall, _ in setup_runs],
        "samples": samples,
    }
