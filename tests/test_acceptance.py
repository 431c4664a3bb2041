"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on stdout.
"""

import itertools
import json
import time
from fractions import Fraction

from stirbess.cli import main as cli_main
from stirbess.families import pn_closed_form, pn_recurrence
from stirbess.identities import REGISTRY, run_suite, verify
from stirbess.occupation import SimConfig, estimate_moments
from stirbess.triangles import Triangles, stirling1, stirling2


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {criterion}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def test_c1_recurrence_equals_closed_form():
    start = time.perf_counter()
    ok = all(pn_recurrence(n) == pn_closed_form(n) for n in range(1, 61))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1: P_n recurrence = closed form, n <= 60 (exact)",
        ok and elapsed < 30.0,
        f"{elapsed:.1f}s",
    )


def test_c2_first_bessel_summation_to_60():
    start = time.perf_counter()
    report = verify("thm1", 60)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2: thm1 sum equals b(n,k), 1 <= k <= n <= 60 (exact)",
        report.passed and elapsed < 10.0,
        f"{elapsed:.1f}s",
    )


def test_c3_second_bessel_summation_to_60():
    report = verify("thm2", 60)
    _report(
        "criterion 3: thm2 sum equals (-1)^(n-k) B(n,k) incl. forced zeros, n <= 60 (exact)",
        report.passed,
    )


def test_c4_special_z_slices():
    report = verify("pn-special-z", 25)
    _report(
        "criterion 4: P_n slices at z in {0,-1,1,-1/2,-2} match closed forms, n <= 25 (exact)",
        report.passed,
    )


def test_c5_supporting_identities():
    start = time.perf_counter()
    checks = [
        verify("inversion", 40),
        verify("lah", 40),
        verify("duality", 40),
        verify("cross-bb", 40),
        verify("gs-scaling", 40),
        verify("gs-special", 25),
        verify("gs-composition", 40),
        verify("sss2", 40),
        verify("lemma-keys", 20),
        verify("hagen-rothe", 1),
        verify("gould-3-120", 40),
        verify("moment-bessel", 20),
        verify("theta-b", 20),
        verify("rising-factorial", 30),
        verify("falling-factorial", 30),
        verify("bessel-b-coeff", 25),
    ]
    elapsed = time.perf_counter() - start
    failed = [r.identity_id for r in checks if not r.passed]
    _report(
        "criterion 5: supporting identities, n <= 20 (40 where cheap), all exact",
        not failed and elapsed < 120.0,
        f"{len(checks)} verifiers, {elapsed:.1f}s" + (f", failed: {failed}" if failed else ""),
    )


def _count_cycles(perm):
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in _partitions(rest):
        for i in range(len(blocks)):
            yield blocks[:i] + [blocks[i] + [first]] + blocks[i + 1 :]
        yield blocks + [[first]]


def test_c6_enumeration_oracles():
    ok = True
    for n in range(0, 9):
        cycle_counts = [0] * (n + 1)
        for perm in itertools.permutations(range(n)):
            cycle_counts[_count_cycles(perm)] += 1
        block_counts = [0] * (n + 1)
        for blocks in _partitions(list(range(n))):
            if len(blocks) <= n:
                block_counts[len(blocks)] += 1
        if n == 0:
            block_counts[0] = 1
        for k in range(n + 1):
            ok = ok and stirling1(n, k) == cycle_counts[k] and stirling2(n, k) == block_counts[k]
    _report("criterion 6: Stirling numbers vs brute-force enumeration, n <= 8 (exact)", ok)


def test_c7_monte_carlo_moments():
    start = time.perf_counter()
    ok = True
    details = []
    for alpha in (0.3, 0.5, 0.7):
        config = SimConfig(alpha=alpha, steps=10_000, paths=100_000, max_moment=4, seed=42)
        result = estimate_moments(config, jobs=1)
        if alpha == 0.5:
            exacts = [m.exact_value for m in result.moments]
            ok = ok and exacts == [Fraction(1, 2), Fraction(3, 8), Fraction(5, 16), Fraction(35, 128)]
        zs = [m.z_score for m in result.moments]
        ok = ok and all(z is not None and abs(z) < 5.0 for z in zs)
        details.append(f"alpha={alpha}: z=" + "/".join(f"{z:+.2f}" for z in zs))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(
        "criterion 7: Monte Carlo |z| < 5 for n=1..4 at alpha in {0.3,0.5,0.7}, single-threaded",
        ok,
        "; ".join(details) + f"; {elapsed:.1f}s",
    )


def test_c8_byte_identical_output(capsys):
    verify_args = ["verify", "--all", "--n-max", "12", "--format", "json"]
    outputs = []
    for jobs in ("1", "1", "2"):
        code = cli_main(verify_args + ["--jobs", jobs])
        outputs.append(capsys.readouterr().out)
        assert code == 0
    # paths > block size, so the jobs=2 run genuinely splits across streams
    sim_args = [
        "simulate", "--alpha", "0.35", "--steps", "100", "--paths", "70000",
        "--moments", "3", "--seed", "7", "--format", "json",
    ]
    sim_outputs = []
    for jobs in ("1", "1", "2"):
        code = cli_main(sim_args + ["--jobs", jobs])
        sim_outputs.append(capsys.readouterr().out)
        assert code == 0
    ok = outputs[0] == outputs[1] == outputs[2] and sim_outputs[0] == sim_outputs[1] == sim_outputs[2]
    json.loads(outputs[0])
    json.loads(sim_outputs[0])
    _report(
        "criterion 8: verify/simulate machine output byte-identical across runs and worker counts",
        ok,
    )


def test_c9_mutation_sensitivity(corrupt):
    tables = corrupt(Triangles(), 1, 0, 7, 3)

    reports = run_suite(10, "all", tables=tables, jobs=1)
    failed = [r for r in reports if not r.passed]
    ok = bool(failed)
    minimal_ok = True
    for r in failed:
        identity = REGISTRY[r.identity_id]
        failures = [
            params
            for params in identity.cases(10)
            if identity.evaluate(params, tables)[0] != identity.evaluate(params, tables)[1]
        ]
        minimal_ok = minimal_ok and r.counterexample is not None and r.counterexample.params == min(failures)
    inversion = next(r for r in reports if r.identity_id == "inversion")
    ok = ok and minimal_ok and not inversion.passed and inversion.counterexample.params == (7, 1)
    _report(
        "criterion 9: sign flip at stirling1(7,3) detected with lexicographically minimal counterexamples",
        ok,
        f"{len(failed)} verifiers failed",
    )
