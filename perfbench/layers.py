"""The traced in-process run: per-layer metrics for the seven modules.

Spans are recorded here, around calls into each module's public functions,
not inside the package.  A span holds its name, start, end, parent span and
trace id; spans stay in memory and are written to ``.bench_out/`` when the
run ends.  A span's self time is its duration minus its children's.

Run directly with ``--untraced-verify N`` it replays the calls of the
``verify-all`` trace without spans and prints their wall time; the traced
run starts it in a fresh interpreter for the untraced jobs=1 suite time.
The tracing overhead itself is measured in process, as the cost of one
span times the number of spans.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from fractions import Fraction

import harness
import workloads


SPAN_COST_REPEATS = 20000


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = {
            "name": name,
            "span_id": next(self._ids),
            "parent_id": parent["span_id"] if parent else None,
            "trace_id": parent["trace_id"] if parent else name,
        }
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def count(self, trace_id: str) -> int:
        return sum(1 for s in self.spans if s["trace_id"] == trace_id)

    def duration(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def with_self_times(self) -> list[dict]:
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent_id"] is not None:
                child_time[s["parent_id"]] = child_time.get(s["parent_id"], 0.0) + s["end"] - s["start"]
        out = []
        for s in sorted(self.spans, key=lambda s: s["start"]):
            duration = s["end"] - s["start"]
            out.append(dict(s, duration_s=duration, self_s=duration - child_time.get(s["span_id"], 0.0)))
        return out


def verify_all_calls(n_max: int, span) -> list:
    """What ``verify --all --n-max N --jobs 1`` does, split at layer
    boundaries: the P_n cache is built cold first, so each identity span
    afterwards is that evaluator's own time."""
    from stirbess import families, identities

    with span("families.pn_recurrence"):
        for n in range(1, n_max + 1):
            families.pn_recurrence(n)
    reports = []
    for ident in identities.IDENTITY_IDS:
        with span(f"identities.{ident}"):
            reports += identities.run_suite(n_max, [ident], jobs=1)
    return reports


def span_cost() -> float:
    """Seconds one span adds: an empty traced block minus an empty untraced
    one, each timed over many repeats in this process."""
    def loop(span) -> float:
        start = time.perf_counter()
        for _ in range(SPAN_COST_REPEATS):
            with span("cost"):
                pass
        return (time.perf_counter() - start) / SPAN_COST_REPEATS

    return max(loop(Tracer().span) - loop(lambda name: nullcontext()), 0.0)


def _value_bits(v) -> int:
    if isinstance(v, Fraction):
        return abs(v.numerator).bit_length() + v.denominator.bit_length()
    return abs(v).bit_length()


def run_layers(size_name: str, seed: int, digests: dict[str, str]) -> dict:
    from stirbess import cli, exactnum, families, identities, occupation, polys, triangles

    size = workloads.SIZES[size_name]
    n_max = size["verify_n"]
    tracer = Tracer()
    span = tracer.span
    metrics: dict[str, tuple[float, str]] = {}
    problems: list[str] = []
    checks = 0

    def check(ok: bool, message: str) -> None:
        nonlocal checks
        checks += 1
        if not ok:
            problems.append(message)

    # cli: interpreter-level cost every operation pays
    numpy_imports = [harness.run_child([sys.executable, "-c", "import numpy"], 60, "layer-import").wall_s
                     for _ in range(5)]
    metrics["cli.numpy_import_s"] = (statistics.median(numpy_imports), "s")

    # the jobs=1 suite time: the verify-all calls untraced, in a fresh interpreter
    untraced = harness.run_child(
        [sys.executable, os.path.join(os.path.dirname(__file__), "layers.py"),
         "--untraced-verify", str(n_max)], 150, "layer-untraced")
    check(untraced.returncode == 0, f"untraced verify replay failed: {untraced.stderr[-300:]}")
    untraced_s = float(untraced.stdout.decode().split()[-1]) if untraced.returncode == 0 else math.nan

    # --- verify-all: cold P_n cache, then each identity's evaluator
    with span("verify-all") as root:
        reports = verify_all_calls(n_max, span)
    for r in reports:
        check(r.passed, f"identity {r.identity_id} failed")
    traced_s = root["end"] - root["start"]
    metrics["families.pn_recurrence_s"] = (tracer.duration("families.pn_recurrence"), "s")
    metrics["families.pn_recurrence.terms"] = (len(families.pn_recurrence(n_max).items()), "count")
    for ident in identities.IDENTITY_IDS:
        metrics[f"identities.{ident}_s"] = (tracer.duration(f"identities.{ident}"), "s")
    metrics["identities.cases"] = (workloads.identity_cases(n_max), "count")
    metrics["trace.verify_all_traced_s"] = (traced_s, "s")
    metrics["trace.verify_all_untraced_s"] = (untraced_s, "s")
    overhead_s = tracer.count("verify-all") * span_cost()
    metrics["trace.overhead_ratio"] = (traced_s / (traced_s - overhead_s), "ratio")

    # --- families and the layers under pn_recurrence, replayed
    with span("families"):
        with span("families.pn_closed_form"):
            closed = [families.pn_closed_form(n) for n in range(1, n_max + 1)]
        with span("families.bessel_poly"):  # bessel-b-coeff builds y_{n-1} once per (n, k)
            for n in range(1, n_max + 1):
                for _ in range(n):
                    families.bessel_poly(n - 1)
    check(all(c == families.pn_recurrence(n) for n, c in enumerate(closed, 1)),
          "pn_closed_form differs from pn_recurrence")
    metrics["families.pn_closed_form_s"] = (tracer.duration("families.pn_closed_form"), "s")
    metrics["families.bessel_poly_s"] = (tracer.duration("families.bessel_poly"), "s")

    # pn_recurrence's binomial_poly_upper calls up to P_N, as (m, c, k): the
    # result C(c+Z, k) multiplies P_m, and m == 0 marks the leading term
    calls = []
    for m_top in range(1, n_max):
        calls.append((0, m_top, m_top))
        calls += [(m, m_top - m, m_top - m + 1) for m in range(1, m_top + 1)]
    with span("exactnum"):
        with span("exactnum.binomial_poly_upper"):
            z_polys = [exactnum.binomial_poly_upper(c, k) for _, c, k in calls]
        with span("exactnum.falling_factorial_poly"):  # falling-factorial's calls
            for n in range(0, n_max + 1):
                for k in range(n + 1):
                    exactnum.falling_factorial_poly(k)
    metrics["exactnum.binomial_poly_upper_s"] = (tracer.duration("exactnum.binomial_poly_upper"), "s")
    metrics["exactnum.falling_factorial_poly_s"] = (tracer.duration("exactnum.falling_factorial_poly"), "s")

    # the recurrence's from_z_poly(C(c+Z, c+1)) * P_m products
    factors = [(polys.BiPoly.from_z_poly(z), families.pn_recurrence(m))
               for (m, _, _), z in zip(calls, z_polys) if m]
    with span("polys"):
        with span("polys.bipoly_mul"):
            for a, b in factors:
                a * b
    pairs = sum(len(a.items()) * len(b.items()) for a, b in factors)
    mul_s = tracer.duration("polys.bipoly_mul")
    metrics["polys.bipoly_mul_s"] = (mul_s, "s")
    metrics["polys.bipoly_term_pairs"] = (pairs, "count")
    metrics["polys.bipoly_term_pairs_per_s"] = (pairs / mul_s, "1/s")

    # --- triangles: the triangle-rows ranges from a fresh Triangles()
    tri_n, gs_n = size["tri_n"], size["gs_n"]
    tables = triangles.Triangles()
    replay = {}

    def table(name, value, n_top):
        with span(f"triangles.{name}"):
            replay[name] = [[value(n, k) for k in range(n + 1)] for n in range(n_top + 1)]

    with span("triangles"):
        with span("triangles.recurrence_rows"):
            table("stirling1", tables.stirling1, tri_n)
            table("stirling2", tables.stirling2, tri_n)
            table("gs", lambda n, k: tables.gs(workloads.GS_S, workloads.GS_H, n, k), gs_n)
        with span("triangles.closed_form"):
            table("bessel_b", triangles.bessel_b, tri_n)
            table("bessel_B", triangles.bessel_B, tri_n)
            table("lah", triangles.lah, tri_n)
    metrics["triangles.recurrence_rows_s"] = (tracer.duration("triangles.recurrence_rows"), "s")
    metrics["triangles.closed_form_s"] = (tracer.duration("triangles.closed_form"), "s")
    metrics["triangles.entries"] = (sum(len(r) for rows in replay.values() for r in rows), "count")
    metrics["triangles.value_bits"] = (
        sum(_value_bits(v) for rows in replay.values() for r in rows for v in r), "count")

    # --- cli: in-process main() on the triangle-rows operations; the
    # formatting cost is main() minus the triangle replay of the same ranges
    printed = ("stirling1", "bessel_b", "lah", "gs")  # the families the four commands print
    output_bytes = 0
    with span("cli"):
        for op in workloads.triangle_ops(size):
            sink = io.StringIO()
            with span(f"cli.main.{op.args[1]}"), redirect_stdout(sink):
                code = cli.main(list(op.args))
            out = sink.getvalue().encode()
            output_bytes += len(out)
            check(code == 0 and hashlib.sha256(out).hexdigest() == digests.get(op.key),
                  f"in-process {op.key} output differs from the recorded digest")
    main_s = sum(tracer.duration(f"cli.main.{op.args[1]}") for op in workloads.triangle_ops(size))
    metrics["cli.emit_s"] = (main_s - sum(tracer.duration(f"triangles.{n}") for n in printed), "s")
    metrics["cli.output_mb"] = (output_bytes / 1e6, "MB")

    # --- identities under the default process pool, from the CLI's own timings
    with span("identities.pool"):
        pool_run = harness.run_child(
            harness.cli_argv(["verify", "--all", "--n-max", str(n_max), "--timings", "--format", "json"]),
            150, "layer-pool")
    try:
        pool_reports = json.loads(pool_run.stdout) if pool_run.returncode == 0 else []
    except ValueError:
        pool_reports = []
    check(bool(pool_reports) and all(r["status"] == "pass" for r in pool_reports),
          f"pooled verify failed: exit code {pool_run.returncode}, {pool_run.stderr[-300:]}")
    elapsed = [r["elapsed_ms"] / 1000.0 for r in pool_reports] or [math.nan]
    workers = min(os.cpu_count() or 1, len(elapsed))
    metrics["identities.pool_wall_s"] = (pool_run.wall_s, "s")
    metrics["identities.pool_busy_s"] = (sum(elapsed), "s")
    metrics["identities.pool_utilization"] = (sum(elapsed) / (workers * pool_run.wall_s), "ratio")
    metrics["identities.slowest_s"] = (max(elapsed), "s")

    # --- occupation: the walk kernel alone, then with the pool, then moments
    cfg = occupation.SimConfig(alpha=0.5, steps=size["walk_steps"], paths=size["walk_paths"],
                               max_moment=workloads.MOMENTS, seed=workloads.derive_seed(seed, 99))
    with span("occupation"):
        with span("occupation.walk"):
            counts = occupation.path_occupation_counts(cfg, 1, jobs=1)
        with span("occupation.walk_pool"):
            pooled = occupation.path_occupation_counts(cfg, 1, jobs=2)
        with span("occupation.summarize"):
            result = occupation._summarize(counts, cfg, Fraction(1))
    check(bool((counts == pooled).all()), "walk counts depend on the worker count")
    walk_s = tracer.duration("occupation.walk")
    metrics["occupation.walk_s"] = (walk_s, "s")
    metrics["occupation.walk.path_steps_per_s"] = (cfg.paths * cfg.steps / walk_s, "1/s")
    metrics["occupation.summarize_s"] = (tracer.duration("occupation.summarize"), "s")
    metrics["occupation.pool_speedup"] = (walk_s / tracer.duration("occupation.walk_pool"), "ratio")
    metrics["occupation.blocks"] = (math.ceil(cfg.paths / occupation.BATCH_PATHS), "count")
    metrics["occupation.max_abs_z"] = (max(abs(m.z_score) for m in result.moments), "ratio")

    spans = tracer.with_self_times()
    return {
        "size": size_name,
        "seed": seed,
        "attempted": checks,
        "failed": len(problems),
        "failures": problems,
        "metrics": metrics,
        "spans": spans,
    }


def _untraced_verify(n_max: int) -> None:
    harness.require_source_tree()
    import stirbess.identities  # noqa: F401  imports stay outside the timed calls, as in the traced run

    start = time.perf_counter()
    reports = verify_all_calls(n_max, lambda name: nullcontext())
    elapsed = time.perf_counter() - start
    if not all(r.passed for r in reports):
        sys.exit("an identity failed")
    print(elapsed)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--untraced-verify":
        _untraced_verify(int(sys.argv[2]))
    else:
        sys.exit("usage: layers.py --untraced-verify N")
