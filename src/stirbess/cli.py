"""Command-line interface.

Subcommands: ``triangle`` (number-family rows), ``poly`` (polynomial
families), ``verify`` (exact identity suite), ``simulate`` (skew random-walk
moment estimation).  Output formats: table (human), json, csv.  Exit codes:
0 success, 1 verification or statistical failure, 2 usage error or a value
too long to print.  Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from . import triangles

TRIANGLE_FAMILIES = (*triangles.RECURRENCES, "gs")
FORMATS = ("table", "json", "csv")

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

# lets argparse accept option values like "-1/2" instead of reading them as flags
_NEGATIVE_VALUE_RE = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _rational(text: str) -> Fraction:
    """Parse 'p/q' or integer strings; decimals are rejected."""
    if not _RATIONAL_RE.match(text):
        raise argparse.ArgumentTypeError(f"expected an integer or p/q rational, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError("rational with zero denominator") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stirbess",
        description="Exact number triangles, moment polynomials, identity verification, "
        "and skew random-walk simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tri = sub.add_parser("triangle", help="print rows 0..n of a number triangle")
    p_tri.add_argument("family", choices=TRIANGLE_FAMILIES)
    p_tri.add_argument("--n", dest="n_max", type=int, default=10, help="largest row (default 10)")
    p_tri.add_argument("--s", type=_rational, help="s parameter (gs family only)")
    p_tri.add_argument("--h", type=_rational, help="h parameter (gs family only, nonzero)")
    p_tri.add_argument("--format", choices=FORMATS, default="table")

    p_poly = sub.add_parser("poly", help="print one polynomial of a family")
    p_poly.add_argument("which", choices=_POLY)
    p_poly.add_argument("--n", type=int, required=True, help="index of the polynomial")
    p_poly.add_argument("--z", type=_rational, help="substitute z (pn variants only)")
    p_poly.add_argument("--format", choices=FORMATS, default="table")

    p_ver = sub.add_parser("verify", help="run identity verifiers over a range")
    p_ver.add_argument("ids", nargs="*", metavar="identity", help="identity ids to run")
    p_ver.add_argument("--all", action="store_true", help="run every registered identity")
    p_ver.add_argument("--n-max", type=int, default=20)
    p_ver.add_argument("--jobs", type=int, default=None, help="worker processes (default: all usable cores)")
    p_ver.add_argument("--timings", action="store_true", help="include elapsed_ms and cases in json/csv output")
    p_ver.add_argument("--format", choices=FORMATS, default="table")

    p_sim = sub.add_parser("simulate", help="skew random-walk moment estimation")
    p_sim.add_argument("--alpha", type=float, required=True, help="skewness in (0,1); decimal")
    p_sim.add_argument("--steps", type=int, default=10000)
    p_sim.add_argument("--paths", type=int, default=10000)
    p_sim.add_argument("--moments", type=int, default=4)
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument("--t", type=_rational, default=None, help="also check E[A_t^n] at this time fraction")
    p_sim.add_argument("--jobs", type=int, default=None)
    p_sim.add_argument("--format", choices=FORMATS, default="table")

    for sub_parser in (p_tri, p_poly, p_sim):
        sub_parser._negative_number_matcher = _NEGATIVE_VALUE_RE

    return parser


def _usage_error(message: str) -> int:
    print(f"stirbess: error: {message}", file=sys.stderr)
    return 2


def _default_jobs(jobs: int | None) -> int:
    """``jobs`` up to one per CPU this process may run on, as a pool starts
    all its workers at once and output does not depend on their number; by
    default that many."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if jobs is not None and jobs < 1:
        raise ValueError("jobs must be positive")
    return cpus if jobs is None else min(jobs, cpus)


# ---------------------------------------------------------------------------
# output

class _Output(NamedTuple):
    """A command's exit code and its output in each format. Lines and csv
    are lazy iterables and the payload a callable, so only the format that is
    printed gets built. ``csv`` yields strings of whole records, each ended by
    ``\r\n``, the header first. ``exact`` holds, for every computed int or
    Fraction that any format prints, it or one at least as long, so their
    length can be checked before printing."""

    code: int
    lines: Iterable[str]  # table
    payload: Callable[[], object]  # json
    csv: Iterable[str]
    exact: Iterable = ()


def _too_long_to_print(values: Iterable) -> bool:
    """Whether an int or Fraction has more digits than Python converts to
    text: abs(v) >= 10**limit, where a limit of 0 means no limit."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return False
    bound = 10**limit
    return any(abs(v.numerator) >= bound or v.denominator >= bound for v in values)


def _too_long_error() -> int:
    return _usage_error(
        f"a value has more than {sys.get_int_max_str_digits()} digits, the most Python prints; "
        "raise the limit with the PYTHONINTMAXSTRDIGITS environment variable"
    )


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _csv_field(value) -> str:
    """``str(value)``, quoted when it is a str that holds a comma, a quote or
    a line break, with inner quotes doubled: the default ``csv`` dialect's
    minimal quoting. A number's text never needs quoting."""
    if not isinstance(value, str):
        return str(value)
    if "," in value or '"' in value or "\r" in value or "\n" in value:
        return '"' + value.replace('"', '""') + '"'
    return value


def _csv_line(row: Sequence) -> str:
    """One csv record ended by ``\\r\\n``: what ``csv.writer`` writes for
    it, except for a record of one empty field, which ``csv.writer`` writes
    as ``""`` and this as an empty line; no command emits one."""
    return ",".join(map(_csv_field, row)) + "\r\n"


def _emit(fmt: str, out: _Output) -> None:
    """Write command output to stdout; nothing else in the CLI does. Each
    table line and csv string is written as it is made, so no format but json
    holds the whole output at once."""
    stdout = sys.stdout  # read per call: callers may redirect it
    if fmt == "table":
        for line in out.lines:
            print(line, file=stdout)
    elif fmt == "json":
        print(json.dumps(out.payload(), indent=2), file=stdout)
    else:
        stdout.writelines(out.csv)


# ---------------------------------------------------------------------------
# triangle

def _stirling2_lower_bound(n: int) -> int:
    """(k^n - k (k-1)^n) // k!, at most S(n, k), for the k that makes it
    largest; 0 at n = 0.  k! S(n, k) counts the maps of n elements onto k
    blocks: all k^n maps less at most (k-1)^n that miss each block.  Floats
    pick k by scanning the bound's logarithm, which costs less than the exact
    bound; the bound itself is exact."""

    def log_bound(k: int) -> float:
        missed = k * (1 - 1 / k) ** n
        return n * math.log(k) - math.lgamma(k + 1) + math.log1p(-missed) if missed < 1 else -math.inf

    k = max(range(1, n + 1), key=log_bound, default=1)
    return (k**n - k * (k - 1) ** n) // math.factorial(k)


def _walk_too_long(a, b, n: int) -> bool:
    """Whether X_m is too long to print for some m <= min(n, 4 * limit), where
    X_1 = 1 and X_(m+1) = X_m (a*m + b): the first column T(m, 1) of the
    triangle with recurrence (a, b), or an entry of polynomial m.  It stops
    at the first such X_m or at a 0, after which all are 0.  A Fraction is
    reduced, as printed.  4 * limit reaches chebyshev's 2^(m-1) past the
    limit, so a huge --n is refused at once."""
    steps = range(1, min(n, 4 * sys.get_int_max_str_digits()))
    walk = itertools.accumulate(steps, lambda x, m: x * (a * m + b), initial=1)
    return _too_long_to_print(itertools.takewhile(bool, walk))


def _triangle_too_long(a, b, n: int) -> bool:
    """Whether rows 0..n of the triangle with recurrence (a, b) hold an entry
    too long to print: its first column by ``_walk_too_long``, or a lower
    bound of an entry of row min(n, limit) or min(n, 2 * limit) where that
    column stays short.  T(m, k) = b^(m-k) S(m, k) when a = 0, and
    (b/2)^(m-k) B(m, k) when 2a = -b; with that scale of size >= 1, S(m, k)
    or B(m, k) is at most the numerator of T(m, k) as a reduced fraction."""
    limit = sys.get_int_max_str_digits()
    if a == 0 and abs(b) >= 1:
        bounds = [_stirling2_lower_bound(min(n, limit))]
    elif 2 * a == -b and abs(b) >= 2:
        m = min(n, 2 * limit)
        bounds = [triangles.bessel_B(m, (m + 1) // 2)]
    else:
        bounds = []
    return _walk_too_long(a, b, n) or _too_long_to_print(bounds)


# triangle gs --s -1/2 --h 1, whose entries stay printable, took 9, 38 and
# 113 s at --n 1000, 1500 and 2000 and peaked at 0.26, 0.82 and 1.9 GB, whole
# process printing csv (2 cores, Python 3.11.7), so --n above this is refused
# even where every entry prints; at the default limit the print check already
# refuses every named family but bessel-B below it.
MAX_TRIANGLE_N = 2000


def _cmd_triangle(args) -> int | _Output:
    if args.family == "gs":
        if args.s is None or args.h is None:
            return _usage_error("family gs requires --s and --h")
        if args.h == 0:
            return _usage_error("gs parameter h must be nonzero")
    elif args.s is not None or args.h is not None:
        return _usage_error("--s/--h apply only to the gs family")
    n_max = args.n_max
    if n_max < 0:
        return _usage_error("--n must be nonnegative")
    gs = args.family == "gs"
    a, b = triangles.gs_recurrence(args.s, args.h) if gs else triangles.RECURRENCES[args.family]
    if _triangle_too_long(a, b, n_max):
        return _too_long_error()
    if n_max > MAX_TRIANGLE_N:
        return _usage_error(f"triangle --n must be at most {MAX_TRIANGLE_N}, about two minutes of work")
    table = triangles.DEFAULT.table(a, b)
    rows = table.fractions(n_max) if gs else table.rows(n_max)[: n_max + 1]
    params = {"s": str(args.s), "h": str(args.h)} if gs else {}

    # every cell is a number, which csv never quotes, so each triangle row is
    # one string; !s keeps a Fraction from Fraction.__format__ (Python 3.12+)
    csv_rows = ("".join([f"{n},{k},{v!s}\r\n" for k, v in enumerate(row)]) for n, row in enumerate(rows))
    return _Output(
        0,
        lines=(" ".join(map(str, row)) for row in rows),
        payload=lambda: {"family": args.family, "n_max": n_max, **params, "rows": _jsonable(rows)},
        csv=itertools.chain(["n,k,value\r\n"], csv_rows),
        # an int row's longest entry is its max or its min; a Fraction can be
        # long in its denominator alone
        exact=(v for row in rows for v in row) if gs else (v for row in rows for v in (max(row), min(row))),
    )


# ---------------------------------------------------------------------------
# poly

def _unipoly_output(args, poly, z) -> _Output:
    return _Output(
        0,
        lines=[str(poly)],
        payload=lambda: {
            "which": args.which,
            "n": args.n,
            "z": None if z is None else str(z),
            "variable": "x",
            "coefficients": [str(c) for c in poly.coeffs],
        },
        csv=map(_csv_line, itertools.chain([("power", "coefficient")], enumerate(poly.coeffs))),
        exact=poly.coeffs,
    )


def _bipoly_output(args, poly) -> _Output:
    names, items = poly.variables, poly.items()
    line = " ".join(f"{v}^{{}}" for v in names) + ": {}"  # "x^{} z^{}: {}" for P_n
    return _Output(
        0,
        lines=(line.format(*key, c) for key, c in items),
        payload=lambda: {
            "which": args.which,
            "n": args.n,
            "variables": list(names),
            "terms": [dict(zip(names, key), coefficient=str(c)) for key, c in items],
        },
        csv=map(_csv_line, itertools.chain([(*map("{}_power".format, names), "coefficient")],
                                           (key + (c,) for key, c in items))),
        exact=(c for _, c in items),
    )


# poly pn runs the recurrence for P_n, whose cost grows fast with n: --n 160,
# 200 and 240 took about 17 s, 44 s and 110 s and peaked at 117, 249 and
# 487 MB (2 cores, Python 3.11.7), so --n above this, about a minute, is
# refused; pn-closed prints the same polynomial much sooner.
MAX_PN_RECURRENCE_N = 200

# poly kind: the ``families`` function that builds polynomial n, the (a, b) of
# a ``_walk_too_long`` walk whose X_n is a coefficient of polynomial n (every
# factor a*m + b of size >= 1, so an unprintable X_m with m < n makes X_n
# unprintable too), and the largest --n, about a minute of work.  Times are of
# the whole process printing csv, on a 2-core machine with Python 3.11.7.
_POLY = {
    # (n-1)!, the denominator of 1/(n-1)!, the coefficient of x z^(n-1)
    "pn": ("pn_recurrence", (1, 0), MAX_PN_RECURRENCE_N),
    # --n 700, 750 and 800 took about 36 s, 54 s and 64 s and peaked at 0.45,
    # 0.54 and 0.65 GB
    "pn-closed": ("pn_closed_form", (1, 0), 750),
    # (2n-1)!! = (2n)!/(2^n n!), the largest coefficient; at limit 0, --n 4500
    # took 44 s (bessel-y) and 40 s (bessel-theta), peaking at 121 MB, and
    # bessel-y --n 5000 65 s
    "bessel-y": ("bessel_poly", (2, 1), 4500),
    "bessel-theta": ("reverse_bessel_poly", (2, 1), 4500),
    # 2^(n-1), the leading coefficient; --n 10000 and 11000 took 40 s and 63 s,
    # --n 10000 peaking at 64 MB
    "chebyshev": ("chebyshev_t", (0, 2), 10000),
}


def _cmd_poly(args) -> int | _Output:
    from . import families

    builder, walk, max_n = _POLY[args.which]
    pn = args.which.startswith("pn")
    if pn and args.n < 1:
        return _usage_error("pn variants require --n >= 1")
    if args.z is not None and not pn:
        return _usage_error("--z applies only to pn variants")
    if args.n < 0:
        return _usage_error("--n must be nonnegative")
    if _walk_too_long(*walk, args.n):
        return _too_long_error()
    if args.n > max_n:
        hint = "; poly pn-closed prints the same polynomial sooner" if args.which == "pn" else ""
        return _usage_error(f"poly {args.which} --n must be at most {max_n}, about a minute of work{hint}")
    poly = getattr(families, builder)(args.n)
    if args.z is not None:
        return _unipoly_output(args, poly.substitute_z(args.z), args.z)
    return _bipoly_output(args, poly) if pn else _unipoly_output(args, poly, None)


# ---------------------------------------------------------------------------
# verify

def _report_dict(report: identities.IdentityReport, timings: bool) -> dict:
    d: dict = {"id": report.identity_id, "range": report.range_desc, "status": report.status}
    ce = report.counterexample
    if ce is not None:
        d["counterexample"] = {"params": _jsonable(ce.params), "lhs": ce.lhs, "rhs": ce.rhs}
    if timings:
        d["elapsed_ms"] = round(report.elapsed_ms, 3)
        d["cases"] = report.cases
    return d


def _report_row(report: identities.IdentityReport, timings: bool) -> list:
    ce = report.counterexample
    row = [
        report.identity_id,
        report.range_desc,
        report.status,
        json.dumps(_jsonable(ce.params)) if ce else "",
        ce.lhs if ce else "",
        ce.rhs if ce else "",
    ]
    if timings:
        row += [f"{report.elapsed_ms:.3f}", report.cases]
    return row


def _report_lines(reports):
    width = max(len(r.identity_id) for r in reports)
    for r in reports:
        yield f"{r.status.upper():4}  {r.identity_id:<{width}}  {r.range_desc}  ({r.elapsed_ms:.1f} ms)"
        ce = r.counterexample
        if ce is not None:
            yield f"      first counterexample {ce.params}: lhs={ce.lhs} rhs={ce.rhs}"


# verify --all --n-max 100, 120 and 140 took about 10, 17 and 32 s on one core
# (2 cores, Python 3.11.7; 140 run through run_suite), growing about as n^3, so
# --n-max above this, about half a minute, is refused.
MAX_VERIFY_N = 120


def _cmd_verify(args) -> int | _Output:
    from . import identities

    if args.all and args.ids:
        return _usage_error("pass identity ids or --all, not both")
    if not args.all and not args.ids:
        return _usage_error("no identities selected (pass ids or --all)")
    if not 1 <= args.n_max <= MAX_VERIFY_N:
        return _usage_error(
            f"verify --n-max must be between 1 and {MAX_VERIFY_N}, under a minute of work for --all"
        )
    selection = "all" if args.all else args.ids
    try:
        jobs = _default_jobs(args.jobs)
        reports = identities.run_suite(args.n_max, selection, jobs=jobs)
    except ValueError as exc:
        return _usage_error(str(exc))
    header = ["id", "range", "status", "params", "lhs", "rhs"] + (["elapsed_ms", "cases"] if args.timings else [])
    return _Output(
        0 if all(r.passed for r in reports) else 1,
        lines=_report_lines(reports),
        payload=lambda: [_report_dict(r, args.timings) for r in reports],
        csv=map(_csv_line, itertools.chain([header], (_report_row(r, args.timings) for r in reports))),
    )


# ---------------------------------------------------------------------------
# simulate

def _sim_dict(result: occupation.SimResult) -> dict:
    cfg = result.config
    return {
        "config": {
            "alpha": cfg.alpha,
            "steps": cfg.steps,
            "paths": cfg.paths,
            "max_moment": cfg.max_moment,
            "seed": cfg.seed,
        },
        "time_fraction": str(result.time_fraction),
        "paths_used": result.paths_used,
        "moments": [
            {
                "n": m.n,
                "empirical_mean": m.empirical_mean,
                "standard_error": m.standard_error,
                "exact": str(m.exact_value),
                "exact_float": float(m.exact_value),
                "z_score": m.z_score,
            }
            for m in result.moments
        ],
    }


def _moment_row(m: occupation.MomentEstimate) -> list:
    return [
        m.n,
        repr(m.empirical_mean),
        "" if m.standard_error is None else repr(m.standard_error),
        str(m.exact_value),
        "" if m.z_score is None else repr(m.z_score),
    ]


def _sim_lines(results):
    for i, result in enumerate(results):
        if i:
            yield ""
        yield f"t = {result.time_fraction}, paths = {result.paths_used}"
        yield f"{'n':>2}  {'mean':>12}  {'stderr':>12}  {'exact':>22}  {'z':>8}"
        for m in result.moments:
            se = "-" if m.standard_error is None else f"{m.standard_error:.6g}"
            z = "-" if m.z_score is None else f"{m.z_score:+.3f}"
            exact = f"{m.exact_value} ({float(m.exact_value):.6g})"
            yield f"{m.n:>2}  {m.empirical_mean:>12.8f}  {se:>12}  {exact:>22}  {z:>8}"


def _cmd_simulate(args) -> int | _Output:
    from . import occupation  # numpy: only the simulation needs it

    try:
        config = occupation.SimConfig(
            alpha=args.alpha,
            steps=args.steps,
            paths=args.paths,
            max_moment=args.moments,
            seed=args.seed,
        )
        jobs = _default_jobs(args.jobs)
        with_t = args.t is not None
        # refuses a t outside (0, 1] or below one interval before any walk
        results = occupation.estimate_moments_at(config, (1, args.t) if with_t else (1,), jobs)
    except ValueError as exc:
        return _usage_error(str(exc))
    z_values = [abs(m.z_score) for r in results for m in r.moments if m.z_score is not None]
    header = (["time_fraction"] if with_t else []) + ["n", "empirical_mean", "stderr", "exact", "z_score"]
    rows = (([str(r.time_fraction)] if with_t else []) + _moment_row(m) for r in results for m in r.moments)
    return _Output(
        0 if all(z < 5.0 for z in z_values) else 1,
        lines=_sim_lines(results),
        payload=lambda: (
            {"moments": _sim_dict(results[0]), "self_similarity": _sim_dict(results[1])}
            if with_t
            else _sim_dict(results[0])
        ),
        csv=map(_csv_line, itertools.chain([header], rows)),
        exact=(m.exact_value for r in results for m in r.moments),
    )


_DISPATCH = {
    "triangle": _cmd_triangle,
    "poly": _cmd_poly,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    out = _DISPATCH[args.command](args)
    if isinstance(out, int):  # a usage error, already reported
        return out
    if _too_long_to_print(out.exact):
        return _too_long_error()
    _emit(args.format, out)
    return out.code


def entry() -> None:
    # numpy starts OpenBLAS with one thread per CPU when it loads, and no
    # command makes a BLAS call, so those threads only cost start-up CPU; a
    # value the user set stays, and in-process main() calls leave it alone
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does: point stdout at
        # /dev/null so the interpreter's last flush cannot fail, and exit as a
        # shell reports a process killed by SIGPIPE (128 + 13); SIGPIPE keeps
        # Python's handling, as the process pools talk to their workers by pipes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
