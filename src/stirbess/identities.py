"""Exact verification suite for the summation identities connecting
Stirling, Lah, Bessel, and generalized Stirling numbers.

Each identity is registered declaratively (id, case iterator, evaluator for
both sides) so the programmatic API, the CLI, and the tests share one source
of truth.  Verification is exact: both sides of every case are integers,
rationals, or polynomials over the rationals, and a failure report carries
the first counterexample in lexicographic case order, which is stable across
runs and worker counts.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import families, triangles
from .exactnum import binomial_rat, factorial, falling_factorial_poly, rising_factorial_poly
from .polys import UniPoly, _rational_param
from .triangles import Triangles, bessel_B, bessel_b, lah


@dataclass(frozen=True)
class Counterexample:
    params: tuple
    lhs: str
    rhs: str


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    range_desc: str
    status: str  # "pass" | "fail"
    counterexample: Counterexample | None
    elapsed_ms: float
    cases: int  # cases evaluated, up to and including the counterexample

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class Identity:
    ident: str
    summary: str
    describe_range: Callable[[int], str]
    cases: Callable[[int], Iterable[tuple]]
    evaluate: Callable[[tuple, Triangles], tuple]


# ---------------------------------------------------------------------------
# shared pieces

def _grid(n_from: int, k_from: int | None, *axes: Sequence):
    """The case iterator over n_from <= n <= n_max, then k_from <= k <= n,
    then the fixed ``axes`` in order; with k_from None there is no k."""

    def cases(n_max: int):
        for n in range(n_from, n_max + 1):
            ks = [()] if k_from is None else [(k,) for k in range(k_from, n + 1)]
            for k in ks:
                for a in itertools.product(*axes):
                    yield (n, *k, *a)

    return cases


def _product_sum(left, right, n: int, k: int, p: int, q: int) -> int:
    """sum_i L(n,i) R(i,k) p^i q^(n-i) over the integer rows of two tables."""
    row, rights, weight = left.rows(n)[n], right.rows(n), _power_row(p, q, n)
    return sum(row[i] * rights[i][k] * weight[i] for i in range(k, n + 1))


def _s1s2_sum(t: Triangles, n: int, k: int, p: int, q: int) -> int:
    """sum_i s1(n,i) s2(i,k) p^i q^(n-i), the paper's sum at z = p/q over the denominator q^n."""
    return _product_sum(t.table(1, 0), t.table(0, 1), n, k, p, q)


def _sign(e: int, v):
    """(-1)^e v."""
    return -v if e % 2 else v


@functools.cache
def _power_row(p: int, q: int, n: int) -> tuple[int, ...]:
    """p^i q^(n-i) for i = 0..n: the weights of a sum over the denominator
    q^n, fixed for each grid point and n."""
    return tuple(p**i * q ** (n - i) for i in range(n + 1))


@functools.cache
def _binomial_row(n: int) -> tuple[int, ...]:
    """C(n, 0..n)."""
    return tuple(math.comb(n, k) for k in range(n + 1))


# ---------------------------------------------------------------------------
# the two Stirling-to-Bessel summations

def _thm1_eval(params, t):
    n, k = params
    return _s1s2_sum(t, n, k, 1, -2), bessel_b(n, k)


def _thm2_eval(params, t):
    n, k = params
    # (-2)^(i-k) = (-2)^i / (-2)^k, and every term has i >= k
    return _s1s2_sum(t, n, k, -2, 1) // (-2) ** k, _sign(n - k, bessel_B(n, k))


def _inversion_eval(params, t):
    n, k = params
    return _s1s2_sum(t, n, k, 1, -1), 1 if n == k else 0


def _lah_eval(params, t):
    n, k = params
    return _s1s2_sum(t, n, k, 1, 1), lah(n, k)


# ---------------------------------------------------------------------------
# Bessel pair structure

def _duality_eval(params, t):
    n, m, order = params
    outer, inner = (bessel_B, bessel_b) if order == "Bb" else (bessel_b, bessel_B)
    return sum(outer(n, k) * inner(k, m) for k in range(m, n + 1)), 1 if m == n else 0


def _cross_bb_eval(params, t):
    n, k = params
    return _sign(n - k, bessel_B(n, k)), bessel_b(k + 1, 2 * k - n + 1)


def _bessel_coeff_eval(params, t):
    n, k = params
    c = families.bessel_poly(n - 1).coefficient(n - k)  # coefficient of x^(n-k) in y_{n-1}(-x)
    return bessel_b(n, k), _sign(n - k, c)


# ---------------------------------------------------------------------------
# generalized Stirling structure

GS_SCALING_FACTORS = (Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(3))
GS_SCALING_S = (Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1))

GS_COMPOSITION_TRIPLES: tuple[tuple[Fraction, Fraction, Fraction], ...] = (
    (Fraction(-2), Fraction(-1), Fraction(1)),
    (Fraction(-1, 2), Fraction(1, 2), Fraction(1)),
    (Fraction(1), Fraction(2), Fraction(1)),
    (Fraction(3, 2), Fraction(-1, 2), Fraction(2)),
    (Fraction(0), Fraction(1), Fraction(3)),
    (Fraction(-3), Fraction(1, 3), Fraction(1)),
    (Fraction(5, 2), Fraction(3), Fraction(1, 2)),
)

SSS2_Z_VALUES = (Fraction(1), Fraction(-2), Fraction(-1, 2), Fraction(3), Fraction(2, 3))


@functools.cache
def _stirling2_row(n: int) -> tuple[int, ...]:
    """S(n, 0..n) by inclusion-exclusion: k! S(n, k) = sum_j (-1)^(k-j) C(k, j) j^n,
    the k-th forward difference of j^n at j = 0."""
    diffs, row = [j**n for j in range(n + 1)], []
    for k in range(n + 1):
        row.append(diffs[0] // factorial(k))
        diffs = [b - a for a, b in itertools.pairwise(diffs)]
    return tuple(row)


# family: (s, h) of its table, and its reference, which reads no table
_GS_SPECIAL = {
    "bessel-B": ((Fraction(-1), Fraction(1)), bessel_B),
    "bessel-b": ((Fraction(2), Fraction(-1)), bessel_b),
    "stirling1": ((Fraction(1), Fraction(1)), lambda n, k: rising_factorial_poly(n).coefficient(k)),
    "stirling2": ((Fraction(0), Fraction(1)), lambda n, k: _stirling2_row(n)[k]),
}


def _gs_scaling_eval(params, t):
    n, k, a, s = params
    scaled, unit = t.memo((_gs_scaling_eval, a, s), lambda t: (t.gs_triangle(s, a), t.gs_triangle(s, 1)))
    rhs = Fraction(a.numerator ** (n - k) * unit.value(n, k), (a.denominator * unit.scale) ** (n - k))
    return scaled.fraction(n, k), rhs


def _gs_special_eval(params, t):
    n, k, fam = params
    (s, h), reference = _GS_SPECIAL[fam]
    table = t.memo((_gs_special_eval, fam), lambda t: t.gs_triangle(s, h))
    return table.fraction(n, k), reference(n, k)


def gs_composition_identity(triples: Sequence[tuple]) -> Identity:
    """The composition law of GS over the given (s, nu, sigma) triples."""
    # triples sorted so the case order is lexicographic in (n, k, triple)
    norm = tuple(sorted(
        (_rational_param("s", s), _rational_param("nu", nu), _rational_param("sigma", sg)) for s, nu, sg in triples
    ))
    for s, nu, sigma in norm:
        if nu == 0:
            raise ValueError("composition triple requires nu != 0")
        if sigma <= 0:
            raise ValueError("composition triple requires sigma > 0")
        if nu == sigma:
            raise ValueError("composition triple requires nu != sigma (inner parameter)")

    def evaluate(params, t):
        n, k, triple = params
        s, nu, sigma = triple
        # T_{s,nu-s} = T_{s,nu-sigma-s} o T_{s+sigma-nu,nu-s}: GS_{s/nu;nu} is T_{s,nu-s}
        left, inner, outer = t.memo((evaluate, triple), lambda t: (
            t.table(s, nu - s), t.table(s, nu - sigma - s), t.table(s + sigma - nu, nu - s)
        ))
        d2, d3 = inner.scale, outer.scale  # the sum over d2^n d3^(n-k)
        return left.fraction(n, k), Fraction(_product_sum(inner, outer, n, k, d2, d3), d2**n * d3 ** (n - k))

    return Identity(
        ident="gs-composition",
        summary="GS_{s/nu;nu}(n,k) = sum_i GS_{s/(nu-sigma);nu-sigma}(n,i) GS_{(s+sigma-nu)/sigma;sigma}(i,k)",
        describe_range=lambda n: f"0<=k<=n<={n}, {len(norm)} (s,nu,sigma) triples",
        cases=_grid(0, 0, norm),
        evaluate=evaluate,
    )


def sss2_identity(z_values: Sequence) -> Identity:
    """The z-weighted Stirling product sum as a GS value, over the given z."""
    zs = tuple(sorted(_rational_param("z", z) for z in z_values))
    for z in zs:
        if z == 0 or z == -1:
            raise ValueError("z must avoid 0 and -1")

    def evaluate(params, t):
        n, k, z = params
        # z's table T_{1/z,1}, which is GS_{1/(z+1);(z+1)/z}, and z = p/q
        table, p, q = t.memo((evaluate, z), lambda t: (t.table(1 / z, 1), *z.as_integer_ratio()))
        lhs = Fraction(_s1s2_sum(t, n, k, p, q), q**n)
        return lhs, Fraction(p**n * table.value(n, k), q**n * table.scale ** (n - k))

    return Identity(
        ident="sss2",
        summary="sum_i s1(n,i) s2(i,k) z^i = z^n GS_{1/(z+1);(z+1)/z}(n,k)",
        describe_range=lambda n: f"0<=k<=n<={n}, z in {{{', '.join(str(z) for z in zs)}}}",
        cases=_grid(0, 0, zs),
        evaluate=evaluate,
    )


# ---------------------------------------------------------------------------
# binomial-side machinery

def default_hagen_rothe_cases() -> tuple[tuple, ...]:
    """The a=1, b=2, c=N+k-1, n=k family for N <= 15 plus assorted cases."""
    cases = []
    for big_n in range(1, 16):
        for k in range(0, 9):
            cases.append((Fraction(1), 2, Fraction(big_n + k - 1), k))
    cases.extend(
        [
            (Fraction(1), 2, Fraction(4), 2),
            (Fraction(2), 0, Fraction(5), 4),
            (Fraction(1, 2), 1, Fraction(7, 2), 5),
            (Fraction(3), -1, Fraction(2), 2),
            (Fraction(5, 3), 3, Fraction(11, 3), 6),
        ]
    )
    return tuple(cases)


def hagen_rothe_identity(cases: Sequence[tuple]) -> Identity:
    """The Hagen-Rothe convolution on the given (a, b, c, n) cases; ignores n_max."""
    for a, b, c, n in cases:  # refused, not truncated: int() below would make another case
        if Fraction(b).denominator != 1 or Fraction(n).denominator != 1:
            raise ValueError(f"case {(a, b, c, n)}: b and n must be integers")
    # sorted so the case order is lexicographic in (a, b, c, n); duplicates stay
    norm = tuple(sorted((_rational_param("a", a), int(b), _rational_param("c", c), int(n)) for a, b, c, n in cases))
    for a, b, c, n in norm:
        if n < 0:
            raise ValueError("n must be nonnegative")
        if any(a + b * k == 0 for k in range(n + 1)):
            raise ValueError(f"case {(a, b, c, n)} hits a + b*k = 0")

    def evaluate(params, t):
        a, b, c, n = params
        lhs = sum(
            (a / (a + b * k)) * binomial_rat(a + b * k, k) * binomial_rat(c - b * k, n - k)
            for k in range(n + 1)
        )
        return lhs, binomial_rat(a + c, n)

    return Identity(
        ident="hagen-rothe",
        summary="sum_k a/(a+bk) C(a+bk,k) C(c-bk,n-k) = C(a+c,n)",
        describe_range=lambda _n: f"{len(norm)} cases (a,b,c,n)",
        cases=lambda _n: iter(norm),
        evaluate=evaluate,
    )


def _gould_cases(n_max: int):
    for n in range(1, n_max + 1):
        for k in range(0, n // 2 + 1):
            yield (n, k)


def _gould_eval(params, t):
    n, k = params
    binom = _binomial_row(n)
    lhs = sum(binom[2 * m] * _binomial_row(m)[k] for m in range(k, n // 2 + 1))
    rhs = Fraction(2) ** (n - 2 * k - 1) * _binomial_row(n - k)[k] * Fraction(n, n - k)
    return lhs, rhs


def _lemma_keys_cases(n_max: int):
    for n in range(1, n_max + 1):
        for j in range(1, n + 1):
            for i in range(1, j + 1):
                yield ("a", n, j, i)
    for k in range(1, n_max + 1):
        for j in range(1, k + 1):
            yield ("b", k, j)


def _lemma_keys_eval(params, t):
    if params[0] == "a":
        _, n, j, i = params
        s1, binom = t.rows("stirling1", n + 1), _binomial_row(n)
        lhs = s1[n + 1][n - j + i + 1] * _binomial_row(n - j + i)[i - 1]
        rhs = sum(s1[k][i] * s1[n - k + 1][n - j + 1] * binom[k - 1] for k in range(i, j + 1))
    else:
        _, k, j = params
        s2, binom = t.rows("stirling2", k + 1), _binomial_row(k)
        lhs = sum(s2[i][j] * binom[i - 1] for i in range(j, k + 1))
        rhs = j * s2[k + 1][j + 1]
    return lhs, rhs


# ---------------------------------------------------------------------------
# polynomial-level identities

def _pn_closed_eval(params, t):
    (n,) = params
    return families.pn_recurrence(n), families.pn_closed_form(n, t)


# label: (z, closed form of P_n(x, z) in n)
_PN_SLICES = {
    "z=-1": (Fraction(-1), UniPoly.monomial),
    "z=-1/2": (Fraction(-1, 2), families.pn_skew_bm),
    "z=-2": (Fraction(-2), families.pn_z_minus2),
    "z=-2-chebyshev": (Fraction(-2), families.pn_via_chebyshev),
    "z=0": (Fraction(0), lambda n: UniPoly.x()),
    "z=1": (Fraction(1), families.pn_z_one),
}


def _pn_special_eval(params, t):
    n, label = params
    z, closed_form = _PN_SLICES[label]
    return families.pn_recurrence(n).substitute_z(z), closed_form(n)


def _moment_bessel_eval(params, t):
    (n,) = params
    scale = Fraction(1, 2 ** (n - 1) * factorial(n - 1))
    coeffs = [0]
    for k in range(1, n + 1):
        coeffs.append(scale * _sign(n - k, factorial(k - 1) * bessel_b(n, k)))
    return families.pn_skew_bm(n), UniPoly(coeffs)


def _theta_b_eval(params, t):
    (n,) = params
    lhs = families.reverse_bessel_poly(n - 1).shifted(1)
    return lhs, UniPoly([0] + [_sign(n - k, bessel_b(n, k)) for k in range(1, n + 1)])


def _rising_eval(params, t):
    (n,) = params
    return rising_factorial_poly(n), UniPoly(t.rows("stirling1", n)[n])


def _falling_eval(params, t):
    (n,) = params
    acc = [0] * (n + 1)
    for k, s2 in enumerate(t.rows("stirling2", n)[n]):  # s2 times x(x-1)...(x-k+1)
        acc[: k + 1] = [a + s2 * f for a, f in zip(acc, falling_factorial_poly(k).coeffs)]
    return UniPoly(acc), UniPoly.monomial(n)


# ---------------------------------------------------------------------------
# registry

def _build_registry() -> dict[str, Identity]:
    nk = lambda n: f"1<=k<=n<={n}"
    nk0 = lambda n: f"0<=k<=n<={n}"
    n1 = lambda n: f"1<=n<={n}"
    n0 = lambda n: f"0<=n<={n}"
    entries = [
        Identity("thm1", "sum_i s1(n,i) s2(i,k) (-2)^(n-i) = b(n,k)", nk, _grid(1, 1), _thm1_eval),
        Identity("thm2", "sum_i s1(n,i) s2(i,k) (-2)^(i-k) = (-1)^(n-k) B(n,k)", nk, _grid(1, 1), _thm2_eval),
        Identity("inversion", "sum_i s1(n,i) s2(i,k) (-1)^(n-i) = [n = k]", nk, _grid(1, 1), _inversion_eval),
        Identity("lah", "sum_i s1(n,i) s2(i,k) = L(n,k)", nk, _grid(1, 1), _lah_eval),
        Identity("duality", "sum_k B(n,k) b(k,m) = sum_k b(n,k) B(k,m) = [m = n]",
                 lambda n: f"1<=m<=n<={n}, both orders", _grid(1, 1, ("Bb", "bB")), _duality_eval),
        Identity("cross-bb", "(-1)^(n-k) B(n,k) = b(k+1, 2k-n+1)",
                 lambda n: f"1<=n<={n}, 0<=k<=n", _grid(1, 0), _cross_bb_eval),
        Identity("gs-scaling", "GS_{s;a}(n,k) = a^(n-k) GS_{s;1}(n,k)",
                 lambda n: f"0<=k<=n<={n}, a/s grids",
                 _grid(0, 0, GS_SCALING_FACTORS, GS_SCALING_S), _gs_scaling_eval),
        Identity("gs-special", "GS specializations: s1, s2, b, B",
                 nk0, _grid(0, 0, sorted(_GS_SPECIAL)), _gs_special_eval),
        gs_composition_identity(GS_COMPOSITION_TRIPLES),
        sss2_identity(SSS2_Z_VALUES),
        Identity("lemma-keys", "Stirling convolution keys (two parts)",
                 lambda n: f"parts a: 1<=i<=j<=n<={n}; b: 1<=j<=k<={n}",
                 _lemma_keys_cases, _lemma_keys_eval),
        hagen_rothe_identity(default_hagen_rothe_cases()),
        Identity("gould-3-120", "sum_m C(n,2m) C(m,k) = 2^(n-2k-1) C(n-k,k) n/(n-k)",
                 lambda n: f"1<=n<={n}, 0<=k<=floor(n/2)", _gould_cases, _gould_eval),
        Identity("moment-bessel", "P_n(x,-1/2) as a signed Bessel-number sum",
                 n1, _grid(1, None), _moment_bessel_eval),
        Identity("theta-b", "x theta_{n-1}(x) = sum_k (-1)^(n-k) x^k b(n,k)",
                 n1, _grid(1, None), _theta_b_eval),
        Identity("pn-closed", "recurrence and closed form of P_n(x,z) agree",
                 n1, _grid(1, None), _pn_closed_eval),
        Identity("pn-special-z", "P_n slices at z in {0,-1,1,-1/2,-2} match closed forms",
                 lambda n: f"1<=n<={n}, 6 slice checks",
                 _grid(1, None, sorted(_PN_SLICES)), _pn_special_eval),
        Identity("rising-factorial", "coefficients of x(x+1)...(x+n-1) are s1(n,k)",
                 n0, _grid(0, None), _rising_eval),
        Identity("falling-factorial", "x^n = sum_k s2(n,k) x(x-1)...(x-k+1)",
                 n0, _grid(0, None), _falling_eval),
        Identity("bessel-b-coeff", "b(n,k) is the x^(n-k) coefficient of y_{n-1}(-x)",
                 nk, _grid(1, 1), _bessel_coeff_eval),
    ]
    return {e.ident: e for e in entries}


REGISTRY = _build_registry()
IDENTITY_IDS: tuple[str, ...] = tuple(REGISTRY)


# ---------------------------------------------------------------------------
# runners

def verify(ident: str | Identity, n_max: int, tables: Triangles | None = None) -> IdentityReport:
    """Check one identity exactly on every case up to ``n_max``.

    ``ident`` is a registry id or an ``Identity``, such as one built by
    ``gs_composition_identity``, ``sss2_identity`` or ``hagen_rothe_identity``.
    The report carries the first failing case in case order, if any, and
    the number of cases evaluated, that one included.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if isinstance(ident, str):
        if ident not in REGISTRY:
            raise ValueError(f"unknown identity id: {ident}")
        ident = REGISTRY[ident]
    t = tables if tables is not None else triangles.DEFAULT
    start = time.perf_counter()
    counterexample = None
    cases = 0
    for cases, params in enumerate(ident.cases(n_max), 1):
        lhs, rhs = ident.evaluate(params, t)
        if lhs != rhs:
            counterexample = Counterexample(params=params, lhs=str(lhs), rhs=str(rhs))
            break
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return IdentityReport(
        identity_id=ident.ident,
        range_desc=ident.describe_range(n_max),
        status="fail" if counterexample else "pass",
        counterexample=counterexample,
        elapsed_ms=elapsed_ms,
        cases=cases,
    )


def _resolve_selection(selection) -> tuple[str, ...]:
    if isinstance(selection, str):
        if selection == "all":
            return IDENTITY_IDS
        selection = [selection]
    ids = list(selection)
    if not ids:
        raise ValueError("empty identity selection")
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        raise ValueError("unknown identity id: " + ", ".join(unknown))
    chosen = set(ids)
    return tuple(i for i in IDENTITY_IDS if i in chosen)


def run_suite(
    n_max: int,
    selection="all",
    tables: Triangles | None = None,
    jobs: int = 1,
) -> list[IdentityReport]:
    """``verify`` each selected identity; reports come back in registry order.

    ``selection`` is "all" or an iterable of identity ids.  With jobs > 1
    the identities fan out over a process pool (only when no custom tables
    are injected); results are independent of the worker count.
    """
    ids = _resolve_selection(selection)
    if jobs > 1 and tables is None and len(ids) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(ids))) as pool:
            futures = {ident: pool.submit(verify, ident, n_max) for ident in ids}
            return [futures[ident].result() for ident in ids]
    return [verify(ident, n_max, tables) for ident in ids]
