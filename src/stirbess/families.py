"""Polynomial families: occupation-time moment polynomials, Bessel and
Chebyshev polynomials.

The central object is the bivariate sequence P_n(x, z) defined by

    P_1(x, z) = x,
    P_{n+1}(x, z) = x*C(n+z, n) - x * sum_{m=1..n} C(n-m+z, n-m+1) * P_m(x, z),

where the binomials are polynomials in z.  Its coefficients mix Stirling
numbers of both kinds (see ``pn_closed_form``); fixing z yields classical
shapes: P_n(x, 0) = x, P_n(x, -1) = x^n, P_n(x, 1) = 1-(1-x)^n, a central
binomial form at z = -1/2 (the moments of the positive occupation time of
a skew Brownian motion with skewness x), and a rescaled Chebyshev
polynomial at z = -2.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable

from . import triangles
from .exactnum import binomial_int, factorial, times_linear
from .polys import BiPoly, UniPoly
from .triangles import Triangles

_qn_cache: list[list[list[int]]] = [[], [[], [1]]]  # index n -> Q_n = (n-1)! P_n; see pn_recurrence
_pn_cache: dict[int, BiPoly] = {1: BiPoly.x()}  # n -> P_n, for each n asked so far


def pn_recurrence(n: int) -> BiPoly:
    """P_n(x, z) built from the defining recurrence.

    The recurrence runs in integer arithmetic on Q_n = (n-1)! P_n.  With
    R_{c,k}(z) = k! C(c+z, k) = (c+z) (c-1+z) ... (c-k+1+z), multiplying the
    recurrence for P_{n+1} by n! gives

        Q_1 = x,
        Q_{n+1} = x * [R_{n,n}(z) - sum_{m=1..n} C(n, m-1) R_{n-m,n-m+1}(z) Q_m],

    in which every coefficient is an integer.  The cache holds Q_1, Q_2, ...
    as far as the largest n asked, each as dense rows: the list of z
    coefficients for each power of x.  A ``BiPoly`` is made only for the n
    asked, when first asked, by the one exact division of Q_n by (n-1)!, and
    kept for the next call.
    """
    if n < 1:
        raise ValueError("n must be positive")
    while len(_qn_cache) <= n:
        _qn_cache.append(_next_q(len(_qn_cache) - 1))
    if n not in _pn_cache:
        denom = factorial(n - 1)
        _pn_cache[n] = BiPoly({
            (i, j): Fraction(c, denom) for i, row in enumerate(_qn_cache[n]) for j, c in enumerate(row) if c
        })
    return _pn_cache[n]


def _next_q(n: int) -> list[list[int]]:
    """Q_{n+1} from the cached Q_1..Q_n.

    R_{n-m,n-m+1}(z) = z (z+1) ... (z+n-m), so the sum is z * G_n in Horner
    form: G_1 = Q_1 and G_m = C(n, m-1) Q_m + (z+n-m+1) G_{m-1}.  That costs
    one linear factor per term instead of a full product by R.  Every Q_m
    is divisible by x, so x times the sum has no x^1 term: the cached x row
    of Q_n is R_{n-1,n-1}, and R_{n,n} = (z+1) ... (z+n) is (z+n) times it.
    """
    r = times_linear(n, _qn_cache[n][1])  # R_{n,n}
    g: list[list[int]] = []  # G_m, rows for x^1..x^m
    for m in range(1, n + 1):
        binom = binomial_int(n, m - 1)
        g = [times_linear(n - m + 1, row) for row in g] + [[0] * m]
        g = [[a + binom * v for a, v in zip(row, q_row)] for row, q_row in zip(g, _qn_cache[m][1:])]
    return [[], r] + [[0] + [-v for v in row] for row in g]  # x * (R_{n,n} - z G_n)


def pn_closed_form(n: int, tables: Triangles | None = None) -> BiPoly:
    """P_n(x, z) as the explicit Stirling double sum:

        sum_{k=1..n} sum_{j=1..k} (-1)^(j-1) (j-1)!/(n-1)!
                                  * s1(n, k) * s2(k, j) * x^j z^(k-1)

    with s1/s2 the unsigned first-kind and second-kind Stirling numbers.
    Equality with ``pn_recurrence`` is the suite's central cross-check.
    """
    if n < 1:
        raise ValueError("n must be positive")
    t = tables if tables is not None else triangles.DEFAULT
    denom = factorial(n - 1)
    s1, s2 = t.rows("stirling1", n)[n], t.rows("stirling2", n)
    return BiPoly({
        (j, k - 1): Fraction((-1) ** (j - 1) * factorial(j - 1) * s1[k] * s2[k][j], denom)
        for k in range(1, n + 1) for j in range(1, k + 1)
    })


def pn_skew_bm(n: int) -> UniPoly:
    """P_n(x, -1/2) = sum_{k=0..n-1} C(n+k-1, k) x^(n-k) / 2^(n+k-1).

    These are the moments E[A_1^n] of the positive occupation time of a
    skew Brownian motion with skewness x; the coefficients are positive
    and sum to 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    coeffs = [0] * (n + 1)
    for k in range(n):
        coeffs[n - k] = Fraction(binomial_int(n + k - 1, k), 2 ** (n + k - 1))
    return UniPoly(coeffs)


def pn_z_minus2(n: int) -> UniPoly:
    """P_n(x, -2) in closed form:

        (n/2) * sum_{k=ceil(n/2)..n} (-1)^(n-k) (k-1)! 2^(2k-n)
                                     / ((n-k)! (2k-n)!) * x^k
    """
    if n < 1:
        raise ValueError("n must be positive")
    coeffs = [0] * (n + 1)
    for k in range((n + 1) // 2, n + 1):
        c = Fraction(factorial(k - 1) * 2 ** (2 * k - n), factorial(n - k) * factorial(2 * k - n))
        if (n - k) % 2:
            c = -c
        coeffs[k] = Fraction(n, 2) * c
    return UniPoly(coeffs)


def pn_z_one(n: int) -> UniPoly:
    """P_n(x, 1) = 1 - (1-x)^n = sum_{k=1..n} (-1)^(k+1) C(n, k) x^k."""
    if n < 1:
        raise ValueError("n must be positive")
    coeffs = [0] * (n + 1)
    for k in range(1, n + 1):
        v = binomial_int(n, k)
        coeffs[k] = -v if k % 2 == 0 else v
    return UniPoly(coeffs)


def _three_term(n: int, p1: UniPoly, step: Callable[[int, UniPoly, UniPoly], UniPoly]) -> UniPoly:
    """p_n of the sequence p_0 = 1, p_1 = p1, p_m = step(m, p_{m-1}, p_{m-2})."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev = UniPoly((1,))
    if n == 0:
        return prev
    cur = p1
    for m in range(2, n + 1):
        prev, cur = cur, step(m, cur, prev)
    return cur


@functools.cache
def bessel_poly(n: int) -> UniPoly:
    """Bessel polynomial y_n: y_0 = 1, y_1 = x+1, y_n = (2n-1)x y_{n-1} + y_{n-2}.

    Memoized: ``UniPoly`` is immutable, and ``bessel-b-coeff`` asks for
    y_{n-1} once per (n, k).
    """
    return _three_term(n, UniPoly((1, 1)), lambda m, cur, prev: (2 * m - 1) * cur.shifted(1) + prev)


def reverse_bessel_poly(n: int) -> UniPoly:
    """Reverse Bessel polynomial theta_n = x^n y_n(1/x).

    theta_0 = 1, theta_1 = x+1, theta_n = (2n-1) theta_{n-1} + x^2 theta_{n-2}.
    """
    return _three_term(n, UniPoly((1, 1)), lambda m, cur, prev: (2 * m - 1) * cur + prev.shifted(2))


def chebyshev_t(n: int) -> UniPoly:
    """Chebyshev polynomial of the first kind T_n: T_0 = 1, T_1 = x,
    T_n = 2x T_{n-1} - T_{n-2}."""
    return _three_term(n, UniPoly.x(), lambda m, cur, prev: 2 * cur.shifted(1) - prev)


def pn_via_chebyshev(n: int) -> UniPoly:
    """P_n(x, -2) built from T_n by mapping each monomial t^m to x^((n+m)/2).

    T_n contains only powers with m = n (mod 2), so every exponent (n+m)/2
    is an integer; this realizes (sqrt x)^n T_n(sqrt x) without irrational
    intermediates.
    """
    if n < 1:
        raise ValueError("n must be positive")
    t = chebyshev_t(n)
    coeffs = [0] * (n + 1)
    for m, c in enumerate(t.coeffs):
        if c == 0:
            continue
        assert (n - m) % 2 == 0, f"parity violation in T_{n} at power {m}"
        coeffs[(n + m) // 2] = c
    return UniPoly(coeffs)
