"""Arbitrary-precision combinatorial primitives.

Factorials and binomial coefficients with integer, rational, or polynomial
upper argument, plus rising/falling factorial polynomials, prefix-cached as
the identity suite reads them row after row.  Every product of linear
factors in the package is built one factor at a time by ``times_linear``.
Everything is exact: integers are Python ints, rationals are
``fractions.Fraction`` in canonical reduced form, and a float where a
rational is meant is refused.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .polys import Rational, UniPoly, _rational_param


factorial = math.factorial  # n! for n >= 0; raises ValueError for negative n


def binomial_int(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for arbitrary integers.

    Zero for k < 0; for negative upper index it follows
    C(n, k) = (-1)^k C(k - n - 1, k).
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    value = math.comb(k - n - 1, k)
    return -value if k % 2 else value


def binomial_rat(a: Rational, k: int) -> Fraction:
    """C(a, k) = a (a-1) ... (a-k+1) / k! for rational a and k >= 0: with
    a = p/q, the integer product p (p-q) ... (p-(k-1)q) over q^k k!."""
    if k < 0:
        raise ValueError("lower index must be nonnegative")
    a = _rational_param("a", a)
    p, q = a.numerator, a.denominator
    return Fraction(math.prod(p - j * q for j in range(k)), q**k * factorial(k))


def times_linear(c: int, p: Sequence[int]) -> list[int]:
    """(X + c) * p for p given by its coefficients, lowest power first."""
    return [c * a + b for a, b in zip([*p, 0], [0, *p])]


def binomial_poly_upper(c: int, k: int) -> UniPoly:
    """C(c + Z, k) as a degree-k polynomial in the formal variable Z.

    Evaluating the result at any rational z equals ``binomial_rat(c + z, k)``;
    the leading coefficient is 1/k!.
    """
    if k < 0:
        raise ValueError("lower index must be nonnegative")
    prod = [1]
    for j in range(k):
        prod = times_linear(c - j, prod)
    return UniPoly(prod) * Fraction(1, factorial(k))


# index n -> X (X+1) ... (X+n-1) and X (X-1) ... (X-n+1); see _factorial_poly
_rising: list[UniPoly] = [UniPoly([1])]
_falling: list[UniPoly] = [UniPoly([1])]


def _factorial_poly(polys: list[UniPoly], sign: int, n: int) -> UniPoly:
    """X (X + sign) ... (X + sign*(n-1)) from the prefix cache ``polys``,
    extended as needed: entry m+1 is (X + sign*m) times entry m."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(polys) <= n:
        polys.append(UniPoly(times_linear(sign * (len(polys) - 1), polys[-1].coeffs)))
    return polys[n]


def rising_factorial_poly(n: int) -> UniPoly:
    """X (X+1) ... (X+n-1), expanded; prefix-cached.

    The coefficient of X^k is the unsigned Stirling number of the first
    kind with indices (n, k).
    """
    return _factorial_poly(_rising, 1, n)


def falling_factorial_poly(n: int) -> UniPoly:
    """X (X-1) ... (X-n+1), expanded; prefix-cached."""
    return _factorial_poly(_falling, -1, n)
