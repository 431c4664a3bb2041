"""Exact polynomial arithmetic over the rationals.

``UniPoly`` is a dense univariate polynomial, ``BiPoly`` a sparse bivariate
polynomial in the formal variables x and z.  Coefficients are exact, ``int``
or ``fractions.Fraction``, never ``float``: each keeps the type its
arithmetic gave, so an integral family stays ``int`` and only a division
makes a ``Fraction``.  The two compare, hash and print alike.  Every
operation is exact, and values are immutable after construction.  ``BiPoly``
holds the coefficients of P_n(x, z) for comparison, evaluation and printing;
it has no addition.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Union

Rational = Union[int, Fraction]


def _power(var: str, e: int) -> str:
    return "" if e == 0 else var if e == 1 else f"{var}^{e}"


def _sum_str(terms: Iterable[tuple[Rational, str]]) -> str:
    """The (coefficient, monomial) terms as a sum in the order given, as in
    "-(1/2)x^2z + x - 3": zero terms are skipped, a fraction is
    parenthesised, a unit coefficient before a monomial is left out, and the
    empty sum is "0"."""
    parts: list[str] = []
    for c, mono in terms:
        if not c:
            continue
        mag = -c if c < 0 else c
        coeff = f"({mag})" if mag.denominator != 1 else str(mag.numerator)
        term = mono if coeff == "1" and mono else coeff + mono
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {term}" if parts else term if sign == "+" else f"-{term}")
    return " ".join(parts) or "0"


class UniPoly:
    """Dense univariate polynomial; index in the coefficient tuple = degree.

    Canonical form: no trailing zero coefficients.  The zero polynomial has
    an empty coefficient tuple and degree -1.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def monomial(cls, power: int, coeff: Rational = 1) -> "UniPoly":
        if power < 0:
            raise ValueError("monomial power must be nonnegative")
        return cls([0] * power + [coeff])

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple[Rational, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, k: int) -> Rational:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return 0

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self._coeffs)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["UniPoly", Rational]) -> "UniPoly":
        if isinstance(other, UniPoly):
            if not self._coeffs or not other._coeffs:
                return UniPoly()
            out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
            return UniPoly(out)
        if isinstance(other, (int, Fraction)):
            return UniPoly(c * other for c in self._coeffs)
        return NotImplemented

    def __rmul__(self, other: Rational) -> "UniPoly":
        return self.__mul__(other)

    def shifted(self, k: int) -> "UniPoly":
        """Multiply by x**k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if not self._coeffs:
            return UniPoly()
        return UniPoly((0,) * k + self._coeffs)

    def __call__(self, value: Rational) -> Rational:
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * value + c
        return acc

    def __str__(self) -> str:
        return _sum_str((self._coeffs[k], _power("x", k)) for k in range(self.degree, -1, -1))

    def __repr__(self) -> str:
        return f"UniPoly({list(self._coeffs)!r})"


class BiPoly:
    """Sparse bivariate polynomial: monomial (i, j) -> coefficient of x^i z^j.

    Canonical form stores no zero coefficients.
    """

    __slots__ = ("_terms", "_integer_form")

    def __init__(self, terms: Mapping[tuple[int, int], Rational] | None = None):
        terms = terms or {}
        if any(i < 0 or j < 0 for i, j in terms):
            raise ValueError("monomial exponents must be nonnegative")
        self._terms = {key: c for key, c in terms.items() if c}
        self._integer_form = None  # see substitute_z

    @classmethod
    def x(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def from_z_poly(cls, p: UniPoly) -> "BiPoly":
        return cls({(0, j): c for j, c in enumerate(p.coeffs)})

    def items(self) -> list[tuple[tuple[int, int], Rational]]:
        """Terms sorted lexicographically by (x power, z power)."""
        return sorted(self._terms.items())

    def coefficient(self, i: int, j: int) -> Rational:
        return self._terms.get((i, j), 0)

    @property
    def degree_x(self) -> int:
        return max((i for i, _ in self._terms), default=-1)

    @property
    def degree_z(self) -> int:
        return max((j for _, j in self._terms), default=-1)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        d: dict[tuple[int, int], Rational] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                key = (i1 + i2, j1 + j2)
                d[key] = d.get(key, 0) + c1 * c2
        return BiPoly(d)

    def substitute_z(self, z0: Rational) -> UniPoly:
        """Evaluate the z variable, leaving a univariate polynomial in x.

        With z0 = p/q, d = degree_z and L the lcm of the coefficients'
        denominators, each x power sums c * z0^j in integers as
        (L c) * p^j q^(d-j) over L q^d, and is made one ``Fraction``.  A
        power stays ``int`` when every term at it is an int coefficient
        times an int power of z0, as the term-by-term sum would give.  The
        integer form (L, d and each x power's z powers and L c) is made on
        the first call and kept, as the polynomial is immutable.
        """
        if self._integer_form is None:
            den = math.lcm(*(c.denominator for c in self._terms.values()))
            by_x: list[list] = [[] for _ in range(self.degree_x + 1)]
            for (i, j), c in self._terms.items():
                by_x[i].append((j, c))
            self._integer_form = den, max(self.degree_z, 0), [(
                tuple(j for j, _ in terms),
                tuple(c.numerator * (den // c.denominator) for _, c in terms),
                all(isinstance(c, int) for _, c in terms),  # int coefficients only
                not any(j for j, _ in terms),  # z^0 only
            ) for terms in by_x]
        den, d, rows = self._integer_form
        p, q = z0.numerator, z0.denominator
        zq = [p**j * q ** (d - j) for j in range(d + 1)]  # q^d z0^j
        z_int = isinstance(z0, int)
        scale = den * q**d
        out = []
        for js, cs, int_coeffs, z_free in rows:
            v = sum(map(operator.mul, cs, map(zq.__getitem__, js)))
            out.append(v // scale if int_coeffs and (z_int or z_free) else Fraction(v, scale))
        return UniPoly(out)

    def __call__(self, x0: Rational, z0: Rational) -> Rational:
        return self.substitute_z(z0)(x0)

    def __str__(self) -> str:
        return _sum_str((c, _power("x", i) + _power("z", j)) for (i, j), c in self.items())

    def __repr__(self) -> str:
        return f"BiPoly({dict(self.items())!r})"
