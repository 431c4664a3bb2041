"""Exact polynomial arithmetic over the rationals.

``UniPoly`` is a dense univariate polynomial, ``BiPoly`` a sparse bivariate
polynomial in the formal variables x and z.  Coefficients are
``fractions.Fraction`` throughout, every operation is exact, and values are
immutable after construction.  ``BiPoly`` holds the coefficients of P_n(x, z)
for comparison, evaluation and printing; it has no addition.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

Rational = Union[int, Fraction]


def _frac(value: Rational) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


class UniPoly:
    """Dense univariate polynomial; index in the coefficient tuple = degree.

    Canonical form: no trailing zero coefficients.  The zero polynomial has
    an empty coefficient tuple and degree -1.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [_frac(c) for c in coeffs]
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
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return Fraction(0)

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
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
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

    def __pow__(self, exponent: int) -> "UniPoly":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = UniPoly((1,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shifted(self, k: int) -> "UniPoly":
        """Multiply by x**k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if not self._coeffs:
            return UniPoly()
        return UniPoly((Fraction(0),) * k + self._coeffs)

    def __call__(self, value: Rational) -> Fraction:
        v = _frac(value)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * v + c
        return acc

    def to_str(self, var: str = "x") -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if mag.denominator != 1:
                coeff = f"({mag})"
            else:
                coeff = str(mag.numerator)
            if k == 0:
                term = coeff
            else:
                xk = var if k == 1 else f"{var}^{k}"
                term = xk if coeff == "1" else f"{coeff}{xk}"
            if not parts:
                parts.append(term if sign == "+" else f"-{term}")
            else:
                parts.append(f"{sign} {term}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"UniPoly({list(self._coeffs)!r})"


class BiPoly:
    """Sparse bivariate polynomial: monomial (i, j) -> coefficient of x^i z^j.

    Canonical form stores no zero coefficients.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Rational] | None = None):
        terms = terms or {}
        if any(i < 0 or j < 0 for i, j in terms):
            raise ValueError("monomial exponents must be nonnegative")
        self._terms = {key: _frac(c) for key, c in terms.items() if c}

    @classmethod
    def x(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def from_z_poly(cls, p: UniPoly) -> "BiPoly":
        return cls({(0, j): c for j, c in enumerate(p.coeffs)})

    def items(self) -> list[tuple[tuple[int, int], Fraction]]:
        """Terms sorted lexicographically by (x power, z power)."""
        return sorted(self._terms.items())

    def coefficient(self, i: int, j: int) -> Fraction:
        return self._terms.get((i, j), Fraction(0))

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
        d: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                key = (i1 + i2, j1 + j2)
                d[key] = d.get(key, 0) + c1 * c2
        return BiPoly(d)

    def substitute_z(self, z0: Rational) -> UniPoly:
        """Evaluate the z variable, leaving a univariate polynomial in x."""
        v = _frac(z0)
        powers = [Fraction(1)]
        for _ in range(self.degree_z):
            powers.append(powers[-1] * v)
        acc: dict[int, Fraction] = {}
        for (i, j), c in self._terms.items():
            acc[i] = acc.get(i, Fraction(0)) + c * powers[j]
        if not acc:
            return UniPoly()
        out = [Fraction(0)] * (max(acc) + 1)
        for i, c in acc.items():
            out[i] = c
        return UniPoly(out)

    def __call__(self, x0: Rational, z0: Rational) -> Fraction:
        return self.substitute_z(z0)(x0)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        out = ""
        for (i, j), c in self.items():
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            mono = "".join(
                (f"{v}^{e}" if e > 1 else v)
                for v, e in (("x", i), ("z", j))
                if e > 0
            )
            coeff = f"({mag})" if mag.denominator != 1 else str(mag.numerator)
            term = mono if (coeff == "1" and mono) else coeff + mono
            if not out:
                out = term if sign == "+" else f"-{term}"
            else:
                out += f" {sign} {term}"
        return out

    def __repr__(self) -> str:
        return f"BiPoly({dict(self.items())!r})"
