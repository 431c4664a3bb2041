"""Exact polynomial arithmetic over the rationals.

``UniPoly`` is a dense univariate polynomial.  ``SparsePoly`` is the one
sparse type, a polynomial in named variables keyed by exponent tuples, with
a product and printing; it has no addition, as nothing adds two of them
yet.  ``BiPoly`` is ``SparsePoly`` over ("x", "z") and holds the
coefficients of P_n(x, z) for comparison, printing and evaluation; it
substitutes a value for z, the one variable the program fixes.
Coefficients are exact, ``int`` or ``fractions.Fraction``, never ``float``:
each keeps the type its arithmetic gave, so an integral family stays
``int`` and only a division makes a ``Fraction``.  The two compare, hash and print alike.  Every operation is
exact, a float is refused where a variable is given a value, as the other
modules refuse it for a rational parameter, and values are immutable after
construction.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
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


def _refuse_float(var: str, value) -> None:
    """A float given to a variable or rational parameter is refused: 0.1 is
    its binary value 3602879701896397/2**55, not the 1/10 a caller means."""
    if isinstance(value, float):
        raise ValueError(f"{var} must be an int or Fraction, not the float {value!r}")


def _rational_param(name: str, value) -> Fraction:
    """``value`` as a Fraction; a float is refused, as for a variable."""
    _refuse_float(name, value)
    return Fraction(value)


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
        _refuse_float("x", value)
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * value + c
        return acc

    def __str__(self) -> str:
        return _sum_str((self._coeffs[k], _power("x", k)) for k in range(self.degree, -1, -1))

    def __repr__(self) -> str:
        return f"UniPoly({list(self._coeffs)!r})"


class SparsePoly:
    """Sparse polynomial in named variables: exponent tuple -> coefficient.

    A key holds one exponent per variable, in the order of ``variables``, so
    (2, 0, 1) over ("a", "b", "c") is the monomial a^2 c.  Canonical form
    stores no zero coefficients.  A product returns the receiver's class
    over the same variables.
    """

    __slots__ = ("_variables", "_terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple[int, ...], Rational] | None = None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"variable names must be distinct, not {variables}")
        terms = terms or {}
        if any(len(key) != len(variables) for key in terms):
            raise ValueError(f"each monomial needs one exponent per variable of {variables}")
        if min(itertools.chain.from_iterable(terms), default=0) < 0:
            raise ValueError("monomial exponents must be nonnegative")
        self._variables = variables
        self._terms = {key: c for key, c in terms.items() if c}

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    def items(self) -> list[tuple[tuple[int, ...], Rational]]:
        """Terms sorted lexicographically by exponent tuple."""
        return sorted(self._terms.items())

    def coefficient(self, *exponents: int) -> Rational:
        return self._terms.get(exponents, 0)

    def degree(self, var: str) -> int:
        """The largest exponent of ``var``; -1 for the zero polynomial."""
        v = self._variables.index(var)
        return max((key[v] for key in self._terms), default=-1)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self._variables == other._variables and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return NotImplemented
        if self._variables != other._variables:
            raise TypeError(f"cannot multiply polynomials in {self._variables} and {other._variables}")
        d: dict[tuple[int, ...], Rational] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                key = tuple(map(operator.add, k1, k2))
                d[key] = d.get(key, 0) + c1 * c2
        p = object.__new__(type(self))  # the keys are checked already
        p._variables, p._terms = self._variables, {key: c for key, c in d.items() if c}
        return p

    def __str__(self) -> str:
        return _sum_str((c, "".join(map(_power, self._variables, key))) for key, c in self.items())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._variables!r}, {dict(self.items())!r})"


class BiPoly(SparsePoly):
    """``SparsePoly`` over ("x", "z"), the ring of P_n(x, z): the key (i, j)
    is the monomial x^i z^j."""

    __slots__ = ("_z_form",)  # unset until the first substitute_z

    def __init__(self, terms: Mapping[tuple[int, int], Rational] | None = None):
        super().__init__(("x", "z"), terms)

    @classmethod
    def x(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def from_z_poly(cls, p: UniPoly) -> "BiPoly":
        return cls({(0, j): c for j, c in enumerate(p.coeffs)})

    def substitute_z(self, z0: Rational) -> UniPoly:
        """Evaluate the z variable, leaving a univariate polynomial in x.

        With z0 = p/q, d = ``degree("z")`` and L the lcm of the coefficients'
        denominators, the terms at each power of x sum in integers as
        (L c) * p^j q^(d-j) over L q^d, and are made one ``Fraction``.  A sum
        stays ``int`` when every term in it is an int coefficient times an
        int power of z0, as the term-by-term sum would give, and an x power
        with no term is the int 0.  The integer form (L, d, and each x row's
        power, z exponents and L c) is made on the first call and kept, as
        the polynomial is immutable.
        """
        _refuse_float("z", z0)
        try:
            den, d, rows = self._z_form
        except AttributeError:
            by_x = defaultdict(list)
            for (i, j), c in self._terms.items():
                by_x[i].append((j, c))
            den = 1
            for c in self._terms.values():
                if den % c.denominator:  # most denominators divide den already, and % is cheaper than lcm
                    den = math.lcm(den, c.denominator)
            d = max(self.degree("z"), 0)
            rows = [(
                i,
                tuple(j for j, _ in terms),
                tuple(c.numerator * (den // c.denominator) for _, c in terms),
                all(isinstance(c, int) for _, c in terms),  # int coefficients only
                not any(j for j, _ in terms),  # z0^0 only
            ) for i, terms in sorted(by_x.items())]
            self._z_form = den, d, rows
        p, q = z0.numerator, z0.denominator
        pq = [p**j * q ** (d - j) for j in range(d + 1)]  # q^d z0^j
        z_int = isinstance(z0, int)
        scale = den * q**d
        out = [0] * (rows[-1][0] + 1 if rows else 0)
        for i, js, cs, int_coeffs, z_free in rows:
            s = sum(map(operator.mul, cs, map(pq.__getitem__, js)))
            out[i] = s // scale if int_coeffs and (z_int or z_free) else Fraction(s, scale)
        return UniPoly(out)

    def __call__(self, x0: Rational, z0: Rational) -> Rational:
        return self.substitute_z(z0)(x0)  # both refuse a float

    def __repr__(self) -> str:
        return f"BiPoly({dict(self.items())!r})"
