import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from stirbess.families import pn_recurrence, pn_skew_bm
from stirbess.identities import _PN_SLICES
from stirbess.polys import BiPoly, SparsePoly, UniPoly

coeffs = st.fractions(max_denominator=12, min_value=-9, max_value=9)
unipolys = st.lists(coeffs, max_size=6).map(UniPoly)
points = st.fractions(max_denominator=8, min_value=-5, max_value=5)
int_or_fraction_points = st.one_of(st.integers(-5, 5), points)


@st.composite
def bipolys(draw, coefficients=coeffs):
    n_terms = draw(st.integers(min_value=0, max_value=6))
    terms = {}
    for _ in range(n_terms):
        key = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
        terms[key] = draw(coefficients)
    return BiPoly(terms)


def substitute_term_by_term(p: BiPoly, z0) -> UniPoly:
    """sum c z0^j at each power of x, one term at a time; z0^0 is the exact
    1, so an int coefficient there stays int."""
    out = [0] * (p.degree("x") + 1)
    for (i, j), c in p.items():
        out[i] += c * z0**j if j else c
    return UniPoly(out)


ABC = ("a", "b", "c")


@st.composite
def abc_polys(draw):
    return SparsePoly(ABC, draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), coeffs, max_size=6)))


def value_at(p: SparsePoly, point):
    """sum c prod v^e over the terms, one term at a time."""
    return sum(c * math.prod(v**e for v, e in zip(point, key)) for key, c in p.items())


class TestUniPoly:
    def test_canonical_form(self):
        assert UniPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert UniPoly([0, 0]).coeffs == ()
        assert UniPoly().degree == -1
        assert not UniPoly()
        assert UniPoly([3]).degree == 0

    def test_arithmetic_frozen(self):
        p = UniPoly([1, 1])  # 1 + x
        q = UniPoly([-1, 1])  # -1 + x
        assert p * q == UniPoly([-1, 0, 1])
        assert p + q == UniPoly([0, 2])
        assert p - p == UniPoly()
        assert 3 * p == UniPoly([3, 3])

    def test_monomial_and_shift(self):
        assert UniPoly.monomial(3, 5) == UniPoly([0, 0, 0, 5])
        assert UniPoly([1, 2]).shifted(2) == UniPoly([0, 0, 1, 2])
        assert UniPoly().shifted(3) == UniPoly()
        with pytest.raises(ValueError):
            UniPoly.monomial(-1)
        with pytest.raises(ValueError, match="shift must be nonnegative"):
            UniPoly([1, 2]).shifted(-1)

    def test_coefficient_beyond_the_degree_is_zero(self):
        assert UniPoly([1, 2]).coefficient(5) == 0
        assert UniPoly([1, 2]).coefficient(-1) == 0

    def test_int_and_fraction_coefficients_hash_alike(self):
        p, q = UniPoly([1, 2, 3]), UniPoly([Fraction(1), Fraction(2), Fraction(3)])
        assert p == q and hash(p) == hash(q)
        assert len({p, q}) == 1

    def test_evaluation(self):
        p = UniPoly([1, -3, 2])  # 1 - 3x + 2x^2
        assert p(2) == 3
        assert p(Fraction(1, 2)) == 0

    def test_str(self):
        assert str(UniPoly([1, 6, 15, 15])) == "15x^3 + 15x^2 + 6x + 1"
        assert str(UniPoly([0, -1, 2])) == "2x^2 - x"
        assert str(UniPoly([0, Fraction(1, 2), Fraction(1, 2)])) == "(1/2)x^2 + (1/2)x"
        assert str(UniPoly()) == "0"

    def test_str_signs_and_units(self):
        assert str(UniPoly([0, -1])) == "-x"
        assert str(UniPoly([1, 0, Fraction(-1, 2)])) == "-(1/2)x^2 + 1"
        assert str(UniPoly([-1])) == "-1"
        assert str(UniPoly([1])) == "1"

    @given(unipolys, unipolys, unipolys)
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)

    @given(unipolys, unipolys, points)
    def test_evaluation_is_a_homomorphism(self, p, q, x):
        assert (p + q)(x) == p(x) + q(x)
        assert (p * q)(x) == p(x) * q(x)


class TestBiPoly:
    def test_canonical_form(self):
        p = BiPoly({(0, 0): 1, (1, 1): 0})
        assert p.items() == [((0, 0), Fraction(1))]
        assert BiPoly().degree("x") == -1
        assert BiPoly().degree("z") == -1
        assert not BiPoly()

    def test_from_unipoly(self):
        p = UniPoly([1, 2])
        assert BiPoly.from_z_poly(p) == BiPoly({(0, 0): 1, (0, 1): 2})

    def test_arithmetic_frozen(self):
        p = BiPoly({(1, 0): 1, (1, 1): 1, (2, 1): -1})  # x + xz - x^2 z
        assert BiPoly.x() * BiPoly({(0, 0): 1, (0, 1): 1, (1, 1): -1}) == p
        assert p.coefficient(1, 0) == 1
        assert p.coefficient(1, 1) == 1
        assert p.coefficient(2, 1) == -1
        assert p.degree("x") == 2
        assert p.degree("z") == 1
        assert type(p * p) is BiPoly and type(SparsePoly(ABC) * SparsePoly(ABC)) is SparsePoly

    def test_substitute_z_frozen(self):
        p = BiPoly({(1, 0): 1, (1, 1): 1, (2, 1): -1})  # x + xz - x^2 z
        assert p.substitute_z(-2) == UniPoly([0, -1, 2])
        assert p.substitute_z(0) == UniPoly.x()

    def test_product_drops_cancelled_terms(self):
        x_plus_z = BiPoly({(1, 0): 1, (0, 1): 1})
        x_minus_z = BiPoly({(1, 0): 1, (0, 1): -1})
        p = x_plus_z * x_minus_z  # x^2 - z^2; the xz cross terms cancel
        assert p.items() == [((0, 2), Fraction(-1)), ((2, 0), Fraction(1))]
        assert p.coefficient(1, 1) == 0
        assert p == BiPoly({(2, 0): 1, (0, 2): -1})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            BiPoly({(-1, 0): 1})

    @given(bipolys(), bipolys(), points)
    def test_substitution_is_a_homomorphism(self, p, q, z0):
        assert (p * q).substitute_z(z0) == p.substitute_z(z0) * q.substitute_z(z0)

    @given(bipolys(st.one_of(st.integers(-9, 9), coeffs)), int_or_fraction_points, int_or_fraction_points)
    def test_substitute_z_matches_term_by_term_sum(self, p, z0, z1):
        # by repr, so each coefficient's type (int or Fraction) must match too;
        # each z twice, as the polynomial keeps its integer form between calls
        for z in (z0, z1, z0, z1):
            assert repr(p.substitute_z(z)) == repr(substitute_term_by_term(p, z))

    def test_substitute_z_on_moment_polynomials(self):
        for n in range(1, 25):
            for z, _ in _PN_SLICES.values():
                assert repr(pn_recurrence(n).substitute_z(z)) == repr(substitute_term_by_term(pn_recurrence(n), z))

    @given(bipolys(), points, points)
    def test_full_evaluation_matches_staged_evaluation(self, p, x0, z0):
        assert p(x0, z0) == p.substitute_z(z0)(x0)

    def test_str(self):
        p = BiPoly({(2, 1): Fraction(-3, 4), (1, 0): 1, (0, 2): -1, (0, 0): 1, (1, 3): 2})
        assert str(p) == "1 - z^2 + x + 2xz^3 - (3/4)x^2z"
        assert str(BiPoly({(0, 1): Fraction(1, 2), (3, 0): -1})) == "(1/2)z - x^3"
        assert str(BiPoly({(0, 2): Fraction(-1, 3), (1, 1): 1})) == "-(1/3)z^2 + xz"
        assert str(BiPoly({(0, 0): 1})) == "1"
        assert str(BiPoly({(0, 0): -1})) == "-1"
        assert str(BiPoly()) == "0"

    def test_items_sorted_lexicographically(self):
        p = BiPoly({(2, 1): 1, (0, 3): 2, (2, 0): 3})
        assert [k for k, _ in p.items()] == [(0, 3), (2, 0), (2, 1)]


class TestSparsePoly:
    def test_frozen(self):
        p = SparsePoly(ABC, {(2, 0, 1): Fraction(-3, 4), (0, 0, 0): 1, (0, 1, 0): -1, (1, 1, 3): 2, (1, 0, 0): 0})
        assert p.variables == ABC
        assert p.items() == [((0, 0, 0), 1), ((0, 1, 0), -1), ((1, 1, 3), 2), ((2, 0, 1), Fraction(-3, 4))]
        assert p.coefficient(1, 1, 3) == 2 and p.coefficient(1, 0, 0) == 0
        assert [p.degree(v) for v in ABC] == [2, 1, 3]
        assert SparsePoly(ABC).degree("b") == -1

    def test_str(self):
        p = SparsePoly(ABC, {(2, 0, 1): Fraction(-3, 4), (0, 0, 0): 1, (0, 1, 0): -1, (1, 1, 3): 2})
        assert str(p) == "1 - b + 2abc^3 - (3/4)a^2c"
        assert repr(p) == "SparsePoly(('a', 'b', 'c'), {(0, 0, 0): 1, (0, 1, 0): -1, (1, 1, 3): 2, (2, 0, 1): Fraction(-3, 4)})"

    def test_wrong_number_of_exponents_rejected(self):
        with pytest.raises(ValueError, match="one exponent per variable"):
            SparsePoly(ABC, {(1, 0): 1})
        with pytest.raises(ValueError, match="one exponent per variable"):
            BiPoly({(1, 0, 0): 1})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SparsePoly(ABC, {(0, -1, 2): 1})

    def test_product_over_different_variables_refused(self):
        with pytest.raises(TypeError):
            SparsePoly(("a", "b"), {(1, 0): 1}) * SparsePoly(("b", "a"), {(1, 0): 1})
        with pytest.raises(TypeError):
            BiPoly.x() * SparsePoly(("a", "b"), {(1, 0): 1})

    @given(abc_polys(), abc_polys(), st.tuples(points, points, points))
    def test_evaluation_is_a_homomorphism(self, p, q, point):
        assert value_at(p * q, point) == value_at(p, point) * value_at(q, point)

    def test_repeated_variable_rejected(self):
        with pytest.raises(ValueError, match="variable names must be distinct"):
            SparsePoly(("x", "x"))


class TestFloatRefused:
    def test_substitute_z(self):
        with pytest.raises(ValueError, match="^z must be an int or Fraction, not the float 0.5$"):
            pn_recurrence(3).substitute_z(0.5)

    def test_call_at_float_z(self):
        with pytest.raises(ValueError, match="^z must be an int or Fraction"):
            pn_recurrence(3)(Fraction(1, 2), 0.5)

    def test_call_at_float_x(self):
        with pytest.raises(ValueError, match="^x must be an int or Fraction"):
            pn_recurrence(3)(0.5, Fraction(1, 2))

    def test_unipoly_call_at_float(self):
        with pytest.raises(ValueError, match="^x must be an int or Fraction, not the float 0.5$"):
            pn_skew_bm(3)(0.5)
        assert pn_skew_bm(3)(Fraction(1, 2)) == Fraction(5, 16)
