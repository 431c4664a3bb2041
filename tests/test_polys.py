from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from stirbess.polys import BiPoly, UniPoly

coeffs = st.fractions(max_denominator=12, min_value=-9, max_value=9)
unipolys = st.lists(coeffs, max_size=6).map(UniPoly)
points = st.fractions(max_denominator=8, min_value=-5, max_value=5)


@st.composite
def bipolys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=6))
    terms = {}
    for _ in range(n_terms):
        key = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
        terms[key] = draw(coeffs)
    return BiPoly(terms)


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
        assert p**3 == UniPoly([1, 3, 3, 1])

    def test_monomial_and_shift(self):
        assert UniPoly.monomial(3, 5) == UniPoly([0, 0, 0, 5])
        assert UniPoly([1, 2]).shifted(2) == UniPoly([0, 0, 1, 2])
        with pytest.raises(ValueError):
            UniPoly.monomial(-1)

    def test_evaluation(self):
        p = UniPoly([1, -3, 2])  # 1 - 3x + 2x^2
        assert p(2) == 3
        assert p(Fraction(1, 2)) == 0

    def test_str(self):
        assert str(UniPoly([1, 6, 15, 15])) == "15x^3 + 15x^2 + 6x + 1"
        assert str(UniPoly([0, -1, 2])) == "2x^2 - x"
        assert str(UniPoly([0, Fraction(1, 2), Fraction(1, 2)])) == "(1/2)x^2 + (1/2)x"
        assert str(UniPoly()) == "0"

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
        assert BiPoly().degree_x == -1
        assert BiPoly().degree_z == -1

    def test_from_unipoly(self):
        p = UniPoly([1, 2])
        assert BiPoly.from_z_poly(p) == BiPoly({(0, 0): 1, (0, 1): 2})

    def test_arithmetic_frozen(self):
        p = BiPoly({(1, 0): 1, (1, 1): 1, (2, 1): -1})  # x + xz - x^2 z
        assert BiPoly.x() * BiPoly({(0, 0): 1, (0, 1): 1, (1, 1): -1}) == p
        assert p.coefficient(1, 0) == 1
        assert p.coefficient(1, 1) == 1
        assert p.coefficient(2, 1) == -1
        assert p.degree_x == 2
        assert p.degree_z == 1

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

    @given(bipolys(), points, points)
    def test_full_evaluation_matches_staged_evaluation(self, p, x0, z0):
        assert p(x0, z0) == p.substitute_z(z0)(x0)

    def test_items_sorted_lexicographically(self):
        p = BiPoly({(2, 1): 1, (0, 3): 2, (2, 0): 3})
        assert [k for k, _ in p.items()] == [(0, 3), (2, 0), (2, 1)]
