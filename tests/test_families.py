import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import stirbess
from stirbess.exactnum import binomial_poly_upper, binomial_rat, falling_factorial_poly, rising_factorial_poly
from stirbess.families import (
    bessel_poly,
    chebyshev_t,
    pn_closed_form,
    pn_recurrence,
    pn_skew_bm,
    pn_via_chebyshev,
    pn_z_minus2,
    pn_z_one,
    reverse_bessel_poly,
)
from stirbess.polys import BiPoly, UniPoly

points = st.fractions(max_denominator=6, min_value=-3, max_value=3)


def pn_value_by_numeric_recurrence(n, x, z):
    """Independent oracle: run the defining recurrence pointwise in exact
    rational arithmetic, never touching polynomial objects."""
    x, z = Fraction(x), Fraction(z)
    values = [None, x]
    for top in range(1, n):
        acc = binomial_rat(top + z, top)
        for m in range(1, top + 1):
            acc -= binomial_rat(top - m + z, top - m + 1) * values[m]
        values.append(x * acc)
    return values[n]


class TestPnRecurrence:
    def test_base_case(self):
        assert pn_recurrence(1) == BiPoly.x()

    def test_one_step_by_hand(self):
        # P_2 = x C(1+z, 1) - x C(z, 1) P_1 = x + xz - x^2 z
        assert pn_recurrence(2) == BiPoly({(1, 0): 1, (1, 1): 1, (2, 1): -1})

    def test_slice_at_minus_two(self):
        assert pn_recurrence(2).substitute_z(-2) == UniPoly([0, -1, 2])

    def test_degrees(self):
        for n in range(1, 13):
            p = pn_recurrence(n)
            assert p.degree("x") == n
            assert p.degree("z") == n - 1

    def test_nonpositive_index_raises(self):
        with pytest.raises(ValueError):
            pn_recurrence(0)
        with pytest.raises(ValueError):
            pn_closed_form(-1)

    @given(st.integers(min_value=1, max_value=8), points, points)
    def test_evaluation_matches_numeric_recurrence(self, n, x, z):
        assert pn_recurrence(n)(x, z) == pn_value_by_numeric_recurrence(n, x, z)

    @pytest.mark.parametrize("n", [20, 40])
    @pytest.mark.parametrize("x, z", [(Fraction(2, 7), Fraction(-3, 5)), (Fraction(-5, 3), Fraction(9, 4))])
    def test_large_n_matches_numeric_recurrence(self, n, x, z):
        assert pn_recurrence(n)(x, z) == pn_value_by_numeric_recurrence(n, x, z)

    def test_cold_cache_filled_out_of_order(self):
        # the tests above leave the P_n cache warm, so start from a fresh interpreter;
        # each P_n is built once, when first asked for, from the integer rows kept
        # for the largest n asked so far (P_1 is kept from the start)
        code = (
            "from stirbess import families\n"
            "from stirbess.families import pn_closed_form, pn_recurrence\n"
            "built = []\n"
            "class Counted(families.BiPoly):\n"
            "    def __init__(self, *args, **kwargs):\n"
            "        built.append(1)\n"
            "        super().__init__(*args, **kwargs)\n"
            "families.BiPoly = Counted\n"
            "for n, new in ((40, 1), (12, 1), (12, 0), (5, 1), (20, 1), (41, 1), (21, 1), (1, 0), (40, 0)):\n"
            "    before = len(built)\n"
            "    p = pn_recurrence(n)\n"
            "    assert len(built) - before == new, (n, len(built) - before)\n"
            "    assert p is pn_recurrence(n) and p == pn_closed_form(n), n\n"
            "assert type(pn_recurrence(1).coefficient(1, 0)) is int\n"
        )
        path = [str(Path(stirbess.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("family", [pn_skew_bm, pn_z_minus2, pn_z_one, pn_via_chebyshev])
def test_slice_closed_forms_refuse_n_zero(family):
    with pytest.raises(ValueError, match="n must be positive"):
        family(0)


class TestPnClosedForm:
    def test_base_case(self):
        assert pn_closed_form(1) == BiPoly.x()

    def test_expanded_by_hand(self):
        assert pn_closed_form(2) == BiPoly({(1, 0): 1, (1, 1): 1, (2, 1): -1})

    def test_single_term_frozen(self):
        # x^2 z^2 term of P_3: (-1) 1!/2! * s1(3,3) s2(3,2) = -3/2
        assert pn_closed_form(3).coefficient(2, 2) == Fraction(-3, 2)

    def test_agrees_with_recurrence(self):
        for n in range(1, 13):
            assert pn_closed_form(n) == pn_recurrence(n)

    def test_x_z_top_coefficient(self):
        # the CLI refuses an unprintable poly pn/pn-closed --n from this denominator
        for n in range(1, 41):
            expected = Fraction(1, math.factorial(n - 1))
            assert pn_closed_form(n).coefficient(1, n - 1) == expected, n
            assert pn_recurrence(n).coefficient(1, n - 1) == expected, n


class TestSkewSlice:
    def test_frozen(self):
        assert pn_skew_bm(1) == UniPoly.x()
        assert pn_skew_bm(2) == UniPoly([0, Fraction(1, 2), Fraction(1, 2)])

    def test_total_mass_is_one(self):
        for n in range(1, 26):
            assert pn_skew_bm(n)(1) == 1

    def test_coefficients_positive(self):
        for n in range(1, 26):
            p = pn_skew_bm(n)
            assert all(c > 0 for c in p.coeffs[1:])
            assert p.coefficient(0) == 0

    def test_matches_recurrence_slice(self):
        for n in range(1, 13):
            assert pn_recurrence(n).substitute_z(Fraction(-1, 2)) == pn_skew_bm(n)

    def test_arcsine_values_at_one_half(self):
        values = [pn_skew_bm(n)(Fraction(1, 2)) for n in range(1, 5)]
        assert values == [Fraction(1, 2), Fraction(3, 8), Fraction(5, 16), Fraction(35, 128)]


class TestMinusTwoSlice:
    def test_frozen(self):
        assert pn_z_minus2(1) == UniPoly.x()
        assert pn_z_minus2(2) == UniPoly([0, -1, 2])
        assert pn_z_minus2(3) == UniPoly([0, 0, -3, 4])

    def test_matches_recurrence_slice(self):
        for n in range(1, 13):
            assert pn_recurrence(n).substitute_z(-2) == pn_z_minus2(n)

    def test_three_term_tail_recurrence(self):
        # P_{n+1} = x (2 P_n - P_{n-1}) at z = -2, on the recurrence-built slices
        slices = {n: pn_recurrence(n).substitute_z(-2) for n in range(1, 22)}
        for n in range(2, 21):
            assert slices[n + 1] == (2 * slices[n] - slices[n - 1]).shifted(1)


class TestPlusOneAndTrivialSlices:
    def test_frozen(self):
        assert pn_z_one(1) == UniPoly.x()
        assert pn_z_one(2) == UniPoly([0, 2, -1])
        assert pn_z_one(3) == UniPoly([0, 3, -3, 1])

    def test_binomial_form(self):
        one_minus_x = UniPoly([1, -1])
        for n in range(1, 16):
            assert pn_z_one(n) == UniPoly([1]) - math.prod([one_minus_x] * n, start=UniPoly([1]))

    def test_slices(self):
        for n in range(1, 13):
            p = pn_recurrence(n)
            assert p.substitute_z(0) == UniPoly.x()
            assert p.substitute_z(-1) == UniPoly.monomial(n)
            assert p.substitute_z(1) == pn_z_one(n)


class TestBesselPolynomials:
    def test_frozen_list(self):
        assert bessel_poly(0) == UniPoly([1])
        assert bessel_poly(1) == UniPoly([1, 1])
        assert bessel_poly(2) == UniPoly([1, 3, 3])
        assert bessel_poly(3) == UniPoly([1, 6, 15, 15])
        assert bessel_poly(4) == UniPoly([1, 10, 45, 105, 105])

    def test_reverse_frozen(self):
        assert reverse_bessel_poly(2) == UniPoly([3, 3, 1])

    def test_reverse_is_coefficient_reversal(self):
        # theta_n(x) = x^n y_n(1/x)
        for n in range(0, 21):
            y = bessel_poly(n)
            theta = reverse_bessel_poly(n)
            assert theta.coeffs == tuple(reversed(y.coeffs))

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            bessel_poly(-1)


class TestChebyshev:
    def test_frozen(self):
        assert chebyshev_t(2) == UniPoly([-1, 0, 2])
        assert chebyshev_t(3) == UniPoly([0, -3, 0, 4])

    def test_value_at_one(self):
        for n in range(0, 31):
            assert chebyshev_t(n)(1) == 1

    def test_parity(self):
        for n in range(0, 21):
            t = chebyshev_t(n)
            for m, c in enumerate(t.coeffs):
                if (n - m) % 2:
                    assert c == 0


class TestChebyshevConstruction:
    def test_frozen(self):
        assert pn_via_chebyshev(1) == UniPoly.x()
        assert pn_via_chebyshev(2) == UniPoly([0, -1, 2])
        assert pn_via_chebyshev(4) == UniPoly([0, 0, 1, -8, 8])

    def test_matches_minus_two_slice(self):
        for n in range(1, 21):
            assert pn_via_chebyshev(n) == pn_z_minus2(n)


# Coefficients keep the exact type their arithmetic gives: int for an
# integral family, Fraction only where a division happened, never float.
INTEGRAL_FAMILIES = {
    "bessel_poly": lambda: bessel_poly(40),
    "reverse_bessel_poly": lambda: reverse_bessel_poly(40),
    "chebyshev_t": lambda: chebyshev_t(60),
    "rising_factorial_poly": lambda: rising_factorial_poly(30),
    "falling_factorial_poly": lambda: falling_factorial_poly(30),
    "pn_z_one": lambda: pn_z_one(30),
    "pn_via_chebyshev": lambda: pn_via_chebyshev(30),
}
DIVIDED_FAMILIES = {
    "pn_skew_bm": lambda: pn_skew_bm(12),
    "binomial_poly_upper": lambda: binomial_poly_upper(3, 7),
}


class TestCoefficientTypes:
    @pytest.mark.parametrize("family", sorted(INTEGRAL_FAMILIES))
    def test_integral_families_hold_ints(self, family):
        p = INTEGRAL_FAMILIES[family]()
        assert p.degree >= 30
        assert all(type(c) is int for c in p.coeffs)

    @pytest.mark.parametrize("family", sorted(DIVIDED_FAMILIES))
    def test_divided_families_hold_fractions(self, family):
        coeffs = DIVIDED_FAMILIES[family]().coeffs
        assert all(type(c) in (int, Fraction) for c in coeffs)
        assert any(type(c) is Fraction and c.denominator != 1 for c in coeffs)

    @pytest.mark.parametrize("family", sorted(INTEGRAL_FAMILIES.keys() | DIVIDED_FAMILIES.keys()))
    def test_evaluation_at_a_fraction_stays_exact(self, family):
        p = {**INTEGRAL_FAMILIES, **DIVIDED_FAMILIES}[family]()
        value = p(Fraction(-3, 7))
        assert type(value) in (int, Fraction)
        assert value == sum(c * Fraction(-3, 7) ** k for k, c in enumerate(p.coeffs))
