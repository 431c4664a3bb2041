from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from stirbess.exactnum import (
    binomial_int,
    binomial_poly_upper,
    binomial_rat,
    factorial,
    falling_factorial_poly,
    rising_factorial_poly,
    times_linear,
)
from stirbess.polys import UniPoly
from stirbess.triangles import stirling1, stirling2

rationals = st.fractions(max_denominator=40, min_value=-20, max_value=20)


def factorial_oracle(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_factorial_frozen():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(12) == 479001600


def test_factorial_matches_repeated_multiplication():
    for n in range(0, 30):
        assert factorial(n) == factorial_oracle(n)


def test_factorial_negative_raises():
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_int_frozen():
    assert binomial_int(4, 2) == 6
    assert binomial_int(-2, 3) == -4  # (-1)^3 C(4, 3)
    assert binomial_int(3, 5) == 0
    assert binomial_int(7, -1) == 0


def test_binomial_int_factorial_formula():
    for n in range(0, 41):
        for k in range(0, n + 1):
            assert binomial_int(n, k) == factorial(n) // (factorial(k) * factorial(n - k))


@given(st.integers(min_value=-25, max_value=-1), st.integers(min_value=0, max_value=12))
def test_binomial_int_negative_upper_rule(n, k):
    assert binomial_int(n, k) == (-1) ** k * binomial_int(k - n - 1, k)


@given(st.integers(min_value=-15, max_value=15), st.integers(min_value=-3, max_value=15))
def test_binomial_int_pascal_all_integers(n, k):
    assert binomial_int(n, k) == binomial_int(n - 1, k) + binomial_int(n - 1, k - 1)


def test_binomial_rat_frozen():
    assert binomial_rat(Fraction(1, 2), 1) == Fraction(1, 2)
    assert binomial_rat(Fraction(3, 2), 2) == Fraction(3, 8)


def test_binomial_rat_central_binomial_halves():
    # C(n - 1/2, n) = 2^(-2n) C(2n, n)
    for n in range(0, 15):
        lhs = binomial_rat(Fraction(2 * n - 1, 2), n)
        assert lhs == Fraction(binomial_int(2 * n, n), 4**n)


def test_binomial_rat_agrees_with_integers():
    for a in range(-10, 11):
        for k in range(0, 11):
            assert binomial_rat(a, k) == binomial_int(a, k)


def test_binomial_rat_negative_k_raises():
    with pytest.raises(ValueError):
        binomial_rat(Fraction(1, 2), -1)


@given(rationals, st.integers(min_value=1, max_value=8))
def test_binomial_rat_pascal(a, k):
    assert binomial_rat(a, k) == binomial_rat(a - 1, k) + binomial_rat(a - 1, k - 1)


def test_binomial_poly_upper_frozen():
    assert binomial_poly_upper(0, 1) == UniPoly.x()
    assert binomial_poly_upper(1, 2) == UniPoly([0, Fraction(1, 2), Fraction(1, 2)])


def test_binomial_poly_upper_degree_and_leading_coeff():
    for c in range(-5, 6):
        for k in range(0, 9):
            p = binomial_poly_upper(c, k)
            assert p.degree == k
            assert p.coefficient(k) == Fraction(1, factorial(k))


@given(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=0, max_value=8),
    rationals,
)
def test_binomial_poly_upper_evaluates_to_binomial_rat(c, k, z):
    assert binomial_poly_upper(c, k)(z) == binomial_rat(c + z, k)


def test_binomial_poly_upper_eval_grid():
    grid = [Fraction(p, q) for q in (1, 2, 3, 5) for p in (-7, -3, -1, 2, 9)]
    assert len(grid) == 20
    for z in grid:
        assert binomial_poly_upper(3, 4)(z) == binomial_rat(3 + z, 4)
        assert binomial_poly_upper(-2, 5)(z) == binomial_rat(-2 + z, 5)


def test_times_linear_frozen():
    assert times_linear(2, [1, 1]) == [2, 3, 1]  # (x + 2)(1 + x)
    assert times_linear(-3, (0, 1)) == [0, -3, 1]  # a tuple in, a list out
    assert times_linear(0, [5]) == [0, 5]


def test_rising_factorial_frozen():
    assert rising_factorial_poly(0) == UniPoly([1])
    assert rising_factorial_poly(2) == UniPoly([0, 1, 1])
    assert rising_factorial_poly(3) == UniPoly([0, 2, 3, 1])


def test_falling_factorial_frozen():
    assert falling_factorial_poly(0) == UniPoly([1])
    assert falling_factorial_poly(2) == UniPoly([0, -1, 1])
    assert falling_factorial_poly(3) == UniPoly([0, 2, -3, 1])


def test_rising_coefficients_are_first_kind_stirling():
    for n in range(0, 31):
        p = rising_factorial_poly(n)
        for k in range(0, n + 1):
            assert p.coefficient(k) == stirling1(n, k)


def test_powers_expand_in_falling_factorials():
    for n in range(0, 31):
        acc = UniPoly()
        for k in range(0, n + 1):
            acc = acc + stirling2(n, k) * falling_factorial_poly(k)
        assert acc == UniPoly.monomial(n)


def test_negative_inputs_raise():
    with pytest.raises(ValueError):
        rising_factorial_poly(-1)
    with pytest.raises(ValueError):
        falling_factorial_poly(-2)
    with pytest.raises(ValueError):
        binomial_poly_upper(0, -1)
