import gc
import itertools
import pickle
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from stirbess.exactnum import factorial
from stirbess.families import bessel_poly
from stirbess.triangles import (
    RECURRENCES,
    RecurrenceTriangle,
    Triangles,
    bessel_B,
    bessel_b,
    gs,
    lah,
    stirling1,
    stirling1_signed,
    stirling2,
)


# ---------------------------------------------------------------------------
# enumeration oracles

def count_cycles(perm):
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def stirling1_by_enumeration(n, k):
    return sum(1 for p in itertools.permutations(range(n)) if count_cycles(p) == k)


def partitions_into_blocks(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in partitions_into_blocks(rest):
        for i in range(len(blocks)):
            yield blocks[:i] + [blocks[i] + [first]] + blocks[i + 1 :]
        yield blocks + [[first]]


def stirling2_by_enumeration(n, k):
    return sum(1 for blocks in partitions_into_blocks(list(range(n))) if len(blocks) == k)


class TestStirling:
    def test_first_kind_frozen(self):
        assert stirling1(0, 0) == 1
        assert stirling1(3, 1) == 2
        assert stirling1(4, 2) == 11

    def test_second_kind_frozen(self):
        assert stirling2(0, 0) == 1
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7

    def test_first_kind_counts_permutation_cycles(self):
        for n in range(0, 8):
            for k in range(0, n + 1):
                assert stirling1(n, k) == stirling1_by_enumeration(n, k)

    def test_second_kind_counts_set_partitions(self):
        for n in range(0, 8):
            for k in range(0, n + 1):
                assert stirling2(n, k) == stirling2_by_enumeration(n, k)

    def test_row_sums_count_all_permutations(self):
        for n in range(0, 21):
            assert sum(stirling1(n, k) for k in range(n + 1)) == factorial(n)

    def test_boundaries(self):
        for n in range(1, 10):
            assert stirling1(n, 0) == 0
            assert stirling2(n, 0) == 0
            assert stirling1(n, n + 3) == 0
            assert stirling1(n, -1) == 0

    def test_signed(self):
        assert stirling1_signed(3, 1) == 2
        assert stirling1_signed(3, 2) == -3
        for n in range(0, 31):
            assert stirling1_signed(n, n) == 1

    def test_negative_row_raises(self):
        with pytest.raises(ValueError):
            stirling1(-1, 0)
        with pytest.raises(ValueError):
            stirling2(-3, 2)

    def test_requery_is_deterministic(self):
        t = Triangles()
        first = t.stirling1(25, 11)
        assert t.stirling1(25, 11) == first
        assert t.stirling1(25, 11) == stirling1(25, 11)


class TestBessel:
    def test_b_frozen(self):
        assert bessel_b(2, 1) == -1
        assert bessel_b(3, 1) == 3
        assert bessel_b(3, 2) == -3
        assert bessel_b(4, 1) == -15
        for n in range(1, 31):
            assert bessel_b(n, n) == 1

    def test_b_matches_bessel_polynomial_coefficients(self):
        # b(n, k) is the coefficient of x^(n-k) in y_{n-1}(-x)
        for n in range(1, 26):
            y = bessel_poly(n - 1)
            for k in range(1, n + 1):
                c = y.coefficient(n - k)
                expected = -c if (n - k) % 2 else c
                assert bessel_b(n, k) == expected

    def test_B_frozen(self):
        assert bessel_B(2, 1) == 1
        assert bessel_B(4, 3) == 6
        assert bessel_B(4, 1) == 0  # below the band ceil(n/2) <= k
        for n in range(1, 31):
            assert bessel_B(n, n) == 1

    def test_band_zero_extension(self):
        assert bessel_b(5, 0) == 0
        assert bessel_b(5, 6) == 0
        assert bessel_B(6, 2) == 0
        assert bessel_b(0, 0) == 1
        assert bessel_B(0, 0) == 1

    def test_cross_relation(self):
        for n in range(1, 41):
            for k in range(0, n + 1):
                lhs = -bessel_B(n, k) if (n - k) % 2 else bessel_B(n, k)
                assert lhs == bessel_b(k + 1, 2 * k - n + 1)

    def test_duality_small(self):
        for n in range(1, 16):
            for m in range(1, n + 1):
                delta = 1 if m == n else 0
                assert sum(bessel_B(n, k) * bessel_b(k, m) for k in range(m, n + 1)) == delta
                assert sum(bessel_b(n, k) * bessel_B(k, m) for k in range(m, n + 1)) == delta

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            bessel_b(-1, 0)
        with pytest.raises(ValueError):
            bessel_B(-2, 1)


class TestLah:
    def test_frozen(self):
        assert lah(3, 1) == 6
        assert lah(3, 2) == 6
        assert lah(4, 2) == 36
        for n in range(1, 20):
            assert lah(n, n) == 1
        assert lah(4, 0) == 0
        assert lah(0, 0) == 1

    def test_closed_form(self):
        for n in range(1, 16):
            for k in range(1, n + 1):
                expected = factorial(n - 1) // factorial(k - 1) * (
                    factorial(n) // (factorial(k) * factorial(n - k))
                )
                assert lah(n, k) == expected


class TestRows:
    """``Triangles.rows`` builds Lah and both Bessel kinds by their row
    recurrences; the closed forms are the independent reference."""

    @pytest.mark.parametrize(
        "family, entry",
        [("lah", lah), ("bessel-b", bessel_b), ("bessel-B", bessel_B), ("stirling1-signed", stirling1_signed)],
        ids=["lah", "bessel-b", "bessel-B", "stirling1-signed"],
    )
    def test_rows_equal_entries(self, family, entry):
        rows = Triangles().rows(family, 80)
        assert len(rows) == 81
        for n, row in enumerate(rows):
            assert list(row) == [entry(n, k) for k in range(n + 1)], n


    def test_rows_are_the_sealed_rows(self):
        t = Triangles()
        rows = t.rows("lah", 12)
        assert t.rows("lah", 5) is rows and len(rows) == 13

    def test_signed_rows_are_signed_unsigned_rows(self):
        t = Triangles()
        signed, unsigned = t.rows("stirling1-signed", 200), t.rows("stirling1", 200)
        assert len(signed) == len(unsigned) == 201
        for n, (srow, urow) in enumerate(zip(signed, unsigned)):
            assert list(srow) == [(-1) ** (n - k) * v for k, v in enumerate(urow)], n


class TestTable:
    """``Triangles.table(a, b)`` owns one table per recurrence; family names
    and GS pairs look it up."""

    def test_one_table_per_recurrence(self):
        t = Triangles()
        assert t.table(1, 0) is t.table(Fraction(1), Fraction(0))
        for family, (a, b) in RECURRENCES.items():
            table = t.table(a, b)
            assert t.gs_triangle(Fraction(a, a + b), a + b) is table, family
            assert t.rows(family, 5) is table.rows(5), family

    def test_only_table_builds(self, monkeypatch):
        built = []
        init = RecurrenceTriangle.__init__

        def counting_init(self, a, b):
            built.append((a, b))
            init(self, a, b)

        monkeypatch.setattr(RecurrenceTriangle, "__init__", counting_init)
        t = Triangles()
        for family in RECURRENCES:
            t.rows(family, 3)
        t.stirling1(3, 1), t.stirling2(3, 1), t.stirling1_signed(3, 1)
        t.gs(1, 1, 3, 1), t.gs(Fraction(1, 2), 2, 3, 1), t.gs_rows(0, 1, 3), t.gs(Fraction(1, 2), -3, 3, 1)
        assert built == [*RECURRENCES.values(), (Fraction(-3, 2), Fraction(-3, 2))]


class TestMemo:
    """``Triangles.memo`` keys an entry by the ids of its key's items, the
    caller first."""

    def test_derive_runs_once_per_key_object(self):
        t, s, calls = Triangles(), Fraction(1, 2), []

        def derive(tables):
            calls.append(tables)
            return tables.gs_triangle(s, 3)

        table = t.memo((derive, s), derive)
        assert t.memo((derive, s), derive) is table is t.gs_triangle(s, 3)
        assert calls == [t]

    def test_equal_but_distinct_key_derives_equal_tables(self):
        t, s = Triangles(), Fraction(1, 2)
        copy = pickle.loads(pickle.dumps(s))
        assert copy == s and copy is not s
        calls = []

        def derive(tables, s):
            calls.append(s)
            return tables.gs_triangle(s, 3)

        table = t.memo((derive, s), lambda tables: derive(tables, s))
        assert t.memo((derive, copy), lambda tables: derive(tables, copy)) is table
        assert calls == [s, copy] and calls[1] is copy

    def test_no_entry_shared_between_table_sets(self):
        s = Fraction(1, 2)
        derive = lambda tables: tables.gs_triangle(s, 3)
        one, two = Triangles(), Triangles()
        assert one.memo((derive, s), derive) is one.gs_triangle(s, 3)
        assert two.memo((derive, s), derive) is two.gs_triangle(s, 3)
        assert one.gs_triangle(s, 3) is not two.gs_triangle(s, 3)

    @pytest.mark.parametrize("axis", [Fraction(1, 2), "stirling2"])
    def test_callers_sharing_an_axis_object_get_their_own_entries(self, axis):
        t = Triangles()
        first, second = (lambda tables: "first"), (lambda tables: "second")
        assert t.memo((first, axis), first) == "first"
        assert t.memo((second, axis), second) == "second"
        assert t.memo((first, axis), second) == "first"

    def test_entry_keeps_its_key_alive(self):
        # else another object could take a key item's id and find its entry
        class Axis:
            pass

        t, axis = Triangles(), Axis()
        ref = weakref.ref(axis)
        t.memo((Axis, axis), lambda tables: None)
        del axis
        gc.collect()
        assert ref() is not None


class TestGeneralizedStirling:
    def test_specializes_to_stirling_first_kind(self):
        for n in range(0, 26):
            for k in range(0, n + 1):
                assert gs(1, 1, n, k) == stirling1(n, k)

    def test_specializes_to_stirling_second_kind(self):
        for n in range(0, 26):
            for k in range(0, n + 1):
                assert gs(0, 1, n, k) == stirling2(n, k)

    def test_specializes_to_bessel_first_kind(self):
        for n in range(0, 26):
            for k in range(0, n + 1):
                assert gs(2, -1, n, k) == bessel_b(n, k)

    def test_specializes_to_bessel_second_kind(self):
        for n in range(0, 26):
            for k in range(0, n + 1):
                assert gs(-1, 1, n, k) == bessel_B(n, k)

    @pytest.mark.parametrize(
        "s, h",
        [(Fraction(1, 3), Fraction(-2, 7)), (Fraction(5, 2), Fraction(3)),
         (Fraction(-1, 2), Fraction(1, 2)), (Fraction(3, 5), Fraction(5, 2))],
    )
    def test_rows_equal_fraction_recurrence(self, s, h):
        # GS(n+1, k) = GS(n, k-1) + h*(k + s*(n - k)) GS(n, k), in Fractions
        expected = [[Fraction(1)]]
        for n in range(30):
            prev = expected[-1] + [Fraction(0)]
            expected.append([(prev[k - 1] if k else 0) + h * (k + s * (n - k)) * prev[k] for k in range(n + 2)])
        rows = Triangles().gs_rows(s, h, 30)
        for n in range(31):
            assert list(rows[n]) == expected[n], n
            assert all(type(v) is Fraction for v in rows[n]), n

    def test_values_are_exact_rationals(self):
        v = gs(Fraction(1, 3), Fraction(-2, 7), 6, 2)
        assert isinstance(v, Fraction)

    def test_h_zero_rejected(self):
        with pytest.raises(ValueError):
            gs(1, 0, 3, 1)

    @given(
        st.fractions(max_denominator=6, min_value=-4, max_value=4).filter(lambda a: a != 0),
        st.fractions(max_denominator=6, min_value=-4, max_value=4),
        st.integers(min_value=0, max_value=10),
    )
    def test_scaling_law(self, a, s, n):
        for k in range(0, n + 1):
            assert gs(s, a, n, k) == a ** (n - k) * gs(s, 1, n, k)

    def test_scaling_law_grid(self):
        factors = (Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(3))
        s_values = (Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1))
        for a in factors:
            for s in s_values:
                for n in range(0, 16):
                    for k in range(0, n + 1):
                        assert gs(s, a, n, k) == a ** (n - k) * gs(s, 1, n, k)
