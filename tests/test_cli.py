import concurrent.futures
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import stirbess
from stirbess import cli, families, identities, triangles
from stirbess.cli import main
from stirbess.identities import Identity
from stirbess.polys import BiPoly


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def always_fails(monkeypatch):
    """Register an identity whose only case fails."""
    broken = Identity(
        ident="always-fails",
        summary="stub",
        describe_range=lambda n: "1 case",
        cases=lambda n: iter([(1, Fraction(-1, 2))]),
        evaluate=lambda params, tables: (0, 1),
    )
    monkeypatch.setitem(identities.REGISTRY, "always-fails", broken)
    monkeypatch.setattr(identities, "IDENTITY_IDS", identities.IDENTITY_IDS + ("always-fails",))


class TestTriangle:
    def test_stirling2_rows(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "stirling2", "--n", "4")
        assert code == 0
        assert out.splitlines()[-1] == "0 1 7 6 1"

    def test_gs_reproduces_bessel_b(self, capsys):
        code_gs, out_gs, _ = run_cli(capsys, "triangle", "gs", "--s", "2", "--h", "-1", "--n", "6")
        code_b, out_b, _ = run_cli(capsys, "triangle", "bessel-b", "--n", "6")
        assert code_gs == code_b == 0
        assert out_gs == out_b

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    @pytest.mark.parametrize("family", triangles.RECURRENCES)
    def test_family_prints_as_its_gs_pair(self, capsys, family, fmt):
        # GS_{a/(a+b);a+b} has the recurrence (a, b), so both read one table
        a, b = triangles.RECURRENCES[family]
        s, h = Fraction(a, a + b), a + b
        code, out, _ = run_cli(capsys, "triangle", family, "--n", "40", "--format", fmt)
        code_gs, out_gs, _ = run_cli(
            capsys, "triangle", "gs", "--s", str(s), "--h", str(h), "--n", "40", "--format", fmt
        )
        assert code == code_gs == 0 and out_gs == out

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(capsys, "triangle", "bogus")
        assert code == 2
        assert "invalid choice" in err

    def test_gs_requires_parameters(self, capsys):
        code, _, err = run_cli(capsys, "triangle", "gs", "--n", "3")
        assert code == 2 and "--s" in err

    def test_gs_h_zero(self, capsys):
        code, _, err = run_cli(capsys, "triangle", "gs", "--s", "1", "--h", "0", "--n", "3")
        assert code == 2 and "nonzero" in err

    def test_parameters_only_for_gs(self, capsys):
        code, _, _ = run_cli(capsys, "triangle", "lah", "--s", "1", "--n", "3")
        assert code == 2

    def test_malformed_rational(self, capsys):
        code, _, err = run_cli(capsys, "triangle", "gs", "--s", "1.5", "--h", "1", "--n", "3")
        assert code == 2 and "rational" in err

    def test_negative_n_refused(self, capsys):
        code, out, err = run_cli(capsys, "triangle", "stirling1", "--n", "-1")
        assert code == 2 and out == "" and "--n must be nonnegative" in err

    @pytest.mark.parametrize("argv", [
        ("poly", "pn", "--n", "3", "--z", "1/0"),
        ("triangle", "gs", "--s", "1/0", "--h", "1"),
    ])
    def test_zero_denominator_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "rational with zero denominator" in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "stirling1", "--n", "5", "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2) + "\n" == out
        assert parsed["rows"][4] == [0, 6, 11, 6, 1]

    def test_prints_rows_up_to_n_only(self, capsys, monkeypatch):
        monkeypatch.setattr(triangles, "DEFAULT", triangles.Triangles())
        triangles.DEFAULT.rows("stirling1", 20)
        code, out, _ = run_cli(capsys, "triangle", "stirling1", "--n", "5")
        assert code == 0
        assert out.splitlines() == ["1", "0 1", "0 1 1", "0 2 3 1", "0 6 11 6 1", "0 24 50 35 10 1"]

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "bessel-B", "--n", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,value"
        assert "4,3,6" in lines

    @pytest.mark.parametrize(
        "family, params",
        [(family, ()) for family in cli.TRIANGLE_FAMILIES if family != "gs"]
        + [("gs", ("--s", "1/2", "--h", "-3")), ("gs", ("--s", "-1", "--h", "1/3"))],
    )
    def test_row_writer_matches_csv_writer(self, capsys, family, params):
        """Each format's row writer against its oracle: csv against
        ``csv.writer`` over (n, k, value), table against the row's entries."""
        t = triangles.Triangles()
        rows = t.gs_rows(Fraction(params[1]), Fraction(params[3]), 30) if params else t.rows(family, 30)[:31]
        expected = io.StringIO()
        csv.writer(expected).writerows([("n", "k", "value"), *(
            (n, k, v) for n, row in enumerate(rows) for k, v in enumerate(row)
        )])
        code, out, _ = run_cli(capsys, "triangle", family, *params, "--n", "30", "--format", "csv")
        assert code == 0 and out == expected.getvalue()
        code, out, _ = run_cli(capsys, "triangle", family, *params, "--n", "30", "--format", "table")
        assert code == 0 and out.splitlines() == [" ".join(map(str, row)) for row in rows]


class TestPoly:
    def test_bessel_y(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "bessel-y", "--n", "3")
        assert code == 0 and out.strip() == "15x^3 + 15x^2 + 6x + 1"

    def test_pn_slice(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "pn", "--n", "2", "--z", "-2")
        assert code == 0 and out.strip() == "2x^2 - x"

    def test_pn_bivariate_map(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "pn", "--n", "1")
        assert code == 0 and out.strip() == "x^1 z^0: 1"

    def test_pn_closed_equals_pn(self, capsys):
        # the recurrence and the closed form print the same bytes, json apart from "which";
        # n = 1 covers the int coefficient of P_1 on both paths
        for n in ("1", "2", "7", "40"):
            for z in ((), ("--z", "-1/2"), ("--z", "3"), ("--z", "-1/3")):
                for fmt in ("table", "csv", "json"):
                    argv = ("--n", n, *z, "--format", fmt)
                    code_a, out_a, _ = run_cli(capsys, "poly", "pn", *argv)
                    code_b, out_b, _ = run_cli(capsys, "poly", "pn-closed", *argv)
                    assert code_a == code_b == 0, argv
                    if fmt == "json":
                        assert json.loads(out_a)["which"] == "pn", argv
                        out_a = out_a.replace('"which": "pn"', '"which": "pn-closed"', 1)
                    assert out_a == out_b, argv

    def test_z_rejected_for_non_pn(self, capsys):
        code, _, err = run_cli(capsys, "poly", "chebyshev", "--n", "2", "--z", "1")
        assert code == 2 and "pn" in err

    def test_pn_requires_positive_n(self, capsys):
        code, _, _ = run_cli(capsys, "poly", "pn", "--n", "0")
        assert code == 2

    def test_negative_n(self, capsys):
        code, out, err = run_cli(capsys, "poly", "bessel-y", "--n", "-1")
        assert code == 2 and out == "" and "--n must be nonnegative" in err

    def test_json_slice(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "pn", "--n", "2", "--z", "-1/2", "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["coefficients"] == ["0", "1/2", "1/2"]
        assert parsed["z"] == "-1/2"

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "chebyshev", "--n", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "power,coefficient"

    def test_pn_recurrence_cap(self, capsys, monkeypatch):
        def not_run(n):
            raise AssertionError(f"ran the recurrence to n = {n}")

        monkeypatch.setattr(families, "pn_recurrence", not_run)
        code, out, err = run_cli(capsys, "poly", "pn", "--n", str(cli.MAX_PN_RECURRENCE_N + 1))
        assert cli.MAX_PN_RECURRENCE_N == 200
        assert code == 2 and out == ""
        assert err.startswith("stirbess: error: ") and "pn-closed" in err
        monkeypatch.setattr(families, "pn_recurrence", lambda n: BiPoly.x())
        code, out, _ = run_cli(capsys, "poly", "pn", "--n", "200", "--format", "csv")
        assert code == 0 and out.splitlines() == ["x_power,z_power,coefficient", "1,0,1"]

    @pytest.mark.parametrize("which", list(cli._POLY))
    def test_pn_closed_cap(self, capsys, monkeypatch, which):
        def not_built(n):
            raise AssertionError(f"built {which} to n = {n}")

        builder, _, cap = cli._POLY[which]
        monkeypatch.setattr(families, builder, not_built)
        # limit 0: nothing but the cap bounds --n
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        code, out, err = run_cli(capsys, "poly", which, "--n", str(cap + 1))
        assert code == 2 and out == ""
        assert err.startswith("stirbess: error: ") and f"at most {cap}" in err
        with pytest.raises(AssertionError, match=f"built {which} to n = {cap}"):
            run_cli(capsys, "poly", which, "--n", str(cap))


class TestVerify:
    def test_single_identity(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "thm1", "--n-max", "15", "--jobs", "1")
        assert code == 0 and "PASS" in out

    def test_unknown_identity(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nosuch", "--jobs", "1")
        assert code == 2 and "unknown identity id" in err

    def test_no_selection(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2 and "no identities selected" in err

    def test_all_plus_ids_conflict(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "thm1", "--all")
        assert code == 2

    def test_json_deterministic_and_worker_independent(self, capsys):
        args = ("verify", "--all", "--n-max", "6", "--format", "json")
        code1, out1, _ = run_cli(capsys, *args, "--jobs", "1")
        code2, out2, _ = run_cli(capsys, *args, "--jobs", "1")
        code3, out3, _ = run_cli(capsys, *args, "--jobs", "3")
        assert code1 == code2 == code3 == 0
        assert out1 == out2 == out3

    def test_json_timings_flag(self, capsys):
        _, out_plain, _ = run_cli(capsys, "verify", "thm1", "--n-max", "5", "--format", "json", "--jobs", "1")
        _, out_timed, _ = run_cli(
            capsys, "verify", "thm1", "--n-max", "5", "--format", "json", "--timings", "--jobs", "1"
        )
        assert "elapsed_ms" not in out_plain
        assert "elapsed_ms" in out_timed

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "thm1", "lah", "--n-max", "6", "--format", "csv", "--jobs", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "id,range,status,params,lhs,rhs"
        assert len(lines) == 3

    def test_failure_exit_code(self, capsys, always_fails):
        code, out, _ = run_cli(capsys, "verify", "always-fails", "--jobs", "1")
        assert code == 1
        assert "FAIL" in out and "counterexample" in out

    def test_n_max_cap(self, capsys, monkeypatch):
        def not_run(n_max, selection, jobs):
            raise AssertionError(f"ran the suite to n = {n_max}")

        monkeypatch.setattr(identities, "run_suite", not_run)
        assert cli.MAX_VERIFY_N == 120
        for n_max in (cli.MAX_VERIFY_N + 1, 10**9):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "verify", "--all", "--n-max", str(n_max))
            assert time.perf_counter() - start < 2
            assert code == 2 and out == ""
            assert err.startswith("stirbess: error: ") and str(cli.MAX_VERIFY_N) in err
        reached = []
        monkeypatch.setattr(identities, "run_suite", lambda n_max, selection, jobs: reached.append(n_max) or [])
        code, out, _ = run_cli(capsys, "verify", "--all", "--n-max", str(cli.MAX_VERIFY_N), "--format", "json")
        assert code == 0 and json.loads(out) == [] and reached == [cli.MAX_VERIFY_N]

    def test_n_max_checked_before_the_pool(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("started a pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        code, out, err = run_cli(capsys, "verify", "--all", "--n-max", "0", "--jobs", "2")
        assert code == 2 and out == "" and "--n-max" in err


class TestSimulate:
    def test_alpha_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--alpha", "1.5")
        assert code == 2 and "alpha" in err

    @pytest.fixture
    def no_walk(self, monkeypatch):
        """A refused run must fail at once, not walk."""
        from stirbess import occupation

        def not_run(*args):
            raise AssertionError("walked only to refuse the run")

        monkeypatch.setattr(occupation, "_walk_counts", not_run)

    def test_steps_above_float_exact_range(self, capsys, no_walk):
        code, out, err = run_cli(capsys, "simulate", "--alpha", "0.5", "--steps", str(2**53 + 1), "--paths", "10")
        assert code == 2 and out == "" and "steps" in err

    @pytest.mark.parametrize(
        "steps, paths, message",
        [(2**53, 2, "about a minute"), (10**4, 3 * 10**7, "about a minute"), (1, 2**25 + 1, "paths")],
    )
    def test_kernel_cost_refused(self, capsys, no_walk, steps, paths, message):
        code, out, err = run_cli(
            capsys, "simulate", "--alpha", "0.5", "--steps", str(steps), "--paths", str(paths),
            "--moments", "1", "--jobs", "1",
        )
        assert code == 2 and out == "" and message in err

    def test_huge_moments_refused_at_once(self, capsys, monkeypatch):
        from stirbess import occupation

        def not_run(*args):
            raise AssertionError("walked or built a reference only to refuse the run")

        monkeypatch.setattr(occupation, "_walk_counts", not_run)
        monkeypatch.setattr(occupation, "pn_skew_bm", not_run)
        start = time.perf_counter()
        for moments in ("101", "100000"):
            code, out, err = run_cli(
                capsys, "simulate", "--alpha", "0.3", "--steps", "10", "--paths", "10", "--moments", moments,
                "--jobs", "1",
            )
            assert code == 2 and out == "" and "max_moment" in err
        assert time.perf_counter() - start < 2.0

    def test_t_out_of_range(self, capsys, no_walk):
        for t in ("0", "3/2"):
            code, out, err = run_cli(
                capsys, "simulate", "--alpha", "0.5", "--t", t, "--steps", "10", "--paths", "10", "--jobs", "1",
            )
            assert code == 2 and out == "" and "(0, 1]" in err, t

    def test_t_below_one_interval_refused(self, capsys, no_walk):
        # floor(t * steps) = 0 would compare a mean of 0 with the exact t/2 and report no z
        code, out, err = run_cli(
            capsys, "simulate", "--alpha", "0.5", "--steps", "10", "--paths", "1000", "--t", "1/20", "--jobs", "1",
        )
        assert code == 2 and out == "" and "covers no interval" in err

    def test_json_deterministic(self, capsys):
        args = (
            "simulate", "--alpha", "0.5", "--steps", "200", "--paths", "1000",
            "--moments", "3", "--seed", "42", "--format", "json",
        )
        code1, out1, _ = run_cli(capsys, *args, "--jobs", "1")
        code2, out2, _ = run_cli(capsys, *args, "--jobs", "1")
        code3, out3, _ = run_cli(capsys, *args, "--jobs", "2")
        assert code1 == code2 == code3 == 0
        assert out1 == out2 == out3
        parsed = json.loads(out1)
        assert parsed["config"]["seed"] == 42

    def test_self_similarity_section(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--alpha", "0.5", "--steps", "100", "--paths", "500",
            "--moments", "2", "--seed", "1", "--t", "1/2", "--format", "json", "--jobs", "1",
        )
        assert code == 0
        parsed = json.loads(out)
        assert set(parsed) == {"moments", "self_similarity"}
        assert parsed["self_similarity"]["time_fraction"] == "1/2"

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--alpha", "0.4", "--steps", "100", "--paths", "200",
            "--moments", "2", "--seed", "3", "--format", "csv", "--jobs", "1",
        )
        assert code == 0
        assert out.splitlines()[0] == "n,empirical_mean,stderr,exact,z_score"

    def test_table_output_and_exit(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--alpha", "0.5", "--steps", "400", "--paths", "2000",
            "--moments", "2", "--seed", "8", "--jobs", "1",
        )
        assert code == 0
        assert "exact" in out and "1/2" in out


class TestValuesTooLargeToPrint:
    """Python refuses str() on an int longer than sys.get_int_max_str_digits();
    such output exits 2 before a byte of it is written."""

    @staticmethod
    def run_at_lowest_limit(capsys, *args):
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            return run_cli(capsys, *args)
        finally:
            sys.set_int_max_str_digits(old_limit)

    @staticmethod
    def assert_refused(code, out, err):
        assert code == 2 and out == ""
        assert err.startswith("stirbess: error: ") and "Traceback" not in err
        assert "PYTHONINTMAXSTRDIGITS" in err

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_triangle(self, capsys, fmt):
        args = ("triangle", "gs", "--s", "0", "--h", "1" + "0" * 200, "--n", "25", "--format", fmt)
        self.assert_refused(*run_cli(capsys, *args))

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_poly(self, capsys, fmt):
        # --n 1500 passes the default limit; at the lowest limit --n 300 does, much sooner
        self.assert_refused(*self.run_at_lowest_limit(capsys, "poly", "bessel-y", "--n", "300", "--format", fmt))

    @pytest.mark.parametrize("which", ["bessel-y", "bessel-theta"])
    def test_bessel_refused_before_it_is_built(self, capsys, monkeypatch, which):
        def not_built(n):
            raise AssertionError(f"built degree {n} only to refuse it")

        monkeypatch.setattr(families, "bessel_poly", not_built)
        monkeypatch.setattr(families, "reverse_bessel_poly", not_built)
        # the largest coefficient, (2n)!/(2^n n!), has 643 digits at n = 278
        self.assert_refused(*self.run_at_lowest_limit(capsys, "poly", which, "--n", "278"))
        # and 4391 digits at n = 1450, past the default limit of 4300
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        self.assert_refused(*run_cli(capsys, "poly", which, "--n", "1450"))

    @pytest.mark.parametrize("which", ["bessel-y", "bessel-theta"])
    def test_bessel_huge_n_refused_at_once(self, capsys, monkeypatch, which):
        def not_built(n):
            raise AssertionError(f"built degree {n} only to refuse it")

        monkeypatch.setattr(families, "bessel_poly", not_built)
        monkeypatch.setattr(families, "reverse_bessel_poly", not_built)
        start = time.perf_counter()
        self.assert_refused(*self.run_at_lowest_limit(capsys, "poly", which, "--n", "2000000"))
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("which", ["bessel-y", "bessel-theta"])
    def test_bessel_largest_printable_n(self, capsys, which):
        # 640 digits at n = 277: the early check lets it through and every coefficient prints
        code, out, err = self.run_at_lowest_limit(capsys, "poly", which, "--n", "277", "--format", "csv")
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 1 + 278

    # the smallest n whose checked closed-form entry has more than 640 digits
    @pytest.mark.parametrize(
        "family, n",
        [("stirling1", 312), ("stirling1-signed", 312), ("stirling2", 399), ("lah", 311), ("bessel-b", 279),
         ("bessel-B", 555)],
    )
    def test_triangle_refused_before_it_is_built(self, capsys, monkeypatch, family, n):
        def not_built(table, row):
            raise AssertionError(f"built row {row}")

        monkeypatch.setattr(triangles.RecurrenceTriangle, "rows", not_built)
        for n_max in (n, 10**9):
            self.assert_refused(*self.run_at_lowest_limit(capsys, "triangle", family, "--n", str(n_max)))
        with pytest.raises(AssertionError, match="built row"):
            self.run_at_lowest_limit(capsys, "triangle", family, "--n", str(n - 1))

    # the last four have first columns that stay short (1s, ±1s, or 0 from row 3),
    # bounded below by S(m, k) and B(m, k)
    @pytest.mark.parametrize("args", [("--s", "1/2", "--h", "-3/2", "--n", "100000"),
                                      ("--s", "1", "--h", "1", "--n", "3000", "--format", "csv"),
                                      ("--s", "0", "--h", "1", "--n", "100000"),
                                      ("--s", "0", "--h", "-1", "--n", "100000"),
                                      ("--s", "-1", "--h", "1", "--n", "100000"),
                                      ("--s", "-1", "--h", "3/2", "--n", "100000")])
    def test_gs_refused_before_it_is_built(self, capsys, monkeypatch, args):
        def not_built(table, row):
            raise AssertionError(f"built row {row}")

        monkeypatch.setattr(triangles.RecurrenceTriangle, "rows", not_built)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        start = time.perf_counter()
        self.assert_refused(*run_cli(capsys, "triangle", "gs", *args))
        assert time.perf_counter() - start < 2.0

    def test_gs_refused_from_its_first_unprintable_first_column_entry(self, monkeypatch):
        def too_long(s, h, n):
            s, h = Fraction(s), Fraction(h)
            return cli._triangle_too_long(h * s, h - h * s, n)

        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640)
        # GS_{1;1}(m, 1) = (m-1)! first has more than 640 digits at m = 312
        assert too_long(1, 1, 312)
        assert not too_long(1, 1, 311)
        # GS_{0;1/10}(m, 1) = 1/10^(m-1): its denominator, at m = 641
        assert too_long(0, Fraction(1, 10), 641)
        assert not too_long(0, Fraction(1, 10), 640)
        # first columns of 1s and of 0s, refused from S(m, k) and B(m, k)
        for s in (0, -1):
            assert too_long(s, 1, 10**9)
        # short first columns with no bound: 1, 1, 1/2, 0 and 1, 1/2, 0
        assert not too_long(Fraction(-1, 2), 1, 10**9)
        assert not too_long(-1, Fraction(1, 2), 10**9)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        assert not too_long(1, 1, 10**9)

    def test_short_first_column_refused_from_a_scaled_family(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640)
        # (0, b) is b^(m-k) S(m, k), first refused with stirling2 at 399; (-b/2, b)
        # is (b/2)^(m-k) B(m, k), first refused with bessel-B at 555
        for a, b, n in ((0, 1, 399), (0, -1, 399), (-1, 2, 555), (1, -2, 555)):
            assert cli._triangle_too_long(a, b, n), (a, b)
            assert not cli._triangle_too_long(a, b, n - 1), (a, b)

    def test_stirling2_refused_from_its_first_unprintable_row(self, capsys, monkeypatch):
        rows = triangles.Triangles().rows("stirling2", 399)
        assert max(rows[398]) < 10**640 <= max(rows[399])

        def not_built(table, row):
            raise AssertionError(f"built row {row}")

        monkeypatch.setattr(triangles.RecurrenceTriangle, "rows", not_built)
        # S(1982, k) first has more than 4300 digits, the default limit
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        self.assert_refused(*run_cli(capsys, "triangle", "stirling2", "--n", "1982"))
        with pytest.raises(AssertionError, match="built row"):
            run_cli(capsys, "triangle", "stirling2", "--n", "1981")

    def test_stirling2_lower_bound(self):
        s2 = triangles.Triangles().rows("stirling2", 150)
        for n in range(1, 151):
            bounds = [(k**n - k * (k - 1) ** n) // math.factorial(k) for k in range(1, n + 1)]
            assert all(b <= s for b, s in zip(bounds, s2[n][1:])), n
            assert cli._stirling2_lower_bound(n) == max(bounds), n

    # the smallest n whose checked entry has more than 640 digits: 2^(n-1) for
    # chebyshev, (n-1)! for pn and pn-closed
    @pytest.mark.parametrize("which, n", [("chebyshev", 2128), ("pn", 312), ("pn-closed", 312)])
    def test_poly_refused_before_it_is_built(self, capsys, monkeypatch, which, n):
        def not_built(n):
            raise AssertionError(f"built degree {n} only to refuse it")

        for builder in ("chebyshev_t", "pn_recurrence", "pn_closed_form"):
            monkeypatch.setattr(families, builder, not_built)
        start = time.perf_counter()
        for n_max in (n, 10**9):
            self.assert_refused(*self.run_at_lowest_limit(capsys, "poly", which, "--n", str(n_max)))
        assert time.perf_counter() - start < 2.0
        if which != "pn":  # pn --n 311 is above the recurrence cap
            with pytest.raises(AssertionError, match="built degree"):
                self.run_at_lowest_limit(capsys, "poly", which, "--n", str(n - 1))

    # printable rows that cost minutes and gigabytes: a short gs first column
    # with no bound, and any family at limit 0
    @pytest.mark.parametrize("limit, args", [(4300, ("gs", "--s", "-1/2", "--h", "1", "--n", "3000")),
                                             (4300, ("gs", "--s", "-1", "--h", "1/2", "--n", "100000")),
                                             (0, ("stirling1", "--n", "100000"))],
                             ids=["gs-s=-1/2-h=1", "gs-s=-1-h=1/2", "stirling1-limit-0"])
    def test_triangle_cap(self, capsys, monkeypatch, limit, args):
        def not_built(table, row):
            raise AssertionError(f"built row {row}")

        monkeypatch.setattr(triangles.RecurrenceTriangle, "rows", not_built)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "triangle", *args)
        assert time.perf_counter() - start < 2.0
        assert code == 2 and out == ""
        assert err.startswith("stirbess: error: ") and f"at most {cli.MAX_TRIANGLE_N}" in err
        with pytest.raises(AssertionError, match="built row"):
            run_cli(capsys, "triangle", *args[:-1], str(cli.MAX_TRIANGLE_N))

    @pytest.mark.parametrize("family", [f for f in cli.TRIANGLE_FAMILIES if f != "gs"])
    def test_triangle_huge_n_refused_at_once(self, capsys, monkeypatch, family):
        def not_built(table, row):
            raise AssertionError(f"built row {row}")

        monkeypatch.setattr(triangles.RecurrenceTriangle, "rows", not_built)
        start = time.perf_counter()
        self.assert_refused(*run_cli(capsys, "triangle", family, "--n", "100000", "--format", "csv"))
        self.assert_refused(*self.run_at_lowest_limit(capsys, "triangle", family, "--n", "2000000"))
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_simulate(self, capsys, fmt):
        # the exact moment of order 60 at alpha = 0.3 has more than 640 digits
        args = ("simulate", "--alpha", "0.3", "--steps", "10", "--paths", "10", "--moments", "60",
                "--jobs", "1", "--format", fmt)
        self.assert_refused(*self.run_at_lowest_limit(capsys, *args))

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_triangle_checked_from_row_extremes(self, capsys, monkeypatch, fmt):
        """An int row is checked by its max and min only, so a row whose only
        unprintable entry is negative is still refused; a gs row is checked
        entry by entry, so one whose only unprintable part is a denominator is
        too. The first-column pre-check is patched away to reach the rows."""
        monkeypatch.setattr(cli, "_triangle_too_long", lambda a, b, n: False)
        rows = [(1,), (0, 1), (0, -(10**640), 10**639)]  # 10**639 has 640 digits and prints
        monkeypatch.setattr(triangles.DEFAULT.table(-1, 0), "rows", lambda n: rows)
        args = ("triangle", "stirling1-signed", "--n", "2", "--format", fmt)
        self.assert_refused(*self.run_at_lowest_limit(capsys, *args))
        # GS_{0;h}(m, k) = h^(m-k) S(m, k): with h = 1/10^100, the only part of
        # row 8 too long to print is the denominator of its entry 1/10^700
        h = "1/1" + "0" * 100
        assert triangles.Triangles().gs_rows(0, Fraction(h), 8)[8][1] == Fraction(1, 10**700)
        args = ("triangle", "gs", "--s", "0", "--h", h, "--n", "8", "--format", fmt)
        self.assert_refused(*self.run_at_lowest_limit(capsys, *args))

    def test_limit_zero_means_no_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        code, out, _ = run_cli(capsys, "triangle", "stirling2", "--n", "3", "--format", "csv")
        assert code == 0 and out.splitlines()[-1] == "3,3,1"
        code, out, _ = run_cli(capsys, "poly", "bessel-y", "--n", "3", "--format", "csv")
        assert code == 0 and out.splitlines()[-1] == "3,15"


def test_explicit_jobs_capped_at_the_cpu_count(monkeypatch):
    # a pool forks all its workers at once, so --jobs 1000 must not start 1000
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli._default_jobs(1000) == 2
    assert cli._default_jobs(None) == 2
    with pytest.raises(ValueError):
        cli._default_jobs(0)


def test_default_jobs_counts_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._default_jobs(None) == 1
    assert cli._default_jobs(3) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._default_jobs(None) == 8


def test_exact_commands_do_not_import_numpy():
    # a fresh interpreter, since other tests import numpy into this one; numpy is
    # blocked there, so an import of it raises, in a forked pool worker too
    code = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "sys.modules['numpy'] = None\n"
        "def loaded():\n"
        "    return {m for m in sys.modules if m.startswith('stirbess.')}\n"
        "def run(argv):\n"
        "    with redirect_stdout(io.StringIO()):\n"
        "        assert stirbess.cli.main(argv.split()) == 0, argv\n"
        "    assert sys.modules['numpy'] is None, argv\n"
        "import stirbess\n"
        "assert not loaded(), ('import stirbess', loaded())\n"
        "assert stirbess.triangles is sys.modules['stirbess.triangles']\n"
        "import stirbess.cli\n"
        "assert sys.modules['numpy'] is None, 'import stirbess.cli'\n"
        "assert loaded() == {'stirbess.cli', 'stirbess.triangles', 'stirbess.exactnum', 'stirbess.polys'}, loaded()\n"
        "run('triangle bessel-b --n 20 --format csv')\n"
        "run('triangle gs --s 1/2 --h -3/2 --n 40 --format csv')\n"
        "run('triangle stirling1-signed --n 60 --format table')\n"
        "assert not loaded() & {'stirbess.identities', 'stirbess.families'}, ('triangle', loaded())\n"
        "run('poly pn --n 6 --format json')\n"
        "run('poly pn --n 12 --z -1/2 --format csv')\n"
        "run('poly pn-closed --n 12 --format table')\n"
        "assert 'stirbess.families' in loaded() and 'stirbess.identities' not in loaded(), ('poly', loaded())\n"
        "run('verify --all --n-max 6 --jobs 1 --format json')\n"
        "from stirbess import identities, families, triangles\n"
        "assert sys.modules['numpy'] is None, 'import identities, families, triangles'\n"
        "assert 'concurrent.futures' not in sys.modules, 'the pools are imported only to start one'\n"
        "run('verify --all --n-max 20 --format json')\n"
        "del sys.modules['numpy']\n"
        "assert stirbess.SimConfig and stirbess.estimate_moments and stirbess.estimate_moments_at\n"
        "assert stirbess.SimResult\n"
        "assert 'numpy' in sys.modules\n"
    )
    path = [str(Path(stirbess.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_process_runs_one_thread_after_simulate(preset, expected):
    # a fresh interpreter running the module as a user does, since numpy reads
    # OPENBLAS_NUM_THREADS once, when it is first imported
    code = (
        "import io, os, runpy, sys\n"
        "from contextlib import redirect_stdout\n"
        "sys.argv = ['stirbess'] + 'simulate --alpha 0.3 --steps 100 --paths 1000 --jobs 1 --format json'.split()\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('stirbess.cli', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
        "assert 'numpy' in sys.modules\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "status = '/proc/self/status'\n"
        "print(next(line.split()[1] for line in open(status) if line.startswith('Threads:'))"
        " if os.path.exists(status) else '')\n"
    )
    path = [str(Path(stirbess.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    blas_threads, threads = done.stdout.split("\n")[:2]
    assert blas_threads == expected
    if preset is None:
        if not threads:
            pytest.skip("no /proc/self/status to count threads")
        assert threads == "1"


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_closed_stdout_exits_141_quietly(fmt):
    # a reader that stops after one line, as `| head -1` does, while the CLI
    # still has far more than a pipe buffer to write: it exits as a shell
    # reports a process killed by SIGPIPE, with no traceback
    path = [str(Path(stirbess.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    argv = [sys.executable, "-m", "stirbess.cli", "triangle", "stirling2", "--n", "300", "--format", fmt]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141 and err == b"", err.decode()


_CSV_TEXT = st.text(st.one_of(
    st.sampled_from(',"\r\n '), st.characters(exclude_categories=("Cs",), exclude_characters="\x00")
))
_CSV_CELLS = st.one_of(
    _CSV_TEXT,
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.fractions(),
    st.floats(),
)


class TestCsvLine:
    """The CLI's csv writer against the standard library's, its oracle."""

    @given(st.lists(_CSV_CELLS, min_size=2, max_size=5))
    def test_matches_csv_writer(self, row):
        expected = io.StringIO()
        csv.writer(expected).writerow(row)
        assert cli._csv_line(row) == expected.getvalue()

    def test_quoted_cell(self):
        row = [1, 'say "hi", twice', Fraction(-1, 2)]
        assert cli._csv_line(row) == '1,"say ""hi"", twice",-1/2\r\n'


# the benchmark's triangle-rows command lines, whose stdout sha256 it pins
_BENCH_TRIANGLE_COMMANDS = (
    "triangle stirling1 --n 250 --format csv",
    "triangle bessel-b --n 250 --format csv",
    "triangle lah --n 250 --format table",
    "triangle gs --s 1/2 --h -3/2 --n 100 --format json",
)


@pytest.mark.parametrize("command", _BENCH_TRIANGLE_COMMANDS)
def test_benchmark_digest(capsys, command):
    digests = json.loads((Path(__file__).parents[1] / "perfbench" / "digests.json").read_text())
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digests[command]


class TestParserBasics:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_missing_command(self, capsys):
        assert main([]) == 2


# sha256 of stdout per command line, so any changed output byte fails here;
# the verify table's elapsed times are masked first
_SIM = "simulate --alpha 0.4 --steps 60 --paths 300 --moments 2 --seed 5 --jobs 1"
GOLDEN_SHA256 = {
    "triangle stirling2 --n 7 --format table": "3037e486a6e74d14e069e9bed3c7d18758240b1dddf34d56117878dc691cc269",
    "triangle stirling2 --n 7 --format json": "5d6f44ea6cb916a4535aca58365e1f488cb685e0aeeb01bad187369404068aef",
    "triangle stirling2 --n 7 --format csv": "e867ae8ea83060bd0971ab63d0f403c5ae7d5d51147d091a97a2f99d3a08aad9",
    "triangle bessel-b --n 7 --format table": "79e2c822d21a0d74f85f7290c243e0bf8490d0549a4f1eeb0f45e7eb55b4d4f7",
    "triangle bessel-b --n 7 --format json": "79cbb719bf2357340d7bdb79ad30d8573b7b1f7c4a29b708087ce1b54e92adf0",
    "triangle bessel-b --n 7 --format csv": "d7ffe7241b0806ae38ac10305ec27595122cb5f5684ecb0cd721558b559596b2",
    "triangle gs --s 1/2 --h -3 --n 6 --format table": "fecdff1f53dc7f52a83cd2d65ce9252dfff19830a5a7c2a40b74f27c789b7eb4",
    "triangle gs --s 1/2 --h -3 --n 6 --format json": "584c964afdefb82bc27a873398437c5142a22a99fb1869669f7adabbeef381b0",
    "triangle gs --s 1/2 --h -3 --n 6 --format csv": "130c3003a15fa1627a4932d88b4b48de09f85cde04cd51242b0194ebb0dca5d4",
    "triangle stirling1 --n 7 --format table": "8e88318512498c33ae33383cee71eb6cf95b78eccfeb3b1d4c9bdfe1a4cd13d0",
    "triangle stirling1-signed --n 7 --format json": "8f446dc63b3a7a5507315aeb8a68b40a5e5e120806cfc396a5a8794c218b5092",
    "triangle lah --n 7 --format csv": "ecaf6125c3579236498d59ddb3d649473c38f70c997ad4e7416e4b5d418b7bd6",
    "triangle bessel-B --n 7 --format table": "f41fe74d1f2b245673b1b97d47ca8e96ae03fc2b342e4a654ba9843425bcf420",
    "triangle stirling1 --n 60 --format csv": "5012c2ebbdc4af8fe040d915545aa3b69bbb27a4e7faf3741313cdd97b84df39",
    "triangle stirling1-signed --n 60 --format csv": "296649d1410bbc1c5a939798d00fd4b21d537a22de10ea2893bd557136f865c0",
    "triangle stirling2 --n 60 --format csv": "b6d81e568ed0d761779f46662409f442563f2e2f2a7ad604d895fe4889949ec3",
    "triangle lah --n 60 --format csv": "71f88443a3f3ae947c418713d71096e74935f81a6754ae40e70b8eeb0f305295",
    "triangle bessel-b --n 60 --format csv": "be5b1cd4af65add7fbb7784131edfba303186fcde13b3208d22f9ca15c817d57",
    "triangle bessel-B --n 60 --format csv": "f8c224f8bc7bd33fd24ee4de539516b4b9d481cc501243df179b715efd1e953a",
    "triangle gs --s 1/2 --h -3/2 --n 40 --format json": "5e9c58efe8c84153616e7d65d055d9f781f83b23579acc8455046d0922211ea6",
    "poly pn --n 4 --format table": "91b6841e2610acc2716842f8b8ffa6f5b6fda8ff9937b5186036977be0bf7c5b",
    "poly pn --n 4 --format json": "29c0ca1559d36a0b4d8cf3b51948a37d834d04c81c03ab3cd962bd2abc461b4e",
    "poly pn --n 4 --format csv": "8c1d6f740ee9433a55f5dea9d835cda52dd2e4913c4bf06ec098f66c474189fe",
    "poly pn --n 30 --format csv": "380f8b4e3406952da83f8d1c2af1427a8aa1fdbe03cf8a7659d60096b126d61a",
    "poly pn --n 4 --z -1/2 --format table": "617a9201461561c1949859f5caecd923148e64a1f443874aff322c16fe374a28",
    "poly pn --n 4 --z -1/2 --format json": "7a1e94f7eb03d21d042931538981e440cb28ac9036bc2ed589daaccc3c5a7002",
    "poly pn --n 4 --z -1/2 --format csv": "19093d60a560505508dd6cd74317f6677919bca395fcaf70e40c1e16bdcacc5b",
    "poly bessel-y --n 5 --format table": "491b35f2dbe0bc3835fcc5aa7662bb9f44bc92290ff9a3ea064b1977f11db880",
    "poly bessel-y --n 5 --format json": "c73221863871efa9681f01698b71c5906dbad778f6c7491d32e2f78ed9346096",
    "poly bessel-y --n 5 --format csv": "0c20a70b2d1a935ddbf212193ab28280a5c9cc1d2ccdc376056e37b42425946f",
    "poly pn-closed --n 4 --format json": "30201bb6e9f7fba3686274beb5778c89ee8af08e222cbcea127e0aeff4a2acad",
    "poly bessel-theta --n 5 --format csv": "af042e006eca5deb8ea74ba8f1fb0de017375af1e2a865879a66df4e0a26778f",
    "poly chebyshev --n 6 --format table": "9d8cd18cafe63af6f1134ec33d75b406dd38791303c686e5a56278d877c4e788",
    "poly chebyshev --n 60 --format json": "f4bc257ae47af0a57d12b076508eb5db47b30d69494819f23a7eeab0aa40ad73",
    "poly bessel-y --n 40 --format csv": "ff952681c79672b93e40d9547adda7f366d9c3c4f361e7bab0fc533ad28c5011",
    "poly bessel-theta --n 40 --format table": "93c2d09de0f23dc53b24b85f5e937704aa8aad4ed0ef089538d00f7221904a3f",
    "poly pn --n 12 --z 3 --format json": "4bc044c7f41ecd22871e5cb42c2309a07f0a05578dbcd091a7369baa3a65c575",
    "poly pn --n 12 --z 0 --format csv": "a7254c3e36c6e9cee04738b082235eacde1661ab27bd718ee0b4b37bf62df8d5",
    "verify thm1 lah --n-max 6 --jobs 1 --format table": "0275a23c3e40bb2a36e50ec1ed2278c653ab692fa7efbdf572468c2a1ff59153",
    "verify thm1 lah --n-max 6 --jobs 1 --format json": "9c8a0fbb0af71d5a91215ca436ba184877df002a4c718d1a80280ade880f3890",
    "verify thm1 lah --n-max 6 --jobs 1 --format csv": "edd33d0ef550194d999644aca1af5364de683d7e9e92de4c185689ad876d48a0",
    "verify always-fails --jobs 1 --format table": "57e33aa648de04ffcd64f538f3431a403941ae39da7ff3b7818aaa11efc88570",
    "verify always-fails --jobs 1 --format json": "694d64af67a2cf14c834ed848498912e5c8dfc1e089e0c46962a264a6bca117c",
    "verify always-fails --jobs 1 --format csv": "9f6b344bfb3db331fde66f8d555449f0c3b3b6fb1dcae53167bf527931b07a35",
    "verify --all --n-max 30 --format json": "ef2b520990f57c20f20bc725ce43b71ce900b334ae14d52d2bd3e5c35622c269",
    _SIM + " --format table": "9792d62424388a6f853324e179e84bb5e3850d1070b26d0b354419adc8a7cf39",
    _SIM + " --format json": "c1c8da571b7044e73ee7ad7e974e951295507d00bfa7360d57798d7a4e504d6a",
    _SIM + " --format csv": "904ca166216962e07d760ea4210cccb00f256601c355b4e92020d3f612622c18",
    _SIM + " --t 1/2 --format table": "70a746e41bd45a06d18972f9e3fbce97a26536f43acaa1ea8cd4c9e424db62fb",
    _SIM + " --t 1/2 --format json": "661d8af5d49793ca4b9bd110f1ba393f82000c020fd6cb01261a91f3ef7ec2a6",
    _SIM + " --t 1/2 --format csv": "54b0ece831eb3fffe105ee9a28c8ebed93a87b70c2ef74837a8f2df6db789ad3",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_golden_output(capsys, request, command):
    if "always-fails" in command:
        request.getfixturevalue("always_fails")  # registering it would change verify --all
    code, out, _ = run_cli(capsys, *command.split())
    assert code == (1 if "always-fails" in command else 0)
    out = re.sub(r"\(\d+\.\d ms\)", "(- ms)", out)
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[command]
