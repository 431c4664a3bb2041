import csv
import gc
import hashlib
import json
import os
import pickle
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import stirbess
from stirbess import triangles
from stirbess.cli import main
from stirbess.identities import (
    REGISTRY,
    IDENTITY_IDS,
    _s1s2_sum,
    default_hagen_rothe_cases,
    gs_composition_identity,
    hagen_rothe_identity,
    run_suite,
    sss2_identity,
    verify,
)
from stirbess.triangles import Triangles, bessel_B, bessel_b, lah, stirling1, stirling2


class TestHandCases:
    """Spelled-out small instances, independently recomputed."""

    def test_thm1_small(self):
        lhs_21 = sum(stirling1(2, i) * stirling2(i, 1) * (-2) ** (2 - i) for i in range(1, 3))
        assert lhs_21 == -1 == bessel_b(2, 1)
        lhs_31 = sum(stirling1(3, i) * stirling2(i, 1) * (-2) ** (3 - i) for i in range(1, 4))
        assert lhs_31 == 3 == bessel_b(3, 1)
        for n in range(1, 20):
            assert stirling1(n, n) * stirling2(n, n) == 1 == bessel_b(n, n)

    def test_thm2_small(self):
        lhs_21 = sum(stirling1(2, i) * stirling2(i, 1) * (-2) ** (i - 1) for i in range(1, 3))
        assert lhs_21 == -1 == -bessel_B(2, 1)
        # k below the band: the sum must cancel to zero
        lhs_41 = sum(stirling1(4, i) * stirling2(i, 1) * (-2) ** (i - 1) for i in range(1, 5))
        assert lhs_41 == 0 == bessel_B(4, 1)

    def test_inversion_small(self):
        def inv(n, k):
            return sum(stirling1(n, i) * stirling2(i, k) * (-1) ** (n - i) for i in range(k, n + 1))

        assert inv(5, 5) == 1
        assert inv(3, 1) == 0
        assert inv(4, 2) == 0

    def test_lah_small(self):
        assert stirling1(3, 2) * stirling2(2, 2) + stirling1(3, 3) * stirling2(3, 2) == 6 == lah(3, 2)
        lhs_42 = sum(stirling1(4, i) * stirling2(i, 2) for i in range(2, 5))
        assert lhs_42 == 36 == lah(4, 2)

    def test_lemma_key_b_hand_sum(self):
        # j=1, k=3: 1*C(3,0) + 1*C(3,1) + 1*C(3,2) = 7 = 1 * s2(4,2)
        lhs = sum(stirling2(i, 1) * [1, 3, 3][i - 1] for i in range(1, 4))
        assert lhs == 7 == stirling2(4, 2)

    def test_hagen_rothe_hand_case(self):
        report = verify(hagen_rothe_identity([(1, 2, 4, 2)]), 1)
        assert report.passed
        # by hand: 6 + 2 + 2 = 10 = C(5, 2)

    def test_gould_hand_cases(self):
        # (4,1): C(4,2)C(1,1) + C(4,4)C(2,1) = 8 = 2 C(3,1) 4/3
        assert 6 * 1 + 1 * 2 == 8
        # (5,0): sum of even binomials in row 5 = 16
        assert 1 + 10 + 5 == 16


_NONZERO = st.integers(min_value=-9, max_value=9).filter(bool)


@given(st.integers(min_value=0, max_value=16).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
       _NONZERO, _NONZERO)
def test_s1s2_sum_is_the_sum_at_p_over_q(nk, p, q):
    # any z = p/q, beyond the sss2 grid and the theorems' weights (1,-2), (-2,1), (1,-1), (1,1)
    n, k = nk
    z = Fraction(p, q)
    expected = sum(stirling1(n, i) * stirling2(i, k) * z**i for i in range(n + 1)) * q**n
    got = _s1s2_sum(Triangles(), n, k, p, q)
    assert type(got) is int and got == expected


class TestVerifiersPass:
    def test_thm1(self):
        assert verify("thm1", 25).passed

    def test_thm2(self):
        assert verify("thm2", 25).passed

    def test_inversion(self):
        assert verify("inversion", 25).passed

    def test_lah(self):
        assert verify("lah", 25).passed

    def test_duality(self):
        assert verify("duality", 25).passed

    def test_gs_scaling(self):
        assert verify("gs-scaling", 12).passed

    def test_gs_specializations(self):
        assert verify("gs-special", 15).passed

    def test_gs_composition_default_triples(self):
        report = verify("gs-composition", 12)
        assert report.passed

    def test_gs_composition_custom_triple(self):
        assert verify(gs_composition_identity([(Fraction(1, 2), Fraction(-3), Fraction(2))]), 8).passed

    def test_sss2(self):
        assert verify("sss2", 15).passed

    def test_sss2_custom_z(self):
        assert verify(sss2_identity([Fraction(5), Fraction(-1, 3)]), 10).passed

    def test_lemma_keys(self):
        assert verify("lemma-keys", 15).passed

    def test_hagen_rothe_default_grid(self):
        assert verify("hagen-rothe", 1).passed

    def test_gould(self):
        assert verify("gould-3-120", 25).passed

    def test_moment_bessel(self):
        assert verify("moment-bessel", 15).passed

    def test_theta_b(self):
        assert verify("theta-b", 15).passed

    def test_pn_closed(self):
        assert verify("pn-closed", 12).passed

    def test_pn_special_z(self):
        assert verify("pn-special-z", 12).passed

    def test_rising_falling(self):
        assert verify("rising-factorial", 20).passed
        assert verify("falling-factorial", 20).passed


class TestParameterValidation:
    def test_composition_triple_nu_zero(self):
        with pytest.raises(ValueError):
            verify(gs_composition_identity([(1, 0, 1)]), 5)

    def test_composition_triple_sigma_nonpositive(self):
        with pytest.raises(ValueError):
            verify(gs_composition_identity([(1, 2, -1)]), 5)

    def test_composition_triple_nu_equals_sigma(self):
        with pytest.raises(ValueError):
            verify(gs_composition_identity([(1, 2, 2)]), 5)

    def test_sss2_rejects_forbidden_z(self):
        with pytest.raises(ValueError):
            verify(sss2_identity([Fraction(0)]), 5)
        with pytest.raises(ValueError):
            verify(sss2_identity([Fraction(-1)]), 5)

    def test_hagen_rothe_rejects_pole(self):
        with pytest.raises(ValueError):
            verify(hagen_rothe_identity([(Fraction(-2), 1, Fraction(3), 4)]), 1)  # a + b*2 = 0

    def test_hagen_rothe_refuses_negative_n(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            hagen_rothe_identity([(1, 2, 4, -1)])

    def test_hagen_rothe_refuses_non_integral_b_and_n(self):
        # truncated, these would run as the cases (1, 0, 4, 2) and (1, 2, 4, 2)
        for case in [(1, Fraction(1, 2), 4, 2), (1, 2, 4, 2.7), (1, 2, 4, Fraction(5, 2))]:
            with pytest.raises(ValueError, match="b and n must be integers"):
                hagen_rothe_identity([case])

    def test_hagen_rothe_keeps_integral_b_and_n_as_int(self):
        (case,) = hagen_rothe_identity([(1, Fraction(2), 4, 2.0)]).cases(1)
        assert case == (1, 2, 4, 2) and type(case[1]) is int and type(case[3]) is int

    def test_hagen_rothe_refuses_float_a_and_c(self):
        # Fraction(0.1) is 3602879701896397/36028797018963968, a case nobody meant
        with pytest.raises(ValueError, match="^a must be an int or Fraction, not the float 0.1$"):
            hagen_rothe_identity([(0.1, 2, 4, 2)])
        with pytest.raises(ValueError, match="^c must be an int or Fraction, not the float 4.0$"):
            hagen_rothe_identity([(1, 2, 4.0, 2)])

    def test_sss2_refuses_float_z(self):
        with pytest.raises(ValueError, match="^z must be an int or Fraction, not the float 0.1$"):
            sss2_identity([Fraction(2), 0.1])

    def test_gs_composition_refuses_float_parameters(self):
        for triple, name in [((0.5, 2, 1), "s"), ((1, 2.0, 1), "nu"), ((1, 2, 1.5), "sigma")]:
            with pytest.raises(ValueError, match=f"^{name} must be an int or Fraction, not the float"):
                gs_composition_identity([triple])

    def test_unknown_identity_id(self):
        with pytest.raises(ValueError, match="unknown identity id"):
            verify("nosuch", 5)

    def test_n_max_must_be_positive(self):
        with pytest.raises(ValueError):
            verify("thm1", 0)
        with pytest.raises(ValueError):
            run_suite(0)


class TestSuiteRunner:
    def test_selection_empty(self):
        with pytest.raises(ValueError, match="empty"):
            run_suite(5, [])

    def test_selection_unknown(self):
        with pytest.raises(ValueError, match="unknown identity id"):
            run_suite(5, ["nosuch"])

    def test_selection_order_is_registry_order(self):
        reports = run_suite(5, ["lah", "thm1"])
        assert [r.identity_id for r in reports] == ["thm1", "lah"]

    def test_selection_single_string(self):
        reports = run_suite(5, "thm1")
        assert len(reports) == 1 and reports[0].identity_id == "thm1"

    def test_all_ids_registered(self):
        assert set(IDENTITY_IDS) == set(REGISTRY)
        reports = run_suite(6, "all")
        assert [r.identity_id for r in reports] == list(IDENTITY_IDS)
        assert all(r.passed for r in reports)

    def test_parallel_matches_serial(self):
        serial = run_suite(8, "all", jobs=1)
        parallel = run_suite(8, "all", jobs=4)
        strip = lambda rs: [(r.identity_id, r.range_desc, r.status, r.counterexample) for r in rs]
        assert strip(serial) == strip(parallel)


class TestMutationSensitivity:
    def test_corrupted_value_is_detected(self, corrupt):
        tables = corrupt(Triangles(), 1, 0, 6, 3)
        reports = run_suite(10, "all", tables=tables, jobs=1)
        failed = [r for r in reports if not r.passed]
        assert failed, "corruption went unnoticed"
        for r in failed:
            assert r.counterexample is not None

    def test_counterexample_is_lexicographically_minimal(self, corrupt):
        tables = corrupt(Triangles(), 1, 0, 6, 3)
        for ident_id in ("thm1", "inversion"):
            identity = REGISTRY[ident_id]
            report = verify(ident_id, 10, tables)
            assert not report.passed
            failures = [
                params
                for params in identity.cases(10)
                if identity.evaluate(params, tables)[0] != identity.evaluate(params, tables)[1]
            ]
            assert report.counterexample.params == min(failures) == (6, 1)

    def test_counterexample_reproduces_mismatch(self, corrupt):
        tables = corrupt(Triangles(), 1, 0, 6, 3)
        report = verify("inversion", 10, tables)
        ce = report.counterexample
        lhs, rhs = REGISTRY["inversion"].evaluate(ce.params, tables)
        assert str(lhs) == ce.lhs and str(rhs) == ce.rhs and lhs != rhs

    def test_clean_tables_unaffected(self):
        assert verify("inversion", 10).passed

    def test_corrupted_gs_table_is_detected(self, corrupt):
        # T_{0,1} is S2 and GS(0, 1): the outer table of the (-2, -1, 1)
        # composition triple and the gs-special stirling2 table
        tables = corrupt(Triangles(), 0, 1, 6, 3)
        self.assert_first_failures(tables, {"gs-composition": (6, 3, (-2, -1, 1)), "gs-special": (6, 3, "stirling2")})

    def test_corrupted_stirling1_table_is_detected_by_gs_special(self, corrupt):
        # T_{1,0} is s1 and GS(1, 1): the gs-special stirling1 table, and the
        # inner table of the (1, 2, 1) composition triple, whose sums read
        # inner row 6 from k = 1 on
        tables = corrupt(Triangles(), 1, 0, 6, 3)
        self.assert_first_failures(tables, {"gs-composition": (6, 1, (1, 2, 1)), "gs-special": (6, 3, "stirling1")})

    @staticmethod
    def assert_first_failures(tables, expected):
        for ident_id, first in expected.items():
            identity = REGISTRY[ident_id]
            report = verify(ident_id, 10, tables)
            assert not report.passed
            failures = [
                params
                for params in identity.cases(10)
                if identity.evaluate(params, tables)[0] != identity.evaluate(params, tables)[1]
            ]
            assert report.counterexample.params == min(failures) == first

    def test_corrupted_fractional_gs_table_is_detected(self, corrupt):
        # T_{3/2,1} is GS(3/5, 5/2), sss2's table at z = 2/3; its coefficients
        # 3/2 and 1 are not both integers
        tables = corrupt(Triangles(), Fraction(3, 2), 1, 7, 4)
        self.assert_first_failures(tables, {"sss2": (7, 4, Fraction(2, 3))})

    def test_linear_step_is_on_one_side_only(self):
        # (X + c + 1) in place of (X + c) wherever the shared step is bound;
        # a fresh interpreter, as the P_n, Q_n and s1 reference rows are cached
        code = (
            "import json, sys\n"
            "from stirbess import exactnum, identities\n"
            "step = exactnum.times_linear\n"
            "for name, mod in list(sys.modules.items()):\n"
            "    if name.startswith('stirbess.') and getattr(mod, 'times_linear', None) is step:\n"
            "        mod.times_linear = lambda c, p: step(c + 1, p)\n"
            "reports = [identities.verify(i, 8) for i in identities.IDENTITY_IDS]\n"
            "print(json.dumps({r.identity_id: repr(r.counterexample.params) for r in reports if not r.passed}))\n"
        )
        path = [str(Path(stirbess.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {
            "gs-special": "(1, 0, 'stirling1')",
            "pn-closed": "(2,)",
            "pn-special-z": "(2, 'z=-1')",
            "rising-factorial": "(1,)",
            "falling-factorial": "(1,)",
        }


GS_IDS = ("gs-scaling", "gs-special", "gs-composition", "sss2")


class TestGsTableLookup:
    def test_no_fraction_hashed_per_case(self, monkeypatch):
        # Fraction does not cache its hash, so the evaluators find their tables
        # by the ids of a case's values: only deriving a Triangles.memo entry hashes any
        calls = [0]
        fraction_hash = Fraction.__hash__

        def counting_hash(self):
            calls[0] += 1
            return fraction_hash(self)

        monkeypatch.setattr(Fraction, "__hash__", counting_hash)
        counts = []
        for n_max in (6, 12):
            calls[0] = 0
            tables = Triangles()
            assert all(verify(ident_id, n_max, tables).passed for ident_id in GS_IDS)
            counts.append(calls[0])
        assert counts[0] == counts[1]

    def test_handles_belong_to_one_table_set(self, corrupt):
        clean = Triangles()
        assert all(verify(ident_id, 10, clean).passed for ident_id in GS_IDS)
        corrupted = corrupt(Triangles(), 0, 1, 6, 3)
        expected = {"gs-composition": (6, 3, (-2, -1, 1)), "gs-special": (6, 3, "stirling2")}
        for ident_id, first in expected.items():
            assert verify(ident_id, 10, corrupted).counterexample.params == first
        assert all(verify(ident_id, 10, clean).passed for ident_id in GS_IDS)
        ref = weakref.ref(corrupted)
        del corrupted
        gc.collect()
        assert ref() is None, "a cache outside the Triangles holds it alive"

    def test_unpickled_params_evaluate_alike(self):
        # a counterexample from a pool worker carries copies of the grid's values
        tables = Triangles()
        for ident_id in GS_IDS:
            identity = REGISTRY[ident_id]
            for params in identity.cases(5):
                copy = pickle.loads(pickle.dumps(params))
                assert copy == params and (copy[-1] is not params[-1] or ident_id == "gs-special")
                assert repr(identity.evaluate(copy, tables)) == repr(identity.evaluate(params, tables))


class TestSerialization:
    def test_json_round_trip_and_no_timing_by_default(self, capsys):
        assert main(["verify", "thm1", "lah", "--n-max", "6", "--format", "json", "--jobs", "1"]) == 0
        text = capsys.readouterr().out
        parsed = json.loads(text)
        assert json.dumps(parsed, indent=2) + "\n" == text
        assert all(set(entry) == {"id", "range", "status"} for entry in parsed)

    def test_json_with_timings(self, capsys):
        assert main(["verify", "thm1", "--n-max", "4", "--format", "json", "--timings", "--jobs", "1"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert "elapsed_ms" in parsed[0]

    def test_case_counts_with_timings(self, capsys):
        argv = ["verify", "--all", "--n-max", "4", "--timings", "--jobs", "1", "--format"]
        counts = [len(list(REGISTRY[ident_id].cases(4))) for ident_id in IDENTITY_IDS]
        assert main(argv + ["json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert [list(entry)[-2:] for entry in parsed] == [["elapsed_ms", "cases"]] * len(parsed)
        assert [entry["cases"] for entry in parsed] == counts
        assert main(argv + ["csv"]) == 0
        header, *rows = csv.reader(capsys.readouterr().out.splitlines())
        assert header[-2:] == ["elapsed_ms", "cases"]
        assert [int(row[-1]) for row in rows] == counts

    def test_case_count_stops_at_the_counterexample(self, corrupt):
        report = verify("inversion", 10, corrupt(Triangles(), 1, 0, 6, 3))
        assert report.cases == list(REGISTRY["inversion"].cases(10)).index((6, 1)) + 1

    def test_counterexample_serialized(self, capsys, monkeypatch, corrupt):
        monkeypatch.setattr(triangles, "DEFAULT", corrupt(Triangles(), 1, 0, 6, 3))
        assert main(["verify", "inversion", "--n-max", "8", "--format", "json", "--jobs", "1"]) == 1
        entry = json.loads(capsys.readouterr().out)[0]
        assert entry["status"] == "fail"
        assert entry["counterexample"]["params"] == [6, 1]
        assert entry["counterexample"]["lhs"] != entry["counterexample"]["rhs"]

    def test_csv_header_and_rows(self, capsys):
        assert main(["verify", "thm1", "thm2", "--n-max", "5", "--format", "csv", "--jobs", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "id,range,status,params,lhs,rhs"
        assert len(lines) == 3

    def test_default_hagen_rothe_grid_includes_proof_family(self):
        cases = default_hagen_rothe_cases()
        assert (Fraction(1), 2, Fraction(14), 0) in cases
        assert all(a + b * k != 0 for a, b, c, n in cases for k in range(n + 1))


# sha256 of the concatenated repr((lhs, rhs)) of every case at n_max = 9, so a
# change to any generalized-Stirling value or its type (int or Fraction) fails here
GS_VALUES_SHA256 = "0c4a24da013cad4b9efc9e8477e4e7694fff4b595af90d6ddf66cf92bec80353"


def test_gs_values_and_types_pinned():
    tables = Triangles()
    text = "".join(
        repr(REGISTRY[ident_id].evaluate(params, tables))
        for ident_id in ("gs-composition", "sss2", "gs-scaling", "gs-special")
        for params in REGISTRY[ident_id].cases(9)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == GS_VALUES_SHA256


# sha256 of the concatenated repr((lhs, rhs)) of every case at n_max = 12, per
# identity, so a change to any compared value or its type fails here: the
# UniPoly and BiPoly reprs carry each coefficient's type (int or Fraction)
VALUES_SHA256 = {
    "thm1": "a0a9f77f5377c7ba4d0f4cdbfe7c5a8207002d8956b0a1430a46f35b799fe256",
    "thm2": "6b9dfb6caab9549c19361a1be9734d4c535ce668d7752e0827d1170b9ce5e477",
    "inversion": "ac472b2dcc0c540f7bb57ee80711fa38c2a0a8bad796a32e31b4e4df72cc6be5",
    "lah": "a97458e31171210fc566f7e81f49ee3e7ba4ed367dcdb3f02a2afa384e24aef7",
    "duality": "8538345be1ce823cbab57da5c76837194dff516b73a0ae497fe9c35a804bae10",
    "cross-bb": "5782720d63e29924210a36554fb56cd12bb787303fbc1a3688ce94680e71179a",
    "gs-scaling": "368a736c36724caa04d1d81f0138711293ae7cb009810fb6832230661bf5bb1d",
    "gs-special": "76981c2d3c410b5657469d620566c202fba56b0a0721347ba659eaf0dfa580d2",
    "gs-composition": "2e5c86fdc3363313834d991e9a9e146422f9816ed0f17a07efc78a1faa9bb5b1",
    "sss2": "8777a8e385fd1edcb1e4e6fd101c44dea3f9d384d84388819cf7efc60b141d37",
    "lemma-keys": "5e7a402250553025d4d954d7b2792bd217fce6fb6c679cae50b2580df5f2a2a7",
    "hagen-rothe": "0082698c6f361aacf80582d9bcb79f5c07538234fc6eed36d2300df485dab169",
    "gould-3-120": "c747603c9cddda568db9bcf35edba8ad1cc838512077dc74f81431a8e8741529",
    "moment-bessel": "041c6e3c6d4b357a56bac425929493d52288d5888ad65657dc28caacadf91eea",
    "theta-b": "3efc103ef3f3b6acd49aa23dae242dc6ce7df5730d260a7ae7505b811cdfa23f",
    "pn-closed": "510ad95a743dfc0a18c8f96e8e95e9c00b9438d2d1f12a2e716df9b0a135e1b1",
    "pn-special-z": "780674413545d18848e58aefcf15c0f2ff96737c0d14bb6a69b4bf1d43ad0e84",
    "rising-factorial": "422bff2fd9cf56676107c48d2f4499182a7ec802a73e0aedf95c2da4afbc96c6",
    "falling-factorial": "b841a0b52c77d6cb8a069d0562003ccf7c0f2ceed84ea257c369443192c72999",
    "bessel-b-coeff": "a0a9f77f5377c7ba4d0f4cdbfe7c5a8207002d8956b0a1430a46f35b799fe256",
}


@pytest.mark.parametrize("ident_id", IDENTITY_IDS)
def test_values_and_types_pinned(ident_id):
    identity = REGISTRY[ident_id]
    tables = Triangles()
    text = "".join(repr(identity.evaluate(params, tables)) for params in identity.cases(12))
    assert hashlib.sha256(text.encode()).hexdigest() == VALUES_SHA256[ident_id]


# sha256 of repr(list(cases(n))) + describe_range(n) at n = 1 and 9, so any
# change to an identity's cases, their order or its range string fails here;
# counterexample minimality depends on this order
CASES_SHA256 = {
    "thm1": ("7eefa5f5b0cdebcdc6c7620594f15aad188bd620f2c619fa4d0c499c4bd2ad92", "c4080928e52e202bc01ad9676acc4fc3fe1a9fd7be465d34631a8dab9fad8204"),
    "thm2": ("7eefa5f5b0cdebcdc6c7620594f15aad188bd620f2c619fa4d0c499c4bd2ad92", "c4080928e52e202bc01ad9676acc4fc3fe1a9fd7be465d34631a8dab9fad8204"),
    "inversion": ("7eefa5f5b0cdebcdc6c7620594f15aad188bd620f2c619fa4d0c499c4bd2ad92", "c4080928e52e202bc01ad9676acc4fc3fe1a9fd7be465d34631a8dab9fad8204"),
    "lah": ("7eefa5f5b0cdebcdc6c7620594f15aad188bd620f2c619fa4d0c499c4bd2ad92", "c4080928e52e202bc01ad9676acc4fc3fe1a9fd7be465d34631a8dab9fad8204"),
    "duality": ("007c56f74cd714813526aa5b8976c1f8113700297d35edcb15dfe1a85887ff6d", "854b26103e9fbe3f8098b478d5a88d010454280de40ff12cdcc8433afa21a12c"),
    "cross-bb": ("1e640f3320e6849cc91e4cd0853f2a5c167e257fee456e7da948cf30f942f51d", "b5ebf336d80b13e17fbe1f6f9a0068e78f351241777ff91af9fafbfc8aad7c4c"),
    "gs-scaling": ("9f825e3bf04483185d2383a02f14df5984c51d42f4f3a9fc09771caa4a1862f5", "b897aabb8fe4778e71a135bb5e856d4e530416991ce83caa2b5a9e2190cd87fc"),
    "gs-special": ("7d990e15213ea259a72822ec6b31bd9dfb95f6689b7132cdf30980c5ed63c0ca", "a2f5bf4b904f5ae6dc07675ab98132bf7133a769f259955c20bd315cc9ee1e77"),
    "gs-composition": ("f6f3b2ada660af3ab5a58c203b02e84d0a253da9b13022339eb9de42ce9a1a62", "011d1138120bbf8995e244ec05ead3a9cb09ee2764e86614435cd8977341c8c7"),
    "sss2": ("7656493bb4ffc9dc810716c2694d42ffd9f4b3b2eaa69b9f40c4c6790de10073", "1e5d2ecbc54aa409164174d0a18f3cdf45b605841ea1f9f8a6cdc974e1821df3"),
    "lemma-keys": ("8343496d289d1dd5fd79f04a6344fd431a739eac82e7786f4d94bf7d6dcf5eb6", "674582f5d018869e2209ffa2d3d1a9d52d29729f1ffe0363e3494e6f19ac7e37"),
    "hagen-rothe": ("eb16d2edd15daf6633376958499e3fbe31f66a99505920e41fe297a11382d420", "eb16d2edd15daf6633376958499e3fbe31f66a99505920e41fe297a11382d420"),
    "gould-3-120": ("37c72f5369e6e5bee24a2453795466ffb46af4bbe085c4d2f2e4584e1f0fa7f2", "8429e8f23984ed6407ad79e881848dcd19e359c0e0cdacdd16a7084c9de80053"),
    "moment-bessel": ("223013c7891d9a7a1d8b2ce20c46acb5bbe1cb1986a64c9e22146cf5d6b371b3", "175236e6d117caf1b16392473484a32071f9046af0926b7548a2f1d33cdd295c"),
    "theta-b": ("223013c7891d9a7a1d8b2ce20c46acb5bbe1cb1986a64c9e22146cf5d6b371b3", "175236e6d117caf1b16392473484a32071f9046af0926b7548a2f1d33cdd295c"),
    "pn-closed": ("223013c7891d9a7a1d8b2ce20c46acb5bbe1cb1986a64c9e22146cf5d6b371b3", "175236e6d117caf1b16392473484a32071f9046af0926b7548a2f1d33cdd295c"),
    "pn-special-z": ("0b4b6ca50366341334adbc07cdbf5d7657be6c4efe2a2535b5800c7ea2ca27b6", "4acc19813ca106faffc655055add1607d955730725eea7ee37835f027a198520"),
    "rising-factorial": ("dfe25171759d52c84b293680d28857693a207ce940bda3944c2bfa822652468d", "42154c91c428aea8ddb789eb22bd4f272c09d5f78d579a6ed5c82e05a370eb5f"),
    "falling-factorial": ("dfe25171759d52c84b293680d28857693a207ce940bda3944c2bfa822652468d", "42154c91c428aea8ddb789eb22bd4f272c09d5f78d579a6ed5c82e05a370eb5f"),
    "bessel-b-coeff": ("7eefa5f5b0cdebcdc6c7620594f15aad188bd620f2c619fa4d0c499c4bd2ad92", "c4080928e52e202bc01ad9676acc4fc3fe1a9fd7be465d34631a8dab9fad8204"),
}


@pytest.mark.parametrize("ident_id", IDENTITY_IDS)
def test_case_order_pinned(ident_id):
    identity = REGISTRY[ident_id]
    digests = tuple(
        hashlib.sha256((repr(list(identity.cases(n))) + identity.describe_range(n)).encode()).hexdigest()
        for n in (1, 9)
    )
    assert digests == CASES_SHA256[ident_id]


@pytest.mark.parametrize("ident_id", IDENTITY_IDS)
def test_cases_are_in_lexicographic_order(ident_id):
    cases = list(REGISTRY[ident_id].cases(8))
    assert cases == sorted(cases)
