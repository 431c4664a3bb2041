import json
from fractions import Fraction

import pytest

from stirbess import triangles
from stirbess.cli import main
from stirbess.identities import (
    REGISTRY,
    IDENTITY_IDS,
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


def _corrupted_tables(n, k):
    tables = Triangles()
    tables.stirling1(max(n + 3, 10), 0)  # force rows to exist
    tri = tables._stirling1
    row = list(tri._rows[n])
    row[k] = -row[k]
    tri._rows[n] = tuple(row)
    return tables


class TestMutationSensitivity:
    def test_corrupted_value_is_detected(self):
        tables = _corrupted_tables(6, 3)
        reports = run_suite(10, "all", tables=tables, jobs=1)
        failed = [r for r in reports if not r.passed]
        assert failed, "corruption went unnoticed"
        for r in failed:
            assert r.counterexample is not None

    def test_counterexample_is_lexicographically_minimal(self):
        tables = _corrupted_tables(6, 3)
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

    def test_counterexample_reproduces_mismatch(self):
        tables = _corrupted_tables(6, 3)
        report = verify("inversion", 10, tables)
        ce = report.counterexample
        lhs, rhs = REGISTRY["inversion"].evaluate(ce.params, tables)
        assert str(lhs) == ce.lhs and str(rhs) == ce.rhs and lhs != rhs

    def test_clean_tables_unaffected(self):
        assert verify("inversion", 10).passed


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

    def test_counterexample_serialized(self, capsys, monkeypatch):
        monkeypatch.setattr(triangles, "DEFAULT", _corrupted_tables(6, 3))
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
