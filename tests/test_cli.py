import hashlib
import json
import re
import sys
from fractions import Fraction

import pytest

from stirbess import families, identities
from stirbess.cli import main
from stirbess.identities import Identity


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

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "stirling1", "--n", "5", "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2) + "\n" == out
        assert parsed["rows"][4] == [0, 6, 11, 6, 1]

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "bessel-B", "--n", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,value"
        assert "4,3,6" in lines


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
        _, out_a, _ = run_cli(capsys, "poly", "pn", "--n", "5", "--format", "json")
        _, out_b, _ = run_cli(capsys, "poly", "pn-closed", "--n", "5", "--format", "json")
        assert json.loads(out_a)["terms"] == json.loads(out_b)["terms"]

    def test_z_rejected_for_non_pn(self, capsys):
        code, _, err = run_cli(capsys, "poly", "chebyshev", "--n", "2", "--z", "1")
        assert code == 2 and "pn" in err

    def test_pn_requires_positive_n(self, capsys):
        code, _, _ = run_cli(capsys, "poly", "pn", "--n", "0")
        assert code == 2

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


class TestSimulate:
    def test_alpha_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--alpha", "1.5")
        assert code == 2 and "alpha" in err

    def test_steps_above_float_exact_range(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--alpha", "0.5", "--steps", str(2**53 + 1), "--paths", "10")
        assert code == 2 and out == "" and "steps" in err

    def test_t_out_of_range(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--alpha", "0.5", "--t", "0", "--steps", "10", "--paths", "10")
        assert code == 2

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
    def test_bessel_largest_printable_n(self, capsys, which):
        # 640 digits at n = 277: the early check lets it through and every coefficient prints
        code, out, err = self.run_at_lowest_limit(capsys, "poly", which, "--n", "277", "--format", "csv")
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 1 + 278

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_simulate(self, capsys, fmt):
        # the exact moment of order 60 at alpha = 0.3 has more than 640 digits
        args = ("simulate", "--alpha", "0.3", "--steps", "10", "--paths", "10", "--moments", "60",
                "--jobs", "1", "--format", fmt)
        self.assert_refused(*self.run_at_lowest_limit(capsys, *args))

    def test_limit_zero_means_no_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        code, out, _ = run_cli(capsys, "triangle", "stirling2", "--n", "3", "--format", "csv")
        assert code == 0 and out.splitlines()[-1] == "3,3,1"


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
    _SIM + " --t 1/2 --format table": "ea87aac87e567ea586ef1273d7f0920415baef34f8c6b38ac720f4ec201c02bf",
    _SIM + " --t 1/2 --format json": "2b3980ec6fb3e0200b54c2c6684e596738f123555a3f826dbea546927628c014",
    _SIM + " --t 1/2 --format csv": "74cab741c76af4a9158ffeaf3a2285d270d0cf7cbbdfae261822e618e092ab0c",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_golden_output(capsys, request, command):
    if "always-fails" in command:
        request.getfixturevalue("always_fails")  # registering it would change verify --all
    code, out, _ = run_cli(capsys, *command.split())
    assert code == (1 if "always-fails" in command else 0)
    out = re.sub(r"\(\d+\.\d ms\)", "(- ms)", out)
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[command]
