import json
from fractions import Fraction

import numpy as np
import pytest

from stirbess.cli import main
from stirbess.occupation import (
    SimConfig,
    estimate_moments,
    path_occupation_counts,
    simulate_skew_walk,
)


def _rng(seed=7):
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


class TestSimConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0),
            dict(alpha=1.0),
            dict(alpha=1.5),
            dict(steps=0),
            dict(paths=0),
            dict(max_moment=0),
            dict(seed=-1),
            dict(seed=2**64),
        ],
    )
    def test_invalid(self, kwargs):
        base = dict(alpha=0.5, steps=10, paths=10, max_moment=2, seed=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SimConfig(**base)


class TestSinglePath:
    def test_reproducible_bit_for_bit(self):
        a = simulate_skew_walk(0.37, 500, _rng())
        b = simulate_skew_walk(0.37, 500, _rng())
        assert a == b
        assert isinstance(a, Fraction)

    def test_fraction_in_unit_interval(self):
        for seed in range(5):
            f = simulate_skew_walk(0.5, 200, _rng(seed))
            assert 0 <= f <= 1
            assert f.denominator in (1, 2, 4, 5, 8, 10, 20, 25, 40, 50, 100, 200)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            simulate_skew_walk(1.2, 10, _rng())
        with pytest.raises(ValueError):
            simulate_skew_walk(0.5, 0, _rng())


class TestEstimateMoments:
    def test_deterministic_across_runs_and_workers(self):
        config = SimConfig(alpha=0.42, steps=300, paths=3000, max_moment=3, seed=11)
        first = estimate_moments(config, jobs=1)
        second = estimate_moments(config, jobs=1)
        third = estimate_moments(config, jobs=3)
        assert first == second == third

    def test_worker_independence_spans_blocks(self, monkeypatch):
        # shrink the block size so the run really is split across streams
        monkeypatch.setattr("stirbess.occupation.BATCH_PATHS", 512)
        config = SimConfig(alpha=0.61, steps=150, paths=2000, max_moment=2, seed=29)
        serial = estimate_moments(config, jobs=1)
        parallel = estimate_moments(config, jobs=4)
        assert serial == parallel

    def test_moments_non_increasing(self):
        config = SimConfig(alpha=0.6, steps=400, paths=2000, max_moment=5, seed=3)
        result = estimate_moments(config)
        means = [m.empirical_mean for m in result.moments]
        assert all(0.0 <= m <= 1.0 for m in means)
        assert all(a >= b for a, b in zip(means, means[1:]))

    def test_exact_references_at_one_half(self):
        config = SimConfig(alpha=0.5, steps=50, paths=10, max_moment=4, seed=1)
        result = estimate_moments(config)
        exacts = [m.exact_value for m in result.moments]
        assert exacts == [Fraction(1, 2), Fraction(3, 8), Fraction(5, 16), Fraction(35, 128)]

    def test_extreme_skewness_pins_walk_positive(self):
        config = SimConfig(alpha=0.999, steps=10_000, paths=1000, max_moment=1, seed=5)
        result = estimate_moments(config)
        assert result.moments[0].empirical_mean > 0.95

    def test_statistical_agreement_small(self):
        config = SimConfig(alpha=0.3, steps=2500, paths=20_000, max_moment=4, seed=17)
        result = estimate_moments(config)
        for m in result.moments:
            assert m.z_score is not None and abs(m.z_score) < 5.0

    def test_single_path_has_no_stderr(self):
        config = SimConfig(alpha=0.5, steps=100, paths=1, max_moment=2, seed=9)
        result = estimate_moments(config)
        for m in result.moments:
            assert m.standard_error is None
            assert m.z_score is None

    def test_mean_is_exact_average_of_counts(self):
        config = SimConfig(alpha=0.72, steps=100, paths=500, max_moment=1, seed=23)
        counts = path_occupation_counts(config)
        result = estimate_moments(config)
        expected = Fraction(int(np.sum(counts)), 500 * 100)
        assert result.moments[0].empirical_mean == float(expected)

    def test_occupation_fraction_symmetric_at_one_half(self):
        # sign-flip symmetry: counts above and below steps/2 balance
        config = SimConfig(alpha=0.5, steps=2000, paths=10_000, max_moment=1, seed=31)
        counts = path_occupation_counts(config)
        p_hat = float(np.mean(counts > config.steps // 2))
        assert abs(p_hat - 0.5) < 0.03  # 5 sigma is 0.025, plus tie mass


class TestSelfSimilarity:
    def test_t_one_matches_estimate(self):
        config = SimConfig(alpha=0.35, steps=250, paths=1500, max_moment=3, seed=13)
        a = estimate_moments(config)
        b = estimate_moments(config, t=1)
        assert a == b

    def test_exact_reference_scales(self):
        config = SimConfig(alpha=0.5, steps=200, paths=100, max_moment=2, seed=2)
        result = estimate_moments(config, t=Fraction(1, 2))
        assert result.moments[0].exact_value == Fraction(1, 4)  # t * P_1(1/2)

    def test_reference_value_quarter_t(self):
        config = SimConfig(alpha=0.7, steps=200, paths=100, max_moment=2, seed=2)
        result = estimate_moments(config, t=Fraction(1, 4))
        a = Fraction(0.7)
        expected = Fraction(1, 16) * (a + a * a) / 2
        assert result.moments[1].exact_value == expected
        assert abs(float(expected) - 0.0371875) < 1e-12

    def test_statistical_agreement(self):
        config = SimConfig(alpha=0.5, steps=2000, paths=20_000, max_moment=2, seed=19)
        result = estimate_moments(config, t=Fraction(1, 2))
        for m in result.moments:
            assert abs(m.z_score) < 5.0

    def test_domain_errors(self):
        config = SimConfig(alpha=0.5, steps=10, paths=10, max_moment=1, seed=1)
        with pytest.raises(ValueError):
            estimate_moments(config, t=0)
        with pytest.raises(ValueError):
            estimate_moments(config, t=Fraction(3, 2))


class TestSerialization:
    ARGS = ["simulate", "--alpha", "0.5", "--steps", "100", "--paths", "200", "--moments", "2", "--seed", "4",
            "--jobs", "1", "--format"]

    def _output(self, capsys, fmt):
        assert main(self.ARGS + [fmt]) == 0
        return capsys.readouterr().out

    def test_json_round_trip(self, capsys):
        text = self._output(capsys, "json")
        parsed = json.loads(text)
        assert json.dumps(parsed, indent=2) + "\n" == text
        assert parsed["config"]["seed"] == 4
        assert parsed["time_fraction"] == "1"
        assert len(parsed["moments"]) == 2
        first = parsed["moments"][0]
        assert set(first) == {"n", "empirical_mean", "standard_error", "exact", "exact_float", "z_score"}
        assert first["exact"] == "1/2"

    def test_csv_shape(self, capsys):
        lines = self._output(capsys, "csv").strip().splitlines()
        assert lines[0] == "n,empirical_mean,stderr,exact,z_score"
        assert len(lines) == 3

    def test_dict_exactness_boundary(self, capsys):
        moment = json.loads(self._output(capsys, "json"))["moments"][0]
        # exact values travel as strings; floats only at the comparison boundary
        assert isinstance(moment["exact"], str)
        assert isinstance(moment["empirical_mean"], float)
