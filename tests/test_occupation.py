import json
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from stirbess.cli import main
from stirbess.occupation import (
    SimConfig,
    _horizon_counts,
    _walk_counts,
    estimate_moments,
    estimate_moments_at,
    path_occupation_counts,
)


class TestSimConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0),
            dict(alpha=1.0),
            dict(alpha=1.5),
            dict(steps=0),
            dict(steps=2**53 + 1),
            dict(paths=0),
            dict(steps=2**53, paths=2),  # over a minute of walk kernel work
            dict(steps=10**4, paths=3 * 10**7),
            dict(steps=1, paths=2**25 + 1),  # over 800 MB of counts
            dict(max_moment=0),
            dict(seed=-1),
            dict(seed=2**64),
            dict(max_moment=101),  # the exact references cost about n^3 to build
        ],
    )
    def test_invalid(self, kwargs):
        base = dict(alpha=0.5, steps=10, paths=10, max_moment=2, seed=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SimConfig(**base)

    def test_kernel_cost_limit_is_inclusive(self):
        # isqrt(10**8) * (199_000 + 1000) is exactly the limit of 2 * 10**9 path-rounds
        SimConfig(alpha=0.5, steps=10**8, paths=199_000, max_moment=1, seed=1)
        with pytest.raises(ValueError, match="about a minute"):
            SimConfig(alpha=0.5, steps=10**8, paths=199_001, max_moment=1, seed=1)
        SimConfig(alpha=0.5, steps=1, paths=2**25, max_moment=1, seed=1)

    def test_moment_limit_is_inclusive(self):
        SimConfig(alpha=0.5, steps=10, paths=10, max_moment=100, seed=1)
        with pytest.raises(ValueError, match="max_moment"):
            SimConfig(alpha=0.5, steps=10, paths=10, max_moment=101, seed=1)


def _exact_joint_law(alpha: float, inner: int, steps: int) -> dict[tuple[int, int], Fraction]:
    """Exact joint law of the occupation counts after ``inner`` and after
    ``steps`` intervals of one walk, by DP over (position, count at
    ``inner``, count at ``steps``).

    Weights are integers over the common denominator den**steps, where
    Fraction(alpha) = num/den is the float's exact value, the one the
    kernel compares against.
    """
    a = Fraction(alpha)
    num, den = a.numerator, a.denominator  # den is a power of two, so even
    law = {(0, 0, 0): 1}
    for i in range(steps):
        nxt = defaultdict(int)
        for (pos, k_inner, k), w in law.items():
            up = num if pos == 0 else den // 2
            for new, q in ((pos + 1, up), (pos - 1, den - up)):
                nonnegative = pos + new > 0
                nxt[new, k_inner + (nonnegative and i < inner), k + nonnegative] += w * q
        law = nxt
    joint = defaultdict(int)
    for (_, k_inner, k), w in law.items():
        joint[k_inner, k] += w
    return {key: Fraction(w, den**steps) for key, w in joint.items()}


def _exact_count_pmf(alpha: float, steps: int) -> list[Fraction]:
    """Exact law of the occupation count after ``steps`` intervals."""
    pmf = [Fraction(0)] * (steps + 1)
    for (_, k), p in _exact_joint_law(alpha, steps, steps).items():
        pmf[k] += p
    return pmf


def _wilson_hilferty_z(observed, expected) -> float:
    """Chi-square goodness of fit, as a standard normal deviate.

    Consecutive values are pooled until each bin expects at least 5 paths.
    """
    bins, o_acc, e_acc = [], 0, 0.0
    for o, e in zip(observed, expected):
        o_acc, e_acc = o_acc + o, e_acc + e
        if e_acc >= 5.0:
            bins.append((o_acc, e_acc))
            o_acc, e_acc = 0, 0.0
    if e_acc > 0:
        o_last, e_last = bins.pop()
        bins.append((o_last + o_acc, e_last + e_acc))
    chi2 = sum((o - e) ** 2 / e for o, e in bins)
    df = len(bins) - 1
    c = 2.0 / (9.0 * df)
    return ((chi2 / df) ** (1.0 / 3.0) - (1.0 - c)) / math.sqrt(c)


class TestExactOracle:
    """The simulated counts follow the exact finite-N law of the lattice walk."""

    def test_pmf_sums_to_one_and_matches_mean(self):
        pmf = _exact_count_pmf(0.3, 12)
        assert sum(pmf) == 1
        # two-endpoint rule: E[K_N] = alpha * N exactly
        assert sum(k * p for k, p in enumerate(pmf)) == Fraction(0.3) * 12

    @pytest.mark.parametrize("alpha", [0.3, 0.8])
    @pytest.mark.parametrize("steps", [20, 21, 60])
    def test_histogram_matches_exact_law(self, alpha, steps):
        config = SimConfig(alpha=alpha, steps=steps, paths=20_000, max_moment=1, seed=101 + steps)
        self.assert_follows_exact_law(path_occupation_counts(config), alpha, steps)

    @pytest.mark.parametrize("alpha", [0.3, 0.8])
    @pytest.mark.parametrize("steps", [20, 21, 60])
    def test_t_horizon_histogram_matches_exact_law(self, alpha, steps):
        # the counts at t = 1/2 of a walk that runs on to t = 1
        config = SimConfig(alpha=alpha, steps=steps, paths=20_000, max_moment=1, seed=307 + steps)
        inner = steps // 2
        counts = _horizon_counts(config, (inner, steps), jobs=1)
        self.assert_follows_exact_law(counts[0], alpha, inner)

    @staticmethod
    def assert_follows_exact_law(counts, alpha, intervals):
        pmf = _exact_count_pmf(alpha, intervals)
        seen = np.bincount(counts, minlength=intervals + 1)
        assert seen.size == intervals + 1
        # no path lands on a count the walk cannot produce (odd counts at even N)
        assert all(pmf[k] > 0 for k in np.flatnonzero(seen))
        support = [k for k, p in enumerate(pmf) if p > 0]
        z = _wilson_hilferty_z([int(seen[k]) for k in support], [counts.size * float(pmf[k]) for k in support])
        assert abs(z) < 4.0

    @pytest.mark.parametrize("alpha, steps", [(0.3, 16), (0.8, 15)])
    def test_joint_histogram_matches_exact_law(self, alpha, steps):
        # both counts come from the same path: (K_t, K_1) follows the joint law
        paths = 20_000
        inner = steps // 2
        config = SimConfig(alpha=alpha, steps=steps, paths=paths, max_moment=1, seed=409 + steps)
        counts = _horizon_counts(config, (inner, steps), jobs=1)
        law = _exact_joint_law(alpha, inner, steps)
        seen = defaultdict(int)
        for pair in zip(*counts.tolist()):
            seen[pair] += 1
        assert set(seen) <= set(law)
        cells = sorted(law)
        z = _wilson_hilferty_z([seen[c] for c in cells], [paths * float(law[c]) for c in cells])
        assert abs(z) < 4.0

    def test_joint_law_marginals(self):
        law = _exact_joint_law(0.3, 6, 12)
        assert sum(law.values()) == 1
        for axis, intervals in ((0, 6), (1, 12)):
            marginal = defaultdict(Fraction)
            for key, p in law.items():
                marginal[key[axis]] += p
            assert [marginal[k] for k in range(intervals + 1)] == _exact_count_pmf(0.3, intervals)


class TestHorizons:
    """One walk gives the counts at every horizon."""

    CONFIG = SimConfig(alpha=0.42, steps=301, paths=3000, max_moment=2, seed=11)

    def test_counts_are_consistent_along_each_path(self):
        horizons = (0, 1, 7, 150, 300, 301)
        counts = _horizon_counts(self.CONFIG, horizons, jobs=1)
        assert counts.shape == (len(horizons), self.CONFIG.paths)
        assert (counts[0] == 0).all()
        for i in range(1, len(horizons)):
            gained = counts[i] - counts[i - 1]
            assert (gained >= 0).all() and (gained <= horizons[i] - horizons[i - 1]).all()
        # the last row is the single-horizon walk's count, draw for draw
        assert (counts[-1] == path_occupation_counts(self.CONFIG)).all()

    def test_same_across_workers(self, monkeypatch):
        monkeypatch.setattr("stirbess.occupation.BATCH_PATHS", 512)
        serial = _horizon_counts(self.CONFIG, (100, 301), jobs=1)
        assert (serial == _horizon_counts(self.CONFIG, (100, 301), jobs=3)).all()

    def test_estimates_in_the_order_asked(self):
        full, half, again = estimate_moments_at(self.CONFIG, (1, Fraction(1, 2), 1))
        assert full == again == estimate_moments(self.CONFIG)
        assert half.time_fraction == Fraction(1, 2)
        counts = _horizon_counts(self.CONFIG, (150, 301), jobs=1)[0]
        assert half.moments[0].empirical_mean == float(Fraction(int(counts.sum()), 3000 * 301))


class _ConstantRng:
    """Stands in for a Generator whose every uniform is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None, dtype=np.float64, out=None):
        if out is None:
            return np.full(size, self.value, dtype=dtype)
        out.fill(self.value)
        return out


class TestExtremeUniforms:
    @pytest.mark.parametrize("value", [0.0, np.nextafter(1.0, 0.0)])
    def test_counts_stay_in_range(self, value):
        for horizons in ((37,), (12, 37)):
            counts = _walk_counts(0.5, horizons, 5, _ConstantRng(value))
            assert counts.shape == (len(horizons), 5)
            for h, row in zip(horizons, counts.tolist()):
                assert all(0 <= c <= h for c in row)
                # the smallest uniforms send every path up, the largest down
                assert row == [h if value == 0.0 else 0] * 5


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
