import hashlib
import json
import math
import os
import sys
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import stirbess
from stirbess.cli import main
from stirbess.occupation import (
    SimConfig,
    _horizon_counts,
    _intervals,
    _map_blocks,
    _power_sums,
    _summarize,
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
        # isqrt(10**8) * (149_000 + 1000) is exactly the limit of 1.5 * 10**9 path-rounds
        SimConfig(alpha=0.5, steps=10**8, paths=149_000, max_moment=1, seed=1)
        with pytest.raises(ValueError, match="about a minute"):
            SimConfig(alpha=0.5, steps=10**8, paths=149_001, max_moment=1, seed=1)
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

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_block_sums_add_up_to_the_summary_of_all_counts(self, monkeypatch, jobs):
        # 1300 paths in blocks of 512: the last block is short
        monkeypatch.setattr("stirbess.occupation.BATCH_PATHS", 512)
        config = SimConfig(alpha=0.42, steps=301, paths=1300, max_moment=3, seed=11)
        inner, full = _horizon_counts(config, (200, 301), jobs=1)
        expected = (_summarize(full, config, Fraction(1)), _summarize(inner, config, Fraction(2, 3)))
        assert repr(estimate_moments_at(config, (1, Fraction(2, 3)), jobs)) == repr(expected)

    def test_estimates_hold_no_concatenated_counts(self, monkeypatch):
        def concatenated(*args):
            raise AssertionError("gathered every path's count")

        monkeypatch.setattr("stirbess.occupation._horizon_counts", concatenated)
        full, half = estimate_moments_at(self.CONFIG, (1, Fraction(1, 2)))
        assert full.paths_used == half.paths_used == self.CONFIG.paths

    def test_blocks_run_as_they_are_read(self, monkeypatch):
        # at one worker a block runs only once the one before it is read, so
        # the moment estimates hold one block's sums at a time
        monkeypatch.setattr("stirbess.occupation.BATCH_PATHS", 1024)
        ran = []
        blocks = _map_blocks(lambda *blk: ran.append(blk[4]) or blk[2], self.CONFIG, (301,), 1)
        assert next(blocks) == 1024 and ran == [0]
        assert list(blocks) == [1024, 952] and ran == [0, 1, 2]

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


class TestKernelPinned:
    """The walk kernel's counts, byte for byte: a rewrite of ``_walk_counts``
    must draw the same stream and give the same counts at every horizon,
    inner horizons 0 and 1 and a last block of 5 paths included."""

    DIGESTS = [
        (0.3, (301,), 5, 11, "3e20e287e726b77df31b5b86d7eef71312d35c376c8d4d02ef292a14d6eea72f"),
        (0.3, (301,), 5, 29, "0d483b166a116fa7a6ba42728ceac2e196fb2883d18d9f0c3694421fc850562d"),
        (0.3, (301,), 4096, 11, "504c836c06fd75662dbc8993eb42c232329076919b32cf6be86f9a3ecf0ece3f"),
        (0.3, (301,), 4096, 29, "cd0af2536d820dc4d241c24a0a851b651eb7802ce64eb3654b818664fdb5a150"),
        (0.3, (0, 1, 7, 150, 300, 301), 5, 11, "a41b5d312b37bf3d6a46e774bac1fc263fa5a2cd1662943f1e0387954c1be254"),
        (0.3, (0, 1, 7, 150, 300, 301), 5, 29, "11e1c76034a2e8476320340d9c568fed823ce63697207e42d301226e6e7cb5e9"),
        (0.3, (0, 1, 7, 150, 300, 301), 4096, 11, "6723f254039ca193435aa67b77cd48a668750026a9296d72e2d9b285d54ea1f3"),
        (0.3, (0, 1, 7, 150, 300, 301), 4096, 29, "e00b357c2577e1230b896fbc9981b89257ad25cb68ba7bae81add27d9c57f60e"),
        (0.3, (2, 3), 5, 11, "94eeac7aa5d00285129efec29d4629393439291bd8e573cd311265b75b3f418c"),
        (0.3, (2, 3), 5, 29, "665f4687c5f895807bd3e43ff226f2493c51358dace62af74a23c371c5e9f123"),
        (0.3, (2, 3), 4096, 11, "8f2165e972764e2b9fa5fdfc1f3cb0383651cdfa7b227140ad476a8909321cdc"),
        (0.3, (2, 3), 4096, 29, "4cbfe33047a3a5cde39dc688b3da08c7406d73f27ee0a728c0fde128e8365d80"),
        (0.7, (301,), 5, 11, "353790c43dbef3a0965fd44b77fd8c719b100215a83cd4c6c0161c5070d33e02"),
        (0.7, (301,), 5, 29, "b002521cded169dfb326a6f109f7146101bc7d1e340ae548dff92f8552a3e444"),
        (0.7, (301,), 4096, 11, "18000701a56e99af9957f6239a1a320238a0a8df7b6b172c8e87a55ca03e7c30"),
        (0.7, (301,), 4096, 29, "f5ee1f74de477e8afea7b2c9153f0a088068135a98e97eb070d7e22571abee09"),
        (0.7, (0, 1, 7, 150, 300, 301), 5, 11, "0a7a178d7445f0d00d24c1661de9475d7011cfc75686470c2a16e22a65ca0c07"),
        (0.7, (0, 1, 7, 150, 300, 301), 5, 29, "775793bbc32d8b13a6f5e9ab4ea6bcb18cd1176d2e97d2b879022fc7b9b7b6b8"),
        (0.7, (0, 1, 7, 150, 300, 301), 4096, 11, "a4f82a333ab9356d5b573a12dc69b888043de1697046eb99b8c04946e2debd25"),
        (0.7, (0, 1, 7, 150, 300, 301), 4096, 29, "c71982155be7d681417859867c1acac301028649e61d0e9b9927a1eca68dae15"),
        (0.7, (2, 3), 5, 11, "41674e6b19a31d350cdea18b99b9a66b1f19c850ddfd6bbe3ff92916d90706ed"),
        (0.7, (2, 3), 5, 29, "cf80d318b18362612819ec35410bfa7d76bd24e9712a81c56ee7d59fb6d6258b"),
        (0.7, (2, 3), 4096, 11, "3de56d1ed8d8a27c439105f25722bf85d785f35e1f92d676846322acedc7ab6b"),
        (0.7, (2, 3), 4096, 29, "6507f4a03057c8d0a329a4a9267c99eeccc3b8a35b239b9ba8eea1f530561fcf"),
    ]

    @pytest.mark.parametrize("alpha, horizons, size, seed, digest", DIGESTS)
    def test_counts_digest(self, alpha, horizons, size, seed, digest):
        counts = _walk_counts(alpha, horizons, size, np.random.Generator(np.random.Philox(key=[seed, 0])))
        assert counts.dtype == np.int64 and counts.shape == (len(horizons), size)
        assert hashlib.sha256(counts.tobytes()).hexdigest() == digest


def test_seeds_from_two_to_the_63_keep_their_own_streams():
    # a key list with a seed >= 2**63 becomes float64: 2**63 + 1 rounds to 2**63, and
    # 2**64 - 1 overflows with a RuntimeWarning, which the suite turns into an error
    counts = [
        path_occupation_counts(SimConfig(alpha=0.3, steps=100, paths=1000, max_moment=1, seed=seed))
        for seed in (2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)
    ]
    assert not np.array_equal(counts[0], counts[1])
    assert not np.array_equal(counts[2], counts[3])


class TestPowerSums:
    def test_exact_near_two_to_the_53(self):
        counts = np.array([2**53, 0, 5, 5], dtype=np.int64)
        assert _power_sums(counts, 3) == [4, 2**53 + 10, 2**106 + 50, 2**159 + 250]

    def test_allocates_nothing_by_value(self):
        # a bin per value, as np.bincount makes, would be 2**53 bins here
        counts = np.array([2**53, 0, 5, 5], dtype=np.int64)
        tracemalloc.start()
        try:
            _power_sums(counts, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_any_order_gives_the_same_sums(self):
        counts = np.random.default_rng(5).integers(0, 40, size=3000)
        expected = [counts.size] + [sum(int(c) ** n for c in counts) for n in range(1, 7)]
        assert _power_sums(counts, 6) == _power_sums(np.sort(counts), 6) == expected

    def test_summarize_leaves_counts_unchanged(self):
        counts = np.array([7, 1, 4, 1, 0, 7], dtype=np.int64)
        config = SimConfig(alpha=0.5, steps=10, paths=6, max_moment=2, seed=1)
        result = _summarize(counts, config, Fraction(1))
        assert counts.tolist() == [7, 1, 4, 1, 0, 7]
        assert result.moments[0].empirical_mean == 20 / 60


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

    def test_float_time_fraction_refused(self):
        # t = 0.1 would run at its binary value 3602879701896397/2**55
        config = SimConfig(alpha=0.5, steps=10, paths=10, max_moment=1, seed=1)
        for run in (lambda: estimate_moments(config, t=0.5), lambda: estimate_moments_at(config, [1, 0.5]),
                    lambda: path_occupation_counts(config, 0.5)):
            with pytest.raises(ValueError, match="^t must be an int or Fraction, not the float 0.5"):
                run()

    def test_horizon_of_no_interval_refused(self):
        # floor(t * steps) = 0 leaves no interval to count
        config = SimConfig(alpha=0.5, steps=10, paths=1000, max_moment=1, seed=1)
        for t in (Fraction(1, 20), Fraction(99, 1000)):
            with pytest.raises(ValueError, match="covers no interval"):
                estimate_moments(config, t=t)
            with pytest.raises(ValueError, match="covers no interval"):
                path_occupation_counts(config, t)
        assert _intervals(config, Fraction(1, 10)) == 1

    def test_empty_times_refused_before_walking(self, monkeypatch):
        from stirbess import occupation

        def not_run(*args):
            raise AssertionError("walked only to refuse the call")

        monkeypatch.setattr(occupation, "_walk_counts", not_run)
        config = SimConfig(alpha=0.5, steps=10, paths=10, max_moment=1, seed=1)
        with pytest.raises(ValueError, match="times"):
            estimate_moments_at(config, ())


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


def _peak_rss_bytes(argv: list[str]) -> int:
    """Peak RSS of a fresh ``stirbess`` process running ``argv``."""
    path = [str(Path(stirbess.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    pid = os.posix_spawn(
        sys.executable,
        [sys.executable, "-m", "stirbess.cli", *argv],
        env,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
    )
    _, status, usage = os.wait4(pid, 0)
    assert os.waitstatus_to_exitcode(status) in (0, 1)  # 1: a z-score of the N = 16 limit bias
    return usage.ru_maxrss * (1 if sys.platform == "darwin" else 1024)  # bytes on macOS, KiB elsewhere


@pytest.mark.skipif(not hasattr(os, "wait4") or not hasattr(os, "posix_spawn"), reason="needs os.wait4")
def test_simulate_memory_does_not_grow_with_paths():
    # one block's working set at a time: 62 blocks cost no more memory than 2
    base = "simulate --alpha 0.5 --steps 16 --moments 2 --jobs 1 --paths".split()
    small = _peak_rss_bytes(base + ["65536"])
    large = _peak_rss_bytes(base + ["2000000"])
    assert large - small < 8 * 2**20
