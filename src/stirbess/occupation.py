"""Monte Carlo estimation of skew Brownian motion occupation-time moments
via a skew simple random walk.

Lattice construction (Harrison/Shepp): from state 0 the walk steps to +1
with probability alpha and to -1 otherwise; away from 0 it is a symmetric
simple walk.  This converges in law to a skew Brownian motion with
skewness alpha.  Scaling ``steps`` lattice steps onto the unit time
interval, the positive occupation time is estimated as

    A_1  ~  #{intervals on which the interpolated path is nonnegative} / steps,

where interval i counts iff S_i >= 0 and S_{i+1} >= 0 (state 0 itself is
nonnegative).  Under this two-endpoint rule an interval is nonnegative
exactly when the excursion containing it is positive, which happens with
probability alpha independently of the reflected walk, so
E[occupation fraction] = alpha with no discretization bias; counting left
endpoints alone would inflate the mean by roughly
(1 - alpha) * E[#visits to 0] / steps ~ steps^(-1/2), a multiple-sigma
systematic offset at the sample sizes used by the statistical checks.
Residual bias for higher moments is O(1/steps).

Excursion sampling: the walk is never simulated step by step.  It is a
sequence of independent excursions from 0.  Away from 0 it is symmetric,
so an excursion lasts 2T steps with P(T > k) = C(2k, k) / 4^k whatever its
sign, which is the Sibuya(1/2) law: a geometric whose success probability
W is Beta(1/2, 1/2).  The first step alone decides the sign, positive with
probability alpha.  The occupation count is therefore the total length of
the positive excursions, the last one cut at ``steps``; this is the step
walk's count exactly, not an approximation of it.  Each round draws one
excursion for every path that has not yet walked all its intervals, so a
walk of N steps takes about sqrt(N) rounds.  Only uniforms are drawn
(W = sin^2(pi u / 2), T by inversion), so no numpy sampling algorithm
enters the output; the draw order is round-major, not step-major.

One walk serves every time horizon: the walk runs to the latest horizon,
and the count at an earlier horizon h is read from the same excursions, each
cut at h.  So A_t and A_1 of ``simulate --t`` come from the same paths, and
the count at the latest horizon does not depend on which others are asked.

Determinism: paths are partitioned into fixed blocks of ``BATCH_PATHS``;
block b draws from a counter-based Philox stream keyed by (seed, b), and
moment accumulation is exact integer arithmetic on the per-path lattice
counts.  A given ``SimConfig`` therefore produces bit-identical results
regardless of the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .families import pn_skew_bm
from .polys import Rational

BATCH_PATHS = 32768

# Kernel cost model, measured on 2 cores with Python 3.11.7: a walk of N steps
# takes about sqrt(N) rounds, and a round costs about 27 ns per path plus
# about 27 us of fixed numpy work, the cost of ROUND_OVERHEAD_PATHS paths.
# MAX_PATH_ROUNDS of isqrt(steps) * (paths + ROUND_OVERHEAD_PATHS) is about a
# minute of one core.  The counts take about 24 bytes per path, so MAX_PATHS
# keeps them near 800 MB however short the walk.
ROUND_OVERHEAD_PATHS = 1000
MAX_PATH_ROUNDS = 2 * 10**9
MAX_PATHS = 2**25
# The exact references P_n(alpha, -1/2) at the float alpha and the power sums
# up to order 2n grow in digits with n, and building all n of them costs about
# n^3: a whole run at --moments 200 takes 1.2 s, at 400 over 6 s.
MAX_MOMENT = 100


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one moment-estimation run.

    alpha is the skewness (probability of a positive excursion), steps the
    walk length N, paths the number of independent walks, max_moment the
    largest moment order reported, seed the 64-bit RNG key.
    """

    alpha: float
    steps: int
    paths: int
    max_moment: int
    seed: int

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if self.steps > 2**53:  # the walk kernel's float path lengths are exact up to here
            raise ValueError("steps must be at most 2**53")
        if self.paths < 1:
            raise ValueError("paths must be positive")
        if self.paths > MAX_PATHS:
            raise ValueError("paths must be at most 2**25")
        if math.isqrt(self.steps) * (self.paths + ROUND_OVERHEAD_PATHS) > MAX_PATH_ROUNDS:
            raise ValueError(
                f"isqrt(steps) * (paths + {ROUND_OVERHEAD_PATHS}) must be at most {MAX_PATH_ROUNDS}, "
                "about a minute of walk kernel work"
            )
        if not 1 <= self.max_moment <= MAX_MOMENT:
            raise ValueError(f"max_moment must lie between 1 and {MAX_MOMENT}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class MomentEstimate:
    n: int
    empirical_mean: float
    standard_error: float | None  # None when paths < 2 or the sample is degenerate
    exact_value: Fraction
    z_score: float | None


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    time_fraction: Fraction
    moments: tuple[MomentEstimate, ...]
    paths_used: int


def _walk_counts(alpha: float, horizons: tuple[int, ...], size: int, rng: np.random.Generator) -> np.ndarray:
    """Occupation counts of ``size`` paths driven by one stream, one row per
    horizon: row i counts the nonnegative intervals among the first
    ``horizons[i]``.  One walk serves every horizon.

    ``horizons`` is sorted.  The walk runs to the last (largest) horizon, one
    excursion per unfinished path per round; an excursion that starts at
    position pos and spans ``span`` intervals adds clip(h - pos, 0, span) to
    the row of each smaller horizon h, and all of ``span`` to the last row.

    Each round draws three uniforms per unfinished path (round-major, then
    uniform kind, then path): u gives W = sin^2(pi u / 2) ~ Beta(1/2, 1/2),
    v the geometric half-length T = ceil(log(1 - v) / log(1 - W)) >= 1,
    and the sign draw is positive iff it is below alpha.
    """
    *inner, intervals = horizons
    occ = np.zeros((len(horizons), size), dtype=np.int64)
    *inner_rows, last = occ  # 1-D row views: occ[-1, idx] += ... costs about 10 % more
    idx = np.arange(size)
    left = np.full(size, float(intervals))
    while idx.size:
        u, v, sign = rng.random((3, idx.size))
        with np.errstate(divide="ignore", invalid="ignore"):  # W = 1 is log 0; u = v = 0 is 0/0
            half = np.log1p(-v) / np.log1p(-np.sin(0.5 * np.pi * u) ** 2)
        # Sibuya(1/2) has infinite mean, so clip while still a float; fmin
        # also sends the NaN of u = v = 0 (W = 0, so T is infinite) to the clip
        span = np.minimum(2.0 * np.maximum(np.ceil(np.fmin(half, left)), 1.0), left)
        positive = sign < alpha
        for row, h in zip(inner_rows, inner):
            row[idx] += (np.clip(h - (intervals - left), 0.0, span) * positive).astype(np.int64)
        last[idx] += (span * positive).astype(np.int64)
        left -= span
        keep = left > 0
        idx, left = idx[keep], left[keep]
    return occ


def _block_counts(alpha: float, horizons: tuple[int, ...], size: int, seed: int, block: int) -> np.ndarray:
    return _walk_counts(alpha, horizons, size, np.random.Generator(np.random.Philox(key=[seed, block])))


def _intervals(config: SimConfig, time_fraction: Rational) -> int:
    t = Fraction(time_fraction)
    if not 0 < t <= 1:
        raise ValueError("time fraction must lie in (0, 1]")
    return math.floor(t * config.steps)


def _horizon_counts(config: SimConfig, horizons: tuple[int, ...], jobs: int) -> np.ndarray:
    """Per-path counts for each of the sorted ``horizons``, one row each, in
    path order, from one walk per block."""
    blocks = []
    start = 0
    b = 0
    while start < config.paths:
        size = min(BATCH_PATHS, config.paths - start)
        blocks.append((config.alpha, horizons, size, config.seed, b))
        start += size
        b += 1
    if jobs > 1 and len(blocks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(blocks))) as pool:
            parts = list(pool.map(_block_counts, *zip(*blocks)))
    else:
        parts = [_block_counts(*blk) for blk in blocks]
    return np.concatenate(parts, axis=1)


def path_occupation_counts(
    config: SimConfig, time_fraction: Rational = 1, jobs: int = 1
) -> np.ndarray:
    """Per-path lattice occupation counts over the first
    floor(time_fraction * steps) intervals, in path order."""
    return _horizon_counts(config, (_intervals(config, time_fraction),), jobs)[0]


def _summarize(counts: np.ndarray, config: SimConfig, t: Fraction) -> SimResult:
    m_paths = int(counts.size)
    top = 2 * config.max_moment
    power_sums = [0] * (top + 1)
    values, multiplicities = np.unique(counts, return_counts=True)
    for c, m in zip(values.tolist(), multiplicities.tolist()):  # exact integers
        p = m
        for n in range(1, top + 1):
            p *= c
            power_sums[n] += p
    alpha_exact = Fraction(config.alpha)
    steps = Fraction(config.steps)
    records = []
    for n in range(1, config.max_moment + 1):
        mean = Fraction(power_sums[n], m_paths) / steps**n
        exact = t**n * pn_skew_bm(n)(alpha_exact)
        stderr = None
        z = None
        if m_paths >= 2:
            second = Fraction(power_sums[2 * n], m_paths) / steps ** (2 * n)
            variance = (second - mean * mean) * Fraction(m_paths, m_paths - 1)
            if variance > 0:
                stderr = math.sqrt(variance / m_paths)
                z = (float(mean) - float(exact)) / stderr
        records.append(
            MomentEstimate(
                n=n,
                empirical_mean=float(mean),
                standard_error=stderr,
                exact_value=exact,
                z_score=z,
            )
        )
    return SimResult(config=config, time_fraction=t, moments=tuple(records), paths_used=m_paths)


def estimate_moments(config: SimConfig, t: Rational = 1, jobs: int = 1) -> SimResult:
    """Empirical moments E[A_t^n] for n = 1..max_moment, each path truncated
    at fraction t of its steps, against the exact references t^n P_n(alpha, -1/2),
    with standard errors and z-scores."""
    return estimate_moments_at(config, (t,), jobs)[0]


def estimate_moments_at(config: SimConfig, times: Sequence[Rational], jobs: int = 1) -> tuple[SimResult, ...]:
    """``estimate_moments`` at each time fraction in ``times``, in that order,
    all read from one walk of the paths up to the latest of them."""
    fractions = [Fraction(t) for t in times]
    intervals = [_intervals(config, t) for t in fractions]
    horizons = tuple(sorted(set(intervals)))
    counts = _horizon_counts(config, horizons, jobs)
    return tuple(_summarize(counts[horizons.index(i)], config, t) for i, t in zip(intervals, fractions))
