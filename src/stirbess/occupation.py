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
and the count at an earlier horizon h is read from the same excursions.  It
is written once per path, in the round whose excursion crosses h: the count
so far at the latest horizon, plus the crossing excursion's part below h if
positive.  So A_t and A_1 of ``simulate --t`` come from the same paths, and
the count at the latest horizon does not depend on which others are asked.

Memory: besides its counts, one row per horizon, a block's walk holds five
arrays of one entry per unfinished path: the path indices, the intervals
each has left to walk, the sign flags and two float scratch arrays.  The
uniforms, the excursion lengths and the gains all live in the scratch pair,
and the only temporaries of 8 bytes a path that a round makes are those of
moving the survivors to the front.

Determinism: paths are partitioned into fixed blocks of ``BATCH_PATHS``;
block b draws from a counter-based Philox stream keyed by (seed, b).  Each
block reduces its per-path lattice counts to exact integer power sums
[paths, sum(c), ..., sum(c^(2 * max_moment))] at each horizon, and each
block's sums are added to one running total as they arrive, in block order,
so the moments are exact functions of the counts.  A given ``SimConfig``
therefore produces bit-identical results regardless of the worker count,
and a process holds one block's counts at a time, however many paths there
are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .families import pn_skew_bm
from .polys import Rational, _rational_param

BATCH_PATHS = 32768

# Kernel cost model, measured on a shared 2-core host with Python 3.11.7 and
# numpy 2.4.6: a path of N steps walks about 0.8 sqrt(N) excursions, one a
# round, and a round costs about 43 ns per unfinished path plus 20-30 us of
# fixed numpy work, the cost of about 500 paths.  The guard counts
# isqrt(steps) * (paths + ROUND_OVERHEAD_PATHS): at 10**8 steps one block of
# 32768 paths took 11-13 s of CPU, 33-40 ns per unit, and 300 to 3000 paths
# 48-54 ns per unit, so MAX_PATH_ROUNDS units are 50-80 s, about a minute of
# one core.  MAX_PATHS bounds what path_occupation_counts holds however short
# the walk: every path's count, about 24 bytes per path with the
# concatenation, so near 800 MB.  The moment estimates hold one block's counts
# at a time.
ROUND_OVERHEAD_PATHS = 1000
MAX_PATH_ROUNDS = 15 * 10**8
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

    ``horizons`` is sorted.  The walk runs to the last (largest) horizon N, one
    excursion per unfinished path per round.  An excursion that starts at
    position pos = N - left and spans ``span`` intervals adds all of ``span``
    to the last row if positive.  It crosses a smaller horizon h when
    pos < h <= pos + span, that is left > N - h >= left - span; the row of h
    is written then, once per path, as the last row's count so far plus
    (h - pos) * positive.  Excursions before the crossing lie wholly below h
    and those after it wholly above, so this is the count at h.  No
    excursion crosses h = 0, whose row stays 0.

    Each round draws three uniforms per unfinished path (round-major, then
    uniform kind, then path): u gives W = sin^2(pi u / 2) ~ Beta(1/2, 1/2),
    v the geometric half-length T = ceil(log(1 - v) / log(1 - W)) >= 1,
    and the sign draw is positive iff it is below alpha.  The three are drawn
    by three ``rng.random`` calls of m values each, and a Generator hands out
    one stream in order, so they are the three rows that ``rng.random((3, m))``
    would fill.

    A block holds five arrays besides its counts: the unfinished paths'
    indices ``idx`` and intervals still to walk ``left``, the ``positive``
    flags, and two float scratch arrays a and b.  The m unfinished paths of a
    round occupy the first m entries of each, and every step writes with
    ``out=``, in the order of the expression in the comment above it, so each
    float is the one that expression gives; the survivors move to the front.
    """
    *inner, intervals = horizons
    occ = np.zeros((len(horizons), size), dtype=np.int64)
    *inner_rows, last = occ  # 1-D row views
    inner_rows = [(row, float(intervals - h)) for row, h in zip(inner_rows, inner)]  # N - h
    idx_buf = np.arange(size)
    left_buf = np.full(size, float(intervals))
    positive_buf = np.empty(size, dtype=bool)
    a_buf = np.empty(size)
    b_buf = np.empty(size)
    m = size
    while m:
        idx, left, positive, a, b = idx_buf[:m], left_buf[:m], positive_buf[:m], a_buf[:m], b_buf[:m]
        u = rng.random(out=a)
        v = rng.random(out=b)
        with np.errstate(divide="ignore", invalid="ignore"):  # W = 1 is log 0; u = v = 0 is 0/0
            # half = log1p(-v) / log1p(-sin(0.5 * pi * u) ** 2), written to b
            np.multiply(0.5 * np.pi, u, out=u)
            np.sin(u, out=u)
            np.square(u, out=u)
            np.negative(u, out=u)
            np.log1p(u, out=u)
            np.negative(v, out=v)
            np.log1p(v, out=v)
            half = np.divide(v, u, out=v)
        sign = rng.random(out=a)  # u is spent
        np.less(sign, alpha, out=positive)
        # Sibuya(1/2) has infinite mean, so clip while still a float; fmin
        # also sends the NaN of u = v = 0 (W = 0, so T is infinite) to the clip
        # span = minimum(2 * maximum(ceil(fmin(half, left)), 1), left), written to a
        span = np.fmin(half, left, out=a)
        np.ceil(span, out=span)
        np.maximum(span, 1.0, out=span)
        np.multiply(2.0, span, out=span)
        np.minimum(span, left, out=span)
        for row, past_h in inner_rows:
            # the paths with 0 < h - pos <= span: row = last + int((h - pos) * positive)
            to_h = np.subtract(left, past_h, out=b)  # h - pos, in b as half is spent
            crossing = np.flatnonzero((to_h > 0.0) & (to_h <= span))
            at = idx[crossing]
            row[at] = last[at] + (to_h[crossing] * positive[crossing]).astype(np.int64)
        # last[idx] += int(span * positive): the gain in b, then the counts so
        # far gathered into a once span is spent ("clip" takes straight into
        # out, where the default mode buffers it; every index is in range)
        gain = np.multiply(span, positive, out=b.view(np.int64), casting="unsafe")
        left -= span
        so_far = np.take(last, idx, out=a.view(np.int64), mode="clip")
        so_far += gain
        last[idx] = so_far
        keep = np.greater(left, 0.0, out=positive)
        m = np.count_nonzero(keep)
        idx_buf[:m] = idx[keep]
        left_buf[:m] = left[keep]
    return occ


def _block_counts(alpha: float, horizons: tuple[int, ...], size: int, seed: int, block: int) -> np.ndarray:
    key = np.array([seed, block], dtype=np.uint64)  # a list would turn a seed >= 2**63 into a float
    return _walk_counts(alpha, horizons, size, np.random.Generator(np.random.Philox(key=key)))


def _power_sums(counts: np.ndarray, top: int) -> list[int]:
    """[len(counts), sum(c), sum(c^2), ..., sum(c^top)] as exact integers.

    Read from the histogram: k counts equal to c add k * c^n to sum(c^n), so
    the work goes by distinct values, and nothing is allocated per value,
    however large."""
    sums = [int(counts.size)] + [0] * top
    values, multiplicities = np.unique(counts, return_counts=True)
    for c, p in zip(values.tolist(), multiplicities.tolist()):  # p counts equal c
        for n in range(1, top + 1):  # exact integers, one power at a time
            p *= c
            sums[n] += p
    return sums


def _block_sums(
    alpha: float, horizons: tuple[int, ...], size: int, seed: int, block: int, top: int
) -> list[list[int]]:
    """One block's ``_power_sums`` up to order ``top`` at each horizon: all a
    worker sends back, however many paths the block holds."""
    return [_power_sums(row, top) for row in _block_counts(alpha, horizons, size, seed, block)]


def _intervals(config: SimConfig, time_fraction: Rational) -> int:
    t = _rational_param("t", time_fraction)
    if not 0 < t <= 1:
        raise ValueError("time fraction t must lie in (0, 1]")
    intervals = math.floor(t * config.steps)
    if intervals < 1:
        raise ValueError(f"time fraction t = {t} covers no interval of a {config.steps}-step walk")
    return intervals


def _map_blocks(fn, config: SimConfig, horizons: tuple[int, ...], jobs: int, *extra) -> Iterator:
    """Yield ``fn(alpha, horizons, size, seed, block, *extra)`` for each block
    of ``BATCH_PATHS`` paths, the last possibly short, in block order."""
    blocks = [
        (config.alpha, horizons, min(BATCH_PATHS, config.paths - start), config.seed, b, *extra)
        for b, start in enumerate(range(0, config.paths, BATCH_PATHS))
    ]
    if jobs > 1 and len(blocks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(blocks))) as pool:
            yield from pool.map(fn, *zip(*blocks))
    else:
        yield from map(fn, *zip(*blocks))


def _horizon_counts(config: SimConfig, horizons: tuple[int, ...], jobs: int) -> np.ndarray:
    """Per-path counts for each of the sorted ``horizons``, one row each, in
    path order, from one walk per block."""
    return np.concatenate(list(_map_blocks(_block_counts, config, horizons, jobs)), axis=1)


def path_occupation_counts(
    config: SimConfig, time_fraction: Rational = 1, jobs: int = 1
) -> np.ndarray:
    """Per-path lattice occupation counts over the first
    floor(time_fraction * steps) intervals, in path order.  Unlike the
    moment estimates, this holds every path's count at once."""
    return _horizon_counts(config, (_intervals(config, time_fraction),), jobs)[0]


def _summarize(counts: np.ndarray, config: SimConfig, t: Fraction) -> SimResult:
    return _summary(_power_sums(counts, 2 * config.max_moment), config, t)


def _summary(power_sums: Sequence[int], config: SimConfig, t: Fraction) -> SimResult:
    """The moment estimates at time fraction t from the exact power sums
    [paths, sum(c), ..., sum(c^(2 * max_moment))] of the counts."""
    m_paths = power_sums[0]
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
    fractions = [_rational_param("t", t) for t in times]
    intervals = [_intervals(config, t) for t in fractions]
    horizons = tuple(sorted(set(intervals)))
    top = 2 * config.max_moment
    totals = [[0] * (top + 1) for _ in horizons]
    for block in _map_blocks(_block_sums, config, horizons, jobs, top):  # folded in block order, exact
        totals = [[a + b for a, b in zip(total, sums)] for total, sums in zip(totals, block)]
    return tuple(_summary(totals[horizons.index(i)], config, t) for i, t in zip(intervals, fractions))
