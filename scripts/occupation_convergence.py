#!/usr/bin/env python3
"""Discretization study for the skew random-walk moment estimator.

Sweeps the walk length and reports, per moment order, the empirical mean,
the exact polynomial reference, the bias, and the z-score.  Under the
two-endpoint interval rule the first moment is exactly unbiased and the
higher moments show O(1/steps) bias, so the z columns should stay O(1)
all the way down the table.

Usage:
    python scripts/occupation_convergence.py --alpha 0.7 --paths 40000
"""

import argparse
import os

# numpy starts OpenBLAS with one thread per CPU when it loads, and the walk
# makes no BLAS call; the CLI entry point sets the same default
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from stirbess.occupation import SimConfig, estimate_moments  # noqa: E402  (after the default above)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--paths", type=int, default=40_000)
    ap.add_argument("--moments", type=int, default=4)
    ap.add_argument("--seed", type=int, default=424242)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument(
        "--steps-grid",
        type=int,
        nargs="+",
        default=[250, 500, 1000, 2000, 4000, 8000],
    )
    args = ap.parse_args()

    print(f"alpha={args.alpha}  paths={args.paths}  seed={args.seed}")
    header = f"{'steps':>7}  " + "  ".join(
        f"{'mean_' + str(n):>11} {'bias_' + str(n):>10} {'z_' + str(n):>7}" for n in range(1, args.moments + 1)
    )
    print(header)
    for steps in args.steps_grid:
        config = SimConfig(
            alpha=args.alpha, steps=steps, paths=args.paths, max_moment=args.moments, seed=args.seed
        )
        result = estimate_moments(config, jobs=args.jobs)
        cells = []
        for m in result.moments:
            bias = m.empirical_mean - float(m.exact_value)
            z = "n/a" if m.z_score is None else f"{m.z_score:+7.2f}"
            cells.append(f"{m.empirical_mean:>11.6f} {bias:>+10.6f} {z:>7}")
        print(f"{steps:>7}  " + "  ".join(cells))


if __name__ == "__main__":
    main()
