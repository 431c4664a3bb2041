"""Exact combinatorics of Stirling/Bessel number families.

Number triangles (Stirling first/second kind, Lah, Bessel, generalized
Stirling), exact bivariate moment polynomials and their classical slices,
a declarative identity verification suite, and a Monte Carlo cross-check
of skew Brownian motion occupation-time moments.
"""

from .exactnum import (
    binomial_int,
    binomial_poly_upper,
    binomial_rat,
    factorial,
    falling_factorial_poly,
    rising_factorial_poly,
)
from .families import (
    bessel_poly,
    chebyshev_t,
    pn_closed_form,
    pn_recurrence,
    pn_skew_bm,
    pn_via_chebyshev,
    pn_z_minus2,
    pn_z_one,
    reverse_bessel_poly,
)
from .identities import IdentityReport, run_suite, verify
from .polys import BiPoly, UniPoly
from .triangles import (
    Triangles,
    bessel_B,
    bessel_b,
    gs,
    lah,
    stirling1,
    stirling1_signed,
    stirling2,
)

__version__ = "0.1.0"

_OCCUPATION = ("SimConfig", "SimResult", "estimate_moments", "estimate_moments_at")


def __getattr__(name: str):
    # the simulation needs numpy, so it is imported only when asked for
    if name in _OCCUPATION:
        from . import occupation

        return getattr(occupation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BiPoly",
    "IdentityReport",
    "SimConfig",
    "SimResult",
    "Triangles",
    "UniPoly",
    "bessel_B",
    "bessel_b",
    "bessel_poly",
    "binomial_int",
    "binomial_poly_upper",
    "binomial_rat",
    "chebyshev_t",
    "estimate_moments",
    "estimate_moments_at",
    "factorial",
    "falling_factorial_poly",
    "gs",
    "lah",
    "pn_closed_form",
    "pn_recurrence",
    "pn_skew_bm",
    "pn_via_chebyshev",
    "pn_z_minus2",
    "pn_z_one",
    "reverse_bessel_poly",
    "rising_factorial_poly",
    "run_suite",
    "stirling1",
    "stirling1_signed",
    "stirling2",
    "verify",
    "__version__",
]
