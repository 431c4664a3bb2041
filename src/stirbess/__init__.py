"""Exact combinatorics of Stirling/Bessel number families.

Number triangles (Stirling first/second kind, Lah, Bessel, generalized
Stirling), exact bivariate moment polynomials and their classical slices,
a declarative identity verification suite, and a Monte Carlo cross-check
of skew Brownian motion occupation-time moments.

Each module is loaded the first time one of its names is used, so
``import stirbess`` loads none of them; only the simulation (``occupation``)
loads numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "exactnum": ("binomial_int", "binomial_poly_upper", "binomial_rat", "factorial",
                 "falling_factorial_poly", "rising_factorial_poly"),
    "families": ("bessel_poly", "chebyshev_t", "pn_closed_form", "pn_recurrence", "pn_skew_bm",
                 "pn_via_chebyshev", "pn_z_minus2", "pn_z_one", "reverse_bessel_poly"),
    "identities": ("IdentityReport", "run_suite", "verify"),
    "occupation": ("SimConfig", "SimResult", "estimate_moments", "estimate_moments_at"),
    "polys": ("BiPoly", "UniPoly"),
    "triangles": ("Triangles", "bessel_B", "bessel_b", "gs", "lah", "stirling1", "stirling1_signed",
                  "stirling2"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
