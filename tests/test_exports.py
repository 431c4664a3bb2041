"""The package's public names: each resolves to its submodule's object."""

import importlib

import pytest

import stirbess

DEFINED_IN = {
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


def test_all_pinned():
    assert stirbess.__all__ == [
        "BiPoly", "IdentityReport", "SimConfig", "SimResult", "Triangles", "UniPoly",
        "bessel_B", "bessel_b", "bessel_poly", "binomial_int", "binomial_poly_upper", "binomial_rat",
        "chebyshev_t", "estimate_moments", "estimate_moments_at", "factorial", "falling_factorial_poly",
        "gs", "lah", "pn_closed_form", "pn_recurrence", "pn_skew_bm", "pn_via_chebyshev",
        "pn_z_minus2", "pn_z_one", "reverse_bessel_poly", "rising_factorial_poly", "run_suite",
        "stirling1", "stirling1_signed", "stirling2", "verify", "__version__",
    ]
    assert sorted(n for names in DEFINED_IN.values() for n in names) + ["__version__"] == stirbess.__all__


@pytest.mark.parametrize("module, name", [(m, n) for m, names in DEFINED_IN.items() for n in names])
def test_name_is_the_submodule_object(module, name):
    assert getattr(stirbess, name) is getattr(importlib.import_module(f"stirbess.{module}"), name)


@pytest.mark.parametrize("module", sorted(DEFINED_IN))
def test_submodule_names(module):
    submodule = importlib.import_module(f"stirbess.{module}")
    assert getattr(stirbess, module) is submodule


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from stirbess import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(stirbess.__all__)
    assert namespace["__version__"] == stirbess.__version__


def test_unknown_name():
    with pytest.raises(AttributeError, match="nosuch"):
        stirbess.nosuch
