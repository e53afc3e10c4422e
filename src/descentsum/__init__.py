"""Weighted enumeration of permutations by consecutive descent patterns.

The package computes alpha_n, the sum over all permutations of length n of a
product of rational weights read off length-m windows of the descent word,
by three independent exact routes (brute force, insertion DP, operator
iteration) and analyzes the n -> infinity behavior through the spectrum of a
small transfer-matrix pair: alpha_n / n! is a finite combination of
lambda^(n-m) terms whose coefficients come from eigenfunction pairings.

Only the exact, pure-Python modules (words, presets, exact) load with the
package.  The names of expfun, linalg and spectral resolve on first access
(PEP 562), so the exact routes run without importing numpy.
"""

import importlib

from .exact import (
    BRUTE_FORCE_CAP,
    WeightedCount,
    brute_force_alpha,
    brute_force_alpha_direct,
    count_barred,
    derangements,
    double_descents,
    dp_alpha,
    genfun_coeffs,
    nearest_integer_formula,
    section6_recursion,
    verify_genfun_equation,
    wt_of_permutation,
)
from .presets import PRESETS, preset_scheme
from .words import (
    SchemeParseError,
    WeightScheme,
    all_words,
    descent_word,
    dump_scheme,
    is_symmetric,
    load_scheme,
    pattern_set,
    reverse_complement,
    standardize,
    symmetry_defect,
)

__version__ = "0.1.0"

# names whose modules load on first access: numpy comes in with linalg and
# spectral, and expfun's numeric half reaches them at call time
_LAZY = {
    **dict.fromkeys(
        (
            "Asymptotics",
            "ExpPoly",
            "PiecewiseFn",
            "adjoint_eigenfunction",
            "alpha_by_operator_iteration",
            "apply_J",
            "apply_operator",
            "asymptotic_constant",
            "asymptotics",
            "constant_piecewise",
            "eigenfunction_pieces",
            "inner_products",
            "kappa_piecewise",
            "letter_indicator",
            "mu_piecewise",
            "polytope_integral",
            "predict_alpha",
            "scheme_constant",
        ),
        "expfun",
    ),
    **dict.fromkeys(("det", "gamma", "mat_exp", "nullspace_vector"), "linalg"),
    **dict.fromkeys(
        (
            "SpectralPoint",
            "TransferPair",
            "build_transfer",
            "det_M_product_check",
            "det_P",
            "eigenvalues",
            "is_simple",
        ),
        "spectral",
    ),
}
_LAZY_MODULES = frozenset(_LAZY.values())

__all__ = [
    "Asymptotics",
    "BRUTE_FORCE_CAP",
    "ExpPoly",
    "PRESETS",
    "PiecewiseFn",
    "SchemeParseError",
    "SpectralPoint",
    "TransferPair",
    "WeightScheme",
    "WeightedCount",
    "adjoint_eigenfunction",
    "all_words",
    "alpha_by_operator_iteration",
    "apply_J",
    "apply_operator",
    "asymptotic_constant",
    "asymptotics",
    "brute_force_alpha",
    "brute_force_alpha_direct",
    "build_transfer",
    "constant_piecewise",
    "count_barred",
    "derangements",
    "descent_word",
    "det",
    "det_M_product_check",
    "det_P",
    "double_descents",
    "dp_alpha",
    "dump_scheme",
    "eigenfunction_pieces",
    "eigenvalues",
    "gamma",
    "genfun_coeffs",
    "inner_products",
    "is_simple",
    "is_symmetric",
    "kappa_piecewise",
    "letter_indicator",
    "load_scheme",
    "mat_exp",
    "mu_piecewise",
    "nearest_integer_formula",
    "nullspace_vector",
    "pattern_set",
    "polytope_integral",
    "predict_alpha",
    "preset_scheme",
    "reverse_complement",
    "scheme_constant",
    "section6_recursion",
    "standardize",
    "symmetry_defect",
    "verify_genfun_equation",
    "wt_of_permutation",
]


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_MODULES})
