"""Weighted enumeration of permutations by consecutive descent patterns.

The package computes alpha_n, the sum over all permutations of length n of a
product of rational weights read off length-m windows of the descent word,
by three independent exact routes (brute force, insertion DP, operator
iteration) and analyzes the n -> infinity behavior through the spectrum of a
small transfer-matrix pair: alpha_n / n! is a finite combination of
lambda^(n-m) terms whose coefficients come from eigenfunction pairings.

Only the exact, pure-Python modules (words, presets, exact) load with the
package.  The names of expfun, linalg and spectral resolve on first access
(PEP 562), so the exact routes run without importing numpy.  The command
line (descentsum.cli) loads the same exact modules, and neither numpy nor
dataclasses; expfun comes in with the commands that use it (spectrum,
constants, verify, and oracle when operator iteration is among its methods).
"""

import importlib

from . import exact, presets, words
from .exact import *
from .presets import *
from .words import *

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

__all__ = sorted({*exact.__all__, *presets.__all__, *words.__all__, *_LAZY})


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
