"""Weighted enumeration of permutations by consecutive descent patterns.

The package computes alpha_n, the sum over all permutations of length n of a
product of rational weights read off length-m windows of the descent word,
by three independent exact routes (brute force, insertion DP, operator
iteration) and analyzes the n -> infinity behavior through the spectrum of a
small transfer-matrix pair: alpha_n / n! is a finite combination of
lambda^(n-m) terms whose coefficients come from eigenfunction pairings.

Only words and presets, which define and name the schemes, load with the
package.  The names of exact, sec6, constants, expfun, linalg and spectral
resolve on first access (PEP 562), so the exact routes run without
importing numpy and the float routes without the exact oracles.  The
command line (descentsum.cli) loads the same two modules, and neither
numpy nor dataclasses; each command imports what it runs:

- oracle: exact, whichever of its three routes it runs;
- sequence: exact and sec6;
- spectrum: linalg and spectral;
- constants: constants, linalg and spectral;
- verify: those three and exact.

expfun, the ExpPoly calculus and the per-eigenvalue route to the constants
that the tests hold the array pass of constants to, is loaded by no
command.
"""

import importlib

from . import presets, words
from .presets import *
from .words import *

__version__ = "0.1.0"

# the names of each module that loads on first access: numpy comes in with
# linalg and spectral, and the numeric halves of constants and expfun reach
# them at call time
_LAZY_NAMES = {
    "exact": """BRUTE_FORCE_CAP WeightedCount alpha_by_operator_iteration
        brute_force_alpha brute_force_alpha_direct dp_alpha wt_of_permutation""",
    "sec6": """count_barred derangements double_descents genfun_coeffs
        nearest_integer_formula section6_recursion verify_genfun_equation""",
    "expfun": """ExpPoly PiecewiseFn adjoint_eigenfunction apply_J apply_operator
        constant_piecewise eigenfunction_pieces inner_products kappa_piecewise
        mu_piecewise polytope_integral scheme_constant""",
    "constants": "Asymptotics asymptotic_constant asymptotics predict_alpha",
    "linalg": "det gamma mat_exp nullspace_vector",
    "spectral": """SpectralPoint TransferPair build_transfer det_P eigenvalues
        is_simple top_eigenvalues""",
}
_LAZY = {name: mod for mod, names in _LAZY_NAMES.items() for name in names.split()}
_LAZY_MODULES = frozenset(_LAZY_NAMES)

__all__ = sorted({*presets.__all__, *words.__all__, *_LAZY})


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
