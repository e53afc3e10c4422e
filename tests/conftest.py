"""Shared fixtures: preset schemes and their spectra, computed once per session."""

import pytest

from descentsum import asymptotics, preset_scheme

PRESET_NAMES = (
    "sec5-1",
    "sec5-2",
    "sec6",
    "no-descents",
    "no-peaks",
    "alternating",
    "all-ones",
)

SYMMETRIC_PRESETS = (
    "sec5-1",
    "sec5-2",
    "sec6",
    "no-descents",
    "alternating",
    "all-ones",
)


def full_spectrum(scheme):
    """Every eigenvalue with |lambda| > 0.05, sorted by descending modulus."""
    analysis = asymptotics(scheme, 0.05)
    return analysis.pair, analysis.points


@pytest.fixture(scope="session")
def schemes():
    return {name: preset_scheme(name) for name in PRESET_NAMES}


@pytest.fixture(scope="session")
def spectra(schemes):
    """(pair, points) per preset with a nonempty spectrum."""
    out = {}
    for name in ("sec5-1", "sec5-2", "sec6", "alternating", "all-ones"):
        out[name] = full_spectrum(schemes[name])
    return out
