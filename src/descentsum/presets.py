"""Built-in weight schemes, stored as scheme text so loading exercises the parser."""

from __future__ import annotations

from .words import WeightScheme, load_scheme

__all__ = ["PRESETS", "preset_scheme"]

PRESETS: dict[str, str] = {
    # windows of length 3: no three consecutive ascents or descents
    "sec5-1": "m = 3\nwt aaa = 0\nwt bbb = 0\n",
    # windows of length 3: no descent flanked by ascents, no ascent flanked by descents
    "sec5-2": "m = 3\nwt aba = 0\nwt bab = 0\n",
    # double ascents forbidden, double descents counted twice
    "sec6": "m = 2\nwt aa = 0\nwt bb = 2\n",
    # every descent kills the permutation: only the identity survives
    "no-descents": "m = 1\nwt b = 0\n",
    # no ascent immediately followed by a descent
    "no-peaks": "m = 2\nwt ab = 0\n",
    # descents and ascents must alternate
    "alternating": "m = 2\nwt aa = 0\nwt bb = 0\n",
    # unweighted: alpha_n = n!
    "all-ones": "m = 2\n",
}


def preset_scheme(name: str) -> WeightScheme:
    """Load a built-in scheme by name; KeyError lists the valid names."""
    try:
        text = PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return load_scheme(text)
