"""Run the eigenvalue finder over a fixed set of schemes and record its work.

Per scheme it records the evaluations of f'/f (the points at which
spectral._log_derivative is called, on circles and in Newton steps), how
many of them went to circles that never settle (``unsettled``) and to
Newton steps (``newton``), the circles sampled (radius > 0), how many of
them settled at each number of points (``settled``, keyed by the points
as a string), the modulus above which the list is certified complete
(r_min, or the modulus a warning names), the eigenvalues, the warnings and
the wall time.  The schemes: the presets at r_min = 0.05; the no-runs
schemes at m = 5 (0.05), 6 and 7 (0.1); alternating permutations read
through windows of length 5, each window weighted 3/4, 1 and 5/4 (0.05);
60 random schemes at 0.05 (random.Random(11), m = randint(2, 4), each
window weight drawn from RANDOM_WEIGHTS in the order of all_words(m)); and,
at 0.05, draws 233 and 740 of the same generator with m = randint(1, 5),
two m = 4 schemes whose block basis of A - B has cond(W) > 2e4, so that
``compare`` watches the contour kernel through an ill-conditioned basis.

    python tools/finder_sweep.py run OUT.json [--only NAME ...]
    python tools/finder_sweep.py compare OLD.json NEW.json

``run`` imports descentsum from the interpreter's path, so
``PYTHONPATH=src`` sweeps this checkout and ``PYTHONPATH=<other>/src``
another one; it ends with the settle histogram of the whole run: the
circles settled at each number of points, and the evaluations on circles
that never settled.  ``compare`` prints both records per scheme, the
totals and the settle histograms of both files, names the schemes whose
eigenvalue list changed (another count, or a value of either list farther
than SHIFT_TOL relative from the nearest of the other) with the values
found in only one of the two lists, names those whose warnings changed,
and exits 1 when a certified bound is worse (larger) in NEW.  A record
written before ``unsettled``, ``newton`` or ``settled`` were kept has no
total or histogram of them, which ``compare`` prints as -.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

RANDOM_WEIGHTS = ["0", "1", "-1", "2", "3", "1/2", "-1/2"]
SHIFT_TOL = 1e-10
_BOUND = re.compile(r"complete only for \|lambda\| > ([0-9.eE+-]+),")


def schemes() -> dict[str, tuple[object, float]]:
    """name -> (scheme, r_min), in sweep order."""
    from descentsum import PRESETS, WeightScheme, all_words, preset_scheme

    out = {name: (preset_scheme(name), 0.05) for name in PRESETS}
    for m, r_min in ((5, 0.05), (6, 0.1), (7, 0.1)):
        out[f"no-runs-{m}"] = (WeightScheme(m, {"a" * m: 0, "b" * m: 0}), r_min)
    for c in ("3/4", "1", "5/4"):
        alternates = lambda w: all(w[i] != w[i + 1] for i in range(4))
        weights = {w: Fraction(c) if alternates(w) else 0 for w in all_words(5)}
        out[f"alternating-5x{c}"] = (WeightScheme(5, weights), 0.05)
    rng = random.Random(11)
    for i in range(60):
        m = rng.randint(2, 4)
        weights = {w: Fraction(rng.choice(RANDOM_WEIGHTS)) for w in all_words(m)}
        out[f"random-{i:02}"] = (WeightScheme(m, weights), 0.05)
    rng = random.Random(11)
    for i in range(741):
        m = rng.randint(1, 5)
        weights = {w: Fraction(rng.choice(RANDOM_WEIGHTS)) for w in all_words(m)}
        if i in (233, 740):
            out[f"ill-conditioned-{i}"] = (WeightScheme(m, weights), 0.05)
    return out


@contextmanager
def _counting(spectral, counts: dict):
    """Counts the f'/f evaluations and the circles of spectral's finder, the
    evaluations on circles that never settle and in Newton steps, and, in
    ``settled``, how many circles settled at each number of points."""
    log_derivative, circle, polish = (
        spectral._log_derivative, spectral._Circle, spectral._polish
    )
    circles = []

    def counted(pair, zs):
        counts["evaluations"] += len(zs)
        return log_derivative(pair, zs)

    class Counted(circle):
        def __init__(self, pair, radius, *args, **kwargs):
            self.spent = 0  # evaluations on this circle, resumed ones too
            circles.append(self)
            super().__init__(pair, radius, *args, **kwargs)

        def _sample(self, pair, j, n):
            self.spent += len(j)
            super()._sample(pair, j, n)

    def newton(*args):
        before = counts["evaluations"]
        try:
            return polish(*args)
        finally:
            counts["newton"] += counts["evaluations"] - before

    spectral._log_derivative, spectral._Circle, spectral._polish = (
        counted, Counted, newton
    )
    try:
        yield
    finally:
        spectral._log_derivative, spectral._Circle, spectral._polish = (
            log_derivative, circle, polish
        )
        sampled = [c for c in circles if c.radius > 0]
        counts["circles"] += len(sampled)
        counts["unsettled"] += sum(c.spent for c in sampled if c.count is None)
        for c in sampled:
            if c.count is not None:
                key = str(round(1 / c.weight.min()))  # its points; 1/n on the axis
                counts["settled"][key] = counts["settled"].get(key, 0) + 1


def sweep_one(scheme, r_min: float) -> dict:
    """The finder's record on one scheme."""
    import descentsum.spectral as spectral

    counts = {
        "evaluations": 0, "unsettled": 0, "newton": 0, "circles": 0, "settled": {}
    }
    pair = spectral.build_transfer(scheme)
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught, _counting(spectral, counts):
        warnings.simplefilter("always")
        points = spectral.eigenvalues(pair, r_min)
    seconds = time.perf_counter() - start
    messages = [str(w.message) for w in caught]
    bounds = [float(hit.group(1)) for msg in messages if (hit := _BOUND.search(msg))]
    return {
        "r_min": r_min,
        **counts,
        "bound": bounds[0] if bounds else r_min,
        "eigenvalues": [[p.lam.real, p.lam.imag] for p in points],
        "warnings": messages,
        "seconds": round(seconds, 4),
    }


def run(path: str, only: list[str] | None) -> int:
    table = schemes()
    unknown = set(only or ()) - set(table)
    if unknown:
        print(f"unknown scheme names: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    records = {}
    for name, (scheme, r_min) in table.items():
        if only is None or name in only:
            records[name] = sweep_one(scheme, r_min)
            rec = records[name]
            print(f"{name:22} {rec['evaluations']:7} evaluations "
                  f"({rec['unsettled']} unsettled, {rec['newton']} newton) "
                  f"{rec['circles']:4} circles  bound {rec['bound']:.6g}  "
                  f"{len(rec['eigenvalues']):3} eigenvalues  {rec['seconds']:.3f} s")
    print(f"settled at points: {_histogram(records, list(records))}")
    with open(path, "w") as f:
        json.dump(records, f, indent=1)
    return 0


def _gaps(xs: list[complex], ys: list[complex]) -> list[float]:
    """Per value of xs, its relative distance to the nearest value of ys."""
    return [min((abs(x - y) for y in ys), default=math.inf) / abs(x) for x in xs]


def _max_shift(old: list, new: list) -> float:
    """Largest relative distance from a value of either list to the nearest
    of the other, so that a value that vanishes is seen even when a
    near-duplicate takes its place."""
    olds, news = [complex(*v) for v in old], [complex(*v) for v in new]
    return max(_gaps(news, olds) + _gaps(olds, news), default=0.0)


def _only_in(these: list, others: list) -> list[complex]:
    """The values of one list farther than SHIFT_TOL, relative, from every
    value of the other."""
    xs, ys = [complex(*v) for v in these], [complex(*v) for v in others]
    return [x for x, gap in zip(xs, _gaps(xs, ys)) if gap > SHIFT_TOL]


def _histogram(records: dict, names: list[str]) -> str:
    """The circles settled at each number of points, summed over the named
    records, and the evaluations on circles that never settled; - when a
    record lacks them."""
    if any("settled" not in records[name] for name in names):
        return "-"
    settled = Counter()
    for name in names:
        settled.update({int(n): c for n, c in records[name]["settled"].items()})
    never = sum(records[name]["unsettled"] for name in names)
    return ", ".join(f"{n}: {settled[n]}" for n in sorted(settled)) + (
        f"; never settled: {never} evaluations"
    )


def _total(records: dict, names: list[str], key: str) -> str:
    """The sum of one field over the named records, or - when one lacks it."""
    if any(key not in records[name] for name in names):
        return "-"
    return f"{sum(records[name][key] for name in names):.6g}"


def compare(old_path: str, new_path: str) -> int:
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    both = [name for name in old if name in new]
    worse, changed, warned = [], [], []
    print(f"{'scheme':22} {'evaluations':>15} {'circles':>11} {'bound':>21} "
          f"{'count':>9} {'shift':>8}")
    for name in both:
        a, b = old[name], new[name]
        count = (len(a["eigenvalues"]), len(b["eigenvalues"]))
        shift = None  # the lists differ in length
        if count[0] == count[1]:
            shift = _max_shift(a["eigenvalues"], b["eigenvalues"])
        if b["bound"] > a["bound"]:
            worse.append(name)
        if shift is None or shift > SHIFT_TOL:
            changed.append(name)
        if a["warnings"] != b["warnings"]:
            warned.append(name)
        print(f"{name:22} {a['evaluations']:7}>{b['evaluations']:<7} "
              f"{a['circles']:5}>{b['circles']:<5} "
              f"{a['bound']:10.6g}>{b['bound']:<10.6g} "
              f"{count[0]:4}>{count[1]:<4} "
              + ("    --" if shift is None else f"{shift:8.1e}"))
    for key in ("evaluations", "unsettled", "newton", "circles", "seconds"):
        totals = [_total(records, both, key) for records in (old, new)]
        print(f"total {key}: {totals[0]} -> {totals[1]}")
    for label, records in (("old", old), ("new", new)):
        print(f"settled at points ({label}): {_histogram(records, both)}")
    print("changed lists: " + (", ".join(changed) or "none"))
    for name in changed:
        a, b = old[name]["eigenvalues"], new[name]["eigenvalues"]
        for label, values in (("old", _only_in(a, b)), ("new", _only_in(b, a))):
            print(f"  {name} only in {label}: "
                  + (", ".join(f"{v:.9g}" for v in values) or "none"))
    print("changed warnings: " + (", ".join(warned) or "none"))
    print("worse bounds: " + (", ".join(worse) or "none"))
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="sweep the schemes and write JSON")
    run_p.add_argument("out")
    run_p.add_argument("--only", nargs="+", metavar="NAME")
    cmp_p = sub.add_parser("compare", help="compare two sweep files")
    cmp_p.add_argument("old")
    cmp_p.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.out, args.only)
    return compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
