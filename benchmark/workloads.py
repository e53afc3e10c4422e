"""The three workloads: job lists and the seeded schemes they run on.

A job is one `descentsum` CLI invocation.  The program sees only its
arguments and, for non-preset schemes, a scheme file written here.  The seed
draws scheme weights (and the job order of paper-presets); it never changes
which jobs run, their window length m or their n, so every seed does about
the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference as ref

# modulus above which a spectrum must be complete (the F1 check)
R_COMPLETE = 0.1


@dataclass
class Job:
    label: str
    kind: str  # spectrum | constants | verify | oracle | sequence
    args: list[str]
    scheme: ref.Scheme | None = None
    preset: str | None = None
    n: int | None = None
    known_eigenvalues: list[float] = field(default_factory=list)

    def argv(self) -> list[str]:
        return [self.kind, *self.args, "--format", "json"]


def _preset_job(kind: str, name: str, *extra: str, n: int | None = None) -> Job:
    label = f"{kind} {name}" + (f" {' '.join(extra)}" if extra else "")
    job = Job(label, kind, ["--preset", name, *extra], ref.preset(name), name, n)
    if kind == "spectrum":
        if name == "alternating":
            job.known_eigenvalues = ref.alternating_eigenvalues(R_COMPLETE)
        elif name in ("sec6", "all-ones"):
            job.known_eigenvalues = [1.0]
    return job


def _file_job(kind: str, label: str, scheme: ref.Scheme, path: Path, *extra: str,
              n: int | None = None) -> Job:
    path.write_text(scheme.text())
    return Job(f"{kind} {label}" + (f" {' '.join(extra)}" if extra else ""), kind,
               ["--scheme", str(path), *extra], scheme, None, n)


def no_long_runs(m: int) -> ref.Scheme:
    """No m consecutive ascents or descents: sec5-1 widened to window m."""
    return ref.Scheme(m, {"a" * m: 0, "b" * m: 0})


def lifted_alternating(m: int, c: Fraction) -> ref.Scheme:
    """Alternating permutations read through windows of length m, each window
    weighted c.  Reversal-symmetric, with eigenvalues +-2c/((2k+1) pi)."""
    alternates = lambda w: all(w[i] != w[i + 1] for i in range(m - 1))
    return ref.Scheme(m, {w: (c if alternates(w) else 0) for w in ref.words(m)})


def rational_scheme(rng: random.Random) -> ref.Scheme:
    """m = 3 with weights that are seeded shuffles of fixed multisets of
    rationals: the DP takes its Fraction path, and the size of the
    arithmetic does not depend on the draw."""
    window = [Fraction(x) for x in ("1/2", "2/3", "3/4", "1", "4/3", "3/2", "2", "5/2")]
    first = [Fraction(x) for x in ("1/2", "1", "3/2", "2")]
    last = first[:]
    for weights in (window, first, last):
        rng.shuffle(weights)
    return ref.Scheme(
        3,
        dict(zip(ref.words(3), window)),
        dict(zip(ref.words(2), first)),
        dict(zip(ref.words(2), last)),
    )


def paper_presets(seed: int, workdir: Path) -> list[Job]:
    jobs = [_preset_job("spectrum", p)
            for p in ("sec5-1", "sec5-2", "sec6", "alternating", "all-ones")]
    jobs += [_preset_job("constants", p) for p in ("sec5-1", "sec5-2", "sec6", "alternating")]
    jobs += [_preset_job("verify", p)
             for p in ("sec5-1", "sec5-2", "sec6", "alternating", "all-ones")]
    random.Random(seed).shuffle(jobs)
    return jobs


def wide_window(seed: int, workdir: Path) -> list[Job]:
    c = random.Random(seed).choice([Fraction(x) for x in ("3/4", "1", "5/4")])
    lifted = lifted_alternating(5, c)
    # no m = 6 job: its one ~19 s sample per run made pass_s spread up to 23%
    jobs = [
        _file_job("spectrum", "no-runs-5", no_long_runs(5), workdir / "no-runs-5.txt"),
        _file_job("spectrum", f"alternating-5x{c}", lifted, workdir / "alternating-5.txt"),
    ]
    jobs[1].known_eigenvalues = [float(c) * x for x in ref.alternating_eigenvalues(R_COMPLETE / float(c))]
    return jobs


def exact_counts(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(seed)
    r1, r2 = rational_scheme(rng), rational_scheme(rng)
    return [
        _preset_job("oracle", "sec5-1", "--n", "9", n=9),
        _preset_job("oracle", "alternating", "--n", "9", n=9),
        _preset_job("oracle", "all-ones", "--n", "100", "--method", "dp", n=100),
        _preset_job("oracle", "sec6", "--n", "100", "--method", "dp", n=100),
        _preset_job("oracle", "alternating", "--n", "90", "--method", "dp", n=90),
        _preset_job("oracle", "no-peaks", "--n", "80", "--method", "dp", n=80),
        _file_job("oracle", "rational-1", r1, workdir / "rational-1.txt",
                  "--n", "50", "--method", "dp", n=50),
        _file_job("oracle", "rational-1", r1, workdir / "rational-1.txt",
                  "--n", "50", "--method", "operator", n=50),
        _file_job("oracle", "rational-2", r2, workdir / "rational-2.txt",
                  "--n", "40", "--method", "dp", n=40),
        _file_job("oracle", "rational-2", r2, workdir / "rational-2.txt",
                  "--n", "40", "--method", "operator", n=40),
        _preset_job("oracle", "sec6", "--n", "60", "--method", "operator", n=60),
        _preset_job("oracle", "alternating", "--n", "50", "--method", "operator", n=50),
        Job("sequence --n-max 40", "sequence", ["--n-max", "40"], n=40),
    ]


WORKLOADS = {
    "paper-presets": paper_presets,
    "wide-window": wide_window,
    "exact-counts": exact_counts,
}
