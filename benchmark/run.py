"""End-to-end benchmark of the descentsum command line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src`` as it stands, nothing is installed.  One client runs a closed loop:
it starts one fresh ``python -m descentsum.cli`` process per job, one at a
time, so every job pays what a user pays (interpreter start, numpy import,
cold per-process caches).  Each job is started and timed from outside by
launch.py, and its output is checked against the independent references in
reference.py.

With --trace 0 the run repeats whole passes over the workload's job list
while another pass still fits in S seconds (at least one).  A pass makes at
least PROBES_PER_PASS probes, the same number before each job: a probe is
one run of refjob.py, a fixed job that does not depend on the program, and
one set-up launch.  The run's timings are scaled by REF_NOMINAL_S over the
interquartile mean of the reference job's wall times, so that they read as
on a machine where the reference job takes REF_NOMINAL_S: a shared
machine's speed swings by a third over minutes, and the scaling takes most
of that out.  It reports

    setup_s      median wall time of fresh launches that import
                 descentsum.cli and load a scheme, scaled
    pass_s       sum over the jobs of each job's median wall time, scaled
    cpu_s        sum over the jobs of each job's median user+system time,
                 scaled
    peak_rss_mb  largest peak resident set of any job process

With --trace 1 it runs one plain pass and one pass in which every job runs
under shim.py, and reports the per-layer metrics of the traced pass plus
trace.overhead_s, the traced pass's wall time minus the plain pass's.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A human-readable summary, including every failed job under the
name of its fault, goes to stderr, and the full record of the run to
benchmark/results/.
"""

from __future__ import annotations

import os

# BLAS and OpenMP threads are pinned before numpy loads, here and in every
# job process: with default threading one m = 6 det_P batch ran 4x slower.
THREAD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks  # noqa: E402
import shim  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

SETUP_SNIPPET = (
    "import descentsum.cli\n"
    "from descentsum.presets import preset_scheme\n"
    "preset_scheme('sec5-1')\n"
)
SETUP_ARGV = [sys.executable, "-c", SETUP_SNIPPET]
REF_ARGV = [sys.executable, str(HERE / "refjob.py")]
# the scale and setup_s want a dozen samples a run or more; probes ride
# between the jobs so that they see the machine the jobs saw.  Few, because
# a long job's median needs three passes to set aside one slow sample.
PROBES_PER_PASS = 6
JOB_TIMEOUT_S = 120
# the reference job's typical wall time on the machine of the README's figures
REF_NOMINAL_S = 0.30


@dataclass
class JobRun:
    rc: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    maxrss_kb: int


def _job_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _launch(argv: list[str], env: dict[str, str], workdir: Path) -> JobRun:
    """One child process through launch.py, which times it and reads its rusage."""
    cost = workdir / "cost.json"
    cost.unlink(missing_ok=True)
    proc = subprocess.Popen([sys.executable, "-S", str(HERE / "launch.py"), str(cost), *argv],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the launcher and the job under it
        out, err = proc.communicate()
        return JobRun(-9, out, err + f"\ntimed out after {JOB_TIMEOUT_S} s", JOB_TIMEOUT_S, 0.0, 0)
    if not cost.exists():
        raise RuntimeError(f"launcher failed (exit {proc.returncode}): {err.strip()}")
    c = json.loads(cost.read_text())
    return JobRun(c["rc"], out, err, c["wall"], c["cpu"], c["maxrss_kb"])


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half: on a dozen or two samples it wanders less than
    the median, and a few samples slowed by a passing load still drop out."""
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.fmean(ordered[k:len(ordered) - k])


def probe(env: dict[str, str], workdir: Path, probes: dict[str, list[float]]) -> None:
    """One reference-job run and one set-up launch; their wall times go to probes."""
    for key, argv in (("reference", REF_ARGV), ("setup", SETUP_ARGV)):
        run = _launch(argv, env, workdir)
        if run.rc != 0:
            raise RuntimeError(f"{key} launch failed: {run.stderr.strip()}")
        probes[key].append(run.wall)


class Tally:
    """Attempted and failed jobs; each failure filed under its fault name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.by_fault: Counter[tuple[str, str]] = Counter()
        self.messages: dict[tuple[str, str], str] = {}

    def add(self, jobs: list[Job], runs: list[JobRun], refs: checks.References) -> None:
        problems = [checks.check(job, r.rc, r.stdout, r.stderr, refs) for job, r in zip(jobs, runs)]
        for i, msg in checks.cross_check(jobs, [(r.rc, r.stdout) for r in runs]).items():
            problems[i].append(("agreement", msg))
        for job, probs in zip(jobs, problems):
            self.attempted += 1
            if not probs:
                continue
            self.failed += 1
            for prop, msg in probs:
                fault = checks.FAULTS.get(prop)
                if fault is None:
                    self.unexpected += 1
                    fault = f"unexpected:{prop}"
                self.by_fault[(fault, job.label)] += 1
                self.messages[(fault, job.label)] = msg

    def report(self) -> list[str]:
        return [f"  {fault:<24} x{n}  {label}: {self.messages[(fault, label)]}"
                for (fault, label), n in sorted(self.by_fault.items())]


def run_pass(jobs: list[Job], env: dict[str, str], workdir: Path,
             trace_dir: Path | None = None,
             probes: dict[str, list[float]] | None = None) -> list[JobRun]:
    runs = []
    for i, job in enumerate(jobs):
        if probes is not None:
            for _ in range(-(-PROBES_PER_PASS // len(jobs))):
                probe(env, workdir, probes)
        if trace_dir is None:
            argv = [sys.executable, "-m", "descentsum.cli", *job.argv()]
        else:
            argv = [sys.executable, str(HERE / "shim.py"), str(trace_dir / f"{i}.json"), *job.argv()]
        runs.append(_launch(argv, env, workdir))
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "descentsum" / "cli.py").is_file():
        print(f"error: no descentsum sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".benchwork" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    env = _job_env()
    jobs = WORKLOADS[args.workload](args.seed, workdir)
    refs = checks.References()
    refs.prepare(jobs)
    # warm-up: the first import compiles bytecode, which an installed package
    # has done; one reference run brings its files into the page cache
    _launch(SETUP_ARGV, env, workdir)
    _launch(REF_ARGV, env, workdir)

    tally = Tally()
    metrics: dict[str, dict] = {}
    record: dict = {"workload": args.workload, "seed": args.seed, "jobs": [j.label for j in jobs]}
    if args.trace:
        plain = run_pass(jobs, env, workdir)
        tally.add(jobs, plain, refs)
        trace_dir = workdir / "trace"
        trace_dir.mkdir()
        traced = run_pass(jobs, env, workdir, trace_dir)
        tally.add(jobs, traced, refs)
        docs = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
        values = shim.layer_metrics(docs)
        values["trace.overhead_s"] = sum(r.wall for r in traced) - sum(r.wall for r in plain)
        units = dict(shim.METRICS)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        record["walls"] = {"plain": [r.wall for r in plain], "traced": [r.wall for r in traced]}
    else:
        probes: dict[str, list[float]] = {"reference": [], "setup": []}
        walls: list[list[float]] = [[] for _ in jobs]
        cpus: list[list[float]] = [[] for _ in jobs]
        peak_kb = 0
        started = perf_counter()
        while True:
            pass_start = perf_counter()
            runs = run_pass(jobs, env, workdir, probes=probes)
            pass_time = perf_counter() - pass_start
            for i, r in enumerate(runs):
                walls[i].append(r.wall)
                cpus[i].append(r.cpu)
                peak_kb = max(peak_kb, r.maxrss_kb)
            tally.add(jobs, runs, refs)
            if perf_counter() - started + pass_time > args.seconds:
                break
        raw = {
            "setup_s": statistics.median(probes["setup"]),
            "pass_s": sum(statistics.median(w) for w in walls),
            "cpu_s": sum(statistics.median(c) for c in cpus),
        }
        scale = REF_NOMINAL_S / interquartile_mean(probes["reference"])
        metrics = {k: {"value": v * scale, "unit": "s"} for k, v in raw.items()}
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
        record.update(walls=walls, cpus=cpus, probes=probes, scale=scale, unscaled=raw)

    correct = tally.unexpected == 0
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    record.update(result, failures=tally.report())
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}: {tally.attempted} jobs attempted, "
          f"{tally.failed} failed, outputs {'correct' if correct else 'WRONG'}", file=sys.stderr)
    for line in tally.report():
        print(line, file=sys.stderr)
    for key, m in metrics.items():
        print(f"  {key:<40} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if "scale" in record:
        print(f"  timings scaled by {record['scale']:.4f} (reference job, interquartile mean "
              f"{REF_NOMINAL_S / record['scale']:.4f} s of {len(record['probes']['reference'])}); "
              + ", ".join(f"unscaled {k} {v:.6g} s" for k, v in record["unscaled"].items()),
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
