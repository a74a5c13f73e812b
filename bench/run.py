"""tracekit benchmark: one closed-loop client runs a workload's CLI jobs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the repository root (any checkout that has src/, tests/ and docs/).
Each job is one `tracekit` command, run in this process through
`tracekit.cli.main` with stdout captured; the next job starts when the
previous one has returned (one client, one thread). Inputs are generated from
the seed into `.bench_work/` and removed at exit.

A pass runs the workload's whole job list once. Passes repeat until
`--seconds` have gone by (at least one); a job's time is its median over
the passes, scaled to a fixed reference speed of the machine (see probe()).
The first execution of every job is checked, outside the timed region,
against an independent answer (see verify.py); every later execution must
print the same bytes and exit status, and with the pinned seed they must
match the sha256 digests in digests.json.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced ones (see
spans.py) plus their overhead. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

import spans
import verify
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
PINNED_SEED = 1
SETUP_REPEATS = 5
# Reported times are scaled to the speed at which probe() takes this long.
REFERENCE_PROBE_S = 0.0025
REQUIRED = ("src/tracekit/cli.py", "tests/oracles.py", "tests/data/chi_wrong_counterexample.txt", "docs/examples")


def fresh_import():
    """Import tracekit from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "tracekit" or m.startswith("tracekit.")]:
        del sys.modules[name]
    return importlib.import_module("tracekit.cli")


def probe() -> float:
    """Seconds for a fixed piece of plain-Python work that shares no code
    with tracekit: dict, frozenset, big-int, Fraction and json operations,
    the mix the jobs spend their time in.

    On a shared machine the speed of the CPU drifts by a third within a
    minute, with other tenants' load. A probe next to each job measures the
    speed the job ran at, and job time / probe time is the job's cost in
    units of the probe, which that drift does not move.
    """
    start = perf_counter()
    counts: Dict[Tuple[int, int], int] = {}
    for i in range(1500):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i
    evens, thirds = frozenset(range(0, 2000, 2)), frozenset(range(0, 2000, 3))
    len(evens & thirds) + len(evens | thirds)
    mask = 0
    for i in range(1000):
        mask |= 1 << (i * 7 % 300)
    sum((Fraction(1, k) for k in range(1, 25)), Fraction(0))
    json.loads(json.dumps(sorted((str(k), v) for k, v in counts.items())[:200]))
    return perf_counter() - start


def scaled(seconds: float, probes: List[float]) -> float:
    """Seconds at the reference speed, given the probe times around the work."""
    return seconds * REFERENCE_PROBE_S / statistics.median(probes)


def run_job(cli, job) -> Tuple[object, str, float]:
    """Exit status (or the exception a crash raised), stdout, seconds."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status: object = cli.main(job.argv)
    except Exception as exc:  # a crashing job is a failed job, not a failed benchmark
        status = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    return status, out.getvalue(), perf_counter() - start


class Outcomes:
    """Checks each job's output and counts attempted and failed executions."""

    def __init__(self, pinned: Dict[str, str]):
        self.pinned = pinned
        self.digest: Dict[str, str] = {}
        self.ok: Dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, job, status, out: str) -> None:
        self.attempted += 1
        digest = hashlib.sha256(f"{status}\n{out}".encode("utf-8")).hexdigest()
        if job.name not in self.digest:
            self.digest[job.name] = digest
            self.ok[job.name] = self._check(job, status, out, digest)
        elif digest != self.digest[job.name]:
            self.ok[job.name] = False
            self.problems.append(f"{job.name}: output changed between passes")
        if not self.ok[job.name]:
            self.failed += 1

    def _check(self, job, status, out, digest) -> bool:
        try:
            job.check(status, out)
        except verify.Mismatch as exc:
            self.problems.append(f"{job.name}: {exc}")
            return False
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            self.problems.append(f"{job.name}: malformed output ({type(exc).__name__}: {exc})")
            return False
        pin = self.pinned.get(job.name)
        if pin is not None and pin != digest:
            self.problems.append(f"{job.name}: output differs from the pinned digest")
            return False
        return True


def timed_pass(cli, jobs, outcomes) -> Tuple[List[float], int, float]:
    """Run every job once, with a probe before each job and after the last.

    Returns each job's time at the reference speed (scaled by the median of
    the three probes before and the three after it), the stdout bytes, and
    the pass's own scale factor (reference / median probe of the pass).
    """
    gc.collect()
    raw: List[float] = []
    probes = [probe()]
    written = 0
    for job in jobs:
        status, out, seconds = run_job(cli, job)
        raw.append(seconds)
        probes.append(probe())
        written += len(out.encode("utf-8"))
        outcomes.record(job, status, out)
    times = [scaled(t, probes[max(0, i - 2): i + 4]) for i, t in enumerate(raw)]
    return times, written, REFERENCE_PROBE_S / statistics.median(probes)


def tail_percentile(jobs: int) -> int:
    """The highest whole percentile with at least ten jobs beyond it."""
    return max(50, (100 * (jobs - 10)) // jobs)


def nearest_rank(values: List[float], percentile: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * percentile // 100) - 1)]


def setup(workload: str, seed: int, workdir: Path, quick: bool):
    """Import, input generation and input files, repeated; returns the last
    module and jobs with the median time."""
    seconds = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        before = [probe() for _ in range(3)]
        start = perf_counter()
        cli = fresh_import()
        jobs = workloads.build(workload, seed, workdir, ROOT, quick)
        elapsed = perf_counter() - start
        seconds.append(scaled(elapsed, before + [probe() for _ in range(3)]))
    return cli, jobs, statistics.median(seconds)


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def measure(args, workdir: Path) -> Tuple[Outcomes, Dict[str, Tuple[float, str]], List[str]]:
    cli, jobs, setup_s = setup(args.workload, args.seed, workdir, args.quick)
    verify.load_oracles(ROOT)
    pinned = {}
    if args.seed == PINNED_SEED and DIGESTS.exists():
        pinned = json.loads(DIGESTS.read_text(encoding="utf-8")).get(args.workload, {})
    outcomes = Outcomes(pinned)
    deadline = perf_counter() + args.seconds
    plain: List[List[float]] = []
    factors: List[float] = []
    traced: List[Tuple[List[float], int, float, spans.Tracer]] = []
    while True:
        times, _, factor = timed_pass(cli, jobs, outcomes)
        plain.append(times)
        factors.append(factor)
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                times, written, factor = timed_pass(cli, jobs, outcomes)
            finally:
                tracer.uninstall()
            traced.append((times, written, factor, tracer))
        if perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # A job's time is its median over the passes; a pass's time is the sum
    # of its jobs' times.
    job_s = [statistics.median(column) for column in zip(*plain)]
    percentile = tail_percentile(len(jobs))

    notes = [f"{args.workload} seed {args.seed}: {len(jobs)} jobs per pass, {len(plain)} untraced passes"
             + (f", {len(traced)} traced" if traced else ""),
             f"times are at the reference speed; the machine ran at {statistics.median(factors):.3g} times it"]
    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(job_s), "s"),
            "verdict_p50_ms": (statistics.median(job_s) * 1000, "ms"),
            "verdict_tail_ms": (nearest_rank(job_s, percentile) * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        notes.append(f"verdict_tail_ms is p{percentile} of the {len(jobs)} jobs' times")
        return outcomes, metrics, notes

    per_pass = []
    for _, written, factor, tracer in traced:
        figures = tracer.layer_metrics(factor)
        figures["cli.bytes_in"] = (sum(job.bytes_in for job in jobs), "bytes")
        figures["cli.bytes_out"] = (written, "bytes")
        per_pass.append(figures)
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        values = [figures[name][0] for figures in per_pass]
        if unit in ("count", "bytes", "ratio"):
            if len(set(values)) != 1:
                outcomes.problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = (value, unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    traced_s = [statistics.median(column) for column in zip(*(times for times, _, _, _ in traced))]
    metrics["trace.overhead_ratio"] = (sum(traced_s) / sum(job_s), "ratio")
    return outcomes, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("bool-pipeline", "law-suite", "weighted-exact"))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="run only the small jobs (self-check)")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"bench: not a tracekit checkout, missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        outcomes, metrics, notes = measure(args, workdir)
    finally:
        remove_workdir(workdir)

    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(f"  failed_ratio {outcomes.failed / outcomes.attempted:.6g} ({outcomes.failed} of {outcomes.attempted} job runs)")
    for problem in outcomes.problems[:20]:
        print(f"  FAILED {problem}")
    result = {
        "correct": outcomes.failed == 0 and not outcomes.problems,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
