"""Benchmark of the newton-cocenter CLI on seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 15 --trace 0

Every job is one `cli.main(argv)` call with a fresh group, in this
process, one client in a closed loop.  With --trace 0 the job list is
replayed until --seconds have passed (always at least twice) and the
end-to-end metrics are reported.  With --trace 1 the job list runs once
untraced and once under the outside-in tracer (tracer.py), and the
per-layer metrics are reported.  Every output is checked (checks.py)
and must be identical across repeats and between the traced and
untraced runs.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A record of the run (seed, Python
version, git SHA, nproc, job list, failures) goes to .perfbench_out/.
See NOTES.md for the workloads, the metrics and the seed baseline.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import Checker
from tracer import Tracer, metric_units
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CACHE_ENV = "NEWTON_COCENTER_CACHE"
SETUP_PER_PASS = 5
PROBE_ITERATIONS = 10_000
# Median probe time on the 2-core machine the benchmark was defined on,
# in its fast state (Python 3.11).
PROBE_REFERENCE_S = 0.0105
MIN_PASSES = 2

END_TO_END = {"setup_s": "s", "wall_s": "s", "jobs_per_s": "1/s",
              "job_p50_s": "s", "peak_rss_mb": "MB"}

# Runs in a fresh interpreter: import the package and build every group
# of the workload through the CLI (which runs the orientation self-test).
_SETUP_CHILD = """
import contextlib, io, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from newton_cocenter import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for group in sys.argv[2:]:
        if cli.main(["--group", group, "describe"]) != 0:
            sys.exit(f"describe {group} failed")
print(time.perf_counter() - start)
"""


def run_cli(main, argv):
    """One CLI call with stdout captured: (exit code, stdout, seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except Exception as exc:  # a crash is a failed job, not a dead run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def measure_setup(groups) -> float:
    """Seconds to import the package and build the groups, measured in a
    fresh interpreter (start-up of the interpreter itself excluded)."""
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC), *groups],
        capture_output=True, text=True, env=env, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout)


class Runner:
    """Runs jobs and judges each output once; repeats must match it."""

    def __init__(self, main, jobs):
        self.main = main
        self.jobs = jobs
        self.checker = Checker(lambda argv: run_cli(main, argv)[:2])
        self.first: dict[int, tuple] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, on_job_end=None) -> list[float]:
        """Every job once, in order; returns the per-job times."""
        times = []
        for i, job in enumerate(self.jobs):
            code, out, elapsed = run_cli(self.main, job.argv)
            if on_job_end:
                on_job_end(job)
            times.append(elapsed)
            self.attempted += 1
            reason = self._judge(i, job, code, out)
            if reason:
                self.failures.append(f"{' '.join(job.argv)}: {reason}")
        return times

    def _judge(self, i, job, code, out):
        if i not in self.first:
            self.first[i] = (code, out, self.checker.check(job, code, out))
        code0, out0, reason = self.first[i]
        if (code, out) != (code0, out0):
            return "output differs from the first run of this job"
        return reason


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop of the kind of work the
    program does (tuples, dict lookups, small-integer arithmetic)."""
    start = time.perf_counter()
    table = {}
    for i in range(PROBE_ITERATIONS):
        key = (i % 97, i % 13, i % 7)
        table[key] = table.get(key, 0) + sum(a * b for a, b in zip(key, (3, 5, 7)))
    return time.perf_counter() - start


def run_untraced(runner, seconds, groups):
    # The machine's speed drifts by up to 1.6x within seconds.  A speed
    # probe runs before the first job and after every job, and each time
    # is scaled by the probes around it to a machine that runs the probe
    # in PROBE_REFERENCE_S.  Set-up is sampled between jobs all through
    # the run, each sample scaled by the probe just before it.
    probes = [speed_probe()]
    setup = []
    step = max(1, len(runner.jobs) // SETUP_PER_PASS)

    def between_jobs(job):
        probes.append(speed_probe())
        if runner.attempted % step == 0:
            setup.append(measure_setup(groups) * PROBE_REFERENCE_S / probes[-1])

    raw_passes = []
    deadline = time.perf_counter() + seconds
    # at least two passes, so that every job has a repeat to compare
    # against and a median over more than one sample
    while len(raw_passes) < MIN_PASSES or time.perf_counter() < deadline:
        raw_passes.append(runner.run_pass(on_job_end=between_jobs))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scales = [2 * PROBE_REFERENCE_S / (a + b) for a, b in zip(probes, probes[1:])]
    passes, k = [], 0
    for times in raw_passes:
        passes.append([t * scales[k + i] for i, t in enumerate(times)])
        k += len(times)
    samples = [t for times in passes for t in times]
    completed = runner.attempted - len(runner.failures)
    metrics = {
        "setup_s": statistics.median(setup),
        # each job's median over the passes, so one slow pass does not
        # move the figure
        "wall_s": sum(statistics.median(job) for job in zip(*passes)),
        "jobs_per_s": completed / sum(samples),
        "job_p50_s": statistics.median(samples),
        "peak_rss_mb": rss_mb,
    }
    raw_samples = [t for times in raw_passes for t in times]
    extra = {"passes": len(passes), "raw_pass_times_s": [sum(p) for p in raw_passes],
             "raw_wall_s": sum(statistics.median(job) for job in zip(*raw_passes)),
             "raw_job_p50_s": statistics.median(raw_samples),
             "probe_samples_s": probes, "setup_samples_s": setup,
             "job_samples": len(samples),
             "job_medians_s": {" ".join(job.argv): statistics.median(times)
                               for job, times in zip(runner.jobs, zip(*passes))}}
    # The highest percentile reported is the one with >= 10 samples beyond it.
    if len(samples) >= 100:
        extra["job_p90_s"] = statistics.quantiles(samples, n=10)[-1]
    return metrics, extra


def run_traced(runner, spans_path):
    # the traced pass is judged against the untraced one, so any change
    # tracing makes to stdout counts as a failed job
    plain_times = runner.run_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced_times = runner.run_pass(on_job_end=tracer.end_job)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = sum(traced_times) / sum(plain_times)
    tracer.write_spans(spans_path)
    return metrics, {"spans": len(tracer.span_name), "spans_file": str(spans_path),
                     "per_call_by_group": tracer.per_call_by_group()}


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=False)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink the job list (smoke test only)")
    args = p.parse_args(argv)

    if not (SRC / "newton_cocenter" / "cli.py").is_file():
        print(f"error: no newton_cocenter sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop(CACHE_ENV, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from newton_cocenter import cli

    jobs = generate(args.workload, args.seed, args.scale)
    runner = Runner(cli.main, jobs)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, extra = run_traced(runner, OUT / f"spans-{args.workload}.bin.gz")
        units = metric_units()
    else:
        metrics, extra = run_untraced(runner, args.seconds, sorted({j.group for j in jobs}))
        units = END_TO_END

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "python": platform.python_version(), "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)), "jobs": [list(j.argv) for j in jobs],
        "attempted": runner.attempted, "failures": runner.failures,
        "metrics": metrics, **extra,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for failure in runner.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
