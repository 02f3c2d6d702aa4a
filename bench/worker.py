"""One benchmark process: set up a workload, run its jobs, report.

Started by ``bench/run.py`` with a fixed PYTHONHASHSEED.  It prints
``{"imported": true}`` as soon as ``dgkernel`` is imported, the end of the
program's set-up, and exits there with ``--setup-only``.  Otherwise it
generates its inputs from the seed, runs the jobs and prints one JSON line
with the run's results: an untraced process measures its block of the
pool (``--part``) after one untimed warm-up job and reports every job's
time; a traced process runs the first cycles of the pool.  Jobs run back
to back in this process and thread: a closed loop with one client.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402  (the benchmark's own modules, beside this file)
import workloads  # noqa: E402

SELF_CHECK_SEED = 20260809
SELF_CHECK_SNF_CALLS = 4776   # SNF calls of `dgkernel suite` at SELF_CHECK_SEED
CRITERION_5_LIMIT_S = 1.0     # wall-time limit asserted inside criterion 5


def import_package():
    """Import dgkernel from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dgkernel" / "__init__.py").is_file():
        raise SystemExit(f"no dgkernel sources under {src}")
    sys.path.insert(0, str(src))
    import dgkernel
    import dgkernel.acceptance
    import dgkernel.cli
    import dgkernel.jsonio

    if Path(dgkernel.__file__).resolve().parent != (src / "dgkernel").resolve():
        raise SystemExit(f"dgkernel imported from {dgkernel.__file__}, not {src}")
    return dgkernel


_rng = random.Random(0)
REFERENCE_MATRIX = [[_rng.randint(-5, 5) for _ in range(24)] for _ in range(24)]


def reference_seconds() -> float:
    """Wall time of a fixed computation in the benchmark's own code: fraction-
    free elimination of a fixed 24 x 24 integer matrix, six times, the
    kind of work (Python integers growing in list-of-rows elimination) the
    program's jobs do.  A process samples it before its first timed job and
    after every job, so that each job's time can be given in units of what
    the machine took for the same fixed work at that moment."""
    t0 = perf_counter()
    for _ in range(6):
        workloads.bareiss(REFERENCE_MATRIX)
    return perf_counter() - t0


class Runner:
    """Runs jobs from the pool of cycles and keeps every failure message."""

    def __init__(self, dgkernel, cycles):
        self.dgkernel = dgkernel
        self.cycles = cycles
        self.failures = []

    def run_job(self, job, tracer=None, job_id=-1):
        """(seconds, result or None, failure message)."""
        if tracer is not None:
            tracer.begin_job(job_id)
        t0 = perf_counter()
        try:
            result = job.run(self.dgkernel)
            dt = perf_counter() - t0
            problem = job.check(result)
        except Exception as exc:  # a raising job or check is a failed job, not a crash
            return perf_counter() - t0, None, f"{job.kind} {job.ident}: {type(exc).__name__}: {exc}"
        return dt, result, f"{job.kind} {job.ident}: {problem}" if problem else ""

    def warm_up(self):
        """Run the block's last job once, untimed, so that one-off costs
        (first calls, allocator growth) fall before timing starts.  It is
        checked like any other job; returns its failure flag."""
        _, _, problem = self.run_job(self.cycles[-1][-1])
        if problem:
            self.failures.append(problem)
        return [bool(problem)]

    def loop(self, seconds: float, min_jobs: int):
        """Run whole cycles from the pool until `seconds` have passed and
        at least `min_jobs` jobs ran.  Returns [kind, seconds, failed,
        reference seconds after it] of every job run."""
        jobs = []
        start = perf_counter()
        c = 0
        while c == 0 or perf_counter() - start < seconds or len(jobs) < min_jobs:
            for job in self.cycles[c % len(self.cycles)]:
                dt, _, problem = self.run_job(job)
                jobs.append([job.kind, dt, bool(problem), reference_seconds()])
                if problem:
                    self.failures.append(problem)
            c += 1
        return jobs


def traced_run(runner: Runner, wl: str, out_dir: Path):
    """Each job of the first TRACED_CYCLES cycles untraced and traced, in
    alternating order, so that machine drift and warm caches favour
    neither: (per-layer metrics as means per traced job, failure flags,
    info).  Outputs must match byte for byte.  The job count is fixed, so
    every count metric depends on the seed alone."""
    tracer = tracing.Tracer(runner.dgkernel)
    times, traced_times, failed = [], [], []
    jobs = [job for cycle in runner.cycles[:workloads.TRACED_CYCLES[wl]] for job in cycle]
    for k, job in enumerate(jobs):
        runs = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                runs[traced] = runner.run_job(job, tracer if traced else None, k)
            finally:
                tracer.uninstall()
        (dt, plain, problem), (traced_dt, result, traced_problem) = runs[False], runs[True]
        times.append(dt)
        traced_times.append(traced_dt)
        if not problem and not traced_problem and result != plain:
            traced_problem = f"{job.kind} {job.ident}: output differs when traced"
        for p in (problem, traced_problem):
            failed.append(bool(p))
            if p:
                runner.failures.append(p)
    overhead = 1.0 - sum(times) / sum(traced_times)
    metrics = tracer.metrics(len(jobs), sum(traced_times), overhead)
    info = {"traced_jobs": len(jobs), "spans": len(tracer.name)}
    if wl == "suite":
        info["self_check"] = self_check(runner)
        if info["self_check"]["problem"]:
            runner.failures.append(info["self_check"]["problem"])
            failed.append(True)
    out_dir.mkdir(parents=True, exist_ok=True)
    spans = out_dir / f"spans-{wl}.bin"
    tracer.write(str(spans))
    info["spans_file"] = str(spans.relative_to(ROOT))
    return metrics, failed, info


def self_check(runner: Runner) -> dict:
    """`dgkernel suite` at the baseline seed, traced: exactly the known SNF
    call count, every criterion PASS, and criterion 5 well inside its
    1 s limit so wrapper overhead cannot flip it."""
    job = workloads.suite_job(SELF_CHECK_SEED)
    job.ident = "self-check"
    _, plain, problem = runner.run_job(job)
    tracer = tracing.Tracer(runner.dgkernel)
    tracer.install()
    try:
        _, traced, traced_problem = runner.run_job(job, tracer, 0)
    finally:
        tracer.uninstall()
    calls, _ = tracer.job_totals(tracing.SNF, 0)
    _, c5 = tracer.job_totals("acceptance.criterion_5", 0)
    problem = problem or traced_problem
    if not problem and traced != plain:
        problem = "self-check: suite output differs when traced"
    if not problem and calls != SELF_CHECK_SNF_CALLS:
        problem = f"self-check: {calls} SNF calls, expected {SELF_CHECK_SNF_CALLS}"
    if not problem and c5 > CRITERION_5_LIMIT_S / 2:
        problem = f"self-check: traced criterion 5 took {c5:.3f} s, over half its limit"
    return {"snf_calls": calls, "criterion_5_traced_s": c5, "problem": problem}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--part", type=int, default=0,
                        help="the pool block an untraced process measures")
    args = parser.parse_args(argv)

    dgkernel = import_package()
    print(json.dumps({"imported": True}), flush=True)
    if args.setup_only:
        return 0
    t0 = perf_counter()
    if args.trace:
        cycles = workloads.build(args.workload, args.seed, 0, workloads.TRACED_CYCLES[args.workload])
    else:
        cycles = workloads.build(args.workload, args.seed, *workloads.block(args.workload, args.part))
    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix="inputs-", dir=out_dir)
    try:
        for cycle in cycles:
            for job in cycle:
                job.write(work)
        generate_s = perf_counter() - t0
        # The inputs live for the whole run: keep them out of the cyclic
        # garbage collector's scans, so that jobs pay only for their own objects.
        gc.collect()
        gc.freeze()
        runner = Runner(dgkernel, cycles)
        result = {}
        if args.trace:
            before = reference_seconds()
            result["metrics"], failed, info = traced_run(runner, args.workload, out_dir)
            info["reference_s"] = [before, reference_seconds()]
        else:
            failed = runner.warm_up()
            before = reference_seconds()
            result["jobs"] = runner.loop(args.seconds, workloads.MIN_JOBS[args.workload])
            failed += [f for _, _, f, _ in result["jobs"]]
            info = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "reference_s": [before, result["jobs"][-1][3]]}
        info["generate_s"] = generate_s
        info["digest"] = workloads.digest(cycles)
        info["failures"] = runner.failures[:20]
        result.update(attempted=len(failed), failed=sum(failed), info=info)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
