"""Benchmark entry point.

    python3 bench/run.py --workload homology|universal|suite --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Every process it starts is a fresh
``bench/worker.py`` with PYTHONHASHSEED fixed, started only after the one
before it has ended, and each is waited for.

--trace 0 measures the end-to-end metrics: ``setup_s`` is the median over
SETUP_SAMPLES fresh processes (after one warm-up) of the wall time from
process start until ``dgkernel`` is imported, the program's whole set-up.
The jobs run in ``workloads.PROCESSES`` more processes, one after another,
each on its own block of the pool for S / PROCESSES seconds; the metrics
pool the jobs of all of them, so that no single process's speed (a
process's memory layout, where the host ran it) sets a run's figures.
Job times are reported in units of a fixed reference computation timed
in the same process around every job (see end_to_end), and in seconds
in the report lines above the result.
--trace 1 reports the per-layer metrics of a traced run instead, which
runs a fixed number of cycles whatever S is (see worker.py and
tracing.py).  Either way, the inputs are generated here too, under this
process's hash seed, and their digest must equal the worker's.

The last line of standard output is the result as one JSON object.  The
exit code is 0 when a result was printed, whether or not it is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
HASH_SEED = "0"
TIME_LIMIT_S = 170   # the whole run, so that it ends within 180 s


class WorkerFailed(RuntimeError):
    pass


def start_worker(args, *extra):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), *extra]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    return proc, t0


def read_imported(proc, t0, deadline) -> float:
    """Seconds from process start until the worker's first line, which it
    prints once dgkernel is imported."""
    if not select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))[0]:
        stop(proc)
        raise WorkerFailed("worker did not import dgkernel in time")
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    try:
        imported = json.loads(line).get("imported")
    except ValueError:
        imported = False
    if not imported:
        stop(proc)
        raise WorkerFailed(f"worker could not import dgkernel (exit code {proc.returncode})")
    return setup


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def finish(proc, deadline) -> str:
    """Wait for the worker; its remaining output, or raise if it failed."""
    try:
        rest, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise WorkerFailed("worker timed out")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return rest


def nearest_rank(n: int, p: int) -> int:
    """1-based rank of the p-th percentile of n samples."""
    return max(1, -(-n * p // 100))


def end_to_end(workload: str, parts, rss_mb):
    """The end-to-end metrics of the jobs of every process (set-up apart),
    and what the report says next to them.  `parts` holds, per process,
    the reference time sampled before its first job and its jobs as
    [kind, seconds, failed, reference seconds after the job].

    A job's time in reference units is its wall time divided by the mean
    of the reference samples just before and just after it: the shared
    host speeds up and slows down by a quarter within minutes, and the
    fixed reference computation, run in the same process at the same
    moment, slows down with it.  Wall-clock figures are reported too."""
    p = workloads.tail_percentile(workload)
    jobs = []
    for before, part in parts:
        for kind, t, failed, after in part:
            jobs.append((kind, t, failed, 2 * t / (before + after)))
            before = after
    rank = nearest_rank(len(jobs), p) - 1
    verified = sum(not f for _, _, f, _ in jobs)
    wall = sorted(t for _, t, _, _ in jobs)
    ref = sorted(r for *_, r in jobs)
    by_kind = {}
    for kind, t, _, _ in jobs:
        by_kind.setdefault(kind, []).append(t)
    return {
        "jobs_per_kref": 1000 * verified / sum(ref),
        "job_p50_ref": statistics.median(ref),
        "job_tail_ref": ref[rank],
        "peak_rss_mb": rss_mb,
    }, {"tail_percentile": p, "jobs": len(jobs), "beyond_tail": len(jobs) - rank - 1,
        "wall": {"jobs_per_s": verified / sum(wall), "job_p50_s": statistics.median(wall),
                 "job_tail_s": wall[rank]},
        "kind_p50_s": {k: statistics.median(v) for k, v in by_kind.items()}}


def run_worker(args, deadline, *extra) -> dict:
    """Start one worker, wait for it to end and return its result line."""
    proc, _ = start_worker(args, *extra)
    try:
        lines = finish(proc, deadline).strip().splitlines()
    finally:
        if proc.poll() is None:
            stop(proc)
    return json.loads(lines[-1])


def measure(args):
    """(result object, info, problems) of one run."""
    deadline = perf_counter() + TIME_LIMIT_S
    wl = args.workload
    if args.trace:
        parts = [([], (0, workloads.TRACED_CYCLES[wl]))]
    else:
        setups = []
        for k in range(SETUP_SAMPLES + 1):
            proc, t0 = start_worker(args, "--setup-only")
            setup = read_imported(proc, t0, deadline)
            finish(proc, deadline)
            if k:  # the first start also fills the bytecode cache
                setups.append(setup)
        seconds = f"{args.seconds / workloads.PROCESSES:g}"
        parts = [(["--part", str(k), "--seconds", seconds], workloads.block(wl, k))
                 for k in range(workloads.PROCESSES)]
    results = [run_worker(args, deadline, *extra) for extra, _ in parts]
    problems, cycles = [], []
    for result, (_, span) in zip(results, parts):
        problems += result["info"]["failures"]
        block = workloads.build(wl, args.seed, *span)
        cycles += block
        if result["info"]["digest"] != workloads.digest(block):
            problems.append(f"inputs of cycles {span} differ between processes: "
                            f"{result['info']['digest']} != {workloads.digest(block)}")
    infos = [r["info"] for r in results]
    info = {"digest": workloads.digest(cycles),
            "reference_s": [x for i in infos for x in i["reference_s"]],
            "generate_s": [i["generate_s"] for i in infos]}
    if args.trace:
        metrics = results[0]["metrics"]
        info.update({k: v for k, v in infos[0].items() if k not in info})
        units = dict(tracing.per_layer_metrics())
    else:
        metrics, more = end_to_end(wl, [(i["reference_s"][0], r["jobs"]) for r, i in zip(results, infos)],
                                   max(i["peak_rss_mb"] for i in infos))
        info.update(more)
        metrics["setup_s"] = statistics.median(setups)
        info["setup_samples"] = setups
        info["jobs_per_process"] = [len(r["jobs"]) for r in results]
        units = {"setup_s": "s", "jobs_per_kref": "1/kref", "job_p50_ref": "ref",
                 "job_tail_ref": "ref", "peak_rss_mb": "MiB"}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }, info, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        result, info, problems = measure(args)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, inputs sha256 {info['digest']}")
    if "tail_percentile" in info:
        wall = info["wall"]
        print(f"job_tail_ref is p{info['tail_percentile']} of {info['jobs']} jobs "
              f"({info['beyond_tail']} beyond it)")
        print(f"wall clock: {wall['jobs_per_s']:.3f} jobs/s, median job {wall['job_p50_s']:.4f} s, "
              f"p{info['tail_percentile']} {wall['job_tail_s']:.4f} s")
    loops = info["reference_s"]
    print(f"reference computation {min(loops) * 1e3:.2f} to {max(loops) * 1e3:.2f} ms "
          "before and after the jobs of each process")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
