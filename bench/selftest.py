"""The benchmark's own tests.  Run from the root of the repository:

    python3 -m pytest -q bench/selftest.py

They start worker processes the way ``bench/run.py`` does; a traced run
takes up to a minute.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".max_bits", ".cells", ".repeat_frac", ".constructed")


def worker(*args) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    return {k: v for k, v in result["metrics"].items() if k.endswith(COUNT_SUFFIXES)}


@pytest.mark.parametrize("workload", ["homology", "universal"])
def test_traced_counts_repeat_exactly(workload):
    args = ["--workload", workload, "--seed", "7", "--trace", "1"]
    first, second = worker(*args), worker(*args)
    assert first["failed"] == 0 and second["failed"] == 0
    traced = workloads.build(workload, 7, 0, workloads.TRACED_CYCLES[workload])
    assert first["attempted"] == 2 * sum(len(c) for c in traced)
    assert counts(first) == counts(second)
    assert counts(first)["zlinalg.smith_normal_form.calls"] > 0


def test_tracer_self_check_and_span_file():
    result = worker("--workload", "suite", "--seed", "7", "--trace", "1")
    check = result["info"]["self_check"]
    assert check["problem"] == ""
    assert check["snf_calls"] == 4776
    assert result["failed"] == 0
    header, cols = tracing.read_spans(str(ROOT / result["info"]["spans_file"]))
    ids = set(cols["span_id"])
    assert header["spans"] == len(ids) == result["info"]["spans"]
    assert all(p == -1 or p in ids for p in cols["parent"])
    assert set(cols["job"]) == set(range(workloads.TRACED_CYCLES["suite"]))


def test_malformed_output_is_a_failed_job():
    from worker import Runner

    job = workloads.homology_job("skeleton(4,1)", *workloads.skeleton(random.Random(1), 4, 1))
    job.ident = "0-0"
    runner = Runner(None, [])
    for out in ("not json", "{}", '{"homology": {"H_0": "Q"}}'):
        job.run = lambda dgkernel, out=out: (0, out)
        _, _, problem = runner.run_job(job)
        assert problem.startswith("skeleton(4,1) 0-0: ")


def test_job_times_in_reference_units():
    import run

    # Two processes whose reference computation ran at different speeds:
    # in reference units their jobs took 10 and 20 alike.
    parts = [(0.01, [["a", 0.1, False, 0.01], ["b", 0.2, False, 0.01]]),
             (0.02, [["a", 0.2, False, 0.02], ["b", 0.4, True, 0.02]])]
    metrics, info = run.end_to_end("homology", parts, 30.0)
    assert metrics["job_p50_ref"] == pytest.approx(15.0)
    assert metrics["job_tail_ref"] == pytest.approx(20.0)
    assert metrics["jobs_per_kref"] == pytest.approx(1000 * 3 / 60.0)
    assert info["wall"]["job_p50_s"] == pytest.approx(0.2)
    assert info["wall"]["jobs_per_s"] == pytest.approx(3 / 0.9)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "jobs_per_kref", "job_p50_ref",
                                                      "job_tail_ref", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert (workloads.digest(workloads.build(name, 3))
                == workloads.digest(workloads.build(name, 3)))
        assert (workloads.digest(workloads.build(name, 3))
                != workloads.digest(workloads.build(name, 4)))


def test_blocks_are_slices_of_the_pool():
    for name in workloads.WORKLOADS:
        pool = workloads.build(name, 3)
        for part in range(workloads.PROCESSES):
            first, count = workloads.block(name, part)
            assert (workloads.digest(workloads.build(name, 3, first, count))
                    == workloads.digest(pool[first:first + count]))


def test_oracles_are_exact():
    assert workloads.bareiss([[2, 1], [1, 3]]) == (5, 2)
    assert workloads.bareiss([[0, 1], [1, 0]]) == (-1, 2)
    assert workloads.bareiss([[1, 2], [2, 4]]) == (0, 1)
    assert workloads.invariant_factors([2, 3, 4, 2]) == (2, 2, 12)
    assert workloads.invariant_factors([6, 6]) == (6, 6)
    expected = {0: (1, (2,)), 2: (3, ())}
    assert workloads.check_homology({"H_0": "Z + Z/2", "H_2": "Z^3"}, expected) == ""
    assert workloads.check_homology({"H_0": "Z + Z/4", "H_2": "Z^3"}, expected)
    assert workloads.check_homology({"H_0": "Z + Z/2"}, expected)
    assert workloads.check_homology({"H_0": "Z/3 + Z/2"}, {0: (0, ("det", 6))})
    assert workloads.check_homology({"H_0": "Z/2 + Z/6"}, {0: (0, ("det", 12))}) == ""


def test_suite_oracle_needs_every_pass_line():
    job = workloads.suite_job(1)
    passing = "".join(f"[PASS] criterion {n:2d}: x\n" for n in range(1, 13))
    assert job.check((0, passing)) == ""
    assert job.check((1, passing))
    assert job.check((0, passing.replace("[PASS] criterion  5", "[FAIL] criterion  5")))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "suite", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
