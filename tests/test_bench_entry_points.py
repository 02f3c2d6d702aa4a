"""The names the benchmark reaches into the program by.

The traced benchmark run (bench/tracing.py) wraps entry points it names by
string, and the `universal` workload reads fields of canonical_presentation's
result and the verdict of a weighted colimit's defining_iso_verified.  A
change that drops or renames one of them, or answers a truthy value other
than True, would first fail in a benchmark run; these tests make it fail
here.  bench/tracing.py and bench/workloads.py are loaded from their files
and only read.  The traced run's self-check pins the suite's SNF calls in
bench/worker.py, which is parsed, never run, and compared with the tests'
own pin, so the two cannot drift apart.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import dgkernel
from dgkernel import acceptance
from dgkernel.complexes import make_complex, suspension, unit_complex
from dgkernel.dgcat import LEFT, module_from_complex, trivial_weight, unit_dg_category

from test_acceptance import SUITE_SNF_CALLS

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def tracing():
    return _bench_module("tracing")


def test_every_traced_function_resolves(tracing):
    missing = [f"{mod}.{attr}" for mod, attr in tracing.FUNCTIONS
               if not callable(getattr(importlib.import_module(f"dgkernel.{mod}"), attr, None))]
    assert missing == []


def test_every_traced_method_is_defined_on_its_class(tracing):
    missing = [name for mod, cls, attr, name in tracing.METHODS
               if attr not in vars(getattr(importlib.import_module(f"dgkernel.{mod}"), cls))]
    assert missing == []


def test_one_traced_span_per_criterion(tracing):
    criteria = [name for name, fn in vars(acceptance).items()
                if name.startswith("criterion_") and callable(fn)]
    assert len(criteria) == tracing.CRITERIA


COMPLEXES = pytest.mark.parametrize("ranks, diffs", [({0: 1}, {}), ({1: 1, 0: 1}, {1: [[2]]})],
                                    ids=["Z", "M2"])


@COMPLEXES
def test_canonical_presentation_answers_the_universal_workload(ranks, diffs):
    # the workload's check reads both flags with `is True`
    cp = dgkernel.canonical_presentation(make_complex(ranks, diffs))
    assert cp.fork_commutes is True and cp.coequalizer_verified is True


@COMPLEXES
def test_weighted_colimit_answers_the_universal_workload(ranks, diffs):
    # the workload's CallJob.check accepts only `result is True`
    cat = unit_dg_category()
    diagram = module_from_complex(cat, make_complex(ranks, diffs), LEFT)
    wc = dgkernel.weighted_colimit(trivial_weight(cat), diagram)
    assert wc.defining_iso_verified([unit_complex(), suspension(unit_complex(), 1)]) is True


# Smith normal form calls of the first job of each class in cycle 0 of the
# `universal` pool at seed 20260810.  Building the hom, tensor and Tot
# spaces' differentials on first read, and the weighted colimit's cocone
# once per call, must move none of them.
UNIVERSAL_SNF_CALLS = {"weighted_colimit": 158, "tot": 36}


def _first_job_snf_calls(workload, kind, directory, zlinalg_calls):
    workloads = _bench_module("workloads")
    job = next(j for j in workloads.build(workload, 20260810, 0, 1)[0] if j.kind == kind)
    job.write(str(directory))
    with zlinalg_calls("smith_normal_form") as made:
        result = job.run(dgkernel)
    assert job.check(result) == ""
    return made


@pytest.mark.parametrize("kind", UNIVERSAL_SNF_CALLS)
def test_universal_job_snf_calls_are_pinned(kind, tmp_path, zlinalg_calls):
    made = _first_job_snf_calls("universal", kind, tmp_path, zlinalg_calls)
    assert len(made) == UNIVERSAL_SNF_CALLS[kind]


# (calls, distinct decompositions) of the first job of each class in cycle 0
# of the `homology` pool at seed 20260810.  Homology makes three calls per
# degree with cycles: on d_n, on d_{n+1} and on the canonical presentation;
# d_{n+1}'s decomposition is read back, not recomputed, as the next degree's
# d_n.
HOMOLOGY_SNF_CALLS = {"skeleton(8,5)": (22, 17), "dense(40)": (6, 5)}


@pytest.mark.parametrize("kind", HOMOLOGY_SNF_CALLS)
def test_homology_job_snf_calls_are_pinned(kind, tmp_path, zlinalg_calls):
    made = _first_job_snf_calls("homology", kind, tmp_path, zlinalg_calls)
    assert (len(made), len({id(s) for s in made})) == HOMOLOGY_SNF_CALLS[kind]


def test_the_suite_snf_pin_has_one_value():
    tree = ast.parse((BENCH / "worker.py").read_text())
    pinned = [node.value.value for node in tree.body if isinstance(node, ast.Assign)
              and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SELF_CHECK_SNF_CALLS"]]
    assert pinned == [SUITE_SNF_CALLS]
