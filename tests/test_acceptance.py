"""Acceptance gate: one test per exit criterion, exact tolerances.

Each test prints its pass/fail line (run pytest with -s to see them all).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dgkernel.acceptance import ALL_CRITERIA, run_all

SEED = 20260809


@pytest.mark.parametrize("criterion", ALL_CRITERIA,
                         ids=[fn.__name__ for fn in ALL_CRITERIA])
def test_criterion(criterion):
    result = criterion(SEED)
    print(result.line())
    assert result.passed, result.line()


def test_suite_is_deterministic():
    lines1 = [r.line() for r in run_all(SEED)]
    lines2 = [r.line() for r in run_all(SEED)]
    assert lines1 == lines2


# Three counts of the suite's Smith normal form work:
# - calls: every smith_normal_form call (pinned by the benchmark's traced
#   self-check as well);
# - factorizations: distinct decompositions returned.  A repeat call on the
#   same matrix object returns its stored one: homology reads d_{n+1}'s back
#   as the next degree's d_n;
# - eliminations: calls whose operand held no decomposition, so that the call
#   ran the elimination.  A matrix born with its decomposition (a kernel
#   basis, a U or V, a rand_unimodular matrix, a canonical presentation)
#   counts as a factorization but not as an elimination.  Counted in a fresh
#   process, as `dgkernel suite` runs: the zero differentials of the module's
#   K0 keep their decompositions, so a second run in one process eliminates
#   two fewer.
SUITE_SNF_CALLS = 4776
SUITE_FACTORIZATIONS = 4513
SUITE_ELIMINATIONS = 1226


def test_suite_snf_call_count_is_pinned(zlinalg_calls):
    with zlinalg_calls("smith_normal_form") as made:
        assert all(r.passed for r in run_all(SEED))
    assert len(made) == SUITE_SNF_CALLS


def test_suite_factorization_count_is_pinned(zlinalg_calls):
    # A repeat call on the same matrix object returns its stored
    # decomposition: calls stay pinned, factorizations are fewer.
    with zlinalg_calls("smith_normal_form") as made:
        assert all(r.passed for r in run_all(SEED))
    assert len({id(s) for s in made}) == SUITE_FACTORIZATIONS


ELIMINATIONS_IN_A_FRESH_PROCESS = """
import sys
sys.path.insert(0, sys.argv[1])
from conftest import _recording
from dgkernel.acceptance import run_all

with _recording("smith_normal_form") as made:
    assert all(r.passed for r in run_all(int(sys.argv[2])))
print(len(made), len(made.eliminated))
"""


def test_suite_elimination_count_is_pinned():
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
    out = subprocess.run([sys.executable, "-c", ELIMINATIONS_IN_A_FRESH_PROCESS,
                          str(tests), str(SEED)],
                         capture_output=True, text=True, env=env, check=True).stdout
    assert out.split() == [str(SUITE_SNF_CALLS), str(SUITE_ELIMINATIONS)]


BROKEN_SNF_UNDER_O = """
import sys
from dgkernel import acceptance, zlinalg

real = zlinalg.smith_normal_form

def broken(m):
    s = real(m)
    return zlinalg.SmithDecomposition(s.D.scale(2), s._row_ops, s._col_ops)

print("optimize", sys.flags.optimize)
print(acceptance.criterion_1_snf(20260809).line())
acceptance.smith_normal_form = broken
print(acceptance.criterion_1_snf(20260809).line())
"""


def test_criterion_fails_on_broken_snf_under_python_O():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", BROKEN_SNF_UNDER_O],
                         capture_output=True, text=True, env=env, check=True).stdout
    lines = out.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1].startswith("[PASS] criterion  1")
    assert lines[2].startswith("[FAIL] criterion  1") and "U M V != D" in lines[2]


BROKEN_DELTA_SIGN_UNDER_O = """
import sys
from dgkernel import acceptance, totals

real = totals.precomposition

print("optimize", sys.flags.optimize)
print(acceptance.criterion_11_totalization(20260809).line())
totals.precomposition = lambda *args: -real(*args)
print(acceptance.criterion_11_totalization(20260809).line())
"""


def test_criterion_fails_on_broken_delta_sign_under_python_O():
    # the Tot adjunction check meets delta only through precomposition:
    # negating it flips the sign of the delta term of the DG differential
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", BROKEN_DELTA_SIGN_UNDER_O],
                         capture_output=True, text=True, env=env, check=True).stdout
    lines = out.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1].startswith("[PASS] criterion 11")
    assert lines[2].startswith("[FAIL] criterion 11") and "graded adjunction fails" in lines[2]


UNSIGNED_SYMMETRY_UNDER_O = """
import sys
from dgkernel import acceptance
from dgkernel.complexes import Proto
from dgkernel.zlinalg import IntMatrix

real = acceptance.symmetry

def unsigned(a, b):
    s = real(a, b)
    return Proto(s.source, s.target, 0, {n: IntMatrix(m.rows, m.cols, [abs(x) for x in m.entries()])
                                         for n, m in s.comps().items()})

print("optimize", sys.flags.optimize)
print(acceptance.criterion_4_monoidal(20260809).line())
acceptance.symmetry = unsigned
print(acceptance.criterion_4_monoidal(20260809).line())
"""


def test_criterion_fails_on_unsigned_symmetry_under_python_O():
    # dropping the Koszul sign (-1)^{pq} of the symmetry keeps sigma^2 = 1
    # (an unsigned permutation is still inverse to its transpose), so only
    # the naturality check can see it
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", UNSIGNED_SYMMETRY_UNDER_O],
                         capture_output=True, text=True, env=env, check=True).stdout
    lines = out.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1].startswith("[PASS] criterion  4")
    assert lines[2].startswith("[FAIL] criterion  4") and "Koszul naturality sign fails" in lines[2]


SIGN_BATTERY_UNDER_O = """
import sys
from dgkernel import acceptance

print("optimize", sys.flags.optimize)
print(acceptance.criterion_12_mutation_sensitivity(20260809).line())
"""


def test_criterion_12_passes_under_python_O():
    # with assert statements stripped, each flipped sign must still make
    # the builder it breaks raise: the trusted builds (the cone of a chain
    # map, the hom, tensor and Tot spaces) check again under any sign
    # other than the right one
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", SIGN_BATTERY_UNDER_O],
                         capture_output=True, text=True, env=env, check=True).stdout
    lines = out.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1].startswith("[PASS] criterion 12")


def test_criterion_fails_on_a_duality_pair_that_breaks_a_triangle(monkeypatch):
    # criterion 5 computes both triangle identities on the returned pair
    from dgkernel import acceptance

    real = acceptance.verify_duality_LR
    assert acceptance.criterion_5_duality(SEED).passed

    def doubled_unit():
        unit, counit = real()
        return 2 * unit, counit

    monkeypatch.setattr(acceptance, "verify_duality_LR", doubled_unit)
    line = acceptance.criterion_5_duality(SEED).line()
    assert line.startswith("[FAIL] criterion  5") and "triangle identities fail" in line


def test_package_has_no_assert_statements():
    import dgkernel

    offenders = []
    for path in sorted(Path(dgkernel.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []
