"""Structural isomorphisms in coordinates against the per-basis builders
they replaced.

In the tensor basis (one block per left degree, by ascending degree, left
index major) the unitors, S(A (x) B) = SA (x) B and S[B,C] = [B,SC] are
identity matrices; the symmetry is a signed permutation matrix; the
associator and distributivity are permutation matrices, so each inverse is
the transpose of its forward map; R is L one degree up; and suspending a
module by k moves each action matrix up k degrees, with (-1)^{kp} on the
columns of hom degree p on the left.  The
reference_* functions below are the builders that rebuilt each map one
basis element at a time and wrote each inverse by hand; the tests check
that both give the same maps on random inputs.
"""

import argparse
import ast
import random
from pathlib import Path
from typing import Dict, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from conftest import removed_names, slot_chain_map, tensor_basis
from dgkernel import cli, dgcat
from dgkernel.cones import mc1_iso_LU
from dgkernel.complexes import (
    ChainMap,
    Complex,
    HomSpace,
    NotGraded,
    Proto,
    direct_sum,
    forget_U,
    functor_L,
    functor_R,
    make_complex,
    precomposition,
    suspension,
    unit_complex,
)
from dgkernel.dgcat import (
    LEFT,
    RIGHT,
    DGModule,
    action_domain,
    dg_subcategory_of_complexes,
    direct_sum_modules,
    exterior_g_category,
    module_from_complex,
    representable,
    suspend_module,
    two_object_graded_category,
    unit_dg_category,
)
from dgkernel.monoidal import (
    TensorSpace,
    _same_coordinates,
    associator,
    distributivity_iso,
    left_unitor,
    right_unitor,
    sten_hom_isos,
    sten_iso,
    symmetry,
    verify_duality_LR,
)
from dgkernel.rand import rand_complex
from dgkernel.totals import embed_i, tot_via_weighted_colimit
from dgkernel.zlinalg import IntMatrix, ShapeMismatch, block_matrix

SEEDS = st.integers(0, 2**32 - 1)


def reference_functor_R(x: Complex) -> Complex:
    """Right adjoint of U: (RX)_n = X_n + X_{n-1} with the same block d."""
    if not x.has_zero_differentials():
        raise NotGraded("R is defined on graded objects (all differentials zero)")
    ranks = {n: x.rank(n) + x.rank(n - 1)
             for n in range(x.lo, x.hi + 2)}
    diffs: Dict[int, IntMatrix] = {}
    for n in range(x.lo, x.hi + 2):
        r_top, r_bot = x.rank(n - 1), x.rank(n - 2)
        c_left, c_right = x.rank(n), x.rank(n - 1)
        if (r_top + r_bot) and (c_left + c_right):
            diffs[n] = block_matrix([
                [IntMatrix.zeros(r_top, c_left), IntMatrix.identity(r_top)],
                [IntMatrix.zeros(r_bot, c_left), IntMatrix.zeros(r_bot, c_right)],
            ])
    return Complex(ranks, diffs, _validated=True)


def reference_left_unitor(a: Complex) -> Tuple[ChainMap, ChainMap]:
    """Z (x) A = A, both directions."""
    unit = unit_complex()
    src = TensorSpace(unit, a)

    def fwd(n, flat):
        t = tensor_basis(src, n)[flat]
        return t.right_index, 1

    def bwd(n, flat):
        return src.slot_at(n, 0, 0, flat), 1

    return (slot_chain_map(src.complex, a, fwd), slot_chain_map(a, src.complex, bwd))


def reference_right_unitor(a: Complex) -> Tuple[ChainMap, ChainMap]:
    """A (x) Z = A, both directions."""
    unit = unit_complex()
    src = TensorSpace(a, unit)

    def fwd(n, flat):
        t = tensor_basis(src, n)[flat]
        return t.left_index, 1

    def bwd(n, flat):
        return src.slot_at(n, n, flat, 0), 1

    return (slot_chain_map(src.complex, a, fwd), slot_chain_map(a, src.complex, bwd))


def reference_symmetry(left: Complex, right: Complex) -> ChainMap:
    """sigma(a (x) b) = (-1)^{pq} b (x) a."""
    src = TensorSpace(left, right)
    tgt = TensorSpace(right, left)

    def mapping(n, flat):
        t = tensor_basis(src, n)[flat]
        sign = -1 if (t.left_degree * t.right_degree) % 2 else 1
        return tgt.slot_at(n, t.right_degree, t.right_index, t.left_index), sign

    return slot_chain_map(src.complex, tgt.complex, mapping)


def reference_associator(a: Complex, b: Complex, c: Complex) -> Tuple[ChainMap, ChainMap]:
    """(A (x) B) (x) C = A (x) (B (x) C), both directions, no signs."""
    ab = TensorSpace(a, b)
    bc = TensorSpace(b, c)
    left = TensorSpace(ab.complex, c)
    right = TensorSpace(a, bc.complex)

    def fwd(n, flat):
        t = tensor_basis(left, n)[flat]
        inner = tensor_basis(ab, t.left_degree)[t.left_index]
        bc_flat = bc.slot_at(inner.right_degree + t.right_degree,
                             inner.right_degree, inner.right_index, t.right_index)
        return right.slot_at(n, inner.left_degree, inner.left_index, bc_flat), 1

    def bwd(n, flat):
        t = tensor_basis(right, n)[flat]
        inner = tensor_basis(bc, t.right_degree)[t.right_index]
        ab_flat = ab.slot_at(t.left_degree + inner.left_degree,
                             t.left_degree, t.left_index, inner.left_index)
        return left.slot_at(n, t.left_degree + inner.left_degree, ab_flat,
                            inner.right_index), 1

    return (slot_chain_map(left.complex, right.complex, fwd),
            slot_chain_map(right.complex, left.complex, bwd))


def reference_distributivity_iso(a: Complex, b: Complex, c: Complex) -> Tuple[ChainMap, ChainMap]:
    """(A + B) (x) C = (A (x) C) + (B (x) C) by basis reordering."""
    ab = direct_sum([a, b])
    src = TensorSpace(ab, c)
    ac = TensorSpace(a, c)
    bc = TensorSpace(b, c)
    tgt = direct_sum([ac.complex, bc.complex])

    def fwd(n, flat):
        t = tensor_basis(src, n)[flat]
        ra = a.rank(t.left_degree)
        if t.left_index < ra:
            local = ac.slot_at(n, t.left_degree, t.left_index, t.right_index)
            return local, 1
        local = bc.slot_at(n, t.left_degree, t.left_index - ra, t.right_index)
        return ac.complex.rank(n) + local, 1

    def bwd(n, flat):
        ra_n = ac.complex.rank(n)
        if flat < ra_n:
            t = tensor_basis(ac, n)[flat]
            return src.slot_at(n, t.left_degree, t.left_index, t.right_index), 1
        t = tensor_basis(bc, n)[flat - ra_n]
        return src.slot_at(n, t.left_degree,
                           a.rank(t.left_degree) + t.left_index, t.right_index), 1

    return (slot_chain_map(src.complex, tgt, fwd),
            slot_chain_map(tgt, src.complex, bwd))


def reference_sten_iso(a: Complex, b: Complex) -> Tuple[ChainMap, ChainMap]:
    """S(A (x) B) = SA (x) B as mutually inverse chain maps."""
    ts_src = TensorSpace(a, b)
    src = suspension(ts_src.complex, 1)
    ts_tgt = TensorSpace(suspension(a, 1), b)

    def fwd(n, flat):
        t = tensor_basis(ts_src, n - 1)[flat]
        return ts_tgt.slot_at(n, t.left_degree + 1, t.left_index, t.right_index), 1

    def bwd(n, flat):
        t = tensor_basis(ts_tgt, n)[flat]
        return ts_src.slot_at(n - 1, t.left_degree - 1, t.left_index, t.right_index), 1

    fwd_map = slot_chain_map(src, ts_tgt.complex, fwd)
    bwd_map = slot_chain_map(ts_tgt.complex, src, bwd)
    return fwd_map, bwd_map


def reference_sten_hom_isos(b: Complex, c: Complex) -> Dict[str, Tuple[ChainMap, ChainMap]]:
    """S[B,C] = [S^-1 B, C] = [B, SC] realized by chain isomorphisms.

    Convention: S[B,C] -> [B,SC] is the plain identification; the
    degree-n component of S[B,C] -> [S^-1 B, C] carries the sign (-1)^n.
    """
    hs = HomSpace(b, c)
    s_hom = suspension(hs.complex, 1)
    hs_left = HomSpace(suspension(b, -1), c)
    hs_right = HomSpace(b, suspension(c, 1))

    # [S^-1 B, C] is precomposition with u: S^-1 B -> B, the identity on
    # each group, of degree 1; its inverse has degree -1.
    ids = {q: IntMatrix.identity(b.rank(q)) for q in b.degrees() if b.rank(q)}
    u = Proto(hs_left.source, b, 1, {q - 1: m for q, m in ids.items()})
    u_inv = Proto(b, hs_left.source, -1, ids)
    left_fwd = {n: precomposition(u, hs, hs_left, n - 1).scale(-1 if n % 2 else 1)
                for n in s_hom.degrees()}
    left_bwd = {n: precomposition(u_inv, hs_left, hs, n).scale(-1 if n % 2 else 1)
                for n in hs_left.complex.degrees()}

    # [B, SC]_n has the blocks of [B, C]_{n-1} in the same places, so the
    # plain identification is the identity on coordinates.
    same = {n: IntMatrix.identity(s_hom.rank(n)) for n in s_hom.degrees()}
    return {
        "left": (ChainMap(s_hom, hs_left.complex, 0, left_fwd),
                 ChainMap(hs_left.complex, s_hom, 0, left_bwd)),
        "right": (ChainMap(s_hom, hs_right.complex, 0, same),
                  ChainMap(hs_right.complex, s_hom, 0, same)),
    }


def reference_suspend_module(m: DGModule, k: int) -> DGModule:
    """Shift every value by k and reindex the actions.  On the right no
    sign appears (the identity-shaped S(A (x) B) = SA (x) B); on the left
    the shift crosses the hom factor and picks up (-1)^{k |f|}."""
    values = {x: suspension(m.value(x), k) for x in m.values}
    actions = {}
    for (u, v), table in m.actions.items():
        src, tgt = m.ends(u, v)
        ts_old = m.action_space(u, v)
        ts_new = action_domain(m.side, m.base.hom(u, v), values[src])
        comps = {}
        for n in ts_new.complex.degrees():
            old_n = n - k
            cols = []
            for t in tensor_basis(ts_new, n):
                # p: left degree of the same basis element before the shift
                if m.side == RIGHT:
                    p, sign = t.left_degree - k, 1
                else:
                    p, sign = t.left_degree, -1 if (k * t.left_degree) % 2 else 1
                col = table.comp(old_n).col(ts_old.slot_at(old_n, p, t.left_index, t.right_index))
                cols.append(col if sign == 1 else tuple(-x for x in col))
            comps[n] = IntMatrix.from_cols(cols, values[tgt].rank(n))
        actions[(u, v)] = ChainMap(ts_new.complex, values[tgt], 0, comps)
    return DGModule(m.base, values, actions, m.side)


@st.composite
def complexes(draw):
    """A small rand_complex, or the zero complex one time in six."""
    if draw(st.integers(0, 5)) == 0:
        return Complex.zero()
    return rand_complex(random.Random(draw(SEEDS)), bricks=2)


@st.composite
def graded(draw):
    """A small random graded object, or the zero complex one time in six."""
    if draw(st.integers(0, 5)) == 0:
        return Complex.zero()
    return forget_U(rand_complex(random.Random(draw(SEEDS)), bricks=1))


@st.composite
def modules(draw):
    """A module on either side: a complex over Z, a representable over a
    category with a hom in several degrees, or a sum with a suspension."""
    side = draw(st.sampled_from([RIGHT, LEFT]))
    kind = draw(st.sampled_from(["complex", "exterior", "two-object", "complexes"]))
    if kind == "complex":
        m = module_from_complex(unit_dg_category(), draw(complexes()), side)
    elif kind == "exterior":
        m = representable(exterior_g_category(draw(st.integers(0, 3))), "*", side)
    elif kind == "two-object":
        cat = two_object_graded_category(draw(st.integers(-2, 2)))
        m = representable(cat, draw(st.sampled_from(cat.objects)), side)
    else:
        cat = dg_subcategory_of_complexes({"a": draw(complexes()), "b": draw(graded())})
        m = representable(cat, draw(st.sampled_from(cat.objects)), side)
    if draw(st.booleans()):
        m = direct_sum_modules(m, suspend_module(m, draw(st.integers(-2, 2))))
    return m


SHIFTS = st.integers(-3, 3)


def assert_same_module(got: DGModule, want: DGModule):
    assert got.base is want.base and got.side == want.side
    assert got.values == want.values
    assert got.actions == want.actions


def is_identity(f: ChainMap) -> bool:
    return f.comps() == {n: IntMatrix.identity(f.source.rank(n))
                         for n in f.source.degrees() if f.source.rank(n)}


class TestAgainstTheReference:
    @settings(max_examples=60, deadline=None)
    @given(complexes())
    def test_unitors(self, a):
        assert left_unitor(a) == reference_left_unitor(a)
        assert right_unitor(a) == reference_right_unitor(a)

    @settings(max_examples=60, deadline=None)
    @given(complexes(), complexes())
    def test_sten_iso(self, a, b):
        assert sten_iso(a, b) == reference_sten_iso(a, b)

    @settings(max_examples=60, deadline=None)
    @given(complexes(), complexes())
    def test_symmetry(self, a, b):
        assert symmetry(a, b) == reference_symmetry(a, b)

    @settings(max_examples=40, deadline=None)
    @given(complexes(), complexes(), complexes())
    def test_associator(self, a, b, c):
        assert associator(a, b, c) == reference_associator(a, b, c)

    @settings(max_examples=40, deadline=None)
    @given(complexes(), complexes(), complexes())
    def test_distributivity_iso(self, a, b, c):
        assert distributivity_iso(a, b, c) == reference_distributivity_iso(a, b, c)

    @settings(max_examples=40, deadline=None)
    @given(complexes(), complexes())
    def test_sten_hom_isos(self, b, c):
        assert sten_hom_isos(b, c) == reference_sten_hom_isos(b, c)

    @settings(max_examples=60, deadline=None)
    @given(graded())
    def test_functor_R(self, x):
        assert functor_R(x) == reference_functor_R(x)

    def test_functor_R_rejects_honest_differentials(self):
        m2 = Complex({1: 1, 0: 1}, {1: IntMatrix.from_rows([[2]])})
        for build in (functor_R, reference_functor_R):
            with pytest.raises(NotGraded, match="R is defined"):
                build(m2)

    @settings(max_examples=60, deadline=None)
    @given(modules(), SHIFTS)
    def test_suspend_module(self, m, k):
        assert_same_module(suspend_module(m, k), reference_suspend_module(m, k))

    def test_suspend_module_odd_and_even_shifts_on_an_odd_hom(self):
        # the hom of exterior_g_category(1) has blocks of degrees 0 and 1,
        # so on the left an odd shift flips some columns and not others
        cat = exterior_g_category(1)
        for side in (RIGHT, LEFT):
            m = representable(cat, "*", side)
            for k in range(-3, 4):
                assert_same_module(suspend_module(m, k), reference_suspend_module(m, k))


class TestCoordinateShape:
    @settings(max_examples=40, deadline=None)
    @given(complexes(), complexes(), complexes())
    def test_inverses_are_transposes(self, a, b, c):
        for fwd, inv in (associator(a, b, c), distributivity_iso(a, b, c)):
            assert inv.comps() == {n: m.transpose() for n, m in fwd.comps().items()}
            for n, m in fwd.comps().items():   # a permutation: one 1 per column
                assert m.rows == m.cols
                assert all(sorted(m.col(j)) == [0] * (m.rows - 1) + [1] for j in range(m.cols))

    @settings(max_examples=40, deadline=None)
    @given(complexes(), complexes())
    def test_unitors_and_shift_isos_are_identities(self, a, b):
        maps = [*left_unitor(a), *right_unitor(a), *sten_iso(a, b),
                *sten_hom_isos(a, b)["right"]]
        for f in maps:
            assert f.source.ranks() == f.target.ranks()
            assert is_identity(f)

    def test_identity_needs_equal_ranks_in_every_degree(self):
        # the extra degree 1 of the target holds no component of either map,
        # so neither the shape check nor the chain-map check would see it
        with pytest.raises(ShapeMismatch):
            _same_coordinates(unit_complex(), Complex({0: 1, 1: 1}, {}))

    @settings(max_examples=40, deadline=None)
    @given(graded())
    def test_R_is_L_one_degree_up(self, x):
        lx, rx = functor_L(x), functor_R(x)
        assert rx.ranks() == {n + 1: r for n, r in lx.ranks().items()}
        for n in lx.degrees():
            assert rx.diff(n + 1) == lx.diff(n)

    @settings(max_examples=40, deadline=None)
    @given(modules(), SHIFTS)
    def test_suspension_moves_each_action_up_k_degrees(self, m, k):
        shifted = suspend_module(m, k)
        for (u, v), table in m.actions.items():
            moved = shifted.actions[(u, v)].comps()
            assert set(moved) == {n + k for n in table.comps()}
            for n, mat in table.comps().items():
                signs = [1] * mat.cols
                if m.side == LEFT:
                    for p, rows, cols, off in m.action_space(u, v).layout.blocks(n):
                        signs[off:off + rows * cols] = [(-1) ** (k * p % 2)] * (rows * cols)
                assert moved[n + k] == mat @ IntMatrix.diagonal(signs)


class TestUnitTablesAreUnitors:
    def test_unit_and_two_object_categories(self):
        k0 = unit_complex()
        one = left_unitor(k0)[0]
        assert unit_dg_category().compose_table == {("*", "*", "*"): one}
        for k in range(-1, 3):
            arrow = Complex.concentrated(k)
            cat = two_object_graded_category(k)
            assert cat.compose_table == {
                ("a", "a", "a"): one, ("b", "b", "b"): one,
                ("a", "a", "b"): right_unitor(arrow)[0], ("a", "b", "b"): left_unitor(arrow)[0]}
            assert cat.validate() == []

    @settings(max_examples=40, deadline=None)
    @given(complexes())
    def test_a_complex_as_a_module_acts_by_a_unitor(self, a):
        cat = unit_dg_category()
        for side, unitor in ((RIGHT, right_unitor), (LEFT, left_unitor)):
            m = module_from_complex(cat, a, side)
            assert m.actions == {("*", "*"): unitor(a)[0]}
            assert m.validate() == []


# builders that a structure map replaced
REMOVED_TABLE_BUILDERS = {"_summand_columns", "scalar_table", "suspension_map", "rand_graded"}


def hand_built_structure(package: Path):
    """What hand-built structure would leave in the package: (file, name)
    of each def, class, assignment or import of a removed builder; (file,
    line) of each .diff( call in solve_cauchy_counit, whose chain-map rows
    are the hom differential of its HomSpace; and (file, calls d_hom) for
    each cone_perturbation, which is -d_hom(u) moved down a degree."""
    defined, diffs, perturbations = [], [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.alias):
                names = [node.asname or node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(path.name, x) for x in names if x in REMOVED_TABLE_BUILDERS]
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            called = [c.func for c in ast.walk(node) if isinstance(c, ast.Call)]
            if node.name == "solve_cauchy_counit":
                diffs += [(path.name, f.lineno) for f in called
                          if isinstance(f, ast.Attribute) and f.attr == "diff"]
            if node.name == "cone_perturbation":
                perturbations.append((path.name, any(
                    getattr(f, "id", getattr(f, "attr", None)) == "d_hom" for f in called)))
    return sorted(defined), diffs, perturbations


class TestStructureMapsNotTables:
    def test_the_package_builds_no_table_by_hand(self):
        assert hand_built_structure(Path(dgcat.__file__).parent) == (
            [], [], [("cones.py", True)])

    def test_the_check_finds_a_planted_case(self, tmp_path):
        (tmp_path / "planted.py").write_text(
            "from .rand import rand_graded\n"
            "def scalar_table(l, r, t):\n    return None\n"
            "suspension_map = None\n"
            "def solve_cauchy_counit(m, n, eta):\n"
            "    def _summand_columns():\n        pass\n"
            "    return ts.complex.diff(0)\n"
            "def cone_perturbation(f, u):\n    return -f\n")
        assert hand_built_structure(tmp_path) == (
            [("planted.py", "_summand_columns"), ("planted.py", "rand_graded"),
             ("planted.py", "scalar_table"), ("planted.py", "suspension_map")],
            [("planted.py", 8)], [("planted.py", False)])


# records that wrapped a construction's maps, and the error of the Tot
# comparison's window option; each construction now returns its pair
REMOVED_RECORDS = {"TotComparison", "SupportExceedsWindow", "Mc1LUIso", "DualityWitness"}


def parameters_of(package: Path, function: str):
    """(file, parameter names) of each definition of ``function`` in the
    package, read with ast."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == function:
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                          *(x for x in (a.vararg, a.kwarg) if x)]
                found.append((path.name, [x.arg for x in params]))
    return found


def option_strings(parser: argparse.ArgumentParser):
    """Every option string of the parser and of each of its subcommands."""
    out = set()
    for action in parser._actions:
        out.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= option_strings(sub)
    return out


class TestConstructionsReturnTheirMaps:
    def test_each_returns_a_pair_of_chain_maps(self):
        a = make_complex({1: 1, 0: 1}, {1: [[2]]})
        for pair in (mc1_iso_LU(a), verify_duality_LR(),
                     tot_via_weighted_colimit(embed_i(a))):
            assert isinstance(pair, tuple) and len(pair) == 2
            assert all(isinstance(f, ChainMap) for f in pair)

    def test_the_removed_records_stay_out(self):
        assert removed_names(Path(dgcat.__file__).parent, REMOVED_RECORDS) == []

    def test_the_comparison_takes_the_double_complex_only(self):
        assert parameters_of(Path(dgcat.__file__).parent, "tot_via_weighted_colimit") == [
            ("totals.py", ["a"])]

    def test_tot_has_no_window_option(self):
        options = option_strings(cli.build_parser())
        assert "--compare-colim" in options and "--window" not in options

    def test_the_checks_find_a_planted_case(self, tmp_path):
        (tmp_path / "totals.py").write_text(
            "from .cones import Mc1LUIso\n"
            "class TotComparison:\n    pass\n"
            "def tot_via_weighted_colimit(a, window=None):\n"
            "    raise SupportExceedsWindow(w.DualityWitness)\n")
        assert removed_names(tmp_path, REMOVED_RECORDS) == [
            ("totals.py", "TotComparison", 2), ("totals.py", "Mc1LUIso", 1),
            ("totals.py", "SupportExceedsWindow", 5), ("totals.py", "DualityWitness", 5)]
        assert parameters_of(tmp_path, "tot_via_weighted_colimit") == [
            ("totals.py", ["a", "window"])]
        planted = argparse.ArgumentParser()
        planted.add_subparsers().add_parser("tot").add_argument("--window")
        assert "--window" in option_strings(planted)
