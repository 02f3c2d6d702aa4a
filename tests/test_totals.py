"""Double complexes, Tot, the totalization weight and the Tot adjunction.

The Tot adjunction checks used to build one Proto per basis element of
[Tot A, X]_n, carry it to a DG hom element and back, and compare
differentials element by element.  They now compare matrices under a
relabelling of coordinates.  The reference_* functions below are the
per-basis versions; the tests check that both give the same verdicts and
that the relabelling and the stacked DG differential are what the
per-basis code computes.  The DG hom calculus on double complexes
(`DGHomElement` and the reference_dg_* operations) lives here only: the
package computes with the relabelled matrices, and the calculus is the
oracle they are checked against.

The totalization weight, the diagram of a double complex and the
comparison map Phi are written block by block; reference_weight_J,
reference_double_complex_as_left_module and reference_tot_comparison are
the per-hom and per-basis-element constructions they replaced.
"""

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from conftest import protos, tensor_basis
import dgkernel.totals as totals
from dgkernel.complexes import (
    ChainMap,
    Complex,
    HomSpace,
    Proto,
    compose,
    d_hom,
    homology_H,
    identity_map,
    make_complex,
    scatter_kron,
    functor_L,
    suspension,
    unit_complex,
)
from dgkernel.dgcat import DGModule, LEFT, ell_op_window_category, weighted_colimit
from dgkernel.monoidal import TensorSpace
from dgkernel.rand import rand_chain_map, rand_complex, rand_double_complex, rand_proto
from dgkernel.totals import (
    DoubleComplex,
    TotSpace,
    _TotHomSpaces,
    _triangular_sign,
    double_complex_as_left_module,
    embed_i,
    tot_adjunction_check,
    tot_adjunction_natural_in_x,
    tot_via_weighted_colimit,
    total_complex,
    weight_J,
)
from dgkernel.zlinalg import IntMatrix, ShapeMismatch, block_matrix, inverse_unimodular

K0 = unit_complex()
SEEDS = st.integers(0, 2**32 - 1)


# -- the DG hom calculus ------------------------------------------------------


@dataclass
class DGHomElement:
    """Degree-n family f_{p,q}: A_q -> B_p of protos of degree n - p + q,
    finitely supported."""

    source: DoubleComplex
    target: DoubleComplex
    degree: int
    comps: Dict[Tuple[int, int], Proto]

    def __post_init__(self):
        cleaned = {}
        for (p, q), f in self.comps.items():
            if f.degree != self.degree - p + q:
                raise ShapeMismatch(
                    f"component ({p},{q}) has proto degree {f.degree}, "
                    f"expected {self.degree - p + q}")
            if f.source != self.source.column(q) or f.target != self.target.column(p):
                raise ShapeMismatch(f"component ({p},{q}) joins the wrong columns")
            if not f.is_zero():
                cleaned[(p, q)] = f
        self.comps = cleaned

    def comp(self, p: int, q: int) -> Proto:
        f = self.comps.get((p, q))
        if f is None:
            return Proto.zero(self.source.column(q), self.target.column(p),
                              self.degree - p + q)
        return f

    def is_zero(self) -> bool:
        return not self.comps

    def __add__(self, other: "DGHomElement") -> "DGHomElement":
        if (self.source, self.target, self.degree) != (other.source, other.target, other.degree):
            raise ShapeMismatch("elements not parallel")
        keys = set(self.comps) | set(other.comps)
        return DGHomElement(self.source, self.target, self.degree,
                            {k: self.comp(*k) + other.comp(*k) for k in keys})

    def __rmul__(self, c: int) -> "DGHomElement":
        return DGHomElement(self.source, self.target, self.degree,
                            {k: c * f for k, f in self.comps.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, DGHomElement):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.degree == other.degree and self.comps == other.comps)


def reference_dg_identity(a: DoubleComplex) -> DGHomElement:
    comps = {(m, m): identity_map(a.column(m)) for m in a.column_degrees()}
    return DGHomElement(a, a, 0, comps)


def reference_dg_hom_differential(f: DGHomElement) -> DGHomElement:
    """d(f)_{p,q} = (-1)^p d(f_{p,q}) + delta_p o f_{p+1,q}
    - (-1)^n f_{p,q-1} o delta_q."""
    a, b, n = f.source, f.target, f.degree
    sign_n = -1 if n % 2 else 1
    p_range = set()
    for (p, q) in f.comps:
        p_range.update([(p, q), (p - 1, q), (p, q + 1)])
    for p in b.column_degrees():
        for q in a.column_degrees():
            p_range.add((p, q))
    comps = {}
    for (p, q) in p_range:
        term = Proto.zero(a.column(q), b.column(p), n - 1 - p + q)
        term = term + ((-1 if p % 2 else 1) * d_hom(f.comp(p, q)))
        term = term + compose(b.delta_map(p + 1), f.comp(p + 1, q))
        term = term - sign_n * compose(f.comp(p, q - 1), a.delta_map(q))
        if not term.is_zero():
            comps[(p, q)] = term
    return DGHomElement(a, b, n - 1, comps)


def reference_dg_compose(g: DGHomElement, f: DGHomElement) -> DGHomElement:
    """(g o f)_{p,q} = sum_r g_{p,r} o f_{r,q}."""
    if g.source != f.target:
        raise ShapeMismatch("dg_compose: middle double complexes differ")
    comps: Dict[Tuple[int, int], Proto] = {}
    for (p, r) in g.comps:
        for (r2, q) in f.comps:
            if r2 != r:
                continue
            term = compose(g.comp(p, r), f.comp(r, q))
            if (p, q) in comps:
                comps[(p, q)] = comps[(p, q)] + term
            else:
                comps[(p, q)] = term
    return DGHomElement(f.source, g.target, g.degree + f.degree, comps)


def rand_dg_hom(rng, a, b, n):
    comps = {}
    for p in b.column_degrees():
        for q in a.column_degrees():
            pr = rand_proto(rng, a.column(q), b.column(p), n - p + q)
            if not pr.is_zero():
                comps[(p, q)] = pr
    return DGHomElement(a, b, n, comps)


class TestDoubleComplex:
    def test_validation_of_delta_squared(self):
        col = make_complex({0: 1})
        with pytest.raises(ShapeMismatch):
            DoubleComplex({1: col, 0: col, -1: col},
                          {1: identity_map(col), 0: identity_map(col)})

    def test_delta_must_be_chain_map(self):
        from dgkernel.complexes import Proto

        m2 = make_complex({1: 1, 0: 1}, {1: [[2]]})
        bad = Proto(m2, m2, 0, {1: IntMatrix.from_rows([[1]]),
                                0: IntMatrix.from_rows([[2]])})
        with pytest.raises(Exception):
            DoubleComplex({1: m2, 0: m2}, {1: bad})

    def test_non_integer_column_index_rejected(self):
        # int() used to merge 1.5 and True into one column at 1
        col = make_complex({0: 1})
        with pytest.raises(ValueError, match=r"^column index 1\.5 is not an integer$"):
            DoubleComplex({1.5: col, True: col}, {})
        with pytest.raises(ValueError, match="^column index True is not an integer$"):
            DoubleComplex({True: col}, {})
        with pytest.raises(ValueError, match=r"^column index 1\.0 is not an integer$"):
            DoubleComplex({1: col, 0: col}, {1.0: identity_map(col)})

    def test_embed_single_column(self):
        x = rand_complex(random.Random(0))
        a = embed_i(x)
        assert a.column(0) == x
        assert a.column(5).is_zero()


class TestTotalComplex:
    def test_single_column_is_identity(self):
        rng = random.Random(1)
        for _ in range(10):
            x = rand_complex(rng)
            assert total_complex(embed_i(x)) == x

    def test_shifted_single_entry(self):
        a = DoubleComplex({1: K0}, {})
        assert total_complex(a) == Complex.concentrated(1)

    def test_anticommuting_square_is_acyclic(self):
        col = make_complex({1: 1, 0: 1}, {1: [[1]]})
        a = DoubleComplex({1: col, 0: col}, {1: identity_map(col)})
        assert homology_H(total_complex(a)).is_trivial()

    def test_d_squared_and_rank_convolution_on_100(self):
        rng = random.Random(2)
        for _ in range(100):
            a = rand_double_complex(rng)
            tot = total_complex(a)  # constructor validates d^2 = 0
            for n in tot.degrees():
                assert tot.rank(n) == sum(
                    a.entry_rank(m, n - m) for m in a.column_degrees())


class TestDGHomCalculus:
    def test_identity_is_cycle(self):
        rng = random.Random(3)
        for _ in range(10):
            a = rand_double_complex(rng)
            assert reference_dg_hom_differential(reference_dg_identity(a)).is_zero()

    def test_single_entry_with_zero_delta_reduces_to_inner(self):
        rng = random.Random(4)
        x, y = rand_complex(rng), rand_complex(rng)
        a, b = embed_i(x), embed_i(y)
        f = rand_dg_hom(rng, a, b, 0)
        df = reference_dg_hom_differential(f)
        from dgkernel.complexes import d_hom

        assert df.comp(0, 0) == d_hom(f.comp(0, 0))

    def test_differential_squares_to_zero(self):
        rng = random.Random(5)
        for _ in range(20):
            a, b = rand_double_complex(rng), rand_double_complex(rng)
            f = rand_dg_hom(rng, a, b, rng.randint(-1, 1))
            assert reference_dg_hom_differential(reference_dg_hom_differential(f)).is_zero()

    def test_identity_laws_and_single_entries(self):
        rng = random.Random(6)
        for _ in range(10):
            a, b = rand_double_complex(rng), rand_double_complex(rng)
            f = rand_dg_hom(rng, a, b, rng.randint(-1, 1))
            assert reference_dg_compose(reference_dg_identity(b), f) == f
            assert reference_dg_compose(f, reference_dg_identity(a)) == f

    def test_leibniz(self):
        rng = random.Random(7)
        for _ in range(15):
            a, b, c = (rand_double_complex(rng) for _ in range(3))
            f = rand_dg_hom(rng, a, b, rng.randint(-1, 1))
            g = rand_dg_hom(rng, b, c, rng.randint(-1, 1))
            sign = -1 if g.degree % 2 else 1
            lhs = reference_dg_hom_differential(reference_dg_compose(g, f))
            rhs = reference_dg_compose(reference_dg_hom_differential(g), f) + \
                sign * reference_dg_compose(g, reference_dg_hom_differential(f))
            assert lhs == rhs

    def test_associativity(self):
        rng = random.Random(8)
        for _ in range(8):
            a, b, c, d = (rand_double_complex(rng) for _ in range(4))
            f = rand_dg_hom(rng, a, b, 0)
            g = rand_dg_hom(rng, b, c, 1)
            h = rand_dg_hom(rng, c, d, -1)
            assert (reference_dg_compose(reference_dg_compose(h, g), f)
                    == reference_dg_compose(h, reference_dg_compose(g, f)))


class TestWeightJ:
    def test_values_are_shifted_free_covers(self):
        cat, j = weight_J(2)
        assert cat.validate() == []
        assert j.validate() == []
        j0 = j.value(0)
        assert {n: j0.rank(n) for n in j0.degrees()} == {0: 1, -1: 1}

    def test_window_restriction_consistency(self):
        _, j3 = weight_J(3)
        _, j2 = weight_J(2)
        for m in range(-2, 3):
            assert j3.value(m) == j2.value(m)


class TestTotViaColimit:
    def test_single_column_identity_shaped(self):
        rng = random.Random(9)
        x = rand_complex(rng)
        iso, inverse = tot_via_weighted_colimit(embed_i(x))
        assert compose(inverse, iso) == identity_map(iso.source)
        assert compose(iso, inverse) == identity_map(iso.target)

    def test_square_same_homology(self):
        col = make_complex({1: 1, 0: 1}, {1: [[1]]})
        a = DoubleComplex({1: col, 0: col}, {1: identity_map(col)})
        iso, _ = tot_via_weighted_colimit(a)
        assert homology_H(iso.source) == homology_H(iso.target)
        assert homology_H(iso.target).is_trivial()

    def test_rank_agreement_and_iso_random(self):
        rng = random.Random(10)
        for _ in range(10):
            a = rand_double_complex(rng)
            iso, inverse = tot_via_weighted_colimit(a)
            colim, tot = iso.source, iso.target
            for n in tot.degrees():
                assert colim.rank(n) == tot.rank(n)
            assert compose(inverse, iso) == identity_map(colim)
            assert compose(iso, inverse) == identity_map(tot)

    def test_lowest_column_needs_an_object_below_it(self):
        # the lower slot of column m reaches object m - 1, which the default
        # window max |m| + 1 always holds
        for lowest in (-1, 1):
            iso, inverse = tot_via_weighted_colimit(DoubleComplex({lowest: K0}, {}))
            assert compose(iso, inverse) == identity_map(iso.target)
            assert compose(inverse, iso) == identity_map(iso.source)


# -- the totalization weight, block by block ----------------------------------


def reference_weight_J(window: int):
    """weight_J as built per hom: a TensorSpace for each hom and, for the
    generator v + 1 -> v, the codifferential L Z -> S L Z shifted by v."""
    cat = ell_op_window_category(window)
    lz = functor_L(unit_complex())
    values = {m: suspension(lz, m) for m in cat.objects}
    actions = {}
    for (u, v) in cat.homs:
        ts = TensorSpace(values[v], cat.hom(u, v))
        if u == v:
            comps = {n: IntMatrix.identity(values[v].rank(n))
                     for n in values[v].degrees() if values[v].rank(n)}
        else:
            codiff = ChainMap(values[v], suspension(lz, v + 1), 0,
                              {v: IntMatrix.identity(1)})
            comps = {n: codiff.comp(n) for n in values[v].degrees()
                     if values[v].rank(n) and values[u].rank(n)}
        actions[(u, v)] = ChainMap(ts.complex, values[u], 0, comps)
    return cat, DGModule(cat, values, actions)


def reference_double_complex_as_left_module(cat, a: DoubleComplex) -> DGModule:
    """The diagram of a, with every component of each action read one
    degree at a time, zero blocks included."""
    values = {m: a.column(m) for m in cat.objects}
    actions = {}
    for (u, v) in cat.homs:
        ts = TensorSpace(cat.hom(u, v), values[u])
        if u == v:
            comps = {n: IntMatrix.identity(values[u].rank(n))
                     for n in values[u].degrees() if values[u].rank(n)}
        else:
            delta = a.delta_map(u)
            comps = {n: delta.comp(n) for n in values[u].degrees()
                     if values[u].rank(n) and values[v].rank(n)}
        actions[(u, v)] = ChainMap(ts.complex, values[v], 0, comps)
    return DGModule(cat, values, actions, LEFT)


def reference_tot_comparison(a: DoubleComplex, window: int):
    """(colimit, Tot, iso, inverse) with Phi filled one tensor basis element
    at a time, from the reference weight and diagram."""
    cat, j_mod = reference_weight_J(window)
    a_mod = reference_double_complex_as_left_module(cat, a)
    wc = weighted_colimit(j_mod, a_mod)
    colim, ts = wc.colimit, TotSpace(a)
    tot = ts.complex
    ambient = wc.coend.ambient
    phi_rows: Dict[int, List[List[int]]] = {
        n: [[0] * ambient.rank(n) for _ in range(tot.rank(n))] for n in ambient.degrees()}
    for m in cat.objects:
        if a_mod.value(m).is_zero():
            continue
        t_space = wc.coend.tensor_space(m)
        for n in t_space.complex.degrees():
            for col_local, t in enumerate(tensor_basis(t_space, n)):
                amb_idx = wc.coend.slot(m, n) + col_local
                if t.left_degree == m:
                    phi_rows[n][ts.slot(n, m, t.right_index)][amb_idx] += _triangular_sign(m)
                else:
                    delta = a.delta_map(m).comp(t.right_degree)
                    for i, v in enumerate(delta.col(t.right_index)):
                        if v:
                            phi_rows[n][ts.slot(n, m - 1, i)][amb_idx] += \
                                _triangular_sign(m - 1) * v
    iso_comps, inv_comps = {}, {}
    for n in colim.degrees():
        if colim.rank(n) == 0:
            continue
        rows = phi_rows.get(n) or []
        phi = (IntMatrix.from_rows(rows, ambient.rank(n)) if rows
               else IntMatrix.zeros(tot.rank(n), ambient.rank(n)))
        iso_comps[n] = phi @ wc.coend.section(n)
        inv_comps[n] = inverse_unimodular(iso_comps[n])
    return colim, tot, ChainMap(colim, tot, 0, iso_comps), ChainMap(tot, colim, 0, inv_comps)


def _window_of(a: DoubleComplex, extra: int) -> int:
    cols = a.column_degrees()
    return (max(abs(m) for m in cols) + 1 if cols else 1) + extra


def _same_actions(mod: DGModule, ref: DGModule):
    assert mod.values == ref.values
    assert list(mod.actions) == list(ref.actions)
    for key, act in mod.actions.items():
        want = ref.actions[key]
        assert isinstance(act, ChainMap)
        assert act == want, key      # source, target, degree and stored comps


class TestTotalizationBlocks:
    @pytest.mark.parametrize("window", range(1, 7))
    def test_weight_actions_equal_the_reference(self, window):
        cat, j_mod = weight_J(window)
        _, ref = reference_weight_J(window)
        _same_actions(j_mod, ref)
        assert j_mod.validate() == []

    @settings(max_examples=40, deadline=None)
    @given(SEEDS, st.integers(0, 2))
    def test_diagram_actions_equal_the_reference(self, seed, extra):
        a = rand_double_complex(random.Random(seed))
        cat = ell_op_window_category(_window_of(a, extra))
        _same_actions(double_complex_as_left_module(cat, a),
                      reference_double_complex_as_left_module(cat, a))

    @settings(max_examples=40, deadline=None)
    @given(SEEDS, st.integers(0, 2))
    def test_comparison_equals_the_reference(self, seed, extra):
        a = rand_double_complex(random.Random(seed))
        # the reference over a window larger than the default by extra: the
        # window does not change the answer
        iso, inverse = tot_via_weighted_colimit(a)
        colim, tot, ref_iso, ref_inverse = reference_tot_comparison(a, _window_of(a, extra))
        assert (iso.source, iso.target) == (colim, tot)
        assert iso == ref_iso
        assert inverse == ref_inverse

    def test_comparison_with_nonzero_delta_equals_the_reference(self):
        for a in (_square(MUTATION_COL), _square(rand_complex(random.Random(3)))):
            _, _, iso, inverse = reference_tot_comparison(a, _window_of(a, 0))
            assert a.delta and tot_via_weighted_colimit(a) == (iso, inverse)

    def test_window_category_shares_one_composition_table(self):
        cat = ell_op_window_category(4)
        assert len({id(t) for t in cat.compose_table.values()}) == 1


class TestTotAdjunction:
    def test_single_column_reduces_to_hom_identity(self):
        rng = random.Random(11)
        x, y = rand_complex(rng), rand_complex(rng)
        assert tot_adjunction_check(embed_i(y), x)

    def test_two_column_with_identity_delta(self):
        col = rand_complex(random.Random(12))
        a = DoubleComplex({1: col, 0: col}, {1: identity_map(col)})
        assert tot_adjunction_check(a, K0)

    def test_twenty_random_pairs(self):
        rng = random.Random(13)
        for _ in range(20):
            a = rand_double_complex(rng)
            x = rand_complex(rng)
            assert tot_adjunction_check(a, x)

    def test_tot_of_embedding_is_identity(self):
        rng = random.Random(14)
        for _ in range(5):
            x = rand_complex(rng)
            assert total_complex(embed_i(x)) == x
            assert tot_adjunction_check(embed_i(x), x)

    def test_one_tot_space_per_check(self, monkeypatch):
        built = []
        init = TotSpace.__init__

        def counted(self, a):
            built.append(a)
            init(self, a)

        monkeypatch.setattr(TotSpace, "__init__", counted)
        rng = random.Random(16)
        for _ in range(5):
            a = rand_double_complex(rng)
            x, x2 = rand_complex(rng), rand_complex(rng)
            built.clear()
            assert tot_adjunction_check(a, x)
            assert len(built) == 1
            built.clear()
            assert tot_adjunction_natural_in_x(a, rand_chain_map(rng, x, x2))
            assert len(built) == 1

    def test_naturality_in_x(self):
        rng = random.Random(15)
        for _ in range(5):
            a = rand_double_complex(rng)
            x, x2 = rand_complex(rng), rand_complex(rng)
            w = rand_chain_map(rng, x, x2)
            assert tot_adjunction_natural_in_x(a, w)


# -- the Tot adjunction in coordinates ----------------------------------------


def reference_dg_hom_to_tot_proto(f: DGHomElement, x: Complex, ts: TotSpace) -> Proto:
    """Identify a bottom-row DG hom element A -> iX with a proto
    Tot A -> X (plain block assembly; no signs)."""
    n = f.degree
    comps: Dict[int, IntMatrix] = {}
    for s in ts.complex.degrees():
        if x.rank(s + n) == 0 or ts.complex.rank(s) == 0:
            continue
        # the blocks of Tot degree s sit side by side, in slot order
        comps[s] = block_matrix([[f.comp(0, m).comp(s - m)
                                  for m, _, _, _ in ts.layout.blocks(s)]])
    return Proto(ts.complex, x, n, comps)


def reference_tot_proto_to_dg_hom(h: Proto, a: DoubleComplex, x: Complex, ts: TotSpace) -> DGHomElement:
    n = h.degree
    comps: Dict[Tuple[int, int], Proto] = {}
    for m in a.column_degrees():
        am = a.column(m)
        sub: Dict[int, IntMatrix] = {}
        for t in am.degrees():
            s = m + t
            if am.rank(t) == 0 or x.rank(s + n) == 0:
                continue
            off = ts.slot(s, m, 0)
            sub[t] = h.comp(s).select_cols(range(off, off + am.rank(t)))
        p = Proto(am, x, n + m, sub)
        if not p.is_zero():
            comps[(0, m)] = p
    return DGHomElement(a, embed_i(x), n, comps)


def reference_tot_adjunction_check(a: DoubleComplex, x: Complex) -> bool:
    """Degreewise, DG-hom(A, iX) and [Tot A, X] are identified by block
    reassembly, and the two differentials agree under the identification."""
    ts = TotSpace(a)
    ix = embed_i(x)
    hs = HomSpace(ts.complex, x)
    lo, hi = hs.complex.lo - 1, hs.complex.hi + 1
    for n in range(lo, hi + 1):
        # dimension agreement
        dg_dim = 0
        for m in a.column_degrees():
            am = a.column(m)
            for t in am.degrees():
                dg_dim += am.rank(t) * x.rank(t + n + m)
        if dg_dim != hs.dim(n):
            return False
        # round trips and differential correspondence on a basis
        for h in protos(hs, n):
            f = reference_tot_proto_to_dg_hom(h, a, x, ts)
            back = reference_dg_hom_to_tot_proto(f, x, ts)
            if back != h:
                return False
            lhs = reference_dg_hom_to_tot_proto(reference_dg_hom_differential(f), x, ts)
            rhs = d_hom(h)
            if lhs != rhs:
                return False
    return True


def reference_tot_adjunction_natural_in_x(a: DoubleComplex, w: ChainMap) -> bool:
    """Postcomposition squares commute under the identification, for a
    chain map w: X -> X'."""
    ts = TotSpace(a)
    x, x2 = w.source, w.target
    hs = HomSpace(ts.complex, x)
    for n in range(hs.complex.lo, hs.complex.hi + 1):
        for h in protos(hs, n):
            f = reference_tot_proto_to_dg_hom(h, a, x, ts)
            pushed = DGHomElement(a, embed_i(x2), n,
                                  {k: compose(w, p) for k, p in f.comps.items()})
            direct = reference_tot_proto_to_dg_hom(compose(w, h), a, x2, ts)
            if pushed != direct:
                return False
    return True


def _square(col: Complex) -> DoubleComplex:
    """Two copies of col joined by the identity: a nonzero delta."""
    return DoubleComplex({1: col, 0: col}, {1: identity_map(col)})


def _draw(seed: int):
    """(A, X, w: X -> X'): an embedded column i X, the identity square, or
    a random double complex."""
    rng = random.Random(seed)
    kind = rng.randrange(4)
    if kind == 0:
        x = rand_complex(rng)
        a = embed_i(x)
    elif kind == 1:
        a, x = _square(rand_complex(rng)), rand_complex(rng)
    else:
        a, x = rand_double_complex(rng), rand_complex(rng)
    return a, x, rand_chain_map(rng, x, rand_complex(rng))


def _stack_vector(sp: _TotHomSpaces, f: DGHomElement) -> list:
    """Coordinates of a bottom-row DG hom element in the column stack."""
    vec = [0] * sp.stack.dim(f.degree)
    for (_, m), p in f.comps.items():
        off = sp.stack.slot(f.degree, m)
        v = sp.cols[m].to_vector(p)
        vec[off:off + len(v)] = v
    return vec


def _transposed_postcomposition(w, hs_from, hs_to, n):
    """postcomposition with each block of h read column-major, i.e.
    1 (x) W in place of W (x) 1."""
    m = n + w.degree
    out = [[0] * hs_from.dim(n) for _ in range(hs_to.dim(m))]
    for q, _, cols, off in hs_from.layout.blocks(n):
        wq = w.comps().get(q + n)
        if wq is not None:
            scatter_kron(out, hs_to.layout.slot(m, q), off, cols, wq)
    return IntMatrix.from_rows(out, hs_from.dim(n))


# nonzero delta, a target whose ranks differ from the column widths of Tot,
# and a map w that is not a multiple of the identity
MUTATION_COL = make_complex({1: 2, 0: 2}, {1: [[1, 2], [0, 0]]})
MUTATION_X = make_complex({1: 3, 0: 2, -1: 1}, {})


def _mutation_fixture():
    a = _square(MUTATION_COL)
    w = ChainMap(MUTATION_X, MUTATION_X, 0,
                 {1: IntMatrix.from_rows([[1, 1, 0], [0, 1, 0], [2, 0, 1]]),
                  0: IntMatrix.from_rows([[0, 1], [1, 0]]),
                  -1: IntMatrix.from_rows([[3]])})
    return a, MUTATION_X, w


class TestTotAdjunctionCoordinates:
    @settings(max_examples=80, deadline=None)
    @given(SEEDS)
    def test_verdicts_equal_the_reference(self, seed):
        a, x, w = _draw(seed)
        assert tot_adjunction_check(a, x) == reference_tot_adjunction_check(a, x) is True
        assert (tot_adjunction_natural_in_x(a, w)
                == reference_tot_adjunction_natural_in_x(a, w) is True)

    @settings(max_examples=60, deadline=None)
    @given(SEEDS)
    def test_relabelling_and_differential_are_the_reference_maps(self, seed):
        # each basis element goes to the unit vector at its relabelled slot,
        # and the column of the stack differential there is the per-basis
        # DG hom differential
        a, x, _ = _draw(seed)
        ts = TotSpace(a)
        sp = _TotHomSpaces(ts, x)
        for n in sp.tot.layout.degrees():
            perm = sp.relabelling(n)
            dg = sp.differential(n)
            for k, h in enumerate(protos(sp.tot, n)):
                f = reference_tot_proto_to_dg_hom(h, a, x, ts)
                unit = [0] * sp.stack.dim(n)
                unit[perm[k]] = 1
                assert _stack_vector(sp, f) == unit
                assert _stack_vector(sp, reference_dg_hom_differential(f)) == [row[perm[k]] for row in dg]

    def test_fixtures_pass(self):
        a, x, w = _mutation_fixture()
        assert a.delta and tot_adjunction_check(a, x)
        assert tot_adjunction_natural_in_x(a, w)
        assert reference_tot_adjunction_natural_in_x(a, w)

    def test_flipped_delta_sign_fails(self, monkeypatch):
        real = totals.precomposition
        monkeypatch.setattr(totals, "precomposition", lambda *args: -real(*args))
        assert not tot_adjunction_check(*_mutation_fixture()[:2])

    def test_dropped_delta_term_fails(self, monkeypatch):
        real = totals.precomposition
        monkeypatch.setattr(totals, "precomposition",
                            lambda *args: IntMatrix.zeros(*real(*args).shape))
        assert not tot_adjunction_check(*_mutation_fixture()[:2])

    def test_swapped_slots_fail(self, monkeypatch):
        real = _TotHomSpaces.relabelling

        def swapped(self, n):
            out = real(self, n)
            if len(out) >= 2:
                out[0], out[1] = out[1], out[0]
            return out

        monkeypatch.setattr(_TotHomSpaces, "relabelling", swapped)
        assert not tot_adjunction_check(*_mutation_fixture()[:2])

    def test_transposed_postcomposition_fails(self, monkeypatch):
        a, _, w = _mutation_fixture()
        monkeypatch.setattr(totals, "postcomposition", _transposed_postcomposition)
        assert not tot_adjunction_natural_in_x(a, w)

    def test_hom_spaces_built_once_per_call(self, monkeypatch):
        built = []
        init = HomSpace.__init__

        def counted(self, source, target):
            built.append(source)
            init(self, source, target)

        monkeypatch.setattr(HomSpace, "__init__", counted)
        a, x, w = _mutation_fixture()
        assert tot_adjunction_check(a, x)
        assert len(built) == 1 + len(a.columns)
        built.clear()
        assert tot_adjunction_natural_in_x(a, w)
        assert len(built) == 2 * (1 + len(a.columns))

    def test_zero_target_and_zero_double_complex(self):
        a = _square(MUTATION_COL)
        assert tot_adjunction_check(a, Complex.zero())
        assert tot_adjunction_check(DoubleComplex({}, {}), MUTATION_X)
        assert tot_adjunction_natural_in_x(a, identity_map(Complex.zero()))
