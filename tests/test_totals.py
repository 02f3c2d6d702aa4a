"""Double complexes, Tot, the totalization weight and the Tot adjunction.

The Tot adjunction checks used to build one Proto per basis element of
[Tot A, X]_n, carry it to a DG hom element and back, and compare
differentials element by element.  They now compare matrices under a
relabelling of coordinates.  The reference_* functions below are the
per-basis versions; the tests check that both give the same verdicts and
that the relabelling and the stacked DG differential are what the
per-basis code computes.
"""

import random
from typing import Dict, Tuple

import pytest
from hypothesis import given, settings, strategies as st

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
    suspension,
    unit_complex,
)
from dgkernel.rand import rand_chain_map, rand_complex, rand_double_complex, rand_proto
from dgkernel.totals import (
    DGHomElement,
    DoubleComplex,
    SupportExceedsWindow,
    TotSpace,
    _TotHomSpaces,
    dg_compose,
    dg_hom_differential,
    dg_identity,
    double_complex_as_left_module,
    embed_i,
    tot_adjunction_check,
    tot_adjunction_natural_in_x,
    tot_via_weighted_colimit,
    total_complex,
    weight_J,
)
from dgkernel.zlinalg import IntMatrix, ShapeMismatch, block_matrix

K0 = unit_complex()
SEEDS = st.integers(0, 2**32 - 1)


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
            assert dg_hom_differential(dg_identity(a)).is_zero()

    def test_single_entry_with_zero_delta_reduces_to_inner(self):
        rng = random.Random(4)
        x, y = rand_complex(rng), rand_complex(rng)
        a, b = embed_i(x), embed_i(y)
        f = rand_dg_hom(rng, a, b, 0)
        df = dg_hom_differential(f)
        from dgkernel.complexes import d_hom

        assert df.comp(0, 0) == d_hom(f.comp(0, 0))

    def test_differential_squares_to_zero(self):
        rng = random.Random(5)
        for _ in range(20):
            a, b = rand_double_complex(rng), rand_double_complex(rng)
            f = rand_dg_hom(rng, a, b, rng.randint(-1, 1))
            assert dg_hom_differential(dg_hom_differential(f)).is_zero()

    def test_identity_laws_and_single_entries(self):
        rng = random.Random(6)
        for _ in range(10):
            a, b = rand_double_complex(rng), rand_double_complex(rng)
            f = rand_dg_hom(rng, a, b, rng.randint(-1, 1))
            assert dg_compose(dg_identity(b), f) == f
            assert dg_compose(f, dg_identity(a)) == f

    def test_leibniz(self):
        rng = random.Random(7)
        for _ in range(15):
            a, b, c = (rand_double_complex(rng) for _ in range(3))
            f = rand_dg_hom(rng, a, b, rng.randint(-1, 1))
            g = rand_dg_hom(rng, b, c, rng.randint(-1, 1))
            sign = -1 if g.degree % 2 else 1
            lhs = dg_hom_differential(dg_compose(g, f))
            rhs = dg_compose(dg_hom_differential(g), f) + \
                sign * dg_compose(g, dg_hom_differential(f))
            assert lhs == rhs

    def test_associativity(self):
        rng = random.Random(8)
        for _ in range(8):
            a, b, c, d = (rand_double_complex(rng) for _ in range(4))
            f = rand_dg_hom(rng, a, b, 0)
            g = rand_dg_hom(rng, b, c, 1)
            h = rand_dg_hom(rng, c, d, -1)
            assert dg_compose(dg_compose(h, g), f) == dg_compose(h, dg_compose(g, f))


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
        cmp = tot_via_weighted_colimit(embed_i(x))
        assert compose(cmp.inverse, cmp.iso) == identity_map(cmp.colimit)
        assert compose(cmp.iso, cmp.inverse) == identity_map(cmp.tot)

    def test_square_same_homology(self):
        col = make_complex({1: 1, 0: 1}, {1: [[1]]})
        a = DoubleComplex({1: col, 0: col}, {1: identity_map(col)})
        cmp = tot_via_weighted_colimit(a)
        assert homology_H(cmp.colimit) == homology_H(cmp.tot)
        assert homology_H(cmp.tot).is_trivial()

    def test_rank_agreement_and_iso_random(self):
        rng = random.Random(10)
        for _ in range(10):
            a = rand_double_complex(rng)
            cmp = tot_via_weighted_colimit(a)
            for n in cmp.tot.degrees():
                assert cmp.colimit.rank(n) == cmp.tot.rank(n)
            assert compose(cmp.inverse, cmp.iso) == identity_map(cmp.colimit)
            assert compose(cmp.iso, cmp.inverse) == identity_map(cmp.tot)

    def test_window_guard(self):
        with pytest.raises(SupportExceedsWindow):
            tot_via_weighted_colimit(DoubleComplex({3: K0}, {}), window=1)

    def test_lowest_column_needs_an_object_below_it(self):
        # the lower slot of column -1 reaches object -2: window 1 used to be
        # accepted and then fail inside the comparison
        with pytest.raises(SupportExceedsWindow, match=r"must lie in \[0, 1\]"):
            tot_via_weighted_colimit(DoubleComplex({-1: K0}, {}), window=1)
        cmp = tot_via_weighted_colimit(DoubleComplex({1: K0}, {}), window=1)
        assert compose(cmp.iso, cmp.inverse) == identity_map(cmp.tot)


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
        for h in hs.basis(n):
            f = reference_tot_proto_to_dg_hom(h, a, x, ts)
            back = reference_dg_hom_to_tot_proto(f, x, ts)
            if back != h:
                return False
            lhs = reference_dg_hom_to_tot_proto(dg_hom_differential(f), x, ts)
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
        for h in hs.basis(n):
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
            for k, h in enumerate(sp.tot.basis(n)):
                f = reference_tot_proto_to_dg_hom(h, a, x, ts)
                unit = [0] * sp.stack.dim(n)
                unit[perm[k]] = 1
                assert _stack_vector(sp, f) == unit
                assert _stack_vector(sp, dg_hom_differential(f)) == [row[perm[k]] for row in dg]

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
