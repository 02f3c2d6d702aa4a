"""Hom-space maps in coordinates against the per-basis code they replaced.

The weighted-colimit verifier, factors_uniquely and sten_hom_isos used to
build one Proto per basis element, compose it, and read it back as a
vector.  They now multiply by precomposition matrices.  The reference_*
functions below are the per-basis versions; the tests check that the new
code hands kernel_basis and solve_matrix the same operands in the same
order, gets the same answers, and builds the same isomorphisms.  The
references call kernel_basis and solve_matrix through zlinalg, so that the
recorder sees their calls too.
"""

import random
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dot, protos, slot_chain_map
from dgkernel.complexes import (
    BlockLayout,
    ChainMap,
    Complex,
    HomSpace,
    Proto,
    canonical_presentation,
    chain_map_basis,
    compose,
    d_hom,
    default_probe_family,
    direct_sum_complexes,
    factors_uniquely,
    functor_L,
    identity_map,
    make_complex,
    postcomposition,
    precomposition,
    suspension,
    unit_complex,
)
from dgkernel.cones import cokernel_protosplit, cylinder_factorization
from dgkernel.dgcat import (
    LEFT,
    RIGHT,
    all_basis_elts,
    dg_subcategory_of_complexes,
    exterior_g_category,
    group_like_category,
    module_from_complex,
    representable,
    trivial_weight,
    two_object_graded_category,
    unit_dg_category,
    weighted_colimit,
)
from dgkernel.monoidal import sten_hom_isos
from dgkernel.rand import rand_chain_map, rand_complex, rand_proto
from dgkernel import zlinalg
from dgkernel.zlinalg import IntMatrix, ShapeMismatch

K0 = unit_complex()
LZ = functor_L(K0)
M2 = make_complex({1: 1, 0: 1}, {1: [[2]]})
SEEDS = st.integers(0, 2**32 - 1)


def reference_theta_spaces(wc, t):
    """([F U, T], [M U, [F U, T]]) for each U with M U nonzero: the theta
    space into the hom complex itself, whose differential the reference
    reads (dgcat's verifier needs only its layout, from the ranks)."""
    out = {}
    for u in wc.m.base.objects:
        mu, fu = wc.m.value(u), wc.f.value(u)
        if not mu.is_zero():
            hs_out = HomSpace(fu, t)
            out[u] = (hs_out, HomSpace(mu, hs_out.complex))
    return out


def reference_verify_weighted_colimit_iso(wc, t) -> bool:
    base = wc.m.base
    spaces = reference_theta_spaces(wc, t)
    hs_lhs = HomSpace(wc.colimit, t)

    lhs_lo = hs_lhs.complex.lo - 1
    lhs_hi = hs_lhs.complex.hi + 1
    for (hs_out, hs_theta) in spaces.values():
        if not hs_theta.complex.is_zero():
            lhs_lo = min(lhs_lo, hs_theta.complex.lo - 1)
            lhs_hi = max(lhs_hi, hs_theta.complex.hi + 1)

    theta = BlockLayout()
    for n in range(lhs_lo - 1, lhs_hi + 1):
        for u, (_, hs_theta) in spaces.items():
            theta.add(n, u, hs_theta.dim(n))

    gammas = {u: [(y, wc.gamma_proto(u, y)) for y in all_basis_elts(wc.m.value(u))]
              for u in spaces}
    phis = {}

    def phi_matrix(n):
        if n in phis:
            return phis[n]
        total = theta.dim(n)
        cols = []
        for h in protos(hs_lhs, n):
            vec = [0] * total
            for u, size, _, off in theta.blocks(n):
                hs_out, hs_theta = spaces[u]
                mu = wc.m.value(u)
                comp_cols: Dict[int, List] = {}
                for y, gamma in gammas[u]:
                    img = compose(h, gamma)
                    comp_cols.setdefault(y.degree, []).append(hs_out.to_vector(img))
                comps = {}
                for tdeg, cc in comp_cols.items():
                    comps[tdeg] = IntMatrix.from_cols(cc, hs_out.dim(tdeg + n))
                theta_u = Proto(mu, hs_out.complex, n, comps)
                vec[off:off + size] = hs_theta.to_vector(theta_u)
            cols.append(tuple(vec))
        phis[n] = IntMatrix.from_cols(cols, total if cols else 0)
        return phis[n]

    def naturality_matrix(n):
        total = theta.dim(n)
        rows: List[List[int]] = []
        for u in base.objects:
            for v in base.objects:
                homuv = base.hom(u, v)
                mv = wc.m.value(v)
                if homuv.is_zero() or mv.is_zero() or u not in spaces or v not in spaces:
                    continue
                hs_out_u, hs_theta_u = spaces[u]
                hs_out_v, hs_theta_v = spaces[v]
                for f in all_basis_elts(homuv):
                    act_f = wc.f.action_proto(u, v, f)
                    for y in all_basis_elts(mv):
                        sign = -1 if (f.degree * y.degree) % 2 else 1
                        yf = dot(wc.m, u, v, y, f)
                        out_deg = y.degree + f.degree + n
                        dim_out = hs_out_u.dim(out_deg)
                        if dim_out == 0:
                            continue
                        block = [[0] * total for _ in range(dim_out)]
                        for k, e in enumerate(protos(hs_theta_u, n)):
                            img = e.comp(yf.degree).apply(yf.vec)
                            col = theta.slot(n, u, k)
                            for i, x in enumerate(img):
                                if x:
                                    block[i][col] += x
                        for k, e in enumerate(protos(hs_theta_v, n)):
                            th_vy = hs_out_v.from_vector(y.degree + n,
                                                         e.comp(y.degree).apply(y.vec))
                            iv = hs_out_u.to_vector(compose(th_vy, act_f))
                            col = theta.slot(n, v, k)
                            for i, x in enumerate(iv):
                                if x:
                                    block[i][col] -= sign * x
                        rows.extend(block)
        if not rows:
            return IntMatrix.zeros(0, total)
        return IntMatrix.from_rows(rows, total)

    for n in range(lhs_lo, lhs_hi + 1):
        phi = phi_matrix(n)
        nat = naturality_matrix(n)
        if phi.cols and zlinalg.kernel_basis(phi).cols:
            return False
        if nat.rows and phi.cols and not (nat @ phi).is_zero():
            return False
        sols = zlinalg.kernel_basis(nat) if nat.rows else IntMatrix.identity(theta.dim(n))
        for j in range(sols.cols):
            if zlinalg.solve_matrix(phi, IntMatrix.column(sols.col(j))) is None:
                return False
        phi_prev = phi_matrix(n - 1)
        for idx, h in enumerate(protos(hs_lhs, n)):
            if phi_prev.cols:
                lhs_vec = list(phi_prev.apply(hs_lhs.to_vector(d_hom(h))))
            else:
                lhs_vec = [0] * theta.dim(n - 1)
            col = phi.col(idx) if phi.cols else ()
            rhs_vec = [0] * theta.dim(n - 1)
            for u, size, _, off in theta.blocks(n):
                hs_theta = spaces[u][1]
                th = hs_theta.from_vector(n, col[off:off + size])
                dv = hs_theta.to_vector(d_hom(th))
                if dv:
                    start = theta.slot(n - 1, u)
                    rhs_vec[start:start + len(dv)] = dv
            if lhs_vec != rhs_vec:
                return False
    return True


def reference_factors_uniquely(k, w, t) -> bool:
    hs_bt = HomSpace(w.source, t)
    basis = protos(hs_bt, 0, hs_bt.cycle_basis(0))
    if not basis:
        return True
    hs_kt = HomSpace(k.source, t)
    killers = zlinalg.kernel_basis(IntMatrix.from_cols(
        [hs_kt.to_vector(compose(g, k)) for g in basis], hs_kt.dim(0)))
    factor_basis = protos(HomSpace(w.target, t), 0, chain_map_basis(w.target, t, 0))
    fm = IntMatrix.from_cols([hs_bt.to_vector(compose(h, w)) for h in factor_basis],
                             hs_bt.dim(0))
    if factor_basis and zlinalg.kernel_basis(fm).cols:
        return False
    kv = IntMatrix.from_cols([hs_bt.to_vector(g) for g in basis], hs_bt.dim(0)) @ killers
    return all(zlinalg.solve_matrix(fm, IntMatrix.column(kv.col(jj))) is not None
               for jj in range(killers.cols))


def _reference_unit(dim, k):
    v = [0] * dim
    v[k] = 1
    return v


def _reference_single_slot(hs, p) -> int:
    vec = hs.to_vector(p)
    nz = [i for i, x in enumerate(vec) if x]
    if len(nz) != 1 or vec[nz[0]] != 1:
        raise RuntimeError("expected a unit vector")
    return nz[0]


def reference_sten_hom_isos(b, c):
    hs = HomSpace(b, c)
    s_hom = suspension(hs.complex, 1)
    hs_left = HomSpace(suspension(b, -1), c)
    hs_right = HomSpace(b, suspension(c, 1))

    def left_fwd(n, flat):
        f = hs.from_vector(n - 1, _reference_unit(hs.dim(n - 1), flat))
        g = Proto(hs_left.source, hs_left.target, n,
                  {q - 1: m for q, m in f.comps().items()})
        return _reference_single_slot(hs_left, g), (-1 if n % 2 else 1)

    def left_bwd(n, flat):
        g = hs_left.from_vector(n, _reference_unit(hs_left.dim(n), flat))
        f = Proto(b, c, n - 1, {q + 1: m for q, m in g.comps().items()})
        return hs.to_vector(f).index(1), (-1 if n % 2 else 1)

    def right_fwd(n, flat):
        f = hs.from_vector(n - 1, _reference_unit(hs.dim(n - 1), flat))
        g = Proto(hs_right.source, hs_right.target, n, f.comps())
        return _reference_single_slot(hs_right, g), 1

    def right_bwd(n, flat):
        g = hs_right.from_vector(n, _reference_unit(hs_right.dim(n), flat))
        f = Proto(b, c, n - 1, g.comps())
        return hs.to_vector(f).index(1), 1

    return {
        "left": (slot_chain_map(s_hom, hs_left.complex, left_fwd),
                 slot_chain_map(hs_left.complex, s_hom, left_bwd)),
        "right": (slot_chain_map(s_hom, hs_right.complex, right_fwd),
                  slot_chain_map(hs_right.complex, s_hom, right_bwd)),
    }


GATED = ("kernel_basis", "solve_matrix")


def assert_same_linear_algebra(zlinalg_calls, new, reference):
    """new() and reference() return the same answer after handing
    kernel_basis and solve_matrix the same operands in the same order and
    getting the same results back; returns the answer and the call count."""
    with zlinalg_calls(*GATED) as got:
        answer = new()
    with zlinalg_calls(*GATED) as want:
        expected = reference()
    assert answer == expected
    assert got.operands == want.operands
    assert list(got) == list(want)
    return answer, len(got.operands)


def co_yoneda_colimits():
    cats = [two_object_graded_category(1), two_object_graded_category(2),
            exterior_g_category(1), exterior_g_category(2), group_like_category(1),
            dg_subcategory_of_complexes({"Z": K0, "M2": M2})]
    for cat in cats:
        for k in cat.objects:
            for k2 in cat.objects:
                yield weighted_colimit(representable(cat, k, RIGHT), representable(cat, k2, LEFT))


class TestWeightedColimitGate:
    def test_co_yoneda_fixtures(self, zlinalg_calls):
        verdicts, calls = [], 0
        for wc in co_yoneda_colimits():
            for t in (K0, LZ, M2, suspension(M2, 1)):
                ok, n = assert_same_linear_algebra(
                    zlinalg_calls, lambda: wc.defining_iso_verified([t]),
                    lambda: reference_verify_weighted_colimit_iso(wc, t))
                verdicts.append(ok)
                calls += n
        assert all(verdicts) and calls > 100

    def test_tensor_case_on_random_diagrams(self, zlinalg_calls):
        rng = random.Random(20)
        cat = unit_dg_category()
        for _ in range(4):
            a, t = rand_complex(rng, bricks=2), rand_complex(rng, bricks=2)
            wc = weighted_colimit(trivial_weight(cat), module_from_complex(cat, a, LEFT))
            ok, calls = assert_same_linear_algebra(
                zlinalg_calls, lambda: wc.defining_iso_verified([t]),
                lambda: reference_verify_weighted_colimit_iso(wc, t))
            assert ok and calls

    def test_a_broken_cocone_fails_on_both(self, zlinalg_calls):
        # gamma sends the generator to twice the class: Phi is not onto
        cat = unit_dg_category()
        wc = weighted_colimit(trivial_weight(cat), module_from_complex(cat, M2, LEFT))
        real = wc.gamma_proto
        wc.gamma_proto = lambda u, y: real(u, y).scale(2)
        ok, calls = assert_same_linear_algebra(
            zlinalg_calls, lambda: wc.defining_iso_verified([K0]),
            lambda: reference_verify_weighted_colimit_iso(wc, K0))
        assert not ok and calls

    def test_a_cocone_that_is_not_a_chain_map_fails_on_both(self):
        # gamma'(y) = gamma(y) o (1 + N), N = [[0, 1], [0, 0]] in degree 1:
        # 1 + N is invertible, so Phi stays degreewise bijective (and, with
        # only the identity acting, natural), but d(1 + N) = d N != 0
        cat = unit_dg_category()
        a = make_complex({1: 2, 0: 1}, {1: [[1, 0]]})
        wc = weighted_colimit(trivial_weight(cat), module_from_complex(cat, a, LEFT))
        shear = Proto(a, a, 0, {1: IntMatrix.from_rows([[1, 1], [0, 1]]),
                                0: IntMatrix.identity(1)})
        unshear = Proto(a, a, 0, {1: IntMatrix.from_rows([[1, -1], [0, 1]]),
                                  0: IntMatrix.identity(1)})
        assert compose(shear, unshear) == identity_map(a) == compose(unshear, shear)
        assert not d_hom(shear).is_zero()
        probes = (K0, suspension(K0, 1), a)
        assert all(wc.defining_iso_verified([t]) for t in probes)
        real = wc.gamma_proto
        wc.gamma_proto = lambda u, y: compose(real(u, y), shear) if y.degree == 0 else real(u, y)
        for t in probes:
            assert reference_verify_weighted_colimit_iso(wc, t) is False
            assert wc.defining_iso_verified([t]) is False

    def test_a_cocone_that_is_not_a_chain_map_fails_with_no_probes(self):
        # the chain-map equation is checked once per call, before any probe
        cat = unit_dg_category()
        a = make_complex({1: 2, 0: 1}, {1: [[1, 0]]})
        wc = weighted_colimit(trivial_weight(cat), module_from_complex(cat, a, LEFT))
        shear = Proto(a, a, 0, {1: IntMatrix.from_rows([[1, 1], [0, 1]]),
                                0: IntMatrix.identity(1)})
        assert wc.defining_iso_verified([]) is True
        real = wc.gamma_proto
        wc.gamma_proto = lambda u, y: compose(real(u, y), shear) if y.degree == 0 else real(u, y)
        assert wc.defining_iso_verified([]) is False

    @pytest.mark.parametrize("probes", [[], [K0], [K0, suspension(K0, 1), M2]],
                             ids=["none", "one", "three"])
    def test_the_cocone_is_built_once_per_call(self, probes):
        # one gamma_proto per basis element of each M U, whatever the probes
        for wc in list(co_yoneda_colimits())[::5]:
            calls = []
            real = wc.gamma_proto
            wc.gamma_proto = lambda u, y: calls.append((u, y)) or real(u, y)
            assert wc.defining_iso_verified(probes) is True
            assert sorted(calls, key=repr) == sorted(
                ((u, y) for u in wc.m.base.objects for y in all_basis_elts(wc.m.value(u))),
                key=repr)

    def test_zero_colimit_with_nonzero_thetas(self):
        # [colim, T]_0 = 0 but Theta_0 = Z: the reference solved against a
        # 0 x 0 phi and raised; the coordinate version answers False.
        cat = unit_dg_category()
        wc = weighted_colimit(trivial_weight(cat), module_from_complex(cat, K0, LEFT))
        wc.colimit = Complex.zero()
        wc.gamma_proto = lambda u, y: Proto.zero(wc.f.value(u), wc.colimit, y.degree)
        with pytest.raises(ShapeMismatch):
            reference_verify_weighted_colimit_iso(wc, K0)
        assert wc.defining_iso_verified([K0]) is False


def factor_cases():
    """(k, w, t): canonical presentations and protosplit cokernels on their
    probes, and maps that fail uniqueness or existence."""
    rng = random.Random(21)
    for _ in range(3):
        a = rand_complex(rng, bricks=2)
        cp = canonical_presentation(a)
        for _, t in default_probe_family(a):
            yield cp.beta - cp.gamma, cp.alpha, t
    for _ in range(3):
        a, b = rand_complex(rng, bricks=2), rand_complex(rng, bricks=2)
        total, injs, projs = direct_sum_complexes([a, b])
        f = injs[0]
        w, _ = cokernel_protosplit(f, compose(identity_map(a), projs[0]))
        for t in (a, total, suspension(total, 1), suspension(total, -1), K0, LZ):
            yield f, w, t
    zero_to_k0 = ChainMap(Complex.zero(), K0, 0, {})
    zz, injs, projs = direct_sum_complexes([K0, K0])
    zero_to_zz = ChainMap(Complex.zero(), zz, 0, {})
    yield zero_to_k0, ChainMap(K0, Complex.zero(), 0, {}), K0
    yield zero_to_k0, injs[0], K0
    for p in projs:
        yield zero_to_zz, p, K0


class TestFactorsUniquelyGate:
    def test_same_operands_and_answers(self, zlinalg_calls):
        answers = [assert_same_linear_algebra(zlinalg_calls,
                                              lambda: factors_uniquely(k, w, t),
                                              lambda: reference_factors_uniquely(k, w, t))
                   for k, w, t in factor_cases()]
        assert {ok for ok, _ in answers} == {True, False}
        assert all(calls for _, calls in answers)


def protosplit_pair(rng, kind):
    """A random protosplit chain map f with its protosplitting t.

    "sum": f = u (inj_A proj_A): A + K -> A + B, neither mono nor epi, with
    t = (inj_A proj_A) u^-1 a chain map, where u = 1 + inj_B h proj_A is a
    unipotent automorphism of A + B for a random chain map h: A -> B.
    "cylinder": the protosplit mono i: A -> B + Mc 1_A of the cylinder of a
    random f: A -> B, with its splitting q, a graded map only."""
    a, b = rand_complex(rng, bricks=2), rand_complex(rng, bricks=2)
    if kind == "cylinder":
        cyl = cylinder_factorization(rand_chain_map(rng, a, b))
        return cyl.i, cyl.q
    src, src_injs, src_projs = direct_sum_complexes([a, rand_complex(rng, bricks=1)])
    tgt, injs, projs = direct_sum_complexes([a, b])
    h = injs[1] @ rand_chain_map(rng, a, b) @ projs[0]
    u, u_inv = identity_map(tgt) + h, identity_map(tgt) - h
    return u @ injs[0] @ src_projs[0], src_injs[0] @ projs[0] @ u_inv


class TestEquationsAgreeWithSampling:
    """The split-fork and cokernel equations prove the universal property
    for every target; the per-basis reference samples it on the probe
    families that the verifiers used to run, and must agree."""

    @settings(max_examples=30, deadline=None)
    @given(SEEDS, st.sampled_from(["sum", "cylinder"]))
    def test_protosplit_cokernels(self, seed, kind):
        f, t = protosplit_pair(random.Random(seed), kind)
        w, _ = cokernel_protosplit(f, t)   # raises unless the equations hold
        b = f.target
        for target in (f.source, b, suspension(b, 1), suspension(b, -1), K0, LZ):
            assert reference_factors_uniquely(f, w, target)

    @settings(max_examples=30, deadline=None)
    @given(SEEDS, st.booleans())
    def test_canonical_presentations(self, seed, zero):
        a = Complex.zero() if zero else rand_complex(random.Random(seed), bricks=2)
        cp = canonical_presentation(a)
        sampled = all(reference_factors_uniquely(cp.beta - cp.gamma, cp.alpha, t)
                      for _, t in default_probe_family(a))
        assert cp.coequalizer_verified is sampled is True
        assert cp.failures == []


class TestStenHomGate:
    def test_isos_equal_the_reference(self):
        rng = random.Random(22)
        pairs = [(rand_complex(rng, bricks=2), rand_complex(rng, bricks=2)) for _ in range(30)]
        pairs += [(M2, Complex.zero()), (Complex.zero(), M2), (K0, LZ)]
        for b, c in pairs:
            assert sten_hom_isos(b, c) == reference_sten_hom_isos(b, c)


class TestPrecomposition:
    @settings(max_examples=150, deadline=None)
    @given(SEEDS, st.integers(-2, 2))
    def test_matrix_of_precomposition(self, seed, degree):
        rng = random.Random(seed)
        a, b, t = (rand_complex(rng, bricks=2) if rng.random() < 0.85 else Complex.zero()
                   for _ in range(3))
        g = rand_proto(rng, a, b, degree)
        hs_from, hs_to = HomSpace(b, t), HomSpace(a, t)
        for n in range(t.lo - b.hi - 1, t.hi - b.lo + 2):
            p = precomposition(g, hs_from, hs_to, n)
            assert p.shape == (hs_to.dim(n + degree), hs_from.dim(n))
            for j, h in enumerate(protos(hs_from, n)):
                assert p.col(j) == hs_to.to_vector(compose(h, g))

    def test_empty_blocks_and_zero_rank_degrees(self):
        # b has a zero group in degree 1 between nonzero ones
        b = make_complex({0: 1, 2: 2}, {})
        g = Proto(K0, b, 2, {0: IntMatrix.from_rows([[1], [-3]])})
        hs_from, hs_to = HomSpace(b, M2), HomSpace(K0, M2)
        for n in range(-3, 2):
            p = precomposition(g, hs_from, hs_to, n)
            assert p.shape == (hs_to.dim(n + 2), hs_from.dim(n))
            for j, h in enumerate(protos(hs_from, n)):
                assert p.col(j) == hs_to.to_vector(compose(h, g))

    def test_mismatched_spaces_raise(self):
        g = identity_map(M2)
        with pytest.raises(ShapeMismatch):
            precomposition(g, HomSpace(K0, M2), HomSpace(M2, M2), 0)
        with pytest.raises(ShapeMismatch):
            precomposition(g, HomSpace(M2, M2), HomSpace(M2, K0), 0)


class TestPostcomposition:
    @settings(max_examples=150, deadline=None)
    @given(SEEDS, st.integers(-2, 2))
    def test_matrix_of_postcomposition(self, seed, degree):
        rng = random.Random(seed)
        a, x, y = (rand_complex(rng, bricks=2) if rng.random() < 0.85 else Complex.zero()
                   for _ in range(3))
        w = rand_proto(rng, x, y, degree)
        hs_from, hs_to = HomSpace(a, x), HomSpace(a, y)
        for n in range(x.lo - a.hi - 1, x.hi - a.lo + 2):
            p = postcomposition(w, hs_from, hs_to, n)
            assert p.shape == (hs_to.dim(n + degree), hs_from.dim(n))
            for j, h in enumerate(protos(hs_from, n)):
                assert p.col(j) == hs_to.to_vector(compose(w, h))

    def test_mismatched_spaces_raise(self):
        w = identity_map(M2)
        with pytest.raises(ShapeMismatch):
            postcomposition(w, HomSpace(M2, K0), HomSpace(M2, M2), 0)
        with pytest.raises(ShapeMismatch):
            postcomposition(w, HomSpace(K0, M2), HomSpace(M2, M2), 0)
