import ast
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dgkernel.complexes import (
    ChainMap,
    Complex,
    Proto,
    compose,
    d_hom,
    direct_sum_complexes,
    functor_L,
    forget_U,
    hom_complex,
    homology_H,
    identity_map,
    make_complex,
    suspension,
    unit_complex,
)
import dgkernel.cones
from dgkernel.cones import (
    NotIdempotent,
    NotProtosplit,
    PairEquationsFail,
    SplitSequence,
    WitnessEquationsFail,
    coequalizer_protosplit_pair,
    cokernel_protosplit,
    cone_as_cokernel,
    cone_functor_map,
    cone_homotopy_iso,
    cone_perturbation,
    cylinder_factorization,
    direct_sum,
    idempotent_of,
    is_protosplitting,
    lu_functor_map,
    mapping_cone,
    mc1,
    mc1_iso_LU,
    pair_from_protosplit_map,
    recognize_cone,
    split_chain_idempotent_via_pair,
    split_idempotent,
)
from dgkernel.rand import rand_chain_map, rand_complex, rand_proto
from dgkernel.zlinalg import FPAbGroup, IntMatrix, block_matrix

K0 = unit_complex()
LZ = functor_L(K0)
M2 = make_complex({1: 1, 0: 1}, {1: [[2]]})


def canonical_cone_witnesses(f):
    """The canonical j = [0; 1], q = [1 0] for Mc f."""
    a, b = f.source, f.target
    res = mapping_cone(f)
    j_comps, q_comps = {}, {}
    for n in res.middle.degrees():
        rb, ra = b.rank(n), a.rank(n - 1)
        if ra:
            j_comps[n] = IntMatrix.zeros(rb, ra).vstack(IntMatrix.identity(ra))
        if rb:
            q_comps[n] = IntMatrix.identity(rb).hstack(IntMatrix.zeros(rb, ra))
    j = Proto(suspension(a, 1), res.middle, 0, j_comps)
    q = Proto(res.middle, b, 0, q_comps)
    return res, j, q


# -- reference oracles: the maps into and out of cones written out as block
# -- matrices, one block per summand; the package composes them from the
# -- structure maps i, p, q and j

def reference_upper_triangular(f, g, w):
    """[[1, w], [0, 1]]: Mc f -> Mc g."""
    a, b = f.source, f.target
    src, tgt = mapping_cone(f).middle, mapping_cone(g).middle
    comps = {}
    for n in src.degrees():
        rb, ra = b.rank(n), a.rank(n - 1)
        if rb + ra == 0:
            continue
        comps[n] = block_matrix([
            [IntMatrix.identity(rb), w.comp(n)],
            [IntMatrix.zeros(ra, rb), IntMatrix.identity(ra)],
        ])
    return ChainMap(src, tgt, 0, comps)


def reference_recognition(data, g):
    """[i, j]: Mc g -> C and [q - q j p; p]: C -> Mc g."""
    b, c = data.i.source, data.i.target
    a = g.source
    cone = mapping_cone(g).middle
    top = compose(data.q, identity_map(c)) - compose(compose(data.q, data.j), data.p)
    iso_comps, inv_comps = {}, {}
    for n in cone.degrees():
        if b.rank(n) + a.rank(n - 1) == 0 or c.rank(n) == 0:
            continue
        iso_comps[n] = data.i.comp(n).hstack(data.j.comp(n))
        inv_comps[n] = top.comp(n).vstack(data.p.comp(n))
    return ChainMap(cone, c, 0, iso_comps), ChainMap(c, cone, 0, inv_comps)


def reference_cylinder(f):
    """i = [-f; 1; 0], p = [[1, f, 0], [0, 0, 1]], j = [[1,0],[0,0],[0,1]],
    q = [0 1 0] on B + Mc1_A."""
    a, b = f.source, f.target
    middle, _, _ = direct_sum_complexes([b, mc1(a).middle])
    conef = mapping_cone(f).middle
    i_comps, p_comps, j_comps, q_comps = {}, {}, {}, {}
    for n in middle.degrees():
        rb, ra, ra1 = b.rank(n), a.rank(n), a.rank(n - 1)
        if middle.rank(n) == 0:
            continue
        if ra:
            i_comps[n] = block_matrix([
                [-1 * f.comp(n)], [IntMatrix.identity(ra)], [IntMatrix.zeros(ra1, ra)]])
            q_comps[n] = block_matrix([
                [IntMatrix.zeros(ra, rb), IntMatrix.identity(ra), IntMatrix.zeros(ra, ra1)]])
        if conef.rank(n):
            p_comps[n] = block_matrix([
                [IntMatrix.identity(rb), f.comp(n), IntMatrix.zeros(rb, ra1)],
                [IntMatrix.zeros(ra1, rb), IntMatrix.zeros(ra1, ra), IntMatrix.identity(ra1)],
            ])
            j_comps[n] = block_matrix([
                [IntMatrix.identity(rb), IntMatrix.zeros(rb, ra1)],
                [IntMatrix.zeros(ra, rb), IntMatrix.zeros(ra, ra1)],
                [IntMatrix.zeros(ra1, rb), IntMatrix.identity(ra1)],
            ])
    return (ChainMap(a, middle, 0, i_comps), ChainMap(middle, conef, 0, p_comps),
            Proto(conef, middle, 0, j_comps), Proto(middle, a, 0, q_comps))


def reference_mc1_iso_LU(a):
    """[[1, 0], [-d, 1]]: Mc 1_{S^-1 A} -> LU A and [[1, 0], [d, 1]] back."""
    cone = mc1(suspension(a, -1)).middle
    lua = functor_L(forget_U(a))
    iso_comps, inv_comps = {}, {}
    for n in cone.degrees():
        r1, r0 = a.rank(n + 1), a.rank(n)
        if r1 + r0 == 0:
            continue
        d = a.diff(n + 1)
        iso_comps[n] = block_matrix([[IntMatrix.identity(r1), IntMatrix.zeros(r1, r0)],
                                     [-1 * d, IntMatrix.identity(r0)]])
        inv_comps[n] = block_matrix([[IntMatrix.identity(r1), IntMatrix.zeros(r1, r0)],
                                     [d, IntMatrix.identity(r0)]])
    return ChainMap(cone, lua, 0, iso_comps), ChainMap(lua, cone, 0, inv_comps)


def reference_cone_functor_map(square_a, square_b, f, g):
    """[[b, 0], [0, S a]]: Mc f -> Mc g."""
    src, tgt = mapping_cone(f).middle, mapping_cone(g).middle
    comps = {}
    for n in src.degrees():
        rb, ra = f.target.rank(n), f.source.rank(n - 1)
        rb2, ra2 = g.target.rank(n), g.source.rank(n - 1)
        if rb + ra == 0 or rb2 + ra2 == 0:
            continue
        comps[n] = block_matrix([[square_b.comp(n), IntMatrix.zeros(rb2, ra)],
                                 [IntMatrix.zeros(ra2, rb), square_a.comp(n - 1)]])
    return ChainMap(src, tgt, 0, comps)


def reference_lu_functor_map(h):
    """[[h_{n+1}, 0], [0, h_n]]: LU A -> LU A'."""
    src, tgt = functor_L(forget_U(h.source)), functor_L(forget_U(h.target))
    comps = {}
    for n in src.degrees():
        r1, r0 = h.source.rank(n + 1), h.source.rank(n)
        s1, s0 = h.target.rank(n + 1), h.target.rank(n)
        if r1 + r0 == 0 or s1 + s0 == 0:
            continue
        comps[n] = block_matrix([[h.comp(n + 1), IntMatrix.zeros(s1, r0)],
                                 [IntMatrix.zeros(s0, r1), h.comp(n)]])
    return ChainMap(src, tgt, 0, comps)


def reference_q1(a):
    """q_1 = [1 0]: Mc1_A -> A."""
    cone = mc1(a).middle
    return Proto(cone, a, 0, {n: IntMatrix.identity(a.rank(n)).hstack(
        IntMatrix.zeros(a.rank(n), a.rank(n - 1))) for n in cone.degrees() if a.rank(n)})


def reference_cone_perturbation(f, u):
    """v_k = -(d u_{k+1} + u_k d), one degree at a time, as cone_perturbation
    computed it before it became -d_hom(u) moved down a degree."""
    a, b = f.source, f.target
    comps = {}
    for k in a.degrees():
        if a.rank(k) and b.rank(k):
            comps[k] = -1 * (b.diff(k + 1) @ u.comp(k + 1) + u.comp(k) @ a.diff(k))
    return Proto(a, b, 0, comps)


def _drawn_complex(rng, zero):
    return Complex.zero() if zero else rand_complex(rng)


# hypothesis draws: a seed and, for each complex, whether it is zero
SEED_AND_ZEROS = (st.integers(0, 2**32 - 1), st.booleans(), st.booleans())


# the spellings of the split sequence that SplitSequence replaced
REMOVED_SPLIT_NAMES = {"DirectSumWitness", "ConeResult", "ConeRecognitionData",
                       "CylinderFactorization", "recognition_data",
                       "_split_exactness_failures"}


def removed_split_names(package: Path):
    """(file, name, line) of each definition of, reference to or import of
    a removed split-sequence spelling in the package: sums, cones and the
    cylinder are all one SplitSequence."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in REMOVED_SPLIT_NAMES:
                found.append((path.name, name, node.lineno))
    return found


class TestSplitSequence:
    @settings(max_examples=40, deadline=None)
    @given(*SEED_AND_ZEROS)
    def test_sums_cones_and_cylinders_satisfy_all_five(self, seed, za, zb):
        rng = random.Random(seed)
        a, b = _drawn_complex(rng, za), _drawn_complex(rng, zb)
        f = rand_chain_map(rng, a, b)
        for seq in (direct_sum(a, b), mapping_cone(f), cylinder_factorization(f)):
            assert seq.check() == []
            assert compose(seq.q, seq.j).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(*SEED_AND_ZEROS)
    def test_a_broken_map_names_its_equations(self, seed, za, zb):
        rng = random.Random(seed)
        a, b = _drawn_complex(rng, za), _drawn_complex(rng, zb)
        f = rand_chain_map(rng, a, b)
        for seq in (direct_sum(a, b), mapping_cone(f), cylinder_factorization(f)):
            doubled = SplitSequence(i=seq.i, j=seq.j, p=seq.p, q=2 * seq.q)
            flipped = SplitSequence(i=seq.i, j=-seq.j, p=seq.p, q=seq.q)
            # 2q and -j break exactly the equations that read them, unless
            # the complex they start or end at is zero
            assert doubled.check() == ([] if seq.i.source.is_zero()
                                       else ["q o i != 1", "i q + j p != 1"])
            assert flipped.check() == ([] if seq.j.source.is_zero()
                                       else ["p o j != 1", "i q + j p != 1"])

    def test_q_j_is_checked(self):
        w = direct_sum(K0, K0)
        skewed = SplitSequence(i=w.i, j=w.j + w.i, p=w.p, q=w.q)
        assert skewed.check() == ["i q + j p != 1", "q o j != 0"]

    def test_direct_sum_raises_on_failing_equations(self, monkeypatch):
        monkeypatch.setattr(SplitSequence, "check", lambda self: ["q o j != 0"])
        with pytest.raises(WitnessEquationsFail, match="q o j != 0"):
            direct_sum(K0, K0)

    def test_src_has_one_split_sequence_type(self):
        assert removed_split_names(Path(dgkernel.cones.__file__).parent) == []

    def test_the_check_finds_the_removed_spellings(self, tmp_path):
        (tmp_path / "cones.py").write_text(
            "from .x import ConeResult\n"
            "class CylinderFactorization:\n"
            "    def recognition_data(self):\n"
            "        return _split_exactness_failures\n")
        assert removed_split_names(tmp_path) == [
            ("cones.py", "CylinderFactorization", 2), ("cones.py", "ConeResult", 1),
            ("cones.py", "recognition_data", 3), ("cones.py", "_split_exactness_failures", 4)]


class TestDirectSum:
    def test_witness_equations(self):
        rng = random.Random(0)
        for _ in range(10):
            a, b = rand_complex(rng), rand_complex(rng)
            assert direct_sum(a, b).check() == []

    def test_sum_with_zero(self):
        w = direct_sum(M2, Complex.zero())
        assert w.middle == M2

    def test_rank_two_in_degree_zero(self):
        w = direct_sum(K0, K0)
        assert w.middle.rank(0) == 2


class TestMappingCone:
    def test_cone_of_zero_from_zero(self):
        f = ChainMap(Complex.zero(), M2, 0, {})
        assert mapping_cone(f).middle == M2

    def test_cone_of_identity_on_unit(self):
        res = mc1(K0)
        assert {n: res.middle.rank(n) for n in res.middle.degrees()} == {0: 1, 1: 1}
        assert res.middle.diff(1) == IntMatrix.from_rows([[1]])
        assert homology_H(res.middle).is_trivial()

    def test_cone_of_multiplication_by_two(self):
        two = ChainMap(K0, K0, 0, {0: IntMatrix.from_rows([[2]])})
        res = mapping_cone(two)
        assert homology_H(res.middle).at(0) == FPAbGroup.canonical(0, [2])

    def test_rejects_non_chain_maps(self):
        from dgkernel.complexes import NotAChainMap

        f = Proto(M2, M2, 0, {1: IntMatrix.from_rows([[1]]),
                              0: IntMatrix.from_rows([[3]])})
        with pytest.raises(NotAChainMap):
            mapping_cone(f)

    def test_ses_and_degreewise_splitness(self):
        rng = random.Random(1)
        for _ in range(10):
            a, b = rand_complex(rng), rand_complex(rng)
            f = rand_chain_map(rng, a, b)
            res = mapping_cone(f)
            assert compose(res.p, res.i).is_zero()
            assert d_hom(res.i).is_zero() and d_hom(res.p).is_zero()
            for n in res.middle.degrees():
                assert res.middle.rank(n) == b.rank(n) + a.rank(n - 1)

    def test_euler_characteristic(self):
        rng = random.Random(2)
        for _ in range(10):
            a, b = rand_complex(rng), rand_complex(rng)
            f = rand_chain_map(rng, a, b)
            cone = mapping_cone(f).middle

            def chi(groups, degrees):
                return sum((-1) ** n * groups.at(n).free_rank for n in degrees)

            degs = range(min(cone.lo, a.lo, b.lo), max(cone.hi, a.hi, b.hi) + 1)
            assert chi(homology_H(cone), degs) == chi(homology_H(b), degs) - chi(homology_H(a), degs)


class TestConeHomotopyIso:
    def test_zero_homotopy_is_identity(self):
        rng = random.Random(3)
        a, b = rand_complex(rng), rand_complex(rng)
        f = rand_chain_map(rng, a, b)
        zero = Proto.zero(suspension(a, 1), b, 0)
        iso, _ = cone_homotopy_iso(f, zero)
        assert iso == identity_map(iso.source)
        assert cone_perturbation(f, zero).is_zero()

    def test_unit_rank_one_case(self):
        # f = 0: K(-1) -> K(0) with u = [[1]]: SA = K0 -> B = K0;
        # d(u) = 0 here, so [[1,1],[0,1]] is a self-iso of Mc(0).
        a = Complex.concentrated(-1)
        f = ChainMap(a, K0, 0, {})
        u = Proto(suspension(a, 1), K0, 0, {0: IntMatrix.from_rows([[1]])})
        iso, inverse = cone_homotopy_iso(f, u)
        assert cone_perturbation(f, u).is_zero()
        assert iso.comp(0) == IntMatrix.from_rows([[1, 1], [0, 1]])
        assert compose(inverse, iso) == identity_map(iso.source)
        assert compose(iso, inverse) == identity_map(iso.target)

    def test_invertible_both_ways_random(self):
        rng = random.Random(4)
        for _ in range(50):
            a, b = rand_complex(rng), rand_complex(rng)
            f = rand_chain_map(rng, a, b)
            u = rand_proto(rng, suspension(a, 1), b, 0)
            iso, inverse = cone_homotopy_iso(f, u)
            assert compose(inverse, iso) == identity_map(iso.source)
            assert compose(iso, inverse) == identity_map(iso.target)
            v = cone_perturbation(f, u)
            assert d_hom(v).is_zero()  # f and f+v are both chain maps
            assert iso.target == mapping_cone((f + v).as_chain_map()).middle


class TestConePerturbation:
    @settings(max_examples=60, deadline=None)
    @given(*SEED_AND_ZEROS)
    def test_equals_the_reference(self, seed, za, zb):
        rng = random.Random(seed)
        a, b = _drawn_complex(rng, za), _drawn_complex(rng, zb)
        f = rand_chain_map(rng, a, b)
        u = rand_proto(rng, suspension(a, 1), b, 0)
        v = cone_perturbation(f, u)
        assert v == reference_cone_perturbation(f, u)
        assert d_hom(v).is_zero()

    def test_known_answer(self):
        # u_1: (S M2)_1 = (M2)_0 -> (M2)_1 is [[1]], and d = [[2]], so
        # d u + u d is 2 in both degrees of M2
        u = Proto(suspension(M2, 1), M2, 0, {1: IntMatrix.from_rows([[1]])})
        v = cone_perturbation(identity_map(M2), u)
        assert v == -2 * identity_map(M2)
        assert v == reference_cone_perturbation(identity_map(M2), u)


class TestRecognizeCone:
    def test_recovers_canonical_data(self):
        rng = random.Random(5)
        for _ in range(10):
            a, b = rand_complex(rng), rand_complex(rng)
            f = rand_chain_map(rng, a, b)
            res, j, q = canonical_cone_witnesses(f)
            rec = recognize_cone(SplitSequence(i=res.i, j=j, p=res.p, q=q))
            assert rec.map == f
            assert rec.iso == identity_map(res.middle)

    def test_split_case_gives_zero_map(self):
        rng = random.Random(6)
        a, b = rand_complex(rng), rand_complex(rng)
        w = direct_sum(b, suspension(a, 1))
        rec = recognize_cone(w)
        assert rec.map.is_zero()

    def test_recognized_map_is_chain_map_on_twisted_data(self):
        rng = random.Random(7)
        for _ in range(10):
            a, b = rand_complex(rng), rand_complex(rng)
            f = rand_chain_map(rng, a, b)
            res, j, q = canonical_cone_witnesses(f)
            u = rand_proto(rng, suspension(a, 1), b, 0)
            iso, inverse = cone_homotopy_iso(f, u)
            data = SplitSequence(
                i=iso @ res.i,
                j=compose(iso, j),
                p=res.p @ inverse,
                q=compose(q, inverse),
            )
            rec = recognize_cone(data)
            assert d_hom(rec.map).is_zero()
            assert compose(rec.inverse, rec.iso) == identity_map(rec.iso.source)

    def test_reports_failing_equation(self):
        rng = random.Random(8)
        a, b = rand_complex(rng), rand_complex(rng)
        f = rand_chain_map(rng, a, b)
        res, j, q = canonical_cone_witnesses(f)
        with pytest.raises(WitnessEquationsFail) as exc:
            recognize_cone(SplitSequence(i=res.i, j=j, p=res.p, q=2 * q))
        assert any("q o i" in s for s in exc.value.failures)


class TestCylinderFactorization:
    def test_absmc_equations_hold(self):
        rng = random.Random(9)
        for _ in range(20):
            a, b = rand_complex(rng), rand_complex(rng)
            f = rand_chain_map(rng, a, b)
            cyl = cylinder_factorization(f)
            assert cyl.check() == []
            assert compose(cyl.p, cyl.i).is_zero()

    def test_middle_has_homology_of_target(self):
        rng = random.Random(10)
        for _ in range(10):
            a, b = rand_complex(rng), rand_complex(rng)
            f = rand_chain_map(rng, a, b)
            cyl = cylinder_factorization(f)
            assert homology_H(cyl.middle) == homology_H(b)

    def test_identity_case(self):
        cyl = cylinder_factorization(identity_map(K0))
        assert homology_H(cyl.middle).at(0) == FPAbGroup.free(1)

    def test_zero_map_injects_second_block(self):
        rng = random.Random(11)
        a, b = rand_complex(rng), rand_complex(rng)
        f = ChainMap(a, b, 0, {})
        cyl = cylinder_factorization(f)
        for n in a.degrees():
            if a.rank(n):
                assert cyl.i.comp(n).select_rows(range(b.rank(n))).is_zero()


class TestProtosplitting:
    def test_section_of_mono(self):
        w = direct_sum(K0, M2)
        assert is_protosplitting(w.i, compose(identity_map(K0), w.q))

    def test_zero_map(self):
        assert is_protosplitting(ChainMap(K0, K0, 0, {}), Proto.zero(K0, K0))

    def test_doubling_fails(self):
        f = ChainMap(K0, K0, 0, {0: IntMatrix.from_rows([[2]])})
        t = Proto(K0, K0, 0, {0: IntMatrix.from_rows([[1]])})
        assert not is_protosplitting(f, t)  # f t f = 4 != 2

    def test_idempotent_of(self):
        w = direct_sum(K0, M2)
        e = idempotent_of(w.i, compose(identity_map(K0), w.q))
        assert compose(e, e) == e
        assert compose(e, w.i).is_zero()


class TestSplitIdempotent:
    def test_identity_splits_to_whole(self):
        a = rand_complex(random.Random(12))
        p, r, s = split_idempotent(identity_map(a))
        assert p == a

    def test_zero_splits_to_zero(self):
        a = rand_complex(random.Random(13))
        p, _, _ = split_idempotent(ChainMap(a, a, 0, {}))
        assert p.is_zero()

    def test_projection_onto_summand(self):
        w = direct_sum(K0, K0)
        e = compose(w.i, w.q).as_chain_map()
        p, r, s = split_idempotent(e)
        assert p == K0
        assert compose(s, r) == e
        assert compose(r, s) == identity_map(p)

    def test_rejects_non_idempotent(self):
        two = ChainMap(K0, K0, 0, {0: IntMatrix.from_rows([[2]])})
        with pytest.raises(NotIdempotent):
            split_idempotent(two)


class TestCokernelProtosplit:
    def test_identity_gives_zero(self):
        a = rand_complex(random.Random(14))
        w, _ = cokernel_protosplit(identity_map(a), identity_map(a))
        assert w.target.is_zero()

    def test_split_inclusion_into_square(self):
        ds = direct_sum(K0, K0)
        w, _ = cokernel_protosplit(ds.i, compose(identity_map(K0), ds.q))
        assert w.target == K0
        assert w.comp(0) == IntMatrix.from_rows([[0, 1]])

    def test_shifted_free_cover_example(self):
        # f: S^-1 LZ -> LZ concentrated in degree -1; the cokernel is Z.
        slz = suspension(LZ, -1)
        f = ChainMap(slz, LZ, 0, {-1: IntMatrix.from_rows([[1]])})
        t = Proto(LZ, slz, 0, {-1: IntMatrix.from_rows([[1]])})
        w, _ = cokernel_protosplit(f, t)
        assert w.target == K0

    def test_equations_and_universal_property(self):
        rng = random.Random(15)
        for _ in range(8):
            a = rand_complex(rng, bricks=2)
            b = rand_complex(rng, bricks=2)
            total, injs, projs = direct_sum_complexes([a, b])
            f = injs[0]
            t = compose(identity_map(a), projs[0])
            w, s = cokernel_protosplit(f, t)
            c = w.target
            assert compose(w, f).is_zero()
            assert compose(w, s) == identity_map(c)
            assert compose(s, w) == identity_map(total) - compose(f, t)
            # w is a chain map compatible with the induced differential
            for n in c.degrees():
                lhs = c.diff(n) @ w.comp(n)
                rhs = w.comp(n - 1) @ total.diff(n)
                assert lhs == rhs

    def test_rejects_bad_splitting(self):
        two = ChainMap(K0, K0, 0, {0: IntMatrix.from_rows([[2]])})
        t = Proto(K0, K0, 0, {0: IntMatrix.from_rows([[1]])})
        with pytest.raises(NotProtosplit):
            cokernel_protosplit(two, t)

    def test_wrong_section_entry_names_the_broken_equations(self, section_off_by_one_entry):
        w = direct_sum(K0, K0)
        with pytest.raises(WitnessEquationsFail) as exc:
            cokernel_protosplit(w.i, compose(identity_map(K0), w.q))
        assert exc.value.failures == ["w o s != 1", "s o w != e"]
        assert "w o s != 1" in str(exc.value)


class TestCoequalizerPair:
    def test_equal_pair_gives_target(self):
        a, b = rand_complex(random.Random(16), bricks=2), rand_complex(random.Random(17), bricks=2)
        total, injs, projs = direct_sum_complexes([a, b])
        w, _ = coequalizer_protosplit_pair(projs[1], projs[1], injs[1])
        assert w.target == b

    def test_idempotent_case_splits(self):
        ds = direct_sum(K0, K0)
        e = compose(ds.i, ds.q).as_chain_map()
        w, s = split_chain_idempotent_via_pair(e)
        assert w.target == K0
        assert compose(s, w) == e and compose(w, s) == identity_map(K0)

    def test_reverse_reduction_agrees(self):
        rng = random.Random(18)
        for _ in range(5):
            a = rand_complex(rng, bricks=2)
            b = rand_complex(rng, bricks=2)
            total, injs, projs = direct_sum_complexes([a, b])
            f, t = injs[0], compose(identity_map(a), projs[0])
            u, v, t_pair = pair_from_protosplit_map(f, t)
            c1 = coequalizer_protosplit_pair(u, v, t_pair)[0].target
            c2 = cokernel_protosplit(f, t)[0].target
            assert c1.ranks() == c2.ranks()
            assert homology_H(c1) == homology_H(c2)

    def test_pair_equations_enforced(self):
        rng = random.Random(19)
        a, b = rand_complex(rng), rand_complex(rng)
        u = rand_chain_map(rng, a, b)
        with pytest.raises(PairEquationsFail):
            coequalizer_protosplit_pair(u, u, Proto.zero(b, a))


class TestMc1IsoLU:
    def test_unit_case_collapses_to_identity(self):
        iso, _ = mc1_iso_LU(K0)
        for n, m in iso.comps().items():
            assert m == IntMatrix.identity(m.rows)

    def test_m2_inverse_via_d_squared(self):
        iso, inverse = mc1_iso_LU(M2)
        assert compose(inverse, iso) == identity_map(iso.source)
        assert compose(iso, inverse) == identity_map(iso.target)

    def test_naturality(self):
        rng = random.Random(20)
        for _ in range(10):
            a, a2 = rand_complex(rng), rand_complex(rng)
            h = rand_chain_map(rng, a, a2)
            sh = ChainMap(suspension(a, -1), suspension(a2, -1), 0,
                          {q - 1: m for q, m in h.comps().items()})
            cone_h = cone_functor_map(
                sh, sh, identity_map(suspension(a, -1)), identity_map(suspension(a2, -1))
            )
            assert compose(lu_functor_map(h), mc1_iso_LU(a)[0]) == compose(
                mc1_iso_LU(a2)[0], cone_h
            )

    def test_hom_from_LZ_has_cone_ranks(self):
        rng = random.Random(21)
        for _ in range(10):
            a = rand_complex(rng)
            assert hom_complex(LZ, a).ranks() == mc1(a).middle.ranks()


class TestConeAsCokernel:
    def test_identity_case_matches_contractible_cone(self):
        quotient = cone_as_cokernel(identity_map(K0)).w.target
        cone = mc1(K0).middle
        assert quotient.ranks() == cone.ranks()
        assert homology_H(quotient).is_trivial()

    def test_zero_map_gives_sum(self):
        rng = random.Random(22)
        a, b = rand_complex(rng, bricks=2), rand_complex(rng, bricks=2)
        f = ChainMap(a, b, 0, {})
        quotient = cone_as_cokernel(f).w.target
        expected, _, _ = direct_sum_complexes([b, suspension(a, 1)])
        assert quotient.ranks() == expected.ranks()
        assert homology_H(quotient) == homology_H(expected)

    def test_comparison_is_chain_iso(self):
        rng = random.Random(23)
        for _ in range(8):
            a, b = rand_complex(rng, bricks=2), rand_complex(rng, bricks=2)
            f = rand_chain_map(rng, a, b)
            res = cone_as_cokernel(f)
            cone = mapping_cone(f).middle
            assert compose(res.comparison, res.comparison_inv) == identity_map(cone)
            assert res.comparison.source == res.w.target
            assert homology_H(res.w.target) == homology_H(cone)


class TestStructureMaps:
    @settings(max_examples=60, deadline=None)
    @given(*SEED_AND_ZEROS)
    def test_four_maps_split_the_cone(self, seed, za, zb):
        rng = random.Random(seed)
        a, b = _drawn_complex(rng, za), _drawn_complex(rng, zb)
        f = rand_chain_map(rng, a, b)
        res = mapping_cone(f)
        assert compose(res.q, res.i) == identity_map(b)
        assert compose(res.p, res.j) == identity_map(suspension(a, 1))
        assert compose(res.i, res.q) + compose(res.j, res.p) == identity_map(res.middle)
        assert compose(res.p, res.i).is_zero()
        assert compose(res.q, res.j).is_zero()
        _, j, q = canonical_cone_witnesses(f)
        assert (res.j, res.q) == (j, q)
        rec = recognize_cone(res)
        assert rec.map == f


class TestComposedMapsEqualTheBlockMatrices:
    """Every map composed from the structure maps equals the hand-built
    block matrix it replaced, zero complexes included."""

    @settings(max_examples=40, deadline=None)
    @given(*SEED_AND_ZEROS)
    def test_cone_homotopy_iso(self, seed, za, zb):
        rng = random.Random(seed)
        a, b = _drawn_complex(rng, za), _drawn_complex(rng, zb)
        f = rand_chain_map(rng, a, b)
        u = rand_proto(rng, suspension(a, 1), b, 0)
        iso, inverse = cone_homotopy_iso(f, u)
        g = (f + cone_perturbation(f, u)).as_chain_map()
        assert iso == reference_upper_triangular(f, g, u)
        assert inverse == reference_upper_triangular(g, f, -1 * u)

    @settings(max_examples=40, deadline=None)
    @given(*SEED_AND_ZEROS)
    def test_recognize_cone(self, seed, za, zb):
        rng = random.Random(seed)
        a, b = _drawn_complex(rng, za), _drawn_complex(rng, zb)
        f = rand_chain_map(rng, a, b)
        res = mapping_cone(f)
        for data in (cylinder_factorization(f), res):
            rec = recognize_cone(data)
            assert (rec.iso, rec.inverse) == reference_recognition(data, rec.map)

    @settings(max_examples=40, deadline=None)
    @given(*SEED_AND_ZEROS)
    def test_cylinder_factorization(self, seed, za, zb):
        rng = random.Random(seed)
        a, b = _drawn_complex(rng, za), _drawn_complex(rng, zb)
        f = rand_chain_map(rng, a, b)
        cyl = cylinder_factorization(f)
        assert (cyl.i, cyl.p, cyl.j, cyl.q) == reference_cylinder(f)

    @settings(max_examples=40, deadline=None)
    @given(*SEED_AND_ZEROS)
    def test_mc1_iso_LU(self, seed, za, zb):
        a = _drawn_complex(random.Random(seed), za)
        assert mc1_iso_LU(a) == reference_mc1_iso_LU(a)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.booleans())
    def test_cone_functor_map_and_lu_functor_map(self, seed, za, zb, zc):
        rng = random.Random(seed)
        a, b, c = (_drawn_complex(rng, z) for z in (za, zb, zc))
        f, k = rand_chain_map(rng, a, b), rand_chain_map(rng, b, c)
        # squares k f = k f (a = 1, b = k) and 1 f = 1 f (a = f, b = 1)
        for square in ((identity_map(a), k, f, (k @ f).as_chain_map()),
                       (f, identity_map(b), f, identity_map(b))):
            assert cone_functor_map(*square) == reference_cone_functor_map(*square)
        for h in (f, k, identity_map(a)):
            assert lu_functor_map(h) == reference_lu_functor_map(h)

    @settings(max_examples=25, deadline=None)
    @given(*SEED_AND_ZEROS)
    def test_cone_as_cokernel_splitting(self, seed, za, zb):
        rng = random.Random(seed)
        a, b = _drawn_complex(rng, za), _drawn_complex(rng, zb)
        f = rand_chain_map(rng, a, b)
        q1 = reference_q1(a)
        assert mc1(a).q == q1
        _, _, projs = direct_sum_complexes([b, mc1(a).middle])
        # the protosplitting [0, q_1] of i = [-f; i_1] that the cokernel reads
        assert cylinder_factorization(f).q == compose(q1, projs[1])
        res = cone_as_cokernel(f)
        i_ref, p_ref, j_ref, _ = reference_cylinder(f)
        ref_w, ref_s = cokernel_protosplit(i_ref, compose(q1, projs[1]))
        assert res.w == ref_w
        assert res.comparison == compose(p_ref, ref_s)
        assert res.comparison_inv.comps() == compose(ref_w, j_ref).comps()


class TestABrokenBuilderNamesItsEquation:
    """Each construction checks its own equations: one builder patched to
    break one equation, and WitnessEquationsFail names exactly that one.
    The components of the isos below are square, and a one-sided inverse
    of a square integer matrix is two-sided, so a broken inverse pair
    fails on both sides."""

    BOTH_SIDES = ["inverse o iso != 1", "iso o inverse != 1"]

    def failures(self, build, *args):
        with pytest.raises(WitnessEquationsFail) as exc:
            build(*args)
        return exc.value.failures

    def test_recognize_cone_inverse(self, monkeypatch):
        # the cone of 0: M2 -> Z splits, so q stays a chain map when negated
        data = mapping_cone(Proto.zero(M2, K0).as_chain_map())
        real = dgkernel.cones.mapping_cone

        def negated_q(g):
            cone = real(g)
            return replace(cone, q=-cone.q)

        monkeypatch.setattr(dgkernel.cones, "mapping_cone", negated_q)
        assert self.failures(recognize_cone, data) == self.BOTH_SIDES

    def test_cylinder_p_i(self, monkeypatch):
        # twice the projection onto B makes p i = -i_cone f, a nonzero chain map
        real = dgkernel.cones.direct_sum_complexes

        def doubled_first_projection(summands):
            total, injs, projs = real(summands)
            return total, injs, [2 * projs[0]] + projs[1:]

        monkeypatch.setattr(dgkernel.cones, "direct_sum_complexes", doubled_first_projection)
        assert self.failures(cylinder_factorization, identity_map(M2)) == ["p o i != 0"]

    def test_idempotent_e_e(self, doubled_identity):
        zero = Proto.zero(M2, M2)
        assert self.failures(idempotent_of, zero.as_chain_map(), zero) == ["e o e != e"]

    def test_idempotent_e_f(self, doubled_identity):
        one = identity_map(M2)
        assert self.failures(idempotent_of, one, one) == ["e o f != 0"]

    def projection(self):
        w = direct_sum(K0, K0)
        return compose(w.i, w.q).as_chain_map()   # diag(1, 0) on Z + Z

    def test_split_idempotent_s_r(self, monkeypatch):
        # s + [0; 1]: still r s = 1, as r = [+-1 0]
        real = dgkernel.cones._split_degreewise

        def skewed(e):
            p, r, s = real(e)
            return p, r, {0: s[0] + IntMatrix.from_rows([[0], [1]])}

        monkeypatch.setattr(dgkernel.cones, "_split_degreewise", skewed)
        assert self.failures(split_idempotent, self.projection()) == ["s o r != e"]

    def test_split_idempotent_r_s(self, monkeypatch):
        # one more basis element of P, on which r and s are zero: s r = e still
        real = dgkernel.cones._split_degreewise

        def widened(e):
            p, r, s = real(e)
            return (Complex({0: p.rank(0) + 1}, {}), {0: r[0].vstack(IntMatrix.zeros(1, 2))},
                    {0: s[0].hstack(IntMatrix.zeros(2, 1))})

        monkeypatch.setattr(dgkernel.cones, "_split_degreewise", widened)
        assert self.failures(split_idempotent, self.projection()) == ["r o s != 1"]

    def test_mc1_iso_LU(self, monkeypatch):
        real = dgkernel.cones._identity_plus
        monkeypatch.setattr(dgkernel.cones, "_identity_plus",
                            lambda w, source, target: real(w, source, target).scale(2))
        assert self.failures(mc1_iso_LU, M2) == self.BOTH_SIDES

    def test_cone_as_cokernel(self, monkeypatch):
        real = dgkernel.cones.cylinder_factorization

        def doubled_j(f):
            cyl = real(f)
            return replace(cyl, j=2 * cyl.j)

        monkeypatch.setattr(dgkernel.cones, "cylinder_factorization", doubled_j)
        assert self.failures(cone_as_cokernel, identity_map(M2)) == self.BOTH_SIDES
