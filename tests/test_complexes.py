import random

import pytest
from hypothesis import given, settings, strategies as st

from dgkernel.complexes import (
    ChainMap,
    Complex,
    GradedObject,
    NotAChainMap,
    NotGraded,
    Proto,
    SquareZeroViolated,
    adjunction_iso_LU,
    adjunction_iso_UR,
    boundariesquot_Zprime,
    canonical_presentation,
    chain_map_basis,
    compose,
    cycles_Z,
    d_hom,
    direct_sum_complexes,
    factors_uniquely,
    forget_U,
    functor_L,
    functor_R,
    hom_complex,
    homology_H,
    identity_map,
    lu_counit,
    make_complex,
    suspension,
    suspension_map,
    unit_complex,
    HomSpace,
)
from dgkernel.rand import rand_chain_map, rand_complex, rand_graded, rand_proto
from dgkernel.zlinalg import FPAbGroup, IntMatrix, ShapeMismatch

K0 = unit_complex()
M2 = make_complex({1: 1, 0: 1}, {1: [[2]]})
LZ = functor_L(K0)


def mc1(a):
    # mapping cone of the identity, built by hand: B_n + A_{n-1}
    ranks = {}
    for n in range(a.lo, a.hi + 2):
        ranks[n] = a.rank(n) + a.rank(n - 1)
    diffs = {}
    for n in range(a.lo, a.hi + 2):
        if not ranks.get(n) or not ranks.get(n - 1):
            continue
        from dgkernel.zlinalg import block_matrix

        diffs[n] = block_matrix([
            [a.diff(n), IntMatrix.identity(a.rank(n - 1))],
            [IntMatrix.zeros(a.rank(n - 2), a.rank(n)), -a.diff(n - 1)],
        ])
    return make_complex(ranks, diffs)


class TestMakeComplex:
    def test_point_complex(self):
        assert K0.rank(0) == 1
        assert K0.lo == 0 and K0.hi == 0
        assert K0.has_zero_differentials()

    def test_single_differential(self):
        assert M2.diff(1) == IntMatrix.from_rows([[2]])
        assert M2.diff(0).shape == (0, 1)

    def test_square_zero_violation_reports_degree(self):
        with pytest.raises(SquareZeroViolated) as exc:
            make_complex({2: 1, 1: 1, 0: 1}, {2: [[1]], 1: [[1]]})
        assert exc.value.degree == 2

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            make_complex({1: 2, 0: 1}, {1: [[1]]})

    def test_zero_complex(self):
        z = Complex.zero()
        assert z.is_zero()
        assert z.carrier.hi == z.carrier.lo - 1


class TestSuspension:
    def test_shift_of_unit(self):
        s = suspension(K0)
        assert s.rank(1) == 1 and s.rank(0) == 0

    def test_sign_flip_on_m2(self):
        s = suspension(M2)
        assert s.rank(2) == 1 and s.rank(1) == 1
        assert s.diff(2) == IntMatrix.from_rows([[-2]])

    def test_double_shift_sign(self):
        s = suspension(M2, 2)
        assert s.diff(3) == IntMatrix.from_rows([[2]])

    def test_inverse_shifts_bit_exact(self):
        rng = random.Random(1)
        for _ in range(20):
            a = rand_complex(rng)
            assert suspension(suspension(a, 1), -1) == a
            assert suspension(suspension(a, -3), 3) == a


class TestForgetAndAdjoints:
    def test_forget_kills_differentials(self):
        u = forget_U(M2)
        assert u.diff(1).is_zero()
        assert u.carrier == M2.carrier

    def test_forget_idempotent(self):
        assert forget_U(forget_U(M2)) == forget_U(M2)
        assert forget_U(K0) == K0

    def test_L_of_unit_is_LZ(self):
        assert LZ.rank(0) == 1 and LZ.rank(-1) == 1
        assert LZ.diff(0) == IntMatrix.from_rows([[1]])

    def test_R_of_unit(self):
        r = functor_R(K0)
        assert r.rank(1) == 1 and r.rank(0) == 1
        assert r.diff(1) == IntMatrix.from_rows([[1]])

    def test_L_of_zero(self):
        assert functor_L(Complex.zero()).is_zero()

    def test_L_rejects_honest_differentials(self):
        with pytest.raises(NotGraded):
            functor_L(M2)

    def test_R_equals_L_after_shift(self):
        rng = random.Random(2)
        for _ in range(20):
            x = rand_graded(rng)
            assert functor_R(x) == functor_L(suspension(x, 1))


class TestHomology:
    def test_unit(self):
        h = homology_H(K0)
        assert h.at(0) == FPAbGroup.free(1)
        assert h.support() == [0]

    def test_m2(self):
        h = homology_H(M2)
        assert h.at(0) == FPAbGroup.canonical(0, [2])
        assert h.at(1).is_trivial()

    def test_cone_of_identity_is_acyclic(self):
        rng = random.Random(3)
        for _ in range(10):
            a = rand_complex(rng)
            assert homology_H(mc1(a)).is_trivial()

    def test_suspension_shifts_homology(self):
        rng = random.Random(4)
        for _ in range(10):
            a = rand_complex(rng)
            assert homology_H(suspension(a)) == homology_H(a).shifted(1)

    def test_cycles_and_quotient(self):
        z = cycles_Z(M2)
        assert z.at(0) == FPAbGroup.free(1)  # everything in degree 0 is a cycle
        assert z.at(1).is_trivial()  # d_1 = 2 is injective
        zp = boundariesquot_Zprime(M2)
        assert zp.at(0) == FPAbGroup.canonical(0, [2])
        assert zp.at(1) == FPAbGroup.free(1)


class TestHomComplex:
    def test_unit_hom(self):
        h = hom_complex(K0, K0)
        assert h.rank(0) == 1 and h.carrier.total_rank() == 1

    def test_hom_from_LZ(self):
        h = hom_complex(LZ, K0)
        assert h.rank(0) == 1 and h.rank(1) == 1
        # single generator in degree 1 maps by +-1
        assert h.diff(1) in (IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[-1]]))

    def test_dhom_squares_to_zero(self):
        rng = random.Random(5)
        for _ in range(25):
            a, b = rand_complex(rng), rand_complex(rng)
            f = rand_proto(rng, a, b, rng.randint(-1, 2))
            assert d_hom(d_hom(f)).is_zero()

    def test_dhom_matches_hom_complex_matrix(self):
        rng = random.Random(6)
        for _ in range(15):
            a, b = rand_complex(rng), rand_complex(rng)
            hs = HomSpace(a, b)
            n = rng.randint(-1, 2)
            f = rand_proto(rng, a, b, n)
            lhs = hs.to_vector(d_hom(f))
            rhs = hs.complex.diff(n).apply(hs.to_vector(f))
            assert lhs == rhs

    def test_identity_is_cycle(self):
        rng = random.Random(7)
        for _ in range(10):
            a = rand_complex(rng)
            assert d_hom(identity_map(a)).is_zero()


class TestCompose:
    def test_identity_laws(self):
        rng = random.Random(8)
        for _ in range(10):
            a, b = rand_complex(rng), rand_complex(rng)
            f = rand_proto(rng, a, b, rng.randint(-1, 1))
            assert compose(identity_map(b), f) == f
            assert compose(f, identity_map(a)) == f

    def test_chain_maps_compose(self):
        rng = random.Random(9)
        for _ in range(10):
            a, b, c = rand_complex(rng), rand_complex(rng), rand_complex(rng)
            f = rand_chain_map(rng, a, b)
            g = rand_chain_map(rng, b, c)
            gf = g @ f
            assert isinstance(gf, ChainMap)
            assert d_hom(gf).is_zero()

    def test_leibniz(self):
        rng = random.Random(10)
        for _ in range(30):
            a, b, c = rand_complex(rng), rand_complex(rng), rand_complex(rng)
            f = rand_proto(rng, a, b, rng.randint(-1, 2))
            g = rand_proto(rng, b, c, rng.randint(-1, 2))
            sign = -1 if g.degree % 2 else 1
            lhs = d_hom(compose(g, f))
            rhs = compose(d_hom(g), f) + sign * compose(g, d_hom(f))
            assert lhs == rhs

    def test_composability_checked(self):
        f = rand_proto(random.Random(0), K0, M2)
        with pytest.raises(ShapeMismatch):
            compose(f, f)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(-1, 2), st.integers(-1, 2))
    def test_leibniz_property(self, seed, p, q):
        rng = random.Random(seed)
        a, b, c = rand_complex(rng), rand_complex(rng), rand_complex(rng)
        f = rand_proto(rng, a, b, p)
        g = rand_proto(rng, b, c, q)
        sign = -1 if q % 2 else 1
        assert d_hom(compose(g, f)) == compose(d_hom(g), f) + sign * compose(g, d_hom(f))

    def test_chain_map_constructor_rejects_noncycles(self):
        with pytest.raises(NotAChainMap):
            ChainMap(M2, M2, 0, {1: IntMatrix.from_rows([[1]]),
                                 0: IntMatrix.from_rows([[2]])})


class TestAdjunctions:
    def test_LZ_represents_degree_zero(self):
        # chain maps LZ -> A correspond to elements of A_0
        rng = random.Random(11)
        for _ in range(10):
            a = rand_complex(rng)
            assert len(chain_map_basis(LZ, a, 0)) == a.rank(0)

    def test_zero_graded_object(self):
        w = adjunction_iso_LU(Complex.zero(), M2)
        assert w.verified

    def test_round_trips_random(self):
        rng = random.Random(12)
        for _ in range(50):
            x = rand_graded(rng)
            a = rand_complex(rng)
            assert adjunction_iso_LU(x, a).verified
            assert adjunction_iso_UR(a, x).verified


class TestCanonicalPresentation:
    def test_unit_complex(self):
        pres = canonical_presentation(K0)
        assert pres.lu == LZ
        # the A_1 block is rank 0, so [d 1] collapses to the projection [1]
        assert pres.alpha.comp(0) == IntMatrix.from_rows([[1]])
        assert pres.alpha.comp(-1).shape == (0, 1)
        assert pres.fork_commutes
        assert pres.coequalizer_verified

    def test_zero_complex(self):
        pres = canonical_presentation(Complex.zero())
        assert pres.lu.is_zero() and pres.lulu.is_zero()
        assert pres.coequalizer_verified

    def test_fork_on_random(self):
        rng = random.Random(13)
        for _ in range(10):
            a = rand_complex(rng)
            pres = canonical_presentation(a, probes=[("A", a)])
            assert pres.fork_commutes
            assert (pres.alpha @ pres.beta) == (pres.alpha @ pres.gamma)

    def test_coequalizer_on_small(self):
        rng = random.Random(14)
        for _ in range(3):
            a = rand_complex(rng, bricks=2)
            assert canonical_presentation(a).coequalizer_verified

    def test_factors_uniquely_detects_both_failures(self):
        zero_to_k0 = ChainMap(Complex.zero(), K0, 0, {})
        # id_Z kills 0 -> Z but does not factor through Z -> 0
        to_zero = ChainMap(K0, Complex.zero(), 0, {})
        assert not factors_uniquely(zero_to_k0, to_zero, K0)
        # through Z -> Z + Z a factorization exists but is not unique
        zz, injs, _ = direct_sum_complexes([K0, K0])
        assert not factors_uniquely(zero_to_k0, injs[0], K0)
        assert factors_uniquely(zero_to_k0, identity_map(K0), K0)

    def test_factors_uniquely_checks_every_killer(self):
        # Both maps Z + Z -> Z kill 0 -> Z + Z, and only one of them factors
        # through a projection: whichever killer comes first, each
        # projection has one that fails.
        zz, _, projs = direct_sum_complexes([K0, K0])
        zero_to_zz = ChainMap(Complex.zero(), zz, 0, {})
        for p in projs:
            assert not factors_uniquely(zero_to_zz, p, K0)
        assert factors_uniquely(zero_to_zz, identity_map(zz), K0)

    def test_counit_is_chain_map(self):
        rng = random.Random(15)
        a = rand_complex(rng)
        assert d_hom(lu_counit(a)).is_zero()


class TestDirectSum:
    def test_witness_shapes(self):
        total, injs, projs = direct_sum_complexes([K0, M2])
        assert total.rank(0) == 2 and total.rank(1) == 1
        assert compose(projs[0], injs[0]) == identity_map(K0)
        assert compose(projs[1], injs[1]) == identity_map(M2)
        assert compose(projs[1], injs[0]).is_zero()

    def test_sum_with_zero(self):
        total, _, _ = direct_sum_complexes([M2, Complex.zero()])
        assert total == M2


class TestSuspensionMap:
    def test_shifts_components(self):
        rng = random.Random(16)
        a, b = rand_complex(rng), rand_complex(rng)
        f = rand_chain_map(rng, a, b)
        sf = suspension_map(f, 1)
        assert isinstance(sf, ChainMap)
        for q in a.degrees():
            assert sf.comp(q + 1) == f.comp(q)
