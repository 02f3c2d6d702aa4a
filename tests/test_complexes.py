import ast
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import dgkernel.complexes as complexes
from dgkernel import cones
from conftest import protos, simplex_skeleton
from dgkernel.complexes import (
    AdjunctionWitness,
    ChainMap,
    Complex,
    GradedGroups,
    NotAChainMap,
    NotGraded,
    Proto,
    SquareZeroViolated,
    WitnessEquationsFail,
    adjunction_iso_LU,
    adjunction_iso_UR,
    canonical_presentation,
    chain_map_basis,
    compose,
    d_hom,
    direct_sum,
    direct_sum_complexes,
    factors_uniquely,
    failed_equations,
    forget_U,
    functor_L,
    functor_R,
    hom_complex,
    homology_H,
    identity_map,
    inverse_failures,
    lu_counit,
    make_complex,
    require,
    suspension,
    unit_complex,
    HomSpace,
)
from dgkernel.rand import rand_chain_map, rand_complex, rand_proto
from dgkernel.zlinalg import (FPAbGroup, IntMatrix, ShapeMismatch, block_diagonal, block_matrix,
                              kernel_basis, solve_matrix)

K0 = unit_complex()
M2 = make_complex({1: 1, 0: 1}, {1: [[2]]})


LZ = functor_L(K0)


def graded_complex(rng):
    """A random graded object: a complex with its differentials forgotten."""
    return forget_U(rand_complex(rng, bricks=1))


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

    def test_non_integral_differential_entry_raises(self):
        # d_1 = [[0.9]] used to be read as d_1 = 0
        with pytest.raises(TypeError):
            make_complex({1: 1, 0: 1}, {1: [[0.9]]})

    @pytest.mark.parametrize("degree, comps, message", [
        (0.5, {0: [[1]]}, "^degree 0.5 is not an integer$"),
        (True, {}, "^degree True is not an integer$"),
        (0, {0.0: [[1]]}, "^component degree 0.0 is not an integer$"),
        (0, {False: [[1]]}, "^component degree False is not an integer$"),
    ], ids=["float degree", "bool degree", "float component", "bool component"])
    def test_proto_rejects_non_integer_degrees(self, degree, comps, message):
        # Proto(Z, Z, 0.5, {0.0: I}) used to be the degree-0 identity
        comps = {q: IntMatrix.from_rows(m) for q, m in comps.items()}
        with pytest.raises(ValueError, match=message):
            Proto(K0, K0, degree, comps)
        assert Proto(K0, K0, 0, {0: IntMatrix.identity(1)}) == identity_map(K0)

    def test_zero_complex(self):
        z = Complex.zero()
        assert z.is_zero()
        assert z.hi == z.lo - 1


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
        assert u.ranks() == M2.ranks()

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
            x = graded_complex(rng)
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

    def test_boundaries_outside_the_cycles_raise_square_zero(self):
        # d_1 d_2 = 1: the boundary e_1 of d_2 is not in ker d_1 = <e_2>
        ranks = {2: 1, 1: 2, 0: 1}
        diffs = {2: IntMatrix.from_rows([[1], [0]]), 1: IntMatrix.from_rows([[1, 0]])}
        with pytest.raises(SquareZeroViolated) as raised:
            homology_H(Complex(ranks, diffs, _trusted=True))
        assert raised.value.degree == 2
        with pytest.raises(SquareZeroViolated) as checked:
            Complex(ranks, diffs)
        assert checked.value.degree == raised.value.degree

    def test_an_injective_differential_does_not_hide_a_square_zero_violation(self):
        # ker d_1 = 0, so degree 1 has no cycles, yet d_1 d_2 = 1
        ranks = {2: 1, 1: 1, 0: 1}
        diffs = {2: IntMatrix.from_rows([[1]]), 1: IntMatrix.from_rows([[1]])}
        with pytest.raises(SquareZeroViolated) as raised:
            homology_H(Complex(ranks, diffs, _trusted=True))
        assert raised.value.degree == 2
        with pytest.raises(SquareZeroViolated) as checked:
            Complex(ranks, diffs)
        assert checked.value.degree == 2

    def test_a_complex_checked_by_its_constructor_is_not_multiplied_again(self, monkeypatch):
        checked = rand_complex(random.Random(13))
        assert sorted(checked.diffs()) == [0, 1]   # one stored pair, multiplied once
        trusted = Complex(checked.ranks(), checked.diffs(), _trusted=True)
        products = []
        real = IntMatrix.__matmul__

        def counted(a, b):
            products.append((a, b))
            return real(a, b)

        monkeypatch.setattr(IntMatrix, "__matmul__", counted)
        h = homology_H(checked)
        assert products == []
        # a _trusted complex is still checked, one product per nonzero degree
        assert homology_H(trusted) == h
        assert len(products) == sum(1 for n in trusted.degrees() if trusted.rank(n))

    def test_graded_groups_reject_a_non_integer_degree(self):
        # int(2.5) used to file the group at degree 2
        with pytest.raises(ValueError, match=r"^degree 2\.5 is not an integer$"):
            GradedGroups({2.5: FPAbGroup.free(1)})
        with pytest.raises(ValueError, match="^degree True is not an integer$"):
            GradedGroups({True: FPAbGroup.free(1)})
        assert GradedGroups({2: FPAbGroup.free(1)}).support() == [2]


def reference_homology(a):
    """ker d_n / im d_{n+1} the long way: a kernel basis k of d_n, the
    boundaries solved in its coordinates, and the group that solution
    presents.  The groups are those of homology_H, not the presentations:
    here generator_count is dim Z_n, while homology_H presents each group
    canonically, with free rank + number of torsion factors generators."""
    out = {}
    for n in a.degrees():
        k = kernel_basis(a.diff(n))
        if k.cols:
            out[n] = FPAbGroup(solve_matrix(k, a.diff(n + 1)))
    return GradedGroups(out)


def torsion_bricks(bricks):
    """The direct sum of Z --k--> Z placed with its target in degree n,
    for each (n, k)."""
    return direct_sum([make_complex({n + 1: 1, n: 1}, {n + 1: [[k]]}) for n, k in bricks])


class TestHomologyAgainstReference:
    def assert_matches_reference(self, a):
        h, want = homology_H(a), reference_homology(a)
        assert h == want and h.describe() == want.describe()
        for n in h.support():
            g = h.at(n)
            assert g.generator_count == g.free_rank + len(g.torsion)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_random_complexes(self, seed, bricks):
        self.assert_matches_reference(rand_complex(random.Random(seed), bricks=bricks))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-6, 6)), min_size=1, max_size=4))
    def test_two_term_torsion_bricks(self, bricks):
        self.assert_matches_reference(torsion_bricks(bricks))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_simplex_skeletons(self, vertices, k, seed):
        a = simplex_skeleton(random.Random(seed), vertices, min(k, vertices - 1))
        self.assert_matches_reference(a)


class TestHomComplex:
    def test_unit_hom(self):
        h = hom_complex(K0, K0)
        assert h.rank(0) == 1 and sum(h.ranks().values()) == 1

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


def reference_d_hom(f):
    """The dense hom differential: every degree of the source, with the zero
    blocks Proto.comp and Complex.diff build for missing components."""
    a, b, n = f.source, f.target, f.degree
    sign = -1 if n % 2 else 1
    comps = {}
    for q in range(a.lo, a.hi + 1):
        if a.rank(q) == 0 or b.rank(q + n - 1) == 0:
            continue
        comps[q] = b.diff(q + n) @ f.comp(q) - sign * (f.comp(q - 1) @ a.diff(q))
    return Proto(a, b, n - 1, comps)


def reference_compose(g, f):
    """The dense composite: g_{q+|f|} f_q over the whole support of f."""
    comps = {}
    for q in f.support():
        if f.source.rank(q):
            comps[q] = g.comp(q + f.degree) @ f.comp(q)
    return Proto(f.source, g.target, f.degree + g.degree, comps)


class TestStoredComponents:
    """compose, d_hom, + and - touch stored components only; the results
    equal the dense definitions, zero blocks included."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(-2, 3), st.integers(-2, 3),
           st.sampled_from([(-2, 2), (0, 1), (0, 0)]))
    def test_compose_and_d_hom_equal_the_dense_definitions(self, seed, p, q, span):
        rng = random.Random(seed)
        a, b, c = rand_complex(rng), rand_complex(rng), rand_complex(rng)
        f = rand_proto(rng, a, b, p, *span)
        g = rand_proto(rng, b, c, q, *span)
        for h in (f, g, rand_chain_map(rng, a, b), identity_map(a), Proto.zero(a, b, p)):
            dh = d_hom(h)
            assert dh == reference_d_hom(h)
            assert dh.degree == h.degree - 1
        f2 = rand_proto(rng, a, b, p, *span)
        for x, y in ((f, f2), (f, Proto.zero(a, b, p)), (Proto.zero(a, b, p), f)):
            qs = set(x.support())
            assert x + y == Proto(a, b, p, {s: x.comp(s) + y.comp(s) for s in qs})
            assert x - y == Proto(a, b, p, {s: x.comp(s) - y.comp(s) for s in qs})
        gf = compose(g, f)
        assert gf == reference_compose(g, f)
        assert gf.degree == p + q
        assert compose(identity_map(b), f) == reference_compose(identity_map(b), f) == f

    def test_zero_complexes_and_empty_protos(self):
        z = Complex.zero()
        f = Proto.zero(z, M2, 1)
        assert d_hom(f) == reference_d_hom(f) and d_hom(f).is_zero()
        g = Proto.zero(M2, z, -1)
        assert compose(g, identity_map(M2)) == reference_compose(g, identity_map(M2))


class TestAdjunctions:
    def test_LZ_represents_degree_zero(self):
        # chain maps LZ -> A correspond to elements of A_0
        rng = random.Random(11)
        for _ in range(10):
            a = rand_complex(rng)
            assert chain_map_basis(LZ, a, 0).cols == a.rank(0)

    def test_zero_graded_object(self):
        assert adjunction_iso_LU(Complex.zero(), M2).detail == ""

    def test_round_trips_random(self):
        rng = random.Random(12)
        for _ in range(50):
            x = graded_complex(rng)
            a = rand_complex(rng)
            assert adjunction_iso_LU(x, a).detail == ""
            assert adjunction_iso_UR(a, x).detail == ""


def reference_fork(a):
    """beta = [[0,1,1,0],[0,0,0,1]] and gamma = [[d,1,0,0],[0,0,d,1]]:
    LULU A -> LU A, block by block."""
    lu = functor_L(forget_U(a))
    lulu = functor_L(forget_U(lu))
    beta_comps, gamma_comps = {}, {}
    for n in lu.degrees():
        if lu.rank(n) == 0 or lulu.rank(n) == 0:
            continue
        r2, r1, r0 = a.rank(n + 2), a.rank(n + 1), a.rank(n)
        beta_comps[n] = block_matrix([
            [IntMatrix.zeros(r1, r2), IntMatrix.identity(r1), IntMatrix.identity(r1), IntMatrix.zeros(r1, r0)],
            [IntMatrix.zeros(r0, r2), IntMatrix.zeros(r0, r1), IntMatrix.zeros(r0, r1), IntMatrix.identity(r0)],
        ])
        gamma_comps[n] = block_matrix([
            [a.diff(n + 2), IntMatrix.identity(r1), IntMatrix.zeros(r1, r1), IntMatrix.zeros(r1, r0)],
            [IntMatrix.zeros(r0, r2), IntMatrix.zeros(r0, r1), a.diff(n + 1), IntMatrix.identity(r0)],
        ])
    return ChainMap(lulu, lu, 0, beta_comps), ChainMap(lulu, lu, 0, gamma_comps)


class TestCanonicalPresentation:
    def test_unit_complex(self):
        pres = canonical_presentation(K0)
        assert pres.alpha.source == LZ
        # the A_1 block is rank 0, so [d 1] collapses to the projection [1]
        assert pres.alpha.comp(0) == IntMatrix.from_rows([[1]])
        assert pres.alpha.comp(-1).shape == (0, 1)
        assert pres.fork_commutes
        assert pres.coequalizer_verified

    def test_zero_complex(self):
        pres = canonical_presentation(Complex.zero())
        assert pres.alpha.source.is_zero() and pres.beta.source.is_zero()
        assert pres.coequalizer_verified

    def test_fork_on_random(self):
        rng = random.Random(13)
        for _ in range(10):
            a = rand_complex(rng)
            pres = canonical_presentation(a)
            assert pres.fork_commutes
            assert (pres.alpha @ pres.beta) == (pres.alpha @ pres.gamma)

    def test_coequalizer_on_small(self):
        rng = random.Random(14)
        for _ in range(3):
            a = rand_complex(rng, bricks=2)
            assert canonical_presentation(a).coequalizer_verified

    @pytest.mark.parametrize("call, named", [(0, "alpha s != 1"), (1, "beta t != 1")],
                             ids=["s", "t"])
    def test_one_wrong_entry_in_a_unit_is_caught(self, monkeypatch, call, named):
        # s = lu_unit(A) is built first, t = lu_unit(LU A) second; every
        # entry of each is changed in turn
        real = complexes.lu_unit
        unit = real((M2, functor_L(forget_U(M2)))[call])
        entries = [(n, i, j) for n in unit.source.degrees()
                   for i in range(unit.comp(n).rows) for j in range(unit.comp(n).cols)]
        seen = set()
        for n, i, j in entries:
            made = []

            def wrong(a, n=n, i=i, j=j):
                u = real(a)
                made.append(u)
                if len(made) - 1 != call:
                    return u
                rows = u.comp(n).to_lists()
                rows[i][j] += 1
                return Proto(u.source, u.target, 0,
                             {**u.comps(), n: IntMatrix.from_rows(rows, u.comp(n).cols)})

            monkeypatch.setattr(complexes, "lu_unit", wrong)
            cp = canonical_presentation(M2)
            assert cp.fork_commutes and not cp.coequalizer_verified, (n, i, j)
            assert cp.failures and set(cp.failures) <= {named, "gamma t != s alpha"}
            seen.update(cp.failures)
        assert len(entries) >= 3 and named in seen

    @pytest.mark.parametrize("a", [M2, rand_complex(random.Random(17))], ids=["M2", "random"])
    def test_gamma_without_the_LU_placement_is_caught(self, monkeypatch, a):
        def unplaced(h):
            # the blocks of LU(h) in U's order: h_n above h_{n+1}
            src, tgt = functor_L(forget_U(h.source)), functor_L(forget_U(h.target))
            return Proto(src, tgt, 0, {n: block_diagonal([h.comp(n), h.comp(n + 1)])
                                       for n in src.degrees()})

        monkeypatch.setattr(complexes, "lu_functor_map", unplaced)
        cp = canonical_presentation(a)
        assert not cp.coequalizer_verified
        assert "gamma t != s alpha" in cp.failures

    def test_factors_uniquely_detects_both_failures(self):
        zero_to_k0 = ChainMap(Complex.zero(), K0, 0, {})
        # id_Z kills 0 -> Z but does not factor through Z -> 0
        to_zero = ChainMap(K0, Complex.zero(), 0, {})
        assert not factors_uniquely(zero_to_k0, to_zero, K0)
        # through Z -> Z + Z a factorization exists but is not unique
        zz, injs, _ = direct_sum_complexes([K0, K0])
        assert not factors_uniquely(zero_to_k0, injs[0], K0)
        assert factors_uniquely(zero_to_k0, identity_map(K0), K0)

    def test_factors_uniquely_builds_each_hom_space_once(self, monkeypatch):
        built = []
        init = HomSpace.__init__

        def recording(self, source, target):
            built.append((source, target))
            init(self, source, target)

        a = make_complex({1: 1, 0: 1}, {1: [[2]]})
        cp = canonical_presentation(a)
        monkeypatch.setattr(HomSpace, "__init__", recording)
        # the triples (k, w, T) of the presentation sampled on A and L Z
        assert all(factors_uniquely(cp.beta - cp.gamma, cp.alpha, t) for t in (a, LZ))
        assert built and len(built) == len(set(built))

    def test_factors_uniquely_checks_every_killer(self):
        # Both maps Z + Z -> Z kill 0 -> Z + Z, and only one of them factors
        # through a projection: whichever killer comes first, each
        # projection has one that fails.
        zz, _, projs = direct_sum_complexes([K0, K0])
        zero_to_zz = ChainMap(Complex.zero(), zz, 0, {})
        for p in projs:
            assert not factors_uniquely(zero_to_zz, p, K0)
        assert factors_uniquely(zero_to_zz, identity_map(zz), K0)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "known gap: factors_uniquely returns True before its uniqueness test "
        "when [B, T] has no degree-0 cycles; mending it adds SNF calls to the "
        "suite, which moves the pinned call count, so the change that mends "
        "it updates that pin and removes this marker"))
    def test_factors_uniquely_checks_uniqueness_without_killers(self):
        # [S^5 Z, Z] has no degree-0 cycles, yet the projection onto Z is a
        # nonzero chain map that composes with inj: S^5 Z -> S^5 Z + Z to zero
        s5 = suspension(K0, 5)
        _, injs, _ = direct_sum_complexes([s5, K0])
        assert not factors_uniquely(ChainMap(Complex.zero(), s5, 0, {}), injs[0], K0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_fork_is_the_counit_and_LU_of_the_counit(self, seed, zero):
        a = Complex.zero() if zero else rand_complex(random.Random(seed))
        cp = canonical_presentation(a)
        assert (cp.beta, cp.gamma) == reference_fork(a)
        lu = functor_L(forget_U(a))
        assert cp.alpha.target == a
        assert cp.alpha.source == lu and cp.beta.source == functor_L(forget_U(lu))

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
        assert direct_sum([M2, Complex.zero()]) == M2
        assert direct_sum([]) == Complex.zero()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 4))
    def test_direct_sum_is_the_total_of_direct_sum_complexes(self, seed, k):
        rng = random.Random(seed)
        parts = [rand_complex(rng, bricks=2) for _ in range(k)]
        total, injs, projs = direct_sum_complexes(parts)
        assert direct_sum(parts) == total
        assert len(injs) == len(projs) == k


# -- chain maps in coordinates ----------------------------------------------
#
# Chain-map bases are kernel matrices, a random chain map is one K c, and
# the adjunction transposes are matrices.  The reference_* functions are the
# per-basis builders they replaced, kept as oracles.


def reference_chain_map_basis(source, target, degree=0):
    hs = HomSpace(source, target)
    k = kernel_basis(hs.complex.diff(degree))
    return [hs.from_vector(degree, k.col(j)) for j in range(k.cols)]


def reference_rand_chain_map(rng, source, target, degree=0, span=2):
    basis = reference_chain_map_basis(source, target, degree)
    out = Proto.zero(source, target, degree)
    for b in basis:
        c = rng.randint(-span, span)
        if c:
            out = out + c * b
    return ChainMap(out.source, out.target, out.degree, out.comps(), _trusted=True)


def reference_round_trips(to_chain, to_graded, graded, chain_source, chain_target):
    detail = []
    if any(to_graded(to_chain(g)) != g for g in protos(graded, 0)):
        detail.append("graded round trip failed")
    if any(to_chain(to_graded(f)) != f
           for f in reference_chain_map_basis(chain_source, chain_target, 0)):
        detail.append("chain round trip failed")
    return SimpleNamespace(to_chain=to_chain, to_graded=to_graded, detail="; ".join(detail))


def reference_adjunction_iso_LU(x, a):
    lx = functor_L(x)
    ua = forget_U(a)

    def to_chain(g):
        # f_n = [d o g_{n+1}, g_n] on (LX)_n = X_{n+1} + X_n
        comps = {}
        for n in lx.degrees():
            if lx.rank(n) == 0 or a.rank(n) == 0:
                continue
            comps[n] = (a.diff(n + 1) @ g.comp(n + 1)).hstack(g.comp(n))
        return ChainMap(lx, a, 0, comps)

    def to_graded(f):
        comps = {}
        for n in x.degrees():
            if x.rank(n) == 0 or a.rank(n) == 0:
                continue
            left = x.rank(n + 1)
            comps[n] = f.comp(n).select_cols(range(left, left + x.rank(n)))
        return Proto(x, ua, 0, comps)

    return reference_round_trips(to_chain, to_graded, HomSpace(x, ua), lx, a)


def reference_adjunction_iso_UR(a, x):
    rx = functor_R(x)
    ua = forget_U(a)

    def to_chain(g):
        # f_n = [g_n; g_{n-1} o d] into (RX)_n = X_n + X_{n-1}
        comps = {}
        for n in a.degrees():
            if a.rank(n) == 0 or rx.rank(n) == 0:
                continue
            comps[n] = g.comp(n).vstack(g.comp(n - 1) @ a.diff(n))
        return ChainMap(a, rx, 0, comps)

    def to_graded(f):
        comps = {}
        for n in a.degrees():
            if a.rank(n) == 0 or x.rank(n) == 0:
                continue
            comps[n] = f.comp(n).select_rows(range(x.rank(n)))
        return Proto(ua, x, 0, comps)

    return reference_round_trips(to_chain, to_graded, HomSpace(ua, x), a, rx)


SEEDS = st.integers(0, 2**32 - 1)


def maybe_zero(rng, make):
    return make(rng) if rng.random() < 0.85 else Complex.zero()


def small(rng):
    return rand_complex(rng, bricks=2)


class TestChainMapsInCoordinates:
    @settings(max_examples=150, deadline=None)
    @given(SEEDS, st.integers(-2, 2))
    def test_bases_equal_the_reference(self, seed, degree):
        rng = random.Random(seed)
        a, b = maybe_zero(rng, small), maybe_zero(rng, small)
        hs = HomSpace(a, b)
        k = chain_map_basis(a, b, degree)
        assert k.rows == hs.dim(degree) and k == hs.cycle_basis(degree)
        assert protos(hs, degree, k) == reference_chain_map_basis(a, b, degree)

    @settings(max_examples=150, deadline=None)
    @given(SEEDS, st.integers(-2, 2), st.integers(0, 3))
    def test_random_chain_maps_equal_the_reference(self, seed, degree, span):
        rng = random.Random(seed)
        a, b = maybe_zero(rng, small), maybe_zero(rng, small)
        draws, reference_draws = random.Random(seed), random.Random(seed)
        f = rand_chain_map(draws, a, b, degree, span)
        assert isinstance(f, ChainMap)
        assert f == reference_rand_chain_map(reference_draws, a, b, degree, span)
        assert draws.getstate() == reference_draws.getstate()

    @settings(max_examples=100, deadline=None)
    @given(SEEDS)
    def test_adjunction_transposes_equal_the_reference(self, seed):
        rng = random.Random(seed)
        x, a = maybe_zero(rng, graded_complex), maybe_zero(rng, rand_complex)
        for got, want in ((adjunction_iso_LU(x, a), reference_adjunction_iso_LU(x, a)),
                          (adjunction_iso_UR(a, x), reference_adjunction_iso_UR(a, x))):
            assert got.detail == want.detail == ""
            for j, g in enumerate(protos(got.graded, 0)):
                assert got.to_chain.col(j) == got.chain.to_vector(want.to_chain(g))
            for j, f in enumerate(protos(got.chain, 0)):
                assert got.to_graded.col(j) == got.graded.to_vector(want.to_graded(f))

    @pytest.mark.parametrize("adjunction, to_chain, to_graded", [
        # X = Z in degree 1: g_1 goes to (f_0, f_1) = (2 g_1, g_1)
        (lambda: adjunction_iso_LU(Complex.concentrated(1), M2), [[2], [1]], [[0, 1]]),
        # X = Z in degree 0: g_0 goes to (f_0, f_1) = (g_0, 2 g_0)
        (lambda: adjunction_iso_UR(M2, Complex.concentrated(0)), [[1], [2]], [[1, 0]]),
    ])
    def test_broken_transposes_are_not_verified(self, adjunction, to_chain, to_graded):
        w = adjunction()
        assert w.detail == ""
        assert w.to_chain.to_lists() == to_chain and w.to_graded.to_lists() == to_graded
        d_part = [[0] if x == [2] else x for x in to_chain]   # d g dropped
        doubled = [[2 * x for x in row] for row in to_chain]
        for bad, detail in ((d_part, "transpose is not a chain map; chain round trip failed"),
                            (doubled, "graded round trip failed; chain round trip failed")):
            assert AdjunctionWitness(w.graded, w.chain, bad, to_graded).detail == detail


def per_basis_builds(source: str):
    """Lines of the loops and comprehensions that iterate a call of an
    attribute named basis or cycle_basis, and of the comprehensions that
    call from_vector."""
    def calls(node, names):
        return any(isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
                   and c.func.attr in names for c in ast.walk(node))

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.For, ast.comprehension)) \
                and calls(node.iter, {"basis", "cycle_basis"}):
            lines.append(node.iter.lineno)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)) \
                and calls(node, {"from_vector"}):
            lines.append(node.lineno)
    return lines


class TestNoPerBasisBuilds:
    def test_the_package_builds_no_proto_per_basis_element(self):
        package = Path(complexes.__file__).parent
        assert [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
                for line in per_basis_builds(path.read_text())] == []

    @pytest.mark.parametrize("source", [
        "for f in hs.basis(n):\n    pass\n",
        "xs = [t for k, t in enumerate(ts.basis(n))]\n",
        "ok = any(f == g for f in hs.cycle_basis(0))\n",
        "fs = {j: hs.from_vector(0, k.col(j)) for j in range(k.cols)}\n",
    ])
    def test_the_check_finds_per_basis_builds(self, source):
        assert per_basis_builds(source) == [1]

    def test_the_check_passes_matrix_code(self):
        source = ("k = hs.cycle_basis(0)\nf = hs.from_vector(0, k.apply(c))\n"
                  "for q, rows, cols, off in hs.layout.blocks(n):\n    pass\n")
        assert per_basis_builds(source) == []


class TestNamedEquations:
    def test_names_each_failing_equation_in_order(self):
        one, two = identity_map(M2), 2 * identity_map(M2)
        assert failed_equations(("a", one, two), ("b", one, one), ("c", two, one)) == ["a", "c"]
        assert failed_equations() == []

    def test_matrices_and_sides_that_are_not_parallel(self):
        i2 = IntMatrix.identity(2)
        shapes = IntMatrix.zeros(2, 1), IntMatrix.zeros(1, 2)
        assert failed_equations(("square", i2 @ i2, i2), ("shape", *shapes)) == ["shape"]
        zero = Proto.zero(M2, M2)
        assert failed_equations(("ends", zero, Proto.zero(K0, K0)),
                                ("degree", zero, Proto.zero(M2, M2, 1))) == ["ends", "degree"]

    def test_require_raises_only_on_failures(self):
        require([])
        with pytest.raises(WitnessEquationsFail, match="witness equations failed: a, b") as exc:
            require(["a", "b"])
        assert exc.value.failures == ["a", "b"]

    def test_one_failure_type(self):
        assert cones.WitnessEquationsFail is WitnessEquationsFail
        assert issubclass(WitnessEquationsFail, ValueError)

    def test_inverse_failures_checks_both_sides(self):
        # iso: Z^2 -> Z, inverse: Z -> Z^2 with iso o inverse = 1 only
        big, small = Complex.concentrated(0, 2), Complex.concentrated(0, 1)
        iso = ChainMap(big, small, 0, {0: IntMatrix.from_rows([[1, 0]])})
        inverse = ChainMap(small, big, 0, {0: IntMatrix.from_rows([[1], [0]])})
        assert inverse_failures(iso, inverse) == ["inverse o iso != 1"]
        assert inverse_failures(inverse, iso) == ["iso o inverse != 1"]
        assert inverse_failures(identity_map(M2), identity_map(M2)) == []
        assert inverse_failures(2 * identity_map(M2), identity_map(M2)) == [
            "inverse o iso != 1", "iso o inverse != 1"]

    def test_canonical_presentation_reports_a_broken_fork(self, monkeypatch):
        real = complexes.lu_counit
        made = []

        def doubled_second(a):
            made.append(real(a))
            return 2 * made[-1] if len(made) == 2 else made[-1]

        monkeypatch.setattr(complexes, "lu_counit", doubled_second)
        cp = canonical_presentation(M2)
        assert cp.fork_commutes is False and cp.coequalizer_verified is False
        assert cp.failures == ["alpha beta != alpha gamma", "beta t != 1"]
