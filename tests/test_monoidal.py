import random
from itertools import product as iter_product

import pytest

from conftest import protos
from dgkernel.complexes import (
    ChainMap,
    Complex,
    HomSpace,
    Proto,
    chain_map_basis,
    compose,
    d_hom,
    direct_sum,
    direct_sum_complexes,
    functor_L,
    functor_R,
    homology_H,
    identity_map,
    suspension,
    unit_complex,
)
from dgkernel.monoidal import (
    SearchFailed,
    TensorSpace,
    _search_iso,
    _triangle_left,
    _triangle_right,
    associator,
    decompose_LZ_tensor,
    left_unitor,
    right_unitor,
    sten_hom_isos,
    sten_iso,
    symmetry,
    tensor,
    tensor_proto,
    verify_duality_LR,
)
from dgkernel.rand import rand_chain_map, rand_complex, rand_proto
from dgkernel.zlinalg import IntMatrix, solve_matrix

K0 = unit_complex()
LZ = functor_L(K0)
RZ = functor_R(K0)
K1 = Complex.concentrated(1)


class TestTensor:
    def test_unit_law_ranks(self):
        rng = random.Random(0)
        for _ in range(10):
            a = rand_complex(rng)
            t = tensor(K0, a)
            assert t.ranks() == a.ranks()
            lu, lui = left_unitor(a)
            assert compose(lu, lui) == identity_map(a)
            assert compose(lui, lu) == identity_map(t)

    def test_LZ_squared_ranks(self):
        t = tensor(LZ, LZ)
        assert {n: t.rank(n) for n in t.degrees()} == {0: 1, -1: 2, -2: 1}

    def test_convolution_ranks_and_d_squared(self):
        # d^2 = 0 is enforced by the Complex constructor inside tensor()
        rng = random.Random(1)
        for _ in range(15):
            a, b = rand_complex(rng), rand_complex(rng)
            t = tensor(a, b)
            for n in t.degrees():
                assert t.rank(n) == sum(a.rank(p) * b.rank(n - p) for p in a.degrees())

    def test_distributes_over_direct_sum(self):
        from dgkernel.monoidal import distributivity_iso

        rng = random.Random(2)
        for _ in range(5):
            a, b, c = rand_complex(rng, bricks=2), rand_complex(rng, bricks=2), rand_complex(rng, bricks=2)
            ab, injs, _ = direct_sum_complexes([a, b])
            left = tensor(ab, c)
            right, _, _ = direct_sum_complexes([tensor(a, c), tensor(b, c)])
            assert left.ranks() == right.ranks()
            # the canonical reordering is a chain isomorphism
            fwd, bwd = distributivity_iso(a, b, c)
            assert compose(bwd, fwd) == identity_map(left)
            assert compose(fwd, bwd) == identity_map(right)
            # and inclusions tensor to chain maps
            mix = tensor_proto(injs[0], identity_map(c))
            assert d_hom(mix).is_zero()


class TestTensorProto:
    def test_identity_tensor_identity(self):
        rng = random.Random(3)
        a, b = rand_complex(rng), rand_complex(rng)
        assert tensor_proto(identity_map(a), identity_map(b)) == identity_map(tensor(a, b))

    def test_interchange_sign_on_degree_one(self):
        rng = random.Random(4)
        for _ in range(5):
            a, a2 = rand_complex(rng, bricks=2), rand_complex(rng, bricks=2)
            b, b2 = rand_complex(rng, bricks=2), rand_complex(rng, bricks=2)
            f = rand_proto(rng, a, a2, 1)
            g = rand_proto(rng, b, b2, 1)
            left = compose(tensor_proto(f, identity_map(b2)),
                           tensor_proto(identity_map(a), g))
            right = compose(tensor_proto(identity_map(a2), g),
                            tensor_proto(f, identity_map(b)))
            assert left == -1 * right

    def test_interchange_general_degrees(self):
        rng = random.Random(5)
        for _ in range(10):
            p, q = rng.randint(-1, 2), rng.randint(-1, 2)
            a, a2 = rand_complex(rng, bricks=2), rand_complex(rng, bricks=2)
            b, b2 = rand_complex(rng, bricks=2), rand_complex(rng, bricks=2)
            f = rand_proto(rng, a, a2, p)
            g = rand_proto(rng, b, b2, q)
            sign = -1 if (p * q) % 2 else 1
            left = compose(tensor_proto(f, identity_map(b2)),
                           tensor_proto(identity_map(a), g))
            right = compose(tensor_proto(identity_map(a2), g),
                            tensor_proto(f, identity_map(b)))
            assert left == sign * right

    def test_tensor_of_chain_maps_is_chain_map(self):
        rng = random.Random(6)
        for _ in range(10):
            a, a2 = rand_complex(rng), rand_complex(rng)
            b, b2 = rand_complex(rng), rand_complex(rng)
            f = rand_chain_map(rng, a, a2)
            g = rand_chain_map(rng, b, b2)
            assert d_hom(tensor_proto(f, g)).is_zero()

    def test_leibniz_for_tensor(self):
        rng = random.Random(7)
        for _ in range(10):
            a, a2 = rand_complex(rng, bricks=2), rand_complex(rng, bricks=2)
            b, b2 = rand_complex(rng, bricks=2), rand_complex(rng, bricks=2)
            f = rand_proto(rng, a, a2, rng.randint(-1, 2))
            g = rand_proto(rng, b, b2, rng.randint(-1, 2))
            sign = -1 if f.degree % 2 else 1
            assert d_hom(tensor_proto(f, g)) == (
                tensor_proto(d_hom(f), g) + sign * tensor_proto(f, d_hom(g))
            )


class TestSymmetry:
    def test_unit_case(self):
        s = symmetry(K0, K0)
        assert s.comp(0) == IntMatrix.from_rows([[1]])

    def test_odd_odd_sign(self):
        s = symmetry(K1, K1)
        assert s.comp(2) == IntMatrix.from_rows([[-1]])

    def test_involution(self):
        rng = random.Random(8)
        for _ in range(10):
            a, b = rand_complex(rng), rand_complex(rng)
            assert compose(symmetry(b, a), symmetry(a, b)) == identity_map(tensor(a, b))

    def test_naturality_with_koszul_sign(self):
        rng = random.Random(9)
        for _ in range(10):
            a, a2 = rand_complex(rng, bricks=2), rand_complex(rng, bricks=2)
            b, b2 = rand_complex(rng, bricks=2), rand_complex(rng, bricks=2)
            f = rand_proto(rng, a, a2, rng.randint(0, 2))
            g = rand_proto(rng, b, b2, rng.randint(0, 2))
            sign = -1 if (f.degree * g.degree) % 2 else 1
            lhs = compose(symmetry(a2, b2), tensor_proto(f, g))
            rhs = sign * compose(tensor_proto(g, f), symmetry(a, b))
            assert lhs == rhs


class TestAssociator:
    def test_mutually_inverse_chain_isos(self):
        rng = random.Random(10)
        for _ in range(8):
            a, b, c = (rand_complex(rng, bricks=2) for _ in range(3))
            fwd, bwd = associator(a, b, c)
            assert compose(bwd, fwd) == identity_map(fwd.source)
            assert compose(fwd, bwd) == identity_map(fwd.target)

    def test_rank_agreement(self):
        rng = random.Random(11)
        a, b, c = (rand_complex(rng) for _ in range(3))
        assert tensor(tensor(a, b), c).ranks() == tensor(a, tensor(b, c)).ranks()


class TestStenIsos:
    def test_tensor_version(self):
        rng = random.Random(12)
        for _ in range(10):
            a, b = rand_complex(rng), rand_complex(rng)
            f, g = sten_iso(a, b)
            assert compose(g, f) == identity_map(f.source)
            assert compose(f, g) == identity_map(f.target)

    def test_unit_reduction(self):
        # S B = S Z (x) B after the unit identification
        f, g = sten_iso(K0, M2())
        assert f.source == suspension(tensor(K0, M2()), 1)
        assert compose(g, f) == identity_map(f.source)

    def test_zero_right_factor(self):
        f, g = sten_iso(M2(), Complex.zero())
        assert f.source.is_zero() and f.target.is_zero()

    def test_hom_versions(self):
        rng = random.Random(13)
        for _ in range(10):
            b, c = rand_complex(rng, bricks=2), rand_complex(rng, bricks=2)
            isos = sten_hom_isos(b, c)
            for name, (f, g) in isos.items():
                assert compose(g, f) == identity_map(f.source), name
                assert compose(f, g) == identity_map(f.target), name


def M2():
    from dgkernel.complexes import make_complex

    return make_complex({1: 1, 0: 1}, {1: [[2]]})


class TestDecomposeLZ:
    def test_ranks_match(self):
        src = tensor(LZ, LZ)
        tgt, _, _ = direct_sum_complexes([LZ, suspension(LZ, -1)])
        assert src.ranks() == tgt.ranks()

    def test_solved_iso(self):
        iso, inv = decompose_LZ_tensor()
        assert compose(inv, iso) == identity_map(iso.source)
        assert compose(iso, inv) == identity_map(iso.target)

    def test_both_sides_acyclic(self):
        iso, _ = decompose_LZ_tensor()
        assert homology_H(iso.source).is_trivial()
        assert homology_H(iso.target).is_trivial()


class TestDualityLR:
    def test_triangles(self):
        eta, eps = verify_duality_LR()
        assert _triangle_left(LZ, RZ, eta, eps)
        assert _triangle_right(LZ, RZ, eta, eps)
        # and the checks can fail: a doubled unit doubles both composites
        assert not _triangle_left(LZ, RZ, 2 * eta, eps)
        assert not _triangle_right(LZ, RZ, 2 * eta, eps)

    def test_unit_is_cycle(self):
        eta, eps = verify_duality_LR()
        assert d_hom(eta).is_zero()
        assert d_hom(eps).is_zero()

    def test_solver_is_fast(self):
        import time

        t0 = time.time()
        verify_duality_LR()
        decompose_LZ_tensor()
        assert time.time() - t0 < 1.0


# -- solved-for witnesses from chain-map matrices ---------------------------
#
# The searches used to add up Protos of a chain-map basis one by one and
# compose each candidate with each backward basis element.  The reference_*
# functions are those searches, kept as oracles: the witnesses found must be
# the same.


def reference_combo(basis, coeffs):
    out = Proto.zero(basis[0].source, basis[0].target, basis[0].degree)
    for c, b in zip(coeffs, basis):
        if c:
            out = out + c * b
    return out


def chain_map_list(source, target):
    return protos(HomSpace(source, target), 0, chain_map_basis(source, target, 0))


def reference_search_iso(src, tgt, box=1):
    fwd_basis = chain_map_list(src, tgt)
    bwd_basis = chain_map_list(tgt, src)
    if not fwd_basis or not bwd_basis:
        if src.is_zero() and tgt.is_zero():
            return identity_map(src), identity_map(tgt)
        raise SearchFailed("no chain maps to search over")
    hs_src = HomSpace(src, src)
    hs_tgt = HomSpace(tgt, tgt)
    id_src = hs_src.to_vector(identity_map(src))
    id_tgt = hs_tgt.to_vector(identity_map(tgt))

    candidates = sorted(
        iter_product(range(-box, box + 1), repeat=len(fwd_basis)),
        key=lambda t: sum(abs(x) for x in t),
    )
    for coeffs in candidates:
        if not any(coeffs):
            continue
        f = reference_combo(fwd_basis, coeffs)
        cols = [hs_src.to_vector(compose(g, f)) for g in bwd_basis]
        m = IntMatrix.from_cols(cols, hs_src.dim(0))
        sol = solve_matrix(m, IntMatrix.column(id_src))
        if sol is None:
            continue
        g = reference_combo(bwd_basis, sol.col(0))
        if hs_tgt.to_vector(compose(f, g)) == id_tgt:
            return (ChainMap(src, tgt, 0, f.comps(), _trusted=True),
                    ChainMap(tgt, src, 0, g.comps(), _trusted=True))
    raise SearchFailed("exhausted the search box without finding an isomorphism")


def reference_duality_LR():
    one, rl, lr = K0, tensor(RZ, LZ), tensor(LZ, RZ)
    units = chain_map_list(one, rl)
    counits = chain_map_list(lr, one)
    for uc in iter_product(range(-1, 2), repeat=len(units)):
        if not any(uc):
            continue
        eta = reference_combo(units, uc)
        eta = ChainMap(one, rl, 0, eta.comps(), _trusted=True)
        for cc in iter_product(range(-1, 2), repeat=len(counits)):
            if not any(cc):
                continue
            eps = reference_combo(counits, cc)
            eps = ChainMap(lr, one, 0, eps.comps(), _trusted=True)
            if _triangle_left(LZ, RZ, eta, eps) and _triangle_right(LZ, RZ, eta, eps):
                return eta, eps
    raise SearchFailed("no (unit, counit) pair satisfies the triangle identities")


class TestWitnessesEqualTheReference:
    @pytest.mark.parametrize("src, tgt", [
        (tensor(LZ, LZ), direct_sum([LZ, suspension(LZ, -1)])),
        (direct_sum([K0, LZ]), direct_sum([LZ, K0])),
        (direct_sum([K0, K1]), direct_sum([K1, K0])),
        (LZ, LZ),
        (Complex.zero(), Complex.zero()),
    ])
    def test_isomorphisms(self, src, tgt):
        assert _search_iso(src, tgt) == reference_search_iso(src, tgt)

    @pytest.mark.parametrize("src, tgt", [(K0, LZ), (K0, K1), (K0, Complex.zero())])
    def test_no_isomorphism_on_both(self, src, tgt):
        for search in (_search_iso, reference_search_iso):
            with pytest.raises(SearchFailed):
                search(src, tgt)

    def test_duality(self):
        assert verify_duality_LR() == reference_duality_LR()

