import random

import pytest

from dgkernel.complexes import (
    Complex,
    compose,
    homology_H,
    identity_map,
    make_complex,
    suspension,
    unit_complex,
)
from dgkernel.rand import rand_chain_map, rand_complex, rand_double_complex, rand_proto
from dgkernel.totals import (
    DGHomElement,
    DoubleComplex,
    SupportExceedsWindow,
    TotSpace,
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
from dgkernel.zlinalg import IntMatrix, ShapeMismatch

K0 = unit_complex()


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
