import random

import pytest

from dgkernel.complexes import (
    chain_map_basis,
    functor_L,
    make_complex,
    suspension,
    unit_complex,
)
from dgkernel.ell import (
    EllHom,
    EllModule,
    EllModuleMap,
    NotComposable,
    decode,
    decode_map,
    ell_compose,
    ell_generator,
    ell_hom_rank,
    ell_identity,
    encode,
    encode_map,
    yoneda_rank_check,
)
from dgkernel.rand import rand_chain_map, rand_complex
from dgkernel.zlinalg import IntMatrix

K0 = unit_complex()
LZ = functor_L(K0)
M2 = make_complex({1: 1, 0: 1}, {1: [[2]]})


class TestHomTable:
    def test_table_values(self):
        assert ell_hom_rank(0, 0) == 1
        assert ell_hom_rank(0, 1) == 1
        assert ell_hom_rank(0, 2) == 0
        assert ell_hom_rank(0, -1) == 0

    def test_identity_composition(self):
        f = ell_generator(0)
        assert ell_compose(ell_identity(1), f) == f
        assert ell_compose(f, ell_identity(0)) == f

    def test_two_steps_vanish(self):
        comp = ell_compose(ell_generator(1), ell_generator(0))
        assert comp.coefficient == 0
        assert comp.source == 0 and comp.target == 2

    def test_endo_scaling(self):
        assert ell_compose(EllHom(1, 1, 3), EllHom(0, 1, 2)).coefficient == 6

    def test_composability_checked(self):
        with pytest.raises(NotComposable):
            ell_compose(ell_generator(5), ell_generator(0))

    def test_zero_hom_coefficient_collapses(self):
        assert EllHom(0, 3, 7).coefficient == 0


class TestEncodeDecode:
    def test_unit_concentrated_at_zero(self):
        f = encode(K0)
        assert f.values == {0: 1}
        assert f.action == {}

    def test_m2_generator_action(self):
        f = encode(M2)
        assert f.act(0) == IntMatrix.from_rows([[2]])

    def test_round_trips_bit_exact(self):
        rng = random.Random(0)
        for _ in range(100):
            a = rand_complex(rng)
            assert decode(encode(a)) == a
            f = encode(a)
            assert encode(decode(f)) == f

    def test_non_integer_values_rejected(self):
        # int() used to read {0.7: 2.9, 1: True} as {0: 2, 1: 1}
        with pytest.raises(ValueError, match=r"^index 0\.7 is not an integer$"):
            EllModule({0.7: 2.9, 1: True}, {})
        with pytest.raises(ValueError, match=r"^rank 2\.9 at 0 is not an integer$"):
            EllModule({0: 2.9}, {})
        with pytest.raises(ValueError, match="^rank True at 1 is not an integer$"):
            EllModule({1: True}, {})
        with pytest.raises(ValueError, match=r"^action index 0\.5 is not an integer$"):
            EllModule({0: 1}, {0.5: IntMatrix.zeros(1, 0)})

    def test_negative_value_rejected(self):
        # accepted before, to fail only later in decode
        with pytest.raises(ValueError, match="^negative rank -1 at 0$"):
            EllModule({0: -1}, {})

    def test_two_step_action_rejected(self):
        with pytest.raises(ValueError):
            EllModule({0: 1, 1: 1, 2: 1},
                      {0: IntMatrix.from_rows([[1]]), 1: IntMatrix.from_rows([[1]])})


class TestMapCorrespondence:
    def test_chain_maps_are_module_maps(self):
        rng = random.Random(1)
        for _ in range(20):
            a, b = rand_complex(rng), rand_complex(rng)
            f = rand_chain_map(rng, a, b)
            phi = encode_map(f)
            assert decode_map(phi) == f

    def test_functoriality(self):
        rng = random.Random(2)
        for _ in range(10):
            a, b, c = rand_complex(rng), rand_complex(rng), rand_complex(rng)
            f = rand_chain_map(rng, a, b)
            g = rand_chain_map(rng, b, c)
            lhs = encode_map((g @ f))
            rhs_comps = {
                n: encode_map(g).component(n) @ encode_map(f).component(n)
                for n in a.degrees()
            }
            assert all(lhs.component(n) == rhs_comps[n] for n in a.degrees())

    def test_hom_group_ranks_agree(self):
        for a, b in [(LZ, M2), (M2, LZ), (LZ, LZ), (M2, M2)]:
            # module maps encode(a) -> encode(b) are the chain maps between the decodings
            src, tgt = decode(encode(a)), decode(encode(b))
            assert chain_map_basis(src, tgt, 0).cols == chain_map_basis(a, b, 0).cols

    def test_naturality_enforced(self):
        f = encode(M2)
        with pytest.raises(ValueError):
            EllModuleMap(f, encode(suspension(M2, 0)),
                         {1: IntMatrix.from_rows([[1]]), 0: IntMatrix.from_rows([[2]])})


class TestYonedaTable:
    def test_all_pairs_up_to_six(self):
        for m in range(-6, 7):
            for n in range(-6, 7):
                assert yoneda_rank_check(m, n), (m, n)

    def test_specific_entries(self):
        assert yoneda_rank_check(0, 0)
        assert yoneda_rank_check(0, 1)
        assert yoneda_rank_check(0, 5)
