import random

import pytest
from hypothesis import given, settings, strategies as st

from dgkernel.zlinalg import (
    CokernelData,
    FPAbGroup,
    IntMatrix,
    ShapeMismatch,
    block_diagonal,
    block_matrix,
    cokernel,
    determinant,
    inverse_unimodular,
    kernel_basis,
    rank,
    smith_normal_form,
    solve,
    solve_left,
    solve_matrix,
)


def rand_matrix(rng, rows, cols, lo=-5, hi=5):
    return IntMatrix(rows, cols, (rng.randint(lo, hi) for _ in range(rows * cols)))


def assert_snf_contract(m):
    s = smith_normal_form(m)
    assert s.U @ m @ s.V == s.D
    assert determinant(s.U) in (1, -1)
    assert determinant(s.V) in (1, -1)
    d = s.diagonal
    for i in range(len(d)):
        assert d[i] >= 0
        # off-diagonal must vanish
    for i in range(s.D.rows):
        for j in range(s.D.cols):
            if i != j:
                assert s.D[i, j] == 0
    nonzero = [x for x in d if x]
    assert list(d[: len(nonzero)]) == nonzero, "zeros must come last"
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return s


class TestIntMatrix:
    def test_empty_shapes_behave_as_zero_maps(self):
        z = IntMatrix.zeros(0, 3)
        w = IntMatrix.zeros(3, 0)
        assert (z @ w).shape == (0, 0)
        assert (w @ z).shape == (3, 3)
        assert (w @ z).is_zero()
        assert z.apply((1, 2, 3)) == ()

    def test_entry_count_validated(self):
        with pytest.raises(ShapeMismatch):
            IntMatrix(2, 2, (1, 2, 3))

    def test_product_and_transpose(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert a @ b == IntMatrix.from_rows([[2, 1], [4, 3]])
        assert a.transpose() == IntMatrix.from_rows([[1, 3], [2, 4]])
        assert 2 * a == a + a

    def test_block_assembly(self):
        a = IntMatrix.from_rows([[1]])
        b = IntMatrix.from_rows([[2, 3]])
        c = IntMatrix.from_rows([[4], [5]])
        d = IntMatrix.from_rows([[6, 7], [8, 9]])
        m = block_matrix([[a, b], [c, d]])
        assert m == IntMatrix.from_rows([[1, 2, 3], [4, 6, 7], [5, 8, 9]])
        assert block_diagonal([a, d]) == IntMatrix.from_rows(
            [[1, 0, 0], [0, 6, 7], [0, 8, 9]]
        )

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda r: st.lists(
        st.tuples(*[st.integers(-9, 9)] * r), max_size=4).map(lambda cols: (r, cols))))
    def test_from_cols_places_each_column(self, shape):
        rows, cols = shape
        m = IntMatrix.from_cols(cols, rows)
        assert m.shape == (rows, len(cols))
        for j, c in enumerate(cols):
            assert m.col(j) == c

    def test_from_cols_rejects_ragged_columns(self):
        with pytest.raises(ShapeMismatch):
            IntMatrix.from_cols([(1, 2), (3,)], 2)

    def test_determinant(self):
        assert determinant(IntMatrix.identity(4)) == 1
        assert determinant(IntMatrix.from_rows([[2, 1], [1, 1]])) == 1
        assert determinant(IntMatrix.from_rows([[2, 4], [1, 2]])) == 0
        assert determinant(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1


class TestSmithNormalForm:
    def test_one_by_one_already_diagonal(self):
        s = smith_normal_form(IntMatrix.from_rows([[6]]))
        assert s.D == IntMatrix.from_rows([[6]])
        assert s.U == IntMatrix.identity(1)
        assert s.V == IntMatrix.identity(1)

    def test_diag_2_3_gives_1_6(self):
        # Hand row/column reduction: gcd(2,3)=1 splits off, then lcm 6.
        s = assert_snf_contract(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert s.diagonal == (1, 6)

    def test_empty_matrix(self):
        s = smith_normal_form(IntMatrix.zeros(0, 0))
        assert s.D.shape == (0, 0)
        assert s.U.shape == (0, 0)
        assert s.V.shape == (0, 0)

    def test_zero_and_rectangular(self):
        s = assert_snf_contract(IntMatrix.zeros(2, 3))
        assert s.diagonal == (0, 0)
        assert_snf_contract(IntMatrix.from_rows([[4, 6, 10]]))

    def test_negative_entries_normalized(self):
        s = assert_snf_contract(IntMatrix.from_rows([[-4]]))
        assert s.diagonal == (4,)

    def test_divisibility_chain_nontrivial(self):
        m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        s = assert_snf_contract(m)
        assert s.diagonal == (2, 2, 156)  # det = +-624 = 2*2*156

    def test_deterministic(self):
        rng = random.Random(7)
        m = rand_matrix(rng, 4, 5)
        s1 = smith_normal_form(m)
        s2 = smith_normal_form(m)
        assert s1.U == s2.U and s1.V == s2.V and s1.D == s2.D

    def test_random_contract_200(self):
        rng = random.Random(20260809)
        for _ in range(200):
            rows = rng.randint(0, 6)
            cols = rng.randint(0, 6)
            assert_snf_contract(rand_matrix(rng, rows, cols))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_snf_property(self, rows, cols, seed):
        rng = random.Random(seed)
        assert_snf_contract(rand_matrix(rng, rows, cols, -9, 9))

    def test_intermediate_blowup_is_exact(self):
        # Entries stay exact even when the reduction inflates them.
        rng = random.Random(99)
        m = rand_matrix(rng, 6, 6, -50, 50)
        assert_snf_contract(m)


class TestSolve:
    def test_even_target(self):
        assert solve(IntMatrix.from_rows([[2]]), [4]) == (2,)

    def test_parity_obstruction(self):
        assert solve(IntMatrix.from_rows([[2]]), [3]) is None

    def test_back_substitution(self):
        # x2 = 2 from the second row, then x1 = 3 - x2 = 1.
        assert solve(IntMatrix.from_rows([[1, 1], [0, 2]]), [3, 4]) == (1, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatch):
            solve(IntMatrix.from_rows([[1, 1]]), [1, 2])

    def test_inconsistent_free_part(self):
        assert solve(IntMatrix.zeros(2, 2), [0, 1]) is None

    def test_solve_matrix_and_left(self):
        m = IntMatrix.from_rows([[1, 2], [0, 3]])
        b = m @ IntMatrix.from_rows([[1, 0], [2, -1]])
        x = solve_matrix(m, b)
        assert x is not None and m @ x == b
        c = IntMatrix.from_rows([[5, 6]]) @ m
        y = solve_left(m, c)
        assert y is not None and y @ m == c

    def test_random_solvable_and_certified_none(self):
        rng = random.Random(3)
        for _ in range(40):
            m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            x0 = [rng.randint(-3, 3) for _ in range(m.cols)]
            b = m.apply(x0)
            x = solve(m, b)
            assert x is not None and m.apply(x) == b


class TestKernel:
    def test_zero_map_kernel_is_everything(self):
        k = kernel_basis(IntMatrix.from_rows([[0]]))
        assert k.shape == (1, 1) and abs(k[0, 0]) == 1

    def test_sum_zero_kernel(self):
        k = kernel_basis(IntMatrix.from_rows([[1, 1]]))
        assert k.shape == (2, 1)
        col = k.col(0)
        assert sorted(col) == [-1, 1]

    def test_rank_one_kernel_of_2_4(self):
        # SNF oracle: kernel is generated by (2, -1).
        k = kernel_basis(IntMatrix.from_rows([[2, 4]]))
        assert k.shape == (2, 1)
        col = k.col(0)
        assert col in ((2, -1), (-2, 1))

    def test_generates_all_solutions(self):
        rng = random.Random(12)
        for _ in range(30):
            m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            k = kernel_basis(m)
            assert (m @ k).is_zero()
            assert rank(k) == k.cols  # full column rank
            assert rank(m) + k.cols == m.cols
            # every integer kernel vector is an integer combination of K's columns
            for _ in range(3):
                coeffs = [rng.randint(-2, 2) for _ in range(k.cols)]
                v = k.apply(coeffs)
                assert m.apply(v) == (0,) * m.rows
                assert solve_matrix(k, IntMatrix.column(v)) is not None


class TestCokernel:
    def test_mod_two(self):
        c = cokernel(IntMatrix.from_rows([[2]]))
        assert c.group == FPAbGroup.canonical(0, [2])

    def test_identity_is_surjective(self):
        c = cokernel(IntMatrix.from_rows([[1]]))
        assert c.group.is_trivial()

    def test_one_by_zero_matrix(self):
        c = cokernel(IntMatrix.zeros(1, 0))
        assert c.group == FPAbGroup.free(1)

    def test_projection_kills_image(self):
        rng = random.Random(5)
        for _ in range(30):
            m = rand_matrix(rng, rng.randint(1, 4), rng.randint(0, 4))
            c = cokernel(m)
            g = c.group
            proj_im = c.projection @ m
            zero = (0,) * g.generator_count
            for j in range(proj_im.cols):
                assert g.element_equal(proj_im.col(j), zero)
            # projection is onto: solve for preimages of each generator
            assert rank(c.projection) == g.generator_count


class TestFPAbGroup:
    def test_canonical_form_of_presentation(self):
        g = FPAbGroup(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert g == FPAbGroup.canonical(0, [6])
        assert g.describe() == "Z/6"

    def test_invariant_one_dropped(self):
        g = FPAbGroup(IntMatrix.from_rows([[1, 0], [0, 4]]))
        assert g.torsion == (4,)
        assert g.free_rank == 0

    def test_bad_chain_rejected(self):
        with pytest.raises(ValueError):
            FPAbGroup.canonical(0, [4, 6])

    def test_element_equal_mod_two(self):
        g = FPAbGroup(IntMatrix.from_rows([[2]]))
        assert g.element_equal([1], [3])
        assert not g.element_equal([1], [2])

    def test_element_equal_free(self):
        g = FPAbGroup.free(1)
        assert not g.element_equal([1], [2])
        assert g.element_equal([2], [2])

    def test_element_equal_mixed(self):
        # Z + Z/3 presented on two generators by the single relation (0, 3).
        g = FPAbGroup(IntMatrix.from_rows([[0], [3]]))
        assert g == FPAbGroup.canonical(1, [3])
        assert g.element_equal([2, 5], [2, 2])
        assert not g.element_equal([2, 5], [3, 5])

    def test_element_equal_is_equivalence(self):
        rng = random.Random(8)
        g = FPAbGroup(IntMatrix.from_rows([[2, 0], [0, 6], [0, 0]]))
        elts = [tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(12)]
        for x in elts:
            assert g.element_equal(x, x)
        for x in elts:
            for y in elts:
                assert g.element_equal(x, y) == g.element_equal(y, x)
        for x in elts:
            for y in elts:
                for z in elts:
                    if g.element_equal(x, y) and g.element_equal(y, z):
                        assert g.element_equal(x, z)

    def test_length_mismatch(self):
        g = FPAbGroup.free(2)
        with pytest.raises(ShapeMismatch):
            g.element_equal([1], [1, 0])


class TestUnimodularInverse:
    def test_round_trip(self):
        rng = random.Random(77)
        for _ in range(20):
            m = rand_matrix(rng, 3, 3, -2, 2)
            if determinant(m) in (1, -1):
                inv = inverse_unimodular(m)
                assert m @ inv == IntMatrix.identity(3)
                assert inv @ m == IntMatrix.identity(3)

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            inverse_unimodular(IntMatrix.from_rows([[2]]))
