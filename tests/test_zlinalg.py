import random

import pytest
from hypothesis import given, settings, strategies as st

from dgkernel.zlinalg import (
    CokernelData,
    FPAbGroup,
    IntMatrix,
    ShapeMismatch,
    SmithDecomposition,
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
    solve_with,
)


def _reference_find_pivot(a, k, m, n):
    # Nonzero entry of least absolute value in the trailing submatrix,
    # ties broken by lowest (row, col).
    best = None
    for i in range(k, m):
        ai = a[i]
        for j in range(k, n):
            v = ai[j]
            if v:
                av = abs(v)
                if best is None or av < best[0]:
                    best = (av, i, j)
                    if av == 1:
                        return best
    return best


def reference_smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """The eager Smith normal form that updates U and V with every row and
    column operation: the reference the recorded elimination must match
    bit for bit."""
    rows, cols = m.rows, m.cols
    a = m.to_lists()
    u = IntMatrix.identity(rows).to_lists()
    v = IntMatrix.identity(cols).to_lists()

    def add_row(dst, src, c):
        # row_dst += c * row_src  (applied to A and U alike)
        ad, as_ = a[dst], a[src]
        for j in range(cols):
            ad[j] += c * as_[j]
        ud, us = u[dst], u[src]
        for j in range(rows):
            ud[j] += c * us[j]

    def add_col(dst, src, c):
        for i in range(rows):
            a[i][dst] += c * a[i][src]
        for i in range(cols):
            v[i][dst] += c * v[i][src]

    def swap_rows(i1, i2):
        if i1 != i2:
            a[i1], a[i2] = a[i2], a[i1]
            u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        if j1 != j2:
            for r in a:
                r[j1], r[j2] = r[j2], r[j1]
            for r in v:
                r[j1], r[j2] = r[j2], r[j1]

    for k in range(min(rows, cols)):
        while True:
            piv = _reference_find_pivot(a, k, rows, cols)
            if piv is None:
                break
            _, pi, pj = piv
            swap_rows(k, pi)
            swap_cols(k, pj)
            pivot = a[k][k]
            clean = True
            for i in range(k + 1, rows):
                if a[i][k]:
                    add_row(i, k, -(a[i][k] // pivot))
                    if a[i][k]:
                        clean = False
            for j in range(k + 1, cols):
                if a[k][j]:
                    add_col(j, k, -(a[k][j] // pivot))
                    if a[k][j]:
                        clean = False
            if not clean:
                continue  # leftover remainders give a strictly smaller pivot
            # Pivot must divide the whole trailing submatrix so the
            # divisibility chain holds; drag an offending row up if not.
            bad_row = None
            for i in range(k + 1, rows):
                ai = a[i]
                if any(ai[j] % pivot for j in range(k + 1, cols)):
                    bad_row = i
                    break
            if bad_row is None:
                break
            add_row(k, bad_row, 1)
        if _reference_find_pivot(a, k, rows, cols) is None:
            break

    # Normalize signs on the diagonal.
    for k in range(min(rows, cols)):
        if a[k][k] < 0:
            for j in range(cols):
                a[k][j] = -a[k][j]
            for j in range(rows):
                u[k][j] = -u[k][j]

    return SmithDecomposition(
        IntMatrix.from_rows(u, rows),
        IntMatrix.from_rows(a, cols),
        IntMatrix.from_rows(v, cols),
        m,
    )


@st.composite
def int_matrices(draw, max_dim=6):
    """Matrices up to max_dim x max_dim: dense, sparse, or of low rank (a
    product through an inner dimension below both sides), so that zero
    rows, zero columns, ties and non-unit pivots all occur."""
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    kind = draw(st.sampled_from(["dense", "sparse", "low_rank"]))
    if kind == "low_rank":
        k = draw(st.integers(0, min(rows, cols)))
        a = IntMatrix(rows, k, draw(st.lists(st.integers(-3, 3), min_size=rows * k,
                                             max_size=rows * k)))
        b = IntMatrix(k, cols, draw(st.lists(st.integers(-3, 3), min_size=k * cols,
                                             max_size=k * cols)))
        return a @ b
    entries = st.integers(-12, 12) if kind == "dense" else st.sampled_from([0, 0, 0, 1, -2, 6])
    return IntMatrix(rows, cols, draw(st.lists(entries, min_size=rows * cols,
                                               max_size=rows * cols)))


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


class TestRecordedTransforms:
    """The recorded elimination against the eager reference."""

    @settings(max_examples=300, deadline=None)
    @given(int_matrices())
    def test_bit_identical_to_eager_reference(self, m):
        ref = reference_smith_normal_form(m)
        s = smith_normal_form(m)
        assert s.D == ref.D
        assert s.diagonal == ref.diagonal and s.rank == ref.rank
        assert s.U == ref.U
        assert s.V == ref.V

    @settings(max_examples=60, deadline=None)
    @given(int_matrices())
    def test_transforms_are_built_once(self, m):
        s = smith_normal_form(m)
        v, u = s.V, s.U
        assert s.V is v and s.U is u
        assert s.U @ m @ s.V == s.D

    def test_dense_matrix_bit_identical(self):
        m = rand_matrix(random.Random(40), 16, 16)
        ref = reference_smith_normal_form(m)
        s = smith_normal_form(m)
        assert (s.U, s.D, s.V) == (ref.U, ref.D, ref.V)

    @settings(max_examples=300, deadline=None)
    @given(int_matrices(), st.integers(0, 3), st.booleans(), st.data())
    def test_solve_matrix_matches_per_column_reference(self, m, width, solvable, data):
        if solvable:
            x0 = IntMatrix(m.cols, width, data.draw(st.lists(
                st.integers(-4, 4), min_size=m.cols * width, max_size=m.cols * width)))
            b = m @ x0
        else:
            b = IntMatrix(m.rows, width, data.draw(st.lists(
                st.integers(-4, 4), min_size=m.rows * width, max_size=m.rows * width)))
        ref = reference_smith_normal_form(m)
        cols = [solve_with(ref, b.col(j)) for j in range(width)]
        x = solve_matrix(m, b)
        if any(c is None for c in cols):
            assert x is None
        else:
            assert x == IntMatrix.from_cols(cols, m.cols)
            assert m @ x == b

    @settings(max_examples=300, deadline=None)
    @given(int_matrices())
    def test_kernel_basis_matches_reference(self, m):
        ref = reference_smith_normal_form(m)
        k = kernel_basis(m)
        assert k == ref.V.select_cols(range(ref.rank, m.cols))
        assert k.shape == (m.cols, m.cols - ref.rank)

    def test_full_column_rank_kernel_is_empty(self):
        m = IntMatrix.from_rows([[2, 1], [0, 3], [5, 5]])
        k = kernel_basis(m)
        assert k.shape == (2, 0)
        assert k == reference_smith_normal_form(m).V.select_cols(())


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
