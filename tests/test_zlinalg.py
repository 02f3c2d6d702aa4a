import ast
import gc
import inspect
import random
import re
from pathlib import Path
from typing import NamedTuple, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import conjugated, embed_pair, protos, simplex_skeleton, tensor_basis
from dgkernel import zlinalg
from dgkernel.complexes import (Complex, HomSpace, SquareZeroViolated, canonical_presentation,
                                 compose, d_hom, default_probe_family, direct_sum,
                                 direct_sum_complexes, factors_uniquely, functor_L, homology_H,
                                 identity_map, make_complex, suspension, unit_complex)
from dgkernel.cones import cokernel_protosplit
from dgkernel.monoidal import TensorSpace
from dgkernel.rand import rand_complex, rand_unimodular
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
    smith_normal_form,
    solve_matrix,
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


class ReferenceSmith(NamedTuple):
    """The eager elimination's result: explicit U and V with U M V = D."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    rank: int
    diagonal: tuple


def reference_smith_normal_form(m: IntMatrix) -> ReferenceSmith:
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

    diagonal = tuple(a[k][k] for k in range(min(rows, cols)))
    return ReferenceSmith(IntMatrix.from_rows(u, rows), IntMatrix.from_rows(a, cols),
                          IntMatrix.from_rows(v, cols), len(diagonal) - diagonal.count(0),
                          diagonal)


def reference_solve(ref: ReferenceSmith, b: IntMatrix) -> Optional[IntMatrix]:
    """X with M X = b from the explicit transforms, or None: C = U b must
    vanish from row r = rank on, and row i < r must be divisible by
    D[i, i]; then X = V Z with Z[i] = C[i] / D[i, i] for i < r and zero
    below.  It runs no solver of the package."""
    c, r = (ref.U @ b).to_lists(), ref.rank
    if any(any(row) for row in c[r:]):
        return None
    z = []
    for row, d in zip(c, ref.diagonal[:r]):
        if any(x % d for x in row):
            return None
        z.append([x // d for x in row])
    z += [[0] * b.cols for _ in range(ref.V.rows - r)]
    return ref.V @ IntMatrix.from_rows(z, b.cols)


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


FULL_RANK = IntMatrix.from_rows([[2, 1], [0, 3], [5, 5]])
RANK_DEFICIENT = IntMatrix.from_rows([[2, 4], [1, 2], [3, 6]])   # rank 1


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

    @pytest.mark.parametrize("rows, cols", [(True, 1), (2.0, 1), (1, 1.0), (1, False)])
    def test_non_int_dimensions_rejected(self, rows, cols):
        # zeros(True, 1) used to have shape (True, 1), and IntMatrix(2.0, 1, ...)
        # failed later in to_lists with a bare TypeError
        named = re.escape(f"matrix dimensions must be ints, got {rows!r} x {cols!r}")
        for build in (lambda: IntMatrix.zeros(rows, cols), lambda: IntMatrix(rows, cols, [1, 2]),
                      lambda: IntMatrix(rows, cols, (0,), _trusted=True)):
            with pytest.raises(ValueError, match=f"^{named}$"):
                build()
        assert IntMatrix.zeros(1, 0).shape == (1, 0)

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

    def test_select_rows_rejects_out_of_range(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        for idx in ([2], [-1]):
            with pytest.raises(ShapeMismatch):
                m.select_rows(idx)

    def test_select_cols_rejects_out_of_range(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        for a, idx in ((m, [2]), (m, [-1]), (m, [0, -2]), (IntMatrix.zeros(0, 2), [5]),
                       (IntMatrix.zeros(0, 2), [-1]), (IntMatrix.zeros(3, 0), [0])):
            with pytest.raises(ShapeMismatch):
                a.select_cols(idx)
        assert IntMatrix.zeros(0, 2).select_cols([1, 0]).shape == (0, 2)

    @pytest.mark.parametrize("build", [
        lambda: IntMatrix(1, 1, [2.7]),
        lambda: IntMatrix.from_rows([[1, 0.5]]),
        lambda: IntMatrix.from_cols([(1.0,)], 1),
        lambda: IntMatrix.column(["3"]),
        lambda: IntMatrix.diagonal([2.0]),
    ], ids=["init", "from_rows", "from_cols", "column", "diagonal"])
    def test_non_integral_entries_are_rejected(self, build):
        # 2.7 used to become 2 and 0.5 to become 0 without a word
        with pytest.raises(TypeError):
            build()
        assert IntMatrix(1, 2, [True, -3]).entries() == (1, -3)

    def test_row_and_col_reject_out_of_range(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert (m.row(1), m.col(1)) == ((3, 4), (2, 4))
        for read, i in ((m.col, 3), (m.col, -1), (m.col, 2), (m.row, 5), (m.row, -1),
                        (m.row, 2)):
            with pytest.raises(IndexError):
                read(i)

    def test_row_col_and_lists_of_empty_shapes(self):
        tall, wide = IntMatrix.zeros(3, 0), IntMatrix.zeros(0, 3)
        assert tall.to_lists() == [[], [], []] and wide.to_lists() == []
        assert tall.row(2) == () and wide.col(2) == ()
        for read in (tall.col, wide.row):
            with pytest.raises(IndexError):
                read(0)

    def test_diagonal_rejects_entries_that_do_not_fit(self):
        assert IntMatrix.diagonal([2, 3], rows=3, cols=2) == IntMatrix.from_rows(
            [[2, 0], [0, 3], [0, 0]])
        assert IntMatrix.diagonal([], rows=2, cols=0).shape == (2, 0)
        for rows, cols in ((1, 2), (2, 1), (0, 0)):
            with pytest.raises(ShapeMismatch, match="do not fit"):
                IntMatrix.diagonal([2, 3], rows=rows, cols=cols)

    def test_determinant(self):
        assert determinant(IntMatrix.identity(4)) == 1
        assert determinant(IntMatrix.from_rows([[2, 1], [1, 1]])) == 1
        assert determinant(IntMatrix.from_rows([[2, 4], [1, 2]])) == 0
        assert determinant(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1


def assert_same_build(m: IntMatrix, rows: int, cols: int, entries):
    """m has the shape and the entry tuple of the validating build
    IntMatrix(rows, cols, entries), and every entry is a Python int."""
    ref = IntMatrix(rows, cols, entries)
    assert (m.rows, m.cols, m.entries()) == (ref.rows, ref.cols, ref.entries())
    assert type(m.entries()) is tuple
    assert all(type(x) is int for x in m.entries())


class TestTrustedBuilds:
    """Results of IntMatrix arithmetic skip the validating constructor;
    each must equal what the validating constructor builds from the
    entries computed one by one."""

    @settings(max_examples=150, deadline=None)
    @given(int_matrices(5), st.data())
    def test_elementwise_ops(self, a, data):
        b = data.draw(st.lists(st.integers(-9, 9), min_size=len(a.entries()),
                               max_size=len(a.entries())).map(
            lambda e: IntMatrix(a.rows, a.cols, e)))
        c = data.draw(st.integers(-4, 4))
        r, k = a.rows, a.cols
        pairs = list(zip(a.entries(), b.entries()))
        assert_same_build(a + b, r, k, [x + y for x, y in pairs])
        assert_same_build(a - b, r, k, [x - y for x, y in pairs])
        assert_same_build(-a, r, k, [-x for x in a.entries()])
        assert_same_build(a.scale(c), r, k, [c * x for x in a.entries()])
        assert_same_build(c * a, r, k, [c * x for x in a.entries()])
        assert_same_build(a.transpose(), k, r, [a[i, j] for j in range(k) for i in range(r)])

    @settings(max_examples=150, deadline=None)
    @given(int_matrices(5), st.integers(0, 5), st.data())
    def test_product(self, a, m, data):
        b = data.draw(st.lists(st.integers(-9, 9), min_size=a.cols * m,
                               max_size=a.cols * m).map(lambda e: IntMatrix(a.cols, m, e)))
        assert_same_build(a @ b, a.rows, m,
                          [sum(a[i, t] * b[t, j] for t in range(a.cols))
                           for i in range(a.rows) for j in range(m)])

    @settings(max_examples=150, deadline=None)
    @given(int_matrices(5), st.data())
    def test_selections_and_stacks(self, a, data):
        r, k = a.rows, a.cols
        rows = data.draw(st.lists(st.integers(0, r - 1), max_size=6)) if r else []
        cols = data.draw(st.lists(st.integers(0, k - 1), max_size=6)) if k else []
        assert_same_build(a.select_rows(rows), len(rows), k,
                          [a[i, j] for i in rows for j in range(k)])
        assert_same_build(a.select_cols(cols), r, len(cols),
                          [a[i, j] for i in range(r) for j in cols])
        assert_same_build(a.hstack(a), r, 2 * k,
                          [x for i in range(r) for x in a.row(i) + a.row(i)])
        assert_same_build(a.vstack(a), 2 * r, k, a.entries() + a.entries())

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6))
    def test_zeros_and_identity(self, r, k):
        assert_same_build(IntMatrix.zeros(r, k), r, k, [0] * (r * k))
        assert_same_build(IntMatrix.identity(r), r, r,
                          [int(i == j) for i in range(r) for j in range(r)])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(int_matrices(3), max_size=4))
    def test_block_builds(self, blocks):
        # block_diagonal against its definition as a grid of zero blocks
        total = sum(b.cols for b in blocks)
        rows, left = [], 0
        for b in blocks:
            rows += [[0] * left + list(b.row(i)) + [0] * (total - left - b.cols)
                     for i in range(b.rows)]
            left += b.cols
        assert_same_build(block_diagonal(blocks), len(rows), total,
                          [x for row in rows for x in row])
        if blocks:
            grid = [[b if i == j else IntMatrix.zeros(b.rows, c.cols)
                     for j, c in enumerate(blocks)] for i, b in enumerate(blocks)]
            assert_same_build(block_matrix(grid), len(rows), total,
                              [x for row in rows for x in row])


    @settings(max_examples=150, deadline=None)
    @given(int_matrices(), st.integers(0, 2**32 - 1))
    @example(IntMatrix.zeros(3, 0), 0)
    @example(IntMatrix.zeros(0, 3), 0)
    def test_recorded_elimination_builds(self, m, seed):
        # D, both applied records and the [0; I] operand of a kernel basis
        ref = reference_smith_normal_form(m)
        s = smith_normal_form(m)
        assert_same_build(s.D, m.rows, m.cols, ref.D.entries())
        rng = random.Random(seed)
        b, y = rand_matrix(rng, m.rows, 2, -9, 9), rand_matrix(rng, m.cols, 2, -9, 9)
        assert_same_build(s.u_times(b), m.rows, 2, triple_loop_product(ref.U, b))
        assert_same_build(s.v_times(y), m.cols, 2, triple_loop_product(ref.V, y))
        k = kernel_basis(m)
        kernel_cols = range(ref.rank, m.cols)
        assert_same_build(k, m.cols, len(kernel_cols),
                          [ref.V[i, j] for i in range(m.cols) for j in kernel_cols])
        d = smith_normal_form(k).D
        assert_same_build(d, k.rows, k.cols,
                          [int(i == j) for i in range(k.rows) for j in range(k.cols)])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_hom_and_tensor_differentials(self, seed):
        # column t of each differential is d of basis element t, entry by entry
        rng = random.Random(seed)
        a, b = rand_complex(rng), rand_complex(rng)
        hs = HomSpace(a, b)
        for n, d in hs.complex.diffs().items():
            cols = [hs.to_vector(d_hom(f)) for f in protos(hs, n)]
            assert_same_build(d, hs.dim(n - 1), hs.dim(n),
                              [c[i] for i in range(hs.dim(n - 1)) for c in cols])
        ts = TensorSpace(a, b)
        for n, d in ts.complex.diffs().items():
            cols = []
            for x in tensor_basis(ts, n):
                p, q, i, j = x.left_degree, x.right_degree, x.left_index, x.right_index
                unit_i = [int(t == i) for t in range(a.rank(p))]
                unit_j = [int(t == j) for t in range(b.rank(q))]
                col = [0] * ts.dim(n - 1)
                terms = [(1, p - 1, a.diff(p).col(i), q, unit_j),
                         (-1 if p % 2 else 1, p, unit_i, q - 1, b.diff(q).col(j))]
                for sign, lp, xa, rq, xb in terms:
                    if a.rank(lp) and b.rank(rq):
                        for t, v in enumerate(embed_pair(ts, lp, xa, rq, xb)):
                            col[t] += sign * v
                cols.append(col)
            assert_same_build(d, ts.dim(n - 1), ts.dim(n),
                              [c[t] for t in range(ts.dim(n - 1)) for c in cols])


def reference_matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The dense product kernel the sparse-row kernel replaced: every
    nonzero a[i, t] times every entry of row t of b."""
    n, k, m = a.rows, a.cols, b.cols
    out = [0] * (n * m)
    se, oe = a.entries(), b.entries()
    for i in range(n):
        base = i * k
        for t in range(k):
            x = se[base + t]
            if x:
                ob = t * m
                rb = i * m
                for j in range(m):
                    out[rb + j] += x * oe[ob + j]
    return IntMatrix(n, m, out)


def triple_loop_product(a: IntMatrix, b: IntMatrix) -> list:
    return [sum(a[i, t] * b[t, j] for t in range(a.cols))
            for i in range(a.rows) for j in range(b.cols)]


@st.composite
def operand(draw, rows, cols):
    """A rows x cols matrix that is all zero, sparse, dense, or has big entries."""
    kind = draw(st.sampled_from(["zero", "sparse", "dense", "big"]))
    entries = {"zero": st.just(0), "sparse": st.sampled_from([0, 0, 0, 0, 1, -1, 3]),
               "dense": st.integers(-9, 9), "big": st.integers(-2**70, 2**70)}[kind]
    return IntMatrix(rows, cols, draw(st.lists(entries, min_size=rows * cols,
                                               max_size=rows * cols)))


@st.composite
def product_operands(draw, max_dim=6):
    n, k, m = (draw(st.integers(0, max_dim)) for _ in range(3))
    return draw(operand(n, k)), draw(operand(k, m))


class TestSparseRowProduct:
    """The sparse-row product kernel against the triple loop and against the
    dense kernel it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(product_operands())
    @example((IntMatrix.zeros(0, 4), IntMatrix.from_rows([[1, 2]] * 4)))
    @example((IntMatrix.from_rows([[1, 2]] * 4), IntMatrix.zeros(2, 0)))
    @example((IntMatrix.zeros(3, 0), IntMatrix.zeros(0, 5)))
    @example((IntMatrix.zeros(2, 3), IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]])))
    @example((IntMatrix.from_rows([[1, 2], [3, 4]]), IntMatrix.zeros(2, 3)))
    def test_product_equals_the_triple_loop(self, ab):
        a, b = ab
        p = a @ b
        assert_same_build(p, a.rows, b.cols, triple_loop_product(a, b))
        assert p == reference_matmul(a, b)

    @settings(max_examples=200, deadline=None)
    @given(product_operands(), st.data())
    def test_apply_equals_the_product_with_a_column(self, ab, data):
        a, _ = ab
        vec = data.draw(st.lists(st.integers(-9, 9), min_size=a.cols, max_size=a.cols))
        out = a.apply(vec)
        assert type(out) is tuple
        assert out == (a @ IntMatrix.column(vec)).entries()
        assert out == tuple(sum(a[i, j] * vec[j] for j in range(a.cols))
                            for i in range(a.rows))

    def test_shape_mismatch_still_raises(self):
        with pytest.raises(ShapeMismatch):
            IntMatrix.zeros(2, 3) @ IntMatrix.zeros(2, 3)
        with pytest.raises(ShapeMismatch):
            IntMatrix.zeros(2, 3).apply((1, 2))


def _reachable(root, limit=10_000):
    """Objects reachable from root through the containers a decomposition
    is made of (its slots, matrices, tuples and lists)."""
    seen, todo = {}, [root]
    while todo and len(seen) < limit:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen[id(x)] = x
        todo += [y for y in gc.get_referents(x)
                 if isinstance(y, (IntMatrix, SmithDecomposition, tuple, list))]
    return seen


class TestFactorOnce:
    """smith_normal_form factors each matrix object once and keeps the
    decomposition on it, without a reference back to the matrix."""

    @settings(max_examples=150, deadline=None)
    @given(int_matrices())
    def test_same_object_same_decomposition(self, m):
        s = smith_normal_form(m)
        assert smith_normal_form(m) is s
        twin = IntMatrix(m.rows, m.cols, m.entries())
        t = smith_normal_form(twin)
        assert t is not s and t.D == s.D
        ref = reference_smith_normal_form(m)
        assert (s.U, s.D, s.V) == (ref.U, ref.D, ref.V)
        assert smith_normal_form(m) is s and s.U is smith_normal_form(m).U

    @settings(max_examples=100, deadline=None)
    @given(int_matrices())
    def test_decomposition_holds_no_reference_to_its_matrix(self, m):
        s = smith_normal_form(m)
        s.U, s.V   # the built transforms are held too
        assert s.D.shape == m.shape
        assert all(x is not m for x in _reachable(s).values())

    def test_memo_reuse_changes_no_result(self):
        rng = random.Random(11)
        for _ in range(30):
            m = rand_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), -3, 3)
            b = rand_matrix(rng, m.rows, 2, -3, 3)
            first = (kernel_basis(m), solve_matrix(m, b), cokernel(m).projection)
            assert (kernel_basis(m), solve_matrix(m, b), cokernel(m).projection) == first
            fresh = IntMatrix(m.rows, m.cols, m.entries())
            assert (kernel_basis(fresh), solve_matrix(fresh, b),
                    cokernel(fresh).projection) == first


class TestZeroMatrices:
    """An all-zero matrix is its own Smith form: no elimination runs, the
    record is empty, and D is a new matrix on m's entries, so the
    decomposition holds no reference to m."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 3))
    def test_zero_matrix_is_factored_without_elimination(self, rows, cols, width):
        m = IntMatrix(rows, cols, [0] * (rows * cols))
        s = smith_normal_form(m)
        assert s.D == m and s.D is not m and s.D.entries() is m.entries()
        assert s._row_ops == [] and s._col_ops == [] and s.rank == 0
        assert (s.U, s.V) == (IntMatrix.identity(rows), IntMatrix.identity(cols))
        assert all(x is not m for x in _reachable(s).values())
        assert_same_elimination(s, m)
        ref = reference_smith_normal_form(m)
        assert (s.U, s.D, s.V) == (ref.U, ref.D, ref.V)
        k = kernel_basis(m)
        assert k == IntMatrix.identity(cols)
        assert smith_normal_form(k) is getattr(k, "_snf")
        zeros = IntMatrix.zeros(rows, width)
        assert solve_matrix(m, zeros) == IntMatrix.zeros(cols, width) == reference_solve(ref, zeros)
        if rows and width:
            b = IntMatrix(rows, width, [1] + [0] * (rows * width - 1))
            assert solve_matrix(m, b) is None and reference_solve(ref, b) is None


class TestZeroComplexAndSquareZero:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-5, 5), max_size=4))
    def test_shared_zero_equals_fresh_zero(self, degrees):
        fresh = Complex({n: 0 for n in degrees}, {})
        assert Complex.zero() is Complex.zero()
        assert Complex.zero() == fresh
        assert hash(Complex.zero()) == hash(fresh)
        assert Complex.zero().is_zero() and Complex.zero().diffs() == {}

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.integers(-3, 3), st.integers(0, 2), max_size=4),
           st.lists(st.integers(-5, 5), max_size=3))
    @example({0: 1}, [5])
    def test_zero_ranks_leave_the_complex_unchanged(self, ranks, zero_degrees):
        padded = dict.fromkeys(zero_degrees, 0)
        padded.update(ranks)
        a, b = Complex(padded, {}), Complex(ranks, {})
        assert a == b and hash(a) == hash(b)
        assert a.ranks() == b.ranks() and (a.lo, a.hi) == (b.lo, b.hi)
        assert {n: r for n, r in a.ranks().items() if r} == {n: r for n, r in ranks.items() if r}

    @pytest.mark.parametrize("build", [lambda r: Complex(r, {}), make_complex],
                             ids=["Complex", "make_complex"])
    def test_negative_rank_raises(self, build):
        with pytest.raises(ValueError, match="^negative rank -1 at degree 1$"):
            build({0: 2, 1: -1})

    @pytest.mark.parametrize("build", [lambda r: Complex(r, {}), make_complex],
                             ids=["Complex", "make_complex"])
    @pytest.mark.parametrize("ranks, message", [
        ({0: 2.5, 1: True}, "^rank 2.5 at degree 0 is not an integer$"),
        ({0: 2, 1: True}, "^rank True at degree 1 is not an integer$"),
        ({0: 2, 1: 0.0}, "^rank 0.0 at degree 1 is not an integer$"),
        ({0: 1, 1.0: 1}, "^degree 1.0 is not an integer$"),
        ({False: 1}, "^degree False is not an integer$"),
    ], ids=["float rank", "bool rank", "zero float rank", "float degree", "bool degree"])
    def test_non_integer_rank_or_degree_raises(self, build, ranks, message):
        with pytest.raises(ValueError, match=message):
            build(ranks)

    @pytest.mark.parametrize("degree", [1.0, True, "1"])
    def test_non_integer_differential_degree_raises(self, degree):
        d = IntMatrix.from_rows([[2]])
        with pytest.raises(ValueError, match=f"^degree {degree!r} is not an integer$"):
            Complex({0: 1, 1: 1}, {degree: d})
        assert Complex({0: 1, 1: 1}, {1: d}).diff(1) == d

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-2, 2), st.lists(st.integers(0, 2), min_size=1, max_size=5),
           st.data())
    def test_square_zero_violation_reports_lowest_degree(self, lo, ranks, data):
        r, diffs = drawn_differentials(lo, ranks, data)

        def d(n):
            return diffs.get(n) or IntMatrix.zeros(r.get(n - 1, 0), r.get(n, 0))

        # reference: every product d_n d_{n+1} over the degrees of r, zero or not
        expected = next((n + 1 for n in sorted(r) if not (d(n) @ d(n + 1)).is_zero()), None)
        if expected is None:
            Complex(r, diffs)
        else:
            with pytest.raises(SquareZeroViolated) as info:
                Complex(r, diffs)
            assert info.value.degree == expected

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-2, 2), st.lists(st.integers(0, 2), min_size=1, max_size=5),
           st.data())
    def test_homology_of_unchecked_differentials_reports_the_constructor_degree(
            self, lo, ranks, data):
        r, diffs = drawn_differentials(lo, ranks, data)
        try:
            Complex(r, diffs)
        except SquareZeroViolated as checked:
            expected = checked.degree
        else:
            expected = None
        a = Complex(r, diffs, _trusted=True)
        if expected is None:
            homology_H(a)
        else:
            with pytest.raises(SquareZeroViolated) as info:
                homology_H(a)
            assert info.value.degree == expected


def drawn_differentials(lo, ranks, data):
    """Ranks from degree lo up and a differential of small entries between
    each pair of neighbouring degrees, square-zero or not."""
    r = {lo + i: k for i, k in enumerate(ranks)}
    entries = st.sampled_from([0, 0, 0, 1, -1, 2])
    diffs = {}
    for n in range(lo + 1, lo + len(ranks)):
        rows, cols = r[n - 1], r[n]
        diffs[n] = IntMatrix(rows, cols, data.draw(st.lists(
            entries, min_size=rows * cols, max_size=rows * cols)))
    return r, diffs


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
        cols = [reference_solve(ref, IntMatrix.column(b.col(j))) for j in range(width)]
        x = solve_matrix(m, b)
        if any(c is None for c in cols):
            assert x is None
        else:
            assert x == IntMatrix.from_cols([c.entries() for c in cols], m.cols)
            assert m @ x == b

    @settings(max_examples=300, deadline=None)
    @given(int_matrices(), st.integers(0, 3), st.booleans(), st.integers(0, 2**32 - 1))
    @example(IntMatrix.zeros(3, 2), 0, False, 0)
    @example(IntMatrix.zeros(0, 2), 0, True, 0)
    @example(FULL_RANK, 0, False, 0)
    @example(RANK_DEFICIENT, 2, True, 0)
    @example(RANK_DEFICIENT, 2, False, 0)
    @example(RANK_DEFICIENT.transpose(), 1, False, 3)
    def test_solve_matrix_equals_the_reference_solve(self, m, width, solvable, seed):
        # solvable, unsolvable, zero-width and rank-deficient operands
        rng = random.Random(seed)
        if solvable:
            b = m @ rand_matrix(rng, m.cols, width, -4, 4)
        else:
            b = rand_matrix(rng, m.rows, width, -4, 4)
        x = reference_solve(reference_smith_normal_form(m), b)
        assert solve_matrix(m, b) == x
        if x is not None:
            assert m @ x == b
        assert x is not None or not solvable

    def test_the_reference_solve_on_known_answers(self):
        odd = IntMatrix.column([3])
        assert reference_solve(reference_smith_normal_form(IntMatrix.from_rows([[2]])), odd) is None
        ref = reference_smith_normal_form(RANK_DEFICIENT)
        assert ref.rank == 1
        assert reference_solve(ref, IntMatrix.column([1, 0, 0])) is None   # not in the image
        assert reference_solve(ref, IntMatrix.column([1, 1, 3])) is None    # nor is this
        x = reference_solve(ref, IntMatrix.column([6, 3, 9]))
        assert x is not None and RANK_DEFICIENT @ x == IntMatrix.column([6, 3, 9])
        assert reference_solve(ref, IntMatrix.zeros(3, 0)) == IntMatrix.zeros(2, 0)

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


def unbuilt(s: SmithDecomposition) -> bool:
    return s._U is None and s._V is None


@st.composite
def unimodular_matrices(draw, max_dim=5):
    """Products of elementary row operations, so the inverse exists."""
    n = draw(st.integers(0, max_dim))
    a = IntMatrix.identity(n).to_lists()
    for _ in range(draw(st.integers(0, 3 * n)) if n > 1 else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-3, 3))
        if i != j:
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        elif draw(st.booleans()):
            a[i] = [-x for x in a[i]]
    return IntMatrix.from_rows(a, n)


class TestAppliedRecord:
    """Solvers, kernels and inverses apply the operation record to their
    operand instead of building U or V, and agree with the reference."""

    @settings(max_examples=200, deadline=None)
    @given(int_matrices(), st.integers(-3, 3))
    @example(IntMatrix.zeros(3, 0), 1)
    @example(IntMatrix.zeros(2, 3), 2)
    @example(FULL_RANK, -1)
    def test_u_times_and_v_times_equal_the_reference_products(self, m, c):
        ref = reference_smith_normal_form(m)
        s = smith_normal_form(m)
        b = IntMatrix(m.rows, 2, [c * (i + 1) - j for i in range(m.rows) for j in range(2)])
        y = IntMatrix(m.cols, 2, [c - i * j for i in range(m.cols) for j in range(2)])
        assert s.u_times(b) == ref.U @ b
        assert s.v_times(y) == ref.V @ y
        assert unbuilt(s)

    @settings(max_examples=200, deadline=None)
    @given(int_matrices(), st.integers(0, 3), st.booleans())
    @example(IntMatrix.zeros(3, 0), 2, False)
    @example(IntMatrix.zeros(2, 3), 1, True)
    @example(IntMatrix.zeros(2, 3), 1, False)
    @example(FULL_RANK, 2, True)
    @example(FULL_RANK, 0, True)
    def test_solve_matrix_equals_reference_unbuilt(self, zlinalg_calls, m, width, solvable):
        rng = random.Random(repr((m, width, solvable)))
        if solvable:
            b = m @ rand_matrix(rng, m.cols, width, -4, 4)
        else:
            b = rand_matrix(rng, m.rows, width, -4, 4)
        ref = reference_smith_normal_form(m)
        cols = [reference_solve(ref, IntMatrix.column(b.col(j))) for j in range(width)]
        with zlinalg_calls("smith_normal_form") as made:
            x = solve_matrix(m, b)
        assert len(made) == 1 and unbuilt(made[0])
        if any(col is None for col in cols):
            assert x is None
        else:
            assert x == IntMatrix.from_cols([c.entries() for c in cols], m.cols)

    @settings(max_examples=200, deadline=None)
    @given(int_matrices())
    @example(IntMatrix.zeros(3, 0))
    @example(IntMatrix.zeros(2, 3))
    @example(FULL_RANK)
    def test_solve_with_equals_reference_unbuilt(self, m):
        # one column against a kept decomposition, as FPAbGroup.element_equal solves
        rng = random.Random(repr(m))
        ref = reference_smith_normal_form(m)
        s = smith_normal_form(m)
        for b in (m.apply([rng.randint(-4, 4) for _ in range(m.cols)]),
                  [rng.randint(-4, 4) for _ in range(m.rows)]):
            b = IntMatrix.column(b)
            assert zlinalg._solve(s, b) == reference_solve(ref, b)
        assert unbuilt(s)

    @settings(max_examples=200, deadline=None)
    @given(int_matrices())
    @example(IntMatrix.zeros(3, 0))
    @example(IntMatrix.zeros(2, 3))
    @example(FULL_RANK)
    @example(FULL_RANK.transpose())
    def test_kernel_basis_equals_reference_unbuilt(self, zlinalg_calls, m):
        ref = reference_smith_normal_form(m)
        with zlinalg_calls("smith_normal_form") as made:
            k = kernel_basis(m)
        assert len(made) == 1 and unbuilt(made[0])
        assert k == ref.V.select_cols(range(ref.rank, m.cols))

    @settings(max_examples=150, deadline=None)
    @given(unimodular_matrices())
    @example(IntMatrix.zeros(0, 0))
    @example(IntMatrix.from_rows([[0, 1], [1, 0]]))
    def test_inverse_unimodular_equals_reference_without_v(self, zlinalg_calls, m):
        ref = reference_smith_normal_form(m)
        with zlinalg_calls("smith_normal_form") as made:
            inv = inverse_unimodular(m)
        assert len(made) == 1 and made[0]._V is None
        assert inv == ref.V @ ref.U
        assert m @ inv == IntMatrix.identity(m.rows)


def kernel_operands(k: IntMatrix, width: int, solvable: bool, seed: int) -> IntMatrix:
    rng = random.Random(seed)
    if solvable:
        return k @ rand_matrix(rng, k.cols, width, -4, 4)
    return rand_matrix(rng, k.rows, width, -4, 4)


KERNEL_PARENTS = [IntMatrix.zeros(3, 4), IntMatrix.zeros(0, 4), IntMatrix.zeros(4, 0),
                  IntMatrix.identity(3), FULL_RANK, FULL_RANK.transpose()]


def parent_examples(*args):
    """An explicit example per parent in KERNEL_PARENTS, with args after it."""
    def add(test):
        for m in KERNEL_PARENTS:
            test = example(m, *args)(test)
        return test
    return add


class TestKernelBasisDecomposition:
    """A kernel basis carries a decomposition derived from its parent's
    record; it must act as a fresh elimination of the same matrix would."""

    @settings(max_examples=300, deadline=None)
    @given(int_matrices())
    @parent_examples()
    def test_derived_decomposition_is_a_smith_decomposition(self, m):
        k = kernel_basis(m)
        s = smith_normal_form(k)
        assert smith_normal_form(k) is s
        assert s.U @ k @ s.V == s.D
        assert determinant(s.U) in (1, -1) and s.V == IntMatrix.identity(k.cols)
        twin = IntMatrix(k.rows, k.cols, k.entries())
        fresh = smith_normal_form(twin)
        assert fresh is not s
        assert (s.D, s.diagonal, s.rank) == (fresh.D, fresh.diagonal, fresh.rank)

    @settings(max_examples=300, deadline=None)
    @given(int_matrices(), st.integers(0, 3), st.booleans(), st.integers(0, 2**32 - 1))
    @parent_examples(2, True, 0)
    @parent_examples(2, False, 0)
    def test_solving_against_a_kernel_equals_a_fresh_elimination(self, zlinalg_calls, m, width,
                                                                  solvable, seed):
        k = kernel_basis(m)
        twin = IntMatrix(k.rows, k.cols, k.entries())
        b = kernel_operands(k, width, solvable, seed)
        with zlinalg_calls("smith_normal_form") as made:
            x = solve_matrix(k, b)
        assert made == [k._snf]   # a lookup, no elimination
        assert x == solve_matrix(twin, b)
        if solvable:
            assert x is not None and k @ x == b
        for j in range(width):
            col = IntMatrix.column(b.col(j))
            assert solve_matrix(k, col) == solve_matrix(twin, col)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_homology_eliminates_each_differential_once(self, zlinalg_calls, c0, extra, seed):
        # Z^c1 -> Z^c0, dense, with a nonzero kernel in degree 1
        c1 = c0 + extra
        d = rand_matrix(random.Random(seed), c0, c1)
        a = make_complex({1: c1, 0: c0}, {1: d.to_lists()})
        with zlinalg_calls("smith_normal_form") as made:
            h = homology_H(a)
        # per degree n: d_n, d_{n+1}, then the canonical presentation; no
        # call is on a kernel basis
        d0, d1, p0, d1_again, d2, p1 = [args[0] for _, args in made.operands]
        assert d0 is a.diff(0) and d1 is d1_again is a.diff(1) and d2 is a.diff(2)
        assert (p0, p1) == (h.at(0).presentation, h.at(1).presentation)
        # d_1 is eliminated in degree 0 and read back in degree 1
        assert made[3] is made[1] and len({id(s) for s in made}) == 5
        assert h.at(0) == cokernel(d).group
        assert h.at(1) == FPAbGroup.free(c1 - smith_normal_form(d).rank)


def dense_smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """The plain dense elimination: every pivot step scans every cell of
    the trailing block, and row operations run over whole rows.  It writes
    its record as smith_normal_form does, which must make the same choices:
    the same D and the same row and column operations, in order.  Nothing
    is stored on m."""
    rows, cols = m.rows, m.cols
    a = m.to_lists()
    row_ops = []
    col_ops = []

    for k in range(min(rows, cols)):
        while True:
            piv = _reference_find_pivot(a, k, rows, cols)
            if piv is None:
                break
            _, pi, pj = piv
            if pi != k:
                a[k], a[pi] = a[pi], a[k]
                row_ops.append((k, pi))
            if pj != k:
                for i in range(k, rows):
                    ai = a[i]
                    ai[k], ai[pj] = ai[pj], ai[k]
                col_ops.append((k, pj))
            ak = a[k]
            pivot = ak[k]
            clean = True
            for i in range(k + 1, rows):
                ai = a[i]
                if ai[k]:
                    c = -(ai[k] // pivot)
                    for j in range(k, cols):
                        ai[j] += c * ak[j]
                    row_ops.append((i, k, c))
                    if ai[k]:
                        clean = False
            qs = []
            for j in range(k + 1, cols):
                if ak[j]:
                    c = -(ak[j] // pivot)
                    qs.append((j, c))
                    col_ops.append((k, j, c))
            if qs:
                for i in range(k, rows):
                    ai = a[i]
                    aik = ai[k]
                    if aik:
                        for j, c in qs:
                            ai[j] += c * aik
                if any(ak[j] for j, _ in qs):
                    clean = False
            if not clean:
                continue
            if pivot == 1 or pivot == -1:
                break
            bad_row = None
            for i in range(k + 1, rows):
                ai = a[i]
                if any(ai[j] % pivot for j in range(k + 1, cols)):
                    bad_row = i
                    break
            if bad_row is None:
                break
            ab = a[bad_row]
            for j in range(k, cols):
                ak[j] += ab[j]
            row_ops.append((k, bad_row, 1))
        if piv is None:
            break

    for k in range(min(rows, cols)):
        if a[k][k] < 0:
            a[k][k] = -a[k][k]
            row_ops.append((k,))

    return SmithDecomposition(IntMatrix.from_rows(a, cols), row_ops, col_ops)


def assert_same_elimination(s: SmithDecomposition, m: IntMatrix):
    dense = dense_smith_normal_form(m)
    assert s.D == dense.D
    assert s._row_ops == dense._row_ops
    assert s._col_ops == dense._col_ops


SPARSE_VALUES = (1, -1, 1, -1, 2, -2, 3, -4, 6, 12)


def zero_rows(m: IntMatrix) -> int:
    return sum(1 for i in range(m.rows) if not any(m.row(i)))


@st.composite
def sparse_matrices(draw, max_side=40, max_long=130, max_short=30):
    """Sparse matrices shaped like hom-space differentials: up to
    max_side x max_side, tall up to max_long x max_short or wide, 0-15%
    nonzero entries (units, and non-units so that the divisibility scan
    runs), with zero rows and zero columns forced in."""
    shape = draw(st.sampled_from(["square", "tall", "wide"]))
    if shape == "square":
        rows, cols = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    else:
        rows, cols = draw(st.integers(0, max_long)), draw(st.integers(0, max_short))
        if shape == "wide":
            rows, cols = cols, rows
    density = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.15]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    e = [rng.choice(SPARSE_VALUES) if rng.random() < density else 0 for _ in range(rows * cols)]
    dead_rows = rng.sample(range(rows), draw(st.integers(0, rows // 2)))
    dead_cols = rng.sample(range(cols), draw(st.integers(0, cols // 2)))
    for i in dead_rows:
        e[i * cols:(i + 1) * cols] = [0] * cols
    for j in dead_cols:
        e[j::cols] = [0] * rows
    return IntMatrix(rows, cols, e)


EXPLICIT_MATRICES = [
    IntMatrix.zeros(0, 5), IntMatrix.zeros(5, 0), IntMatrix.zeros(0, 0), IntMatrix.zeros(1, 7),
    IntMatrix.zeros(7, 1), IntMatrix.zeros(6, 6), IntMatrix.zeros(130, 30),
    IntMatrix.from_rows([[0, 0, 4, 0, -6, 0, 2]]),
    IntMatrix.from_rows([[0], [0], [-4], [0], [6], [0], [2]]),
    IntMatrix.from_rows([[0, 3, 0, -3, 0]]), IntMatrix.from_rows([[-5]]),
    IntMatrix.from_rows([[0, 0, 0], [0, 4, 6], [0, 0, 0], [0, 6, 9]]),
    rand_matrix(random.Random(41), 24, 24)]


def brick_complex(rng: random.Random, pairs, singles, ops: int = 12) -> Complex:
    """A dense complex: the direct sum of pairs[d] two-term bricks
    Z --k--> Z from degree d and singles[d] copies of Z in degree d, in
    random order, conjugated by random unimodular basis changes."""
    parts = [make_complex({d: 1, d - 1: 1}, {d: [[rng.choice((1, -1, 2, -2, 3))]]})
             for d, count in pairs.items() for _ in range(count)]
    parts += [Complex.concentrated(d) for d, count in singles.items() for _ in range(count)]
    rng.shuffle(parts)
    return conjugated(rng, direct_sum(parts), ops)


def fresh_eliminations(made) -> list:
    """(operand, decomposition) of each elimination recorded by
    ``zlinalg_calls("smith_normal_form")``: each call whose operand held no
    decomposition.  A matrix born with its decomposition (a kernel basis,
    a U or V, a canonical presentation, a rand_unimodular matrix) was not
    eliminated, and a later call on an eliminated matrix is a lookup."""
    return [(m, m._snf) for m in made.eliminated]


class TestSameChoicesAsTheDenseElimination:
    """smith_normal_form skips dead rows and zero entries; it must still
    write the record of the dense elimination, operation for operation."""

    @settings(max_examples=150, deadline=None)
    @given(sparse_matrices())
    def test_sparse_matrices(self, m):
        assert_same_elimination(smith_normal_form(m), m)

    @settings(max_examples=300, deadline=None)
    @given(int_matrices())
    def test_small_matrices(self, m):
        assert_same_elimination(smith_normal_form(m), m)

    @pytest.mark.parametrize("m", EXPLICIT_MATRICES,
                             ids=lambda m: f"{m.rows}x{m.cols}{' zero' if m.is_zero() else ''}")
    def test_explicit_matrices(self, m):
        twin = IntMatrix(m.rows, m.cols, m.entries())
        assert_same_elimination(smith_normal_form(twin), m)

    def test_canonical_presentation_operands(self, zlinalg_calls):
        a = brick_complex(random.Random(12), {2: 2, 1: 1, 0: 1}, {2: 1, 1: 1, 0: 1, -1: 1})
        assert [a.rank(n) for n in (2, 1, 0, -1)] == [3, 4, 3, 2]
        with zlinalg_calls("smith_normal_form") as made:
            cp = canonical_presentation(a)
            # the presentation sampled on the probe family: beta - gamma is
            # killed, and every killer must factor through alpha
            sampled = [factors_uniquely(cp.beta - cp.gamma, cp.alpha, t)
                       for _, t in default_probe_family(a)]
        assert cp.fork_commutes is True and cp.coequalizer_verified is True
        assert sampled == [True] * 5
        fresh = fresh_eliminations(made)
        assert len(fresh) >= 10 and sum(1 for m, _ in fresh if zero_rows(m)) >= 5
        for m, s in fresh:
            assert_same_elimination(s, m)

    def test_cokernel_protosplit_operands(self, zlinalg_calls):
        rng = random.Random(13)
        a = brick_complex(rng, {2: 1, 0: 1}, {1: 1, 0: 1})
        b = brick_complex(rng, {2: 1, 1: 1, 0: 1}, {2: 1, 1: 1, 0: 1, -1: 1})
        total, injs, projs = direct_sum_complexes([a, b])
        with zlinalg_calls("smith_normal_form") as made:
            w, _ = cokernel_protosplit(injs[0], compose(identity_map(a), projs[0]))
            # the cokernel sampled on A, B, S B, S^-1 B, Z and L Z
            sampled = [factors_uniquely(injs[0], w, t)
                       for t in (a, total, suspension(total, 1), suspension(total, -1),
                                 unit_complex(), functor_L(unit_complex()))]
        assert w.target.ranks() == b.ranks()
        assert sampled == [True] * 6
        fresh = fresh_eliminations(made)
        assert len(fresh) >= 10 and sum(1 for m, _ in fresh if zero_rows(m)) >= 5
        for m, s in fresh:
            assert_same_elimination(s, m)


@st.composite
def sparse_unimodular_matrices(draw, max_dim=30):
    """A permutation matrix after a few elementary row operations."""
    n = draw(st.integers(0, max_dim))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    perm = rng.sample(range(n), n)
    a = [[int(j == perm[i]) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, n)) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return IntMatrix.from_rows(a, n)


class TestReplayOverZeroRows:
    """The record replay skips additions from an all-zero row; on operands
    with zero rows the products must still equal the reference's, and U
    and V must stay unbuilt."""

    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices(max_side=24, max_long=50, max_short=16), st.integers(0, 2**32 - 1))
    def test_u_times_and_v_times(self, m, seed):
        rng = random.Random(seed)
        ref = reference_smith_normal_form(m)
        s = smith_normal_form(m)
        for rows, product, transform in ((m.rows, s.u_times, ref.U), (m.cols, s.v_times, ref.V)):
            b = rand_matrix(rng, rows, 3, -3, 3).to_lists()
            for i in rng.sample(range(rows), rows // 2):
                b[i] = [0, 0, 0]
            b = IntMatrix.from_rows(b, 3)
            assert product(b) == transform @ b
        assert unbuilt(s)

    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices(max_side=24, max_long=50, max_short=16))
    def test_kernel_basis(self, zlinalg_calls, m):
        ref = reference_smith_normal_form(m)
        with zlinalg_calls("smith_normal_form") as made:
            k = kernel_basis(m)
        assert len(made) == 1 and unbuilt(made[0])
        assert k == ref.V.select_cols(range(ref.rank, m.cols))

    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices(max_side=24, max_long=50, max_short=16), st.integers(0, 3),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_solve_matrix(self, zlinalg_calls, m, width, solvable, seed):
        rng = random.Random(seed)
        if solvable:
            b = m @ rand_matrix(rng, m.cols, width, -2, 2)
        else:
            b = rand_matrix(rng, m.rows, width, -2, 2)
        ref = reference_smith_normal_form(m)
        cols = [reference_solve(ref, IntMatrix.column(b.col(j))) for j in range(width)]
        with zlinalg_calls("smith_normal_form") as made:
            x = solve_matrix(m, b)
        assert len(made) == 1 and unbuilt(made[0])
        if any(c is None for c in cols):
            assert x is None and not solvable
        else:
            assert x == IntMatrix.from_cols([c.entries() for c in cols], m.cols)

    @settings(max_examples=60, deadline=None)
    @given(sparse_unimodular_matrices())
    def test_inverse_unimodular(self, zlinalg_calls, m):
        ref = reference_smith_normal_form(m)
        with zlinalg_calls("smith_normal_form") as made:
            inv = inverse_unimodular(m)
        assert len(made) == 1 and made[0]._V is None
        assert inv == ref.V @ ref.U
        assert m @ inv == IntMatrix.identity(m.rows)

    def test_replay_reads_row_slices(self, monkeypatch):
        """The replay starts from row slices of its operand; it never turns
        the operand into lists (to_lists) and back."""
        rng = random.Random(5)
        m = rand_matrix(rng, 6, 8, -3, 3)
        ref = reference_smith_normal_form(m)
        s = smith_normal_form(m)
        b = rand_matrix(rng, 6, 2, -3, 3)
        c = rand_matrix(rng, 8, 2, -3, 3)

        def no_lists(self):
            raise AssertionError("the replay copied its operand into lists")
        monkeypatch.setattr(IntMatrix, "to_lists", no_lists)
        assert s.u_times(b) == ref.U @ b
        assert s.v_times(c) == ref.V @ c
        assert kernel_basis(m) == ref.V.select_cols(range(ref.rank, m.cols))
        assert solve_matrix(m, m @ c) is not None


def dense_ops_applied(b: IntMatrix, ops: list, n: int, backwards: bool = False) -> IntMatrix:
    """The dense replay the sparse one must match bit for bit: every row a
    slice of b, and an addition rebuilds its whole destination row."""
    if b.rows != n:
        raise ShapeMismatch(f"transform is {n}x{n}, operand has {b.rows} rows")
    if not ops:
        return b
    e, w = b._e, b.cols
    t = [e[i * w:i * w + w] for i in range(n)]
    for op in reversed(ops) if backwards else ops:
        if len(op) == 3:
            dst, src, c = op
            ts = t[src]
            if any(ts):
                t[dst] = [x + c * y for x, y in zip(t[dst], ts)]
        elif len(op) == 2:
            i, j = op
            t[i], t[j] = t[j], t[i]
        else:
            t[op[0]] = [-x for x in t[op[0]]]
    return IntMatrix.from_rows(t, b.cols, _trusted=True)


def assert_replays_agree(b: IntMatrix, ops: list):
    for backwards in (False, True):
        got = zlinalg._ops_applied(b, ops, b.rows, backwards)
        assert got == dense_ops_applied(b, ops, b.rows, backwards)
        assert type(got.entries()) is tuple and all(type(x) is int for x in got.entries())


def sparse_operand(rng: random.Random, rows: int, cols: int) -> IntMatrix:
    """rows x cols, a third of the rows zero and the rest mostly zero."""
    e = [rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(rows * cols)]
    for i in rng.sample(range(rows), rows // 3):
        e[i * cols:(i + 1) * cols] = [0] * cols
    return IntMatrix(rows, cols, e)


@st.composite
def cancelling_records(draw, max_rows=8, max_ops=30):
    """(operand, record): entries and multipliers in {-1, 0, 1}, so that
    additions often cancel a row to zero and that row is later a source."""
    rows, cols = draw(st.integers(1, max_rows)), draw(st.integers(0, 5))
    b = IntMatrix(rows, cols, draw(st.lists(st.integers(-1, 1), min_size=rows * cols,
                                            max_size=rows * cols)))
    row = st.integers(0, rows - 1)
    pair = st.tuples(row, row).filter(lambda p: p[0] != p[1]) if rows > 1 else st.nothing()
    op = st.one_of(st.tuples(row), st.tuples(row, row),
                   st.builds(lambda p, c: p + (c,), pair, st.sampled_from((-1, 1, 0))))
    return b, draw(st.lists(op, max_size=max_ops))


class TestSparseReplay:
    """The replay keeps rows as dicts of their nonzeros; it must write what
    the dense replay writes, for every record and operand."""

    @settings(max_examples=80, deadline=None)
    @given(sparse_matrices(max_side=24, max_long=50, max_short=16), st.integers(0, 2**32 - 1))
    def test_records_of_sparse_matrices(self, m, seed):
        rng = random.Random(seed)
        s = smith_normal_form(m)
        for rows, ops in ((m.rows, s._row_ops), (m.cols, s._col_ops)):
            assert_replays_agree(sparse_operand(rng, rows, rng.randint(0, 6)), ops)
            assert_replays_agree(IntMatrix.identity(rows), ops)

    @pytest.mark.parametrize("vertices, k", [(6, 3), (7, 4), (8, 5)])
    def test_records_of_skeleton_boundaries(self, vertices, k):
        rng = random.Random(vertices * 10 + k)
        a = simplex_skeleton(rng, vertices, k)
        for n, d in sorted(a.diffs().items()):
            s = smith_normal_form(d)
            r = s.rank
            kernel_operand = IntMatrix.zeros(r, d.cols - r).vstack(IntMatrix.identity(d.cols - r))
            assert_replays_agree(kernel_operand, s._col_ops)
            assert_replays_agree(sparse_operand(rng, d.rows, 40), s._row_ops)
            up = a.diff(n + 1)
            if up.cols:
                k_n = kernel_basis(d)
                assert_replays_agree(up, k_n._snf._row_ops)

    @settings(max_examples=300, deadline=None)
    @given(cancelling_records())
    def test_hand_made_records(self, case):
        assert_replays_agree(*case)

    def test_a_cancelled_row_is_later_a_source(self):
        b = IntMatrix.from_rows([[1, 0, 2], [1, 0, 2], [0, 3, 0], [0, 0, 0]])
        ops = [(1, 0, -1),   # row 1 cancels to zero
               (2, 1, 5),    # adds nothing
               (1, 2, 1), (0, 1), (3,), (3, 0, 2), (2,), (2, 3), (0, 3, -1)]
        assert_replays_agree(b, ops)
        assert zlinalg._ops_applied(b, ops[:2], 4) == IntMatrix.from_rows(
            [[1, 0, 2], [0, 0, 0], [0, 3, 0], [0, 0, 0]])

    @pytest.mark.parametrize("rows, cols", [(3, 0), (0, 0), (3, 4), (1, 7)])
    def test_zero_width_and_all_zero_operands(self, rows, cols):
        b = IntMatrix.zeros(rows, cols)
        ops = [(0, 1, 3), (1, 2), (2,)] if rows == 3 else []
        assert zlinalg._ops_applied(b, ops, rows) == b
        assert_replays_agree(b, ops)
        if not cols:
            assert zlinalg._ops_applied(b, ops, rows) is b


class TestSolveOnePath:
    """_solve divides only the rows whose invariant factor is not 1, and
    needs no second branch for a unit diagonal."""

    D = IntMatrix.diagonal([1, 1, 3], rows=4, cols=3)   # rank 3, one zero row

    def test_unit_diagonals(self):
        s = SmithDecomposition(IntMatrix.identity(3), [(1, 0, 2), (0, 2)], [(0, 1, -1)])
        b = IntMatrix.from_rows([[5, 0], [-7, 1], [2, 2]])
        x = zlinalg._solve(s, b)
        assert x == s.V @ s.U @ b
        # an empty record passes the right-hand side itself through
        k = kernel_basis(IntMatrix.zeros(0, 3))
        assert solve_matrix(k, b) is b

    def test_a_nonzero_row_at_rank_gives_none(self):
        s = SmithDecomposition(self.D, [], [])
        assert zlinalg._solve(s, IntMatrix.column([1, 1, 3, 1])) is None
        assert zlinalg._solve(s, IntMatrix.column([4, -5, 6, 0])) == IntMatrix.column([4, -5, 2])

    def test_a_remainder_only_in_a_non_unit_row(self):
        s = SmithDecomposition(self.D, [], [])
        # rows 0 and 1 are not multiples of 3, and need not be
        assert zlinalg._solve(s, IntMatrix.from_rows([[2, 1], [5, 1], [3, 4], [0, 0]])) is None
        assert zlinalg._solve(s, IntMatrix.from_rows([[2, 1], [5, 1], [3, 6], [0, 0]])) == \
            IntMatrix.from_rows([[2, 1], [5, 1], [1, 2]])

def smith_record_writers(source: str):
    """(functions that append an operation to a Smith record, module-level
    names bound to a number) in the source: one elimination writes every
    record, and no size or density threshold picks between two of them."""
    tree = ast.parse(source)
    writers = sorted({
        fn.name for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "append" and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("row_ops", "col_ops")})
    numbers = [
        (target.id, node.lineno) for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        and isinstance(node.value, ast.Constant) and type(node.value.value) in (int, float)
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)]
    return writers, numbers


class TestOneElimination:
    def test_zlinalg_has_one_elimination_and_no_threshold(self):
        source = Path(zlinalg.__file__).read_text()
        assert smith_record_writers(source) == (["smith_normal_form"], [])
        assert "environ" not in source and "getenv" not in source
        assert list(inspect.signature(smith_normal_form).parameters) == ["m"]

    def test_the_check_finds_a_dense_fallback_and_its_threshold(self):
        source = ("SPARSE_BELOW: float = 0.2\nMIN_ROWS = 64\nNAME = 'x'\n"
                  "def smith_normal_form(m):\n    row_ops = []\n    row_ops.append((0, 1))\n"
                  "def _dense(m):\n    col_ops = []\n    col_ops.append((0, 1))\n")
        assert smith_record_writers(source) == (["_dense", "smith_normal_form"],
                                                [("SPARSE_BELOW", 1), ("MIN_ROWS", 2)])


REMOVED_SOLVERS = ("solve", "solve_with", "rank")


def smith_sites(package: Path):
    """(file, enclosing function) of each call to SmithDecomposition in the
    package, and (file, name) of each module-level name among
    REMOVED_SOLVERS, bound by a def, an assignment or an import: the
    operation record is the one form of a decomposition, and solve_matrix
    the one solver."""
    built, solvers = [], []

    def visit(node, scope, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,), name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if callee == "SmithDecomposition":
                    built.append((name, ".".join(scope)))
            visit(child, scope, name)

    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        visit(tree, (), path.name)
        for node in tree.body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            solvers += [(path.name, x) for x in names if x in REMOVED_SOLVERS]
    return built, solvers


class TestOneDecompositionOneSolve:
    def test_the_record_is_built_in_two_places_and_no_second_solver_exists(self):
        # the elimination, and the one constructor of a matrix born with its
        # decomposition
        assert smith_sites(Path(zlinalg.__file__).parent) == (
            [("zlinalg.py", "born_factored"), ("zlinalg.py", "smith_normal_form")], [])
        assert list(inspect.signature(SmithDecomposition).parameters) == \
            ["D", "row_ops", "col_ops"]

    def test_the_check_finds_a_new_site_and_a_second_solver(self, tmp_path):
        (tmp_path / "extra.py").write_text(
            "from .zlinalg import rank\n"
            "def explicit(u, d, v, m):\n    return zlinalg.SmithDecomposition(u, d, v, m)\n"
            "def solve(m, b):\n    return None\n"
            "solve_with = solve\n"
            "class Complex:\n    def rank(self, n):\n        return 0\n")
        assert smith_sites(tmp_path) == ([("extra.py", "explicit")],
                                         [("extra.py", "rank"), ("extra.py", "solve"),
                                          ("extra.py", "solve_with")])


class TestSolve:
    def test_even_target(self):
        assert solve_matrix(IntMatrix.from_rows([[2]]), IntMatrix.column([4])) == \
            IntMatrix.column([2])

    def test_parity_obstruction(self):
        assert solve_matrix(IntMatrix.from_rows([[2]]), IntMatrix.column([3])) is None

    def test_back_substitution(self):
        # x2 = 2 from the second row, then x1 = 3 - x2 = 1.
        assert solve_matrix(IntMatrix.from_rows([[1, 1], [0, 2]]), IntMatrix.column([3, 4])) == \
            IntMatrix.column([1, 2])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatch):
            solve_matrix(IntMatrix.from_rows([[1, 1]]), IntMatrix.column([1, 2]))

    def test_inconsistent_free_part(self):
        assert solve_matrix(IntMatrix.zeros(2, 2), IntMatrix.column([0, 1])) is None

    def test_solve_matrix_and_left(self):
        m = IntMatrix.from_rows([[1, 2], [0, 3]])
        b = m @ IntMatrix.from_rows([[1, 0], [2, -1]])
        x = solve_matrix(m, b)
        assert x is not None and m @ x == b
        c = IntMatrix.from_rows([[5, 6]]) @ m
        # a left solve X m = c is the transposed solve m^T X^T = c^T
        yt = solve_matrix(m.transpose(), c.transpose())
        assert yt is not None and yt.transpose() @ m == c

    def test_random_solvable_and_certified_none(self):
        rng = random.Random(3)
        for _ in range(40):
            m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            x0 = [rng.randint(-3, 3) for _ in range(m.cols)]
            b = IntMatrix.column(m.apply(x0))
            x = solve_matrix(m, b)
            assert x is not None and m @ x == b


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
            assert smith_normal_form(k).rank == k.cols  # full column rank
            assert smith_normal_form(m).rank + k.cols == m.cols
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
            assert smith_normal_form(c.projection).rank == g.generator_count


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

    def test_negative_free_rank_rejected(self):
        # canonical(-1) used to be the trivial group, and canonical(-2, [2])
        # an IndexError inside IntMatrix.diagonal
        for free_rank, torsion in ((-1, ()), (-2, (2,)), (-1, (2, 4))):
            with pytest.raises(ValueError, match=f"^negative free rank {free_rank}$"):
                FPAbGroup.canonical(free_rank, torsion)
        assert FPAbGroup.canonical(0, [2]).describe() == "Z/2"
        with pytest.raises(TypeError):
            FPAbGroup.canonical(0, [2.5])

    @pytest.mark.parametrize("free_rank", [1.5, 2.0, True])
    def test_non_int_free_rank_rejected(self, free_rank):
        # canonical(1.5) used to die with "can't multiply sequence by non-int"
        with pytest.raises(ValueError, match=f"^free rank {free_rank!r} is not an integer$"):
            FPAbGroup.canonical(free_rank)

    def test_length_mismatch(self):
        g = FPAbGroup.free(2)
        with pytest.raises(ShapeMismatch):
            g.element_equal([1], [1, 0])

    @settings(max_examples=200, deadline=None)
    @given(int_matrices(max_dim=5), st.integers(0, 4), st.booleans(), st.data())
    def test_presents_zero_agrees_with_element_equal_column_by_column(
            self, pres, width, perturb, data):
        # m: combinations of the relations, with every column perhaps moved
        g = FPAbGroup(pres)
        rows, k = pres.rows, pres.cols
        m = pres @ IntMatrix(k, width, data.draw(st.lists(
            st.integers(-3, 3), min_size=k * width, max_size=k * width)))
        if perturb:
            m = m + IntMatrix(rows, width, data.draw(st.lists(
                st.integers(-2, 2), min_size=rows * width, max_size=rows * width)))
        zero = (0,) * rows
        by_column = [g.element_equal(m.col(j), zero) for j in range(width)]
        assert g.presents_zero(m) == all(by_column)
        assert [g.presents_zero(m.select_cols([j])) for j in range(width)] == by_column
        assert g.presents_zero(IntMatrix.zeros(rows, 0))
        with pytest.raises(ShapeMismatch):
            g.presents_zero(IntMatrix.zeros(rows + 1, width))


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
        for m in (IntMatrix.zeros(2, 2), IntMatrix.from_rows([[1, 2], [2, 4]]),
                  IntMatrix.diagonal([1, 3])):
            with pytest.raises(ValueError, match="not unimodular"):
                inverse_unimodular(m)
        with pytest.raises(ShapeMismatch):
            inverse_unimodular(IntMatrix.zeros(2, 3))


@st.composite
def operation_records(draw, max_dim=6, max_ops=12):
    """(n, record): additions with multipliers in [-3, 3], swaps and
    negations on n rows, in the form smith_normal_form records them."""
    n = draw(st.integers(0, max_dim))
    if n == 0:
        return n, []
    row = st.integers(0, n - 1)
    ops = [st.tuples(row)]
    if n > 1:
        pair = st.tuples(row, row).filter(lambda p: p[0] != p[1])
        ops += [pair, st.builds(lambda p, c: p + (c,), pair, st.integers(-3, 3))]
    return n, draw(st.lists(st.one_of(ops), max_size=max_ops))


def fresh_copy(m: IntMatrix) -> IntMatrix:
    """An equal matrix that holds no decomposition."""
    return IntMatrix(m.rows, m.cols, m.entries())


def assert_inverted_by_replay(zlinalg_calls, m: IntMatrix):
    """inverse_unimodular(m) looks up the decomposition m was born with and
    eliminates nothing, and equals the inverse by a fresh elimination."""
    assert m._snf is not None
    with zlinalg_calls("smith_normal_form") as made:
        inv = inverse_unimodular(m)
    assert made == [m._snf] and made.eliminated == []
    with zlinalg_calls("smith_normal_form") as made:
        assert inverse_unimodular(fresh_copy(m)) == inv
    assert len(made) == 1 and len(made.eliminated) == 1
    assert m @ inv == IntMatrix.identity(m.rows) == inv @ m


class TestBornFactored:
    """U, V, rand_unimodular matrices and canonical presentations are born
    with their decomposition; inverting or factoring them must give what a
    fresh elimination of an equal matrix gives."""

    @settings(max_examples=200, deadline=None)
    @given(int_matrices())
    @example(IntMatrix.zeros(0, 0))
    @example(IntMatrix.zeros(3, 2))
    @example(FULL_RANK)
    def test_transforms_of_an_elimination(self, zlinalg_calls, m):
        s = smith_normal_form(m)
        for t in (s.U, s.V):
            assert_inverted_by_replay(zlinalg_calls, t)
            assert smith_normal_form(t).D == smith_normal_form(fresh_copy(t)).D

    @settings(max_examples=200, deadline=None)
    @given(operation_records(), operation_records())
    def test_transforms_of_random_records(self, zlinalg_calls, rows, cols):
        (n, row_ops), (c, col_ops) = rows, cols
        col_ops = [op for op in col_ops if len(op) > 1]   # no column negations are recorded
        s = SmithDecomposition(IntMatrix.zeros(n, c), row_ops, col_ops)
        assert_inverted_by_replay(zlinalg_calls, s.U)
        assert_inverted_by_replay(zlinalg_calls, s.V)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 7), st.integers(0, 12))
    def test_rand_unimodular(self, zlinalg_calls, seed, n, ops):
        assert_inverted_by_replay(zlinalg_calls, rand_unimodular(random.Random(seed), n, ops))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4), st.lists(st.integers(2, 4), max_size=4))
    def test_canonical_presentation(self, free_rank, steps):
        torsion = [steps[0]] if steps else []
        for k in steps[1:]:
            torsion.append(torsion[-1] * (k - 1))   # each divides the next
        g = FPAbGroup.canonical(free_rank, torsion)
        p = g.presentation
        s = smith_normal_form(p)
        assert s is g._snf and s.D == p and s.D is not p
        assert_same_elimination(s, fresh_copy(p))
        assert (g.free_rank, g.torsion) == (free_rank, tuple(torsion))

    def test_a_matrix_is_born_once(self):
        m = IntMatrix.identity(2)
        smith_normal_form(m)
        with pytest.raises(ValueError, match="already holds"):
            zlinalg.born_factored(m, IntMatrix.identity(2), [])
