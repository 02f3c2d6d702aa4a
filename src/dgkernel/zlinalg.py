"""Exact integer linear algebra.

Smith normal form, integer solving, kernels, cokernels, and finitely
presented abelian groups.  Every morphism in the rest of the package is
ultimately a dense matrix of arbitrary-precision Python integers, and
every homological computation reduces to the routines here.  Smith normal
form records its row and column operations; solving, kernels and inverses
apply that record to their operand and never form the transforms U or V.

Matrices are immutable; 0xN and Nx0 matrices are valid and behave as
zero maps.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


class ShapeMismatch(ValueError):
    """Operands have incompatible dimensions."""


class IntMatrix:
    """Immutable dense integer matrix, row-major."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        if rows < 0 or cols < 0:
            raise ShapeMismatch(f"negative dimensions {rows}x{cols}")
        e = tuple(map(int, entries))
        if len(e) != rows * cols:
            raise ShapeMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(e)}"
            )
        self.rows = rows
        self.cols = cols
        self._e = e

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, rows_list: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = len(rows_list)
        if rows == 0:
            return cls(0, 0 if cols is None else cols, ())
        width = len(rows_list[0])
        if cols is not None and cols != width:
            raise ShapeMismatch("explicit cols disagrees with row width")
        flat = []
        for r in rows_list:
            if len(r) != width:
                raise ShapeMismatch("ragged rows")
            flat.extend(r)
        return cls(rows, width, flat)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[int]], rows: int) -> "IntMatrix":
        """The rows x len(cols) matrix whose j-th column is cols[j]."""
        if any(len(c) != rows for c in cols):
            raise ShapeMismatch(f"columns must have length {rows}")
        return cls(rows, len(cols), (c[i] for i in range(rows) for c in cols))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def diagonal(cls, entries: Sequence[int], rows: Optional[int] = None, cols: Optional[int] = None) -> "IntMatrix":
        k = len(entries)
        rows = k if rows is None else rows
        cols = k if cols is None else cols
        m = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(entries):
            m[i][i] = int(d)
        return cls.from_rows(m, cols)

    @classmethod
    def column(cls, entries: Sequence[int]) -> "IntMatrix":
        return cls(len(entries), 1, entries)

    # -- access -------------------------------------------------------

    def __getitem__(self, ij) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i},{j}) out of range for {self.rows}x{self.cols}")
        return self._e[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self._e[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self._e[j :: self.cols] if self.cols else ()

    def entries(self) -> tuple:
        return self._e

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self._e)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- algebra ------------------------------------------------------

    def _check_same_shape(self, other: "IntMatrix"):
        if self.shape != other.shape:
            raise ShapeMismatch(f"shape {self.shape} vs {other.shape}")

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_same_shape(other)
        return IntMatrix(self.rows, self.cols, (a + b for a, b in zip(self._e, other._e)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_same_shape(other)
        return IntMatrix(self.rows, self.cols, (a - b for a, b in zip(self._e, other._e)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, (-a for a in self._e))

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, (c * a for a in self._e))

    def __rmul__(self, c: int) -> "IntMatrix":
        if not isinstance(c, int):
            return NotImplemented
        return self.scale(c)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, k, m = self.rows, self.cols, other.cols
        out = [0] * (n * m)
        se, oe = self._e, other._e
        for i in range(n):
            base = i * k
            for t in range(k):
                a = se[base + t]
                if a:
                    ob = t * m
                    rb = i * m
                    for j in range(m):
                        out[rb + j] += a * oe[ob + j]
        return IntMatrix(n, m, out)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         (self._e[i * self.cols + j]
                          for j in range(self.cols) for i in range(self.rows)))

    def apply(self, vec: Sequence[int]) -> tuple:
        """Matrix times column vector, returned as a tuple."""
        if len(vec) != self.cols:
            raise ShapeMismatch(f"vector length {len(vec)} vs {self.cols} columns")
        return tuple(
            sum(self._e[i * self.cols + j] * vec[j] for j in range(self.cols))
            for i in range(self.rows)
        )

    def select_rows(self, idx: Sequence[int]) -> "IntMatrix":
        flat = []
        for i in idx:
            flat.extend(self.row(i))
        return IntMatrix(len(idx), self.cols, flat)

    def select_cols(self, idx: Sequence[int]) -> "IntMatrix":
        flat = []
        for i in range(self.rows):
            r = self.row(i)
            flat.extend(r[j] for j in idx)
        return IntMatrix(self.rows, len(idx), flat)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack needs equal row counts")
        flat = []
        for i in range(self.rows):
            flat.extend(self.row(i))
            flat.extend(other.row(i))
        return IntMatrix(self.rows, self.cols + other.cols, flat)

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ShapeMismatch("vstack needs equal column counts")
        return IntMatrix(self.rows + other.rows, self.cols, self._e + other._e)

    # -- dunder housekeeping -------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self._e == other._e

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._e))

    def __repr__(self) -> str:
        if self.rows * self.cols == 0:
            return f"IntMatrix({self.rows}, {self.cols}, ())"
        return "IntMatrix.from_rows(%r)" % (self.to_lists(),)


def block_matrix(blocks: Sequence[Sequence[IntMatrix]]) -> IntMatrix:
    """Assemble a matrix from a 2D grid of blocks with consistent sizes."""
    if not blocks:
        return IntMatrix.zeros(0, 0)
    row_heights = [r[0].rows for r in blocks]
    col_widths = [b.cols for b in blocks[0]]
    for r in blocks:
        if len(r) != len(col_widths):
            raise ShapeMismatch("ragged block grid")
        for b, w in zip(r, col_widths):
            if b.cols != w:
                raise ShapeMismatch("inconsistent block widths")
        if any(b.rows != r[0].rows for b in r):
            raise ShapeMismatch("inconsistent block heights")
    flat = []
    for r in blocks:
        for i in range(r[0].rows):
            for b in r:
                flat.extend(b.row(i))
    return IntMatrix(sum(row_heights), sum(col_widths), flat)


def block_diagonal(blocks: Sequence[IntMatrix]) -> IntMatrix:
    grid = []
    for i, b in enumerate(blocks):
        grid.append([
            b if i == j else IntMatrix.zeros(b.rows, blocks[j].cols)
            for j in range(len(blocks))
        ])
    return block_matrix(grid) if grid else IntMatrix.zeros(0, 0)


def determinant(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if not m.is_square():
        raise ShapeMismatch("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class SmithDecomposition:
    """U @ M @ V == D with U, V unimodular and D in Smith normal form.

    D is canonical for M; U and V are not, and must never be compared
    across implementations.

    :func:`smith_normal_form` computes D alone and records its row and
    column operations; :meth:`u_times` and :meth:`v_times` apply the record
    to an operand, and the `U` and `V` properties apply it to the identity
    once, on first read.  Explicit U and V may be given instead; then there
    is no record and the two methods multiply by the matrices.
    """

    __slots__ = ("_U", "D", "_V", "source", "diagonal", "rank", "_row_ops", "_col_ops")

    def __init__(self, U: Optional[IntMatrix], D: IntMatrix, V: Optional[IntMatrix],
                 source: IntMatrix):
        self._U = U
        self.D = D
        self._V = V
        self.source = source
        self._row_ops = self._col_ops = None
        self.diagonal = tuple(D[i, i] for i in range(min(D.rows, D.cols)))
        self.rank = sum(1 for d in self.diagonal if d != 0)

    @classmethod
    def _recorded(cls, D: IntMatrix, source: IntMatrix, row_ops: list, col_ops: list):
        s = cls(None, D, None, source)
        s._row_ops = row_ops
        s._col_ops = col_ops
        return s

    def u_times(self, b: IntMatrix) -> IntMatrix:
        """U @ b: the row operations, in order, on the rows of b."""
        if self._row_ops is None:
            return self._U @ b
        return _ops_applied(b, self._row_ops, self.D.rows)

    def v_times(self, b: IntMatrix) -> IntMatrix:
        """V @ b: the column operations, last first, as row operations on
        the rows of b (V is I times one elementary matrix per operation)."""
        if self._col_ops is None:
            return self._V @ b
        return _ops_applied(b, reversed(self._col_ops), self.D.cols)

    @property
    def U(self) -> IntMatrix:
        if self._U is None:
            self._U = self.u_times(IntMatrix.identity(self.D.rows))
        return self._U

    @property
    def V(self) -> IntMatrix:
        if self._V is None:
            self._V = self.v_times(IntMatrix.identity(self.D.cols))
        return self._V

    @property
    def invariant_factors(self) -> tuple:
        """Nonzero diagonal entries, in divisibility order."""
        return tuple(d for d in self.diagonal if d != 0)

    def __repr__(self) -> str:
        return f"SmithDecomposition(diagonal={list(self.diagonal)})"


def _ops_applied(b: IntMatrix, ops, n: int) -> IntMatrix:
    """b after recorded row operations on an n-row operand: (dst, src, c)
    adds c * row src to row dst, (i, j) swaps two rows, (k,) negates row k."""
    if b.rows != n:
        raise ShapeMismatch(f"transform is {n}x{n}, operand has {b.rows} rows")
    t = b.to_lists()
    for op in ops:
        if len(op) == 3:
            dst, src, c = op
            t[dst] = [x + c * y for x, y in zip(t[dst], t[src])]
        elif len(op) == 2:
            i, j = op
            t[i], t[j] = t[j], t[i]
        else:
            t[op[0]] = [-x for x in t[op[0]]]
    return IntMatrix.from_rows(t, b.cols)


def _find_pivot(a, k, m, n):
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


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form over the integers.

    Pivot rule: nonzero entry of least absolute value, ties broken by
    lowest (row, col); this makes the reduction deterministic.

    The elimination runs on M alone and records each operation; the
    record is applied to whatever U or V multiplies, and to the identity
    only when U or V itself is read (see SmithDecomposition).
    At step k every row and column before k is already clear outside the
    diagonal, so operations touch only the trailing submatrix.
    """
    rows, cols = m.rows, m.cols
    a = m.to_lists()
    row_ops = []   # (dst, src, c): row_dst += c * row_src; (i, j): swap; (k,): negate
    col_ops = []   # col_dst += c * col_src as (src, dst, c), its row op on V @ b; (i, j): swap

    for k in range(min(rows, cols)):
        while True:
            piv = _find_pivot(a, k, rows, cols)
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
            # Each column operation adds a multiple of column k, which none
            # of them changes, so all multipliers are known before any runs.
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
                continue  # leftover remainders give a strictly smaller pivot
            if pivot == 1 or pivot == -1:
                break  # a unit divides everything
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
            ab = a[bad_row]
            for j in range(k, cols):
                ak[j] += ab[j]
            row_ops.append((k, bad_row, 1))
        if piv is None:
            break

    # Normalize signs on the diagonal.
    for k in range(min(rows, cols)):
        if a[k][k] < 0:
            a[k][k] = -a[k][k]
            row_ops.append((k,))

    return SmithDecomposition._recorded(IntMatrix.from_rows(a, cols), m, row_ops, col_ops)


def rank(m: IntMatrix) -> int:
    return smith_normal_form(m).rank


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Integer inverse of a unimodular matrix (via U @ M @ V = I)."""
    if not m.is_square():
        raise ShapeMismatch("inverse of a non-square matrix")
    s = smith_normal_form(m)
    if s.D != IntMatrix.identity(m.rows):
        raise ValueError("matrix is not unimodular")
    return s.v_times(s.U)


def solve(m: IntMatrix, b: Sequence[int]) -> Optional[tuple]:
    """One integer solution x of m @ x = b, or None if there is none."""
    if len(b) != m.rows:
        raise ShapeMismatch(f"rhs length {len(b)} vs {m.rows} rows")
    return solve_with(smith_normal_form(m), b)


def solve_with(s: SmithDecomposition, b: Sequence[int]) -> Optional[tuple]:
    """Like :func:`solve` but reusing a precomputed decomposition."""
    x = _solve(s, IntMatrix.column(b))
    return None if x is None else x.entries()


def solve_matrix(m: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """Integer X with m @ X = b, or None; every column in one pass."""
    if b.rows != m.rows:
        raise ShapeMismatch("rhs row count mismatch")
    return _solve(smith_normal_form(m), b)


def _solve(s: SmithDecomposition, b: IntMatrix) -> Optional[IntMatrix]:
    """With U m V = D of rank r: m X = b has a solution iff the rows of
    C = U b from r on vanish and row i < r is divisible by D[i, i]; then
    X = V Z with Z[i] = C[i] / D[i, i] for i < r and zero below."""
    n, w = s.source.cols, b.cols
    if not w:
        return IntMatrix.zeros(n, 0)
    c = s.u_times(b).entries()
    r = s.rank
    if any(c[r * w:]):
        return None
    z = []
    for i, d in enumerate(s.diagonal[:r]):
        for x in c[i * w:(i + 1) * w]:
            q, rem = divmod(x, d)
            if rem:
                return None
            z.append(q)
    z.extend([0] * ((n - r) * w))
    return s.v_times(IntMatrix(n, w, z))


def solve_left(m: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """Integer X with X @ m = b, or None."""
    xt = solve_matrix(m.transpose(), b.transpose())
    return None if xt is None else xt.transpose()


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of the integer kernel of m: the last n - r
    columns of V, i.e. V @ [0; I]."""
    s = smith_normal_form(m)
    n, r = m.cols, s.rank
    if r == n:
        return IntMatrix.zeros(n, 0)
    return s.v_times(IntMatrix(n, n - r, (int(i - r == j) for i in range(n)
                                          for j in range(n - r))))


class FPAbGroup:
    """Finitely presented abelian group in canonical invariant-factor form.

    Presented by an integer matrix whose columns are relations on the
    generators; the canonical form Z^free_rank + Z/t_1 + ... (t_i | t_{i+1},
    all > 1) is derived by Smith normal form.  Equality is canonical-form
    equality, i.e. isomorphism.
    """

    __slots__ = ("free_rank", "torsion", "presentation", "_snf")

    def __init__(self, presentation: IntMatrix):
        self.presentation = presentation
        s = smith_normal_form(presentation)
        self._snf = s
        self.free_rank = presentation.rows - s.rank
        self.torsion = tuple(d for d in s.invariant_factors if d > 1)

    @classmethod
    def canonical(cls, free_rank: int, torsion: Sequence[int] = ()) -> "FPAbGroup":
        torsion = tuple(int(t) for t in torsion)
        for t, t2 in zip(torsion, torsion[1:]):
            if t <= 1 or t2 % t:
                raise ValueError(f"not an invariant-factor chain: {torsion}")
        if torsion and torsion[-1] <= 1:
            raise ValueError(f"invariant factors must exceed 1: {torsion}")
        gens = free_rank + len(torsion)
        pres = IntMatrix.diagonal(torsion, rows=gens, cols=len(torsion))
        return cls(pres)

    @classmethod
    def free(cls, n: int) -> "FPAbGroup":
        return cls.canonical(n)

    @classmethod
    def zero(cls) -> "FPAbGroup":
        return cls.canonical(0)

    @property
    def generator_count(self) -> int:
        return self.presentation.rows

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def is_free(self) -> bool:
        return not self.torsion

    def element_equal(self, x: Sequence[int], y: Sequence[int]) -> bool:
        """Whether x and y present the same element (x - y a relation)."""
        if len(x) != self.generator_count or len(y) != self.generator_count:
            raise ShapeMismatch("element length differs from generator count")
        diff = [a - b for a, b in zip(x, y)]
        return solve_with(self._snf, diff) is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, FPAbGroup):
            return NotImplemented
        return self.free_rank == other.free_rank and self.torsion == other.torsion

    def __hash__(self) -> int:
        return hash((self.free_rank, self.torsion))

    def __repr__(self) -> str:
        return f"FPAbGroup({self.describe()})"

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def element_equal(group: FPAbGroup, x: Sequence[int], y: Sequence[int]) -> bool:
    return group.element_equal(x, y)


class CokernelData:
    """Cokernel of an integer matrix, with the quotient projection.

    `group` is the canonical form of target/im(m); `projection` maps
    ambient coordinates onto the canonical generators (torsion
    generators first, then free ones); `section` picks representatives,
    with projection @ section the identity on generators.
    """

    __slots__ = ("group", "projection", "section")

    def __init__(self, group: FPAbGroup, projection: IntMatrix, section: IntMatrix):
        self.group = group
        self.projection = projection
        self.section = section

    def __repr__(self) -> str:
        return f"CokernelData({self.group.describe()})"


def cokernel(m: IntMatrix) -> CokernelData:
    s = smith_normal_form(m)
    d = s.diagonal
    torsion_rows = [i for i, di in enumerate(d) if di > 1]
    free_rows = list(range(s.rank, m.rows))
    group = FPAbGroup.canonical(len(free_rows), [d[i] for i in torsion_rows])
    projection = s.U.select_rows(torsion_rows + free_rows)
    section = inverse_unimodular(s.U).select_cols(torsion_rows + free_rows)
    return CokernelData(group, projection, section)

