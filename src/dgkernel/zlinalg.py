"""Exact integer linear algebra.

Smith normal form, integer solving, kernels, cokernels, and finitely
presented abelian groups.  Every morphism in the rest of the package is
ultimately a dense matrix of arbitrary-precision Python integers, and
every homological computation reduces to the routines here.  A Smith
decomposition has one form: D and the record of the row and column
operations that reach it, with no explicit transforms.  Solving
(solve_matrix, the one solver), kernels and inverses apply that record to
their operand and never form U or V; a replay costs the nonzeros of its
source rows, not the operand's width.
A matrix keeps its decomposition, so calling smith_normal_form again on
the same object costs a lookup: calls are not factorizations.  Some
matrices are born with their decomposition (`born_factored`), read off
the record that built them, so factoring, solving against or inverting
them eliminates nothing: a kernel basis (V^-1 k = [0; I]), the U and V
of a decomposition and `rand.rand_unimodular`'s output (D = I, the
building operations inverted, last first), and the diagonal presentation
of `FPAbGroup.canonical` (D = the presentation, an empty record).  Products
skip zero entries of both operands, so a sparse product costs its nonzero
terms, not rows x inner x cols.

Matrices are immutable; 0xN and Nx0 matrices are valid and behave as
zero maps.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import add, index, mul, neg, sub
from typing import Iterable, Optional, Sequence


class ShapeMismatch(ValueError):
    """Operands have incompatible dimensions."""


class IntMatrix:
    """Immutable dense integer matrix, row-major."""

    # _snf holds the matrix's SmithDecomposition once smith_normal_form has
    # computed it; it is never set in __init__ and is read with getattr.
    __slots__ = ("rows", "cols", "_e", "_snf")

    def __init__(self, rows: int, cols: int, entries: Iterable[int], _trusted: bool = False):
        # _trusted: entries is already a tuple of rows * cols Python ints (the
        # result of arithmetic on IntMatrix operands), so it is kept as is.
        # Otherwise each entry must be integral (operator.index): 2.7 is
        # rejected with TypeError, not truncated to 2.
        if type(rows) is not int or type(cols) is not int:   # rejects bools too
            raise ValueError(f"matrix dimensions must be ints, got {rows!r} x {cols!r}")
        if rows < 0 or cols < 0:
            raise ShapeMismatch(f"negative dimensions {rows}x{cols}")
        if _trusted:
            e = entries
        else:
            e = tuple(map(index, entries))
            if len(e) != rows * cols:
                raise ShapeMismatch(
                    f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(e)}"
                )
        self.rows = rows
        self.cols = cols
        self._e = e

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, rows_list: Sequence[Sequence[int]], cols: Optional[int] = None,
                  _trusted: bool = False) -> "IntMatrix":
        # _trusted: rows_list holds rows of Python ints, each cols long.
        if _trusted:
            return cls(len(rows_list), cols, tuple(chain.from_iterable(rows_list)), _trusted=True)
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
        # a float dimension reaches the constructor's check, not (0,) * 2.0
        ints = type(rows) is type(cols) is int
        return cls(rows, cols, (0,) * (rows * cols) if ints else (), _trusted=True)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        e = [0] * (n * n)
        e[::n + 1] = [1] * n
        return cls(n, n, tuple(e), _trusted=True)

    @classmethod
    def diagonal(cls, entries: Sequence[int], rows: Optional[int] = None, cols: Optional[int] = None) -> "IntMatrix":
        k = len(entries)
        rows = k if rows is None else rows
        cols = k if cols is None else cols
        if k > min(rows, cols):
            raise ShapeMismatch(f"{k} diagonal entries do not fit a {rows}x{cols} matrix")
        e = [0] * (rows * cols)
        e[:k * (cols + 1):cols + 1] = entries
        return cls(rows, cols, e)

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
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range for {self.rows} rows")
        return self._row(i)

    def _row(self, i: int) -> tuple:
        # row(i) without the range check, for loops over range(self.rows)
        return self._e[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range for {self.cols} columns")
        return self._e[j :: self.cols]

    def entries(self) -> tuple:
        return self._e

    def to_lists(self) -> list:
        e, c = self._e, self.cols
        return [list(e[i * c:i * c + c]) for i in range(self.rows)]

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(self._e)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- algebra ------------------------------------------------------

    def _check_same_shape(self, other: "IntMatrix"):
        if self.shape != other.shape:
            raise ShapeMismatch(f"shape {self.shape} vs {other.shape}")

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_same_shape(other)
        return IntMatrix(self.rows, self.cols, tuple(map(add, self._e, other._e)), _trusted=True)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_same_shape(other)
        return IntMatrix(self.rows, self.cols, tuple(map(sub, self._e, other._e)), _trusted=True)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(map(neg, self._e)), _trusted=True)

    def scale(self, c: int) -> "IntMatrix":
        c = index(c)   # an int scalar keeps every entry an int
        return IntMatrix(self.rows, self.cols, tuple([c * a for a in self._e]), _trusted=True)

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
        se, oe = self._e, other._e
        if not (any(se) and any(oe)):
            return IntMatrix.zeros(n, m)
        # Sparse rows: each nonzero a[i, t] meets only the nonzero entries of
        # row t of other, whose columns are listed once, on first use.
        # compress() finds the nonzero positions of a row without a Python
        # step per zero.
        nonzero = [None] * k
        ks, ms = range(k), range(m)
        out = []
        for i in range(0, n * k, k):
            arow = se[i:i + k]
            acc = [0] * m
            for t in compress(ks, arow):
                ob = t * m
                js = nonzero[t]
                if js is None:
                    js = nonzero[t] = list(compress(ms, oe[ob:ob + m]))
                a = arow[t]
                for j in js:
                    acc[j] += a * oe[ob + j]
            out += acc
        return IntMatrix(n, m, tuple(out), _trusted=True)

    def transpose(self) -> "IntMatrix":
        c = self.cols
        return IntMatrix(c, self.rows, tuple([x for j in range(c) for x in self._e[j::c]]),
                         _trusted=True)

    def apply(self, vec: Sequence[int]) -> tuple:
        """Matrix times column vector, returned as a tuple."""
        c = self.cols
        if len(vec) != c:
            raise ShapeMismatch(f"vector length {len(vec)} vs {c} columns")
        if not c:
            return (0,) * self.rows
        e = self._e
        return tuple([sum(map(mul, e[i:i + c], vec)) for i in range(0, self.rows * c, c)])

    def select_rows(self, idx: Sequence[int]) -> "IntMatrix":
        flat = []
        for i in idx:
            if not 0 <= i < self.rows:
                raise ShapeMismatch(f"row {i} out of range for {self.rows} rows")
            flat.extend(self._row(i))
        return IntMatrix(len(idx), self.cols, tuple(flat), _trusted=True)

    def select_cols(self, idx: Sequence[int]) -> "IntMatrix":
        for j in idx:
            if not 0 <= j < self.cols:
                raise ShapeMismatch(f"column {j} out of range for {self.cols} columns")
        flat = []
        for i in range(self.rows):
            r = self._row(i)
            flat.extend([r[j] for j in idx])
        return IntMatrix(self.rows, len(idx), tuple(flat), _trusted=True)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack needs equal row counts")
        flat = []
        for i in range(self.rows):
            flat.extend(self._row(i))
            flat.extend(other._row(i))
        return IntMatrix(self.rows, self.cols + other.cols, tuple(flat), _trusted=True)

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ShapeMismatch("vstack needs equal column counts")
        return IntMatrix(self.rows + other.rows, self.cols, self._e + other._e, _trusted=True)

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
                flat.extend(b._row(i))
    return IntMatrix(sum(row_heights), sum(col_widths), tuple(flat), _trusted=True)


def block_diagonal(blocks: Sequence[IntMatrix]) -> IntMatrix:
    cols = sum(b.cols for b in blocks)
    flat = []
    left = 0
    for b in blocks:
        pad_left, pad_right = (0,) * left, (0,) * (cols - left - b.cols)
        for i in range(b.rows):
            flat += pad_left
            flat += b._row(i)
            flat += pad_right
        left += b.cols
    return IntMatrix(sum(b.rows for b in blocks), cols, tuple(flat), _trusted=True)


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
    across implementations.  The decomposition keeps D and the record of
    row and column operations that takes M to D, not M itself, so that M
    can hold its decomposition without a reference cycle.

    The record is the only form of a decomposition: :meth:`u_times` and
    :meth:`v_times` apply it to an operand, and the `U` and `V` properties
    apply it to the identity once, on first read.  U and V are born with
    their own decomposition (see `born_factored`): D = I and the record
    that undoes theirs, so inverting either replays a record instead of
    eliminating.
    """

    __slots__ = ("_U", "D", "_V", "diagonal", "rank", "_row_ops", "_col_ops")

    def __init__(self, D: IntMatrix, row_ops: list, col_ops: list):
        self._U = self._V = None
        self.D = D
        self._row_ops = row_ops
        self._col_ops = col_ops
        self.diagonal = D._e[::D.cols + 1][:min(D.rows, D.cols)]
        self.rank = len(self.diagonal) - self.diagonal.count(0)

    def u_times(self, b: IntMatrix) -> IntMatrix:
        """U @ b: the row operations, in order, on the rows of b."""
        return _ops_applied(b, self._row_ops, self.D.rows)

    def v_times(self, b: IntMatrix) -> IntMatrix:
        """V @ b: the column operations, last first, as row operations on
        the rows of b (V is I times one elementary matrix per operation)."""
        return _ops_applied(b, self._col_ops, self.D.cols, backwards=True)

    @property
    def U(self) -> IntMatrix:
        """The row operations on I; U^-1 undoes them, last first."""
        if self._U is None:
            self._U = _born_transform(self.u_times, self.D.rows,
                                      [_inverse_op(op) for op in reversed(self._row_ops)])
        return self._U

    @property
    def V(self) -> IntMatrix:
        """The column operations, last first, on I; V^-1 undoes them in
        forward order."""
        if self._V is None:
            self._V = _born_transform(self.v_times, self.D.cols,
                                      [_inverse_op(op) for op in self._col_ops])
        return self._V

    @property
    def invariant_factors(self) -> tuple:
        """Nonzero diagonal entries, in divisibility order."""
        return tuple(d for d in self.diagonal if d != 0)

    def __repr__(self) -> str:
        return f"SmithDecomposition(diagonal={list(self.diagonal)})"


def _inverse_op(op: tuple) -> tuple:
    """The operation that undoes a recorded one: an addition with the
    opposite multiplier; a swap and a negation undo themselves."""
    return (op[0], op[1], -op[2]) if len(op) == 3 else op


def born_factored(m: IntMatrix, D: IntMatrix, row_ops: list) -> IntMatrix:
    """m, freshly built, holding the decomposition U m = D (V = I) that its
    construction recorded: row_ops, in smith_normal_form's form, take m to
    D.  smith_normal_form(m) then returns it without eliminating.  D must
    be m's Smith form, and a new matrix, so that the decomposition holds
    no reference to m."""
    if getattr(m, "_snf", None) is not None:
        raise ValueError("matrix already holds a decomposition")
    m._snf = SmithDecomposition(D, row_ops, [])
    return m


def _born_transform(times, n: int, undo: list) -> IntMatrix:
    """times(I), born with D = I and the record undo that takes it back to
    I.  The identity the record replayed on is D, unless the replay
    returned it unchanged."""
    i = IntMatrix.identity(n)
    t = times(i)
    return born_factored(t, IntMatrix.identity(n) if t is i else i, undo)


def _ops_applied(b: IntMatrix, ops: list, n: int, backwards: bool = False) -> IntMatrix:
    """b after recorded row operations on an n-row operand, last first if
    backwards: (dst, src, c) adds c * row src to row dst (dst != src),
    (i, j) swaps two rows, (k,) negates row k.  An empty record or a
    zero-width b returns b itself.

    A replay costs the nonzeros of its source rows, not the operand's
    width: each row is a dict of its nonzero columns, an addition visits
    the nonzeros of row src and drops entries that cancel, and the dense
    result is written once, at the end."""
    if b.rows != n:
        raise ShapeMismatch(f"transform is {n}x{n}, operand has {b.rows} rows")
    e, w = b._e, b.cols
    if not (ops and w):
        return b
    t = [{} for _ in range(n)]
    for p in compress(range(n * w), e):
        i, j = divmod(p, w)
        t[i][j] = e[p]
    for op in reversed(ops) if backwards else ops:
        if len(op) == 3:
            dst, src, c = op
            td = t[dst]
            for j, y in t[src].items():
                x = td.get(j, 0) + c * y
                if x:
                    td[j] = x
                else:
                    td.pop(j, None)
        elif len(op) == 2:
            i, j = op
            t[i], t[j] = t[j], t[i]
        else:
            t[op[0]] = {j: -x for j, x in t[op[0]].items()}
    out = [0] * (n * w)
    for i, r in enumerate(t):
        for j, x in r.items():
            out[i * w + j] = x
    return IntMatrix(n, w, tuple(out), _trusted=True)


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form over the integers.

    Pivot rule: nonzero entry of least absolute value, ties broken by
    lowest (row, col); this makes the reduction deterministic.

    The elimination runs on M alone and records each operation; the
    record is applied to whatever U or V multiplies, and to the identity
    only when U or V itself is read (see SmithDecomposition).
    At step k every row and column before k is already clear outside the
    diagonal, so operations touch only the trailing submatrix.

    The loop skips work on entries it can prove zero, and makes the
    choices and writes the record of the plain dense elimination exactly
    (tests/test_zlinalg.py keeps that elimination as its oracle).  At step
    k the rows from k on are zero left of column k, so a row's entries are
    those of its part of the trailing block, and:
    - A dead row stays zero.  A row operation adds to row i only when
      a_ik != 0, and a column operation adds c * a_ik = 0 to a zero row,
      so a row the pivot scan finds zero is zero for good.  Its mark moves
      with it in row swaps; the pivot scan, the column swap and the
      divisibility scan pass it by, and both elimination loops, which
      touch only rows with a_ik != 0, never reach it.
    - Only the pivot row's nonzeros move: adding c * row k to row i
      changes row i only in the columns where row k is nonzero.
    - A row's least nonzero |entry| changes only when an operation adds
      to the row (a column swap permutes its entries), so least[i] keeps
      it between pivot scans, 0 marks a dead row and None a row changed
      since its last scan; the pivot scan reads the kept value of every
      other row instead of scanning it.

    Each matrix is factored once: the decomposition is stored on m, and a
    later call with the same object returns it (IntMatrix is immutable).
    So the number of calls is not the number of factorizations; a call on
    an equal but distinct matrix factors again.
    """
    s = getattr(m, "_snf", None)
    if s is not None:
        return s
    rows, cols = m.rows, m.cols
    row_ops = []   # (dst, src, c): row_dst += c * row_src; (i, j): swap; (k,): negate
    col_ops = []   # col_dst += c * col_src as (src, dst, c), its row op on V @ b; (i, j): swap
    if not any(m._e):
        # zero is its own Smith form: the record is empty, and D is a new
        # matrix on m's entries, so that the decomposition holds no reference to m
        D = IntMatrix(rows, cols, m._e, _trusted=True)
    else:
        a = m.to_lists()
        least = [None] * rows   # least nonzero |entry| of row i; 0: dead; None: not known

        for k in range(min(rows, cols)):
            while True:
                # The pivot (pi, pj): a nonzero entry of least absolute value in
                # the trailing block, ties broken by lowest (row, col).  A row
                # not known is scanned, which gives its column too; for a kept
                # row, pj is None until the row is chosen.
                best = 0
                for i in range(k, rows):
                    v, vj = least[i], None
                    if v is None:
                        ai = a[i]
                        v = 0
                        for j in range(k, cols):
                            x = ai[j]
                            if x:
                                if x < 0:
                                    x = -x
                                if not v or x < v:
                                    v, vj = x, j
                                    if x == 1:
                                        break
                        least[i] = v
                    if v and (not best or v < best):
                        best, pi, pj = v, i, vj
                        if v == 1:
                            break
                if not best:
                    break
                ap = a[pi]
                if pj is None:   # the first column holding +-best
                    pj = ap.index(best) if best in ap else cols
                    if -best in ap:
                        pj = min(pj, ap.index(-best))
                if pi != k:
                    a[k], a[pi] = ap, a[k]
                    least[k], least[pi] = least[pi], least[k]
                    row_ops.append((k, pi))
                if pj != k:
                    for i in range(k, rows):
                        if least[i] != 0:
                            ai = a[i]
                            ai[k], ai[pj] = ai[pj], ai[k]
                    col_ops.append((k, pj))
                ak = a[k]
                pivot = ak[k]
                nz = [(j, ak[j]) for j in range(k, cols) if ak[j]]   # nz[0] is the pivot
                clean = True
                for i in range(k + 1, rows):
                    ai = a[i]
                    if ai[k]:
                        c = -(ai[k] // pivot)
                        for j, x in nz:
                            ai[j] += c * x
                        row_ops.append((i, k, c))
                        least[i] = None
                        if ai[k]:
                            clean = False
                # Each column operation adds a multiple of column k, which none
                # of them changes, so all multipliers are known before any runs.
                # They add to the rows with a_ik != 0: row k and rows the loop
                # above has already marked.
                qs = []
                for j, x in nz[1:]:
                    c = -(x // pivot)
                    qs.append((j, c))
                    col_ops.append((k, j, c))
                if qs:
                    least[k] = None
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
                # Below row k a row is zero up to column k (the step is clean),
                # so its nonzero entries are those of the trailing block.
                bad_row = None
                rem = pivot.__rmod__   # rem(x) == x % pivot
                for i in range(k + 1, rows):
                    if least[i] != 0 and any(map(rem, filter(None, a[i]))):
                        bad_row = i
                        break
                if bad_row is None:
                    break
                ab = a[bad_row]
                for j in range(k, cols):
                    ak[j] += ab[j]
                row_ops.append((k, bad_row, 1))
                least[k] = None
            if not best:
                break

        # Normalize signs on the diagonal.
        for k in range(min(rows, cols)):
            if a[k][k] < 0:
                a[k][k] = -a[k][k]
                row_ops.append((k,))

        D = IntMatrix.from_rows(a, cols, _trusted=True)
    s = m._snf = SmithDecomposition(D, row_ops, col_ops)
    return s


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Integer inverse of a unimodular matrix: with U M V = I, M^-1 = V U,
    the record applied to the identity.  A matrix born with its
    decomposition (U, V, `rand.rand_unimodular`) is inverted by replay."""
    if not m.is_square():
        raise ShapeMismatch("inverse of a non-square matrix")
    s = smith_normal_form(m)
    if s.diagonal.count(1) != m.rows:
        raise ValueError("matrix is not unimodular")
    return s.v_times(s.u_times(IntMatrix.identity(m.rows)))


def solve_matrix(m: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """Integer X with m @ X = b, or None; every column in one pass."""
    if b.rows != m.rows:
        raise ShapeMismatch("rhs row count mismatch")
    return _solve(smith_normal_form(m), b)


def _solve(s: SmithDecomposition, b: IntMatrix) -> Optional[IntMatrix]:
    """With U m V = D of rank r: m X = b has a solution iff the rows of
    C = U b from r on vanish and row i < r is divisible by D[i, i]; then
    X = V Z with Z[i] = C[i] / D[i, i] for i < r and zero below.  Unit
    factors come first, and only the rows of the others are divided.  A Z
    equal to C is passed on as C, with any decomposition C holds."""
    n, w = s.D.cols, b.cols
    if not w:
        return IntMatrix.zeros(n, 0)
    cm = s.u_times(b)
    c, r = cm._e, s.rank
    if any(c[r * w:]):
        return None
    units = s.diagonal.count(1)
    divided = []
    for i in range(units, r):
        d = s.diagonal[i]
        for x in c[i * w:(i + 1) * w]:
            q, rem = divmod(x, d)
            if rem:
                return None
            divided.append(q)
    z = c[:units * w] + tuple(divided) + (0,) * ((n - r) * w)
    return s.v_times(cm if z == c else IntMatrix(n, w, z, _trusted=True))


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of the integer kernel of m: the last n - r
    columns of V, i.e. k = V @ [0; I].

    The basis carries its Smith decomposition, so smith_normal_form(k) is
    a lookup: V^-1 k = [0; I], and swapping row i with row r + i brings
    that to D = [I; 0].  U is V^-1 then those swaps, recorded as the
    parent's column operations in forward order, each inverted, as row
    operations; V is the identity."""
    s = smith_normal_form(m)
    n, r = m.cols, s.rank
    if r == n:
        k = IntMatrix.zeros(n, 0)
        row_ops = []   # every U takes an n x 0 matrix to D
    else:
        k = s.v_times(IntMatrix.zeros(r, n - r).vstack(IntMatrix.identity(n - r)))
        row_ops = [_inverse_op(op) for op in s._col_ops]
        if r:
            row_ops += [(i, r + i) for i in range(n - r)]
    return born_factored(k, IntMatrix.identity(n - r).vstack(IntMatrix.zeros(r, n - r)), row_ops)


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
        if type(free_rank) is not int:
            raise ValueError(f"free rank {free_rank!r} is not an integer")
        if free_rank < 0:
            raise ValueError(f"negative free rank {free_rank}")
        torsion = tuple(map(index, torsion))
        for t, t2 in zip(torsion, torsion[1:]):
            if t <= 1 or t2 % t:
                raise ValueError(f"not an invariant-factor chain: {torsion}")
        if torsion and torsion[-1] <= 1:
            raise ValueError(f"invariant factors must exceed 1: {torsion}")
        gens = free_rank + len(torsion)
        pres = IntMatrix.diagonal(torsion, rows=gens, cols=len(torsion))
        # already in Smith form: elimination would record no operation
        return cls(born_factored(pres, IntMatrix(gens, len(torsion), pres._e, _trusted=True), []))

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

    def presents_zero(self, m: IntMatrix) -> bool:
        """Whether every column of m is a relation: one solve against the
        stored decomposition."""
        if m.rows != self.generator_count:
            raise ShapeMismatch("row count differs from generator count")
        return _solve(self._snf, m) is not None

    def element_equal(self, x: Sequence[int], y: Sequence[int]) -> bool:
        """Whether x and y present the same element (x - y a relation)."""
        if len(x) != self.generator_count or len(y) != self.generator_count:
            raise ShapeMismatch("element length differs from generator count")
        return self.presents_zero(IntMatrix.column([a - b for a, b in zip(x, y)]))

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

