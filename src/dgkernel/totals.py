"""Double complexes and totalization.

Complexes of complexes, the total complex with the alternating inner
sign, the weight that computes totalization as a coend, and the graded
adjunction between totalization and the single-column embedding.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from .complexes import (
    BlockLayout,
    ChainMap,
    Complex,
    HomSpace,
    LazySpace,
    _alternates,
    _is_int,
    _is_cycle,
    _nonzero_entries,
    compose,
    identity_map,
    postcomposition,
    precomposition,
    scatter_kron,
    suspension,
    unit_complex,
    functor_L,
)
from .dgcat import (
    LEFT,
    DGModule,
    FiniteDGCategory,
    ell_op_window_category,
    weighted_colimit,
)
from .monoidal import TensorSpace
from .zlinalg import IntMatrix, ShapeMismatch, inverse_unimodular


def _tot_sign(m: int) -> int:
    # inner differential of column m enters Tot with sign (-1)^m
    return -1 if m % 2 else 1


class DoubleComplex:
    """Columns A_m (bounded complexes, finitely many nonzero) joined by
    degree-0 chain maps delta_m: A_m -> A_{m-1} with delta o delta = 0."""

    def __init__(self, columns: Mapping[int, Complex], delta: Mapping[int, ChainMap]):
        for m in [*columns, *delta]:
            if not _is_int(m):
                raise ValueError(f"column index {m!r} is not an integer")
        self.columns = {m: c for m, c in columns.items() if not c.is_zero()}
        self.delta = {}
        for m, d in delta.items():
            if d.degree != 0:
                raise ShapeMismatch(f"delta_{m} must have degree 0")
            if d.source != self.column(m) or d.target != self.column(m - 1):
                raise ShapeMismatch(f"delta_{m} does not join column {m} to {m - 1}")
            # a ChainMap was proved a chain map when it was built
            if not (isinstance(d, ChainMap) or _is_cycle(d)):
                raise ShapeMismatch(f"delta_{m} is not a chain map")
            if not d.is_zero():
                self.delta[m] = d
        for m in list(self.delta):
            if m + 1 in self.delta:
                if not compose(self.delta[m], self.delta[m + 1]).is_zero():
                    raise ShapeMismatch(f"delta_{m} o delta_{m + 1} != 0")

    def column(self, m: int) -> Complex:
        return self.columns.get(m, Complex.zero())

    def delta_map(self, m: int) -> ChainMap:
        d = self.delta.get(m)
        if d is None:
            return ChainMap(self.column(m), self.column(m - 1), 0, {}, _trusted=True)
        return d

    def column_degrees(self) -> List[int]:
        return sorted(self.columns)

    def is_zero(self) -> bool:
        return not self.columns

    def entry_rank(self, m: int, n: int) -> int:
        return self.column(m).rank(n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DoubleComplex):
            return NotImplemented
        return self.columns == other.columns and self.delta == other.delta

    def __repr__(self) -> str:
        return f"DoubleComplex(columns at {self.column_degrees()})"


def embed_i(x: Complex) -> DoubleComplex:
    """The single-column embedding at 0."""
    return DoubleComplex({0: x}, {})


class TotSpace(LazySpace):
    """Basis bookkeeping for Tot A, built lazily (`LazySpace`): the degree-n
    basis is a BlockLayout with one block per column m, by ascending m,
    holding the basis of A_{m, n-m} in order."""

    def __init__(self, a: DoubleComplex):
        self.a = a
        self.layout = lay = BlockLayout()
        cols = a.column_degrees()
        if cols:
            lo = min(a.column(m).lo + m for m in cols)
            hi = max(a.column(m).hi + m for m in cols)
            for n in range(lo, hi + 1):
                for m in cols:
                    lay.add(n, m, a.entry_rank(m, n - m))

    def _square_zero(self) -> bool:
        # d d x = (s(m) + s(m-1)) delta d x for x in column m, since d d = 0,
        # delta delta = 0 and delta d = d delta (checked by DoubleComplex)
        return _alternates(_tot_sign, self.a.column_degrees())

    def slot(self, n: int, m: int, i: int) -> int:
        return self.layout.slot(n, m, i)

    def _differentials(self, outs: Dict[int, List[List[int]]]) -> None:
        # d(x) = delta(x) + (-1)^m d(x) for x in column m.  Only stored maps
        # are nonzero, and each one's target block exists.
        lay = self.layout
        for n, out in outs.items():
            for m, _, _, off in lay.blocks(n):
                delta, d = self.a.delta_map(m).comps(), self.a.column(m).diffs()
                if n - m in delta:   # delta_m: A_{m,n-m} -> A_{m-1,n-m}
                    scatter_kron(out, lay.slot(n - 1, m - 1), off, delta[n - m])
                if n - m in d:       # d of column m: A_{m,n-m} -> A_{m,n-m-1}
                    scatter_kron(out, lay.slot(n - 1, m), off, d[n - m], sign=_tot_sign(m))


def total_complex(a: DoubleComplex) -> Complex:
    """Tot A with d(x) = delta(x) + (-1)^m d(x) for x in column m."""
    return TotSpace(a).complex


# -- the totalization weight --------------------------------------------------


def weight_J(window: int) -> Tuple[FiniteDGCategory, DGModule]:
    """The weight computing Tot: over the window category, the value at m
    is S^m L Z, one Z in each of the degrees m - 1 and m, and the
    index-raising generator acts by the shifted differential S^m d.  Every
    hom is Z, so there are two action shapes: u = v acts by the identity,
    and u = v + 1 sends the degree-v slot of S^v L Z to the lower slot of
    S^{v+1} L Z."""
    cat = ell_op_window_category(window)
    k0 = unit_complex()
    lz = functor_L(k0)
    values = {m: suspension(lz, m) for m in cat.objects}
    # hom(v, v) and hom(v + 1, v) both act on S^v L Z (x) Z
    domains = {v: TensorSpace(values[v], k0).complex for v in cat.objects}
    actions = {}
    for (u, v) in cat.homs:
        # S^v L Z (x) Z is S^v L Z on the same basis, so u = v is its identity;
        # u = v + 1 is zero off degree v and lands on the lower slot of
        # S^{v+1} L Z, a cycle, so f d = 0 = d f
        degrees = (v - 1, v) if u == v else (v,)
        actions[(u, v)] = ChainMap(domains[v], values[u], 0,
                                   {n: IntMatrix.identity(1) for n in degrees}, _trusted=True)
    return cat, DGModule(cat, values, actions)


def double_complex_as_left_module(cat: FiniteDGCategory, a: DoubleComplex) -> DGModule:
    """A double complex as a diagram over the window category: the
    generator m -> m-1 acts by delta_m."""
    values = {m: a.column(m) for m in cat.objects}
    actions = {}
    for (u, v), hom in cat.homs.items():
        act = identity_map(values[u]) if u == v else a.delta_map(u)   # u = v + 1: A_u -> A_v
        # every hom of the window category is Z in degree 0, so Z (x) A_u is
        # A_u on the same basis and the action is act, a chain map
        actions[(u, v)] = ChainMap(TensorSpace(hom, values[u]).complex, values[v], 0,
                                   act._c, _trusted=True)
    return DGModule(cat, values, actions, LEFT)


def _triangular_sign(m: int) -> int:
    return -1 if (m * (m + 1) // 2) % 2 else 1


def tot_via_weighted_colimit(a: DoubleComplex) -> Tuple[ChainMap, ChainMap]:
    """Compute colim(J, A) as a coend and return mutually inverse chain
    maps (colim(J, A) -> Tot A, Tot A -> colim(J, A)).

    The window is max |m| + 1 over the columns m: the lower slot of column
    m reaches object m - 1, so the lowest column has an object below it.
    The comparison sends the class of (slot p of S^m L Z) (x) x to x in
    column m (p = m) or to delta_m(x) in column m-1 (p = m-1), twisted by
    the triangular sign needed to match the alternating inner sign of Tot.
    """
    cols = a.column_degrees()
    window = (max(abs(m) for m in cols) + 1) if cols else 1
    cat, j_mod = weight_J(window)
    a_mod = double_complex_as_left_module(cat, a)
    wc = weighted_colimit(j_mod, a_mod)
    colim = wc.colimit
    ts = TotSpace(a)
    tot = ts.complex

    # Phi: ambient sum of S^m L Z (x) A_m -> Tot, constant on relation
    # classes.  Block p of the summand at m goes into column m for p = m and
    # through delta_m (stored components only) into column m - 1 for p = m - 1.
    ambient = wc.coend.ambient
    phi_rows = {n: [[0] * ambient.rank(n) for _ in range(tot.rank(n))]
                for n in ambient.degrees()}
    for m in cols:
        lay, delta = wc.coend.tensor_space(m).layout, a.delta_map(m).comps()
        for n in lay.degrees():
            for p, _, width, off in lay.blocks(n):
                col = wc.coend.slot(m, n) + off
                if p == m:
                    scatter_kron(phi_rows[n], ts.layout.slot(n, m), col, width,
                                 sign=_triangular_sign(m))
                elif n - p in delta:
                    scatter_kron(phi_rows[n], ts.layout.slot(n, m - 1), col, delta[n - p],
                                 sign=_triangular_sign(m - 1))
    phi = {n: IntMatrix.from_rows(rows, ambient.rank(n))
           for n, rows in phi_rows.items() if rows}

    iso_comps, inv_comps = {}, {}
    for n in colim.degrees():
        if colim.rank(n) == 0:
            continue
        mat = phi.get(n, IntMatrix.zeros(tot.rank(n), ambient.rank(n))) @ wc.coend.section(n)
        iso_comps[n] = mat
        inv_comps[n] = inverse_unimodular(mat)
    return ChainMap(colim, tot, 0, iso_comps), ChainMap(tot, colim, 0, inv_comps)


# -- the totalization adjunction ----------------------------------------------


class _TotHomSpaces:
    """[Tot A, X] beside the bottom-row DG hom space DG-hom(A, iX).

    A degree-n element of DG-hom(A, iX) is a family f_m in [A_m, X]_{n+m},
    one per column; ``stack`` lays the column spaces out in a BlockLayout
    keyed by m, by ascending m.  The columns of block s of [Tot A, X]_n are
    the basis of Tot_s, which runs through the columns m in turn, so the
    identification of the two spaces only relabels coordinates
    (``relabelling``)."""

    def __init__(self, ts: TotSpace, x: Complex):
        self.ts = ts
        self.tot = HomSpace(ts.complex, x)
        self.cols = {m: HomSpace(ts.a.column(m), x) for m in ts.a.column_degrees()}
        self.stack = stack = BlockLayout()
        for m, hs_m in self.cols.items():
            for k in hs_m.layout.degrees():
                stack.add(k - m, m, hs_m.dim(k))

    def relabelling(self, n: int) -> List[int]:
        """Stack index of each coordinate of [Tot A, X]_n: entry (i, j) of
        block s, with j in column block m of Tot_s at offset off, is entry
        (i, j - off) of block s - m of [A_m, X]_{n+m}."""
        out = [0] * self.tot.dim(n)
        for s, rows, width, off_s in self.tot.layout.blocks(n):
            for m, r, _, off in self.ts.layout.blocks(s):
                base = self.stack.slot(n, m) + self.cols[m].layout.slot(n + m, s - m)
                for i in range(rows):
                    start = off_s + i * width + off
                    out[start:start + r] = range(base + i * r, base + (i + 1) * r)
        return out

    def differential(self, n: int) -> List[List[int]]:
        """The DG hom differential from degree n to n - 1 on the stack,
        d(f)_m = d f_m - (-1)^n f_{m-1} o delta_m: the diagonal blocks are
        the differentials of the [A_m, X], the off-diagonal ones -(-1)^n
        times precomposition with delta_m."""
        stack, sign_n = self.stack, -1 if n % 2 else 1
        out = [[0] * stack.dim(n) for _ in range(stack.dim(n - 1))]
        for m, _, _, off in stack.blocks(n):
            d = self.cols[m].complex.diffs().get(n + m)
            if d is not None:
                scatter_kron(out, stack.slot(n - 1, m), off, d)
        for m, delta in self.ts.a.delta.items():
            k = n + m - 1
            if self.cols[m - 1].dim(k) and self.cols[m].dim(k):
                pre = precomposition(delta, self.cols[m - 1], self.cols[m], k)
                scatter_kron(out, stack.slot(n - 1, m), stack.slot(n, m - 1), pre, sign=-sign_n)
        return out


def _relabelled(mat: IntMatrix, rows: List[int], cols: List[int]) -> List[List[int]]:
    """mat with row i moved to rows[i] and column j to cols[j]."""
    out = [[0] * len(cols) for _ in rows]
    for i, j, v in _nonzero_entries(mat)[2]:
        out[rows[i]][cols[j]] = v
    return out


def tot_adjunction_check(a: DoubleComplex, x: Complex) -> bool:
    """Degreewise, [Tot A, X]_n and DG-hom(A, iX)_n are identified by the
    relabelling of coordinates (``_TotHomSpaces.relabelling``), which must
    be a bijection; under it the hom differential of [Tot A, X] equals the
    DG hom differential d(f)_m = d f_m - (-1)^n f_{m-1} o delta_m, the
    matrix with diagonal blocks the differentials of the [A_m, X] and
    off-diagonal blocks -(-1)^n times precomposition with delta_m."""
    ts = TotSpace(a)
    sp = _TotHomSpaces(ts, x)
    hs, stack = sp.tot, sp.stack
    degrees = sorted(set(hs.layout.degrees()) | set(stack.degrees()))
    perms: Dict[int, List[int]] = {}
    for n in degrees:
        perm = sp.relabelling(n)
        if stack.dim(n) != len(perm) or sorted(perm) != list(range(len(perm))):
            return False
        perms[n] = perm
    for n in degrees:
        if _relabelled(hs.complex.diff(n), perms.get(n - 1, []), perms[n]) != sp.differential(n):
            return False
    return True


def tot_adjunction_natural_in_x(a: DoubleComplex, w: ChainMap) -> bool:
    """The identification commutes with postcomposition by a map w: X -> X':
    under the relabellings of [Tot A, X] and [Tot A, X'], postcomposition
    with w on [Tot A, X]_n equals the block diagonal of the
    postcompositions with w on the [A_m, X]_{n+m}."""
    ts = TotSpace(a)
    sp, sp2 = _TotHomSpaces(ts, w.source), _TotHomSpaces(ts, w.target)
    k = w.degree
    for n in sp.tot.layout.degrees():
        post = postcomposition(w, sp.tot, sp2.tot, n)
        dg = [[0] * sp.stack.dim(n) for _ in range(sp2.stack.dim(n + k))]
        for m, _, _, off in sp.stack.blocks(n):
            if sp2.cols[m].dim(n + m + k):
                scatter_kron(dg, sp2.stack.slot(n + k, m), off,
                             postcomposition(w, sp.cols[m], sp2.cols[m], n + m))
        if _relabelled(post, sp2.relabelling(n + k), sp.relabelling(n)) != dg:
            return False
    return True
