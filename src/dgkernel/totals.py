"""Double complexes and totalization.

Complexes of complexes with their hom calculus (differential and
composition on doubly indexed families), the total complex with the
alternating inner sign, the weight that computes totalization as a
coend, and the graded adjunction between totalization and the
single-column embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .complexes import (
    BlockLayout,
    ChainMap,
    Complex,
    GradedObject,
    HomSpace,
    Proto,
    _nonzero_entries,
    compose,
    d_hom,
    identity_map,
    postcomposition,
    precomposition,
    scatter_kron,
    suspension,
    suspension_map,
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


class SupportExceedsWindow(ValueError):
    pass


def _tot_sign(m: int) -> int:
    # inner differential of column m enters Tot with sign (-1)^m
    return -1 if m % 2 else 1


class DoubleComplex:
    """Columns A_m (bounded complexes, finitely many nonzero) joined by
    degree-0 chain maps delta_m: A_m -> A_{m-1} with delta o delta = 0."""

    def __init__(self, columns: Mapping[int, Complex], delta: Mapping[int, ChainMap]):
        self.columns = {int(m): c for m, c in columns.items() if not c.is_zero()}
        self.delta = {}
        for m, d in delta.items():
            m = int(m)
            if d.degree != 0:
                raise ShapeMismatch(f"delta_{m} must have degree 0")
            if d.source != self.column(m) or d.target != self.column(m - 1):
                raise ShapeMismatch(f"delta_{m} does not join column {m} to {m - 1}")
            if not d_hom(d).is_zero():
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


class TotSpace:
    """Basis bookkeeping for Tot A: the degree-n basis is a BlockLayout
    with one block per column m, by ascending m, holding the basis of
    A_{m, n-m} in order."""

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
        diffs = {n: self._differential(n) for n in lay.degrees() if lay.dim(n - 1)}
        self.complex = Complex(GradedObject(lay.dims()), diffs)

    def slot(self, n: int, m: int, i: int) -> int:
        return self.layout.slot(n, m, i)

    def _differential(self, n: int) -> IntMatrix:
        # d(x) = delta(x) + (-1)^m d(x) for x in column m.  Only stored maps
        # are nonzero, and each one's target block exists.
        lay = self.layout
        cols_n = lay.dim(n)
        out = [[0] * cols_n for _ in range(lay.dim(n - 1))]
        for m, _, _, off in lay.blocks(n):
            delta, d = self.a.delta_map(m).comps(), self.a.column(m).diffs()
            if n - m in delta:   # delta_m: A_{m,n-m} -> A_{m-1,n-m}
                scatter_kron(out, lay.slot(n - 1, m - 1), off, delta[n - m])
            if n - m in d:       # d of column m: A_{m,n-m} -> A_{m,n-m-1}
                scatter_kron(out, lay.slot(n - 1, m), off, d[n - m], sign=_tot_sign(m))
        return IntMatrix.from_rows(out, cols_n, _trusted=True)


def total_complex(a: DoubleComplex) -> Complex:
    """Tot A with d(x) = delta(x) + (-1)^m d(x) for x in column m."""
    return TotSpace(a).complex


# -- the DG hom calculus ------------------------------------------------------


@dataclass
class DGHomElement:
    """Degree-n family f_{p,q}: A_q -> B_p of protos of degree n - p + q,
    finitely supported."""

    source: DoubleComplex
    target: DoubleComplex
    degree: int
    comps: Dict[Tuple[int, int], Proto]

    def __post_init__(self):
        cleaned = {}
        for (p, q), f in self.comps.items():
            if f.degree != self.degree - p + q:
                raise ShapeMismatch(
                    f"component ({p},{q}) has proto degree {f.degree}, "
                    f"expected {self.degree - p + q}")
            if f.source != self.source.column(q) or f.target != self.target.column(p):
                raise ShapeMismatch(f"component ({p},{q}) joins the wrong columns")
            if not f.is_zero():
                cleaned[(p, q)] = f
        self.comps = cleaned

    def comp(self, p: int, q: int) -> Proto:
        f = self.comps.get((p, q))
        if f is None:
            return Proto.zero(self.source.column(q), self.target.column(p),
                              self.degree - p + q)
        return f

    def is_zero(self) -> bool:
        return not self.comps

    def __add__(self, other: "DGHomElement") -> "DGHomElement":
        if (self.source, self.target, self.degree) != (other.source, other.target, other.degree):
            raise ShapeMismatch("elements not parallel")
        keys = set(self.comps) | set(other.comps)
        return DGHomElement(self.source, self.target, self.degree,
                            {k: self.comp(*k) + other.comp(*k) for k in keys})

    def __rmul__(self, c: int) -> "DGHomElement":
        return DGHomElement(self.source, self.target, self.degree,
                            {k: c * f for k, f in self.comps.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, DGHomElement):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.degree == other.degree and self.comps == other.comps)


def dg_identity(a: DoubleComplex) -> DGHomElement:
    comps = {(m, m): identity_map(a.column(m)) for m in a.column_degrees()}
    return DGHomElement(a, a, 0, comps)


def dg_hom_differential(f: DGHomElement) -> DGHomElement:
    """d(f)_{p,q} = (-1)^p d(f_{p,q}) + delta_p o f_{p+1,q}
    - (-1)^n f_{p,q-1} o delta_q."""
    a, b, n = f.source, f.target, f.degree
    sign_n = -1 if n % 2 else 1
    p_range = set()
    for (p, q) in f.comps:
        p_range.update([(p, q), (p - 1, q), (p, q + 1)])
    for p in b.column_degrees():
        for q in a.column_degrees():
            p_range.add((p, q))
    comps = {}
    for (p, q) in p_range:
        term = Proto.zero(a.column(q), b.column(p), n - 1 - p + q)
        term = term + ((-1 if p % 2 else 1) * d_hom(f.comp(p, q)))
        term = term + compose(b.delta_map(p + 1), f.comp(p + 1, q))
        term = term - sign_n * compose(f.comp(p, q - 1), a.delta_map(q))
        if not term.is_zero():
            comps[(p, q)] = term
    return DGHomElement(a, b, n - 1, comps)


def dg_compose(g: DGHomElement, f: DGHomElement) -> DGHomElement:
    """(g o f)_{p,q} = sum_r g_{p,r} o f_{r,q}."""
    if g.source != f.target:
        raise ShapeMismatch("dg_compose: middle double complexes differ")
    comps: Dict[Tuple[int, int], Proto] = {}
    for (p, r) in g.comps:
        for (r2, q) in f.comps:
            if r2 != r:
                continue
            term = compose(g.comp(p, r), f.comp(r, q))
            if (p, q) in comps:
                comps[(p, q)] = comps[(p, q)] + term
            else:
                comps[(p, q)] = term
    return DGHomElement(f.source, g.target, g.degree + f.degree, comps)


# -- the totalization weight --------------------------------------------------


def weight_J(window: int) -> Tuple[FiniteDGCategory, DGModule]:
    """The weight computing Tot: over the window category, the value at m
    is S^m L Z and the index-raising generator acts by the shifted
    differential S^m d."""
    cat = ell_op_window_category(window)
    lz = functor_L(unit_complex())
    values = {m: suspension(lz, m) for m in cat.objects}
    actions = {}
    for (u, v) in cat.homs:
        ts = TensorSpace(values[v], cat.hom(u, v))
        if u == v:
            comps = {n: IntMatrix.identity(values[v].rank(n))
                     for n in values[v].degrees() if values[v].rank(n)}
        else:
            # u = v + 1: act by S^v(d): the degree-v slot maps to the lower
            # slot of S^{v+1} L Z
            codiff = suspension_map(
                ChainMap(lz, suspension(lz, 1), 0,
                         {0: IntMatrix.identity(1)}), v)
            comps = {n: codiff.comp(n) for n in values[v].degrees()
                     if values[v].rank(n) and values[u].rank(n)}
        actions[(u, v)] = ChainMap(ts.complex, values[u], 0, comps)
    return cat, DGModule(cat, values, actions)


def double_complex_as_left_module(cat: FiniteDGCategory, a: DoubleComplex) -> DGModule:
    """A double complex as a diagram over the window category: the
    generator m -> m-1 acts by delta_m."""
    values = {m: a.column(m) for m in cat.objects}
    actions = {}
    for (u, v) in cat.homs:
        ts = TensorSpace(cat.hom(u, v), values[u])
        if u == v:
            comps = {n: IntMatrix.identity(values[u].rank(n))
                     for n in values[u].degrees() if values[u].rank(n)}
        else:
            delta = a.delta_map(u)      # u = v + 1: A_u -> A_v
            comps = {n: delta.comp(n) for n in values[u].degrees()
                     if values[u].rank(n) and values[v].rank(n)}
        actions[(u, v)] = ChainMap(ts.complex, values[v], 0, comps)
    return DGModule(cat, values, actions, LEFT)


def _triangular_sign(m: int) -> int:
    return -1 if (m * (m + 1) // 2) % 2 else 1


@dataclass
class TotComparison:
    colimit: Complex
    tot: Complex
    iso: ChainMap        # colimit -> Tot
    inverse: ChainMap
    window: int


def tot_via_weighted_colimit(a: DoubleComplex,
                             window: Optional[int] = None) -> TotComparison:
    """Compute colim(J, A) as a coend and produce an explicit chain
    isomorphism to Tot A.

    The comparison sends the class of (slot p of S^m L Z) (x) x to x in
    column m (p = m) or to delta_m(x) in column m-1 (p = m-1), twisted by
    the triangular sign needed to match the alternating inner sign of Tot.
    """
    cols = a.column_degrees()
    if window is None:
        window = (max(abs(m) for m in cols) + 1) if cols else 1
    # the lower slot of column m reaches object m - 1, so the lowest column
    # needs an object below it
    if cols and (min(cols) <= -window or max(cols) > window):
        raise SupportExceedsWindow(f"columns {cols} do not fit window {window}: "
                                   f"they must lie in [{1 - window}, {window}]")
    cat, j_mod = weight_J(window)
    a_mod = double_complex_as_left_module(cat, a)
    wc = weighted_colimit(j_mod, a_mod)
    colim = wc.colimit
    ts = TotSpace(a)
    tot = ts.complex

    # Phi: ambient sum of S^m L Z (x) A_m -> Tot, constant on relation classes
    presented = wc.coend.presented
    ambient = presented.ambient
    phi_rows: Dict[int, List[List[int]]] = {}
    for n in ambient.degrees():
        phi_rows[n] = [[0] * ambient.rank(n) for _ in range(tot.rank(n))]
    for m in cat.objects:
        am = a_mod.value(m)
        if am.is_zero():
            continue
        t_space = wc.coend.tensor_space(m)
        for n in t_space.complex.degrees():
            for col_local, t in enumerate(t_space.basis(n)):
                amb_idx = wc.coend.slot(m, n) + col_local
                target_rows: List[Tuple[int, int]] = []
                if t.left_degree == m:
                    # unit slot: straight into column m
                    row = ts.slot(n, m, t.right_index)
                    target_rows.append((row, _triangular_sign(m)))
                else:
                    # lower slot: push through delta_m into column m-1
                    delta = a.delta_map(m).comp(t.right_degree)
                    for i, v in enumerate(delta.col(t.right_index)):
                        if v:
                            row = ts.slot(n, m - 1, i)
                            target_rows.append((row, _triangular_sign(m - 1) * v))
                for row, val in target_rows:
                    phi_rows[n][row][amb_idx] += val
    phi = {n: IntMatrix.from_rows(rows, ambient.rank(n))
           for n, rows in phi_rows.items() if rows}

    iso_comps = {}
    inv_comps = {}
    for n in colim.degrees():
        if colim.rank(n) == 0:
            continue
        sect = presented.section(n)
        mat = phi.get(n, IntMatrix.zeros(tot.rank(n), ambient.rank(n))) @ sect
        if mat.rows != mat.cols:
            raise AssertionError("colimit and Tot ranks differ")
        iso_comps[n] = mat
        inv_comps[n] = inverse_unimodular(mat)
    iso = ChainMap(colim, tot, 0, iso_comps)
    inverse = ChainMap(tot, colim, 0, inv_comps)
    return TotComparison(colim, tot, iso, inverse, window)


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
