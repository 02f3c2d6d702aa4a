"""The symmetric closed monoidal structure on bounded complexes.

Tensor products with the Koszul sign convention, the symmetry, unit and
associativity isomorphisms, the suspension-tensor identifications, and
the solved-for duality and decomposition witnesses for L Z and R Z.

Basis convention for (A (x) B)_n: a complexes.BlockLayout with one block
A_p (x) B_q per left degree p, by ascending p, and within a block the
pair (i, j) is laid out with the left index major; all signs live in
differentials, never in basis order.  Every structural isomorphism is
placed from these layouts:

- identities: Z (x) A, A (x) Z and A share coordinates, and so do
  S(A (x) B) and SA (x) B (block p of the one is block p + 1 of the other,
  in the same place) and S[B,C] and [B,SC], so the unitors and the shift
  isomorphisms are identity matrices, and S[B,C] = [S^-1 B, C] is (-1)^n
  times the identity in degree n;
- permutations placed as identity runs: the associator and distributivity
  only reorder a basis, run by run;
- a signed permutation written entry by entry: the symmetry.

Each inverse is the transpose of its forward map (P^-1 = P^T).
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Dict, List, Tuple

from .complexes import (
    BlockLayout,
    ChainMap,
    Complex,
    HomSpace,
    LazySpace,
    Proto,
    _alternates,
    compose,
    direct_sum,
    functor_L,
    functor_R,
    identity_map,
    postcomposition,
    precomposition,
    scatter_kron,
    suspension,
    unit_complex,
)
from .zlinalg import IntMatrix, ShapeMismatch, solve_matrix


class SearchFailed(RuntimeError):
    """A witness the source material guarantees to exist was not found;
    treat as an implementation bug."""


def _tensor_sign(p: int) -> int:
    # d(a (x) b) = da (x) b + (-1)^p a (x) db  for a of degree p.
    return -1 if p % 2 else 1


class TensorSpace(LazySpace):
    """Basis-indexed model of A (x) B, built lazily (`LazySpace`).

    The degree-n basis is a BlockLayout with one block per left degree p,
    by ascending p: the pairs (i, j) of A_p (x) B_{n-p}, left index major.
    """

    def __init__(self, left: Complex, right: Complex):
        self.left = left
        self.right = right
        self.layout = lay = BlockLayout()
        if not (left.is_zero() or right.is_zero()):
            for n in range(left.lo + right.lo, left.hi + right.hi + 1):
                for p in left.degrees():
                    lay.add(n, p, left.rank(p), right.rank(n - p))

    def _square_zero(self) -> bool:
        # d d (a (x) b) = (t(p) + t(p-1)) da (x) db once d d = 0 in both factors
        return _alternates(_tensor_sign, self.left.degrees())

    def slot_at(self, n: int, p: int, i: int, j: int) -> int:
        return self.layout.slot(n, p, i, j)

    def inserted(self, side: str, p: int, vec) -> Proto:
        """The degree-p proto x |-> a (x) x from B when a, with coordinates
        vec in degree p, fills the "left" factor, x |-> x (x) a from A when
        it fills the "right" one: a (x) 1 (or 1 (x) a) in each degree, with
        no sign.  A table out of this space with one factor fixed at a is
        the table composed with it."""
        fixed, other = (self.left, self.right) if side == "left" else (self.right, self.left)
        if len(vec) != fixed.rank(p):
            raise ShapeMismatch(f"element length {len(vec)} vs rank {fixed.rank(p)}")
        comps = {}
        for q in other.degrees():
            width, rows = other.rank(q), self.dim(p + q)
            if width and rows and any(vec):
                # a_k (x) x_t is (k, t) of block p; x_t (x) a_k is (t, k) of block q
                off, sk, st = ((self.layout.slot(p + q, p), width, 1) if side == "left"
                               else (self.layout.slot(p + q, q), 1, len(vec)))
                e = [0] * (rows * width)
                for k, a in enumerate(vec):
                    for t in range(width if a else 0):
                        e[(off + k * sk + t * st) * width + t] = a
                comps[q] = IntMatrix(rows, width, tuple(e), _trusted=True)
        return Proto(other, self.complex, p, comps)

    def _differentials(self, outs: Dict[int, List[List[int]]]) -> None:
        # d(a (x) b) = da (x) b + (-1)^p a (x) db.  Only stored differentials
        # are nonzero, and each one's target block exists.
        lay, left_d, right_d = self.layout, self.left.diffs(), self.right.diffs()
        for n, out in outs.items():
            for p, rl, rr, off in lay.blocks(n):
                if p in left_d:
                    scatter_kron(out, lay.slot(n - 1, p - 1), off, left_d[p], rr)
                if n - p in right_d:
                    scatter_kron(out, lay.slot(n - 1, p), off, rl, right_d[n - p], _tensor_sign(p))


def tensor(left: Complex, right: Complex) -> Complex:
    """A (x) B with d(a (x) b) = da (x) b + (-1)^p a (x) db."""
    return TensorSpace(left, right).complex


def tensor_proto(f: Proto, g: Proto, src: TensorSpace = None, tgt: TensorSpace = None) -> Proto:
    """f (x) g acting by (f (x) g)(a (x) b) = (-1)^{|g||a|} f(a) (x) g(b), out
    of src and into tgt, the tensor spaces of the sources and targets (built
    here unless given)."""
    src = src or TensorSpace(f.source, g.source)
    tgt = tgt or TensorSpace(f.target, g.target)
    deg = f.degree + g.degree
    comps: Dict[int, IntMatrix] = {}
    for n in src.complex.degrees():
        cols = src.dim(n)
        rows = tgt.dim(n + deg)
        if not cols or not rows:
            continue
        out = [[0] * cols for _ in range(rows)]
        for p, _, _, off in src.layout.blocks(n):
            fp = f._c.get(p)
            gq = g._c.get(n - p)
            if fp is None or gq is None:   # stored components are nonzero
                continue
            scatter_kron(out, tgt.layout.slot(n + deg, p + f.degree), off, fp, gq,
                         -1 if (g.degree * p) % 2 else 1)
        comps[n] = IntMatrix.from_rows(out, cols, _trusted=True)
    result = Proto(src.complex, tgt.complex, deg, comps)
    if isinstance(f, ChainMap) and isinstance(g, ChainMap):
        return ChainMap(result.source, result.target, deg, result.comps(), _trusted=True)
    return result


def _placed(src: Complex, tgt: Complex, place) -> ChainMap:
    """The checked degree-0 chain map src -> tgt between complexes of equal
    ranks whose degree-n component ``place(out, n)`` writes into zero rows."""
    comps = {}
    for n in src.degrees():
        dim = src.rank(n)
        if dim:
            out = [[0] * dim for _ in range(tgt.rank(n))]
            place(out, n)
            comps[n] = IntMatrix.from_rows(out, dim)
    return ChainMap(src, tgt, 0, comps)


def symmetry(left: Complex, right: Complex) -> ChainMap:
    """sigma(a (x) b) = (-1)^{pq} b (x) a: element (i, j) of block p of
    (A (x) B)_n is element (j, i) of block q = n - p of (B (x) A)_n."""
    src = TensorSpace(left, right)
    tgt = TensorSpace(right, left)

    def place(out, n):
        for p, rows, cols, off in src.layout.blocks(n):
            sign = -1 if (p * (n - p)) % 2 else 1
            at = tgt.layout.slot(n, n - p)
            for i in range(rows):
                for j in range(cols):
                    out[at + j * rows + i][off + i * cols + j] = sign

    return _placed(src.complex, tgt.complex, place)


def _same_coordinates(src: Complex, tgt: Complex) -> Tuple[ChainMap, ChainMap]:
    """The identity on coordinates, src -> tgt and back, for two complexes
    whose bases are laid out alike.  Both maps are checked chain maps, so
    the two sides must share their differentials too."""
    if src.ranks() != tgt.ranks():
        raise ShapeMismatch(f"ranks {src.ranks()} and {tgt.ranks()} differ")
    ids = {n: IntMatrix.identity(src.rank(n)) for n in src.degrees() if src.rank(n)}
    return ChainMap(src, tgt, 0, ids), ChainMap(tgt, src, 0, ids)


def _with_transpose(fwd: ChainMap) -> Tuple[ChainMap, ChainMap]:
    """A signed-permutation isomorphism and its inverse, the transpose of
    each component (P^-1 = P^T)."""
    inv = {n: m.transpose() for n, m in fwd.comps().items()}
    return fwd, ChainMap(fwd.target, fwd.source, 0, inv)


def left_unitor(a: Complex) -> Tuple[ChainMap, ChainMap]:
    """Z (x) A = A, both directions: the one block Z_0 (x) A_n of each
    degree is A_n in its own order."""
    return _same_coordinates(tensor(unit_complex(), a), a)


def right_unitor(a: Complex) -> Tuple[ChainMap, ChainMap]:
    """A (x) Z = A, both directions: the one block A_n (x) Z_0 of each
    degree is A_n in its own order."""
    return _same_coordinates(tensor(a, unit_complex()), a)


def associator(a: Complex, b: Complex, c: Complex) -> Tuple[ChainMap, ChainMap]:
    """(A (x) B) (x) C = A (x) (B (x) C), both directions, no signs.  Take
    block p of (A (x) B)_s and a row i: its pairs (j, k) of B_q x C_t run in
    the same order on both sides, so each (s, p, i) is one identity run."""
    ab, bc = TensorSpace(a, b), TensorSpace(b, c)
    left, right = TensorSpace(ab.complex, c), TensorSpace(a, bc.complex)

    def place(out, n):
        for s, _, ct, off in left.layout.blocks(n):
            for p, ra, bq, ab_off in ab.layout.blocks(s):
                run, stride = bq * ct, bc.dim(n - p)
                row = right.layout.slot(n, p) + bc.layout.slot(n - p, s - p)
                for i in range(ra):
                    scatter_kron(out, row + i * stride, off + (ab_off + i * bq) * ct, run)

    return _with_transpose(_placed(left.complex, right.complex, place))


def distributivity_iso(a: Complex, b: Complex, c: Complex) -> Tuple[ChainMap, ChainMap]:
    """(A + B) (x) C = (A (x) C) + (B (x) C), both directions: block p of
    ((A + B) (x) C)_n is block p of (A (x) C)_n followed by block p of
    (B (x) C)_n, two identity runs."""
    src = TensorSpace(direct_sum([a, b]), c)
    ac, bc = TensorSpace(a, c), TensorSpace(b, c)

    def place(out, n):
        for p, _, rc, off in src.layout.blocks(n):
            run_a, run_b = a.rank(p) * rc, b.rank(p) * rc
            if run_a:
                scatter_kron(out, ac.layout.slot(n, p), off, run_a)
            if run_b:
                scatter_kron(out, ac.dim(n) + bc.layout.slot(n, p), off + run_a, run_b)

    return _with_transpose(_placed(src.complex, direct_sum([ac.complex, bc.complex]), place))


def sten_iso(a: Complex, b: Complex) -> Tuple[ChainMap, ChainMap]:
    """S(A (x) B) = SA (x) B as mutually inverse chain maps: block p of
    S(A (x) B)_n is block p + 1 of (SA (x) B)_n, in the same place, and
    both differentials are -d."""
    return _same_coordinates(suspension(tensor(a, b), 1), tensor(suspension(a, 1), b))


def sten_hom_isos(b: Complex, c: Complex) -> Dict[str, Tuple[ChainMap, ChainMap]]:
    """S[B,C] = [S^-1 B, C] = [B, SC] realized by chain isomorphisms.

    [S^-1 B, C]_n and [B, SC]_n have the blocks of [B, C]_{n-1} in the same
    places.  S[B,C] <-> [B,SC] is the plain identification; the degree-n
    components of S[B,C] <-> [S^-1 B, C] are (-1)^n times the identity.
    """
    s_hom = suspension(HomSpace(b, c).complex, 1)
    hom_left = HomSpace(suspension(b, -1), c).complex
    signed = {n: m.scale(-1) if n % 2 else m for n, m in identity_map(s_hom).comps().items()}
    return {
        "left": (ChainMap(s_hom, hom_left, 0, signed), ChainMap(hom_left, s_hom, 0, signed)),
        "right": _same_coordinates(s_hom, HomSpace(b, suspension(c, 1)).complex),
    }


# -- solved-for witnesses ---------------------------------------------------


def _search_iso(src: Complex, tgt: Complex) -> Tuple[ChainMap, ChainMap]:
    """Find mutually inverse chain maps src <-> tgt by exact search + solve: for
    each f = K_fwd c, c in [-1, 1]^k, solve g o f = 1 for g = K_bwd x, then check f o g = 1."""
    hs_fwd, hs_bwd = HomSpace(src, tgt), HomSpace(tgt, src)
    k_fwd, k_bwd = hs_fwd.cycle_basis(0), hs_bwd.cycle_basis(0)
    if not k_fwd.cols or not k_bwd.cols:
        if src.is_zero() and tgt.is_zero():
            return identity_map(src), identity_map(tgt)
        raise SearchFailed("no chain maps to search over")
    hs_src, hs_tgt = HomSpace(src, src), HomSpace(tgt, tgt)
    id_src = IntMatrix.column(hs_src.to_vector(identity_map(src)))
    id_tgt = hs_tgt.to_vector(identity_map(tgt))

    candidates = sorted(
        iter_product(range(-1, 2), repeat=k_fwd.cols),
        key=lambda t: sum(abs(x) for x in t),
    )
    for coeffs in candidates:
        if not any(coeffs):
            continue
        f = hs_fwd.from_cycle(0, k_fwd.apply(coeffs))
        sol = solve_matrix(precomposition(f, hs_bwd, hs_src, 0) @ k_bwd, id_src)
        if sol is None:
            continue
        g = k_bwd.apply(sol.col(0))
        if postcomposition(f, hs_bwd, hs_tgt, 0).apply(g) == id_tgt:
            return f, hs_bwd.from_cycle(0, g)
    raise SearchFailed("exhausted the search box without finding an isomorphism")


def decompose_LZ_tensor() -> Tuple[ChainMap, ChainMap]:
    """Mutually inverse chain maps L Z (x) L Z = L Z + S^-1 L Z."""
    lz = functor_L(unit_complex())
    src = tensor(lz, lz)
    tgt = direct_sum([lz, suspension(lz, -1)])
    return _search_iso(src, tgt)


def verify_duality_LR() -> Tuple[ChainMap, ChainMap]:
    """(unit, counit) for the duality L Z -| R Z, solved over Z: the
    first pair found that satisfies both triangle identities."""
    lz = functor_L(unit_complex())
    rz = functor_R(unit_complex())
    one = unit_complex()
    rl = tensor(rz, lz)
    lr = tensor(lz, rz)

    hs_units, hs_counits = HomSpace(one, rl), HomSpace(lr, one)
    units, counits = hs_units.cycle_basis(0), hs_counits.cycle_basis(0)
    if not units.cols or not counits.cols:
        raise SearchFailed("empty candidate spaces for the duality")

    for uc in iter_product(range(-1, 2), repeat=units.cols):
        if not any(uc):
            continue
        eta = hs_units.from_cycle(0, units.apply(uc))
        for cc in iter_product(range(-1, 2), repeat=counits.cols):
            if not any(cc):
                continue
            eps = hs_counits.from_cycle(0, counits.apply(cc))
            if _triangle_left(lz, rz, eta, eps) and _triangle_right(lz, rz, eta, eps):
                return eta, eps
    raise SearchFailed("no (unit, counit) pair satisfies the triangle identities")


def _triangle_left(lz, rz, eta, eps) -> bool:
    # L -> L(x)Z -> L(x)(R(x)L) -> (L(x)R)(x)L -> Z(x)L -> L  equals  1_L
    _, ru_inv = right_unitor(lz)
    step2 = tensor_proto(identity_map(lz), eta)
    _, assoc_bwd = associator(lz, rz, lz)
    step4 = tensor_proto(eps, identity_map(lz))
    lu, _ = left_unitor(lz)
    total = compose(lu, compose(step4, compose(assoc_bwd, compose(step2, ru_inv))))
    return total == identity_map(lz)


def _triangle_right(lz, rz, eta, eps) -> bool:
    # R -> Z(x)R -> (R(x)L)(x)R -> R(x)(L(x)R) -> R(x)Z -> R  equals  1_R
    _, lu_inv = left_unitor(rz)
    step2 = tensor_proto(eta, identity_map(rz))
    assoc_fwd, _ = associator(rz, lz, rz)
    step4 = tensor_proto(identity_map(rz), eps)
    ru, _ = right_unitor(rz)
    total = compose(ru, compose(step4, compose(assoc_fwd, compose(step2, lu_inv))))
    return total == identity_map(rz)
