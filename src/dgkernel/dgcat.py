"""Small DG-categories with explicit composition tables, modules over
them, coend tensor products, weighted colimits, and Cauchy-data
verification.

Composition and module actions are stored as degree-0 chain maps out of
tensor complexes, so every axiom is a matrix identity.  One class,
`DGModule`, serves both sides; its `side` says where the hom factor sits:

* a right module M has actions M V (x) hom(U,V) -> M U (weights, and the
  M of Cauchy data);
* a left module N has actions hom(U,V) (x) N U -> N V (diagrams, and the
  N of Cauchy data).

The elementwise right action carries the crossing sign,
y . f = (-1)^{|y||f|} act(y (x) f), which makes representable modules
literal composition tables and reproduces z . (g o f) = (-1)^{nm} (z . g) . f;
on the left nothing crosses, so f . x = act(f (x) x).  Suspension follows
the same rule: only on the left does the shift pass the hom factor and
pick up (-1)^{k|f|}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .complexes import (
    BlockLayout,
    ChainMap,
    Complex,
    GradedGroups,
    HomSpace,
    Proto,
    compose,
    d_hom,
    direct_sum,
    identity_map,
    precomposition,
    scatter_kron,
    suspension,
    unit_complex,
)
from .monoidal import TensorSpace, tensor_layout
from .zlinalg import (
    FPAbGroup,
    IntMatrix,
    ShapeMismatch,
    block_diagonal,
    cokernel,
    kernel_basis,
    solve_matrix,
)


class CauchyDataInvalid(ValueError):
    pass


class TorsionInPresentation(ValueError):
    """A presented complex with torsion has no free model; `torsion` maps
    each degree with torsion to its group."""

    def __init__(self, torsion: Mapping[int, FPAbGroup]):
        self.torsion = dict(torsion)
        super().__init__(f"presentation has torsion ({self.describe()}); no free model")

    def describe(self) -> str:
        return "; ".join(f"degree {n}: {g.describe()}" for n, g in sorted(self.torsion.items()))


@dataclass(frozen=True)
class Elt:
    """Element of a complex in a fixed degree, as integer coordinates."""

    cx: Complex
    degree: int
    vec: tuple

    def __post_init__(self):
        if len(self.vec) != self.cx.rank(self.degree):
            raise ShapeMismatch(
                f"element length {len(self.vec)} vs rank {self.cx.rank(self.degree)}"
            )

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.vec)

    def __add__(self, other: "Elt") -> "Elt":
        if self.cx != other.cx or self.degree != other.degree:
            raise ShapeMismatch("elements not in the same degree")
        return Elt(self.cx, self.degree, tuple(a + b for a, b in zip(self.vec, other.vec)))

    def __sub__(self, other: "Elt") -> "Elt":
        return self + (-1) * other

    def __rmul__(self, c: int) -> "Elt":
        return Elt(self.cx, self.degree, tuple(c * x for x in self.vec))

    def boundary(self) -> "Elt":
        return Elt(self.cx, self.degree - 1, self.cx.diff(self.degree).apply(self.vec))


def basis_elts(cx: Complex, degree: int) -> List[Elt]:
    out = []
    r = cx.rank(degree)
    for i in range(r):
        v = [0] * r
        v[i] = 1
        out.append(Elt(cx, degree, tuple(v)))
    return out


def all_basis_elts(cx: Complex) -> List[Elt]:
    out = []
    for n in cx.degrees():
        out.extend(basis_elts(cx, n))
    return out


def _evaluate(table: Optional[ChainMap], ts: TensorSpace, target: Complex,
              a: Elt, b: Elt) -> Elt:
    """table(a (x) b) in target, where table is a map out of ts; no table
    is the zero map.  The pair is embedded first, so a length mismatch
    raises either way."""
    pair = ts.embed_pair(a.degree, a.vec, b.degree, b.vec)
    n = a.degree + b.degree
    if table is None:
        return Elt(target, n, (0,) * target.rank(n))
    return Elt(target, n, table.comp(n).apply(pair))


class FiniteDGCategory:
    """Objects, hom complexes, composition tables, identities.

    compose_table[(a, b, c)] is a degree-0 chain map
    hom(b,c) (x) hom(a,b) -> hom(a,c); identities are 0-cycles.
    """

    def __init__(self, objects: Sequence, homs: Mapping, compose_table: Mapping,
                 identities: Mapping):
        self.objects = tuple(objects)
        self.homs = dict(homs)
        self.compose_table = dict(compose_table)
        self.identities = dict(identities)
        self._tensor_cache: Dict[Tuple, TensorSpace] = {}
        self._nonzero_homs: Optional[List[Tuple[object, object, Complex]]] = None
        self._homs_out: Dict[object, List[Tuple[object, Complex]]] = {}
        self._homs_in: Dict[object, List[Tuple[object, Complex]]] = {}

    def hom(self, a, b) -> Complex:
        return self.homs.get((a, b), Complex.zero())

    def nonzero_homs(self) -> List[Tuple[object, object, Complex]]:
        """(a, b, hom(a, b)) for each nonzero hom between objects, in the
        order a scan over a, then b, in object order meets them.  The
        same pass files each under `homs_out(a)` and `homs_in(b)`."""
        if self._nonzero_homs is None:
            where = {x: i for i, x in enumerate(self.objects)}
            keys = sorted((k for k, h in self.homs.items()
                           if k[0] in where and k[1] in where and not h.is_zero()),
                          key=lambda k: (where[k[0]], where[k[1]]))
            self._nonzero_homs = [(a, b, self.homs[(a, b)]) for a, b in keys]
            for a, b, h in self._nonzero_homs:
                self._homs_out.setdefault(a, []).append((b, h))
                self._homs_in.setdefault(b, []).append((a, h))
        return self._nonzero_homs

    def homs_out(self, a) -> List[Tuple[object, Complex]]:
        """(b, hom(a, b)) for each nonzero hom out of a, in object order."""
        self.nonzero_homs()
        return self._homs_out.get(a, [])

    def homs_in(self, b) -> List[Tuple[object, Complex]]:
        """(a, hom(a, b)) for each nonzero hom into b, in object order."""
        self.nonzero_homs()
        return self._homs_in.get(b, [])

    def pair_space(self, a, b, c) -> TensorSpace:
        key = (a, b, c)
        if key not in self._tensor_cache:
            self._tensor_cache[key] = TensorSpace(self.hom(b, c), self.hom(a, b))
        return self._tensor_cache[key]

    def identity(self, a) -> Elt:
        return self.identities[a]

    def compose_elts(self, a, b, c, v: Elt, u: Elt) -> Elt:
        """v o u for v in hom(b,c), u in hom(a,b)."""
        return _evaluate(self.compose_table.get((a, b, c)), self.pair_space(a, b, c),
                         self.hom(a, c), v, u)

    def validate(self) -> List[str]:
        """Check d^2, chain-map composition (Leibniz), associativity, units."""
        failures: List[str] = []
        for (a, b), h in self.homs.items():
            for n in h.degrees():
                if not (h.diff(n) @ h.diff(n + 1)).is_zero():
                    failures.append(f"d^2 != 0 on hom({a},{b}) at degree {n + 1}")
        for a in self.objects:
            one = self.identities.get(a)
            if one is None:
                failures.append(f"missing identity at {a}")
                continue
            if one.degree != 0 or not one.boundary().is_zero():
                failures.append(f"identity at {a} is not a 0-cycle")
        # Leibniz: d(v o u) = d(v) o u + (-1)^{|v|} v o d(u) on basis pairs
        for (a, b, c), table in self.compose_table.items():
            hab, hbc = self.hom(a, b), self.hom(b, c)
            for v in all_basis_elts(hbc):
                sign = -1 if v.degree % 2 else 1
                for u in all_basis_elts(hab):
                    lhs = self.compose_elts(a, b, c, v, u).boundary()
                    rhs = self.compose_elts(a, b, c, v.boundary(), u) + \
                        sign * self.compose_elts(a, b, c, v, u.boundary())
                    if lhs != rhs:
                        failures.append(
                            f"Leibniz fails on hom({b},{c})_{v.degree} o hom({a},{b})_{u.degree}"
                        )
        # associativity on basis triples of composable nonzero homs
        for a, b, hab in self.nonzero_homs():
            for c, hbc in self.homs_out(b):
                for dd, hcd in self.homs_out(c):
                    for w in all_basis_elts(hcd):
                        for v in all_basis_elts(hbc):
                            for u in all_basis_elts(hab):
                                lhs = self.compose_elts(
                                    a, b, dd, self.compose_elts(b, c, dd, w, v), u)
                                rhs = self.compose_elts(
                                    a, c, dd, w, self.compose_elts(a, b, c, v, u))
                                if lhs != rhs:
                                    failures.append(
                                        f"associativity fails at ({a},{b},{c},{dd})")
        # units
        for a, b, hab in self.nonzero_homs():
            if a not in self.identities or b not in self.identities:
                continue  # already reported above
            for u in all_basis_elts(hab):
                if self.compose_elts(a, b, b, self.identity(b), u) != u:
                    failures.append(f"left unit fails on hom({a},{b})")
                if self.compose_elts(a, a, b, u, self.identity(a)) != u:
                    failures.append(f"right unit fails on hom({a},{b})")
        return failures


# -- category builders --------------------------------------------------------


def unit_dg_category() -> FiniteDGCategory:
    """One object with hom Z in degree 0."""
    k0 = unit_complex()
    ts = TensorSpace(k0, k0)
    table = ChainMap(ts.complex, k0, 0, {0: IntMatrix.from_rows([[1]])})
    return FiniteDGCategory(("*",), {("*", "*"): k0}, {("*", "*", "*"): table},
                            {"*": Elt(k0, 0, (1,))})


def one_object_category(hom: Complex, products: Mapping[Tuple[Elt, Elt], Elt],
                        identity: Elt) -> FiniteDGCategory:
    """One-object category from a basis multiplication chart.

    `products[(v, u)]` is v o u for basis elements; missing pairs are 0.
    """
    ts = TensorSpace(hom, hom)
    comps: Dict[int, List[List[int]]] = {}
    for n in ts.complex.degrees():
        comps[n] = [[0] * ts.dim(n) for _ in range(hom.rank(n))]
    for (v, u), w in products.items():
        n = v.degree + u.degree
        col = ts.embed_pair(v.degree, v.vec, u.degree, u.vec)
        j = col.index(1)
        for i, x in enumerate(w.vec):
            comps[n][i][j] = x
    diffs = {n: IntMatrix.from_rows(rows, ts.dim(n)) for n, rows in comps.items()
             if hom.rank(n) or ts.dim(n)}
    table = ChainMap(ts.complex, hom, 0, diffs)
    return FiniteDGCategory(("*",), {("*", "*"): hom}, {("*", "*", "*"): table},
                            {"*": identity})


def exterior_g_category(generator_degree: int = 1) -> FiniteDGCategory:
    """One object; hom has basis 1 (degree 0) and u (given degree), u o u = 0."""
    k = generator_degree
    hom = Complex.from_ranks({0: 1, k: 1})
    one = Elt(hom, 0, (1,))
    u = Elt(hom, k, (1,))
    zero2k = Elt(hom, 2 * k, (0,) * hom.rank(2 * k))
    products = {(one, one): one, (one, u): u, (u, one): u, (u, u): zero2k}
    return one_object_category(hom, products, one)


def group_like_category(g_squared_units: int) -> FiniteDGCategory:
    """One object; hom = Z.1 + Z.g in degree 0 with g o g = c . 1."""
    hom = Complex.from_ranks({0: 2})
    one = Elt(hom, 0, (1, 0))
    g = Elt(hom, 0, (0, 1))
    products = {(one, one): one, (one, g): g, (g, one): g,
                (g, g): Elt(hom, 0, (g_squared_units, 0))}
    return one_object_category(hom, products, one)


def two_object_graded_category(arrow_degree: int = 0) -> FiniteDGCategory:
    """Objects a, b with endomorphisms Z and a single arrow a -> b in the
    given degree; no maps back."""
    k0 = unit_complex()
    arrow = Complex.concentrated(arrow_degree)
    homs = {("a", "a"): k0, ("b", "b"): k0, ("a", "b"): arrow}
    tables = {}

    def scalar_table(left: Complex, right: Complex, target: Complex):
        ts = TensorSpace(left, right)
        comps = {}
        for n in ts.complex.degrees():
            if ts.dim(n) and target.rank(n):
                comps[n] = IntMatrix.identity(1)
        return ChainMap(ts.complex, target, 0, comps)

    for (x, y, z) in [("a", "a", "a"), ("b", "b", "b"), ("a", "a", "b"), ("a", "b", "b")]:
        left = homs.get((y, z), Complex.zero())
        right = homs.get((x, y), Complex.zero())
        tgt = homs.get((x, z), Complex.zero())
        if left.is_zero() or right.is_zero() or tgt.is_zero():
            continue
        tables[(x, y, z)] = scalar_table(left, right, tgt)
    ids = {"a": Elt(k0, 0, (1,)), "b": Elt(k0, 0, (1,))}
    return FiniteDGCategory(("a", "b"), homs, tables, ids)


def dg_subcategory_of_complexes(named: Mapping[str, Complex]) -> FiniteDGCategory:
    """Full sub-DG-category of complexes on the given objects, with hom
    complexes and honest composition (see _composition_table)."""
    names = tuple(named)
    spaces = {(x, y): HomSpace(named[x], named[y]) for x, y in product(names, repeat=2)}
    homs = {key: hs.complex for key, hs in spaces.items()}
    tables = {(x, y, z): _composition_table(spaces[(y, z)], spaces[(x, y)], spaces[(x, z)])
              for x, y, z in product(names, repeat=3)
              if not any(homs[key].is_zero() for key in ((x, y), (y, z), (x, z)))}
    ids = {x: Elt(homs[(x, x)], 0, spaces[(x, x)].to_vector(identity_map(named[x])))
           for x in names}
    return FiniteDGCategory(names, homs, tables, ids)


def _composition_table(hs_yz: HomSpace, hs_xy: HomSpace, hs_xz: HomSpace) -> ChainMap:
    """v (x) u |-> v o u on [Y,Z] (x) [X,Y] -> [X,Z], for u of degree r.
    Composition is bilinear, and v_{q+r}[a,b] u_q[b,k] lands on (v o u)_q[a,k]:
    for fixed a and b, the pairs over k place one identity block."""
    ts = TensorSpace(hs_yz.complex, hs_xy.complex)
    comps = {}
    for n in ts.layout.degrees():
        out = [[0] * ts.dim(n) for _ in range(hs_xz.dim(n))]
        for p, _, dim_u, off in ts.layout.blocks(n):
            for q, m, c, u_off in hs_xy.layout.blocks(n - p):
                rows = hs_xz.target.rank(q + n)    # of v_{q+r} and of (v o u)_q
                if rows:
                    v_off, w_off = hs_yz.layout.slot(p, q + n - p), hs_xz.layout.slot(n, q)
                    for a, b in product(range(rows), range(m)):
                        scatter_kron(out, w_off + a * c,
                                     off + (v_off + a * m + b) * dim_u + u_off + b * c, c)
        comps[n] = IntMatrix.from_rows(out, ts.dim(n), _trusted=True)
    return ChainMap(ts.complex, hs_xz.complex, 0, comps)


def ell_op_window_category(window: int) -> FiniteDGCategory:
    """Objects -window..window; hom(u, v) = Z when u - v is 0 or 1.

    This is the index category for double complexes: the generator
    u -> u-1 points in the direction of the column chain maps.
    """
    k0 = unit_complex()
    objs = tuple(range(-window, window + 1))
    # only b in {a-1, a} and c in {b-1, b} can compose; ascending, so the
    # tables keep the order of a scan over all objects.  Every hom is Z, so
    # every composable triple shares the one table Z (x) Z -> Z.
    homs = {(u, v): k0 for u in objs for v in (u - 1, u) if v >= -window}
    table = ChainMap(TensorSpace(k0, k0).complex, k0, 0, {0: IntMatrix.from_rows([[1]])})
    tables = {(a, b, c): table for a in objs for b in (a - 1, a) for c in (b - 1, b)
              if (a, b) in homs and (b, c) in homs and (a, c) in homs}
    ids = {u: Elt(k0, 0, (1,)) for u in objs}
    return FiniteDGCategory(objs, homs, tables, ids)


# -- modules -------------------------------------------------------------


RIGHT, LEFT = "right", "left"


def action_domain(side: str, hom: Complex, value: Complex) -> TensorSpace:
    """The tensor complex an action reads: value (x) hom on the right
    side, hom (x) value on the left."""
    return TensorSpace(value, hom) if side == RIGHT else TensorSpace(hom, value)


class DGModule:
    """A module over a DG-category, acting from one side.

    side "right": actions M V (x) hom(U,V) -> M U;
    side "left":  actions hom(U,V) (x) N U -> N V.
    `act` and `dot` take their two elements in tensor order.
    """

    def __init__(self, base: FiniteDGCategory, values: Mapping, actions: Mapping,
                 side: str = RIGHT):
        if side not in (RIGHT, LEFT):
            raise ValueError(f"module side must be {RIGHT!r} or {LEFT!r}, got {side!r}")
        self.base = base
        self.values = dict(values)
        self.actions = dict(actions)
        self.side = side
        self._ts: Dict[Tuple, TensorSpace] = {}

    def value(self, x) -> Complex:
        return self.values.get(x, Complex.zero())

    def ends(self, u, v) -> Tuple:
        """(object acted on, object acted into) by hom(U,V)."""
        return (v, u) if self.side == RIGHT else (u, v)

    def action_space(self, u, v) -> TensorSpace:
        if (u, v) not in self._ts:
            src, _ = self.ends(u, v)
            self._ts[(u, v)] = action_domain(self.side, self.base.hom(u, v), self.value(src))
        return self._ts[(u, v)]

    def act(self, u, v, a: Elt, b: Elt) -> Elt:
        """Tensor-level action on a (x) b (no sign)."""
        return _evaluate(self.actions.get((u, v)), self.action_space(u, v),
                         self.value(self.ends(u, v)[1]), a, b)

    def act_by(self, u, v, f: Elt, x: Elt) -> Elt:
        """f in hom(U,V) acting on x from the module's side (no sign)."""
        return self.act(u, v, x, f) if self.side == RIGHT else self.act(u, v, f, x)

    def dot(self, u, v, a: Elt, b: Elt) -> Elt:
        """Elementwise action: y . f = (-1)^{|y||f|} act(y (x) f) on the
        right, where the element crosses the hom factor; f . x = act(f (x) x)
        on the left."""
        if self.side == RIGHT and (a.degree * b.degree) % 2:
            return -1 * self.act(u, v, a, b)
        return self.act(u, v, a, b)

    def action_proto(self, u, v, f: Elt) -> Proto:
        """For fixed f in hom(U,V), the proto of degree |f| given by the
        elementwise action of f: N U -> N V on the left, M V -> M U on
        the right."""
        src_obj, tgt_obj = self.ends(u, v)
        src, tgt = self.value(src_obj), self.value(tgt_obj)
        comps = {}
        for r in src.degrees():
            if src.rank(r) == 0 or tgt.rank(r + f.degree) == 0:
                continue
            if self.side == RIGHT:
                cols = [self.dot(u, v, x, f).vec for x in basis_elts(src, r)]
            else:
                cols = [self.dot(u, v, f, x).vec for x in basis_elts(src, r)]
            comps[r] = IntMatrix.from_cols(cols, tgt.rank(r + f.degree))
        return Proto(src, tgt, f.degree, comps)

    def validate(self) -> List[str]:
        """Unit law and associativity of the action on basis elements."""
        failures = []
        base = self.base
        for x_obj in base.objects:
            mx = self.value(x_obj)
            if mx.is_zero():
                continue
            for x in all_basis_elts(mx):
                if self.act_by(x_obj, x_obj, base.identity(x_obj), x) != x:
                    failures.append(f"unit law fails on value({x_obj})")
                    break
        for u, v, huv in base.nonzero_homs():
            for w, hvw in base.homs_out(v):
                src, _ = self.ends(u, w)
                if self.value(src).is_zero():
                    continue
                for g in all_basis_elts(hvw):
                    for f in all_basis_elts(huv):
                        gf = base.compose_elts(u, v, w, g, f)
                        for x in all_basis_elts(self.value(src)):
                            if self.side == RIGHT:     # x.(g o f) = (x.g).f
                                twice = self.act_by(u, v, f, self.act_by(v, w, g, x))
                            else:                      # (g o f).x = g.(f.x)
                                twice = self.act_by(v, w, g, self.act_by(u, v, f, x))
                            if self.act_by(u, w, gf, x) != twice:
                                failures.append(
                                    f"{self.side} action associativity fails "
                                    f"at ({u},{v},{w})")
        return failures


def representable(cat: FiniteDGCategory, k, side: str) -> DGModule:
    """hom(-, k) on the right, hom(k, -) on the left, with action the
    composition tables."""
    right = side == RIGHT
    values = {x: cat.hom(x, k) if right else cat.hom(k, x) for x in cat.objects}
    actions = {}
    for u, v, _ in cat.nonzero_homs():
        table = cat.compose_table.get((u, v, k) if right else (k, u, v))
        if table is not None:
            actions[(u, v)] = table
    return DGModule(cat, values, actions, side)


def suspend_module(m: DGModule, k: int) -> DGModule:
    """Shift every value by k and reindex the actions.  The shifted action
    domain in degree n + k has the blocks of degree n in the same places,
    so each action matrix moves up k degrees.  On the right no sign
    appears (the identity-shaped S(A (x) B) = SA (x) B); on the left the
    shift crosses the hom factor, and the columns of the block of hom
    degree p pick up (-1)^{kp}."""
    out = DGModule(m.base, {x: suspension(m.value(x), k) for x in m.values}, {}, m.side)
    for (u, v), table in m.actions.items():
        blocks = m.action_space(u, v).layout.blocks
        comps = {}
        for n, mat in table.comps().items():
            if m.side == LEFT and k % 2:
                mat = mat @ IntMatrix.diagonal([-1 if (k * p) % 2 else 1
                                                for p, rows, cols, _ in blocks(n)
                                                for _ in range(rows * cols)])
            comps[n + k] = mat
        out.actions[(u, v)] = ChainMap(out.action_space(u, v).complex,
                                       out.value(out.ends(u, v)[1]), 0, comps)
    return out


def direct_sum_modules(m1: DGModule, m2: DGModule) -> DGModule:
    """Blockwise direct sum of modules on the same side over the same base."""
    if m1.side != m2.side:
        raise ValueError("direct sum of a right and a left module")
    base, side = m1.base, m1.side
    values = {x: direct_sum([m1.value(x), m2.value(x)]) for x in base.objects}
    actions = {}
    for u, v, hom in base.nonzero_homs():
        src, tgt = m1.ends(u, v)
        if values[src].is_zero():
            continue
        ts_new = action_domain(side, hom, values[src])
        spaces = [m.action_space(u, v) for m in (m1, m2)]
        tables = [m.actions.get((u, v)) or Proto.zero(ts.complex, m.value(tgt))
                  for m, ts in zip((m1, m2), spaces)]
        comps = {}
        for n in ts_new.layout.degrees():
            # [table 1, 0; 0, table 2], its columns taken in the order of ts_new
            comps[n] = block_diagonal([t.comp(n) for t in tables]).select_cols(
                _summand_columns(side, ts_new, spaces, n))
        actions[(u, v)] = ChainMap(ts_new.complex, values[tgt], 0, comps)
    return DGModule(base, values, actions, side)


def _summand_columns(side: str, ts_new: TensorSpace, spaces: List[TensorSpace], n: int):
    """The columns of the summands' action domains `spaces`, side by side,
    in the degree-n order of ts_new, the action domain of their sum.  The
    value indexes the rows of a block on the right, so a block of ts_new is
    the summands' blocks in turn; on the left, each row is their rows in turn."""
    order = []
    for p, rows, _, _ in ts_new.layout.blocks(n):
        runs, start = [], 0
        for ts in spaces:
            size, width = ts.left.rank(p) * ts.right.rank(n - p), ts.right.rank(n - p)
            if size:
                runs.append((start + ts.layout.slot(n, p), size if side == RIGHT else width))
            start += ts.dim(n)
        for i in range(1 if side == RIGHT else rows):
            for first, run in runs:
                order += range(first + i * run, first + (i + 1) * run)
    return order


@dataclass
class ModuleTransform:
    """Protonatural transformation between right modules: componentwise
    protos of one fixed degree."""

    source: DGModule
    target: DGModule
    degree: int
    components: Dict[object, Proto]

    def component(self, x) -> Proto:
        p = self.components.get(x)
        if p is None:
            return Proto.zero(self.source.value(x), self.target.value(x), self.degree)
        return p

    def apply(self, x, y: Elt) -> Elt:
        p = self.component(x)
        tgt = self.target.value(x)
        return Elt(tgt, y.degree + self.degree,
                   p.comp(y.degree).apply(y.vec))

    def naturality_failures(self) -> List[str]:
        """theta_U(y . f) = (-1)^{|f| deg} (theta_V y) . f on basis pairs."""
        out = []
        base = self.source.base
        for u, v, homuv in base.nonzero_homs():
            if self.source.value(v).is_zero():
                continue
            for y in all_basis_elts(self.source.value(v)):
                for f in all_basis_elts(homuv):
                    sign = -1 if (f.degree * self.degree) % 2 else 1
                    lhs = self.apply(u, self.source.dot(u, v, y, f))
                    rhs = sign * self.target.dot(u, v, self.apply(v, y), f)
                    if lhs != rhs:
                        out.append(f"naturality fails at ({u},{v}) on "
                                   f"deg ({y.degree},{f.degree})")
        return out

    def is_cycle(self) -> bool:
        """Chain transformation: every component killed by d_hom."""
        return all(d_hom(self.component(x)).is_zero() for x in self.source.base.objects)

    def compose_with(self, other: "ModuleTransform") -> "ModuleTransform":
        """self o other (other applied first)."""
        comps = {}
        for x in self.source.base.objects:
            comps[x] = compose(self.component(x), other.component(x))
        return ModuleTransform(other.source, self.target,
                               self.degree + other.degree, comps)


# -- coends -------------------------------------------------------------


class PresentedComplex:
    """Degreewise cokernel of relations R_n: Q_n -> P_n, one matrix per degree
    of the ambient P, with the induced differential on canonical generators."""

    def __init__(self, ambient: Complex, relations: Mapping[int, IntMatrix]):
        self.ambient = ambient
        self.relations = dict(relations)
        self.groups: Dict[int, FPAbGroup] = {}
        self._proj: Dict[int, IntMatrix] = {}
        self._sect: Dict[int, IntMatrix] = {}
        self.diffs: Dict[int, IntMatrix] = {}
        for n in ambient.degrees():
            cok = cokernel(self.relations[n])
            self.groups[n] = cok.group
            self._proj[n] = cok.projection
            self._sect[n] = cok.section
        for n in ambient.degrees():
            if n - 1 in self._proj:
                self.diffs[n] = self._proj[n - 1] @ ambient.diff(n) @ self._sect[n]

    def group(self, n: int) -> FPAbGroup:
        return self.groups.get(n, FPAbGroup.zero())

    def graded_groups(self) -> GradedGroups:
        return GradedGroups(self.groups)

    def project(self, n: int, vec: Sequence[int]) -> tuple:
        return self._proj[n].apply(vec)

    def projection(self, n: int) -> IntMatrix:
        return self._proj.get(n, IntMatrix.zeros(0, self.ambient.rank(n)))

    def section(self, n: int) -> IntMatrix:
        return self._sect.get(n, IntMatrix.zeros(self.ambient.rank(n), 0))

    def diff(self, n: int) -> IntMatrix:
        m = self.diffs.get(n)
        if m is None:
            g_rows = self.group(n - 1).generator_count if n - 1 in self.groups else 0
            g_cols = self.group(n).generator_count if n in self.groups else 0
            return IntMatrix.zeros(g_rows, g_cols)
        return m

    def verify_differential(self) -> bool:
        """d factors through the quotient and squares to zero on it."""
        for n in self.ambient.degrees():
            if n - 1 not in self._proj:
                continue
            lhs = self._proj[n - 1] @ self.ambient.diff(n)
            rhs = self.diff(n) @ self._proj[n]
            g = self.group(n - 1)
            zero = (0,) * g.generator_count
            for j in range(lhs.cols):
                delta = tuple(a - b for a, b in zip(lhs.col(j), rhs.col(j)))
                if not g.element_equal(delta, zero):
                    return False
            if n - 2 in self._proj:
                sq = self.diff(n - 1) @ self.diff(n)
                g2 = self.group(n - 2)
                zero2 = (0,) * g2.generator_count
                for j in range(sq.cols):
                    if not g2.element_equal(sq.col(j), zero2):
                        return False
        return True

    def free_model(self) -> Complex:
        """A free complex carried by the canonical generators; only valid
        when the presentation is degreewise torsion-free."""
        torsion = {n: g for n, g in self.groups.items() if not g.is_free()}
        if torsion:
            raise TorsionInPresentation(torsion)
        ranks = {n: g.free_rank for n, g in self.groups.items()}
        diffs = {n: m for n, m in self.diffs.items()}
        return Complex.from_ranks(ranks, diffs)


def _require_dual_sides(m: DGModule, n_mod: DGModule):
    if m.side != RIGHT or n_mod.side != LEFT:
        raise ValueError(f"expected a right and a left module, got {m.side} and {n_mod.side}")


def coend_tensor(m: DGModule, n_mod: DGModule) -> "CoendResult":
    """M (x)_C N: the sum P of M U (x) N U modulo R = rho - lambda: Q -> P,
    for Q the sum of (M V (x) hom(U,V)) (x) N U over the nonzero homs.

    P has a block per object with both values nonzero, in object order, laid
    out as TensorSpace(M U, N U).  Q is a layout only: per hom, in
    `nonzero_homs` order, a block per left degree pq of M V (x) hom, holding
    (M V (x) hom)_pq x (N U)_s.  There rho = +act_M_pq (x) I_{(N U)_s}, into
    block pq at U, and lambda = -I_{(M V)_p} (x) (act_N_{r+s} on the columns
    of block r of hom (x) N U), into block p at V, for each block p of
    (M V (x) hom)_pq and r = pq - p.  The actions have degree 0, so no Koszul
    sign arises, and the associator needs no matrix: slot (i, k, j) of block
    p already runs in the order of (M V)_p x (block r of hom (x) N U)."""
    _require_dual_sides(m, n_mod)
    spaces = {x: TensorSpace(m.value(x), n_mod.value(x)) for x in m.base.objects
              if not (m.value(x).is_zero() or n_mod.value(x).is_zero())}
    p_lay, q_lay, homs = BlockLayout(), BlockLayout(), {}
    for x, ts in spaces.items():
        for n in ts.layout.degrees():
            p_lay.add(n, x, ts.dim(n))
    for u, v, hom in m.base.nonzero_homs():
        nu = n_mod.value(u)
        if m.value(v).is_zero() or nu.is_zero():
            continue
        mv_h = m.action_space(u, v)
        acts = [act.comps() if act is not None else {}
                for act in (m.actions.get((u, v)), n_mod.actions.get((u, v)))]
        homs[(u, v)] = (mv_h, tensor_layout(hom, nu), *acts)
        for pq in mv_h.layout.degrees():
            for s in nu.degrees():
                q_lay.add(pq + s, (u, v, pq), mv_h.dim(pq), nu.rank(s))
    ambient = direct_sum([ts.complex for ts in spaces.values()])
    relations = {}
    for n in ambient.degrees():
        out = [[0] * q_lay.dim(n) for _ in range(p_lay.dim(n))]
        for (u, v, pq), _, ns, off in q_lay.blocks(n):
            mv_h, hn_lay, act_m, act_n = homs[(u, v)]
            if pq in act_m:      # rho
                scatter_kron(out, p_lay.slot(n, u) + spaces[u].layout.slot(n, pq), off,
                             act_m[pq], ns)
            for p, mv_p, hom_r, off_p in mv_h.layout.blocks(pq):     # lambda
                if n - p in act_n:   # act_N_{r+s}, r + s = n - p
                    first = hn_lay.slot(n - p, pq - p)
                    scatter_kron(out, p_lay.slot(n, v) + spaces[v].layout.slot(n, p),
                                 off + off_p * ns, mv_p,
                                 act_n[n - p].select_cols(range(first, first + hom_r * ns)), -1)
        relations[n] = IntMatrix.from_rows(out, q_lay.dim(n), _trusted=True)
    return CoendResult(PresentedComplex(ambient, relations), m, n_mod, spaces, p_lay)


class CoendResult:
    def __init__(self, presented: PresentedComplex, m: DGModule, n_mod: DGModule,
                 spaces: Mapping[object, TensorSpace], layout: BlockLayout):
        self.presented = presented
        self.m = m
        self.n = n_mod
        self._ts = spaces
        self._layout = layout

    def graded_groups(self) -> GradedGroups:
        return self.presented.graded_groups()

    def tensor_space(self, u) -> TensorSpace:
        return self._ts[u]

    def slot(self, u, n: int) -> int:
        """The ambient slot of the summand at u's first basis element in degree n."""
        return self._layout.slot(n, u)

    def class_of(self, u, y: Elt, x: Elt) -> tuple:
        """Coordinates, on the canonical generators, of [y (x) x] from
        the summand at u."""
        vec = self._ts[u].embed_pair(y.degree, y.vec, x.degree, x.vec)
        n = y.degree + x.degree
        amb = [0] * self.presented.ambient.rank(n)
        off = self.slot(u, n) if vec else 0
        amb[off:off + len(vec)] = vec
        return self.presented.project(n, amb)


# -- weighted colimits ----------------------------------------------------


class WeightedColimit:
    """colim(M, F) = M (x)_C F with the universal cocone.

    The colimit complex is the free model of the coend presentation
    (raises TorsionInPresentation if torsion appears).
    """

    def __init__(self, m: DGModule, f: DGModule):
        self.m = m
        self.f = f
        self.coend = coend_tensor(m, f)
        self.colimit = self.coend.presented.free_model()

    def gamma_proto(self, u, y: Elt) -> Proto:
        """The cocone component at y in M U: the proto F U -> colim
        sending x to the class of y (x) x."""
        fu = self.f.value(u)
        comps = {}
        for r in fu.degrees():
            if fu.rank(r) == 0:
                continue
            n = r + y.degree
            cols = [self.coend.class_of(u, y, x) for x in basis_elts(fu, r)]
            comps[r] = IntMatrix.from_cols(cols, self.colimit.rank(n))
        return Proto(fu, self.colimit, y.degree, comps)

    def defining_iso_verified(self, probes: Sequence[Complex]) -> bool:
        for t in probes:
            if not _verify_weighted_colimit_iso(self, t):
                return False
        return True


def _theta_spaces(wc: WeightedColimit, t: Complex):
    out = {}
    for u in wc.m.base.objects:
        mu, fu = wc.m.value(u), wc.f.value(u)
        if mu.is_zero():
            continue
        hs_out = HomSpace(fu, t)
        hs_theta = HomSpace(mu, hs_out.complex)
        out[u] = (hs_out, hs_theta)
    return out


def _verify_weighted_colimit_iso(wc: WeightedColimit, t: Complex) -> bool:
    """The canonical map Phi: [colim, T] -> (protonatural M => [F-, T]),
    theta_U(y) = h o gamma_U(y), is a degreewise group isomorphism commuting
    with the differentials.  A degree-n theta is one vector with a block per
    object U, in [M U, [F U, T]]_n.  Per degree, three matrix identities:

    * phi_n, with rows precomposition(gamma_U(y)) at the slots of y, is injective;
    * N_n phi_n = 0 and every solution of N_n theta = 0 is phi_n x, for N_n
      with rows theta_U(y.f) - (-1)^{|f||y|} theta_V(y) o F(f);
    * phi_{n-1} D_lhs(n) = D_theta(n) phi_n, for the hom differentials.
    """
    base = wc.m.base
    spaces = _theta_spaces(wc, t)
    hs_lhs = HomSpace(wc.colimit, t)

    lhs_lo = hs_lhs.complex.lo - 1
    lhs_hi = hs_lhs.complex.hi + 1
    for (hs_out, hs_theta) in spaces.values():
        if not hs_theta.complex.is_zero():
            lhs_lo = min(lhs_lo, hs_theta.complex.lo - 1)
            lhs_hi = max(lhs_hi, hs_theta.complex.hi + 1)

    theta = BlockLayout()   # the stacked theta vector: one block per object
    for n in range(lhs_lo - 1, lhs_hi + 1):
        for u, (_, hs_theta) in spaces.items():
            theta.add(n, u, hs_theta.dim(n))

    gammas = {u: [(y, wc.gamma_proto(u, y)) for y in all_basis_elts(wc.m.value(u))]
              for u in spaces}
    phis = {}

    def phi_matrix(n):
        """Matrix of h |-> theta: entry i of theta_U(y), for y the j-th basis
        element of (M U)_q, is entry (i, j) of block q of theta_U."""
        if n in phis:
            return phis[n]
        out = [[0] * hs_lhs.dim(n) for _ in range(theta.dim(n))]
        for u, _, _, off in theta.blocks(n):
            hs_out, hs_theta = spaces[u]
            for y, gamma in gammas[u]:
                if hs_out.dim(y.degree + n):
                    scatter_kron(out, off + hs_theta.layout.slot(n, y.degree), 0,
                                 precomposition(gamma, hs_lhs, hs_out, n), IntMatrix.column(y.vec))
        phis[n] = IntMatrix.from_rows(out, hs_lhs.dim(n), _trusted=True)
        return phis[n]

    # per hom basis element f, once for every degree: F(f), the rows y^T
    # and (y.f)^T by the degree q of y (None for y.f = 0), and F(f)^* by q + n
    nat_terms = []
    for u, v, homuv in base.nonzero_homs():
        if u not in spaces or v not in spaces:
            continue
        mv = wc.m.value(v)
        for f in all_basis_elts(homuv):
            rows_by_q = {}
            for q in mv.degrees():
                rows_by_q[q] = []
                for y in basis_elts(mv, q):
                    yf = wc.m.dot(u, v, y, f)
                    rows_by_q[q].append((IntMatrix.from_rows([y.vec]), yf.degree,
                                         None if yf.is_zero() else IntMatrix.from_rows([yf.vec])))
            nat_terms.append((u, v, f, wc.f.action_proto(u, v, f), rows_by_q, {}))

    def naturality_matrix(n):
        """Rows: protonaturality constraints on the stacked theta vector."""
        total = theta.dim(n)
        rows: List[List[int]] = []
        for u, v, f, act_f, rows_by_q, pulls in nat_terms:
            hs_out_u, hs_theta_u = spaces[u]
            hs_out_v, hs_theta_v = spaces[v]
            for q, y_rows in rows_by_q.items():
                dim_out = hs_out_u.dim(q + f.degree + n)
                if dim_out == 0:
                    continue
                # F(f)^*: [F V, T]_{q+n} -> [F U, T]_{q+|f|+n}
                if q + n not in pulls:
                    pulls[q + n] = precomposition(act_f, hs_out_v, hs_out_u, q + n)
                pull = pulls[q + n]
                sign = -1 if (f.degree * q) % 2 else 1
                for y_row, yf_degree, yf_row in y_rows:
                    block = [[0] * total for _ in range(dim_out)]
                    if yf_row is not None:   # theta_U(y.f) = (1 (x) (y.f)^T) theta_U
                        scatter_kron(block, 0,
                                     theta.slot(n, u) + hs_theta_u.layout.slot(n, yf_degree),
                                     dim_out, yf_row)
                    if pull.cols:            # theta_V(y) o F(f) = (F(f)^* (x) y^T) theta_V
                        scatter_kron(block, 0, theta.slot(n, v) + hs_theta_v.layout.slot(n, q),
                                     pull, y_row, -sign)
                    rows.extend(block)
        if not rows:
            return IntMatrix.zeros(0, total)
        return IntMatrix.from_rows(rows, total)

    for n in range(lhs_lo, lhs_hi + 1):
        phi = phi_matrix(n)
        nat = naturality_matrix(n)
        # injectivity
        if phi.cols and kernel_basis(phi).cols:
            return False
        # image satisfies naturality
        if nat.rows and phi.cols and not (nat @ phi).is_zero():
            return False
        # surjectivity onto the solution space
        sols = kernel_basis(nat) if nat.rows else IntMatrix.identity(theta.dim(n))
        for j in range(sols.cols):
            if solve_matrix(phi, IntMatrix.column(sols.col(j))) is None:
                return False
        # differentials correspond: Phi(d h) = d_theta(Phi h)
        d_theta = block_diagonal([hs_theta.complex.diff(n) for _, hs_theta in spaces.values()])
        if phi_matrix(n - 1) @ hs_lhs.complex.diff(n) != d_theta @ phi:
            return False
    return True


def weighted_colimit(m: DGModule, f: DGModule) -> WeightedColimit:
    return WeightedColimit(m, f)


def trivial_weight(cat: FiniteDGCategory) -> DGModule:
    """The constant weight Z over a one-object category."""
    if len(cat.objects) != 1:
        raise ValueError("trivial weight needs a one-object category")
    star = cat.objects[0]
    k0 = unit_complex()
    hom = cat.hom(star, star)
    ts = TensorSpace(k0, hom)
    comps = {}
    for n in ts.complex.degrees():
        if n == 0 and ts.dim(0):
            # 1 . 1 = 1, higher basis elements act by zero unless unital
            row = [0] * ts.dim(0)
            one = cat.identity(star)
            row[ts.slot_at(0, 0, 0, one.vec.index(1))] = 1
            comps[0] = IntMatrix.from_rows([row], ts.dim(0))
    act = ChainMap(ts.complex, k0, 0, comps)
    return DGModule(cat, {star: k0}, {(star, star): act})


def module_from_complex(cat: FiniteDGCategory, a: Complex, side: str) -> DGModule:
    """Over a one-object category with hom Z: a single complex."""
    if len(cat.objects) != 1:
        raise ValueError("needs a one-object category")
    star = cat.objects[0]
    hom = cat.hom(star, star)
    if hom != unit_complex():
        raise ValueError("hom must be Z in degree 0")
    ts = action_domain(side, hom, a)
    comps = {}
    for n in ts.complex.degrees():
        if ts.dim(n) and a.rank(n):
            comps[n] = IntMatrix.identity(a.rank(n))
    act = ChainMap(ts.complex, a, 0, comps)
    return DGModule(cat, {star: a}, {(star, star): act}, side)


# -- Cauchy data ----------------------------------------------------------


@dataclass
class CauchyData:
    """A dual pair: finite eta = sum x_i (x) y_i and counit components
    eps_{U,V}: N U (x) M V -> hom(V, U)."""

    m: DGModule
    n: DGModule
    eta: List[Tuple[object, Elt, Elt]]
    eps: Dict[Tuple, ChainMap]
    _spaces: Dict[Tuple, TensorSpace] = field(default_factory=dict, init=False,
                                              repr=False, compare=False)

    def __post_init__(self):
        _require_dual_sides(self.m, self.n)

    def eps_space(self, u, v) -> TensorSpace:
        if (u, v) not in self._spaces:
            self._spaces[(u, v)] = TensorSpace(self.n.value(u), self.m.value(v))
        return self._spaces[(u, v)]

    def eps_apply(self, u, v, yn: Elt, xm: Elt) -> Elt:
        """eps_{U,V}(yn (x) xm) in hom(V, U)."""
        return _evaluate(self.eps.get((u, v)), self.eps_space(u, v),
                         self.m.base.hom(v, u), yn, xm)

    def eta_is_coend_cycle(self) -> bool:
        """The class of sum x_i (x) y_i is a 0-cycle of M (x)_C N."""
        res = coend_tensor(self.m, self.n)
        total = None
        for (e_obj, x, y) in self.eta:
            term = [0] * res.presented.group(-1).generator_count
            dx = x.boundary()
            if not dx.is_zero():
                term = [a + b for a, b in zip(term, res.class_of(e_obj, dx, y))]
            dy = y.boundary()
            if not dy.is_zero():
                sign = -1 if x.degree % 2 else 1
                term = [a + sign * b for a, b in zip(term, res.class_of(e_obj, x, dy))]
            total = term if total is None else [a + b for a, b in zip(total, term)]
        if total is None:
            return True
        g = res.presented.group(-1)
        return g.element_equal(tuple(total), (0,) * g.generator_count)


@dataclass
class CauchyReport:
    ok: bool
    witness: Optional[str] = None


# -- the Cauchy equations ------------------------------------------------------
#
# Each equation is (label, terms, const) and reads
#     sum over terms (coeff, u, v, n, m, post) of coeff * post(eps_{(u,v)}(n (x) m)) = const,
# linear in eps.  `solve_cauchy_counit` solves them for eps; the verifiers
# evaluate them on a given eps.


def _snake_equations(m: DGModule, eta: List[Tuple[object, Elt, Elt]]):
    """The evaluated snake identity sum_i x_i . eps(y_i (x) u) = u, one
    equation ("snake", x, r, i) per basis element u = e_i of M x in degree r.

    Every map in the snake is a degree-0 chain map, and the co-Yoneda
    isomorphism is induced by the action chain maps, so the terms are
    evaluated through `act` (the elementwise dot differs from it by the
    currying sign and would double-count it here).
    """
    for x_obj in m.base.objects:
        mx = m.value(x_obj)
        for r in mx.degrees():
            for i, u_elt in enumerate(basis_elts(mx, r)):
                terms = [(1, e_obj, x_obj, y_i, u_elt,
                          lambda f, e_obj=e_obj, x_i=x_i, x_obj=x_obj:
                          m.act(x_obj, e_obj, x_i, f))
                         for (e_obj, x_i, y_i) in eta]
                yield ("snake", x_obj, r, i), terms, u_elt


def _naturality_equations(m: DGModule, n_mod: DGModule):
    """DG-naturality of eps in both variables, on basis elements:

    ("U", u, u2, v): eps((g.n) (x) m) - g o eps(n (x) m) = 0 in hom(v, u2),
    for g in hom(u, u2);
    ("V", u, v2, v): eps(n (x) (m.f)) - (-1)^{|m||f|} eps(n (x) m) o f = 0
    in hom(v2, u), for f in hom(v2, v).

    Only nonzero target homs are visited: elsewhere both sides lie in a
    zero group.  For fixed (u, v) the U equations follow homs_out(u) and
    the V equations homs_in(v).
    """
    base = m.base
    for u, u2, homuu2 in base.nonzero_homs():
        for v, tgt in base.homs_in(u2):
            nu, mv = n_mod.value(u), m.value(v)
            if nu.is_zero() or mv.is_zero():
                continue
            for g in all_basis_elts(homuu2):
                for n_elt in all_basis_elts(nu):
                    gn = n_mod.dot(u, u2, g, n_elt)
                    for m_elt in all_basis_elts(mv):
                        deg = g.degree + n_elt.degree + m_elt.degree
                        terms = [
                            (1, u2, v, gn, m_elt, lambda f: f),
                            (-1, u, v, n_elt, m_elt,
                             lambda f, g=g, v=v, u=u, u2=u2:
                             base.compose_elts(v, u, u2, g, f)),
                        ]
                        yield ("U", u, u2, v), terms, Elt(tgt, deg, (0,) * tgt.rank(deg))
    for v2, v, homv2v in base.nonzero_homs():
        for u, tgt in base.homs_out(v2):
            nu, mv = n_mod.value(u), m.value(v)
            if nu.is_zero() or mv.is_zero():
                continue
            for f in all_basis_elts(homv2v):
                for n_elt in all_basis_elts(nu):
                    for m_elt in all_basis_elts(mv):
                        mf = m.dot(v2, v, m_elt, f)
                        sign = -1 if (m_elt.degree * f.degree) % 2 else 1
                        deg = n_elt.degree + m_elt.degree + f.degree
                        terms = [
                            (1, u, v2, n_elt, mf, lambda h: h),
                            (-sign, u, v, n_elt, m_elt,
                             lambda h, f=f, v2=v2, v=v, u=u:
                             base.compose_elts(v2, v, u, h, f)),
                        ]
                        yield ("V", u, v2, v), terms, Elt(tgt, deg, (0,) * tgt.rank(deg))


def _equation_holds(cd: CauchyData, terms, const: Elt) -> bool:
    """One Cauchy equation evaluated on the eps of cd; every post lands in
    the group of const, so the sides are compared in coordinates."""
    rest = const.vec
    for (coeff, u, v, n_elt, m_elt, post) in terms:
        got = post(cd.eps_apply(u, v, n_elt, m_elt)).vec
        rest = [r - coeff * g for r, g in zip(rest, got)]
    return not any(rest)


def verify_cauchy_data(cd: CauchyData) -> CauchyReport:
    """The snake identity of `_snake_equations`; the witness names the
    first basis element where it fails."""
    for (e_obj, x, y) in cd.eta:
        if x.degree + y.degree != 0:
            return CauchyReport(False, f"eta term at {e_obj} has degrees "
                                       f"({x.degree},{y.degree})")
    for (_, x_obj, r, i), terms, const in _snake_equations(cd.m, cd.eta):
        if not _equation_holds(cd, terms, const):
            return CauchyReport(
                False, f"snake fails at object {x_obj}, degree {r}, basis index {i}")
    return CauchyReport(True)


def cauchy_naturality_failures(cd: CauchyData) -> List[str]:
    """One message per failing equation of `_naturality_equations`, grouped
    by the pair (u, v) in object order, U before V."""
    where = {x: i for i, x in enumerate(cd.m.base.objects)}
    failing = [label for label, terms, const in _naturality_equations(cd.m, cd.n)
               if not _equation_holds(cd, terms, const)]
    failing.sort(key=lambda lab: (where[lab[1]], where[lab[3]], lab[0] == "V"))
    return [f"eps naturality in U fails at ({u}->{w},{v})" if kind == "U"
            else f"eps naturality in V fails at ({u},{w}->{v})"
            for kind, u, w, v in failing]


def representable_cauchy_data(cat: FiniteDGCategory, k) -> CauchyData:
    """The convergent-module witness: M = hom(-,k), N = hom(k,-),
    eta = 1_k (x) 1_k, eps = composition."""
    m = representable(cat, k, RIGHT)
    n_mod = representable(cat, k, LEFT)
    one = cat.identity(k)
    eps = {}
    for u, _ in cat.homs_out(k):
        for v, _ in cat.homs_in(k):
            table = cat.compose_table.get((v, k, u))
            if table is not None:
                eps[(u, v)] = table
    return CauchyData(m, n_mod, [(k, one, one)], eps)


# -- the graded-case retraction --------------------------------------------


@dataclass
class GRetraction:
    summand_module: DGModule       # direct sum of shifted representables
    tau: ModuleTransform           # M => sum
    xhat: ModuleTransform          # sum => M
    composite_is_identity: bool


def _is_graded_category(cat: FiniteDGCategory) -> bool:
    return all(h.has_zero_differentials() for h in cat.homs.values())


def g_retraction_from_cauchy(cd: CauchyData) -> GRetraction:
    """Exhibit a Cauchy module over a graded category as a retract of a
    finite sum of shifted representables, using the eta/eps data."""
    base = cd.m.base
    if not _is_graded_category(base):
        raise CauchyDataInvalid("base category has nonzero hom differentials")
    if not all(v.has_zero_differentials() for v in cd.m.values.values()):
        raise CauchyDataInvalid("module values carry differentials")
    if not verify_cauchy_data(cd).ok:
        raise CauchyDataInvalid("snake identity fails")

    terms = [(e_obj, x.degree) for (e_obj, x, _) in cd.eta]
    summands = [suspend_module(representable(base, e, RIGHT), mdeg)
                for (e, mdeg) in terms]
    total = summands[0]
    for s in summands[1:]:
        total = direct_sum_modules(total, s)

    tau_comps, xhat_comps = {}, {}
    for x_obj in base.objects:
        mx = cd.m.value(x_obj)
        tx = total.value(x_obj)
        stack = BlockLayout()   # tx degreewise: one block per summand
        for i, s in enumerate(summands):
            for r in s.value(x_obj).degrees():
                stack.add(r, i, s.value(x_obj).rank(r))
        tau_c, xhat_c = {}, {}
        for r in mx.degrees():
            if mx.rank(r) and tx.rank(r):
                cols = []
                for u in basis_elts(mx, r):
                    vec = [0] * tx.rank(r)
                    for i, (e_obj, x_i, y_i) in enumerate(cd.eta):
                        f = cd.eps_apply(e_obj, x_obj, y_i, u)
                        for idx, val in enumerate(f.vec):
                            vec[stack.slot(r, i, idx)] = val
                    cols.append(tuple(vec))
                tau_c[r] = IntMatrix.from_cols(cols, tx.rank(r))
        for r in tx.degrees():
            if tx.rank(r) and mx.rank(r):
                cols = []
                for i, (e_obj, x_i, y_i) in enumerate(cd.eta):
                    he = base.hom(x_obj, e_obj)
                    inner_deg = r - x_i.degree
                    for f in basis_elts(he, inner_deg):
                        # Yoneda transpose of x_i out of the shifted
                        # representable: the (-1)^{m|f|} twist cancels the
                        # currying sign, leaving the bare action.
                        cols.append(cd.m.act(x_obj, e_obj, x_i, f).vec)
                xhat_c[r] = IntMatrix.from_cols(cols, mx.rank(r))
        tau_comps[x_obj] = Proto(mx, tx, 0, tau_c)
        xhat_comps[x_obj] = Proto(tx, mx, 0, xhat_c)

    tau = ModuleTransform(cd.m, total, 0, tau_comps)
    xhat = ModuleTransform(total, cd.m, 0, xhat_comps)
    composite = xhat.compose_with(tau)
    ok = all(composite.component(x) == identity_map(cd.m.value(x))
             for x in base.objects)
    return GRetraction(total, tau, xhat, ok)


# -- protosplit-quotient witnesses ------------------------------------------


@dataclass
class ProtosplitQuotientReport:
    ok: bool
    idempotent: Optional[Elt]
    failures: List[str]


def verify_protosplit_quotient(m: DGModule, b_obj, gamma_p: ModuleTransform,
                               sigma: ModuleTransform) -> ProtosplitQuotientReport:
    """gamma' o sigma = 1_M; e = sigma_B gamma'_B (1_B) is idempotent and
    sigma o gamma' acts as postcomposition with e (checked by Yoneda on
    every hom basis)."""
    base = m.base
    failures = []
    if gamma_p.degree != 0 or sigma.degree != 0:
        failures.append("transformations must have degree 0")
        return ProtosplitQuotientReport(False, None, failures)
    for name, tr in (("gamma'", gamma_p), ("sigma", sigma)):
        if not tr.is_cycle():
            failures.append(f"{name} is not a chain transformation")
        nat = tr.naturality_failures()
        if nat:
            failures.append(f"{name}: " + nat[0])
    composite = gamma_p.compose_with(sigma)
    if not all(composite.component(x) == identity_map(m.value(x))
               for x in base.objects):
        failures.append("gamma' o sigma != 1_M")
    if failures:
        return ProtosplitQuotientReport(False, None, failures)

    one_b = base.identity(b_obj)
    e = sigma.apply(b_obj, gamma_p.apply(b_obj, one_b))
    if base.compose_elts(b_obj, b_obj, b_obj, e, e) != e:
        failures.append("extracted e is not idempotent")
    for x_obj, hom_xb in base.homs_in(b_obj):
        for f in all_basis_elts(hom_xb):
            lhs = sigma.apply(x_obj, gamma_p.apply(x_obj, f))
            rhs = base.compose_elts(x_obj, b_obj, b_obj, e, f)
            if lhs != rhs:
                failures.append(f"sigma o gamma' != hom(-, e) at {x_obj}")
                break
    return ProtosplitQuotientReport(not failures, e, failures)


# -- cokernel presentations of modules ---------------------------------------


@dataclass
class PresentationCell:
    """The evaluation map (gamma) at one object and degree, with its
    integer kernel (the relations) and cokernel invariants."""

    obj: object
    degree: int
    gamma: IntMatrix
    column_labels: List[Tuple[int, int, int]]   # (generator idx, hom degree, hom index)
    relations: IntMatrix
    cokernel: FPAbGroup

    @property
    def surjective(self) -> bool:
        return self.cokernel.is_trivial()


@dataclass
class ModulePresentation:
    generators: List[Tuple[object, Elt]]
    cells: List[PresentationCell]

    @property
    def surjective(self) -> bool:
        return all(c.surjective for c in self.cells)

    def gamma_phi_is_zero(self) -> bool:
        return all((c.gamma @ c.relations).is_zero() for c in self.cells)


def module_presentation(m: DGModule,
                        generators: Optional[List[Tuple[object, Elt]]] = None
                        ) -> ModulePresentation:
    """Present M by generators (value-basis elements by default) mapped
    out of shifted free covers, with degreewise integer relations."""
    base = m.base
    if generators is None:
        generators = []
        for b in base.objects:
            for g in all_basis_elts(m.value(b)):
                generators.append((b, g))
    at_obj: Dict[object, List[Tuple[int, Elt]]] = {}
    for j, (b_obj, g) in enumerate(generators):
        at_obj.setdefault(b_obj, []).append((j, g))
    cells = []
    for x_obj in base.objects:
        mx = m.value(x_obj)
        if mx.is_zero():
            continue
        # the generators that a nonzero hom out of x_obj reaches, in generator order
        reached = sorted(((j, b_obj, g, hom_xb) for b_obj, hom_xb in base.homs_out(x_obj)
                          for j, g in at_obj.get(b_obj, ())), key=lambda t: t[0])
        for r in mx.degrees():
            if mx.rank(r) == 0:
                continue
            cols = []
            labels = []
            for j, b_obj, g, hom_xb in reached:
                fdeg = r - g.degree
                for idx, f in enumerate(basis_elts(hom_xb, fdeg)):
                    cols.append(m.dot(x_obj, b_obj, g, f).vec)
                    labels.append((j, fdeg, idx))
            gamma = IntMatrix.from_cols(cols, mx.rank(r))
            cells.append(PresentationCell(
                x_obj, r, gamma, labels, kernel_basis(gamma), cokernel(gamma).group))
    return ModulePresentation(generators, cells)


# -- solving for Cauchy counits ----------------------------------------------


def solve_cauchy_counit(m: DGModule, n_mod: DGModule,
                        eta: List[Tuple[object, Elt, Elt]]) -> Optional[CauchyData]:
    """Solve the snake identity and both DG-naturality conditions for the
    counit eps, by exact integer linear algebra over its matrix entries.

    Returns valid CauchyData or None; mirrors the solved-for policy used
    for the monoidal duality witnesses (signs are a consequence, never an
    input).
    """
    base = m.base
    spaces: Dict[Tuple, Tuple[TensorSpace, Complex]] = {}
    # the unknowns: one block per (u, v, d), the matrix of eps_{(u,v)} in degree d
    entries = BlockLayout()
    for u in base.objects:
        for v, target in base.homs_in(u):
            nu, mv = n_mod.value(u), m.value(v)
            if nu.is_zero() or mv.is_zero():
                continue
            ts = TensorSpace(nu, mv)
            for d in ts.complex.degrees():
                entries.add(0, (u, v, d), target.rank(d), ts.dim(d))
            spaces[(u, v)] = (ts, target)
    total = entries.dim(0)

    rows: List[List[int]] = []
    rhs: List[int] = []

    # each Cauchy equation gives one row per coordinate of const
    for _, terms, const in chain(_snake_equations(m, eta),
                                 _naturality_equations(m, n_mod)):
        block = [[0] * total for _ in range(len(const.vec))]
        for (coeff, u, v, n_elt, m_elt, post) in terms:
            ts, target = spaces.get((u, v), (None, None))
            d = n_elt.degree + m_elt.degree
            if ts is None or target.rank(d) == 0 or ts.dim(d) == 0:
                continue
            pair = ts.embed_pair(n_elt.degree, n_elt.vec, m_elt.degree, m_elt.vec)
            pair_row = IntMatrix(1, len(pair), pair)
            for o, f in enumerate(basis_elts(target, d)):
                # coeff * post(f)_i * pair_k lands on entry (o, k) of eps_d
                scatter_kron(block, 0, entries.slot(0, (u, v, d), o),
                             IntMatrix.column(post(f).vec), pair_row, coeff)
        rows.extend(block)
        rhs.extend(const.vec)

    # chain-map property of each eps component: d o eps_d = eps_{d-1} o d,
    # on row-major vec: (d (x) 1) vec(eps_d) - (1 (x) d^T) vec(eps_{d-1}) = 0
    for (u, v), (ts, target) in spaces.items():
        for d in ts.complex.degrees():
            dims_in, rows_below = ts.dim(d), target.rank(d - 1)
            block = [[0] * total for _ in range(rows_below * dims_in)]
            if block and target.rank(d):
                scatter_kron(block, 0, entries.slot(0, (u, v, d)), target.diff(d), dims_in)
            if block and ts.dim(d - 1):
                scatter_kron(block, 0, entries.slot(0, (u, v, d - 1)), rows_below,
                             ts.complex.diff(d).transpose(), -1)
            rows.extend(block)
            rhs.extend([0] * len(block))

    if not rows:
        return CauchyData(m, n_mod, list(eta), {})
    a = IntMatrix.from_rows(rows, total)
    sol = solve_matrix(a, IntMatrix.column(rhs))
    if sol is None:
        return None
    vec = sol.col(0)
    comps: Dict[Tuple, Dict[int, IntMatrix]] = {key: {} for key in spaces}
    for (u, v, d), rows_d, cols_d, off in entries.blocks(0):
        comps[(u, v)][d] = IntMatrix(rows_d, cols_d, vec[off:off + rows_d * cols_d])
    eps = {key: ChainMap(ts.complex, target, 0, comps[key])
           for key, (ts, target) in spaces.items()}
    return CauchyData(m, n_mod, list(eta), eps)
