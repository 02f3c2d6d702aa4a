"""Small DG-categories with explicit composition tables, modules over
them, coend tensor products, weighted colimits, and Cauchy-data
verification.

Composition, module actions and the Cauchy counit are stored as degree-0
chain maps out of tensor complexes: tables.  A table with one factor fixed
at an element a is a proto out of the other factor, the table composed
with `TensorSpace.inserted` (a (x) - or - (x) a), so every axiom and every
Cauchy equation is an identity of protos, checked column by column: a
failing column names the basis element where it fails.  One class,
`DGModule`, serves both sides; its `side` says where the hom factor sits:

* a right module M has actions M V (x) hom(U,V) -> M U (weights, and the
  M of Cauchy data);
* a left module N has actions hom(U,V) (x) N U -> N V (diagrams, and the
  N of Cauchy data).

The elementwise right action carries the crossing sign,
y . f = (-1)^{|y||f|} act(y (x) f), which makes representable modules
literal composition tables and reproduces z . (g o f) = (-1)^{nm} (z . g) . f;
on the left nothing crosses, so f . x = act(f (x) x).  `action_proto` is
this elementwise action of a fixed f, and `bare_action` and `orbit` read
the table with no sign.  Suspension follows the same rule: only on the left
does the shift pass the hom factor and pick up (-1)^{k|f|}.

Tables are composites of structure maps: a unit table is a unitor, as is
the action of Z on one complex; a sum of modules acts through the injections
i_k and projections p_k of its values, i_k o t_k o (p_k (x) 1); and the
unknowns of a solved Cauchy counit are the degree-0 coordinates of
HomSpace(N U (x) M V, hom(V, U)), its chain-map rows that space's differential.

The coend M (x)_C N is one object, `Coend`: in each degree n of the ambient
sum P of the M U (x) N U, the cokernel of the relations (its group, the
projection onto canonical generators and a section), and the differential
they induce.  It keeps P's layout as well.  `tensor_space(u)` is the summand
M U (x) N U, `slot(u, n)` reads where that summand's degree-n block starts in
P, and `class_map(u, y)` reads the projection on the block's columns after
y (x) -: x |-> [y (x) x], the cocone of a weighted colimit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .complexes import (
    BlockLayout,
    ChainMap,
    Complex,
    HomSpace,
    Proto,
    _is_cycle,
    compose,
    d_hom,
    direct_sum,
    direct_sum_complexes,
    identity_map,
    precomposition,
    scatter_kron,
    suspension,
    unit_complex,
)
from .monoidal import TensorSpace, left_unitor, right_unitor, tensor_proto
from .zlinalg import (
    FPAbGroup,
    IntMatrix,
    ShapeMismatch,
    block_matrix,
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

    def __hash__(self) -> int:   # equal elements share degree and coordinates
        return hash((self.degree, self.vec))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.vec)

    def __add__(self, other: "Elt") -> "Elt":
        if self.cx != other.cx or self.degree != other.degree:
            raise ShapeMismatch("elements not in the same degree")
        return Elt(self.cx, self.degree, tuple(a + b for a, b in zip(self.vec, other.vec)))

    def __rmul__(self, c: int) -> "Elt":
        return Elt(self.cx, self.degree, tuple(c * x for x in self.vec))

    def boundary(self) -> "Elt":
        return Elt(self.cx, self.degree - 1, self.cx.diff(self.degree).apply(self.vec))


def basis_elts(cx: Complex, degree: int) -> List[Elt]:
    r = cx.rank(degree)
    return [Elt(cx, degree, (0,) * i + (1,) + (0,) * (r - i - 1)) for i in range(r)]


def all_basis_elts(cx: Complex) -> List[Elt]:
    return [e for n in cx.degrees() for e in basis_elts(cx, n)]


RIGHT, LEFT = "right", "left"


def _partial(table: Optional[Proto], ts: TensorSpace, side: str, a: Elt,
             target: Complex) -> Proto:
    """The table out of ts with its `side` factor fixed at a: the proto
    table o ts.inserted(...) of degree |a| out of the other factor.  No table
    is the zero map into target; a wrong-length a raises either way."""
    ins = ts.inserted(side, a.degree, a.vec)
    return Proto.zero(ins.source, target, a.degree) if table is None else compose(table, ins)


def _crossed(p: Proto, k: int) -> Proto:
    """p with component r scaled by (-1)^{rk}: degree r crossing degree k."""
    if k % 2 == 0:
        return p
    return Proto(p.source, p.target, p.degree,
                 {r: -m if r % 2 else m for r, m in p.comps().items()})


def _image(p: Proto, x: Elt) -> Elt:
    return Elt(p.target, x.degree + p.degree, p.comp(x.degree).apply(x.vec))


def _nonzero_columns(p: Proto) -> List[Tuple[int, int]]:
    """(degree, index) of each basis element of p's source that p does not
    kill, by degree, then index: where the identity p = 0 fails."""
    return [(q, j) for q, m in sorted(p.comps().items())
            for j in range(m.cols) if any(m.col(j))]


def _unit_failures(p: Proto, cx: Complex) -> List[Tuple[int, int]]:
    """The columns where p differs from the identity of cx; a p of nonzero
    degree differs on every one."""
    if p.degree:
        return [(q, j) for q in cx.degrees() for j in range(cx.rank(q))]
    return _nonzero_columns(p - identity_map(cx))


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
            # (where[a], where[b]) differ for different keys, so a and b are never compared
            keys = sorted((where[a], where[b], a, b) for (a, b), h in self.homs.items()
                          if a in where and b in where and not h.is_zero())
            self._nonzero_homs = [(a, b, self.homs[(a, b)]) for _, _, a, b in keys]
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

    def after(self, a, b, c, v: Elt) -> Proto:
        """The map v o -: hom(a,b) -> hom(a,c) of degree |v|, for v in hom(b,c)."""
        return _partial(self.compose_table.get((a, b, c)), self.pair_space(a, b, c), LEFT, v,
                        self.hom(a, c))

    def before(self, a, b, c, u: Elt) -> Proto:
        """The map - o u: hom(b,c) -> hom(a,c) of degree |u|, for u in
        hom(a,b), read off the table with no sign."""
        return _partial(self.compose_table.get((a, b, c)), self.pair_space(a, b, c), RIGHT, u,
                        self.hom(a, c))

    def validate(self) -> List[str]:
        """Check d^2, chain-map composition (Leibniz), associativity, units.
        The last three are identities of protos out of a hom complex, and
        each failing column, a basis element u, gives one message."""
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
        after = lru_cache(maxsize=None)(self.after)   # v o -, built once per v
        # Leibniz: d(v o u) = d(v) o u + (-1)^{|v|} v o d(u), i.e.
        # d_hom(v o -) = d(v) o -, per basis element v
        for a, b, c in self.compose_table:
            for v in all_basis_elts(self.hom(b, c)):
                diff = d_hom(after(a, b, c, v)) - self.after(a, b, c, v.boundary())
                failures += [f"Leibniz fails on hom({b},{c})_{v.degree} o hom({a},{b})_{q}"
                             for q, _ in _nonzero_columns(diff)]
        # associativity: (w o v) o - = (w o -) o (v o -), per basis pair
        for a, b, _ in self.nonzero_homs():
            for c, hbc in self.homs_out(b):
                for dd, hcd in self.homs_out(c):
                    for w in all_basis_elts(hcd):
                        for v in all_basis_elts(hbc):
                            wv = _image(after(b, c, dd, w), v)
                            diff = after(a, b, dd, wv) - \
                                compose(after(a, c, dd, w), after(a, b, c, v))
                            failures += [f"associativity fails at ({a},{b},{c},{dd})"] * \
                                len(_nonzero_columns(diff))
        # units: 1_b o - = 1 and - o 1_a = 1 on hom(a, b), column by column
        for a, b, hab in self.nonzero_homs():
            if a not in self.identities or b not in self.identities:
                continue  # already reported above
            left = _unit_failures(self.after(a, b, b, self.identity(b)), hab)
            right = _unit_failures(self.before(a, a, b, self.identity(a)), hab)
            for col in sorted(set(left) | set(right)):
                if col in left:
                    failures.append(f"left unit fails on hom({a},{b})")
                if col in right:
                    failures.append(f"right unit fails on hom({a},{b})")
        return failures


# -- category builders --------------------------------------------------------


def unit_dg_category() -> FiniteDGCategory:
    """One object with hom Z in degree 0."""
    k0 = unit_complex()
    return FiniteDGCategory(("*",), {("*", "*"): k0}, {("*", "*", "*"): left_unitor(k0)[0]},
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
        j = ts.slot_at(n, v.degree, v.vec.index(1), u.vec.index(1))
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
    hom = Complex({0: 1, k: 1}, {})
    one = Elt(hom, 0, (1,))
    u = Elt(hom, k, (1,))
    zero2k = Elt(hom, 2 * k, (0,) * hom.rank(2 * k))
    products = {(one, one): one, (one, u): u, (u, one): u, (u, u): zero2k}
    return one_object_category(hom, products, one)


def group_like_category(g_squared_units: int) -> FiniteDGCategory:
    """One object; hom = Z.1 + Z.g in degree 0 with g o g = c . 1."""
    hom = Complex({0: 2}, {})
    one = Elt(hom, 0, (1, 0))
    g = Elt(hom, 0, (0, 1))
    products = {(one, one): one, (one, g): g, (g, one): g,
                (g, g): Elt(hom, 0, (g_squared_units, 0))}
    return one_object_category(hom, products, one)


def two_object_graded_category(arrow_degree: int = 0) -> FiniteDGCategory:
    """Objects a, b with endomorphisms Z and a single arrow a -> b in the
    given degree; no maps back.  Every composite is a unitor."""
    k0 = unit_complex()
    arrow = Complex.concentrated(arrow_degree)
    homs = {("a", "a"): k0, ("b", "b"): k0, ("a", "b"): arrow}
    one = left_unitor(k0)[0]
    tables = {("a", "a", "a"): one, ("b", "b", "b"): one,
              ("a", "a", "b"): right_unitor(arrow)[0], ("a", "b", "b"): left_unitor(arrow)[0]}
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
    # every composable triple shares the one table, the unitor Z (x) Z -> Z.
    homs = {(u, v): k0 for u in objs for v in (u - 1, u) if v >= -window}
    table = left_unitor(k0)[0]
    tables = {(a, b, c): table for a in objs for b in (a - 1, a) for c in (b - 1, b)
              if (a, b) in homs and (b, c) in homs and (a, c) in homs}
    ids = {u: Elt(k0, 0, (1,)) for u in objs}
    return FiniteDGCategory(objs, homs, tables, ids)


# -- modules -------------------------------------------------------------


def action_domain(side: str, hom: Complex, value: Complex) -> TensorSpace:
    """The tensor complex an action reads: value (x) hom on the right
    side, hom (x) value on the left."""
    return TensorSpace(value, hom) if side == RIGHT else TensorSpace(hom, value)


class DGModule:
    """A module over a DG-category, acting from one side.

    side "right": actions M V (x) hom(U,V) -> M U;
    side "left":  actions hom(U,V) (x) N U -> N V.
    The side is also the factor of the action domain that the hom fills.
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

    def bare_action(self, u, v, f: Elt) -> Proto:
        """The table with its hom factor fixed at f in hom(U,V): the proto
        x |-> act(x (x) f) (right) or act(f (x) x) (left), with no sign."""
        return _partial(self.actions.get((u, v)), self.action_space(u, v), self.side, f,
                        self.value(self.ends(u, v)[1]))

    def orbit(self, u, v, x: Elt) -> Proto:
        """The table with its value factor fixed at x: the proto out of
        hom(U,V), f |-> act(x (x) f) (right) or act(f (x) x) (left), no sign."""
        return _partial(self.actions.get((u, v)), self.action_space(u, v),
                        LEFT if self.side == RIGHT else RIGHT, x,
                        self.value(self.ends(u, v)[1]))

    def action_proto(self, u, v, f: Elt) -> Proto:
        """For fixed f in hom(U,V), the proto of degree |f| given by the
        elementwise action of f: N U -> N V on the left, M V -> M U on
        the right, where y . f = (-1)^{|y||f|} act(y (x) f)."""
        bare = self.bare_action(u, v, f)
        return _crossed(bare, f.degree) if self.side == RIGHT else bare

    def validate(self) -> List[str]:
        """Unit law and associativity of the bare actions as identities of
        protos: 1 acts as 1, and g o f as (f acting) o (g acting) on the right,
        (g acting) o (f acting) on the left, one message per failing column."""
        failures = []
        base = self.base
        for x_obj in base.objects:
            mx = self.value(x_obj)
            if mx.is_zero():
                continue
            if _unit_failures(self.bare_action(x_obj, x_obj, base.identity(x_obj)), mx):
                failures.append(f"unit law fails on value({x_obj})")
        acting = lru_cache(maxsize=None)(self.bare_action)   # built once per f
        for u, v, huv in base.nonzero_homs():
            for w, hvw in base.homs_out(v):
                src, _ = self.ends(u, w)
                if self.value(src).is_zero():
                    continue
                for g in all_basis_elts(hvw):
                    g_after = base.after(u, v, w, g)
                    for f in all_basis_elts(huv):
                        if self.side == RIGHT:     # x.(g o f) = (x.g).f
                            twice = compose(acting(u, v, f), acting(v, w, g))
                        else:                      # (g o f).x = g.(f.x)
                            twice = compose(acting(v, w, g), acting(u, v, f))
                        diff = acting(u, w, _image(g_after, f)) - twice
                        failures += [f"{self.side} action associativity fails at ({u},{v},{w})"] * \
                            len(_nonzero_columns(diff))
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
    """Direct sum of modules on one side over one base.  With injections
    i_k, projections p_k and tables t_k of the summands, the table is
    sum_k i_k o t_k o (p_k (x) 1) on the right, sum_k i_k o t_k o (1 (x) p_k)
    on the left."""
    if m1.side != m2.side:
        raise ValueError("direct sum of a right and a left module")
    base, side, summands = m1.base, m1.side, (m1, m2)
    sums = {x: direct_sum_complexes([m.value(x) for m in summands]) for x in base.objects}
    out = DGModule(base, {x: total for x, (total, _, _) in sums.items()}, {}, side)
    for u, v, hom in base.nonzero_homs():
        src, tgt = out.ends(u, v)
        if out.value(src).is_zero():
            continue
        ts, one = out.action_space(u, v), identity_map(hom)
        table = Proto.zero(ts.complex, out.value(tgt))
        for m, p, i in zip(summands, sums[src][2], sums[tgt][1]):
            t = m.actions.get((u, v))
            if t is not None:
                factors = (p, one) if side == RIGHT else (one, p)
                table += compose(i, compose(t, tensor_proto(*factors, ts, m.action_space(u, v))))
        out.actions[(u, v)] = ChainMap(ts.complex, out.value(tgt), 0, table.comps())
    return out


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
        return _image(self.component(x), y)

    def naturality_failures(self) -> List[str]:
        """theta_U o (- . f) = (-1)^{|f| deg} (- . f) o theta_V per basis
        element f of hom(U,V); one message per failing column y, in the
        order of the pairs (y, f)."""
        out = []
        base = self.source.base
        for u, v, homuv in base.nonzero_homs():
            if self.source.value(v).is_zero():
                continue
            failing = []
            for k, f in enumerate(all_basis_elts(homuv)):
                sign = -1 if (f.degree * self.degree) % 2 else 1
                diff = compose(self.component(u), self.source.action_proto(u, v, f)) - \
                    sign * compose(self.target.action_proto(u, v, f), self.component(v))
                failing += [(q, j, k, f.degree) for q, j in _nonzero_columns(diff)]
            out += [f"naturality fails at ({u},{v}) on deg ({q},{f_deg})"
                    for q, _, _, f_deg in sorted(failing)]
        return out

    def is_cycle(self) -> bool:
        """Chain transformation: every component killed by d_hom."""
        return all(_is_cycle(self.component(x)) for x in self.source.base.objects)

    def compose_with(self, other: "ModuleTransform") -> "ModuleTransform":
        """self o other (other applied first)."""
        comps = {x: compose(self.component(x), other.component(x))
                 for x in self.source.base.objects}
        return ModuleTransform(other.source, self.target, self.degree + other.degree, comps)


# -- coends -------------------------------------------------------------


class Coend:
    """M (x)_C N, presented: the cokernel of the relations R_n: Q_n -> P_n
    in each degree of the ambient P, the sum of the tensor spaces
    M U (x) N U laid out by `layout`, with the induced differential on the
    canonical generators."""

    def __init__(self, ambient: Complex, relations: Mapping[int, IntMatrix],
                 spaces: Mapping[object, TensorSpace], layout: BlockLayout):
        self.ambient = ambient
        self.relations = dict(relations)
        self._cok = {n: cokernel(self.relations[n]) for n in ambient.degrees()}
        self._diffs = {n: self._cok[n - 1].projection @ ambient.diff(n) @ cok.section
                       for n, cok in self._cok.items() if n - 1 in self._cok}
        self._ts = spaces
        self._layout = layout

    def group(self, n: int) -> FPAbGroup:
        zero = FPAbGroup.zero()   # on every read: the suite's SNF pins count its call
        return self._cok[n].group if n in self._cok else zero

    def projection(self, n: int) -> IntMatrix:
        if n in self._cok:
            return self._cok[n].projection
        return IntMatrix.zeros(0, self.ambient.rank(n))

    def section(self, n: int) -> IntMatrix:
        if n in self._cok:
            return self._cok[n].section
        return IntMatrix.zeros(self.ambient.rank(n), 0)

    def diff(self, n: int) -> IntMatrix:
        if n in self._diffs:
            return self._diffs[n]
        return IntMatrix.zeros(self.projection(n - 1).rows, self.section(n).cols)

    def verify_differential(self) -> bool:
        """The relations are a subcomplex, d factors through the quotient and
        squares to zero on it: per degree, the columns of proj d R, of
        proj d - d' proj and of d' d' are relations."""
        for n, d in self._diffs.items():
            below, pd = self.group(n - 1), self.projection(n - 1) @ self.ambient.diff(n)
            if not (below.presents_zero(pd @ self.relations[n])
                    and below.presents_zero(pd - d @ self.projection(n))):
                return False
            if n - 1 in self._diffs and not self.group(n - 2).presents_zero(self.diff(n - 1) @ d):
                return False
        return True

    def free_model(self) -> Complex:
        """A free complex carried by the canonical generators; only valid
        when the presentation is degreewise torsion-free."""
        torsion = {n: c.group for n, c in self._cok.items() if not c.group.is_free()}
        if torsion:
            raise TorsionInPresentation(torsion)
        return Complex({n: c.group.free_rank for n, c in self._cok.items()}, self._diffs)

    def tensor_space(self, u) -> TensorSpace:
        return self._ts[u]

    def slot(self, u, n: int) -> int:
        """The ambient slot of the summand at u's first basis element in degree n."""
        return self._layout.slot(n, u)

    def class_map(self, u, y: Elt) -> Dict[int, IntMatrix]:
        """x |-> [y (x) x] onto the canonical generators, by the degree r of x:
        the projection on the columns of the summand at u (none: zero) after
        y (x) -."""
        out = {}
        if u not in self._ts:
            return out
        for r, ins in self._ts[u].inserted(LEFT, y.degree, y.vec).comps().items():
            n = r + y.degree
            off = self.slot(u, n)
            out[r] = self.projection(n).select_cols(range(off, off + ins.rows)) @ ins
        return out


def _require_dual_sides(m: DGModule, n_mod: DGModule):
    if m.side != RIGHT or n_mod.side != LEFT:
        raise ValueError(f"expected a right and a left module, got {m.side} and {n_mod.side}")


def coend_tensor(m: DGModule, n_mod: DGModule) -> Coend:
    """M (x)_C N as one `Coend`: the sum P of M U (x) N U modulo
    R = rho - lambda: Q -> P, for Q the sum of (M V (x) hom(U,V)) (x) N U
    over the nonzero homs, cokernel by cokernel in the degrees of P.

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
        homs[(u, v)] = (mv_h, TensorSpace(hom, nu).layout, *acts)
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
    return Coend(ambient, relations, spaces, p_lay)


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
        self.colimit = self.coend.free_model()

    def gamma_proto(self, u, y: Elt) -> Proto:
        """The cocone component at y in M U: the proto F U -> colim
        sending x to the class of y (x) x."""
        return Proto(self.f.value(u), self.colimit, y.degree, self.coend.class_map(u, y))

    def defining_iso_verified(self, probes: Sequence[Complex]) -> bool:
        """[colim, T] = DG-Mod(M, [F-, T]) for each probe T.  First, once for
        all probes, the cocone components gamma_U(y), for y a basis element
        of a nonzero M U, are built and checked to form a chain map:
        d gamma_U(y) = gamma_U(dy), summed from them by the coordinates of dy."""
        gammas = {}
        for u in self.m.base.objects:
            mu, fu = self.m.value(u), self.f.value(u)
            if mu.is_zero():
                continue
            gammas[u] = pairs = [(y, self.gamma_proto(u, y)) for y in all_basis_elts(mu)]
            at = {(z.degree, z.vec.index(1)): gamma for z, gamma in pairs}
            for y, gamma in pairs:
                dy = y.boundary()
                d_gamma = sum((c * at[dy.degree, i] for i, c in enumerate(dy.vec) if c),
                              Proto.zero(fu, self.colimit, dy.degree))
                if d_hom(gamma) != d_gamma:
                    return False
        return all(_verify_weighted_colimit_iso(self, t, gammas) for t in probes)


def _verify_weighted_colimit_iso(wc: WeightedColimit, t: Complex, gammas: Mapping) -> bool:
    """The canonical map Phi: [colim, T] -> (protonatural M => [F-, T]),
    theta_U(y) = h o gamma_U(y), is a degreewise group isomorphism commuting
    with the differentials.  A degree-n theta is one vector with a block per
    object U, in [M U, [F U, T]]_n.  Per degree, two matrix identities:

    * phi_n, with rows precomposition(gamma_U(y)) at the slots of y, is injective;
    * N_n phi_n = 0 and every solution of N_n theta = 0 is phi_n x, for N_n
      with rows theta_U(y.f) - (-1)^{|f||y|} theta_V(y) o F(f).

    Phi commutes with the differentials once the cocone `gammas`, the pairs
    (y, gamma_U(y)) by U, is a chain map, by the Leibniz rule
    D_theta(Phi h)(y) - Phi(dh)(y) = (-1)^n h o (d gamma_U(y) - gamma_U(dy));
    `defining_iso_verified` checks that.  Only layouts are read, and theta
    maps into the ranks of [F U, T] alone.
    """
    hs_lhs = HomSpace(wc.colimit, t)
    spaces = {}
    for u in gammas:
        hs_out = HomSpace(wc.f.value(u), t)
        spaces[u] = hs_out, HomSpace(wc.m.value(u), Complex(hs_out.layout.dims(), {}))

    # the degrees of [colim, T] and of each theta space, one beyond each end
    lhs = hs_lhs.layout.degrees()
    thetas = [n for _, th in spaces.values() for n in th.layout.degrees()]
    lhs_lo = min([min(lhs, default=0), *thetas]) - 1
    lhs_hi = max([max(lhs, default=-1), *thetas]) + 1

    theta = BlockLayout()   # the stacked theta vector: one block per object
    for n in range(lhs_lo, lhs_hi + 1):
        for u, (_, hs_theta) in spaces.items():
            theta.add(n, u, hs_theta.dim(n))

    def phi_matrix(n):
        """Matrix of h |-> theta: entry i of theta_U(y), for y the j-th basis
        element of (M U)_q, is entry (i, j) of block q of theta_U."""
        out = [[0] * hs_lhs.dim(n) for _ in range(theta.dim(n))]
        for u, _, _, off in theta.blocks(n):
            hs_out, hs_theta = spaces[u]
            for y, gamma in gammas[u]:
                if hs_out.dim(y.degree + n):
                    scatter_kron(out, off + hs_theta.layout.slot(n, y.degree), 0,
                                 precomposition(gamma, hs_lhs, hs_out, n), IntMatrix.column(y.vec))
        return IntMatrix.from_rows(out, hs_lhs.dim(n), _trusted=True)

    # per hom basis element f, once for every degree: F(f), the rows y^T
    # and (y.f)^T by the degree q of y (None for y.f = 0), and F(f)^* by q + n;
    # y.f is column j of the elementwise action of f, for y the j-th basis element
    nat_terms = []
    for u, v, homuv in wc.m.base.nonzero_homs():
        if u not in spaces or v not in spaces:
            continue
        mv = wc.m.value(v)
        for f in all_basis_elts(homuv):
            act_m, rows_by_q = wc.m.action_proto(u, v, f), {}
            for q in mv.degrees():
                yf_cols = act_m.comp(q)
                rows_by_q[q] = [(IntMatrix.from_rows([y.vec]), q + f.degree,
                                 IntMatrix.from_rows([yf_cols.col(j)]) if any(yf_cols.col(j))
                                 else None)
                                for j, y in enumerate(basis_elts(mv, q))]
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
        return IntMatrix.from_rows(rows, total, _trusted=True)

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
            if solve_matrix(phi, IntMatrix(sols.rows, 1, sols.col(j), _trusted=True)) is None:
                return False
    return True


def weighted_colimit(m: DGModule, f: DGModule) -> WeightedColimit:
    return WeightedColimit(m, f)


def trivial_weight(cat: FiniteDGCategory) -> DGModule:
    """The constant weight Z over a one-object category: 1 . 1 = 1, and the
    other basis elements act by zero."""
    if len(cat.objects) != 1:
        raise ValueError("trivial weight needs a one-object category")
    star = cat.objects[0]
    k0 = unit_complex()
    ts = TensorSpace(k0, cat.hom(star, star))
    comps = {}
    if ts.dim(0):
        row = [0] * ts.dim(0)
        row[ts.slot_at(0, 0, 0, cat.identity(star).vec.index(1))] = 1
        comps[0] = IntMatrix.from_rows([row], ts.dim(0))
    return DGModule(cat, {star: k0}, {(star, star): ChainMap(ts.complex, k0, 0, comps)})


def module_from_complex(cat: FiniteDGCategory, a: Complex, side: str) -> DGModule:
    """Over a one-object category with hom Z: a single complex."""
    if len(cat.objects) != 1:
        raise ValueError("needs a one-object category")
    star = cat.objects[0]
    hom = cat.hom(star, star)
    if hom != unit_complex():
        raise ValueError("hom must be Z in degree 0")
    act = (right_unitor(a) if side == RIGHT else left_unitor(a))[0]
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

    def eps_map(self, u, v) -> Proto:
        """eps_{U,V}: N U (x) M V -> hom(V, U); a missing component is the
        zero map."""
        eps = self.eps.get((u, v))
        if eps is None:
            return Proto.zero(self.eps_space(u, v).complex, self.m.base.hom(v, u))
        return eps

    def eta_is_coend_cycle(self) -> bool:
        """The class of sum x_i (x) y_i is a 0-cycle of M (x)_C N:
        sum [dx_i (x) y_i] + (-1)^{|x_i|} [x_i (x) dy_i] = 0."""
        res = coend_tensor(self.m, self.n)
        g = res.group(-1)
        total = [0] * g.generator_count
        for (e_obj, x, y) in self.eta:
            sign = -1 if x.degree % 2 else 1
            for coeff, a, b in ((1, x.boundary(), y), (sign, x, y.boundary())):
                cls = res.class_map(e_obj, a).get(b.degree)
                if cls is not None:
                    total = [t + coeff * c for t, c in zip(total, cls.apply(b.vec))]
        return g.element_equal(tuple(total), (0,) * g.generator_count)


# -- the Cauchy equations ------------------------------------------------------
#
# Each equation is (label, terms, const) with terms (coeff, (u, v), post, pre)
# and reads sum coeff * post o eps_(u,v) o pre = const, an identity of protos
# out of one domain, linear in eps; column j of degree q is the equation at
# the j-th basis element of degree q.  `solve_cauchy_counit` solves them for
# eps; the verifiers evaluate them on a given eps, column by column.
# * snake at x: sum_i (x_i . -) o eps_(e_i,x) o (y_i (x) -) = 1 on M x;
# * U, per basis g of hom(u,u2): eps_(u2,v) o ((g . -) (x) 1) = (g o -) o eps_(u,v);
# * V, per basis f of hom(v2,v): eps_(u,v2) o (1 (x) (- . f)) = (- . f) o eps_(u,v).
# Both U and V are identities out of N u (x) M v, and their labels end in
# the (degree, index) of g or f.
# The crossing signs of V sit in its maps: - . f (on M and on hom(-, u)) is
# (-1)^{|y||f|} on y, and 1 (x) (- . f) is (-1)^{|f||n|} on n (x) m (Koszul),
# so at n (x) m it is (-1)^{|f||n|} times eps(n (x) m.f) = (-1)^{|m||f|} eps(n (x) m) o f.


def _snake_equations(cd: CauchyData):
    """("snake", x) per object x with M x nonzero.  Every map in the snake
    is a degree-0 chain map, and the co-Yoneda isomorphism is induced by
    the action chain maps, so x_i acts through the bare table (the
    elementwise dot differs from it by the currying sign and would count
    it twice).  A term whose hom(x, e_i) is zero is left out."""
    m, base = cd.m, cd.m.base
    for x_obj in base.objects:
        mx = m.value(x_obj)
        if mx.is_zero():
            continue
        terms = [(1, (e_obj, x_obj), m.orbit(x_obj, e_obj, x_i),
                  cd.eps_space(e_obj, x_obj).inserted(LEFT, y_i.degree, y_i.vec))
                 for (e_obj, x_i, y_i) in cd.eta if not base.hom(x_obj, e_obj).is_zero()]
        yield ("snake", x_obj), terms, identity_map(mx)


def _naturality_equations(cd: CauchyData):
    """DG-naturality of eps in both variables, ("U", u, u2, v, g) and ("V",
    u, v2, v, f) with const zero, g and f the (degree, index) of a hom
    basis element, only where the target hom is nonzero (elsewhere both
    sides lie in a zero group): for fixed (u, v) the U equations follow
    homs_out(u), the V equations homs_in(v).  A term into a zero hom is left out."""
    m, n_mod, base = cd.m, cd.n, cd.m.base
    for u, u2, homuu2 in base.nonzero_homs():
        for v, tgt in base.homs_in(u2):
            nu, mv = n_mod.value(u), m.value(v)
            if nu.is_zero() or mv.is_zero():
                continue
            for g in all_basis_elts(homuu2):
                pre = tensor_proto(n_mod.action_proto(u, u2, g), identity_map(mv),
                                   cd.eps_space(u, v), cd.eps_space(u2, v))
                terms = [(1, (u2, v), identity_map(tgt), pre)]
                if not base.hom(v, u).is_zero():
                    terms.append((-1, (u, v), base.after(v, u, u2, g), identity_map(pre.source)))
                yield (("U", u, u2, v, (g.degree, g.vec.index(1))), terms,
                       Proto.zero(pre.source, tgt, g.degree))
    for v2, v, homv2v in base.nonzero_homs():
        for u, tgt in base.homs_out(v2):
            nu, mv = n_mod.value(u), m.value(v)
            if nu.is_zero() or mv.is_zero():
                continue
            for f in all_basis_elts(homv2v):
                pre = tensor_proto(identity_map(nu), m.action_proto(v2, v, f),
                                   cd.eps_space(u, v), cd.eps_space(u, v2))
                terms = [(1, (u, v2), identity_map(tgt), pre)]
                if not base.hom(v, u).is_zero():
                    terms.append((-1, (u, v), _crossed(base.before(v2, v, u, f), f.degree),
                                  identity_map(pre.source)))
                yield (("V", u, v2, v, (f.degree, f.vec.index(1))), terms,
                       Proto.zero(pre.source, tgt, f.degree))


def _residual(cd: CauchyData, terms, const: Proto) -> Proto:
    """sum coeff * post o eps_(u,v) o pre - const: the equation fails at its nonzero columns."""
    out = -const
    for coeff, (u, v), post, pre in terms:
        out = out + coeff * compose(post, compose(cd.eps_map(u, v), pre))
    return out


def verify_cauchy_data(cd: CauchyData) -> Optional[str]:
    """The snake identity of `_snake_equations`: None when it holds, else a
    witness naming an eta term of nonzero total degree or the first basis
    element (column) where the snake fails."""
    for (e_obj, x, y) in cd.eta:
        if x.degree + y.degree != 0:
            return f"eta term at {e_obj} has degrees ({x.degree},{y.degree})"
    for (_, x_obj), terms, const in _snake_equations(cd):
        failing = _nonzero_columns(_residual(cd, terms, const))
        if failing:
            r, i = failing[0]
            return f"snake fails at object {x_obj}, degree {r}, basis index {i}"
    return None


def cauchy_naturality_failures(cd: CauchyData) -> List[str]:
    """One message per failing column of `_naturality_equations`, grouped
    by the pair (u, v) in object order, U before V.  Each names the hom
    basis element (g or f) and the basis element of N u (x) M v where the
    equation fails, by degree and index."""
    where = {x: i for i, x in enumerate(cd.m.base.objects)}
    failing = [(where[label[1]], where[label[3]], label[0] == "V", k, q, j, label)
               for k, (label, terms, const) in enumerate(_naturality_equations(cd))
               for q, j in _nonzero_columns(_residual(cd, terms, const))]
    return [(f"eps naturality in U fails at ({u}->{w},{v}): hom({u},{w})" if kind == "U"
             else f"eps naturality in V fails at ({u},{w}->{v}): hom({w},{v})")
            + f" basis (degree {hd}, index {hi}), N {u} (x) M {v} basis (degree {q}, index {j})"
            for *_, q, j, (kind, u, w, v, (hd, hi)) in sorted(failing)]


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
    if verify_cauchy_data(cd) is not None:
        raise CauchyDataInvalid("snake identity fails")

    terms = [(e_obj, x.degree) for (e_obj, x, _) in cd.eta]
    summands = [suspend_module(representable(base, e, RIGHT), mdeg)
                for (e, mdeg) in terms]
    total = summands[0]
    for s in summands[1:]:
        total = direct_sum_modules(total, s)

    tau_comps, xhat_comps = {}, {}
    for x_obj in base.objects:
        mx, tx = cd.m.value(x_obj), total.value(x_obj)
        # per eta term: eps_(e_i,x) o (y_i (x) -), and x_i . - through the bare table
        # (the Yoneda transpose of x_i: the (-1)^{m|f|} twist cancels the currying sign)
        pieces = [(compose(cd.eps_map(e_obj, x_obj),
                           cd.eps_space(e_obj, x_obj).inserted(LEFT, y_i.degree, y_i.vec)),
                   cd.m.orbit(x_obj, e_obj, x_i)) for (e_obj, x_i, y_i) in cd.eta]
        # tau stacks the pieces into the summands, xhat sets them side by side
        degrees = [r for r in mx.degrees() if mx.rank(r) and tx.rank(r)]
        tau_comps[x_obj] = Proto(mx, tx, 0, {
            r: block_matrix([[t.comp(r)] for t, _ in pieces]) for r in degrees})
        xhat_comps[x_obj] = Proto(tx, mx, 0, {
            r: block_matrix([[o.comp(r - o.degree) for _, o in pieces]]) for r in degrees})

    tau = ModuleTransform(cd.m, total, 0, tau_comps)
    xhat = ModuleTransform(total, cd.m, 0, xhat_comps)
    composite = xhat.compose_with(tau)
    ok = all(composite.component(x) == identity_map(cd.m.value(x))
             for x in base.objects)
    return GRetraction(total, tau, xhat, ok)


# -- protosplit-quotient witnesses ------------------------------------------


@dataclass
class ProtosplitQuotientReport:
    idempotent: Optional[Elt]
    failures: List[str]     # [] when the witness holds


def verify_protosplit_quotient(m: DGModule, b_obj, gamma_p: ModuleTransform,
                               sigma: ModuleTransform) -> ProtosplitQuotientReport:
    """gamma' o sigma = 1_M; e = sigma_B gamma'_B (1_B) is idempotent and
    sigma o gamma' acts as postcomposition with e (checked by Yoneda on
    every hom basis)."""
    base = m.base
    failures = []
    if gamma_p.degree != 0 or sigma.degree != 0:
        failures.append("transformations must have degree 0")
        return ProtosplitQuotientReport(None, failures)
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
        return ProtosplitQuotientReport(None, failures)

    one_b = base.identity(b_obj)
    e = sigma.apply(b_obj, gamma_p.apply(b_obj, one_b))
    if _image(base.after(b_obj, b_obj, b_obj, e), e) != e:
        failures.append("extracted e is not idempotent")
    for x_obj, _ in base.homs_in(b_obj):
        diff = compose(sigma.component(x_obj), gamma_p.component(x_obj)) - \
            base.after(x_obj, b_obj, b_obj, e)
        if _nonzero_columns(diff):
            failures.append(f"sigma o gamma' != hom(-, e) at {x_obj}")
    return ProtosplitQuotientReport(e, failures)


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
        # (j comes first and differs between entries, so only j is compared)
        reached = sorted((j, b_obj, g, hom_xb) for b_obj, hom_xb in base.homs_out(x_obj)
                         for j, g in at_obj.get(b_obj, ()))
        # g . - on hom(x, b), with the crossing sign (-1)^{|g||f|} on f
        orbits = [(j, hom_xb, _crossed(m.orbit(x_obj, b_obj, g), g.degree))
                  for j, b_obj, g, hom_xb in reached]
        for r in mx.degrees():
            if mx.rank(r) == 0:
                continue
            blocks, labels = [], []
            for j, hom_xb, orbit in orbits:
                fdeg = r - orbit.degree
                blocks.append(orbit.comp(fdeg))
                labels += [(j, fdeg, idx) for idx in range(hom_xb.rank(fdeg))]
            gamma = block_matrix([blocks]) if blocks else IntMatrix.zeros(mx.rank(r), 0)
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
    input).  An eta term of nonzero total degree has no counit: None.
    """
    if any(x.degree + y.degree for _, x, y in eta):
        return None
    base = m.base
    cd = CauchyData(m, n_mod, list(eta), {})
    # the unknowns: the degree-0 coordinates of HomSpace(N u (x) M v, hom(v, u))
    # for each (u, v), stacked; its block d is the matrix of eps_{(u,v)} in degree d
    spaces: Dict[Tuple, Tuple[HomSpace, int]] = {}
    offsets: Dict[Tuple, int] = {}
    total = 0
    for u in base.objects:
        for v, target in base.homs_in(u):
            if n_mod.value(u).is_zero() or m.value(v).is_zero():
                continue
            hs = HomSpace(cd.eps_space(u, v).complex, target)
            spaces[(u, v)] = (hs, total)
            offsets.update(((u, v, d), total + off) for d, _, _, off in hs.layout.blocks(0))
            total += hs.dim(0)

    rows: List[List[int]] = []
    rhs: List[int] = []
    # each Cauchy equation gives, in each degree q of its domain, the rows of
    # sum coeff * post_d eps_d pre_q = const_q, d = q + |pre|; on row-major
    # vec, vec(P E Q) = (P (x) Q^T) vec(E)
    for _, terms, const in chain(_snake_equations(cd), _naturality_equations(cd)):
        for q in const.source.degrees():
            block = [[0] * total for _ in range(const.target.rank(q + const.degree)
                                                * const.source.rank(q))]
            for coeff, (u, v), post, pre in terms:
                off = offsets.get((u, v, q + pre.degree))
                if off is not None:
                    scatter_kron(block, 0, off, post.comp(q + pre.degree),
                                 pre.comp(q).transpose(), coeff)
            rows.extend(block)
            rhs.extend(const.comp(q).entries())

    # each eps component is a chain map: the hom differential kills it
    for hs, off in spaces.values():
        block = [[0] * total for _ in range(hs.dim(-1))]
        d0 = hs.complex.diffs().get(0)
        if d0 is not None:
            scatter_kron(block, 0, off, d0)
        rows.extend(block)
        rhs.extend([0] * len(block))

    if not rows:
        return cd
    a = IntMatrix.from_rows(rows, total)
    sol = solve_matrix(a, IntMatrix.column(rhs))
    if sol is None:
        return None
    vec = sol.col(0)
    for key, (hs, off) in spaces.items():
        cd.eps[key] = hs.from_vector(0, vec[off:off + hs.dim(0)]).as_chain_map()
    return cd
