"""Bounded chain complexes of finitely generated free abelian groups.

Degree-indexed families of free groups with square-zero boundary maps,
protomorphisms between them, the internal hom complex, and the shift /
forget / free / cofree functors with their adjunction transposes.

Conventions, fixed once and used everywhere:

* ``d_n`` is a matrix with ``rank(n-1)`` rows and ``rank(n)`` columns;
  matrices act on column vectors from the left.
* a degree-``n`` protomorphism ``f`` has components
  ``f_q: source_q -> target_{q+n}``;
* the hom differential is ``(df)_q = d f_q - (-1)^n f_{q-1} d``;
* composition satisfies ``d(g o f) = d(g) o f + (-1)^{deg g} g o d(f)``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .zlinalg import (
    FPAbGroup,
    IntMatrix,
    ShapeMismatch,
    block_matrix,
    cokernel,
    kernel_basis,
    solve_matrix,
)


class SquareZeroViolated(ValueError):
    """d o d != 0; carries the offending (source) degree."""

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"d^2 != 0 at degree {degree}")


class NotGraded(ValueError):
    """An operation demanded a complex with all-zero differentials."""


class NotAChainMap(ValueError):
    """A protomorphism failed the cycle condition d_hom(f) = 0."""


def _hom_sign(n: int) -> int:
    # Koszul sign in the hom differential: (df)_q = d f_q - (-1)^n f_{q-1} d.
    return -1 if n % 2 else 1


class GradedObject:
    """Finitely supported family of free-group ranks, zero outside [lo, hi].

    ``hi == lo - 1`` encodes the zero object.
    """

    __slots__ = ("lo", "hi", "_ranks")

    def __init__(self, ranks: Mapping[int, int]):
        cleaned = {int(n): int(r) for n, r in ranks.items() if r}
        for n, r in cleaned.items():
            if r < 0:
                raise ValueError(f"negative rank {r} at degree {n}")
        if cleaned:
            self.lo = min(cleaned)
            self.hi = max(cleaned)
        else:
            self.lo, self.hi = 0, -1
        self._ranks = {n: cleaned.get(n, 0) for n in range(self.lo, self.hi + 1)}

    @classmethod
    def zero(cls) -> "GradedObject":
        return cls({})

    def rank(self, n: int) -> int:
        return self._ranks.get(n, 0)

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def is_zero(self) -> bool:
        return self.hi < self.lo

    def total_rank(self) -> int:
        return sum(self._ranks.values())

    def shift(self, k: int) -> "GradedObject":
        return GradedObject({n + k: r for n, r in self._ranks.items()})

    def ranks(self) -> Dict[int, int]:
        return dict(self._ranks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedObject):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi and self._ranks == other._ranks

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, tuple(sorted(self._ranks.items()))))

    def __repr__(self) -> str:
        return f"GradedObject({self._ranks!r})"


class Complex:
    """Bounded chain complex of finitely generated free abelian groups."""

    __slots__ = ("carrier", "_d")

    def __init__(self, carrier: GradedObject, diffs: Mapping[int, IntMatrix], _validated: bool = False):
        self.carrier = carrier
        stored: Dict[int, IntMatrix] = {}
        for n, m in diffs.items():
            n = int(n)
            want = (carrier.rank(n - 1), carrier.rank(n))
            if m.shape != want:
                raise ShapeMismatch(
                    f"d_{n} has shape {m.shape}, expected {want}"
                )
            if m.rows and m.cols and not m.is_zero():
                stored[n] = m
        self._d = stored
        if not _validated:
            for n in range(carrier.lo, carrier.hi + 1):
                prod = self.diff(n) @ self.diff(n + 1)
                if not prod.is_zero():
                    raise SquareZeroViolated(n + 1)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_ranks(cls, ranks: Mapping[int, int], diffs: Mapping[int, object] | None = None) -> "Complex":
        carrier = GradedObject(ranks)
        conv: Dict[int, IntMatrix] = {}
        for n, m in (diffs or {}).items():
            if not isinstance(m, IntMatrix):
                m = IntMatrix.from_rows(m, cols=carrier.rank(int(n)))
            conv[int(n)] = m
        return cls(carrier, conv)

    @classmethod
    def zero(cls) -> "Complex":
        return cls(GradedObject.zero(), {})

    @classmethod
    def concentrated(cls, degree: int, rank: int = 1) -> "Complex":
        return cls(GradedObject({degree: rank}), {})

    # -- structure ------------------------------------------------------

    def rank(self, n: int) -> int:
        return self.carrier.rank(n)

    @property
    def lo(self) -> int:
        return self.carrier.lo

    @property
    def hi(self) -> int:
        return self.carrier.hi

    def degrees(self) -> range:
        return self.carrier.degrees()

    def is_zero(self) -> bool:
        return self.carrier.is_zero()

    def diff(self, n: int) -> IntMatrix:
        m = self._d.get(n)
        if m is None:
            return IntMatrix.zeros(self.rank(n - 1), self.rank(n))
        return m

    def diffs(self) -> Dict[int, IntMatrix]:
        return dict(self._d)

    def has_zero_differentials(self) -> bool:
        return not self._d

    def __eq__(self, other) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        return self.carrier == other.carrier and self._d == other._d

    def __hash__(self) -> int:
        return hash((self.carrier, tuple(sorted(self._d.items(), key=lambda kv: kv[0]))))

    def __repr__(self) -> str:
        return f"Complex(ranks={self.carrier.ranks()!r}, diffs={{{', '.join(f'{n}: ...' for n in sorted(self._d))}}})"


def make_complex(ranks: Mapping[int, int] | GradedObject, diffs: Mapping[int, object] | None = None) -> Complex:
    """Validated complex from ranks and boundary matrices.

    Raises ShapeMismatch for misshapen matrices and SquareZeroViolated
    (with the offending degree) when d o d != 0.
    """
    if isinstance(ranks, GradedObject):
        ranks = ranks.ranks()
    return Complex.from_ranks(ranks, diffs)


def unit_complex() -> Complex:
    """The tensor unit: Z concentrated in degree 0."""
    return Complex.concentrated(0, 1)


class Proto:
    """Degree-n protomorphism: a family f_q: source_q -> target_{q+n}."""

    __slots__ = ("source", "target", "degree", "_c")

    def __init__(self, source: Complex, target: Complex, degree: int, comps: Mapping[int, IntMatrix]):
        self.source = source
        self.target = target
        self.degree = int(degree)
        stored: Dict[int, IntMatrix] = {}
        for q, m in comps.items():
            q = int(q)
            want = (target.rank(q + self.degree), source.rank(q))
            if m.shape != want:
                raise ShapeMismatch(
                    f"component at {q} has shape {m.shape}, expected {want}"
                )
            if m.rows and m.cols and not m.is_zero():
                stored[q] = m
        self._c = stored

    @classmethod
    def zero(cls, source: Complex, target: Complex, degree: int = 0) -> "Proto":
        return cls(source, target, degree, {})

    def comp(self, q: int) -> IntMatrix:
        m = self._c.get(q)
        if m is None:
            return IntMatrix.zeros(self.target.rank(q + self.degree), self.source.rank(q))
        return m

    def comps(self) -> Dict[int, IntMatrix]:
        return dict(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def support(self) -> range:
        return self.source.degrees()

    # -- abelian-group structure ----------------------------------------

    def _compatible(self, other: "Proto"):
        if self.source != other.source or self.target != other.target or self.degree != other.degree:
            raise ShapeMismatch("protos not parallel")

    def __add__(self, other: "Proto") -> "Proto":
        self._compatible(other)
        comps = {q: self.comp(q) + other.comp(q)
                 for q in set(self._c) | set(other._c)}
        return Proto(self.source, self.target, self.degree, comps)

    def __sub__(self, other: "Proto") -> "Proto":
        self._compatible(other)
        comps = {q: self.comp(q) - other.comp(q)
                 for q in set(self._c) | set(other._c)}
        return Proto(self.source, self.target, self.degree, comps)

    def __neg__(self) -> "Proto":
        return Proto(self.source, self.target, self.degree, {q: -m for q, m in self._c.items()})

    def scale(self, c: int) -> "Proto":
        return Proto(self.source, self.target, self.degree, {q: m.scale(c) for q, m in self._c.items()})

    def __rmul__(self, c: int) -> "Proto":
        if not isinstance(c, int):
            return NotImplemented
        return self.scale(c)

    def __matmul__(self, other: "Proto") -> "Proto":
        return compose(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Proto):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.degree == other.degree and self._c == other._c)

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.degree,
                     tuple(sorted(self._c.items(), key=lambda kv: kv[0]))))

    def __repr__(self) -> str:
        return f"Proto(degree={self.degree}, comps at {sorted(self._c)})"

    def is_chain_map(self) -> bool:
        return d_hom(self).is_zero()

    def as_chain_map(self) -> "ChainMap":
        return ChainMap(self.source, self.target, self.degree, self._c)


class ChainMap(Proto):
    """A protomorphism killed by the hom differential."""

    __slots__ = ()

    def __init__(self, source, target, degree=0, comps=(), _trusted: bool = False):
        comps = comps if comps != () else {}
        super().__init__(source, target, degree, comps)
        if not _trusted and not d_hom(Proto(source, target, degree, comps)).is_zero():
            raise NotAChainMap(f"degree-{degree} proto is not a cycle")

    def __matmul__(self, other: Proto) -> Proto:
        out = compose(self, other)
        if isinstance(other, ChainMap):
            return ChainMap(out.source, out.target, out.degree, out.comps(), _trusted=True)
        return out

    def __add__(self, other: Proto) -> Proto:
        out = Proto.__add__(self, other)
        if isinstance(other, ChainMap):
            return ChainMap(out.source, out.target, out.degree, out.comps(), _trusted=True)
        return out

    def __neg__(self) -> "ChainMap":
        out = Proto.__neg__(self)
        return ChainMap(out.source, out.target, out.degree, out.comps(), _trusted=True)

    def scale(self, c: int) -> "ChainMap":
        out = Proto.scale(self, c)
        return ChainMap(out.source, out.target, out.degree, out.comps(), _trusted=True)


def identity_map(a: Complex) -> ChainMap:
    comps = {n: IntMatrix.identity(a.rank(n)) for n in a.degrees() if a.rank(n)}
    return ChainMap(a, a, 0, comps, _trusted=True)


def d_hom(f: Proto) -> Proto:
    """Hom-complex differential: (df)_q = d f_q - (-1)^n f_{q-1} d."""
    a, b, n = f.source, f.target, f.degree
    sign = _hom_sign(n)
    comps: Dict[int, IntMatrix] = {}
    for q in range(a.lo, a.hi + 1):
        if a.rank(q) == 0 or b.rank(q + n - 1) == 0:
            continue
        m = b.diff(q + n) @ f.comp(q) - sign * (f.comp(q - 1) @ a.diff(q))
        comps[q] = m
    return Proto(a, b, n - 1, comps)


def compose(g: Proto, f: Proto) -> Proto:
    """g o f; degrees add."""
    if g.source != f.target:
        raise ShapeMismatch("compose: target of f differs from source of g")
    comps: Dict[int, IntMatrix] = {}
    for q in f.support():
        if f.source.rank(q) == 0:
            continue
        m = g.comp(q + f.degree) @ f.comp(q)
        comps[q] = m
    return Proto(f.source, g.target, f.degree + g.degree, comps)


# -- shift and forgetful functors ---------------------------------------


def suspension(a: Complex, k: int = 1) -> Complex:
    """Degree shift by k with differential scaled by (-1)^k."""
    sign = -1 if k % 2 else 1
    ranks = {n + k: a.rank(n) for n in a.degrees()}
    diffs = {n + k: sign * a.diff(n) for n in a.diffs()}
    return Complex(GradedObject(ranks), diffs, _validated=True)


def suspension_map(f: Proto, k: int = 1) -> Proto:
    """Shift a protomorphism: (S^k f)_n = f_{n-k}, same degree, no sign."""
    comps = {q + k: m for q, m in f.comps().items()}
    out = Proto(suspension(f.source, k), suspension(f.target, k), f.degree, comps)
    if isinstance(f, ChainMap):
        return ChainMap(out.source, out.target, out.degree, out.comps(), _trusted=True)
    return out


def forget_U(a: Complex) -> Complex:
    """Forget the differentials (replace them by 0)."""
    return Complex(a.carrier, {}, _validated=True)


def functor_L(x: Complex) -> Complex:
    """Left adjoint of U: (LX)_n = X_{n+1} + X_n, d = [[0,1],[0,0]]."""
    if not x.has_zero_differentials():
        raise NotGraded("L is defined on graded objects (all differentials zero)")
    ranks = {n: x.rank(n + 1) + x.rank(n)
             for n in range(x.lo - 1, x.hi + 1)}
    diffs: Dict[int, IntMatrix] = {}
    for n in range(x.lo - 1, x.hi + 1):
        r_top, r_bot = x.rank(n), x.rank(n - 1)
        c_left, c_right = x.rank(n + 1), x.rank(n)
        if (r_top + r_bot) and (c_left + c_right):
            diffs[n] = block_matrix([
                [IntMatrix.zeros(r_top, c_left), IntMatrix.identity(r_top)],
                [IntMatrix.zeros(r_bot, c_left), IntMatrix.zeros(r_bot, c_right)],
            ])
    return Complex(GradedObject(ranks), diffs, _validated=True)


def functor_R(x: Complex) -> Complex:
    """Right adjoint of U: (RX)_n = X_n + X_{n-1} with the same block d."""
    if not x.has_zero_differentials():
        raise NotGraded("R is defined on graded objects (all differentials zero)")
    ranks = {n: x.rank(n) + x.rank(n - 1)
             for n in range(x.lo, x.hi + 2)}
    diffs: Dict[int, IntMatrix] = {}
    for n in range(x.lo, x.hi + 2):
        r_top, r_bot = x.rank(n - 1), x.rank(n - 2)
        c_left, c_right = x.rank(n), x.rank(n - 1)
        if (r_top + r_bot) and (c_left + c_right):
            diffs[n] = block_matrix([
                [IntMatrix.zeros(r_top, c_left), IntMatrix.identity(r_top)],
                [IntMatrix.zeros(r_bot, c_left), IntMatrix.zeros(r_bot, c_right)],
            ])
    return Complex(GradedObject(ranks), diffs, _validated=True)


def lu_counit(a: Complex) -> ChainMap:
    """The counit LU A -> A with components [d, 1]."""
    lua = functor_L(forget_U(a))
    comps = {}
    for n in a.degrees():
        if a.rank(n) == 0:
            continue
        comps[n] = a.diff(n + 1).hstack(IntMatrix.identity(a.rank(n)))
    return ChainMap(lua, a, 0, comps)


# -- cycles, boundaries, homology ----------------------------------------


class GradedGroups:
    """Degree-indexed family of canonical FPAbGroups (trivial off support)."""

    __slots__ = ("_g",)

    def __init__(self, groups: Mapping[int, FPAbGroup]):
        self._g = {int(n): g for n, g in groups.items() if not g.is_trivial()}

    def at(self, n: int) -> FPAbGroup:
        return self._g.get(n, FPAbGroup.zero())

    def support(self) -> List[int]:
        return sorted(self._g)

    def is_trivial(self) -> bool:
        return not self._g

    def shifted(self, k: int) -> "GradedGroups":
        return GradedGroups({n + k: g for n, g in self._g.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedGroups):
            return NotImplemented
        return self._g == other._g

    def __hash__(self) -> int:
        return hash(tuple(sorted((n, g) for n, g in self._g.items())))

    def describe(self) -> str:
        if not self._g:
            return "0"
        return ", ".join(f"H_{n} = {g.describe()}" for n, g in sorted(self._g.items()))

    def __repr__(self) -> str:
        return f"GradedGroups({self.describe()})"


def cycles_Z(a: Complex) -> GradedGroups:
    """Degreewise kernel of d (a free group in each degree)."""
    out = {}
    for n in a.degrees():
        if a.rank(n):
            out[n] = FPAbGroup.free(kernel_basis(a.diff(n)).cols)
    return GradedGroups(out)


def boundariesquot_Zprime(a: Complex) -> GradedGroups:
    """Degreewise cokernel of the incoming differential."""
    out = {}
    for n in a.degrees():
        if a.rank(n):
            out[n] = cokernel(a.diff(n + 1)).group
    return GradedGroups(out)


def homology_H(a: Complex) -> GradedGroups:
    """Canonical homology: ker d_n / im d_{n+1}, degree by degree."""
    out = {}
    for n in a.degrees():
        if a.rank(n) == 0:
            continue
        k = kernel_basis(a.diff(n))
        if k.cols == 0:
            continue
        # boundaries expressed in kernel coordinates; solvable since d d = 0
        x = solve_matrix(k, a.diff(n + 1))
        if x is None:
            raise AssertionError("boundaries do not lie in the cycles; d^2 != 0?")
        out[n] = FPAbGroup(x)
    return GradedGroups(out)


# -- the internal hom ------------------------------------------------------


class HomSpace:
    """Basis-indexed model of the internal hom [B, C].

    Degree-n slots are triples (q, i, j) for the (i, j) entry of a
    component B_q -> C_{q+n}, listed by ascending q, then row-major.
    """

    def __init__(self, source: Complex, target: Complex):
        self.source = source
        self.target = target
        self._summands: Dict[int, List[Tuple[int, int, int, int]]] = {}
        lo = target.lo - source.hi
        hi = target.hi - source.lo
        ranks: Dict[int, int] = {}
        if not (source.is_zero() or target.is_zero()):
            for n in range(lo, hi + 1):
                offset = 0
                summands = []
                for q in source.degrees():
                    rows, cols = target.rank(q + n), source.rank(q)
                    if rows and cols:
                        summands.append((q, rows, cols, offset))
                        offset += rows * cols
                if summands:
                    self._summands[n] = summands
                    ranks[n] = offset
        diffs: Dict[int, IntMatrix] = {}
        for n, summands in self._summands.items():
            tgt = self._summands.get(n - 1, [])
            if not tgt:
                continue
            diffs[n] = self._differential_matrix(n, summands, tgt)
        self.complex = Complex(GradedObject(ranks), diffs)

    def _differential_matrix(self, n, summands, tgt_summands):
        rows = sum(r * c for _, r, c, _ in tgt_summands)
        cols = sum(r * c for _, r, c, _ in summands)
        tgt_offset = {q: (off, r, c) for q, r, c, off in tgt_summands}
        sign = _hom_sign(n)
        out = [[0] * cols for _ in range(rows)]
        for q, r, c, off in summands:
            dc = self.target.diff(q + n)   # C_{q+n} -> C_{q+n-1}
            da = self.source.diff(q + 1)   # B_{q+1} -> B_q
            for i in range(r):
                for j in range(c):
                    col = off + i * c + j
                    if q in tgt_offset:
                        t_off, t_r, t_c = tgt_offset[q]
                        for i2 in range(t_r):
                            v = dc[i2, i]
                            if v:
                                out[t_off + i2 * t_c + j][col] += v
                    if q + 1 in tgt_offset:
                        t_off, t_r, t_c = tgt_offset[q + 1]
                        for j2 in range(t_c):
                            v = da[j, j2]
                            if v:
                                out[t_off + i * t_c + j2][col] -= sign * v
        return IntMatrix.from_rows(out, cols)

    def dim(self, n: int) -> int:
        return self.complex.rank(n)

    def to_vector(self, f: Proto) -> tuple:
        if f.source != self.source or f.target != self.target:
            raise ShapeMismatch("proto does not live in this hom space")
        vec = [0] * self.dim(f.degree)
        for q, r, c, off in self._summands.get(f.degree, []):
            m = f.comp(q)
            for i in range(r):
                for j in range(c):
                    vec[off + i * c + j] = m[i, j]
        return tuple(vec)

    def from_vector(self, n: int, vec: Sequence[int]) -> Proto:
        if len(vec) != self.dim(n):
            raise ShapeMismatch(f"vector length {len(vec)} vs dim {self.dim(n)}")
        comps = {}
        for q, r, c, off in self._summands.get(n, []):
            comps[q] = IntMatrix(r, c, vec[off : off + r * c])
        return Proto(self.source, self.target, n, comps)

    def basis(self, n: int) -> List[Proto]:
        dim = self.dim(n)
        out = []
        for k in range(dim):
            vec = [0] * dim
            vec[k] = 1
            out.append(self.from_vector(n, vec))
        return out


def hom_complex(source: Complex, target: Complex) -> Complex:
    """The internal hom [B, C] as a complex (see HomSpace for the basis)."""
    return HomSpace(source, target).complex


def chain_map_basis(source: Complex, target: Complex, degree: int = 0) -> List[Proto]:
    """Z-basis of the group of degree-n chain maps source -> target."""
    hs = HomSpace(source, target)
    k = kernel_basis(hs.complex.diff(degree))
    return [hs.from_vector(degree, k.col(j)) for j in range(k.cols)]


# -- adjunction transposes -------------------------------------------------


class AdjunctionWitness:
    """Mutually inverse transposition maps plus their verification."""

    def __init__(self, to_chain, to_graded, verified: bool, detail: str = ""):
        self.to_chain = to_chain
        self.to_graded = to_graded
        self.verified = verified
        self.detail = detail


def adjunction_iso_LU(x: Complex, a: Complex) -> AdjunctionWitness:
    """DGAb(LX, A) = GAb(X, UA): transpose both ways and verify round trips."""
    if not x.has_zero_differentials():
        raise NotGraded("adjunction_iso_LU expects a graded X")
    lx = functor_L(x)
    ua = forget_U(a)

    def to_chain(g: Proto) -> ChainMap:
        # f_n = [d o g_{n+1}, g_n] on (LX)_n = X_{n+1} + X_n
        comps = {}
        for n in lx.degrees():
            if lx.rank(n) == 0 or a.rank(n) == 0:
                continue
            comps[n] = (a.diff(n + 1) @ g.comp(n + 1)).hstack(g.comp(n))
        return ChainMap(lx, a, 0, comps)

    def to_graded(f: Proto) -> Proto:
        comps = {}
        for n in x.degrees():
            if x.rank(n) == 0 or a.rank(n) == 0:
                continue
            left = x.rank(n + 1)
            comps[n] = f.comp(n).select_cols(range(left, left + x.rank(n)))
        return Proto(x, ua, 0, comps)

    ok = True
    detail = []
    for g in HomSpace(x, ua).basis(0):
        if to_graded(to_chain(g)) != g:
            ok = False
            detail.append("graded round trip failed")
            break
    for f in chain_map_basis(lx, a, 0):
        if to_chain(to_graded(f)) != f:
            ok = False
            detail.append("chain round trip failed")
            break
    return AdjunctionWitness(to_chain, to_graded, ok, "; ".join(detail))


def adjunction_iso_UR(a: Complex, x: Complex) -> AdjunctionWitness:
    """DGAb(A, RX) = GAb(UA, X): transpose both ways and verify round trips."""
    if not x.has_zero_differentials():
        raise NotGraded("adjunction_iso_UR expects a graded X")
    rx = functor_R(x)
    ua = forget_U(a)

    def to_chain(g: Proto) -> ChainMap:
        # f_n = [g_n; g_{n-1} o d] into (RX)_n = X_n + X_{n-1}
        comps = {}
        for n in a.degrees():
            if a.rank(n) == 0 or rx.rank(n) == 0:
                continue
            comps[n] = g.comp(n).vstack(g.comp(n - 1) @ a.diff(n))
        return ChainMap(a, rx, 0, comps)

    def to_graded(f: Proto) -> Proto:
        comps = {}
        for n in a.degrees():
            if a.rank(n) == 0 or x.rank(n) == 0:
                continue
            comps[n] = f.comp(n).select_rows(range(x.rank(n)))
        return Proto(ua, x, 0, comps)

    ok = True
    detail = []
    for g in HomSpace(ua, x).basis(0):
        if to_graded(to_chain(g)) != g:
            ok = False
            detail.append("graded round trip failed")
            break
    for f in chain_map_basis(a, rx, 0):
        if to_chain(to_graded(f)) != f:
            ok = False
            detail.append("chain round trip failed")
            break
    return AdjunctionWitness(to_chain, to_graded, ok, "; ".join(detail))


# -- the canonical U-split presentation ------------------------------------


class CanonicalPresentation:
    """The split coequalizer LULU A => LU A -> A evaluated at A.

    alpha = [d 1], beta = [[0,1,1,0],[0,0,0,1]], gamma = [[d,1,0,0],[0,0,d,1]]
    per the standard monadicity fork for the free/forget adjunction.
    """

    def __init__(self, a: Complex, lulu: Complex, lu: Complex,
                 alpha: ChainMap, beta: ChainMap, gamma: ChainMap,
                 fork_commutes: bool, coequalizer_verified: bool,
                 probe_names: List[str]):
        self.complex = a
        self.lulu = lulu
        self.lu = lu
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.fork_commutes = fork_commutes
        self.coequalizer_verified = coequalizer_verified
        self.probe_names = probe_names


def default_probe_family(a: Complex) -> List[Tuple[str, Complex]]:
    """Fixed probe targets for universal-property checks: the complex
    itself, its shifts, the unit, and L Z."""
    return [
        ("A", a),
        ("SA", suspension(a, 1)),
        ("S^-1A", suspension(a, -1)),
        ("Z", unit_complex()),
        ("LZ", functor_L(unit_complex())),
    ]


def canonical_presentation(a: Complex, probes: Optional[List[Tuple[str, Complex]]] = None) -> CanonicalPresentation:
    lu = functor_L(forget_U(a))
    lulu = functor_L(forget_U(lu))
    alpha = lu_counit(a)

    beta_comps = {}
    gamma_comps = {}
    for n in lu.degrees():
        if lu.rank(n) == 0 or lulu.rank(n) == 0:
            continue
        r2, r1b, r1, r0 = a.rank(n + 2), a.rank(n + 1), a.rank(n + 1), a.rank(n)
        d2 = a.diff(n + 2)   # A_{n+2} -> A_{n+1}
        d1 = a.diff(n + 1)   # A_{n+1} -> A_n
        beta_comps[n] = block_matrix([
            [IntMatrix.zeros(r1, r2), IntMatrix.identity(r1b), IntMatrix.identity(r1), IntMatrix.zeros(r1, r0)],
            [IntMatrix.zeros(r0, r2), IntMatrix.zeros(r0, r1b), IntMatrix.zeros(r0, r1), IntMatrix.identity(r0)],
        ])
        gamma_comps[n] = block_matrix([
            [d2, IntMatrix.identity(r1b), IntMatrix.zeros(r1, r1), IntMatrix.zeros(r1, r0)],
            [IntMatrix.zeros(r0, r2), IntMatrix.zeros(r0, r1b), d1, IntMatrix.identity(r0)],
        ])
    beta = ChainMap(lulu, lu, 0, beta_comps)
    gamma = ChainMap(lulu, lu, 0, gamma_comps)

    fork = (alpha @ beta) == (alpha @ gamma)

    if probes is None:
        probes = default_probe_family(a)
    names = [name for name, _ in probes]
    coeq_ok = fork
    # a coequalizer of (beta, gamma) is a cokernel of beta - gamma
    fork_difference = beta - gamma
    for _, t in probes:
        if not factors_uniquely(fork_difference, alpha, t):
            coeq_ok = False
            break
    return CanonicalPresentation(a, lulu, lu, alpha, beta, gamma, fork, coeq_ok, names)


def factors_uniquely(k: Proto, w: ChainMap, t: Complex) -> bool:
    """Every chain map g: B -> T with g o k = 0 factors uniquely through
    w: B -> C, i.e. w is a cokernel of k: K -> B as seen from T."""
    basis = chain_map_basis(w.source, t, 0)
    if not basis:
        return True
    hs_kt = HomSpace(k.source, t)
    killers = kernel_basis(IntMatrix.from_cols(
        [hs_kt.to_vector(compose(g, k)) for g in basis], hs_kt.dim(0)))

    factor_basis = chain_map_basis(w.target, t, 0)
    hs_bt = HomSpace(w.source, t)
    fm = IntMatrix.from_cols([hs_bt.to_vector(compose(h, w)) for h in factor_basis],
                             hs_bt.dim(0))

    # uniqueness: nothing composes with w to zero
    if factor_basis and kernel_basis(fm).cols:
        return False

    # column jj: the killer sum_g killers[g, jj] * g, in coordinates of hs_bt
    kv = IntMatrix.from_cols([hs_bt.to_vector(g) for g in basis], hs_bt.dim(0)) @ killers
    return all(solve_matrix(fm, IntMatrix.column(kv.col(jj))) is not None
               for jj in range(killers.cols))


# -- finite direct sums -----------------------------------------------------


def direct_sum_complexes(summands: Sequence[Complex]) -> Tuple[Complex, List[ChainMap], List[ChainMap]]:
    """Block direct sum with injection and projection chain maps."""
    ranks: Dict[int, int] = {}
    los = [s.lo for s in summands if not s.is_zero()]
    his = [s.hi for s in summands if not s.is_zero()]
    lo = min(los) if los else 0
    hi = max(his) if his else -1
    for n in range(lo, hi + 1):
        ranks[n] = sum(s.rank(n) for s in summands)
    diffs = {}
    for n in range(lo, hi + 1):
        if ranks.get(n) and ranks.get(n - 1, 0):
            diffs[n] = block_matrix([
                [s.diff(n) if i == j else IntMatrix.zeros(s.rank(n - 1), summands[j].rank(n))
                 for j in range(len(summands))]
                for i, s in enumerate(summands)
            ])
    total = Complex(GradedObject(ranks), diffs, _validated=True)
    injs, projs = [], []
    for i, s in enumerate(summands):
        inj_comps, proj_comps = {}, {}
        for n in s.degrees():
            if s.rank(n) == 0:
                continue
            before = sum(summands[j].rank(n) for j in range(i))
            blocks_in = [IntMatrix.zeros(summands[j].rank(n), s.rank(n)) for j in range(len(summands))]
            blocks_in[i] = IntMatrix.identity(s.rank(n))
            inj_comps[n] = block_matrix([[b] for b in blocks_in])
            blocks_out = [IntMatrix.zeros(s.rank(n), summands[j].rank(n)) for j in range(len(summands))]
            blocks_out[i] = IntMatrix.identity(s.rank(n))
            proj_comps[n] = block_matrix([blocks_out])
        injs.append(ChainMap(s, total, 0, inj_comps, _trusted=True))
        projs.append(ChainMap(total, s, 0, proj_comps, _trusted=True))
    return total, injs, projs
