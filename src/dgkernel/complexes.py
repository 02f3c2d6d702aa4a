"""Bounded chain complexes of finitely generated free abelian groups.

Degree-indexed families of free groups with square-zero boundary maps,
protomorphisms between them, the internal hom complex, and the shift /
forget / free / cofree functors with their adjunction transposes.  A
graded object is a complex with zero differentials: the forgetful functor
U is `forget_U`, and its adjoints L and R take such complexes.

Conventions, fixed once and used everywhere:

* ``d_n`` is a matrix with ``rank(n-1)`` rows and ``rank(n)`` columns;
  matrices act on column vectors from the left.
* a degree-``n`` protomorphism ``f`` has components
  ``f_q: source_q -> target_{q+n}``;
* the hom differential is ``(df)_q = d f_q - (-1)^n f_{q-1} d``;
* composition satisfies ``d(g o f) = d(g) o f + (-1)^{deg g} g o d(f)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .zlinalg import (FPAbGroup, IntMatrix, ShapeMismatch, block_diagonal, block_matrix,
                      kernel_basis, smith_normal_form, solve_matrix)


class SquareZeroViolated(ValueError):
    """d o d != 0; carries the offending (source) degree."""

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"d^2 != 0 at degree {degree}")


class NotGraded(ValueError):
    """An operation demanded a complex with all-zero differentials."""


class NotAChainMap(ValueError):
    """A protomorphism failed the cycle condition d_hom(f) = 0."""


class WitnessEquationsFail(ValueError):
    """A construction failed its own equations; `failures` names each."""

    def __init__(self, failures: Sequence[str]):
        self.failures = list(failures)
        super().__init__("witness equations failed: " + ", ".join(failures))


def _hom_sign(n: int) -> int:
    # Koszul sign in the hom differential: (df)_q = d f_q - (-1)^n f_{q-1} d.
    return -1 if n % 2 else 1


def _alternates(sign, degrees) -> bool:
    """Whether sign(k) == -sign(k - 1) for every k in degrees.  A built
    differential whose d o d is zero up to one cross term with coefficient
    sign(k) + sign(k - 1) is square-zero when this holds."""
    return all(sign(k) == -sign(k - 1) for k in degrees)


def _is_int(x) -> bool:
    """Whether x is an int and not a bool: a degree or a rank."""
    return isinstance(x, int) and not isinstance(x, bool)


class Complex:
    """Bounded chain complex of finitely generated free abelian groups.

    The ranks are zero outside [lo, hi]; ``hi == lo - 1`` encodes the zero
    complex.  A graded object is a complex with zero differentials: U is
    `forget_U`, and L, R and the adjunction isomorphisms take one.

    One rule for `Complex`, `Proto` and `ChainMap`: a build checks int
    degrees and ranks, shapes, and here d o d = 0 (a product per stored pair
    of differentials), unless ``_trusted`` says the caller proved them: by
    construction (a shift, U, L, R, a direct sum, a cone), or by
    `_alternates`, when the only term of d o d that its square-zero inputs
    leave is a cross term whose Koszul coefficient sign(k) + sign(k - 1)
    vanishes (`LazySpace.complex`).  Input from outside is checked.
    ``_multiplied`` records that the constructor ran the products, so that
    `homology_H` does not run them again; it checks a trusted complex.
    """

    __slots__ = ("lo", "hi", "_ranks", "_d", "_zero_d", "_multiplied")

    def __init__(self, ranks: Mapping[int, int], diffs: Mapping[int, IntMatrix], _trusted: bool = False):
        if not _trusted:
            for n, r in ranks.items():
                if not _is_int(n):
                    raise ValueError(f"degree {n!r} is not an integer")
                if not _is_int(r):
                    raise ValueError(f"rank {r!r} at degree {n} is not an integer")
                if r < 0:
                    raise ValueError(f"negative rank {r} at degree {n}")
        cleaned = {n: r for n, r in ranks.items() if r}
        self.lo, self.hi = (min(cleaned), max(cleaned)) if cleaned else (0, -1)
        self._ranks = {n: cleaned.get(n, 0) for n in range(self.lo, self.hi + 1)}
        self._zero_d: Dict[int, IntMatrix] = {}
        stored: Dict[int, IntMatrix] = {}
        for n, m in diffs.items():
            if not _trusted:
                if not _is_int(n):
                    raise ValueError(f"degree {n!r} is not an integer")
                want = (self.rank(n - 1), self.rank(n))
                if m.shape != want:
                    raise ShapeMismatch(f"d_{n} has shape {m.shape}, expected {want}")
            if m.rows and m.cols and not m.is_zero():
                stored[n] = m
        self._d = stored
        self._multiplied = not _trusted
        if not _trusted:
            # a missing differential is zero, so only stored pairs can fail
            for n in sorted(stored):
                up = stored.get(n + 1)
                if up is not None and not (stored[n] @ up).is_zero():
                    raise SquareZeroViolated(n + 1)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "Complex":
        """The zero complex.  One instance is shared: a Complex is never
        mutated after construction."""
        return _ZERO_COMPLEX

    @classmethod
    def concentrated(cls, degree: int, rank: int = 1) -> "Complex":
        return cls({degree: rank}, {})

    # -- structure ------------------------------------------------------

    def rank(self, n: int) -> int:
        return self._ranks.get(n, 0)

    def ranks(self) -> Dict[int, int]:
        """The rank of every degree in [lo, hi], zeros included."""
        return dict(self._ranks)

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def is_zero(self) -> bool:
        return self.hi < self.lo

    def diff(self, n: int) -> IntMatrix:
        """d_n; a zero d_n is not stored, and every read of it returns one
        zero matrix, so what is known about it (its Smith form) is kept."""
        m = self._d.get(n)
        if m is None:
            m = self._zero_d.get(n)
            if m is None:
                m = self._zero_d[n] = IntMatrix.zeros(self.rank(n - 1), self.rank(n))
        return m

    def diffs(self) -> Dict[int, IntMatrix]:
        return dict(self._d)

    def has_zero_differentials(self) -> bool:
        return not self._d

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Complex):
            return NotImplemented
        # dense in [lo, hi], so equal rank tables have equal lo and hi
        return self._ranks == other._ranks and self._d == other._d

    def __hash__(self) -> int:
        return hash((tuple(self._ranks.items()), tuple(sorted(self._d.items()))))

    def __repr__(self) -> str:
        return f"Complex(ranks={self._ranks!r}, diffs={{{', '.join(f'{n}: ...' for n in sorted(self._d))}}})"


_ZERO_COMPLEX = Complex({}, {})


def make_complex(ranks: Mapping[int, int], diffs: Mapping[int, object] | None = None) -> Complex:
    """Validated complex from ranks and boundary matrices; a differential
    may be an IntMatrix or a list of rows, ``rank(n)`` wide.

    Raises ValueError for a negative rank, or for a degree or rank that
    is not an int (a bool is not), ShapeMismatch for misshapen matrices
    and SquareZeroViolated (with the offending degree) when d o d != 0.
    """
    conv: Dict[int, IntMatrix] = {}
    for n, m in (diffs or {}).items():
        conv[n] = m if isinstance(m, IntMatrix) else IntMatrix.from_rows(m, cols=ranks.get(n, 0))
    return Complex(ranks, conv)


def unit_complex() -> Complex:
    """The tensor unit: Z concentrated in degree 0."""
    return Complex.concentrated(0, 1)


class Proto:
    """Degree-n protomorphism: a family f_q: source_q -> target_{q+n}; zero
    components are not stored.  The rule of `Complex` holds: a build checks
    int degrees and the shapes unless ``_trusted`` (`compose`, `d_hom`, sums)."""

    __slots__ = ("source", "target", "degree", "_c")

    def __init__(self, source: Complex, target: Complex, degree: int, comps: Mapping[int, IntMatrix],
                 _trusted: bool = False):
        self.source = source
        self.target = target
        self.degree = n = degree
        if _trusted:
            self._c = {q: m for q, m in comps.items() if not m.is_zero()}
            return
        if not _is_int(degree):
            raise ValueError(f"degree {degree!r} is not an integer")
        stored: Dict[int, IntMatrix] = {}
        for q, m in comps.items():
            if not _is_int(q):
                raise ValueError(f"component degree {q!r} is not an integer")
            if m.rows != target.rank(q + n) or m.cols != source.rank(q):
                raise ShapeMismatch(f"component at {q} has shape {m.shape}, "
                                    f"expected {(target.rank(q + n), source.rank(q))}")
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

    def _kind(self, other: "Proto") -> type:
        """The class of a sum or composite of self and other."""
        return Proto

    def __add__(self, other: "Proto") -> "Proto":
        self._compatible(other)
        comps = dict(self._c)
        for q, m in other._c.items():
            mine = comps.get(q)
            comps[q] = m if mine is None else mine + m
        return self._kind(other)(self.source, self.target, self.degree, comps, _trusted=True)

    def __sub__(self, other: "Proto") -> "Proto":
        self._compatible(other)
        comps = dict(self._c)
        for q, m in other._c.items():
            mine = comps.get(q)
            comps[q] = -m if mine is None else mine - m
        return self._kind(other)(self.source, self.target, self.degree, comps, _trusted=True)

    def __neg__(self) -> "Proto":
        return type(self)(self.source, self.target, self.degree,
                          {q: -m for q, m in self._c.items()}, _trusted=True)

    def scale(self, c: int) -> "Proto":
        return type(self)(self.source, self.target, self.degree,
                          {q: m.scale(c) for q, m in self._c.items()}, _trusted=True)

    def __rmul__(self, c: int) -> "Proto":
        if not isinstance(c, int):
            return NotImplemented
        return self.scale(c)

    def __matmul__(self, other: "Proto") -> "Proto":
        return _composite(self, other, self._kind(other))

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

    def as_chain_map(self) -> "ChainMap":
        return ChainMap(self.source, self.target, self.degree, self._c)


class ChainMap(Proto):
    """A protomorphism killed by the hom differential.  The rule of `Complex`
    holds: a build runs `_is_cycle` unless ``_trusted``.  Sums, composites
    and multiples of chain maps are chain maps, built trusted."""

    __slots__ = ()

    def __init__(self, source, target, degree=0, comps=(), _trusted: bool = False):
        super().__init__(source, target, degree, comps if comps != () else {}, _trusted)
        if not _trusted and not _is_cycle(self):
            raise NotAChainMap(f"degree-{degree} proto is not a cycle")

    def _kind(self, other: Proto) -> type:
        return ChainMap if isinstance(other, ChainMap) else Proto


def identity_map(a: Complex) -> ChainMap:
    comps = {n: IntMatrix.identity(a.rank(n)) for n in a.degrees() if a.rank(n)}
    return ChainMap(a, a, 0, comps, _trusted=True)


def _is_cycle(f: Proto) -> bool:
    """Whether d_hom(f) = 0: d f_q = (-1)^n f_{q-1} d in each degree q,
    stopping at the first difference.  Builds no Proto; only stored
    components and differentials are multiplied."""
    n, c, db, da = f.degree, f._c, f.target._d, f.source._d
    plus = _hom_sign(n) != 1
    for q in c.keys() | {k + 1 for k in c}:
        m, d, m1, d1 = c.get(q), db.get(q + n), c.get(q - 1), da.get(q)
        lhs = d @ m if m is not None and d is not None else None
        rhs = m1 @ d1 if m1 is not None and d1 is not None else None
        if lhs is None or rhs is None:   # one side is zero: the other must be
            other = lhs if rhs is None else rhs
            if other is not None and not other.is_zero():
                return False
        elif not ((lhs + rhs).is_zero() if plus else lhs == rhs):
            return False
    return True


def d_hom(f: Proto) -> Proto:
    """Hom-complex differential: (df)_q = d f_q - (-1)^n f_{q-1} d.

    Only stored (nonzero) components and differentials are multiplied."""
    a, b, n = f.source, f.target, f.degree
    sign = _hom_sign(n)
    db, da = b._d, a._d
    comps: Dict[int, IntMatrix] = {}
    for q, m in f._c.items():
        d = db.get(q + n)
        if d is not None:
            comps[q] = d @ m
    for q, m in f._c.items():
        d = da.get(q + 1)
        if d is not None:
            # the -(-1)^n f_{q-1} d term of component q + 1
            t = -(m @ d) if sign == 1 else m @ d
            prev = comps.get(q + 1)
            comps[q + 1] = t if prev is None else prev + t
    return Proto(a, b, n - 1, comps, _trusted=True)


def _composite(g: Proto, f: Proto, kind: type) -> Proto:
    """g o f built as a `kind`; only pairs of stored components are multiplied."""
    if g.source != f.target:
        raise ShapeMismatch("compose: target of f differs from source of g")
    gc, fd = g._c, f.degree
    comps: Dict[int, IntMatrix] = {}
    for q, m in f._c.items():
        gm = gc.get(q + fd)
        if gm is not None:
            comps[q] = gm @ m
    return kind(f.source, g.target, fd + g.degree, comps, _trusted=True)


def compose(g: Proto, f: Proto) -> Proto:
    """g o f, a Proto; degrees add.  ``g @ f`` is a ChainMap when both are."""
    return _composite(g, f, Proto)


def failed_equations(*equations) -> List[str]:
    """The name of each (name, lhs, rhs) whose sides differ or are not parallel, in order."""
    return [name for name, lhs, rhs in equations if lhs != rhs]


def require(failures: Sequence[str]) -> None:
    """Raise WitnessEquationsFail naming the failures, if there are any."""
    if failures:
        raise WitnessEquationsFail(failures)


def inverse_failures(iso: Proto, inverse: Proto) -> List[str]:
    """Which of inverse o iso = 1 and iso o inverse = 1 fail."""
    return failed_equations(
        ("inverse o iso != 1", compose(inverse, iso), identity_map(iso.source)),
        ("iso o inverse != 1", compose(iso, inverse), identity_map(iso.target)))


# -- shift and forgetful functors ---------------------------------------


def suspension(a: Complex, k: int = 1) -> Complex:
    """Degree shift by k with differential scaled by (-1)^k."""
    sign = -1 if k % 2 else 1
    ranks = {n + k: a.rank(n) for n in a.degrees()}
    diffs = {n + k: sign * a.diff(n) for n in a.diffs()}
    return Complex(ranks, diffs, _trusted=True)


def forget_U(a: Complex) -> Complex:
    """Forget the differentials (replace them by 0)."""
    return Complex(a.ranks(), {}, _trusted=True)


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
    return Complex(ranks, diffs, _trusted=True)


def functor_R(x: Complex) -> Complex:
    """Right adjoint of U: (RX)_n = X_n + X_{n-1} = (LX)_{n-1}, with the
    same block d and no suspension sign."""
    if not x.has_zero_differentials():
        raise NotGraded("R is defined on graded objects (all differentials zero)")
    lx = functor_L(x)
    ranks = {n + 1: r for n, r in lx.ranks().items()}
    return Complex(ranks, {n + 1: d for n, d in lx.diffs().items()}, _trusted=True)


def lu_counit(a: Complex) -> ChainMap:
    """The counit LU A -> A with components [d, 1]."""
    lua = functor_L(forget_U(a))
    comps = {}
    for n in a.degrees():
        if a.rank(n) == 0:
            continue
        comps[n] = a.diff(n + 1).hstack(IntMatrix.identity(a.rank(n)))
    return ChainMap(lua, a, 0, comps)


def lu_unit(a: Complex) -> Proto:
    """The unit U A -> U L U A, [0; 1] in each degree: a degree-0 proto
    A -> LU A, not a chain map."""
    return Proto(a, functor_L(forget_U(a)), 0, {
        n: IntMatrix.zeros(a.rank(n + 1), a.rank(n)).vstack(IntMatrix.identity(a.rank(n)))
        for n in a.degrees() if a.rank(n)})


def lu_functor_map(h: ChainMap) -> ChainMap:
    """LU on a chain map: diag(h_{n+1}, h_n)."""
    src = functor_L(forget_U(h.source))
    tgt = functor_L(forget_U(h.target))
    return ChainMap(src, tgt, 0, {
        n: block_diagonal([h.comp(n + 1), h.comp(n)]) for n in src.degrees()})


# -- cycles, boundaries, homology ----------------------------------------


class GradedGroups:
    """Degree-indexed family of canonical FPAbGroups (trivial off support)."""

    __slots__ = ("_g",)

    def __init__(self, groups: Mapping[int, FPAbGroup]):
        for n in groups:
            if not _is_int(n):
                raise ValueError(f"degree {n!r} is not an integer")
        self._g = {n: g for n, g in groups.items() if not g.is_trivial()}

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


def homology_H(a: Complex) -> GradedGroups:
    """Canonical homology Z_n / B_n, read off the Smith forms of d_n and
    d_{n+1}: free rank c_n - rk d_n - rk d_{n+1}, torsion the invariant
    factors > 1 of d_{n+1}.  C_n / Z_n embeds in the free C_{n-1}, so Z_n
    is a direct summand of C_n and Z_n / B_n has the torsion of
    C_n / B_n = coker d_{n+1}.  Raises SquareZeroViolated at the lowest
    n + 1 with d_n d_{n+1} != 0; a complex whose constructor multiplied
    its differentials has passed that check already."""
    out = {}
    for n in a.degrees():
        if a.rank(n) == 0:
            continue
        d = a.diff(n + 1)
        if not a._multiplied and not (a.diff(n) @ d).is_zero():
            raise SquareZeroViolated(n + 1)
        cycles = a.rank(n) - smith_normal_form(a.diff(n)).rank
        if cycles:
            t = smith_normal_form(d)
            out[n] = FPAbGroup.canonical(cycles - t.rank, [f for f in t.invariant_factors if f > 1])
    return GradedGroups(out)


# -- the internal hom ------------------------------------------------------


class BlockLayout:
    """Where each block of a stacked basis starts.

    In each degree the blocks follow one another in the order they were
    added.  A block is a rows x cols array of basis elements laid out
    row-major, so element (i, j) of block ``key`` sits at
    ``slot(n, key) + i * cols + j``.  Empty blocks take no room and are not
    listed.  The degree may be any hashable label; a single stack uses 0.
    """

    __slots__ = ("_in_degree", "_where", "_dims")

    def __init__(self):
        self._in_degree: Dict[object, List[Tuple[object, int, int, int]]] = {}
        self._where: Dict[Tuple[object, object], Tuple[int, int]] = {}   # -> (offset, cols)
        self._dims: Dict[object, int] = {}

    def add(self, n, key, rows: int, cols: int = 1) -> None:
        if rows and cols:
            off = self._dims.get(n, 0)
            self._in_degree.setdefault(n, []).append((key, rows, cols, off))
            self._where[(n, key)] = (off, cols)
            self._dims[n] = off + rows * cols

    def degrees(self):
        """The degrees holding a block, in the order they were first used."""
        return self._in_degree.keys()

    def dim(self, n) -> int:
        return self._dims.get(n, 0)

    def dims(self) -> Dict[object, int]:
        return dict(self._dims)

    def blocks(self, n) -> List[Tuple[object, int, int, int]]:
        """(key, rows, cols, offset) of each block of degree n, in order."""
        return self._in_degree.get(n, [])

    def slot(self, n, key, i: int = 0, j: int = 0) -> int:
        """Flat index of element (i, j) of block ``key`` in degree n; the
        block's first slot by default."""
        where = self._where.get((n, key))
        if where is None:
            raise ShapeMismatch(f"no block {key!r} in degree {n}")
        return where[0] + i * where[1] + j


def scatter_kron(out: List[List[int]], row_off: int, col_off: int,
                 a: Union[IntMatrix, int], b: Union[IntMatrix, int] = 1, sign: int = 1) -> None:
    """Add sign * (a (x) b) to the rows ``out`` with its corner at (row_off,
    col_off): out[row_off + i*b.rows + k][col_off + j*b.cols + l] gains
    sign * a[i, j] * b[k, l].  A factor given as an int k is the k x k
    identity, so the default b = 1 places a itself.  Only nonzero entries
    of a and b are visited."""
    br, bc, b_nz = _nonzero_entries(b)
    if not b_nz:
        return
    for i, j, x in _nonzero_entries(a)[2]:
        x *= sign
        r0, c0 = row_off + i * br, col_off + j * bc
        for k, l, y in b_nz:
            out[r0 + k][c0 + l] += x * y


def _nonzero_entries(m: Union[IntMatrix, int]) -> Tuple[int, int, List[Tuple[int, int, int]]]:
    """rows, cols and the nonzero entries (i, j, m[i, j]) of m."""
    if isinstance(m, int):
        return m, m, [(t, t, 1) for t in range(m)]
    e, c = m.entries(), m.cols
    return m.rows, c, [(t // c, t % c, e[t]) for t in compress(range(len(e)), e)]


class LazySpace:
    """A basis-indexed space (hom, tensor or Tot) that builds its complex on
    the first read of `complex` and returns that object on every read, so
    what is known about its differentials (their Smith forms) is kept.
    `dim(n)` reads `layout`, from ranks alone.  A subclass adds each d_n to
    zero rows outs[n] in `_differentials(outs)` and proves d o d = 0 in
    `_square_zero()`."""

    _built = None

    def dim(self, n: int) -> int:
        return self.layout.dim(n)

    @property
    def complex(self) -> Complex:
        if self._built is None:
            lay = self.layout
            outs = {n: [[0] * lay.dim(n) for _ in range(lay.dim(n - 1))]
                    for n in lay.degrees() if lay.dim(n - 1)}
            self._differentials(outs)
            diffs = {n: IntMatrix.from_rows(out, lay.dim(n), _trusted=True) for n, out in outs.items()}
            self._built = Complex(lay.dims(), diffs, _trusted=self._square_zero())
        return self._built


class HomSpace(LazySpace):
    """Basis-indexed model of the internal hom [B, C], built lazily (`LazySpace`).

    The degree-n basis is a BlockLayout with one block per source degree q,
    by ascending q: the entries of a component B_q -> C_{q+n}, row-major.
    A degree-n proto is a tuple of dim(n) coordinates (`to_vector`,
    `from_vector`), and a family of them is an IntMatrix with one such
    column each, as `cycle_basis` returns the chain maps.
    """

    def __init__(self, source: Complex, target: Complex):
        self.source = source
        self.target = target
        self.layout = lay = BlockLayout()
        if not (source.is_zero() or target.is_zero()):
            for n in range(target.lo - source.hi, target.hi - source.lo + 1):
                for q in source.degrees():
                    lay.add(n, q, target.rank(q + n), source.rank(q))

    def _square_zero(self) -> bool:
        # D D f = d d f - (s(n) + s(n-1)) d f d + s(n) s(n-1) f d d, and d d = 0
        # in source and target, so only the cross term d f d can survive
        return _alternates(_hom_sign, self.layout.degrees())

    def _differentials(self, outs: Dict[int, List[List[int]]]) -> None:
        # (df)_q = d f_q - (-1)^n f_{q-1} d, and f_q d acts on the row-major
        # entries of f_q as 1 (x) d^T, d: B_{q+1} -> B_q.  Only stored
        # differentials are nonzero, and each one's target block exists.
        lay, target_d = self.layout, self.target.diffs()
        source_d_t = {q - 1: d.transpose() for q, d in self.source.diffs().items()}
        for n, out in outs.items():
            for q, rows, cols, off in lay.blocks(n):
                if q + n in target_d:   # d f_q
                    scatter_kron(out, lay.slot(n - 1, q), off, target_d[q + n], cols)
                if q in source_d_t:     # f_q d
                    scatter_kron(out, lay.slot(n - 1, q + 1), off, rows, source_d_t[q], -_hom_sign(n))

    def to_vector(self, f: Proto) -> tuple:
        if f.source != self.source or f.target != self.target:
            raise ShapeMismatch("proto does not live in this hom space")
        vec = [0] * self.dim(f.degree)
        for q, rows, cols, off in self.layout.blocks(f.degree):
            vec[off:off + rows * cols] = f.comp(q).entries()
        return tuple(vec)

    def from_vector(self, n: int, vec: Sequence[int]) -> Proto:
        if len(vec) != self.dim(n):
            raise ShapeMismatch(f"vector length {len(vec)} vs dim {self.dim(n)}")
        comps = {q: IntMatrix(rows, cols, vec[off:off + rows * cols])
                 for q, rows, cols, off in self.layout.blocks(n)}
        return Proto(self.source, self.target, n, comps)

    def from_cycle(self, n: int, vec: Sequence[int]) -> ChainMap:
        """The chain map with coordinates vec, which must be a degree-n
        cycle, such as K c for K = cycle_basis(n); it is not checked."""
        return ChainMap(self.source, self.target, n, self.from_vector(n, vec)._c, _trusted=True)

    def cycle_basis(self, n: int) -> IntMatrix:
        """The kernel matrix K of the degree-n hom differential: dim(n)
        rows, and its columns, in this space's coordinates, are a Z-basis
        of the degree-n cycles, i.e. of the degree-n chain maps."""
        return kernel_basis(self.complex.diff(n))


def precomposition(g: Proto, hs_from: HomSpace, hs_to: HomSpace, n: int) -> IntMatrix:
    """Matrix of h |-> h o g from [B, T]_n to [A, T]_{n+|g|}, for g: A -> B.

    On row-major blocks vec(H G) = (1 (x) G^T) vec(H), so each stored
    component g_q places one Kronecker block, from block q+|g| of h to block
    q of h o g."""
    if (hs_from.source != g.target or hs_to.source != g.source
            or hs_from.target != hs_to.target):
        raise ShapeMismatch("precomposition: hom spaces do not match g")
    m, t = n + g.degree, hs_to.target
    out = [[0] * hs_from.dim(n) for _ in range(hs_to.dim(m))]
    for q, gq in g._c.items():
        rank = t.rank(q + m)
        if rank:
            scatter_kron(out, hs_to.layout.slot(m, q), hs_from.layout.slot(n, q + g.degree),
                         rank, gq.transpose())
    return IntMatrix.from_rows(out, hs_from.dim(n), _trusted=True)


def postcomposition(w: Proto, hs_from: HomSpace, hs_to: HomSpace, n: int) -> IntMatrix:
    """Matrix of h |-> w o h from [A, X]_n to [A, Y]_{n+|w|}, for w: X -> Y.

    On row-major blocks vec(W H) = (W (x) 1) vec(H), so each block q of h
    meets the stored component w_{q+n} and places one Kronecker block, from
    block q of h to block q of w o h."""
    if (hs_from.target != w.source or hs_to.target != w.target
            or hs_from.source != hs_to.source):
        raise ShapeMismatch("postcomposition: hom spaces do not match w")
    m = n + w.degree
    out = [[0] * hs_from.dim(n) for _ in range(hs_to.dim(m))]
    for q, _, cols, off in hs_from.layout.blocks(n):
        wq = w._c.get(q + n)
        if wq is not None:
            scatter_kron(out, hs_to.layout.slot(m, q), off, wq, cols)
    return IntMatrix.from_rows(out, hs_from.dim(n), _trusted=True)


def hom_complex(source: Complex, target: Complex) -> Complex:
    """The internal hom [B, C] as a complex (see HomSpace for the basis)."""
    return HomSpace(source, target).complex


def chain_map_basis(source: Complex, target: Complex, degree: int = 0) -> IntMatrix:
    """The kernel matrix whose columns are a Z-basis of the degree-n chain
    maps source -> target, in the coordinates of HomSpace(source, target)."""
    return HomSpace(source, target).cycle_basis(degree)


# -- adjunction transposes -------------------------------------------------


class AdjunctionWitness:
    """The two transposes of an adjunction in coordinates, and their check.

    ``to_chain`` is an IntMatrix from the degree-0 coordinates of the graded
    hom space ``graded`` to those of the chain hom space ``chain``, and
    ``to_graded`` goes back.  ``detail`` names the failing checks, "" when
    to_graded to_chain = 1, every column of to_chain is a chain map, and
    to_chain to_graded K = K for the chain maps K = chain.cycle_basis(0)."""

    def __init__(self, graded: HomSpace, chain: HomSpace, to_chain: List[List[int]],
                 to_graded: List[List[int]]):
        self.graded, self.chain = graded, chain
        self.to_chain = IntMatrix.from_rows(to_chain, graded.dim(0), _trusted=True)
        self.to_graded = IntMatrix.from_rows(to_graded, chain.dim(0), _trusted=True)
        g, d0, k = graded.dim(0), chain.complex.diff(0), chain.cycle_basis(0)
        detail = failed_equations(
            ("graded round trip failed", self.to_graded @ self.to_chain, IntMatrix.identity(g)),
            ("transpose is not a chain map", d0 @ self.to_chain, IntMatrix.zeros(d0.rows, g)),
            ("chain round trip failed", self.to_chain @ (self.to_graded @ k), k))
        self.detail = "; ".join(detail)


def adjunction_iso_LU(x: Complex, a: Complex) -> AdjunctionWitness:
    """DGAb(LX, A) = GAb(X, UA), block by block: g goes to the chain map
    f_n = [d g_{n+1}, g_n] on (LX)_n = X_{n+1} + X_n, and f_n to its last
    X_n columns.  On row-major blocks vec(D G E) = (D (x) E^T) vec(G)."""
    if not x.has_zero_differentials():
        raise NotGraded("adjunction_iso_LU expects a graded X")
    graded, chain = HomSpace(x, forget_U(a)), HomSpace(functor_L(x), a)
    to_chain = [[0] * graded.dim(0) for _ in range(chain.dim(0))]
    to_graded = [[0] * chain.dim(0) for _ in range(graded.dim(0))]
    for n, rows, width, off in chain.layout.blocks(0):
        top, ident = x.rank(n + 1), IntMatrix.identity(width)
        if top and a.rank(n + 1):   # d g_{n+1}, in the first X_{n+1} columns
            scatter_kron(to_chain, off, graded.layout.slot(0, n + 1), a.diff(n + 1),
                         ident.select_cols(range(top)))
        if width > top:             # g_n, in the last X_n columns
            last, g_off = ident.select_rows(range(top, width)), graded.layout.slot(0, n)
            scatter_kron(to_chain, off, g_off, rows, last.transpose())
            scatter_kron(to_graded, g_off, off, rows, last)
    return AdjunctionWitness(graded, chain, to_chain, to_graded)


def adjunction_iso_UR(a: Complex, x: Complex) -> AdjunctionWitness:
    """DGAb(A, RX) = GAb(UA, X), block by block: g goes to the chain map
    f_n = [g_n; g_{n-1} d] into (RX)_n = X_n + X_{n-1}, and f_n to its first
    X_n rows.  On row-major blocks vec(E G D) = (E (x) D^T) vec(G)."""
    if not x.has_zero_differentials():
        raise NotGraded("adjunction_iso_UR expects a graded X")
    graded, chain = HomSpace(forget_U(a), x), HomSpace(a, functor_R(x))
    to_chain = [[0] * graded.dim(0) for _ in range(chain.dim(0))]
    to_graded = [[0] * chain.dim(0) for _ in range(graded.dim(0))]
    for n, height, cols, off in chain.layout.blocks(0):
        top, ident = x.rank(n), IntMatrix.identity(height)
        if top:                     # g_n, in the first X_n rows
            first, g_off = ident.select_rows(range(top)), graded.layout.slot(0, n)
            scatter_kron(to_chain, off, g_off, first.transpose(), cols)
            scatter_kron(to_graded, g_off, off, first, cols)
        if height > top and a.rank(n - 1):   # g_{n-1} d, in the last X_{n-1} rows
            scatter_kron(to_chain, off, graded.layout.slot(0, n - 1),
                         ident.select_cols(range(top, height)), a.diff(n).transpose())
    return AdjunctionWitness(graded, chain, to_chain, to_graded)


# -- the canonical U-split presentation ------------------------------------


@dataclass
class CanonicalPresentation:
    """The split coequalizer LULU A => LU A -> A evaluated at A.

    alpha = [d 1] is the counit of A, beta = [[0,1,1,0],[0,0,0,1]] the
    counit of LU A and gamma = [[d,1,0,0],[0,0,d,1]] = LU(alpha): the
    standard monadicity fork for the free/forget adjunction, split by the
    units s: A -> LU A and t: LU A -> LULU A.  `coequalizer_verified` rests
    on the split-fork identities alone, with no target sampled: if g beta =
    g gamma then g = g gamma t = (g s) alpha, d(g s) = d(g s) alpha s =
    d(g) s = 0, and x alpha = 0 forces x = x alpha s = 0.  `failures` names
    the identities that fail, [] when `coequalizer_verified`.  A, LU A and
    LULU A are alpha.target, alpha.source and beta.source.
    """

    alpha: ChainMap
    beta: ChainMap
    gamma: ChainMap
    fork_commutes: bool
    coequalizer_verified: bool
    failures: List[str]


def default_probe_family(a: Complex) -> List[Tuple[str, Complex]]:
    """Fixed probe targets for sampling a universal property: the complex
    itself, its shifts, the unit, and L Z."""
    return [
        ("A", a),
        ("SA", suspension(a, 1)),
        ("S^-1A", suspension(a, -1)),
        ("Z", unit_complex()),
        ("LZ", functor_L(unit_complex())),
    ]


def canonical_presentation(a: Complex) -> CanonicalPresentation:
    """The canonical presentation of A, verified by its split-fork equations
    alpha beta = alpha gamma, alpha s = 1, beta t = 1 and gamma t = s alpha;
    no target is sampled.  They prove the coequalizer property for every T:
    a chain map g: LU A -> T with g beta = g gamma is g beta t = g gamma t
    = (g s) alpha, g s is a chain map (d(g s) = d(g s) alpha s = d(g) s = 0),
    and x alpha = 0 forces x = x alpha s = 0."""
    alpha = lu_counit(a)
    lu = alpha.source
    beta, gamma = lu_counit(lu), lu_functor_map(alpha)
    s, t = lu_unit(a), lu_unit(lu)

    failures = failed_equations(
        ("alpha beta != alpha gamma", alpha @ beta, alpha @ gamma),
        ("alpha s != 1", alpha @ s, identity_map(a)),
        ("beta t != 1", beta @ t, identity_map(lu)),
        ("gamma t != s alpha", gamma @ t, s @ alpha))
    return CanonicalPresentation(alpha, beta, gamma, "alpha beta != alpha gamma" not in failures,
                                 not failures, failures)


def factors_uniquely(k: Proto, w: ChainMap, t: Complex) -> bool:
    """Every chain map g: B -> T with g o k = 0 factors uniquely through
    w: B -> C, i.e. w is a cokernel of k: K -> B as seen from T.

    In coordinates, with K_B and K_C the chain maps B -> T and C -> T (the
    kernels of the degree-0 hom differentials) and P_k, P_w the
    precompositions: the killers are K_B ker(P_k K_B), and each must be
    P_w K_C x for exactly one x."""
    hs_bt = HomSpace(w.source, t)
    cycles_b = kernel_basis(hs_bt.complex.diff(0))
    if not cycles_b.cols:
        return True
    hs_kt = HomSpace(k.source, t)
    killers = kernel_basis(precomposition(k, hs_bt, hs_kt, 0) @ cycles_b)

    hs_ct = HomSpace(w.target, t)
    cycles_c = kernel_basis(hs_ct.complex.diff(0))
    fm = precomposition(w, hs_ct, hs_bt, 0) @ cycles_c

    # uniqueness: nothing composes with w to zero
    if cycles_c.cols and kernel_basis(fm).cols:
        return False

    # column jj: the killer sum_g killers[g, jj] * g, in coordinates of hs_bt
    kv = cycles_b @ killers
    return all(solve_matrix(fm, IntMatrix.column(kv.col(jj))) is not None
               for jj in range(killers.cols))


# -- finite direct sums -----------------------------------------------------


def direct_sum(summands: Sequence[Complex]) -> Complex:
    """Block direct sum of complexes, summands in order."""
    ranks: Dict[int, int] = {}
    for s in summands:
        for n in s.degrees():
            ranks[n] = ranks.get(n, 0) + s.rank(n)
    return Complex(ranks, {
        n: block_diagonal([s.diff(n) for s in summands])
        for n in ranks if ranks[n] and ranks.get(n - 1)}, _trusted=True)


def direct_sum_complexes(summands: Sequence[Complex]) -> Tuple[Complex, List[ChainMap], List[ChainMap]]:
    """Block direct sum with injection and projection chain maps."""
    total = direct_sum(summands)
    ranks = total.ranks()
    # summand i sits in rows before .. before + r of the identity on the sum
    identities = {n: IntMatrix.identity(r) for n, r in ranks.items() if r}
    injs, projs = [], []
    before = dict.fromkeys(ranks, 0)
    for s in summands:
        inj_comps, proj_comps = {}, {}
        for n in s.degrees():
            r = s.rank(n)
            if r == 0:
                continue
            block = range(before[n], before[n] + r)
            inj_comps[n] = identities[n].select_cols(block)
            proj_comps[n] = identities[n].select_rows(block)
            before[n] += r
        injs.append(ChainMap(s, total, 0, inj_comps, _trusted=True))
        projs.append(ChainMap(total, s, 0, proj_comps, _trusted=True))
    return total, injs, projs
