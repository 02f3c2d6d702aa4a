"""The additive category with objects the integers, hom Z between m and
m, m+1, and zero otherwise, together with the equivalence between bounded
complexes and finitely supported additive presheaves on it.

The generator m -> m+1 acts contravariantly as the boundary map
d_{m+1}: A_{m+1} -> A_m, with no sign; the encode/decode round trips pin
this convention down bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from .complexes import (
    ChainMap,
    Complex,
    _is_int,
    chain_map_basis,
    functor_L,
    suspension,
    unit_complex,
)
from .zlinalg import IntMatrix, ShapeMismatch


class NotComposable(ValueError):
    pass


def ell_hom_rank(m: int, n: int) -> int:
    """rank of the hom group m -> n: 1 when n is m or m+1, else 0."""
    return 1 if n in (m, m + 1) else 0


@dataclass(frozen=True)
class EllHom:
    """A morphism m -> n, determined by one integer coefficient.

    The coefficient is meaningful only when n is m or m+1; other hom
    groups are zero and the coefficient is forced to 0.
    """

    source: int
    target: int
    coefficient: int

    def __post_init__(self):
        if ell_hom_rank(self.source, self.target) == 0 and self.coefficient != 0:
            object.__setattr__(self, "coefficient", 0)

    def is_endo(self) -> bool:
        return self.source == self.target


def ell_identity(m: int) -> EllHom:
    return EllHom(m, m, 1)


def ell_generator(m: int) -> EllHom:
    """The degree-raising generator m -> m+1."""
    return EllHom(m, m + 1, 1)


def ell_compose(g: EllHom, f: EllHom) -> EllHom:
    """g o f; zero across two nontrivial steps."""
    if f.target != g.source:
        raise NotComposable(f"cannot compose {f.source}->{f.target} with {g.source}->{g.target}")
    if f.is_endo() or g.is_endo():
        return EllHom(f.source, g.target, f.coefficient * g.coefficient)
    # both raise the index: lands in a zero hom group
    return EllHom(f.source, g.target, 0)


class EllModule:
    """Finitely supported additive presheaf: free values with the
    generator acting by a matrix values[m+1] -> values[m]."""

    def __init__(self, values: Mapping[int, int], action: Mapping[int, IntMatrix]):
        for n, r in values.items():
            if not _is_int(n):
                raise ValueError(f"index {n!r} is not an integer")
            if not _is_int(r):
                raise ValueError(f"rank {r!r} at {n} is not an integer")
            if r < 0:
                raise ValueError(f"negative rank {r} at {n}")
        for m in action:
            if not _is_int(m):
                raise ValueError(f"action index {m!r} is not an integer")
        self.values = {n: r for n, r in values.items() if r}
        self.action = {}
        for m, mat in action.items():
            want = (self.value_rank(m), self.value_rank(m + 1))
            if mat.shape != want:
                raise ShapeMismatch(f"action at {m} has shape {mat.shape}, expected {want}")
            if mat.rows and mat.cols and not mat.is_zero():
                self.action[m] = mat
        for m in list(self.action):
            # two-step composites correspond to zero homs and must vanish
            comp = self.act(m) @ self.act(m + 1)
            if not comp.is_zero():
                raise ValueError(f"two-step action at {m} is nonzero")

    def value_rank(self, n: int) -> int:
        return self.values.get(n, 0)

    def act(self, m: int) -> IntMatrix:
        mat = self.action.get(m)
        if mat is None:
            return IntMatrix.zeros(self.value_rank(m), self.value_rank(m + 1))
        return mat

    def __eq__(self, other) -> bool:
        if not isinstance(other, EllModule):
            return NotImplemented
        return self.values == other.values and self.action == other.action

    def __repr__(self) -> str:
        return f"EllModule(values={self.values!r})"


def encode(a: Complex) -> EllModule:
    """Complex -> presheaf: values are the ranks, the generator acts by d."""
    values = {n: a.rank(n) for n in a.degrees()}
    action = {n - 1: a.diff(n) for n in a.diffs()}
    return EllModule(values, action)


def decode(f: EllModule) -> Complex:
    """Presheaf -> complex, inverse to encode (bit-exact round trips)."""
    ranks = dict(f.values)
    diffs = {m + 1: mat for m, mat in f.action.items()}
    return Complex(ranks, diffs)


@dataclass
class EllModuleMap:
    """Natural transformation between presheaves: componentwise matrices
    commuting with the generator actions."""

    source: EllModule
    target: EllModule
    components: Dict[int, IntMatrix]

    def __post_init__(self):
        for n, m in self.components.items():
            want = (self.target.value_rank(n), self.source.value_rank(n))
            if m.shape != want:
                raise ShapeMismatch(f"component at {n} has shape {m.shape}, expected {want}")
        for m in set(list(self.source.action) + list(self.target.action)):
            lhs = self.component(m) @ self.source.act(m)
            rhs = self.target.act(m) @ self.component(m + 1)
            if lhs != rhs:
                raise ValueError(f"naturality fails at generator {m}")

    def component(self, n: int) -> IntMatrix:
        m = self.components.get(n)
        if m is None:
            return IntMatrix.zeros(self.target.value_rank(n), self.source.value_rank(n))
        return m


def encode_map(f: ChainMap) -> EllModuleMap:
    if f.degree != 0:
        raise ShapeMismatch("only degree-0 chain maps correspond to module maps")
    return EllModuleMap(encode(f.source), encode(f.target),
                        {n: m for n, m in f.comps().items()})


def decode_map(phi: EllModuleMap) -> ChainMap:
    return ChainMap(decode(phi.source), decode(phi.target), 0, phi.components)


def yoneda_rank_check(m: int, n: int) -> bool:
    """Degree-0 chain maps S^m L Z -> S^n L Z must match the hom table."""
    lz = functor_L(unit_complex())
    src = suspension(lz, m)
    tgt = suspension(lz, n)
    return chain_map_basis(src, tgt, 0).cols == ell_hom_rank(m, n)
