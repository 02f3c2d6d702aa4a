"""Mapping cones and absolute colimits.

Direct sums, cones and the cylinder as split sequences, cone homotopy
isomorphisms and recognition, protosplittings, cokernels of protosplit
chain maps (split degreewise through the idempotent's image),
coequalizers of protosplit pairs, idempotent splitting, and the
cone-as-cokernel construction.

A split sequence (SplitSequence) is four maps around a middle object:
the chain maps i: first -> middle and p: middle -> second, and the
degree-0 maps q: middle -> first and j: second -> middle, with p i = 0,
q i = 1, p j = 1 and i q + j p = 1 (so q j = 0).  A direct sum A + B is
one with i, j the injections and p, q the projections.  A cone
Mc f = B + SA is one with i: B -> Mc f and p: Mc f -> SA chain maps of
0/1 blocks and q = i^T, j = p^T; recognize_cone turns any split
sequence B -> C -> SA back into a cone.  The maps into and out of cones
below are composites of these and of direct-sum injections and
projections, or blockwise diagonal (cone_functor_map); only the cone
differential is written as a block matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .complexes import (
    ChainMap,
    Complex,
    NotAChainMap,
    Proto,
    WitnessEquationsFail,  # re-exported: the failure of every check below
    _is_cycle,
    compose,
    d_hom,
    direct_sum_complexes,
    failed_equations,
    forget_U,
    functor_L,
    identity_map,
    inverse_failures,
    lu_functor_map,  # re-exported: LU on maps, beside the counit
    require,
    suspension,
)
from .zlinalg import (
    IntMatrix,
    block_diagonal,
    block_matrix,
    inverse_unimodular,
    smith_normal_form,
)


class NotProtosplit(ValueError):
    pass


class NotIdempotent(ValueError):
    pass


class PairEquationsFail(ValueError):
    pass


def _cone_sign() -> int:
    # the SA block of the cone differential carries -d
    return -1


# -- split sequences: direct sums and mapping cones -----------------------


@dataclass
class SplitSequence:
    """first -i-> middle -p-> second with degree-0 maps q: middle -> first
    and j: second -> middle satisfying p i = 0, q i = 1, p j = 1 and
    i q + j p = 1 (hence q j = 0).  For a direct sum all four are chain
    maps; for a cone and the cylinder only i and p are."""

    i: Proto
    j: Proto
    p: Proto
    q: Proto

    @property
    def middle(self) -> Complex:
        return self.i.target

    def check(self) -> List[str]:
        i, j, p, q = self.i, self.j, self.p, self.q
        return failed_equations(
            ("p o i != 0", compose(p, i), Proto.zero(i.source, p.target)),
            ("q o i != 1", compose(q, i), identity_map(i.source)),
            ("p o j != 1", compose(p, j), identity_map(j.source)),
            ("i q + j p != 1", compose(i, q) + compose(j, p), identity_map(self.middle)),
            ("q o j != 0", compose(q, j), Proto.zero(j.source, q.target)))


def direct_sum(a: Complex, b: Complex) -> SplitSequence:
    """A + B with i: A ->, j: B ->, p: -> B and q: -> A."""
    _, injs, projs = direct_sum_complexes([a, b])
    w = SplitSequence(injs[0], injs[1], projs[1], projs[0])
    require(w.check())  # structural bug if this ever fires
    return w


def _transpose(p: Proto) -> Proto:
    """The degree-0 proto target -> source with transposed components."""
    # a degree-0 component source_n -> target_n transposes to target_n -> source_n
    return Proto(p.target, p.source, 0, {n: m.transpose() for n, m in p._c.items()}, _trusted=True)


def mapping_cone(f: Proto) -> SplitSequence:
    """(Mc f)_n = B_n + A_{n-1} with d = [[d, f], [0, -d]], as the split
    sequence B -> Mc f -> SA; i and p have 0/1 blocks, so q and j are
    their transposes."""
    # A ChainMap f has d f = f d, so with the cone sign -1 the cone's d o d
    # = [[d d, d f - f d], [0, d d]] is 0, and i and p commute with d by
    # their 0/1 blocks.  Under any other cone sign every check runs.
    trusted = isinstance(f, ChainMap) and f.degree == 0 and _cone_sign() == -1
    if f.degree != 0 or not (trusted or _is_cycle(f)):
        raise NotAChainMap("mapping cone needs a degree-0 chain map")
    a, b = f.source, f.target
    sa = suspension(a, 1)
    ranks = {}
    lo = min(b.lo, a.lo + 1) if not (a.is_zero() and b.is_zero()) else 0
    hi = max(b.hi, a.hi + 1) if not (a.is_zero() and b.is_zero()) else -1
    for n in range(lo, hi + 1):
        ranks[n] = b.rank(n) + a.rank(n - 1)
    diffs = {}
    sign = _cone_sign()
    for n in range(lo, hi + 1):
        rows = ranks.get(n - 1, 0)
        cols = ranks.get(n, 0)
        if not rows or not cols:
            continue
        diffs[n] = block_matrix([
            [b.diff(n), f.comp(n - 1)],
            [IntMatrix.zeros(a.rank(n - 2), b.rank(n)), sign * a.diff(n - 1)],
        ])
    cone = Complex(ranks, diffs, _trusted=trusted)
    i_comps = {}
    p_comps = {}
    for n in range(lo, hi + 1):
        rb, ra = b.rank(n), a.rank(n - 1)
        if rb:
            i_comps[n] = IntMatrix.identity(rb).vstack(IntMatrix.zeros(ra, rb))
        if ra:
            p_comps[n] = IntMatrix.zeros(ra, rb).hstack(IntMatrix.identity(ra))
    i = ChainMap(b, cone, 0, i_comps, _trusted=trusted)
    p = ChainMap(cone, sa, 0, p_comps, _trusted=trusted)
    return SplitSequence(i, _transpose(p), p, _transpose(i))


def mc1(a: Complex) -> SplitSequence:
    """Mapping cone of the identity of A."""
    return mapping_cone(identity_map(a))


def cone_perturbation(f: ChainMap, u: Proto) -> Proto:
    """The degree-0 proto v: A -> B with [[1,u],[0,1]]: Mc f -> Mc(f + v)
    an invertible chain map, for a degree-0 graded u: SA -> B.

    v = -d_hom(u), its component from (SA)_{k+1} = A_k moved to degree k:
    v_k = -(d u_{k+1} + u_k d).
    """
    return -Proto(f.source, f.target, 0, {k - 1: m for k, m in d_hom(u).comps().items()})


def _identity_plus(w: Proto, source: Complex, target: Complex) -> ChainMap:
    """1 + w as a (checked) chain map source -> target, for two complexes
    on one carrier and a degree-0 proto w between them."""
    return ChainMap(source, target, 0, {
        n: IntMatrix.identity(source.rank(n)) + w.comp(n) for n in source.degrees()})


def cone_homotopy_iso(f: ChainMap, u: Proto) -> Tuple[ChainMap, ChainMap]:
    """(iso, inverse) with iso = 1 + i u p: Mc f -> Mc(f + v) and inverse
    = 1 - i u p, where v = cone_perturbation(f, u)."""
    a, b = f.source, f.target
    sa = suspension(a, 1)
    if u.source != sa or u.target != b or u.degree != 0:
        raise ValueError("u must be a degree-0 proto SA -> B")
    src = mapping_cone(f)
    tgt = mapping_cone((f + cone_perturbation(f, u)).as_chain_map())
    w = compose(tgt.i, compose(u, src.p))   # [[0, u], [0, 0]]
    return (_identity_plus(w, src.middle, tgt.middle),
            _identity_plus(-w, tgt.middle, src.middle))


# -- cone recognition ---------------------------------------------------------


@dataclass
class RecognizedCone:
    map: ChainMap       # g: A -> B with C = Mc g
    iso: ChainMap       # [i, j]: Mc g -> C
    inverse: ChainMap


def recognize_cone(data: SplitSequence) -> RecognizedCone:
    """A split sequence B -> C -> SA is a cone: g = q o d(j), desuspended;
    i q_cone + j p_cone: Mc g -> C with inverse i_cone q + j_cone p.
    (The inverse [q - q j p; p] of the block form is the same map: the
    equations force q j p = q - q i q = 0.)"""
    require(data.check())
    b, a = data.i.source, suspension(data.p.target, -1)

    dj = d_hom(data.j)                    # degree -1 proto SA -> C
    g_shift = compose(data.q, dj)         # degree -1 proto SA -> B
    g_comps = {k: g_shift.comp(k + 1) for k in a.degrees()}
    g = ChainMap(a, b, 0, g_comps)

    cone = mapping_cone(g)
    iso = (compose(data.i, cone.q) + compose(data.j, cone.p)).as_chain_map()
    inverse = (compose(cone.i, data.q) + compose(cone.j, data.p)).as_chain_map()
    require(inverse_failures(iso, inverse))  # theory guarantees this
    return RecognizedCone(g, iso, inverse)


def cylinder_factorization(f: ChainMap) -> SplitSequence:
    """0 -> A -> B + Mc1_A -> Mc f -> 0 split by i = [-f; 1; 0],
    p = [[1, f, 0], [0, 0, 1]], j = [[1,0],[0,0],[0,1]], q = [0 1 0];
    each is a composite of the structure maps of Mc1_A, Mc f and the sum."""
    cone1 = mc1(f.source)
    _, (in_b, in_c), (pr_b, pr_c) = direct_sum_complexes([f.target, cone1.middle])
    conef = mapping_cone(f)

    i = (compose(in_c, cone1.i) - compose(in_b, f)).as_chain_map()
    q = compose(cone1.q, pr_c)
    to_b = pr_b + compose(f, q)
    p = (compose(conef.i, to_b) + compose(conef.j, compose(cone1.p, pr_c))).as_chain_map()
    j = compose(in_b, conef.q) + compose(in_c, compose(cone1.j, conef.p))
    require(failed_equations(("p o i != 0", compose(p, i), Proto.zero(i.source, p.target))))
    return SplitSequence(i, j, p, q)


# -- protosplittings and their colimits ---------------------------------------


def is_protosplitting(f: ChainMap, t: Proto) -> bool:
    """t: B -> A with f o t o f = f."""
    if t.source != f.target or t.target != f.source or t.degree != 0:
        return False
    return compose(compose(f, t), f) == f


def idempotent_of(f: ChainMap, t: Proto) -> Proto:
    """e = 1 - f o t; idempotent with e o f = 0."""
    if not is_protosplitting(f, t):
        raise NotProtosplit("f o t o f != f")
    e = identity_map(f.target) - compose(f, t)
    require(failed_equations(("e o e != e", compose(e, e), e),
                             ("e o f != 0", compose(e, f), Proto.zero(f.source, f.target))))
    return e


def _split_idempotent_matrix(e: IntMatrix) -> Tuple[IntMatrix, IntMatrix]:
    """(section, retraction) with s r = e, r s = 1, via SNF of e.

    The image of an idempotent integer matrix is a direct summand, so
    the invariant factors are all 1 and the first r columns of U^-1 /
    rows of V^-1 split it.
    """
    s = smith_normal_form(e)
    r = s.rank
    if any(d != 1 for d in s.invariant_factors):
        raise NotIdempotent("image is not a direct summand")
    uinv = inverse_unimodular(s.U)
    vinv = inverse_unimodular(s.V)
    section = uinv.select_cols(range(r))
    retraction = vinv.select_rows(range(r))
    return section, retraction


def _split_degreewise(e: Proto) -> Tuple[Complex, Dict[int, IntMatrix], Dict[int, IntMatrix]]:
    """Split the degree-0 idempotent e of A degree by degree: the complex
    P on the images, with the retraction A -> P and section P -> A
    components (the differential of P is r d s)."""
    a = e.source
    sections, retractions = {}, {}
    for n in a.degrees():
        if a.rank(n):
            sections[n], retractions[n] = _split_idempotent_matrix(e.comp(n))
    ranks = {n: sec.cols for n, sec in sections.items()}
    diffs = {}
    for n in a.degrees():
        if ranks.get(n) and ranks.get(n - 1):
            diffs[n] = retractions[n - 1] @ a.diff(n) @ sections[n]
    p = Complex(ranks, diffs)
    return (p, {n: m for n, m in retractions.items() if m.rows},
            {n: m for n, m in sections.items() if m.cols})


def split_idempotent(e: ChainMap) -> Tuple[Complex, ChainMap, ChainMap]:
    """Split a chain idempotent: returns (P, r: A -> P, s: P -> A) with
    s r = e and r s = 1_P."""
    a = e.source
    if e.target != a or e.degree != 0:
        raise NotIdempotent("expected a degree-0 endomorphism")
    if compose(e, e) != e:
        raise NotIdempotent("e o e != e")
    p, r_comps, s_comps = _split_degreewise(e)
    r = ChainMap(a, p, 0, r_comps)
    s = ChainMap(p, a, 0, s_comps)
    require(failed_equations(("s o r != e", compose(s, r), e),
                             ("r o s != 1", compose(r, s), identity_map(p))))
    return p, r, s


def cokernel_protosplit(f: ChainMap, t: Proto) -> Tuple[ChainMap, Proto]:
    """Cokernel of a protosplit chain map f: A -> B, as (w, s): the chain
    map w: B -> C onto the quotient C = w.target and the degree-0 section
    s: C -> B.  It is split degreewise through the idempotent e = 1 - f t
    (so e = s w) and verified by its equations w f = 0, w s = 1 and
    s w = e (WitnessEquationsFail names those that fail); no target is
    sampled.  They prove the universal property for every T: a chain map
    g: B -> T with g f = 0 is g (s w + f t) = (g s) w, g s is a chain map
    (d(g s) = d(g s) w s = d(g) s = 0), and x w = 0 forces x = x w s = 0."""
    e = idempotent_of(f, t)
    c, w_comps, s_comps = _split_degreewise(e)
    w = ChainMap(f.target, c, 0, w_comps)
    s = Proto(c, f.target, 0, s_comps)
    require(failed_equations(
        ("w o f != 0", compose(w, f), Proto.zero(f.source, c)),
        ("w o s != 1", compose(w, s), identity_map(c)),
        ("s o w != e", compose(s, w), e)))
    return w, s


def coequalizer_protosplit_pair(u: ChainMap, v: ChainMap, t: Proto) -> Tuple[ChainMap, Proto]:
    """Coequalizer of a protosplit parallel pair via the cokernel of u - v,
    as its (w, s).

    Requires u t = 1 and v t u = v t v; then u - v is protosplit by t.
    """
    b = u.target
    if compose(u, t) != identity_map(b):
        raise PairEquationsFail("u o t != 1")
    vt = compose(v, t)
    if compose(vt, u) != compose(vt, v):
        raise PairEquationsFail("v t u != v t v")
    return cokernel_protosplit((u - v).as_chain_map(), t)


def pair_from_protosplit_map(f: ChainMap, t: Proto):
    """The reverse reduction: u = [0 1], v = [f 1]: A + B -> B protosplit
    by [-t; 1], whose coequalizer is the cokernel of f."""
    if not is_protosplitting(f, t):
        raise NotProtosplit("f o t o f != f")
    _, injs, projs = direct_sum_complexes([f.source, f.target])
    v = (compose(f, projs[0]) + projs[1]).as_chain_map()
    return projs[1], v, injs[1] - compose(injs[0], t)


def split_chain_idempotent_via_pair(e: ChainMap) -> Tuple[ChainMap, Proto]:
    """Idempotent splitting as the coequalizer of (1, e) split by 1: (w, s)
    with w s = 1 and s w = 1 - (1 - e) = e."""
    one = identity_map(e.source)
    return coequalizer_protosplit_pair(one, e, one)


# -- Mc 1 = LU and the cone as a cokernel -------------------------------------


def mc1_iso_LU(a: Complex) -> Tuple[ChainMap, ChainMap]:
    """Natural isomorphism Mc 1_{S^-1 A} = LU A, as (iso, inverse) with
    iso: Mc 1_{S^-1 A} -> LU A.

    With X = S^-1 A (so SX = A and (Mc 1_X)_n = A_{n+1} + A_n) and d the
    degree-0 proto X -> A with components d_{n+1}, the iso is 1 - j d q
    = [[1, 0], [-d, 1]] and its inverse 1 + j d q.
    """
    x = suspension(a, -1)
    cone1 = mc1(x)
    lua = functor_L(forget_U(a))
    d = Proto(x, a, 0, {n - 1: m for n, m in a.diffs().items()})
    jdq = compose(cone1.j, compose(d, cone1.q))
    iso = _identity_plus(-jdq, cone1.middle, lua)
    inverse = _identity_plus(jdq, lua, cone1.middle)
    require(inverse_failures(iso, inverse))
    return iso, inverse


def cone_functor_map(square_a: ChainMap, square_b: ChainMap,
                     f: ChainMap, g: ChainMap) -> ChainMap:
    """Mc f -> Mc g induced by a commuting square g a = b f
    (a: A -> A', b: B -> B'); blockwise diag(b, S a)."""
    if compose(g, square_a) != compose(square_b, f):
        raise ValueError("square does not commute")
    src = mapping_cone(f).middle
    tgt = mapping_cone(g).middle
    return ChainMap(src, tgt, 0, {
        n: block_diagonal([square_b.comp(n), square_a.comp(n - 1)]) for n in src.degrees()})


@dataclass
class ConeAsCokernel:
    w: ChainMap            # B + Mc1_A -> C, the cokernel onto C = w.target
    comparison: ChainMap   # C -> Mc f, a chain isomorphism
    comparison_inv: ChainMap


def cone_as_cokernel(f: ChainMap) -> ConeAsCokernel:
    """The cone of f as the cokernel of i = [-f; i_1]: A -> B + Mc1_A,
    a protosplit monomorphism (split by [0, q_1])."""
    cyl = cylinder_factorization(f)
    cone = cyl.p.target
    # i = [-f; i_1] is split by q = [0, q_1]
    w, s = cokernel_protosplit(cyl.i, cyl.q)
    comparison = compose(cyl.p, s).as_chain_map()
    comparison_inv = ChainMap(cone, w.target, 0, compose(w, cyl.j).comps(), _trusted=True)
    require(inverse_failures(comparison, comparison_inv))
    return ConeAsCokernel(w, comparison, comparison_inv)
