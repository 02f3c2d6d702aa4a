"""Shared fixtures."""

import ast
import contextlib
import os
import random
import sys
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import settings

from dgkernel import cones, zlinalg
from dgkernel.complexes import ChainMap, Complex, make_complex
from dgkernel.dgcat import RIGHT, Elt
from dgkernel.rand import rand_unimodular
from dgkernel.zlinalg import IntMatrix, ShapeMismatch, inverse_unimodular

# Property tests draw the same examples on every run (derandomize, and no
# example database replaying earlier failures), so that a run's result
# depends only on the commit.  HYPOTHESIS_PROFILE=explore searches afresh;
# neither profile changes any test's max_examples.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))


def removed_names(package: Path, names, attrs=()):
    """(file, name, line) of each definition of, reference to or import of
    one of ``names``, and of each attribute ``.x`` with x in ``attrs``, in
    the package's modules, which are parsed with ast, never imported."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in names or isinstance(node, ast.Attribute) and name in attrs:
                found.append((path.name, name, node.lineno))
    return found


def protos(hs, n, columns=None):
    """One degree-n Proto of the HomSpace hs per column of `columns`, its
    coordinates; by default one per basis element."""
    if columns is None:
        columns = IntMatrix.identity(hs.dim(n))
    return [hs.from_vector(n, columns.col(j)) for j in range(columns.cols)]


class TensorSlot(NamedTuple):
    """Basis element of (A (x) B)_{p+q}: left degree/index, right degree/index."""

    left_degree: int
    right_degree: int
    left_index: int
    right_index: int


def tensor_basis(ts, n):
    """The degree-n basis of the TensorSpace ts read off its layout, one
    TensorSlot per slot: element k of the list sits at slot k."""
    return [TensorSlot(p, n - p, i, j) for p, rows, cols, _ in ts.layout.blocks(n)
            for i in range(rows) for j in range(cols)]


def simplex_skeleton(rng: random.Random, vertices: int, k: int) -> Complex:
    """The simplicial chain complex of the k-skeleton of the simplex on
    `vertices` vertices, with the simplices of each degree in a seeded
    order and each simplex given a seeded orientation: sparse +-1
    boundaries.  It is a wedge of C(vertices - 1, k + 1) k-spheres, so its
    homology is Z in degree 0 and Z^C(vertices - 1, k + 1) in degree k."""
    cells, sign = [], []
    for i in range(k + 1):
        cs = list(combinations(range(vertices), i + 1))
        rng.shuffle(cs)
        cells.append(cs)
        sign.append({c: rng.choice((1, -1)) for c in cs})
    diffs = {}
    for i in range(1, k + 1):
        row = {c: r for r, c in enumerate(cells[i - 1])}
        m = [[0] * len(cells[i]) for _ in cells[i - 1]]
        for col, c in enumerate(cells[i]):
            for j in range(len(c)):
                face = c[:j] + c[j + 1:]
                m[row[face]][col] = (-1) ** j * sign[i][c] * sign[i - 1][face]
        diffs[i] = m
    return make_complex({i: len(cs) for i, cs in enumerate(cells)}, diffs)


def conjugated(rng: random.Random, total: Complex, ops: int = 6) -> Complex:
    """total with each d_n replaced by t_{n-1} d_n t_n^-1: one
    rand_unimodular t_n (of ops operations) per degree of total, drawn in
    ascending order, each inverted by inverse_unimodular.  The brick
    complexes of the tests, and the reference rand_complex, are built this
    way from a direct sum of bricks."""
    t = {n: rand_unimodular(rng, total.rank(n), ops) for n in total.degrees()}
    t_inv = {n: inverse_unimodular(m) for n, m in t.items()}
    return Complex(total.ranks(), {n: t[n - 1] @ total.diff(n) @ t_inv[n]
                                   for n in total.degrees() if total.rank(n) and total.rank(n - 1)})


def slot_chain_map(src, tgt, mapping) -> ChainMap:
    """Chain map defined by basis-slot relabelling.

    ``mapping(n, flat) -> (flat', sign)`` must be a bijection degreewise;
    the chain-map condition is validated on construction.
    """
    comps = {}
    for n in src.degrees():
        cols = src.rank(n)
        rows = tgt.rank(n)
        if not cols or not rows:
            continue
        out = [[0] * cols for _ in range(rows)]
        for c in range(cols):
            r, sign = mapping(n, c)
            out[r][c] = sign
        comps[n] = IntMatrix.from_rows(out, cols)
    return ChainMap(src, tgt, 0, comps)


# -- the elementwise evaluator -------------------------------------------------
#
# The package reads its tables as protos (a table with one factor fixed is
# a proto out of the other); these are the elementwise readers it had
# before, kept as oracles.


def embed_pair(ts, p: int, xa, q: int, xb) -> tuple:
    """Coordinates of (sum_i xa_i a_i) (x) (sum_j xb_j b_j) in degree p+q."""
    n = p + q
    vec = [0] * ts.dim(n)
    rl, rr = ts.left.rank(p), ts.right.rank(q)
    if len(xa) != rl or len(xb) != rr:
        raise ShapeMismatch("element lengths do not match ranks")
    for i in range(rl):
        if xa[i]:
            for j in range(rr):
                if xb[j]:
                    vec[ts.slot_at(n, p, i, j)] += xa[i] * xb[j]
    return tuple(vec)


def _evaluate(table, ts, target, a: Elt, b: Elt) -> Elt:
    """table(a (x) b) in target, where table is a map out of ts; no table
    is the zero map.  The pair is embedded first, so a length mismatch
    raises either way."""
    pair = embed_pair(ts, a.degree, a.vec, b.degree, b.vec)
    n = a.degree + b.degree
    if table is None:
        return Elt(target, n, (0,) * target.rank(n))
    return Elt(target, n, table.comp(n).apply(pair))


def compose_elts(cat, a, b, c, v: Elt, u: Elt) -> Elt:
    """v o u for v in hom(b,c), u in hom(a,b)."""
    return _evaluate(cat.compose_table.get((a, b, c)), cat.pair_space(a, b, c),
                     cat.hom(a, c), v, u)


def act(mod, u, v, a: Elt, b: Elt) -> Elt:
    """Tensor-level action on a (x) b (no sign)."""
    return _evaluate(mod.actions.get((u, v)), mod.action_space(u, v),
                     mod.value(mod.ends(u, v)[1]), a, b)


def act_by(mod, u, v, f: Elt, x: Elt) -> Elt:
    """f in hom(U,V) acting on x from the module's side (no sign)."""
    return act(mod, u, v, x, f) if mod.side == RIGHT else act(mod, u, v, f, x)


def dot(mod, u, v, a: Elt, b: Elt) -> Elt:
    """Elementwise action: y . f = (-1)^{|y||f|} act(y (x) f) on the
    right, where the element crosses the hom factor; f . x = act(f (x) x)
    on the left."""
    if mod.side == RIGHT and (a.degree * b.degree) % 2:
        return -1 * act(mod, u, v, a, b)
    return act(mod, u, v, a, b)


def eps_apply(cd, u, v, yn: Elt, xm: Elt) -> Elt:
    """eps_{U,V}(yn (x) xm) in hom(V, U)."""
    return _evaluate(cd.eps.get((u, v)), cd.eps_space(u, v),
                     cd.m.base.hom(v, u), yn, xm)


class Calls(list):
    """The result of every recorded call, in the order the calls return;
    ``operands`` holds (function name, arguments) of each call, in the
    order the calls are made; ``eliminated`` holds each operand of
    smith_normal_form that held no decomposition when the call was made,
    so that the call eliminated it."""

    def __init__(self):
        super().__init__()
        self.operands = []
        self.eliminated = []


def _recorder(name, real, calls: Calls):
    def recorded(*args, **kwargs):
        calls.operands.append((name, args))
        if name == "smith_normal_form" and getattr(args[0], "_snf", None) is None:
            calls.eliminated.append(args[0])
        calls.append(real(*args, **kwargs))
        return calls[-1]

    return recorded


@contextlib.contextmanager
def _recording(*names):
    """Rebind the named zlinalg functions to recorders for the duration of
    the block.  Modules import them by name, so every loaded dgkernel
    namespace that holds one is rebound, not zlinalg alone.  The list keeps
    every result alive, so distinct ids count distinct results."""
    calls = Calls()
    rebound = []
    for name in names:
        real = getattr(zlinalg, name)
        recorded = _recorder(name, real, calls)
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == "dgkernel" or mod_name.startswith("dgkernel.")):
                for attr, value in list(vars(mod).items()):
                    if value is real:
                        rebound.append((mod, attr, real))
                        setattr(mod, attr, recorded)
    try:
        yield calls
    finally:
        for mod, attr, real in reversed(rebound):
            setattr(mod, attr, real)


@pytest.fixture(scope="session")
def zlinalg_calls():
    """``with zlinalg_calls("smith_normal_form") as made:`` records every
    call of the named zlinalg functions made inside the block.  Session
    scoped, so hypothesis tests may use it: each ``with`` records afresh."""
    return _recording


@pytest.fixture()
def section_off_by_one_entry(monkeypatch):
    """Patch cones._split_degreewise so that the section in its lowest
    degree has its first nonzero entry doubled: one wrong entry, which
    breaks w s = 1 whenever that section is one column with one nonzero
    entry, as in the split inclusion Z -> Z + Z and the free-cover example."""
    real = cones._split_degreewise

    def broken(e):
        p, retractions, sections = real(e)
        n = min(sections)
        rows = sections[n].to_lists()
        i, j = next((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x)
        rows[i][j] *= 2
        return p, retractions, {**sections, n: IntMatrix.from_rows(rows, sections[n].cols)}

    monkeypatch.setattr(cones, "_split_degreewise", broken)


@pytest.fixture()
def doubled_identity(monkeypatch):
    """Patch cones.identity_map to build twice the identity, so that
    idempotent_of builds e = 2 - f t: with f = 0 that breaks e e = e
    alone, with f = t = 1 it breaks e f = 0 alone (e = 1)."""
    real = cones.identity_map
    monkeypatch.setattr(cones, "identity_map", lambda a: 2 * real(a))
