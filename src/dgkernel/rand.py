"""Seeded generators for random fixtures.

Used by the test suite and by the CLI `suite` verb, so runs are
reproducible from a single integer seed.  A random complex writes its
bricks (Z or Z^2 in one degree, Z --k--> Z) straight into the plain
differential and conjugates it degreewise by unimodular t: each two-term
brick has one nonzero differential, so d d = 0, and t d t^-1 keeps that
while producing dense matrices and interesting homology.
"""

from __future__ import annotations

import random
from typing import Dict

from .complexes import ChainMap, Complex, HomSpace, Proto, direct_sum_complexes
from .zlinalg import IntMatrix, born_factored, inverse_unimodular


def rand_matrix(rng: random.Random, rows: int, cols: int, lo: int = -3, hi: int = 3) -> IntMatrix:
    return IntMatrix(rows, cols, (rng.randint(lo, hi) for _ in range(rows * cols)))


def rand_unimodular(rng: random.Random, n: int, ops: int = 6) -> IntMatrix:
    """Product of ops elementary row operations (none if n < 2);
    determinant +-1.  The matrix is born with its Smith decomposition
    (D = I, U = its inverse: each operation undone, last first), so
    inverting it replays that record."""
    if n < 0:
        raise ValueError(f"rand_unimodular needs a size n >= 0, got n={n}")
    m = IntMatrix.identity(n).to_lists()
    undo = []   # the inverse operations, in the order they are drawn
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        kind = rng.randrange(3)
        if kind == 0:
            c = rng.choice((-2, -1, 1, 2))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
            undo.append((i, j, -c))
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
            undo.append((i, j))
        else:
            m[i] = [-x for x in m[i]]
            undo.append((i,))
    undo.reverse()
    # trusted: n rows of n ints, each made from the identity's ints by
    # int arithmetic
    return born_factored(IntMatrix.from_rows(m, n, _trusted=True), IntMatrix.identity(n), undo)


def rand_complex(rng: random.Random, lo: int = -2, hi: int = 3, bricks: int = 3) -> Complex:
    """Random bounded complex with exact d^2 = 0 and mixed homology.  No
    brick complex or direct sum is built; the constructor still checks
    d d = 0, as generators are a boundary that validates.  t^-1 comes from
    `inverse_unimodular`: one Smith form lookup per degree."""
    if hi <= lo:
        raise ValueError(f"rand_complex needs lo < hi, got lo={lo}, hi={hi}")
    if bricks < 1:
        raise ValueError(f"rand_complex needs bricks >= 1, got bricks={bricks}")
    ranks: Dict[int, int] = {}
    cells = []   # (n, row, col, k): entry k of the plain d_n
    for _ in range(rng.randint(1, bricks)):
        deg = rng.randint(lo, hi - 1)
        if rng.randrange(3) == 0:
            ranks[deg] = ranks.get(deg, 0) + rng.randint(1, 2)
        else:
            k = rng.choice((0, 1, 1, 2, 2, 3, -1, -2))
            row, col = ranks.get(deg, 0), ranks.get(deg + 1, 0)
            ranks[deg], ranks[deg + 1] = row + 1, col + 1
            if k:
                cells.append((deg + 1, row, col, k))
    # conjugate by unimodular basis changes degreewise
    t = {n: rand_unimodular(rng, ranks.get(n, 0)) for n in range(min(ranks), max(ranks) + 1)}
    t_inv = {n: inverse_unimodular(m) for n, m in t.items()}
    plain: Dict[int, list] = {}
    for n, row, col, k in cells:
        plain.setdefault(n, [0] * (ranks[n - 1] * ranks[n]))[row * ranks[n] + col] = k
    return Complex(ranks, {n: t[n - 1] @ IntMatrix(ranks[n - 1], ranks[n], tuple(e), _trusted=True)
                           @ t_inv[n] for n, e in plain.items()})


def rand_proto(rng: random.Random, source: Complex, target: Complex, degree: int = 0,
               lo: int = -2, hi: int = 2) -> Proto:
    comps = {}
    for q in source.degrees():
        rows, cols = target.rank(q + degree), source.rank(q)
        if rows and cols:
            comps[q] = rand_matrix(rng, rows, cols, lo, hi)
    return Proto(source, target, degree, comps)


def rand_chain_map(rng: random.Random, source: Complex, target: Complex,
                   degree: int = 0, span: int = 2) -> ChainMap:
    """K c for the chain-map basis K, with one draw from [-span, span] per
    column of K."""
    hs = HomSpace(source, target)
    k = hs.cycle_basis(degree)
    return hs.from_cycle(degree, k.apply([rng.randint(-span, span) for _ in range(k.cols)]))


def rand_double_complex(rng: random.Random):
    """A random DoubleComplex of one, two or three columns.

    delta o delta = 0 is arranged structurally: either at most two
    nonzero columns, or an inject/project pair through a direct sum.
    """
    from .totals import DoubleComplex

    style = rng.randrange(3)
    base = rng.randint(-1, 1)
    if style == 0:
        # single column
        return DoubleComplex({base: rand_complex(rng)}, {})
    if style == 1:
        # two columns joined by a random chain map
        c1 = rand_complex(rng)
        c0 = rand_complex(rng)
        delta = rand_chain_map(rng, c1, c0)
        return DoubleComplex({base + 1: c1, base: c0}, {base + 1: delta})
    # three columns A -> A + B -> B with inj then proj-to-other-summand
    a = rand_complex(rng, bricks=2)
    b = rand_complex(rng, bricks=2)
    mid, injs, projs = direct_sum_complexes([a, b])
    k1 = rng.choice((1, 1, 2, -1))
    k0 = rng.choice((1, 1, 2, -1))
    return DoubleComplex(
        {base + 1: a, base: mid, base - 1: b},
        {base + 1: k1 * injs[0], base: k0 * projs[1]},
    )
