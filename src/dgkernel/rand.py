"""Seeded generators for random fixtures.

Used by the test suite and by the CLI `suite` verb, so runs are
reproducible from a single integer seed.  Random complexes are built
from elementary bricks (concentrated summands and two-term complexes)
and then conjugated by unimodular basis changes, which preserves d^2 = 0
while producing dense matrices and interesting homology.
"""

from __future__ import annotations

import random
from typing import List

from .complexes import (
    ChainMap,
    Complex,
    HomSpace,
    Proto,
    direct_sum,
    direct_sum_complexes,
    make_complex,
)
from .zlinalg import IntMatrix, born_factored, inverse_unimodular


def rand_matrix(rng: random.Random, rows: int, cols: int, lo: int = -3, hi: int = 3) -> IntMatrix:
    return IntMatrix(rows, cols, (rng.randint(lo, hi) for _ in range(rows * cols)))


def rand_unimodular(rng: random.Random, n: int, ops: int = 6) -> IntMatrix:
    """Product of elementary row operations; determinant +-1.  The matrix
    is born with its Smith decomposition (D = I, U = its inverse: each
    operation undone, last first), so inverting it replays that record."""
    m = IntMatrix.identity(n).to_lists()
    undo = []   # the inverse operations, in the order they are drawn
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        kind = rng.randrange(3)
        if kind == 0:
            c = rng.choice((-2, -1, 1, 2))
            for t in range(n):
                m[i][t] += c * m[j][t]
            undo.append((i, j, -c))
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
            undo.append((i, j))
        else:
            for t in range(n):
                m[i][t] = -m[i][t]
            undo.append((i,))
    undo.reverse()
    return born_factored(IntMatrix.from_rows(m, n), IntMatrix.identity(n), undo)


def rand_complex(rng: random.Random, lo: int = -2, hi: int = 3, bricks: int = 3) -> Complex:
    """Random bounded complex with exact d^2 = 0 and mixed homology."""
    parts: List[Complex] = []
    for _ in range(rng.randint(1, bricks)):
        deg = rng.randint(lo, hi - 1)
        kind = rng.randrange(3)
        if kind == 0:
            parts.append(Complex.concentrated(deg, rng.randint(1, 2)))
        else:
            k = rng.choice((0, 1, 1, 2, 2, 3, -1, -2))
            parts.append(make_complex({deg + 1: 1, deg: 1}, {deg + 1: [[k]]}))
    total = direct_sum(parts)
    # conjugate by unimodular basis changes degreewise
    t = {n: rand_unimodular(rng, total.rank(n)) for n in total.degrees()}
    t_inv = {n: inverse_unimodular(m) for n, m in t.items()}
    diffs = {}
    for n in total.degrees():
        if total.rank(n) and total.rank(n - 1):
            diffs[n] = t[n - 1] @ total.diff(n) @ t_inv[n]
    return Complex(total.ranks(), diffs)


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
