"""Shared fixtures."""

import contextlib
import sys
from typing import NamedTuple

import pytest

from dgkernel import zlinalg
from dgkernel.complexes import ChainMap
from dgkernel.zlinalg import IntMatrix


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


class Calls(list):
    """The result of every recorded call, in the order the calls return;
    ``operands`` holds (function name, arguments) of each call, in the
    order the calls are made."""

    def __init__(self):
        super().__init__()
        self.operands = []


def _recorder(name, real, calls: Calls):
    def recorded(*args, **kwargs):
        calls.operands.append((name, args))
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
