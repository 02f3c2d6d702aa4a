"""Shared fixtures."""

import contextlib
import sys

import pytest

from dgkernel import zlinalg
from dgkernel.zlinalg import IntMatrix


def protos(hs, n, columns=None):
    """One degree-n Proto of the HomSpace hs per column of `columns`, its
    coordinates; by default one per basis element."""
    if columns is None:
        columns = IntMatrix.identity(hs.dim(n))
    return [hs.from_vector(n, columns.col(j)) for j in range(columns.cols)]


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
