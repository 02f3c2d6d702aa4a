"""Trusted builds against the checked constructors.

A build that passes ``_trusted`` skips the checks of `Complex`, `Proto` or
`ChainMap` because its caller proves them (the sites are listed, with their
proofs, in test_layout.TRUSTED_SITES).  Each test here rebuilds what a
trusted site returns through the checked public constructor, which must
accept it and give an equal result; and `_is_cycle`, the one chain-map
check, is compared with the hom differential it fuses.
"""

import random

import pytest
from hypothesis import given, note, settings, strategies as st

from dgkernel.complexes import (
    ChainMap,
    Complex,
    Proto,
    _is_cycle,
    compose,
    d_hom,
    direct_sum_complexes,
    functor_L,
    functor_R,
    forget_U,
    identity_map,
    suspension,
)
from dgkernel.cones import mapping_cone
from dgkernel.dgcat import ell_op_window_category
from dgkernel.rand import rand_chain_map, rand_complex, rand_double_complex, rand_proto
from dgkernel.totals import DoubleComplex, double_complex_as_left_module, weight_J
from dgkernel.zlinalg import IntMatrix

SEEDS = st.integers(0, 2**32 - 1)


def rechecked(x):
    """x rebuilt by the checked constructor of its class."""
    if isinstance(x, Complex):
        return Complex(x.ranks(), x.diffs())
    return type(x)(x.source, x.target, x.degree, x.comps())


def assert_checked_agrees(x):
    assert rechecked(x) == x


def one_entry_off(rng: random.Random, f: Proto) -> Proto:
    """f with one entry of one component moved by +-1, or f itself when
    every component is empty."""
    a, b, n = f.source, f.target, f.degree
    slots = [q for q in a.degrees() if a.rank(q) and b.rank(q + n)]
    if not slots:
        return f
    q = rng.choice(slots)
    m = f.comp(q)
    e = list(m.entries())
    e[rng.randrange(len(e))] += rng.choice((1, -1))
    return Proto(a, b, n, {**f.comps(), q: IntMatrix(m.rows, m.cols, e)})


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.integers(-1, 2), st.sampled_from(["proto", "cycle", "one entry off"]))
def test_is_cycle_is_the_hom_differential_test(seed, degree, kind):
    rng = random.Random(seed)
    a, b = rand_complex(rng), rand_complex(rng)
    if kind == "proto":
        f = rand_proto(rng, a, b, degree)
    else:
        f = rand_chain_map(rng, a, b, degree)
        if kind == "one entry off":
            f = one_entry_off(rng, f)
    note(f"{kind} {f!r}")
    assert _is_cycle(f) == d_hom(f).is_zero()
    if kind == "cycle":
        assert _is_cycle(f)


def test_one_entry_off_a_cycle_is_seen():
    # d f = f d fails at the moved entry: a map with a nonzero differential
    # on each side of its only component
    z = Complex({1: 1, 0: 1}, {1: IntMatrix.from_rows([[1]])})
    f = identity_map(z)
    off = Proto(z, z, 0, {0: IntMatrix.from_rows([[2]]), 1: IntMatrix.from_rows([[1]])})
    assert _is_cycle(f) and not _is_cycle(off) and not d_hom(off).is_zero()


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(-1, 2), st.integers(-3, 3))
def test_proto_algebra_passes_the_checked_constructors(seed, degree, c):
    rng = random.Random(seed)
    a, b, x = rand_complex(rng), rand_complex(rng), rand_complex(rng)
    f, g, f0 = rand_proto(rng, a, b, degree), rand_proto(rng, a, b, degree), rand_proto(rng, a, b)
    h = rand_proto(rng, b, x, 1 - degree)
    u, v, w = rand_chain_map(rng, a, b), rand_chain_map(rng, a, b), rand_chain_map(rng, b, x)
    for built in [compose(h, f), h @ f, d_hom(f), f + g, f - g, -f, f.scale(c), c * f,
                  compose(w, u), w @ u, u + v, u - v, -u, u.scale(c), u + f0, w @ f]:
        assert_checked_agrees(built)
    for built in [w @ u, u + v, u - v, -u, u.scale(c), c * u]:
        assert type(built) is ChainMap
    for built in [compose(w, u), u + f0, f0 + u, w @ f, h @ u]:
        assert type(built) is Proto


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_structural_builds_pass_the_checked_constructors(seed):
    rng = random.Random(seed)
    a, b = rand_complex(rng), rand_complex(rng)
    total, injs, projs = direct_sum_complexes([a, b])
    graded = forget_U(a)
    for built in [suspension(a, 1), suspension(a, -2), graded, functor_L(graded),
                  functor_R(graded), total, identity_map(a), *injs, *projs]:
        assert_checked_agrees(built)


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_the_cone_of_a_chain_map_passes_the_checked_constructors(seed):
    rng = random.Random(seed)
    a, b = rand_complex(rng), rand_complex(rng)
    f = rand_chain_map(rng, a, b)
    cone = mapping_cone(f)
    for built in (cone.middle, cone.i, cone.j, cone.p, cone.q):
        assert_checked_agrees(built)
    # a Proto takes the checked path, and gets the same split sequence
    assert mapping_cone(Proto(a, b, 0, f.comps())) == cone


@pytest.mark.parametrize("window", [1, 2, 3, 4])
def test_weight_J_actions_pass_the_checked_constructor(window):
    _, j_mod = weight_J(window)
    for act in j_mod.actions.values():
        assert type(act) is ChainMap
        assert_checked_agrees(act)


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_double_complex_module_actions_pass_the_checked_constructor(seed):
    a = rand_double_complex(random.Random(seed))
    # a delta given as a Proto takes the checked path
    assert DoubleComplex(a.columns, {m: Proto(d.source, d.target, 0, d.comps())
                                     for m, d in a.delta.items()}) == a
    window = max((abs(m) for m in a.column_degrees()), default=0) + 1
    mod = double_complex_as_left_module(ell_op_window_category(window), a)
    for act in mod.actions.values():
        assert_checked_agrees(act)
