"""The suite's inputs, pinned.

`dgkernel suite` prints only PASS lines, so a change to the order of the
`rng` draws in `dgkernel.rand` would change every input of the suite
without failing any other test.  The digest below is of a fixed run of
`rand_unimodular` and `rand_complex` draws; it moves only if a draw, its
order or what is built from it changes.

`rand_complex` writes its bricks straight into the differential; the
brick complexes, their direct sum and the conjugation it replaced are
kept below as the oracle it must equal, draw for draw.
"""

import hashlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import conjugated
from dgkernel.complexes import Complex, direct_sum, make_complex
from dgkernel.rand import rand_complex, rand_unimodular
from dgkernel.zlinalg import IntMatrix, born_factored

DRAWS_DIGEST = "56cd6e45cf98cab4fd18c6d9fbc5fbd5aea7e682ba52ec05371c485b5617bd6c"


def draws_digest(seed: int = 20260809, draws: int = 150, unimodular=rand_unimodular) -> str:
    """SHA-256 of `draws` rounds of one unimodular matrix (sizes 0 to 6 in
    turn) and one rand_complex, all from one generator."""
    rng = random.Random(seed)
    h = hashlib.sha256()
    for i in range(draws):
        u = unimodular(rng, i % 7)
        h.update(repr((u.shape, u.entries())).encode())
        c = rand_complex(rng)
        h.update(repr(sorted((n, c.rank(n), c.diff(n).entries()) for n in c.degrees())).encode())
    return h.hexdigest()


def test_the_draws_are_pinned():
    assert draws_digest() == DRAWS_DIGEST


def test_the_digest_sees_one_extra_draw():
    # one extra draw before each unimodular matrix shifts every later input
    def shifted(rng, n):
        rng.random()
        return rand_unimodular(rng, n)

    assert draws_digest(unimodular=shifted) != DRAWS_DIGEST


def reference_rand_unimodular(rng: random.Random, n: int, ops: int = 6) -> IntMatrix:
    """rand_unimodular with its row operations written entry by entry."""
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


def reference_rand_complex(rng: random.Random, lo: int = -2, hi: int = 3, bricks: int = 3) -> Complex:
    """rand_complex as a direct sum of brick complexes, then conjugated."""
    parts = []
    for _ in range(rng.randint(1, bricks)):
        deg = rng.randint(lo, hi - 1)
        kind = rng.randrange(3)
        if kind == 0:
            parts.append(Complex.concentrated(deg, rng.randint(1, 2)))
        else:
            k = rng.choice((0, 1, 1, 2, 2, 3, -1, -2))
            parts.append(make_complex({deg + 1: 1, deg: 1}, {deg + 1: [[k]]}))
    return conjugated(rng, direct_sum(parts))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-4, 3), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 7))
def test_the_one_pass_build_equals_the_brick_sum(seed, lo, width, bricks, size):
    fast, slow = random.Random(seed), random.Random(seed)
    a = rand_complex(fast, lo, lo + width, bricks)
    b = reference_rand_complex(slow, lo, lo + width, bricks)
    assert a.ranks() == b.ranks() and a.diffs() == b.diffs()
    assert all(a.diff(n) == b.diff(n) for n in range(a.lo, a.hi + 2))
    u, v = rand_unimodular(fast, size), reference_rand_unimodular(slow, size)
    assert u.shape == v.shape and u.entries() == v.entries()
    assert u._snf._row_ops == v._snf._row_ops
    assert fast.random() == slow.random()


@pytest.fixture()
def built_complexes(monkeypatch):
    """Every Complex constructed while the test runs, in order."""
    built = []
    real = Complex.__init__

    def counted(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Complex, "__init__", counted)
    return built


@pytest.mark.parametrize("bricks", [1, 2, 3, 4])
def test_one_call_builds_one_complex_and_eliminates_nothing(built_complexes, zlinalg_calls, bricks):
    for seed in range(25):
        rng = random.Random(seed)
        del built_complexes[:]
        with zlinalg_calls("smith_normal_form") as made:
            c = rand_complex(rng, bricks=bricks)
        assert len(built_complexes) == 1 and built_complexes[0] is c, (
            f"seed {seed}: rand_complex built {len(built_complexes)} complexes, not only its result")
        # one inverse_unimodular, so one SNF call, per degree of the range
        assert len(made.operands) == len(c.degrees()), (
            f"seed {seed}: {len(made.operands)} SNF calls for {len(c.degrees())} degrees")
        assert made.eliminated == [], (
            f"seed {seed}: {len(made.eliminated)} SNF calls eliminated a matrix; "
            "every t is born with its decomposition")


def test_the_cost_guard_sees_brick_complexes(built_complexes):
    # the brick build makes one complex per brick, their sum and the result
    reference_rand_complex(random.Random(0), bricks=4)
    assert len(built_complexes) >= 3


@pytest.mark.parametrize("call, message", [
    (lambda rng: rand_unimodular(rng, -1), "size n >= 0, got n=-1"),
    (lambda rng: rand_complex(rng, lo=2, hi=2), "lo < hi, got lo=2, hi=2"),
    (lambda rng: rand_complex(rng, bricks=0), "bricks >= 1, got bricks=0"),
], ids=["negative n", "empty lo..hi", "no bricks"])
def test_a_bad_argument_is_named_before_any_draw(call, message):
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match=re.escape(message)):
        call(rng)
    assert rng.getstate() == state
