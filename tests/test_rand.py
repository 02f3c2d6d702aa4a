"""The suite's inputs, pinned.

`dgkernel suite` prints only PASS lines, so a change to the order of the
`rng` draws in `dgkernel.rand` would change every input of the suite
without failing any other test.  The digest below is of a fixed run of
`rand_unimodular` and `rand_complex` draws; it moves only if a draw, its
order or what is built from it changes.
"""

import hashlib
import random

from dgkernel.rand import rand_complex, rand_unimodular

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
