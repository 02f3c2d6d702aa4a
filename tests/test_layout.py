"""The one block layout against the bookkeeping it replaced.

HomSpace, TensorSpace, TotSpace and tensor_proto each used to compute their
own block offsets and scatter their own Kronecker blocks.  The reference_*
functions below are those hand-rolled versions; the tests check that the
shared BlockLayout and scatter_kron give the same offsets, slots, bases
and matrices, entry by entry.
"""

import ast
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import TensorSlot, protos, tensor_basis
from dgkernel import complexes
from dgkernel.complexes import (
    BlockLayout,
    ChainMap,
    Complex,
    HomSpace,
    SquareZeroViolated,
    d_hom,
    hom_complex,
    identity_map,
    make_complex,
    scatter_kron,
    suspension,
)
from dgkernel.monoidal import TensorSpace, sten_iso, tensor, tensor_proto
from dgkernel.rand import rand_complex, rand_double_complex, rand_matrix, rand_proto
from dgkernel.totals import DoubleComplex, TotSpace, _tot_sign, total_complex
from dgkernel.zlinalg import IntMatrix, ShapeMismatch

SEEDS = st.integers(0, 2**32 - 1)


def reference_hom_summands(source, target) -> dict:
    """degree -> [(q, rows, cols, offset)]: one summand per source degree q."""
    out = {}
    if source.is_zero() or target.is_zero():
        return out
    for n in range(target.lo - source.hi, target.hi - source.lo + 1):
        offset = 0
        summands = []
        for q in source.degrees():
            rows, cols = target.rank(q + n), source.rank(q)
            if rows and cols:
                summands.append((q, rows, cols, offset))
                offset += rows * cols
        if summands:
            out[n] = summands
    return out


def reference_tensor_blocks(left, right) -> dict:
    """degree -> [(p, q, size, offset)]: one block per left degree p."""
    out = {}
    if left.is_zero() or right.is_zero():
        return out
    for n in range(left.lo + right.lo, left.hi + right.hi + 1):
        offset = 0
        blocks = []
        for p in left.degrees():
            q = n - p
            rl, rr = left.rank(p), right.rank(q)
            if rl and rr:
                blocks.append((p, q, rl * rr, offset))
                offset += rl * rr
        if blocks:
            out[n] = blocks
    return out


def reference_slot_at(blocks, right, n, p, i, j) -> int:
    for (pp, qq, size, off) in blocks.get(n, []):
        if pp == p:
            return off + i * right.rank(qq) + j
    raise ShapeMismatch(f"no summand at left degree {p} in tensor degree {n}")


def reference_basis(blocks, left, right, n) -> list:
    return [TensorSlot(p, q, i, j) for (p, q, size, off) in blocks.get(n, [])
            for i in range(left.rank(p)) for j in range(right.rank(q))]


def reference_decompose(blocks, right, n, flat) -> TensorSlot:
    for (p, q, size, off) in blocks.get(n, []):
        if off <= flat < off + size:
            rr = right.rank(q)
            k = flat - off
            return TensorSlot(p, q, k // rr, k % rr)
    raise IndexError(f"flat index {flat} out of range in degree {n}")


def reference_tot_offsets(a):
    """(degree -> [(m, rank, offset)], (n, m) -> first slot of column m)."""
    offsets, first_slot = {}, {}
    cols = a.column_degrees()
    if not cols:
        return offsets, first_slot
    lo = min(a.column(m).lo + m for m in cols)
    hi = max(a.column(m).hi + m for m in cols)
    for n in range(lo, hi + 1):
        off = 0
        blocks = []
        for m in cols:
            r = a.entry_rank(m, n - m)
            if r:
                blocks.append((m, r, off))
                first_slot[(n, m)] = off
                off += r
        if blocks:
            offsets[n] = blocks
    return offsets, first_slot


def reference_add_block(out, row_off, col_off, b: IntMatrix, sign: int):
    for i in range(b.rows):
        row = out[row_off + i]
        for j, v in enumerate(b.row(i)):
            if v:
                row[col_off + j] += sign * v


def reference_tot_differential(a, n) -> IntMatrix:
    """d(x) = delta(x) + (-1)^m d(x) for x in column m, block by block."""
    offsets, first_slot = reference_tot_offsets(a)
    rows = sum(r for (_, r, _) in offsets.get(n - 1, []))
    cols = sum(r for (_, r, _) in offsets.get(n, []))
    out = [[0] * cols for _ in range(rows)]
    for (m, r, off) in offsets.get(n, []):
        inner = n - m
        below = first_slot.get((n - 1, m - 1))
        if below is not None:
            reference_add_block(out, below, off, a.delta_map(m).comp(inner), 1)
        same = first_slot.get((n - 1, m))
        if same is not None:
            reference_add_block(out, same, off, a.column(m).diff(inner), _tot_sign(m))
    return IntMatrix.from_rows(out, cols)


def reference_tensor_proto(f, g) -> dict:
    """degree -> matrix of f (x) g, one entry at a time:
    (f (x) g)(a (x) b) = (-1)^{|g||a|} f(a) (x) g(b)."""
    src_blocks = reference_tensor_blocks(f.source, g.source)
    tgt_blocks = reference_tensor_blocks(f.target, g.target)
    deg = f.degree + g.degree
    comps = {}
    for n, blocks in src_blocks.items():
        cols = sum(size for (_, _, size, _) in blocks)
        rows = sum(size for (_, _, size, _) in tgt_blocks.get(n + deg, []))
        if not cols or not rows:
            continue
        out = [[0] * cols for _ in range(rows)]
        for (p, q, size, off) in blocks:
            fp, gq = f.comp(p), g.comp(q)
            sign = 1 if (g.degree * p) % 2 == 0 else -1
            rr_src = g.source.rank(q)
            for i2 in range(fp.rows):
                for i in range(fp.cols):
                    a = fp[i2, i]
                    if not a:
                        continue
                    for j2 in range(gq.rows):
                        for j in range(gq.cols):
                            b = gq[j2, j]
                            if b:
                                row = reference_slot_at(tgt_blocks, g.target, n + deg,
                                                        p + f.degree, i2, j2)
                                out[row][off + i * rr_src + j] += sign * a * b
        comps[n] = IntMatrix.from_rows(out, cols)
    return comps


def reference_kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """a (x) b from its definition, every entry of both factors."""
    return IntMatrix.from_rows(
        [[a[i, j] * b[k, l] for j in range(a.cols) for l in range(b.cols)]
         for i in range(a.rows) for k in range(b.rows)], a.cols * b.cols)


def assert_same_entries(m: IntMatrix, ref: IntMatrix):
    assert (m.rows, m.cols, m.entries()) == (ref.rows, ref.cols, ref.entries())
    assert all(type(x) is int for x in m.entries())


class TestBlockLayout:
    def test_slots(self):
        lay = BlockLayout()
        lay.add(0, "a", 2, 3)
        lay.add(0, "empty", 0, 5)
        lay.add(0, "b", 1)
        lay.add(1, "a", 4)
        assert list(lay.degrees()) == [0, 1]
        assert lay.dims() == {0: 7, 1: 4}
        assert lay.blocks(0) == [("a", 2, 3, 0), ("b", 1, 1, 6)]
        assert lay.blocks(5) == []
        assert (lay.slot(0, "a", 1, 2), lay.slot(0, "b"), lay.slot(1, "a", 3)) == (5, 6, 3)
        with pytest.raises(ShapeMismatch):
            lay.slot(0, "empty")

    @settings(max_examples=150, deadline=None)
    @given(SEEDS, st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2))
    def test_scatter_kron_is_the_kronecker_product(self, seed, k1, k2, sign):
        rng = random.Random(seed)
        a = rand_matrix(rng, rng.randint(0, 3), rng.randint(0, 3), -2, 2)
        b = rand_matrix(rng, rng.randint(0, 3), rng.randint(0, 3), -2, 2)
        for fa, fb in [(a, b), (a, k2), (k1, b), (k1, k2), (a, 1)]:
            ma = fa if isinstance(fa, IntMatrix) else IntMatrix.identity(fa)
            mb = fb if isinstance(fb, IntMatrix) else IntMatrix.identity(fb)
            ref = reference_kron(ma, mb)
            out = [[7] * (ref.cols + 3) for _ in range(ref.rows + 2)]
            scatter_kron(out, 2, 1, fa, fb, sign)
            want = [[7] * (ref.cols + 3) for _ in range(ref.rows + 2)]
            for r in range(ref.rows):
                for c in range(ref.cols):
                    want[2 + r][1 + c] += sign * ref[r, c]
            assert out == want


class TestSpacesAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(SEEDS)
    def test_hom_offsets(self, seed):
        rng = random.Random(seed)
        a, b = rand_complex(rng), rand_complex(rng)
        hs = HomSpace(a, b)
        ref = reference_hom_summands(a, b)
        assert {n: hs.layout.blocks(n) for n in hs.layout.degrees()} == ref
        assert {n: r for n, r in hs.complex.ranks().items() if r} == {
            n: sum(r * c for _, r, c, _ in s) for n, s in ref.items()}

    @settings(max_examples=80, deadline=None)
    @given(SEEDS)
    def test_tensor_slots_and_basis(self, seed):
        rng = random.Random(seed)
        a, b = rand_complex(rng), rand_complex(rng)
        ts = TensorSpace(a, b)
        ref = reference_tensor_blocks(a, b)
        assert {n: [(p, off) for p, _, _, off in ts.layout.blocks(n)]
                for n in ts.layout.degrees()} == {
            n: [(p, off) for p, _, _, off in blocks] for n, blocks in ref.items()}
        for n in range(a.lo + b.lo - 1, a.hi + b.hi + 2):
            for p in a.degrees():
                for i, j in product(range(a.rank(p)), range(b.rank(n - p))):
                    assert ts.slot_at(n, p, i, j) == reference_slot_at(ref, b, n, p, i, j)
            basis = tensor_basis(ts, n)
            assert basis == reference_basis(ref, a, b, n) and len(basis) == ts.dim(n)
            for flat, t in enumerate(basis):
                assert reference_decompose(ref, b, n, flat) == t
                assert ts.slot_at(n, t.left_degree, t.left_index, t.right_index) == flat

    @settings(max_examples=80, deadline=None)
    @given(SEEDS)
    def test_tot_slots(self, seed):
        a = rand_double_complex(random.Random(seed))
        ts = TotSpace(a)
        offsets, first_slot = reference_tot_offsets(a)
        assert {n: ts.layout.blocks(n) for n in ts.layout.degrees()} == {
            n: [(m, r, 1, off) for m, r, off in blocks] for n, blocks in offsets.items()}
        for n, blocks in offsets.items():
            for m, r, _ in blocks:
                for i in range(r):
                    assert ts.slot(n, m, i) == first_slot[(n, m)] + i

    @settings(max_examples=80, deadline=None)
    @given(SEEDS)
    def test_tot_differential(self, seed):
        a = rand_double_complex(random.Random(seed))
        ts = TotSpace(a)
        for n in range(ts.complex.lo, ts.complex.hi + 2):
            assert_same_entries(ts.complex.diff(n), reference_tot_differential(a, n))

    @settings(max_examples=80, deadline=None)
    @given(SEEDS, st.integers(-2, 2), st.integers(-2, 2))
    def test_tensor_proto(self, seed, deg_f, deg_g):
        rng = random.Random(seed)
        a, a2, b, b2 = (rand_complex(rng) for _ in range(4))
        f, g = rand_proto(rng, a, a2, deg_f), rand_proto(rng, b, b2, deg_g)
        got = tensor_proto(f, g)
        ref = reference_tensor_proto(f, g)
        for n, m in ref.items():
            assert_same_entries(got.comp(n), m)
        assert set(got.comps()) <= set(ref)

    @settings(max_examples=40, deadline=None)
    @given(SEEDS)
    def test_sten_iso_backward_map(self, seed):
        # the backward map used to search the whole degree basis for each slot
        rng = random.Random(seed)
        a, b = rand_complex(rng), rand_complex(rng)
        sa = suspension(a, 1)
        _, bwd = sten_iso(a, b)
        ref_src, ref_tgt = reference_tensor_blocks(a, b), reference_tensor_blocks(sa, b)
        for n in TensorSpace(sa, b).complex.degrees():
            basis_below = reference_basis(ref_src, a, b, n - 1)
            cols = len(reference_basis(ref_tgt, sa, b, n))
            want = [[0] * cols for _ in basis_below]
            for flat in range(cols):
                t = reference_decompose(ref_tgt, b, n, flat)
                want[basis_below.index(TensorSlot(
                    t.left_degree - 1, t.right_degree, t.left_index, t.right_index))][flat] = 1
            assert_same_entries(bwd.comp(n), IntMatrix.from_rows(want, cols))


# -- spaces build their complex on first read -----------------------------------


def eager_hom_complex(a, b) -> Complex:
    """[A, B] built column by column: d_hom of each degree-n basis proto."""
    hs = HomSpace(a, b)
    diffs = {n: IntMatrix.from_cols([hs.to_vector(d_hom(h)) for h in protos(hs, n)], hs.dim(n - 1))
             for n in hs.layout.degrees()}
    return Complex(hs.layout.dims(), diffs)


def eager_tensor_complex(a, b) -> Complex:
    """A (x) B built pair by pair on the reference blocks:
    d(x (x) y) = dx (x) y + (-1)^p x (x) dy."""
    ref, ranks, diffs = reference_tensor_blocks(a, b), {}, {}
    for n in ref:
        below = len(reference_basis(ref, a, b, n - 1))
        cols = []
        for t in reference_basis(ref, a, b, n):
            col = [0] * below
            for i, x in enumerate(a.diff(t.left_degree).col(t.left_index)):
                col[reference_slot_at(ref, b, n - 1, t.left_degree - 1, i, t.right_index)] += x
            sign = -1 if t.left_degree % 2 else 1
            for j, y in enumerate(b.diff(t.right_degree).col(t.right_index)):
                col[reference_slot_at(ref, b, n - 1, t.left_degree, t.left_index, j)] += sign * y
            cols.append(col)
        ranks[n], diffs[n] = len(cols), IntMatrix.from_cols(cols, below)
    return Complex(ranks, diffs)


def eager_tot_complex(a) -> Complex:
    offsets, _ = reference_tot_offsets(a)
    return Complex({n: sum(r for _, r, _ in blocks) for n, blocks in offsets.items()},
                   {n: reference_tot_differential(a, n) for n in offsets})


def maybe_zero_complex(rng):
    return Complex.zero() if rng.random() < 0.15 else rand_complex(rng)


SPACES = {
    "hom": lambda a, b, dc: HomSpace(a, b),
    "tensor": lambda a, b, dc: TensorSpace(a, b),
    "tot": lambda a, b, dc: TotSpace(dc),
}


class TestLazySpaces:
    """HomSpace, TensorSpace and TotSpace build their differentials on the
    first read of `complex` (LazySpace), and only then."""

    @settings(max_examples=60, deadline=None)
    @given(SEEDS)
    def test_the_complex_equals_an_eager_build(self, seed):
        rng = random.Random(seed)
        a, b, dc = maybe_zero_complex(rng), maybe_zero_complex(rng), rand_double_complex(rng)
        for got, want in ((HomSpace(a, b).complex, eager_hom_complex(a, b)),
                          (TensorSpace(a, b).complex, eager_tensor_complex(a, b)),
                          (TotSpace(dc).complex, eager_tot_complex(dc))):
            assert got == want
            assert (got.lo, got.hi) == (want.lo, want.hi)
            assert got.ranks() == want.ranks()
            for n in range(got.lo, got.hi + 2):
                assert_same_entries(got.diff(n), want.diff(n))

    @pytest.mark.parametrize("name", SPACES)
    def test_no_differential_before_the_first_read(self, monkeypatch, name):
        dc = _battery_double_complex()
        space = SPACES[name](M2, M2, dc)
        built = []
        real = type(space)._differentials
        monkeypatch.setattr(type(space), "_differentials",
                            lambda self, outs: built.append(sorted(outs)) or real(self, outs))
        dims = {n: space.dim(n) for n in range(-3, 4)}
        assert built == [] and any(dims.values())
        c = space.complex
        assert built and not c.has_zero_differentials()
        assert dims == {n: c.rank(n) for n in dims}
        # one build: later reads return the same object, so a Smith form
        # stored on one of its differentials is found again
        assert space.complex is c and space.complex is c
        assert len(built) == 1


def _battery_double_complex() -> DoubleComplex:
    col = make_complex({1: 1, 0: 1}, {1: [[1]]})
    return DoubleComplex({1: col, 0: col},
                         {1: ChainMap(col, col, 0, identity_map(col).comps(), _trusted=True)})


M2 = make_complex({1: 1, 0: 1}, {1: [[2]]})


@pytest.mark.parametrize("name, build, degree", [
    ("dgkernel.complexes._hom_sign", lambda: hom_complex(M2, M2), 1),
    ("dgkernel.monoidal._tensor_sign", lambda: tensor(M2, M2), 2),
    ("dgkernel.totals._tot_sign", lambda: total_complex(_battery_double_complex()), 2),
], ids=["hom", "tensor", "tot"])
def test_flipped_sign_breaks_its_own_builder(monkeypatch, name, build, degree):
    # each sign is looked up when the differential is built, and each
    # builder's Complex checks d o d = 0
    build()
    monkeypatch.setattr(name, lambda k: 1)
    with pytest.raises(SquareZeroViolated) as raised:
        build()
    assert raised.value.degree == degree


# -- square-zero by the sign rule ---------------------------------------------

BUILDERS = {
    "hom": ("dgkernel.complexes", "_hom_sign", lambda a, b, dc: HomSpace(a, b).complex),
    "tensor": ("dgkernel.monoidal", "_tensor_sign", lambda a, b, dc: TensorSpace(a, b).complex),
    "tot": ("dgkernel.totals", "_tot_sign", lambda a, b, dc: TotSpace(dc).complex),
}

# two constants, and the flipped alternating sign, which keeps d o d = 0
SIGNS = (lambda k: 1, lambda k: -1, lambda k: 1 if k % 2 else -1)


def raised_degree(build):
    """The degree of the SquareZeroViolated that build() raises, or None."""
    try:
        build()
    except SquareZeroViolated as e:
        return e.degree
    return None


class TestSquareZeroBySignRule:
    """HomSpace, TensorSpace and TotSpace prove d o d = 0 by `_alternates`
    and skip the product check of the Complex constructor, which stays here
    as the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(SEEDS)
    def test_each_builder_passes_the_product_check(self, seed):
        rng = random.Random(seed)
        a, b, dc = rand_complex(rng), rand_complex(rng), rand_double_complex(rng)
        for _, _, build in BUILDERS.values():
            c = build(a, b, dc)
            assert Complex(c.ranks(), c.diffs()) == c

    @settings(max_examples=40, deadline=None)
    @given(SEEDS)
    def test_a_patched_sign_raises_where_the_product_check_does(self, seed):
        # a sign that does not alternate leaves the product check on; the
        # oracle builds the same differential with no check and runs it
        rng = random.Random(seed)
        a, b, dc = rand_complex(rng), rand_complex(rng), rand_double_complex(rng)
        for module, name, build in BUILDERS.values():
            for sign in SIGNS:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(f"{module}.{name}", sign)
                    got = raised_degree(lambda: build(a, b, dc))
                    mp.setattr(f"{module}._alternates", lambda sign, degrees: True)
                    unchecked = build(a, b, dc)
                assert got == raised_degree(lambda: Complex(unchecked.ranks(), unchecked.diffs()))

    @pytest.mark.parametrize("build", [b for _, _, b in BUILDERS.values()], ids=BUILDERS.keys())
    def test_the_builders_multiply_no_matrices(self, monkeypatch, build):
        dc = _battery_double_complex()

        def product(a, b):
            raise AssertionError("a builder multiplied two matrices")

        monkeypatch.setattr(IntMatrix, "__matmul__", product)
        assert not build(M2, M2, dc).has_zero_differentials()


def validated_complex_calls(package: Path):
    """(file, enclosing function) of each call in the package that passes
    ``_validated``, or a third positional argument to Complex: each one
    skips the product check of d o d = 0, so its caller must prove it."""
    found = []

    def visit(node, scope, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,), name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if any(k.arg == "_validated" for k in child.keywords) \
                        or callee == "Complex" and len(child.args) > 2:
                    found.append((name, ".".join(scope)))
            visit(child, scope, name)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), (), path.name)
    return found


def square_zero_proofs(package: Path):
    """(file, class, what it returns) of each `_square_zero` method in the
    package: the name of the function its one return statement calls."""
    found = []
    for path in sorted(package.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "_square_zero":
                        ret = [n.value for n in ast.walk(fn) if isinstance(n, ast.Return)]
                        callee = (getattr(ret[0].func, "id", None)
                                  if len(ret) == 1 and isinstance(ret[0], ast.Call) else None)
                        found.append((path.name, cls.name, callee))
    return found


class TestValidatedSites:
    def test_each_unchecked_complex_is_a_known_site(self):
        # shift, U, L, R and direct sums are square-zero by construction;
        # the hom, tensor and Tot spaces by the sign rule, at the one site
        # that builds a space's complex on its first read
        assert validated_complex_calls(Path(complexes.__file__).parent) == [
            ("complexes.py", "suspension"),
            ("complexes.py", "forget_U"),
            ("complexes.py", "functor_L"),
            ("complexes.py", "functor_R"),
            ("complexes.py", "LazySpace.complex"),
            ("complexes.py", "direct_sum"),
        ]

    def test_the_lazy_site_proves_square_zero_by_the_sign_rule(self):
        # the site passes _validated=self._square_zero(), and each space's
        # _square_zero returns what _alternates answers
        lazy = next(n for n in ast.walk(ast.parse(Path(complexes.__file__).read_text()))
                    if isinstance(n, ast.ClassDef) and n.name == "LazySpace")
        assert [ast.unparse(k.value) for n in ast.walk(lazy) if isinstance(n, ast.Call)
                for k in n.keywords if k.arg == "_validated"] == ["self._square_zero()"]
        assert square_zero_proofs(Path(complexes.__file__).parent) == [
            ("complexes.py", "HomSpace", "_alternates"),
            ("monoidal.py", "TensorSpace", "_alternates"),
            ("totals.py", "TotSpace", "_alternates"),
        ]

    def test_the_check_finds_a_new_site(self, tmp_path):
        (tmp_path / "cones.py").write_text(
            "def cone(r, d):\n    return Complex(r, d, _validated=True)\n"
            "class Space:\n    def __init__(self, r, d):\n"
            "        self.complex = dgkernel.Complex(r, d, True)\n"
            "def checked(r, d):\n    return Complex(r, d)\n")
        assert validated_complex_calls(tmp_path) == [
            ("cones.py", "cone"), ("cones.py", "Space.__init__")]


def equation_check_sites(package: Path):
    """(file, enclosing function, kind) of each check in the package that
    does not go through the one equation checker: a `raise AssertionError`
    or an `assert` statement (outside acceptance._check, which raises the
    suite's failures), a hand-rolled failure list
    `[name for name, holds in ... if not holds]`, and an inverse pair
    `x o y == 1`, `y o x == 1` written out in one function; and each
    definition of failed_equations, the checker itself."""
    found = []

    def hand_rolled(node):
        if not (isinstance(node, ast.ListComp) and len(node.generators) == 1):
            return False
        gen = node.generators[0]
        names = [e.id for e in getattr(gen.target, "elts", ()) if isinstance(e, ast.Name)]
        return (len(names) == 2 and isinstance(node.elt, ast.Name) and node.elt.id == names[0]
                and any(isinstance(c, ast.UnaryOp) and isinstance(c.op, ast.Not)
                        and isinstance(c.operand, ast.Name) and c.operand.id == names[1]
                        for c in gen.ifs))

    def called(node, name):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name

    def product_is_identity(node):
        """(x, y) of a comparison `compose(x, y)` or `x @ y` with an identity_map."""
        if not (isinstance(node, ast.Compare) and len(node.comparators) == 1
                and called(node.comparators[0], "identity_map")):
            return None
        lhs = node.left
        if called(lhs, "compose") and len(lhs.args) == 2:
            return tuple(ast.dump(a) for a in lhs.args)
        if isinstance(lhs, ast.BinOp) and isinstance(lhs.op, ast.MatMult):
            return ast.dump(lhs.left), ast.dump(lhs.right)
        return None

    def kind(node):
        if isinstance(node, ast.Assert):
            return "assert"
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                return "raise AssertionError"
        if hand_rolled(node):
            return "failure list"
        return None

    def visit(node, scope, name, products):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
                if child.name == "failed_equations":
                    found.append((name, ".".join(inner), "checker"))
                own = set()
                visit(child, inner, name, own)
                if any((y, x) in own for x, y in own if x != y):
                    found.append((name, ".".join(inner), "inverse pair"))
                continue
            what = kind(child)
            if what and (name, scope, what) != ("acceptance.py", ("_check",), "raise AssertionError"):
                found.append((name, ".".join(scope), what))
            pair = product_is_identity(child)
            if pair:
                products.add(pair)
            visit(child, scope, name, products)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), (), path.name, set())
    return found


class TestEquationSites:
    def test_one_equation_checker_and_no_other_check(self):
        assert equation_check_sites(Path(complexes.__file__).parent) == [
            ("complexes.py", "failed_equations", "checker")]

    def test_the_check_finds_a_new_site(self, tmp_path):
        (tmp_path / "acceptance.py").write_text(
            "def _check(ok, msg):\n    if not ok:\n        raise AssertionError(msg)\n"
            "def criterion(x):\n    assert x, 'x'\n"
            "def iso(f, g):\n    def check():\n"
            "        _check(compose(g, f) == identity_map(f.source))\n"
            "        _check(f @ g == identity_map(f.target))\n"
            "    return compose(f, f) == identity_map(f.source)\n")
        (tmp_path / "cones.py").write_text(
            "class Sum:\n    def check(self, p, i):\n"
            "        return [n for n, ok in (('p o i != 0', p @ i),) if not ok]\n"
            "def split(e):\n    if e @ e != e:\n        raise AssertionError('e o e != e')\n"
            "    raise AssertionError\n"
            "def failed_equations(*eqs):\n    return [n for n, lhs, rhs in eqs if lhs != rhs]\n")
        assert equation_check_sites(tmp_path) == [
            ("acceptance.py", "criterion", "assert"),
            ("acceptance.py", "iso.check", "inverse pair"),
            ("cones.py", "Sum.check", "failure list"),
            ("cones.py", "split", "raise AssertionError"),
            ("cones.py", "split", "raise AssertionError"),
            ("cones.py", "failed_equations", "checker")]
