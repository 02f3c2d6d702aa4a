import ast
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dgkernel.dgcat as dgcat
from dgkernel.dgcat import _image
from conftest import (act, act_by, compose_elts, dot, embed_pair, eps_apply, protos,
                      removed_names, tensor_basis)
from dgkernel.complexes import (
    BlockLayout,
    ChainMap,
    Complex,
    HomSpace,
    Proto,
    chain_map_basis,
    compose,
    direct_sum,
    direct_sum_complexes,
    forget_U,
    functor_L,
    homology_H,
    identity_map,
    make_complex,
    scatter_kron,
    suspension,
    unit_complex,
)
from dgkernel.dgcat import (
    CauchyData,
    CauchyDataInvalid,
    Coend,
    LEFT,
    RIGHT,
    DGModule,
    Elt,
    ModuleTransform,
    action_domain,
    all_basis_elts,
    basis_elts,
    cauchy_naturality_failures,
    coend_tensor,
    FiniteDGCategory,
    dg_subcategory_of_complexes,
    direct_sum_modules,
    ell_op_window_category,
    exterior_g_category,
    g_retraction_from_cauchy,
    group_like_category,
    module_from_complex,
    module_presentation,
    one_object_category,
    representable,
    representable_cauchy_data,
    solve_cauchy_counit,
    suspend_module,
    trivial_weight,
    two_object_graded_category,
    unit_dg_category,
    verify_cauchy_data,
    verify_protosplit_quotient,
    weighted_colimit,
)
from dgkernel.monoidal import TensorSpace, associator, tensor, tensor_proto
from dgkernel.rand import rand_complex, rand_double_complex
from dgkernel.totals import DoubleComplex, double_complex_as_left_module, weight_J
from dgkernel import zlinalg
from dgkernel.zlinalg import FPAbGroup, IntMatrix, ShapeMismatch, cokernel, kernel_basis

K0 = unit_complex()
LZ = functor_L(K0)
M2 = make_complex({1: 1, 0: 1}, {1: [[2]]})


def unit_at(cx, deg, idx):
    return Elt(cx, deg, tuple(1 if i == idx else 0 for i in range(cx.rank(deg))))


@pytest.fixture(scope="module")
def cats():
    return {
        "I": unit_dg_category(),
        "ext": exterior_g_category(1),
        "C2": group_like_category(1),
        "T2": two_object_graded_category(2),
        "sub": dg_subcategory_of_complexes({"Z": K0, "LZ": LZ}),
    }


def reference_scan_failures(cat):
    """The associativity and unit failures of `FiniteDGCategory.validate`,
    found by the scan over every tuple of objects it made before it
    iterated the nonzero homs."""
    failures = []
    for a, b, c, dd in itertools.product(cat.objects, repeat=4):
        if cat.hom(a, b).is_zero() or cat.hom(b, c).is_zero() or cat.hom(c, dd).is_zero():
            continue
        for w in all_basis_elts(cat.hom(c, dd)):
            for v in all_basis_elts(cat.hom(b, c)):
                for u in all_basis_elts(cat.hom(a, b)):
                    if compose_elts(cat, a, b, dd, compose_elts(cat, b, c, dd, w, v), u) != \
                            compose_elts(cat, a, c, dd, w, compose_elts(cat, a, b, c, v, u)):
                        failures.append(f"associativity fails at ({a},{b},{c},{dd})")
    for a, b in itertools.product(cat.objects, repeat=2):
        if cat.hom(a, b).is_zero() or a not in cat.identities or b not in cat.identities:
            continue
        for u in all_basis_elts(cat.hom(a, b)):
            if compose_elts(cat, a, b, b, cat.identity(b), u) != u:
                failures.append(f"left unit fails on hom({a},{b})")
            if compose_elts(cat, a, a, b, u, cat.identity(a)) != u:
                failures.append(f"right unit fails on hom({a},{b})")
    return failures


def reference_module_scan_failures(mod):
    """The associativity failures of `DGModule.validate`, found by the scan
    over every triple of objects."""
    base, failures = mod.base, []
    for u, v, w in itertools.product(base.objects, repeat=3):
        src, _ = mod.ends(u, w)
        if mod.value(src).is_zero() or base.hom(u, v).is_zero() or base.hom(v, w).is_zero():
            continue
        for g in all_basis_elts(base.hom(v, w)):
            for f in all_basis_elts(base.hom(u, v)):
                gf = compose_elts(base, u, v, w, g, f)
                for x in all_basis_elts(mod.value(src)):
                    twice = (act_by(mod, u, v, f, act_by(mod, v, w, g, x)) if mod.side == RIGHT
                             else act_by(mod, v, w, g, act_by(mod, u, v, f, x)))
                    if act_by(mod, u, w, gf, x) != twice:
                        failures.append(f"{mod.side} action associativity fails at ({u},{v},{w})")
    return failures


def scaled(table, k):
    return ChainMap(table.source, table.target, 0,
                    {n: c.scale(k) for n, c in table.comps().items()})


def broken_window_category(window):
    """The window category with its objects listed last to first and two
    composition tables doubled, so associativity and both unit laws fail."""
    cat = ell_op_window_category(window)
    tables = dict(cat.compose_table)
    for key in [(1, 1, 0), (0, 0, 0)]:
        tables[key] = scaled(tables[key], 2)
    return FiniteDGCategory(cat.objects[::-1], cat.homs, tables, cat.identities)


class TestCategoryValidation:
    def test_fixture_categories_valid(self, cats):
        for name, cat in cats.items():
            assert cat.validate() == [], name

    def test_window_category_valid(self):
        assert ell_op_window_category(2).validate() == []

    @pytest.mark.parametrize("window", range(7))
    def test_window_category_equals_the_cubic_construction(self, window):
        # the composition table used to be filled by a scan over every
        # object triple; only neighbouring objects can compose
        objs = tuple(range(-window, window + 1))
        homs = [(u, v) for u in objs for v in objs if u - v in (0, 1)]
        triples = [(a, b, c) for a in objs for b in objs for c in objs
                   if (a, b) in homs and (b, c) in homs and (a, c) in homs]
        cat = ell_op_window_category(window)
        assert cat.objects == objs
        assert list(cat.homs) == homs
        assert all(h == K0 for h in cat.homs.values())
        assert list(cat.compose_table) == triples
        for (a, b, c), table in cat.compose_table.items():
            assert table.source == TensorSpace(K0, K0).complex
            assert table.target == K0
            assert table.comps() == {0: IntMatrix.from_rows([[1]])}
        assert cat.validate() == []

    def test_sub_dg_category_of_complexes_with_torsion_object(self):
        cat = dg_subcategory_of_complexes({"Z": K0, "M2": M2})
        assert cat.validate() == []

    def test_sign_mutation_breaks_leibniz(self):
        cat = dg_subcategory_of_complexes({"Z": K0, "M2": M2})
        key = ("M2", "M2", "Z")
        table = cat.compose_table[key]
        comps = table.comps()
        n0 = sorted(comps)[0]
        rows = comps[n0].to_lists()
        flipped = False
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if x:
                    rows[i][j] = -x
                    flipped = True
                    break
            if flipped:
                break
        comps[n0] = IntMatrix.from_rows(rows, comps[n0].cols)
        cat.compose_table[key] = Proto(table.source, table.target, 0, comps)
        failures = cat.validate()
        assert any("Leibniz" in f for f in failures)

    def test_failures_are_reported_in_the_order_of_the_object_scan(self, cats):
        for cat in list(cats.values()) + [broken_window_category(2)]:
            failures = [f for f in cat.validate()
                        if f.startswith(("associativity", "left unit", "right unit"))]
            assert failures == reference_scan_failures(cat)
        assert len(failures) == 6   # all from the broken window category

    def test_missing_identity_reported(self):
        cat = unit_dg_category()
        del cat.identities["*"]
        assert any("identity" in f for f in cat.validate())


class TestModules:
    def test_associativity_failures_follow_the_object_scan(self):
        base = broken_window_category(2)
        cat, j_mod = weight_J(2)
        a_mod = double_complex_as_left_module(
            cat, DoubleComplex({c: K0 for c in range(-2, 3)}, {}))
        j_mod.actions[(1, 0)] = scaled(j_mod.actions[(1, 0)], 3)
        for mod in (on_base(base, j_mod), on_base(base, a_mod)):
            failures = [f for f in mod.validate() if "associativity" in f]
            assert failures and failures == reference_module_scan_failures(mod)

    def test_representables_lawful(self, cats):
        for name, cat in cats.items():
            for k in cat.objects:
                assert representable(cat, k, RIGHT).validate() == [], (name, k)
                assert representable(cat, k, LEFT).validate() == [], (name, k)

    def test_suspension_and_sum_lawful(self, cats):
        ext = cats["ext"]
        m = representable(ext, "*", RIGHT)
        sm = suspend_module(m, 1)
        assert sm.validate() == []
        assert direct_sum_modules(m, sm).validate() == []
        n = representable(ext, "*", LEFT)
        assert suspend_module(n, -1).validate() == []
        assert direct_sum_modules(n, suspend_module(n, -1)).validate() == []

    def test_action_proto_is_the_elementwise_action(self, cats):
        cat = cats["ext"]
        for side in (RIGHT, LEFT):
            m = suspend_module(representable(cat, "*", side), 1)
            src = m.value("*")
            for f in all_basis_elts(cat.hom("*", "*")):
                p = m.action_proto("*", "*", f)
                for x in all_basis_elts(src):
                    want = dot(m, "*", "*", x, f) if side == RIGHT else dot(m, "*", "*", f, x)
                    assert p.comp(x.degree).apply(x.vec) == want.vec

    def test_paper_sign_rule_for_dot(self, cats):
        # z . (g o f) = (-1)^{|g||f|} (z . g) . f for every z, as protos:
        # (- . (g o f)) = (-1)^{|g||f|} (- . f) o (- . g), on all basis pairs
        seen = 0
        for name in ("ext", "sub"):
            cat = cats[name]
            for k in cat.objects:
                m = representable(cat, k, RIGHT)
                for u, v, huv in cat.nonzero_homs():
                    for w, hvw in cat.homs_out(v):
                        if m.value(w).is_zero():
                            continue
                        for g in all_basis_elts(hvw):
                            for f in all_basis_elts(huv):
                                sign = -1 if (g.degree * f.degree) % 2 else 1
                                gf = compose_elts(cat, u, v, w, g, f)
                                assert m.action_proto(u, w, gf) == sign * compose(
                                    m.action_proto(u, v, f), m.action_proto(v, w, g))
                                seen += sign == -1
        assert seen


def twisted_x2_pair():
    """Non-unital x2 twist over the unit category: relations 2(y (x) x),
    with a zero left action."""
    cat = unit_dg_category()
    ts_r = TensorSpace(K0, K0)
    twisted = ChainMap(ts_r.complex, K0, 0, {0: IntMatrix.from_rows([[2]])})
    zero = ChainMap(ts_r.complex, K0, 0, {0: IntMatrix.from_rows([[0]])})
    return (DGModule(cat, {"*": K0}, {("*", "*"): twisted}),
            DGModule(cat, {"*": K0}, {("*", "*"): zero}, LEFT))


def lawful_x4_pair():
    """g o g = 4: y.g = 2y and g.x = -2x are lawful; the coend is Z/4."""
    cat = group_like_category(4)
    hom = cat.hom("*", "*")
    act_m = ChainMap(TensorSpace(K0, hom).complex, K0, 0, {0: IntMatrix.from_rows([[1, 2]])})
    act_n = ChainMap(TensorSpace(hom, K0).complex, K0, 0, {0: IntMatrix.from_rows([[1, -2]])})
    return (DGModule(cat, {"*": K0}, {("*", "*"): act_m}),
            DGModule(cat, {"*": K0}, {("*", "*"): act_n}, LEFT))


def reference_coend_relations(m, n_mod):
    """The ambient P and the relation chain map R = rho - lambda: Q -> P of
    M (x)_C N, built from Protos by a scan over every pair of objects: the
    construction `coend_tensor` used before it wrote R in coordinates."""
    base = m.base
    objs = [x for x in base.objects if not (m.value(x).is_zero() or n_mod.value(x).is_zero())]
    summands = [tensor(m.value(x), n_mod.value(x)) for x in objs]
    if summands:
        p_total, p_injs, _ = direct_sum_complexes(summands)
    else:
        p_total, p_injs = Complex.zero(), []
    inj_by_obj = dict(zip(objs, p_injs))
    q_parts, q_maps = [], []
    for u in base.objects:
        for v in base.objects:
            homuv = base.hom(u, v)
            if homuv.is_zero() or m.value(v).is_zero() or n_mod.value(u).is_zero():
                continue
            q_cx = tensor(tensor(m.value(v), homuv), n_mod.value(u))
            act_m = m.actions.get((u, v))
            rho_uv = None
            if act_m is not None and u in inj_by_obj:
                rho_uv = compose(inj_by_obj[u], tensor_proto(act_m, identity_map(n_mod.value(u))))
            act_n = n_mod.actions.get((u, v))
            lam_uv = None
            if act_n is not None and v in inj_by_obj:
                assoc_fwd, _ = associator(m.value(v), homuv, n_mod.value(u))
                lam_uv = compose(inj_by_obj[v],
                                 compose(tensor_proto(identity_map(m.value(v)), act_n), assoc_fwd))
            q_parts.append(q_cx)
            q_maps.append((rho_uv, lam_uv))
    if q_parts:
        q_total, _, q_projs = direct_sum_complexes(q_parts)
    else:
        q_total, q_projs = Complex.zero(), []
    rel = Proto.zero(q_total, p_total, 0)
    for (rho_uv, lam_uv), proj in zip(q_maps, q_projs):
        if rho_uv is not None:
            rel = rel + compose(rho_uv, proj)
        if lam_uv is not None:
            rel = rel - compose(lam_uv, proj)
    return p_total, ChainMap(q_total, p_total, 0, rel.comps())


def on_base(base, mod):
    """The same values and actions over another category on the same objects."""
    return DGModule(base, mod.values, mod.actions, mod.side)


def with_zero_homs(m, n_mod):
    """The pair over the same category with zero complexes stored as homs
    wherever no hom was, and one hom to an object outside the category."""
    cat = m.base
    homs = {(u, v): Complex.zero() for u in cat.objects for v in cat.objects}
    homs.update(cat.homs)
    homs[(cat.objects[0], "outside")] = K0
    base = FiniteDGCategory(cat.objects, homs, cat.compose_table, cat.identities)
    return on_base(base, m), on_base(base, n_mod)


def representable_pair_of(cat, k, k2):
    return representable(cat, k, RIGHT), representable(cat, k2, LEFT)


def fixed_window_pair(a, extra: int = 0):
    """The weight of Tot and the double complex a over the smallest window
    category that holds it, widened by extra."""
    cols = a.column_degrees()
    cat, j_mod = weight_J((max(abs(c) for c in cols) + 1 if cols else 1) + extra)
    return j_mod, double_complex_as_left_module(cat, a)


def representable_pair(draw):
    cat = draw(st.sampled_from([exterior_g_category, two_object_graded_category]))(
        draw(st.integers(0, 2)))
    m, n = representable_pair_of(cat, draw(st.sampled_from(cat.objects)),
                                 draw(st.sampled_from(cat.objects)))
    if draw(st.booleans()):
        n = direct_sum_modules(n, representable(cat, draw(st.sampled_from(cat.objects)), LEFT))
    return suspend_module(m, draw(st.integers(-1, 1))), suspend_module(n, draw(st.integers(-1, 1)))


def window_pair(draw):
    """The weight of Tot and a random double complex over a window category;
    most objects carry a zero value."""
    return fixed_window_pair(rand_double_complex(random.Random(draw(st.integers(0, 2**32 - 1)))),
                             draw(st.integers(0, 2)))


def zero_value_pair(draw):
    """A left module that is zero everywhere, or the empty double complex."""
    if draw(st.booleans()):
        return fixed_window_pair(DoubleComplex({}, {}), draw(st.integers(0, 2)))
    cat = two_object_graded_category(draw(st.integers(0, 2)))
    return representable(cat, draw(st.sampled_from(cat.objects)), RIGHT), DGModule(cat, {}, {}, LEFT)


@st.composite
def coend_inputs(draw):
    kind = draw(st.sampled_from(["representable", "x2", "x4", "window", "zero value"]))
    if kind == "representable":
        m, n = representable_pair(draw)
    elif kind == "x2":
        m, n = twisted_x2_pair()
    elif kind == "x4":
        m, n = lawful_x4_pair()
    elif kind == "window":
        m, n = window_pair(draw)
    else:
        m, n = zero_value_pair(draw)
    if draw(st.booleans()):
        m, n = with_zero_homs(m, n)
    return m, n


class TestCoend:
    def test_unit_category_trivial_coend(self):
        cat = unit_dg_category()
        res = coend_tensor(representable(cat, "*", RIGHT),
                           representable(cat, "*", LEFT))
        assert res.group(0) == FPAbGroup.free(1)
        assert res.verify_differential()

    def test_co_yoneda_on_all_fixtures(self, cats):
        for name, cat in cats.items():
            for k in cat.objects:
                m = representable(cat, k, RIGHT)
                for k2 in cat.objects:
                    n = representable(cat, k2, LEFT)
                    res = coend_tensor(m, n)
                    want = n.value(k)
                    for deg in want.degrees():
                        assert res.group(deg) == FPAbGroup.free(want.rank(deg)), \
                            (name, k, k2, deg)
                    assert res.verify_differential()

    def test_twisted_action_gives_mod_two(self):
        res = coend_tensor(*twisted_x2_pair())
        assert res.group(0) == FPAbGroup.canonical(0, [2])

    def test_lawful_torsion_coend(self):
        m, n = lawful_x4_pair()
        assert m.validate() == [] and n.validate() == []
        res = coend_tensor(m, n)
        assert res.group(0) == FPAbGroup.canonical(0, [4])

    def test_induced_differential_squares_to_zero(self):
        cat = dg_subcategory_of_complexes({"Z": K0, "M2": M2})
        res = coend_tensor(representable(cat, "M2", RIGHT),
                           representable(cat, "Z", LEFT))
        assert res.verify_differential()


    def test_a_corrupted_induced_differential_is_caught(self):
        cat = dg_subcategory_of_complexes({"Z": K0, "M2": M2})
        res = coend_tensor(representable(cat, "M2", RIGHT), representable(cat, "M2", LEFT))
        assert res.verify_differential()
        d = res.diff(1)
        assert not d.is_zero() and res.group(0).is_free()
        res._diffs[1] = d + IntMatrix.from_rows([[1]] + [[0]] * (d.rows - 1))
        assert not res.verify_differential()   # d no longer factors through the quotient

    def test_a_differential_that_factors_but_does_not_square_to_zero(self):
        # Relations that are not a subcomplex: x in degree 1 with 2x = 0 and
        # d x = y free in degree 0.  A corrupted d' (z -> 2x) still factors,
        # as 2x is a relation, but d' d' z = 2y is not.  The relations of a
        # coend are a subcomplex, so on one the factor checks imply d' d' = 0.
        amb = Complex({2: 1, 1: 1, 0: 1}, {1: IntMatrix.from_rows([[1]])})
        co = Coend(amb, {2: IntMatrix.zeros(1, 0), 1: IntMatrix.from_rows([[2]]),
                         0: IntMatrix.zeros(1, 0)}, {}, BlockLayout())
        assert co.verify_differential()
        co._diffs[2] = IntMatrix.from_rows([[2]])
        factors = co.projection(1) @ amb.diff(2) - co.diff(2) @ co.projection(2)
        assert co.group(1).presents_zero(factors)
        assert not co.verify_differential()


class TestCoendInCoordinates:
    """`coend_tensor` writes each relation matrix in coordinates; the Proto
    construction it replaced is the oracle."""

    @settings(max_examples=80, deadline=None)
    @given(coend_inputs())
    def test_relations_and_presentation_match_the_reference(self, zlinalg_calls, pair):
        m, n = pair
        with zlinalg_calls("smith_normal_form") as made_ref:
            ambient, rel = reference_coend_relations(m, n)
            ref = {d: cokernel(rel.comp(d)) for d in ambient.degrees()}
        with zlinalg_calls("smith_normal_form") as made:
            pres = coend_tensor(m, n)
        assert pres.ambient == ambient
        assert list(pres.relations) == list(ambient.degrees())
        for d in ambient.degrees():
            assert pres.relations[d] == rel.comp(d), d
            assert pres.group(d) == ref[d].group
            assert pres.projection(d) == ref[d].projection
            assert pres.section(d) == ref[d].section
        assert [args for _, args in made.operands] == [args for _, args in made_ref.operands]

    @pytest.mark.parametrize("build", [
        lambda: representable_pair_of(exterior_g_category(1), "*", "*"),
        lambda: representable_pair_of(two_object_graded_category(1), "b", "a"),
        twisted_x2_pair,
        lawful_x4_pair,
        lambda: fixed_window_pair(rand_double_complex(random.Random(5))),
    ], ids=["ext", "T2", "x2", "x4", "window"])
    def test_snf_calls_are_one_cokernel_per_ambient_degree(self, zlinalg_calls, build):
        m, n = build()
        with zlinalg_calls("smith_normal_form") as made_ref:
            ambient, rel = reference_coend_relations(m, n)
            for d in ambient.degrees():
                cokernel(rel.comp(d))
        with zlinalg_calls("smith_normal_form") as made:
            pres = coend_tensor(m, n)
        assert len(made) == len(made_ref)
        assert [args for _, args in made.operands] == [args for _, args in made_ref.operands]
        with zlinalg_calls("cokernel", "inverse_unimodular") as made:
            coend_tensor(m, n)
        assert [name for name, _ in made.operands] == \
            ["cokernel", "inverse_unimodular"] * len(ambient.degrees())
        # one relation matrix per degree, none shared: a shared zero matrix
        # would turn later calls into lookups of its stored Smith form
        assert len({id(r) for r in pres.relations.values()}) == len(ambient.degrees())

    def test_hom_reads_grow_linearly_on_window_categories(self, monkeypatch):
        # the relations used to be found by a scan over every pair of
        # objects: (2w + 1)^2 reads of hom on the window w
        real = FiniteDGCategory.hom
        reads = []
        for window in (4, 8, 16, 32):
            cat, j_mod = weight_J(window)
            a = DoubleComplex({c: K0 for c in range(1 - window, window + 1)}, {})
            a_mod = double_complex_as_left_module(cat, a)
            count = [0]

            def counting(self, u, v):
                count[0] += 1
                return real(self, u, v)

            monkeypatch.setattr(FiniteDGCategory, "hom", counting)
            coend_tensor(j_mod, a_mod)
            monkeypatch.setattr(FiniteDGCategory, "hom", real)
            reads.append((len(cat.homs), count[0]))
        assert [homs for homs, _ in reads] == [4 * w + 1 for w in (4, 8, 16, 32)]
        assert all(0 < calls <= homs for homs, calls in reads)

    def test_nonzero_homs_follow_the_scan_over_object_pairs(self, cats):
        m, _ = with_zero_homs(*twisted_x2_pair())
        for cat in list(cats.values()) + [m.base, ell_op_window_category(3)]:
            scan = [(u, v, cat.hom(u, v)) for u in cat.objects for v in cat.objects
                    if not cat.hom(u, v).is_zero()]
            assert cat.nonzero_homs() == scan
            for u in cat.objects:
                assert cat.homs_out(u) == [(v, h) for a, v, h in scan if a == u]


# the wrapper and the presented complex that `Coend` replaced, and the
# attribute by which readers reached from one to the other
REMOVED_COEND_NAMES = {"CoendResult", "PresentedComplex"}


def split_coend_names(package: Path):
    """(file, name, line) of each definition of, reference to or import of
    a removed coend class, and of each `.presented` attribute, in the
    package: the coend is one object."""
    return removed_names(package, REMOVED_COEND_NAMES, {"presented"})


class TestOneCoendObject:
    def test_coend_tensor_returns_the_coend(self):
        assert isinstance(coend_tensor(*twisted_x2_pair()), dgcat.Coend)

    def test_src_has_one_coend_object(self):
        assert split_coend_names(Path(dgcat.__file__).parent) == []

    def test_the_check_finds_the_removed_spellings(self, tmp_path):
        (tmp_path / "dgcat.py").write_text(
            "from .x import PresentedComplex\n"
            "class CoendResult:\n"
            "    def group(self, n):\n"
            "        return self.presented.group(n)\n")
        assert split_coend_names(tmp_path) == [
            ("dgcat.py", "CoendResult", 2), ("dgcat.py", "PresentedComplex", 1),
            ("dgcat.py", "presented", 4)]


class TestWeightedColimit:
    def test_tensor_case_identity(self):
        cat = unit_dg_category()
        for a in (K0, LZ, M2):
            wc = weighted_colimit(trivial_weight(cat),
                                  module_from_complex(cat, a, LEFT))
            assert wc.colimit.ranks() == a.ranks()
            assert homology_H(wc.colimit) == homology_H(a)
            assert wc.defining_iso_verified([K0, suspension(K0, 1)])

    def test_co_yoneda_colimit(self, cats):
        for name in ("T2", "ext"):
            cat = cats[name]
            for k in cat.objects:
                m = representable(cat, k, RIGHT)
                for k2 in cat.objects:
                    f = representable(cat, k2, LEFT)
                    wc = weighted_colimit(m, f)
                    assert wc.colimit.ranks() == f.value(k).ranks()
                    assert wc.defining_iso_verified([K0])

    def test_zero_diagram(self):
        cat = unit_dg_category()
        wc = weighted_colimit(trivial_weight(cat),
                              DGModule(cat, {"*": Complex.zero()}, {}, LEFT))
        assert wc.colimit.is_zero()

    def test_gamma_components_are_chain_maps(self):
        from dgkernel.complexes import d_hom

        cat = unit_dg_category()
        wc = weighted_colimit(trivial_weight(cat),
                              module_from_complex(cat, M2, LEFT))
        y = unit_at(wc.m.value("*"), 0, 0)
        gamma = wc.gamma_proto("*", y)
        assert d_hom(gamma).is_zero()


class TestCauchyData:
    def test_representable_data_all_categories(self, cats):
        for name, cat in cats.items():
            for k in cat.objects:
                cd = representable_cauchy_data(cat, k)
                assert verify_cauchy_data(cd).ok, (name, k)
                assert cauchy_naturality_failures(cd) == [], (name, k)
                assert cd.eta_is_coend_cycle(), (name, k)

    def test_vacuous_zero_module(self):
        cat = unit_dg_category()
        m = DGModule(cat, {"*": Complex.zero()}, {})
        n = DGModule(cat, {"*": Complex.zero()}, {}, LEFT)
        assert verify_cauchy_data(CauchyData(m, n, [], {})).ok

    def test_sign_mutation_detected_with_witness(self, cats):
        cd = representable_cauchy_data(cats["ext"], "*")
        bad_eps = {k: Proto(v.source, v.target, 0,
                            {q: -1 * mm for q, mm in v.comps().items()})
                   for k, v in cd.eps.items()}
        rep = verify_cauchy_data(CauchyData(cd.m, cd.n, cd.eta, bad_eps))
        assert not rep.ok
        assert rep.witness is not None and "snake fails" in rep.witness

    def test_counit_solver_matches_representable(self, cats):
        cat = cats["ext"]
        m = representable(cat, "*", RIGHT)
        n = representable(cat, "*", LEFT)
        one = cat.identity("*")
        cd = solve_cauchy_counit(m, n, [("*", one, one)])
        assert cd is not None
        assert verify_cauchy_data(cd).ok
        assert cauchy_naturality_failures(cd) == []

    def test_counit_solver_shifted_representable(self, cats):
        cat = cats["ext"]
        m = suspend_module(representable(cat, "*", RIGHT), 1)
        n = suspend_module(representable(cat, "*", LEFT), -1)
        cd = solve_cauchy_counit(m, n, [("*", unit_at(m.value("*"), 1, 0),
                                         unit_at(n.value("*"), -1, 0))])
        assert cd is not None
        assert verify_cauchy_data(cd).ok
        assert cauchy_naturality_failures(cd) == []

    def test_counit_solver_rejects_an_eta_term_of_nonzero_degree(self, cats):
        # the modules of the two-term sum, with x the second basis element of
        # degree 1 and y the second of degree 0: eta has total degree 1
        cat = cats["ext"]
        m1, n1 = representable(cat, "*", RIGHT), representable(cat, "*", LEFT)
        mm = direct_sum_modules(m1, suspend_module(m1, 1))
        nn = direct_sum_modules(n1, suspend_module(n1, -1))
        x, y = unit_at(mm.value("*"), 1, 1), unit_at(nn.value("*"), 0, 1)
        assert solve_cauchy_counit(mm, nn, [("*", x, y)]) is None
        one = cat.identity("*")
        assert solve_cauchy_counit(m1, n1, [("*", one, one), ("*", unit_at(m1.value("*"), 1, 0),
                                                              one)]) is None


def two_term_cauchy_fixture(cat, obj):
    m1 = representable(cat, obj, RIGHT)
    n1 = representable(cat, obj, LEFT)
    sm = suspend_module(m1, 1)
    sn = suspend_module(n1, -1)
    mm = direct_sum_modules(m1, sm)
    nn = direct_sum_modules(n1, sn)
    x1 = unit_at(mm.value(obj), 0, 0)
    y1 = unit_at(nn.value(obj), 0, 0)
    x2 = unit_at(mm.value(obj), 1, m1.value(obj).rank(1))
    y2 = unit_at(nn.value(obj), -1, n1.value(obj).rank(-1))
    cd = solve_cauchy_counit(mm, nn, [(obj, x1, y1), (obj, x2, y2)])
    assert cd is not None
    return cd


class TestGRetraction:
    def test_representable_single_term(self, cats):
        for name in ("I", "ext", "C2", "T2"):
            cat = cats[name]
            for k in cat.objects:
                cd = representable_cauchy_data(cat, k)
                ret = g_retraction_from_cauchy(cd)
                assert ret.composite_is_identity, (name, k)
                assert ret.tau.naturality_failures() == []
                assert ret.xhat.naturality_failures() == []

    def test_two_term_sum_with_shift(self, cats):
        cd = two_term_cauchy_fixture(cats["ext"], "*")
        ret = g_retraction_from_cauchy(cd)
        assert ret.composite_is_identity
        assert ret.tau.naturality_failures() == []
        assert ret.xhat.naturality_failures() == []
        # retract runs through a genuine 2-term sum
        assert ret.summand_module.value("*").rank(1) == 2

    def test_rejects_dg_base(self, cats):
        cd = representable_cauchy_data(cats["sub"], "Z")
        with pytest.raises(CauchyDataInvalid):
            g_retraction_from_cauchy(cd)

    def test_rejects_broken_snake(self, cats):
        cd = representable_cauchy_data(cats["ext"], "*")
        bad_eps = {k: Proto(v.source, v.target, 0,
                            {q: 2 * mm for q, mm in v.comps().items()})
                   for k, v in cd.eps.items()}
        with pytest.raises(CauchyDataInvalid):
            g_retraction_from_cauchy(CauchyData(cd.m, cd.n, cd.eta, bad_eps))


def postcompose_transform(cat, m_from, m_to, b_from, b_to, elt):
    """Module transform hom(-,b_from) => hom(-,b_to) given by postcomposition
    with elt in hom(b_from, b_to)."""
    comps = {}
    for x in cat.objects:
        src = m_from.value(x)
        tgt = m_to.value(x)
        mats = {}
        for r in src.degrees():
            if src.rank(r) == 0:
                continue
            cols = [compose_elts(cat, x, b_from, b_to, elt, f).vec
                    for f in basis_elts(src, r)]
            rows = tgt.rank(r + elt.degree)
            mats[r] = IntMatrix(rows, len(cols),
                                (cols[j][i] for i in range(rows) for j in range(len(cols))))
        comps[x] = Proto(src, tgt, elt.degree, mats)
    return ModuleTransform(m_from, m_to, elt.degree, comps)


class TestProtosplitQuotient:
    def test_identity_witnesses(self, cats):
        for name in ("I", "ext", "T2"):
            cat = cats[name]
            for k in cat.objects:
                m = representable(cat, k, RIGHT)
                ident = ModuleTransform(m, m, 0, {
                    x: identity_map(m.value(x)) for x in cat.objects})
                rep = verify_protosplit_quotient(m, k, ident, ident)
                assert rep.ok, (name, k, rep.failures)
                assert rep.idempotent == cat.identity(k)

    def test_split_idempotent_recovered(self):
        sq, _, _ = direct_sum_complexes([K0, K0])
        cat = dg_subcategory_of_complexes({"Z": K0, "ZZ": sq})
        m = representable(cat, "Z", RIGHT)
        b = representable(cat, "ZZ", RIGHT)
        # inclusion and projection between Z and Z + Z inside the category
        hom_z_zz = cat.hom("Z", "ZZ")
        hom_zz_z = cat.hom("ZZ", "Z")
        incl = unit_at(hom_z_zz, 0, 0)      # first coordinate inclusion
        proj = unit_at(hom_zz_z, 0, 0)      # first coordinate projection
        assert compose_elts(cat, "Z", "ZZ", "Z", proj, incl) == cat.identity("Z")
        sigma = postcompose_transform(cat, m, b, "Z", "ZZ", incl)
        gamma = postcompose_transform(cat, b, m, "ZZ", "Z", proj)
        rep = verify_protosplit_quotient(m, "ZZ", gamma, sigma)
        assert rep.ok, rep.failures
        e0 = compose_elts(cat, "ZZ", "Z", "ZZ", incl, proj)
        assert rep.idempotent == e0

    def test_torsion_module_is_not_a_retract(self):
        cat = unit_dg_category()
        m = module_from_complex(cat, M2, RIGHT)
        rep_mod = representable(cat, "*", RIGHT)
        # all candidate sigma: degree-0 chain transformations M2 -> Z;
        # the only one is zero, so gamma' o sigma = 1 is unachievable
        candidates = chain_map_basis(M2, K0, 0)
        assert candidates.cols == 0
        zero_sigma = ModuleTransform(m, rep_mod, 0,
                                     {"*": Proto.zero(M2, K0, 0)})
        for gamma_comp in protos(HomSpace(K0, M2), 0, chain_map_basis(K0, M2, 0)):
            gamma = ModuleTransform(rep_mod, m, 0, {"*": gamma_comp})
            rep = verify_protosplit_quotient(m, "*", gamma, zero_sigma)
            assert not rep.ok


class TestProtosplitQuotientFailures:
    """One mutation of a valid witness per message of
    verify_protosplit_quotient."""

    @staticmethod
    def identity_witness(cat, k):
        m = representable(cat, k, RIGHT)
        return m, ModuleTransform(m, m, 0, {x: identity_map(m.value(x)) for x in cat.objects})

    def failures(self, m, b_obj, gamma_p, sigma):
        rep = verify_protosplit_quotient(m, b_obj, gamma_p, sigma)
        assert not rep.ok
        return rep.failures

    def test_degree_not_zero(self):
        m, ident = self.identity_witness(unit_dg_category(), "*")
        assert self.failures(m, "*", ident, ModuleTransform(m, m, 1, {})) == [
            "transformations must have degree 0"]

    def test_not_a_chain_transformation(self):
        # hom(M2, M2) has a differential; id + a degree-0 corner does not
        # commute with it
        m, ident = self.identity_witness(dg_subcategory_of_complexes({"M2": M2}), "M2")
        h = m.value("M2")
        bent = ModuleTransform(m, m, 0, {"M2": identity_map(h) + Proto(
            h, h, 0, {0: IntMatrix.from_rows([[1, 0], [0, 0]])})})
        assert "gamma' is not a chain transformation" in self.failures(m, "M2", bent, ident)

    def test_not_natural(self):
        # sigma doubled at Z only no longer commutes with hom(Z, ZZ)
        sq, _, _ = direct_sum_complexes([K0, K0])
        m, ident = self.identity_witness(dg_subcategory_of_complexes({"Z": K0, "ZZ": sq}), "Z")
        lopsided = ModuleTransform(m, m, 0, {"Z": 2 * identity_map(m.value("Z")),
                                             "ZZ": identity_map(m.value("ZZ"))})
        assert self.failures(m, "Z", ident, lopsided)[0] == (
            "sigma: naturality fails at (Z,ZZ) on deg (0,0)")

    @pytest.mark.parametrize("unit, message", [
        (2, "extracted e is not idempotent"),
        (0, "sigma o gamma' != hom(-, e) at *"),
    ])
    def test_a_wrong_identity_of_b(self, unit, message):
        # e is read off sigma gamma'(1_B): with 1_B replaced by 2 it is 2,
        # and 2 o 2 != 2; with 1_B replaced by 0 it is 0, idempotent, but
        # sigma gamma' is the identity, not 0 o -
        cat = unit_dg_category()
        m, ident = self.identity_witness(cat, "*")
        cat.identities["*"] = Elt(K0, 0, (unit,))
        assert message in self.failures(m, "*", ident, ident)


class TestModulePresentation:
    def test_representable_single_generators(self, cats):
        cat = cats["ext"]
        m = representable(cat, "*", RIGHT)
        pres = module_presentation(m)
        assert pres.surjective
        assert pres.gamma_phi_is_zero()

    def test_twisted_presentation_has_mod_two_column(self):
        cat = unit_dg_category()
        ts = TensorSpace(K0, K0)
        twisted = ChainMap(ts.complex, K0, 0, {0: IntMatrix.from_rows([[2]])})
        m = DGModule(cat, {"*": K0}, {("*", "*"): twisted})
        pres = module_presentation(m)
        cell = pres.cells[0]
        assert cell.gamma == IntMatrix.from_rows([[2]])
        assert cell.cokernel == FPAbGroup.canonical(0, [2])
        assert not cell.surjective

    def test_gamma_phi_zero_on_sums(self, cats):
        cat = cats["T2"]
        m = direct_sum_modules(representable(cat, "a", RIGHT),
                               representable(cat, "b", RIGHT))
        pres = module_presentation(m)
        assert pres.surjective
        assert pres.gamma_phi_is_zero()


# -- iterating by the hom index ------------------------------------------------
#
# Every scan below used to run over each pair of objects and skip the pairs
# without a nonzero hom; the package now iterates `nonzero_homs`, `homs_out`
# and `homs_in`.  The reference_* functions are the pair scans, kept as
# oracles: results, failure lists and the counit solver's linear system
# must be the same, in the same order.


def reference_representable(cat, k, side):
    right = side == RIGHT
    values = {x: cat.hom(x, k) if right else cat.hom(k, x) for x in cat.objects}
    actions = {}
    for u in cat.objects:
        for v in cat.objects:
            table = cat.compose_table.get((u, v, k) if right else (k, u, v))
            if table is not None:
                actions[(u, v)] = table
    return DGModule(cat, values, actions, side)


def reference_direct_sum_actions(m1, m2):
    """The actions of direct_sum_modules(m1, m2), from the pair scan."""
    base, side = m1.base, m1.side
    values = {x: direct_sum([m1.value(x), m2.value(x)]) for x in base.objects}
    actions = {}
    for u in base.objects:
        for v in base.objects:
            hom = base.hom(u, v)
            src, tgt = m1.ends(u, v)
            if hom.is_zero() or values[src].is_zero():
                continue
            ts_new = action_domain(side, hom, values[src])
            comps = {}
            for n in ts_new.complex.degrees():
                out = [[0] * ts_new.dim(n) for _ in range(values[tgt].rank(n))]
                for c, t in enumerate(tensor_basis(ts_new, n)):
                    if side == RIGHT:
                        deg, idx, f_deg, f_idx = (t.left_degree, t.left_index,
                                                  t.right_degree, t.right_index)
                    else:
                        f_deg, f_idx, deg, idx = (t.left_degree, t.left_index,
                                                  t.right_degree, t.right_index)
                    r1 = m1.value(src).rank(deg)
                    first = idx < r1
                    part, idx = (m1, idx) if first else (m2, idx - r1)
                    x = unit_at(part.value(src), deg, idx)
                    img = act_by(part, u, v, unit_at(hom, f_deg, f_idx), x)
                    off = 0 if first else m1.value(tgt).rank(img.degree)
                    for i, val in enumerate(img.vec):
                        if val:
                            out[off + i][c] = val
                comps[n] = IntMatrix.from_rows(out, ts_new.dim(n))
            actions[(u, v)] = ChainMap(ts_new.complex, values[tgt], 0, comps)
    return actions


def reference_transform_naturality_failures(tr):
    out, base = [], tr.source.base
    for u in base.objects:
        for v in base.objects:
            homuv = base.hom(u, v)
            if homuv.is_zero() or tr.source.value(v).is_zero():
                continue
            for y in all_basis_elts(tr.source.value(v)):
                for f in all_basis_elts(homuv):
                    sign = -1 if (f.degree * tr.degree) % 2 else 1
                    lhs = tr.apply(u, dot(tr.source, u, v, y, f))
                    rhs = sign * dot(tr.target, u, v, tr.apply(v, y), f)
                    if lhs != rhs:
                        out.append(f"naturality fails at ({u},{v}) on "
                                   f"deg ({y.degree},{f.degree})")
    return out


def reference_cauchy_naturality_failures(cd):
    out, base = [], cd.m.base

    def failed(where, hom, h, u, v, slots):
        # one message per failing basis element of N u (x) M v, by (degree, index)
        out.extend(f"eps naturality in {where}: {hom} basis (degree {h.degree}, index "
                   f"{h.vec.index(1)}), N {u} (x) M {v} basis (degree {q}, index {j})"
                   for q, j in sorted(slots))

    for u in base.objects:
        for v in base.objects:
            nu, mv = cd.n.value(u), cd.m.value(v)
            if nu.is_zero() or mv.is_zero():
                continue
            ts = cd.eps_space(u, v)

            def slot(n_elt, m_elt):
                q = n_elt.degree + m_elt.degree
                return q, ts.slot_at(q, n_elt.degree, n_elt.vec.index(1), m_elt.vec.index(1))

            for u2 in base.objects:
                homuu2 = base.hom(u, u2)
                if homuu2.is_zero():
                    continue
                for g in all_basis_elts(homuu2):
                    slots = []
                    for n_elt in all_basis_elts(nu):
                        gn = dot(cd.n, u, u2, g, n_elt)
                        for m_elt in all_basis_elts(mv):
                            lhs = eps_apply(cd, u2, v, gn, m_elt)
                            rhs = compose_elts(base, 
                                v, u, u2, g, eps_apply(cd, u, v, n_elt, m_elt))
                            if lhs != rhs:
                                slots.append(slot(n_elt, m_elt))
                    failed(f"U fails at ({u}->{u2},{v})", f"hom({u},{u2})", g, u, v, slots)
            for v2 in base.objects:
                homv2v = base.hom(v2, v)
                if homv2v.is_zero():
                    continue
                for f in all_basis_elts(homv2v):
                    slots = []
                    for n_elt in all_basis_elts(nu):
                        for m_elt in all_basis_elts(mv):
                            mf = dot(cd.m, v2, v, m_elt, f)
                            sign = -1 if (m_elt.degree * f.degree) % 2 else 1
                            lhs = eps_apply(cd, u, v2, n_elt, mf)
                            rhs = sign * compose_elts(base, 
                                v2, v, u, eps_apply(cd, u, v, n_elt, m_elt), f)
                            if lhs != rhs:
                                slots.append(slot(n_elt, m_elt))
                    failed(f"V fails at ({u},{v2}->{v})", f"hom({v2},{v})", f, u, v, slots)
    return out


def reference_verify_cauchy_data(cd):
    """(ok, witness) of `verify_cauchy_data` from the snake identity written
    out by hand, one basis element at a time."""
    for (e_obj, x, y) in cd.eta:
        if x.degree + y.degree != 0:
            return False, f"eta term at {e_obj} has degrees ({x.degree},{y.degree})"
    for x_obj in cd.m.base.objects:
        mx = cd.m.value(x_obj)
        if mx.is_zero():
            continue
        for r in mx.degrees():
            for u in basis_elts(mx, r):
                total = Elt(mx, r, (0,) * mx.rank(r))
                for (e_obj, x_i, y_i) in cd.eta:
                    f = eps_apply(cd, e_obj, x_obj, y_i, u)
                    total = total + act(cd.m, x_obj, e_obj, x_i, f)
                if total != u:
                    return False, (f"snake fails at object {x_obj}, degree {r}, "
                                   f"basis index {u.vec.index(1)}")
    return True, None


def reference_module_presentation(m, generators=None):
    """The cells of `module_presentation` from the scan that read
    hom(x, b) for every object x and every generator at b."""
    base = m.base
    if generators is None:
        generators = [(b, g) for b in base.objects for g in all_basis_elts(m.value(b))]
    cells = []
    for x_obj in base.objects:
        mx = m.value(x_obj)
        if mx.is_zero():
            continue
        for r in mx.degrees():
            if mx.rank(r) == 0:
                continue
            cols, labels = [], []
            for j, (b_obj, g) in enumerate(generators):
                fdeg = r - g.degree
                for idx, f in enumerate(basis_elts(base.hom(x_obj, b_obj), fdeg)):
                    cols.append(dot(m, x_obj, b_obj, g, f).vec)
                    labels.append((j, fdeg, idx))
            gamma = IntMatrix.from_cols(cols, mx.rank(r))
            cells.append(dgcat.PresentationCell(x_obj, r, gamma, labels, kernel_basis(gamma),
                                                cokernel(gamma).group))
    return cells


def reference_counit_eps(cat, k):
    """The eps of representable_cauchy_data(cat, k), from the pair scan."""
    eps = {}
    for u in cat.objects:
        for v in cat.objects:
            table = cat.compose_table.get((v, k, u))
            if table is not None:
                eps[(u, v)] = table
    return eps


def reference_counit_system(m, n_mod, eta):
    """The unknown layout (one (u, v, d) block per eps matrix) and the
    linear system (rows, rhs) of solve_cauchy_counit, from the pair scans."""
    base = m.base
    spaces, entries = {}, BlockLayout()
    for u in base.objects:
        for v in base.objects:
            nu, mv, target = n_mod.value(u), m.value(v), base.hom(v, u)
            if nu.is_zero() or mv.is_zero() or target.is_zero():
                continue
            ts = TensorSpace(nu, mv)
            for d in ts.complex.degrees():
                entries.add(0, (u, v, d), target.rank(d), ts.dim(d))
            spaces[(u, v)] = (ts, target)
    total = entries.dim(0)
    rows, rhs = [], []

    def add_equation(lin_terms, const):
        block = [[0] * total for _ in range(const.cx.rank(const.degree))]
        for coeff, u, v, n_elt, m_elt, post in lin_terms:
            if (u, v) not in spaces:
                continue
            ts, target = spaces[(u, v)]
            d = n_elt.degree + m_elt.degree
            if target.rank(d) == 0 or ts.dim(d) == 0:
                continue
            pair = embed_pair(ts, n_elt.degree, n_elt.vec, m_elt.degree, m_elt.vec)
            for o, f in enumerate(basis_elts(target, d)):
                scatter_kron(block, 0, entries.slot(0, (u, v, d), o),
                             IntMatrix.column(post(f).vec), IntMatrix(1, len(pair), pair), coeff)
        rows.extend(block)
        rhs.extend(const.vec)

    def zero(tgt, deg):
        return Elt(tgt, deg, (0,) * tgt.rank(deg))

    for x_obj in base.objects:
        mx = m.value(x_obj)
        for r in mx.degrees():
            for u_elt in basis_elts(mx, r):
                add_equation([(1, e_obj, x_obj, y_i, u_elt,
                               lambda f, e_obj=e_obj, x_i=x_i, x_obj=x_obj:
                               act(m, x_obj, e_obj, x_i, f))
                              for (e_obj, x_i, y_i) in eta], u_elt)
    for u, u2, v in itertools.product(base.objects, repeat=3):
        homuu2, nu, mv = base.hom(u, u2), n_mod.value(u), m.value(v)
        if homuu2.is_zero() or nu.is_zero() or mv.is_zero():
            continue
        for g in all_basis_elts(homuu2):
            for n_elt in all_basis_elts(nu):
                gn = dot(n_mod, u, u2, g, n_elt)
                for m_elt in all_basis_elts(mv):
                    add_equation([(1, u2, v, gn, m_elt, lambda f: f),
                                  (-1, u, v, n_elt, m_elt,
                                   lambda f, g=g, v=v, u=u, u2=u2: compose_elts(base, v, u, u2, g, f))],
                                 zero(base.hom(v, u2), g.degree + n_elt.degree + m_elt.degree))
    for v2, v, u in itertools.product(base.objects, repeat=3):
        homv2v, nu, mv = base.hom(v2, v), n_mod.value(u), m.value(v)
        if homv2v.is_zero() or nu.is_zero() or mv.is_zero():
            continue
        for f in all_basis_elts(homv2v):
            for n_elt in all_basis_elts(nu):
                for m_elt in all_basis_elts(mv):
                    sign = -1 if (m_elt.degree * f.degree) % 2 else 1
                    add_equation([(1, u, v2, n_elt, dot(m, v2, v, m_elt, f), lambda h: h),
                                  (-sign, u, v, n_elt, m_elt,
                                   lambda h, f=f, v2=v2, v=v, u=u: compose_elts(base, v2, v, u, h, f))],
                                 zero(base.hom(v2, u), n_elt.degree + m_elt.degree + f.degree))
    # the chain-map rows that follow do not depend on how the pairs were found
    return entries, rows, rhs


def signed_rows(rows, rhs):
    """The rows of a system with their right-hand sides, each negated if
    its first nonzero entry is negative, sorted: the rows as a multiset up
    to the sign of each."""
    out = []
    for row, b in zip(rows, rhs):
        row = list(row) + [b]
        out.append(row if next((x for x in row if x), 1) > 0 else [-x for x in row])
    return sorted(out)


def solve_against_the_reference(m, n_mod, eta):
    """solve_cauchy_counit(m, n_mod, eta), checking that the system it
    solves has the reference's unknowns, and the reference's equation rows
    and right-hand side up to order and the sign of each row, followed by
    the chain-map rows; and that the reference's rows with those chain-map
    rows solve to the same eps.  Returns the result and the reference's
    unknowns."""
    systems = []
    real = dgcat.solve_matrix

    def recorded(a, b):
        systems.append((a, b))
        return real(a, b)

    dgcat.solve_matrix = recorded
    try:
        cd = solve_cauchy_counit(m, n_mod, eta)
    finally:
        dgcat.solve_matrix = real
    entries, rows, rhs = reference_counit_system(m, n_mod, eta)
    keys = [key for key, _, _, _ in entries.blocks(0)]
    if not rows:
        assert systems == []
        return cd, keys
    (a, b), = systems
    assert a.cols == entries.dim(0)
    got_rows, got_rhs, n = a.to_lists(), list(b.col(0)), len(rows)
    assert signed_rows(got_rows[:n], got_rhs[:n]) == signed_rows(rows, rhs)
    ref = zlinalg.solve_matrix(IntMatrix.from_rows(rows + got_rows[n:], a.cols),
                               IntMatrix.column(rhs + got_rhs[n:]))
    assert (cd is None) == (ref is None)
    for (u, v, d), r, c, off in entries.blocks(0) if ref is not None else ():
        assert cd.eps[(u, v)].comp(d) == IntMatrix(r, c, ref.col(0)[off:off + r * c])
    return cd, keys


def window_cats():
    return [ell_op_window_category(w) for w in range(7)]


def fixture_and_window_cats(cats):
    return list(cats.values()) + window_cats()


def scaled_at(tr, x, k):
    comps = dict(tr.components)
    comps[x] = k * tr.component(x)
    return ModuleTransform(tr.source, tr.target, tr.degree, comps)


def eps_variants(cd):
    """eps with one component dropped, and with one entry of one component
    changed: each breaks naturality somewhere (scaling all of eps would not)."""
    for key, table in cd.eps.items():
        yield {k: t for k, t in cd.eps.items() if k != key}
        comps = table.comps()
        n0 = min(comps)
        entries = list(comps[n0].entries())
        entries[0] += 1
        comps[n0] = IntMatrix(comps[n0].rows, comps[n0].cols, entries)
        yield {**cd.eps, key: Proto(table.source, table.target, 0, comps)}


class TestHomIndex:
    def test_homs_in_follow_the_scan_over_object_pairs(self, cats):
        m, _ = with_zero_homs(*twisted_x2_pair())
        for cat in fixture_and_window_cats(cats) + [m.base]:
            scan = [(u, v, cat.hom(u, v)) for u in cat.objects for v in cat.objects
                    if not cat.hom(u, v).is_zero()]
            for v in cat.objects:
                assert cat.homs_in(v) == [(u, h) for u, b, h in scan if b == v]
        assert ell_op_window_category(1).homs_in("absent") == []

    def test_representables_equal_the_reference(self, cats):
        for cat in fixture_and_window_cats(cats):
            for k in cat.objects:
                for side in (RIGHT, LEFT):
                    mod, ref = representable(cat, k, side), reference_representable(cat, k, side)
                    assert mod.values == ref.values
                    assert list(mod.actions.items()) == list(ref.actions.items())

    def test_direct_sums_equal_the_reference(self, cats):
        for cat in fixture_and_window_cats(cats):
            for side in (RIGHT, LEFT):
                m1 = representable(cat, cat.objects[0], side)
                m2 = suspend_module(representable(cat, cat.objects[-1], side), 1)
                got = direct_sum_modules(m1, m2)
                want = reference_direct_sum_actions(m1, m2)
                assert list(got.actions) == list(want)
                assert all(got.actions[key] == act for key, act in want.items())

    def test_transform_failures_equal_the_reference(self, cats):
        seen = 0
        for cat in fixture_and_window_cats(cats):
            for k in cat.objects:
                m = representable(cat, k, RIGHT)
                ident = ModuleTransform(m, m, 0, {x: identity_map(m.value(x)) for x in cat.objects})
                assert ident.naturality_failures() == []
                for x in cat.objects:
                    if m.value(x).is_zero():
                        continue
                    tr = scaled_at(ident, x, 2)
                    got = tr.naturality_failures()
                    assert got == reference_transform_naturality_failures(tr)
                    seen += bool(got)
        assert seen > 50

    def test_counit_eps_equals_the_reference(self, cats):
        for cat in fixture_and_window_cats(cats):
            for k in cat.objects:
                assert list(representable_cauchy_data(cat, k).eps.items()) == \
                    list(reference_counit_eps(cat, k).items())

    def test_cauchy_failures_equal_the_reference(self, cats):
        seen = 0
        for cat in fixture_and_window_cats(cats):
            for k in cat.objects:
                cd = representable_cauchy_data(cat, k)
                assert cauchy_naturality_failures(cd) == []
                for eps in eps_variants(cd):
                    bad = CauchyData(cd.m, cd.n, cd.eta, eps)
                    got = cauchy_naturality_failures(bad)
                    assert got == reference_cauchy_naturality_failures(bad)
                    seen += bool(got)
        assert seen > 50

    def test_module_presentations_equal_the_reference(self, cats):
        for cat in fixture_and_window_cats(cats):
            mods = [representable(cat, k, RIGHT) for k in cat.objects]
            mods.append(direct_sum_modules(mods[0], suspend_module(mods[-1], 1)))
            for m in mods:
                assert module_presentation(m).cells == reference_module_presentation(m)
            # explicit generators, last object first: columns keep this order
            gens = [(b, g) for b in reversed(cat.objects) for g in all_basis_elts(mods[-1].value(b))]
            assert module_presentation(mods[-1], gens).cells == \
                reference_module_presentation(mods[-1], gens)
        for w in range(1, 5):
            j_mod = weight_J(w)[1]
            assert module_presentation(j_mod).cells == reference_module_presentation(j_mod)

    def test_counit_system_equals_the_reference(self, cats):
        pairs = [(cat, k, c) for cat in fixture_and_window_cats(cats) for k in cat.objects
                 for c in (1, 2)]
        for cat, k, c in pairs:
            m, n = representable(cat, k, RIGHT), representable(cat, k, LEFT)
            one = cat.identity(k)
            eta = [(k, c * one, one)]
            cd, keys = solve_against_the_reference(m, n, eta)
            if c == 1:
                assert cd is not None and verify_cauchy_data(cd).ok
                assert list(cd.eps) == list(dict.fromkeys((u, v) for u, v, _ in keys))
            else:
                assert cd is None

    def test_solved_counit_is_composition(self, cats):
        # the counit system of a representable pair has one solution:
        # composition, with a missing component read as zero
        for cat in fixture_and_window_cats(cats):
            for k in cat.objects:
                one = cat.identity(k)
                got = solve_cauchy_counit(representable(cat, k, RIGHT),
                                          representable(cat, k, LEFT), [(k, one, one)]).eps
                want = representable_cauchy_data(cat, k).eps
                for key in {**got, **want}:
                    assert (got[key].comps() if key in got else {}) == \
                        (want[key].comps() if key in want else {})


def criterion_10_mutations(cd):
    """The eps of acceptance criterion 10's mutations: every component
    negated, every component doubled, and eps erased."""
    return [{key: Proto(t.source, t.target, 0, {q: k * mm for q, mm in t.comps().items()})
             for key, t in cd.eps.items()} for k in (-1, 2)] + [{}]


class TestCauchyEquations:
    """`verify_cauchy_data` evaluates the equations of `_snake_equations`;
    its reports equal those of the snake written out by hand."""

    def test_snake_reports_equal_the_reference(self, cats):
        data = [representable_cauchy_data(cat, k)
                for cat in fixture_and_window_cats(cats) for k in cat.objects]
        data.append(two_term_cauchy_fixture(cats["ext"], "*"))
        # eta terms of total degree 1, alone and after a lawful term
        cd, one = representable_cauchy_data(cats["ext"], "*"), cats["ext"].identity("*")
        x1 = unit_at(cd.m.value("*"), 1, 0)
        data += [CauchyData(cd.m, cd.n, eta, cd.eps)
                 for eta in ([("*", x1, one)], [("*", one, one), ("*", x1, one)])]
        failed = 0
        for cd in data:
            for eps in [cd.eps] + criterion_10_mutations(cd) + list(eps_variants(cd)):
                mutated = CauchyData(cd.m, cd.n, cd.eta, eps)
                rep = verify_cauchy_data(mutated)
                assert (rep.ok, rep.witness) == reference_verify_cauchy_data(mutated)
                failed += not rep.ok
        assert failed > 100
        assert verify_cauchy_data(data[-1]).witness == "eta term at * has degrees (1,0)"

    def test_snake_check_reads_no_naturality_equation(self, cats, monkeypatch):
        def refuse(*args):
            raise AssertionError("the snake check walked the naturality equations")

        monkeypatch.setattr(dgcat, "_naturality_equations", refuse)
        cd = representable_cauchy_data(cats["sub"], "LZ")
        assert verify_cauchy_data(cd).ok
        assert not verify_cauchy_data(CauchyData(cd.m, cd.n, cd.eta, {})).ok


class CountingTables(dict):
    """Composition tables that count their lookups."""

    def __init__(self, tables, count):
        super().__init__(tables)
        self.count = count

    def get(self, key, default=None):
        self.count[0] += 1
        return super().get(key, default)


def index_reads(monkeypatch, cat, run) -> int:
    """Reads of hom, of the hom index and of the composition tables while
    run() runs."""
    count = [0]
    for name in ("hom", "nonzero_homs", "homs_out", "homs_in"):
        def counting(self, *args, real=getattr(FiniteDGCategory, name)):
            count[0] += 1
            return real(self, *args)

        monkeypatch.setattr(FiniteDGCategory, name, counting)
    cat.compose_table = CountingTables(cat.compose_table, count)
    run()
    monkeypatch.undo()
    return count[0]


def all_values_nonzero(window):
    """The weight of Tot against a double complex with a column at every
    object of the window: no pair of objects has a zero value."""
    cat, j_mod = weight_J(window)
    a = DoubleComplex({c: K0 for c in range(-window, window + 1)}, {})
    return cat, CauchyData(j_mod, double_complex_as_left_module(cat, a), [], {})


class TestLinearGrowth:
    WINDOWS = (8, 16)

    def test_cauchy_naturality_reads_grow_linearly(self, monkeypatch):
        # the pair scan read hom (2w + 1)^3 times on the window w
        reads = []
        for w in self.WINDOWS:
            cat, cd = all_values_nonzero(w)
            reads.append(index_reads(monkeypatch, cat, lambda: cauchy_naturality_failures(cd)))
        assert 0 < reads[1] <= 2 * reads[0]

    def test_module_presentation_reads_grow_linearly(self, monkeypatch):
        # the scan read hom once per object and generator: 4,421 times at w = 16
        reads = []
        for w in self.WINDOWS:
            cat, j_mod = weight_J(w)
            reads.append(index_reads(monkeypatch, cat, lambda: module_presentation(j_mod)))
        assert 0 < reads[1] <= 2 * reads[0]

    def test_representable_reads_grow_linearly(self, monkeypatch):
        # the pair scan looked up (2w + 1)^2 composition tables
        for side in (RIGHT, LEFT):
            reads = []
            for w in self.WINDOWS:
                cat = ell_op_window_category(w)
                reads.append(index_reads(monkeypatch, cat, lambda: representable(cat, 0, side)))
            assert 0 < reads[1] <= 2 * reads[0]


def object_pair_loops(source: str):
    """Lines of the loops over some `.objects` that hold another loop over
    some `.objects`, as a nested for statement or a later comprehension
    clause."""
    def iterates_objects(loop):
        return any(isinstance(a, ast.Attribute) and a.attr == "objects"
                   for a in ast.walk(loop.iter))

    def object_loops(nodes):
        return [n for node in nodes for n in ast.walk(node)
                if isinstance(n, (ast.For, ast.comprehension)) and iterates_objects(n)]

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.For) and iterates_objects(node):
            inside = node.body + node.orelse
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            first = next((i for i, g in enumerate(node.generators) if iterates_objects(g)), None)
            if first is None:
                continue
            inside = node.generators[first + 1:] + [
                getattr(node, f) for f in ("elt", "key", "value") if hasattr(node, f)]
        else:
            continue
        if object_loops(inside):
            lines.append(node.lineno)
    return lines


class TestNoObjectPairLoops:
    def test_dgcat_has_no_object_pair_loop(self):
        assert object_pair_loops(Path(dgcat.__file__).read_text()) == []

    @pytest.mark.parametrize("source", [
        "for u in cat.objects:\n    for v in cat.objects:\n        pass\n",
        "for u in cat.objects:\n    if u:\n        xs = [v for v in base.objects]\n",
        "pairs = {(u, v) for u in cat.objects for v in self.base.objects}\n",
        "xs = [[v for v in cat.objects] for u in enumerate(cat.objects)]\n",
    ])
    def test_the_check_finds_pair_loops(self, source):
        assert object_pair_loops(source) == [1]

    def test_the_check_passes_loops_over_the_hom_index(self):
        source = ("for u in cat.objects:\n    for v, h in cat.homs_in(u):\n        pass\n"
                  "for u, v, h in cat.nonzero_homs():\n    for x in cat.objects:\n        pass\n")
        assert object_pair_loops(source) == []


ELEMENTWISE_READERS = {"_evaluate", "compose_elts", "act", "act_by", "dot", "eps_apply",
                       "embed_pair"}


def elementwise_readers(package: Path):
    """(file, qualified name) of each definition in the package named like
    one of the elementwise readers, and (file, line) of each lambda in
    dgcat.py.  `ell.EllModule.act` is the matrix by which the generator of
    the category ell acts on a presheaf, not an element reader."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for cls in [None] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            body = tree.body if cls is None else cls.body
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and node.name in ELEMENTWISE_READERS:
                    name = node.name if cls is None else f"{cls.name}.{node.name}"
                    if (path.name, name) != ("ell.py", "EllModule.act"):
                        found.append((path.name, name))
        if path.name == "dgcat.py":
            found += [(path.name, n.lineno) for n in ast.walk(tree) if isinstance(n, ast.Lambda)]
    return found


class TestNoElementwiseReaders:
    """Tables are read as protos (a table with one factor fixed), never one
    element at a time; the elementwise readers live in tests/conftest.py as
    oracles."""

    def test_src_defines_no_elementwise_reader(self):
        assert elementwise_readers(Path(dgcat.__file__).parent) == []

    def test_the_check_finds_readers_and_lambdas(self, tmp_path):
        (tmp_path / "dgcat.py").write_text(
            "class DGModule:\n    def dot(self):\n        return lambda f: f\n"
            "def _evaluate():\n    pass\n")
        (tmp_path / "ell.py").write_text(
            "class EllModule:\n    def act(self):\n        pass\n"
            "class Other:\n    def act(self):\n        pass\n")
        assert elementwise_readers(tmp_path) == [
            ("dgcat.py", "_evaluate"), ("dgcat.py", "DGModule.dot"), ("dgcat.py", 3),
            ("ell.py", "Other.act")]


def graded_object_types(package: Path):
    """(file, name, line) of each `GradedObject` class, `from_ranks`
    definition and `.carrier` read in the package: a graded object is a
    complex with zero differentials, and a Complex keeps its own ranks."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name == "GradedObject" \
                    or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name == "from_ranks":
                found.append((path.name, node.name, node.lineno))
            elif isinstance(node, ast.Attribute) and node.attr == "carrier":
                found.append((path.name, "carrier", node.lineno))
    return found


class TestGradedObjectsAreComplexes:
    def test_src_has_one_graded_representation(self):
        assert graded_object_types(Path(dgcat.__file__).parent) == []

    def test_the_check_finds_the_second_representation(self, tmp_path):
        (tmp_path / "complexes.py").write_text(
            "class GradedObject:\n    pass\n"
            "class Complex:\n    @classmethod\n    def from_ranks(cls):\n"
            "        return cls.carrier\n")
        assert graded_object_types(tmp_path) == [
            ("complexes.py", "GradedObject", 1), ("complexes.py", "from_ranks", 5),
            ("complexes.py", "carrier", 6)]


def thin_category(objects, arrows):
    """Objects in the given order, hom Z in degree 0 on each arrow and each
    identity, and composition 1 (x) 1 = 1; `arrows` must be closed under
    composition."""
    homs = {(x, x): K0 for x in objects}
    homs.update({arrow: K0 for arrow in arrows})
    table = ChainMap(TensorSpace(K0, K0).complex, K0, 0, {0: IntMatrix.from_rows([[1]])})
    tables = {(a, b, c): table for a, b, c in itertools.product(objects, repeat=3)
              if (a, b) in homs and (b, c) in homs}
    return FiniteDGCategory(objects, homs, tables, {x: Elt(K0, 0, (1,)) for x in objects})


# a span and a cospan, whose pairs are reached through one side only, and a
# chain; objects listed out of name order
THIN = {
    "span": (("b", "s", "a"), [("s", "a"), ("s", "b")]),
    "cospan": (("t", "b", "a"), [("a", "t"), ("b", "t")]),
    "chain": (("c", "a", "b"), [("a", "b"), ("b", "c"), ("a", "c")]),
}


@st.composite
def thin_cauchy_data(draw):
    """Representable M and N over a thin category, with eps drawn at random
    on the pairs whose values and hom are nonzero (some left out)."""
    cat = thin_category(*THIN[draw(st.sampled_from(sorted(THIN)))])
    m = representable(cat, draw(st.sampled_from(cat.objects)), RIGHT)
    n = representable(cat, draw(st.sampled_from(cat.objects)), LEFT)
    if draw(st.booleans()):
        n = direct_sum_modules(n, representable(cat, draw(st.sampled_from(cat.objects)), LEFT))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    eps = {}
    for u, v in itertools.product(cat.objects, repeat=2):
        src = TensorSpace(n.value(u), m.value(v)).complex
        target = cat.hom(v, u)
        if src.is_zero() or target.is_zero() or rng.random() < 0.2:
            continue
        comps = {d: IntMatrix(target.rank(d), src.rank(d),
                              [rng.randint(-1, 1) for _ in range(target.rank(d) * src.rank(d))])
                 for d in src.degrees() if target.rank(d)}
        eps[(u, v)] = Proto(src, target, 0, comps)
    return CauchyData(m, n, [], eps)


class TestThinCategories:
    def test_thin_categories_are_lawful(self):
        for objects, arrows in THIN.values():
            assert thin_category(objects, arrows).validate() == []

    @settings(max_examples=120, deadline=None)
    @given(thin_cauchy_data())
    def test_cauchy_failures_equal_the_reference(self, cd):
        assert cauchy_naturality_failures(cd) == reference_cauchy_naturality_failures(cd)

    def test_pair_reached_through_a_span_only(self):
        # (a, b) is joined by s -> a, s -> b alone: its V equation compares
        # eps_{a,s}(n (x) m.f) with eps_{a,b}(n (x) m) o f, and hom(b, a) = 0
        cat = thin_category(*THIN["span"])
        m, n = representable(cat, "b", RIGHT), representable(cat, "a", LEFT)
        src = TensorSpace(n.value("a"), m.value("s")).complex
        cd = CauchyData(m, n, [], {("a", "s"): Proto(src, K0, 0, {0: IntMatrix.from_rows([[1]])})})
        failures = cauchy_naturality_failures(cd)
        assert "eps naturality in V fails at (a,s->b): hom(s,b) basis (degree 0, index 0), " \
            "N a (x) M b basis (degree 0, index 0)" in failures
        assert failures == reference_cauchy_naturality_failures(cd)

    @settings(max_examples=60, deadline=None)
    @given(thin_cauchy_data())
    def test_counit_system_equals_the_reference(self, cd):
        solve_against_the_reference(cd.m, cd.n, [])


class TestOneEvaluator:
    """The readers of the tables: `after` and `before` (composition),
    `bare_action` and `orbit` (module actions) and `eps_map` (the counit).
    Each fixes one factor of its table through `TensorSpace.inserted`: a
    missing table is the zero map, and a wrong-length element raises
    ShapeMismatch from `inserted` either way."""

    @staticmethod
    def _wrong_length(cx: Complex, degree: int) -> Elt:
        return Elt(Complex.concentrated(degree, cx.rank(degree) + 1), degree,
                   (0,) * (cx.rank(degree) + 1))

    def test_compose_elts(self):
        cat = exterior_g_category(1)
        bare = FiniteDGCategory(cat.objects, cat.homs, {}, cat.identities)
        hom = cat.hom("*", "*")
        u, one = unit_at(hom, 1, 0), cat.identity("*")
        for read in (cat.after, cat.before):
            assert read("*", "*", "*", one) == identity_map(hom)
            assert read("*", "*", "*", u).comp(0).col(0) == u.vec
        for read in (bare.after, bare.before):
            assert read("*", "*", "*", one) == Proto.zero(hom, hom, 0)
        for c in (cat, bare):
            for read in (c.after, c.before):
                with pytest.raises(ShapeMismatch, match="element length"):
                    read("*", "*", "*", self._wrong_length(hom, 0))

    @pytest.mark.parametrize("side", [RIGHT, LEFT])
    def test_act(self, side):
        cat = exterior_g_category(1)
        m = representable(cat, "*", side)
        bare = DGModule(cat, m.values, {}, side)
        hom, x = cat.hom("*", "*"), unit_at(m.value("*"), 1, 0)
        one = cat.identity("*")
        assert m.bare_action("*", "*", one) == identity_map(m.value("*"))
        assert _image(m.orbit("*", "*", x), one) == x
        assert bare.bare_action("*", "*", one).is_zero()
        assert bare.orbit("*", "*", x).is_zero()
        for mod in (m, bare):
            with pytest.raises(ShapeMismatch, match="element length"):
                mod.bare_action("*", "*", self._wrong_length(hom, 0))
            with pytest.raises(ShapeMismatch, match="element length"):
                mod.orbit("*", "*", self._wrong_length(m.value("*"), 1))

    def test_eps_apply(self):
        cd = representable_cauchy_data(exterior_g_category(1), "*")
        bare = CauchyData(cd.m, cd.n, cd.eta, {})
        y, x = unit_at(cd.n.value("*"), 0, 0), unit_at(cd.m.value("*"), 1, 0)
        hom = cd.m.base.hom("*", "*")
        ts = cd.eps_space("*", "*")
        assert _image(compose(cd.eps_map("*", "*"), ts.inserted(LEFT, 0, y.vec)), x) == \
            unit_at(hom, 1, 0)
        assert cd.eps_map("*", "*") is cd.eps[("*", "*")]
        assert bare.eps_map("*", "*") == Proto.zero(ts.complex, hom, 0)
        with pytest.raises(ShapeMismatch, match="element length"):
            ts.inserted(LEFT, 0, self._wrong_length(cd.n.value("*"), 0).vec)


# -- composition tables and module sums by placement ------------------------
#
# dg_subcategory_of_complexes used to build two Protos and one compose per
# basis pair of each tensor complex, and direct_sum_modules one Elt and one
# act_by per basis element of each action domain.  The reference_* functions
# are those builders, kept as oracles: tables and actions must be equal, in
# the same order.


def _unit_vec(dim, k):
    v = [0] * dim
    v[k] = 1
    return tuple(v)


def reference_dg_subcategory_of_complexes(named):
    names = tuple(named)
    homs = {}
    spaces = {}
    for x in names:
        for y in names:
            hs = HomSpace(named[x], named[y])
            spaces[(x, y)] = hs
            homs[(x, y)] = hs.complex
    tables = {}
    for x in names:
        for y in names:
            for z in names:
                hs_xy, hs_yz, hs_xz = spaces[(x, y)], spaces[(y, z)], spaces[(x, z)]
                if hs_xy.complex.is_zero() or hs_yz.complex.is_zero() \
                   or hs_xz.complex.is_zero():
                    continue
                ts = TensorSpace(hs_yz.complex, hs_xy.complex)
                comps = {}
                for n in ts.complex.degrees():
                    cols = []
                    for t in tensor_basis(ts, n):
                        v = hs_yz.from_vector(
                            t.left_degree, _unit_vec(hs_yz.dim(t.left_degree), t.left_index))
                        u = hs_xy.from_vector(
                            t.right_degree, _unit_vec(hs_xy.dim(t.right_degree), t.right_index))
                        cols.append(hs_xz.to_vector(compose(v, u)))
                    comps[n] = IntMatrix.from_cols(cols, hs_xz.dim(n))
                tables[(x, y, z)] = ChainMap(ts.complex, hs_xz.complex, 0, comps)
    ids = {x: Elt(homs[(x, x)], 0, spaces[(x, x)].to_vector(identity_map(named[x])))
           for x in names}
    return FiniteDGCategory(names, homs, tables, ids)


def reference_direct_sum_modules(m1, m2):
    if m1.side != m2.side:
        raise ValueError("direct sum of a right and a left module")
    base, side = m1.base, m1.side
    values = {x: direct_sum([m1.value(x), m2.value(x)]) for x in base.objects}
    actions = {}
    for u, v, hom in base.nonzero_homs():
        src, tgt = m1.ends(u, v)
        if values[src].is_zero():
            continue
        ts_new = action_domain(side, hom, values[src])
        comps = {}
        for n in ts_new.complex.degrees():
            cols = ts_new.dim(n)
            out = [[0] * cols for _ in range(values[tgt].rank(n))]
            for c, t in enumerate(tensor_basis(ts_new, n)):
                if side == RIGHT:    # basis of M V (x) hom(U,V)
                    deg, idx, f_deg, f_idx = (t.left_degree, t.left_index,
                                              t.right_degree, t.right_index)
                else:                # basis of hom(U,V) (x) N U
                    f_deg, f_idx, deg, idx = (t.left_degree, t.left_index,
                                              t.right_degree, t.right_index)
                r1 = m1.value(src).rank(deg)
                first = idx < r1
                part, idx = (m1, idx) if first else (m2, idx - r1)
                x = Elt(part.value(src), deg, _unit_vec(part.value(src).rank(deg), idx))
                f = Elt(hom, f_deg, _unit_vec(hom.rank(f_deg), f_idx))
                img = act_by(part, u, v, f, x)
                off = 0 if first else m1.value(tgt).rank(img.degree)
                for i, val in enumerate(img.vec):
                    if val:
                        out[off + i][c] = val
            comps[n] = IntMatrix.from_rows(out, cols)
        actions[(u, v)] = ChainMap(ts_new.complex, values[tgt], 0, comps)
    return DGModule(base, values, actions, side)


SEEDS = st.integers(0, 2**32 - 1)


def small_complex(rng, graded=False):
    """rand_complex (or its graded object), or the zero complex one time in five."""
    if rng.random() < 0.2:
        return Complex.zero()
    return forget_U(rand_complex(rng, bricks=1)) if graded else rand_complex(rng, bricks=2)


class TestBuiltByPlacement:
    @settings(max_examples=60, deadline=None)
    @given(SEEDS, st.integers(1, 3))
    def test_composition_tables_equal_the_reference(self, seed, count):
        rng = random.Random(seed)
        named = {f"c{i}": small_complex(rng, graded=i == 2) for i in range(count)}
        got = dg_subcategory_of_complexes(named)
        want = reference_dg_subcategory_of_complexes(named)
        assert got.objects == want.objects and got.homs == want.homs
        assert list(got.compose_table.items()) == list(want.compose_table.items())
        assert got.identities == want.identities

    @settings(max_examples=80, deadline=None)
    @given(SEEDS, st.sampled_from([RIGHT, LEFT]), st.integers(-2, 2))
    def test_direct_sums_equal_the_per_basis_reference(self, seed, side, shift):
        rng = random.Random(seed)
        if rng.random() < 0.5:
            cat = dg_subcategory_of_complexes({"a": small_complex(rng),
                                               "b": small_complex(rng, graded=True)})
            m1, m2 = (representable(cat, rng.choice(cat.objects), side) for _ in range(2))
        else:
            cat = unit_dg_category()
            m1 = module_from_complex(cat, small_complex(rng), side)
            m2 = representable(cat, "*", side)
        if rng.random() < 0.2:   # a summand without actions: the zero module
            m2 = DGModule(cat, {}, {}, side)
        pairs = [(m1, suspend_module(m2, shift)), (suspend_module(m2, shift), m1)]
        for a, b in pairs:
            got, want = direct_sum_modules(a, b), reference_direct_sum_modules(a, b)
            assert got.values == want.values
            assert list(got.actions.items()) == list(want.actions.items())



# -- tables read as protos ------------------------------------------------------
#
# The axiom checks, gamma_proto and the graded-case retraction used to read
# their tables one basis element at a time.  The reference_* functions below
# are that code, kept as oracles: reports and maps must be equal on the
# fixtures and on every one-entry mutation of their tables.


def reference_validate(cat):
    failures = []
    for (a, b), h in cat.homs.items():
        for n in h.degrees():
            if not (h.diff(n) @ h.diff(n + 1)).is_zero():
                failures.append(f"d^2 != 0 on hom({a},{b}) at degree {n + 1}")
    for a in cat.objects:
        one = cat.identities.get(a)
        if one is None:
            failures.append(f"missing identity at {a}")
            continue
        if one.degree != 0 or not one.boundary().is_zero():
            failures.append(f"identity at {a} is not a 0-cycle")
    for (a, b, c), table in cat.compose_table.items():
        hab, hbc = cat.hom(a, b), cat.hom(b, c)
        for v in all_basis_elts(hbc):
            sign = -1 if v.degree % 2 else 1
            for u in all_basis_elts(hab):
                lhs = compose_elts(cat, a, b, c, v, u).boundary()
                rhs = compose_elts(cat, a, b, c, v.boundary(), u) + \
                    sign * compose_elts(cat, a, b, c, v, u.boundary())
                if lhs != rhs:
                    failures.append(
                        f"Leibniz fails on hom({b},{c})_{v.degree} o hom({a},{b})_{u.degree}")
    return failures + reference_scan_failures(cat)


def reference_module_validate(mod):
    failures = []
    for x_obj in mod.base.objects:
        mx = mod.value(x_obj)
        if mx.is_zero():
            continue
        for x in all_basis_elts(mx):
            if act_by(mod, x_obj, x_obj, mod.base.identity(x_obj), x) != x:
                failures.append(f"unit law fails on value({x_obj})")
                break
    return failures + reference_module_scan_failures(mod)


def reference_action_proto(mod, u, v, f):
    src_obj, tgt_obj = mod.ends(u, v)
    src, tgt = mod.value(src_obj), mod.value(tgt_obj)
    comps = {}
    for r in src.degrees():
        if src.rank(r) == 0 or tgt.rank(r + f.degree) == 0:
            continue
        if mod.side == RIGHT:
            cols = [dot(mod, u, v, x, f).vec for x in basis_elts(src, r)]
        else:
            cols = [dot(mod, u, v, f, x).vec for x in basis_elts(src, r)]
        comps[r] = IntMatrix.from_cols(cols, tgt.rank(r + f.degree))
    return Proto(src, tgt, f.degree, comps)


def reference_gamma_proto(wc, u, y):
    fu, coend = wc.f.value(u), wc.coend
    comps = {}
    for r in fu.degrees():
        if fu.rank(r) == 0:
            continue
        n, cols = r + y.degree, []
        for x in basis_elts(fu, r):
            vec = embed_pair(coend.tensor_space(u), y.degree, y.vec, x.degree, x.vec)
            amb = [0] * coend.ambient.rank(n)
            off = coend.slot(u, n) if vec else 0
            amb[off:off + len(vec)] = vec
            cols.append(coend.projection(n).apply(amb))
        comps[r] = IntMatrix.from_cols(cols, wc.colimit.rank(n))
    return Proto(fu, wc.colimit, y.degree, comps)


def reference_retraction(cd, summands):
    """The components of tau and xhat at each object, one basis element at
    a time."""
    base, out = cd.m.base, {}
    for x_obj in base.objects:
        mx = cd.m.value(x_obj)
        stack = BlockLayout()
        for i, s in enumerate(summands):
            for r in s.value(x_obj).degrees():
                stack.add(r, i, s.value(x_obj).rank(r))
        tx_rank = [sum(s.value(x_obj).rank(r) for s in summands) for r in mx.degrees()]
        tau_c, xhat_c = {}, {}
        for r, rank in zip(mx.degrees(), tx_rank):
            if not (mx.rank(r) and rank):
                continue
            cols = []
            for u in basis_elts(mx, r):
                vec = [0] * rank
                for i, (e_obj, x_i, y_i) in enumerate(cd.eta):
                    for idx, val in enumerate(eps_apply(cd, e_obj, x_obj, y_i, u).vec):
                        vec[stack.slot(r, i, idx)] = val
                cols.append(tuple(vec))
            tau_c[r] = IntMatrix.from_cols(cols, rank)
            xhat_c[r] = IntMatrix.from_cols(
                [act(cd.m, x_obj, e_obj, x_i, f).vec for e_obj, x_i, _ in cd.eta
                 for f in basis_elts(base.hom(x_obj, e_obj), r - x_i.degree)], mx.rank(r))
        out[x_obj] = (tau_c, xhat_c)
    return out


def one_entry_mutations(tables):
    """Each table dict with one entry of one component raised by 1, one
    mutation per entry of every table."""
    for key, table in tables.items():
        for n, mat in table.comps().items():
            for t in range(mat.rows * mat.cols):
                entries = list(mat.entries())
                entries[t] += 1
                comps = {**table.comps(), n: IntMatrix(mat.rows, mat.cols, entries)}
                yield {**tables, key: Proto(table.source, table.target, 0, comps)}


class TestTablesReadAsProtos:
    def test_category_reports_equal_the_reference(self, cats):
        failed = 0
        for cat in list(cats.values()) + [broken_window_category(2)]:
            assert cat.validate() == reference_validate(cat)
            for tables in one_entry_mutations(cat.compose_table):
                bad = FiniteDGCategory(cat.objects, cat.homs, tables, cat.identities)
                got = bad.validate()
                assert got == reference_validate(bad)
                failed += any(f.startswith("Leibniz") for f in got)
        assert failed > 20

    def test_module_reports_equal_the_reference(self, cats):
        mods = [weight_J(2)[1], representable(cats["sub"], "Z", RIGHT),
                representable(cats["sub"], "Z", LEFT)]
        for name in ("ext", "T2"):
            cat = cats[name]
            for side in (RIGHT, LEFT):
                m = representable(cat, cat.objects[-1], side)
                mods += [m, direct_sum_modules(m, suspend_module(m, 1))]
        failed = 0
        for mod in mods:
            for actions in [mod.actions] + list(one_entry_mutations(mod.actions)):
                bad = DGModule(mod.base, mod.values, actions, mod.side)
                got = bad.validate()
                assert got == reference_module_validate(bad)
                failed += bool(got)
                for u, v, hom in bad.base.nonzero_homs():
                    for f in all_basis_elts(hom):
                        assert bad.action_proto(u, v, f) == reference_action_proto(bad, u, v, f)
                if bad.side == RIGHT:
                    assert module_presentation(bad).cells == reference_module_presentation(bad)
        assert failed > 50

    def test_gamma_protos_equal_the_reference(self, cats):
        cat, seen = unit_dg_category(), 0
        colimits = [weighted_colimit(trivial_weight(cat), module_from_complex(cat, a, LEFT))
                    for a in (K0, LZ, M2, rand_complex(random.Random(3), bricks=3))]
        for name in ("T2", "ext"):
            for k, k2 in itertools.product(cats[name].objects, repeat=2):
                colimits.append(weighted_colimit(representable(cats[name], k, RIGHT),
                                                 representable(cats[name], k2, LEFT)))
        for wc in colimits:
            for u in wc.m.base.objects:
                for y in all_basis_elts(wc.m.value(u)):
                    assert wc.gamma_proto(u, y) == reference_gamma_proto(wc, u, y)
                    seen += 1
        assert seen > 10

    def test_retractions_equal_the_reference(self, cats):
        data = [representable_cauchy_data(cats[name], k)
                for name in ("I", "ext", "C2", "T2") for k in cats[name].objects]
        data.append(two_term_cauchy_fixture(cats["ext"], "*"))
        for cd in data:
            ret = g_retraction_from_cauchy(cd)
            summands = [suspend_module(representable(cd.m.base, e, RIGHT), x.degree)
                        for e, x, _ in cd.eta]
            for x_obj, (tau_c, xhat_c) in reference_retraction(cd, summands).items():
                assert ret.tau.component(x_obj).comps() == \
                    {r: m for r, m in tau_c.items() if not m.is_zero()}
                assert ret.xhat.component(x_obj).comps() == \
                    {r: m for r, m in xhat_c.items() if not m.is_zero()}
