"""The acceptance suite.

Twelve exit criteria, each a deterministic seeded check returning a
pass/fail result; the CLI `suite` verb and the test suite both run these.
All tolerances are exact: every comparison is integer matrix identity or
canonical-form equality of finitely presented groups.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, List

from . import complexes as _complexes
from . import cones as _cones
from . import monoidal as _monoidal
from . import totals as _totals
from .complexes import (
    ChainMap,
    Complex,
    Proto,
    compose,
    d_hom,
    default_probe_family,
    direct_sum_complexes,
    factors_uniquely,
    functor_L,
    functor_R,
    hom_complex,
    homology_H,
    identity_map,
    inverse_failures,
    make_complex,
    suspension,
    unit_complex,
)
from .cones import (
    cokernel_protosplit,
    cylinder_factorization,
    cone_homotopy_iso,
    mapping_cone,
    mc1,
    recognize_cone,
)
from .dgcat import (
    LEFT,
    RIGHT,
    CauchyData,
    basis_elts,
    coend_tensor,
    dg_subcategory_of_complexes,
    direct_sum_modules,
    exterior_g_category,
    g_retraction_from_cauchy,
    group_like_category,
    module_from_complex,
    representable,
    representable_cauchy_data,
    solve_cauchy_counit,
    suspend_module,
    trivial_weight,
    two_object_graded_category,
    unit_dg_category,
    verify_cauchy_data,
    weighted_colimit,
)
from .ell import decode, encode, yoneda_rank_check
from .monoidal import (
    _triangle_left,
    _triangle_right,
    decompose_LZ_tensor,
    sten_hom_isos,
    sten_iso,
    symmetry,
    tensor,
    tensor_proto,
    verify_duality_LR,
)
from .rand import (
    rand_chain_map,
    rand_complex,
    rand_double_complex,
    rand_matrix,
    rand_proto,
)
from .totals import (
    DoubleComplex,
    embed_i,
    tot_adjunction_check,
    tot_via_weighted_colimit,
    total_complex,
)
from .zlinalg import FPAbGroup, IntMatrix, determinant, smith_normal_form


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f" ({self.detail})" if self.detail and not self.passed else ""
        return f"[{status}] criterion {self.number:2d}: {self.name}{msg}"


def _check(ok, msg: str = "") -> None:
    """Raise AssertionError(msg) unless ok; unlike `assert`, it also runs
    under python -O."""
    if not ok:
        raise AssertionError(msg)


def _run(number: int, name: str, fn: Callable[[], None]) -> CriterionResult:
    try:
        fn()
        return CriterionResult(number, name, True)
    except AssertionError as exc:
        return CriterionResult(number, name, False, str(exc) or "assertion failed")
    except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
        return CriterionResult(number, name, False, f"{type(exc).__name__}: {exc}")


K0 = unit_complex()


def _m2() -> Complex:
    return make_complex({1: 1, 0: 1}, {1: [[2]]})


def criterion_1_snf(seed: int) -> CriterionResult:
    def check():
        rng = random.Random(seed)
        for _ in range(200):
            m = rand_matrix(rng, rng.randint(0, 6), rng.randint(0, 6), -5, 5)
            s = smith_normal_form(m)
            _check(s.U @ m @ s.V == s.D, "U M V != D")
            _check(determinant(s.U) in (1, -1), "U not unimodular")
            _check(determinant(s.V) in (1, -1), "V not unimodular")
            diag = s.diagonal
            nonzero = [d for d in diag if d]
            _check(all(d >= 0 for d in diag), "negative invariant factor")
            _check(list(diag[: len(nonzero)]) == nonzero, "zeros precede nonzeros")
            for a, b in zip(nonzero, nonzero[1:]):
                _check(b % a == 0, "divisibility chain broken")

    return _run(1, "Smith normal form contract on 200 random matrices", check)


def criterion_2_chain_axioms(seed: int) -> CriterionResult:
    def check():
        rng = random.Random(seed + 1)

        def check_square_zero(cx: Complex, what: str):
            for n in cx.degrees():
                _check((cx.diff(n) @ cx.diff(n + 1)).is_zero(), f"d^2 != 0 on {what}")

        for _ in range(12):
            a, b = rand_complex(rng), rand_complex(rng)
            check_square_zero(a, "complex")
            check_square_zero(hom_complex(a, b), "hom complex")
            check_square_zero(tensor(a, b), "tensor")
            f = rand_chain_map(rng, a, b)
            check_square_zero(mapping_cone(f).middle, "cone")
            check_square_zero(total_complex(rand_double_complex(rng)), "total complex")
        for cat in (exterior_g_category(1), two_object_graded_category(1)):
            for k in cat.objects:
                res = coend_tensor(representable(cat, k, RIGHT),
                                   representable(cat, k, LEFT))
                _check(res.verify_differential(), "coend differential fails")
        for _ in range(100):
            a, b, c = rand_complex(rng), rand_complex(rng), rand_complex(rng)
            f = rand_proto(rng, a, b, rng.randint(-1, 2))
            g = rand_proto(rng, b, c, rng.randint(-1, 2))
            sign = -1 if g.degree % 2 else 1
            lhs = d_hom(compose(g, f))
            rhs = compose(d_hom(g), f) + sign * compose(g, d_hom(f))
            _check(lhs == rhs, "Leibniz law fails")

    return _run(2, "chain axioms: d^2 = 0 everywhere; Leibniz on 100 proto pairs", check)


def criterion_3_homology(seed: int) -> CriterionResult:
    def check():
        rng = random.Random(seed + 2)
        h = homology_H(_m2())
        _check(h.at(0) == FPAbGroup.canonical(0, [2]), "H_0(M2) != Z/2")
        _check(h.support() == [0], "M2 has extra homology")
        for _ in range(20):
            a = rand_complex(rng)
            _check(homology_H(mc1(a).middle).is_trivial(), "cone of identity not acyclic")
        for _ in range(20):
            a = rand_complex(rng)
            _check(homology_H(suspension(a)) == homology_H(a).shifted(1),
                   "suspension does not shift homology")

    return _run(3, "homology fixtures: M2, acyclic identity cones, shift law", check)


def criterion_4_monoidal(seed: int) -> CriterionResult:
    def check():
        rng = random.Random(seed + 3)
        for _ in range(50):
            a, b = rand_complex(rng, bricks=2), rand_complex(rng, bricks=2)
            s1, s2 = symmetry(a, b), symmetry(b, a)
            _check(compose(s2, s1) == identity_map(tensor(a, b)), "sigma^2 != 1")
            f = rand_proto(rng, a, b, rng.randint(0, 2))
            g = rand_proto(rng, b, a, rng.randint(0, 2))
            sign = -1 if (f.degree * g.degree) % 2 else 1
            lhs = compose(s2, tensor_proto(f, g))
            rhs = sign * compose(tensor_proto(g, f), s1)
            _check(lhs == rhs, "Koszul naturality sign fails")
            fwd, bwd = sten_iso(a, b)
            _check(not inverse_failures(fwd, bwd), "sten iso not split")
            isos = sten_hom_isos(a, b)
            for name, (ff, gg) in isos.items():
                _check(not inverse_failures(ff, gg), f"hom iso {name}")

    return _run(4, "monoidal identities: symmetry, Koszul naturality, shift isos", check)


def criterion_5_duality(seed: int) -> CriterionResult:
    def check():
        t0 = time.time()
        eta, eps = verify_duality_LR()
        lz, rz = functor_L(unit_complex()), functor_R(unit_complex())
        _check(_triangle_left(lz, rz, eta, eps) and _triangle_right(lz, rz, eta, eps),
               "triangle identities fail")
        iso, inv = decompose_LZ_tensor()
        _check(not inverse_failures(iso, inv), "decomposition not split")
        _check(time.time() - t0 < 1.0, "solver exceeded 1 s")

    return _run(5, "duality unit/counit and free-cover tensor decomposition", check)


def criterion_6_cones(seed: int) -> CriterionResult:
    def check():
        rng = random.Random(seed + 4)
        for _ in range(50):
            a, b = rand_complex(rng), rand_complex(rng)
            f = rand_chain_map(rng, a, b)
            u = rand_proto(rng, suspension(a, 1), b, 0)
            h = cone_homotopy_iso(f, u)
            _check(not inverse_failures(h.iso, h.inverse))
        for _ in range(20):
            a, b = rand_complex(rng), rand_complex(rng)
            f = rand_chain_map(rng, a, b)
            _check(recognize_cone(mapping_cone(f)).map == f, "recognition does not recover f")
            cyl = cylinder_factorization(f)
            _check(cyl.check() == [], "cylinder witnesses fail")
            _check(homology_H(cyl.middle) == homology_H(b),
                   "middle term has wrong homology")

    return _run(6, "cone propositions: homotopy isos, recognition, cylinder", check)


def _cokernel_sampled(f: ChainMap, t: Proto):
    """cokernel_protosplit, its universal property then sampled on A, B,
    S B, S^-1 B, Z and L Z, apart from the equations that prove it."""
    res = cokernel_protosplit(f, t)
    for target in [f.source] + [cx for _, cx in default_probe_family(f.target)]:
        _check(factors_uniquely(f, res.w, target),
               "a map killing f does not factor uniquely through w")
    return res


def criterion_7_protosplit_cokernels(seed: int) -> CriterionResult:
    """Protosplit cokernels: equations, sampled universal property, Z example."""
    def check():
        rng = random.Random(seed + 5)
        for _ in range(8):
            a = rand_complex(rng, bricks=2)
            _, injs, projs = direct_sum_complexes([a, rand_complex(rng, bricks=2)])
            # it requires w f = 0, w s = 1 and s w = 1 - f t; Complex checks (d^C)^2 = 0
            _cokernel_sampled(injs[0], compose(identity_map(a), projs[0]))
        lz = functor_L(K0)
        slz = suspension(lz, -1)
        f = ChainMap(slz, lz, 0, {-1: IntMatrix.from_rows([[1]])})
        t = Proto(lz, slz, 0, {-1: IntMatrix.from_rows([[1]])})
        res = _cokernel_sampled(f, t)
        _check(res.quotient == K0, "shifted free-cover example cokernel is not Z")

    return _run(7, "protosplit cokernels: equations, universal property, Z example", check)


def criterion_8_ell_equivalence(seed: int) -> CriterionResult:
    def check():
        rng = random.Random(seed + 6)
        for m in range(-6, 7):
            for n in range(-6, 7):
                _check(yoneda_rank_check(m, n), f"hom table fails at ({m},{n})")
        for _ in range(100):
            a = rand_complex(rng)
            _check(decode(encode(a)) == a, "decode o encode != id")
            f = encode(a)
            _check(encode(decode(f)) == f, "encode o decode != id")

    return _run(8, "index-category equivalence: hom table and 100 round trips", check)


def criterion_9_coend_colimit(seed: int) -> CriterionResult:
    def check():
        fixtures = [unit_dg_category(), exterior_g_category(1),
                    group_like_category(1), two_object_graded_category(2),
                    dg_subcategory_of_complexes({"Z": K0, "LZ": functor_L(K0)})]
        for cat in fixtures:
            for k in cat.objects:
                m = representable(cat, k, RIGHT)
                for k2 in cat.objects:
                    n_mod = representable(cat, k2, LEFT)
                    res = coend_tensor(m, n_mod)
                    want = n_mod.value(k)
                    for deg in want.degrees():
                        _check(res.group(deg) == FPAbGroup.free(want.rank(deg)),
                               f"co-Yoneda fails at {k},{k2} degree {deg}")
        cat = unit_dg_category()
        for a in (K0, functor_L(K0), _m2()):
            wc = weighted_colimit(trivial_weight(cat), module_from_complex(cat, a, LEFT))
            _check(wc.colimit.ranks() == a.ranks(), "tensor-case colimit has wrong ranks")
            _check(homology_H(wc.colimit) == homology_H(a), "tensor-case homology differs")
            _check(wc.defining_iso_verified([K0, suspension(K0, 1)]),
                   "defining isomorphism fails")

    return _run(9, "coends: co-Yoneda on all fixture objects; unit-weight colimit", check)


def _g_case_fixtures():
    out = []
    for cat in (unit_dg_category(), exterior_g_category(1),
                group_like_category(1), two_object_graded_category(2)):
        for k in cat.objects:
            out.append(representable_cauchy_data(cat, k))
    ext = exterior_g_category(1)
    m1 = representable(ext, "*", RIGHT)
    n1 = representable(ext, "*", LEFT)
    sm = suspend_module(m1, 1)
    sn = suspend_module(n1, -1)

    cd_shift = solve_cauchy_counit(sm, sn, [("*", basis_elts(sm.value("*"), 1)[0],
                                             basis_elts(sn.value("*"), -1)[0])])
    _check(cd_shift is not None, "no counit for the shifted representable")
    out.append(cd_shift)
    mm = direct_sum_modules(m1, sm)
    nn = direct_sum_modules(n1, sn)
    x1 = basis_elts(mm.value("*"), 0)[0]
    y1 = basis_elts(nn.value("*"), 0)[0]
    x2 = basis_elts(mm.value("*"), 1)[m1.value("*").rank(1)]
    y2 = basis_elts(nn.value("*"), -1)[n1.value("*").rank(-1)]
    cd_sum = solve_cauchy_counit(mm, nn, [("*", x1, y1), ("*", x2, y2)])
    _check(cd_sum is not None, "no counit for the 2-term sum")
    out.append(cd_sum)
    return out


def criterion_10_cauchy(seed: int) -> CriterionResult:
    def check():
        fixtures = [unit_dg_category(), exterior_g_category(1),
                    group_like_category(1), two_object_graded_category(2),
                    dg_subcategory_of_complexes({"Z": K0, "LZ": functor_L(K0)})]
        for cat in fixtures:
            for k in cat.objects:
                cd = representable_cauchy_data(cat, k)
                _check(verify_cauchy_data(cd).ok, f"snake fails for representable {k}")

        cd = representable_cauchy_data(exterior_g_category(1), "*")
        mutations = {
            "sign flip": {key: Proto(t.source, t.target, 0,
                                     {q: -1 * mm for q, mm in t.comps().items()})
                          for key, t in cd.eps.items()},
            "doubling": {key: Proto(t.source, t.target, 0,
                                    {q: 2 * mm for q, mm in t.comps().items()})
                         for key, t in cd.eps.items()},
            "erasure": {},
        }
        for name, eps in mutations.items():
            rep = verify_cauchy_data(CauchyData(cd.m, cd.n, cd.eta, eps))
            _check(not rep.ok, f"mutation {name} not detected")
            _check(rep.witness, f"mutation {name} has no witness")

        for cd in _g_case_fixtures():
            ret = g_retraction_from_cauchy(cd)
            _check(ret.composite_is_identity, "xhat o tau != 1")
            _check(ret.tau.naturality_failures() == [], "tau not natural")
            _check(ret.xhat.naturality_failures() == [], "xhat not natural")

    return _run(10, "Cauchy data: representables pass, mutations fail, retractions", check)


def criterion_11_totalization(seed: int) -> CriterionResult:
    def check():
        rng = random.Random(seed + 7)
        for _ in range(100):
            a = rand_double_complex(rng)
            tot = total_complex(a)
            for n in tot.degrees():
                _check((tot.diff(n) @ tot.diff(n + 1)).is_zero(), "Tot d^2 != 0")
                _check(tot.rank(n) == sum(a.entry_rank(m, n - m) for m in a.column_degrees()),
                       "rank count")
        col = make_complex({1: 1, 0: 1}, {1: [[1]]})
        fixtures = [embed_i(rand_complex(rng)),
                    DoubleComplex({1: col, 0: col}, {1: identity_map(col)})]
        fixtures += [rand_double_complex(rng) for _ in range(6)]
        for a in fixtures:
            _check(not inverse_failures(*tot_via_weighted_colimit(a)), "comparison not split")
        for _ in range(20):
            a = rand_double_complex(rng)
            x = rand_complex(rng)
            _check(tot_adjunction_check(a, x), "graded adjunction fails")
        for _ in range(5):
            x = rand_complex(rng)
            _check(total_complex(embed_i(x)) == x, "tot(i X) != X")
            _check(tot_adjunction_check(embed_i(x), x), "adjunction at embedded column")

    return _run(11, "totalization: d^2, comparison iso, graded adjunction", check)


@contextmanager
def _patched(module, name: str, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)


def _sign_battery_fails() -> bool:
    """True when at least one of the criterion-2/4/6/11 style checks
    breaks under the currently active sign conventions."""
    m2 = _m2()
    col = make_complex({1: 1, 0: 1}, {1: [[1]]})
    try:
        tensor(m2, m2)
        hom_complex(m2, m2)
        if not d_hom(identity_map(m2)).is_zero():
            return True
        mapping_cone(identity_map(m2))
        DoubleComplex({1: col, 0: col}, {1: identity_map(col)})
        total_complex(DoubleComplex(
            {1: col, 0: col}, {1: ChainMap(col, col, 0, identity_map(col).comps(),
                                           _trusted=True)}))
        s = symmetry(m2, m2)
    except Exception:
        return True
    return False


def criterion_12_mutation_sensitivity(seed: int) -> CriterionResult:
    def check():
        _check(not _sign_battery_fails(), "battery fails before mutation")
        flips = [
            (_monoidal, "_tensor_sign", lambda p: 1),
            (_complexes, "_hom_sign", lambda n: 1),
            (_cones, "_cone_sign", lambda: 1),
            (_totals, "_tot_sign", lambda m: 1),
        ]
        for module, name, flat in flips:
            with _patched(module, name, flat):
                _check(_sign_battery_fails(), f"flipping {name} goes undetected")
        _check(not _sign_battery_fails(), "battery fails after restore")

    return _run(12, "mutation sensitivity of the four sign conventions", check)


ALL_CRITERIA = [
    criterion_1_snf,
    criterion_2_chain_axioms,
    criterion_3_homology,
    criterion_4_monoidal,
    criterion_5_duality,
    criterion_6_cones,
    criterion_7_protosplit_cokernels,
    criterion_8_ell_equivalence,
    criterion_9_coend_colimit,
    criterion_10_cauchy,
    criterion_11_totalization,
    criterion_12_mutation_sensitivity,
]


def run_all(seed: int = 20260809) -> List[CriterionResult]:
    return [fn(seed) for fn in ALL_CRITERIA]
