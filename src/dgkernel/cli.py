"""Command-line front end.

Loads serialized objects, runs computations and verification suites,
and emits deterministic plain-text or JSON reports.

Exit codes: 0 success/verified, 1 verification failure (with witness),
2 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import List, Optional

from . import jsonio
from .acceptance import run_all
from .complexes import homology_H, hom_complex, identity_map, inverse_failures
from .cones import NotProtosplit, WitnessEquationsFail, cokernel_protosplit, mapping_cone
from .dgcat import (
    TorsionInPresentation,
    cauchy_naturality_failures,
    verify_cauchy_data,
    weighted_colimit,
)
from .jsonio import InputError
from .monoidal import tensor
from .totals import tot_via_weighted_colimit, total_complex


def _emit(args, payload: dict, text_lines: List[str]):
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _homology_report(groups) -> dict:
    return {f"H_{n}": groups.at(n).describe() for n in groups.support()}


def _homology_lines(groups) -> List[str]:
    return [f"H_{n} = {groups.at(n).describe()}" for n in groups.support()] or ["H = 0"]


def _ranks(cx) -> dict:
    return {str(n): cx.rank(n) for n in cx.degrees()}


def _degree_zero(p, flag: str):
    """Cones and protosplittings are built from degree-0 maps only."""
    if p.degree != 0:
        raise InputError(f"field 'degree': {flag} must have degree 0, got {p.degree}")
    return p


def _require_valid(what: str, failures: List[str]):
    """Reject a loaded category or module that breaks its axioms."""
    if failures:
        raise InputError(f"{what}: {failures[0]}")


def cmd_homology(args) -> int:
    cx = jsonio.complex_from_json(jsonio.load(args.complex))
    groups = homology_H(cx)
    _emit(args, {"homology": _homology_report(groups)}, _homology_lines(groups))
    return 0


def _two_complexes(args, label: str, build, first: str, second: str) -> int:
    cx = build(jsonio.complex_from_json(jsonio.load(first)),
               jsonio.complex_from_json(jsonio.load(second)))
    if args.out:
        jsonio.dump(jsonio.complex_to_json(cx), args.out)
    _emit(args, {"ranks": _ranks(cx)},
          [f"{label} ranks: {_ranks(cx)}"] + ([f"written to {args.out}"] if args.out else []))
    return 0


def cmd_tensor(args) -> int:
    return _two_complexes(args, "tensor", tensor, args.left, args.right)


def cmd_hom(args) -> int:
    return _two_complexes(args, "hom", hom_complex, args.source, args.target)


def cmd_cone(args) -> int:
    if args.map_cone_of_identity:
        f = identity_map(jsonio.complex_from_json(jsonio.load(args.map_cone_of_identity)))
    elif args.f:
        f = _degree_zero(jsonio.proto_from_json(jsonio.load(args.f), chain_map=True), "--f")
    else:
        raise InputError("cone needs --f or --map-cone-of-identity")
    res = mapping_cone(f)
    if args.out:
        jsonio.dump(jsonio.complex_to_json(res.middle), args.out)
    groups = homology_H(res.middle)
    lines = [f"cone ranks: {_ranks(res.middle)}"] + _homology_lines(groups)
    _emit(args, {"ranks": _ranks(res.middle), "homology": _homology_report(groups)}, lines)
    return 0


def cmd_cokernel_protosplit(args) -> int:
    f = _degree_zero(jsonio.proto_from_json(jsonio.load(args.f), chain_map=True), "--f")
    t = _degree_zero(jsonio.proto_from_json(jsonio.load(args.t)), "--t")
    if t.source != f.target or t.target != f.source:
        raise InputError("--t must go from the target of --f to its source")
    try:
        w, _ = cokernel_protosplit(f, t)
    except (NotProtosplit, WitnessEquationsFail) as exc:
        _emit(args, {"verified": False, "witness": str(exc)}, [f"FAIL: {exc}"])
        return 1
    quotient = w.target
    if args.out:
        jsonio.dump(jsonio.complex_to_json(quotient), args.out)
    _emit(args, {"verified": True, "ranks": _ranks(quotient),
                 "homology": _homology_report(homology_H(quotient))},
          [f"cokernel ranks: {_ranks(quotient)}", "universal property verified"])
    return 0


def cmd_tot(args) -> int:
    a = jsonio.double_complex_from_json(jsonio.load(args.double_complex))
    # the comparison builds Tot A itself
    cmp = tot_via_weighted_colimit(a) if args.compare_colim else None
    tot = cmp[0].target if cmp is not None else total_complex(a)
    groups = homology_H(tot)
    payload = {"ranks": _ranks(tot), "homology": _homology_report(groups)}
    lines = [f"Tot ranks: {_ranks(tot)}"] + _homology_lines(groups)
    if cmp is not None:
        ok = not inverse_failures(*cmp)
        payload["colim_comparison"] = ok
        lines.append(f"colim comparison iso: {'ok' if ok else 'FAIL'}")
        if not ok:
            _emit(args, payload, lines)
            return 1
    if args.out:
        jsonio.dump(jsonio.complex_to_json(tot), args.out)
    _emit(args, payload, lines)
    return 0


def cmd_colim(args) -> int:
    cat = jsonio.category_from_json(jsonio.load(args.category))
    _require_valid("category", cat.validate())
    weight = jsonio.right_module_from_json(jsonio.load(args.weight), cat)
    _require_valid("weight", weight.validate())
    diagram = jsonio.left_module_from_json(jsonio.load(args.diagram), cat)
    _require_valid("diagram", diagram.validate())
    try:
        wc = weighted_colimit(weight, diagram)
    except TorsionInPresentation as exc:
        witness = f"coend has torsion, so no free colimit: {exc.describe()}"
        _emit(args, {"verified": False, "witness": witness}, [f"FAIL: {witness}"])
        return 1
    if args.out:
        jsonio.dump(jsonio.complex_to_json(wc.colimit), args.out)
    _emit(args, {"ranks": _ranks(wc.colimit),
                 "homology": _homology_report(homology_H(wc.colimit))},
          [f"colimit ranks: {_ranks(wc.colimit)}"])
    return 0


def cmd_verify_cauchy(args) -> int:
    cd = jsonio.cauchy_data_from_json(jsonio.load(args.data))
    _require_valid("category", cd.m.base.validate())
    _require_valid("M", cd.m.validate())
    _require_valid("N", cd.n.validate())
    witness = verify_cauchy_data(cd)
    naturality = cauchy_naturality_failures(cd) if args.naturality else []
    ok = witness is None and not naturality
    payload = {"verified": ok}
    lines = []
    if witness is None:
        lines.append("snake identity holds")
    else:
        payload["witness"] = witness
        lines.append(f"FAIL: {witness}")
    if naturality:
        payload["naturality_failures"] = naturality
        lines.append(f"FAIL: {naturality[0]}")
    _emit(args, payload, lines)
    return 0 if ok else 1


def cmd_verify_category(args) -> int:
    cat = jsonio.category_from_json(jsonio.load(args.category))
    failures = cat.validate()
    payload = {"verified": not failures, "failures": failures}
    if failures:
        _emit(args, payload, [f"FAIL: {f}" for f in failures])
        return 1
    _emit(args, payload, ["category verified: axioms hold"])
    return 0


def cmd_suite(args) -> int:
    results = run_all(seed=args.seed)
    payload = {"criteria": [{"number": r.number, "name": r.name,
                             "passed": r.passed, "detail": r.detail}
                            for r in results],
               "passed": all(r.passed for r in results)}
    _emit(args, payload, [r.line() for r in results])
    return 0 if payload["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgkernel",
        description="Exact computations with chain complexes and small DG-categories.")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("homology", help="canonical homology of a complex")
    p.add_argument("complex")
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("tensor", help="tensor product of two complexes")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_tensor)

    p = sub.add_parser("hom", help="internal hom complex")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("cone", help="mapping cone of a chain map")
    p.add_argument("--f", help="serialized chain map")
    p.add_argument("--map-cone-of-identity", metavar="COMPLEX",
                   help="use the identity of this complex")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_cone)

    p = sub.add_parser("cokernel-protosplit",
                       help="cokernel of a protosplit chain map, verified by its "
                            "equations w f = 0, w s = 1 and s w = 1 - f t")
    p.add_argument("--f", required=True, help="serialized chain map")
    p.add_argument("--t", required=True, help="serialized protosplitting")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_cokernel_protosplit)

    p = sub.add_parser("tot", help="total complex of a double complex")
    p.add_argument("double_complex")
    p.add_argument("--compare-colim", action="store_true",
                   help="also compute the weighted colimit and compare")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_tot)

    p = sub.add_parser("colim", help="weighted colimit of a diagram of complexes")
    p.add_argument("--category", required=True)
    p.add_argument("--weight", required=True, help="right module (the weight)")
    p.add_argument("--diagram", required=True, help="left module (the diagram)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_colim)

    p = sub.add_parser("verify-cauchy", help="check the snake identity")
    p.add_argument("data")
    p.add_argument("--naturality", action="store_true",
                   help="also check counit naturality in both variables")
    p.set_defaults(fn=cmd_verify_cauchy)

    p = sub.add_parser("verify-category", help="check the DG-category axioms")
    p.add_argument("category")
    p.set_defaults(fn=cmd_verify_category)

    p = sub.add_parser("suite", help="run the full acceptance suite")
    p.add_argument("--seed", type=int, default=20260809)
    p.set_defaults(fn=cmd_suite)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built on the first call rather than at import; each verb's cmd_*
    # reads the module globals it uses when it runs
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone: send the flush at exit to devnull, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
