"""JSON serialization for every exchange format.

All integers are written as decimal strings so consumers with 64-bit
integer types never overflow.  Degree keys are decimal strings.
"""

from __future__ import annotations

import json
import re

from .complexes import ChainMap, Complex, Proto
from .dgcat import LEFT, RIGHT, CauchyData, DGModule, Elt, FiniteDGCategory, action_domain
from .monoidal import TensorSpace
from .totals import DoubleComplex
from .zlinalg import IntMatrix


class InputError(ValueError):
    """Malformed input; the message names the offending field."""


_DECIMAL = re.compile(r"[-+]?[0-9]+")


def _int(value, field: str) -> int:
    """A JSON integer or a decimal-integer string; a float or a bool would
    be truncated or read as 0/1 by int(), so neither is accepted."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            pass
    raise InputError(f"field {field!r}: expected an integer, got {value!r}")


def _require(obj, field: str, kind=None):
    if not isinstance(obj, dict) or field not in obj:
        raise InputError(f"missing field {field!r}")
    value = obj[field]
    if kind is not None and not isinstance(value, kind):
        raise InputError(f"field {field!r}: expected {kind.__name__}")
    return value


def matrix_to_json(m: IntMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "data": [str(x) for x in m.entries()]}


def matrix_from_json(obj) -> IntMatrix:
    rows = _int(_require(obj, "rows"), "rows")
    cols = _int(_require(obj, "cols"), "cols")
    for field, n in (("rows", rows), ("cols", cols)):
        if n < 0:
            raise InputError(f"field {field!r}: expected a non-negative integer, got {n}")
    data = _require(obj, "data", list)
    if len(data) != rows * cols:
        raise InputError(f"field 'data': expected {rows * cols} entries, got {len(data)}")
    return IntMatrix(rows, cols, (_int(x, "data") for x in data))


def complex_to_json(a: Complex) -> dict:
    return {
        "lo": a.lo,
        "hi": a.hi,
        "ranks": [a.rank(n) for n in a.degrees()],
        "diffs": {str(n): matrix_to_json(m) for n, m in sorted(a.diffs().items())},
    }


def complex_from_json(obj) -> Complex:
    lo = _int(_require(obj, "lo"), "lo")
    hi = _int(_require(obj, "hi"), "hi")
    ranks_list = _require(obj, "ranks", list)
    if hi - lo + 1 != len(ranks_list) and not (hi < lo and not ranks_list):
        raise InputError(f"field 'ranks': expected {hi - lo + 1} entries")
    ranks = {lo + i: _int(r, "ranks") for i, r in enumerate(ranks_list)}
    diffs = {}
    for key, mat in _require(obj, "diffs", dict).items() if "diffs" in obj else []:
        diffs[_int(key, "diffs key")] = matrix_from_json(mat)
    try:
        return Complex.from_ranks(ranks, diffs)
    except Exception as exc:
        raise InputError(f"invalid complex: {exc}")


def proto_to_json(p: Proto) -> dict:
    return {
        "source": complex_to_json(p.source),
        "target": complex_to_json(p.target),
        "degree": p.degree,
        "comps": {str(q): matrix_to_json(m) for q, m in sorted(p.comps().items())},
    }


def proto_from_json(obj, chain_map: bool = False) -> Proto:
    source = complex_from_json(_require(obj, "source"))
    target = complex_from_json(_require(obj, "target"))
    degree = _int(_require(obj, "degree"), "degree")
    comps = {_int(q, "comps key"): matrix_from_json(m)
             for q, m in _require(obj, "comps", dict).items()}
    try:
        if chain_map:
            return ChainMap(source, target, degree, comps)
        return Proto(source, target, degree, comps)
    except Exception as exc:
        raise InputError(f"invalid protomorphism: {exc}")


def double_complex_to_json(a: DoubleComplex) -> dict:
    return {
        "columns": {str(m): complex_to_json(c) for m, c in sorted(a.columns.items())},
        "delta": {str(m): {str(q): matrix_to_json(mat)
                           for q, mat in sorted(d.comps().items())}
                  for m, d in sorted(a.delta.items())},
    }


def double_complex_from_json(obj) -> DoubleComplex:
    columns = {_int(m, "columns key"): complex_from_json(c)
               for m, c in _require(obj, "columns", dict).items()}
    delta = {}
    for m, comps in obj.get("delta", {}).items():
        m = _int(m, "delta key")
        src = columns.get(m, Complex.zero())
        tgt = columns.get(m - 1, Complex.zero())
        mats = {_int(q, "delta comp key"): matrix_from_json(v)
                for q, v in comps.items()}
        try:
            delta[m] = ChainMap(src, tgt, 0, mats)
        except Exception as exc:
            raise InputError(f"delta at {m}: {exc}")
    try:
        return DoubleComplex(columns, delta)
    except Exception as exc:
        raise InputError(f"invalid double complex: {exc}")


def _elt_to_json(e: Elt) -> dict:
    return {"degree": e.degree, "vec": [str(x) for x in e.vec]}


def _elt_from_json(obj, cx: Complex) -> Elt:
    degree = _int(_require(obj, "degree"), "degree")
    vec = tuple(_int(x, "vec") for x in _require(obj, "vec", list))
    try:
        return Elt(cx, degree, vec)
    except Exception as exc:
        raise InputError(f"invalid element: {exc}")


def category_to_json(cat: FiniteDGCategory) -> dict:
    return {
        "objects": [str(x) for x in cat.objects],
        "homs": {f"{a}->{b}": complex_to_json(h)
                 for (a, b), h in sorted(cat.homs.items(), key=lambda kv: str(kv[0]))},
        "compose": {f"{a}->{b}->{c}": {str(n): matrix_to_json(m)
                                       for n, m in sorted(t.comps().items())}
                    for (a, b, c), t in sorted(cat.compose_table.items(),
                                               key=lambda kv: str(kv[0]))},
        "identities": {str(a): _elt_to_json(e) for a, e in sorted(
            cat.identities.items(), key=lambda kv: str(kv[0]))},
    }


def category_from_json(obj) -> FiniteDGCategory:
    objects = [str(x) for x in _require(obj, "objects", list)]
    homs = {}
    for key, val in _require(obj, "homs", dict).items():
        parts = key.split("->")
        if len(parts) != 2:
            raise InputError(f"homs key {key!r}: expected 'A->B'")
        homs[(parts[0], parts[1])] = complex_from_json(val)
    tables = {}
    for key, comps in obj.get("compose", {}).items():
        parts = key.split("->")
        if len(parts) != 3:
            raise InputError(f"compose key {key!r}: expected 'A->B->C'")
        a, b, c = parts
        src = TensorSpace(homs.get((b, c), Complex.zero()),
                          homs.get((a, b), Complex.zero())).complex
        tgt = homs.get((a, c), Complex.zero())
        mats = {_int(n, "compose degree"): matrix_from_json(m) for n, m in comps.items()}
        try:
            tables[(a, b, c)] = ChainMap(src, tgt, 0, mats)
        except Exception as exc:
            raise InputError(f"compose table {key}: {exc}")
    identities = {}
    for a, e in _require(obj, "identities", dict).items():
        if (a, a) not in homs:
            raise InputError(f"identity for unknown object {a!r}")
        identities[a] = _elt_from_json(e, homs[(a, a)])
    return FiniteDGCategory(objects, homs, tables, identities)


def module_to_json(m: DGModule) -> dict:
    """Values and action tables; the side is not stored, the reader is
    told which side it reads."""
    return {
        "values": {str(x): complex_to_json(c) for x, c in sorted(
            m.values.items(), key=lambda kv: str(kv[0]))},
        "actions": {f"{u}->{v}": {str(n): matrix_to_json(mat)
                                  for n, mat in sorted(t.comps().items())}
                    for (u, v), t in sorted(m.actions.items(),
                                            key=lambda kv: str(kv[0]))},
    }


def _read_module(obj, cat: FiniteDGCategory, side: str) -> DGModule:
    values = {str(x): complex_from_json(c)
              for x, c in _require(obj, "values", dict).items()}
    module = DGModule(cat, values, {}, side)
    for key, comps in obj.get("actions", {}).items():
        parts = key.split("->")
        if len(parts) != 2:
            raise InputError(f"actions key {key!r}: expected 'U->V'")
        u, v = parts
        src, tgt = module.ends(u, v)
        space = action_domain(side, cat.hom(u, v), module.value(src)).complex
        mats = {_int(n, "action degree"): matrix_from_json(m) for n, m in comps.items()}
        try:
            module.actions[(u, v)] = ChainMap(space, module.value(tgt), 0, mats)
        except Exception as exc:
            raise InputError(f"action {key}: {exc}")
    return module


def right_module_from_json(obj, cat: FiniteDGCategory) -> DGModule:
    return _read_module(obj, cat, RIGHT)


def left_module_from_json(obj, cat: FiniteDGCategory) -> DGModule:
    return _read_module(obj, cat, LEFT)


def cauchy_data_to_json(cd: CauchyData) -> dict:
    return {
        "category": category_to_json(cd.m.base),
        "M": module_to_json(cd.m),
        "N": module_to_json(cd.n),
        "eta": [{"object": str(e), "x": _elt_to_json(x), "y": _elt_to_json(y)}
                for (e, x, y) in cd.eta],
        "eps": {f"{u}->{v}": {str(n): matrix_to_json(mat)
                              for n, mat in sorted(t.comps().items())}
                for (u, v), t in sorted(cd.eps.items(), key=lambda kv: str(kv[0]))},
    }


def cauchy_data_from_json(obj) -> CauchyData:
    cat = category_from_json(_require(obj, "category"))
    m = right_module_from_json(_require(obj, "M"), cat)
    n = left_module_from_json(_require(obj, "N"), cat)
    eta = []
    for term in _require(obj, "eta", list):
        e = str(_require(term, "object"))
        x = _elt_from_json(_require(term, "x"), m.value(e))
        y = _elt_from_json(_require(term, "y"), n.value(e))
        eta.append((e, x, y))
    eps = {}
    for key, comps in obj.get("eps", {}).items():
        parts = key.split("->")
        if len(parts) != 2:
            raise InputError(f"eps key {key!r}: expected 'U->V'")
        u, v = parts
        src = TensorSpace(n.value(u), m.value(v)).complex
        mats = {_int(nn, "eps degree"): matrix_from_json(mm) for nn, mm in comps.items()}
        try:
            eps[(u, v)] = ChainMap(src, cat.hom(v, u), 0, mats)
        except Exception as exc:
            raise InputError(f"eps {key}: {exc}")
    return CauchyData(m, n, eta, eps)


def load(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})")


def dump(obj: dict, path: str):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
