"""JSON serialization for every exchange format.

All integers are written as decimal strings so consumers with 64-bit
integer types never overflow.  Degree keys are decimal strings.
"""

from __future__ import annotations

import json
import re

from .complexes import ChainMap, Complex, Proto
from .dgcat import LEFT, RIGHT, CauchyData, DGModule, Elt, FiniteDGCategory
from .totals import DoubleComplex
from .zlinalg import IntMatrix


class InputError(ValueError):
    """Malformed input; the message names the offending field."""


# The largest rank, row count or column count an input may declare.  Every
# computation allocates per basis element, so a larger one would exhaust
# memory before any check could reject it.
MAX_RANK = 4096
# Every degree an input names, and every column of a double complex, lies in
# [-MAX_DEGREE, MAX_DEGREE].  Complexes and totalizations walk every degree
# between their lowest and highest one, so two keys far apart would make
# them spin over the empty degrees in between.
MAX_DEGREE = 1024
# The most objects and hom entries a category may declare.  Every check of a
# category, a module or Cauchy data, and the coend, visits the nonzero homs
# (or composable pairs of them), not the pairs of objects, so its work grows
# with the hom count; the object cap bounds the per-object loops and the
# objects' share of memory.
MAX_OBJECTS = 1024
MAX_HOMS = 4096

_DECIMAL = re.compile(r"[-+]?[0-9]+")
# deletes the characters of a decimal list; any other character is left
_DECIMAL_CHARS = str.maketrans("", "", "0123456789,+-")


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


def _at_most_max_rank(n: int, field: str) -> int:
    """A rank, row count or column count: in [0, MAX_RANK]."""
    if n < 0:
        raise InputError(f"field {field!r}: expected a non-negative integer, got {n}")
    if n > MAX_RANK:
        raise InputError(f"field {field!r}: {n} exceeds the largest supported rank {MAX_RANK}")
    return n


def _at_most_entries(items, cap: int, field: str):
    if len(items) > cap:
        raise InputError(f"field {field!r}: {len(items)} entries exceed the "
                         f"largest supported count {cap}")
    return items


def _degree(value, field: str) -> int:
    n = _int(value, field)
    if not -MAX_DEGREE <= n <= MAX_DEGREE:
        raise InputError(f"field {field!r}: {n} is outside the supported degrees "
                         f"[-{MAX_DEGREE}, {MAX_DEGREE}]")
    return n


def _name(value, field: str) -> str:
    """An object name: a JSON string; str() would read true as 'True'."""
    if not isinstance(value, str):
        raise InputError(f"field {field!r}: expected an object name (a string), got {value!r}")
    return value


def _listed(names, objects, field: str, key: str):
    """Every object a key names must be listed in 'objects': the checks and
    constructions visit the listed objects only, so an unlisted one would be
    skipped without a word."""
    for x in names:
        if x not in objects:
            where = "" if x == key else f" in {key!r}"
            raise InputError(f"field {field!r}: object {x!r}{where} is not listed in 'objects'")


def _arrow(key: str, shape: str, field: str, listed) -> tuple:
    """The objects a key such as 'A->B' names, each listed in 'objects'."""
    parts = key.split("->")
    if len(parts) != shape.count("->") + 1:
        raise InputError(f"{field} key {key!r}: expected {shape!r}")
    _listed(parts, listed, field, key)
    return tuple(parts)


def _chain_map_table(obj, field: str, read_key, degree_field: str, ends, what: str) -> dict:
    """The optional table ``field``: one chain map per key, each given as
    {degree: matrix}.  ``read_key`` reads a key, ``ends(key)`` is the
    source and target of its map, and an invalid map is reported as
    ``what`` followed by its key."""
    table = obj.get(field, {})
    if not isinstance(table, dict):
        raise InputError(f"field {field!r}: expected dict")
    maps = {}
    for raw, comps in table.items():
        key = read_key(raw)
        if not isinstance(comps, dict):
            raise InputError(f"field {field!r}: entry {raw!r}: expected dict")
        mats = {_degree(n, degree_field): matrix_from_json(m) for n, m in comps.items()}
        try:
            maps[key] = ChainMap(*ends(key), 0, mats)
        except Exception as exc:   # a degree key is named as read, an arrow as written
            raise InputError(f"{what} {raw if isinstance(key, tuple) else key}: {exc}")
    return maps


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
    _at_most_max_rank(rows, "rows")
    _at_most_max_rank(cols, "cols")
    data = _require(obj, "data", list)
    if len(data) != rows * cols:
        raise InputError(f"field 'data': expected {rows * cols} entries, got {len(data)}")
    # One pass when every entry is a decimal string: join them and check
    # that only digits, signs and commas remain (no space, underscore or
    # non-ASCII digit), on which int() accepts exactly [-+]?[0-9]+.
    # Anything else, or a string too long for int(), takes the per-entry
    # path, which raises the error naming the first bad entry.
    try:
        text = ",".join(data)
    except TypeError:   # an entry is not a string
        text = None
    if text is not None and not text.translate(_DECIMAL_CHARS):
        try:
            return IntMatrix(rows, cols, tuple(map(int, data)), _trusted=True)
        except ValueError:
            pass
    return IntMatrix(rows, cols, (_int(x, "data") for x in data))


def complex_to_json(a: Complex) -> dict:
    return {
        "lo": a.lo,
        "hi": a.hi,
        "ranks": [a.rank(n) for n in a.degrees()],
        "diffs": {str(n): matrix_to_json(m) for n, m in sorted(a.diffs().items())},
    }


def complex_from_json(obj) -> Complex:
    lo = _degree(_require(obj, "lo"), "lo")
    hi = _degree(_require(obj, "hi"), "hi")
    ranks_list = _require(obj, "ranks", list)
    if hi - lo + 1 != len(ranks_list) and not (hi < lo and not ranks_list):
        raise InputError(f"field 'ranks': expected {hi - lo + 1} entries")
    ranks = {lo + i: _at_most_max_rank(_int(r, "ranks"), "ranks")
             for i, r in enumerate(ranks_list)}
    diffs = {}
    for key, mat in _require(obj, "diffs", dict).items() if "diffs" in obj else []:
        diffs[_degree(key, "diffs key")] = matrix_from_json(mat)
    try:
        return Complex(ranks, diffs)
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
    degree = _degree(_require(obj, "degree"), "degree")
    comps = {_degree(q, "comps key"): matrix_from_json(m)
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
    columns = {_degree(m, "columns key"): complex_from_json(c)
               for m, c in _require(obj, "columns", dict).items()}
    delta = _chain_map_table(
        obj, "delta", lambda m: _degree(m, "delta key"), "delta comp key",
        lambda m: (columns.get(m, Complex.zero()), columns.get(m - 1, Complex.zero())),
        "delta at")
    try:
        return DoubleComplex(columns, delta)
    except Exception as exc:
        raise InputError(f"invalid double complex: {exc}")


def _elt_to_json(e: Elt) -> dict:
    return {"degree": e.degree, "vec": [str(x) for x in e.vec]}


def _elt_from_json(obj, cx: Complex) -> Elt:
    degree = _degree(_require(obj, "degree"), "degree")
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
    objects = [_name(x, "objects") for x in _at_most_entries(_require(obj, "objects", list),
                                                              MAX_OBJECTS, "objects")]
    seen = set()
    for x in objects:
        if x in seen:
            raise InputError(f"field 'objects': {x!r} is listed twice")
        seen.add(x)
    homs = {}
    for key, val in _at_most_entries(_require(obj, "homs", dict), MAX_HOMS, "homs").items():
        homs[_arrow(key, "A->B", "homs", seen)] = complex_from_json(val)

    # the tables are read against the category's own tensor spaces
    cat = FiniteDGCategory(objects, homs, {}, {})
    cat.compose_table.update(_chain_map_table(
        obj, "compose", lambda key: _arrow(key, "A->B->C", "compose", seen), "compose degree",
        lambda abc: (cat.pair_space(*abc).complex, cat.hom(abc[0], abc[2])), "compose table"))
    for a, e in _require(obj, "identities", dict).items():
        if (a, a) not in homs:
            raise InputError(f"identity for unknown object {a!r}")
        cat.identities[a] = _elt_from_json(e, homs[(a, a)])
    return cat


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
    listed = set(cat.objects)
    values = {}
    for x, c in _require(obj, "values", dict).items():
        x = str(x)
        _listed([x], listed, "values", x)
        values[x] = complex_from_json(c)
    module = DGModule(cat, values, {}, side)

    module.actions.update(_chain_map_table(
        obj, "actions", lambda key: _arrow(key, "U->V", "actions", listed), "action degree",
        lambda uv: (module.action_space(*uv).complex, module.value(module.ends(*uv)[1])),
        "action"))
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
    listed = set(cat.objects)
    eta = []
    for term in _require(obj, "eta", list):
        e = _name(_require(term, "object"), "object")
        _listed([e], listed, "eta", e)
        x = _elt_from_json(_require(term, "x"), m.value(e))
        y = _elt_from_json(_require(term, "y"), n.value(e))
        eta.append((e, x, y))
    cd = CauchyData(m, n, eta, {})
    cd.eps.update(_chain_map_table(
        obj, "eps", lambda key: _arrow(key, "U->V", "eps", listed), "eps degree",
        lambda uv: (cd.eps_space(*uv).complex, cat.hom(uv[1], uv[0])), "eps"))
    return cd


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc})")
    except OSError as exc:
        raise InputError(f"{path}: cannot read ({exc.strerror or exc})")


def dump(obj: dict, path: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"{path}: cannot write ({exc.strerror or exc})")
