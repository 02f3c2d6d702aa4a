"""Per-layer tracing from outside the program.

The traced run wraps the public entry points of each ``dgkernel`` module.
Modules import names with ``from .zlinalg import ...``, so a wrapper set on
``zlinalg`` alone would miss calls made from other modules: every loaded
``dgkernel`` namespace (and module-level list) that holds an entry point is
rebound, and methods and constructors are wrapped on their class.

Each call of an entry point is a span: id, parent id, job id, name, start
and end.  Spans are kept in memory and written out when the run ends.  A
span's self time is its duration minus the time spent in its wrapped child
spans, including their bookkeeping, so the tracer's own work is charged to
no layer.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter
from typing import Dict, List, Tuple

# Entry points wrapped as spans named "<module>.<attribute>".  Methods are
# wrapped on their class; a constructor's span is named after its class.
FUNCTIONS = [
    ("zlinalg", "smith_normal_form"),
    ("zlinalg", "kernel_basis"),
    ("zlinalg", "solve_matrix"),
    ("zlinalg", "cokernel"),
    ("zlinalg", "inverse_unimodular"),
    ("complexes", "homology_H"),
    ("complexes", "chain_map_basis"),
    ("complexes", "canonical_presentation"),
    ("complexes", "compose"),
    ("monoidal", "tensor"),
    ("monoidal", "tensor_proto"),
    ("cones", "cokernel_protosplit"),
    ("cones", "mapping_cone"),
    ("dgcat", "coend_tensor"),
    ("dgcat", "verify_cauchy_data"),
    ("totals", "tot_via_weighted_colimit"),
    ("jsonio", "load"),
    ("cli", "main"),
]
METHODS = [
    ("zlinalg", "IntMatrix", "__matmul__", "zlinalg.IntMatrix.matmul"),
    ("complexes", "HomSpace", "__init__", "complexes.HomSpace"),
    ("monoidal", "TensorSpace", "__init__", "monoidal.TensorSpace"),
    ("totals", "TotSpace", "__init__", "totals.TotSpace"),
    ("dgcat", "WeightedColimit", "defining_iso_verified",
     "dgcat.WeightedColimit.defining_iso_verified"),
]
FROM_JSON = "jsonio.from_json"   # every jsonio.*_from_json, summed
CRITERIA = 12                    # acceptance.criterion_<n>_* spans
SNF = "zlinalg.smith_normal_form"
CONSTRUCTED = "zlinalg.IntMatrix.constructed"

SPAN_NAMES = ([f"{m}.{a}" for m, a in FUNCTIONS] + [name for *_, name in METHODS]
              + [FROM_JSON])


def per_layer_metrics() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{SNF}.max_bits", "bits"), (f"{SNF}.cells", "count"),
            (f"{SNF}.repeat_frac", "frac"), (CONSTRUCTED, "count")]
    out += [(f"acceptance.criterion_{n}.s", "s") for n in range(1, CRITERIA + 1)]
    out += [("trace.overhead_frac", "frac"), ("trace.covered_frac", "frac")]
    return out


def _max_bits(*mats) -> int:
    top = 0
    for m in mats:
        e = m.entries()
        if e:
            top = max(top, max(e), -min(e))
    return top.bit_length()


class Tracer:
    """Spans and counters for one process.  ``install`` rebinds the entry
    points of the loaded package; ``uninstall`` restores them."""

    def __init__(self, package):
        self.package = package
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.job = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self._stack: List[list] = []
        self._next = 0
        self._job = -1
        self._undo: List[tuple] = []
        self.constructed = [0]
        self.snf_cells = 0
        self.snf_bits = 0
        self.snf_repeats = 0
        self._snf_seen = set()

    # -- jobs --------------------------------------------------------------

    def begin_job(self, job_id: int):
        self._job = job_id
        self._snf_seen = set()

    # -- wrapping ------------------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name: str, fn, post=None):
        idx = self._name_index(name)
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                up = stack[-1] if stack else None
                tracer.span_id.append(sid)
                tracer.parent.append(up[0] if up else -1)
                tracer.job.append(tracer._job)
                tracer.name.append(idx)
                tracer.start.append(t0)
                tracer.end.append(t1)
                tracer.self_time.append(t1 - t0 - frame[1])
                if ok and post is not None:
                    post(args, out)
                if up is not None:
                    up[1] += perf_counter() - t0

        traced.__wrapped__ = fn
        return traced

    def _snf_post(self, args, s):
        m = args[0]
        self.snf_cells += m.rows * m.cols
        self.snf_bits = max(self.snf_bits, _max_bits(s.U, s.D, s.V))
        if m in self._snf_seen:
            self.snf_repeats += 1
        else:
            self._snf_seen.add(m)

    def _rebind(self, original, replacement):
        """Replace `original` in every loaded dgkernel namespace and in
        module-level lists (acceptance.ALL_CRITERIA holds functions)."""
        prefix = self.package.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            space = vars(mod)
            for attr, value in list(space.items()):
                if value is original:
                    self._undo.append((setattr, mod, attr, original))
                    setattr(mod, attr, replacement)
                elif type(value) is list:
                    for i, item in enumerate(value):
                        if item is original:
                            self._undo.append((list.__setitem__, value, i, original))
                            value[i] = replacement

    def install(self):
        pkg = self.package
        mods = {m: getattr(pkg, m) for m in
                ("zlinalg", "complexes", "monoidal", "cones", "dgcat", "totals",
                 "jsonio", "cli", "acceptance")}
        for modname, attr in FUNCTIONS:
            fn = getattr(mods[modname], attr)
            post = self._snf_post if attr == "smith_normal_form" else None
            self._rebind(fn, self.wrap(f"{modname}.{attr}", fn, post))
        for attr, fn in list(vars(mods["jsonio"]).items()):
            if attr.endswith("_from_json") and callable(fn):
                self._rebind(fn, self.wrap(FROM_JSON, fn))
        for attr, fn in list(vars(mods["acceptance"]).items()):
            if attr.startswith("criterion_") and callable(fn):
                n = int(attr.split("_")[1])
                self._rebind(fn, self.wrap(f"acceptance.criterion_{n}", fn))
        for modname, cls_name, attr, name in METHODS:
            cls = getattr(mods[modname], cls_name)
            fn = vars(cls)[attr]
            self._undo.append((setattr, cls, attr, fn))
            setattr(cls, attr, self.wrap(name, fn))
        cls = mods["zlinalg"].IntMatrix
        init, counter = vars(cls)["__init__"], self.constructed

        def counted_init(self, *args, **kwargs):
            counter[0] += 1
            init(self, *args, **kwargs)

        self._undo.append((setattr, cls, "__init__", init))
        cls.__init__ = counted_init

    def uninstall(self):
        while self._undo:
            op, target, key, value = self._undo.pop()
            op(target, key, value)

    # -- results -------------------------------------------------------------

    def metrics(self, jobs: int, job_seconds: float, overhead_frac: float) -> Dict[str, float]:
        """Per-layer metrics as means per job over the traced jobs."""
        calls: Dict[str, int] = {}
        self_s: Dict[str, float] = {}
        inclusive: Dict[str, float] = {}
        for k in range(len(self.name)):
            nm = self.names[self.name[k]]
            calls[nm] = calls.get(nm, 0) + 1
            self_s[nm] = self_s.get(nm, 0.0) + self.self_time[k]
            inclusive[nm] = inclusive.get(nm, 0.0) + self.end[k] - self.start[k]
        out: Dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls.get(name, 0) / jobs
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / jobs
        snf_calls = calls.get(SNF, 0)
        out[f"{SNF}.max_bits"] = self.snf_bits
        out[f"{SNF}.cells"] = self.snf_cells / jobs
        out[f"{SNF}.repeat_frac"] = self.snf_repeats / snf_calls if snf_calls else 0.0
        out[CONSTRUCTED] = self.constructed[0] / jobs
        for n in range(1, CRITERIA + 1):
            out[f"acceptance.criterion_{n}.s"] = inclusive.get(f"acceptance.criterion_{n}", 0.0) / jobs
        out["trace.overhead_frac"] = overhead_frac
        out["trace.covered_frac"] = self.covered_seconds() / job_seconds if job_seconds else 0.0
        return out

    def covered_seconds(self) -> float:
        """Time inside wrapped spans other than cli.main: the top-level
        spans of each job, and the children of a cli.main span."""
        main = self._index.get("cli.main")
        mains = {self.span_id[k] for k in range(len(self.name)) if self.name[k] == main}
        total = 0.0
        for k in range(len(self.name)):
            if self.name[k] == main:
                continue
            if self.parent[k] == -1 or self.parent[k] in mains:
                total += self.end[k] - self.start[k]
        return total

    def job_totals(self, name: str, job_id: int) -> Tuple[int, float]:
        """(calls, inclusive seconds) of the spans named `name` in one job."""
        idx = self._index.get(name)
        picked = [k for k in range(len(self.name))
                  if self.name[k] == idx and self.job[k] == job_id]
        return len(picked), sum(self.end[k] - self.start[k] for k in picked)

    def write(self, path: str):
        """One JSON header line (names, field order, span count), then the
        span fields as raw native arrays, in that order."""
        fields = ("span_id", "parent", "job", "name", "start", "end", "self_time")
        with open(path, "wb") as fh:
            header = {"names": self.names, "fields": [[f, getattr(self, f).typecode]
                                                      for f in fields],
                      "spans": len(self.name), "byteorder": sys.byteorder}
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)


def read_spans(path: str) -> Tuple[dict, Dict[str, array]]:
    """Read a file written by :meth:`Tracer.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for f, code in header["fields"]:
            a = array(code)
            a.fromfile(fh, header["spans"])
            cols[f] = a
    return header, cols
