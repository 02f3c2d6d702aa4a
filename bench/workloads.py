"""Seeded inputs, jobs and exact oracles for the benchmark workloads.

Inputs are generated here from the workload seed, in the package's JSON
exchange format, by code that never imports ``dgkernel``; the program sees
only the generated inputs.  Every oracle is exact and avoids Smith normal
form: binomial Betti numbers, a Bareiss determinant, homology read off the
bricks a complex was built from, verified flags and PASS lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from itertools import combinations
from math import comb
from typing import Dict, List, Sequence, Tuple

WORKLOADS = ("homology", "universal", "suite")


# -- integer matrices as lists of rows ---------------------------------------


def identity(n: int) -> List[List[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for t in range(len(b)):
            x = row[t]
            if x:
                bt = b[t]
                for j in range(cols):
                    acc[j] += x * bt[j]
        out.append(acc)
    return out


def bareiss(rows: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """(determinant, rank) of a square integer matrix by fraction-free
    elimination; the determinant is 0 when the rank is deficient."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev, rank = 1, 1, 0
    for k in range(n):
        piv = next((i for i in range(rank, n) if a[i][k]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        p = a[rank][k]
        for i in range(rank + 1, n):
            ai, ar = a[i], a[rank]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * p - aik * ar[j]) // prev
            ai[k] = 0
        prev = p
        rank += 1
    return (sign * a[n - 1][n - 1] if rank == n and n else int(n == 0)), rank


def invariant_factors(orders: Sequence[int]) -> Tuple[int, ...]:
    """Invariant-factor chain of a direct sum of cyclic groups Z/k, k > 1,
    by collecting prime powers (no Smith normal form)."""
    powers: Dict[int, List[int]] = {}
    for k in orders:
        p = 2
        while k > 1:
            if p * p > k:
                p = k
            e = 1
            while k % p == 0:
                k //= p
                e *= p
            if e > 1:
                powers.setdefault(p, []).append(e)
            p += 1
    length = max((len(v) for v in powers.values()), default=0)
    chain = [1] * length
    for v in powers.values():
        for i, e in enumerate(sorted(v, reverse=True)):
            chain[length - 1 - i] *= e
    return tuple(chain)


# -- complexes built from bricks ----------------------------------------------
#
# A complex is (ranks, diffs): ranks maps degree -> rank and diffs maps n to
# the rank(n-1) x rank(n) matrix of d_n, omitted where either side is 0.

K_CHOICES = (1, -1, 2, -2, 3)   # never 0, so every brick's differential has rank 1


def shaped_bricks(rng: random.Random, layout):
    """The bricks of a layout (pairs, singles): pairs[d] two-term bricks
    Z --k--> Z from degree d to d-1, with k seeded from K_CHOICES, and
    singles[d] rank-1 summands in degree d; in seeded order, each with its
    homology {degree: (free, [orders])}."""
    pairs, singles = layout
    bricks = []
    for deg, count in sorted(pairs.items()):
        for _ in range(count):
            k = rng.choice(K_CHOICES)
            h = {deg - 1: (0, [abs(k)])} if abs(k) > 1 else {}
            bricks.append((({deg: 1, deg - 1: 1}, {deg: [[k]]}), h))
    for deg, count in sorted(singles.items()):
        bricks += [(({deg: 1}, {}), {deg: (1, [])})] * count
    rng.shuffle(bricks)
    return [b for b, _ in bricks], [h for _, h in bricks]


def direct_sum(parts):
    """Block direct sum; also returns each part's offset in every degree."""
    ranks: Dict[int, int] = {}
    offsets = []
    for pr, _ in parts:
        offsets.append({n: ranks.get(n, 0) for n in pr})
        for n, r in pr.items():
            ranks[n] = ranks.get(n, 0) + r
    diffs = {}
    for n in ranks:
        if ranks.get(n - 1):
            m = [[0] * ranks[n] for _ in range(ranks[n - 1])]
            for (pr, pd), off in zip(parts, offsets):
                for i, row in enumerate(pd.get(n, [])):
                    for j, x in enumerate(row):
                        m[off[n - 1] + i][off[n] + j] = x
            diffs[n] = m
    return (ranks, diffs), offsets


def unimodular_pair(rng: random.Random, n: int, ops: int):
    """A random unimodular P and its inverse, as products of elementary
    operations (each row operation on P is the inverse column operation
    on P^-1)."""
    p, q = identity(n), identity(n)
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        kind = rng.randrange(3)
        if kind == 0:
            c = rng.choice((-2, -1, 1, 2))
            p[i] = [x + c * y for x, y in zip(p[i], p[j])]
            for row in q:
                row[j] -= c * row[i]
        elif kind == 1:
            p[i], p[j] = p[j], p[i]
            for row in q:
                row[i], row[j] = row[j], row[i]
        else:
            p[i] = [-x for x in p[i]]
            for row in q:
                row[i] = -row[i]
    return p, q


def conjugate(rng: random.Random, cx, ops: int = 8):
    """Change basis degreewise: d'_n = P_{n-1} d_n P_n^-1.  Returns the new
    complex with the basis changes {n: (P_n, P_n^-1)}."""
    ranks, diffs = cx
    change = {n: unimodular_pair(rng, r, ops) for n, r in sorted(ranks.items())}
    new = {n: matmul(matmul(change[n - 1][0], m), change[n][1])
           for n, m in diffs.items()}
    return (ranks, new), change


def sum_homology(homs) -> Dict[int, Tuple[int, Tuple[int, ...]]]:
    out: Dict[int, Tuple[int, List[int]]] = {}
    for h in homs:
        for n, (free, orders) in h.items():
            f0, o0 = out.get(n, (0, []))
            out[n] = (f0 + free, o0 + orders)
    return {n: (f, invariant_factors(o)) for n, (f, o) in out.items() if f or o}


# -- the package's JSON exchange format ----------------------------------------


def matrix_json(rows: List[List[int]], cols: int) -> dict:
    return {"rows": len(rows), "cols": cols, "data": [str(x) for r in rows for x in r]}


def complex_json(cx) -> dict:
    ranks, diffs = cx
    degs = [n for n, r in ranks.items() if r]
    if not degs:
        return {"lo": 0, "hi": -1, "ranks": [], "diffs": {}}
    lo, hi = min(degs), max(degs)
    return {"lo": lo, "hi": hi,
            "ranks": [ranks.get(n, 0) for n in range(lo, hi + 1)],
            "diffs": {str(n): matrix_json(m, ranks[n]) for n, m in sorted(diffs.items())
                      if ranks.get(n) and ranks.get(n - 1)}}


def proto_json(src, tgt, comps: Dict[int, List[List[int]]]) -> dict:
    return {"source": complex_json(src), "target": complex_json(tgt), "degree": 0,
            "comps": {str(q): matrix_json(m, src[0][q]) for q, m in sorted(comps.items())
                      if src[0].get(q) and tgt[0].get(q)}}


def _block(rows: int, cols: int, offset_r: int, offset_c: int, n: int,
           scale: int = 1) -> List[List[int]]:
    """rows x cols matrix with scale * identity(n) placed at the offsets."""
    m = [[0] * cols for _ in range(rows)]
    for t in range(n):
        m[offset_r + t][offset_c + t] = scale
    return m


# -- homology workload ----------------------------------------------------------


def skeleton(rng: random.Random, vertices: int, k: int):
    """k-skeleton of the simplex on `vertices` vertices, with simplices in
    seeded order and seeded orientations.  It is a wedge of
    C(vertices-1, k+1) k-spheres."""
    cells, sign = [], []
    for i in range(k + 1):
        cs = list(combinations(range(vertices), i + 1))
        rng.shuffle(cs)
        cells.append(cs)
        sign.append({c: rng.choice((1, -1)) for c in cs})
    ranks = {i: len(cs) for i, cs in enumerate(cells)}
    diffs = {}
    for i in range(1, k + 1):
        index = {c: r for r, c in enumerate(cells[i - 1])}
        m = [[0] * ranks[i] for _ in range(ranks[i - 1])]
        for col, c in enumerate(cells[i]):
            for j in range(len(c)):
                face = c[:j] + c[j + 1:]
                m[index[face]][col] = (-1) ** j * sign[i][c] * sign[i - 1][face]
        diffs[i] = m
    homology = {0: (1, ()), k: (comb(vertices - 1, k + 1), ())}
    return (ranks, diffs), homology


def dense_two_term(rng: random.Random, n: int):
    """d: Z^n -> Z^n with entries in [-5, 5]; H_0 = coker d, H_1 = ker d.
    The expected homology is returned as a function: the determinant is
    computed when the answer is checked, not while setting up."""
    d = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]

    def homology():
        det, rank = bareiss(d)
        if abs(det) > 1:
            return {0: (0, ("det", abs(det)))}
        if det:
            return {}
        return {1: (n - rank, None), 0: (n - rank, None)}

    return ({1: n, 0: n}, {1: d}), homology


# -- universal workload -----------------------------------------------------------


def bricks_complex(rng: random.Random, layout):
    """A dense complex: the conjugated direct sum of a layout's bricks,
    with its homology."""
    parts, homs = shaped_bricks(rng, layout)
    plain, _ = direct_sum(parts)
    cx, _ = conjugate(rng, plain)
    return cx, sum_homology(homs)


def protosplit_pair(rng: random.Random, layout_a, layout_b):
    """f: A -> B' and t: B' -> A where B' is a basis change of A + B, f the
    inclusion of A and t the projection onto it.  coker f has the
    homology of B."""
    pa, _ = shaped_bricks(rng, layout_a)
    pb, hb = shaped_bricks(rng, layout_b)
    a_plain, _ = direct_sum(pa)
    b_plain, _ = direct_sum(pb)
    total_plain, offs = direct_sum([a_plain, b_plain])
    a, qa = conjugate(rng, a_plain)
    total, pt = conjugate(rng, total_plain)
    ra, rt = a[0], total[0]
    f, t = {}, {}
    for n, r in ra.items():
        if not r:
            continue
        inj = _block(rt[n], r, offs[0][n], 0, r)
        f[n] = matmul(matmul(pt[n][0], inj), qa[n][1])
        proj = _block(r, rt[n], 0, offs[0][n], r)
        t[n] = matmul(matmul(qa[n][0], proj), pt[n][1])
    return proto_json(a, total, f), proto_json(total, a, t), sum_homology(hb)


def three_column_double_complex(rng: random.Random, layout_a, layout_b):
    """Columns A (1) -> A + B (0) -> B (-1), joined by k1 * inclusion and
    k0 * projection onto B, each column in its own random basis.
    Returns the JSON and the expected ranks of Tot."""
    pa, _ = shaped_bricks(rng, layout_a)
    pb, _ = shaped_bricks(rng, layout_b)
    a_plain, _ = direct_sum(pa)
    b_plain, _ = direct_sum(pb)
    mid_plain, offs = direct_sum([a_plain, b_plain])
    a, qa = conjugate(rng, a_plain)
    mid, qm = conjugate(rng, mid_plain)
    b, qb = conjugate(rng, b_plain)
    k1, k0 = rng.choice((1, 1, 2, -1)), rng.choice((1, 1, 2, -1))
    rm = mid[0]
    d1, d0 = {}, {}
    for n, r in a[0].items():
        inj = _block(rm[n], r, offs[0][n], 0, r, k1)
        d1[n] = matmul(matmul(qm[n][0], inj), qa[n][1])
    for n, r in b[0].items():
        proj = _block(r, rm[n], 0, offs[1][n], r, k0)
        d0[n] = matmul(matmul(qb[n][0], proj), qm[n][1])
    columns = {1: a, 0: mid, -1: b}
    tot: Dict[int, int] = {}
    for m, (ranks, _) in columns.items():
        for n, r in ranks.items():
            tot[n + m] = tot.get(n + m, 0) + r
    obj = {"columns": {str(m): complex_json(c) for m, c in columns.items()},
           "delta": {"1": {str(q): matrix_json(x, a[0][q]) for q, x in d1.items()},
                     "0": {str(q): matrix_json(x, rm[q]) for q, x in d0.items()}}}
    return obj, {n: r for n, r in tot.items() if r}


ONE = {"rows": 1, "cols": 1, "data": ["1"]}
UNIT_COMPLEX = {"lo": 0, "hi": 0, "ranks": [1], "diffs": {}}
UNIT_CATEGORY = {
    "objects": ["*"],
    "homs": {"*->*": UNIT_COMPLEX},
    "compose": {"*->*->*": {"0": ONE}},
    "identities": {"*": {"degree": 0, "vec": ["1"]}},
}
TRIVIAL_WEIGHT = {"values": {"*": UNIT_COMPLEX}, "actions": {"*->*": {"0": ONE}}}


def diagram_of(cx) -> dict:
    """The complex as a left module over the unit category."""
    ranks = cx[0]
    return {"values": {"*": complex_json(cx)},
            "actions": {"*->*": {str(n): matrix_json(identity(r), r)
                                 for n, r in sorted(ranks.items()) if r}}}


# -- jobs ---------------------------------------------------------------------------


def parse_group(text: str) -> Tuple[int, Tuple[int, ...]]:
    """(free rank, torsion) from a group description such as 'Z^2 + Z/6'."""
    free, torsion = 0, []
    for part in text.split(" + "):
        if part == "0":
            continue
        if part == "Z":
            free += 1
        elif part.startswith("Z^"):
            free += int(part[2:])
        elif part.startswith("Z/"):
            torsion.append(int(part[2:]))
        else:
            raise ValueError(f"unreadable group {text!r}")
    return free, tuple(torsion)


def check_homology(reported: Dict[str, str], expected) -> str:
    """'' when the reported homology matches; else what differs.

    `expected` maps degree -> (free, torsion).  Torsion is a tuple of
    invariant factors, ("det", k) for a chain of any shape whose product
    is k, or None when only the free rank is known."""
    got = {int(k[2:]): parse_group(v) for k, v in reported.items()}
    for n, (free, torsion) in got.items():
        if any(t <= 1 for t in torsion) or any(b % a for a, b in zip(torsion, torsion[1:])):
            return f"H_{n} torsion {torsion} is not an invariant-factor chain"
    if set(got) != set(expected):
        return f"homology in degrees {sorted(got)}, expected {sorted(expected)}"
    for n, (free, torsion) in expected.items():
        g_free, g_torsion = got[n]
        if g_free != free:
            return f"H_{n} free rank {g_free}, expected {free}"
        if torsion is None:
            continue
        if torsion and torsion[0] == "det":
            prod = 1
            for t in g_torsion:
                prod *= t
            if prod != torsion[1]:
                return f"H_{n} torsion product {prod}, expected {torsion[1]}"
        elif g_torsion != torsion:
            return f"H_{n} torsion {g_torsion}, expected {torsion}"
    return ""


class Job:
    """One call into the package on generated inputs (`files`, plus
    `argv` for a CLI job).  `kind` names the job class; `run` returns what
    `check` inspects and what must be identical with tracing on and off."""

    argv = None

    def __init__(self, kind: str, files: Dict[str, dict]):
        self.kind = kind
        self.files = files
        self.ident = ""
        self.paths: Dict[str, str] = {}

    def write(self, directory: str):
        for name, obj in self.files.items():
            path = os.path.join(directory, f"{self.ident}-{name}.json")
            with open(path, "w") as fh:
                json.dump(obj, fh)
            self.paths[name] = path


class CliJob(Job):
    """`dgkernel.cli.main(argv)` in-process, where an argument naming one of
    the files becomes its path; returns (exit code, stdout).  Exit code 0
    is expected."""

    def __init__(self, kind, files, argv, check):
        super().__init__(kind, files)
        self.argv = argv
        self._check = check

    def run(self, dgkernel):
        out, err = io.StringIO(), io.StringIO()
        argv = [self.paths.get(a, a) for a in self.argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dgkernel.cli.main(argv)
        return code, out.getvalue()

    def check(self, result) -> str:
        code, out = result
        if code != 0:
            return f"exit code {code}: {out[-200:]!r}"
        return self._check(out)


class CallJob(Job):
    """An exported library function.  Its inputs are kept as JSON text and
    parsed inside the job, then read with ``jsonio``."""

    def __init__(self, kind, files, call):
        super().__init__(kind, files)
        self._call = call

    def write(self, directory: str):
        self.texts = {name: json.dumps(obj) for name, obj in self.files.items()}

    def run(self, dgkernel):
        return self._call(dgkernel, {k: json.loads(t) for k, t in self.texts.items()})

    def check(self, result) -> str:
        return "" if result is True else f"returned {result!r}, expected True"


def homology_job(kind: str, cx, expected) -> CliJob:
    def check(out: str) -> str:
        want = expected() if callable(expected) else expected
        return check_homology(json.loads(out)["homology"], want)

    return CliJob(kind, {"complex": complex_json(cx)},
                  ["--json", "homology", "complex"], check)


def cokernel_job(f, t, expected) -> CliJob:
    def check(out: str) -> str:
        rep = json.loads(out)
        if rep.get("verified") is not True:
            return "universal property not verified"
        return check_homology(rep["homology"], expected)

    return CliJob("cokernel-protosplit", {"f": f, "t": t},
                  ["--json", "cokernel-protosplit", "--f", "f", "--t", "t"], check)


def tot_job(obj, tot_ranks) -> CliJob:
    def check(out: str) -> str:
        rep = json.loads(out)
        if rep.get("colim_comparison") is not True:
            return "colimit comparison is not ok"
        ranks = {int(n): r for n, r in rep["ranks"].items() if r}
        return "" if ranks == tot_ranks else f"Tot ranks {ranks}, expected {tot_ranks}"

    return CliJob("tot", {"double": obj}, ["--json", "tot", "--compare-colim", "double"], check)


def _canonical(dgkernel, inputs):
    cp = dgkernel.canonical_presentation(dgkernel.jsonio.complex_from_json(inputs["complex"]))
    return cp.fork_commutes is True and cp.coequalizer_verified is True


def canonical_job(cx) -> CallJob:
    return CallJob("canonical_presentation", {"complex": complex_json(cx)}, _canonical)


def _colimit(dgkernel, inputs):
    jsonio = dgkernel.jsonio
    cat = jsonio.category_from_json(inputs["category"])
    weight = jsonio.right_module_from_json(inputs["weight"], cat)
    diagram = jsonio.left_module_from_json(inputs["diagram"], cat)
    probes = [jsonio.complex_from_json(inputs[k]) for k in ("probe_unit", "probe")]
    return dgkernel.weighted_colimit(weight, diagram).defining_iso_verified(probes)


def colimit_job(cx, probe) -> CallJob:
    return CallJob("weighted_colimit", {
        "category": UNIT_CATEGORY, "weight": TRIVIAL_WEIGHT, "diagram": diagram_of(cx),
        "probe_unit": UNIT_COMPLEX, "probe": complex_json(probe)}, _colimit)


def suite_job(seed: int) -> CliJob:
    def check(out: str) -> str:
        lines = out.splitlines()
        passed = sum(1 for line in lines if line.startswith("[PASS]"))
        return "" if passed == 12 and len(lines) == 12 else f"{passed}/12 criteria PASS"

    return CliJob("suite", {}, ["suite", "--seed", str(seed)], check)


# -- the workloads ------------------------------------------------------------------
#
# A workload is a pool of cycles; a run repeats whole cycles, so every run
# sees the same mix of job classes.  MIN_JOBS fixes the tail percentile:
# a run never pools fewer than PROCESSES * MIN_JOBS jobs, so the percentile
# reported as the tail always has at least ten samples beyond it.


def _homology_cycle(rng: random.Random) -> List[Job]:
    # Family 1 (a simplex skeleton): sparse +-1 boundaries in six degrees,
    # ranks up to 70.  Family 2 (dense d: Z^n -> Z^n): transform entries
    # grow to thousands of bits inside SNF.  Interleaved so a run always has
    # both, and sized so that both take about the same time: job times then
    # form one cluster, and the median and the tail percentile fall inside
    # it rather than in the gap between two job classes, where host noise
    # moves them from one class to the other.
    return [homology_job("skeleton(8,5)", *skeleton(rng, 8, 5)),
            homology_job("dense(40)", *dense_two_term(rng, 40))]


# Brick layouts (two-term bricks by top degree, rank-1 summands by degree)
# keep each job class the same shape in every cycle: the ranks and the
# rank of every differential are fixed, and the seed chooses the k of each
# brick (so the torsion), the order of the bricks and the bases.
COKERNEL_A = ({2: 1, 0: 1}, {1: 1, 0: 1})                  # ranks 1, 2, 2, 1 in degrees 2..-1
COKERNEL_B = ({2: 1, 1: 1, 0: 1}, {2: 1, 1: 1, 0: 1, -1: 1})  # ranks 2, 3, 3, 2
TOT_A = ({2: 2, 1: 1}, {2: 1, 0: 1})                       # ranks 3, 3, 2 in degrees 2..0
TOT_B = ({2: 1, 1: 2}, {2: 1, 0: 1})                       # ranks 2, 3, 3
CANONICAL = ({2: 2, 1: 1, 0: 1}, {2: 1, 1: 1, 0: 1, -1: 1})   # ranks 3, 4, 3, 2
DIAGRAM = ({2: 2, 1: 2, 0: 1}, {2: 1, 1: 1, 0: 1, -1: 1})     # ranks 3, 5, 4, 2
PROBE = ({2: 1, 1: 2}, {2: 1, 0: 1})                       # ranks 2, 3, 3


def _universal_cycle(rng: random.Random) -> List[Job]:
    # Job classes by time: tot (fastest), weighted_colimit,
    # cokernel-protosplit, canonical_presentation (slowest).  The counts
    # put the median inside the weighted_colimit jobs and the tail
    # percentile inside the canonical_presentation jobs, away from the
    # edges where neighbouring classes overlap.
    f, t, expected = protosplit_pair(rng, COKERNEL_A, COKERNEL_B)
    return [cokernel_job(f, t, expected),
            tot_job(*three_column_double_complex(rng, TOT_A, TOT_B)),
            canonical_job(bricks_complex(rng, CANONICAL)[0]),
            colimit_job(bricks_complex(rng, DIAGRAM)[0], bricks_complex(rng, PROBE)[0]),
            tot_job(*three_column_double_complex(rng, TOT_A, TOT_B)),
            colimit_job(bricks_complex(rng, DIAGRAM)[0], bricks_complex(rng, PROBE)[0]),
            canonical_job(bricks_complex(rng, CANONICAL)[0]),
            colimit_job(bricks_complex(rng, DIAGRAM)[0], bricks_complex(rng, PROBE)[0])]


def _suite_cycle(rng: random.Random) -> List[Job]:
    return [suite_job(rng.randrange(1, 2 ** 31))]


CYCLES = {"homology": (_homology_cycle, 40), "universal": (_universal_cycle, 40),
          "suite": (_suite_cycle, 60)}
# An untraced run measures in PROCESSES fresh worker processes, one after
# another, each on its own block of CYCLES / PROCESSES cycles and for an
# equal share of the run's seconds; the jobs of all of them are pooled.
# Each process runs at least MIN_JOBS jobs.
PROCESSES = 4
MIN_JOBS = {"homology": 9, "universal": 16, "suite": 6}
# A traced run (--trace 1) runs this many whole cycles from the start of
# the pool, whatever --seconds is, so its counts depend on the seed alone.
TRACED_CYCLES = {"homology": 10, "universal": 6, "suite": 7}


def tail_percentile(workload: str) -> int:
    """The highest whole percentile with at least ten of the fewest jobs
    a run pools (PROCESSES * MIN_JOBS) beyond it."""
    n = PROCESSES * MIN_JOBS[workload]
    return (100 * (n - 10)) // n


def block(workload: str, part: int) -> Tuple[int, int]:
    """(first cycle, cycle count) of the pool block that process `part`
    of an untraced run measures."""
    count = CYCLES[workload][1] // PROCESSES
    return part * count, count


def build(workload: str, seed: int, first: int = 0, count: int = 0) -> List[List[Job]]:
    """Cycles first .. first+count-1 of the workload's pool (the whole pool
    when count is 0).  Each cycle is generated from the seed and its own
    index alone, so any block of the pool can be built by itself."""
    make, total = CYCLES[workload]
    cycles = []
    for c in range(first, first + (count or total)):
        cycle = make(random.Random(f"{workload}:{seed}:{c}"))
        for j, job in enumerate(cycle):
            job.ident = f"{c}-{j}"
        cycles.append(cycle)
    return cycles


def digest(cycles: List[List[Job]]) -> str:
    """SHA-256 of every generated input, to show two runs saw the same."""
    h = hashlib.sha256()
    for cycle in cycles:
        for job in cycle:
            h.update(json.dumps([job.kind, job.files, job.argv], sort_keys=True).encode())
    return h.hexdigest()
