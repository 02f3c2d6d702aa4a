"""Single-input measurements recorded next to the baseline in
bench/baseline.json: SNF transform growth on dense matrices, homology of
simplex skeletons, and the SNF work of canonical_presentation.

    PYTHONHASHSEED=0 python3 bench/points.py [--seed N]

Each point is one traced call on an input generated from the seed; it
prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import import_package  # noqa: E402


def traced(dgkernel, call):
    """Run call(), which must look its entry point up on the package so
    that it reaches the wrapper, under a fresh tracer."""
    tracer = tracing.Tracer(dgkernel)
    tracer.install()
    tracer.begin_job(0)
    t0 = perf_counter()
    try:
        call()
    finally:
        seconds = perf_counter() - t0
        tracer.uninstall()
    snf_calls, _ = tracer.job_totals(tracing.SNF, 0)
    return {"s": round(seconds, 3),
            "snf_calls": snf_calls,
            "solve_matrix_calls": tracer.job_totals("zlinalg.solve_matrix", 0)[0],
            "snf_max_bits": tracer.snf_bits,
            "snf_repeat_frac": round(tracer.snf_repeats / max(1, snf_calls), 3)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260809)
    args = parser.parse_args()
    dgkernel = import_package()
    jsonio = dgkernel.jsonio
    rng = random.Random(f"points:{args.seed}")
    out = {"seed": args.seed}
    for n in (40, 48):
        (_, diffs), _ = workloads.dense_two_term(rng, n)
        m = dgkernel.IntMatrix.from_rows(diffs[1])
        out[f"dense_snf_n{n}"] = traced(dgkernel, lambda: dgkernel.smith_normal_form(m))
        cx = jsonio.complex_from_json(workloads.complex_json(({1: n, 0: n}, diffs)))
        out[f"dense_homology_n{n}"] = traced(dgkernel, lambda: dgkernel.homology_H(cx))
    for v, k in ((9, 3), (10, 3), (8, 5)):
        sk, _ = workloads.skeleton(rng, v, k)
        cx = jsonio.complex_from_json(workloads.complex_json(sk))
        point = traced(dgkernel, lambda: dgkernel.homology_H(cx))
        point["ranks"] = [sk[0][i] for i in range(k + 1)]
        out[f"skeleton_{v}_{k}_homology"] = point
    for layout in (({2: 1, 1: 1, 0: 1}, {2: 1, 1: 1, 0: 1, -1: 1}), workloads.CANONICAL,
                   ({2: 2, 1: 2, 0: 1}, {2: 1, 1: 1, 0: 1, -1: 2})):
        cx, _ = workloads.bricks_complex(rng, layout)
        a = jsonio.complex_from_json(workloads.complex_json(cx))
        point = traced(dgkernel, lambda: dgkernel.canonical_presentation(a))
        point["ranks"] = {str(n): r for n, r in sorted(cx[0].items())}
        out[f"canonical_presentation_rank{sum(cx[0].values())}"] = point
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
