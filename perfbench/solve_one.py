"""One solve of a benchmark workload in a fresh process.

``perfbench/run.py`` starts this once per solve:

    python3 perfbench/solve_one.py --workload graph_large --seed 11 [--spans FILE]

It prints one JSON line: set-up and solve wall seconds, peak RSS, the sha256
of ``report.to_json()`` and the report fields the correctness check reads.
Around the solve it times a fixed calibration kernel, so the parent can
tell a slower host from a slower program.  With ``--spans`` the solve is
traced, the per-layer metrics are added to the line and the spans are
written to FILE.  A solve that raises prints an ``error`` field instead and
exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from layer_trace import LayerTrace
from workloads import WORKLOADS, make_cloud

ROOT = Path(__file__).resolve().parent.parent
BLAS_PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CALIBRATION_REPS = 3  # before the solve, and again after it


def calibration_kernel(np) -> float:
    """Wall seconds of a fixed mix of the program's two kinds of work.

    Chunked dense pairwise passes (as in ``ball_masses``) and many small
    per-point numpy calls (as in the per-vertex loops).  The work never
    changes, so its time tracks the speed of the host alone.
    """
    rng = np.random.default_rng(0)
    pts = rng.random((2000, 2))
    weights = rng.random(2000)
    start = time.perf_counter()
    for row in range(0, len(pts), 256):
        diff = pts[row:row + 256, None, :] - pts[None, :, :]
        dist_sq = np.einsum("ijk,ijk->ij", diff, diff)
        for r_sq in (0.01, 0.04, 0.16):
            (dist_sq <= r_sq) @ weights
    for i in range(1000):
        center = pts[i]
        np.floor((center - 0.05) / 0.01)
        near = pts[i:i + 16] - center
        np.einsum("ij,ij->i", near, near)
    return time.perf_counter() - start


def import_graphcarve():
    """Import graphcarve from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import graphcarve

    if not Path(graphcarve.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"graphcarve imported from {graphcarve.__file__}, not {src}")
    return graphcarve


def solve(workload: str, seed: int, spans_path: str | None = None) -> dict:
    """Set up, run and summarise one solve; the correctness fields are read after timing."""
    spec = WORKLOADS[workload]
    t0 = time.perf_counter()
    graphcarve = import_graphcarve()
    cloud = make_cloud(graphcarve, spec, seed)
    setup_s = time.perf_counter() - t0
    cfg = graphcarve.PipelineConfig(**spec["config"])
    import numpy
    import scipy

    calibration_s = [calibration_kernel(numpy) for _ in range(CALIBRATION_REPS)]
    trace = None
    if spans_path is None:
        t1 = time.perf_counter()
        report = graphcarve.run_pipeline(cloud, cfg)
        solve_s = time.perf_counter() - t1
    else:
        with LayerTrace(f"{workload}-seed{seed}-traced") as trace:
            t1 = time.perf_counter()
            report = graphcarve.run_pipeline(cloud, cfg)
            solve_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration_s += [calibration_kernel(numpy) for _ in range(CALIBRATION_REPS)]

    graph = report.graph or {}
    out = {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "solve_s": solve_s,
        "peak_rss_mb": peak_rss_mb,
        "calibration_s": calibration_s,
        "digest": hashlib.sha256(report.to_json().encode()).hexdigest(),
        "masses": report.masses,
        "lipschitz": graph.get("lipschitz"),
        "lipschitz_bound": graph.get("lipschitz_bound"),
        "total_applications": report.refinement["total_applications"],
        "cover_m": report.cover_summary["m"],
        "acceptance_rate": report.energy["acceptance_rate"],
        "wall_times": report.wall_times,
        "env": {
            "n_points": len(cloud),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {k: os.environ.get(k) for k in BLAS_PIN_VARS},
        },
    }
    if trace is not None:
        out["layers"] = trace.layer_metrics()
        Path(spans_path).write_text(json.dumps(
            {"run": trace.run_id, "spans": trace.spans, "counters": trace.counters}))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None, help="trace the solve; write spans here")
    args = parser.parse_args(argv)
    try:
        result = solve(args.workload, args.seed, args.spans)
    except Exception as exc:  # reported to the parent as a failed solve
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
