"""Seeded pipeline benchmark for graphcarve.

    python3 perfbench/run.py --workload graph_large --seed 11 --seconds 30 --trace 0

Runs the workload's ``run_pipeline`` solve repeatedly, each solve in a fresh
process and one process at a time, with BLAS/OpenMP pools pinned to one
thread, until ``--seconds`` have passed (at least three solves).  Every solve
is checked outside its timed region:

* the sha256 of ``report.to_json()`` must equal the digest recorded in
  ``reference_digests.json`` for that workload and seed, or, for a seed with
  no recorded digest, the digest most solves of this run agree on;
* the report must satisfy e1 >= e_prime >= e >= e2 >= e3 masses,
  ``lipschitz <= lipschitz_bound`` and ``total_applications >= 0``.

A solve that fails the check, raises, or is killed counts as failed; it is
not dropped.  With ``--trace 0`` the last stdout line reports the end-to-end
metrics (medians over the solves).  With ``--trace 1`` one traced solve
follows the untraced ones and the last line reports the per-layer metrics.
Metric names, units and directions are declared in BENCHMARK.json.  Each run
also writes its solves, metrics and environment to ``perfbench/out/``.

The shared host this was built on changes speed by up to a third within
minutes, which moves every wall time with it.  So each solve process also
times a fixed calibration kernel before and after its solve, and ``solve_s``
and ``setup_s`` are reported in reference-host seconds: wall seconds times
``CAL_REF_S`` over that process's median calibration time.  The raw wall
medians and the calibration time are per-layer metrics (``wall.*``,
``host.calibration_s``) and are kept for every solve in the result file.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from solve_one import BLAS_PIN_VARS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_SOLVES = 3
# Median calibration-kernel time on the reference host (2-core x86-64 VM at
# 2.1 GHz) when perfbench/baseline.json was recorded.
CAL_REF_S = 0.12
# Keeps a run under the 180 s a run may take, whatever --seconds asks for.
RUN_LIMIT_S = 170.0
STAGES = ("normalize", "energy", "prune", "visit_removal", "cover", "refine", "extract")


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_PIN_VARS:
        env[var] = "1"
    return env


def run_solve(workload: str, seed: int, deadline: float, spans_path: Path | None = None) -> dict:
    """One solve in a fresh process; a crash, kill or timeout becomes an ``error``."""
    cmd = [sys.executable, str(BENCH / "solve_one.py"), "--workload", workload,
           "--seed", str(seed)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        return {"error": "solve timed out"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    if proc.returncode != 0 and "error" not in result:
        result = {"error": f"exit {proc.returncode}"}
    return result


def invariant_errors(result: dict) -> list[str]:
    """Report properties every correct solve has, checked from outside."""
    errors = []
    m = result["masses"]
    chain = [m[k] for k in ("e1", "e_prime", "e", "e2", "e3")]
    if any(a < b for a, b in zip(chain, chain[1:])):
        errors.append(f"masses not monotone: {m}")
    if result["lipschitz"] is not None and result["lipschitz"] > result["lipschitz_bound"]:
        errors.append("lipschitz exceeds lipschitz_bound")
    if result["lipschitz"] is None and m["e3"] != 0:
        errors.append("graph missing with nonempty e3")
    if result["total_applications"] < 0:
        errors.append("negative refinement applications")
    return errors


def check_solves(results: list[dict], expected_digest: str | None) -> list[str | None]:
    """Per solve, why it failed (``None`` when it passed)."""
    digests = [r["digest"] for r in results if "error" not in r]
    if expected_digest is None and digests:
        expected_digest = collections.Counter(digests).most_common(1)[0][0]
    verdicts = []
    for r in results:
        if "error" in r:
            verdicts.append(r["error"])
        elif r["digest"] != expected_digest:
            verdicts.append(f"report digest {r['digest'][:12]} != expected {expected_digest[:12]}")
        else:
            verdicts.append("; ".join(invariant_errors(r)) or None)
    return verdicts


def git_commit() -> str | None:
    """HEAD of the checkout's own git directory, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's source files, to tell builds apart without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host_scale(result: dict) -> float:
    """Factor from this solve's wall seconds to reference-host seconds."""
    return CAL_REF_S / statistics.median(result["calibration_s"])


def end_to_end(done: list[dict]) -> dict[str, float]:
    return {
        "solve_s": statistics.median(r["solve_s"] * host_scale(r) for r in done),
        "setup_s": statistics.median(r["setup_s"] * host_scale(r) for r in done),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
        "e3_mass_frac": statistics.median(r["masses"]["e3"] / r["masses"]["e1"] for r in done),
    }


def per_layer(done: list[dict], traced: dict) -> dict[str, float]:
    out = {f"pipeline.stage.{s}_s": statistics.median(r["wall_times"][s] for r in done)
           for s in STAGES}
    out.update(traced["layers"])
    out["grassmannian.acceptance_rate"] = traced["acceptance_rate"]
    out["cover.m"] = traced["cover_m"]
    out["trace.overhead_frac"] = traced["solve_s"] * host_scale(traced) / statistics.median(
        r["solve_s"] * host_scale(r) for r in done) - 1.0
    out["wall.solve_s"] = statistics.median(r["solve_s"] for r in done)
    out["wall.setup_s"] = statistics.median(r["setup_s"] for r in done)
    out["host.calibration_s"] = statistics.median(
        statistics.median(r["calibration_s"]) for r in done)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="generator seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    seed = spec["default_seed"] if args.seed is None else args.seed

    if not (ROOT / "src" / "graphcarve" / "__init__.py").is_file():
        print(f"error: no graphcarve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    references = json.loads((BENCH / "reference_digests.json").read_text())
    expected = references.get(args.workload, {}).get(str(seed))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"

    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    results = []
    while len(results) < MIN_SOLVES or time.perf_counter() - start < args.seconds:
        results.append(run_solve(args.workload, seed, deadline))
        if results[-1].get("error") == "solve timed out":
            break
    untraced = len(results)
    if args.trace:
        results.append(run_solve(args.workload, seed, deadline, OUT / f"{stem}-spans.json"))

    verdicts = check_solves(results, expected)
    done = [r for r in results[:untraced] if "error" not in r]
    failed = sum(v is not None for v in verdicts)
    for i, (r, v) in enumerate(zip(results, verdicts)):
        kind = "traced" if i >= untraced else "untraced"
        timing = f", wall {r['solve_s']:.4f} s" if "solve_s" in r else ""
        print(f"solve {i} ({kind}{timing}): {'correct' if v is None else 'FAILED: ' + v}")
    traced = results[-1] if args.trace else None
    if not done or (traced is not None and "error" in traced):
        print("error: no measurement: no untraced solve completed, or the traced one failed",
              file=sys.stderr)
        return 1
    values = per_layer(done, traced) if args.trace else end_to_end(done)
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1

    env = dict(done[0]["env"], commit=git_commit(), source_sha256=source_digest(),
               workload_label=spec["label"], reference_digest=expected)
    print(f"{args.workload} ({spec['label']}) seed {seed}: N = {env['n_points']}, "
          f"{len(results)} solves attempted, {failed} failed, "
          f"{'reference digest' if expected else 'cross-run digest'} check")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    times = sorted(r["solve_s"] for r in done)
    if len(times) >= 20:
        print(f"solve_s p{100 * (len(times) - 10) // len(times)} = {times[-11]:.6g} s "
              f"over n = {len(times)} untraced solves")
    else:
        print(f"timings are medians over n = {len(times)} untraced solves; below 20 "
              f"solves no percentile above the median has 10 samples beyond it")
    for name in sorted(values):
        print(f"  {name:40s} {values[name]:.6g} {units[name]}")
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"env": env, "metrics": values, "solves": results, "verdicts": verdicts},
        indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(values)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
