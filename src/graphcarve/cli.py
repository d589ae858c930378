"""Command-line interface.

Exit codes: 0 success, 2 input error, 3 stage collapse, 4 invariant
violation (bug trap).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import cloud_io
from .audit import bad_set, visitation_counts
from .cloud import ScaleRange, WeightedCloud
from .cover import build_cover
from .errors import (
    STAGE_COLLAPSE_ERRORS,
    AlgorithmInvariantViolation,
    GraphCarveError,
    InputError,
)
from .extract import certify_graph, containment_report, extend_mcshane
from .generators import GENERATOR_KINDS, finite, generate
from .geometry import Subspace
from .grassmannian import construct_v0, measure_lower_bound_mc
from .measure import adr_check, projection_energy
from .pipeline import PipelineConfig, PipelineReport, csv_lines, emit_plots, run_pipeline
from .refine import RefineConfig, refine_once


def _parse_params(pairs):
    """KEY=VALUE strings as a dict; the generator types the values."""
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise InputError(f"--param expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key] = value
    return out


def non_negative_int(text: str) -> int:
    """A seed: numpy's generators take no negative integer."""
    if (value := int(text)) < 0:
        raise ValueError(f"{text!r} is negative")
    return value


def _load_cloud(args):
    return cloud_io.load_cloud(args.input, n=getattr(args, "n", None),
                               delta_res=getattr(args, "delta_res", None))


def _parse_pair(text, flag, cast):
    try:
        lo, hi = (cast(v) for v in text.split(":"))
    except ValueError as exc:
        raise InputError(f"{flag} expects two values joined by ':', got {text!r}: {exc}") from None
    return lo, hi


def _parse_scales(text):
    return None if text is None else ScaleRange(*_parse_pair(text, "--scales", int))


def _parse_vector(text):
    try:
        vec = np.asarray([finite(v) for v in text.split(",")])
    except ValueError as exc:
        raise InputError(f"--direction expects comma-separated numbers: {exc}") from None
    if not vec.any():
        raise InputError("direction vector must be nonzero")
    vec = np.ldexp(vec, -np.frexp(np.abs(vec).max())[1])  # exact; |vec|^2 stays finite
    return vec / np.linalg.norm(vec)


def _emit(args, payload: dict):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _outdir(args) -> Path:
    path = Path(getattr(args, "output_dir", ".") or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_generate(args) -> int:
    cloud = generate(args.kind, _parse_params(args.param), seed=args.seed)
    out = Path(args.output) if args.output else _outdir(args) / "cloud.json"
    if out.suffix.lower() == ".csv":
        cloud_io.save_cloud_csv(cloud, out)
    else:
        cloud_io.save_cloud_json(cloud, out)
    _emit(args, {"kind": args.kind, "points": len(cloud), "mass": cloud.mass(),
                 "delta_res": cloud.delta_res, "output": str(out)})
    return 0


def cmd_adr_check(args) -> int:
    cloud = _load_cloud(args)
    band = _parse_pair(args.band, "--band", finite) if args.band else None
    report = adr_check(cloud, _parse_scales(args.scales), band)
    _emit(args, {"c1_hat": report.c1_hat, "c2_hat": report.c2_hat,
                 "violations": len(report.violations)})
    return 0


def cmd_energy(args) -> int:
    cloud = _load_cloud(args)
    center = Subspace.horizontal(cloud.d, cloud.n)
    bin_width = args.bin if args.bin is not None else max(2 * cloud.delta_res, cloud.extent() / 32)
    report = projection_energy(cloud, center, args.kappa, args.samples,
                               bin_width, seed=args.seed)
    _emit(args, {"mean_l2_sq": report.mean_l2_sq, "samples": args.samples,
                 "bin_width": bin_width, "acceptance_rate": report.acceptance_rate})
    return 0


def cmd_visitation(args) -> int:
    cloud = _load_cloud(args)
    direction = _parse_vector(args.direction) if args.direction else None
    report = visitation_counts(cloud, cloud.all_indices(), args.aperture,
                               _parse_scales(args.scales), direction,
                               oracle=args.oracle)
    payload = {"mode": "two_sided_codim" if direction is None else "one_sided_dir",
               "max_count": report.max_count,
               "histogram": report.histogram(cloud.weights)}
    if args.threshold is not None:
        selected = bad_set(report, args.threshold, args.flavor)
        payload["selected"] = len(selected)
        payload["selected_mass"] = cloud.mass(selected)
    _emit(args, payload)
    return 0


def cmd_cover(args) -> int:
    axis = Subspace.vertical_axis(args.d, args.n)
    cover = build_cover(axis, args.alpha, args.s, args.check_samples,
                        seed=args.seed, net_samples=args.net_samples)
    out = Path(args.output) if args.output else _outdir(args) / "cover.json"
    out.write_text(cover.to_json())
    _emit(args, {"m": cover.m, "b_used": cover.b_used, "c_cover": cover.c_cover,
                 "output": str(out)})
    return 0


def cmd_refine(args) -> int:
    cloud = _load_cloud(args)
    entry = visitation_counts(cloud, cloud.all_indices(), args.alpha,
                              direction=_parse_vector(args.direction), oracle=args.oracle)
    if entry.max_count == 0:
        _emit(args, {"status": "already_zero", "retained_mass": cloud.mass()})
        return 0
    outcome = refine_once(cloud, entry, RefineConfig(seed=args.seed))
    ledger_path = _outdir(args) / "refine_ledger.json"
    ledger_path.write_text(json.dumps(outcome.ledger(), sort_keys=True))
    _emit(args, {"status": outcome.status, "iterations": outcome.iterations,
                 "retained_mass": outcome.mass_retained,
                 "retained_points": len(outcome.kept),
                 "certificate_max_count": outcome.certificate.max_count,
                 "ledger": str(ledger_path)})
    return 0


def cmd_extract(args) -> int:
    if args.grid_points < 0:
        raise InputError(f"--grid-points must be at least 0, got {args.grid_points}")
    cloud = _load_cloud(args)
    model = certify_graph(cloud, theta=args.theta)
    cont = containment_report(cloud, model)
    outdir = _outdir(args)
    grid = np.linspace(cloud.coords[:, :cloud.n].min(axis=0),
                       cloud.coords[:, :cloud.n].max(axis=0), args.grid_points)
    meshes = np.meshgrid(*[grid[:, i] for i in range(cloud.n)], indexing="ij")
    queries = np.stack(meshes, axis=-1).reshape(-1, cloud.n)
    values = extend_mcshane(model, queries)
    (outdir / "graph.csv").write_text(csv_lines(
        [f"t{i + 1}" for i in range(cloud.n)] + [f"a{i + 1}" for i in range(cloud.d - cloud.n)],
        [list(q) + list(vals) for q, vals in zip(queries, values)]))
    summary = {"L": model.lipschitz, "inflated_L": model.inflated_lipschitz,
               "contained_mass": cont.contained_mass, "fraction": cont.fraction}
    (outdir / "extract_report.json").write_text(json.dumps(summary, sort_keys=True))
    _emit(args, summary)
    return 0


def cmd_pipeline(args) -> int:
    cloud = _load_cloud(args)
    cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.oracle |= args.oracle
    report = run_pipeline(cloud, cfg)
    outdir = _outdir(args)
    report.save(outdir)
    emit_plots(report, outdir)
    if args.json:
        print(report.to_json())
    else:
        print(f"masses: {report.masses}")
        print(f"thresholds: {report.thresholds}")
        print(f"graph: {report.graph}")
        print(f"report: {outdir / 'report.json'}")
    return 0


def cmd_grassmann_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    w_sub = Subspace(rng.standard_normal((args.d, args.n)))
    z = rng.standard_normal(args.d)
    z -= (z @ w_sub.frame) @ w_sub.frame.T  # orthogonal: the admissible regime
    z /= np.linalg.norm(z)
    ratios = []
    points = []
    for i, t in enumerate((0.1, 0.05, 0.025)):
        est = measure_lower_bound_mc(w_sub, z, t, args.upsilon, args.samples,
                                     seed=args.seed + i, delta0=args.delta0)
        ratios.append(est.ratio)
        points.append((t, est.a_hat))
    logs = np.log([p[0] for p in points]), np.log([max(p[1], 1e-300) for p in points])
    slope = float(np.polyfit(logs[0], logs[1], 1)[0])
    for i in range(args.trials):
        trial_rng = np.random.default_rng(args.seed + 1000 + i)
        w_t = Subspace(trial_rng.standard_normal((args.d, args.n)))
        perp = trial_rng.standard_normal(args.d)
        perp -= (perp @ w_t.frame) @ w_t.frame.T
        perp /= np.linalg.norm(perp)
        construct_v0(w_t, perp, args.upsilon)  # raises on any failed postcondition
    _emit(args, {"slope": slope, "ratios": ratios, "v0_trials": args.trials})
    return 0


def _read_report(path: Path) -> dict:
    """report.json's fields that ``plots`` reads; ``InputError`` names a malformed one."""
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on bytes not UTF-8
        raise InputError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(data).__name__}")
    for key in ("masses", "visitation_before", "visitation_after", "thresholds"):
        if not isinstance(data.setdefault(key, {}), dict):
            raise InputError(f"{path}: field {key!r} must be an object")
        if key.startswith("visitation") and not all(map(str.isdecimal, data[key])):
            raise InputError(f"{path}: field {key!r} has a key that is not a visit count")
    if not isinstance(data["thresholds"].get("theta_certified"), (int, float, type(None))):
        raise InputError(f"{path}: field 'thresholds.theta_certified' must be a number")
    return data


def cmd_plots(args) -> int:
    indir = Path(args.input_dir)
    report_path = indir / "report.json"
    if not report_path.exists():
        raise InputError(f"{report_path} not found; run the pipeline first")
    data = _read_report(report_path)
    report = PipelineReport.empty()
    report.masses = data["masses"]
    report.visitation_before = data["visitation_before"]
    report.visitation_after = data["visitation_after"]
    e1_path = indir / "cloud_e1.json"
    e3_path = indir / "cloud_e3.json"
    if e1_path.exists() and e3_path.exists():
        # Derived clouds, as the pipeline built them: normalization may round
        # a pair of the input a hair under the separation guard.
        report.cloud_e1, e3 = (WeightedCloud(*cloud_io.read_cloud_json(path),
                                             check_separation=False)
                               for path in (e1_path, e3_path))
        report.cloud_e = e3
        report.e3_indices = e3.all_indices()
        theta = data["thresholds"].get("theta_certified")
        if theta and len(e3):
            report.model = certify_graph(e3, theta=theta)
    written = emit_plots(report, _outdir(args))
    _emit(args, {"written": written})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcarve",
        description="Cone-visitation diagnostics and Lipschitz-graph carving "
                    "for weighted point clouds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True, oracle=False):
        if needs_input:
            p.add_argument("--input", required=True, help="cloud file (.json or .csv)")
            p.add_argument("--n", type=int, default=None,
                           help="intrinsic dimension (required for CSV input)")
            p.add_argument("--delta-res", dest="delta_res", type=finite, default=None)
        p.add_argument("--output-dir", default=".")
        p.add_argument("--seed", type=non_negative_int, default=0)
        if oracle:
            p.add_argument("--oracle", action="store_true",
                           help="the root visit table takes all pairs as candidates "
                                "in place of the kd-tree search; every other table, "
                                "each refinement pass's included, filters a parent's")
        p.add_argument("--json", action="store_true", help="machine-readable stdout")

    p = sub.add_parser("generate", help="emit a synthetic cloud")
    p.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--output", default=None)
    common(p, needs_input=False)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("adr-check", help="empirical regularity constants")
    p.add_argument("--scales", default=None, metavar="JMIN:JMAX")
    p.add_argument("--band", default=None, metavar="LO:HI")
    common(p)
    p.set_defaults(func=cmd_adr_check)

    p = sub.add_parser("energy", help="projection-energy statistic")
    p.add_argument("--kappa", type=finite, default=0.2)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--bin", type=finite, default=None)
    common(p)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("visitation", help="cone-shell visit counts")
    p.add_argument("--aperture", type=finite, required=True)
    p.add_argument("--direction", default=None,
                   help="comma-separated vector for one-sided mode")
    p.add_argument("--scales", default=None, metavar="JMIN:JMAX")
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--flavor", choices=("at_least", "exactly"), default="at_least")
    common(p, oracle=True)
    p.set_defaults(func=cmd_visitation)

    p = sub.add_parser("cover", help="one-sided direction cover of a cone")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=finite, required=True)
    p.add_argument("--s", type=finite, default=1.0)
    p.add_argument("--check-samples", dest="check_samples", type=int, default=20000)
    p.add_argument("--net-samples", dest="net_samples", type=int, default=200000)
    p.add_argument("--output", default=None)
    common(p, needs_input=False)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("refine", help="one refinement pass along a direction")
    p.add_argument("--direction", required=True)
    p.add_argument("--alpha", type=finite, required=True)
    common(p, oracle=True)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("extract", help="certify and extend a graph set")
    p.add_argument("--theta", type=finite, required=True)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=128)
    common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("pipeline", help="full end-to-end run")
    p.add_argument("--config", default=None)
    common(p, oracle=True)
    # --seed overrides the config file only when given explicitly
    p.set_defaults(func=cmd_pipeline, seed=None)

    p = sub.add_parser("grassmann-verify", help="measure scaling and frame checks")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--upsilon", type=finite, default=0.5)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--delta0", type=finite, default=0.2,
                   help="small-ratio regime bound for the measure estimate")
    common(p, needs_input=False)
    p.set_defaults(func=cmd_grassmann_verify)

    p = sub.add_parser("plots", help="re-emit plot data from a pipeline run")
    p.add_argument("--input-dir", dest="input_dir", required=True)
    common(p, needs_input=False)
    p.set_defaults(func=cmd_plots)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except STAGE_COLLAPSE_ERRORS as exc:
        print(f"stage collapse [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    except AlgorithmInvariantViolation as exc:
        print(f"invariant violation (bug trap): {exc}", file=sys.stderr)
        return 4
    except GraphCarveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
