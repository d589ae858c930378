"""End-to-end pipeline: diagnostics, pruning, refinement, graph extraction.

Stages: normalize to the unit ball, run the projection-energy diagnostic,
prune low-density points twice, drop the heavily-visited set at a data-chosen
threshold, refine along a direction cover, then certify, extend, and report
containment.  Every random choice is seeded, so rerunning with the same
configuration reproduces the serialized report byte for byte (wall-clock
timings are kept out of the canonical payload for that reason).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .cloud import ScaleRange, WeightedCloud, row_dots
from .cloud_io import SCHEMA, save_cloud_json
from .cover import DirectionCover, build_cover_for_theta
from .errors import InputError, RefinementCollapsedError
from .extract import certify_graph, containment_report, extend_mcshane
from .generators import _typed
from .geometry import Subspace
from .grassmannian import alpha0_max, child_seed
from .measure import _within_float_range, projection_energy, prune_low_density
from .refine import RefineConfig, refine_schedule
from .shells import ShellTable, in_cone

_STAGES = ("e1", "e_prime", "e", "e2", "e3")  # mass ledger rows, in run order


@dataclass
class PipelineConfig:
    """Knobs of the full run; defaults target desk-scale planar clouds."""

    kappa: float = 0.2              # Grassmannian ball radius and mass target
    energy_budget: float = 2.5      # projection-energy warning threshold C
    theta0: float | None = None     # None: derived from the kappa-ball tilt bound
    m0_cap: int = 4                 # cap on the certified visit budget
    prune_factor: float = 0.05      # light-point threshold = factor * current mass
    energy_samples: int = 200
    energy_bin: float | None = None
    cover_check_samples: int = 20000
    cover_net_samples: int = 200000
    seed: int = 0
    oracle: bool = False
    min_mass_fraction: float = 0.0
    refine_c_factor: float = 1.0 / 64.0
    refine_epsilon: float | None = None
    refine_scale_choice: str = "largest"

    def __post_init__(self):
        if self.m0_cap < 0:
            raise InputError(f"m0_cap must be at least 0, got {self.m0_cap}")
        self.refine_config()  # refuses bad refinement settings before any stage runs

    def refine_config(self) -> RefineConfig:
        return RefineConfig(c_factor=self.refine_c_factor,
                            epsilon=self.refine_epsilon,
                            scale_choice=self.refine_scale_choice,
                            seed=child_seed(self.seed, 3),
                            min_mass_fraction=self.min_mass_fraction)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        """Parse ``key = value`` lines, each value typed by its field; '#' starts
        a comment.  A field whose default is None also takes ``none`` or ``auto``."""
        types = get_type_hints(cls)
        kwargs = {}
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise InputError(f"config file {path}: {exc.strerror}") from None
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise InputError(f"{path}:{lineno}: unknown option {key!r}")
            kind, *optional = get_args(types[key]) or (types[key],)
            kwargs[key] = (None if optional and value.lower() in ("none", "auto")
                           else _typed(f"{path}:{lineno}: option {key!r}", value, kind))
        return cls(**kwargs)


@dataclass
class PipelineReport:
    """Run summary plus references to the heavyweight stage artifacts."""

    params: dict
    normalization: dict
    masses: dict
    point_counts: dict
    energy: dict
    visitation_before: dict
    visitation_after: dict
    thresholds: dict
    cover_summary: dict
    refinement: dict
    graph: dict | None
    wall_times: dict = field(default_factory=dict)
    # Heavy artifacts; not part of the canonical serialization.
    cloud_e1: WeightedCloud | None = None
    cloud_e: WeightedCloud | None = None
    e2_indices: np.ndarray | None = None
    e3_indices: np.ndarray | None = None
    model: object | None = None
    cover: DirectionCover | None = None
    schedule: object | None = None
    energy_detail: object | None = None

    def payload(self) -> dict:
        return {
            "schema": SCHEMA,
            "params": self.params,
            "normalization": self.normalization,
            "masses": self.masses,
            "point_counts": self.point_counts,
            "energy": self.energy,
            "visitation_before": self.visitation_before,
            "visitation_after": self.visitation_after,
            "thresholds": self.thresholds,
            "cover": self.cover_summary,
            "refinement": self.refinement,
            "graph": self.graph,
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2, allow_nan=False)

    @classmethod
    def empty(cls) -> "PipelineReport":
        return cls(params={}, normalization={}, masses={}, point_counts={},
                   energy={}, visitation_before={}, visitation_after={},
                   thresholds={}, cover_summary={}, refinement={}, graph=None)

    def save(self, outdir) -> list[str]:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        written: list[str] = []
        _write(written, outdir / "report.json", self.to_json())
        _write(written, outdir / "timings.json",
               json.dumps(self.wall_times, sort_keys=True, indent=2))
        if self.cloud_e1 is not None:
            save_cloud_json(self.cloud_e1, outdir / "cloud_e1.json")
            written.append(str(outdir / "cloud_e1.json"))
        if self.cloud_e is not None and self.e3_indices is not None:
            save_cloud_json(self.cloud_e.subcloud(self.e3_indices), outdir / "cloud_e3.json")
            written.append(str(outdir / "cloud_e3.json"))
        if self.cover is not None:
            _write(written, outdir / "cover.json", self.cover.to_json())
        if self.schedule is not None:
            _write(written, outdir / "refine_ledger.json",
                   json.dumps(self.schedule.ledger(), sort_keys=True, indent=2))
        return written


def _write(written: list[str], path: Path, text: str) -> None:
    """Write ``text`` to ``path`` and record the path in ``written``."""
    path.write_text(text)
    written.append(str(path))


def normalize_to_unit_ball(cloud: WeightedCloud) -> tuple[WeightedCloud, dict]:
    """Translate and rescale into B(0, 1); weights scale by s^n.

    The separation guard is not rechecked: rounding may move a pair that sat
    exactly on it an ulp closer, which does not make the pair a duplicate.
    """
    if len(cloud) == 0:
        raise InputError("cannot normalize an empty cloud")
    center = (cloud.coords.max(axis=0) + cloud.coords.min(axis=0)) / 2.0
    radii = np.linalg.norm(cloud.coords - center, axis=1)
    r_max = float(radii.max())
    scale = 1.0 / r_max if r_max > 0 else 1.0
    with np.errstate(over="ignore"):
        weights = cloud.weights * scale**cloud.n
    _within_float_range(float(weights.max()), "a normalized weight")
    moved = WeightedCloud((cloud.coords - center) * scale, weights,
                          n=cloud.n, delta_res=cloud.delta_res * scale,
                          check_separation=False)
    info = {"offset": [float(c) for c in center], "scale": scale}
    return moved, info


def _resolution_dedup(cloud: WeightedCloud, subset: np.ndarray, theta: float,
                      scale_range: ScaleRange) -> tuple[np.ndarray, float]:
    """Drop sub-resolution near-vertical pairs the shell audit cannot see.

    The visit certificate covers pairs down to half the finest shell radius;
    closer pairs are below the discretization fidelity, so when such a pair
    violates the projection bound the lighter member is removed (ties to the
    higher index).  Pairs inside the audited range can never violate once the
    certificate has passed.  Steep pairs are walked in (i, j) order, which
    drops the same points as visiting each vertex's neighbours in turn.
    """
    floor_radius = 2.0 ** (-scale_range.j_max - 1)
    alive = np.zeros(len(cloud), dtype=bool)
    alive[subset] = True
    first, second = cloud.grid.close_pairs(floor_radius)
    both = alive[first] & alive[second]
    first, second = first[both], second[both]
    delta = cloud.coords[second] - cloud.coords[first]
    steep = in_cone(row_dots(delta[:, :cloud.n]), row_dots(delta), theta, strict=True)
    removed = 0.0
    for i, j in zip(first[steep], second[steep]):
        if not (alive[i] and alive[j]):
            continue
        drop = j if cloud.weights[j] <= cloud.weights[i] else i
        alive[drop] = False
        removed += float(cloud.weights[drop])
    return np.nonzero(alive)[0].astype(np.intp), removed


def run_pipeline(cloud: WeightedCloud, cfg: PipelineConfig | None = None) -> PipelineReport:
    """Execute every stage and assemble the report.

    The energy diagnostic never gates the run: exceeding the budget only sets
    a warning flag, since the downstream algorithm is well defined either way.
    """
    cfg = cfg or PipelineConfig()
    times: dict[str, float] = {}
    t0 = time.perf_counter()

    e1, norm_info = normalize_to_unit_ball(cloud)
    n, d = e1.n, e1.d
    theta0 = cfg.theta0 if cfg.theta0 is not None else alpha0_max(n, cfg.kappa) / 2.0
    if not 0.0 < theta0 < 1.0:
        raise InputError(f"theta0 = {theta0} outside (0, 1)")
    times["normalize"] = time.perf_counter() - t0

    t = time.perf_counter()
    horizontal = Subspace.horizontal(d, n)
    bin_width = cfg.energy_bin if cfg.energy_bin is not None else max(
        2.0 * e1.delta_res, 1.0 / 32.0)
    energy = projection_energy(e1, horizontal, cfg.kappa, cfg.energy_samples,
                               bin_width, seed=child_seed(cfg.seed, 1))
    energy_summary = {
        "mean_l2_sq": energy.mean_l2_sq,
        "budget": cfg.energy_budget,
        "warning": bool(energy.mean_l2_sq > cfg.energy_budget),
        "samples": cfg.energy_samples,
        "bin_width": bin_width,
        "acceptance_rate": energy.acceptance_rate,
        "mass": e1.mass(),
        "kappa": cfg.kappa,
    }
    times["energy"] = time.perf_counter() - t

    t = time.perf_counter()
    prune1 = prune_low_density(e1, cfg.prune_factor * e1.mass())
    e_prime = prune1.kept
    if len(e_prime) == 0:
        raise RefinementCollapsedError("stage prune-1 removed every point")
    prune2 = prune_low_density(e_prime, cfg.prune_factor * e_prime.mass())
    e_cloud = prune2.kept
    if len(e_cloud) == 0:
        raise RefinementCollapsedError("stage prune-2 removed every point")
    times["prune"] = time.perf_counter() - t

    t = time.perf_counter()
    scale_range = ScaleRange.default_for(e_cloud)
    # One table over e answers the before, e2 and after reports (alive masks
    # restrict rows and visitors); its cone holds every later table's cone.
    table = ShellTable(e_cloud, e_cloud.all_indices(), theta0, scale_range,
                       oracle=cfg.oracle)
    before = table.visits()
    mass_e = e_cloud.mass()
    max_count = before.max_count
    m_removal = max_count + 1
    for m in range(1, max_count + 2):
        heavy = float(e_cloud.weights[before.subset[before.counts >= m]].sum())
        if heavy <= mass_e / 2.0:
            m_removal = m
            break
    m_removal = min(m_removal, cfg.m0_cap + 1)
    e2_alive = before.counts < m_removal
    e2_idx = before.subset[e2_alive]
    # An empty survivor set is a legitimate negative outcome: nothing in the
    # cloud fits the certified visit budget, and the report shows zeros.
    e2_report = table.visits(e2_alive)
    m0 = e2_report.max_count
    times["visit_removal"] = time.perf_counter() - t

    t = time.perf_counter()
    axis = Subspace.vertical_axis(d, n)
    cover = build_cover_for_theta(axis, theta0, s=2.0 ** (-m0),
                                  check_samples=cfg.cover_check_samples,
                                  seed=child_seed(cfg.seed, 2),
                                  net_samples=cfg.cover_net_samples)
    times["cover"] = time.perf_counter() - t

    t = time.perf_counter()
    schedule = refine_schedule(e_cloud, e2_idx, cover, cfg.refine_config(), table)
    times["refine"] = time.perf_counter() - t

    t = time.perf_counter()
    theta_certified = schedule.theta_certified
    e3_idx, dedup_removed = _resolution_dedup(e_cloud, schedule.e3, theta_certified,
                                              scale_range)
    graph_summary = None
    model = None
    if len(e3_idx):
        model = certify_graph(e_cloud, e3_idx, theta=theta_certified)
        tol = 2.0 * e_cloud.delta_res
        cont_e3 = containment_report(e_cloud, model, tol=tol, subset=e3_idx)
        cont_e1 = containment_report(e1, model, tol=tol)
        graph_summary = {
            "lipschitz": model.lipschitz,
            "inflated_lipschitz": model.inflated_lipschitz,
            "lipschitz_bound": cover.b_used / theta0,
            "containment_fraction_e3": cont_e3.fraction,
            "containment_fraction_e1": cont_e1.fraction,
            "contained_mass_e1": cont_e1.contained_mass,
            "tolerance": tol,
        }
    after = table.visits(np.isin(e_cloud.all_indices(), e3_idx))
    times["extract"] = time.perf_counter() - t

    masses = {
        "e1": e1.mass(),
        "e_prime": e_prime.mass(),
        "e": mass_e,
        "e2": e_cloud.mass(e2_idx),
        "e3": e_cloud.mass(e3_idx),
    }
    report = PipelineReport(
        params=asdict(cfg),
        normalization=norm_info,
        masses=masses,
        point_counts={"e1": len(e1), "e_prime": len(e_prime), "e": len(e_cloud),
                      "e2": int(len(e2_idx)), "e3": int(len(e3_idx))},
        energy=energy_summary,
        visitation_before={str(k): v for k, v in before.histogram(e_cloud.weights).items()},
        visitation_after={str(k): v for k, v in after.histogram(e_cloud.weights).items()},
        thresholds={"theta0": theta0, "m_removal": int(m_removal), "m0": int(m0),
                    "theta_certified": theta_certified,
                    "b_used": cover.b_used, "alpha_cover": cover.alpha,
                    "s": cover.s,
                    "resolution_dedup_removed_mass": dedup_removed},
        cover_summary={"m": cover.m, "c_cover": cover.c_cover,
                       "b_used": cover.b_used,
                       "b_measured": cover.b_measured},
        refinement={
            "directions": [run.summary() for run in schedule.runs],
            "total_applications": sum(run.applications for run in schedule.runs),
        },
        graph=graph_summary,
        wall_times=times,
        cloud_e1=e1, cloud_e=e_cloud, e2_indices=e2_idx, e3_indices=e3_idx,
        model=model, cover=cover, schedule=schedule, energy_detail=energy,
    )
    return report


def csv_lines(header: list[str], rows: list[list]) -> str:
    """Comma-joined header and rows, each cell as ``str``, one line each."""
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


def emit_plots(report: PipelineReport, outdir) -> list[str]:
    """Write CSV series and, for planar runs, an SVG sketch of the carving.

    The energy and refinement series are written only when the report holds
    their source (a live run does; one loaded from report.json does not).
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    # A loaded report.json has sorted keys: write stages and counts in run order.
    _write(written, outdir / "mass_ledger.csv", csv_lines(
        ["stage", "mass"], [[k, report.masses[k]] for k in _STAGES if k in report.masses]))
    for name in ("visitation_before", "visitation_after"):
        hist = getattr(report, name)
        _write(written, outdir / f"{name}.csv", csv_lines(
            ["count", "mass"], [[k, hist[k]] for k in sorted(hist, key=int)]))
    if report.energy_detail is not None:
        det = report.energy_detail
        _write(written, outdir / "energy_scatter.csv", csv_lines(
            ["sample", "distance_to_center", "l2_sq"],
            [[i, float(det.distances[i]), float(det.per_sample[i])]
             for i in range(len(det.per_sample))]))
    if report.schedule is not None:
        _write(written, outdir / "refine_ledger.csv", csv_lines(
            ["direction", "k", "j_k", "r_k", "mass_S", "mass_D", "mass_F"],
            [[direction, rec.k, rec.j_k, rec.r_k, rec.mass_saved, rec.mass_deleted,
              rec.mass_remaining]
             for direction, run in enumerate(report.schedule.runs)
             for outcome in run.outcomes for rec in outcome.records]))

    if (report.cloud_e1 is not None and report.cloud_e1.d == 2
            and report.model is not None):
        _write(written, outdir / "cloud.svg", _render_svg(report))
    return written


def _render_svg(report: PipelineReport) -> str:
    """Planar sketch: input points, kept points, and the extended graph."""
    cloud = report.cloud_e1
    kept = report.cloud_e.coords[report.e3_indices]
    pts = cloud.coords
    lo = pts.min(axis=0) - 0.05
    hi = pts.max(axis=0) + 0.05
    span = np.maximum(hi - lo, 1e-9)
    size = 640.0

    def sx(x):
        return (x - lo[0]) / span[0] * size

    def sy(y):
        # SVG y grows downward.
        return size - (y - lo[1]) / span[1] * size

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    r = max(1.0, 0.4 * size * cloud.delta_res / float(span.max()))
    for x, y in pts:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="{r:.2f}" '
                     'fill="#bbbbbb"/>')
    for x, y in kept:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="{r * 1.4:.2f}" '
                     'fill="#d62728"/>')
    model = report.model
    grid = np.linspace(float(pts[:, 0].min()), float(pts[:, 0].max()), 256)
    values = extend_mcshane(model, grid[:, None])
    coords = " ".join(f"{sx(g):.2f},{sy(float(v[0])):.2f}"
                      for g, v in zip(grid, values))
    parts.append(f'<polyline points="{coords}" fill="none" stroke="#1f77b4" '
                 'stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts)
