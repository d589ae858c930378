"""Density diagnostics and projection statistics for weighted clouds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import ScaleRange, WeightedCloud
from .errors import InputError
from .geometry import Subspace
from .grassmannian import GrassmannSampler

_CHUNK = 512


def ball_masses(cloud: WeightedCloud, radii, points=None, carrier=None) -> np.ndarray:
    """Mass of carrier points within each radius of each query point.

    Returns an array of shape (len(points), len(radii)).  Runs in chunked
    dense passes; radii comparisons are inclusive (closed balls).
    """
    radii = np.asarray(radii, dtype=float)
    pts = cloud.all_indices() if points is None else np.asarray(points, dtype=np.intp)
    car = cloud.all_indices() if carrier is None else np.asarray(carrier, dtype=np.intp)
    out = np.zeros((len(pts), len(radii)))
    if len(pts) == 0 or len(car) == 0:
        return out
    car_coords = cloud.coords[car]
    car_w = cloud.weights[car]
    r_sq = radii * radii
    for start in range(0, len(pts), _CHUNK):
        block = pts[start:start + _CHUNK]
        diff = cloud.coords[block][:, None, :] - car_coords[None, :, :]
        dist_sq = np.einsum("ijk,ijk->ij", diff, diff)
        for col, rr in enumerate(r_sq):
            out[start:start + len(block), col] = (dist_sq <= rr) @ car_w
    return out


@dataclass(frozen=True)
class AdrReport:
    c1_hat: float
    c2_hat: float
    violations: list
    scale_range: ScaleRange


def adr_check(cloud: WeightedCloud, scale_range: ScaleRange | None = None,
              band: tuple[float, float] | None = None) -> AdrReport:
    """Empirical regularity constants: extremes of m(x, r) / r^n.

    ``band`` lists every (point, radius, ratio) falling outside the target
    interval.
    """
    if len(cloud) == 0:
        raise InputError("adr_check needs a nonempty cloud")
    if scale_range is None:
        scale_range = ScaleRange.default_for(cloud)
    radii = scale_range.radii
    ratios = ball_masses(cloud, radii) / radii[None, :] ** cloud.n
    violations = []
    if band is not None:
        lo, hi = band
        bad = np.nonzero((ratios < lo) | (ratios > hi))
        violations = [(int(i), float(radii[j]), float(ratios[i, j])) for i, j in zip(*bad)]
    return AdrReport(c1_hat=float(ratios.min()), c2_hat=float(ratios.max()),
                     violations=violations, scale_range=scale_range)


@dataclass(frozen=True)
class PruneResult:
    kept: WeightedCloud
    removed_mass: float
    kept_indices: np.ndarray
    removed_indices: np.ndarray
    constant_estimate: float
    sweeps: int


def prune_low_density(cloud: WeightedCloud, epsilon: float,
                      scale_range: ScaleRange | None = None) -> PruneResult:
    """Remove points that are epsilon-light at some scale, to a fixed point.

    A point is light when m(x, r) <= epsilon * r^n for some scanned radius r;
    masses are recomputed between sweeps because removal can create new light
    points in the discrete setting.
    """
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    if scale_range is None:
        scale_range = ScaleRange.default_for(cloud)
    radii = scale_range.radii
    unit = radii[radii <= 1.0 + 1e-12]  # the light-point criterion scans r <= 1
    if len(unit):
        radii = unit
    thresholds = epsilon * radii**cloud.n
    alive = np.ones(len(cloud), dtype=bool)
    sweeps = 0
    while True:
        idx = np.nonzero(alive)[0]
        if len(idx) == 0:
            break
        table = ball_masses(cloud, radii, idx, idx)
        light = (table <= thresholds[None, :]).any(axis=1)
        sweeps += 1
        if not light.any():
            break
        alive[idx[light]] = False
    kept_idx = np.nonzero(alive)[0]
    removed_idx = np.nonzero(~alive)[0]
    removed_mass = cloud.mass(removed_idx)
    return PruneResult(kept=cloud.subcloud(kept_idx), removed_mass=removed_mass,
                       kept_indices=kept_idx, removed_indices=removed_idx,
                       constant_estimate=removed_mass / epsilon, sweeps=sweeps)


@dataclass(frozen=True)
class Pushforward:
    """Projected mass histogram on a subspace's frame-coordinate lattice."""

    bin_width: float
    n: int
    cells: np.ndarray   # (K, n) integer lattice cells, lexicographically sorted
    masses: np.ndarray  # (K,)
    l2_sq: float
    linf: float

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def as_dict(self) -> dict:
        return {tuple(int(c) for c in cell): float(m)
                for cell, m in zip(self.cells, self.masses)}


def pushforward_density(cloud: WeightedCloud, v_sub: Subspace, bin_width: float,
                        subset=None) -> Pushforward:
    """Project the cloud onto the subspace and bin mass on a uniform lattice.

    Densities are mass / bin_width^n; the lattice is anchored at the origin of
    the frame coordinates so repeated runs bin identically.
    """
    if bin_width < cloud.delta_res:
        raise InputError(
            f"bin width {bin_width:g} is below the cloud resolution {cloud.delta_res:g}"
        )
    if v_sub.d != cloud.d or v_sub.k != cloud.n:
        raise InputError("projection subspace must lie in G(d, n) for this cloud")
    idx = cloud.all_indices() if subset is None else np.asarray(subset, dtype=np.intp)
    if len(idx) == 0:
        return Pushforward(bin_width=bin_width, n=cloud.n,
                           cells=np.empty((0, cloud.n), dtype=np.int64),
                           masses=np.empty(0), l2_sq=0.0, linf=0.0)
    t = cloud.coords[idx] @ v_sub.frame
    cells = np.floor(t / bin_width).astype(np.int64)
    uniq, inverse = np.unique(cells, axis=0, return_inverse=True)
    masses = np.bincount(inverse, weights=cloud.weights[idx], minlength=len(uniq))
    cell_vol = bin_width**cloud.n
    l2_sq = float(np.sum(masses * masses) / cell_vol)
    linf = float(masses.max() / cell_vol)
    return Pushforward(bin_width=bin_width, n=cloud.n, cells=uniq,
                       masses=masses, l2_sq=l2_sq, linf=linf)


@dataclass(frozen=True)
class EnergyReport:
    mean_l2_sq: float
    per_sample: np.ndarray
    distances: np.ndarray
    acceptance_rate: float
    bin_width: float


def projection_energy(cloud: WeightedCloud, center: Subspace, kappa: float,
                      samples: int, bin_width: float, seed: int = 0,
                      subset=None) -> EnergyReport:
    """Average squared L2 pushforward density over a Grassmannian ball.

    This is the projection-energy statistic tested against the budget C: small
    values mean the cloud spreads its mass under most nearby projections.
    """
    if kappa <= 0:
        raise InputError("kappa must be positive")
    sampler = GrassmannSampler(cloud.d, cloud.n, seed, center=center, radius=kappa)
    frames = sampler.sample_frames(samples)
    values = np.empty(len(frames))
    dists = np.empty(len(frames))
    for i, frame in enumerate(frames):
        v_sub = Subspace(frame)
        values[i] = pushforward_density(cloud, v_sub, bin_width, subset).l2_sq
        diff = v_sub.projector() - center.projector()
        dists[i] = float(np.linalg.svd(diff, compute_uv=False)[0])
    return EnergyReport(mean_l2_sq=float(values.mean()) if len(values) else 0.0,
                        per_sample=values, distances=dists,
                        acceptance_rate=sampler.acceptance_rate or 0.0,
                        bin_width=bin_width)
