"""Density diagnostics and projection statistics for weighted clouds.

``ball_masses`` is the dense closed-ball mass table m(x, r).  Each entry is
reduced over the carrier on its own row, so its value depends only on its
query point, carrier and radius, never on which other rows share a block:
any subset of rows reproduces the full table bit for bit.

``prune_low_density`` needs only the answer to m(x, r) <= epsilon * r^n, and
on graph-like clouds almost every entry sits far from that threshold.  Each
sweep brackets every entry between two bounds (``_mass_bounds``): at coarse
radii a summed-area table over a grid of side r/4 (Crow, SIGGRAPH 1984),
at fine radii the exact closed-ball sums over kd-tree pairs.  Entries whose
bounds clear the threshold by the rounding margin are decided there; only
the rows left open go through ``ball_masses``, so the light set is the one
the dense table gives.  ``refine_once`` keeps the dense table for its
bad-point test: its calls are many and small, and building the grids and
querying the pairs for each of them costs about as much as the dense pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cloud import ScaleRange, WeightedCloud, _reach
from .errors import InputError
from .geometry import Subspace
from .grassmannian import GrassmannSampler

_CHUNK = 512
_EPS = np.finfo(float).eps
# A summed-area grid may hold this many cells per point of the pruned cloud;
# radii whose grid would be finer use kd-tree pairs.
_CELLS_PER_POINT = 4


def ball_masses(cloud: WeightedCloud, radii, points=None, carrier=None) -> np.ndarray:
    """Mass of carrier points within each radius of each query point.

    Returns an array of shape (len(points), len(radii)).  Runs in chunked
    dense passes; radii comparisons are inclusive (closed balls).  Each entry
    is reduced on its own row (``einsum``, not a BLAS product whose blocking
    depends on the rows around it), so a row's value does not depend on the
    other query points: the exact fallback of ``prune_low_density`` relies on
    that.
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
            inside = (dist_sq <= rr).astype(float)
            out[start:start + len(block), col] = np.einsum("ij,j->i", inside, car_w)
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


def _box_sums(sat: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Mass of the grid cells first..last (inclusive; one box per row) read off a
    summed-area table that has a leading zero layer on every axis.  Boxes are
    clipped to the grid; an empty box sums to 0."""
    cells = np.array(sat.shape) - 1
    start = np.clip(first, 0, cells).astype(np.intp)
    stop = np.clip(last + 1, start, cells).astype(np.intp)
    total = np.zeros(len(start))
    for corner in itertools.product((False, True), repeat=sat.ndim):
        sign = -1.0 if (sat.ndim - sum(corner)) % 2 else 1.0
        total += sign * sat[tuple(np.where(corner, stop, start).T)]
    return total


def _mass_bounds(cloud: WeightedCloud, alive: np.ndarray, radii: np.ndarray,
                 fine: np.ndarray, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on ``ball_masses(cloud, radii, idx, idx)`` for the
    alive points idx, up to the rounding of the sums.

    Radii flagged ``fine`` (a descending run) read ``pairs``, the cloud's point
    pairs (i, j, squared distance) out to at least the largest of them, and
    keep those within r by the squared-distance test ``ball_masses`` makes:
    both bounds are then the exact sum, added in another order.  Other radii
    use a summed-area table of the alive mass on a grid of side h = r/4 with
    its origin at the alive points' minimum: the lower bound sums the cells
    inside the inscribed cube, half-side r/sqrt(d) - pad, the upper bound the
    cells meeting the cube of half-side r + pad.  The pad, ``cloud._reach``'s
    for the cloud's largest coordinate, exceeds the rounding of the cell
    indices and of the squared distances, so no point on a cube's boundary
    is counted on the wrong side.
    """
    idx = np.nonzero(alive)[0]
    pts = cloud.coords[idx]
    weights = cloud.weights[idx]
    lower = np.empty((len(idx), len(radii)))
    upper = np.empty_like(lower)
    origin = pts.min(axis=0)
    offset = pts - origin
    span = offset.max(axis=0)
    scale = float(np.abs(cloud.coords).max())
    for col in np.nonzero(~fine)[0]:
        r = radii[col]
        h = r / 4.0
        shape = np.floor(span / h).astype(np.intp) + 1
        cells = np.minimum(np.floor(offset / h).astype(np.intp), shape - 1)
        sat = np.zeros(shape + 1)
        sat[(slice(1, None),) * cloud.d] = np.bincount(
            np.ravel_multi_index(cells.T, shape), weights=weights,
            minlength=int(shape.prod())).reshape(shape)
        for axis in range(cloud.d):
            np.cumsum(sat, axis=axis, out=sat)
        pad = _reach(r, scale) - r
        inner = r / math.sqrt(cloud.d) - pad
        outer = r + pad
        lower[:, col] = _box_sums(sat, np.ceil((offset - inner) / h),
                                  np.floor((offset + inner) / h) - 1)
        upper[:, col] = _box_sums(sat, np.floor((offset - outer) / h),
                                  np.floor((offset + outer) / h))
    if fine.any():
        i, j, dist_sq = pairs
        both = alive[i] & alive[j]
        i, j, dist_sq = i[both], j[both], dist_sq[both]
        for col in np.nonzero(fine)[0]:
            r = radii[col]
            inside = dist_sq <= r * r
            i, j, dist_sq = i[inside], j[inside], dist_sq[inside]
            mass = (cloud.weights + np.bincount(i, cloud.weights[j], len(cloud))
                    + np.bincount(j, cloud.weights[i], len(cloud)))
            lower[:, col] = upper[:, col] = mass[idx]
    return lower, upper


def prune_low_density(cloud: WeightedCloud, epsilon: float,
                      scale_range: ScaleRange | None = None) -> PruneResult:
    """Remove points that are epsilon-light at some scale, to a fixed point.

    A point is light when m(x, r) <= epsilon * r^n for some scanned radius r;
    masses are recomputed between sweeps because removal can create new light
    points in the discrete setting.

    Each sweep bounds every alive entry m(x, r) by ``_mass_bounds``: kd-tree
    pairs at the radii whose r/4 grid over the cloud's bounding box would hold
    more than ``_CELLS_PER_POINT`` cells per point, a summed-area table at the
    others.  An entry is light when upper + margin <= epsilon * r^n and heavy
    when lower - margin > epsilon * r^n, with

        margin = (2^d (G + 1) + 2 N) eps M,

    G = ``_CELLS_PER_POINT`` N the largest grid, N the point count, M the
    mass and eps the float64 machine epsilon.  That is twice the rounding
    bound of a signed sum of 2^d prefix sums over at most G cells, plus
    those of two sums of at most N weights (a pair bound's and the dense
    table's).  Rows with no light entry and an undecided one go through
    ``ball_masses`` at the undecided radii; its rows do not depend on which
    rows share the call, so the kept set and the sweep count equal those of
    the dense table.
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
    if len(cloud):
        span = cloud.coords.max(axis=0) - cloud.coords.min(axis=0)
        cells = np.prod(np.floor(span / (radii[:, None] / 4.0)) + 1.0, axis=1)
        fine = cells > _CELLS_PER_POINT * len(cloud)
        pairs = cloud.grid.near_pairs(radii[fine].max()) if fine.any() else None
        grid_cells = _CELLS_PER_POINT * len(cloud)
        margin = (2**cloud.d * (grid_cells + 1) + 2 * len(cloud)) * _EPS * cloud.mass()
    while True:
        idx = np.nonzero(alive)[0]
        if len(idx) == 0:
            break
        lower, upper = _mass_bounds(cloud, alive, radii, fine, pairs)
        light = (upper + margin <= thresholds).any(axis=1)
        heavy = lower - margin > thresholds
        open_rows = np.nonzero(~light & ~heavy.all(axis=1))[0]
        if len(open_rows):
            cols = ~heavy[open_rows].all(axis=0)
            table = ball_masses(cloud, radii[cols], idx[open_rows], idx)
            light[open_rows] = (table <= thresholds[cols]).any(axis=1)
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


def _unique_rows(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(cells, axis=0, return_inverse=True)`` for a nonempty 2-d
    integer array, from one lexsort (first column most significant) and a scan
    for the boundaries between runs of equal rows."""
    order = np.lexsort(cells.T[::-1])
    ordered = cells[order]
    starts = np.ones(len(cells), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(cells), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


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
    uniq, inverse = _unique_rows(cells)
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
