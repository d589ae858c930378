"""Density diagnostics and projection statistics for weighted clouds.

``ball_masses`` is the dense closed-ball mass table m(x, r).  Each entry is
reduced over the carrier on its own row, so its value depends only on its
query point, carrier and radius, never on which other rows share a block:
any subset of rows reproduces the full table bit for bit.  Blocks of
``block_rows(|carrier|)`` rows, their differences written as one plane per
coordinate (``shells.pair_differences``) and every radius's indicator into
one reused buffer, keep its memory flat in the number of rows.

``prune_low_density`` needs only the answer to m(x, r) <= epsilon * r^n, and
on graph-like clouds almost every entry sits far from that threshold.  Each
sweep brackets every entry between two bounds (``_mass_bounds``): at coarse
radii a summed-area table over a grid of side r/4 (Crow, SIGGRAPH 1984),
at fine radii the exact closed-ball sums over kd-tree pairs.  Entries whose
bounds clear the threshold by the rounding margin are decided there; only
the rows left open go through ``ball_masses``, so the light set is the one
the dense table gives.  A caller that already holds the dense table of the
whole cloud hands it to the first sweep as ``table``.  ``refine_once``
decides its bad points the same way, from one dense table per pass that it
updates as points leave (``refine._DenseRows``).

``projection_energy`` is the one entry point to the lattice histograms of
projections.  It evaluates its sampled frames together: one stacked
``geometry._orthonormalize`` and one stacked SVD for all of them, then
``_cell_masses`` projects blocks of ``block_rows(|cloud|)`` frames onto the
lattice together and bins each frame by its own ``bincount``.  Each frame
keeps its own projection product, since one product over a block rounds
differently; so every value equals the frame-by-frame evaluation bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cloud import _EPS, ScaleRange, WeightedCloud, _reach, row_dots
from .errors import InputError
from .geometry import Subspace, _distances, _orthonormalize
from .grassmannian import sample_ball
from .shells import block_rows, pair_differences

# A summed-area grid may hold this many cells per point of the pruned cloud;
# radii whose grid would be finer use kd-tree pairs.
_CELLS_PER_POINT = 4


def ball_masses(cloud: WeightedCloud, radii, points=None, carrier=None) -> np.ndarray:
    """Mass of carrier points within each radius of each query point.

    Returns an array of shape (len(points), len(radii)); radii comparisons
    are inclusive (closed balls).  Each squared distance is reduced on its
    own pair (``row_dots`` over coordinate planes, not a BLAS product whose
    blocking depends on the rows around it) and each mass on its own row, so a
    row's value does not depend on the other query points or on the block
    size: the exact fallback of ``prune_low_density`` relies on that.
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
    rows = block_rows(len(car))
    buffer = np.empty((min(rows, len(pts)), len(car)))
    for start in range(0, len(pts), rows):
        block = pts[start:start + rows]
        dist_sq = row_dots(pair_differences(cloud.coords[block], car_coords))
        inside = buffer[:len(block)]
        for col, rr in enumerate(r_sq):
            np.less_equal(dist_sq, rr, out=inside, casting="unsafe")
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
                      scale_range: ScaleRange | None = None,
                      table: np.ndarray | None = None) -> PruneResult:
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

    ``table``, when given, is the first sweep's answer: the dense
    ``ball_masses`` table of the whole cloud at the radii the prune scans
    (those <= 1, or all when none is).  The sweep count is the same either way.
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
        if table is not None:
            light = (table <= thresholds).any(axis=1)
            table = None
        else:
            lower, upper = _mass_bounds(cloud, alive, radii, fine, pairs)
            light = (upper + margin <= thresholds).any(axis=1)
            heavy = lower - margin > thresholds
            open_rows = np.nonzero(~light & ~heavy.all(axis=1))[0]
            if len(open_rows):
                cols = ~heavy[open_rows].all(axis=0)
                masses = ball_masses(cloud, radii[cols], idx[open_rows], idx)
                light[open_rows] = (masses <= thresholds[cols]).any(axis=1)
        sweeps += 1
        if not light.any():
            break
        alive[idx[light]] = False
    kept_idx = np.nonzero(alive)[0]
    removed_idx = np.nonzero(~alive)[0]
    removed_mass = cloud.mass(removed_idx)
    return PruneResult(kept=cloud.subcloud(kept_idx), removed_mass=removed_mass,
                       kept_indices=kept_idx, removed_indices=removed_idx,
                       sweeps=sweeps)


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


def _cell_masses(cloud: WeightedCloud, frames: np.ndarray,
                 bin_width: float) -> list[np.ndarray]:
    """The masses of the occupied lattice cells of a nonempty cloud under each
    frame of a (count, d, n) block, one array per frame in lexicographic cell
    order.

    Each frame is projected by its own ``coords @ frame``: one product over the
    whole block rounds differently.  A frame whose cells fill a box of at most
    ``block_rows(1)`` lattice points, the pair budget, takes one slot per point
    of its box, at the cell's row-major offset in the box (the first
    coordinate most significant, so slot order is lexicographic order; the
    offsets of the whole block are taken at once, in int64 arithmetic that
    wraps modulo 2^64, exact for every box this small); any other frame one
    slot per cell, at the cell's rank from ``_unique_rows``.  The frame's own
    ``bincount`` over its slots, its one counting table, sums each cell's
    weights in point order, as the frame-by-frame histogram does; every weight
    is positive, so a slot is occupied exactly when its mass is.  Raises
    ``InputError`` when a lattice index leaves the int64 range.
    """
    cells = np.empty((len(frames), len(cloud), cloud.n))
    for f, frame in enumerate(frames):
        np.matmul(cloud.coords, frame, out=cells[f])
    with np.errstate(over="ignore"):
        np.floor(np.divide(cells, bin_width, out=cells), out=cells)
    lo, hi = cells.min(axis=1), cells.max(axis=1)
    if not ((lo >= -2.0**63) & (hi < 2.0**63)).all():
        raise InputError(f"bin width {bin_width:g} puts lattice cells past the int64 "
                         "range; use a wider bin")
    widths = hi - lo + 1.0
    boxes, budget = widths.prod(axis=1), block_rows(1)
    index = cells.astype(np.int64)
    offsets = index - lo.astype(np.int64)[:, None, :]
    widths = np.minimum(widths, budget).astype(np.int64)  # a wider frame's slots go unused
    slots = offsets[:, :, 0]
    for k in range(1, cloud.n):
        slots = slots * widths[:, k, None] + offsets[:, :, k]
    masses = []
    for f, box in enumerate(boxes):
        table = np.bincount(slots[f] if box <= budget else _unique_rows(index[f])[1],
                            weights=cloud.weights)
        masses.append(table[table > 0.0])
    return masses


def _within_float_range(value: float, what: str) -> float:
    """The value, or ``InputError`` naming the limit when it overflowed."""
    if not math.isfinite(value):
        raise InputError(f"{what} exceeds the largest float, "
                         f"{np.finfo(float).max:.6g}; scale the weights down")
    return value


@dataclass(frozen=True)
class EnergyReport:
    mean_l2_sq: float
    per_sample: np.ndarray
    distances: np.ndarray
    acceptance_rate: float


def projection_energy(cloud: WeightedCloud, center: Subspace, kappa: float,
                      samples: int, bin_width: float, seed: int = 0) -> EnergyReport:
    """Average squared L2 pushforward density over a Grassmannian ball.

    This is the projection-energy statistic tested against the budget C: small
    values mean the cloud spreads its mass under most nearby projections.

    The frames, drawn by ``sample_ball``, are canonicalized (as ``Subspace``
    would) and their distances taken all at once, in arrays of samples x d^2
    floats like the sampler's; ``_cell_masses`` bins them in blocks of
    ``block_rows(len(cloud))`` frames, so a block's lattice array stays within
    the pair budget, and each frame's squared masses are summed by
    ``np.add.reduce``, as ``np.sum`` takes them.  Every value equals the
    frame-by-frame evaluation (a ``Subspace``, a lattice histogram and
    ``grassmann_distance`` per frame) bit for bit.
    """
    if kappa <= 0:
        raise InputError("kappa must be positive")
    if (center.d, center.k) != (cloud.d, cloud.n):
        raise InputError("the ball center must lie in G(d, n) for this cloud")
    if bin_width < cloud.delta_res:
        raise InputError(
            f"bin width {bin_width:g} is below the cloud resolution {cloud.delta_res:g}")
    frames, acceptance_rate = sample_ball(center, kappa, samples, seed)
    frames = _orthonormalize(frames)
    dists = _distances(frames, center)
    values = np.zeros(len(frames))
    if len(cloud):
        step = block_rows(len(cloud))
        for start in range(0, len(frames), step):
            block = _cell_masses(cloud, frames[start:start + step], bin_width)
            with np.errstate(over="ignore", divide="ignore"):
                for f, masses in enumerate(block, start):
                    values[f] = np.add.reduce(masses * masses) / bin_width**cloud.n
        _within_float_range(float(values.max()), "the squared projected density")
    with np.errstate(over="ignore"):
        mean = float(values.mean())
    return EnergyReport(mean_l2_sq=_within_float_range(mean, "the mean projection energy"),
                        per_sample=values, distances=dists,
                        acceptance_rate=acceptance_rate)
