"""Lipschitz graph certification, extension, and containment reporting.

A set whose two-sided cone visits vanish at aperture theta projects
bi-Lipschitzly onto the horizontal coordinates: every pair satisfies
|horizontal difference| >= theta * |difference|, so no pair lies in the open
two-sided cone (``in_cone``).  ``certify_graph`` tests every pair and
records the exact slope constant; the coordinatewise midpoint extension then
produces a globally Lipschitz map agreeing with the samples, at the cost of
inflating the constant by sqrt(d - n).  Both dense passes run in blocks of
``block_rows`` rows built by ``pair_differences``, so their memory stays flat
in N, and reduce each block's coordinate planes with ``row_dots``.  The
extension finds exact sample sites by their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import WeightedCloud, row_dots
from .errors import InputError, NotAGraphError
from .measure import _unique_rows
from .shells import block_rows, in_cone, pair_differences


@dataclass(frozen=True)
class GraphModel:
    """Finite graph samples over the horizontal coordinates plus a slope budget."""

    n: int
    sample_base: np.ndarray     # (N, n) horizontal coordinates
    sample_values: np.ndarray   # (N, d - n) vertical coordinates
    lipschitz: float            # exact pairwise slope maximum
    theta: float

    @property
    def inflated_lipschitz(self) -> float:
        """Lipschitz bound of the coordinatewise midpoint extension."""
        codim = self.sample_values.shape[1]
        return math.sqrt(codim) * self.lipschitz


def certify_graph(cloud: WeightedCloud, subset=None, theta: float = 0.1) -> GraphModel:
    """Verify the pairwise projection bound and build the sample graph.

    The steep pairs are the loop reference's: |horizontal difference|^2 <
    fl(theta^2) |difference|^2, ``in_cone`` on the squares the slope is taken
    from.  Block rows meet only the columns from the block's start on, so each
    unordered pair is tested once (the test is symmetric); NotAGraphError names
    the first steep pair in row order.  theta^2 must be a normal float.  Where
    a pair's squares leave the float range, a block may hold no steep pair yet a
    slope past the aperture bound; its first pair of largest slope is named then.
    """
    if not (0.0 < theta < 1.0 and theta * theta >= np.finfo(float).tiny):
        raise InputError(f"theta = {theta} must lie in (0, 1) and have a normal float square")
    n = cloud.n
    if n == cloud.d:
        raise InputError(f"a graph needs n < d, got n = {n}, d = {cloud.d}")
    idx = cloud.subset_indices(subset)
    pts = cloud.coords[idx]
    bound = math.sqrt(1.0 - theta * theta) / theta
    lip = 0.0
    start = 0
    while start < len(pts):
        width = len(pts) - start
        stop = start + block_rows(width)
        diff = pair_differences(pts[start:stop], pts[start:])
        # Squares past the float range are inf and their ratios inf / inf:
        # the cone test and fmax settle them, so they raise no warning.
        with np.errstate(over="ignore", invalid="ignore"):
            dist_sq = row_dots(diff).ravel()
            horiz_sq = row_dots(diff[..., :n]).ravel()
            steep = in_cone(horiz_sq, dist_sq, theta, strict=True)
            slope_sq = np.subtract(dist_sq, horiz_sq)
            np.maximum(slope_sq, 0.0, out=slope_sq)
            slope_sq /= np.where(horiz_sq > 0.0, horiz_sq, np.inf)
            lip = max(lip, math.sqrt(np.fmax.reduce(slope_sq)))  # fmax skips inf / inf
        if steep.any() or lip > bound + 1e-9:
            k = int(np.argmax(steep) if steep.any() else np.nanargmax(slope_sq))
            i, j = int(idx[start + k // width]), int(idx[start + k % width])
            ratio = math.sqrt(horiz_sq[k] / dist_sq[k]) if dist_sq[k] else 0.0
            raise NotAGraphError(
                f"pair ({i}, {j}) has horizontal share {ratio:.4f} < theta = {theta}",
                witness=(i, j))
        start = stop
    return GraphModel(n=n, sample_base=pts[:, :n].copy(),
                      sample_values=pts[:, n:].copy(), lipschitz=lip, theta=theta)


def extend_mcshane(model: GraphModel, queries: np.ndarray) -> np.ndarray:
    """Coordinatewise midpoint extension of the sample map.

    For each output coordinate the value is the average of the two extremal
    Lipschitz extensions, so it is L-Lipschitz per coordinate.  Accepts a
    query (n,) or a batch (Q, n).  Exact sample sites are looked up first and
    get their stored values; only the other queries reach the envelopes.
    """
    if len(model.sample_base) == 0:
        raise InputError("cannot extend an empty sample map")
    q = np.asarray(queries, dtype=float)
    single = q.ndim == 1
    q = np.atleast_2d(q)
    if q.shape[1] != model.n:
        raise InputError(f"queries must have {model.n} coordinates")
    lip = model.lipschitz
    base = model.sample_base
    vals = model.sample_values
    hit = _sample_rows(base, q)
    out = np.empty((len(q), vals.shape[1]))
    out[hit >= 0] = vals[hit[hit >= 0]]
    rest = np.flatnonzero(hit < 0)
    step = block_rows(len(base))
    for start in range(0, len(rest), step):
        rows = rest[start:start + step]
        dist = np.sqrt(row_dots(pair_differences(q[rows], base)))
        upper = (vals[None, :, :] + lip * dist[:, :, None]).min(axis=1)
        lower = (vals[None, :, :] - lip * dist[:, :, None]).max(axis=1)
        out[rows] = 0.5 * (upper + lower)
    return out[0] if single else out


def _sample_rows(base: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per query row, the last sample row with the same uint64 bit pattern (so
    -0.0 is not 0.0), or -1: both sets' rows are numbered by one lexsort."""
    inverse = _unique_rows(np.concatenate([base, q]).view(np.uint64))[1]
    last = np.full(len(inverse), -1, dtype=np.intp)
    np.maximum.at(last, inverse[:len(base)], np.arange(len(base)))
    return last[inverse[len(base):]]


@dataclass(frozen=True)
class ContainmentReport:
    contained_mass: float
    total_mass: float
    fraction: float
    tolerance: float


def containment_report(cloud: WeightedCloud, model: GraphModel,
                       tol: float | None = None, subset=None) -> ContainmentReport:
    """Mass of points within vertical distance tol of the extended graph."""
    if tol is None:
        tol = 2.0 * cloud.delta_res
    idx = cloud.subset_indices(subset)
    total = cloud.mass(idx)
    if len(idx) == 0:
        return ContainmentReport(0.0, 0.0, 0.0, tol)
    pts = cloud.coords[idx]
    predicted = extend_mcshane(model, pts[:, :model.n])
    gap = np.linalg.norm(pts[:, model.n:] - predicted, axis=1)
    contained = gap <= tol
    mass = float(cloud.weights[idx[contained]].sum())
    return ContainmentReport(contained_mass=mass, total_mass=total,
                             fraction=mass / total if total > 0 else 0.0,
                             tolerance=tol)
