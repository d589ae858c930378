"""Weighted point clouds with a kd-tree neighbour index.

A WeightedCloud discretizes an n-dimensional measure in R^d as point masses
at resolution ``delta_res``.  Density statements only make sense for radii
at or above the resolution; the dyadic ScaleRange helpers encode that floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import InputError

_EPS = np.finfo(float).eps


def _reach(radius: float, scale: float) -> float:
    """Tree search radius, padded far past the rounding of the tree's distances
    and the exact test's for coordinates of magnitude up to ``scale``."""
    return radius * (1.0 + 1e-9) + 64.0 * _EPS * scale


@dataclass(frozen=True)
class ScaleRange:
    """Dyadic scales 2^-j for j_min <= j <= j_max (larger j = finer scale)."""

    j_min: int
    j_max: int

    def __post_init__(self):
        if self.j_min > self.j_max:
            raise InputError(f"empty scale range: j_min={self.j_min} > j_max={self.j_max}")

    @property
    def js(self) -> np.ndarray:
        return np.arange(self.j_min, self.j_max + 1)

    @property
    def radii(self) -> np.ndarray:
        return 2.0 ** (-self.js.astype(float))

    def annulus(self, j: int) -> tuple[float, float]:
        """(outer, inner) radii of the closed shell at scale j."""
        return 2.0 ** (-j), 2.0 ** (-j - 1)

    def __len__(self):
        return self.j_max - self.j_min + 1

    @classmethod
    def default_for(cls, cloud: "WeightedCloud") -> "ScaleRange":
        """Coarsest shell covering the cloud extent, finest one octave above resolution.

        The top shell's outer radius is at least the extent, so no point pair
        escapes the range from above; pairs closer than half the finest
        radius stay below the audit floor.
        """
        extent = cloud.extent()
        if extent <= 0:
            extent = cloud.delta_res
        j_min = math.floor(-math.log2(extent))
        j_max = math.floor(-math.log2(cloud.delta_res)) - 1
        if j_max < j_min:
            j_max = j_min
        return cls(j_min, j_max)


class GridIndex:
    """Neighbour index over points in R^d on a kd-tree (Bentley, CACM 18(9), 1975).

    The tree proposes candidates within a radius padded past its own rounding;
    the exact squared-distance test below decides membership, so results equal
    a brute-force scan.  ``cell`` is the cloud resolution.
    """

    def __init__(self, coords: np.ndarray, cell: float):
        self.coords = coords
        self.cell = float(cell)
        self._tree = cKDTree(coords)
        self._scale = float(np.abs(coords).max()) if len(coords) else 0.0

    def ball(self, center: np.ndarray, radius: float, strict: bool = False) -> np.ndarray:
        """Sorted indices of points with |x - center| <= radius (< if strict)."""
        if len(self.coords) == 0 or radius < 0:
            return np.empty(0, dtype=np.intp)
        center = np.asarray(center, dtype=float)
        reach = _reach(radius, max(self._scale, float(np.abs(center).max())))
        cand = np.asarray(self._tree.query_ball_point(center, reach, return_sorted=True),
                          dtype=np.intp)
        delta = self.coords[cand] - center
        dist_sq = np.einsum("ij,ij->i", delta, delta)
        r_sq = radius * radius
        keep = dist_sq < r_sq if strict else dist_sq <= r_sq
        return cand[keep]

    def near_pairs(self, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index pairs (i, j), i < j, and their squared distances: every pair with
        |x_i - x_j| <= radius, plus some just beyond it that the exact test drops."""
        pairs = self._tree.query_pairs(_reach(radius, self._scale),
                                       output_type="ndarray").astype(np.intp)
        i, j = pairs[:, 0], pairs[:, 1]
        delta = self.coords[j] - self.coords[i]
        return i, j, np.einsum("ij,ij->i", delta, delta)

    def close_pairs(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Index pairs (i, j), i < j, with |x_i - x_j| < radius, sorted by (i, j)."""
        i, j, dist_sq = self.near_pairs(radius)
        close = dist_sq < radius * radius
        i, j = i[close], j[close]
        order = np.lexsort((j, i))
        return i[order], j[order]


class WeightedCloud:
    """Finite weighted point set in R^d discretizing an n-dimensional measure."""

    def __init__(self, coords: np.ndarray, weights: np.ndarray, n: int, delta_res: float):
        coords = np.ascontiguousarray(np.asarray(coords, dtype=float))
        weights = np.ascontiguousarray(np.asarray(weights, dtype=float))
        if coords.ndim != 2:
            raise InputError("coords must be an (N, d) array")
        d = coords.shape[1]
        # n == d is allowed: a full-dimensional measure still supports the
        # density diagnostics, though projection-based operations then have
        # no proper subspace to project to.
        if not 1 <= n <= d:
            raise InputError(f"intrinsic dimension must satisfy 1 <= n <= d, got n={n}, d={d}")
        if weights.shape != (coords.shape[0],):
            raise InputError("weights must be a length-N vector")
        if not np.all(np.isfinite(coords)):
            raise InputError("coordinates must be finite")
        if not np.all(np.isfinite(weights)) or (len(weights) and weights.min() <= 0):
            raise InputError("weights must be positive and finite")
        if delta_res <= 0:
            raise InputError("delta_res must be positive")
        coords.setflags(write=False)
        weights.setflags(write=False)
        self.coords = coords
        self.weights = weights
        self.n = int(n)
        self.delta_res = float(delta_res)
        self.grid = GridIndex(coords, delta_res)
        self._extent: float | None = None
        self._check_separation()

    def _check_separation(self):
        """Duplicate guard: pairwise distances must be >= delta_res / 100."""
        guard = self.delta_res / 100.0
        i, j = self.grid.close_pairs(guard)
        if len(i):
            raise InputError(
                f"points {i[0]} and {j[0]} are closer than delta_res/100 = {guard:g}"
            )

    @property
    def d(self) -> int:
        return self.coords.shape[1]

    def __len__(self):
        return self.coords.shape[0]

    def mass(self, indices=None) -> float:
        if indices is None:
            return float(self.weights.sum())
        return float(self.weights[np.asarray(indices, dtype=np.intp)].sum())

    def extent(self) -> float:
        """Bounding-box diagonal; an upper bound for the diameter."""
        if self._extent is None:
            if len(self) == 0:
                self._extent = 0.0
            else:
                span = self.coords.max(axis=0) - self.coords.min(axis=0)
                self._extent = float(np.linalg.norm(span))
        return self._extent

    def all_indices(self) -> np.ndarray:
        return np.arange(len(self), dtype=np.intp)

    def subcloud(self, indices) -> "WeightedCloud":
        idx = np.asarray(indices, dtype=np.intp)
        return WeightedCloud(self.coords[idx], self.weights[idx], self.n, self.delta_res)
