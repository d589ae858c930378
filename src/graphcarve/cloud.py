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


def row_dots(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Sums of a * b over the last (coordinate) axis; ``b`` has a's shape or is
    one (d,) vector, and defaults to ``a``: the squared norms.

    The one pair reduction of the package, equal bit for bit to ``np.einsum``'s
    sum of products over C-contiguous copies of a and b, on any strides.  That
    sum keeps one rounded product per SIMD lane, folds the upper lanes onto
    the lower ones, (l0 + l2) + (l1 + l3), and starts from +0.0; for d <= 4
    the products of whole coordinate planes are folded so, and larger d calls
    einsum.
    """
    d = a.shape[-1]
    if not 1 <= d <= 4:
        a = np.ascontiguousarray(a)
        return np.einsum("...k,...k->...", a, a if b is None else np.ascontiguousarray(b))
    other = a if b is None else b
    lanes = [a[..., k] * other[..., k] for k in range(d)]
    while len(lanes) > 1:
        half = (len(lanes) + 1) // 2
        for k in range(len(lanes) - half):
            lanes[k] += lanes[k + half]
        del lanes[half:]
    if b is not None:
        lanes[0] += 0.0  # -0.0 -> +0.0; squares are never -0.0
    return lanes[0]


def _floor_neg_log2(x: float) -> int:
    """floor(-log2 x) for a positive finite x, exactly: one ulp above 2^k,
    for k >= 4 and k <= -5, ``math.log2`` rounds to the integer k."""
    mantissa, exp = math.frexp(x)  # x = mantissa * 2^exp, 0.5 <= mantissa < 1
    return -exp + (mantissa == 0.5)


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

    @classmethod
    def default_for(cls, cloud: "WeightedCloud") -> "ScaleRange":
        """Coarsest shell covering the cloud extent, finest one octave above resolution.

        The top shell's outer radius is at least the extent, so no point pair
        escapes the range from above; pairs closer than half the finest
        radius stay below the audit floor.  A cloud narrower than its
        resolution gets the one shell at the resolution.
        """
        extent = max(cloud.extent(), cloud.delta_res)
        j_min = _floor_neg_log2(extent)
        j_max = _floor_neg_log2(cloud.delta_res) - 1
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
        found = self._tree.query_ball_point(center, reach, return_sorted=True)
        cand = np.fromiter(found, dtype=np.intp, count=len(found))
        dist_sq = row_dots(self.coords[cand] - center)
        r_sq = radius * radius
        keep = dist_sq < r_sq if strict else dist_sq <= r_sq
        return cand[keep]

    def near_pairs(self, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index pairs (i, j), i < j, and their squared distances: every pair with
        |x_i - x_j| <= radius, plus some just beyond it that the exact test drops."""
        pairs = self._tree.query_pairs(_reach(radius, self._scale),
                                       output_type="ndarray").astype(np.intp)
        i, j = pairs[:, 0], pairs[:, 1]
        return i, j, row_dots(self.coords[j] - self.coords[i])

    def close_pairs(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Index pairs (i, j), i < j, with |x_i - x_j| < radius, sorted by (i, j)."""
        i, j, dist_sq = self.near_pairs(radius)
        close = dist_sq < radius * radius
        i, j = i[close], j[close]
        order = np.lexsort((j, i))
        return i[order], j[order]


class WeightedCloud:
    """Finite weighted point set in R^d discretizing an n-dimensional measure."""

    def __init__(self, coords: np.ndarray, weights: np.ndarray, n: int, delta_res: float,
                 *, check_separation: bool = True):
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
        if not 0.0 < delta_res < math.inf:
            raise InputError(f"delta_res must be positive and finite, got {delta_res}")
        coords.setflags(write=False)
        weights.setflags(write=False)
        self.coords = coords
        self.weights = weights
        self.n = int(n)
        self.delta_res = float(delta_res)
        self.grid = GridIndex(coords, delta_res)
        self._extent: float | None = None
        if check_separation:
            self._check_separation()

    def _check_separation(self):
        """Duplicate guard: pairwise distances must be >= delta_res / 100.

        The kd-tree's squared distances reach the square of the bounding
        box's diagonal, so a cloud whose square is past the float range is
        refused before the tree is asked.
        """
        if not math.isfinite(self.extent() * self.extent()):
            raise InputError("the squared diagonal of the coordinates' bounding box "
                             f"exceeds the largest float, {np.finfo(float).max:.6g}; "
                             "scale the coordinates down")
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
                with np.errstate(over="ignore"):  # inf when its square passes the float range
                    span = self.coords.max(axis=0) - self.coords.min(axis=0)
                    self._extent = float(np.linalg.norm(span))
        return self._extent

    def all_indices(self) -> np.ndarray:
        return np.arange(len(self), dtype=np.intp)

    def subset_indices(self, subset=None) -> np.ndarray:
        """``subset`` sorted (default: every point); ``InputError`` unless it holds
        distinct indices of points of this cloud."""
        if subset is None:
            return self.all_indices()
        idx = np.sort(np.asarray(subset, dtype=np.intp))
        if len(idx) and (idx[0] < 0 or idx[-1] >= len(self) or (np.diff(idx) == 0).any()):
            raise InputError("a subset must hold distinct indices of cloud points")
        return idx

    def subcloud(self, indices) -> "WeightedCloud":
        idx = np.asarray(indices, dtype=np.intp)
        return WeightedCloud(self.coords[idx], self.weights[idx], self.n, self.delta_res,
                             check_separation=False)
