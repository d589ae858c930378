"""The cone-shell predicate and a table of cone-shell visits.

``cone_shells`` is the one membership test: the shell table and the
refinement shadows call it, so they make the same floating-point
comparisons.  ``ShellTable`` finds the visits of every vertex of a subset at
once: a ``cKDTree`` range search (Bentley, CACM 18(9), 1975) in a sheared
frame returns a superset of the in-cone pairs, the exact predicate filters
them, and the survivors are kept as CSR rows with a shell bitmask per pair.
With ``oracle`` set the candidates are every pair instead, a block of rows
at a time, which is the brute-force reference for the kd-tree search: the
two tables make the same comparisons on the pairs they share, so they are
equal.  One table answers the visit counts of any alive subset of its rows
as a ``VisitationReport``, and the visited scales and lowest witnesses of one
row at a time, which is what refinement reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cloud import ScaleRange, WeightedCloud
from .errors import InputError

_EPS = np.finfo(float).eps
_CHUNK = 1 << 15  # candidate pairs per exact-test batch


def cone_shells(delta: np.ndarray, aperture: float, n: int, direction,
                inner: np.ndarray, outer: np.ndarray, strict: bool = False) -> np.ndarray:
    """Membership of each displacement in each shell, shape (len(delta), len(outer)).

    Closed: inner <= |delta| <= outer and |perp| <= aperture |delta|, where
    perp is the horizontal part (first n coordinates) for the two-sided cone
    and the part orthogonal to ``direction`` for the one-sided cone, which
    also needs delta . w >= 0.  ``strict`` makes every comparison strict: the
    interior of the closed set.  Rows never meet in a BLAS product, so a pair
    gets the same answer in any batch.
    """
    dist_sq = np.einsum("ij,ij->i", delta, delta)
    if direction is None:
        horiz = delta[:, :n]
        perp_sq = np.einsum("ij,ij->i", horiz, horiz)
    else:
        along = np.einsum("ij,j->i", delta, direction)
        perp_sq = np.maximum(dist_sq - along * along, 0.0)
    bound = aperture * aperture * dist_sq
    cone = perp_sq < bound if strict else perp_sq <= bound
    if direction is not None:
        cone &= along > 0.0 if strict else along >= 0.0
    dist = np.sqrt(dist_sq)[:, None]
    if strict:
        return cone[:, None] & (dist > inner) & (dist < outer)
    return cone[:, None] & (dist >= inner) & (dist <= outer)


@dataclass(frozen=True)
class VisitationReport:
    """Per-vertex visited-scale counts of a subset.

    The visited scales and witnesses of one vertex come from the table that
    counted it: ``ShellTable.scales`` and ``ShellTable.witness``.
    """

    subset: np.ndarray
    counts: np.ndarray           # visited-scale count per subset vertex
    aperture: float
    direction: np.ndarray | None
    scale_range: ScaleRange

    @property
    def mode(self) -> str:
        return "two_sided_codim" if self.direction is None else "one_sided_dir"

    @property
    def max_count(self) -> int:
        return int(self.counts.max()) if len(self.counts) else 0

    def histogram(self, weights: np.ndarray | None = None) -> dict[int, float]:
        """count value -> mass (or cardinality) of vertices with that count."""
        out: dict[int, float] = {}
        for i, c in enumerate(self.counts):
            w = 1.0 if weights is None else float(weights[self.subset[i]])
            out[int(c)] = out.get(int(c), 0.0) + w
        return dict(sorted(out.items()))


def _candidate_pairs(points: np.ndarray, aperture: float, n: int, direction,
                     r_max: float) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) position pairs: a superset of the in-cone pairs within r_max.

    Two-sided: with the horizontal coordinates divided by the aperture, the
    cut cone lies in the Chebyshev ball of radius r_max (query_pairs returns
    each unordered pair once).  One-sided: in an orthonormal frame with w
    first and the other coordinates divided by 2 * aperture, it lies in the
    Chebyshev ball of radius r_max / 2 around x + (r_max / 2) w.  The radius
    is padded far past the rounding of the frame change and of the predicate,
    whose one-sided form subtracts squares and so can pass a pair whose exact
    perpendicular part is up to sqrt(1 + O(eps) / aperture^2) times too long.
    """
    scaled = points - points.min(axis=0)
    radius = r_max
    if direction is None:
        scaled[:, :n] /= aperture
    else:
        frame = np.linalg.qr(direction[:, None], mode="complete")[0]
        frame[:, 0] = direction
        scaled = scaled @ frame
        scaled[:, 1:] /= 2.0 * aperture
        radius = r_max / 2.0
    radius = (radius * (1e-9 + np.sqrt(1.0 + 64.0 * _EPS / aperture ** 2))
              + 64.0 * _EPS * float(np.abs(scaled).max()))
    tree = cKDTree(scaled)
    if direction is None:
        pairs = tree.query_pairs(radius, p=np.inf, output_type="ndarray")
        return pairs[:, 0], pairs[:, 1]
    centres = scaled.copy()  # the tree keeps a reference to ``scaled``
    centres[:, 0] += r_max / 2.0
    found = cKDTree(centres).sparse_distance_matrix(tree, radius, p=np.inf,
                                                    output_type="ndarray")
    keep = found["i"] != found["j"]
    return found["i"][keep], found["j"][keep]


def _all_pairs(size: int, symmetric: bool):
    """Every position pair (i, j) of ``size`` points, i < j if ``symmetric`` and
    i != j otherwise, in row-major blocks of at most ``_CHUNK`` pairs."""
    widths = np.arange(size - 1, -1, -1) if symmetric else np.full(size, size - 1)
    starts = np.concatenate([[0], np.cumsum(widths)])
    for lo in range(0, int(starts[-1]), _CHUNK):
        flat = np.arange(lo, min(lo + _CHUNK, int(starts[-1])))
        rows = np.searchsorted(starts, flat, side="right") - 1
        k = flat - starts[rows]
        yield rows, (rows + 1 + k if symmetric else k + (k >= rows))


class ShellTable:
    """Closed cone-shell visits of a subset as CSR rows with shell bitmasks.

    Row p is the vertex ``subset[p]``; its columns are the subset positions of
    the points in its cone shells, ascending (so ascending cloud index), and
    bit s of a column's mask marks the shell of scale ``js[s]``.  ``alive``
    masks are over subset positions and restrict the visitors, not the rows.
    ``oracle`` takes every pair as a candidate in place of the kd-tree search.
    """

    def __init__(self, cloud: WeightedCloud, subset: np.ndarray, aperture: float,
                 scale_range: ScaleRange, direction=None, oracle: bool = False):
        self.subset = np.sort(np.asarray(subset, dtype=np.intp))
        self.aperture, self.direction, self.scale_range = aperture, direction, scale_range
        self.js = scale_range.js
        if len(self.js) > 64:
            raise InputError(f"{len(self.js)} scales exceed the 64-bit shell mask")
        outer = 2.0 ** (-self.js.astype(float))
        points = cloud.coords[self.subset]
        if oracle:
            blocks = _all_pairs(len(points), direction is None)
        else:
            rows = cols = np.empty(0, dtype=np.intp)
            if len(points) > 1:
                rows, cols = _candidate_pairs(points, aperture, cloud.n, direction,
                                              float(outer.max()))
            blocks = ((rows[lo:lo + _CHUNK], cols[lo:lo + _CHUNK])
                      for lo in range(0, len(rows), _CHUNK))
        shell_bit = np.uint64(1) << np.arange(len(self.js), dtype=np.uint64)
        kept = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0, dtype=np.uint64),)]
        for first, second in blocks:
            hits = cone_shells(points[second] - points[first], aperture, cloud.n,
                               direction, outer / 2.0, outer)
            bits = np.bitwise_or.reduce(hits * shell_bit, axis=1)
            seen = bits != 0
            kept.append((first[seen], second[seen], bits[seen]))
        rows, cols, bits = (np.concatenate(part) for part in zip(*kept))
        if direction is None:
            # delta -> -delta leaves the two-sided test bit-identical.
            rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
            bits = np.concatenate([bits, bits])
        order = np.lexsort((cols, rows))
        self.cols = cols[order].astype(np.intp)
        self.bits = bits[order]
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(rows, minlength=len(self.subset)))])

    def counts(self, alive) -> np.ndarray:
        """Visited-scale count of every row."""
        bits = np.where(alive[self.cols], self.bits, 0)
        words = np.zeros(len(self.subset), dtype=np.uint64)
        starts = self.indptr[:-1]
        filled = starts < self.indptr[1:]
        if filled.any():
            words[filled] = np.bitwise_or.reduceat(bits, starts[filled])
        return np.bitwise_count(words).astype(np.int64)

    def scales(self, pos: int, alive) -> np.ndarray:
        """Visited j values of row ``pos``, ascending."""
        seg = slice(self.indptr[pos], self.indptr[pos + 1])
        word = np.bitwise_or.reduce(self.bits[seg][alive[self.cols[seg]]])
        return self.js[(word >> np.arange(len(self.js), dtype=np.uint64)) & 1 != 0]

    def witness(self, pos: int, j: int, alive) -> int:
        """Lowest alive cloud index in the shell of scale j around row ``pos``."""
        seg = slice(self.indptr[pos], self.indptr[pos + 1])
        bit = np.uint64(1) << np.uint64(j - self.js[0])
        hit = alive[self.cols[seg]] & (self.bits[seg] & bit != 0)
        return int(self.subset[self.cols[seg][np.argmax(hit)]])

    def visits(self, alive=None) -> VisitationReport:
        """Report of the alive rows, visited by alive columns only (default: all)."""
        alive = (np.ones(len(self.subset), dtype=bool) if alive is None
                 else np.array(alive, dtype=bool))
        return VisitationReport(subset=self.subset[alive], counts=self.counts(alive)[alive],
                                aperture=self.aperture, direction=self.direction,
                                scale_range=self.scale_range)
