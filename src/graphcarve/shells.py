"""The cone-shell predicate and a table of cone-shell visits.

``cone_shells`` is the one membership test: the shell table and the
refinement shadows call it, so they make the same floating-point
comparisons.  Its cone test on squared lengths, ``in_cone``, is also the
graph certificate's and the resolution dedup's.  ``ShellTable`` finds the
visits of every vertex of a subset at once: the exact predicate filters the
entries of a parent table whose cone holds its own, or a ``cKDTree`` range
search (Bentley, CACM 18(9), 1975) of the table's own cone, or under
``oracle`` every pair, the brute-force reference, and keeps the survivors
as CSR rows with a shell bitmask per pair.  A pipeline run searches once,
for its theta0 table (every pair under ``--oracle``); every later table
filters a parent, and ``visited_directions`` skips the cover directions
that its entries never reach.  A table answers the visit counts of any alive
subset of its rows (a ``VisitationReport``), one row's visited scales and
lowest witnesses, and the entries of some rows at some scales, which is what
refinement reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cloud import _EPS, ScaleRange, WeightedCloud, _reach, row_dots
from .errors import InputError

_CHUNK = 1 << 15  # the pair budget of every dense pairwise pass, per block


def block_rows(width: int) -> int:
    """Rows per block of a dense pass whose rows each meet ``width`` points:
    at most ``_CHUNK`` pairs, read at call time, and one row at the least.
    The pass builds each block with ``pair_differences``."""
    return max(1, _CHUNK // width)


def pair_differences(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``rows[:, None, :] - cols[None, :, :]``, shape (len(rows), len(cols), d).

    The same elements bit for bit, written one coordinate at a time into a
    contiguous len(rows) x len(cols) plane each, so every subtraction runs
    along a row of ``cols``: the result is a view whose last axis steps across
    the planes, and ``row_dots`` over it reads each coordinate contiguously.
    """
    diff = np.empty((rows.shape[1], len(rows), len(cols)))
    for k in range(rows.shape[1]):
        np.subtract(rows[:, k, None], cols[None, :, k], out=diff[k])
    return diff.transpose(1, 2, 0)


def in_cone(perp_sq, dist_sq, aperture: float, strict: bool = False) -> np.ndarray:
    """perp_sq <= fl(aperture^2) dist_sq, or < under ``strict``: the cone test on
    squared lengths, which ``cone_shells``, the graph certificate and the
    resolution dedup make on the squares they hold."""
    bound = aperture * aperture * dist_sq
    return perp_sq < bound if strict else perp_sq <= bound


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
    dist_sq = row_dots(delta)
    if direction is None:
        perp_sq = row_dots(delta[:, :n])
    else:
        along = row_dots(delta, direction)
        perp_sq = np.maximum(dist_sq - along * along, 0.0)
    cone = in_cone(perp_sq, dist_sq, aperture, strict)
    if direction is not None:
        cone &= along > 0.0 if strict else along >= 0.0
    hits = np.zeros((len(delta), len(outer)), dtype=bool)
    dist = np.sqrt(dist_sq[cone])[:, None]
    hits[cone] = ((dist > inner) & (dist < outer) if strict
                  else (dist >= inner) & (dist <= outer))
    return hits


@dataclass(frozen=True)
class VisitationReport:
    """Per-vertex visited-scale counts of a subset.

    ``table`` counted it: it holds the aperture, direction and scale range, and
    the visited scales and witnesses of one vertex (``scales``, ``witness``).
    """

    subset: np.ndarray
    counts: np.ndarray           # visited-scale count per subset vertex
    table: "ShellTable"

    @property
    def max_count(self) -> int:
        return int(self.counts.max()) if len(self.counts) else 0

    def histogram(self, weights: np.ndarray) -> dict[int, float]:
        """count value -> mass of the vertices with that count, summed in row order."""
        mass = np.bincount(self.counts, weights=weights[self.subset])
        return {int(c): float(mass[c]) for c in np.unique(self.counts)}


def _candidate_pairs(points: np.ndarray, aperture: float, n: int, r_max: float,
                     axis=None) -> tuple[np.ndarray, np.ndarray]:
    """Position pairs (i < j): a superset of the in-cone pairs within r_max.

    With the horizontal coordinates divided by the aperture, the cut cone lies
    in the Chebyshev ball of radius r_max, padded far past the rounding of the
    frame change and of the predicate; sqrt(a^2 + 64 eps) / a also covers the
    predicate's fl(a * a) where it loses precision below the normal range.
    With ``axis`` (a unit vector) the one-sided test passes, in either order,
    pairs whose exact part orthogonal to the axis is at most A |delta|, A =
    sqrt(a^2 + 64 eps): a two-sided cone, searched in an orthonormal frame with
    the axis last.  The frame moves a pair's coordinates by under 8 d^1.5 eps
    max(s) for shifted points s, within slack = 64 d eps max(s) for d <= 64, so
    r_max + slack / A keeps such pairs: A r_max + slack = A (r_max + slack / A).
    """
    scaled = points - points.min(axis=0)
    spread = np.sqrt(aperture * aperture + 64.0 * _EPS)  # A
    if axis is not None:
        slack = 64.0 * len(axis) * _EPS * float(scaled.max())
        scaled = scaled @ np.linalg.qr(axis[:, None], mode="complete")[0][:, ::-1]
        n, r_max = len(axis) - 1, r_max + slack / spread
    scaled[:, :n] /= aperture
    radius = r_max * (1e-9 + spread / aperture) + 64.0 * _EPS * float(np.abs(scaled).max())
    pairs = cKDTree(scaled).query_pairs(radius, p=np.inf, output_type="ndarray")
    return pairs[:, 0], pairs[:, 1]


def _all_pairs(size: int):
    """Every position pair i < j of ``size`` points, in row-major blocks of at
    most ``_CHUNK`` pairs."""
    starts = np.concatenate([[0], np.cumsum(np.arange(size - 1, -1, -1))])
    for lo in range(0, int(starts[-1]), _CHUNK):
        flat = np.arange(lo, min(lo + _CHUNK, int(starts[-1])))
        rows = np.searchsorted(starts, flat, side="right") - 1
        yield rows, rows + 1 + flat - starts[rows]


def _reach_of(direction, aperture: float, n: int) -> float:
    """``ShellTable.reach`` along ``direction`` or its widest row: the one-sided test passes
    pairs whose exact part orthogonal to w is up to sqrt(a^2 + 64 eps) |delta|, so a horizontal
    part up to |pi_H w| |delta| longer (``_candidate_pairs``); 1 + 1e-9 covers the rounding."""
    return aperture if direction is None else (1.0 + 1e-9) * float(np.sqrt(
        aperture * aperture + 64.0 * _EPS) + np.linalg.norm(direction[..., :n], axis=-1).max())


class ShellTable:
    """Closed cone-shell visits of a subset as CSR rows with shell bitmasks.

    Row p is the vertex ``subset[p]``; its columns are the subset positions of
    the points in its cone shells, ascending (so ascending cloud index), and
    bit s of a column's mask marks the shell of scale ``js[s]``.  ``alive``
    masks are over subset positions and restrict the visitors, not the rows.
    ``direction`` must have unit length to within a few eps.  Candidates come
    from the entries of ``parent``, a table that encloses this one (``_inherited``),
    from every pair under ``oracle`` or below two points, or else from one kd-tree
    search of the table's own cone, two-sided around the vertical or w's line.
    """

    def __init__(self, cloud: WeightedCloud, subset, aperture: float,
                 scale_range: ScaleRange, direction=None, oracle: bool = False,
                 parent: "ShellTable | None" = None):
        self.subset = cloud.subset_indices(subset)
        self.cloud, self.aperture = cloud, aperture
        self.direction, self.scale_range = direction, scale_range
        self.js = scale_range.js
        if len(self.js) > 64:
            raise InputError(f"{len(self.js)} scales exceed the 64-bit shell mask")
        outer = 2.0 ** (-self.js.astype(float))
        points = cloud.coords[self.subset]
        self.reach = _reach_of(direction, aperture, cloud.n)
        if parent is not None:
            pairs = self._inherited(parent)
        elif oracle or len(points) < 2:
            pairs = None
        else:
            pairs = _candidate_pairs(points, aperture, cloud.n, float(outer.max()), direction)
        blocks = _all_pairs(len(points)) if pairs is None else (
            (pairs[0][lo:lo + _CHUNK], pairs[1][lo:lo + _CHUNK])
            for lo in range(0, len(pairs[0]), _CHUNK))
        shell_bit = np.uint64(1) << np.arange(len(self.js), dtype=np.uint64)
        kept = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0, dtype=np.uint64),)]
        # One-sided: both orders of a candidate pair i < j, fl(a - b) = -fl(b - a).
        orders = (0, 1) if direction is not None and parent is None else (0,)
        for ends in blocks:
            delta = points.take(ends[1], axis=0) - points.take(ends[0], axis=0)
            for flip in orders:
                hits = cone_shells(-delta if flip else delta, aperture, cloud.n,
                                   direction, outer / 2.0, outer)
                seen = np.unique(np.flatnonzero(hits) // len(outer))  # rows with a hit
                bits = np.bitwise_or.reduce(hits[seen] * shell_bit, axis=1)
                kept.append((ends[flip][seen], ends[1 - flip][seen], bits))
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

    def _inherited(self, parent: "ShellTable") -> tuple[np.ndarray, np.ndarray]:
        """The parent's entries (row, column) inside the subset, as positions; i < j only
        for a two-sided table.  A one-sided parent holds every hit: the same sign test and
        shells, and a bound fl(a * a) |delta|^2 that grows with its aperture a."""
        pos = np.searchsorted(parent.subset, self.subset)
        along = np.array_equal(parent.direction, self.direction)  # also both two-sided
        if (parent.aperture < (self.aperture if along else self.reach)
                or not along and parent.direction is not None
                or parent.cloud is not self.cloud or parent.scale_range != self.scale_range
                or not (pos < len(parent.subset)).all()
                or not np.array_equal(parent.subset[pos], self.subset)):
            raise InputError(f"the parent table must share the cloud and scale range, hold the "
                             f"subset, and be two-sided at an aperture >= {self.reach} or "
                             f"one-sided along the same direction at >= {self.aperture}")
        local = np.full(len(parent.subset), -1, dtype=np.intp)
        local[pos] = np.arange(len(self.subset))
        first = local[np.repeat(np.arange(len(parent.subset)), np.diff(parent.indptr))]
        second = local[parent.cols]
        both = (first >= 0) & (second >= 0) & ((first < second) | (self.direction is not None))
        return first[both], second[both]

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

    def entries(self, rows: np.ndarray, js: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The entries of the given rows in a shell of a scale among ``js``
        (scales outside the table's are ignored), row by row: each one's index
        into ``rows`` and its column."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        owner = np.repeat(np.arange(len(rows)), lengths)
        at = np.arange(len(owner)) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        shifts = (js[(js >= self.js[0]) & (js <= self.js[-1])] - self.js[0]).astype(np.uint64)
        hit = self.bits[at] & np.bitwise_or.reduce(np.uint64(1) << shifts) != 0
        return owner[hit], self.cols[at[hit]]

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
                                table=self)


def visited_directions(table: ShellTable, subset, directions: np.ndarray,
                       aperture: float) -> np.ndarray:
    """Mask of the unit ``directions`` whose one-sided ``aperture`` tables over
    ``subset`` (distinct indices in ``table``) may hold a visit; the others hold
    none there or on any subset.  ``table``, two-sided at an aperture of at least
    their ``reach``, holds every entry (row, column) they keep.  Along u the test
    keeps one only at an angle of at most asin(A) to u (exact orthogonal part
    at most A |delta|, rounded part along u not negative), so a kd-tree over the
    entries' unit vectors finds one within the chord 2 sin(asin(A) / 2) of u,
    written without cancellation and padded by ``cloud._reach``."""
    reach = _reach_of(directions, aperture, table.cloud.n)
    if table.direction is not None or table.aperture < reach:
        raise InputError(f"the table must be two-sided at an aperture >= {reach}")
    inside = np.isin(table.subset, subset)
    both = np.repeat(inside, np.diff(table.indptr)) & inside[table.cols]
    points = table.cloud.coords[table.subset]
    delta = points[table.cols[both]] - np.repeat(points, np.diff(table.indptr), axis=0)[both]
    unit = delta / np.sqrt(row_dots(delta))[:, None]
    spread = aperture * aperture + 64.0 * _EPS  # A^2
    chord = np.sqrt(2.0 * spread / (1.0 + np.sqrt(max(1.0 - spread, 0.0))))
    return cKDTree(unit).query_ball_point(directions, _reach(float(chord), 1.0),
                                          return_length=True) > 0
