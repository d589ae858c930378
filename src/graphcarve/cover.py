"""Covering a two-sided cone by finitely many one-sided direction cones.

Given an axis subspace V and apertures alpha, alpha*s, builds a greedy
(alpha*s)-net of unit directions inside the cone region; three inclusions
make the net a cover:

  (a) every unit vector of the alpha-cone lies in some one-sided
      (alpha*s)-cone of the net: checked on random region samples,
  (b) each one-sided (alpha*s)-cone sits inside the one-sided alpha-cone of
      the same direction (aperture monotonicity): it holds by construction,
      since alpha*s <= alpha makes cos(alpha*s) >= cos(alpha),
  (c) the union of one-sided alpha-cones stays inside the two-sided cone of
      aperture b * alpha, with b measured empirically; it is at most 2, so
      ``build_cover_for_theta`` builds once and reports b_used = 2.5.

The net and the check of (a) share one far test (``_reached``): a point
first meets the centre that a direct-mapped cache names for its cell
(``_Guesses``), and only the points whose guess fails ask a kd-tree (Bentley
1975) over the centres for their nearest centre within a padded radius; only
those whose nearest centre fails too search every centre in the radius.  The
exact test settles every pair, so the net and the check equal the dense
scan's whatever the cache holds; on the codim2 cover (m = 1,471), where the
check reads the net's cache, about one point in nine asks the tree.  The net
keeps its centre tree from block to block and rebuilds it only when the net
has grown.  In the plane it stops once a sorted sweep, with
1e-9 margins past the rounding, proves that its caps cover the region's two
arcs (``_arcs_covered``); a band on a higher sphere has no such sweep, so
there every candidate is scanned.

The net's candidates are Gaussian images of the unscrambled Sobol' sequence,
generated here in Gray-code order (Antonov & Saleev, USSR Comput. Math. Math.
Phys. 19(1), 1979) from Joe & Kuo's direction numbers (SIAM J. Sci. Comput.
30(5), 2008); the table holds 21 dimensions, so covers exist for d <= 21.
The sampler reads them as one stream of aligned blocks, each transformed as
the net asks for it, and stops once it holds the samples asked for; the
check's random proposals are drawn in whole batches.  Each block's region
members are one piece, and the net scans each piece as one block.  The cover
runs on the calling thread; the check and the caps draw after the net.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace
from functools import reduce
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import ndtri

from .cloud import _EPS, _reach, row_dots
from .cloud_io import SCHEMA
from .errors import CoverInvalidError, InputError
from .geometry import Subspace

_NET_MARGIN = 0.15
# Sobol' proposals transformed at a time: 2^10, 2^10, then doubling up to this;
# also the most rows the greedy net scans as one block.
_SUB_BLOCK = 2 ** 15
# The guess cache (_Guesses): slots in its table, and its cell side over the
# net spacing (of 0.3 to 1.5, 0.5 and 0.7 timed best on d = 3 and 4 nets).
_SLOTS = 2 ** 17
_CELL = 0.7
_ARC_FLOOR = 1e-4  # the least spacing at which _arcs_covered may end the net
# build_cover_for_theta's widening constant: above the bound 2 that every
# one-sided cover of the aperture-alpha cone meets (see there).
_B_USED = 2.5

# Joe & Kuo's (2008) primitive polynomials and initial direction numbers m_k
# for Sobol' dimensions 2..21, the polynomial's bits from x^deg down to 1.
# Dimension 1 has every m_k = 1.
_JOE_KUO = (
    (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)), (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)), (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)), (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)),
)
_SOBOL_BITS = 30
_SOBOL_MAX_D = 1 + len(_JOE_KUO)


def _direction_numbers() -> np.ndarray:
    """(bits, _SOBOL_MAX_D) table: row k holds v_k = m_k 2^(bits-1-k) per dimension.

    Past the initial values, m_k = m_(k-deg) ^ XOR_(j=1..deg) a_j 2^j m_(k-j),
    with a_j bit deg-j of the polynomial (Bratley & Fox, ACM TOMS 14(1), 1988).
    """
    columns = [[1] * _SOBOL_BITS]
    for poly, initial in _JOE_KUO:
        deg = poly.bit_length() - 1
        m = list(initial)
        for k in range(deg, _SOBOL_BITS):
            new = m[k - deg]
            for j in range(1, deg + 1):
                if poly >> (deg - j) & 1:
                    new ^= m[k - j] << j
            m.append(new)
        columns.append(m)
    shifts = np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)
    return np.array(columns, dtype=np.uint32).T << shifts[:, None]


_SOBOL_V = _direction_numbers()


def _sobol(d: int, start: int, n: int) -> np.ndarray:
    """Points start .. start + n - 1 of the unscrambled Sobol' sequence in [0, 1)^d.

    Point i is the XOR of the v_k over the set bits k of gray(i) = i ^ (i >> 1)
    (Antonov & Saleev 1979), scaled by 2^-bits.  The block [0, 2^q) is built
    by reflection, x[2^k + i] = x[2^k - 1 - i] ^ v_k.  With n = 2^q and start
    a multiple of n, gray(start + b) = gray(start) ^ gray(b) for b < n, so the
    block is x[b] ^ x[start]: a later block needs only its start index.
    """
    assert n & (n - 1) == 0 and start % n == 0
    v = _SOBOL_V[:, :d]
    # One contiguous row per dimension: the reflection then runs along rows.
    x = np.zeros((d, n), dtype=np.uint32)
    half = 1
    while half < n:
        np.bitwise_xor(x[:, half - 1::-1], v[half.bit_length() - 1, :, None],
                       out=x[:, half:2 * half])
        half *= 2
    gray = start ^ (start >> 1)
    offset = np.zeros(d, dtype=np.uint32)
    for k in range(gray.bit_length()):
        if gray >> k & 1:
            offset ^= v[k]
    x ^= offset[:, None]
    return np.multiply(x.T, 2.0 ** -_SOBOL_BITS, out=np.empty((n, d)))


@dataclass(frozen=True)
class DirectionCover:
    axis: Subspace
    alpha: float
    s: float
    directions: np.ndarray  # (m, d) unit vectors
    b_used: float
    b_measured: float

    @property
    def m(self) -> int:
        return self.directions.shape[0]

    @property
    def c_cover(self) -> float:
        """Net cardinality normalized by the covering-number rate."""
        d = self.axis.d
        return self.m * (self.alpha * self.s) ** (d - 1)

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA,
            "axis_frame": self.axis.frame.tolist(),
            "alpha": self.alpha,
            "s": self.s,
            "directions": self.directions.tolist(),
            "b_used": self.b_used,
        }
        return json.dumps(payload, sort_keys=True)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``np.add.reduce(a, axis=1)`` bit for bit: numpy adds fewer than 8
    columns from the left, which a fold over the columns does faster."""
    return np.add.reduce(a, axis=1) if a.shape[1] >= 8 else reduce(np.add, a.T)


def _region_pieces(axis: Subspace, alpha: float, count: int,
                   rng: np.random.Generator | None = None) -> Iterator[np.ndarray]:
    """``count`` unit vectors quasi-covering {y on the sphere : |pi_perp y| <=
    alpha |y|}, yielded as the region members of one block of proposals.

    Proposes Gaussian directions with the perpendicular part damped to the
    aperture width, then keeps exact region members.  With ``rng`` given the
    proposals are random instead of low-discrepancy (used for checks so the
    check is independent of the net construction) and each batch is drawn
    whole, leaving the generator where the caller's next draws expect it.
    Otherwise the Sobol' sequence is read as one stream from index 0 in
    aligned blocks of 2^10, 2^10, then doubling up to ``_SUB_BLOCK``, each
    when the consumer asks for it, and the sampler stops once it holds
    ``count`` samples.
    """
    d = axis.d
    proj = axis.projector()
    start = kept = 0
    while kept < count:
        if rng is not None:
            g = rng.standard_normal((2 ** max(12, math.ceil(math.log2(2 * (count - kept)))), d))
        else:
            # Every start is a multiple of its block's size, as _sobol asks.
            size = min(max(start, 2 ** 10), _SUB_BLOCK)
            g = ndtri(np.clip(_sobol(d, start, size), 1e-12, 1.0 - 1e-12))
            start += size
        # Every step writes into an array it already holds, in the operation
        # order of y = axial + alpha * (g - axial) and of np.linalg.norm (sqrt
        # of the row sums of squares): the samples stay bit for bit those of
        # the plain expressions.
        y = g @ proj.T
        g -= y
        g *= alpha
        y += g
        del g
        norms = np.sqrt(_row_sums(y * y))
        good = norms > 1e-12
        if not good.all():
            y, norms = y[good], norms[good]
        y /= norms[:, None]
        perp_sq = y @ proj.T
        np.subtract(y, perp_sq, out=perp_sq)
        perp_sq *= perp_sq
        y = y[np.sqrt(_row_sums(perp_sq)) <= alpha][:count - kept]
        del perp_sq
        if len(y):
            kept += len(y)
            yield y


def _region_samples(axis: Subspace, alpha: float, count: int,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """The pieces of ``_region_pieces``, in one array."""
    return np.concatenate([*_region_pieces(axis, alpha, count, rng)], axis=0)


def _tree(points: np.ndarray) -> cKDTree:
    """kd-tree for range searches that an exact test settles: the pairs within
    a radius do not depend on the tree's shape, so the cheaper build serves."""
    return cKDTree(points, balanced_tree=False, compact_nodes=False)


class _Guesses:
    """A direct-mapped guess cache for ``_reached``: ``_SLOTS`` slots, each
    naming a centre by its index.  A point's slot is a hash of its integer
    cell floor(point / side), side = ``_CELL`` x the net spacing; a fresh
    cache names centre 0 in every slot."""

    def __init__(self, spacing: float):
        self.side = _CELL * spacing
        self.table = np.zeros(_SLOTS, dtype=np.intp)

    def slots(self, points: np.ndarray) -> np.ndarray:
        # Only the slot depends on the cell: an overflowed cell just hashes
        # to some slot, whose nominee the exact test still settles.
        with np.errstate(all="ignore"):
            cells = np.floor(points / self.side).astype(np.int64)
        # Powers of an odd constant (2^64 / golden ratio), wrapping mod 2^64.
        h = cells @ np.cumprod(np.full(points.shape[1], -0x61C8864680B583EB))
        return (h ^ h >> 29) & (len(self.table) - 1)


def _reached(points: np.ndarray, centres: np.ndarray, tree: cKDTree, reach: float,
             test: Callable[[np.ndarray, np.ndarray], np.ndarray],
             guesses: _Guesses) -> np.ndarray:
    """Mask of the points that pass the exact ``test(point rows, centre rows)``
    against some centre, given that every passing pair lies within ``reach``.

    Each point first meets the centre its slot in ``guesses`` names (every
    slot must name one of ``centres``).  ``tree`` over the centres names the
    nearest centre within reach of each point whose guess fails, and the
    test settles that pair; a passing nearest centre is written to the
    point's slot.  Only the points whose nearest centre fails too meet all
    their candidates, in one range search of a tree over them.  A nominee,
    guessed or nearest, only answers for itself, so the mask does not depend
    on what the cache holds or on which centre the tree names."""
    slots = guesses.slots(points)
    passed = test(points, centres[guesses.table[slots]])
    rest = np.flatnonzero(~passed)
    nearest = tree.query(points[rest], distance_upper_bound=reach)[1]
    found = nearest < len(centres)
    rest, nearest = rest[found], nearest[found]
    hit = test(points[rest], centres[nearest])
    passed[rest[hit]] = True
    guesses.table[slots[rest[hit]]] = nearest[hit]
    rest = rest[~hit]
    if len(rest):
        pairs = _tree(points[rest]).sparse_distance_matrix(tree, reach, output_type="ndarray")
        rows = rest[pairs["i"]]
        passed[rows[test(points[rows], centres[pairs["j"]])]] = True
    return passed


def _greedy_net(pieces: Iterable[np.ndarray], spacing: float, guesses: _Guesses,
                done: Callable[[np.ndarray], bool] | None = None) -> np.ndarray:
    """Greedy maximal net in scan order over the rows of ``pieces``, each a
    non-empty (rows, d) array; pairwise distances > spacing.

    A point joins the net when no earlier net point lies within ``spacing``
    (squared distance <= spacing^2).  Each piece is scanned in blocks of at
    most ``_SUB_BLOCK`` rows, one block when it is no longer.  Each block
    point first meets the centre that its slot in ``guesses`` names, and the
    exact squared-distance test settles that pair (``_reached``); the net
    writes each new centre to its own slot, and ``_reached`` each passing
    nearest centre, so most points pass on their guess.  For the rest a
    kd-tree over the centres chosen so far (Bentley, CACM 18(9), 1975), kept
    across blocks and rebuilt only after the net has grown, names the
    nearest centre within a padded radius, and a point whose nearest centre
    fails too meets every centre in the radius.  The block's
    survivors then meet each other: one ``query_pairs`` over them, settled by
    the same test, lists each survivor's later neighbours, and a scan in
    order keeps every survivor that no kept one reaches.  The first block
    meets no centres, so all its points survive and their pairs grow with its
    square, so it should be short; the block bound caps that square whatever
    a caller passes.  The work grows with the net size instead
    of with net size x point count, and the output equals the plain dense
    scan bit for bit wherever the pieces end and whatever the cache holds
    (its slots need only name centres of the first block's net).
    ``done(centres)``, asked after each block that added centres, ends the
    scan (no later piece is read) once it proves every later point within
    the test of a centre.  The pieces are made as the scan asks for them.
    """
    sq = spacing * spacing

    def within(rows: np.ndarray, others: np.ndarray) -> np.ndarray:
        return row_dots(rows - others) <= sq

    scale, centres, tree = 0.0, None, None
    blocks = (piece[lo:lo + _SUB_BLOCK] for piece in pieces
              for lo in range(0, len(piece), _SUB_BLOCK))
    for block in blocks:
        scale = max(scale, float(np.abs(block).max()))
        reach = _reach(spacing, scale)
        rest = block
        if centres is not None:
            if tree is None or tree.n < len(centres):
                tree = _tree(centres)
            rest = block[~_reached(block, centres, tree, reach, within, guesses)]
            if not len(rest):
                continue
        first, later = _tree(rest).query_pairs(reach, output_type="ndarray").T
        near = within(rest[later], rest[first])
        first, later = first[near], later[near]
        order = np.argsort(first)
        bounds = np.searchsorted(first[order], np.arange(len(rest) + 1))
        later = later[order]
        # The survivors that no kept one reaches stay open: they are kept.
        open_ = np.ones(len(rest), dtype=bool)
        for k in range(len(rest)):
            if open_[k]:
                open_[later[bounds[k]:bounds[k + 1]]] = False
        new = rest[open_]
        centres = new if centres is None else np.concatenate([centres, new])
        guesses.table[guesses.slots(new)] = np.arange(len(centres) - len(new), len(centres))
        if done is not None and done(centres):
            break
    return centres


def _arcs_covered(centres: np.ndarray, axis: Subspace, alpha: float, spacing: float) -> bool:
    """In the plane: whether every region sample passes the net's exact test
    (squared distance <= spacing^2) against some centre.

    The region is two arcs, |sin psi| <= alpha around +-axis; a sorted sweep
    asks whether the centres' intervals of 2 asin(rho / 2), rho = spacing
    (1 - 1e-9), cover them widened to asin(alpha (1 + 1e-9)).  The samples'
    norms and region test, the angles and the exact test round by under
    1e-14 in all, and for rho, alpha >= ``_ARC_FLOOR`` both margins exceed
    1e-13.  Unwrapped intervals can only hide coverage.  False when
    alpha (1 + 1e-9) >= 1 or rho or alpha < ``_ARC_FLOOR``; d = 3 has no sweep.
    """
    rho, wide = spacing * (1.0 - 1e-9), alpha * (1.0 + 1e-9)
    if wide >= 1.0 or min(rho, alpha) < _ARC_FLOOR:
        return False
    u = axis.frame[:, 0]
    angle = np.arctan2(centres @ np.array([-u[1], u[0]]), centres @ u)
    angle[angle < -0.5 * math.pi] += 2.0 * math.pi  # -u's arc lies around pi
    angle.sort()
    half, width = 2.0 * math.asin(0.5 * rho), math.asin(wide)
    # The equal intervals meeting an arc cover it if they overlap in turn.
    near = [(mid, angle[np.abs(angle - mid) <= width + half]) for mid in (0.0, math.pi)]
    return all(len(a) and a[0] - half <= mid - width and a[-1] + half >= mid + width
               and np.all(np.diff(a) <= 2.0 * half) for mid, a in near)


def _one_sided_caps(directions: np.ndarray, aperture: float, per_dir: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Random unit vectors inside the one-sided cones of the given directions."""
    m, d = directions.shape
    sines = aperture * rng.random((m, per_dir)) ** (1.0 / max(d - 1, 1))
    g = rng.standard_normal((m, per_dir, d))
    along = np.einsum("mpd,md->mp", g, directions)
    perp = g - along[:, :, None] * directions[:, None, :]
    perp_norm = np.linalg.norm(perp, axis=2)
    perp_norm[perp_norm < 1e-12] = 1.0
    perp_unit = perp / perp_norm[:, :, None]
    cos = np.sqrt(1.0 - sines**2)
    y = cos[:, :, None] * directions[:, None, :] + sines[:, :, None] * perp_unit
    return y.reshape(-1, d)


def _covered(check: np.ndarray, directions: np.ndarray, cos_small: float,
             guesses: _Guesses) -> np.ndarray:
    """Mask of the check samples y with y . u >= cos_small for some direction u.

    As |y - u|^2 = 2 - 2 y . u for unit vectors, every such pair lies within
    the chord r = sqrt(2 - 2 cos_small), padded to sqrt(r^2 + 64 eps) past that
    subtraction's rounding, and the exact dot settles it (``_reached``): off
    the sphere the nearest direction need not have the largest dot.  Each
    sample first meets the direction its slot in ``guesses`` names; the
    net's own cache, over the same directions, names one that passes for
    most samples."""
    reach = _reach(math.sqrt(2.0 - 2.0 * cos_small + 64.0 * _EPS), 1.0)
    return _reached(check, directions, _tree(directions), reach,
                    lambda rows, dirs: row_dots(rows, dirs) >= cos_small, guesses)


def build_cover(axis: Subspace, alpha: float, s: float,
                check_samples: int = 20000, seed: int = 0,
                net_samples: int = 200000) -> DirectionCover:
    """Construct and certify a one-sided direction cover of the alpha-cone:
    (a) is decided on kd-tree candidates by the exact dot, (b) holds by
    construction, and (c) measures b."""
    if not 0.0 < alpha < 1.0:
        raise InputError("alpha must lie in (0, 1)")
    if not 0.0 < s <= 1.0:
        raise InputError("s must lie in (0, 1]")
    for name, count in (("check_samples", check_samples), ("net_samples", net_samples)):
        if count < 1:
            raise InputError(f"{name} must be at least 1, got {count}")
    if axis.d > _SOBOL_MAX_D:
        raise CoverInvalidError(
            f"the direction cover's Sobol' net supports d <= {_SOBOL_MAX_D}, "
            f"got d = {axis.d}")
    # Net spacing sits under alpha*s so directions between the finite sample
    # points still land inside some small cone; the membership test itself
    # uses the exact aperture.
    spacing = alpha * s * (1.0 - _NET_MARGIN)
    if spacing * spacing < np.finfo(float).tiny:
        raise InputError(f"net spacing {spacing} must have a normal float square")
    # Axis directions are exact cone members; seeding them keeps the net honest
    # near the cone core.
    seeds = np.concatenate([axis.frame.T, -axis.frame.T], axis=0)
    done = (lambda net: _arcs_covered(net, axis, alpha, spacing)) if axis.d == 2 else None
    guesses = _Guesses(spacing)
    directions = _greedy_net(chain([seeds], _region_pieces(axis, alpha, net_samples)),
                             spacing, guesses, done)
    # The net reads no random numbers: the check, then the caps, draw from rng.
    rng = np.random.default_rng(seed)
    check = _region_samples(axis, alpha, check_samples, rng)
    small_ap = alpha * s
    covered = _covered(check, directions, math.sqrt(1.0 - small_ap * small_ap), guesses)
    if not covered.all():
        raise CoverInvalidError(
            f"{int(np.count_nonzero(~covered))} of {check_samples} region samples "
            "escape every small one-sided cone", witness=check[int(np.argmax(~covered))])

    per_dir = max(check_samples // len(directions), 8)
    cone_samples = _one_sided_caps(directions, alpha, per_dir, rng)
    widths = np.linalg.norm(cone_samples - cone_samples @ axis.projector().T, axis=1)
    b_measured = float(widths.max() / alpha)
    if b_measured * alpha >= 1.0:
        raise CoverInvalidError(
            f"measured widening constant {b_measured:.3f} makes the enclosing cone "
            "aperture exceed 1", witness=cone_samples[int(np.argmax(widths))])

    return DirectionCover(axis=axis, alpha=alpha, s=s, directions=directions,
                          b_used=b_measured, b_measured=b_measured)


def build_cover_for_theta(axis: Subspace, theta: float, s: float,
                          check_samples: int = 20000, seed: int = 0,
                          net_samples: int = 200000) -> DirectionCover:
    """Cover with alpha = theta / b, b = ``_B_USED``, built once.

    A unit vector y = cos u + sin p in the one-sided alpha-cone of a net
    direction u, with u in the alpha-cone (|pi_perp u| <= alpha), p a unit
    vector orthogonal to u and sin <= alpha, has |pi_perp y| <= |pi_perp u|
    + sin <= 2 alpha.  So the measured widening is at most 2 up to rounding,
    under b = 2.5; the check stays, and a cover that fails it is invalid.
    The returned cover reports b_used = b, making alpha * b_used == theta.
    """
    if theta <= 0 or theta >= 1:
        raise InputError("theta must lie in (0, 1)")
    cover = build_cover(axis, theta / _B_USED, s, check_samples, seed, net_samples)
    if cover.b_measured > _B_USED:
        raise CoverInvalidError(
            f"measured widening constant {cover.b_measured:.3f} "
            f"exceeds {_B_USED}")
    return replace(cover, b_used=_B_USED)
