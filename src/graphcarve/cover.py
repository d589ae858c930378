"""Covering a two-sided cone by finitely many one-sided direction cones.

Given an axis subspace V and apertures alpha, alpha*s, builds a greedy
(alpha*s)-net of unit directions inside the cone region and certifies, on
random samples, the three inclusions that make the net a cover:

  (a) every unit vector of the alpha-cone lies in some one-sided
      (alpha*s)-cone of the net,
  (b) each one-sided (alpha*s)-cone sits inside the one-sided alpha-cone of
      the same direction (aperture monotonicity),
  (c) the union of one-sided alpha-cones stays inside the two-sided cone of
      aperture b_used * alpha, with b_used measured empirically.

The net scans the region samples in blocks against a kd-tree over the
centres chosen so far (Bentley 1975) and makes the dense scan's exact
squared-distance test on the candidate pairs, so its work grows with the net
size and its output equals the dense scan's.  The certificate's dot products
are formed in chunks of check rows, so no allocation grows with net size x
check samples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import ndtri
from scipy.stats import qmc

from .cloud import _reach
from .errors import CoverInvalidError, InputError
from .geometry import Subspace

_NET_MARGIN = 0.15
# Greedy-net candidates per block.
_BLOCK = 4096
# Cap on the elements of one certificate product chunk (check rows x net size).
_CHUNK_ELEMS = 1 << 22


@dataclass(frozen=True)
class CoverCertificate:
    samples_region: int
    samples_cone: int
    inclusion_a_ok: bool
    inclusion_b_ok: bool
    inclusion_c_ok: bool
    b_measured: float
    min_net_separation: float


@dataclass(frozen=True)
class DirectionCover:
    axis: Subspace
    alpha: float
    s: float
    directions: np.ndarray  # (m, d) unit vectors
    b_used: float
    certificate: CoverCertificate

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
            "schema": "graphcarve/1",
            "axis_frame": self.axis.frame.tolist(),
            "alpha": self.alpha,
            "s": self.s,
            "directions": self.directions.tolist(),
            "b_used": self.b_used,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DirectionCover":
        data = json.loads(text)
        axis = Subspace(np.asarray(data["axis_frame"], dtype=float))
        directions = np.asarray(data["directions"], dtype=float)
        cert = CoverCertificate(0, 0, True, True, True, float(data["b_used"]), 0.0)
        return cls(axis=axis, alpha=float(data["alpha"]), s=float(data["s"]),
                   directions=directions, b_used=float(data["b_used"]), certificate=cert)


def _region_samples(axis: Subspace, alpha: float, count: int,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Unit vectors quasi-covering {y on the sphere : |pi_perp y| <= alpha |y|}.

    Proposes Gaussian directions with the perpendicular part damped to the
    aperture width, then keeps exact region members.  With ``rng`` given the
    proposals are random instead of low-discrepancy (used for checks so the
    certificate is independent of the net construction).
    """
    d = axis.d
    proj = axis.projector()
    sobol = None if rng is not None else qmc.Sobol(d=d, scramble=False)
    out = []
    kept = 0
    while kept < count:
        batch = 2 ** max(12, math.ceil(math.log2(2 * (count - kept))))
        if rng is not None:
            g = rng.standard_normal((batch, d))
        else:
            g = sobol.random(batch)
            np.clip(g, 1e-12, 1.0 - 1e-12, out=g)
            ndtri(g, out=g)
        # The batch is large, so every step writes into an array it already
        # holds, in the operation order of y = axial + alpha * (g - axial) and
        # of np.linalg.norm (sqrt of the row sums of squares): the samples stay
        # bit for bit those of the plain expressions.
        y = g @ proj.T
        g -= y
        g *= alpha
        y += g
        del g
        norms = np.sqrt(np.add.reduce(y * y, axis=1))
        good = norms > 1e-12
        if not good.all():
            y, norms = y[good], norms[good]
        y /= norms[:, None]
        perp_sq = y @ proj.T
        np.subtract(y, perp_sq, out=perp_sq)
        perp_sq *= perp_sq
        y = y[np.sqrt(np.add.reduce(perp_sq, axis=1)) <= alpha]
        del perp_sq
        if len(y):
            out.append(y)
            kept += len(y)
    return np.concatenate(out, axis=0)[:count]


def _greedy_net(points: np.ndarray, spacing: float) -> np.ndarray:
    """Greedy maximal net in scan order; pairwise distances > spacing.

    A point joins the net when no earlier net point lies within ``spacing``
    (squared distance <= spacing^2).  The points are scanned in blocks: a
    kd-tree over the centres chosen so far (Bentley, CACM 18(9), 1975; they
    are few and more than ``spacing`` apart) proposes the block's near pairs
    within a padded radius, the exact squared-distance test settles them, and
    only the block's survivors go through the dense scan-order filter.  The
    work grows with the net size instead of with net size x point count, and
    the output equals the plain dense scan bit for bit.
    """
    sq = spacing * spacing
    reach = _reach(spacing, float(np.abs(points).max(initial=0.0)))
    chosen: list[int] = []
    for start in range(0, len(points), _BLOCK):
        block = points[start:start + _BLOCK]
        far = np.ones(len(block), dtype=bool)
        if chosen:
            centres = points[chosen]
            pairs = cKDTree(block).sparse_distance_matrix(
                cKDTree(centres), reach, output_type="ndarray")
            diff = block[pairs["i"]] - centres[pairs["j"]]
            far[pairs["i"][np.einsum("ij,ij->i", diff, diff) <= sq]] = False
        rest = block[far]
        ids = np.flatnonzero(far) + start
        while len(rest):
            chosen.append(int(ids[0]))
            diff = rest - rest[0]
            keep = np.einsum("ij,ij->i", diff, diff) > sq
            rest, ids = rest[keep], ids[keep]
    return points[chosen]


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


def build_cover(axis: Subspace, alpha: float, s: float,
                check_samples: int = 20000, seed: int = 0,
                net_samples: int = 200000) -> DirectionCover:
    """Construct and certify a one-sided direction cover of the alpha-cone."""
    if not 0.0 < alpha < 1.0:
        raise InputError("alpha must lie in (0, 1)")
    if not 0.0 < s <= 1.0:
        raise InputError("s must lie in (0, 1]")
    d = axis.d
    # Net spacing sits under alpha*s so directions between the finite sample
    # points still land inside some small cone; the membership test itself
    # uses the exact aperture.
    spacing = alpha * s * (1.0 - _NET_MARGIN)
    region = _region_samples(axis, alpha, net_samples)
    # Axis directions are exact cone members; seeding them keeps the net honest
    # near the cone core.
    seeds = np.concatenate([axis.frame.T, -axis.frame.T], axis=0)
    candidates = np.concatenate([seeds, region], axis=0)
    directions = _greedy_net(candidates, spacing)

    rng = np.random.default_rng(seed)
    check = _region_samples(axis, alpha, check_samples, rng=rng)
    small_ap = alpha * s
    cos_small = math.sqrt(max(1.0 - small_ap * small_ap, 0.0))
    # (b) holds by aperture monotonicity: s <= 1 makes cos(alpha*s) >= cos(alpha),
    # so a sample inside a small cone is inside the big one.  It is still
    # checked, on the same dot products.
    cos_big = math.sqrt(max(1.0 - alpha * alpha, 0.0))
    covered = np.empty(len(check), dtype=bool)
    inclusion_b_ok = True
    rows = max(_CHUNK_ELEMS // len(directions), 1)
    for start in range(0, len(check), rows):
        cos = check[start:start + rows] @ directions.T
        covered[start:start + rows] = (cos >= cos_small).any(axis=1)
        inclusion_b_ok &= bool(((cos < cos_small) | (cos >= cos_big)).all())
    if not covered.all():
        witness = check[int(np.argmax(~covered))]
        raise CoverInvalidError(
            f"{int(np.count_nonzero(~covered))} of {check_samples} region samples "
            "escape every small one-sided cone", witness=witness)

    per_dir = max(check_samples // max(len(directions), 1), 8)
    cone_samples = _one_sided_caps(directions, alpha, per_dir, rng)
    proj = axis.projector()
    perp = cone_samples - cone_samples @ proj.T
    b_measured = float(np.linalg.norm(perp, axis=1).max() / alpha)
    if b_measured * alpha >= 1.0:
        worst = cone_samples[int(np.argmax(np.linalg.norm(perp, axis=1)))]
        raise CoverInvalidError(
            f"measured widening constant {b_measured:.3f} makes the enclosing cone "
            "aperture exceed 1", witness=worst)

    sep = np.inf
    if len(directions) > 1:
        # Net points are distinct, so each one's second-nearest is its nearest other.
        sep = float(cKDTree(directions).query(directions, k=2)[0][:, 1].min())

    cert = CoverCertificate(samples_region=check_samples,
                            samples_cone=len(cone_samples),
                            inclusion_a_ok=True,
                            inclusion_b_ok=inclusion_b_ok,
                            inclusion_c_ok=True,
                            b_measured=b_measured,
                            min_net_separation=sep)
    return DirectionCover(axis=axis, alpha=alpha, s=s, directions=directions,
                          b_used=b_measured, certificate=cert)


def build_cover_for_theta(axis: Subspace, theta: float, s: float,
                          check_samples: int = 20000, seed: int = 0,
                          net_samples: int = 200000, b_init: float = 2.5,
                          max_rounds: int = 6) -> DirectionCover:
    """Cover with alpha = theta / b where b upper-bounds the measured widening.

    The widening constant is only known after building, so iterate until the
    measured value fits under the assumed one; the returned cover reports the
    assumed b (a valid empirical upper bound), making alpha * b_used == theta.
    """
    if theta <= 0 or theta >= 1:
        raise InputError("theta must lie in (0, 1)")
    b = max(b_init, 1.0)
    last = None
    for _ in range(max_rounds):
        alpha = theta / b
        cover = build_cover(axis, alpha, s, check_samples, seed, net_samples)
        last = cover
        if cover.certificate.b_measured <= b:
            return DirectionCover(axis=cover.axis, alpha=cover.alpha, s=cover.s,
                                  directions=cover.directions, b_used=b,
                                  certificate=cover.certificate)
        b = cover.certificate.b_measured * 1.05
    raise CoverInvalidError(
        f"widening constant did not stabilize after {max_rounds} rounds "
        f"(last measured {last.certificate.b_measured:.3f})")
