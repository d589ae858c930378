"""Brute-force cone membership, the test-side reference for cone geometry.

``ConeSpec`` describes one cone (two-sided around any axis subspace, or
one-sided along a unit vector, optionally cut to a closed or open annulus) and
``cone_mask`` tests points against it, independently of the package's
``cone_shells`` predicate.
"""

from dataclasses import dataclass, field

import numpy as np

from graphcarve import InputError, Subspace
from tests.lane_sums import lane_dots


@dataclass(frozen=True)
class ConeSpec:
    """A (possibly truncated) cone in R^d.

    ``axis`` is either a Subspace (two-sided cone around that subspace) or a
    unit vector (one-sided cone: the half-space test (y - x) . w >= 0 applies
    in addition to the aperture test).  ``radii`` = (outer, inner) restricts
    membership to the closed annulus inner <= |y - x| <= outer.  With
    ``interior`` set, every comparison is strict.
    """

    vertex: np.ndarray
    axis: object  # Subspace | np.ndarray
    aperture: float
    radii: tuple[float, float] | None = None
    interior: bool = False
    one_sided: bool = field(init=False, default=False)

    def __post_init__(self):
        vertex = np.asarray(self.vertex, dtype=float)
        object.__setattr__(self, "vertex", vertex)
        if not 0.0 < self.aperture < 1.0:
            raise InputError(f"aperture must lie in (0, 1), got {self.aperture}")
        if isinstance(self.axis, Subspace):
            if self.axis.d != vertex.shape[0]:
                raise InputError("axis subspace dimension does not match vertex")
            object.__setattr__(self, "one_sided", False)
        else:
            w = np.asarray(self.axis, dtype=float)
            if w.shape != vertex.shape:
                raise InputError("direction vector dimension does not match vertex")
            if abs(np.linalg.norm(w) - 1.0) > 1e-12:
                raise InputError("one-sided cone direction must be a unit vector")
            object.__setattr__(self, "axis", w)
            object.__setattr__(self, "one_sided", True)
        if self.radii is not None:
            outer, inner = self.radii
            if not 0.0 < inner < outer:
                raise InputError(f"radii must satisfy 0 < inner < outer, got {self.radii}")

    @classmethod
    def two_sided(cls, vertex, axis: Subspace, aperture, radii=None, interior=False):
        return cls(vertex, axis, aperture, radii, interior)

    @classmethod
    def one_sided_cone(cls, vertex, direction, aperture, radii=None, interior=False):
        return cls(vertex, np.asarray(direction, dtype=float), aperture, radii, interior)

    @classmethod
    def vertical(cls, vertex, n: int, aperture, radii=None, interior=False):
        """Standard two-sided cone around the last d-n coordinate directions."""
        vertex = np.asarray(vertex, dtype=float)
        axis = Subspace.vertical_axis(vertex.shape[0], n)
        return cls(vertex, axis, aperture, radii, interior)


def cone_mask(cone: ConeSpec, points: np.ndarray) -> np.ndarray:
    """Vectorized membership test; ``points`` has shape (m, d)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != cone.vertex.shape[0]:
        raise InputError("query point dimension does not match cone vertex")
    delta = pts - cone.vertex
    dist_sq = lane_dots(delta)
    if cone.one_sided:
        along = delta @ cone.axis
        perp_sq = np.maximum(dist_sq - along * along, 0.0)
        if cone.interior:
            ok = (perp_sq < cone.aperture**2 * dist_sq) & (along > 0.0)
        else:
            ok = (perp_sq <= cone.aperture**2 * dist_sq) & (along >= 0.0)
    else:
        inside = delta @ cone.axis.frame
        axial_sq = lane_dots(inside)
        perp_sq = np.maximum(dist_sq - axial_sq, 0.0)
        if cone.interior:
            ok = perp_sq < cone.aperture**2 * dist_sq
        else:
            ok = perp_sq <= cone.aperture**2 * dist_sq
    if cone.radii is not None:
        outer, inner = cone.radii
        dist = np.sqrt(dist_sq)
        if cone.interior:
            ok &= (dist > inner) & (dist < outer)
        else:
            ok &= (dist >= inner) & (dist <= outer)
    return ok


def cone_contains(cone: ConeSpec, point: np.ndarray) -> bool:
    """Membership of a single point in the cone."""
    return bool(cone_mask(cone, np.asarray(point, dtype=float)[None, :])[0])
