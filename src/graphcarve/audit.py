"""Cone-visitation counters over dyadic annuli.

For each vertex x of a subset, counts the scales j at which the closed cone
shell of aperture theta (two-sided around the vertical axis) or alpha
(one-sided along a direction w) meets some other subset point.  The counts
come from a ``ShellTable``: the exact predicate ``cone_shells`` on the
entries of an enclosing ``parent`` table, on a kd-tree search of its own
cone, or on every pair when ``oracle`` is set (the CLI's ``--oracle``).  All
make identical floating-point comparisons, so their outputs match exactly.
Reports carry counts and their ``table``, whose ``scales`` and ``witness``
give a vertex's visited scales and witnesses, and which a pass filters.
"""

from __future__ import annotations

import numpy as np

from .cloud import _EPS, ScaleRange, WeightedCloud
from .errors import InputError
from .shells import ShellTable, VisitationReport


def visitation_counts(cloud: WeightedCloud, subset, aperture: float,
                      scale_range: ScaleRange | None = None,
                      direction=None, oracle: bool = False,
                      parent: ShellTable | None = None) -> VisitationReport:
    """Count dyadic cone-shell visits for every vertex of the subset.

    A vertex never witnesses itself.  Shells are closed on both radii and the
    aperture, matching the closed-cone convention of the property checks.
    The counting table filters the entries of ``parent``, or searches its own cone.
    """
    if not 0.0 < aperture < 1.0:
        raise InputError("aperture must lie in (0, 1)")
    if scale_range is None:
        scale_range = ScaleRange.default_for(cloud)
    if 2.0 ** (-scale_range.j_max) < cloud.delta_res:
        raise InputError("finest scale is below the cloud resolution")
    w = None
    if direction is not None:
        w = np.asarray(direction, dtype=float)
        if w.shape != (cloud.d,):
            raise InputError("direction must be a d-vector")
        nrm = np.linalg.norm(w)
        if not abs(nrm - 1.0) <= 1e-9:  # NaN fails too
            raise InputError("direction must be a unit vector")
        if abs(nrm - 1.0) > 4.0 * _EPS:  # a table needs |w| = 1 to a few eps
            w = w / nrm
    return ShellTable(cloud, subset, aperture, scale_range, w, oracle, parent).visits()


def bad_set(report: VisitationReport, threshold: int,
            flavor: str = "at_least") -> np.ndarray:
    """Vertices of the report whose count reaches (or exactly equals) the threshold."""
    if threshold < 0:
        raise InputError("threshold must be >= 0")
    if flavor not in ("at_least", "exactly"):
        raise InputError(f"unknown flavor {flavor!r}")
    if flavor == "at_least":
        return report.subset[report.counts >= threshold]
    return report.subset[report.counts == threshold]
