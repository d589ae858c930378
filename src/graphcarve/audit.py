"""Cone-visitation counters over dyadic annuli.

For each vertex x of a subset, counts the scales j at which the closed cone
shell of aperture theta (two-sided around the vertical axis) or alpha
(one-sided along a direction w) meets some other subset point.  The default
mode reads a ``ShellTable``: kd-tree candidates plus the exact predicate
``cone_shells``.  The pipeline's visit reports and both runtime refinement
certificates use it.  The oracle mode runs the same predicate on all pairs,
one vertex at a time; it is the test reference, and runs in the pipeline only
when ``oracle`` is set (``PipelineConfig.oracle``, the CLI's ``--oracle``).
Both modes make identical floating-point comparisons, so their outputs match
exactly.  Reports carry counts only: ``_oracle_visits``' per-vertex scales and
witnesses are the reference for ``ShellTable.scales`` and ``ShellTable.witness``.
"""

from __future__ import annotations

import numpy as np

from .cloud import ScaleRange, WeightedCloud
from .errors import InputError
from .shells import ShellTable, VisitationReport, cone_shells


def visitation_counts(cloud: WeightedCloud, subset, aperture: float,
                      scale_range: ScaleRange | None = None,
                      direction=None, oracle: bool = False) -> VisitationReport:
    """Count dyadic cone-shell visits for every vertex of the subset.

    A vertex never witnesses itself.  Shells are closed on both radii and the
    aperture, matching the closed-cone convention of the property checks.
    """
    if not 0.0 < aperture < 1.0:
        raise InputError("aperture must lie in (0, 1)")
    if scale_range is None:
        scale_range = ScaleRange.default_for(cloud)
    if 2.0 ** (-scale_range.j_max) < cloud.delta_res:
        raise InputError("finest scale is below the cloud resolution")
    subset = np.sort(np.asarray(subset, dtype=np.intp))
    w = None
    if direction is not None:
        w = np.asarray(direction, dtype=float)
        if w.shape != (cloud.d,):
            raise InputError("direction must be a d-vector")
        nrm = np.linalg.norm(w)
        if abs(nrm - 1.0) > 1e-9:
            raise InputError("direction must be a unit vector")
    if not oracle:
        return ShellTable(cloud, subset, aperture, scale_range, w).visits()
    counts = _oracle_visits(cloud, subset, aperture, scale_range, w)[0]
    return VisitationReport(subset=subset, counts=counts, aperture=aperture,
                            direction=w, scale_range=scale_range)


def _oracle_visits(cloud: WeightedCloud, subset: np.ndarray, aperture: float,
                   scale_range: ScaleRange, w) -> tuple[np.ndarray, list, list]:
    """Brute-force counts, scales and lowest witnesses: every pair, vertex by vertex."""
    js = scale_range.js
    outer = 2.0 ** (-js.astype(float))
    counts = np.zeros(len(subset), dtype=np.int64)
    visited_scales = []
    witnesses = []
    for row, v in enumerate(subset):
        cand = subset[subset != v]
        if len(cand) == 0:
            visited_scales.append(np.empty(0, dtype=np.int64))
            witnesses.append(np.empty(0, dtype=np.intp))
            continue
        hits = cone_shells(cloud.coords[cand] - cloud.coords[v], aperture, cloud.n,
                           w, outer / 2.0, outer)
        seen = hits.any(axis=0)
        counts[row] = int(seen.sum())
        visited_scales.append(js[seen])
        witnesses.append(cand[np.argmax(hits, axis=0)[seen]])
    return counts, visited_scales, witnesses


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
