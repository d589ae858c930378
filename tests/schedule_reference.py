"""The direction schedule with one table per cover direction, the test-side
reference for ``refine.refine_schedule``.

Every direction of the cover gets its own one-sided table of the current set,
from that table's own candidate search, and every pass runs with the one
epsilon of ``cfg``; the loop skips no direction and shares no root table.
"""

from graphcarve import ScaleRange, refine_once, visitation_counts
from graphcarve.cloud_io import SCHEMA


def schedule_ledger_loop(cloud, e2, cover, cfg):
    """``ScheduleResult.ledger()`` of the schedule over ``e2``; ``cfg.epsilon`` is set."""
    assert cfg.epsilon is not None
    scale_range = ScaleRange.default_for(cloud)
    current = cloud.subset_indices(e2)
    runs = []
    for w in cover.directions if cover.s < 1.0 else []:
        report = visitation_counts(cloud, current, cover.alpha, scale_range, direction=w)
        initial, passes = report.max_count, []
        while report.max_count:
            outcome = refine_once(cloud, report, cfg)
            passes.append(outcome.ledger())
            current, report = outcome.kept, outcome.certificate
        aperture = report.table.aperture
        runs.append({"direction": w.tolist(), "initial_count": initial,
                     "applications": len(passes), "final_aperture": aperture,
                     "reached_target_aperture": aperture >= cover.alpha * cover.s - 1e-15,
                     "iterations": passes})
    return {"schema": SCHEMA, "theta_certified": cover.alpha, "directions": runs}
