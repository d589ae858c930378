"""One refinement pass with dense neighbourhoods, the test-side reference for
``refine.refine_once``.

Each scale tried at the bad point makes one ball query that reaches the
outer shadow radius past the enlarged ball, and every shrink try tests its
whole enlarged ball against the witness, meets every center with every
point of that query for the open shadow, and recounts the visits of the
set after the deletion; each iteration counts the visits of its set again.
The bad-point test subtracts the departed mass one radius at a time.
"""

import math

import numpy as np

from graphcarve.cloud import _reach, row_dots
from graphcarve.errors import AlgorithmInvariantViolation, ResolutionExhaustedError
from graphcarve.measure import ball_masses
from graphcarve.refine import (
    _MAX_C_RETRIES,
    IterationRecord,
    RefineConfig,
    RefinementOutcome,
    _auto_epsilon,
    _DenseRows,
    _in_closed_shadow,
    _shadow_annulus,
)
from graphcarve.shells import ShellTable, block_rows, cone_shells, pair_differences


class DenseRowsLoop(_DenseRows):
    """``_DenseRows`` with the departed mass from ``ball_masses``, radius by radius."""

    def _departed_mass(self, rows, departed):
        return ball_masses(self.sub, self.radii, rows, departed)


def near_loop(cloud, x, j_k, c, alive):
    """Alive points within 100 c 2^-j_k + 2^(-j_k+1) of x, and their squared distances."""
    radius = 100.0 * c * 2.0 ** (-float(j_k)) + 2.0 ** (1 - float(j_k))
    near = cloud.grid.ball(x, _reach(radius, float(np.abs(cloud.coords).max())))
    near = near[alive[near]]
    return near, row_dots(cloud.coords[near] - x)


def open_shadow_dense(cloud, centers, near, w, alpha, j_k):
    """The points of ``near`` in the open shadow of any center, every pair tested."""
    inner, outer = _shadow_annulus(j_k)
    hit = np.zeros(len(near), dtype=bool)
    points, ends = cloud.coords[near], cloud.coords[centers]
    step = block_rows(len(centers))
    for lo in range(0, len(near), step):
        delta = pair_differences(points[lo:lo + step], ends)
        close = row_dots(delta) < outer[0] * outer[0]
        inside = cone_shells(delta[close], alpha, cloud.n, w, inner, outer, strict=True)[:, 0]
        hit[lo + np.nonzero(close)[0][inside]] = True
    return near[hit]


def refine_once_loop(cloud, entry, cfg=None):
    """``refine_once`` of the entry report, step by step on dense neighbourhoods."""
    cfg = cfg or RefineConfig()
    w, alpha = entry.table.direction, entry.table.aperture
    scale_range, big_m = entry.table.scale_range, entry.max_count
    shells = ShellTable(cloud, entry.subset, alpha / 2.0, scale_range, w, parent=entry.table)
    subset = shells.subset
    sub = cloud.subcloud(subset)
    epsilon = cfg.epsilon if cfg.epsilon is not None else _auto_epsilon(sub, scale_range)
    rng = np.random.default_rng(cfg.seed)
    dense_rows = DenseRowsLoop(sub, np.unique(np.concatenate([
        scale_range.radii[scale_range.radii <= 1.0 + 1e-12], [1.0]])), epsilon)

    mass_total = sub.mass()
    alive = np.ones(len(sub), dtype=bool)
    saved = np.zeros(len(sub), dtype=bool)
    saved_sets, deleted_sets, records = [], [], []
    sum_saved = sum_deleted = 0.0
    saved_ratio, last_w_coord = math.inf, -math.inf
    while True:
        if sum_saved >= mass_total / 2.0 or sum_deleted >= mass_total / 2.0:
            status, keep_mask = "stopped_1", saved
            break
        counts = shells.counts(alive)
        assert counts[alive].max(initial=0) <= big_m
        exactly_m = alive & (counts == big_m)
        bad = dense_rows.bad(exactly_m)
        if len(bad) == 0:
            status, keep_mask = "stopped_2", alive & ~exactly_m
            break
        x_k = int(bad[np.lexsort(np.vstack([sub.coords[bad].T[::-1], sub.coords[bad] @ w]))[0]])
        x_coord = sub.coords[x_k]
        x_w = float(x_coord @ w)
        scales = shells.scales(x_k, alive)
        if cfg.scale_choice == "random":
            candidate_js = rng.permutation(scales)
        else:
            candidate_js = scales if cfg.scale_choice == "largest" else scales[::-1]
        committed = False
        for j_k in map(int, candidate_js):
            z_k = cloud.coords[shells.witness(x_k, j_k, alive)]
            c_try = cfg.c_factor * alpha
            near, dist_sq = near_loop(sub, x_coord, j_k, c_try, alive)
            for _ in range(_MAX_C_RETRIES):
                r_k = c_try * 2.0 ** (-float(j_k))
                s_k = near[exactly_m[near] & (dist_sq <= r_k * r_k)]
                b_k = near[dist_sq <= (100.0 * r_k) * (100.0 * r_k)]
                if not _in_closed_shadow(sub, b_k, w, alpha, j_k, z_k).all():
                    c_try /= 2.0
                    continue
                d_k = open_shadow_dense(sub, b_k, near, w, alpha, j_k)
                if saved[d_k].any() or np.isin(d_k, s_k).any():
                    c_try /= 2.0
                    continue
                alive_after = alive.copy()
                alive_after[d_k] = False
                if shells.counts(alive_after)[b_k].max(initial=0) > big_m - 1:
                    c_try /= 2.0
                    continue
                committed = True
                break
            if committed:
                break
        if not committed:
            raise ResolutionExhaustedError(f"no radius at the bad point {subset[x_k]}")
        saved_sets.append(subset[s_k])
        deleted_sets.append(subset[d_k])
        saved[s_k] = True
        alive[d_k] = False
        if saved[~alive].any():
            raise AlgorithmInvariantViolation("a saved point was deleted")
        mass_s, mass_d = sub.mass(s_k), sub.mass(d_k)
        sum_saved += mass_s
        sum_deleted += mass_d
        saved_ratio = min(saved_ratio, mass_s / max(mass_d, sub.delta_res ** sub.n))
        last_w_coord = max(last_w_coord, x_w)
        records.append(IterationRecord(
            k=len(records), x_index=int(subset[x_k]), x_coord=tuple(x_coord),
            j_k=j_k, r_k=r_k, c_used=c_try, mass_saved=mass_s, mass_deleted=mass_d,
            mass_remaining=sub.mass(np.flatnonzero(alive)), bad_points=len(bad)))

    kept = subset[keep_mask]
    return RefinementOutcome(
        direction=w, alpha=alpha, max_count=big_m, epsilon=epsilon, kept=kept,
        remaining=subset[alive], status=status, saved=tuple(saved_sets),
        deleted=tuple(deleted_sets), records=tuple(records),
        certificate=shells.visits(keep_mask), mass_retained=cloud.mass(kept),
        saved_ratio=0.0 if saved_ratio is math.inf else saved_ratio)
