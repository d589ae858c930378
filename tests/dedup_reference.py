"""Per-vertex resolution dedup, the test-side reference for ``_resolution_dedup``.

Visits the subset in index order, finds each live vertex's live neighbours in
the strict ball of half the finest shell radius, and drops the lighter member
of every pair steeper than theta (ties drop the neighbour).
"""

import numpy as np

from tests.lane_sums import lane_dots


def resolution_dedup_loop(cloud, subset, theta, scale_range):
    floor_radius = 2.0 ** (-scale_range.j_max - 1)
    alive = np.zeros(len(cloud), dtype=bool)
    alive[subset] = True
    removed = 0.0
    for i in subset:
        if not alive[i]:
            continue
        nbrs = cloud.grid.ball(cloud.coords[i], floor_radius, strict=True)
        nbrs = nbrs[alive[nbrs] & (nbrs != i)]
        if not len(nbrs):
            continue
        delta = cloud.coords[nbrs] - cloud.coords[i]
        dist_sq = lane_dots(delta)
        horiz = delta[:, :cloud.n]
        horiz_sq = lane_dots(horiz)
        for j in nbrs[horiz_sq < theta * theta * dist_sq]:
            if not (alive[i] and alive[j]):
                continue
            drop = j if cloud.weights[j] <= cloud.weights[i] else i
            alive[drop] = False
            removed += float(cloud.weights[drop])
            if drop == i:
                break
    return np.nonzero(alive)[0].astype(np.intp), removed
