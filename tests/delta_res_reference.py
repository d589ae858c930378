"""Dense smallest pairwise distance, the test-side reference for
``cloud_io.estimate_delta_res``: every ordered pair, 512 rows at a time."""

import numpy as np

from tests.lane_sums import lane_dots


def min_pair_distance(coords):
    best = np.inf
    for start in range(0, len(coords), 512):
        block = coords[start:start + 512]
        diff = block[:, None, :] - coords[None, :, :]
        dist_sq = lane_dots(diff)
        rows = np.arange(len(block))
        dist_sq[rows, start + rows] = np.inf
        best = min(best, float(dist_sq.min()))
    return float(np.sqrt(best))
