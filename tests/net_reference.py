"""Dense greedy net, the test-side reference for ``cover._greedy_net``.

Scans the points in order; each round takes the first remaining point as a
centre and filters out every remaining point within ``spacing`` of it
(squared distance <= spacing^2), one full pass per centre.
"""

import numpy as np

from tests.lane_sums import lane_dots


def greedy_net_loop(points, spacing):
    chosen = []
    remaining = points
    sq = spacing * spacing
    while len(remaining):
        center = remaining[0].copy()
        chosen.append(center)
        diff = remaining - center
        remaining = remaining[lane_dots(diff) > sq]
    return np.asarray(chosen)
