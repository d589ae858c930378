"""Ball-by-ball neighbourhoods of a refinement step, the test-side reference
for ``refine._near`` and ``refine._open_shadow``.

The saved ball and the enlarged ball are closed ball queries around the bad
point, and each center of the enlarged ball finds the alive points of its
open shadow with its own strict ball query of the outer shadow radius.
"""

import numpy as np

from graphcarve.refine import _shadow_annulus
from graphcarve.shells import cone_shells


def balls_loop(cloud, x, r_k, exactly_m, alive):
    """The exactly-M points within r_k of x and the alive points within 100 r_k."""
    ball = cloud.grid.ball(x, r_k)
    big_ball = cloud.grid.ball(x, 100.0 * r_k)
    return ball[exactly_m[ball]], big_ball[alive[big_ball]]


def open_shadow_loop(cloud, centers, w, alpha, j_k, alive):
    """Alive points in the interior of the closed shadow of any center."""
    inner, outer = _shadow_annulus(j_k)
    hit = np.zeros(len(cloud), dtype=bool)
    for c in centers:
        x = cloud.coords[c]
        nbrs = cloud.grid.ball(x, float(outer[0]), strict=True)
        nbrs = nbrs[alive[nbrs]]
        inside = cone_shells(cloud.coords[nbrs] - x, alpha, cloud.n, w, inner, outer,
                             strict=True)[:, 0]
        hit[nbrs[inside]] = True
    return np.nonzero(hit)[0]
