"""Dense-table light-point prune, the test-side reference for ``prune_low_density``.

Every sweep computes the full ``ball_masses`` table of the alive points and
drops each point whose mass is at most epsilon * r^n at some radius r <= 1.
Returns the kept and removed indices and the sweep count.
"""

import numpy as np

from graphcarve import ScaleRange
from graphcarve.measure import ball_masses


def light_table(cloud, epsilon, radii, idx):
    """Entry (i, c) is True when m(x_idx[i], radii[c]) <= epsilon * radii[c]^n."""
    table = ball_masses(cloud, radii, idx, idx)
    return table <= epsilon * radii[None, :] ** cloud.n


def prune_radii(cloud, scale_range=None):
    radii = (scale_range or ScaleRange.default_for(cloud)).radii
    unit = radii[radii <= 1.0 + 1e-12]
    return unit if len(unit) else radii


def prune_dense(cloud, epsilon, scale_range=None):
    radii = prune_radii(cloud, scale_range)
    alive = np.ones(len(cloud), dtype=bool)
    sweeps = 0
    while True:
        idx = np.nonzero(alive)[0]
        if len(idx) == 0:
            break
        light = light_table(cloud, epsilon, radii, idx).any(axis=1)
        sweeps += 1
        if not light.any():
            break
        alive[idx[light]] = False
    return np.nonzero(alive)[0], np.nonzero(~alive)[0], sweeps
