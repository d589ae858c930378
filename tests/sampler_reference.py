"""The direction-cone region sampler written as plain array expressions, the
test-side reference for ``cover._region_samples``."""

import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc


def region_samples_reference(axis, alpha, count, rng=None):
    d = axis.d
    proj = axis.projector()
    sobol = None if rng is not None else qmc.Sobol(d=d, scramble=False)
    out = []
    kept = 0
    while kept < count:
        batch = 2 ** max(12, math.ceil(math.log2(2 * (count - kept))))
        if rng is not None:
            g = rng.standard_normal((batch, d))
        else:
            u = np.clip(sobol.random(batch), 1e-12, 1.0 - 1e-12)
            g = ndtri(u)
        axial = g @ proj.T
        y = axial + alpha * (g - axial)
        norms = np.linalg.norm(y, axis=1)
        good = norms > 1e-12
        y = y[good] / norms[good, None]
        perp = y - y @ proj.T
        perp_norm = np.linalg.norm(perp, axis=1)
        y = y[perp_norm <= alpha]
        if len(y):
            out.append(y)
            kept += len(y)
    return np.concatenate(out, axis=0)[:count]
