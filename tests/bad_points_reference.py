"""Dense bad-point test, the test-side reference for ``refine._DenseRows``.

On every iteration of a pass, the dense ``ball_masses`` table of the exactly-M
set over itself, and the rows with mass at least epsilon * r^n at every radius.
"""

import numpy as np

from graphcarve.measure import ball_masses


def dense_bad(sub, radii, epsilon, exactly_m):
    """Positions of the dense points of the exactly-M mask, ascending."""
    f_km = np.flatnonzero(exactly_m)
    table = ball_masses(sub, radii, f_km, f_km)
    return f_km[(table >= epsilon * radii[None, :] ** sub.n).all(axis=1)]
