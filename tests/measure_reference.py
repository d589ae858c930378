"""Broadcast ball-mass loop, the test-side reference for ``measure.ball_masses``.

Each block of 256 query rows takes its differences with one broadcast
subtraction and each radius's indicator with ``astype(float)``.
"""

import numpy as np

from tests.lane_sums import lane_dots

_CHUNK = 256


def ball_masses_loop(cloud, radii, points=None, carrier=None):
    radii = np.asarray(radii, dtype=float)
    pts = cloud.all_indices() if points is None else np.asarray(points, dtype=np.intp)
    car = cloud.all_indices() if carrier is None else np.asarray(carrier, dtype=np.intp)
    out = np.zeros((len(pts), len(radii)))
    if len(pts) == 0 or len(car) == 0:
        return out
    car_coords = cloud.coords[car]
    car_w = cloud.weights[car]
    for start in range(0, len(pts), _CHUNK):
        block = pts[start:start + _CHUNK]
        diff = cloud.coords[block][:, None, :] - car_coords[None, :, :]
        dist_sq = lane_dots(diff)
        for col, r in enumerate(radii):
            inside = (dist_sq <= r * r).astype(float)
            out[start:start + len(block), col] = np.einsum("ij,j->i", inside, car_w)
    return out
