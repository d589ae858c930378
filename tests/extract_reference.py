"""Full-row extraction loops, the test-side references for ``extract``.

``certify_graph_loop`` compares each block of 256 rows with every column and
takes the largest slope ratio over the pairs that have one;
``extend_mcshane_loop`` evaluates the envelope at every query and then
overwrites each query that is a sample site with its stored value.
"""

import math

import numpy as np

from graphcarve import NotAGraphError
from tests.lane_sums import lane_dots

_CHUNK = 256


def certify_graph_loop(cloud, subset=None, theta=0.1):
    """The exact pairwise slope maximum, or NotAGraphError naming the first
    steep pair in row-major order."""
    idx = cloud.all_indices() if subset is None else np.sort(np.asarray(subset, dtype=np.intp))
    n = cloud.n
    pts = cloud.coords[idx]
    lip = 0.0
    for start in range(0, len(pts), _CHUNK):
        block = pts[start:start + _CHUNK]
        diff = block[:, None, :] - pts[None, :, :]
        dist_sq = lane_dots(diff)
        horiz = diff[:, :, :n]
        horiz_sq = lane_dots(horiz)
        bad = horiz_sq < theta * theta * dist_sq
        if bad.any():
            a, b = np.unravel_index(int(np.argmax(bad)), bad.shape)
            i, j = int(idx[start + a]), int(idx[b])
            ratio = math.sqrt(horiz_sq[a, b] / dist_sq[a, b]) if dist_sq[a, b] else 0.0
            raise NotAGraphError(
                f"pair ({i}, {j}) has horizontal share {ratio:.4f} < theta = {theta}",
                witness=(i, j))
        vert_sq = np.maximum(dist_sq - horiz_sq, 0.0)
        pos = horiz_sq > 0.0
        if pos.any():
            # fmax skips the NaN ratio of a pair whose squares overflow.
            lip = max(lip, float(np.sqrt(np.fmax.reduce(vert_sq[pos] / horiz_sq[pos]))))
    return lip


def extend_mcshane_loop(model, queries):
    q = np.asarray(queries, dtype=float)
    single = q.ndim == 1
    q = np.atleast_2d(q)
    lip = model.lipschitz
    base = model.sample_base
    vals = model.sample_values
    out = np.empty((len(q), vals.shape[1]))
    for start in range(0, len(q), _CHUNK):
        block = q[start:start + _CHUNK]
        diff = block[:, None, :] - base[None, :, :]
        dist = np.sqrt(lane_dots(diff))
        upper = (vals[None, :, :] + lip * dist[:, :, None]).min(axis=1)
        lower = (vals[None, :, :] - lip * dist[:, :, None]).max(axis=1)
        out[start:start + len(block)] = 0.5 * (upper + lower)
    sites = {row.tobytes(): i for i, row in enumerate(base)}
    for row, point in enumerate(q):
        hit = sites.get(point.tobytes())
        if hit is not None:
            out[row] = vals[hit]
    return out[0] if single else out
