"""``cloud.row_dots``' sums written out coordinate by coordinate, the oracles'
dot product.

For d <= 4 ``row_dots`` keeps one rounded product per coordinate and folds the
upper half onto the lower, (p0 + p2) + (p1 + p3), then adds +0.0; here that
order is spelled out as column sums, so an oracle does not rest on the order
in which the host's ``np.einsum`` adds.  For d > 4 ``row_dots`` is
``np.einsum`` over contiguous copies, and so is this.
"""

import numpy as np


def lane_dots(a, b=None):
    """Sums of a * b over the last axis (b defaults to a; a (d,) b broadcasts)."""
    a = np.asarray(a)
    b = a if b is None else np.asarray(b)
    d = a.shape[-1]
    if d > 4:
        return np.einsum("...k,...k->...", np.ascontiguousarray(a),
                         np.ascontiguousarray(np.broadcast_to(b, a.shape)))
    p = [a[..., k] * b[..., k] for k in range(d)]
    if d == 1:
        total = p[0]
    elif d == 2:
        total = p[0] + p[1]
    elif d == 3:
        total = (p[0] + p[2]) + p[1]
    else:
        total = (p[0] + p[2]) + (p[1] + p[3])
    return total + 0.0
