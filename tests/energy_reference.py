"""Frame-by-frame projection energy, the test-side reference for
``measure.projection_energy``, and the single-frame Gram-Schmidt that
``geometry._orthonormalize`` stacks.

Each sampled frame is canonicalized on its own, projected, binned by its own
``np.unique`` over its lattice cells and ``np.bincount`` over the inverse, and
its distance to the center taken from its own SVD.
"""

import numpy as np

from graphcarve.errors import DegenerateFrameError, InputError
from graphcarve.geometry import FRAME_TOL
from graphcarve.grassmannian import GrassmannSampler


def orthonormalize_one(vectors):
    """Pivoted modified Gram-Schmidt with re-orthogonalization of one d x k
    spanning set, and the orthonormality check ``Subspace`` made of it."""
    work = np.array(vectors, dtype=float)
    d, k = work.shape
    scale = float(np.max(np.linalg.norm(work, axis=0), initial=0.0))
    if scale == 0.0:
        raise DegenerateFrameError("all spanning vectors are zero")
    frame = np.empty((d, k))
    remaining = list(range(k))
    for out in range(k):
        norms = np.linalg.norm(work[:, remaining], axis=0)
        pick = int(np.argmax(norms))
        if norms[pick] < 1e-10 * scale:
            raise DegenerateFrameError(
                f"spanning vectors are rank deficient (rank {out} < {k})"
            )
        col = remaining.pop(pick)
        u = work[:, col] / np.linalg.norm(work[:, col])
        for _ in range(2):
            if out:
                u = u - frame[:, :out] @ (frame[:, :out].T @ u)
            nrm = np.linalg.norm(u)
            if nrm < 1e-12:
                raise DegenerateFrameError("vector collapsed during re-orthogonalization")
            u = u / nrm
        frame[:, out] = u
        for j in remaining:
            work[:, j] -= u * (u @ work[:, j])
    if np.max(np.abs(frame.T @ frame - np.eye(k))) > FRAME_TOL:
        raise DegenerateFrameError("orthonormalization did not converge")
    return frame


def l2_sq_one(cloud, frame, bin_width):
    """Squared L2 norm of the pushforward density under one frame."""
    if len(cloud) == 0:
        return 0.0
    cells = np.floor(cloud.coords @ frame / bin_width).astype(np.int64)
    uniq, inverse = np.unique(cells, axis=0, return_inverse=True)
    masses = np.bincount(inverse.reshape(-1), weights=cloud.weights, minlength=len(uniq))
    with np.errstate(over="ignore", divide="ignore"):
        return float(np.sum(masses * masses) / bin_width**cloud.n)


def projection_energy_loop(cloud, center, kappa, samples, bin_width, seed=0):
    """(mean_l2_sq, per_sample, distances, acceptance_rate), one frame at a time."""
    if bin_width < cloud.delta_res:
        raise InputError("bin width below the cloud resolution")
    sampler = GrassmannSampler(cloud.d, cloud.n, seed, center=center, radius=kappa)
    frames = sampler.sample_frames(samples)
    values = np.empty(len(frames))
    dists = np.empty(len(frames))
    for i, sampled in enumerate(frames):
        frame = orthonormalize_one(sampled)
        values[i] = l2_sq_one(cloud, frame, bin_width)
        diff = frame @ frame.T - center.frame @ center.frame.T
        dists[i] = np.linalg.svd(diff, compute_uv=False)[0]
    with np.errstate(over="ignore"):
        mean = float(values.mean())
    return mean, values, dists, sampler.acceptance_rate or 0.0
