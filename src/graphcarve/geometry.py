"""Subspaces, orthogonal projections and Grassmannian distances.

Conventions used throughout the package: the ambient space is R^d split as
R^n x R^(d-n).  The first n coordinates are "horizontal" (the base of a
candidate graph), the last d-n are "vertical".  The standard double cone of
aperture a at vertex x has the vertical coordinate subspace as its axis, so
membership of y is the test |horizontal part of (x - y)| <= a * |x - y|
(``shells.cone_shells``).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFrameError, InputError

FRAME_TOL = 1e-10


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] . b[i] for two (count, d) stacks, each one BLAS dot (``matmul`` of a
    row by a column), as the 1-d ``a[i] @ b[i]`` takes it."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _orthonormalize(vectors: np.ndarray) -> np.ndarray:
    """Pivoted modified Gram-Schmidt with re-orthogonalization, on a stack of
    (d, k) spanning sets at once: shape (count, d, k) in and out.

    Picks the largest remaining column at each step, which keeps the output
    frame stable under small perturbations of the input ordering.  Each set
    gets the arithmetic it would get alone: every dot product is one BLAS dot
    and every projection one matrix-vector product of ``matmul``, on the
    strides of a single frame.  ``Subspace`` calls it with one set.  Raises
    ``DegenerateFrameError`` for the first set that is rank deficient or whose
    result is not orthonormal to ``FRAME_TOL``.
    """
    work = np.array(vectors, dtype=float)
    count, d, k = work.shape
    sets = np.arange(count)
    scale = np.max(np.linalg.norm(work, axis=1), axis=1, initial=0.0)
    failure = [None] * count
    for i in np.flatnonzero(scale == 0.0):
        failure[i] = "all spanning vectors are zero"
    frame = np.empty((count, d, k))
    remaining = np.ones((count, k), dtype=bool)
    for out in range(k):
        norms = np.where(remaining, np.linalg.norm(work, axis=1), -np.inf)
        pick = np.argmax(norms, axis=1)
        for i in np.flatnonzero(norms[sets, pick] < 1e-10 * scale):
            failure[i] = failure[i] or f"spanning vectors are rank deficient (rank {out} < {k})"
        remaining[sets, pick] = False
        col = work[sets, :, pick]
        with np.errstate(divide="ignore", invalid="ignore"):  # the failed sets
            u = col / np.sqrt(_dots(col, col))[:, None]
            for _ in range(2):  # second pass keeps orthogonality near 1e-16
                if out:
                    done = frame[:, :, :out]
                    u = u - (done @ (np.swapaxes(done, 1, 2) @ u[:, :, None]))[:, :, 0]
                nrm = np.sqrt(_dots(u, u))
                for i in np.flatnonzero(nrm < 1e-12):
                    failure[i] = failure[i] or "vector collapsed during re-orthogonalization"
                u = u / nrm[:, None]
            frame[:, :, out] = u
            for j in range(k):
                step = u * _dots(u, work[:, :, j])[:, None]
                work[:, :, j] = np.where(remaining[:, j, None], work[:, :, j] - step,
                                         work[:, :, j])
    gram = np.swapaxes(frame, 1, 2) @ frame
    off = np.max(np.abs(gram - np.eye(k)), axis=(1, 2), initial=0.0)
    for i in np.flatnonzero(off > FRAME_TOL):
        failure[i] = failure[i] or "orthonormalization did not converge"
    first = next((msg for msg in failure if msg), None)
    if first:
        raise DegenerateFrameError(first)
    return frame


class Subspace:
    """A k-dimensional linear subspace of R^d stored as an orthonormal frame.

    The frame is canonicalized on construction (pivoted Gram-Schmidt), so two
    Subspace objects built from different spanning sets of the same space have
    numerically identical projection matrices.
    """

    __slots__ = ("frame",)

    def __init__(self, vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2:
            raise InputError("expected a d x k array of column vectors")
        d, k = vectors.shape
        if not 1 <= k < d:
            raise InputError(f"subspace dimension must satisfy 1 <= k < d, got k={k}, d={d}")
        if not np.isfinite(vectors).all():
            raise InputError("spanning vectors must be finite")
        frame = _orthonormalize(vectors[None])[0]
        frame.setflags(write=False)
        self.frame = frame

    @property
    def d(self) -> int:
        return self.frame.shape[0]

    @property
    def k(self) -> int:
        return self.frame.shape[1]

    @classmethod
    def spanning(cls, *vectors) -> "Subspace":
        return cls(np.column_stack([np.asarray(v, dtype=float) for v in vectors]))

    @classmethod
    def coordinate(cls, d: int, dims) -> "Subspace":
        """Span of the standard basis vectors e_i for i in ``dims``."""
        dims = list(dims)
        frame = np.zeros((d, len(dims)))
        for col, i in enumerate(dims):
            frame[i, col] = 1.0
        return cls(frame)

    @classmethod
    def horizontal(cls, d: int, n: int) -> "Subspace":
        """The first-n-coordinates subspace R^n of R^n x R^(d-n)."""
        return cls.coordinate(d, range(n))

    @classmethod
    def vertical_axis(cls, d: int, n: int) -> "Subspace":
        """The last-(d-n)-coordinates subspace, axis of the standard cone."""
        return cls.coordinate(d, range(n, d))

    def projector(self) -> np.ndarray:
        return self.frame @ self.frame.T

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Frame coordinates of the projection of x (shape (..., k))."""
        return np.asarray(x, dtype=float) @ self.frame

    def __repr__(self):
        return f"Subspace(d={self.d}, k={self.k})"


def _distances(frames: np.ndarray, w: Subspace) -> np.ndarray:
    """Operator-norm distances between the projection matrix of each frame of a
    (count, d, k) stack and that of w, from one stacked SVD."""
    diffs = frames @ np.swapaxes(frames, 1, 2) - w.projector()
    return np.linalg.svd(diffs, compute_uv=False)[:, 0]


def grassmann_distance(v: Subspace, w: Subspace) -> float:
    """Operator-norm distance between the projection matrices of v and w."""
    if (v.d, v.k) != (w.d, w.k):
        raise InputError(
            f"subspaces live on different Grassmannians: ({v.d},{v.k}) vs ({w.d},{w.k})"
        )
    return float(_distances(v.frame[None], w)[0])
