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


def _orthonormalize(vectors: np.ndarray) -> np.ndarray:
    """Pivoted modified Gram-Schmidt with re-orthogonalization.

    Picks the largest remaining column at each step, which keeps the output
    frame stable under small perturbations of the input ordering.
    """
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
        for _ in range(2):  # second pass keeps orthogonality near 1e-16
            if out:
                u = u - frame[:, :out] @ (frame[:, :out].T @ u)
            nrm = np.linalg.norm(u)
            if nrm < 1e-12:
                raise DegenerateFrameError("vector collapsed during re-orthogonalization")
            u = u / nrm
        frame[:, out] = u
        for j in remaining:
            work[:, j] -= u * (u @ work[:, j])
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
        frame = _orthonormalize(vectors)
        gram = frame.T @ frame
        if np.max(np.abs(gram - np.eye(k))) > FRAME_TOL:
            raise DegenerateFrameError("orthonormalization did not converge")
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


def grassmann_distance(v: Subspace, w: Subspace) -> float:
    """Operator-norm distance between the projection matrices of v and w."""
    if (v.d, v.k) != (w.d, w.k):
        raise InputError(
            f"subspaces live on different Grassmannians: ({v.d},{v.k}) vs ({w.d},{w.k})"
        )
    diff = v.projector() - w.projector()
    return float(np.linalg.svd(diff, compute_uv=False)[0])
