"""Sampling and measure estimation on the Grassmannian G(d, n).

The rotation-invariant probability measure is realized by orthonormalizing a
d x n matrix of independent standard normals.  Ball-restricted sampling uses
rejection against the operator-norm distance, so accepted samples are exactly
distributed as the conditional measure on the ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstructionInfeasibleError,
    DegenerateFrameError,
    InfeasibleBallError,
    InputError,
)
from .geometry import Subspace, _distances, grassmann_distance

_PROBE_DRAWS = 200_000
_MIN_ACCEPT = 1e-6


def child_seed(seed: int, index: int) -> int:
    """Deterministic derivation of an independent child seed."""
    ss = np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, 0x9E3779B9, int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def _batched_frames(rng: np.random.Generator, count: int, d: int, n: int) -> np.ndarray:
    """(count, d, n) stack of orthonormal frames of gamma-distributed spans."""
    gauss = rng.standard_normal((count, d, n))
    if n == 1:
        norms = np.linalg.norm(gauss[:, :, 0], axis=1)
        return gauss / norms[:, None, None]
    q, _ = np.linalg.qr(gauss)
    return q


def _frame_distances(frames: np.ndarray, center: Subspace) -> np.ndarray:
    """Operator-norm distances from each frame's span to the center subspace."""
    n = frames.shape[2]
    if n == 1:
        # For lines the distance is sin of the principal angle.
        cos = frames[:, :, 0] @ center.frame[:, 0]
        return np.sqrt(np.maximum(1.0 - cos * cos, 0.0))
    return _distances(frames, center)


class GrassmannSampler:
    """Seeded sampler for gamma_{d,n}, optionally restricted to a metric ball.

    The sampler keeps a private generator, so repeated ``sample_frames`` calls
    continue one deterministic stream.  ``acceptance_rate`` reflects the most
    recent ball-restricted call (None in unrestricted mode).
    """

    def __init__(self, d: int, n: int, seed: int = 0,
                 center: Subspace | None = None, radius: float | None = None):
        if not 1 <= n < d:
            raise InputError(f"require 1 <= n < d, got n={n}, d={d}")
        if (center is None) != (radius is None):
            raise InputError("ball-restricted sampling needs both center and radius")
        if center is not None:
            if (center.d, center.k) != (d, n):
                raise InputError("ball center lives on the wrong Grassmannian")
            if radius < 0:
                raise InputError("ball radius must be nonnegative")
        self.d = int(d)
        self.n = int(n)
        self.seed = int(seed)
        self.center = center
        self.radius = radius
        self.acceptance_rate: float | None = None
        self._rng = np.random.default_rng(self.seed)

    def sample_frames(self, count: int) -> np.ndarray:
        """(count, d, n) orthonormal frames spanning the sampled subspaces."""
        if count < 1:
            raise InputError("sample count must be >= 1")
        if self.center is None:
            return _batched_frames(self._rng, count, self.d, self.n)
        kept = []
        n_kept = 0
        tried = 0
        accepted = 0
        while n_kept < count:
            batch = max(4096, 2 * (count - n_kept))
            frames = _batched_frames(self._rng, batch, self.d, self.n)
            dist = _frame_distances(frames, self.center)
            good = frames[dist <= self.radius]
            tried += batch
            accepted += good.shape[0]
            if good.shape[0]:
                kept.append(good)
                n_kept += good.shape[0]
            if tried >= _PROBE_DRAWS and accepted / tried < _MIN_ACCEPT:
                raise InfeasibleBallError(
                    f"acceptance rate {accepted}/{tried} below {_MIN_ACCEPT:g}; "
                    f"ball of radius {self.radius} is effectively empty"
                )
        self.acceptance_rate = accepted / tried
        return np.concatenate(kept, axis=0)[:count]


def _epsilon_series(alpha0: float, n: int) -> np.ndarray | None:
    """eps_0 .. eps_{n-1} from the perturbation recurrence, or None if it blows up."""
    eps = np.empty(n)
    eps_sq = alpha0 * alpha0
    for i in range(n):
        if eps_sq >= 1.0:
            return None
        eps[i] = math.sqrt(eps_sq)
        eps_sq = eps_sq + eps_sq / (1.0 - eps_sq)
    return eps


def _max_frame_shift(alpha0: float, n: int) -> float:
    """Largest per-vector displacement bound over the n perturbation steps."""
    eps = _epsilon_series(alpha0, n)
    if eps is None:
        return math.inf
    root = np.sqrt(1.0 - eps * eps)
    shifts = eps / root + (1.0 / root - 1.0)
    return float(shifts.max())


def alpha0_max(n: int, upsilon: float) -> float:
    """Largest admissible tilt of z into W for the frame perturbation.

    Binary-searches the largest alpha0 whose recurrence keeps every
    per-vector displacement below upsilon / (4 sqrt(n)).
    """
    if upsilon <= 0:
        raise InputError("upsilon must be positive")
    budget = upsilon / (4.0 * math.sqrt(n))
    lo, hi = 0.0, 0.9999
    if _max_frame_shift(hi, n) <= budget:
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _max_frame_shift(mid, n) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def construct_v0(w_sub: Subspace, z: np.ndarray, upsilon: float) -> Subspace:
    """Perturb an orthonormal basis of W into a nearby subspace annihilating z.

    Returns V0 with pi_{V0} z = 0 (to 1e-10 relative) and
    grassmann_distance(V0, W) <= upsilon / 2.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (w_sub.d,):
        raise InputError("z dimension does not match the subspace")
    z_norm = np.linalg.norm(z)
    if z_norm == 0.0:
        raise InputError("z must be nonzero: its direction defines the construction")
    n = w_sub.k
    a0 = alpha0_max(n, upsilon)
    tilt = np.linalg.norm(w_sub.coords(z))
    if tilt > a0 * z_norm * (1.0 + 1e-12):
        raise ConstructionInfeasibleError(
            f"|pi_W z| = {tilt:.3e} exceeds alpha0 |z| = {a0 * z_norm:.3e}"
        )
    u = np.empty((w_sub.d, n + 1))
    u[:, 0] = z / z_norm
    for i in range(1, n + 1):
        e_i = w_sub.frame[:, i - 1]
        v = e_i.copy()
        for _ in range(2):
            v = v - u[:, :i] @ (u[:, :i].T @ v)
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            raise DegenerateFrameError(
                f"basis vector {i} is numerically inside the accumulated span"
            )
        u[:, i] = v / nrm
    v0 = Subspace(u[:, 1:])
    residual = np.linalg.norm(v0.coords(z))
    if residual > 1e-10 * z_norm:
        raise DegenerateFrameError(
            f"constructed subspace does not annihilate z: residual {residual:.3e}"
        )
    dist = grassmann_distance(v0, w_sub)
    if dist > upsilon / 2 + 1e-12:
        raise ConstructionInfeasibleError(
            f"constructed subspace drifted {dist:.3e} > upsilon/2 from W"
        )
    return v0


@dataclass(frozen=True)
class MeasureEstimate:
    a_hat: float
    ratio: float
    std_error: float
    samples: int
    delta_over_z: float


def measure_lower_bound_mc(w_sub: Subspace, z: np.ndarray, delta: float,
                           upsilon: float, samples: int, seed: int = 0,
                           delta0: float = 0.1) -> MeasureEstimate:
    """Monte-Carlo mass of {V : |pi_V z| <= delta} inside the upsilon-ball at W.

    ``ratio`` rescales the estimate by (delta/|z|)^n, the expected small-delta
    growth rate.
    """
    if samples < 1000:
        raise InputError("need at least 10^3 samples for a usable estimate")
    z = np.asarray(z, dtype=float)
    z_norm = np.linalg.norm(z)
    if z_norm == 0.0:
        raise InputError("z must be nonzero")
    t = delta / z_norm
    if not 0.0 < t < min(delta0, upsilon / 2):
        raise InputError(
            f"delta/|z| = {t:.4g} must lie in (0, min(delta0={delta0}, upsilon/2={upsilon / 2}))"
        )
    n = w_sub.k
    a0 = alpha0_max(n, upsilon)
    if np.linalg.norm(w_sub.coords(z)) > a0 * z_norm * (1.0 + 1e-12):
        raise InputError("z is tilted too far into W for the small-ball regime")
    rng = np.random.default_rng(seed)
    d = w_sub.d
    hits = 0
    done = 0
    while done < samples:
        batch = min(200_000, samples - done)
        frames = _batched_frames(rng, batch, d, n)
        proj = np.linalg.norm(np.einsum("bdk,d->bk", frames, z), axis=1)
        dist = _frame_distances(frames, w_sub)
        hits += int(np.count_nonzero((proj <= delta) & (dist <= upsilon)))
        done += batch
    a_hat = hits / samples
    std_error = math.sqrt(max(a_hat * (1.0 - a_hat), 1e-300) / samples)
    return MeasureEstimate(a_hat=a_hat, ratio=a_hat / t**n, std_error=std_error,
                           samples=samples, delta_over_z=t)
