"""Deterministic dataset generators for experiments and tests.

Every generator is seeded, returns a WeightedCloud, and sets the resolution
``delta_res`` from its own spacing.  Heights and offsets carry small seeded
jitter so no pair of points lands exactly on a dyadic annulus boundary.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .cloud import WeightedCloud
from .errors import InputError

GENERATOR_KINDS = ("lipschitz_graph", "four_corner_cantor", "outlier_stacks",
                   "union_of_graphs", "hrycak_like")


def _piecewise_linear_map(rng: np.random.Generator, n: int, codim: int,
                          lip: float, extent: float, n_sites: int = 5):
    """A random piecewise-linear map with Lipschitz constant at most ``lip``.

    Each output coordinate is a min of cone functions (slope-1 pieces), which
    keeps the per-coordinate constant exactly lip / sqrt(codim).
    """
    per_coord = lip / math.sqrt(codim)
    sites = rng.uniform(0.0, extent, size=(codim, n_sites, n))
    signs = rng.choice([-1.0, 1.0], size=(codim, n_sites))

    def apply(t: np.ndarray) -> np.ndarray:
        t = np.atleast_2d(t)
        out = np.empty((len(t), codim))
        for q in range(codim):
            dist = np.linalg.norm(t[:, None, :] - sites[q][None, :, :], axis=2)
            out[:, q] = per_coord * np.min(signs[q][None, :] * dist, axis=1)
        return out

    return apply


def _base_grid(rng: np.random.Generator, n_points: int, n: int, extent: float,
               jitter: float) -> tuple[np.ndarray, float]:
    """Jittered lattice of ~n_points sites in [0, extent]^n."""
    per_axis = max(int(round(n_points ** (1.0 / n))), 2)
    axes = [np.linspace(0.0, extent, per_axis) for _ in range(n)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    h = extent / (per_axis - 1)
    mesh = mesh + rng.uniform(-jitter * h, jitter * h, size=mesh.shape)
    return mesh, h


def lipschitz_graph(n_points: int = 500, lip: float = 0.3, d: int = 2, n: int = 1,
                    extent: float = 1.0, jitter: float = 0.2, seed: int = 0) -> WeightedCloud:
    """Samples of a Lipschitz graph over [0, extent]^n with total mass ~1.

    Weights are secant-length shares along the base order for curves and
    uniform base shares for higher-dimensional graphs, so a flat unit segment
    carries mass exactly 1.
    """
    if n_points < 2:
        raise InputError("need at least two points")
    if not (1 <= n < d and lip >= 0):
        raise InputError(f"need 1 <= n < d and lip >= 0, got n = {n}, d = {d}, lip = {lip}")
    rng = np.random.default_rng(seed)
    base, h = _base_grid(rng, n_points, n, extent, jitter)
    value_map = _piecewise_linear_map(rng, n, d - n, lip, extent)
    if n == 1:
        order = np.argsort(base[:, 0])
        base = base[order]
        # pinned endpoints make the flat curve carry mass exactly `extent`
        base[0, 0], base[-1, 0] = 0.0, extent
    values = value_map(base)
    coords = np.concatenate([base, values], axis=1)
    if n == 1:
        seg = np.linalg.norm(np.diff(coords, axis=0), axis=1)
        weights = np.empty(len(coords))
        weights[0] = seg[0] / 2.0
        weights[-1] = seg[-1] / 2.0
        weights[1:-1] = (seg[:-1] + seg[1:]) / 2.0
    else:
        weights = np.full(len(coords), extent**n / len(coords))
    return WeightedCloud(coords, weights, n=n, delta_res=h)


def four_corner_cantor(depth: int = 6) -> WeightedCloud:
    """Corner points of the depth-D four-corner construction in the plane.

    4^depth points of weight 4^-depth each; self-similar with ratio 1/4, so
    the set is one-dimensional and the natural resolution is 3 * 4^-depth.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    if depth > 8:
        raise InputError("depth > 8 exceeds the desk-scale point budget")
    corners = np.array([[0.0, 0.0], [0.75, 0.0], [0.0, 0.75], [0.75, 0.75]])
    pts = np.zeros((1, 2))
    for level in range(depth):
        shift = corners * 4.0 ** (-level)
        pts = (pts[:, None, :] + shift[None, :, :]).reshape(-1, 2)
    weights = np.full(len(pts), 4.0 ** (-depth))
    return WeightedCloud(pts, weights, n=1, delta_res=3.0 * 4.0 ** (-depth))


def outlier_stacks(n_base: int = 2000, lip: float = 0.3, n_stacks: int = 10,
                   points_per_stack: int = 20, max_height: float = 0.6,
                   mass_fraction: float = 0.1, extent: float = 1.0,
                   seed: int = 0, unit_weights: bool = False) -> WeightedCloud:
    """A Lipschitz graph plus vertical point stacks over a few base sites.

    The stacks carry ``mass_fraction`` of the total mass (or unit weights when
    requested); heights are jittered so stack distances avoid exact powers of
    two.
    """
    if n_stacks < 1 or points_per_stack < 1:
        raise InputError("need at least one stack point")
    rng = np.random.default_rng(seed)
    base = lipschitz_graph(n_base, lip, d=2, n=1, extent=extent, seed=seed + 1)
    sites = rng.choice(len(base.coords), size=n_stacks, replace=False)
    levels = np.arange(1, points_per_stack + 1, dtype=float)
    stack_pts = []
    for s in sites:
        t, a = base.coords[s]
        heights = max_height * (levels + rng.uniform(-0.23, 0.23, size=len(levels))) \
            / points_per_stack
        for hgt in heights:
            stack_pts.append((t, a + hgt))
    stack_pts = np.asarray(stack_pts)
    base_mass = base.weights.sum()
    if unit_weights:
        weights = np.concatenate([np.ones(len(base.coords)), np.ones(len(stack_pts))])
    else:
        stack_mass = base_mass * mass_fraction / (1.0 - mass_fraction)
        weights = np.concatenate([
            base.weights, np.full(len(stack_pts), stack_mass / len(stack_pts))])
    coords = np.concatenate([base.coords, stack_pts], axis=0)
    return WeightedCloud(coords, weights, n=1, delta_res=base.delta_res)


def union_of_graphs(n_points: int = 1000, lips=(0.1, 0.25), offsets=(0.0, 0.5),
                    extent: float = 1.0, seed: int = 0) -> WeightedCloud:
    """Disjoint union of vertically shifted Lipschitz graphs, equal mass shares.

    Default offsets keep the slabs separated so the pieces never collide.
    """
    if len(lips) != len(offsets):
        raise InputError("lips and offsets must have the same length")
    per = max(n_points // len(lips), 2)
    parts = []
    weights = []
    h = extent
    for g, (lip, off) in enumerate(zip(lips, offsets)):
        piece = lipschitz_graph(per, lip, d=2, n=1, extent=extent, seed=seed + 17 * g)
        coords = piece.coords.copy()
        coords[:, 1] += off
        parts.append(coords)
        weights.append(piece.weights / len(lips))
        h = min(h, piece.delta_res)
    return WeightedCloud(np.concatenate(parts), np.concatenate(weights), n=1, delta_res=h)


def hrycak_like(depth: int = 3, pieces: int = 4, angle: float = 0.35,
                points_per_segment: int = 8, seed: int = 0) -> WeightedCloud:
    """Crude multiscale rotated-segment set (not a faithful construction).

    Starting from a unit segment, each level splits every segment into equal
    pieces and rotates them about their midpoints; small projections in most
    directions emerge while the length stays comparable to 1.
    """
    if depth < 1 or pieces < 2:
        raise InputError("need depth >= 1 and pieces >= 2")
    rng = np.random.default_rng(seed)
    segments = [(np.array([0.0, 0.0]), np.array([1.0, 0.0]))]
    for level in range(depth):
        rotated = []
        phi = angle * (1.0 + 0.1 * rng.uniform(-1, 1))
        for p, q in segments:
            for i in range(pieces):
                a = p + (q - p) * (i / pieces)
                b = p + (q - p) * ((i + 1) / pieces)
                mid = (a + b) / 2.0
                sign = 1.0 if (i % 2 == 0) else -1.0
                c, s = math.cos(sign * phi), math.sin(sign * phi)
                rot = np.array([[c, -s], [s, c]])
                rotated.append((mid + rot @ (a - mid), mid + rot @ (b - mid)))
        segments = rotated
    pts = []
    weights = []
    for p, q in segments:
        ts = (np.arange(points_per_segment) + 0.5) / points_per_segment
        pts.append(p[None, :] + ts[:, None] * (q - p)[None, :])
        weights.append(np.full(points_per_segment,
                               np.linalg.norm(q - p) / points_per_segment))
    coords = np.concatenate(pts)
    seg_len = np.linalg.norm(segments[0][1] - segments[0][0])
    return WeightedCloud(coords, np.concatenate(weights), n=1,
                         delta_res=seg_len / points_per_segment)


def finite(text: str) -> float:
    """A number from outside the program; ValueError for nan and inf too."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text!r} is not finite")
    return value


# Option strings by the type they take: (expected, parse).
_PARSERS = {
    int: ("an integer", int),
    float: ("a finite number", finite),
    bool: ("true or false", lambda text: {"true": True, "false": False}[text.lower()]),
    tuple: ("comma-separated finite numbers",
            lambda text: tuple(map(finite, text.split(",")))),
    str: ("text", str),
}


def _typed(name: str, text: str, kind: type):
    """An option string as ``kind``; an InputError names the option otherwise."""
    expected, parse = _PARSERS[kind]
    try:
        return parse(text)
    except (KeyError, ValueError):
        raise InputError(f"{name} expects {expected}, got {text!r}") from None


def generate(kind: str, params: dict | None = None, seed: int = 0) -> WeightedCloud:
    """Dispatch a generator by name with keyword parameters; ``seed`` goes to
    the generators that take one.  String values (as from the CLI) are
    converted to the type of the parameter's default."""
    if kind not in GENERATOR_KINDS:
        raise InputError(f"unknown generator kind {kind!r}; choose from {GENERATOR_KINDS}")
    make = globals()[kind]
    accepted = inspect.signature(make).parameters
    names = [name for name in accepted if name != "seed"]
    params = dict(params or {})
    for key, value in params.items():
        if key not in names:
            raise InputError(f"{kind} takes no parameter {key!r}; it takes {names}")
        if isinstance(value, str):
            params[key] = _typed(f"{kind} parameter {key!r}", value,
                                 type(accepted[key].default))
    if "seed" in accepted:
        params["seed"] = seed
    return make(**params)
