"""Iterative cone-deletion refinement.

``refine_once`` takes the one-sided visit report of a finite set F along a
direction w at aperture alpha, whose largest count is M, and carves out K in
F whose counts at aperture alpha/2 are at most M - 1, never wasting much more
mass than it keeps.  Its outcome carries K's counts at alpha/2, which is the
report the next pass refines.  ``refine_schedule`` drives it over every
direction of a cone cover, down to zero visits per direction, and certifies
the resulting two-sided property with a final visit count.  Every visit
count here reads a shell table (``shells.ShellTable``).  A pass's alpha/2
table filters the alpha table that counted its entry report; the schedule's
direction counts and final certificate filter one two-sided root table (in
a pipeline run, the theta0 table); one incidence pass over its entries names
the directions that get a table.  By design a run fits its badness density
epsilon once, to e2, not to each shrinking set; a standalone pass fits its
own.  A pass lives inside the set F it refines: it runs on F's subcloud, in
its positions, the rows of its table over F; cloud indices appear only in its
outcome and ledger.

The bad-point test reads one dense ball-mass table per pass (``_DenseRows``):
the exactly-M set only loses points between iterations, so the table is
updated by the mass of the points that leave, and only the rows that land
within rounding of the threshold are recomputed exactly.

The construction mirrors a transparent bookkeeping scheme: at every stage a
"saved" ball around the lowest bad point x is banked, the open cone shadows
of its enlarged ball are deleted, and two stopping rules bound how long this
can go on.  A step's work follows what it touches, not the size of F: each
scale tried at x makes one neighbour query (``_near``) of the enlarged ball,
from which every shrink try reads its saved and enlarged balls and which the
witness's closed-shadow test meets once; a try reads its open shadow from
the rows of the entry report's table, which already hold every candidate
(``_open_shadow``), and the recount of its committed try is the next
iteration's count.  All disjointness claims are re-checked on the data at
each iteration; a failure that survives radius shrinking is a bug trap, not
a recoverable condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .audit import VisitationReport, visitation_counts
from .cloud import _EPS, ScaleRange, WeightedCloud, _reach, row_dots
from .cloud_io import SCHEMA
from .cover import DirectionCover
from .errors import (
    AlgorithmInvariantViolation,
    InputError,
    RefinementCollapsedError,
    ResolutionExhaustedError,
)
from .measure import ball_masses, prune_low_density
from .shells import ShellTable, block_rows, cone_shells, pair_differences, visited_directions

_ALPHA_MAX = 0.1
_MAX_C_RETRIES = 40  # saved-ball shrink steps tried per visited scale


@dataclass
class RefineConfig:
    """Tunables of the deletion loop; defaults follow the desk-scale setup."""

    c_factor: float = 1.0 / 64.0       # saved-ball radius = c_factor * alpha * scale
    epsilon: float | None = None       # badness density; None: fit per run or lone pass
    scale_choice: str = "largest"      # largest | smallest | random
    seed: int = 0
    min_mass_fraction: float = 0.0

    def __post_init__(self):
        if self.scale_choice not in ("largest", "smallest", "random"):
            raise InputError(f"unknown scale_choice {self.scale_choice!r}")
        if not 0.0 < self.c_factor < math.inf:
            raise InputError(f"c_factor must be positive and finite, got {self.c_factor}")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    x_index: int
    x_coord: tuple
    j_k: int
    r_k: float
    c_used: float
    mass_saved: float
    mass_deleted: float
    mass_remaining: float
    bad_points: int

    def as_dict(self) -> dict:
        return {
            "k": self.k, "x_index": self.x_index, "x": list(self.x_coord),
            "j_k": self.j_k, "r_k": self.r_k, "c": self.c_used,
            "mass_S": self.mass_saved, "mass_D": self.mass_deleted,
            "mass_F": self.mass_remaining, "bad_points": self.bad_points,
        }


@dataclass(frozen=True)
class RefinementOutcome:
    """One refine_once pass: the (w, alpha, M) it refined and one record per iteration."""

    direction: np.ndarray
    alpha: float
    max_count: int                  # M: the largest count of the input set at alpha
    epsilon: float
    kept: np.ndarray
    remaining: np.ndarray           # alive when the loop stopped
    status: str                     # stopped_1 | stopped_2
    saved: tuple                    # cloud-index arrays, one per iteration
    deleted: tuple
    records: tuple
    certificate: VisitationReport | None  # kept at alpha / 2; None in a schedule's outcomes
    mass_retained: float
    saved_ratio: float              # measured min mass(S)/max(mass(D), delta^n)

    @property
    def iterations(self) -> int:
        return len(self.records)

    def ledger(self) -> dict:
        return {
            "schema": SCHEMA,
            "direction": self.direction.tolist(),
            "alpha": self.alpha,
            "M": self.max_count,
            "epsilon": self.epsilon,
            "status": self.status,
            "iterations": [r.as_dict() for r in self.records],
        }


def _auto_epsilon(cloud: WeightedCloud, scale_range: ScaleRange) -> float:
    """Data-driven badness density anchored at the quarter-mass quantile.

    Probes the loneliest density ratio of every point, finds the threshold
    whose light set carries a quarter of the mass, measures the pruning
    constant there, and converts it back to a density per the light-mass
    budget.  Clipped to a factor 4 around the quantile so degenerate probes
    cannot run away.
    """
    radii = scale_range.radii
    unit = radii[radii <= 1.0 + 1e-12]
    radii = unit if len(unit) else radii[-1:]
    table = ball_masses(cloud, radii)
    ratios = (table / radii[None, :] ** cloud.n).min(axis=1)
    mass = cloud.mass()
    order = np.argsort(ratios)
    cum = np.cumsum(cloud.weights[order])
    k = int(np.searchsorted(cum, mass / 4.0, side="right"))
    sorted_ratios = ratios[order]
    if k == 0:
        eps_star = float(sorted_ratios[0]) / 2.0
    elif k >= len(sorted_ratios):
        eps_star = float(sorted_ratios[-1])
    else:
        eps_star = 0.5 * (float(sorted_ratios[k - 1]) + float(sorted_ratios[k]))
    eps_star = max(eps_star, 1e-12)
    # When the probe prune scans the same radii, the table is its first sweep.
    probe = prune_low_density(cloud, eps_star, scale_range, table if len(unit) else None)
    k_prune = probe.removed_mass / eps_star
    if k_prune <= 0:
        return eps_star
    eps = mass / (4.0 * k_prune)
    return float(np.clip(eps, eps_star / 4.0, eps_star * 4.0))


class _DenseRows:
    """The bad-point test of one pass: the points of the exactly-M set F whose
    mass within F is at least epsilon * r^n at every radius r.

    The first call tables ``ball_masses`` of F over itself.  F only loses
    points during a pass (counts only fall as points are deleted), so each
    later call subtracts from the surviving rows the mass of the points that
    left since the last call (``_departed_mass``): each (row, departed) pair
    gets the first radius whose closed ball holds it, by a ``searchsorted`` of
    the squared distance in the squared radii, the same test as
    ``ball_masses``, and one ``einsum`` sums every radius at once.  A point
    that joins F raises ``AlgorithmInvariantViolation``: the table would miss
    its mass.  A row is dense when est - margin >= epsilon * r^n at every
    radius and not dense when est + margin < epsilon * r^n at some radius; the
    rows in between go through ``ball_masses`` against the current F, whose
    rows do not depend on the block they share, so the bad set is the dense
    table's bit for bit.

    The margin is twice the largest gap between a running mass and the dense
    one.  With N the subcloud's size, M its mass and eps the float64 machine
    epsilon, every sum here has nonnegative terms that add up to at most M,
    and a sum of k such terms errs by at most k eps times their total in any
    order: the first table errs by at most N eps M; the updates (at most N
    departed points in a pass, each summed into one update) by N eps M
    together, whatever order the ``einsum`` adds them in; the subtractions
    (at most N calls after the first) by N eps M; and the dense reference by
    N eps M.  So margin = 2 * 4 N eps M.
    """

    def __init__(self, sub: WeightedCloud, radii: np.ndarray, epsilon: float):
        self.sub = sub
        self.radii = radii  # ascending
        self.thresholds = epsilon * radii ** sub.n
        self.margin = 8.0 * len(sub) * _EPS * sub.mass()
        self.masses = np.zeros((len(sub), len(radii)))
        self.carrier: np.ndarray | None = None

    def _departed_mass(self, rows: np.ndarray, departed: np.ndarray) -> np.ndarray:
        """Mass of the departed points within each radius of each row."""
        r_sq = self.radii * self.radii
        weights = self.sub.weights[departed]
        out = np.empty((len(rows), len(r_sq)))
        step = block_rows(len(departed) * len(r_sq))
        for lo in range(0, len(rows), step):
            block = rows[lo:lo + step]
            dist_sq = row_dots(pair_differences(self.sub.coords[block], self.sub.coords[departed]))
            first = np.searchsorted(r_sq, dist_sq)  # the first r with dist_sq <= r^2
            inside = first[:, :, None] <= np.arange(len(r_sq))
            out[lo:lo + len(block)] = np.einsum("ijk,j->ik", inside, weights)
        return out

    def bad(self, exactly_m: np.ndarray) -> np.ndarray:
        """Positions of the dense points of the exactly-M mask, ascending."""
        f_km = np.flatnonzero(exactly_m)
        if self.carrier is None:
            self.masses[f_km] = ball_masses(self.sub, self.radii, f_km, f_km)
        else:
            if (exactly_m & ~self.carrier).any():
                raise AlgorithmInvariantViolation(
                    "a point joined the exactly-M set during a pass")
            departed = np.flatnonzero(self.carrier & ~exactly_m)
            if len(departed):
                self.masses[f_km] -= self._departed_mass(f_km, departed)
        self.carrier = exactly_m.copy()
        est = self.masses[f_km]
        dense = (est - self.margin >= self.thresholds).all(axis=1)
        open_rows = np.flatnonzero(~dense & (est + self.margin >= self.thresholds).all(axis=1))
        if len(open_rows):
            exact = ball_masses(self.sub, self.radii, f_km[open_rows], f_km)
            dense[open_rows] = (exact >= self.thresholds).all(axis=1)
        return f_km[dense]


def _shadow_annulus(j_k: int) -> tuple[np.ndarray, np.ndarray]:
    """(inner, outer) of the union of the three closed shells around scale j_k."""
    return np.array([2.0 ** (-j_k - 2)]), np.array([2.0 ** (-j_k + 1)])


def _table_gap(j_k: int, js: np.ndarray) -> float:
    """Radius around a center out to which its open shadow at scale j_k may
    leave the shells ``js`` of a table: 0 when the shells j_k - 1, j_k and
    j_k + 1 are all there, 2^(-j_k-1) when j_k is the finest, and the outer
    radius 2^(-j_k+1) when j_k is the coarsest (the top shell holds every
    pair only up to its computed distance 2^(-j_k))."""
    if j_k == js[0]:
        return 2.0 ** (1 - j_k)
    return 2.0 ** (-j_k - 1) if j_k == js[-1] else 0.0


def _near(cloud: WeightedCloud, x: np.ndarray, j_k: int, c: float, alive: np.ndarray,
          js: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alive points that a shrink try at scale j_k with saved-ball factor at
    most c can accept, and their squared distances to x, ascending: every
    point of its saved and enlarged balls lies within 100 r_k of x, r_k =
    c 2^-j_k.  At the ends of the scales ``js`` it also holds the points
    within ``_table_gap`` of those, which ``_open_shadow`` meets with every
    center.  The radius is padded past rounding."""
    radius = 100.0 * c * 2.0 ** (-float(j_k)) + _table_gap(j_k, js)
    near = cloud.grid.ball(x, _reach(radius, float(np.abs(cloud.coords).max())))
    near = near[alive[near]]
    return near, row_dots(cloud.coords[near] - x)


def _open_shadow(cloud: WeightedCloud, table: ShellTable, rows: np.ndarray,
                 centers: np.ndarray, near: np.ndarray, alive: np.ndarray,
                 j_k: int) -> np.ndarray:
    """The alive points in the interior of the closed shadow of any center,
    ascending.

    The closed shadow of a center is its closed one-sided alpha-cone cut to
    the shells j_k - 1, j_k and j_k + 1, whose union is the single closed
    annulus [2^(-j_k-2), 2^(-j_k+1)].  Its interior is the strict cone in the
    open annulus: points on the radii 2^(-j_k-1) and 2^(-j_k) that adjacent
    shells share are deleted, the two rims are kept.  Every closed
    alpha/2-shell of scale j_k around a center lies in this interior, so the
    deletion removes each visit the recount below has to clear.

    ``table`` is one-sided along w at aperture alpha over a superset of the
    cloud's points, position p being its row ``rows[p]`` (``rows``
    ascending), and holds every closed-shell hit between them: the same
    displacement, distance and cone test, closed.  So every interior point
    of a center's shadow is a column of its row with a shell among j_k - 1,
    j_k and j_k + 1, where the table has them; at the ends of its scales
    (``_table_gap``) the rest lies within ``near``, which every center meets
    too.  The strict ``cone_shells`` settles each (center, candidate) pair,
    the table's in blocks of at most ``shells._CHUNK`` pairs, ``near`` in
    blocks of its points.
    """
    inner, outer = _shadow_annulus(j_k)
    w, alpha = table.direction, table.aperture
    coords, found = cloud.coords, [np.empty(0, dtype=np.intp)]
    owner, cols = table.entries(rows[centers], np.arange(j_k - 1, j_k + 2))
    pos = np.minimum(np.searchsorted(rows, cols), len(rows) - 1)
    keep = (rows[pos] == cols) & alive[pos]  # the columns that are alive points of the pass
    owner, pos = centers[owner[keep]], pos[keep]
    step = block_rows(1)
    for lo in range(0, len(pos), step):
        points = pos[lo:lo + step]
        inside = cone_shells(coords[points] - coords[owner[lo:lo + step]], alpha, cloud.n, w,
                             inner, outer, strict=True)[:, 0]
        found.append(points[inside])
    if _table_gap(j_k, table.js):
        step = block_rows(len(centers))
        for lo in range(0, len(near), step):
            delta = pair_differences(coords[near[lo:lo + step]], coords[centers])
            close = row_dots(delta) < outer[0] * outer[0]
            inside = cone_shells(delta[close], alpha, cloud.n, w, inner, outer,
                                 strict=True)[:, 0]
            found.append(near[lo + np.nonzero(close)[0][inside]])
    return np.unique(np.concatenate(found))


def _in_closed_shadow(cloud: WeightedCloud, centers: np.ndarray, w: np.ndarray,
                      alpha: float, j_k: int, z: np.ndarray) -> np.ndarray:
    """Mask of the centers whose closed shadow holds z.  Rows are tested on
    their own, so a step tests every point of ``near`` once per scale."""
    inner, outer = _shadow_annulus(j_k)
    return cone_shells(z - cloud.coords[centers], alpha, cloud.n, w, inner, outer)[:, 0]


def refine_once(cloud: WeightedCloud, entry: VisitationReport,
                cfg: RefineConfig | None = None) -> RefinementOutcome:
    """One refinement pass: (alpha, M) visit bound in, (alpha/2, M-1) out.

    ``entry`` is the one-sided visit report of the input set F along w at
    aperture alpha, and M is its largest count.  Alternates between banking a
    saved ball around the bad point with the smallest coordinate along w and
    deleting the open cone shadows of its enlarged neighborhood, until either
    half the mass is accounted for or no dense bad points remain.  The pass
    runs on the subcloud of F, in its positions, and its alpha/2 table filters
    the entry's table; the outcome maps positions back to cloud indices.
    """
    cfg = cfg or RefineConfig()
    if entry.table.direction is None:
        raise InputError("refine_once needs a one-sided visit report")
    w, alpha = entry.table.direction, entry.table.aperture
    scale_range, big_m = entry.table.scale_range, entry.max_count
    if not 0.0 < alpha <= _ALPHA_MAX:
        raise InputError(f"aperture {alpha} outside (0, {_ALPHA_MAX}]")
    if big_m == 0:
        raise InputError("nothing to refine: the report has no visits")

    shells = ShellTable(cloud, entry.subset, alpha / 2.0, scale_range, w, parent=entry.table)
    subset = shells.subset  # sorted: the subcloud's positions are the table's rows
    sub = cloud.subcloud(subset)
    epsilon = cfg.epsilon if cfg.epsilon is not None else _auto_epsilon(sub, scale_range)
    rng = np.random.default_rng(cfg.seed)
    dense_rows = _DenseRows(sub, np.unique(np.concatenate([
        scale_range.radii[scale_range.radii <= 1.0 + 1e-12], [1.0]])), epsilon)

    mass_total = sub.mass()
    alive = np.ones(len(sub), dtype=bool)
    saved = np.zeros(len(sub), dtype=bool)
    held = np.zeros(len(sub), dtype=bool)  # a try's saved ball, cleared after the try
    rows = np.searchsorted(entry.table.subset, subset)  # each position's entry-table row
    saved_sets, deleted_sets, records = [], [], []
    sum_saved = sum_deleted = 0.0
    saved_ratio, last_w_coord = math.inf, -math.inf
    counts = shells.counts(alive)  # then the committed try's recount: alive is alive_after

    while True:
        if len(records) > len(sub):
            raise AlgorithmInvariantViolation(
                "refinement failed to terminate within the saved-set bound")
        if sum_saved >= mass_total / 2.0 or sum_deleted >= mass_total / 2.0:
            status, keep_mask = "stopped_1", saved
            break

        if counts[alive].max(initial=0) > big_m:
            raise AlgorithmInvariantViolation(
                "visit counts exceeded M on a surviving point")
        exactly_m = alive & (counts == big_m)
        bad = dense_rows.bad(exactly_m)
        if len(bad) == 0:
            status, keep_mask = "stopped_2", alive & ~exactly_m
            break

        x_k = int(bad[np.lexsort(np.vstack([sub.coords[bad].T[::-1], sub.coords[bad] @ w]))[0]])
        x_coord = sub.coords[x_k]
        x_w = float(x_coord @ w)
        if x_w < last_w_coord - 1e-12:
            raise AlgorithmInvariantViolation(
                "bad-point coordinates along the direction decreased")
        if saved[x_k]:
            raise AlgorithmInvariantViolation(
                "a previously saved point re-qualified as bad")

        scales = shells.scales(x_k, alive)
        if len(scales) != big_m:
            raise AlgorithmInvariantViolation(
                f"bad point has {len(scales)} visited scales, expected exactly {big_m}")
        if cfg.scale_choice == "random":
            candidate_js = rng.permutation(scales)
        else:  # ``scales`` ascends in j: the largest scale 2^-j comes first
            candidate_js = scales if cfg.scale_choice == "largest" else scales[::-1]

        committed = False
        for j_k in map(int, candidate_js):
            z_k = cloud.coords[shells.witness(x_k, j_k, alive)]
            c_try = cfg.c_factor * alpha
            near, dist_sq = _near(sub, x_coord, j_k, c_try, alive, scale_range.js)
            holds_z = _in_closed_shadow(sub, near, w, alpha, j_k, z_k)
            # Shrinking always succeeds eventually: once the enlarged ball
            # holds only the bad point itself, the witness inclusion is
            # automatic.  The retry budget bounds the loop regardless.
            for _ in range(_MAX_C_RETRIES):
                r_k = c_try * 2.0 ** (-float(j_k))
                s_k = near[exactly_m[near] & (dist_sq <= r_k * r_k)]
                enlarged = dist_sq <= (100.0 * r_k) * (100.0 * r_k)
                if not holds_z[enlarged].all():
                    c_try /= 2.0
                    continue
                b_k = near[enlarged]
                d_k = _open_shadow(sub, entry.table, rows, b_k, near, alive, j_k)
                held[s_k] = True
                clash = (saved[d_k] | held[d_k]).any()
                held[s_k] = False
                if clash:
                    c_try /= 2.0
                    continue
                # Deleting the shadow must knock every neighbor of the saved
                # ball below M visited scales; otherwise this scale/radius
                # pair is unusable.
                alive_after = alive.copy()
                alive_after[d_k] = False
                counts_after = shells.counts(alive_after)
                if counts_after[b_k].max(initial=0) > big_m - 1:
                    c_try /= 2.0
                    continue
                committed = True
                break
            if committed:
                break
        if not committed:
            raise ResolutionExhaustedError(
                f"no saved-ball radius passed the shadow checks within {_MAX_C_RETRIES} shrink "
                f"steps at any of the {big_m} scales of the bad point {subset[x_k]}")

        saved_sets.append(subset[s_k])
        deleted_sets.append(subset[d_k])
        saved[s_k] = True
        alive[d_k] = False
        counts = counts_after
        if saved[~alive].any():
            raise AlgorithmInvariantViolation("a saved point was deleted")
        mass_s, mass_d = sub.mass(s_k), sub.mass(d_k)
        sum_saved += mass_s
        sum_deleted += mass_d
        saved_ratio = min(saved_ratio, mass_s / max(mass_d, sub.delta_res ** sub.n))
        last_w_coord = max(last_w_coord, x_w)
        records.append(IterationRecord(
            k=len(records), x_index=int(subset[x_k]), x_coord=tuple(x_coord),
            j_k=int(j_k), r_k=r_k, c_used=c_try, mass_saved=mass_s, mass_deleted=mass_d,
            mass_remaining=sub.mass(np.flatnonzero(alive)), bad_points=len(bad)))

    kept = subset[keep_mask]
    certificate = shells.visits(keep_mask)
    if certificate.max_count > big_m - 1:
        raise AlgorithmInvariantViolation(
            f"output certificate failed: {certificate.max_count} visited scales "
            f"remain at aperture {alpha / 2.0}")
    return RefinementOutcome(
        direction=w, alpha=alpha, max_count=big_m, epsilon=epsilon, kept=kept,
        remaining=subset[alive], status=status, saved=tuple(saved_sets),
        deleted=tuple(deleted_sets), records=tuple(records), certificate=certificate,
        mass_retained=cloud.mass(kept), saved_ratio=0.0 if saved_ratio is math.inf else saved_ratio)


@dataclass(frozen=True)
class DirectionRun:
    direction: np.ndarray
    initial_count: int
    applications: int
    final_aperture: float           # aperture of the zero-visit report
    reached_target_aperture: bool
    outcomes: list

    def summary(self) -> dict:
        """The run's counts and apertures, as the ledger and the report write them."""
        return {"initial_count": self.initial_count, "applications": self.applications,
                "final_aperture": self.final_aperture,
                "reached_target_aperture": self.reached_target_aperture}


@dataclass(frozen=True)
class ScheduleResult:
    e3: np.ndarray
    runs: list
    final_certificate: VisitationReport
    theta_certified: float

    def ledger(self) -> dict:
        return {
            "schema": SCHEMA,
            "theta_certified": self.theta_certified,
            "directions": [
                {"direction": run.direction.tolist(), **run.summary(),
                 "iterations": [o.ledger() for o in run.outcomes]}
                for run in self.runs
            ],
        }


def refine_schedule(cloud: WeightedCloud, e2, cover: DirectionCover,
                    cfg: RefineConfig | None = None,
                    parent: ShellTable | None = None) -> ScheduleResult:
    """Refine along every cover direction until each has zero visits.

    The cover is built with aperture theta / b_used and shrink factor 2^-m0,
    where m0 is the largest two-sided visit count of e2 at theta: each
    direction then needs at most m0 passes (the aperture halves per pass),
    and the surviving set's two-sided visits at aperture theta / b_used
    vanish, which a final two-sided count verifies.  It and the counts of the
    directions that ``visited_directions`` names filter ``parent``, by default
    a two-sided table of e2 at theta.  With ``cfg.epsilon`` None every pass
    takes ``_auto_epsilon`` of e2.  With m0 = 0 (``cover.s == 1``) no
    direction is refined.
    """
    cfg = cfg or RefineConfig()
    e2 = cloud.subset_indices(e2)
    scale_range = ScaleRange.default_for(cloud)
    floor_mass = cfg.min_mass_fraction * cloud.mass(e2)
    if parent is None:
        parent = ShellTable(cloud, e2, cover.alpha * cover.b_used, scale_range)

    current, runs = e2, []
    directions = cover.directions if cover.s < 1.0 else []  # m0 = 0: nothing to refine
    visited = visited_directions(parent, e2, directions, cover.alpha) if len(directions) else []
    for row, w in enumerate(directions):
        report = visitation_counts(cloud, current, cover.alpha, scale_range, direction=w,
                                   parent=parent) if visited[row] else None
        initial, outcomes = 0 if report is None else report.max_count, []
        while initial and report.max_count:
            if len(outcomes) > initial + 2:
                raise AlgorithmInvariantViolation(
                    "per-direction refinement failed to drain the visit counts")
            if cfg.epsilon is None:
                cfg = replace(cfg, epsilon=_auto_epsilon(cloud.subcloud(e2), scale_range))
            outcome = refine_once(cloud, report, cfg)
            current, report = outcome.kept, outcome.certificate  # kept at half the aperture
            outcomes.append(replace(outcome, certificate=None))
            if cloud.mass(current) < floor_mass:
                raise RefinementCollapsedError(
                    f"mass fell below the configured floor while refining "
                    f"direction {row}", ledger=[o.ledger() for o in outcomes])
        aperture = cover.alpha if report is None else report.table.aperture
        runs.append(DirectionRun(
            direction=w, initial_count=initial, applications=len(outcomes), final_aperture=aperture,
            reached_target_aperture=bool(aperture >= cover.alpha * cover.s - 1e-15),
            outcomes=outcomes))

    certificate = visitation_counts(cloud, current, cover.alpha, scale_range,
                                    direction=None, parent=parent)
    if certificate.max_count > 0:
        raise AlgorithmInvariantViolation(
            "final two-sided certificate failed after the direction schedule")
    return ScheduleResult(e3=current, runs=runs, final_certificate=certificate,
                          theta_certified=cover.alpha)
