import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphcarve import InputError, ScaleRange, WeightedCloud, visitation_counts
from graphcarve import shells
from graphcarve.shells import ShellTable
from tests.visit_rows import assert_rows_match_oracle


@st.composite
def shell_cases(draw):
    """Lattice clouds with exact dyadic gaps, a 3-4-5 pair and random masks.

    On the lattice of step 2^-k, the base point carries a vertical stack at
    1, 2 and 4 steps (exact dyadic distances, and pairs on the top shell
    radius, which is the edge of the candidate box) and a point 3 steps
    across and 4 up, which sits exactly on the boundary of the 0.6-cone.  A
    1e-9 aperture leaves only pairs whose perpendicular part rounds to zero.
    """
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, d - 1))
    step = 2.0 ** -draw(st.integers(0, 3))
    coord = st.integers(-6, 6)
    lattice = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=14))
    base = np.array(lattice[0])
    up = np.eye(d, dtype=int)[-1]
    across = np.eye(d, dtype=int)[0]
    forced = [base + h * up for h in (1, 2, 4)] + [base + 3 * across + 4 * up]
    points = sorted({tuple(int(v) for v in p) for p in lattice + forced})
    cloud = WeightedCloud(np.array(points, dtype=float) * step, np.ones(len(points)),
                          n=n, delta_res=step / 4.0)
    aperture = draw(st.one_of(st.sampled_from([0.6, 0.8, 1e-9]), st.floats(0.05, 0.95)))
    kind = draw(st.sampled_from(["two_sided", "up", "down", "tilted", "random"]))
    direction = None
    if kind == "up":
        direction = up.astype(float)
    elif kind == "down":
        direction = -up.astype(float)
    elif kind == "tilted":
        direction = 0.6 * across + 0.8 * up
    elif kind == "random":
        raw = np.array(draw(st.lists(st.floats(-1, 1), min_size=d, max_size=d)))
        if np.linalg.norm(raw) < 0.1:
            raw = up.astype(float)
        direction = raw / np.linalg.norm(raw)
    default = ScaleRange.default_for(cloud)
    j_min = min(default.j_min + draw(st.integers(0, 2)), default.j_max)
    j_max = max(j_min, default.j_max - draw(st.integers(0, 3)))
    in_subset = np.array(draw(st.lists(st.booleans(), min_size=len(points),
                                       max_size=len(points))))
    in_subset[0] = True
    subset = np.nonzero(in_subset)[0]
    alive = np.array(draw(st.lists(st.booleans(), min_size=len(subset),
                                   max_size=len(subset))))
    inner = alive & np.array(draw(st.lists(st.booleans(), min_size=len(subset),
                                           max_size=len(subset))))
    return cloud, subset, aperture, direction, ScaleRange(j_min, j_max), alive, inner


def assert_reports_equal(a, b):
    assert np.array_equal(a.subset, b.subset)
    assert np.array_equal(a.counts, b.counts) and a.counts.dtype == b.counts.dtype


@settings(max_examples=300, deadline=None)
@given(shell_cases())
def test_table_equals_oracle_on_alive_subsets(case):
    cloud, subset, aperture, direction, sr, alive, inner = case
    table = ShellTable(cloud, subset, aperture, sr, direction)
    all_pairs = ShellTable(cloud, subset, aperture, sr, direction, oracle=True)
    # One table answers nested subsets, as the pipeline's before, e2 and
    # after reports do, equal to separate counts on each subset.
    for mask in (np.ones(len(subset), dtype=bool), alive, inner):
        assert_rows_match_oracle(cloud, table, mask)
        assert_rows_match_oracle(cloud, all_pairs, mask)
        assert_rows_match_oracle(cloud, ShellTable(cloud, subset[mask], aperture, sr,
                                                   direction))
        ref = visitation_counts(cloud, subset[mask], aperture, sr, direction=direction,
                                oracle=True)
        assert_reports_equal(table.visits(mask), ref)
        assert_reports_equal(
            visitation_counts(cloud, subset[mask], aperture, sr, direction=direction), ref)


def test_sixty_four_scales_use_the_top_bit():
    coords = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
    cloud = WeightedCloud(coords, np.ones(3), n=1, delta_res=0.5)
    sr = ScaleRange(-63, 0)
    fast = visitation_counts(cloud, cloud.all_indices(), 0.5, sr)
    table = ShellTable(cloud, cloud.all_indices(), 0.5, sr)
    assert list(table.scales(0, np.ones(3, dtype=bool))) == [-2, -1, 0]
    assert_rows_match_oracle(cloud, table)
    assert_reports_equal(fast, visitation_counts(cloud, cloud.all_indices(), 0.5, sr,
                                                 oracle=True))


def test_more_than_sixty_four_scales_rejected():
    cloud = WeightedCloud(np.array([[0.0, 0.0], [0.0, 1.0]]), np.ones(2), n=1,
                          delta_res=0.5)
    with pytest.raises(InputError):
        visitation_counts(cloud, cloud.all_indices(), 0.5, ScaleRange(-64, 0))


def test_pad_keeps_pairs_the_rounded_predicate_accepts():
    # At aperture 1e-9 the one-sided test subtracts two nearly equal squares,
    # so it passes pairs 1e-8 off the axis: the candidate box must keep them.
    rng = np.random.default_rng(0)
    accepted = 0
    for _ in range(100):
        w = rng.standard_normal(2)
        w /= np.linalg.norm(w)
        off = 10 ** rng.uniform(-8.5, -7)
        coords = np.array([[0.0, 0.0], 0.9 * (w + off * np.array([-w[1], w[0]]))])
        cloud = WeightedCloud(coords, np.ones(2), n=1, delta_res=0.01)
        args = (cloud, [0, 1], 1e-9, ScaleRange(0, 5))
        ref = visitation_counts(*args, direction=w, oracle=True)
        accepted += int(ref.counts[0])
        assert_reports_equal(visitation_counts(*args, direction=w), ref)
        assert_rows_match_oracle(cloud, ShellTable(cloud, np.array([0, 1]), 1e-9,
                                                   ScaleRange(0, 5), w))
    assert accepted > 0


@pytest.mark.parametrize("direction", [None, np.array([0.6, 0.8])],
                         ids=["two_sided", "tilted"])
def test_all_pairs_blocks_stay_within_the_chunk(monkeypatch, direction):
    # With a 7-pair chunk most rows of 40 points span several blocks and some
    # blocks span two rows; the table equals the kd-tree one all the same.
    sizes = []
    exact = shells.cone_shells

    def recorded(delta, *args, **kwargs):
        sizes.append(len(delta))
        return exact(delta, *args, **kwargs)

    rng = np.random.default_rng(3)
    cloud = WeightedCloud(rng.uniform(0.0, 1.0, (40, 2)), np.ones(40), n=1,
                          delta_res=1e-3)
    sr = ScaleRange(0, 6)
    kd = ShellTable(cloud, cloud.all_indices(), 0.4, sr, direction)
    monkeypatch.setattr(shells, "cone_shells", recorded)
    monkeypatch.setattr(shells, "_CHUNK", 7)
    table = ShellTable(cloud, cloud.all_indices(), 0.4, sr, direction, oracle=True)
    assert max(sizes) <= 7
    assert sum(sizes) == (40 * 39 // 2 if direction is None else 40 * 39)
    for name in ("cols", "bits", "indptr"):
        assert np.array_equal(getattr(table, name), getattr(kd, name))
    assert kd.indptr[-1] > 0


def test_near_unit_directions_count_as_their_unit_vector():
    # ``visitation_counts`` accepts |w| within 1e-9 of 1 and divides w by its
    # norm.  Unnormalized, w = (0, 1 + 5e-10) makes the one-sided test at
    # aperture 1e-9 pass a pair 1e-5 off the axis: along^2 outgrows |delta|^2.
    cloud = WeightedCloud(np.array([[0.0, 0.0], [1e-5, 0.9]]), np.ones(2), n=1,
                          delta_res=1e-6)
    for oracle in (False, True):
        report = visitation_counts(cloud, [0, 1], 1e-9, ScaleRange(0, 5),
                                   direction=np.array([0.0, 1.0 + 5e-10]), oracle=oracle)
        assert list(report.counts) == [0, 0]
    # Pairs near a random or near-vertical unit vector u, counted along
    # u * (1 + 9e-10) at aperture 1e-6, both ways and against the unit vector.
    rng = np.random.default_rng(7)
    accepted = 0
    for near_vertical in (False, True):
        for _ in range(200):
            angle = rng.uniform(-1e-3, 1e-3) if near_vertical else rng.uniform(-np.pi, np.pi)
            u = np.array([np.sin(angle), np.cos(angle)])
            off = 10 ** rng.uniform(-7, -4)
            coords = np.array([[0.0, 0.0], 0.9 * (u + off * np.array([-u[1], u[0]]))])
            cloud = WeightedCloud(coords, np.ones(2), n=1, delta_res=0.01)
            args = (cloud, [0, 1], 1e-6, ScaleRange(0, 5))
            ref = visitation_counts(*args, direction=u, oracle=True)
            accepted += int(ref.counts[0])
            for oracle in (False, True):
                assert_reports_equal(visitation_counts(*args, direction=u * (1 + 9e-10),
                                                       oracle=oracle), ref)
    assert 0 < accepted < 400


@pytest.mark.parametrize("subset", [[0, 0, 1], [-1, 0], [0, 5]],
                         ids=["repeated", "negative", "out_of_range"])
@pytest.mark.parametrize("direction", [None, np.array([0.0, 1.0])],
                         ids=["two_sided", "one_sided"])
def test_subsets_must_hold_distinct_cloud_indices(subset, direction):
    cloud = WeightedCloud(np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]]), np.ones(3),
                          n=1, delta_res=0.5)
    for oracle in (False, True):
        with pytest.raises(InputError, match="distinct indices"):
            visitation_counts(cloud, subset, 0.5, direction=direction, oracle=oracle)
    with pytest.raises(InputError, match="distinct indices"):
        ShellTable(cloud, subset, 0.5, ScaleRange(-1, 1), direction)


def _unit(v):
    return v / np.linalg.norm(v)


@st.composite
def enclosed_cases(draw):
    """A child table's setting and a parent aperture that encloses it.

    One-sided children get directions w with |pi_H w| <= alpha, as the cover
    directions have, at alpha or alpha / 2 (a refinement pass), for alpha
    down to 1e-6; the parent sits at the child's ``reach`` (the smallest it
    may), at 2.5 alpha (the pipeline's theta0) or in between.  Two-sided
    children sit at or under the parent's aperture.  Around the first point
    of a lattice cloud, points are planted on both sides of the child's cone
    and, for horizontal tilt, of the parent's, at relative offsets of 1e-9
    and 1e-6, where the rounded tests decide.
    """
    cloud, subset, _, _, sr, alive, inner = draw(shell_cases())
    d, n = cloud.d, cloud.n
    alpha = draw(st.one_of(st.sampled_from([1e-6, 1e-3, 0.05, 0.3]),
                           st.floats(1e-6, 0.3)))
    horiz = np.array(draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n)))
    vert = np.array(draw(st.lists(st.floats(-1, 1), min_size=d - n, max_size=d - n)))
    vert = _unit(vert) if np.linalg.norm(vert) > 0.1 else np.eye(d - n)[-1]
    tilt = alpha * draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    lean = np.concatenate([_unit(horiz) if np.linalg.norm(horiz) > 0.1 else np.eye(n)[0],
                           np.zeros(d - n)])
    horiz = tilt * lean[:n]
    w = _unit(np.concatenate([horiz, np.sqrt(1.0 - tilt * tilt) * vert]))
    kind = draw(st.sampled_from(["alpha", "half", "two_sided"]))
    if kind == "two_sided":
        parent_aperture = draw(st.sampled_from([alpha, 2.5 * alpha, 0.6]))
        aperture = parent_aperture * draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
        direction, axis, reach = None, np.eye(d)[-1], aperture
    else:
        aperture = alpha if kind == "alpha" else alpha / 2.0
        direction, axis = w, w
        reach = ShellTable(cloud, [0], aperture, sr, w).reach
        parent_aperture = draw(st.sampled_from([reach, 2.5 * alpha, (reach + 2.5 * alpha) / 2]))
    # Off the axis towards w's horizontal part: the widest one for the parent.
    side = _unit(lean - (lean @ axis) * axis)
    base = cloud.coords[0]
    step = min(4.0 * cloud.delta_res, 1.0)
    planted = []
    for k, rel in enumerate((-1e-6, -1e-9, 0.0, 1e-9, 1e-6)):
        for ap in dict.fromkeys((aperture, parent_aperture)):
            s = min(ap * (1.0 + rel), 1.0)
            radius = step * (0.5 + 0.03 * len(planted))
            planted.append(base + radius * (np.sqrt(1.0 - s * s) * axis + s * side))
    coords = np.vstack([cloud.coords, planted])
    cloud = WeightedCloud(coords, np.ones(len(coords)), n=n, delta_res=cloud.delta_res,
                          check_separation=False)
    extra = np.arange(len(coords) - len(planted), len(coords))
    keep = np.array(draw(st.lists(st.booleans(), min_size=len(extra), max_size=len(extra))))
    outer_set = np.concatenate([subset, extra])
    inner_set = np.concatenate([subset[alive], extra[keep]])
    mask = np.array(draw(st.lists(st.booleans(), min_size=len(inner_set),
                                  max_size=len(inner_set))))
    return cloud, outer_set, inner_set, mask, sr, aperture, direction, parent_aperture


@settings(max_examples=300, deadline=None)
@given(enclosed_cases())
def test_parent_tables_equal_the_standalone_ones(case):
    cloud, outer_set, inner_set, mask, sr, aperture, direction, parent_aperture = case
    kd_parent = ShellTable(cloud, outer_set, parent_aperture, sr)
    every_parent = ShellTable(cloud, outer_set, parent_aperture, sr, oracle=True)
    alone = ShellTable(cloud, inner_set, aperture, sr, direction)
    every = ShellTable(cloud, inner_set, aperture, sr, direction, oracle=True)
    parents = [kd_parent, every_parent]
    if direction is not None:
        # One-sided parents along the child's direction: at its aperture (one of
        # them filtered from the two-sided parent, as a run's direction counts
        # are), at twice it (a refinement pass's entry table) and wider still.
        parents += [ShellTable(cloud, outer_set, aperture, sr, direction),
                    ShellTable(cloud, outer_set, aperture, sr, direction, parent=kd_parent)]
        parents += [ShellTable(cloud, outer_set, ap, sr, direction, oracle=True)
                    for ap in (2.0 * aperture, parent_aperture)]
    for parent in parents:
        child = ShellTable(cloud, inner_set, aperture, sr, direction, parent=parent)
        for other in (alone, every):
            for name in ("cols", "bits", "indptr"):
                assert np.array_equal(getattr(child, name), getattr(other, name))
    for alive in (np.ones(len(mask), dtype=bool), mask):
        assert_rows_match_oracle(cloud, child, alive)


@pytest.mark.parametrize("change", ["aperture", "scale_range", "subset", "subset_past_end",
                                    "one_sided", "one_sided_aperture",
                                    "one_sided_of_two_sided", "cloud", "two_sided_child"])
def test_a_parent_that_does_not_enclose_is_refused(change):
    cloud = WeightedCloud(np.array([[0.0, 0.0], [0.01, 0.5], [0.3, 1.0]]), np.ones(3),
                          n=1, delta_res=0.01)
    sr = ScaleRange.default_for(cloud)
    w = _unit(np.array([0.05, 1.0]))
    reach = ShellTable(cloud, [0, 1], 0.1, sr, w).reach
    child = dict(subset=[0, 1], aperture=0.1, direction=w)
    parent = dict(cloud=cloud, subset=[0, 1, 2], aperture=reach, scale_range=sr)
    ShellTable(cloud, child["subset"], 0.1, sr, w, parent=ShellTable(**parent))
    # A one-sided parent along the same direction, at the child's aperture.
    one_sided = dict(parent, aperture=0.1, direction=w)
    ShellTable(cloud, child["subset"], 0.1, sr, w, parent=ShellTable(**one_sided))
    if change == "aperture":
        parent["aperture"] = reach * (1.0 - 1e-12)
    elif change == "scale_range":
        parent["scale_range"] = ScaleRange(sr.j_min, sr.j_max + 1)
    elif change == "subset":
        parent["subset"] = [0, 2]
    elif change == "subset_past_end":  # the child's 1 lies past the parent's last index
        parent["subset"] = [0]
    elif change == "one_sided":  # along another direction: w moved by one ulp
        parent = dict(one_sided, direction=_unit(np.array([0.05 * (1.0 + 1e-15), 1.0])))
        assert not np.array_equal(parent["direction"], w)
    elif change == "one_sided_aperture":
        parent = dict(one_sided, aperture=0.1 * (1.0 - 1e-12))
    elif change == "one_sided_of_two_sided":
        parent = one_sided
        child.update(direction=None, aperture=0.05)
    elif change == "cloud":
        parent["cloud"] = WeightedCloud(cloud.coords, cloud.weights, n=1, delta_res=0.01)
    else:
        child.update(direction=None, aperture=reach * (1.0 + 1e-12))
    with pytest.raises(InputError, match="parent table"):
        ShellTable(cloud, child["subset"], child["aperture"], sr, child["direction"],
                   parent=ShellTable(**parent))


@st.composite
def standalone_cases(draw):
    """A table without a parent, along any direction, on a cloud far from the origin.

    w is a unit vector anywhere on the sphere, or a signed axis tilted by 1e-9
    or 1e-4, or absent (the two-sided cone around the vertical); d <= 4 and
    n < d; the aperture runs from 1e-6 to 0.9 and the cloud sits up to 1e7 from
    the origin.  Around its first point, points are planted on both sides of
    the cone's boundary (on either side of the apex when one-sided) at
    relative offsets of 1e-9 and 1e-6, where the rounded tests decide, some at
    the top shell radius, the edge of the search box.  Points far out along
    the cone's axis make the cloud up to 1e6 times wider than that radius,
    where the rounding of the search's frame is largest.  The subset may hold
    fewer than two points.
    """
    d = draw(st.integers(2, 4))
    n = draw(st.integers(1, d - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axis = np.eye(d)[draw(st.integers(0, d - 1))] * draw(st.sampled_from([1.0, -1.0]))
    kind = draw(st.sampled_from(["sphere", "axis", "two_sided"]))
    if kind == "sphere":
        direction = _unit(rng.standard_normal(d))
    elif kind == "axis":
        lean = rng.standard_normal(d)
        lean = _unit(lean - (lean @ axis) * axis)
        direction = _unit(axis + draw(st.sampled_from([0.0, 1e-9, 1e-4])) * lean)
    else:
        direction = None
    cone_axis = np.eye(d)[-1] if direction is None else direction
    side = rng.standard_normal(d)
    if direction is None:
        side[n:] = 0.0  # horizontal, the widest way off the vertical
    side = _unit(side - (side @ cone_axis) * cone_axis)
    aperture = draw(st.one_of(st.sampled_from([1e-6, 1e-3, 0.05, 0.5, 0.9]),
                              st.floats(1e-6, 0.9)))
    j_min = draw(st.integers(0, 6))
    top = 2.0 ** -j_min
    base = rng.uniform(0.0, top, d)
    planted = []
    for rel in (-1e-6, -1e-9, 0.0, 1e-9, 1e-6):
        s = min(aperture * (1.0 + rel), 1.0)
        for sign, radius in ((1.0, top), (-1.0, top), (1.0, 0.7 * top), (-1.0, 0.4 * top)):
            planted.append(base + radius * (sign * np.sqrt(1.0 - s * s) * cone_axis + s * side))
    far = draw(st.sampled_from([0.0, 1e3, 1e6])) * top * cone_axis
    coords = np.vstack([base, planted, base + far, base - far,
                        rng.uniform(0.0, top, (draw(st.integers(0, 8)), d))])
    offset = draw(st.one_of(st.sampled_from([0.0, 1.0, 1e3, 1e7]), st.floats(0.0, 1e7)))
    coords = coords + offset * _unit(rng.standard_normal(d))
    cloud = WeightedCloud(coords, np.ones(len(coords)), n=n, delta_res=top / 256.0,
                          check_separation=False)
    keep = np.array(draw(st.lists(st.booleans(), min_size=len(coords), max_size=len(coords))))
    return cloud, np.flatnonzero(keep), aperture, direction, ScaleRange(j_min, j_min + 6)


@settings(max_examples=300, deadline=None)
@given(standalone_cases())
def test_standalone_tables_equal_the_all_pairs_ones(case):
    cloud, subset, aperture, direction, sr = case
    alone = ShellTable(cloud, subset, aperture, sr, direction)
    every = ShellTable(cloud, subset, aperture, sr, direction, oracle=True)
    for name in ("cols", "bits", "indptr"):
        assert np.array_equal(getattr(alone, name), getattr(every, name))


def test_tilted_standalone_work_is_output_sensitive(monkeypatch):
    # Along w = (1, 0) at aperture 0.01 a standalone table searches the thin
    # cone around w's line, so the predicate sees a few percent of the ordered
    # pairs of 2,000 points spread over the unit square, not all of them.
    rows = []
    exact = shells.cone_shells

    def recorded(delta, *args, **kwargs):
        rows.append(len(delta))
        return exact(delta, *args, **kwargs)

    rng = np.random.default_rng(5)
    cloud = WeightedCloud(rng.uniform(0.0, 1.0, (2000, 2)), np.ones(2000), n=1,
                          delta_res=1e-4)
    args = (cloud, cloud.all_indices(), 0.01, ScaleRange.default_for(cloud),
            np.array([1.0, 0.0]))
    monkeypatch.setattr(shells, "cone_shells", recorded)
    table = ShellTable(*args)
    assert sum(rows) < 0.1 * 2000 * 1999
    monkeypatch.undo()
    every = ShellTable(*args, oracle=True)
    for name in ("cols", "bits", "indptr"):
        assert np.array_equal(getattr(table, name), getattr(every, name))
    assert table.indptr[-1] > 0


@st.composite
def incidence_cases(draw):
    """Cover-like directions in the alpha-cone and a cloud planted on their rims.

    d <= 4 and n < d; alpha runs down to 1e-6, and each direction u leans
    towards the horizontal by up to alpha.  Around the first point, points sit
    along each u at angles whose sines are alpha (1 + rel), rel from -1e-6 to
    1e-6 and at 1/2 and 2, where the rounded one-sided test decides.  The root
    is two-sided at the directions' least parent aperture (their ``reach``) or
    at 2.5 alpha, over a superset of the subset that the pass reads.
    """
    d = draw(st.integers(2, 4))
    n = draw(st.integers(1, d - 1))
    alpha = draw(st.one_of(st.sampled_from([1e-6, 1e-3, 0.05, 0.1]), st.floats(1e-6, 0.1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    directions, planted = [], []
    base = rng.uniform(-1.0, 1.0, d)
    for _ in range(draw(st.integers(1, 5))):
        vert = _unit(rng.normal(size=d - n))
        horiz = _unit(rng.normal(size=n))
        tilt = alpha * draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
        u = _unit(np.concatenate([tilt * horiz, np.sqrt(1.0 - tilt * tilt) * vert]))
        directions.append(u)
        side = rng.normal(size=d)
        side = _unit(side - (side @ u) * u)
        for rel in draw(st.lists(st.sampled_from([-0.5, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1.0]),
                                 min_size=1, max_size=3)):
            s = alpha * (1.0 + rel)
            radius = 2.0 ** -rng.uniform(0.5, 5.0)
            planted.append(base + radius * (np.sqrt(1.0 - s * s) * u + s * side))
    coords = np.vstack([base, planted, rng.uniform(-1.0, 1.0, (draw(st.integers(0, 8)), d))])
    cloud = WeightedCloud(coords, np.ones(len(coords)), n=n, delta_res=2.0 ** -7,
                          check_separation=False)
    directions = np.array(directions)
    outer = np.flatnonzero(rng.random(len(coords)) < 0.9)
    inner = outer[rng.random(len(outer)) < 0.8]
    reach = shells._reach_of(directions, alpha, n)
    assert reach == max(ShellTable(cloud, [0], alpha, ScaleRange.default_for(cloud), u).reach
                        for u in directions)
    root_aperture = draw(st.sampled_from([reach, 2.5 * alpha]))
    return cloud, outer, inner, directions, alpha, root_aperture


@settings(max_examples=200, deadline=None)
@given(incidence_cases())
def test_directions_the_incidence_pass_skips_have_no_visits(case):
    cloud, outer, inner, directions, alpha, root_aperture = case
    sr = ScaleRange.default_for(cloud)
    root = ShellTable(cloud, outer, root_aperture, sr)
    reached = shells.visited_directions(root, inner, directions, alpha)
    for u, hit in zip(directions, reached):
        counts = ShellTable(cloud, inner, alpha, sr, u, oracle=True).visits().counts
        assert hit or not counts.any()


def test_the_incidence_pass_refuses_a_root_that_does_not_enclose():
    cloud = WeightedCloud(np.array([[0.0, 0.0], [0.01, 0.5], [0.3, 1.0]]), np.ones(3),
                          n=1, delta_res=0.01)
    sr = ScaleRange.default_for(cloud)
    w = np.array([[0.0, 1.0], _unit(np.array([0.05, 1.0]))])
    reach = shells._reach_of(w, 0.1, 1)
    root = ShellTable(cloud, [0, 1, 2], reach, sr)
    assert shells.visited_directions(root, [0, 1], w, 0.1).tolist() == [True, True]
    for table, subset in ((ShellTable(cloud, [0, 1, 2], reach * (1.0 - 1e-12), sr), [0, 1]),
                          (ShellTable(cloud, [0, 1, 2], reach, sr, w[0]), [0, 1])):
        with pytest.raises(InputError, match="the table must"):
            shells.visited_directions(table, subset, w, 0.1)
