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
