import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphcarve import (
    GraphModel,
    InputError,
    NotAGraphError,
    WeightedCloud,
    certify_graph,
    containment_report,
    extend_mcshane,
    lipschitz_graph,
    visitation_counts,
)
from tests.conftest import line_cloud
from tests.extract_reference import certify_graph_loop, extend_mcshane_loop


def two_point_model():
    return GraphModel(n=1, sample_base=np.array([[0.0], [1.0]]),
                      sample_values=np.array([[0.0], [1.0]]),
                      lipschitz=1.0, theta=0.5)


class TestCertify:
    def test_flat_set_has_zero_slope(self):
        cloud = line_cloud(50, 0.02)
        model = certify_graph(cloud, theta=0.5)
        assert model.lipschitz == 0.0

    def test_single_pair_ratio(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.3]])
        cloud = WeightedCloud(coords, np.ones(2), n=1, delta_res=0.1)
        model = certify_graph(cloud, theta=0.5)
        assert model.lipschitz == pytest.approx(0.3)

    def test_absolute_value_graph_slope(self):
        # Oracle: direct pairwise maximum of |dv| / |dt| over the sample.
        t = np.linspace(-1, 1, 101)
        coords = np.column_stack([t, 0.3 * np.abs(t)])
        cloud = WeightedCloud(coords, np.ones(101), n=1, delta_res=0.02)
        dt = t[:, None] - t[None, :]
        dv = coords[:, 1][:, None] - coords[:, 1][None, :]
        mask = dt != 0
        oracle = np.abs(dv[mask] / dt[mask]).max()
        model = certify_graph(cloud, theta=0.5)
        assert model.lipschitz == pytest.approx(oracle, abs=1e-12)
        assert model.lipschitz == pytest.approx(0.3, abs=1e-9)

    def test_vertical_pair_rejected_with_witness(self):
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [0.5, 0.1]])
        cloud = WeightedCloud(coords, np.ones(3), n=1, delta_res=0.1)
        with pytest.raises(NotAGraphError) as err:
            certify_graph(cloud, theta=0.3)
        assert set(err.value.witness) == {0, 1}

    def test_slope_bounded_by_aperture(self):
        cloud = lipschitz_graph(200, 0.3, seed=5)
        theta = 0.5
        model = certify_graph(cloud, theta=theta)
        assert model.lipschitz <= np.sqrt(1 - theta**2) / theta + 1e-9

    def test_agrees_with_visit_audit(self):
        # Whenever the two-sided audit reports zero visits at theta, the
        # pairwise certificate must succeed (pairs are resolution-separated).
        cloud = lipschitz_graph(150, 0.25, seed=7)
        theta = 0.4
        assert visitation_counts(cloud, cloud.all_indices(), theta).max_count == 0
        model = certify_graph(cloud, theta=theta)
        assert model.lipschitz <= np.sqrt(1 - theta**2) / theta


class TestMcShane:
    def test_hand_evaluated_envelopes(self):
        # Upper envelope at 2: min(0 + 2, 1 + 1) = 2; lower: max(0 - 2, 1 - 1)
        # = 0; midpoint 1.
        model = two_point_model()
        assert extend_mcshane(model, np.array([2.0]))[0] == pytest.approx(1.0)

    def test_exact_at_sample_sites(self):
        model = two_point_model()
        assert extend_mcshane(model, np.array([0.0]))[0] == 0.0
        assert extend_mcshane(model, np.array([1.0]))[0] == 1.0

    @pytest.mark.parametrize("base, queries, expected", [
        # Sites 1.0 twice and -0.0 beside 0.0; 0.5 is no site: with slope 0 its
        # envelopes are the least and largest values, (10 + 60) / 2.
        ([[0.0], [-0.0], [1.0], [2.0], [1.0]], [[-0.0], [0.0], [1.0], [0.5], [2.0]],
         [20.0, 10.0, 60.0, 35.0, 40.0]),
        ([[0.0, -0.0], [0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [5.0, 5.0]],
         [[0.0, -0.0], [0.0, 0.0], [-0.0, 0.0], [-0.0, -0.0]], [40.0, 20.0, 30.0, 35.0]),
    ], ids=["n1", "n2"])
    def test_duplicate_and_signed_zero_sites(self, base, queries, expected):
        # A query takes the value of the last sample row with its bits, so
        # -0.0 and 0.0 are different sites.
        values = [[10.0], [20.0], [30.0], [40.0], [60.0]][:len(base)]
        model = GraphModel(n=len(base[0]), sample_base=np.array(base),
                           sample_values=np.array(values), lipschitz=0.0, theta=0.5)
        got = extend_mcshane(model, np.array(queries))
        assert got[:, 0].tolist() == expected
        assert got.tobytes() == extend_mcshane_loop(model, np.array(queries)).tobytes()

    def test_constant_samples_extend_constantly(self, rng):
        base = rng.uniform(-1, 1, (20, 2))
        model = GraphModel(n=2, sample_base=base,
                           sample_values=np.full((20, 1), 0.7),
                           lipschitz=0.0, theta=0.3)
        queries = rng.uniform(-3, 3, (50, 2))
        assert np.allclose(extend_mcshane(model, queries), 0.7)

    def test_envelope_ordering(self, rng):
        cloud = lipschitz_graph(80, 0.4, d=3, n=1, seed=3)
        model = certify_graph(cloud, theta=0.3)
        queries = rng.uniform(-0.5, 1.5, (200, 1))
        dist = np.abs(queries - model.sample_base[:, 0][None, :])
        for q in range(model.sample_values.shape[1]):
            upper = (model.sample_values[:, q][None, :]
                     + model.lipschitz * dist).min(axis=1)
            lower = (model.sample_values[:, q][None, :]
                     - model.lipschitz * dist).max(axis=1)
            mid = extend_mcshane(model, queries)[:, q]
            assert np.all(lower <= mid + 1e-12)
            assert np.all(mid <= upper + 1e-12)

    def test_lipschitz_bound_on_random_pairs(self, rng):
        cloud = lipschitz_graph(100, 0.5, d=4, n=2, seed=9)
        model = certify_graph(cloud, theta=0.2)
        q = rng.uniform(-1, 2, (2000, 2))
        p = rng.uniform(-1, 2, (2000, 2))
        fq = extend_mcshane(model, q)
        fp = extend_mcshane(model, p)
        gaps = np.linalg.norm(fq - fp, axis=1)
        dists = np.linalg.norm(q - p, axis=1)
        budget = model.inflated_lipschitz
        assert np.all(gaps <= budget * dists + 1e-9)

    def test_empty_model_rejected(self):
        model = GraphModel(n=1, sample_base=np.empty((0, 1)),
                           sample_values=np.empty((0, 1)), lipschitz=1.0,
                           theta=0.5)
        with pytest.raises(InputError):
            extend_mcshane(model, np.array([0.0]))


class TestContainment:
    def test_certified_set_fully_contained(self):
        cloud = lipschitz_graph(120, 0.3, seed=2)
        model = certify_graph(cloud, theta=0.4)
        report = containment_report(cloud, model, tol=cloud.delta_res)
        assert report.fraction == 1.0

    def test_outliers_excluded(self):
        cloud = line_cloud(60, 0.01, extra=[[0.2, 2.0], [0.7, 3.0]])
        base_model = certify_graph(cloud, subset=np.arange(60), theta=0.5)
        report = containment_report(cloud, base_model, tol=0.05)
        expected = cloud.mass(np.arange(60)) / cloud.mass()
        assert report.fraction == pytest.approx(expected)

    def test_zero_tolerance_counts_exact_sites(self):
        cloud = line_cloud(30, 0.02)
        model = certify_graph(cloud, theta=0.5)
        report = containment_report(cloud, model, tol=0.0)
        assert report.fraction == 1.0  # flat samples sit on the graph exactly

    def test_default_tolerance(self):
        cloud = line_cloud(10, 0.05)
        model = certify_graph(cloud, theta=0.5)
        report = containment_report(cloud, model)
        assert report.tolerance == pytest.approx(2 * cloud.delta_res)


@pytest.mark.parametrize("subset", [[0, 0], [-1], [0, 99]], ids=["repeat", "negative", "past_end"])
@pytest.mark.parametrize("call", ["certify", "containment"])
def test_bad_subsets_are_input_errors(call, subset):
    # A repeated point would count twice, -1 would wrap to the last point and
    # 99 would fall off a 50-point cloud: each names the subset instead.
    cloud = lipschitz_graph(50, 0.3, seed=2)
    model = certify_graph(cloud, theta=0.4)
    with pytest.raises(InputError, match="distinct indices of cloud points"):
        if call == "certify":
            certify_graph(cloud, subset, theta=0.4)
        else:
            containment_report(cloud, model, subset=subset)


class TestAgainstReference:
    @given(n=st.integers(1, 2), codim=st.integers(1, 2), sites=st.integers(1, 300),
           site_queries=st.integers(0, 400), other_queries=st.integers(0, 400),
           seed=st.integers(0, 2**32 - 1))
    def test_extend_mcshane_matches_full_envelope(self, n, codim, sites, site_queries,
                                                  other_queries, seed):
        # Site queries (repeated ones among them) and off-site queries,
        # shuffled, and a single 1-D query of each kind: answering the sites
        # first leaves every row's value bit for bit.
        rng = np.random.default_rng(seed)
        base = rng.uniform(-1.0, 1.0, (sites, n))
        model = GraphModel(n=n, sample_base=base,
                           sample_values=rng.standard_normal((sites, codim)),
                           lipschitz=float(rng.uniform(0.0, 3.0)), theta=0.3)
        queries = np.concatenate([base[rng.integers(0, sites, site_queries)],
                                  rng.uniform(-1.5, 1.5, (other_queries, n))])
        queries = queries[rng.permutation(len(queries))]
        for q in (queries, base[sites // 2], rng.uniform(-1.5, 1.5, n)):
            got, want = extend_mcshane(model, q), extend_mcshane_loop(model, q)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @given(size=st.integers(513, 800), subset=st.booleans(), theta=st.sampled_from([0.3, 0.5]),
           planted=st.lists(st.tuples(st.integers(0, 799), st.sampled_from([1, 7, 300, 600])),
                            max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_certify_graph_matches_all_columns(self, size, subset, theta, planted, seed):
        # A gentle graph over more than two blocks of rows, in the order of
        # its horizontal coordinate, with steep pairs (a, a + gap) planted
        # inside blocks (gap 1, 7) and across them (300, 600): the same slope
        # bits, or the same witness and message.
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0.0, 10.0, size))
        coords = np.column_stack([t, 0.3 * np.sin(t), 0.2 * np.cos(2.0 * t)])
        for a, gap in planted:
            a %= size
            coords[(a + gap) % size] = coords[a] + [1e-4, 0.05, -0.02]
        cloud = WeightedCloud(coords, np.ones(size), n=1, delta_res=1e-3,
                              check_separation=False)
        rows = rng.permutation(size)[:int(rng.integers(513, size + 1))] if subset else None

        def outcome(slope):
            try:
                return np.float64(slope(cloud, rows, theta)).tobytes()
            except NotAGraphError as exc:
                return exc.witness, str(exc)

        assert (outcome(lambda *args: certify_graph(*args).lipschitz)
                == outcome(certify_graph_loop))
