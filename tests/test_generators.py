import numpy as np
import pytest

from graphcarve import (
    InputError,
    certify_graph,
    four_corner_cantor,
    generate,
    hrycak_like,
    lipschitz_graph,
    outlier_stacks,
    union_of_graphs,
)


class TestLipschitzGraph:
    def test_flat_is_collinear_unit_mass(self):
        cloud = lipschitz_graph(100, 0.0, seed=0)
        assert np.allclose(cloud.coords[:, 1], 0.0)
        assert cloud.mass() == pytest.approx(1.0)

    def test_slope_respects_budget(self):
        cloud = lipschitz_graph(300, 0.3, seed=1)
        model = certify_graph(cloud, theta=0.5)
        assert model.lipschitz <= 0.3 + 1e-9

    def test_higher_dimensions(self):
        curve = lipschitz_graph(150, 0.4, d=3, n=1, seed=2)
        assert curve.d == 3 and curve.n == 1
        surf = lipschitz_graph(150, 0.4, d=3, n=2, seed=3)
        assert surf.d == 3 and surf.n == 2
        model = certify_graph(surf, theta=0.3)
        assert model.lipschitz <= 0.4 + 1e-9

    @pytest.mark.parametrize("kwargs", [{"d": 1}, {"n": 2, "d": 2}, {"n": 0},
                                        {"lip": -1.0}, {"lip": float("nan")}],
                             ids=["d1", "n_equals_d", "n0", "negative_lip", "nan_lip"])
    def test_axis_and_slope_out_of_range_raise(self, kwargs):
        # n must lie in 1 .. d - 1 and lip must be non-negative; the error
        # names the values that were passed.
        args = {"n": 1, "d": 2, "lip": 0.3, **kwargs}
        named = f"n = {args['n']}, d = {args['d']}, lip = {args['lip']}"
        with pytest.raises(InputError, match=named):
            lipschitz_graph(50, **kwargs)

    def test_deterministic(self):
        a = lipschitz_graph(50, 0.2, seed=7)
        b = lipschitz_graph(50, 0.2, seed=7)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.weights, b.weights)


class TestFourCornerCantor:
    def test_depth_one_corners(self):
        cloud = four_corner_cantor(1)
        want = {(0.0, 0.0), (0.75, 0.0), (0.0, 0.75), (0.75, 0.75)}
        got = {tuple(row) for row in cloud.coords}
        assert got == want
        assert np.allclose(cloud.weights, 0.25)

    def test_depth_six_census(self):
        cloud = four_corner_cantor(6)
        assert len(cloud) == 4096
        assert cloud.mass() == pytest.approx(1.0)
        assert cloud.delta_res == pytest.approx(3 * 4.0**-6)

    def test_depth_validation(self):
        with pytest.raises(InputError):
            four_corner_cantor(0)


class TestOutlierStacks:
    def test_mass_fraction(self):
        cloud = outlier_stacks(n_base=500, n_stacks=5, points_per_stack=8,
                               mass_fraction=0.1, seed=4)
        stack_mass = cloud.weights[500:].sum()
        assert stack_mass / cloud.mass() == pytest.approx(0.1, rel=1e-9)

    def test_unit_weight_mode(self):
        cloud = outlier_stacks(n_base=50, n_stacks=2, points_per_stack=3,
                               unit_weights=True, seed=5)
        assert np.all(cloud.weights == 1.0)
        assert len(cloud) == 56

    def test_deterministic(self):
        a = outlier_stacks(n_base=60, seed=6, n_stacks=2, points_per_stack=4)
        b = outlier_stacks(n_base=60, seed=6, n_stacks=2, points_per_stack=4)
        assert np.array_equal(a.coords, b.coords)


class TestOtherKinds:
    def test_union_of_graphs_slabs_disjoint(self):
        cloud = union_of_graphs(200, seed=7)
        assert cloud.mass() == pytest.approx(1.0, rel=0.1)
        assert len(cloud) >= 198

    def test_hrycak_like_points_and_mass(self):
        cloud = hrycak_like(depth=2, seed=8)
        assert len(cloud) == 4 * 4 * 8
        # rotations preserve total length, so mass stays near 1
        assert 0.9 <= cloud.mass() <= 1.1

    def test_hrycak_like_point_budget(self):
        # depth 12 would ask for 4^12 * 8, about 134M points: refused before
        # any segment is built.  Depth 6 (32,768 points) is the deepest taken.
        with pytest.raises(InputError, match="65536 points"):
            hrycak_like(depth=12)
        with pytest.raises(InputError, match="65536 points"):
            generate("hrycak_like", {"depth": "1000000000", "pieces": "3"})
        assert len(hrycak_like(depth=6)) == 4**6 * 8

    def test_dispatch(self):
        cloud = generate("four_corner_cantor", {"depth": 2})
        assert len(cloud) == 16
        with pytest.raises(InputError):
            generate("sierpinski", {})

    def test_dispatch_passes_seed_and_params(self):
        a = generate("lipschitz_graph", {"n_points": 40, "lip": 0.2}, seed=9)
        b = lipschitz_graph(40, 0.2, seed=9)
        assert np.array_equal(a.coords, b.coords)

    @pytest.mark.parametrize("kind, params", [("lipschitz_graph", {"bogus": 1}),
                                              ("lipschitz_graph", {"seed": 3}),
                                              ("four_corner_cantor", {"seed": 3})])
    def test_dispatch_names_an_unknown_parameter(self, kind, params):
        with pytest.raises(InputError, match=repr(next(iter(params)))):
            generate(kind, params)
