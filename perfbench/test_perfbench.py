"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

import run
import solve_one
from layer_trace import LayerTrace
from workloads import WORKLOADS, make_cloud

TINY = {"label": "-", "why": "test-sized union_of_graphs; refinement runs",
        "generator": "union_of_graphs", "params": {"n_points": 200},
        "config": {"seed": 4}, "default_seed": 2}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(WORKLOADS, "tiny", TINY)
    return "tiny"


def _graphcarve_bindings() -> dict:
    from graphcarve.cloud import GridIndex, WeightedCloud

    out = {(name, key): value for name, module in sys.modules.items()
           if name == "graphcarve" or name.startswith("graphcarve.")
           for key, value in vars(module).items() if callable(value)}
    out["GridIndex.ball"] = GridIndex.ball
    out["WeightedCloud.__init__"] = WeightedCloud.__init__
    return out


def test_traced_report_matches_untraced(tiny, tmp_path):
    plain = solve_one.solve(tiny, 2)
    traced = solve_one.solve(tiny, 2, str(tmp_path / "spans.json"))
    assert traced["digest"] == plain["digest"]
    layers = traced["layers"]
    assert layers["refine.once.calls"] > 0
    assert layers["audit.visitation.one_sided.calls"] > 0
    assert layers["cloud.grid_ball.calls"] > 0
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert spans[0]["name"] == "pipeline" and spans[0]["parent"] is None
    assert all({"name", "start", "end", "parent", "run"} <= set(s) for s in spans)


def test_wrappers_restored_after_trace(tiny):
    graphcarve = solve_one.import_graphcarve()
    before = _graphcarve_bindings()
    with LayerTrace("restore-check"):
        # Imported into several modules, so every binding must be the same wrapper.
        assert graphcarve.refine.ball_masses is graphcarve.measure.ball_masses
        assert graphcarve.measure.ball_masses is not before[("graphcarve.measure", "ball_masses")]
        assert graphcarve.pipeline.prune_low_density is graphcarve.refine.prune_low_density
        assert graphcarve.cloud.GridIndex.ball is not before["GridIndex.ball"]
    assert _graphcarve_bindings() == before


def test_self_times_subtract_direct_children():
    trace = LayerTrace("synthetic")
    trace.spans = [
        {"name": "pipeline", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "refine.schedule", "parent": 0, "start": 1.0, "end": 7.0},
        {"name": "refine.once", "parent": 1, "start": 2.0, "end": 6.0},
        {"name": "measure.ball_masses", "parent": 2, "start": 3.0, "end": 4.0},
    ]
    assert trace.self_times() == [4.0, 2.0, 3.0, 1.0]


def test_seed_changes_cloud():
    graphcarve = solve_one.import_graphcarve()
    for spec in WORKLOADS.values():
        a = make_cloud(graphcarve, spec, 1)
        assert np.array_equal(a.coords, make_cloud(graphcarve, spec, 1).coords)
        assert not np.array_equal(a.coords, make_cloud(graphcarve, spec, 2).coords)


def test_failed_solves_are_counted_not_dropped():
    good = {"digest": "a" * 64, "masses": {"e1": 1.0, "e_prime": 1.0, "e": 0.9, "e2": 0.9,
                                          "e3": 0.5},
            "lipschitz": 0.3, "lipschitz_bound": 0.5, "total_applications": 0}
    wrong_digest = dict(good, digest="b" * 64)
    bad_masses = dict(good, masses=dict(good["masses"], e3=0.95))
    crashed = {"error": "exit 3"}
    verdicts = run.check_solves([good, wrong_digest, bad_masses, crashed, good], None)
    assert [v is None for v in verdicts] == [True, False, False, False, True]
    assert run.check_solves([good], "c" * 64)[0] is not None


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(trace, kind):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared[kind]}
    assert all(m["better"] in ("lower", "higher") for m in declared[kind])
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "graph_large",
         "--seed", "11", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    assert printed == set(units)
