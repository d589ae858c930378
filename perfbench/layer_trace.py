"""Per-layer tracing of graphcarve from outside the program.

``LayerTrace`` wraps the public functions each layer exposes and records one
span per call: name, start, end, parent span and run id.  Functions are
wrapped by identity: every ``graphcarve.*`` module attribute that *is* the
original function is rebound, because ``visitation_counts``, ``ball_masses``
and ``prune_low_density`` are imported into several modules.  ``GridIndex.ball``
and ``WeightedCloud.__init__`` run tens of thousands of times per solve, so
they get counters on the class instead of spans.  Spans stay in memory until
the trace ends; self times (duration minus the time covered by child spans)
are derived from them afterwards.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import time
from collections import defaultdict

# (module, function) -> span name; the metric prefix of the layer.
SPAN_TARGETS = {
    ("graphcarve.pipeline", "run_pipeline"): "pipeline",
    ("graphcarve.measure", "ball_masses"): "measure.ball_masses",
    ("graphcarve.measure", "prune_low_density"): "measure.prune",
    ("graphcarve.measure", "projection_energy"): "measure.energy",
    ("graphcarve.audit", "visitation_counts"): "audit.visitation",
    ("graphcarve.cover", "build_cover_for_theta"): "cover.build_for_theta",
    ("graphcarve.cover", "build_cover"): "cover.build",
    ("graphcarve.refine", "refine_schedule"): "refine.schedule",
    ("graphcarve.refine", "refine_once"): "refine.once",
    ("graphcarve.extract", "certify_graph"): "extract.certify",
    ("graphcarve.extract", "extend_mcshane"): "extract.extend",
    ("graphcarve.extract", "containment_report"): "extract.containment",
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _size(cloud, indices) -> int:
    return len(cloud) if indices is None else len(indices)


def _span_name(name: str, args: dict) -> str:
    if name != "audit.visitation":
        return name
    if args["oracle"]:
        return "audit.visitation.oracle"
    if args["direction"] is None:
        return "audit.visitation.two_sided"
    return "audit.visitation.one_sided"


def _work(name: str, args: dict, result) -> dict:
    """Work counts of one call, from its argument sizes and its result."""
    if name == "measure.ball_masses":
        return {"pairs": _size(args["cloud"], args["points"])
                * _size(args["cloud"], args["carrier"]) * len(args["radii"])}
    if name == "measure.prune":
        return {"sweeps": result.sweeps}
    if name.startswith("audit.visitation."):
        return {"vertices": len(args["subset"])}
    if name == "refine.once":
        return {"iterations": result.iterations}
    if name == "extract.certify":
        size = _size(args["cloud"], args["subset"])
        return {"pairs": size * size}
    if name == "extract.extend":
        queries = args["queries"]
        n_queries = 1 if getattr(queries, "ndim", 2) == 1 else len(queries)
        return {"pairs": n_queries * len(args["model"].sample_base)}
    return {}


class LayerTrace:
    """Install with ``with LayerTrace(run_id) as trace:``; originals return on exit."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTrace":
        from graphcarve.cloud import GridIndex, WeightedCloud

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "graphcarve" or name.startswith("graphcarve."))]
        for (module_name, attr), name in SPAN_TARGETS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._span_wrapper(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
        self._rebind(GridIndex, "ball", self._ball_counter(GridIndex.ball))
        self._rebind(WeightedCloud, "__init__", self._init_counter(WeightedCloud.__init__))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def _rebind(self, owner, key: str, replacement) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, replacement)

    def _span_wrapper(self, fn, name: str):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span = {"name": _span_name(name, bound.arguments), "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None,
                    "maxrss_start_mb": _maxrss_mb()}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["maxrss_end_mb"] = _maxrss_mb()
                self._stack.pop()
            span.update(_work(span["name"], bound.arguments, result))
            return result

        return wrapper

    def _ball_counter(self, ball):
        import numpy as np

        counters = self.counters

        @functools.wraps(ball)
        def counted(grid, center, radius, strict=False):
            counters["cloud.grid_ball.calls"] += 1
            n_pts = len(grid.coords)
            if n_pts and radius >= 0:
                center_arr = np.asarray(center, dtype=float)
                lo = np.floor((center_arr - radius) / grid.cell)
                hi = np.floor((center_arr + radius) / grid.cell)
                if float(np.prod(hi - lo + 1)) > n_pts:
                    counters["cloud.grid_ball.full_scans"] += 1
            return ball(grid, center, radius, strict)

        return counted

    def _init_counter(self, init):
        counters = self.counters

        @functools.wraps(init)
        def counted(cloud, *args, **kwargs):
            start = time.perf_counter()
            try:
                init(cloud, *args, **kwargs)
            finally:
                counters["cloud.init.calls"] += 1
                counters["cloud.init.s"] += time.perf_counter() - start

        return counted

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer sums over the recorded spans plus the class counters."""
        m: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            name = span["name"]
            m[name + ".calls"] += 1
            m[name + ".s"] += own
            for key in ("pairs", "sweeps", "vertices", "iterations"):
                if key in span:
                    m[f"{name}.{key}"] += span[key]
            if name == "cover.build_for_theta":
                m["cover.rss_growth_mb"] += span["maxrss_end_mb"] - span["maxrss_start_mb"]
        calls = self.counters["cloud.grid_ball.calls"]
        out = {
            "pipeline.self_s": m["pipeline.s"],
            "measure.ball_masses.calls": m["measure.ball_masses.calls"],
            "measure.ball_masses.s": m["measure.ball_masses.s"],
            "measure.ball_masses.pairs": m["measure.ball_masses.pairs"],
            "measure.prune.calls": m["measure.prune.calls"],
            "measure.prune.sweeps": m["measure.prune.sweeps"],
            "measure.prune.s": m["measure.prune.s"],
            "measure.energy.s": m["measure.energy.s"],
            "cloud.grid_ball.calls": calls,
            "cloud.grid_ball.full_scan_frac":
                self.counters["cloud.grid_ball.full_scans"] / calls if calls else 0.0,
            "cloud.init.calls": self.counters["cloud.init.calls"],
            "cloud.init.s": self.counters["cloud.init.s"],
            "cover.build.s": m["cover.build.s"] + m["cover.build_for_theta.s"],
            "cover.build.rounds": m["cover.build.calls"],
            "cover.rss_growth_mb": m["cover.rss_growth_mb"],
            "refine.schedule.s": m["refine.schedule.s"],
            "refine.once.calls": m["refine.once.calls"],
            "refine.once.s": m["refine.once.s"],
            "refine.iterations": m["refine.once.iterations"],
            "extract.certify.s": m["extract.certify.s"],
            "extract.certify.pairs": m["extract.certify.pairs"],
            "extract.extend.s": m["extract.extend.s"],
            "extract.extend.pairs": m["extract.extend.pairs"],
            "extract.containment.s": m["extract.containment.s"],
            "audit.visitation.oracle.s": m["audit.visitation.oracle.s"],
        }
        for mode in ("two_sided", "one_sided"):
            for key in ("calls", "vertices", "s"):
                out[f"audit.visitation.{mode}.{key}"] = m[f"audit.visitation.{mode}.{key}"]
        return out
