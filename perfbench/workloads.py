"""The benchmark's workloads.

Each workload is a closed-loop batch solve: one ``run_pipeline`` call per
fresh process, with one client waiting for each result, and the generated
cloud as the program's only input.  ``--seed`` selects the generator seed; the
pipeline configuration is fixed per workload.  ``label`` is the workload's
name in ROADMAP.md (W1..W5).

The sizes keep one solve, set-up included, under about 8 s on a 2-core box,
so a 30 s run holds several solves and its median is steady.
"""

from __future__ import annotations

WORKLOADS = {
    "graph_large": {
        "label": "W1",
        "why": ("dense O(N^2) kernels dominate: prune, visit removal and extract; "
                "m0 = 0 so cover and refine are almost idle"),
        "generator": "outlier_stacks",
        "params": {"n_base": 2000},
        "config": {"seed": 4},
        "default_seed": 11,
    },
    "union_refine": {
        "label": "W3",
        "why": ("the only generator where refinement deletes mass (m0 = 1); "
                "one-sided visit counts on shrinking sets"),
        "generator": "union_of_graphs",
        "params": {"n_points": 800},
        "config": {"seed": 4},
        "default_seed": 2,
    },
    "codim2_cover": {
        "label": "W4",
        "why": ("the direction cover takes most of the run (m = 1471) and sets "
                "peak memory; the only d = 3 path"),
        "generator": "lipschitz_graph",
        "params": {"n_points": 300, "lip": 0.3, "d": 3, "n": 1},
        "config": {"seed": 0},
        "default_seed": 0,
    },
}


def make_cloud(graphcarve, spec: dict, seed: int):
    """The workload's input cloud for ``seed``."""
    return getattr(graphcarve, spec["generator"])(seed=seed, **spec["params"])
