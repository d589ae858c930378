"""graphcarve: cone-visitation diagnostics and Lipschitz-graph carving."""

from .audit import VisitationReport, bad_set, visitation_counts
from .cloud import ScaleRange, WeightedCloud
from .cloud_io import (
    load_cloud,
    load_cloud_csv,
    load_cloud_json,
    save_cloud_csv,
    save_cloud_json,
)
from .cover import DirectionCover, build_cover, build_cover_for_theta
from .errors import (
    AlgorithmInvariantViolation,
    ConstructionInfeasibleError,
    CoverInvalidError,
    DegenerateFrameError,
    GraphCarveError,
    InfeasibleBallError,
    InputError,
    NotAGraphError,
    RefinementCollapsedError,
    ResolutionExhaustedError,
)
from .extract import ContainmentReport, GraphModel, certify_graph, containment_report, extend_mcshane
from .generators import (
    four_corner_cantor,
    generate,
    hrycak_like,
    lipschitz_graph,
    outlier_stacks,
    union_of_graphs,
)
from .geometry import Subspace, grassmann_distance
from .grassmannian import (
    GrassmannSampler,
    alpha0_max,
    construct_v0,
    measure_lower_bound_mc,
)
from .measure import (
    AdrReport,
    PruneResult,
    Pushforward,
    adr_check,
    projection_energy,
    prune_low_density,
    pushforward_density,
)
from .pipeline import (
    PipelineConfig,
    PipelineReport,
    emit_plots,
    normalize_to_unit_ball,
    run_pipeline,
)
from .refine import RefineConfig, RefinementOutcome, refine_once, refine_schedule

__version__ = "0.1.0"
