"""Node-differentially-private estimation for random-graph models.

Labeled graphs under the vertex-rewiring metric, step-graphon samplers, the
private block-model estimator, improved edge-density estimators built on a
homogeneity set plus a generic DP extension operator, and an audit harness
that certifies privacy exhaustively at tiny scale.
"""

from .errors import ResourceLimitError
from .graphs import (
    LabeledGraph,
    adjacent_graphs,
    all_graphs,
    degree_cap,
    edge_density,
    graph_from_index,
    graph_index,
    node_distance,
)
from .graphons import (
    BlockMatrix,
    StepGraphon,
    WRandomSample,
    delta2_hat_blocks,
    equipartition_count,
    normalized_l2,
    rewired_model_pmf,
    sample_gnm,
    sample_gnm_rewired,
    sample_gnm_rewired_coupled,
    sample_gnp,
    sample_w_random,
    two_clique_graphon,
)
from .mechanisms import (
    FiniteMechanism,
    LaplaceDensity,
    PiecewiseExpDensity,
    PiecewiseLinear,
    exponential_mechanism_distribution,
    extend_mechanism,
    piecewise_min,
    sample_laplace,
    truncated_laplace_density,
    truncation_rate,
    unit_laplace_density,
)
from .block_estimator import (
    BlockEstimate,
    EstimatorConfig,
    block_mechanism,
    estimate_blocks,
)
from .density import (
    DensityEstimate,
    HomogeneityConfig,
    extended_density_estimator,
    extend_over_graphs,
    extended_density_mechanism,
    homogeneity_membership,
    laplace_density_estimator,
    laplace_density_mechanism,
    predicted_baseline_mse,
    predicted_restricted_mse,
    restricted_density_estimator,
    restricted_density_mechanism,
)
from .audits import (
    AuditReport,
    audit_bitstring_reduction,
    audit_block_mechanism,
    audit_density_mechanism,
    audit_finite_mechanism,
    audit_score_sensitivity,
    bernoulli_reduction_graph,
)
from .experiments import (
    CouplingReport,
    ExperimentConfig,
    ExperimentRecord,
    homogeneity_probability,
    run_distinguishability_experiment,
    run_mse_experiment,
    slope_fit,
)
from .rng import substream

__version__ = "0.1.0"
