"""Least-cost influence seeding on multiplex social networks.

The pipeline: build or load a multiplex network (k directed, weighted
layers over a shared user universe), couple it into a single network
(lossless clique/star, weight-reduced, or lossy), run hop-limited
threshold/cascade diffusion on the coupled graph, and select a minimum
seed set with a lazy greedy solver.  Selected nodes map back to users
through the coupling's user<->node bijection.
"""

__version__ = "0.1.0"

from .network import (
    LayerGraph,
    MultiplexNetwork,
    LayerFormatError,
    load_layer,
    load_layer_file,
    load_network,
    serialize_layer,
    normalize_incoming_weights,
    fill_missing_thresholds,
    overlap_users,
    validate,
    load_alias_map,
    apply_aliases,
)
from .diffusion import (
    ActiveSet,
    DiffusionOutcome,
    DiffusionModel,
    InfluenceGraph,
    LINEAR_THRESHOLD,
    STOCHASTIC_THRESHOLD,
    INDEPENDENT_CASCADE,
    lt_propagate,
    multiplex_lt_propagate,
    ic_propagate,
    st_propagate,
    write_trace,
)
from .coupling import (
    NodeKind,
    CoupledNetwork,
    couple,
    write_coupled,
    read_coupled,
    COUPLING_SCHEMES,
)
from .solver import (
    GreedyConfig,
    SeedSet,
    marginal_gain,
    improved_greedy,
    brute_force_optimal,
    export_ilp,
    meets_fraction,
)
from .generator import SynthSpec, generate, small_ilp_instance, subseed
from .experiment import ExperimentSpec, solve_pipeline, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
