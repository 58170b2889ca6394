"""Least-cost influence seeding on multiplex social networks.

The pipeline: build or load a multiplex network (k directed, weighted
layers over a shared user universe), couple it into a single network
(lossless clique/star, weight-reduced, or lossy), run hop-limited
threshold/cascade diffusion on the coupled graph, and select a minimum
seed set with a lazy greedy solver.  Selected nodes map back to users
through the coupling's user<->node bijection.
"""

import types as _types

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
    improved_greedy,
    brute_force_optimal,
    export_ilp,
    meets_fraction,
)
from .generator import SynthSpec, generate, small_ilp_instance, subseed
from .experiment import ExperimentSpec, solve_pipeline, run_experiment

# the imported names; importing the submodules binds them here too, but they are not exports
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
