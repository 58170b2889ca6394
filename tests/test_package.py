import muxlci

PUBLIC_NAMES = [
    "ActiveSet", "COUPLING_SCHEMES", "CoupledNetwork", "DiffusionModel", "DiffusionOutcome",
    "ExperimentSpec", "GreedyConfig", "INDEPENDENT_CASCADE", "InfluenceGraph", "LINEAR_THRESHOLD",
    "LayerFormatError", "LayerGraph", "MultiplexNetwork", "NodeKind", "STOCHASTIC_THRESHOLD",
    "SeedSet", "SynthSpec", "apply_aliases", "brute_force_optimal", "couple", "export_ilp",
    "fill_missing_thresholds", "generate", "ic_propagate", "improved_greedy", "load_alias_map",
    "load_layer", "load_layer_file", "load_network", "lt_propagate", "meets_fraction",
    "multiplex_lt_propagate", "normalize_incoming_weights", "read_coupled", "run_experiment",
    "serialize_layer", "small_ilp_instance", "solve_pipeline", "st_propagate", "subseed",
    "validate", "write_coupled", "write_trace",
]


def test_public_names_are_pinned():
    """The package exports exactly these names, none of them a submodule;
    a change to the public surface has to change this list."""
    assert sorted(muxlci.__all__) == PUBLIC_NAMES
    namespace = {}
    exec("from muxlci import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC_NAMES
