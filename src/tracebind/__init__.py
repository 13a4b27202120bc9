"""Trace analysis of agent identity: occurrence vs. co-instantiation.

Given an instrumented scaffold trajectory and a grounded identity (a
conjunction of concrete ingredient conditions), this package decides per
evaluation window whether the ingredients merely each occur somewhere
(weak persistence) or are jointly active at a single objective step
(strong persistence), and computes the derived identity metrics and
morphospace coordinates.  A deterministic simulator reproduces the
architectural constructions behind every claim the toolkit tests.

Each exported name is served on first use from its home module, so
``import tracebind`` loads no other module of the package, and code that
reads a few names loads only their homes: the object-level API over
states, activation sets and window segments (:mod:`tracebind.sets`) and
the simulator load only when one of their names is read.
"""

from importlib import import_module

__version__ = "0.1.0"

# the exported names of each home module
_NAMES = {
    "errors": [
        "CapacityError", "FeatureError", "FileFormatError", "GroundingLookupError", "INFINITE",
        "MetricError", "OutOfRangeError", "ParameterError", "ScenarioError", "StreamOrderError",
        "StructuralError", "TracebindError",
    ],
    "identity": [
        "GroundedIdentity", "IngredientSpec", "LayeredIdentitySpec", "check_compositionality",
        "ground", "identity_to_document", "load_identity_file", "parse_identity_document",
    ],
    "metrics": [
        "GapResult", "MetricParams", "MetricsReport", "MorphospacePoint", "consistency",
        "jaccard_similarity", "morphospace",
    ],
    "windows": ["WindowConfig"],
    "sets": [
        "ActivationSet", "PersistenceResult", "ScaffoldArchitecture", "ScaffoldState",
        "WindowSegment", "activation_set", "activation_sets", "coinstantiated", "continuity",
        "detect_grounding_failures", "diamond", "evaluate_ingredient", "gap_ratio",
        "identifiability", "minimal_horizons", "occurs", "persistence", "persistence_streaming",
        "recovery", "recovery_bound", "state_distance", "window", "window_horizons",
    ],
    "simulator": [
        "Action", "ArchitecturePreset", "RetrievalPolicy", "infer", "make_preset", "preset_probe",
        "retrieve", "run", "scenario_alternating", "scenario_capacity_limited",
        "scenario_drift_recover", "scenario_noncommutation", "scenario_rag_displacement", "step",
        "store", "tool",
    ],
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # a home module by its name, or an exported name from its home, loaded
    # on first use and not bound here (PEP 562)
    if name in _NAMES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_NAMES})
