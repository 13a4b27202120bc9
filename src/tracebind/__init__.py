"""Trace analysis of agent identity: occurrence vs. co-instantiation.

Given an instrumented scaffold trajectory and a grounded identity (a
conjunction of concrete ingredient conditions), this package decides per
evaluation window whether the ingredients merely each occur somewhere
(weak persistence) or are jointly active at a single objective step
(strong persistence), and computes the derived identity metrics and
morphospace coordinates.  A deterministic simulator reproduces the
architectural constructions behind every claim the toolkit tests.  The
object-level API over states, activation sets and window segments
(:mod:`tracebind.sets`) and the simulator load on first use, with their
names, so code that only scores traces imports neither.
"""

from importlib import import_module

from .errors import (
    CapacityError,
    FeatureError,
    FileFormatError,
    GroundingLookupError,
    MetricError,
    OutOfRangeError,
    ParameterError,
    ScenarioError,
    StreamOrderError,
    StructuralError,
    TracebindError,
)
from .identity import (
    GroundedIdentity,
    IngredientSpec,
    LayeredIdentitySpec,
    check_compositionality,
    ground,
    identity_to_document,
    load_identity_file,
    parse_identity_document,
)
from .metrics import (
    GapResult,
    MetricParams,
    MetricsReport,
    MorphospacePoint,
    consistency,
    jaccard_similarity,
    morphospace,
)
from .windows import INFINITE, WindowConfig

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ActivationSet",
    "ArchitecturePreset",
    "CapacityError",
    "FeatureError",
    "FileFormatError",
    "GapResult",
    "GroundedIdentity",
    "GroundingLookupError",
    "INFINITE",
    "IngredientSpec",
    "LayeredIdentitySpec",
    "MetricError",
    "MetricParams",
    "MetricsReport",
    "MorphospacePoint",
    "OutOfRangeError",
    "ParameterError",
    "PersistenceResult",
    "RetrievalPolicy",
    "ScaffoldArchitecture",
    "ScaffoldState",
    "ScenarioError",
    "StreamOrderError",
    "StructuralError",
    "TracebindError",
    "WindowConfig",
    "WindowSegment",
    "activation_set",
    "activation_sets",
    "check_compositionality",
    "coinstantiated",
    "consistency",
    "continuity",
    "detect_grounding_failures",
    "diamond",
    "evaluate_ingredient",
    "gap_ratio",
    "ground",
    "identifiability",
    "identity_to_document",
    "infer",
    "jaccard_similarity",
    "load_identity_file",
    "make_preset",
    "minimal_horizons",
    "morphospace",
    "occurs",
    "parse_identity_document",
    "persistence",
    "persistence_streaming",
    "preset_probe",
    "recovery",
    "recovery_bound",
    "retrieve",
    "run",
    "scenario_alternating",
    "scenario_capacity_limited",
    "scenario_drift_recover",
    "scenario_noncommutation",
    "scenario_rag_displacement",
    "state_distance",
    "step",
    "store",
    "tool",
    "window",
    "window_horizons",
]


def __getattr__(name: str):
    # every exported name not bound above is served from tracebind.sets, or
    # else from the simulator, which loads the sets itself (PEP 562)
    if name in ("sets", "simulator"):
        return import_module(f".{name}", __name__)
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    sets = import_module(".sets", __name__)
    return getattr(sets if hasattr(sets, name) else import_module(".simulator", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, "sets", "simulator"})
