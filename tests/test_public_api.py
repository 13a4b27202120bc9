"""The public surface of the package: its exported names and preset features."""

from __future__ import annotations

import pytest

import tracebind
from tracebind.simulator import ArchitecturePreset, RetrievalPolicy, make_preset

PUBLIC_NAMES = [
    "Action", "ActivationSet", "ArchitecturePreset", "CapacityError", "FeatureError",
    "FileFormatError", "GapResult", "GroundedIdentity", "GroundingLookupError", "INFINITE",
    "IngredientSpec", "LayeredIdentitySpec", "MetricError", "MetricParams", "MetricsReport",
    "MorphospacePoint", "OutOfRangeError", "ParameterError", "PersistenceResult",
    "RetrievalPolicy", "ScaffoldArchitecture", "ScaffoldState", "ScenarioError",
    "StreamOrderError", "StructuralError", "TracebindError", "WindowConfig", "WindowSegment",
    "activation_set", "activation_sets", "check_compositionality", "coinstantiated",
    "consistency", "continuity", "detect_grounding_failures", "diamond", "evaluate_ingredient",
    "gap_ratio", "ground", "identifiability", "identity_to_document", "infer",
    "jaccard_similarity", "load_identity_file", "make_preset", "minimal_horizons",
    "morphospace", "occurs", "parse_identity_document", "persistence", "persistence_streaming",
    "preset_probe", "recovery", "recovery_bound", "retrieve", "run", "scenario_alternating",
    "scenario_capacity_limited", "scenario_drift_recover", "scenario_noncommutation",
    "scenario_rag_displacement", "state_distance", "step", "store", "tool", "window",
    "window_horizons",
]


def test_exported_names_are_pinned_and_resolve():
    assert sorted(tracebind.__all__) == PUBLIC_NAMES
    for name in tracebind.__all__:
        assert getattr(tracebind, name) is not None


# (memory_enabled, controller_flags_enabled, context_persists), as the
# simulator's preset table gives them
PRESET_FEATURES = {
    "stateless": (False, False, False),
    "prompted": (False, False, True),
    "rag": (False, False, True),
    "memory": (True, False, True),
    "controller": (True, True, True),
}


@pytest.mark.parametrize("name", sorted(PRESET_FEATURES))
def test_preset_features_follow_the_name(name):
    policy = RetrievalPolicy(mode="query_driven", injected_doc_lengths={"d": 1})
    preset = make_preset(name, context_capacity=4, retrieval=policy if name == "rag" else None)
    features = (preset.memory_enabled, preset.controller_flags_enabled, preset.context_persists)
    assert features == PRESET_FEATURES[name]


def test_preset_features_are_not_fields():
    names = set(ArchitecturePreset._fields)
    assert names.isdisjoint({"memory_enabled", "controller_flags_enabled", "context_persists"})
