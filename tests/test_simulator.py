"""Tests for the scaffold transition function, presets, and scenario generators."""

from __future__ import annotations

import itertools
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracebind.simulator as simulator
from tracebind.errors import (
    CapacityError,
    FeatureError,
    ParameterError,
    ScenarioError,
    StructuralError,
    replace,
)
from tracebind.identity import GroundedIdentity, IngredientSpec
from tracebind.sets import (
    ActivationSet,
    ScaffoldArchitecture,
    ScaffoldState,
    WindowSegment,
    activation_set,
    activation_sets,
    coinstantiated,
    minimal_horizons,
    occurs,
    parse_trace,
    persistence,
    recovery,
    recovery_bound,
)
from tracebind.simulator import (
    PRESET_NAMES,
    _ACTION_RULES,
    Action,
    ArchitecturePreset,
    RetrievalPolicy,
    infer,
    make_preset,
    preset_probe,
    probe_presets,
    retrieve,
    run,
    scenario_alternating,
    scenario_capacity_limited,
    scenario_drift_recover,
    scenario_noncommutation,
    scenario_rag_displacement,
    step,
    store,
    tool,
    _append_with_eviction,
    _carried,
)
from tracebind.trace import activation_lines, state_lines, write_lines
from tracebind.windows import INFINITE, WindowConfig


def controller(capacity=16, pin=(), retrieval=None, n_flags=2):
    return make_preset(
        "controller",
        context_capacity=capacity,
        pinned_prefix=pin,
        retrieval=retrieval,
        n_policy_flags=n_flags,
    )


class TestStep:
    def test_store_then_read(self):
        preset = controller()
        spec = IngredientSpec(
            ingredient_id="fact", kind="memory", memory_key="role", memory_value="analyst"
        )
        identity = GroundedIdentity((spec,))
        states = run(preset, [store("role", "analyst"), infer("hello")])
        arch = preset.architecture()
        assert activation_set(states[0], identity, arch).active == frozenset()
        assert activation_set(states[1], identity, arch).active == {"fact"}
        assert activation_set(states[2], identity, arch).active == {"fact"}

    def test_infer_evicts_oldest(self):
        preset = make_preset("prompted", context_capacity=8)
        spec = IngredientSpec(
            ingredient_id="name", kind="context", context_pattern=("Alice",)
        )
        identity = GroundedIdentity((spec,))
        initial = ScaffoldState(
            context=("Alice", "is", "here"),
            memory={},
            policy_flags=(0,),
            retrieved=frozenset(),
            step_index=0,
        )
        states = run(preset, [infer("a", "b", "c", "d", "e"), infer("f", "g", "h", "i", "j")], initial)
        arch = preset.architecture()
        # first query fits next to the name; the second pushes it out
        assert activation_set(states[1], identity, arch).active == {"name"}
        assert activation_set(states[2], identity, arch).active == frozenset()

    def test_retrieve_injects_and_displaces(self):
        policy = RetrievalPolicy(
            mode="query_driven", injected_doc_lengths={"long-doc": 6}
        )
        preset = make_preset("rag", context_capacity=8, retrieval=policy)
        initial = ScaffoldState(
            context=("id0", "id1", "id2"),
            memory={},
            policy_flags=(0,),
            retrieved=frozenset(),
            step_index=0,
        )
        after = step(initial, retrieve("long-doc"), preset)
        assert "long-doc" in after.retrieved
        assert len(after.context) == 8
        assert "id0" not in after.context  # oldest token displaced

    def test_pinned_prefix_survives(self):
        preset = make_preset("prompted", context_capacity=6, pinned_prefix=("Alice",))
        state = preset.initial_state()
        for _ in range(5):
            state = step(state, infer("x", "y", "z"), preset)
            assert state.context[:1] == ("Alice",)
            assert len(state.context) <= 6

    def test_capacity_error_when_query_cannot_fit(self):
        preset = make_preset("prompted", context_capacity=4, pinned_prefix=("a", "b"))
        with pytest.raises(CapacityError):
            step(preset.initial_state(), infer("c", "d", "e"), preset)

    def test_store_without_memory_feature(self):
        preset = make_preset("prompted", context_capacity=4)
        with pytest.raises(FeatureError):
            step(preset.initial_state(), store("k", "v"), preset)

    def test_tool_without_flags_feature(self):
        preset = make_preset("prompted", context_capacity=4)
        with pytest.raises(FeatureError):
            step(preset.initial_state(), tool(0), preset)

    def test_tool_sets_flag(self):
        preset = controller()
        state = step(preset.initial_state(), tool(1), preset)
        assert state.policy_flags == (0, 1)
        state = step(state, tool(1, flag_value=0), preset)
        assert state.policy_flags == (0, 0)

    def test_tool_flag_out_of_range(self):
        preset = controller(n_flags=1)
        with pytest.raises(StructuralError):
            step(preset.initial_state(), tool(3), preset)

    @pytest.mark.parametrize("value", [True, False, 1.0, 0.0, 2])
    def test_flag_value_must_be_the_integer_0_or_1(self, value):
        # bool and float compare equal to 0 and 1, and a state refuses them,
        # so the action that would write one is refused when it is built
        with pytest.raises(StructuralError, match="flag_value"):
            tool(0, flag_value=value)

    def test_noop_tool_changes_nothing_but_time(self):
        preset = controller()
        before = step(preset.initial_state(), infer("x"), preset)
        after = step(before, tool(), preset)
        assert after.context == before.context
        assert after.memory == before.memory
        assert after.policy_flags == before.policy_flags
        assert after.step_index == before.step_index + 1

    def test_step_index_always_increments(self):
        preset = make_preset("stateless", context_capacity=4)
        states = run(preset, [infer("a"), infer("b"), infer("c")])
        assert [s.step_index for s in states] == [0, 1, 2, 3]


class TestStatelessPreset:
    def test_context_does_not_persist(self):
        preset = make_preset("stateless", context_capacity=8)
        states = run(preset, [infer("Alice"), infer("other")])
        assert states[1].context == ("Alice",)
        assert states[2].context == ("other",)

    def test_memory_never_persists(self):
        preset = make_preset("stateless", context_capacity=8)
        spec = IngredientSpec(
            ingredient_id="fact", kind="memory", memory_key="k", memory_value="v"
        )
        identity = GroundedIdentity((spec,))
        states = run(
            preset,
            [store("k", "v"), infer("query"), store("k", "v"), infer("query")],
            skip_unsupported=True,
        )
        arch = preset.architecture()
        for act in activation_sets(states, identity, arch):
            assert act.active == frozenset()

    def test_direct_store_is_a_feature_error(self):
        preset = make_preset("stateless", context_capacity=8)
        with pytest.raises(FeatureError):
            run(preset, [store("k", "v")])


class TestRun:
    def test_empty_script_rejected(self):
        with pytest.raises(ParameterError):
            run(make_preset("prompted", context_capacity=4), [])

    def test_error_carries_step_index(self):
        preset = make_preset("prompted", context_capacity=4)
        with pytest.raises(FeatureError, match="script step 2"):
            run(preset, [infer("a"), infer("b"), store("k", "v")])

    def test_constant_activation_under_noop_script(self):
        preset = controller()
        identity = GroundedIdentity(
            (IngredientSpec(ingredient_id="f", kind="policy", flag_index=0),)
        )
        states = run(preset, [tool()] * 6)
        acts = activation_sets(states, identity, preset.architecture())
        assert len({a.active for a in acts}) == 1

    def test_pinned_identity_block_keeps_full_conjunction(self):
        # a controller pin covering every ingredient keeps the conjunction
        # active at every step of any script
        preset = make_preset(
            "controller", context_capacity=10, pinned_prefix=("Alice", "analyst")
        )
        identity = GroundedIdentity(
            (
                IngredientSpec(ingredient_id="n", kind="context", context_pattern=("Alice",)),
                IngredientSpec(ingredient_id="r", kind="context", context_pattern=("analyst",)),
            )
        )
        script = [
            infer("x", "y", "z", "w"),
            store("k", "v"),
            infer("a", "b", "c", "d", "e", "f"),
            tool(0),
            infer("m", "n", "o"),
        ]
        states = run(preset, script)
        acts = activation_sets(states, identity, preset.architecture())
        assert all(len(a.active) == identity.k for a in acts)

    def test_determinism_bit_identical(self):
        policy = RetrievalPolicy(
            mode="query_driven", injected_doc_lengths={"doc": 3}
        )
        preset = make_preset(
            "controller", context_capacity=10, pinned_prefix=("pin",), retrieval=policy
        )
        script = [
            infer("a", "b"),
            retrieve("doc"),
            store("x", "1"),
            tool(0),
            infer("c", "d", "e"),
        ]
        def snapshot():
            states = run(preset, script)
            return json.dumps(
                [
                    {
                        "C": list(s.context),
                        "M": dict(sorted(s.memory.items())),
                        "pi": list(s.policy_flags),
                        "D": sorted(s.retrieved),
                        "u": s.step_index,
                    }
                    for s in states
                ],
                sort_keys=True,
            )
        assert snapshot() == snapshot()

    def test_eviction_safety_randomized(self):
        rng = random.Random(2718)
        policy = RetrievalPolicy(
            mode="query_driven", injected_doc_lengths={"doc": 2}
        )
        preset = make_preset(
            "controller", context_capacity=9, pinned_prefix=("p0", "p1"), retrieval=policy
        )
        for _ in range(60):
            script = []
            for _ in range(rng.randint(1, 25)):
                choice = rng.random()
                if choice < 0.5:
                    script.append(
                        infer(*(f"t{rng.randint(0, 9)}" for _ in range(rng.randint(1, 7))))
                    )
                elif choice < 0.7:
                    script.append(retrieve("doc"))
                elif choice < 0.85:
                    script.append(store(f"k{rng.randint(0, 3)}", "v"))
                else:
                    script.append(tool(rng.randint(0, 0)))
            states = run(preset, script)
            for state in states:
                assert state.context[:2] == ("p0", "p1")
                assert len(state.context) <= 9


class TestScenarioNoncommutation:
    def test_window_flags(self):
        states, identity, cfg = scenario_noncommutation()
        preset_arch = make_preset("prompted", context_capacity=1).architecture()
        acts = activation_sets(states, identity, preset_arch)
        assert [a.active for a in acts] == [{"p"}, {"q"}]
        seg = WindowSegment(start=0, activation_sets=tuple(acts))
        assert occurs(seg, identity) is True
        assert coinstantiated(seg, identity) is False

    def test_zero_horizon_variant(self):
        states, identity, _ = scenario_noncommutation()
        arch = make_preset("prompted", context_capacity=1).architecture()
        acts = activation_sets(states, identity, arch)
        seg = WindowSegment(start=0, activation_sets=(acts[0],))
        assert occurs(seg, identity) is False


class TestScenarioAlternating:
    def test_persistence_scores(self):
        states, identity, cfg = scenario_alternating(100)
        arch = make_preset("prompted", context_capacity=1).architecture()
        acts = activation_sets(states, identity, arch)
        result = persistence(acts, identity, cfg)
        assert result.p_weak == 1.0
        assert result.p_strong == 0.0

    def test_zero_horizon_weak_drops(self):
        states, identity, _ = scenario_alternating(50)
        arch = make_preset("prompted", context_capacity=1).architecture()
        acts = activation_sets(states, identity, arch)
        cfg = WindowConfig.all_valid(0, 1, 50, 8)
        result = persistence(acts, identity, cfg)
        assert result.p_weak == 0.0

    def test_length_validation(self):
        with pytest.raises(ParameterError):
            scenario_alternating(1)


class TestScenarioCapacity:
    def test_every_state_below_k(self):
        states, identity = scenario_capacity_limited(2, 3, 30)
        arch = make_preset("prompted", context_capacity=2).architecture()
        acts = activation_sets(states, identity, arch)
        assert max(len(a.active) for a in acts) == 2

    def test_strong_zero_under_many_configs(self):
        states, identity = scenario_capacity_limited(2, 3, 30)
        arch = make_preset("prompted", context_capacity=2).architecture()
        acts = activation_sets(states, identity, arch)
        for delta in (0, 1, 2, 5):
            for stride in (1, 2, 3):
                cfg = WindowConfig.all_valid(delta, stride, len(acts), 16)
                assert persistence(acts, identity, cfg).p_strong == 0.0

    def test_rotating_pairs_weak_is_one(self):
        states, identity = scenario_capacity_limited(2, 3, 30)
        arch = make_preset("prompted", context_capacity=2).architecture()
        acts = activation_sets(states, identity, arch)
        cfg = WindowConfig.all_valid(1, 1, len(acts), 16)
        assert persistence(acts, identity, cfg).p_weak == 1.0

    def test_boundary_one_missing(self):
        states, identity = scenario_capacity_limited(2, 3, 12)
        arch = make_preset("prompted", context_capacity=2).architecture()
        acts = activation_sets(states, identity, arch)
        assert all(len(a.active) < identity.k for a in acts)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            scenario_capacity_limited(3, 3, 10)


class TestScenarioRagDisplacement:
    def test_strict_strong_drop_and_weak_preserved(self):
        without_rag, with_rag, identity, cfg = scenario_rag_displacement()
        arch_base = make_preset("prompted", context_capacity=12).architecture()
        base_acts = activation_sets(without_rag, identity, arch_base)
        base = persistence(base_acts, identity, cfg)
        policy_corpus = frozenset({"d0", "d1", "d2", "passage"})
        arch_rag = ScaffoldArchitecture(
            n_policy_flags=1,
            context_capacity=12,
            corpus=policy_corpus,
        )
        rag_acts = activation_sets(with_rag, identity, arch_rag)
        augmented = persistence(rag_acts, identity, cfg)
        assert augmented.p_strong < base.p_strong
        assert augmented.p_weak >= base.p_weak
        assert base.p_strong == 1.0

    def test_zero_passage_equal_scores(self):
        without_rag, with_rag, identity, cfg = scenario_rag_displacement(
            passage_tokens=0
        )
        arch = ScaffoldArchitecture(
            n_policy_flags=1,
            context_capacity=12,
            corpus=frozenset({"d0", "d1", "d2", "passage"}),
        )
        base = persistence(activation_sets(without_rag, identity, arch), identity, cfg)
        augmented = persistence(activation_sets(with_rag, identity, arch), identity, cfg)
        assert base.p_strong == augmented.p_strong
        assert base.p_weak == augmented.p_weak

    def test_undisplaceable_parameters_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_rag_displacement(passage_tokens=2, capacity=12)

    def test_oversized_passage_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_rag_displacement(passage_tokens=40, capacity=12)


class TestScenarioDriftRecover:
    def test_bound_respected(self):
        ids = [f"g{i}" for i in range(5)]
        reference, drifted, recovered = scenario_drift_recover(
            ids, ["g2", "g3", "g4"], ["g2"], 5
        )
        measured = recovery(reference, drifted, recovered, 5, 0.01)
        bound = recovery_bound(reference, drifted, ["g2"], 5, 0.01)
        assert measured <= bound + 1e-9

    def test_full_recovery_when_all_controllable(self):
        ids = ["g0", "g1", "g2"]
        reference, drifted, recovered = scenario_drift_recover(
            ids, ["g1", "g2"], ids, 5
        )
        assert recovered.active == reference.active
        assert recovery(reference, drifted, recovered, 3, 0.01) == 1.0

    def test_zero_interventions(self):
        ids = ["g0", "g1", "g2"]
        reference, drifted, recovered = scenario_drift_recover(ids, ["g2"], ids, 0)
        assert recovered.active == drifted.active

    def test_drift_must_be_subset(self):
        with pytest.raises(ParameterError):
            scenario_drift_recover(["g0"], ["g7"], [], 1)


SCENARIO_SIZES = {
    "alternating-length": (lambda: scenario_alternating(6.5), "length must be an integer"),
    "alternating-bool": (lambda: scenario_alternating(True), "length must be an integer"),
    "capacity-c": (lambda: scenario_capacity_limited(1.0, 3, 4), "capacity c must be an integer"),
    "capacity-k": (lambda: scenario_capacity_limited(1, 3.5, 4), "k must be an integer"),
    "capacity-length": (lambda: scenario_capacity_limited(1, 3, 4.5), "length must be an integer"),
    "rag-block": (lambda: scenario_rag_displacement(2.5), "baseline_block_tokens must be an integer"),
    "rag-passage": (lambda: scenario_rag_displacement(passage_tokens=10.5), "passage_tokens must be an integer"),
    "rag-capacity": (lambda: scenario_rag_displacement(capacity="12"), "capacity must be an integer"),
    "drift-interventions": (
        lambda: scenario_drift_recover(["a", "b"], ["b"], ["b"], 1.5),
        "the intervention count must be an integer",
    ),
    "probe-cycles": (lambda: simulator.probe_script(1.5), "cycles must be an integer"),
}


@pytest.mark.parametrize("make, message", SCENARIO_SIZES.values(), ids=SCENARIO_SIZES)
def test_scenario_sizes_are_whole_numbers(make, message):
    # each raised a raw TypeError, or built a trace from a coerced size
    with pytest.raises(ParameterError) as raised:
        make()
    assert str(raised.value) == message


@pytest.mark.parametrize("position", range(3))
def test_drift_ids_are_string_collections(position):
    args = [["ab", "c"], ["c"], ["c"]]
    args[position] = "c"  # would be read as its characters
    with pytest.raises(StructuralError, match="must be a collection of strings, not one string$"):
        scenario_drift_recover(*args, 1)


class TestPresetProbe:
    def test_weak_persistence_chain(self):
        results = preset_probe()
        order = ["stateless", "prompted", "rag", "memory", "controller"]
        weak = [results[name].p_weak for name in order]
        assert weak == sorted(weak)
        assert weak[0] < weak[-1]  # the chain is not vacuous

    def test_controller_attains_max_binding(self):
        results = preset_probe()
        strongest = max(res.p_strong for res in results.values())
        assert results["controller"].p_strong == strongest
        assert results["controller"].p_strong > results["rag"].p_strong


class TestPresetValidation:
    def test_unknown_name(self):
        with pytest.raises(StructuralError):
            make_preset("quantum", context_capacity=4)

    def test_rag_requires_policy(self):
        with pytest.raises(StructuralError):
            make_preset("rag", context_capacity=4)

    def test_pin_capacity(self):
        with pytest.raises(StructuralError):
            make_preset("prompted", context_capacity=2, pinned_prefix=("a", "b", "c"))

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ({"context_capacity": 0}, "context_capacity must be >= 1"),
            ({"context_capacity": 4, "n_policy_flags": -1}, "n_policy_flags must be >= 0"),
        ],
    )
    def test_capacity_and_flag_count(self, sizes, message):
        with pytest.raises(StructuralError, match=message):
            make_preset("prompted", **sizes)

    def test_identity_aware_policy_must_cover(self):
        policy = RetrievalPolicy(
            mode="identity_aware",
            ingredient_docs={"a": "da"},
            injected_doc_lengths={"da": 1},
        )
        identity = GroundedIdentity(
            (
                IngredientSpec(ingredient_id="a", kind="context", context_pattern=("a",)),
                IngredientSpec(ingredient_id="b", kind="context", context_pattern=("b",)),
            )
        )
        with pytest.raises(StructuralError):
            policy.validate_covers(identity)

    def test_identity_aware_rejects_memory_kind(self):
        policy = RetrievalPolicy(
            mode="identity_aware",
            ingredient_docs={"m": "dm"},
            injected_doc_lengths={"dm": 1},
        )
        identity = GroundedIdentity(
            (
                IngredientSpec(
                    ingredient_id="m", kind="memory", memory_key="k", memory_value="v"
                ),
            )
        )
        with pytest.raises(StructuralError):
            policy.validate_covers(identity)


class TestScenarioGapFixtures:
    def test_noncommutation_gap(self):
        states, identity, cfg = scenario_noncommutation()
        arch = make_preset("prompted", context_capacity=1).architecture()
        acts = activation_sets(states, identity, arch)
        w_weak, w_strong = minimal_horizons(acts, identity, cfg.stride, 0, cfg.horizon_max)
        assert w_weak == 1
        assert w_strong == INFINITE


# The payloads each action kind documents: the fields it sets.
DOCUMENTED_PAYLOADS = {
    "infer": [{"tokens"}],
    "retrieve": [{"query"}],
    "store": [{"key", "value"}],
    "tool": [set(), {"flag_index"}],
}

PAYLOAD_VALUES = {"tokens": ("a",), "query": "q", "key": "k", "value": "v", "flag_index": 0}


class TestActionPayload:
    @pytest.mark.parametrize("kind", [*DOCUMENTED_PAYLOADS, "sleep"])
    def test_accepts_exactly_the_documented_payload(self, kind):
        names = list(PAYLOAD_VALUES)
        for chosen in itertools.product((False, True), repeat=len(names)):
            fields = {name for name, on in zip(names, chosen) if on}
            payload = {name: PAYLOAD_VALUES[name] for name in fields}
            if kind not in DOCUMENTED_PAYLOADS:
                with pytest.raises(StructuralError, match="unknown action kind"):
                    Action(kind, **payload)
            elif fields in DOCUMENTED_PAYLOADS[kind]:
                assert Action(kind, **payload).kind == kind
            else:
                with pytest.raises(StructuralError, match="payload does not match"):
                    Action(kind, **payload)


class TestSupports:
    @pytest.mark.parametrize("name", ["stateless", "prompted", "rag", "memory", "controller"])
    def test_skips_exactly_what_step_refuses(self, name):
        preset = probe_presets()[name]
        initial = preset.initial_state()
        for action in (infer("x"), retrieve("charter"), store("k", "v"), tool(), tool(0)):
            skipped = run(preset, [action], skip_unsupported=True)
            try:
                stepped = step(initial, action, preset)
            except FeatureError:
                assert not preset.supports(action)
                assert skipped == [initial, replace(initial, step_index=1)]
                with pytest.raises(FeatureError):
                    run(preset, [action])
            else:
                assert preset.supports(action)
                assert skipped == [initial, stepped]


# ---------------------------------------------------------------------------
# step against a reference that copies every component
# ---------------------------------------------------------------------------


def reference_step(state, action, preset):
    """The transition with every state component copied anew on every step."""
    if not preset.supports(action):
        _, _, _, module = _ACTION_RULES[action.kind]
        raise FeatureError(f"preset {preset.name!r} has no {module}")
    kept = _carried(state, preset)
    context = kept.context
    memory = dict(kept.memory)
    flags = list(kept.policy_flags)
    retrieved = set(kept.retrieved)
    if action.kind == "infer":
        context = _append_with_eviction(context, action.tokens, preset)
    elif action.kind == "retrieve":
        for doc in preset.retrieval.resolve(action.query):
            retrieved.add(doc)
            context = _append_with_eviction(context, preset.retrieval.doc_tokens(doc), preset)
    elif action.kind == "store":
        memory[action.key] = action.value
    elif action.kind == "tool" and action.flag_index is not None:
        if not 0 <= action.flag_index < preset.n_policy_flags:
            raise StructuralError(
                f"flag_index {action.flag_index} out of range for "
                f"{preset.n_policy_flags} flags"
            )
        flags[action.flag_index] = action.flag_value
    return ScaffoldState(
        context=context,
        memory=memory,
        policy_flags=tuple(flags),
        retrieved=frozenset(retrieved),
        step_index=state.step_index + 1,
    )


def reference_run(preset, script, skip_unsupported):
    states = [preset.initial_state()]
    for index, action in enumerate(script):
        try:
            if skip_unsupported and not preset.supports(action):
                kept = _carried(states[-1], preset)
                states.append(replace(kept, step_index=states[-1].step_index + 1))
            else:
                states.append(reference_step(states[-1], action, preset))
        except (CapacityError, FeatureError, StructuralError) as exc:
            raise type(exc)(f"script step {index}: {exc}") from exc
    return states


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (CapacityError, FeatureError, StructuralError) as exc:
        return type(exc), str(exc)


STEP_TOKENS = ["g0", "g1", "x", "y"]


@st.composite
def presets(draw):
    """A valid preset of any name, with what that name allows drawn at random."""
    name = draw(st.sampled_from(PRESET_NAMES))
    capacity = draw(st.integers(1, 8))
    pinned = ()
    if name in ("prompted", "controller"):
        pinned = tuple(draw(st.lists(st.sampled_from(STEP_TOKENS), max_size=min(2, capacity))))
    retrieval = None
    if name == "rag" or (name in ("memory", "controller") and draw(st.booleans())):
        lengths = {"d0": draw(st.integers(0, 4)), "d1": draw(st.integers(0, 4))}
        mode = draw(st.sampled_from(["identity_aware", "query_driven"]))
        linked = {"g0": "d0"} if mode == "identity_aware" else {}
        retrieval = RetrievalPolicy(mode, ingredient_docs=linked, injected_doc_lengths=lengths)
    n_flags = draw(st.integers(1, 3))
    return make_preset(name, capacity, pinned, retrieval, n_flags)


actions = st.one_of(
    st.lists(st.sampled_from(STEP_TOKENS), max_size=3).map(lambda tokens: infer(*tokens)),
    st.sampled_from(["d0", "d1", "g0", "zz"]).map(retrieve),
    st.builds(store, st.sampled_from(["k0", "k1"]), st.sampled_from(["v0", "v1"])),
    st.builds(tool, st.none() | st.integers(0, 3), st.integers(0, 1)),
)


class TestStepSharesWhatItLeaves:
    @settings(max_examples=400, deadline=None)
    @given(preset=presets(), script=st.lists(actions, min_size=1, max_size=12), skip=st.booleans())
    def test_states_equal_the_copying_reference(self, preset, script, skip):
        # the reference copies every component, so a later step that changed
        # an earlier state's component would leave that state unequal to it
        states = outcome(run, preset, script, skip_unsupported=skip)
        assert states == outcome(reference_run, preset, script, skip)
        if isinstance(states, tuple) or not preset.context_persists:
            return
        for prev, action, new in zip(states, script, states[1:]):
            if action.kind != "tool" or action.flag_index is None:
                assert new.policy_flags is prev.policy_flags
            if action.kind != "retrieve" or not preset.retrieval.resolve(action.query):
                assert new.retrieved is prev.retrieved
            if action.kind != "store" or not preset.supports(action):
                assert new.memory is prev.memory

    def test_infer_shares_the_flags_and_documents(self):
        policy = RetrievalPolicy(mode="query_driven", injected_doc_lengths={"doc": 1})
        preset = controller(retrieval=policy)
        before = run(preset, [retrieve("doc"), tool(1)])[-1]
        after = step(before, infer("x"), preset)
        assert after.policy_flags is before.policy_flags
        assert after.retrieved is before.retrieved
        assert after.memory == before.memory and after.memory is before.memory

    def test_infer_that_evicts_every_token_holds_the_action_tokens(self):
        preset = make_preset("prompted", context_capacity=2)
        action = infer("x", "y")
        assert step(run(preset, [infer("a")])[-1], action, preset).context is action.tokens


class TestMemoryIsReadOnly:
    def test_no_state_takes_a_write(self, tmp_path):
        # a write would reach every later step unchecked, and the trace line
        # of each would hold a value the reader refuses
        preset = make_preset("memory", context_capacity=2)
        stepped = run(preset, [store("k", "v"), infer("x"), store("j", "w")])
        skipped = run(probe_presets()["stateless"], [store("k", "v")], skip_unsupported=True)
        path = tmp_path / "trace.jsonl"
        write_lines(path, state_lines(stepped))
        made = ScaffoldState((), {"k": "v"}, (0,), (), 0)
        for state in [preset.initial_state(), *stepped, *skipped, *parse_trace(path).states, made]:
            with pytest.raises(TypeError):
                state.memory["k"] = 1
        assert [dict(state.memory) for state in stepped] == [{}, {"k": "v"}, {"k": "v"}, {"k": "v", "j": "w"}]


class TestScenarioActionsBuiltOnce:
    @pytest.mark.parametrize(
        "build, distinct",
        [
            (lambda: scenario_alternating(50), 2),
            (lambda: scenario_capacity_limited(2, 5, 50), 5),
            (lambda: scenario_capacity_limited(3, 7, 4), 4),
            (lambda: scenario_capacity_limited(1, 2, 1), 1),
        ],
        ids=["alternating", "capacity", "capacity-shorter-than-k", "capacity-one-step"],
    )
    def test_one_action_per_distinct_step(self, monkeypatch, build, distinct):
        made = []

        def counted(*tokens):
            made.append(infer(*tokens))
            return made[-1]

        monkeypatch.setattr(simulator, "infer", counted)
        states = build()[0]
        monkeypatch.undo()
        assert len(made) == distinct
        assert [s.context for s in states[1:]] == [
            made[u % len(made)].tokens for u in range(1, len(states))
        ]


# ---------------------------------------------------------------------------
# states built from checked parts, and the checks on those parts
# ---------------------------------------------------------------------------


def assert_as_checked(values):
    """Each value equals its rebuild through the checked constructor, part for
    part and type for type; no state's memory takes a write, and no state has
    an instance dict."""
    for value in values:
        parts = [getattr(value, name) for name in value._fields]
        rebuilt = [getattr(type(value)(*parts), name) for name in value._fields]
        assert [(type(p), p) for p in parts] == [(type(p), p) for p in rebuilt]
    states = [value for value in values if isinstance(value, ScaffoldState)]
    for state in states:
        with pytest.raises(TypeError):
            state.memory["k"] = "v"
    assert not any(hasattr(state, "__dict__") for state in states)


trace_texts = st.text(max_size=3)


@st.composite
def traced_states(draw):
    """States that a trace can spell, all with one flag count."""
    n_flags = draw(st.integers(0, 3))
    state = st.tuples(
        st.lists(trace_texts, max_size=4).map(tuple),
        st.dictionaries(trace_texts, trace_texts, max_size=3),
        st.lists(st.integers(0, 1), min_size=n_flags, max_size=n_flags).map(tuple),
        st.frozensets(trace_texts, max_size=3),
    )
    drawn = draw(st.lists(state, min_size=1, max_size=6))
    return [ScaffoldState(*parts, u) for u, parts in enumerate(drawn)]


class TestBuiltFromCheckedParts:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), script=st.lists(actions, min_size=1, max_size=12))
    def test_stepped_states_are_as_checked(self, name, data, script):
        preset = data.draw(presets().filter(lambda preset: preset.name == name))
        states = outcome(run, preset, script, skip_unsupported=True)
        if isinstance(states, tuple):
            return
        assert_as_checked(states)
        for state in states:
            preset.architecture().check_state(state)

    @settings(max_examples=200, deadline=None)
    @given(states=traced_states())
    def test_read_states_are_as_checked(self, states):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "trace.jsonl"
            write_lines(path, state_lines(states))
            read = parse_trace(path).states
        assert read == tuple(states)
        assert_as_checked(read)

    @settings(max_examples=200, deadline=None)
    @given(sets=st.lists(st.frozensets(trace_texts, max_size=4), min_size=1, max_size=6))
    def test_read_activation_sets_are_as_checked(self, sets):
        acts = [ActivationSet(u, active) for u, active in enumerate(sets)]
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "trace.jsonl"
            write_lines(path, activation_lines(acts))
            read = parse_trace(path).activations
        assert read == tuple(acts)
        assert_as_checked(read)

    def test_steps_and_reads_run_no_constructor_check(self, monkeypatch, tmp_path):
        preset = probe_presets()["controller"]
        expected = run(preset, simulator.probe_script(1))
        path = tmp_path / "trace.jsonl"
        write_lines(path, state_lines(expected))

        def refused(self):
            raise AssertionError("a checked constructor ran")

        monkeypatch.setattr(ScaffoldState, "__post_init__", refused)
        monkeypatch.setattr(ActivationSet, "__post_init__", refused)
        assert run(preset, simulator.probe_script(1)) == expected
        skipped = run(probe_presets()["stateless"], [store("k", "v")], skip_unsupported=True)
        assert [state.step_index for state in skipped] == [0, 1]
        assert parse_trace(path).states == tuple(expected)


class TestInputsCheckedWhenMade:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: infer(1),
            lambda: infer("a", None),
            lambda: retrieve(5),
            lambda: store("k", 1),
            lambda: store(b"k", "v"),
            lambda: tool(flag_index=True),
            lambda: tool(flag_index=1.0),
            lambda: tool(flag_index=-1),
            lambda: Action("infer", tokens=[("a",)]),
        ],
        ids=["infer-int", "infer-none", "retrieve-int", "store-value", "store-key",
             "tool-bool-index", "tool-float-index", "tool-negative-index", "infer-tuple-token"],
    )
    def test_action_payload_types(self, make):
        with pytest.raises(StructuralError, match="must be"):
            make()

    @pytest.mark.parametrize(
        "docs, lengths",
        [
            ({}, {"d": 1.5}),
            ({}, {"d": True}),
            ({}, {5: 1}),
            ({5: "d"}, {"d": 1}),
            ({"g": 5}, {"d": 1, 5: 1}),
        ],
        ids=["float-length", "bool-length", "int-doc-id", "int-ingredient-id", "int-linked-doc"],
    )
    def test_retrieval_policy_ids_and_lengths(self, docs, lengths):
        for mode in ("identity_aware", "query_driven"):
            with pytest.raises(StructuralError):
                RetrievalPolicy(mode, ingredient_docs=docs, injected_doc_lengths=lengths)

    @pytest.mark.parametrize(
        "length, message",
        [(1.5, "must be an integer"), (True, "must be an integer"), (-1, "must be >= 0")],
    )
    def test_retrieval_policy_lengths_name_their_document(self, length, message):
        with pytest.raises(StructuralError) as raised:
            RetrievalPolicy("query_driven", injected_doc_lengths={"d": 2, "e": length})
        assert str(raised.value) == f"injected_doc_lengths['e'] {message}"

    @pytest.mark.parametrize(
        "counts",
        [
            {"n_policy_flags": 1.5, "context_capacity": 2},
            {"n_policy_flags": 1, "context_capacity": 2.0},
            {"n_policy_flags": True, "context_capacity": 2},
            {"n_policy_flags": 1, "context_capacity": True},
        ],
    )
    def test_architecture_counts(self, counts):
        with pytest.raises(StructuralError, match="^[a-z_]+ must be an integer$"):
            ScaffoldArchitecture(**counts)
        with pytest.raises(StructuralError, match="^[a-z_]+ must be an integer$"):
            make_preset("prompted", **counts)

    def test_preset_pinned_tokens(self):
        with pytest.raises(StructuralError, match="^pinned_prefix entries must be strings$"):
            make_preset("prompted", context_capacity=2, pinned_prefix=(1,))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Action("infer", tokens="ab"),
            lambda: ArchitecturePreset("prompted", 2, pinned_prefix="ab"),
            lambda: ScaffoldState(context="ab", memory={}, policy_flags=(), retrieved=(), step_index=0),
            lambda: ScaffoldState(context=(), memory={}, policy_flags=(), retrieved="ab", step_index=0),
            lambda: ActivationSet(0, "ab"),
            lambda: ScaffoldArchitecture(1, 2, corpus="ab"),
        ],
        ids=["action-tokens", "preset-pinned-prefix", "state-context", "state-retrieved", "set-active",
             "architecture-corpus"],
    )
    def test_one_string_is_no_collection(self, make):
        # a tuple or a set built from one string would hold its characters
        with pytest.raises(StructuralError, match="^[a-z_]+ must be a collection of strings, not one string$"):
            make()
