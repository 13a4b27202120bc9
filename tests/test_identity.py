"""Tests for ingredient activation, activation-set distance, and grounding."""

from __future__ import annotations

import itertools
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracebind.identity as identity_module
from conftest import activations_from_sets, context_identity, plain_architecture
from tracebind.errors import (
    FileFormatError,
    GroundingLookupError,
    StructuralError,
    replace,
)
from tracebind.identity import (
    GroundedIdentity,
    IngredientSpec,
    LayeredIdentitySpec,
    check_compositionality,
    ground,
    identity_to_document,
    load_identity_file,
    parse_identity_document,
)
from tracebind.oracle import oracle_activation_set
from tracebind.sets import (
    ActivationSet,
    ScaffoldArchitecture,
    ScaffoldState,
    activation_set,
    detect_grounding_failures,
    evaluate_ingredient,
    state_distance,
)

ARCH = plain_architecture()

RECORD = '{"id": "a", "kind": "policy", "flag_index": 0}'  # one ingredient, id "a"
RECORD_B = '{"id": "b", "kind": "policy", "flag_index": 1}'
DUPLICATE_ID = '{"id": "a", "id": "c", "kind": "policy", "flag_index": 0}'


def make_state(
    context=(), memory=None, flags=(0, 0), retrieved=(), step=0
) -> ScaffoldState:
    return ScaffoldState(
        context=tuple(context),
        memory=memory or {},
        policy_flags=tuple(flags),
        retrieved=frozenset(retrieved),
        step_index=step,
    )


NAME = IngredientSpec(ingredient_id="name", kind="context", context_pattern=("Alice",))
ROLE = IngredientSpec(
    ingredient_id="role", kind="memory", memory_key="role", memory_value="analyst"
)
CONSTRAINT = IngredientSpec(ingredient_id="constraint", kind="policy", flag_index=0)
DOC = IngredientSpec(ingredient_id="doc", kind="retrieval", doc_id="doc-a")

FULL_IDENTITY = GroundedIdentity((NAME, ROLE, CONSTRAINT, DOC))


class TestEvaluateIngredient:
    def test_context_pattern_present(self):
        state = make_state(context=("I", "am", "Alice"))
        assert evaluate_ingredient(state, NAME, ARCH) is True

    def test_context_pattern_multi_token_contiguous(self):
        spec = IngredientSpec(
            ingredient_id="x", kind="context", context_pattern=("privacy", "policy")
        )
        assert evaluate_ingredient(
            make_state(context=("the", "privacy", "policy", "applies")), spec, ARCH
        )
        # the tokens must be adjacent, not merely both present
        assert not evaluate_ingredient(
            make_state(context=("privacy", "first", "policy")), spec, ARCH
        )

    def test_context_no_cross_token_match(self):
        # "Ali" + "ce" must not satisfy the "Alice" pattern
        state = make_state(context=("Ali", "ce"))
        assert evaluate_ingredient(state, NAME, ARCH) is False

    def test_empty_memory_satisfies_nothing(self):
        assert evaluate_ingredient(make_state(), ROLE, ARCH) is False

    def test_memory_requires_exact_value(self):
        assert evaluate_ingredient(
            make_state(memory={"role": "analyst"}), ROLE, ARCH
        )
        assert not evaluate_ingredient(
            make_state(memory={"role": "intern"}), ROLE, ARCH
        )

    def test_policy_flag(self):
        assert evaluate_ingredient(make_state(flags=(1, 0)), CONSTRAINT, ARCH)
        assert not evaluate_ingredient(make_state(flags=(0, 1)), CONSTRAINT, ARCH)

    def test_retrieval_membership(self):
        assert evaluate_ingredient(make_state(retrieved={"doc-a"}), DOC, ARCH)
        assert not evaluate_ingredient(make_state(retrieved={"doc-b"}), DOC, ARCH)

    def test_flag_index_out_of_range(self):
        bad = IngredientSpec(ingredient_id="f9", kind="policy", flag_index=9)
        with pytest.raises(StructuralError):
            evaluate_ingredient(make_state(), bad, ARCH)

    def test_flag_index_out_of_range_for_a_short_state(self):
        # the architecture declares flag 2, but the state holds only one flag
        spec = IngredientSpec(ingredient_id="f2", kind="policy", flag_index=2)
        arch = ScaffoldArchitecture(n_policy_flags=3, context_capacity=4)
        with pytest.raises(StructuralError, match="flag_index 2 out of range for state with 1 flags"):
            evaluate_ingredient(make_state(flags=(1,)), spec, arch)

    def test_single_ingredient_states(self):
        # three states, each activating exactly one ingredient of a
        # name/role/constraint conjunction
        identity = GroundedIdentity((NAME, ROLE, CONSTRAINT))
        s_name = make_state(context=("Alice",), step=0)
        s_role = make_state(memory={"role": "analyst"}, step=1)
        s_constraint = make_state(flags=(1, 0), step=2)
        assert evaluate_ingredient(s_name, NAME, ARCH)
        assert not evaluate_ingredient(s_name, ROLE, ARCH)
        assert not evaluate_ingredient(s_name, CONSTRAINT, ARCH)
        sets = [
            activation_set(s, identity, ARCH).active
            for s in (s_name, s_role, s_constraint)
        ]
        assert sets == [{"name"}, {"role"}, {"constraint"}]

    def test_pure_function(self):
        state = make_state(context=("Alice",))
        assert all(
            evaluate_ingredient(state, NAME, ARCH) for _ in range(5)
        )


class TestIngredientSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(StructuralError):
            IngredientSpec(ingredient_id="x", kind="telepathy")

    def test_wrong_fields_for_kind(self):
        with pytest.raises(StructuralError):
            IngredientSpec(ingredient_id="x", kind="context", doc_id="doc-a")
        with pytest.raises(StructuralError):
            IngredientSpec(
                ingredient_id="x",
                kind="memory",
                memory_key="k",
                memory_value="v",
                flag_index=0,
            )

    def test_empty_context_pattern_rejected(self):
        with pytest.raises(StructuralError):
            IngredientSpec(ingredient_id="x", kind="context", context_pattern=())

    def test_duplicate_ids_rejected(self):
        with pytest.raises(StructuralError):
            GroundedIdentity((NAME, NAME))

    def test_empty_identity_rejected(self):
        with pytest.raises(StructuralError):
            GroundedIdentity(())

    @pytest.mark.parametrize("ingredients", [("x",), "ab", (NAME, {"id": "x"})])
    def test_ingredients_must_be_specs(self, ingredients):
        # each raised a raw AttributeError from reading spec.ingredient_id
        with pytest.raises(StructuralError, match="^ingredients entries must be IngredientSpec values$"):
            GroundedIdentity(ingredients)

    @pytest.mark.parametrize(
        "fields",
        [
            {"ingredient_id": 5, "kind": "context", "context_pattern": ("a",)},
            {"ingredient_id": "x", "kind": ["context"], "context_pattern": ("a",)},
            {"ingredient_id": "x", "kind": "context", "context_pattern": "Alice"},
            {"ingredient_id": "x", "kind": "context", "context_pattern": ("a", 1)},
            {"ingredient_id": "x", "kind": "memory", "memory_key": ["k"], "memory_value": "v"},
            {"ingredient_id": "x", "kind": "policy", "flag_index": True},
            {"ingredient_id": "x", "kind": "policy", "flag_index": "0"},
            {"ingredient_id": "x", "kind": "retrieval", "doc_id": ["d"]},
        ],
    )
    def test_field_types_checked(self, fields):
        # each of these was accepted, coerced or crashed with a TypeError
        with pytest.raises(StructuralError):
            IngredientSpec(**fields)


class TestScaffoldStateValidation:
    @pytest.mark.parametrize("flags", [(True, 1.0), (True,), (1.0,), (0, 2)])
    def test_flags_must_be_the_integers_0_or_1(self, flags):
        # bool and float compare equal to 0 and 1; the trace reader refuses
        # them, so a state holding them could not round-trip through a file
        with pytest.raises(StructuralError):
            make_state(flags=flags)

    @pytest.mark.parametrize(
        "fields",
        [
            pytest.param({"context": (1,)}, id="int-token"),
            pytest.param({"context": ("a", None)}, id="none-token"),
            pytest.param({"memory": {"k": True}}, id="bool-value"),
            pytest.param({"memory": {1: "x", "b": "y"}}, id="int-key-among-str"),
            pytest.param({"memory": {1.0: "x"}}, id="float-key"),
            pytest.param({"retrieved": {None}}, id="none-doc"),
            pytest.param({"retrieved": {"d", 1}}, id="int-doc"),
        ],
    )
    def test_components_must_be_strings(self, fields):
        # the trace reader refuses each of these, and 1, 1.0 and True are
        # equal values that JSON spells three ways
        with pytest.raises(StructuralError, match="must be strings"):
            make_state(**fields)

    @pytest.mark.parametrize("step", [True, 1.0, "1", None])
    def test_step_index_must_be_an_int(self, step):
        with pytest.raises(StructuralError, match="step_index must be an integer"):
            make_state(step=step)

    def test_negative_step_index_is_refused(self):
        with pytest.raises(StructuralError, match="step_index must be >= 0"):
            make_state(step=-1)

    def test_slots_keep_replace_equality_and_repr(self):
        state = make_state(context=("a",), memory={"k": "v"}, flags=(0, 1), retrieved=("d",), step=3)
        assert not hasattr(state, "__dict__")
        assert replace(state, step_index=4) == make_state(("a",), {"k": "v"}, (0, 1), ("d",), 4)
        assert replace(state, step_index=4) != state
        assert repr(state) == (
            "ScaffoldState(context=('a',), memory=mappingproxy({'k': 'v'}), policy_flags=(0, 1), "
            "retrieved=frozenset({'d'}), step_index=3)"
        )
        with pytest.raises(AttributeError):
            state.step_index = 5

    def test_tuples_and_frozensets_are_kept(self):
        context, flags, retrieved = ("a", "b"), (0, 1), frozenset({"d"})
        state = ScaffoldState(context, {"k": "v"}, flags, retrieved, 0)
        assert state.context is context
        assert state.policy_flags is flags
        assert state.retrieved is retrieved

    def test_other_containers_are_converted(self):
        state = ScaffoldState(["a"], {"k": "v"}, [0, 1], {"d"}, 0)
        assert (type(state.context), type(state.policy_flags), type(state.retrieved)) == (
            tuple, tuple, frozenset
        )
        assert state == make_state(("a",), {"k": "v"}, (0, 1), ("d",), 0)

    def test_memory_is_never_the_callers_dict(self):
        memory = {"k": "v"}
        state = ScaffoldState(("a",), memory, (0,), frozenset(), 0)
        assert state.memory is not memory
        memory["k"] = "w"
        memory["other"] = "x"
        assert state.memory == {"k": "v"}


class TestActivationSetValidation:
    @pytest.mark.parametrize("step", [True, 1.0, "1", None])
    def test_step_index_must_be_an_int(self, step):
        # the trace reader refuses "u":true and "u":1.0
        with pytest.raises(StructuralError, match="step_index must be an integer"):
            ActivationSet(step, {"a"})

    @pytest.mark.parametrize(
        "active",
        [{1}, {1, "a"}, {None}, {"a", 1.5}, {True}],
        ids=["int", "int-among-str", "none", "float-among-str", "bool"],
    )
    def test_ids_must_be_strings(self, active):
        # a trace line sorts its ids, and {1, "a"} cannot be sorted
        with pytest.raises(StructuralError, match="^active entries must be strings$"):
            ActivationSet(0, active)


class TestActivationSetOp:
    def test_full_conjunction(self):
        state = make_state(
            context=("Alice",),
            memory={"role": "analyst"},
            flags=(1, 0),
            retrieved={"doc-a"},
        )
        result = activation_set(state, FULL_IDENTITY, ARCH)
        assert len(result.active) == FULL_IDENTITY.k

    def test_nothing_active(self):
        assert activation_set(make_state(), FULL_IDENTITY, ARCH).active == frozenset()

    def test_flag_index_out_of_range_for_a_short_state(self):
        # NAME and ROLE hold, but flag 3 of c3 is past the state's two
        constraint_3 = IngredientSpec(ingredient_id="c3", kind="policy", flag_index=3)
        identity = GroundedIdentity((NAME, ROLE, CONSTRAINT, constraint_3))
        arch = ScaffoldArchitecture(n_policy_flags=4, context_capacity=4)
        state = make_state(context=("Alice",), memory={"role": "analyst"}, flags=(1, 0))
        with pytest.raises(StructuralError, match="flag_index 3 out of range for state with 2 flags"):
            activation_set(state, identity, arch)

    def test_definitional_round_trip(self):
        rng = random.Random(7)
        for _ in range(50):
            state = make_state(
                context=tuple(rng.sample(["Alice", "x", "y", "z"], rng.randint(0, 4))),
                memory={"role": rng.choice(["analyst", "intern"])},
                flags=(rng.randint(0, 1), rng.randint(0, 1)),
                retrieved=set(rng.sample(["doc-a", "doc-b"], rng.randint(0, 2))),
            )
            expected = oracle_activation_set(state, FULL_IDENTITY)
            assert activation_set(state, FULL_IDENTITY, ARCH) == expected

    def test_full_iff_cardinality_k(self):
        rng = random.Random(13)
        for _ in range(50):
            state = make_state(
                context=("Alice",) if rng.random() < 0.7 else ("Bob",),
                memory={"role": "analyst"} if rng.random() < 0.7 else {},
                flags=(rng.randint(0, 1), 0),
                retrieved={"doc-a"} if rng.random() < 0.7 else set(),
            )
            act = activation_set(state, FULL_IDENTITY, ARCH)
            all_active = oracle_activation_set(state, FULL_IDENTITY).active == (
                FULL_IDENTITY.ingredient_ids
            )
            assert (len(act.active) == FULL_IDENTITY.k) == all_active


def _acts(*sets: set) -> list[ActivationSet]:
    return activations_from_sets(list(sets))


class TestStateDistance:
    def test_identical_sets(self):
        a, b = _acts({"g0", "g1"}, {"g0", "g1"})
        assert state_distance(a, b, 2) == 0.0

    def test_disjoint_singletons(self):
        a, b = _acts({"1"}, {"2"})
        assert state_distance(a, b, 2) == 1.0

    def test_partial_overlap(self):
        a, b = _acts({"1", "2", "3", "4"}, {"4"})
        assert state_distance(a, b, 4) == 0.75

    def test_zero_k_rejected(self):
        a, b = _acts(set(), set())
        with pytest.raises(StructuralError):
            state_distance(a, b, 0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_metric_axioms_exhaustive(self, k):
        ids = [f"g{i}" for i in range(k)]
        subsets = [
            frozenset(c)
            for r in range(k + 1)
            for c in itertools.combinations(ids, r)
        ]
        acts = {s: ActivationSet(step_index=0, active=s) for s in subsets}
        for x, y in itertools.product(subsets, repeat=2):
            d_xy = state_distance(acts[x], acts[y], k)
            assert d_xy >= 0.0
            assert d_xy == state_distance(acts[y], acts[x], k)
            assert (d_xy == 0.0) == (x == y)
        for x, y, z in itertools.product(subsets, repeat=3):
            assert (
                state_distance(acts[x], acts[z], k)
                <= state_distance(acts[x], acts[y], k)
                + state_distance(acts[y], acts[z], k)
                + 1e-12
            )


LAYERS = LayeredIdentitySpec(
    layer2_statements=("persona", "guardrails", "curiosity"),
    layer1_statements=("named", "documented", "flagged"),
    map_2_to_1={
        "persona": frozenset({"named", "documented"}),
        "guardrails": frozenset({"flagged"}),
        "curiosity": frozenset({"named"}),
    },
    map_1_to_0={
        "named": frozenset({"name"}),
        "documented": frozenset({"doc"}),
        "flagged": frozenset({"constraint"}),
    },
    map_2_to_0={
        "persona": frozenset({"name", "doc"}),
        "guardrails": frozenset({"constraint"}),
        "curiosity": frozenset({"name"}),
    },
)


class TestGrounding:
    def test_single_layer1_label(self):
        assert ground(["named"], LAYERS, 1) == {"name"}

    def test_conjunction_unions(self):
        assert ground(["persona", "guardrails"], LAYERS, 2) == {
            "name",
            "doc",
            "constraint",
        }

    def test_composed_equals_direct(self):
        # routing persona through layer 1 by hand: named->{name}, documented->{doc}
        composed = ground(["named", "documented"], LAYERS, 1)
        assert composed == ground(["persona"], LAYERS, 2)

    def test_undeclared_label(self):
        with pytest.raises(GroundingLookupError):
            ground(["mystery"], LAYERS, 2)

    def test_bad_layer_index(self):
        with pytest.raises(StructuralError):
            ground(["persona"], LAYERS, 0)

    def test_undeclared_layer1_reference_rejected(self):
        with pytest.raises(StructuralError):
            LayeredIdentitySpec(
                layer2_statements=("a",),
                layer1_statements=("b",),
                map_2_to_1={"a": frozenset({"nope"})},
                map_1_to_0={"b": frozenset({"name"})},
                map_2_to_0={"a": frozenset({"name"})},
            )

    @pytest.mark.parametrize(
        "args, name",
        [
            (("ab", "cd", {}, {"c": "xy"}, {}), "layer2_statements"),
            (((), "cd", {}, {}, {}), "layer1_statements"),
            ((("n",), ("c",), {"n": "c"}, {}, {}), "map_2_to_1['n']"),
            (((), ("c",), {}, {"c": "xy"}, {}), "map_1_to_0['c']"),
            ((("n",), (), {}, {}, {"n": "ab"}), "map_2_to_0['n']"),
        ],
        ids=["layer2", "layer1", "map_2_to_1", "map_1_to_0", "map_2_to_0"],
    )
    def test_one_string_is_no_collection(self, args, name):
        # a tuple or a set built from one string would hold its characters
        with pytest.raises(StructuralError) as raised:
            LayeredIdentitySpec(*args)
        assert str(raised.value) == f"{name} must be a collection of strings, not one string"

    @pytest.mark.parametrize(
        "args, name",
        [
            (((1,), ("a",), {}, {}, {}), "layer2_statements"),
            (((), ("a", None), {}, {}, {}), "layer1_statements"),
            ((("n",), ("f",), {"n": ["f", 1]}, {}, {}), "map_2_to_1['n']"),
            (((), ("f",), {}, {"f": {2}}, {}), "map_1_to_0['f']"),
            (((), (), {}, {}, {1: ()}), "map_2_to_0"),
        ],
        ids=["layer2", "layer1", "map_2_to_1", "map_1_to_0", "map_2_to_0-label"],
    )
    def test_entries_must_be_strings(self, args, name):
        # each was accepted, and an identity file written from it would not load
        with pytest.raises(StructuralError) as raised:
            LayeredIdentitySpec(*args)
        assert str(raised.value) == f"{name} entries must be strings"


class TestCompositionality:
    def test_derived_spec_is_compositional(self):
        assert check_compositionality(LAYERS) == []

    def test_tampered_entry_reported(self):
        tampered = LayeredIdentitySpec(
            layer2_statements=LAYERS.layer2_statements,
            layer1_statements=LAYERS.layer1_statements,
            map_2_to_1=LAYERS.map_2_to_1,
            map_1_to_0=LAYERS.map_1_to_0,
            map_2_to_0={**LAYERS.map_2_to_0, "persona": frozenset({"name"})},
        )
        assert check_compositionality(tampered) == ["persona"]

    def test_generate_and_check(self):
        rng = random.Random(99)
        ingredient_ids = [f"g{i}" for i in range(8)]
        for _ in range(100):
            layer1 = [f"f{i}" for i in range(rng.randint(1, 4))]
            layer2 = [f"n{i}" for i in range(rng.randint(1, 4))]
            map_1_to_0 = {
                label: frozenset(rng.sample(ingredient_ids, rng.randint(1, 3)))
                for label in layer1
            }
            map_2_to_1 = {
                label: frozenset(rng.sample(layer1, rng.randint(1, len(layer1))))
                for label in layer2
            }
            map_2_to_0 = {
                label: frozenset().union(*(map_1_to_0[m] for m in map_2_to_1[label]))
                for label in layer2
            }
            spec = LayeredIdentitySpec(
                layer2_statements=tuple(layer2),
                layer1_statements=tuple(layer1),
                map_2_to_1=map_2_to_1,
                map_1_to_0=map_1_to_0,
                map_2_to_0=map_2_to_0,
            )
            assert check_compositionality(spec) == []


class TestGroundingFailures:
    IDENTITY = GroundedIdentity((NAME, ROLE, CONSTRAINT, DOC))

    def _trace(self, active_per_step):
        return activations_from_sets(active_per_step)

    def test_all_false_evaluator(self):
        trace = self._trace([set()] * 5)
        failures = detect_grounding_failures(
            trace, ["persona"], [False] * 5, self.IDENTITY, LAYERS
        )
        assert failures == []

    def test_satisfied_step_not_reported(self):
        trace = self._trace(
            [set(), set(), set(), set(), set(), {"name", "doc"}, set()]
        )
        evaluator = [False] * 7
        evaluator[5] = True
        failures = detect_grounding_failures(
            trace, ["persona"], evaluator, self.IDENTITY, LAYERS
        )
        assert failures == []

    def test_planted_failure_found(self):
        sets = [set() for _ in range(10)]
        sets[7] = {"name"}  # doc missing while the statement is endorsed
        evaluator = [False] * 10
        evaluator[7] = True
        failures = detect_grounding_failures(
            self._trace(sets), ["persona"], evaluator, self.IDENTITY, LAYERS
        )
        assert failures == [7]

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            detect_grounding_failures(
                self._trace([set()] * 3), ["persona"], [False] * 4, self.IDENTITY, LAYERS
            )


LABELS = st.one_of(st.sampled_from(["n", "m", "f", "g"]), st.integers(0, 1))
TARGETS = st.one_of(st.sampled_from(sorted(FULL_IDENTITY.ingredient_ids)), st.integers(0, 1))


class TestIdentityFiles:
    def test_document_round_trip(self, tmp_path):
        doc = identity_to_document(FULL_IDENTITY, LAYERS)
        identity, layers = parse_identity_document(doc)
        assert identity == FULL_IDENTITY
        assert layers is not None
        assert identity_to_document(identity, layers) == doc

    @settings(max_examples=200, deadline=None)
    @given(
        layer2=st.lists(LABELS, max_size=3),
        layer1=st.lists(LABELS, max_size=3),
        maps=st.tuples(*(st.dictionaries(LABELS, st.lists(to, max_size=2), max_size=2)
                         for to in (LABELS, TARGETS, TARGETS))),
    )
    def test_every_spec_the_library_builds_loads_back(self, tmp_path_factory, layer2, layer1, maps):
        # a spec written by identity_to_document is read back equal by
        # load_identity_file, or the constructor refused it
        try:
            layers = LayeredIdentitySpec(layer2, layer1, *maps)
        except StructuralError:
            return
        path = tmp_path_factory.getbasetemp() / "layers.json"
        path.write_text(json.dumps(identity_to_document(FULL_IDENTITY, layers)), encoding="utf-8")
        assert load_identity_file(path) == (FULL_IDENTITY, layers)

    def test_a_library_spec_loads_back(self, tmp_path):
        path = tmp_path / "layers.json"
        path.write_text(json.dumps(identity_to_document(FULL_IDENTITY, LAYERS)), encoding="utf-8")
        assert load_identity_file(path) == (FULL_IDENTITY, LAYERS)

    def test_load_single_document(self, tmp_path):
        path = tmp_path / "identity.json"
        import json

        path.write_text(json.dumps(identity_to_document(FULL_IDENTITY)))
        identity, layers = load_identity_file(path)
        assert identity == FULL_IDENTITY
        assert layers is None

    def test_load_line_delimited(self, tmp_path):
        import json

        path = tmp_path / "identity.jsonl"
        records = identity_to_document(FULL_IDENTITY)["ingredients"]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        identity, layers = load_identity_file(path)
        assert identity == FULL_IDENTITY
        assert layers is None

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(FileFormatError):
            parse_identity_document(
                {"ingredients": [{"id": "a", "kind": "policy", "flag_index": 0}],
                 "mascot": "axolotl"}
            )

    def test_unknown_ingredient_field_rejected(self):
        with pytest.raises(FileFormatError):
            parse_identity_document(
                {"ingredients": [
                    {"id": "a", "kind": "policy", "flag_index": 0, "color": "red"}
                ]}
            )

    def test_missing_kind_field_rejected(self):
        with pytest.raises(FileFormatError):
            parse_identity_document({"ingredients": [{"id": "a", "kind": "context"}]})

    def test_unknown_layer_field_rejected(self):
        doc = identity_to_document(FULL_IDENTITY, LAYERS)
        doc["layers"]["map_0_to_2"] = {}
        with pytest.raises(FileFormatError):
            parse_identity_document(doc)

    def test_layers_referencing_unknown_ingredient_rejected(self):
        doc = identity_to_document(FULL_IDENTITY, LAYERS)
        doc["layers"]["map_2_to_0"]["persona"] = ["name", "ghost"]
        with pytest.raises(FileFormatError):
            parse_identity_document(doc)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(FileFormatError):
            load_identity_file(path)

    def test_duplicate_key_in_document_rejected(self, tmp_path):
        # the first "id" used to be dropped silently
        path = tmp_path / "identity.json"
        path.write_text(
            '{"ingredients": [{"id": "a", "id": "b", "kind": "context", '
            '"context_pattern": ["x"]}]}'
        )
        with pytest.raises(FileFormatError, match=r"identity\.json:1: duplicate key 'id'"):
            load_identity_file(path)

    def test_duplicate_key_in_line_delimited_file_rejected(self, tmp_path):
        path = tmp_path / "identity.jsonl"
        path.write_text(
            '{"id": "a", "kind": "policy", "flag_index": 0}\n'
            '{"id": "b", "kind": "policy", "flag_index": 0, "flag_index": 1}\n'
        )
        with pytest.raises(FileFormatError, match=r"identity\.jsonl:2: duplicate key 'flag_index'"):
            load_identity_file(path)

    @pytest.mark.parametrize(
        "lines, where",
        [
            ([DUPLICATE_ID, RECORD_B], ":1"),
            ([RECORD_B, DUPLICATE_ID], ":2"),
            (["", DUPLICATE_ID, RECORD_B], ":2"),
            ([f'{{"ingredients": [{DUPLICATE_ID}]}}'], ":1"),
            (["", "", f'{{"ingredients": [{DUPLICATE_ID}]}}'], ":3"),
        ],
        ids=["line-1", "line-2", "after-blank-line", "document", "document-after-blank-lines"],
    )
    def test_duplicate_key_names_its_line(self, tmp_path, lines, where):
        path = tmp_path / "identity.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError) as info:
            load_identity_file(path)
        assert str(info.value) == f"{path}{where}: duplicate key 'id'"

    @pytest.mark.parametrize(
        "name, text, where, fault",
        [
            ("identity.json", f'{{"ingredients": [{RECORD}, {RECORD}]}}', "",
             "ingredient ids must be pairwise distinct; 'a' repeats"),
            ("identity.json", '{"ingredients": [{"id": "a", "kind": "nope"}]}', "",
             "ingredients[0]: unknown ingredient kind 'nope'"),
            ("identity.json", f'{{"ingredients": [{RECORD}], "layers": 1}}', "",
             "layers must be an object"),
            ("identity.json", f'{{"ingredients": [{RECORD}], "x": 1}}', "",
             "identity document: unknown fields ['x']"),
            ("identity.json", '{"ingredients": []}', "",
             "identity document needs a non-empty 'ingredients' list"),
            # blank lines count as lines: the bad record is on line 4
            ("identity.jsonl", f'{RECORD}\n\n\n{{"id": "b", "kind": "nope"}}\n', ":4",
             "unknown ingredient kind 'nope'"),
            ("identity.jsonl", f"{RECORD}\n\n5\n", ":3", "ingredient record must be an object"),
            ("identity.jsonl", f'{RECORD}\n{{"id": "b", "kind": "policy"}}\n', ":2",
             "missing fields ['flag_index']"),
            ("identity.jsonl", f"{RECORD}\n\n{RECORD}\n", "",
             "ingredient ids must be pairwise distinct; 'a' repeats"),
            # the first non-blank line decides the form
            ("identity.jsonl", "[" * 100_000, ":1", "invalid JSON: nested too deeply"),
            ("identity.jsonl", "5", ":1", "ingredient record must be an object"),
            ("identity.jsonl", f'{{"ingredients": [{RECORD}]}}\n{RECORD_B}\n', ":1",
             "unknown ingredient kind None"),
            ("identity.jsonl", f'\ufeff{{"ingredients": [{RECORD}]}}', ":1",
             "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
            ("identity.jsonl", f'{RECORD}\n{{"id": "b", "kind": "nope"}}\n\n{{"id"\n', ":2",
             "unknown ingredient kind 'nope'"),
            ("identity.json", json.dumps(json.loads(RECORD), indent=1), "",
             "identity document: unknown fields ['flag_index', 'id', 'kind']"),
        ],
        ids=[
            "doc-duplicate-id", "doc-kind", "doc-layers", "doc-field", "doc-empty",
            "jsonl-kind", "jsonl-not-object", "jsonl-missing", "jsonl-duplicate-id",
            "one-line-deep-nesting", "one-line-not-object", "document-then-record", "bom",
            "record-fault-before-json-fault", "pretty-printed-record",
        ],
    )
    def test_faults_name_the_file(self, tmp_path, name, text, where, fault):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(FileFormatError) as info:
            load_identity_file(path)
        assert str(info.value) == f"{path}{where}: {fault}"
        if name.endswith(".json"):
            # the public document parser keeps its in-document locations
            with pytest.raises(FileFormatError) as info:
                parse_identity_document(json.loads(text))
            assert str(info.value) == fault

    @pytest.mark.parametrize(
        "text",
        [
            '{"ingredients": [{"id": "a", "kind": "context", "context_pattern": 5}]}',
            '{"ingredients": [{"id": 5, "kind": "context", "context_pattern": ["x"]}]}',
            '{"ingredients": [{"id": "a", "kind": ["context"]}]}',
            '{"ingredients": [{"id": "a", "kind": "policy", "flag_index": "1"}]}',
            '{"ingredients": [{"id": "a", "kind": "retrieval", "doc_id": {}}]}',
            '{"ingredients": [{"id": "a", "kind": "retrieval", "doc_id": "d"}], "layers": []}',
            '{"ingredients": [{"id": "a", "kind": "retrieval", "doc_id": "d"}], "layers": '
            '{"layer2": 1, "layer1": [], "map_2_to_1": {}, "map_1_to_0": {}, "map_2_to_0": {}}}',
            '{"ingredients": [{"id": "a", "kind": "retrieval", "doc_id": "d"}], "layers": '
            '{"layer2": [], "layer1": [], "map_2_to_1": [], "map_1_to_0": {}, "map_2_to_0": {}}}',
            '{"ingredients": [{"id": "a", "kind": "retrieval", "doc_id": "d"}], "layers": '
            '{"layer2": [], "layer1": [], "map_2_to_1": {}, "map_1_to_0": {"f": 1}, '
            '"map_2_to_0": {}}}',
            "[" * 100_000,
        ],
        ids=[
            "pattern-int", "id-int", "kind-list", "flag-str", "doc-object",
            "layers-list", "layer2-int", "map-list", "map-targets-int", "deep-nesting",
        ],
    )
    def test_malformed_values_are_format_errors(self, tmp_path, text):
        # each of these crashed with a TypeError, AttributeError or
        # RecursionError instead of a located format error
        path = tmp_path / "identity.json"
        path.write_text(text)
        with pytest.raises(FileFormatError):
            load_identity_file(path)

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "identity.json"
        path.write_bytes(b'{"ingredients": ["\xff"]}')
        with pytest.raises(FileFormatError, match="not UTF-8"):
            load_identity_file(path)

    @pytest.mark.parametrize(
        "record, spec",
        [
            ('{"id": "a", "kind": "context", "context_pattern": ["x"]}',
             IngredientSpec("a", "context", context_pattern=("x",))),
            (RECORD, IngredientSpec("a", "policy", flag_index=0)),
        ],
        ids=["context", "policy"],
    )
    def test_one_record_line_delimited_file(self, tmp_path, record, spec):
        # an object with a "kind" is a record, not an identity document
        path = tmp_path / "identity.jsonl"
        path.write_text(f"\n{record}\n\n")
        assert load_identity_file(path) == (GroundedIdentity((spec,)), None)

    def test_one_record_faults_name_its_line(self, tmp_path):
        path = tmp_path / "identity.jsonl"
        path.write_text('\n{"id": "a", "kind": "policy"}\n')
        with pytest.raises(FileFormatError) as info:
            load_identity_file(path)
        assert str(info.value) == f"{path}:2: missing fields ['flag_index']"

    @pytest.mark.parametrize("blank_lines", [0, 2])
    def test_document_that_does_not_decode_names_the_faulty_line(self, tmp_path, blank_lines):
        # the first line alone is not a record, so the document's own
        # decode error is reported, at the line where it stopped; leading
        # blank lines count
        path = tmp_path / "doc.json"
        path.write_text(
            "\n" * blank_lines
            + '{\n  "ingredients": [\n    {"id": "a", "kind": "context", "context_pattern": ["x"]},\n'
            '    {"id": "b", "kind": "policy" "flag_index": 0}\n  ]\n}\n'
        )
        line = 4 + blank_lines
        with pytest.raises(FileFormatError) as info:
            load_identity_file(path)
        assert str(info.value).startswith(
            f"{path}:{line}: invalid JSON: Expecting ',' delimiter: line {line} column 34"
        )

    def test_bad_later_record_keeps_its_own_line(self, tmp_path):
        path = tmp_path / "identity.jsonl"
        path.write_text(f'{RECORD}\n\n{{"id": "b", "kind"\n')
        with pytest.raises(FileFormatError, match=r"identity\.jsonl:3: invalid JSON: .*line 1 column"):
            load_identity_file(path)

    def test_each_jsonl_line_is_decoded_once(self, tmp_path, monkeypatch):
        lines = ["", RECORD, "  ", RECORD_B, "", '{"id": "c", "kind": "retrieval", "doc_id": "d"}']
        path = tmp_path / "identity.jsonl"
        path.write_text("\n".join(lines) + "\n")
        decoded = []
        load_json = identity_module.load_json
        monkeypatch.setattr(
            identity_module, "load_json", lambda text, *args: decoded.append(text) or load_json(text, *args)
        )
        identity, layers = load_identity_file(path)
        assert identity.k == 3 and layers is None
        assert all("\n" not in text for text in decoded)
        assert sorted(decoded) == sorted(line for line in lines if line.strip())


_TEXT = st.text(max_size=6)
_INGREDIENT_FIELDS = {
    "context": st.fixed_dictionaries({"context_pattern": st.lists(_TEXT, min_size=1, max_size=3)}),
    "memory": st.fixed_dictionaries({"memory_key": _TEXT, "memory_value": _TEXT}),
    "policy": st.fixed_dictionaries({"flag_index": st.integers(0, 2**40)}),
    "retrieval": st.fixed_dictionaries({"doc_id": _TEXT}),
}


@st.composite
def identities(draw):
    """An identity of 1 to 5 ingredients of any kind, and layer maps over it
    or ``None``."""
    ids = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=5, unique=True))
    ingredients = []
    for ingredient_id in ids:
        kind = draw(st.sampled_from(sorted(_INGREDIENT_FIELDS)))
        ingredients.append(IngredientSpec(ingredient_id, kind, **draw(_INGREDIENT_FIELDS[kind])))
    identity = GroundedIdentity(tuple(ingredients))
    if not draw(st.booleans()):
        return identity, None
    labels = st.lists(_TEXT, max_size=3, unique=True)
    layer2, layer1 = draw(labels), draw(labels)

    def label_map(sources, targets):
        return draw(st.dictionaries(
            st.sampled_from(sources) if sources else st.nothing(),
            st.frozensets(st.sampled_from(targets)) if targets else st.just(frozenset()),
            max_size=len(sources),
        ))

    return identity, LayeredIdentitySpec(
        layer2, layer1, label_map(layer2, layer1), label_map(layer1, ids), label_map(layer2, ids)
    )


@given(
    spec=identities(),
    indent=st.sampled_from([None, 0, 2]),
    blanks=st.lists(st.sampled_from(["", "  ", "\t"]), max_size=8),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_written_identities_load_back_equal(spec, indent, blanks, data):
    """Every identity ``identity_to_document`` writes loads back equal: as a
    document on one line or indented, with or without layers, and, without
    layers, as JSONL of its records with blank lines anywhere."""
    identity, layers = spec
    doc = identity_to_document(identity, layers)
    texts = [json.dumps(doc, indent=indent) + "\n"]
    if layers is None:
        lines = [json.dumps(record) for record in doc["ingredients"]]
        for blank in blanks:
            lines.insert(data.draw(st.integers(0, len(lines))), blank)
        texts.append("\n".join(lines))
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "identity.json"
        for text in texts:
            path.write_text(text, encoding="utf-8")
            assert load_identity_file(path) == (identity, layers)


@given(
    st.sets(st.sampled_from([f"g{i}" for i in range(6)])),
    st.sets(st.sampled_from([f"g{i}" for i in range(6)])),
)
@settings(max_examples=200)
def test_distance_is_bounded_and_symmetric(a, b):
    x = ActivationSet(step_index=0, active=frozenset(a))
    y = ActivationSet(step_index=1, active=frozenset(b))
    d = state_distance(x, y, 6)
    assert 0.0 <= d <= 1.0
    assert d == state_distance(y, x, 6)
