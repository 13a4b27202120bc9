"""Every value class of the package against real frozen dataclasses.

Each class derives from ``errors.Frozen`` instead of being a dataclass.  For
each one, a reference is built with ``dataclasses.make_dataclass`` from the
same annotations, defaults and ``__post_init__``, and the two must agree on
``repr``, equality, hashing, the arguments they refuse, immutability,
``replace`` and every error their ``__post_init__`` raises.  Each class
holds its fields in slots, and its instances pickle and copy.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import inspect
import math
import pickle
import sys
import textwrap
from itertools import product

import pytest

from tracebind.errors import Frozen, ParameterError, StructuralError, replace
from tracebind.identity import GroundedIdentity, IngredientSpec, LayeredIdentitySpec
from tracebind.metrics import GapResult, MetricParams, MetricsReport, MorphospacePoint
from tracebind.sets import (
    ActivationSet,
    PersistenceResult,
    ScaffoldArchitecture,
    ScaffoldState,
    TraceData,
    WindowSegment,
)
from tracebind.simulator import Action, ArchitecturePreset, RetrievalPolicy, ScenarioFiles
from tracebind.windows import WindowConfig

CONTEXT = IngredientSpec("a", "context", context_pattern=("x", "y"))
MEMORY = IngredientSpec("b", "memory", memory_key="k", memory_value="v")
POLICY = IngredientSpec("c", "policy", flag_index=2)
RETRIEVAL = IngredientSpec("d", "retrieval", doc_id="doc")
GAP = GapResult(1.5, 2)
ACTS = (ActivationSet(1, {"a"}), ActivationSet(2, ()))
STATE = ScaffoldState(("a",), {"k": "v"}, (0, 1), ("d",), 3)
QUERIED = RetrievalPolicy("query_driven", injected_doc_lengths={"d": 2})
WINDOW = WindowConfig(1, 1, range(2))


def report(**changes) -> dict:
    fields = dict(
        p_weak=1.0, p_strong=0.5, gap=GAP, continuity_mean=0.75, identifiability_rate=0.25,
        consistency=None, recovery=None, params=MetricParams(), horizon_max=256, ref_index=0,
        window_delta=1, window_stride=1, t_count=4,
    )
    return {**fields, **changes}


# each class, with the keyword arguments of a few valid instances
VALID = {
    IngredientSpec: [
        dict(ingredient_id="a", kind="context", context_pattern=["x", "y"]),
        dict(ingredient_id="a", kind="context", context_pattern=("x",)),
        dict(ingredient_id="b", kind="memory", memory_key="k", memory_value="v"),
        dict(ingredient_id="c", kind="policy", flag_index=2),
        dict(ingredient_id="d", kind="retrieval", doc_id="doc"),
    ],
    GroundedIdentity: [
        dict(ingredients=[CONTEXT, MEMORY]),
        dict(ingredients=(CONTEXT, MEMORY)),
        dict(ingredients=(POLICY, RETRIEVAL, CONTEXT)),
    ],
    LayeredIdentitySpec: [
        dict(
            layer2_statements=["n"], layer1_statements=("f",), map_2_to_1={"n": ["f"]},
            map_1_to_0={"f": {"a"}}, map_2_to_0={"n": frozenset({"a"})},
        ),
        dict(
            layer2_statements=(), layer1_statements=(), map_2_to_1={}, map_1_to_0={},
            map_2_to_0={},
        ),
    ],
    GapResult: [
        dict(ratio=1.5, undefined_count=2),
        dict(ratio=1.5, undefined_count=2, per_t=()),
        dict(ratio=math.inf, undefined_count=0, per_t=((0, 1, math.inf), (1, 0, 0))),
    ],
    MorphospacePoint: [
        dict(coherence=0.5, availability=0.75, binding=0.25, alpha=0.5),
        dict(coherence=0.0, availability=1.0, binding=1.0, alpha=1.0),
    ],
    MetricParams: [dict(), dict(delta_i=0.25), dict(delta_cons=0.1, alpha=1.0), dict(epsilon=2.0)],
    MetricsReport: [report(), report(consistency=0.5, recovery=1.0), report(t_count=5)],
    WindowConfig: [
        dict(horizon=1, stride=1, eval_indices=range(3)),
        dict(horizon=1, stride=1, eval_indices=[2, 0, 1, 1]),
        dict(horizon=2, stride=3, eval_indices=(0, 4), horizon_max=8),
    ],
    ScaffoldArchitecture: [
        dict(n_policy_flags=1, context_capacity=2),
        dict(n_policy_flags=0, context_capacity=1, corpus={"d"}),
        dict(n_policy_flags=2, context_capacity=4, corpus=["d", "e"]),
    ],
    ScaffoldState: [
        dict(context=("a",), memory={"k": "v"}, policy_flags=(0, 1), retrieved=("d",), step_index=3),
        dict(context=["a", "b"], memory={}, policy_flags=[1], retrieved=frozenset(), step_index=0),
    ],
    ActivationSet: [dict(step_index=0, active={"a"}), dict(step_index=2, active=frozenset())],
    WindowSegment: [dict(start=1, activation_sets=list(ACTS)), dict(start=2, activation_sets=ACTS[1:])],
    PersistenceResult: [
        dict(p_weak=1.0, p_strong=0.5, per_window=((0, True, False), (1, True, True))),
        dict(p_weak=0.0, p_strong=0.0, per_window=()),
    ],
    TraceData: [
        dict(form="activation", activations=ACTS),
        dict(form="state", states=(STATE,)),
        dict(form="activation"),
    ],
    Action: [
        dict(kind="infer", tokens=["x", "y"]),
        dict(kind="retrieve", query="q"),
        dict(kind="store", key="k", value="v"),
        dict(kind="tool", flag_index=0, flag_value=0),
        dict(kind="tool"),
    ],
    RetrievalPolicy: [
        dict(mode="none"),
        dict(mode="query_driven", injected_doc_lengths={"d": 2}),
        dict(mode="identity_aware", ingredient_docs={"a": "d"}, injected_doc_lengths={"d": 1}),
    ],
    ArchitecturePreset: [
        dict(name="prompted", context_capacity=2, pinned_prefix=["p"]),
        dict(name="rag", context_capacity=4, retrieval=QUERIED),
        dict(name="controller", context_capacity=3, n_policy_flags=2),
    ],
    ScenarioFiles: [
        dict(traces={"": ["{}"]}, identity=GroundedIdentity((CONTEXT,)), cfg=WINDOW),
        dict(traces={"a": ("x",)}, identity=GroundedIdentity((MEMORY,)), cfg=WINDOW,
             head={"preset": "rag"}, tail={"expect": {"p_weak": "1"}}),
    ],
}

# each __post_init__ error: the class, its keyword arguments, the error
RAISES = [
    (IngredientSpec, dict(ingredient_id="a", kind="mood"), StructuralError, "unknown ingredient kind 'mood'"),
    (IngredientSpec, dict(ingredient_id=1, kind="policy", flag_index=0), StructuralError,
     "ingredient_id must be a string"),
    (IngredientSpec, dict(ingredient_id="", kind="policy", flag_index=0), StructuralError,
     "ingredient_id must be non-empty"),
    (IngredientSpec, dict(ingredient_id="a", kind="context", context_pattern="xy"), StructuralError,
     "context_pattern must be a sequence of tokens"),
    (IngredientSpec, dict(ingredient_id="a", kind="context"), StructuralError,
     "ingredient 'a' of kind 'context' must set exactly ['context_pattern'], got []"),
    (IngredientSpec, dict(ingredient_id="a", kind="context", context_pattern=()), StructuralError,
     "context_pattern must be non-empty"),
    (IngredientSpec, dict(ingredient_id="a", kind="context", context_pattern=("x", 1)),
     StructuralError, "context_pattern entries must be strings"),
    (IngredientSpec, dict(ingredient_id="a", kind="memory", memory_key="k", memory_value=1),
     StructuralError, "memory_key and memory_value must be strings"),
    (IngredientSpec, dict(ingredient_id="a", kind="policy", flag_index=True), StructuralError,
     "flag_index must be an integer"),
    (IngredientSpec, dict(ingredient_id="a", kind="policy", flag_index=-1), StructuralError,
     "flag_index must be >= 0"),
    (IngredientSpec, dict(ingredient_id="a", kind="retrieval", doc_id=3), StructuralError,
     "doc_id must be a string"),
    (GroundedIdentity, dict(ingredients=[]), StructuralError, "an identity needs at least one ingredient"),
    (GroundedIdentity, dict(ingredients=[CONTEXT, CONTEXT]), StructuralError,
     "ingredient ids must be pairwise distinct; 'a' repeats"),
    (LayeredIdentitySpec,
     dict(layer2_statements=["n"], layer1_statements=[], map_2_to_1={"n": ["f"]}, map_1_to_0={},
          map_2_to_0={}),
     StructuralError, "map_2_to_1['n'] references undeclared layer-1 labels ['f']"),
    (MorphospacePoint, dict(coherence=0.5, availability=0.25, binding=0.5, alpha=0.5),
     StructuralError,
     "binding cannot exceed availability; the scores were not computed from one persistence run"),
    (MetricParams, dict(delta_i=1.5), ParameterError, "delta_i must be in [0, 1]"),
    (MetricParams, dict(delta_cons=-0.1), ParameterError, "delta_cons must be in [0, 1]"),
    (MetricParams, dict(epsilon=0.0), ParameterError, "epsilon must be finite and > 0"),
    (MetricParams, dict(epsilon=math.inf), ParameterError, "epsilon must be finite and > 0"),
    (MetricParams, dict(alpha=math.nan), ParameterError, "alpha must be in [0, 1]"),
    (WindowConfig, dict(horizon=-1, stride=1, eval_indices=[0]), ParameterError, "horizon must be >= 0"),
    (WindowConfig, dict(horizon=0, stride=0, eval_indices=[0]), ParameterError, "stride must be >= 1"),
    (WindowConfig, dict(horizon=0, stride=1, eval_indices=[0], horizon_max=-1), ParameterError,
     "horizon_max must be >= 0"),
    (WindowConfig, dict(horizon=0, stride=1, eval_indices=[3, -1]), ParameterError,
     "evaluation indices must be >= 0"),
    (ScaffoldArchitecture, dict(n_policy_flags=0, context_capacity=0), StructuralError,
     "context_capacity must be >= 1"),
    (ScaffoldState, dict(context=(), memory={}, policy_flags=(2,), retrieved=(), step_index=0),
     StructuralError, "policy flags must be the integers 0 or 1"),
    (ActivationSet, dict(step_index=-1, active=()), StructuralError, "step_index must be >= 0"),
    (WindowSegment, dict(start=0, activation_sets=ACTS), StructuralError,
     "segment steps must be consecutive from 0; found step 1 at offset 0"),
    (Action, dict(kind="store", key="k"), StructuralError, "payload does not match action kind 'store'"),
    (RetrievalPolicy, dict(mode="identity_aware", ingredient_docs={"a": "d"}), StructuralError,
     "ingredient documents without declared lengths: ['d']"),
    (ArchitecturePreset, dict(name="rag", context_capacity=2), StructuralError,
     "feature set does not match the 'rag' preset"),
]


def reference(cls: type) -> type:
    """A frozen dataclass with ``cls``'s name, fields, defaults, ``__post_init__``
    and the methods it calls; an unhashable default, which a dataclass refuses
    as mutable, comes from a factory."""

    def default(value):
        if type(value).__hash__ is None:
            return dataclasses.field(default_factory=lambda: value)
        return dataclasses.field(default=value)

    annotations = cls.__dict__["__annotations__"]
    fields = [
        (name, kind, default(cls._defaults[name])) if name in cls._defaults else (name, kind)
        for name, kind in annotations.items()
    ]
    skipped = {*cls._fields, "__slots__", "__reduce__", "_fields", "_defaults"}
    namespace = {name: value for name, value in vars(cls).items() if name not in skipped}
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, namespace=namespace)


def declared_defaults(cls: type) -> dict:
    """The defaults that ``cls``'s body assigns to its fields, read from its source."""
    body = ast.parse(textwrap.dedent(inspect.getsource(cls))).body[0].body
    namespace = vars(sys.modules[cls.__module__])
    return {
        node.target.id: eval(ast.unparse(node.value), namespace)
        for node in body
        if isinstance(node, ast.AnnAssign) and node.value is not None
    }


REFERENCES = {cls: reference(cls) for cls in VALID}
CLASSES = [pytest.param(cls, id=cls.__name__) for cls in VALID]


# each mapping field, by a call that gives it one value
MAPPING_FIELDS = {
    "memory": lambda value: ScaffoldState((), value, (), (), 0),
    "ingredient_docs": lambda value: RetrievalPolicy("none", ingredient_docs=value),
    "injected_doc_lengths": lambda value: RetrievalPolicy("none", injected_doc_lengths=value),
    "map_2_to_1": lambda value: LayeredIdentitySpec((), (), value, {}, {}),
    "map_1_to_0": lambda value: LayeredIdentitySpec((), (), {}, value, {}),
    "map_2_to_0": lambda value: LayeredIdentitySpec((), (), {}, {}, value),
    "head": lambda value: ScenarioFiles({}, GroundedIdentity((CONTEXT,)), WINDOW, head=value),
    "tail": lambda value: ScenarioFiles({}, GroundedIdentity((CONTEXT,)), WINDOW, tail=value),
}


def outcome(call):
    try:
        return "ok", call()
    except Exception as exc:
        return type(exc), str(exc)


def test_every_value_class_is_covered():
    assert all(issubclass(cls, Frozen) and not dataclasses.is_dataclass(cls) for cls in VALID)
    assert {cls.__module__ for cls in VALID} == {
        "tracebind.identity", "tracebind.metrics", "tracebind.windows", "tracebind.sets",
        "tracebind.simulator",
    }
    assert len(VALID) == 18
    assert set(Frozen.__subclasses__()) == set(VALID)


@pytest.mark.parametrize("cls", CLASSES)
def test_fields_and_defaults_are_the_dataclass_ones(cls):
    ref = REFERENCES[cls]
    assert cls._fields == tuple(f.name for f in dataclasses.fields(ref))
    assert cls._defaults == declared_defaults(cls)
    assert {name for name in cls._fields if name in cls._defaults} == {
        f.name for f in dataclasses.fields(ref)
        if (f.default, f.default_factory) != (dataclasses.MISSING, dataclasses.MISSING)
    }


@pytest.mark.parametrize("cls", CLASSES)
def test_fields_are_slots_and_no_instance_has_a_dict(cls):
    assert cls.__slots__ == cls._fields and Frozen.__slots__ == ()
    assert not any(hasattr(cls(**kwargs), "__dict__") for kwargs in VALID[cls])


@pytest.mark.parametrize("cls", CLASSES)
def test_instances_pickle_and_copy(cls):
    for value in (cls(**kwargs) for kwargs in VALID[cls]):
        for made in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(made) is cls and repr(made) == repr(value) and made == value


@pytest.mark.parametrize("cls", CLASSES)
def test_replace_is_the_dataclass_replace(cls):
    ref, other = REFERENCES[cls], VALID[cls][-1]
    for kwargs in VALID[cls]:
        ours, theirs = cls(**kwargs), ref(**kwargs)
        for name in cls._fields:
            change = {name: getattr(cls(**other), name)}
            assert outcome(lambda: repr(replace(ours, **change))) == outcome(
                lambda: repr(dataclasses.replace(theirs, **change))
            )
        assert replace(ours) == ours and replace(ours) is not ours
        for made, replaced in ((ours, replace), (theirs, dataclasses.replace)):
            with pytest.raises(TypeError):
                replaced(made, no_such_field=1)


@pytest.mark.parametrize("cls", CLASSES)
def test_repr_equality_and_hash_match_the_dataclass(cls):
    ref = REFERENCES[cls]
    ours = [cls(**kwargs) for kwargs in VALID[cls]]
    theirs = [ref(**kwargs) for kwargs in VALID[cls]]
    for a, b in zip(ours, theirs):
        assert repr(a) == repr(b)
        assert outcome(lambda: hash(a)) == outcome(lambda: hash(b))
        assert a != b and b != a  # another class is never equal
    for (a, b), (c, d) in zip(product(ours, ours), product(theirs, theirs)):
        assert (a == b, a != b) == (c == d, c != d)
    # positional arguments fill the fields in order
    for a, kwargs in zip(ours, VALID[cls]):
        assert cls(*(kwargs.get(name, cls._defaults.get(name)) for name in cls._fields)) == a


@pytest.mark.parametrize("cls", CLASSES)
def test_refused_arguments_are_type_errors(cls):
    ref = REFERENCES[cls]
    kwargs = VALID[cls][0]
    first = cls._fields[0]
    full = {name: getattr(cls(**kwargs), name) for name in cls._fields}
    calls = [
        ((), {"no_such_field": 1, **kwargs}),  # unknown
        ((full[first],), {**kwargs, first: full[first]}),  # repeated
        ((*full.values(), 0), {}),  # extra
    ]
    if len(cls._defaults) < len(cls._fields):
        calls.append(((), {}))  # missing
    for args, keywords in calls:
        for made in (cls, ref):
            with pytest.raises(TypeError):
                made(*args, **keywords)


@pytest.mark.parametrize("cls", CLASSES)
def test_instances_are_immutable(cls):
    ref = REFERENCES[cls]
    for made in (cls, ref):
        value = made(**VALID[cls][0])
        for name in (cls._fields[0], "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert made(**VALID[cls][0]) == value


@pytest.mark.parametrize("value", ["ab", [("k", "v")], 5], ids=["str", "pairs", "int"])
@pytest.mark.parametrize("name", MAPPING_FIELDS)
def test_mapping_fields_refuse_non_mappings(name, value):
    assert outcome(lambda: MAPPING_FIELDS[name](value)) == (
        StructuralError, f"{name} must be a mapping, not {type(value).__name__}"
    )
    assert outcome(lambda: MAPPING_FIELDS[name]({})) == ("ok", MAPPING_FIELDS[name]({}))


def test_equality_with_another_type_is_not_implemented():
    assert GAP.__eq__((1.5, 2, ())) is NotImplemented
    assert GAP != (1.5, 2, ())


@pytest.mark.parametrize(
    "cls, kwargs, error, message", [pytest.param(*case, id=case[3][:40]) for case in RAISES]
)
def test_post_init_errors_fire_with_their_messages(cls, kwargs, error, message):
    assert outcome(lambda: cls(**kwargs)) == (error, message)
    assert outcome(lambda: REFERENCES[cls](**kwargs)) == (error, message)
