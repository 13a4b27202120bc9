"""Deterministic scaffold simulator.

The transition function applies one action (inference, retrieval, memory
write, tool call) to a scaffold state under an architecture preset.  Context
is a bounded token window with oldest-first eviction of non-pinned tokens;
that single mechanism is what realizes displacement effects.

Five presets ladder up the feature set:

========== ======= ========= ====== ===== ===============
name       pinned  retrieval memory flags state persists
========== ======= ========= ====== ===== ===============
stateless  no      no        no     no    no (prompt only)
prompted   yes     no        no     no    yes
rag        no      yes       no     no    yes
memory     no      yes       yes    no    yes
controller yes     yes       yes    yes   yes
========== ======= ========= ====== ===== ===============

The scenario generators at the bottom build the exact trace shapes that the
architectural results call for, together with the window configuration under
which the claimed inequality is visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from .errors import (
    CapacityError,
    FeatureError,
    ParameterError,
    ScenarioError,
    StructuralError,
)
from .identity import GroundedIdentity, IngredientSpec, is_flag
from .sets import (
    ActivationSet,
    PersistenceResult,
    ScaffoldArchitecture,
    ScaffoldState,
    _built,
    activation_sets,
    persistence,
)
from .windows import WindowConfig

# Per action kind: the payload fields it must set and those it may also set,
# then the preset property it needs, if any, and the module a refusal names.
_ACTION_RULES = {
    "infer": ({"tokens"}, set(), None, None),
    "retrieve": ({"query"}, set(), None, None),
    "store": ({"key", "value"}, set(), "memory_enabled", "memory module"),
    "tool": (set(), {"flag_index"}, "controller_flags_enabled", "controller flags"),
}
_PAYLOAD_FIELDS = ("tokens", "query", "key", "value", "flag_index")

ACTION_KINDS = tuple(_ACTION_RULES)

# What each preset name implies:
# (memory_enabled, controller_flags_enabled, context_persists).
_PRESET_FEATURES = {
    "stateless": (False, False, False),
    "prompted": (False, False, True),
    "rag": (False, False, True),
    "memory": (True, False, True),
    "controller": (True, True, True),
}

PRESET_NAMES = tuple(_PRESET_FEATURES)


@dataclass(frozen=True)
class Action:
    """One scaffold micro-step: what the agent does between two states.

    Its payload is checked here, so a step puts into a state only values
    that a checked state, action or preset already holds.
    """

    kind: str
    tokens: tuple[str, ...] | None = None
    query: str | None = None
    key: str | None = None
    value: str | None = None
    flag_index: int | None = None
    flag_value: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ACTION_KINDS:
            raise StructuralError(f"unknown action kind {self.kind!r}")
        if self.tokens is not None:
            object.__setattr__(self, "tokens", tuple(self.tokens))
        required, optional, _, _ = _ACTION_RULES[self.kind]
        actual = {name for name in _PAYLOAD_FIELDS if getattr(self, name) is not None}
        if not required <= actual <= required | optional:
            raise StructuralError(f"payload does not match action kind {self.kind!r}")
        texts = [getattr(self, name) for name in actual & {"query", "key", "value"}]
        if not all(map(str.__instancecheck__, (*(self.tokens or ()), *texts))):
            raise StructuralError("tokens, query, key and value must be strings")
        if "flag_index" in actual and type(self.flag_index) is not int:
            raise StructuralError("flag_index must be an integer")
        if not is_flag(self.flag_value):
            raise StructuralError("flag_value must be the integer 0 or 1")


def infer(*tokens: str) -> Action:
    return Action(kind="infer", tokens=tuple(tokens))


def retrieve(query: str) -> Action:
    return Action(kind="retrieve", query=query)


def store(key: str, value: str) -> Action:
    return Action(kind="store", key=key, value=value)


def tool(flag_index: int | None = None, flag_value: int = 1) -> Action:
    """Tool call; with no flag index it is a pure no-op step."""
    return Action(kind="tool", flag_index=flag_index, flag_value=flag_value)


@dataclass(frozen=True)
class RetrievalPolicy:
    """Deterministic retrieval: query -> documents, plus injected token counts.

    ``identity_aware`` resolves an ingredient id to its designated document
    (and falls back to direct corpus lookup); ``query_driven`` resolves only
    direct corpus lookups; ``none`` retrieves nothing.

    A document linked to an ingredient injects that ingredient's id as its
    first token, so retrieving it activates a single-token context pattern
    equal to the ingredient id (and any retrieval-kind ingredient on the
    document itself).
    """

    mode: str
    ingredient_docs: Mapping[str, str] = field(default_factory=dict)
    injected_doc_lengths: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in ("none", "identity_aware", "query_driven"):
            raise StructuralError(f"unknown retrieval mode {self.mode!r}")
        object.__setattr__(self, "ingredient_docs", dict(self.ingredient_docs))
        object.__setattr__(self, "injected_doc_lengths", dict(self.injected_doc_lengths))
        docs = self.ingredient_docs
        ids = (*docs, *docs.values(), *self.injected_doc_lengths)
        if not all(map(str.__instancecheck__, ids)):
            raise StructuralError("ingredient and document ids must be strings")
        for doc, length in self.injected_doc_lengths.items():
            if type(length) is not int:
                raise StructuralError(f"document {doc!r} has a length that is not an integer")
            if length < 0:
                raise StructuralError(f"document {doc!r} has negative length")
        missing = set(self.ingredient_docs.values()) - set(self.injected_doc_lengths)
        if missing:
            raise StructuralError(
                f"ingredient documents without declared lengths: {sorted(missing)}"
            )

    @property
    def corpus(self) -> frozenset[str]:
        return frozenset(self.injected_doc_lengths)

    def resolve(self, query: str) -> tuple[str, ...]:
        if self.mode == "none":
            return ()
        if self.mode == "identity_aware" and query in self.ingredient_docs:
            return (self.ingredient_docs[query],)
        if query in self.injected_doc_lengths:
            return (query,)
        return ()

    def doc_tokens(self, doc_id: str) -> tuple[str, ...]:
        length = self.injected_doc_lengths[doc_id]
        linked = sorted(ing for ing, doc in self.ingredient_docs.items() if doc == doc_id)
        tokens: list[str] = []
        if linked and length > 0:
            tokens.append(linked[0])
        while len(tokens) < length:
            tokens.append(f"{doc_id}/{len(tokens)}")
        return tuple(tokens)

    def validate_covers(self, identity: GroundedIdentity) -> None:
        """Identity-aware policies must be able to activate every ingredient."""
        for spec in identity.ingredients:
            doc = self.ingredient_docs.get(spec.ingredient_id)
            if doc is None:
                raise StructuralError(
                    f"identity-aware policy has no document for ingredient "
                    f"{spec.ingredient_id!r}"
                )
            if spec.kind in ("memory", "policy"):
                raise StructuralError(
                    f"no document can activate the {spec.kind}-kind ingredient "
                    f"{spec.ingredient_id!r}"
                )
            if spec.kind == "context":
                if spec.context_pattern != (spec.ingredient_id,):
                    raise StructuralError(
                        f"identity-aware documents inject the ingredient id as a "
                        f"token; context ingredient {spec.ingredient_id!r} must use "
                        f"the pattern ({spec.ingredient_id!r},)"
                    )
                if self.injected_doc_lengths[doc] < 1:
                    raise StructuralError(
                        f"document {doc!r} is too short to carry ingredient "
                        f"{spec.ingredient_id!r}"
                    )
            if spec.kind == "retrieval" and spec.doc_id != doc:
                raise StructuralError(
                    f"retrieval ingredient {spec.ingredient_id!r} expects document "
                    f"{spec.doc_id!r} but the policy injects {doc!r}"
                )


POLICY_NONE = RetrievalPolicy(mode="none")


@dataclass(frozen=True)
class ArchitecturePreset:
    """Feature configuration of one scaffold architecture.

    The name fixes which modules the scaffold has (``memory_enabled``,
    ``controller_flags_enabled``, ``context_persists``).  Eviction is always
    oldest-first over non-pinned tokens.
    """

    name: str
    context_capacity: int
    pinned_prefix: tuple[str, ...] = ()
    retrieval: RetrievalPolicy = POLICY_NONE
    n_policy_flags: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "pinned_prefix", tuple(self.pinned_prefix))
        if self.name not in _PRESET_FEATURES:
            raise StructuralError(f"unknown preset name {self.name!r}")
        self.architecture()  # checks the capacity and the flag count
        if not all(map(str.__instancecheck__, self.pinned_prefix)):
            raise StructuralError("pinned prefix tokens must be strings")
        if len(self.pinned_prefix) > self.context_capacity:
            raise StructuralError("pinned prefix exceeds context capacity")
        # only prompted and controller pin a prefix; stateless and prompted
        # never retrieve, rag always does, memory and controller may
        pinned_ok = not self.pinned_prefix or self.name in ("prompted", "controller")
        retrieves = self.retrieval.mode != "none"
        retrieval_ok = (
            retrieves == (self.name == "rag") or self.name in ("memory", "controller")
        )
        if not pinned_ok or not retrieval_ok:
            raise StructuralError(
                f"feature set does not match the {self.name!r} preset"
            )

    @property
    def memory_enabled(self) -> bool:
        return _PRESET_FEATURES[self.name][0]

    @property
    def controller_flags_enabled(self) -> bool:
        return _PRESET_FEATURES[self.name][1]

    @property
    def context_persists(self) -> bool:
        return _PRESET_FEATURES[self.name][2]

    def architecture(self) -> ScaffoldArchitecture:
        return ScaffoldArchitecture(
            n_policy_flags=self.n_policy_flags,
            context_capacity=self.context_capacity,
            corpus=self.retrieval.corpus,
        )

    def initial_state(self) -> ScaffoldState:
        # every part is a checked field of this preset or a constant
        return _built(
            ScaffoldState, self.pinned_prefix, {}, (0,) * self.n_policy_flags, frozenset(), 0
        )

    def supports(self, action: Action) -> bool:
        _, _, needed, _ = _ACTION_RULES[action.kind]
        return needed is None or getattr(self, needed)


def make_preset(
    name: str,
    context_capacity: int = 24,
    pinned_prefix: Sequence[str] = (),
    retrieval: RetrievalPolicy | None = None,
    n_policy_flags: int = 1,
) -> ArchitecturePreset:
    """Build a preset; its name fixes its feature set."""
    return ArchitecturePreset(
        name=name,
        context_capacity=context_capacity,
        pinned_prefix=tuple(pinned_prefix),
        retrieval=retrieval if retrieval is not None else POLICY_NONE,
        n_policy_flags=n_policy_flags,
    )


def _append_with_eviction(
    context: tuple[str, ...], new_tokens: tuple[str, ...], preset: ArchitecturePreset
) -> tuple[str, ...]:
    pinned = preset.pinned_prefix
    capacity = preset.context_capacity
    if len(pinned) + len(new_tokens) > capacity:
        raise CapacityError(
            f"cannot fit {len(new_tokens)} tokens next to a pinned prefix of "
            f"{len(pinned)} within capacity {capacity}"
        )
    # the newest carried tokens that still fit; with none, the new tokens'
    # own tuple is the tail
    room = capacity - len(pinned) - len(new_tokens)
    carried = context[len(pinned):][-room:] if room else ()
    return pinned + carried + new_tokens


def _carried(state: ScaffoldState, preset: ArchitecturePreset) -> ScaffoldState:
    """The state a step starts from: a prompt-only scaffold starts afresh."""
    return state if preset.context_persists else preset.initial_state()


def step(state: ScaffoldState, action: Action, preset: ArchitecturePreset) -> ScaffoldState:
    """Apply one action; deterministic in (state, action, preset).

    Only the component the action changes is built anew: the new state
    shares the carried state's flag tuple and ``retrieved`` set (both
    immutable) unless a tool call or a retrieval changes them, and holds a
    copy of its memory.  Each part comes from the carried state, the action
    or the preset, all checked when they were made, so the new state is not
    checked again.
    """
    if not preset.supports(action):
        _, _, _, module = _ACTION_RULES[action.kind]
        raise FeatureError(f"preset {preset.name!r} has no {module}")
    kept = _carried(state, preset)
    context = kept.context
    memory = dict(kept.memory)
    flags = kept.policy_flags
    retrieved = kept.retrieved

    if action.kind == "infer":
        context = _append_with_eviction(context, action.tokens, preset)
    elif action.kind == "retrieve":
        docs = preset.retrieval.resolve(action.query)
        for doc in docs:
            context = _append_with_eviction(
                context, preset.retrieval.doc_tokens(doc), preset
            )
        if docs:
            retrieved = retrieved.union(docs)
    elif action.kind == "store":
        memory[action.key] = action.value
    elif action.kind == "tool":
        if action.flag_index is not None:
            if not 0 <= action.flag_index < preset.n_policy_flags:
                raise StructuralError(
                    f"flag_index {action.flag_index} out of range for "
                    f"{preset.n_policy_flags} flags"
                )
            index = action.flag_index
            flags = flags[:index] + (action.flag_value,) + flags[index + 1:]

    return _built(ScaffoldState, context, memory, flags, retrieved, state.step_index + 1)


def _noop_step(state: ScaffoldState, preset: ArchitecturePreset) -> ScaffoldState:
    kept = _carried(state, preset)
    return _built(
        ScaffoldState, kept.context, dict(kept.memory), kept.policy_flags, kept.retrieved,
        state.step_index + 1,
    )


def run(
    preset: ArchitecturePreset,
    script: Sequence[Action],
    initial: ScaffoldState | None = None,
    skip_unsupported: bool = False,
) -> list[ScaffoldState]:
    """Fold :func:`step` over a script, returning every state incl. the initial.

    With ``skip_unsupported`` set, actions outside the preset's feature set
    (a store without memory, a tool call without controller flags) become
    plain no-op steps instead of errors; that keeps trajectories from
    different presets aligned step-for-step under a shared probe script.
    """
    if not script:
        raise ParameterError("script must be non-empty")
    if initial is None:
        initial = preset.initial_state()
    preset.architecture().check_state(initial)
    states = [initial]
    for index, action in enumerate(script):
        try:
            if skip_unsupported and not preset.supports(action):
                states.append(_noop_step(states[-1], preset))
            else:
                states.append(step(states[-1], action, preset))
        except (CapacityError, FeatureError, StructuralError) as exc:
            raise type(exc)(f"script step {index}: {exc}") from exc
    return states


# ---------------------------------------------------------------------------
# Scenario generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioFiles:
    """What one ``simulate`` scenario writes, before anything is written.

    ``traces`` maps a label to its lines, read once; the label ``""`` names the
    lone trace of a scenario, any other label ``x`` names the files
    ``<base>.x.trace.jsonl`` and the sidecar keys ``trace_x`` and
    ``expect_x``.  ``head`` sidecar fields come right after the scenario
    name; each ``tail`` section is merged into the sidecar section of that
    name, or appended when the sidecar has none.
    """

    traces: dict[str, Iterable[str]]
    identity: GroundedIdentity
    cfg: WindowConfig
    head: dict = field(default_factory=dict)
    tail: dict[str, dict] = field(default_factory=dict)


def context_identity(ids: Sequence[str]) -> GroundedIdentity:
    """One single-token context ingredient per id, matching the id itself."""
    return GroundedIdentity(
        tuple(
            IngredientSpec(ingredient_id=i, kind="context", context_pattern=(i,))
            for i in ids
        )
    )


def scenario_noncommutation() -> tuple[list[ScaffoldState], GroundedIdentity, WindowConfig]:
    """Two steps, one ingredient each: the window covers both ingredients but
    no single step holds their conjunction."""
    identity = context_identity(["p", "q"])
    preset = make_preset("prompted", context_capacity=1)
    initial = replace(preset.initial_state(), context=("p",))
    states = run(preset, [infer("q")], initial)
    cfg = WindowConfig(horizon=1, stride=1, eval_indices=(0,), horizon_max=8)
    return states, identity, cfg


def scenario_alternating(
    length: int,
) -> tuple[list[ScaffoldState], GroundedIdentity, WindowConfig]:
    """One ingredient on even steps, the other on odd steps.

    Every two-step window sees both ingredients, so weak persistence is 1,
    while the conjunction is never active at any single step.
    """
    if length < 2:
        raise ParameterError("length must be >= 2")
    identity = context_identity(["g1", "g2"])
    preset = make_preset("prompted", context_capacity=1)
    initial = replace(preset.initial_state(), context=("g1",))
    # one Action per distinct step, shared by every step that takes it
    even, odd = infer("g1"), infer("g2")
    script = [odd if u % 2 else even for u in range(1, length)]
    states = run(preset, script, initial)
    cfg = WindowConfig.all_valid(horizon=1, stride=1, trace_length=length, horizon_max=8)
    return states, identity, cfg


def scenario_capacity_limited(
    c: int, k: int, length: int
) -> tuple[list[ScaffoldState], GroundedIdentity]:
    """Rotating ``c``-subsets of ``k`` single-token ingredients under a context
    capacity of ``c`` tokens: no realizable state fits the full conjunction."""
    if c >= k:
        raise ParameterError("capacity c must be strictly less than k")
    if c < 1:
        raise ParameterError("capacity c must be >= 1")
    if length < 1:
        raise ParameterError("length must be >= 1")
    ids = [f"g{i}" for i in range(k)]
    identity = context_identity(ids)
    preset = make_preset("prompted", context_capacity=c)

    # step u holds the subset starting at u mod k: at most k distinct Actions
    actions = [
        infer(*(ids[(u + j) % k] for j in range(c))) for u in range(min(k, length))
    ]
    initial = replace(preset.initial_state(), context=actions[0].tokens)
    if length == 1:
        return [initial], identity
    script = [actions[u % k] for u in range(1, length)]
    states = run(preset, script, initial)
    return states, identity


def scenario_rag_displacement(
    baseline_block_tokens: int = 3,
    passage_tokens: int = 10,
    capacity: int = 12,
) -> tuple[list[ScaffoldState], list[ScaffoldState], GroundedIdentity, WindowConfig]:
    """Baseline run with a compact identity block vs. the same agent with
    retrieval injecting a long passage that evicts part of the block.

    Returns (trajectory_without_rag, trajectory_with_rag, identity, cfg).
    The with-retrieval run keeps every ingredient occurring in every window
    (identity-aware re-retrieval) while losing co-instantiation in at least
    one, so strong persistence strictly drops and weak persistence does not.
    """
    k = baseline_block_tokens
    if k < 2:
        raise ParameterError("the identity block needs at least two ingredients")
    if passage_tokens < 0:
        raise ParameterError("passage_tokens must be >= 0")
    script_len = 2 + k
    if k + script_len > capacity:
        raise ScenarioError(
            "capacity cannot hold the baseline run without eviction; "
            "increase capacity or shrink the identity block"
        )
    if 0 < passage_tokens <= capacity - k - 1:
        raise ScenarioError(
            "passage too short to displace the identity block; needs more than "
            f"{capacity - k - 1} tokens"
        )
    if passage_tokens + 1 > capacity:
        raise ScenarioError("passage does not fit in the context at all")

    ids = [f"i{j}" for j in range(k)]
    identity = context_identity(ids)
    block = tuple(ids)

    baseline_preset = make_preset("prompted", context_capacity=capacity)
    initial = replace(baseline_preset.initial_state(), context=block)
    baseline_script = [infer(f"task{j}") for j in range(script_len)]
    without_rag = run(baseline_preset, baseline_script, initial)

    policy = RetrievalPolicy(
        mode="identity_aware",
        ingredient_docs={i: f"d{j}" for j, i in enumerate(ids)},
        injected_doc_lengths={f"d{j}": 1 for j in range(k)} | {"passage": passage_tokens},
    )
    policy.validate_covers(identity)
    rag_preset = make_preset("rag", context_capacity=capacity, retrieval=policy)
    rag_script = [infer("task0"), retrieve("passage")] + [retrieve(i) for i in ids]
    with_rag = run(rag_preset, rag_script, initial)

    cfg = WindowConfig.all_valid(
        horizon=2, stride=1, trace_length=len(without_rag), horizon_max=16
    )

    arch_without = baseline_preset.architecture()
    arch_with = rag_preset.architecture()
    base = persistence(activation_sets(without_rag, identity, arch_without), identity, cfg)
    augmented = persistence(activation_sets(with_rag, identity, arch_with), identity, cfg)
    if passage_tokens > 0 and not augmented.p_strong < base.p_strong:
        raise ScenarioError(
            "parameters do not force displacement: strong persistence did not drop"
        )
    if augmented.p_weak < base.p_weak:
        raise ScenarioError(
            "identity-aware re-retrieval failed to preserve weak persistence"
        )
    return without_rag, with_rag, identity, cfg


def scenario_drift_recover(
    reference_ids: Iterable[str],
    drift_ids_removed: Iterable[str],
    controllable: Iterable[str],
    interventions: int,
) -> tuple[ActivationSet, ActivationSet, ActivationSet]:
    """Reference, drifted, and recovered activation sets where interventions
    can restore at most one controllable drifted ingredient per step."""
    reference = frozenset(reference_ids)
    removed = frozenset(drift_ids_removed)
    if not removed <= reference:
        raise ParameterError("drifted ingredients must be a subset of the reference")
    if interventions < 0:
        raise ParameterError("the intervention count must be >= 0")
    drifted = reference - removed
    restored = sorted(frozenset(controllable) & removed)[:interventions]
    return (
        ActivationSet(step_index=0, active=reference),
        ActivationSet(step_index=1, active=drifted),
        ActivationSet(step_index=2, active=drifted | frozenset(restored)),
    )


# ---------------------------------------------------------------------------
# Preset probe
# ---------------------------------------------------------------------------

PROBE_IDENTITY = GroundedIdentity(
    (
        IngredientSpec(ingredient_id="persona", kind="context", context_pattern=("Alice",)),
        IngredientSpec(ingredient_id="charter", kind="retrieval", doc_id="charter"),
    )
)

_PROBE_POLICY = RetrievalPolicy(
    mode="query_driven", injected_doc_lengths={"charter": 2}
)

_PROBE_CAPACITY = 8

_JUNK = tuple(f"task{j}" for j in range(7))


def probe_script(cycles: int = 6) -> list[Action]:
    """Fixed probe: restate the persona, do filler work, retrieve the charter,
    write a note, set a flag, do more filler work; repeat."""
    if cycles < 1:
        raise ParameterError("cycles must be >= 1")
    cycle = [
        infer("I", "am", "Alice"),
        infer(*_JUNK),
        retrieve("charter"),
        store("note", "seen"),
        tool(0),
        infer(*_JUNK),
    ]
    return cycle * cycles


def probe_presets() -> dict[str, ArchitecturePreset]:
    return {
        "stateless": make_preset("stateless", context_capacity=_PROBE_CAPACITY),
        "prompted": make_preset(
            "prompted", context_capacity=_PROBE_CAPACITY, pinned_prefix=("Alice",)
        ),
        "rag": make_preset(
            "rag", context_capacity=_PROBE_CAPACITY, retrieval=_PROBE_POLICY
        ),
        "memory": make_preset(
            "memory", context_capacity=_PROBE_CAPACITY, retrieval=_PROBE_POLICY
        ),
        "controller": make_preset(
            "controller",
            context_capacity=_PROBE_CAPACITY,
            pinned_prefix=("Alice",),
            retrieval=_PROBE_POLICY,
        ),
    }


def probe_window(trace_length: int) -> WindowConfig:
    """The probe's windows: horizon 1 at every layer time, gap search to 8."""
    return WindowConfig.all_valid(
        horizon=1, stride=1, trace_length=trace_length, horizon_max=8
    )


def preset_probe(cycles: int = 6) -> dict[str, PersistenceResult]:
    """Run the fixed probe script under every preset and score persistence.

    Unsupported actions run as no-op steps so that all five trajectories
    stay aligned on the same objective time axis.
    """
    script = probe_script(cycles)
    results = {}
    cfg = probe_window(len(script) + 1)
    for name, preset in probe_presets().items():
        states = run(preset, script, skip_unsupported=True)
        activations = activation_sets(states, PROBE_IDENTITY, preset.architecture())
        results[name] = persistence(activations, PROBE_IDENTITY, cfg)
    return results
