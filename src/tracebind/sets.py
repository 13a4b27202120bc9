"""The object-level API: scaffold states, activation sets, window segments.

Each function here takes these objects, encodes them to step masks and runs
the mask path that the commands run.  ``analyze`` and ``probe`` never load
this module; ``simulate``, the oracle and library callers do.  Import each
name from here; the package serves the public ones on first use.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import OutOfRangeError, ParameterError, StreamOrderError, StructuralError
from .identity import (
    GroundedIdentity,
    IngredientSpec,
    LayeredIdentitySpec,
    ground,
    ingredient_bits,
    is_flag,
    state_matcher,
)
from .metrics import GapResult, _starts, changed_bits, counted_gap
from .trace import _checked_records, _mask_encoder
from .windows import INFINITE, WindowConfig, start_horizons


# Scaffold states and activation sets


@dataclass(frozen=True)
class ScaffoldArchitecture:
    """Static description of a scaffold: capacities and component spaces."""

    n_policy_flags: int
    context_capacity: int
    corpus: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if type(self.context_capacity) is not int or type(self.n_policy_flags) is not int:
            raise StructuralError("context_capacity and n_policy_flags must be integers")
        if self.context_capacity < 1:
            raise StructuralError("context_capacity must be >= 1")
        if self.n_policy_flags < 0:
            raise StructuralError("n_policy_flags must be >= 0")
        object.__setattr__(self, "corpus", frozenset(self.corpus))

    def check_state(self, state: ScaffoldState) -> None:
        """Raise StructuralError if ``state`` is not realizable here."""
        if len(state.context) > self.context_capacity:
            raise StructuralError(
                f"context length {len(state.context)} exceeds capacity "
                f"{self.context_capacity}"
            )
        if len(state.policy_flags) != self.n_policy_flags:
            raise StructuralError(
                f"policy flag vector has length {len(state.policy_flags)}, "
                f"architecture declares {self.n_policy_flags}"
            )
        stray = state.retrieved - self.corpus
        if stray:
            raise StructuralError(f"retrieved documents not in corpus: {sorted(stray)}")


@dataclass(frozen=True, slots=True)
class ScaffoldState:
    """One objective-time snapshot of everything the agent can see, holding
    only values a trace line spells and reads back the same."""

    context: tuple[str, ...]
    memory: Mapping[str, str]
    policy_flags: tuple[int, ...]
    retrieved: frozenset[str]
    step_index: int

    def __post_init__(self) -> None:
        # an exact tuple or frozenset cannot change, so it is kept; memory is
        # copied, so no state shares a dict its caller may change
        if type(self.context) is not tuple:
            object.__setattr__(self, "context", tuple(self.context))
        object.__setattr__(self, "memory", memory := dict(self.memory))
        if type(self.policy_flags) is not tuple:
            object.__setattr__(self, "policy_flags", tuple(self.policy_flags))
        if type(self.retrieved) is not frozenset:
            object.__setattr__(self, "retrieved", frozenset(self.retrieved))
        if type(self.step_index) is not int:
            raise StructuralError("step_index must be an integer")
        if self.step_index < 0:
            raise StructuralError("step_index must be >= 0")
        if not all(map(is_flag, self.policy_flags)):
            raise StructuralError("policy flags must be the integers 0 or 1")
        strings = (*self.context, *memory, *memory.values(), *self.retrieved)
        if not all(map(str.__instancecheck__, strings)):
            raise StructuralError(
                "context tokens, memory keys and values, and retrieved document ids must be strings"
            )


@dataclass(frozen=True)
class ActivationSet:
    """The ingredient ids active at one objective step."""

    step_index: int
    active: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "active", frozenset(self.active))
        if type(self.step_index) is not int:
            raise StructuralError("step_index must be an integer")
        if self.step_index < 0:
            raise StructuralError("step_index must be >= 0")
        if not all(map(str.__instancecheck__, self.active)):
            raise StructuralError("active ingredient ids must be strings")


def _built(cls, *parts):
    """A ``cls`` holding ``parts``, one per field in order, with none of the
    constructor's checks run: only for parts that have passed them already.
    A state's memory is held as given, so pass a dict no other state holds."""
    obj = object.__new__(cls)
    for name, part in zip(cls.__match_args__, parts):
        object.__setattr__(obj, name, part)
    return obj


def evaluate_ingredient(
    state: ScaffoldState, spec: IngredientSpec, arch: ScaffoldArchitecture
) -> bool:
    """Decide whether one ingredient condition holds in ``state``: the
    one-ingredient case of :func:`activation_sets`."""
    return bool(activation_set(state, GroundedIdentity((spec,)), arch).active)


def activation_set(
    state: ScaffoldState, identity: GroundedIdentity, arch: ScaffoldArchitecture
) -> ActivationSet:
    """Map a state to the set of identity ingredients active in it: the
    one-state case of :func:`activation_sets`."""
    return activation_sets((state,), identity, arch)[0]


def activation_sets(
    states: Iterable[ScaffoldState],
    identity: GroundedIdentity,
    arch: ScaffoldArchitecture,
) -> list[ActivationSet]:
    """Activation sets of a whole trajectory, in step order: the
    :func:`state_matcher` mask of each state, decoded into the ids of its
    set bits.  A policy flag index outside ``arch`` or outside a state's
    flags raises :class:`StructuralError`."""
    match = state_matcher(identity, arch.n_policy_flags)
    bits = ingredient_bits(identity).items()
    result = []
    for state in states:
        flags = state.policy_flags
        try:
            mask = match(state.context, state.memory, flags, state.retrieved)
        except IndexError:
            index = next(s.flag_index for s in identity.ingredients
                         if s.kind == "policy" and s.flag_index >= len(flags))
            raise StructuralError(
                f"flag_index {index} out of range for state with {len(flags)} flags"
            ) from None
        active = frozenset(ingredient for ingredient, bit in bits if mask & bit)
        result.append(ActivationSet(step_index=state.step_index, active=active))
    return result


def state_distance(a: ActivationSet, b: ActivationSet, k: int) -> float:
    """Normalized symmetric-difference distance ``|a ^ b| / k`` in [0, 1]."""
    if k < 1:
        raise StructuralError("ingredient universe size k must be >= 1")
    return len(a.active ^ b.active) / k


def activation_mask(act: ActivationSet, bits: Mapping[str, int]) -> int:
    """The step mask of one activation set; an id without a bit raises
    :class:`StructuralError`."""
    try:
        # the ids of a set are distinct, so the sum of their bits is their OR
        return sum(map(bits.__getitem__, act.active))
    except KeyError:
        raise StructuralError(
            f"activation set at step {act.step_index} contains ids outside "
            f"the identity universe"
        ) from None


def activation_masks(
    activations: Iterable[ActivationSet], bits: Mapping[str, int], last: int
) -> list[int]:
    """The masks of steps ``0 .. last``, each of the first 65,536 distinct
    sets encoded once and any later set at each step; a step out of order
    raises :class:`StreamOrderError`, and steps after ``last`` are read only
    for their order."""
    memo: dict[frozenset[str], int] = {}
    masks = []
    for expected, act in enumerate(activations):
        if act.step_index != expected:
            raise StreamOrderError(f"expected step {expected}, got {act.step_index}")
        if expected > last:
            continue
        mask = memo.get(act.active)
        if mask is None:
            mask = activation_mask(act, bits)
            if len(memo) < 65_536:
                memo[act.active] = mask
        masks.append(mask)
    return masks


def detect_grounding_failures(
    activations: Sequence[ActivationSet],
    statement: Sequence[str],
    layer_m_evaluator: Sequence[bool],
    identity: GroundedIdentity,
    spec: LayeredIdentitySpec,
    m: int = 2,
) -> list[int]:
    """Steps where the layer-``m`` statement is endorsed but its grounded
    conjunction is not fully active.

    ``layer_m_evaluator`` supplies one externally judged boolean per
    objective step (e.g. from a classifier over logged self-reports).
    """
    if len(layer_m_evaluator) != len(activations):
        raise StructuralError(
            f"evaluator series has length {len(layer_m_evaluator)}, "
            f"trajectory has {len(activations)} steps"
        )
    spec.validate_against(identity)
    required = ground(statement, spec, m)
    failures = []
    for act, endorsed in zip(activations, layer_m_evaluator):
        if endorsed and not required <= act.active:
            failures.append(act.step_index)
    return failures


# Window segments


@dataclass(frozen=True)
class WindowSegment:
    """The activation sets of one window, in objective-step order."""

    start: int
    activation_sets: tuple[ActivationSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "activation_sets", tuple(self.activation_sets))
        if not self.activation_sets:
            raise StructuralError("a window segment cannot be empty")
        for offset, act in enumerate(self.activation_sets):
            if act.step_index != self.start + offset:
                raise StructuralError(
                    f"segment steps must be consecutive from {self.start}; "
                    f"found step {act.step_index} at offset {offset}"
                )


def window(
    activations: Sequence[ActivationSet], cfg: WindowConfig, t: int
) -> WindowSegment:
    """Slice out the window at layer time ``t``."""
    start = cfg.stride * t
    end = start + cfg.horizon
    if t < 0 or end >= len(activations):
        raise OutOfRangeError(
            f"window at t={t} covers steps {start}..{end}, trace has "
            f"{len(activations)} steps"
        )
    return WindowSegment(start=start, activation_sets=tuple(activations[start : end + 1]))


def occurs(segment: WindowSegment, identity: GroundedIdentity) -> bool:
    """True iff every ingredient is active at some step of the window."""
    covered: set[str] = set()
    for act in segment.activation_sets:
        covered |= act.active
    return identity.ingredient_ids <= covered


def coinstantiated(segment: WindowSegment, identity: GroundedIdentity) -> bool:
    """True iff some single step's set holds every ingredient id."""
    return diamond(segment, identity.ingredient_ids)


def diamond(segment: WindowSegment, ingredient_subset: Iterable[str]) -> bool:
    """Within-window existential lift: some single step holds the whole subset.

    ``occurs`` is the conjunction of ``diamond`` over singletons;
    ``coinstantiated`` is ``diamond`` of the full ingredient set.
    """
    subset = frozenset(ingredient_subset)
    if not subset:
        raise StructuralError("diamond needs a non-empty ingredient subset")
    return any(subset <= act.active for act in segment.activation_sets)


def window_horizons(
    activations: Sequence[ActivationSet],
    identity: GroundedIdentity,
    stride: int,
    eval_indices: Sequence[int],
    horizon_max: int,
) -> list[tuple[int, int | float, int | float]]:
    """``(t, w_weak, w_strong)`` for every layer time in ``eval_indices``, in
    the given order and with its duplicates: the pair that
    :func:`start_horizons` gives its window start ``stride*t``, each
    distinct start searched once.  A stride or cap that
    :class:`WindowConfig` refuses raises its :class:`ParameterError`, and a
    start outside the trace :class:`OutOfRangeError`, before any step is
    read.  The steps are encoded by :func:`activation_masks` up to the last
    step a window can reach, the last start plus ``horizon_max`` or the
    trace end."""
    WindowConfig(0, stride, (), horizon_max)  # its stride and cap rule
    n = len(activations)
    for t in eval_indices:
        start = stride * t
        if not 0 <= start < n:
            raise OutOfRangeError(
                f"window start {start} is outside the trace of length {n}"
            )
    starts = sorted({stride * t for t in eval_indices})
    last = min(n - 1, starts[-1] + horizon_max) if starts else -1
    masks = activation_masks(activations, ingredient_bits(identity), last)
    found = dict(start_horizons(masks, identity.k, starts, horizon_max))
    return [(t, *found[stride * t]) for t in eval_indices]


def minimal_horizons(
    activations: Sequence[ActivationSet],
    identity: GroundedIdentity,
    stride: int,
    t: int,
    horizon_max: int,
) -> tuple[int | float, int | float]:
    """Least horizons at which the window starting at ``stride*t`` first
    satisfies ``occurs`` and ``coinstantiated``.

    The search stops at ``horizon_max`` or the trace end, whichever comes
    first; a minimum not found by then is ``INFINITE``.  The strong horizon
    is never smaller than the weak one.  This is :func:`window_horizons`
    for a single start.
    """
    ((_, w_weak, w_strong),) = window_horizons(
        activations, identity, stride, (t,), horizon_max
    )
    return w_weak, w_strong


# Metrics over activation sets


@dataclass(frozen=True)
class PersistenceResult:
    """Weak/strong persistence scores plus the per-window flags behind them."""

    p_weak: float
    p_strong: float
    per_window: tuple[tuple[int, bool, bool], ...]


def persistence(
    activations: Iterable[ActivationSet],
    identity: GroundedIdentity,
    cfg: WindowConfig,
) -> PersistenceResult:
    """Window-counting persistence scores.

    Per layer time: the occur flag checks each ingredient for presence
    anywhere in the window, the coinst flag looks for a step that holds the
    full conjunction.  Scores are counts over ``|T|``.

    Any iterable in step order is read: :func:`activation_masks`
    encodes the steps up to the last window's end, and
    :func:`windows.start_horizons` runs over them with the window horizon as
    its cap, so the cost is linear in the trace length.
    """
    if not cfg.eval_indices:
        raise ParameterError("evaluation index set T must be non-empty")
    last_end = cfg.stride * cfg.eval_indices[-1] + cfg.horizon
    masks = activation_masks(activations, ingredient_bits(identity), last_end)
    delta = cfg.horizon
    horizons = start_horizons(masks, identity.k, _starts(masks, cfg), delta)
    per_window = tuple([
        (t, w_weak <= delta, w_strong <= delta)
        for t, (_, (w_weak, w_strong)) in zip(cfg.eval_indices, horizons)
    ])
    return PersistenceResult(
        p_weak=sum(occurs for _, occurs, _ in per_window) / len(per_window),
        p_strong=sum(coinst for _, _, coinst in per_window) / len(per_window),
        per_window=per_window,
    )


persistence_streaming = persistence


def gap_ratio(
    activations: Sequence[ActivationSet],
    identity: GroundedIdentity,
    stride: int,
    eval_indices: Sequence[int],
    horizon_max: int,
) -> GapResult:
    """Median over layer times of ``(w_strong + 1) / (w_weak + 1)``.

    An infinite strong horizon over a finite weak one contributes an
    infinite term.  Layer times with an infinite weak horizon are undefined
    and excluded; if every layer time is undefined the ratio itself is
    undefined and a :class:`MetricError` is raised.  A repeated layer time
    adds one term per occurrence.  Steps are encoded as
    :func:`window_horizons` encodes them.
    """
    if not eval_indices:
        raise ParameterError("evaluation index set T must be non-empty")
    per_t = window_horizons(activations, identity, stride, eval_indices, horizon_max)
    horizons = Counter((w_weak, w_strong) for _, w_weak, w_strong in per_t)
    gap = counted_gap(horizons, horizon_max)
    return GapResult(gap.ratio, gap.undefined_count, tuple(per_t))


def identifiability(
    current: ActivationSet, reference: ActivationSet, k: int, delta_i: float
) -> int:
    """1 iff the current activation set is within ``delta_i`` of the
    reference: one term of :func:`identifiable_count`."""
    return 1 if state_distance(current, reference, k) <= delta_i else 0


def continuity(
    activations: Sequence[ActivationSet],
    k: int,
    step_range: Sequence[int] | None = None,
) -> tuple[list[float], float]:
    """Stepwise continuity ``1 - d(F_u, F_{u-1})`` and its mean over the range.

    ``step_range`` defaults to every step with a predecessor.
    """
    if step_range is None:
        step_range = range(1, len(activations))
    # any one-to-one id -> bit map keeps the distances, so no identity is needed
    ids: set[str] = set()
    for act in activations:
        ids |= act.active
    bits = {ingredient: 1 << i for i, ingredient in enumerate(ids)}
    masks = activation_masks(activations, bits, len(activations) - 1)
    changed = list(changed_bits(masks, k, step_range))
    return [1.0 - c / k for c in changed], (k * len(changed) - sum(changed)) / (k * len(changed))


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 <= epsilon < INFINITE:
        raise ParameterError("epsilon must be finite and >= 0")


def recovery(
    reference: ActivationSet,
    drifted: ActivationSet,
    recovered: ActivationSet,
    k: int,
    epsilon: float,
) -> float:
    """How much of the drift the corrective interventions undid, in [0, 1].

    ``epsilon`` regularizes the ratio and must be finite and >= 0; with
    ``epsilon == 0`` a run with no drift at all counts as fully recovered.
    """
    _check_epsilon(epsilon)
    d_recov = state_distance(recovered, reference, k)
    d_drift = state_distance(drifted, reference, k)
    if epsilon == 0.0 and d_drift == 0:
        return 1.0
    return max(0.0, 1.0 - d_recov / (d_drift + epsilon))


def recovery_bound(
    reference: ActivationSet,
    drifted: ActivationSet,
    controllable: Iterable[str],
    k: int,
    epsilon: float,
) -> float:
    """Upper bound on recovery when interventions only reach ``controllable``
    ingredients: ``(|P & D| + eps*k) / (|D| + eps*k)`` over the drift set D."""
    _check_epsilon(epsilon)
    drift_set = reference.active ^ drifted.active
    reachable = len(frozenset(controllable) & drift_set)
    if epsilon == 0.0 and not drift_set:
        return 1.0
    return (reachable + epsilon * k) / (len(drift_set) + epsilon * k)


# Parsed traces


@dataclass(frozen=True)
class TraceData:
    """A parsed trace: either raw states or precomputed activation sets."""

    form: str
    states: tuple[ScaffoldState, ...] = ()
    activations: tuple[ActivationSet, ...] = ()

    def __len__(self) -> int:
        return len(self.states) if self.form == "state" else len(self.activations)

    def to_activations(self, identity: GroundedIdentity) -> list[ActivationSet]:
        if self.form == "activation":
            encode = _mask_encoder(self.form, None, identity)
            for act in self.activations:
                encode({"u": act.step_index, "F": act.active})
            return list(self.activations)
        # activation reads nothing of the architecture but its flag count
        arch = ScaffoldArchitecture(len(self.states[0].policy_flags), context_capacity=1)
        return activation_sets(self.states, identity, arch)


def parse_trace(path: str | Path) -> TraceData:
    """Parse a line-delimited trace file into one state or activation set per
    step, with the per-line checks of :func:`trace.read_masks` (which ``analyze``
    uses instead), each line fully decoded.  Those checks cover every field,
    so each state and set is built from its record with no check again."""
    states = []
    activations = []
    for form, record in _checked_records(path):
        if form == "activation":
            activations.append(_built(ActivationSet, record["u"], frozenset(record["F"])))
        else:
            # the record's memory is a dict decoded for it alone
            states.append(_built(
                ScaffoldState, tuple(record["C"]), record["M"], tuple(record["pi"]),
                frozenset(record["D"]), record["u"],
            ))
    return TraceData(form=form, states=tuple(states), activations=tuple(activations))
