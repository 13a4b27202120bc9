"""The identity metrics computed from activation traces.

Persistence counts windows: weak persistence is the fraction of evaluated
windows where every ingredient occurs somewhere, strong persistence the
fraction where some single step holds the full conjunction.  The gap ratio
compares the minimal horizons needed for each.  Identifiability, continuity,
consistency, and recovery are the auxiliary metrics over the activation-set
distance; morphospace compresses everything into three coordinates
(coherence, availability, binding).
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_right
from collections import Counter
from itertools import accumulate
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from .errors import (
    MetricError,
    OutOfRangeError,
    ParameterError,
    StructuralError,
)
from .identity import (
    ActivationSet,
    GroundedIdentity,
    activation_masks,
    ingredient_bits,
    mask_distance,
    state_distance,
)
from .windows import INFINITE, WindowConfig, start_horizons, window_horizons


@dataclass(frozen=True)
class PersistenceResult:
    """Weak/strong persistence scores plus the per-window flags behind them."""

    p_weak: float
    p_strong: float
    per_window: tuple[tuple[int, bool, bool], ...]


@dataclass(frozen=True)
class GapResult:
    """The median gap ratio over layer times, and the minimal horizons behind it.

    Layer times whose weak horizon is already infinite carry no gap
    information; they are excluded from the median and surface only in
    ``undefined_count``.  ``per_t`` holds ``(t, w_weak, w_strong)`` for each
    layer time from :func:`gap_ratio`; :func:`counted_gap`, which ``analyze``
    reads, keeps no per-window record and leaves it empty.
    """

    ratio: float
    undefined_count: int
    per_t: tuple[tuple[int, int | float, int | float], ...] = ()


@dataclass(frozen=True)
class MorphospacePoint:
    """Coherence / availability / binding summary of an identity profile.

    Binding can never exceed availability: a window with the conjunction
    jointly active also has every ingredient occurring in it.
    """

    coherence: float
    availability: float
    binding: float
    alpha: float

    def __post_init__(self) -> None:
        if self.binding > self.availability:
            raise StructuralError(
                "binding cannot exceed availability; the scores were not "
                "computed from one persistence run"
            )


@dataclass(frozen=True)
class MetricParams:
    """Thresholds and weights for the auxiliary metrics.

    Defaults are mid-range and are echoed in every report so runs stay
    reproducible.
    """

    delta_i: float = 0.25
    delta_cons: float = 0.5
    epsilon: float = 0.01
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta_i <= 1.0:
            raise ParameterError("delta_i must be in [0, 1]")
        if not 0.0 <= self.delta_cons <= 1.0:
            raise ParameterError("delta_cons must be in [0, 1]")
        if not 0.0 < self.epsilon < INFINITE:
            raise ParameterError("epsilon must be finite and > 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ParameterError("alpha must be in [0, 1]")


def _horizons(
    masks: Sequence[int], k: int, cfg: WindowConfig, cap: int
) -> Iterator[tuple[int, int | float, int | float]]:
    """:func:`windows.start_horizons` of the windows of ``cfg``, searched up
    to ``cap``, in layer-time order.  Every window must fit in ``masks``;
    the first that does not raises :class:`OutOfRangeError`."""
    if not cfg.eval_indices:
        raise ParameterError("evaluation index set T must be non-empty")
    n = len(masks)
    if cfg.stride * cfg.eval_indices[-1] + cfg.horizon >= n:
        t = cfg.eval_indices[len(cfg.restrict_to(n).eval_indices)]
        raise OutOfRangeError(
            f"window at t={t} needs step {cfg.stride * t + cfg.horizon}, "
            f"stream ended at step {n - 1}"
        )
    return start_horizons(masks, k, map(cfg.stride.__mul__, cfg.eval_indices), cap)


def persistence(
    activations: Iterable[ActivationSet],
    identity: GroundedIdentity,
    cfg: WindowConfig,
) -> PersistenceResult:
    """Window-counting persistence scores.

    Per layer time: the occur flag checks each ingredient for presence
    anywhere in the window, the coinst flag looks for a step that holds the
    full conjunction.  Scores are counts over ``|T|``.

    Any iterable in step order is read: :func:`identity.activation_masks`
    encodes the steps up to the last window's end, and
    :func:`windows.start_horizons` runs over them with the window horizon as
    its cap, so the cost is linear in the trace length.
    """
    if not cfg.eval_indices:
        raise ParameterError("evaluation index set T must be non-empty")
    last_end = cfg.stride * cfg.eval_indices[-1] + cfg.horizon
    masks = activation_masks(activations, ingredient_bits(identity), last_end)
    delta = cfg.horizon
    horizons = _horizons(masks, identity.k, cfg, delta)
    per_window = tuple([
        (t, w_weak <= delta, w_strong <= delta)
        for t, (_, w_weak, w_strong) in zip(cfg.eval_indices, horizons)
    ])
    return PersistenceResult(
        p_weak=sum(occurs for _, occurs, _ in per_window) / len(per_window),
        p_strong=sum(coinst for _, _, coinst in per_window) / len(per_window),
        per_window=per_window,
    )


persistence_streaming = persistence


def window_counts(
    masks: Sequence[int], k: int, cfg: WindowConfig
) -> Counter[tuple[int | float, int | float]]:
    """The windows of ``cfg`` over step masks, counted by ``(w_weak,
    w_strong)``: one pass of :func:`windows.start_horizons`, searched up to
    ``max(delta, horizon_max)``, so that :func:`counted_persistence` and
    :func:`counted_gap` both read the same counts."""
    found = _horizons(masks, k, cfg, max(cfg.horizon, cfg.horizon_max))
    return Counter((w_weak, w_strong) for _, w_weak, w_strong in found)


def counted_persistence(
    horizons: Counter[tuple[int | float, int | float]], delta: int
) -> tuple[float, float]:
    """``(p_weak, p_strong)`` of windows counted by ``(w_weak, w_strong)``: a
    window of horizon ``delta`` occurs or co-instantiates when that minimal
    horizon is at most ``delta``."""
    weak = sum(count for (w_weak, _), count in horizons.items() if w_weak <= delta)
    strong = sum(count for (_, w_strong), count in horizons.items() if w_strong <= delta)
    return weak / horizons.total(), strong / horizons.total()


def counted_gap(
    horizons: Counter[tuple[int | float, int | float]], horizon_max: int
) -> GapResult:
    """The gap of windows counted by ``(w_weak, w_strong)``: the median of
    ``(w_strong + 1) / (w_weak + 1)``, a horizon above ``horizon_max`` read
    as ``INFINITE``, and the count of windows with an infinite weak horizon.
    Its ``per_t`` is empty.

    The terms are counted, not listed, and the median is read off the sorted
    counts: the middle term, or the mean of the two middle terms, the same
    float ``statistics.median`` gives.
    """
    counts: Counter[float] = Counter()
    undefined = 0
    for (w_weak, w_strong), count in horizons.items():
        if w_weak > horizon_max:
            undefined += count
        else:
            counts[(w_strong + 1 if w_strong <= horizon_max else INFINITE) / (w_weak + 1)] += count
    total = counts.total()
    if not total:
        raise MetricError(
            "gap ratio is undefined: no evaluated window has a finite weak horizon"
        )
    terms = sorted(counts)
    # the term at sorted position p is the first whose running count exceeds p
    running = list(accumulate(counts[term] for term in terms))
    lower = terms[bisect_right(running, (total - 1) // 2)]
    upper = terms[bisect_right(running, total // 2)]
    return GapResult(lower if total % 2 else (lower + upper) / 2, undefined)


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
    :func:`windows.window_horizons` encodes them.
    """
    if not eval_indices:
        raise ParameterError("evaluation index set T must be non-empty")
    per_t = window_horizons(activations, identity, stride, eval_indices, horizon_max)
    horizons = Counter((w_weak, w_strong) for _, w_weak, w_strong in per_t)
    return replace(counted_gap(horizons, horizon_max), per_t=tuple(per_t))


def identifiable_count(
    masks: Sequence[int],
    reference: int,
    k: int,
    delta_i: float,
    steps: Iterable[int],
) -> int:
    """How many of ``steps`` have a mask within ``delta_i`` of the mask at
    step ``reference``."""
    if not 0 <= reference < len(masks):
        raise OutOfRangeError(
            f"reference index {reference} is outside the trace of length "
            f"{len(masks)}"
        )
    ref = masks[reference]
    return sum(mask_distance(masks[u], ref, k) <= delta_i for u in steps)


def identifiability(
    current: ActivationSet, reference: ActivationSet, k: int, delta_i: float
) -> int:
    """1 iff the current activation set is within ``delta_i`` of the
    reference: one term of :func:`identifiable_count`."""
    return 1 if state_distance(current, reference, k) <= delta_i else 0


def continuity_terms(
    masks: Sequence[int], k: int, steps: Sequence[int]
) -> Iterator[float]:
    """Stepwise continuity ``1 - d(F_u, F_{u-1})`` of step masks, for each
    step ``u`` of ``steps`` in order."""
    if not steps:
        raise ParameterError("continuity needs at least one step with a predecessor")
    n = len(masks)
    for u in steps:
        if u < 1 or u >= n:
            raise OutOfRangeError(f"continuity step {u} needs a predecessor in range")
        yield 1.0 - mask_distance(masks[u], masks[u - 1], k)


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
    per_step = list(continuity_terms(masks, k, list(step_range)))
    return per_step, sum(per_step) / len(per_step)


def _tokens(text: str) -> frozenset[str]:
    # interned, so the distinct token sets that consistency counts share
    # their strings
    return frozenset(map(sys.intern, text.casefold().split()))


def jaccard_similarity(a: str, b: str) -> float:
    """Token-set Jaccard over whitespace-split, case-folded text."""
    ta, tb = _tokens(a), _tokens(b)
    if not ta and not tb:
        return 1.0
    shared = len(ta & tb)
    return shared / (len(ta) + len(tb) - shared)


def consistency(outputs: Sequence[str], delta_cons: float = MetricParams.delta_cons) -> float:
    """Fraction of unordered output pairs whose :func:`jaccard_similarity`
    clears the threshold ``delta_cons`` in [0, 1].

    Each output is tokenised once, and each distinct token set is scored
    once, as an ``int`` with one bit per token: two sets share as many
    tokens as their masks' ``&`` has bits.  A set seen ``c`` times adds its
    ``c * (c - 1) // 2`` pairs of identical outputs, which clear every
    threshold; two distinct sets seen ``ca`` and ``cb`` times add ``ca * cb``
    pairs when their Jaccard clears it.  The cost is O(n) to tokenise plus
    one popcount per pair of distinct sets.
    """
    if not 0.0 <= delta_cons <= 1.0:
        raise ParameterError("delta_cons must be in [0, 1]")
    n = len(outputs)
    if n < 2:
        raise ParameterError("consistency needs at least two outputs")
    bits: dict[str, int] = {}
    sets = []
    hits = 0
    for token_set, count in Counter(map(_tokens, outputs)).items():
        mask = 0
        for token in token_set:
            mask |= 1 << bits.setdefault(token, len(bits))
        sets.append((mask, len(token_set), count))
        hits += count * (count - 1) // 2
    # two distinct sets are never both empty, so no union below is 0
    for i, (ma, la, ca) in enumerate(sets):
        for mb, lb, cb in sets[i + 1 :]:
            shared = (ma & mb).bit_count()
            if shared / (la + lb - shared) >= delta_cons:
                hits += ca * cb
    return hits / output_pairs(n)


def output_pairs(n: int) -> int:
    """The unordered pairs of ``n`` outputs: what :func:`consistency` divides by."""
    return n * (n - 1) // 2


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


def morphospace(
    identifiability_rate: float,
    consistency_score: float,
    p_weak: float,
    p_strong: float,
    alpha: float,
) -> MorphospacePoint:
    """Compress the metrics into (coherence, availability, binding)."""
    for name, value in (
        ("identifiability_rate", identifiability_rate),
        ("consistency", consistency_score),
        ("p_weak", p_weak),
        ("p_strong", p_strong),
        ("alpha", alpha),
    ):
        if not 0.0 <= value <= 1.0:
            raise ParameterError(f"{name} must be in [0, 1]")
    return MorphospacePoint(
        coherence=alpha * consistency_score + (1.0 - alpha) * identifiability_rate,
        availability=p_weak,
        binding=p_strong,
        alpha=alpha,
    )


# ---------------------------------------------------------------------------
# Report serialization (consumed by the CLI)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricsReport:
    """Everything one analysis run produced, ready for serialization.

    ``consistency`` and ``recovery`` stay ``None`` when the run had no
    behavioral outputs or drift/recovery snapshots to score; coherence is
    then unavailable too.
    """

    p_weak: float
    p_strong: float
    gap: GapResult
    continuity_mean: float
    identifiability_rate: float
    consistency: float | None
    recovery: float | None
    params: MetricParams
    horizon_max: int
    ref_index: int
    window_delta: int
    window_stride: int
    t_count: int

    def morphospace_point(self) -> MorphospacePoint:
        if self.consistency is None:
            raise MetricError("morphospace coherence needs a consistency score")
        return morphospace(
            self.identifiability_rate,
            self.consistency,
            self.p_weak,
            self.p_strong,
            self.params.alpha,
        )

    def to_document(self) -> dict:
        """Ordered mapping matching the documented report schema."""
        coh = None
        if self.consistency is not None:
            coh = self.morphospace_point().coherence
        return {
            "p_weak": self.p_weak,
            "p_strong": self.p_strong,
            "gap_ratio": self.gap.ratio,
            "gap_undefined_count": self.gap.undefined_count,
            "continuity_mean": self.continuity_mean,
            "identifiability_rate": self.identifiability_rate,
            "consistency": self.consistency,
            "recovery": self.recovery,
            "morphospace": {
                "coh": coh,
                "avail": self.p_weak,
                "bind": self.p_strong,
                "alpha": self.params.alpha,
            },
            "params": {
                "delta_i": self.params.delta_i,
                "delta_cons": self.params.delta_cons,
                "epsilon": self.params.epsilon,
                "alpha": self.params.alpha,
                "horizon_max": self.horizon_max,
                "ref_index": self.ref_index,
            },
            "window": {
                "delta": self.window_delta,
                "stride": self.window_stride,
                "t_count": self.t_count,
            },
        }


def render_number(value: float | int | None) -> str:
    """Fixed-precision rendering: 6 decimals, ``inf`` for infinities.

    NaN and ``-inf`` have no JSON form and no meaning as a score, so they
    raise :class:`MetricError` instead of reaching a report.
    """
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if value == INFINITE:
        return '"inf"'
    if not -INFINITE < value:
        raise MetricError(f"cannot render {value} in a report")
    return f"{value:.6f}"


def render_json(value, indent: int = 0) -> str:
    """Deterministic JSON with 6-decimal floats and quoted ``"inf"``.

    Mapping insertion order is preserved, so documents built from the same
    inputs serialize to the same bytes.
    """
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f'{pad}  "{key}": {render_json(val, indent + 1)}'
            for key, val in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + ", ".join(render_json(v, indent) for v in value) + "]"
    if isinstance(value, str):
        return json.dumps(value)
    return render_number(value)


def render_text(doc: dict, prefix: str = "") -> str:
    """Flat ``key = value`` rendering of a report document."""
    lines = []
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.append(render_text(value, prefix=f"{name}."))
        else:
            rendered = render_number(value)
            if rendered == '"inf"':
                rendered = "inf"
            lines.append(f"{name} = {rendered}")
    return "\n".join(lines)
