"""The identity metrics computed from step masks.

Persistence counts windows: weak persistence is the fraction of evaluated
windows where every ingredient occurs somewhere, strong persistence the
fraction where some single step holds the full conjunction.  The gap ratio
compares the minimal horizons needed for each.  Identifiability, continuity
and consistency are the auxiliary metrics; morphospace compresses
everything into three coordinates (coherence, availability, binding).  The
metrics over activation sets, recovery among them, are in ``sets``.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_right
from collections import Counter
from importlib import import_module
from itertools import accumulate, filterfalse, islice
from operator import xor
from typing import Iterable, Iterator, Sequence

from .errors import Frozen, MetricError, OutOfRangeError, ParameterError, StructuralError
from .windows import INFINITE, WindowConfig, horizon_codes, window_starts


def __getattr__(name: str):
    # the tracebind.sets names bench/ imports from this module, served on first use (PEP 562)
    if name not in {"continuity", "gap_ratio", "identifiability", "persistence"}:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(".sets", __package__), name)


class GapResult(Frozen):
    """The median gap ratio over layer times, and the minimal horizons behind it.

    Layer times whose weak horizon is already infinite carry no gap
    information; they are excluded from the median and surface only in
    ``undefined_count``.  ``per_t`` holds ``(t, w_weak, w_strong)`` for each
    layer time from :func:`sets.gap_ratio`; :func:`counted_gap`, which ``analyze``
    reads, keeps no per-window record and leaves it empty.
    """

    ratio: float
    undefined_count: int
    per_t: tuple[tuple[int, int | float, int | float], ...] = ()


class MorphospacePoint(Frozen):
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


class MetricParams(Frozen):
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


def _starts(masks: Sequence[int], cfg: WindowConfig) -> Sequence[int]:
    """The window starts of ``cfg`` (:func:`windows.window_starts`).  Every
    window must fit in ``masks``; the first that does not raises
    :class:`OutOfRangeError`."""
    if not cfg.eval_indices:
        raise ParameterError("evaluation index set T must be non-empty")
    n = len(masks)
    if cfg.stride * cfg.eval_indices[-1] + cfg.horizon >= n:
        t = cfg.eval_indices[len(cfg.restrict_to(n).eval_indices)]
        raise OutOfRangeError(
            f"window at t={t} needs step {cfg.stride * t + cfg.horizon}, "
            f"stream ended at step {n - 1}"
        )
    return window_starts(cfg)


def window_counts(
    masks: Sequence[int], k: int, cfg: WindowConfig
) -> Counter[tuple[int | float, int | float]]:
    """The windows of ``cfg`` over step masks, counted by ``(w_weak,
    w_strong)``: one pass of :func:`windows.horizon_codes`, searched up to
    ``max(delta, horizon_max)``, so that :func:`counted_persistence` and
    :func:`counted_gap` both read the same counts.  Each chunk's windows are
    counted by their code, and each code is then read as its pair of
    horizons."""
    counts: Counter[tuple[int | float, int | float]] = Counter()
    cap = max(cfg.horizon, cfg.horizon_max)
    for _, codes, pairs in horizon_codes(masks, k, _starts(masks, cfg), cap):
        for code, count in Counter(codes).items():
            counts[pairs[code]] += count
    return counts


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
    if k < 1:
        raise StructuralError("ingredient universe size k must be >= 1")
    ref = masks[reference]
    counts = Counter(map(masks.__getitem__, steps))
    return sum(count for mask, count in counts.items() if (mask ^ ref).bit_count() / k <= delta_i)


def changed_bits(masks: Sequence[int], k: int, steps: Sequence[int]) -> Iterator[int]:
    """``|F_u ^ F_{u-1}|`` per step ``u`` of ``steps``; a continuity mean divides their sum once."""
    if not steps:
        raise ParameterError("continuity needs at least one step with a predecessor")
    if k < 1:
        raise StructuralError("ingredient universe size k must be >= 1")
    valid = range(1, len(masks))
    # a range holds every value between its ends, so its ends decide
    if not all(map(valid.__contains__, (steps[0], steps[-1]) if isinstance(steps, range) else steps)):
        bad = next(filterfalse(valid.__contains__, steps))
        raise OutOfRangeError(f"continuity step {bad} needs a predecessor in range")
    if isinstance(steps, range) and steps.step > 0:  # sliced in place
        now = islice(masks, steps.start, steps.stop, steps.step)
        return map(int.bit_count, map(xor, now, islice(masks, steps.start - 1, None, steps.step)))
    return ((masks[u] ^ masks[u - 1]).bit_count() for u in steps)


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


def token_set_counts(outputs: Iterable[str]) -> Counter[frozenset[str]]:
    """How many of ``outputs``, read once, have each token set."""
    return Counter(map(_tokens, outputs))


def consistency(outputs: Iterable[str], delta_cons: float = MetricParams.delta_cons) -> float:
    """Fraction of unordered output pairs whose :func:`jaccard_similarity`
    clears the threshold ``delta_cons`` in [0, 1]: :func:`counted_consistency`
    of :func:`token_set_counts`, so ``outputs`` is read once, as it comes."""
    return counted_consistency(token_set_counts(outputs), delta_cons)


def counted_consistency(counts: Counter[frozenset[str]], delta_cons: float) -> float:
    """:func:`consistency` of outputs counted by token set.

    Each distinct token set is scored once, as an ``int`` with one bit per
    token: two sets share as many tokens as their masks' ``&`` has bits.  A
    set seen ``c`` times adds its ``c * (c - 1) // 2`` pairs of identical
    outputs, which clear every threshold; two distinct sets seen ``ca`` and
    ``cb`` times add ``ca * cb`` pairs when their Jaccard clears it.  The
    cost is one popcount per pair of distinct sets.
    """
    if not 0.0 <= delta_cons <= 1.0:
        raise ParameterError("delta_cons must be in [0, 1]")
    n = counts.total()
    if n < 2:
        raise ParameterError("consistency needs at least two outputs")
    bits: dict[str, int] = {}
    sets = []
    hits = 0
    for token_set, count in counts.items():
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


class MetricsReport(Frozen):
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
    if type(value) is int:  # the bulk of a sidecar, its eval list; a bool is not one
        return str(value)
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
