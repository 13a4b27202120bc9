"""Windowing of activation traces and the two window predicates.

A window at layer time ``t`` covers objective steps ``s*t .. s*t + delta``.
``occurs`` asks whether every ingredient shows up somewhere in the window;
``coinstantiated`` asks whether some single step holds all of them at once.
The gap between the two is what the rest of the toolkit measures.

Windows are never truncated: a layer time whose window would overrun the
trace is out of range.  Missing minima are reported as ``INFINITE``
(``math.inf``), which sorts above every finite horizon.

The folds behind the metrics read each step as a k-bit mask (bit i = the
i-th ingredient id in sorted order; see ``identity.ingredient_bits``):
a window's ingredients occur when the OR of its masks is full, and
co-instantiate when some mask in it is full.  ``window_flag_counts`` decides
both predicates for every evaluated window, and ``start_horizons`` yields the
minimal horizons of every window start, each in one forward pass that reads
a step at most once and holds only the windows still pending.  The gap
search is therefore linear in the trace length and does not depend on the
``horizon_max`` cap.  The functions over activation sets encode steps as
they read them and run the same folds.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import OutOfRangeError, ParameterError, StructuralError
from .identity import ActivationMasks, ActivationSet, GroundedIdentity, ingredient_bits

INFINITE = math.inf

DEFAULT_HORIZON_MAX = 256


@dataclass(frozen=True)
class WindowConfig:
    """Horizon, stride, evaluation indices, and the minimal-horizon search cap."""

    horizon: int
    stride: int
    eval_indices: Sequence[int]
    horizon_max: int = DEFAULT_HORIZON_MAX

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise ParameterError("horizon must be >= 0")
        if self.stride < 1:
            raise ParameterError("stride must be >= 1")
        if self.horizon_max < 0:
            raise ParameterError("horizon_max must be >= 0")
        indices = self.eval_indices
        # a range with a positive step is sorted and distinct, in O(1) memory
        if not (isinstance(indices, range) and indices.step > 0):
            indices = tuple(sorted(set(indices)))
        if indices and indices[0] < 0:
            raise ParameterError("evaluation indices must be >= 0")
        object.__setattr__(self, "eval_indices", indices)

    @classmethod
    def all_valid(
        cls,
        horizon: int,
        stride: int,
        trace_length: int,
        horizon_max: int = DEFAULT_HORIZON_MAX,
    ) -> "WindowConfig":
        """Config whose T is a tuple of every layer time with a full window in range."""
        fit = cls(horizon, stride, range(trace_length)).restrict_to(trace_length)
        return cls(horizon, stride, tuple(fit.eval_indices), horizon_max)

    def restrict_to(self, trace_length: int) -> "WindowConfig":
        """Drop evaluation indices whose windows overrun a trace of this
        length, a suffix of the sorted T; a range stays a range."""
        last = (trace_length - 1 - self.horizon) // self.stride
        kept = self.eval_indices[: bisect_right(self.eval_indices, last)]
        return WindowConfig(self.horizon, self.stride, kept, self.horizon_max)


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
    """True iff some single step of the window activates all k ingredients."""
    k = identity.k
    return any(len(act.active) == k for act in segment.activation_sets)


def diamond(segment: WindowSegment, ingredient_subset: Iterable[str]) -> bool:
    """Within-window existential lift: some single step holds the whole subset.

    ``occurs`` is the conjunction of ``diamond`` over singletons;
    ``coinstantiated`` is ``diamond`` of the full ingredient set.
    """
    subset = frozenset(ingredient_subset)
    if not subset:
        raise StructuralError("diamond needs a non-empty ingredient subset")
    return any(subset <= act.active for act in segment.activation_sets)


_MAX_CACHED_MASKS = 4096


@lru_cache(maxsize=_MAX_CACHED_MASKS)
def _bit_indices(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of ``mask``, cached for the masks met last."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def window_flag_counts(
    masks: Iterable[int], k: int, cfg: WindowConfig, per_window: list | None = None
) -> tuple[int, int]:
    """How many windows of ``cfg.eval_indices`` occur and how many
    co-instantiate, from one pass over the step masks; ``(t, occurs,
    coinstantiated)`` of each window is appended to ``per_window``, if given.

    A window's ingredients occur when the OR of its masks is full, and
    co-instantiate when its last full step is inside it.  The OR comes from a
    two-stack sliding window (Tangwongsan, Hirzel and Schneider, "General
    Incremental Sliding-Window Aggregation", PVLDB 2015): ``back`` holds the
    masks of steps ``back_start..u`` and ``back_or`` their OR; ``front``
    holds, for each step ``s`` of ``front_start..back_start-1``, the OR of
    masks ``s..back_start-1``, the earliest step last.  Each step is pushed,
    moved and dropped at most once, so the cost per step does not grow with
    k or the horizon.  Steps are read in order and no further than the end
    of the last window, so ``masks`` may be a stream; one that ends too
    early raises :class:`OutOfRangeError`.
    """
    if not cfg.eval_indices:
        raise ParameterError("evaluation index set T must be non-empty")
    full = (1 << k) - 1
    front: list[int] = []
    front_start = 0
    back: list[int] = []
    back_start = 0
    back_or = 0
    last_full = -1
    weak = strong = 0
    windows = iter(cfg.eval_indices)
    t = next(windows)
    end = cfg.stride * t + cfg.horizon
    u = -1
    for u, mask in enumerate(masks):
        back.append(mask)
        back_or |= mask
        if mask == full:
            last_full = u
        if u != end:
            continue
        start = end - cfg.horizon
        if start > front_start:
            del front[max(len(front) - (start - front_start), 0):]
            front_start = start
        if not front and back_start < start:
            for earlier in reversed(back[start - back_start:]):
                front.append(earlier | front[-1] if front else earlier)
            back_start = u + 1
            back.clear()
            back_or = 0
        occurs = ((front[-1] if front else 0) | back_or) == full
        coinst = last_full >= start
        weak += occurs
        strong += coinst
        if per_window is not None:
            per_window.append((t, occurs, coinst))
        t = next(windows, None)
        if t is None:
            return weak, strong
        end = cfg.stride * t + cfg.horizon
    raise OutOfRangeError(f"window at t={t} needs step {end}, stream ended at step {u}")


def start_horizons(
    masks: Sequence[int], k: int, starts: Iterable[int], horizon_max: int
) -> Iterator[tuple[int, int | float, int | float]]:
    """``(s, w_weak, w_strong)`` for each window start ``s`` of ``starts``
    (increasing steps of the trace, pulled lazily), in start order, each as
    soon as it is known: the least horizons at which the window from ``s``
    first satisfies ``occurs`` and ``coinstantiated``.

    One forward pass over the step masks serves every start.  Each step read
    is folded into a last-seen step per ingredient.  A pending start ``s``
    gets its weak horizon at the first step ``u`` with ``min(last_seen) >=
    s`` (that minimum never decreases, so weak horizons come front first)
    and its strong horizon at the next full step, which also completes
    coverage.  It expires, its missing horizons ``INFINITE``, once ``u - s``
    exceeds ``horizon_max``, or at the trace end.  So at most ``horizon_max
    // stride + 1`` starts are pending at once.  A step is read at most
    once, and only while some start is pending, so over lazily encoded masks
    a stray id fails only inside some window's scanned range ``s .. s +
    (w_strong or the cap)``.  The cost is O(n*k) whatever the cap.
    """
    n = len(masks)
    full = (1 << k) - 1
    last_seen = [-1] * k
    pending: deque[int] = deque()
    # the weak horizons of the leading pending starts; the others wait in
    # ``pending_weak``
    weak_found: deque[int] = deque()
    pending_weak: deque[int] = deque()
    upcoming = iter(starts)
    next_start = _next_start(upcoming, -1, n)
    u = next_start
    while u < n:
        if u == next_start:
            pending.append(u)
            pending_weak.append(u)
            next_start = _next_start(upcoming, u, n)
        while pending and u - pending[0] > horizon_max:
            s = pending.popleft()
            if weak_found:
                yield s, weak_found.popleft(), INFINITE
            else:
                pending_weak.popleft()
                yield s, INFINITE, INFINITE
        if not pending:
            u = next_start
            continue
        mask = masks[u]
        for i in _bit_indices(mask):
            last_seen[i] = u
        if pending_weak:
            covered_from = min(last_seen)
            while pending_weak and pending_weak[0] <= covered_from:
                weak_found.append(u - pending_weak.popleft())
        if mask == full:
            # coverage is complete too, so every pending start has its weak horizon
            for s in pending:
                yield s, weak_found.popleft(), u - s
            pending.clear()
        u += 1
    for s in pending:
        yield s, weak_found.popleft() if weak_found else INFINITE, INFINITE


def _next_start(upcoming: Iterator[int], previous: int, n: int) -> int:
    """The next start of ``upcoming``, or ``n`` when there is none."""
    s = next(upcoming, None)
    if s is None:
        return n
    if not previous < s < n:
        raise OutOfRangeError(
            f"window start {s} is out of order or outside the trace of length {n}"
        )
    return s


def window_horizons(
    activations: Sequence[ActivationSet],
    identity: GroundedIdentity,
    stride: int,
    eval_indices: Sequence[int],
    horizon_max: int,
) -> list[tuple[int, int | float, int | float]]:
    """``(t, w_weak, w_strong)`` for every layer time in ``eval_indices``, in
    the given order and with its duplicates: :func:`start_horizons` of the
    distinct window starts ``stride*t``.  A start outside the trace raises
    :class:`OutOfRangeError` before any step is read.  Each step is checked
    against the identity universe when the fold reads it, so a stray id
    fails only inside some window's scanned range."""
    n = len(activations)
    for t in eval_indices:
        start = stride * t
        if t < 0 or not 0 <= start < n:
            raise OutOfRangeError(
                f"window start {start} is outside the trace of length {n}"
            )
    starts = sorted({stride * t for t in eval_indices})
    masks = ActivationMasks(activations, ingredient_bits(identity))
    found = {
        s: (w_weak, w_strong)
        for s, w_weak, w_strong in start_horizons(masks, identity.k, starts, horizon_max)
    }
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
