"""Windowing of activation traces and the two window predicates.

A window at layer time ``t`` covers objective steps ``s*t .. s*t + delta``.
``occurs`` asks whether every ingredient shows up somewhere in the window;
``coinstantiated`` asks whether some single step holds all of them at once.
The gap between the two is what the rest of the toolkit measures.

Windows are never truncated: a layer time whose window would overrun the
trace is out of range.  Missing minima are reported as ``INFINITE``
(``math.inf``), which sorts above every finite horizon.

Persistence and the gap read one fold, ``start_horizons``, over the steps
as k-bit masks (bit i = the i-th ingredient id in sorted order; see
``identity.ingredient_bits``).  It yields the two minimal horizons of each
window start: a window of horizon ``delta`` occurs iff its weak horizon is
at most ``delta``, and co-instantiates iff its strong one is, and the gap
ratio compares the two.  The fold reads each step at most once, in step
order, at a cost per step that grows with neither k nor the cap.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from operator import or_
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
        """Config whose T is a range of every layer time with a full window in range."""
        return cls(horizon, stride, range(trace_length), horizon_max).restrict_to(trace_length)

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


def start_horizons(
    masks: Sequence[int], k: int, starts: Iterable[int], horizon_max: int
) -> Iterator[tuple[int, int | float, int | float]]:
    """``(s, w_weak, w_strong)`` for each window start ``s`` of ``starts``
    (increasing steps of the trace, pulled one at a time), in start order:
    the least horizons at which the window from ``s`` satisfies ``occurs``
    and ``coinstantiated``, searched up to ``horizon_max`` or the trace end;
    a horizon not found by then is ``INFINITE``.

    The strong horizon is the first full step at or after ``s``: a forward
    scan reads each step once, in step order, and stops at a full step or
    the cap.  Steps read but not yet in the weak window wait in ``ahead``.
    The weak horizon is the least ``end - s`` whose steps ``s..end`` OR to
    the full mask; ``end`` never moves back as ``s`` grows, and the OR comes
    from a two-stack sliding window (Tangwongsan, Hirzel and Schneider,
    "General Incremental Sliding-Window Aggregation", PVLDB 2015): ``back``
    holds the masks of the last ``len(back)`` steps up to ``end`` and
    ``back_or`` their OR; ``front`` holds, for each earlier step ``u`` from
    ``s`` on, the OR of the masks from ``u`` to the first step of ``back``,
    the earliest step last.  So the fold holds at most ``horizon_max + 1``
    steps, and over lazily encoded masks a stray id fails only inside some
    window's scanned range ``s .. s + (w_strong or the cap)``.
    """
    n = len(masks)
    full = (1 << k) - 1
    front: list[int] = []
    front_start = -1  # the start answered last
    back: list[int] = []
    back_or = 0
    end = -1
    ahead: deque[int] = deque()
    scanned = -1
    next_full = -1  # a full step is only ever the last step scanned
    for s in starts:
        if not front_start < s < n:
            raise OutOfRangeError(
                f"window start {s} is out of order or outside the trace of length {n}"
            )
        if end < s:  # the window is empty: skip the steps before s
            for _ in range(min(s - 1 - end, len(ahead))):
                ahead.popleft()
            end = s - 1
            scanned = max(scanned, end)
        del front[front_start - s:]  # the steps before s, or all of them
        if not front and back:
            front = list(accumulate(reversed(back[len(back) - (end + 1 - s):]), or_))
            back.clear()
            back_or = 0
        front_start = s
        if next_full < s:
            last = s + horizon_max
            if last >= n:
                last = n - 1
            while scanned < last:
                scanned += 1
                mask = masks[scanned]
                ahead.append(mask)
                if mask == full:
                    next_full = scanned
                    break
        covered = (front[-1] if front else 0) | back_or
        while covered != full and end < scanned:
            end += 1
            mask = ahead.popleft()
            back.append(mask)
            back_or |= mask
            covered |= mask
        strong = next_full - s if next_full >= s else INFINITE
        yield s, end - s if covered == full else INFINITE, strong


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
