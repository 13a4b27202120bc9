"""Windowing of step masks and the one window fold.

A window at layer time ``t`` covers objective steps ``s*t .. s*t + delta``.
Two predicates decide it: ``occurs`` (Arpeggio), each ingredient id active
at some step, and ``coinstantiated`` (Chord), one step holding them all
(over window segments, in ``sets``); the toolkit measures the gap between
the two.  Windows are never truncated: a window that would overrun the
trace is out of range.  Missing minima are ``INFINITE`` (``math.inf``).

Persistence and the gap read one fold, ``start_horizons``, over the steps
as k-bit masks (bit i = the i-th ingredient id in sorted order; see
``identity.ingredient_bits``).  It yields the two minimal horizons of each
window start: a window of horizon ``delta`` occurs iff its weak horizon is
at most ``delta``, and co-instantiates iff its strong one is, and the gap
ratio compares the two.  The fold reads each step at most once, in step
order, at a cost per step that grows with neither k nor the cap.  A
statement over a subset G of the ids is scored by the same fold over the
padded masks ``m | (full & ~G)``, which hold every id outside G.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Iterable, Iterator, Sequence

from .errors import OutOfRangeError, ParameterError


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


def window_starts(cfg: WindowConfig) -> Sequence[int]:
    """The window starts ``stride * t`` of T, in the order of T: a ``range`` when T is one."""
    indices, stride = cfg.eval_indices, cfg.stride
    if isinstance(indices, range):
        return range(stride * indices.start, stride * indices.stop, stride * indices.step)
    return [stride * t for t in indices]


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
    steps.
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


