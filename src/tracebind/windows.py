"""Windowing of step masks and the one window kernel.

A window at layer time ``t`` covers objective steps ``s*t .. s*t + delta``.
Two predicates decide it: ``occurs`` (Arpeggio), each ingredient id active
at some step, and ``coinstantiated`` (Chord), one step holding them all
(over window segments, in ``sets``); the toolkit measures the gap between
the two.  Windows are never truncated: a window that would overrun the
trace is out of range.  Missing minima are ``INFINITE`` (``math.inf``).

Persistence and the gap read one kernel, :func:`horizon_codes`, over the
steps as k-bit masks (bit i = the i-th ingredient id in sorted order; see
``identity.ingredient_bits``).  It finds the two minimal horizons of each
window start: a window of horizon ``delta`` occurs iff its weak horizon is
at most ``delta``, and co-instantiates iff its strong one is.  Arpeggio
spreads each ingredient's steps over the horizon and then ANDs them; Chord
ANDs the ingredients at each step and then spreads the full steps.  Both
are shifts, ORs and ANDs of one bitset per ingredient (Baeza-Yates and
Gonnet, "A New Approach to Text Searching", CACM 1992), on chunks of
window starts within ``CHUNK`` steps, so the kernel holds at most
``CHUNK + cap`` steps.  A statement over a subset G of the ids is scored
by the same kernel over the padded masks ``m | (full & ~G)``.  The kernel
takes its starts as a sequence, increasing inside the trace, checked once
where they are made: by ``metrics._starts`` and ``sets.window_horizons``.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import repeat
from operator import and_
from typing import Iterator, Sequence

from .errors import DEFAULT_HORIZON_MAX, INFINITE, Frozen, ParameterError, _integer


# The steps of window starts per kernel chunk: long enough that the Python
# work per chunk is small next to the work on its bitsets.
CHUNK = 4096

# b"0"/b"1" -> one byte of 0/1 each
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


class WindowConfig(Frozen):
    """Horizon, stride, evaluation indices, and the minimal-horizon search cap."""

    horizon: int
    stride: int
    eval_indices: Sequence[int]
    horizon_max: int = DEFAULT_HORIZON_MAX

    def __post_init__(self) -> None:
        _integer(self.horizon, "horizon", 0, ParameterError)
        _integer(self.stride, "stride", 1, ParameterError)
        _integer(self.horizon_max, "horizon_max", 0, ParameterError)
        indices = self.eval_indices
        # a range with a positive step is sorted and distinct ints, in O(1) memory
        if not (isinstance(indices, range) and indices.step > 0):
            indices = tuple(sorted({_integer(t, "evaluation indices", 0, ParameterError) for t in indices}))
        elif indices:
            _integer(indices[0], "evaluation indices", 0, ParameterError)
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


def horizon_codes(
    masks: Sequence[int], k: int, starts: Sequence[int], horizon_max: int
) -> Iterator[tuple]:
    """The minimal horizons of the window starts ``starts``, one chunk of
    starts at a time (:func:`_chunks`), in start order, as ``(chunk, codes,
    pairs)``.  ``chunk[j]``'s window has one code, ``codes[j]``, and
    ``pairs[codes[j]]`` is its ``(w_weak, w_strong)``: the least horizons at
    which it satisfies ``occurs`` and ``coinstantiated``, each searched up
    to ``horizon_max`` or the trace end, else ``INFINITE``.  The chunk's
    steps, from its first start to its last plus ``horizon_max``, give one
    bitset per ingredient; the weak ranks grow from them, the strong ones
    from their AND, the full steps, and a code holds the strong rank in the
    bits above the weak one.  ``starts`` must increase inside the trace and
    ``horizon_max`` be at least 0, as ``metrics._starts`` and
    ``sets.window_horizons`` check; not again here."""
    n = len(masks)
    for chunk in _chunks(starts):
        first = chunk[0]
        count = chunk[-1] - first + 1
        bitsets = _occurrences(masks[first : min(chunk[-1] + horizon_max, n - 1) + 1], k)
        weak, weak_levels = _ranks(bitsets, horizon_max, count)
        strong, strong_levels = _ranks([reduce(and_, bitsets)], horizon_max, count)
        codes = _transposed(weak + strong, count)
        if len(chunk) < count:  # codes are per step: keep the starts'
            offsets = range(0, count, chunk.step) if isinstance(chunk, range) else [s - first for s in chunk]
            codes = list(map(codes.__getitem__, offsets))
        below = (1 << len(weak)) - 1
        pairs = {c: (weak_levels[c & below], strong_levels[c >> len(weak)]) for c in set(codes)}
        yield chunk, codes, pairs


def _chunks(starts: Sequence[int]) -> Iterator[Sequence[int]]:
    """The increasing ``starts`` cut into slices, each of the starts within
    ``CHUNK`` steps of the slice's first: a range is cut into ranges.  The
    order is :func:`horizon_codes`'s precondition and is not checked."""
    i = 0
    while i < len(starts):
        cut = bisect_left(starts, starts[i] + CHUNK, i)
        yield starts[i:cut]
        i = cut


def _occurrences(window: Sequence[int], k: int) -> list[int]:
    """One bitset per ingredient: bit ``j`` of the i-th is bit i of
    ``window[j]``.  The masks become bytes, ``width`` little-endian bytes per
    step, with the last step first; each ingredient's bit becomes a ``b"0"``
    or ``b"1"`` by ``bytes.translate``, and ``int(..., 2)`` reads them."""
    width = (k + 7) // 8
    if width == 1:
        raw = bytes(window)[::-1]
    else:
        raw = b"".join(map(int.to_bytes, window, repeat(width), repeat("little")))[::-1]
    bitsets = []
    for i in range(k):
        # byte -> b"1" where bit b is set, else b"0": runs of 2**b
        b = i & 7
        digits = (b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b)
        bitsets.append(int(raw[width - 1 - (i >> 3) :: width].translate(digits), 2))
    return bitsets


def _level_sets(bitsets: list[int], cap: int, within: int) -> Iterator[int]:
    """For ``d = 0 .. cap``, the steps ``j`` of ``within`` such that every
    bitset has a bit in ``j .. j + d``: each bitset spread one step more per
    level, the spreads ANDed.  A spread that covers ``within`` is dropped."""
    spread = bitsets
    yield reduce(and_, spread, within)
    for _ in range(cap):
        spread = [s | s >> 1 for s in spread if ~s & within]
        yield reduce(and_, spread, within)


def _ranks(bitsets: list[int], cap: int, count: int) -> tuple[list[int], list[int | float]]:
    """``(planes, levels)`` of the first ``count`` steps as window starts:
    ``levels`` holds each horizon whose level set grew, then ``INFINITE``,
    a start's rank indexes the first that holds it, and ``planes[b]`` holds
    bit b of every rank, as :func:`_transposed` reads them.  Only a start
    with a bit of every bitset at or after it can resolve, so the levels
    stop once all such starts resolve, or at the cap."""
    everyone = (1 << count) - 1
    resolvable = everyone & (1 << min(map(int.bit_length, bitsets))) - 1
    levels: list[int | float] = []
    planes: list[int] = []  # planes[b]: bit b of every rank, see _fold
    seen = 0
    if resolvable:
        for d, level in enumerate(_level_sets(bitsets, cap, resolvable)):
            if level != seen:
                levels.append(d)
                _fold(planes, len(levels), level)
                seen = level
                if level == resolvable:
                    break
    levels.append(INFINITE)
    _fold(planes, len(levels), everyone)
    for b in range(len(planes)):
        if len(levels) >> b & 1:
            planes[b] ^= everyone
    return planes[: (len(levels) - 1).bit_length()], levels


def _fold(planes: list[int], c: int, below: int) -> None:
    """Fold ``below``, the starts whose rank is less than ``c``, into the
    planes.  Bit b is set in the ranks of the runs [step, 2 step), [3 step,
    4 step), ... for step = 2**b, the last run cut at the last rank, so
    plane b is the XOR of ``below`` over the multiples ``c`` of step, and
    of every start when their count is odd, which :func:`_ranks` adds."""
    for b in range((c & -c).bit_length()):
        if b == len(planes):
            planes.append(0)
        planes[b] ^= below


def _transposed(planes: list[int], count: int) -> Sequence[int]:
    """One code per start: bit ``b`` of the j-th is bit ``j`` of
    ``planes[b]``.  Each plane's binary digits become a byte of 0 or 1 per
    start; eight planes at a time are read as one int, shifted into bit
    ``b % 8`` of every byte, and fill byte ``b // 8`` of every lane.  A lane
    is 1, 2 or 4 bytes wide for up to 8, 16 or 32 planes (a chunk's two
    ranks take at most 26), read as unsigned ints in the machine's order."""
    width = 1 if len(planes) <= 8 else 2 if len(planes) <= 16 else 4
    lanes = bytearray(width * count)
    for i in range(0, len(planes), 8):
        octets = 0
        for b, plane in enumerate(planes[i : i + 8]):
            digits = format(plane, f"0{count}b").encode().translate(_DIGIT_BYTES)
            octets |= int.from_bytes(digits, "big") << b
        at = i // 8 if sys.byteorder == "little" else width - 1 - i // 8
        lanes[at::width] = octets.to_bytes(count, "little")
    return lanes if width == 1 else memoryview(lanes).cast("H" if width == 2 else "I")


def start_horizons(
    masks: Sequence[int], k: int, starts: Sequence[int], horizon_max: int
) -> Iterator[tuple[int, tuple[int | float, int | float]]]:
    """``(s, (w_weak, w_strong))`` for each window start ``s`` of ``starts``
    (increasing steps of the trace), in start order: the least horizons at
    which the window from ``s`` satisfies ``occurs`` and ``coinstantiated``,
    searched up to ``horizon_max`` or the trace end, else ``INFINITE``; read
    off :func:`horizon_codes`, under its precondition."""
    for chunk, codes, pairs in horizon_codes(masks, k, starts, horizon_max):
        yield from zip(chunk, map(pairs.__getitem__, codes))
