"""Naive reference implementations used as differential-testing oracles.

These transcribe ingredient activation and the window-counting procedure
with plain nested loops and no shared work, trading speed for obviousness.
They exist purely for the test suite; the CLI never imports this module, so
the production path stays single-implementation.
"""

from __future__ import annotations

from typing import Sequence

from .errors import OutOfRangeError, ParameterError
from .identity import GroundedIdentity
from .sets import (
    ActivationSet, PersistenceResult, ScaffoldState, WindowSegment, coinstantiated, occurs,
)
from .windows import INFINITE, WindowConfig


def oracle_activation_set(state: ScaffoldState, identity: GroundedIdentity) -> ActivationSet:
    """Each ingredient condition read off its definition, one at a time."""
    active = set()
    for spec in identity.ingredients:
        if spec.kind == "context":
            m = len(spec.context_pattern)
            offsets = range(len(state.context) - m + 1)
            holds = any(state.context[i : i + m] == spec.context_pattern for i in offsets)
        elif spec.kind == "memory":
            holds = state.memory.get(spec.memory_key) == spec.memory_value
        elif spec.kind == "policy":
            holds = state.policy_flags[spec.flag_index] == 1
        else:
            holds = spec.doc_id in state.retrieved
        if holds:
            active.add(spec.ingredient_id)
    return ActivationSet(step_index=state.step_index, active=frozenset(active))


def oracle_persistence(
    activations: Sequence[ActivationSet],
    identity: GroundedIdentity,
    cfg: WindowConfig,
) -> PersistenceResult:
    """Triple-nested-loop persistence: per window, per ingredient, per step."""
    if not cfg.eval_indices:
        raise ParameterError("evaluation index set T must be non-empty")
    ids = identity.ingredient_ids
    n_weak = 0
    n_strong = 0
    per_window = []
    for t in cfg.eval_indices:
        start = cfg.stride * t
        steps = range(start, start + cfg.horizon + 1)
        if steps[-1] >= len(activations):
            raise OutOfRangeError(f"window at t={t} overruns the trace")
        occur = True
        for spec in identity.ingredients:
            found = False
            for u in steps:
                if spec.ingredient_id in activations[u].active:
                    found = True
            if not found:
                occur = False
        coinst = False
        for u in steps:
            if ids <= activations[u].active:
                coinst = True
        n_weak += 1 if occur else 0
        n_strong += 1 if coinst else 0
        per_window.append((t, occur, coinst))
    return PersistenceResult(
        p_weak=n_weak / len(cfg.eval_indices),
        p_strong=n_strong / len(cfg.eval_indices),
        per_window=tuple(per_window),
    )


def oracle_minimal_horizons(
    activations: Sequence[ActivationSet],
    identity: GroundedIdentity,
    stride: int,
    t: int,
    horizon_max: int,
) -> tuple[int | float, int | float]:
    """Linear scan over horizons, re-evaluating both predicates from scratch."""
    start = stride * t
    if t < 0 or start >= len(activations):
        raise OutOfRangeError(f"window start {start} is outside the trace")
    limit = min(horizon_max, len(activations) - 1 - start)
    w_weak: int | float = INFINITE
    w_strong: int | float = INFINITE
    for delta in range(limit + 1):
        segment = WindowSegment(
            start=start, activation_sets=tuple(activations[start : start + delta + 1])
        )
        if w_weak is INFINITE and occurs(segment, identity):
            w_weak = delta
        if w_strong is INFINITE and coinstantiated(segment, identity):
            w_strong = delta
    return w_weak, w_strong
