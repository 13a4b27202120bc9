"""Shared fixtures and randomized-trace generators for the test suite."""

from __future__ import annotations

import random

from tracebind.identity import GroundedIdentity, IngredientSpec
from tracebind.sets import ActivationSet, ScaffoldArchitecture
from tracebind.windows import WindowConfig


def context_identity(k: int, prefix: str = "g") -> GroundedIdentity:
    """k single-token context ingredients g0..g{k-1}."""
    return GroundedIdentity(
        tuple(
            IngredientSpec(
                ingredient_id=f"{prefix}{i}", kind="context", context_pattern=(f"{prefix}{i}",)
            )
            for i in range(k)
        )
    )


def plain_architecture(n_flags: int = 2, capacity: int = 16) -> ScaffoldArchitecture:
    return ScaffoldArchitecture(
        n_policy_flags=n_flags,
        context_capacity=capacity,
        corpus=frozenset({"doc-a", "doc-b"}),
    )


def activations_from_sets(sets: list[set[str] | frozenset[str]]) -> list[ActivationSet]:
    return [
        ActivationSet(step_index=u, active=frozenset(active))
        for u, active in enumerate(sets)
    ]


def random_activations(
    rng: random.Random, length: int, identity: GroundedIdentity, max_size: int | None = None
) -> list[ActivationSet]:
    """Random activation trace over the identity's ingredient universe."""
    ids = sorted(identity.ingredient_ids)
    cap = len(ids) if max_size is None else min(max_size, len(ids))
    sets = []
    for _ in range(length):
        size = rng.randint(0, cap)
        sets.append(set(rng.sample(ids, size)))
    return activations_from_sets(sets)


def random_window_config(
    rng: random.Random,
    length: int,
    max_delta: int = 8,
    max_stride: int = 4,
    horizon_max: int = 64,
) -> WindowConfig:
    """A config whose evaluation set is non-empty and fully in range."""
    delta = rng.randint(0, min(max_delta, length - 1))
    stride = rng.randint(1, max_stride)
    cfg = WindowConfig.all_valid(delta, stride, length, horizon_max)
    if len(cfg.eval_indices) > 1 and rng.random() < 0.3:
        kept = sorted(
            rng.sample(cfg.eval_indices, rng.randint(1, len(cfg.eval_indices)))
        )
        cfg = WindowConfig(delta, stride, tuple(kept), horizon_max)
    return cfg
