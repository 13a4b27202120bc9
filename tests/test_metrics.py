"""Tests for persistence scoring, gap ratio, and the auxiliary metrics."""

from __future__ import annotations

import ast
import random
import statistics
import sys
from collections.abc import Sequence
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracebind
from conftest import (
    activations_from_sets,
    context_identity,
    random_activations,
    random_window_config,
)
from tracebind.errors import (
    MetricError,
    OutOfRangeError,
    ParameterError,
    StreamOrderError,
    StructuralError,
)
from tracebind.identity import GroundedIdentity, IngredientSpec, ingredient_bits
from tracebind.metrics import (
    GapResult,
    MetricParams,
    MetricsReport,
    changed_bits,
    consistency,
    counted_consistency,
    counted_gap,
    identifiable_count,
    jaccard_similarity,
    morphospace,
    render_json,
    render_number,
    render_text,
    token_set_counts,
    window_counts,
)
from tracebind.oracle import oracle_minimal_horizons, oracle_persistence
from tracebind.sets import (
    ActivationSet,
    activation_mask,
    continuity,
    gap_ratio,
    identifiability,
    minimal_horizons,
    persistence,
    persistence_streaming,
    recovery,
    recovery_bound,
    state_distance,
    window_horizons,
)
from tracebind.windows import INFINITE, WindowConfig


def alternating_trace(length: int):
    return activations_from_sets(
        [{"g0"} if u % 2 == 0 else {"g1"} for u in range(length)]
    )


WORKED_EXAMPLE = activations_from_sets([{"g0"}, {"g1"}, {"g2"}])


class CountingSequence(Sequence):
    """A read-only trace that counts the steps read through it."""

    def __init__(self, items):
        self.items = items
        self.reads = 0

    def __len__(self):
        return len(self.items)

    def __getitem__(self, index):
        item = self.items[index]
        self.reads += len(item) if isinstance(index, slice) else 1
        return item


class TestPersistence:
    def test_alternating_trace(self):
        identity = context_identity(2)
        cfg = WindowConfig.all_valid(horizon=1, stride=1, trace_length=100)
        result = persistence(alternating_trace(100), identity, cfg)
        assert result.p_weak == 1.0
        assert result.p_strong == 0.0
        assert len(result.per_window) == 99

    def test_always_full_trace(self):
        identity = context_identity(3)
        acts = activations_from_sets([{"g0", "g1", "g2"}] * 20)
        cfg = WindowConfig.all_valid(horizon=2, stride=2, trace_length=20)
        result = persistence(acts, identity, cfg)
        assert result.p_weak == 1.0
        assert result.p_strong == 1.0

    def test_worked_example(self):
        identity = context_identity(3)
        cfg = WindowConfig(horizon=2, stride=1, eval_indices=(0,))
        result = persistence(WORKED_EXAMPLE, identity, cfg)
        assert result.p_weak == 1.0
        assert result.p_strong == 0.0
        assert result.per_window == ((0, True, False),)

    def test_empty_eval_set_rejected(self):
        identity = context_identity(2)
        with pytest.raises(ParameterError):
            persistence(alternating_trace(10), identity,
                        WindowConfig(1, 1, ()))

    def test_stray_ingredient_rejected(self):
        identity = context_identity(2)
        acts = activations_from_sets([{"g0"}, {"g1", "stray"}, {"g0"}])
        with pytest.raises(StructuralError, match="step 1"):
            persistence(acts, identity, WindowConfig(1, 1, (0,)))

    def test_window_overrun_rejected(self):
        identity = context_identity(2)
        cfg = WindowConfig(horizon=4, stride=1, eval_indices=(20,))
        with pytest.raises(OutOfRangeError):
            persistence(alternating_trace(10), identity, cfg)

    def test_strong_bounded_by_weak_randomized(self):
        rng = random.Random(2024)
        for _ in range(300):
            k = rng.randint(1, 6)
            identity = context_identity(k)
            length = rng.randint(2, 64)
            acts = random_activations(rng, length, identity)
            cfg = random_window_config(rng, length)
            result = persistence(acts, identity, cfg)
            assert result.p_strong <= result.p_weak
            for _, occur, coinst in result.per_window:
                assert not (coinst and not occur)


class TestPersistenceStreaming:
    def test_is_an_alias(self):
        assert persistence_streaming is persistence

    def test_matches_naive_on_fixtures(self):
        identity = context_identity(2)
        cfg = WindowConfig.all_valid(horizon=1, stride=1, trace_length=100)
        acts = alternating_trace(100)
        assert persistence_streaming(acts, identity, cfg) == oracle_persistence(
            acts, identity, cfg
        )

    def test_differential_over_window_grid(self):
        rng = random.Random(77)
        for _ in range(250):
            k = rng.randint(1, 8)
            identity = context_identity(k)
            length = rng.randint(2, 80)
            acts = random_activations(rng, length, identity)
            delta = rng.randint(0, min(8, length - 1))
            stride = rng.randint(1, 5)
            cfg = WindowConfig.all_valid(delta, stride, length, 32)
            expected = oracle_persistence(acts, identity, cfg)
            streamed = persistence_streaming(iter(acts), identity, cfg)
            assert streamed == expected

    def test_sparse_windows_with_large_stride(self):
        # stride larger than the window, so consecutive windows do not overlap
        rng = random.Random(99)
        identity = context_identity(3)
        for stride in (1, 2, 3, 4, 5):
            acts = random_activations(rng, 40, identity)
            cfg = WindowConfig.all_valid(1, stride, 40, 16)
            assert persistence_streaming(acts, identity, cfg) == oracle_persistence(
                acts, identity, cfg
            )

    def test_out_of_order_stream_rejected(self):
        identity = context_identity(2)
        acts = alternating_trace(10)
        shuffled = [acts[1], acts[0]] + acts[2:]
        with pytest.raises(StreamOrderError):
            persistence_streaming(shuffled, identity, WindowConfig(1, 1, (0,)))

    def test_stream_ending_early_rejected(self):
        identity = context_identity(2)
        cfg = WindowConfig(horizon=4, stride=1, eval_indices=(0, 20))
        with pytest.raises(OutOfRangeError):
            persistence_streaming(alternating_trace(10), identity, cfg)

    def test_more_distinct_sets_than_the_encoding_cache(self):
        # over 4,096 distinct sets, each encoded once: the scores do not change
        rng = random.Random(4_097)
        identity = context_identity(14)
        acts = random_activations(rng, 3 * 4_096, identity)
        assert len({act.active for act in acts}) > 4_096
        cfg = WindowConfig.all_valid(4, 1, len(acts), 16)
        assert persistence(iter(acts), identity, cfg) == oracle_persistence(acts, identity, cfg)


class TestGapRatio:
    def test_fully_coinstantiated(self):
        identity = context_identity(2)
        acts = activations_from_sets([{"g0", "g1"}] * 10)
        result = gap_ratio(acts, identity, 1, range(8), 16)
        assert result.ratio == 1.0
        assert result.undefined_count == 0

    def test_alternating_is_infinite(self):
        identity = context_identity(2)
        result = gap_ratio(alternating_trace(40), identity, 1, range(10), 16)
        assert result.ratio == INFINITE
        assert all(w_weak == 1 for _, w_weak, _ in result.per_t)

    def test_period_four_ratio_two(self):
        # ingredients jointly active exactly three steps after each window
        # start, individually within one step
        identity = context_identity(2)
        period = [{"g0"}, {"g1"}, {"g0"}, {"g0", "g1"}]
        acts = activations_from_sets(period * 8)
        result = gap_ratio(acts, identity, 4, range(8), 8)
        assert result.ratio == 2.0
        for _, w_weak, w_strong in result.per_t:
            assert (w_weak, w_strong) == (1, 3)

    def test_undefined_terms_excluded(self):
        identity = context_identity(2)
        # g1 appears only near the start; later windows never see it
        sets = [{"g0", "g1"}] + [{"g0"}] * 20
        acts = activations_from_sets(sets)
        result = gap_ratio(acts, identity, 1, (0, 15), 4)
        assert result.undefined_count == 1
        assert result.ratio == 1.0  # only t=0 contributes

    def test_all_undefined_is_metric_error(self):
        identity = context_identity(2)
        acts = activations_from_sets([{"g0"}] * 10)
        with pytest.raises(MetricError):
            gap_ratio(acts, identity, 1, range(5), 4)

    def test_terms_at_least_one_where_finite(self):
        rng = random.Random(404)
        identity = context_identity(3)
        for _ in range(100):
            acts = random_activations(rng, rng.randint(4, 40), identity)
            t_max = max(0, len(acts) - 1)
            try:
                result = gap_ratio(acts, identity, 1, range(min(6, t_max + 1)), 16)
            except MetricError:
                continue
            for _, w_weak, w_strong in result.per_t:
                if w_weak != INFINITE:
                    assert (w_strong + 1) / (w_weak + 1) >= 1.0
            assert result.ratio >= 1.0

    def test_per_t_matches_oracle_on_random_traces(self):
        rng = random.Random(4_242)
        for _ in range(400):
            identity = context_identity(rng.randint(1, 4))
            acts = random_activations(rng, rng.randint(1, 30), identity)
            stride = rng.randint(1, 4)
            t_max = (len(acts) - 1) // stride
            # sparse, unsorted and duplicated layer times
            eval_indices = [rng.randint(0, t_max) for _ in range(rng.randint(1, 10))]
            cap = rng.randint(0, len(acts) + 3)
            expected = [
                (t, *oracle_minimal_horizons(acts, identity, stride, t, cap))
                for t in eval_indices
            ]
            if all(w_weak == INFINITE for _, w_weak, _ in expected):
                with pytest.raises(MetricError):
                    gap_ratio(acts, identity, stride, eval_indices, cap)
                continue
            assert gap_ratio(acts, identity, stride, eval_indices, cap).per_t == tuple(
                expected
            )

    def test_median_of_counts_equals_statistics_median(self):
        # the counted median against statistics.median over the oracle's
        # terms: odd and even counts, ties across the middle, inf terms, and
        # sparse, unsorted and duplicated eval lists
        rng = random.Random(5_151)
        seen = set()
        for _ in range(600):
            identity = context_identity(rng.randint(1, 3))
            acts = random_activations(rng, rng.randint(1, 30), identity)
            stride = rng.randint(1, 3)
            t_max = (len(acts) - 1) // stride
            eval_indices = [rng.randint(0, t_max) for _ in range(rng.randint(1, 12))]
            cap = rng.randint(0, 12)
            horizons = [oracle_minimal_horizons(acts, identity, stride, t, cap) for t in eval_indices]
            terms = [(ws + 1) / (wi + 1) for wi, ws in horizons if wi != INFINITE]
            undefined = len(horizons) - len(terms)
            if not terms:
                with pytest.raises(MetricError):
                    gap_ratio(acts, identity, stride, eval_indices, cap)
                continue
            result = gap_ratio(acts, identity, stride, eval_indices, cap)
            assert (result.ratio, result.undefined_count) == (statistics.median(terms), undefined)

            # the CLI's fold: the distinct layer times of a WindowConfig
            cfg = WindowConfig(0, stride, eval_indices, cap)
            distinct = []
            for t in cfg.eval_indices:
                wi, ws = oracle_minimal_horizons(acts, identity, stride, t, cap)
                if wi != INFINITE:
                    distinct.append((ws + 1) / (wi + 1))
            bits = ingredient_bits(identity)
            masks = [activation_mask(act, bits) for act in acts]
            if not distinct:
                with pytest.raises(MetricError):
                    counted_gap(window_counts(masks, identity.k, cfg), cfg.horizon_max)
                continue
            gap = counted_gap(window_counts(masks, identity.k, cfg), cfg.horizon_max)
            assert gap.ratio == statistics.median(distinct)
            assert gap.undefined_count == len(cfg.eval_indices) - len(distinct)
            assert gap.per_t == ()

            ordered = sorted(terms)
            middle = ordered[(len(terms) - 1) // 2 : len(terms) // 2 + 1]
            seen.add("even" if len(terms) % 2 == 0 else "odd")
            if len(terms) % 2 == 0 and middle[0] == middle[1]:
                seen.add("tie across the middle")
            if len(terms) % 2 == 0 and middle[0] != middle[1]:
                seen.add("mean of two middle terms")
            if INFINITE in terms:
                seen.add("inf term")
            if result.ratio == INFINITE:
                seen.add("inf median")
            if undefined:
                seen.add("undefined terms")
            if len(set(eval_indices)) < len(eval_indices):
                seen.add("duplicates")
            if eval_indices != sorted(eval_indices):
                seen.add("unsorted")
        assert seen == {
            "even", "odd", "tie across the middle", "mean of two middle terms", "inf term",
            "inf median", "undefined terms", "duplicates", "unsorted",
        }

    def test_reads_each_step_at_most_once(self):
        # an unbound trace keeps every window scanning to the cap; one pass
        # still reads each step once, whatever the cap
        n = 600
        acts = CountingSequence(alternating_trace(n))
        result = gap_ratio(acts, context_identity(2), 1, range(n - 1), 256)
        assert result.ratio == INFINITE
        assert acts.reads <= n

    def test_start_out_of_range(self):
        with pytest.raises(OutOfRangeError, match="window start 12"):
            gap_ratio(alternating_trace(10), context_identity(2), 4, (0, 3), 8)
        # a stride or a cap that WindowConfig refuses, with its message
        for stride, cap, message in [(0, 8, "stride must be >= 1"), (1, -1, "horizon_max must be >= 0")]:
            with pytest.raises(ParameterError, match=message):
                gap_ratio(alternating_trace(10), context_identity(2), stride, (0, 3), cap)

    def test_empty_eval_set_rejected(self):
        with pytest.raises(ParameterError, match="T must be non-empty"):
            gap_ratio(alternating_trace(10), context_identity(2), 1, (), 8)


class TestIdentifiability:
    def test_identical_state(self):
        a = ActivationSet(0, frozenset({"g0"}))
        assert identifiability(a, a, 4, 0.0) == 1

    def test_distance_above_threshold(self):
        current = ActivationSet(0, frozenset({"g0", "g1", "g2", "g3"}))
        reference = ActivationSet(0, frozenset({"g3"}))
        assert identifiability(current, reference, 4, 0.5) == 0

    def test_boundary_is_inclusive(self):
        current = ActivationSet(0, frozenset({"g0"}))
        reference = ActivationSet(0, frozenset({"g1"}))
        # distance is exactly 0.5 with k = 4
        assert identifiability(current, reference, 4, 0.5) == 1


class TestContinuity:
    def test_constant_sets(self):
        acts = activations_from_sets([{"g0", "g1"}] * 6)
        per_step, mean = continuity(acts, 2)
        assert per_step == [1.0] * 5
        assert mean == 1.0

    def test_alternating_sets(self):
        per_step, mean = continuity(alternating_trace(6), 2)
        assert per_step == [0.0] * 5
        assert mean == 0.0

    def test_single_flip(self):
        acts = activations_from_sets(
            [{"g0", "g1", "g2", "g3"}, {"g0", "g1", "g2"}]
        )
        per_step, mean = continuity(acts, 4)
        assert per_step == [0.75]
        assert mean == 0.75

    def test_zero_step_rejected(self):
        with pytest.raises(OutOfRangeError):
            continuity(alternating_trace(4), 2, step_range=[0, 1])

    def test_one_step_trace_rejected(self):
        with pytest.raises(ParameterError, match="at least one step with a predecessor"):
            continuity(activations_from_sets([{"g0"}]), 1)

    def test_values_in_unit_interval(self):
        rng = random.Random(11)
        identity = context_identity(5)
        for _ in range(100):
            acts = random_activations(rng, rng.randint(2, 30), identity)
            per_step, mean = continuity(acts, 5)
            assert all(0.0 <= c <= 1.0 for c in per_step)
            assert 0.0 <= mean <= 1.0


class TestFoldsOverMasks:
    """``changed_bits`` and ``identifiable_count`` run as C-level maps over
    the masks; each equals its per-step definition, and bad input raises as
    it did when each step was a Python-level iteration."""

    @staticmethod
    def changed(masks: list[int], steps) -> list[int]:
        return [(masks[u] ^ masks[u - 1]).bit_count() for u in steps]

    def test_changed_bits_names_the_first_bad_step(self):
        rng = random.Random(12_001)
        for _ in range(300):
            n = rng.randint(2, 30)
            masks = [rng.getrandbits(5) for _ in range(n)]
            steps = [rng.randrange(1, n) for _ in range(rng.randint(0, 10))]
            for _ in range(rng.randint(1, 3)):
                bad = rng.choice([0, -1, -rng.randint(2, 40), n, n + rng.randint(1, 40)])
                steps.insert(rng.randint(0, len(steps)), bad)
            first = next(u for u in steps if not 1 <= u < n)
            message = f"continuity step {first} needs a predecessor in range"
            with pytest.raises(OutOfRangeError) as caught:
                list(changed_bits(masks, 5, steps))
            assert str(caught.value) == message

    def test_changed_bits_over_ranges_and_lists(self):
        rng = random.Random(12_002)
        for _ in range(500):
            n = rng.randint(1, 30)
            masks = [rng.getrandbits(6) for _ in range(n)]
            steps = range(rng.randint(-3, n + 3), rng.randint(-3, n + 3), rng.choice([1, 2, 3, -1, -2]))
            for given in (steps, list(steps), tuple(steps)):
                if not steps:
                    with pytest.raises(ParameterError, match="at least one step with a predecessor"):
                        list(changed_bits(masks, 6, given))
                elif all(1 <= u < n for u in steps):
                    assert list(changed_bits(masks, 6, given)) == self.changed(masks, steps)
                else:
                    first = next(u for u in steps if not 1 <= u < n)
                    with pytest.raises(OutOfRangeError) as caught:
                        list(changed_bits(masks, 6, given))
                    assert str(caught.value) == f"continuity step {first} needs a predecessor in range"

    def test_changed_bits_checks_steps_then_k(self):
        masks = [0, 1, 3]
        for k in (0, -1):
            with pytest.raises(ParameterError, match="at least one step with a predecessor"):
                list(changed_bits(masks, k, []))
            with pytest.raises(ParameterError, match="at least one step with a predecessor"):
                list(changed_bits(masks, k, range(1, 1)))
            with pytest.raises(StructuralError, match="ingredient universe size k must be >= 1"):
                list(changed_bits(masks, k, range(1, 3)))
            with pytest.raises(StructuralError, match="ingredient universe size k must be >= 1"):
                list(changed_bits(masks, k, [5]))

    def test_identifiable_count_equals_the_per_step_sum(self):
        rng = random.Random(12_003)
        for _ in range(400):
            n, k = rng.randint(1, 40), rng.randint(1, 8)
            masks = [rng.getrandbits(k) for _ in range(n)]
            reference = rng.randrange(n)
            delta_i = rng.choice([0.0, 0.125, 0.25, 0.5, 1.0])
            starts = range(rng.randrange(n), n, rng.randint(1, 4))
            picked = [rng.randrange(n) for _ in range(rng.randint(0, 12))]
            for steps in (starts, picked):
                expected = sum((masks[u] ^ masks[reference]).bit_count() / k <= delta_i for u in steps)
                for given in (steps, list(steps), (u for u in steps)):
                    assert identifiable_count(masks, reference, k, delta_i, given) == expected


class TestConsistency:
    def test_identical_outputs(self):
        assert consistency(["i am alice"] * 4) == 1.0

    def test_single_matching_pair(self):
        outputs = ["alpha beta", "alpha beta", "gamma delta"]
        assert consistency(outputs, delta_cons=0.9) == pytest.approx(1 / 3)

    def test_disjoint_pair(self):
        assert consistency(["alpha beta", "gamma delta"], delta_cons=0.5) == 0.0

    def test_too_few_outputs(self):
        with pytest.raises(ParameterError):
            consistency(["only one"])

    def test_reads_a_one_shot_iterator_once(self):
        outputs = ["a b", "a b", "a c", "", "", "b c d"]
        stream = iter(outputs)
        assert consistency(stream, delta_cons=0.3) == consistency(outputs, delta_cons=0.3)
        assert next(stream, None) is None
        counts = token_set_counts(iter(outputs))
        assert counts.total() == len(outputs)
        assert counted_consistency(counts, 0.3) == consistency(outputs, delta_cons=0.3)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf"), -0.01, 1.01])
    def test_threshold_outside_unit_interval_rejected(self, delta):
        # the rule MetricParams applies to delta_cons
        with pytest.raises(ParameterError, match=r"delta_cons must be in \[0, 1\]"):
            consistency(["a b", "a b"], delta_cons=delta)
        with pytest.raises(ParameterError, match=r"delta_cons must be in \[0, 1\]"):
            MetricParams(delta_cons=delta)

    def test_matches_pairwise_jaccard_on_random_texts(self):
        def reference(a, b):
            ta, tb = set(a.casefold().split()), set(b.casefold().split())
            return len(ta & tb) / len(ta | tb) if ta or tb else 1.0

        rng = random.Random(77)
        words = ["I", "am", "Ada", "ada", "AM", "the", "analyst", ""]
        for _ in range(50):
            outputs = [
                " ".join(rng.choice(words) for _ in range(rng.randint(0, 5)))
                for _ in range(rng.randint(2, 9))
            ]
            delta = rng.choice([0.0, 0.25, 0.5, 1.0])
            pairs = [
                reference(a, b) >= delta
                for i, a in enumerate(outputs)
                for b in outputs[i + 1 :]
            ]
            assert consistency(outputs, delta_cons=delta) == sum(pairs) / len(pairs)
            assert [jaccard_similarity(a, b) for a in outputs for b in outputs] == [
                reference(a, b) for a in outputs for b in outputs
            ]

    # case-fold variants ("ß" and "SS" both fold to "ss"), so one token set
    # is spelled several ways, next to empty and whitespace-only outputs
    WORDS = ["ada", "Ada", "ADA", "am", "AM", "the", "analyst", "ß", "SS", "x"]
    OUTPUT = st.one_of(
        st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join),
        st.sampled_from(["", " ", "\t  "]),
    )

    @given(
        st.lists(OUTPUT, min_size=1, max_size=6).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=60)
        ),
        st.one_of(st.sampled_from([0.0, 1 / 3, 1 / 2, 2 / 3, 1.0]), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_brute_force_pairwise_jaccard(self, outputs, delta):
        sets = [set(text.casefold().split()) for text in outputs]
        hits = sum(
            (len(a & b) / len(a | b) if a or b else 1.0) >= delta
            for i, a in enumerate(sets)
            for b in sets[i + 1 :]
        )
        n = len(outputs)
        assert consistency(outputs, delta_cons=delta) == hits / (n * (n - 1) // 2)

    def test_jaccard_properties(self):
        assert jaccard_similarity("A b C", "a B c") == 1.0
        assert jaccard_similarity("x", "y") == 0.0
        assert jaccard_similarity("", "") == 1.0


class TestRecovery:
    REF = ActivationSet(0, frozenset({"g0", "g1", "g2", "g3"}))
    DRIFT = ActivationSet(1, frozenset({"g3"}))

    def test_full_recovery(self):
        assert recovery(self.REF, self.DRIFT, self.REF, 4, 0.01) == 1.0

    def test_no_recovery(self):
        value = recovery(self.REF, self.DRIFT, self.DRIFT, 4, 0.01)
        assert value == pytest.approx(1 - 0.75 / 0.76)
        assert value == pytest.approx(0.0132, abs=1e-4)

    def test_partial_recovery(self):
        recovered = ActivationSet(2, frozenset({"g0", "g3"}))
        value = recovery(self.REF, self.DRIFT, recovered, 4, 0.01)
        assert value == pytest.approx(1 - 0.5 / 0.76)
        assert value == pytest.approx(0.3421, abs=1e-4)

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ParameterError):
            recovery(self.REF, self.DRIFT, self.REF, 4, -0.01)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_epsilon_rejected(self, epsilon):
        with pytest.raises(ParameterError):
            recovery(self.REF, self.DRIFT, self.REF, 4, epsilon)
        with pytest.raises(ParameterError):
            recovery_bound(self.REF, self.DRIFT, {"g0"}, 4, epsilon)

    @pytest.mark.parametrize(
        "drifted, recovered",
        [
            ({"g3"}, {"g3"}),
            ({"g3"}, {"g0", "g3"}),
            ({"g3"}, {"g0", "g1", "g2", "g3"}),
            ({"g0", "g1", "g2", "g3"}, {"g0", "g1", "g2", "g3"}),
            ({"g0", "g1", "g2", "g3"}, {"g1"}),
        ],
    )
    def test_zero_epsilon_is_the_plain_ratio(self, drifted, recovered):
        drift_a = ActivationSet(1, frozenset(drifted))
        recov_a = ActivationSet(2, frozenset(recovered))
        d_drift = state_distance(drift_a, self.REF, 4)
        d_recov = state_distance(recov_a, self.REF, 4)
        plain = 1.0 if d_drift == 0 else max(0.0, 1.0 - d_recov / d_drift)
        assert recovery(self.REF, drift_a, recov_a, 4, 0.0) == plain

    def test_bound_epsilon_zero(self):
        drift = ActivationSet(1, frozenset({"g3"}))  # drift set {g0,g1,g2}
        bound = recovery_bound(self.REF, drift, {"g0"}, 4, 0.0)
        assert bound == pytest.approx(1 / 3)

    def test_bound_all_controllable(self):
        bound = recovery_bound(self.REF, self.DRIFT, {"g0", "g1", "g2", "g3"}, 4, 0.0)
        assert bound == 1.0

    def test_bound_with_regularizer(self):
        bound = recovery_bound(self.REF, self.DRIFT, {"g0"}, 4, 0.01)
        assert bound == pytest.approx(1.04 / 3.04)
        assert bound == pytest.approx(0.3421, abs=1e-4)

    def test_bound_no_drift(self):
        assert recovery_bound(self.REF, self.REF, set(), 4, 0.0) == 1.0

    def test_recovery_respects_bound_randomized(self):
        rng = random.Random(55)
        for _ in range(300):
            k = rng.randint(1, 10)
            ids = [f"g{i}" for i in range(k)]
            reference = frozenset(rng.sample(ids, rng.randint(0, k)))
            removed = frozenset(rng.sample(sorted(reference), rng.randint(0, len(reference))))
            controllable = frozenset(rng.sample(ids, rng.randint(0, k)))
            drifted = reference - removed
            # restore only controllable drifted ingredients
            restored = sorted(controllable & removed)[: rng.randint(0, k)]
            recov = drifted | frozenset(restored)
            ref_a = ActivationSet(0, reference)
            drift_a = ActivationSet(1, drifted)
            recov_a = ActivationSet(2, recov)
            epsilon = rng.choice([0.01, 0.1])
            measured = recovery(ref_a, drift_a, recov_a, k, epsilon)
            bound = recovery_bound(ref_a, drift_a, controllable, k, epsilon)
            assert measured <= bound + 1e-9


class TestMorphospace:
    def test_perfect_scores(self):
        point = morphospace(1.0, 1.0, 1.0, 1.0, 0.5)
        assert point.coherence == 1.0

    def test_weighted_mean(self):
        point = morphospace(0.6, 0.8, 0.5, 0.2, 0.5)
        assert point.coherence == pytest.approx(0.7)
        assert point.availability == 0.5
        assert point.binding == 0.2

    def test_binding_bounded_by_availability_from_persistence(self):
        rng = random.Random(61)
        identity = context_identity(3)
        for _ in range(50):
            length = rng.randint(2, 40)
            acts = random_activations(rng, length, identity)
            cfg = random_window_config(rng, length)
            result = persistence(acts, identity, cfg)
            point = morphospace(1.0, 1.0, result.p_weak, result.p_strong, 0.5)
            assert point.binding <= point.availability

    def test_range_validation(self):
        with pytest.raises(ParameterError):
            morphospace(1.2, 1.0, 1.0, 1.0, 0.5)

    def test_binding_above_availability_rejected(self):
        from tracebind.errors import StructuralError

        with pytest.raises(StructuralError):
            morphospace(1.0, 1.0, 0.2, 0.5, 0.5)

    def test_report_with_consistency_has_a_coherence(self):
        report = MetricsReport(
            p_weak=0.75,
            p_strong=0.5,
            gap=GapResult(ratio=2.0, undefined_count=0),
            continuity_mean=1.0,
            identifiability_rate=0.6,
            consistency=0.8,
            recovery=None,
            params=MetricParams(alpha=0.25),
            horizon_max=8,
            ref_index=0,
            window_delta=1,
            window_stride=1,
            t_count=4,
        )
        assert report.to_document()["morphospace"]["coh"] == 0.25 * 0.8 + 0.75 * 0.6
        assert report.morphospace_point() == morphospace(0.6, 0.8, 0.75, 0.5, 0.25)


class TestMetricParams:
    def test_defaults_valid(self):
        params = MetricParams()
        assert params.delta_i == 0.25
        assert params.delta_cons == 0.5
        assert params.epsilon == 0.01
        assert params.alpha == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta_i": -0.1},
            {"delta_cons": 1.5},
            {"epsilon": 0.0},
            {"epsilon": float("nan")},
            {"epsilon": float("inf")},
            {"alpha": 2.0},
        ],
    )
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            MetricParams(**kwargs)


class TestCollapseAtZeroHorizon:
    def test_zero_horizon_equalizes_scores(self):
        rng = random.Random(83)
        identity = context_identity(4)
        for _ in range(100):
            length = rng.randint(1, 40)
            acts = random_activations(rng, length, identity)
            cfg = WindowConfig.all_valid(0, rng.randint(1, 3), length, 8)
            result = persistence(acts, identity, cfg)
            assert result.p_weak == result.p_strong


class TestOracleAgreement:
    def test_oracle_fixtures(self):
        identity = context_identity(2)
        cfg = WindowConfig.all_valid(1, 1, 100, 16)
        result = oracle_persistence(alternating_trace(100), identity, cfg)
        assert (result.p_weak, result.p_strong) == (1.0, 0.0)
        full = activations_from_sets([{"g0", "g1"}] * 10)
        cfg = WindowConfig.all_valid(1, 1, 10, 16)
        result = oracle_persistence(full, identity, cfg)
        assert (result.p_weak, result.p_strong) == (1.0, 1.0)

    def test_differential_small(self):
        rng = random.Random(123)
        for _ in range(150):
            k = rng.randint(1, 6)
            identity = context_identity(k)
            length = rng.randint(2, 40)
            acts = random_activations(rng, length, identity)
            cfg = random_window_config(rng, length, max_delta=6)
            expected = oracle_persistence(acts, identity, cfg)
            assert persistence(acts, identity, cfg) == expected
            assert persistence_streaming(acts, identity, cfg) == expected

    def test_minimal_horizons_differential_small(self):
        rng = random.Random(321)
        for _ in range(150):
            identity = context_identity(rng.randint(1, 5))
            acts = random_activations(rng, rng.randint(1, 30), identity)
            stride = rng.randint(1, 4)
            t = rng.randint(0, (len(acts) - 1) // stride)
            cap = rng.randint(0, 20)
            assert minimal_horizons(acts, identity, stride, t, cap) == (
                oracle_minimal_horizons(acts, identity, stride, t, cap)
            )


def test_only_the_oracle_module_imports_the_oracle():
    """The oracle stays an independent check: no production module uses it."""
    package = Path(tracebind.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "oracle.py":
            continue
        here = ("tracebind", *path.relative_to(package).parent.parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                parent = here[: len(here) - node.level + 1] if node.level else ()
                module = ".".join([*parent, *filter(None, [node.module])])
                targets = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(t == "tracebind.oracle" or t.startswith("tracebind.oracle.") for t in targets):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_runtime_imports_only_the_standard_library():
    """The runtime stays stdlib-only: every absolute import in the package
    names ``tracebind`` or a standard-library module."""
    package = Path(tracebind.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "tracebind" and top not in sys.stdlib_module_names:
                    offenders.append(f"{path.name}:{node.lineno}: {name}")
    assert offenders == []


class TestOneOrderRule:
    """Every function over activation sets reads the steps through
    ``identity.activation_masks``, so each refuses a trace out of step order."""

    # steps [2, 0, 1, 3] holding {a,b}, {a}, {b}, {a}
    SHUFFLED = [
        ActivationSet(2, frozenset({"a", "b"})),
        ActivationSet(0, frozenset({"a"})),
        ActivationSet(1, frozenset({"b"})),
        ActivationSet(3, frozenset({"a"})),
    ]

    @pytest.mark.parametrize(
        "call",
        [
            lambda acts, identity: persistence(acts, identity, WindowConfig(1, 1, (0, 1))),
            lambda acts, identity: gap_ratio(acts, identity, 1, [0, 1], 8),
            lambda acts, identity: window_horizons(acts, identity, 1, [0, 1], 8),
            lambda acts, identity: minimal_horizons(acts, identity, 1, 0, 8),
            lambda acts, identity: continuity(acts, identity.k),
        ],
        ids=["persistence", "gap_ratio", "window_horizons", "minimal_horizons", "continuity"],
    )
    def test_shuffled_trace_rejected(self, call):
        identity = GroundedIdentity(
            tuple(IngredientSpec(name, "context", context_pattern=(name,)) for name in "ab")
        )
        with pytest.raises(StreamOrderError, match="expected step 0, got 2"):
            call(self.SHUFFLED, identity)


class TestRendering:
    def test_render_json_is_deterministic(self):
        doc = {"a": 1.0, "b": INFINITE, "c": None, "d": {"e": 3, "f": True}}
        assert render_json(doc) == render_json(doc)
        assert '"inf"' in render_json(doc)
        assert "1.000000" in render_json(doc)

    def test_render_text_flattens(self):
        text = render_text({"a": 0.5, "nested": {"b": INFINITE}})
        assert "a = 0.500000" in text
        assert "nested.b = inf" in text

    @pytest.mark.parametrize("value", [float("nan"), -INFINITE])
    def test_render_number_rejects_values_without_json_form(self, value):
        with pytest.raises(MetricError, match="cannot render"):
            render_number(value)
        with pytest.raises(MetricError):
            render_json({"x": value})

    def test_render_json_ints_and_bools(self):
        # an exact int takes the short path; a bool is an int that is not one
        rendered = render_json([0, 1, True, False, 2**70, -3, 1.5])
        assert rendered == "[0, 1, true, false, 1180591620717411303424, -3, 1.500000]"
        assert render_json(7) == "7"
        assert render_json(True) == "true"

    def test_render_json_parses_back(self):
        import json

        doc = {"x": 0.25, "y": [1, 2, 3], "z": "inf", "w": None}
        parsed = json.loads(render_json(doc))
        assert parsed["x"] == 0.25
        assert parsed["y"] == [1, 2, 3]
        assert parsed["z"] == "inf"
        assert parsed["w"] is None


@given(st.integers(1, 6), st.integers(2, 40), st.integers(0, 5), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_streaming_equivalence_hypothesis(k, length, delta, stride):
    rng = random.Random(k * 1_000_003 + length * 101 + delta * 11 + stride)
    identity = context_identity(k)
    acts = random_activations(rng, length, identity)
    cfg = WindowConfig.all_valid(min(delta, length - 1), stride, length, 16)
    assert persistence_streaming(acts, identity, cfg) == oracle_persistence(
        acts, identity, cfg
    )
