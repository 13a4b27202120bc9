"""Tests for window slicing, the occur/coinst predicates, and minimal horizons."""

from __future__ import annotations

import random
from collections.abc import Sequence

import pytest

from conftest import (
    activations_from_sets,
    context_identity,
    random_activations,
)
from tracebind.errors import OutOfRangeError, ParameterError, StructuralError
from tracebind.identity import ActivationSet, ingredient_bits
from tracebind.metrics import persistence
from tracebind.oracle import oracle_minimal_horizons, oracle_persistence
from tracebind.windows import (
    INFINITE,
    WindowConfig,
    WindowSegment,
    coinstantiated,
    diamond,
    minimal_horizons,
    occurs,
    start_horizons,
    window,
    window_horizons,
)


def window_flags(masks, k: int, cfg: WindowConfig) -> tuple[bytearray, bytearray]:
    """The occur and coinst flags of each window, one byte per window: its
    ``start_horizons`` searched up to the window horizon, found or not."""
    starts = (cfg.stride * t for t in cfg.eval_indices)
    found = [
        (w_weak <= cfg.horizon, w_strong <= cfg.horizon)
        for _, w_weak, w_strong in start_horizons(masks, k, starts, cfg.horizon)
    ]
    return bytearray(f[0] for f in found), bytearray(f[1] for f in found)


PQ = context_identity(2, prefix="")  # ids "0", "1"
NAME_ROLE_CONSTRAINT = context_identity(3, prefix="ing")


def segment_of(*sets, start=0) -> WindowSegment:
    acts = tuple(
        ActivationSet(step_index=start + i, active=frozenset(s))
        for i, s in enumerate(sets)
    )
    return WindowSegment(start=start, activation_sets=acts)


WORKED_EXAMPLE = [{"ing0"}, {"ing1"}, {"ing2"}]


class TestWindowConfig:
    def test_defaults_and_normalization(self):
        cfg = WindowConfig(horizon=2, stride=1, eval_indices=(3, 1, 1))
        assert cfg.eval_indices == (1, 3)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            WindowConfig(horizon=-1, stride=1, eval_indices=(0,))
        with pytest.raises(ParameterError):
            WindowConfig(horizon=0, stride=0, eval_indices=(0,))
        with pytest.raises(ParameterError):
            WindowConfig(horizon=0, stride=1, eval_indices=(-1,))

    def test_all_valid(self):
        cfg = WindowConfig.all_valid(horizon=1, stride=1, trace_length=100)
        assert cfg.eval_indices == range(99)
        cfg = WindowConfig.all_valid(horizon=1, stride=2, trace_length=6)
        # starts 0,2,4 with end start+1 < 6
        assert cfg.eval_indices == range(3)
        assert tuple(cfg.eval_indices) == (0, 1, 2)

    @pytest.mark.parametrize("horizon, trace_length", [(1, 10), (0, 0), (20, 10)])
    def test_all_valid_refuses_a_zero_stride(self, horizon, trace_length):
        # the layer time count used to be divided by the stride: ZeroDivisionError
        with pytest.raises(ParameterError, match="stride must be >= 1"):
            WindowConfig.all_valid(horizon, 0, trace_length)

    def test_all_valid_is_restrict_to_of_every_layer_time(self):
        for horizon in range(4):
            for stride in range(1, 4):
                for n in range(8):
                    every = WindowConfig(horizon, stride, tuple(range(n)))
                    cfg = WindowConfig.all_valid(horizon, stride, n)
                    assert tuple(cfg.eval_indices) == every.restrict_to(n).eval_indices
                    assert type(cfg.eval_indices) is range

    def test_restrict_to_excludes_overrunning_windows(self):
        cfg = WindowConfig(horizon=2, stride=1, eval_indices=(0, 5, 50))
        assert cfg.restrict_to(10).eval_indices == (0, 5)


class TestWindowSlicing:
    ACTS = activations_from_sets([{"0"}, set(), {"1"}, {"0"}, {"1"}, {"0", "1"}])

    def test_single_step_window(self):
        cfg = WindowConfig(horizon=0, stride=1, eval_indices=(3,))
        seg = window(self.ACTS, cfg, 3)
        assert seg.start == 3
        assert len(seg.activation_sets) == 1
        assert seg.activation_sets[0].active == {"0"}

    def test_whole_trace_window(self):
        acts = self.ACTS[:3]
        cfg = WindowConfig(horizon=2, stride=1, eval_indices=(0,))
        seg = window(acts, cfg, 0)
        assert [a.step_index for a in seg.activation_sets] == [0, 1, 2]

    def test_stride_arithmetic(self):
        cfg = WindowConfig(horizon=1, stride=2, eval_indices=(2,))
        seg = window(self.ACTS, cfg, 2)
        assert [a.step_index for a in seg.activation_sets] == [4, 5]

    def test_out_of_range(self):
        cfg = WindowConfig(horizon=2, stride=1, eval_indices=(0,))
        with pytest.raises(OutOfRangeError):
            window(self.ACTS, cfg, 4)

    def test_non_consecutive_segment_rejected(self):
        acts = activations_from_sets([{"0"}, {"1"}])
        with pytest.raises(StructuralError):
            WindowSegment(start=5, activation_sets=tuple(acts))


class TestOccursCoinstantiated:
    def test_worked_example_occurs_but_not_coinst(self):
        seg = segment_of(*WORKED_EXAMPLE)
        assert occurs(seg, NAME_ROLE_CONSTRAINT) is True
        assert coinstantiated(seg, NAME_ROLE_CONSTRAINT) is False

    def test_empty_sets_never_occur(self):
        seg = segment_of(set(), set())
        assert occurs(seg, PQ) is False

    def test_two_step_counterexample(self):
        seg = segment_of({"0"}, {"1"})
        assert occurs(seg, PQ) is True
        assert coinstantiated(seg, PQ) is False

    def test_full_set_coinstantiates(self):
        seg = segment_of({"0"}, {"0", "1"})
        assert coinstantiated(seg, PQ) is True

    def test_coinst_implies_occurs_randomized(self):
        rng = random.Random(42)
        identity = context_identity(4)
        checked = 0
        for _ in range(12_000):
            length = rng.randint(1, 6)
            acts = random_activations(rng, length, identity)
            seg = WindowSegment(start=0, activation_sets=tuple(acts))
            if coinstantiated(seg, identity):
                assert occurs(seg, identity)
                checked += 1
        assert checked > 500


class TestDiamond:
    def test_singleton_subset(self):
        seg = segment_of({"0"}, {"1"})
        assert diamond(seg, {"0"}) is True
        assert diamond(seg, {"1"}) is True

    def test_pair_fails_on_split_segment(self):
        seg = segment_of({"0"}, {"1"})
        assert diamond(seg, {"0", "1"}) is False

    def test_empty_subset_rejected(self):
        seg = segment_of({"0"})
        with pytest.raises(StructuralError):
            diamond(seg, set())

    def test_full_set_diamond_equals_coinstantiated(self):
        rng = random.Random(17)
        identity = context_identity(3)
        for _ in range(200):
            acts = random_activations(rng, rng.randint(1, 8), identity)
            seg = WindowSegment(start=0, activation_sets=tuple(acts))
            assert diamond(seg, identity.ingredient_ids) == coinstantiated(
                seg, identity
            )

    def test_distribution_is_one_way(self):
        # full-set diamond implies all singleton diamonds; the converse fails
        rng = random.Random(5)
        identity = context_identity(3)
        for _ in range(300):
            acts = random_activations(rng, rng.randint(1, 6), identity)
            seg = WindowSegment(start=0, activation_sets=tuple(acts))
            if diamond(seg, identity.ingredient_ids):
                for ingredient in identity.ingredient_ids:
                    assert diamond(seg, {ingredient})
        counterexample = segment_of({"g0"}, {"g1"}, {"g2"})
        assert all(diamond(counterexample, {i}) for i in identity.ingredient_ids)
        assert not diamond(counterexample, identity.ingredient_ids)


class TestMonotonicity:
    def test_occurs_and_coinst_monotone_in_horizon(self):
        rng = random.Random(23)
        identity = context_identity(3)
        for _ in range(100):
            length = rng.randint(2, 12)
            acts = random_activations(rng, length, identity)
            flags = []
            for delta in range(length):
                seg = WindowSegment(start=0, activation_sets=tuple(acts[: delta + 1]))
                flags.append((occurs(seg, identity), coinstantiated(seg, identity)))
            for (o1, c1), (o2, c2) in zip(flags, flags[1:]):
                assert o2 >= o1
                assert c2 >= c1

    def test_zero_horizon_collapses_predicates(self):
        rng = random.Random(29)
        identity = context_identity(4)
        for _ in range(200):
            acts = random_activations(rng, 1, identity)
            seg = WindowSegment(start=0, activation_sets=tuple(acts))
            assert occurs(seg, identity) == coinstantiated(seg, identity)


class TestMinimalHorizons:
    def test_coinstantiated_at_start(self):
        acts = activations_from_sets([{"ing0", "ing1", "ing2"}, set()])
        assert minimal_horizons(acts, NAME_ROLE_CONSTRAINT, 1, 0, 8) == (0, 0)

    def test_alternating_trace(self):
        identity = context_identity(2)
        sets = [{"g0"} if u % 2 == 0 else {"g1"} for u in range(20)]
        acts = activations_from_sets(sets)
        for t in range(8):
            assert minimal_horizons(acts, identity, 1, t, 16) == (1, INFINITE)

    def test_worked_example_gap(self):
        acts = activations_from_sets(WORKED_EXAMPLE)
        w_weak, w_strong = minimal_horizons(acts, NAME_ROLE_CONSTRAINT, 1, 0, 8)
        assert w_weak == 2
        assert w_strong == INFINITE

    def test_horizon_cap_maps_to_infinite(self):
        identity = context_identity(2)
        sets = [{"g0"}] * 10 + [{"g0", "g1"}]
        acts = activations_from_sets(sets)
        assert minimal_horizons(acts, identity, 1, 0, 5) == (INFINITE, INFINITE)
        assert minimal_horizons(acts, identity, 1, 0, 10) == (10, 10)

    def test_strong_at_least_weak(self):
        rng = random.Random(31)
        identity = context_identity(4)
        for _ in range(300):
            acts = random_activations(rng, rng.randint(1, 20), identity)
            t = rng.randint(0, len(acts) - 1)
            w_weak, w_strong = minimal_horizons(acts, identity, 1, t, 32)
            assert w_strong >= w_weak

    def test_weak_round_trip(self):
        # a finite weak horizon means occurs really holds at that horizon
        rng = random.Random(37)
        identity = context_identity(3)
        for _ in range(200):
            acts = random_activations(rng, rng.randint(1, 16), identity)
            w_weak, _ = minimal_horizons(acts, identity, 1, 0, 32)
            if w_weak != INFINITE:
                seg = WindowSegment(
                    start=0, activation_sets=tuple(acts[: int(w_weak) + 1])
                )
                assert occurs(seg, identity)
                if w_weak > 0:
                    shorter = WindowSegment(
                        start=0, activation_sets=tuple(acts[: int(w_weak)])
                    )
                    assert not occurs(shorter, identity)

    def test_start_out_of_range(self):
        acts = activations_from_sets([{"g0"}])
        with pytest.raises(OutOfRangeError):
            minimal_horizons(acts, context_identity(1), 1, 5, 8)

    def test_stray_ingredient_in_scanned_steps_rejected(self):
        identity = context_identity(2)
        acts = activations_from_sets([{"g0"}, {"g1", "stray"}, {"g0", "g1"}])
        with pytest.raises(StructuralError, match="step 1"):
            minimal_horizons(acts, identity, 1, 0, 8)

    def test_stray_ingredient_after_both_horizons_not_scanned(self):
        identity = context_identity(2)
        acts = activations_from_sets([{"g0", "g1"}, {"stray"}])
        assert minimal_horizons(acts, identity, 1, 0, 8) == (0, 0)


class TestWindowHorizons:
    def test_given_order_and_duplicates_kept(self):
        acts = activations_from_sets([{"g0"}, {"g1"}, {"g0", "g1"}, {"g0"}, {"g1"}])
        assert window_horizons(acts, context_identity(2), 1, (3, 0, 3, 2), 8) == [
            (3, 1, INFINITE),
            (0, 1, 2),
            (3, 1, INFINITE),
            (2, 0, 0),
        ]

    def test_start_out_of_range(self):
        acts = activations_from_sets([{"g0"}] * 5)
        with pytest.raises(OutOfRangeError, match="window start 6"):
            window_horizons(acts, context_identity(1), 2, (0, 3), 8)
        with pytest.raises(OutOfRangeError):
            window_horizons(acts, context_identity(1), 1, (-1,), 8)

    def test_stray_in_a_later_window_range_rejected(self):
        # t=0 binds at once; t=1 scans steps 1..3, which holds the stray
        identity = context_identity(2)
        acts = activations_from_sets([{"g0", "g1"}, {"g0"}, {"g1", "stray"}, {"g0", "g1"}])
        with pytest.raises(StructuralError, match="step 2"):
            window_horizons(acts, identity, 1, (0, 1), 8)
        assert window_horizons(acts, identity, 1, (0,), 8) == [(0, 0, 0)]

    def test_stray_between_sparse_windows_not_scanned(self):
        identity = context_identity(2)
        sets = [{"g0", "g1"}] * 10
        sets[3] = {"stray"}
        acts = activations_from_sets(sets)
        assert window_horizons(acts, identity, 4, (2, 0, 1), 8) == [
            (2, 0, 0), (0, 0, 0), (1, 0, 0)
        ]

    def test_stray_beyond_the_cap_not_scanned(self):
        identity = context_identity(2)
        acts = activations_from_sets([{"g0"}, {"g1"}, {"g0"}, {"stray"}])
        assert window_horizons(acts, identity, 1, (0,), 2) == [(0, 1, INFINITE)]
        with pytest.raises(StructuralError, match="step 3"):
            window_horizons(acts, identity, 1, (0,), 3)
        with pytest.raises(StructuralError, match="step 3"):
            window_horizons(acts, identity, 1, (0, 1), 2)

    def test_sorted_starts_name_the_first_scanned_stray(self):
        # a stray fails exactly when it lies in some window's scanned range
        # s .. s + (w_strong or the cap), computed here on the trace without
        # strays; sorted starts name the first such step
        rng = random.Random(2_718)
        for _ in range(400):
            identity = context_identity(rng.randint(1, 3))
            clean = random_activations(rng, rng.randint(1, 25), identity)
            stray_steps = {u for u in range(len(clean)) if rng.random() < 0.08}
            acts = [
                ActivationSet(act.step_index, act.active | {"stray"})
                if act.step_index in stray_steps
                else act
                for act in clean
            ]
            stride = rng.randint(1, 4)
            t_max = (len(acts) - 1) // stride
            eval_indices = sorted(rng.randint(0, t_max) for _ in range(rng.randint(1, 6)))
            cap = rng.randint(0, 30)
            expected = []
            scanned = set()
            for t in eval_indices:
                w_weak, w_strong = oracle_minimal_horizons(clean, identity, stride, t, cap)
                start = stride * t
                reach = w_strong if w_strong != INFINITE else min(cap, len(acts) - 1 - start)
                scanned.update(range(start, start + reach + 1))
                expected.append((t, w_weak, w_strong))
            hit = sorted(stray_steps & scanned)
            if hit:
                with pytest.raises(StructuralError, match=f"step {hit[0]} "):
                    window_horizons(acts, identity, stride, eval_indices, cap)
            else:
                assert window_horizons(acts, identity, stride, eval_indices, cap) == expected


class TestMaskFolds:
    def test_k20_random_masks_match_the_oracle(self):
        # k=20 and 6,000 steps of random masks, nearly all of them distinct
        rng = random.Random(5_005)
        identity = context_identity(20)
        full = (1 << 20) - 1
        masks = [full if rng.random() < 0.05 else rng.getrandbits(20) for _ in range(6_000)]
        bits = ingredient_bits(identity)
        ids = sorted(bits, key=bits.get)
        acts = [
            ActivationSet(u, frozenset(ids[i] for i in range(20) if m >> i & 1))
            for u, m in enumerate(masks)
        ]
        cfg = WindowConfig.all_valid(3, 1, len(masks), 12)
        occur, coinst = window_flags(masks, identity.k, cfg)
        oracle = oracle_persistence(acts, identity, cfg)
        assert [(t, bool(o), bool(c)) for t, o, c in zip(cfg.eval_indices, occur, coinst)] == list(
            oracle.per_window
        )
        sample = sorted(rng.sample(cfg.eval_indices, 300))
        assert window_horizons(acts, identity, 1, sample, 12) == [
            (t, *oracle_minimal_horizons(acts, identity, 1, t, 12)) for t in sample
        ]

    def test_window_flags_stop_at_the_last_window(self):
        # a stream is encoded no further than the last window's end, and
        # read after it only for its step order
        cfg = WindowConfig(1, 2, (0, 1))
        assert window_flags([1, 2, 3, 3], 2, cfg) == (bytearray([1, 1]), bytearray([0, 1]))
        sets = [{"g0"}, {"g1"}, {"g0", "g1"}, {"g0", "g1"}, {"stray"}, {"stray"}]
        stream = iter(activations_from_sets(sets))
        result = persistence(stream, context_identity(2), cfg)
        assert result.per_window == ((0, True, False), (1, True, True))
        assert list(stream) == []

    def test_window_flags_stream_too_short(self):
        stream = iter(activations_from_sets([{"g0", "g1"}] * 3))
        with pytest.raises(OutOfRangeError, match="window at t=1 needs step 3, stream ended at step 2"):
            persistence(stream, context_identity(2), WindowConfig(1, 2, (0, 1)))


class Watched(Sequence):
    """Step masks that record, at each read, how many of the starts pulled so
    far are at or before the step read and not yet answered."""

    def __init__(self, masks, starts):
        self.masks = masks
        self.starts = starts
        self.pulled = []
        self.answered = 0
        self.most_pending = 0

    def __len__(self):
        return len(self.masks)

    def __getitem__(self, u):
        pending = sum(1 for s in self.pulled if s <= u) - self.answered
        self.most_pending = max(self.most_pending, pending)
        return self.masks[u]

    def pull(self):
        for s in self.starts:
            self.pulled.append(s)
            yield s


def run_watched(masks, k, starts, cap):
    watched = Watched(masks, starts)
    results = []
    for result in start_horizons(watched, k, watched.pull(), cap):
        results.append(result)
        watched.answered += 1
    return results, watched.most_pending


class ReadLog(Sequence):
    """Step masks that log each read as ``(start, step)``, with the last
    start the fold has pulled."""

    def __init__(self, masks, starts):
        self.masks = masks
        self.starts = starts
        self.start = None
        self.reads = []

    def __len__(self):
        return len(self.masks)

    def __getitem__(self, u):
        self.reads.append((self.start, u))
        return self.masks[u]

    def pull(self):
        for s in self.starts:
            self.start = s
            yield s

    def widest(self):
        """The most steps from a start to the furthest step read by then."""
        furthest = -1
        widest = 0
        for s, u in self.reads:
            furthest = max(furthest, u)
            widest = max(widest, furthest - s + 1)
        return widest


class TestStartHorizons:
    def test_pending_starts_stay_within_the_cap(self):
        rng = random.Random(6_006)
        for _ in range(300):
            k = rng.randint(1, 3)
            full = (1 << k) - 1
            n = rng.randint(1, 200)
            # rare full steps keep starts pending up to the cap
            masks = [full if rng.random() < 0.02 else rng.getrandbits(k) for _ in range(n)]
            stride = rng.randint(1, 4)
            cap = rng.randint(0, 40)
            ts = sorted(rng.sample(range((n - 1) // stride + 1), rng.randint(1, (n - 1) // stride + 1)))
            results, most = run_watched(masks, k, [stride * t for t in ts], cap)
            assert most <= cap // stride + 1
            acts = activations_from_sets(
                [{f"g{i}" for i in range(k) if mask >> i & 1} for mask in masks]
            )
            identity = context_identity(k)
            assert results == [
                (stride * t, *oracle_minimal_horizons(acts, identity, stride, t, cap))
                for t in ts
            ]

    def test_reads_follow_the_scanned_ranges(self):
        # every read lies in the scanned range s .. s + (w_strong or the cap)
        # of the start being answered, first reads come in increasing step
        # order, and no read is more than the cap ahead of that start, so
        # the window state spans at most cap + 1 steps
        rng = random.Random(6_116)
        for _ in range(400):
            k = rng.randint(1, 4)
            full = (1 << k) - 1
            n = rng.randint(1, 80)
            p_full = rng.choice([0.0, 0.03, 0.2])
            masks = [full if rng.random() < p_full else rng.getrandbits(k) for _ in range(n)]
            stride = rng.randint(1, 4)
            cap = rng.randint(0, 15)
            ts = sorted(rng.sample(range((n - 1) // stride + 1), rng.randint(1, (n - 1) // stride + 1)))
            log = ReadLog(masks, [stride * t for t in ts])
            results = list(start_horizons(log, k, log.pull(), cap))
            reach = {
                s: w_strong if w_strong != INFINITE else min(cap, n - 1 - s)
                for s, _, w_strong in results
            }
            first = list(dict.fromkeys(u for _, u in log.reads))
            assert first == sorted(first)
            assert all(s <= u <= s + reach[s] for s, u in log.reads)
            assert log.widest() <= cap + 1

    def test_state_bound_is_reached_on_an_unbound_trace(self):
        log = ReadLog([1, 2] * 50, range(0, 100, 2))
        results = list(start_horizons(log, 2, log.pull(), 10))
        assert results == [(s, 1, INFINITE) for s in range(0, 100, 2)]
        assert log.widest() == 10 + 1

    def test_results_come_in_start_order_as_they_resolve(self):
        # the start at 0 is covered at step 2 and expires at step 3, where
        # the starts at 1 and 2 are covered and bind; 4 meets the trace end
        masks = [1, 0, 2, 3, 0]
        stream = start_horizons(masks, 2, iter([0, 1, 2, 4]), 2)
        assert next(stream) == (0, 2, INFINITE)
        assert list(stream) == [(1, 2, 2), (2, 1, 1), (4, INFINITE, INFINITE)]

    def test_starts_checked_as_they_are_pulled(self):
        for starts, bad in [([0, 2, 1], 1), ([0, 0], 0), ([-1], -1), ([0, 3], 3)]:
            message = f"window start {bad} is out of order or outside the trace of length 3"
            with pytest.raises(OutOfRangeError, match=message):
                list(start_horizons([3, 3, 3], 2, iter(starts), 4))
