"""Tests for window slicing, the occur/coinst predicates, and minimal horizons."""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Sequence

import pytest

from conftest import (
    activations_from_sets,
    context_identity,
    random_activations,
)
from tracebind.errors import OutOfRangeError, ParameterError, StructuralError
from tracebind.identity import GroundedIdentity, ingredient_bits
from tracebind.oracle import oracle_minimal_horizons, oracle_persistence
from tracebind.sets import (
    ActivationSet,
    WindowSegment,
    coinstantiated,
    diamond,
    minimal_horizons,
    occurs,
    persistence,
    window,
    window_horizons,
)
from tracebind import windows
from tracebind.metrics import window_counts
from tracebind.windows import INFINITE, WindowConfig, start_horizons, window_starts


def window_flags(masks, k: int, cfg: WindowConfig) -> tuple[bytearray, bytearray]:
    """The occur and coinst flags of each window, one byte per window: its
    ``start_horizons`` searched up to the window horizon, found or not."""
    starts = [cfg.stride * t for t in cfg.eval_indices]
    found = [
        (w_weak <= cfg.horizon, w_strong <= cfg.horizon)
        for _, (w_weak, w_strong) in start_horizons(masks, k, starts, cfg.horizon)
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

    @pytest.mark.parametrize(
        "args, message",
        [
            ((True, 1, (0,)), "horizon must be an integer"),
            ((1.5, 1, (0,)), "horizon must be an integer"),
            ((1.5, 1, range(3)), "horizon must be an integer"),
            ((1, 1.0, (0,)), "stride must be an integer"),
            ((1, 1, (0,), 8.0), "horizon_max must be an integer"),
            ((1, 1, (0.5,)), "evaluation indices must be an integer"),
            ((1, 1, (1, True)), "evaluation indices must be an integer"),
            ((1, 1, "01"), "evaluation indices must be an integer"),
            ((1, 1, range(-1, 3)), "evaluation indices must be >= 0"),
        ],
    )
    def test_only_whole_numbers_are_taken(self, args, message):
        # horizon True scored as 1, and horizon 1.5 scored 1.0 on five steps
        # but raised a raw TypeError on ten
        with pytest.raises(ParameterError) as raised:
            WindowConfig(*args)
        assert str(raised.value) == message

    @pytest.mark.parametrize("t", [0.5, True, "0"])
    def test_window_horizons_takes_only_whole_layer_times(self, t):
        acts = activations_from_sets([{"g0"}] * 4)
        with pytest.raises(ParameterError, match="^evaluation indices must be an integer$"):
            window_horizons(acts, context_identity(1), 1, (t,), 4)
        with pytest.raises(ParameterError, match="^evaluation indices must be an integer$"):
            minimal_horizons(acts, context_identity(1), 1, t, 4)
        with pytest.raises(OutOfRangeError):
            window_horizons(acts, context_identity(1), 1, (4,), 4)


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

    def test_foreign_ids_do_not_count(self):
        # Chord is membership, not a count: the step {"0", "x"} holds two
        # ids but not both ingredients, so it does not co-instantiate PQ
        acts = activations_from_sets([{"0", "x"}, {"0"}])
        seg = WindowSegment(start=0, activation_sets=tuple(acts))
        assert occurs(seg, PQ) is False
        assert coinstantiated(seg, PQ) is False
        result = oracle_persistence(acts, PQ, WindowConfig(1, 1, (0,)))
        assert (result.p_weak, result.p_strong) == (0.0, 0.0)
        assert oracle_minimal_horizons(acts, PQ, 1, 0, 1) == (INFINITE, INFINITE)

    def test_coinst_implies_occurs_randomized(self):
        # the steps also draw ids g4 and g5, outside the identity
        rng = random.Random(42)
        identity = context_identity(4)
        universe = context_identity(6)
        checked = 0
        for _ in range(12_000):
            length = rng.randint(1, 6)
            acts = random_activations(rng, length, universe)
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
        # the steps also draw ids g3 and g4, outside the identity
        rng = random.Random(17)
        identity = context_identity(3)
        universe = context_identity(5)
        for _ in range(200):
            acts = random_activations(rng, rng.randint(1, 8), universe)
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

    def test_stray_ingredient_after_both_horizons_rejected(self):
        # every step up to the start plus the cap is checked, however soon
        # both horizons are found; a stray beyond the cap is not read
        identity = context_identity(2)
        acts = activations_from_sets([{"g0", "g1"}, {"g0", "g1"}, {"stray"}])
        with pytest.raises(StructuralError, match="step 2"):
            minimal_horizons(acts, identity, 1, 0, 8)
        assert minimal_horizons(acts, identity, 1, 0, 1) == (0, 0)


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
        # a stride or a cap that WindowConfig refuses, with its message
        acts = activations_from_sets([{"g0", "g1"}] * 6)
        for stride, eval_indices, cap, message in [
            (0, (0, 1, 2, 5), 4, "stride must be >= 1"),  # not the window at step 0 four times
            (-1, (0,), 4, "stride must be >= 1"),
            (1, (5,), -1, "horizon_max must be >= 0"),  # not a start outside a 5-step trace
            (1, (3,), -3, "horizon_max must be >= 0"),  # not horizons for a start that binds at once
        ]:
            with pytest.raises(ParameterError, match=message):
                window_horizons(acts, context_identity(2), stride, eval_indices, cap)
            with pytest.raises(ParameterError, match=message):
                minimal_horizons(acts, context_identity(2), stride, eval_indices[-1], cap)

    def test_stray_in_a_later_window_range_rejected(self):
        # t=0 binds at once; the steps up to the last start plus the cap,
        # which hold the stray, are checked all the same
        identity = context_identity(2)
        acts = activations_from_sets([{"g0", "g1"}, {"g0"}, {"g1", "stray"}, {"g0", "g1"}])
        with pytest.raises(StructuralError, match="step 2"):
            window_horizons(acts, identity, 1, (0, 1), 8)
        with pytest.raises(StructuralError, match="step 2"):
            window_horizons(acts, identity, 1, (0,), 8)
        assert window_horizons(acts, identity, 1, (0,), 1) == [(0, 0, 0)]

    def test_stray_between_sparse_windows_rejected(self):
        # the windows from 0, 4 and 8 all bind at their start, so no fold
        # reads step 3, but it lies before the last start plus the cap
        identity = context_identity(2)
        sets = [{"g0", "g1"}] * 10
        sets[3] = {"stray"}
        acts = activations_from_sets(sets)
        with pytest.raises(StructuralError, match="step 3"):
            window_horizons(acts, identity, 4, (2, 0, 1), 8)
        with pytest.raises(StructuralError, match="step 3"):
            window_horizons(acts, identity, 4, (1,), 0)
        assert window_horizons(acts, identity, 4, (0,), 2) == [(0, 0, 0)]

    def test_stray_beyond_the_cap_not_scanned(self):
        identity = context_identity(2)
        acts = activations_from_sets([{"g0"}, {"g1"}, {"g0"}, {"stray"}])
        assert window_horizons(acts, identity, 1, (0,), 2) == [(0, 1, INFINITE)]
        with pytest.raises(StructuralError, match="step 3"):
            window_horizons(acts, identity, 1, (0,), 3)
        with pytest.raises(StructuralError, match="step 3"):
            window_horizons(acts, identity, 1, (0, 1), 2)

    def test_sorted_starts_name_the_first_scanned_stray(self):
        # a stray fails exactly when it lies at or before the last step a
        # window can reach, min(n - 1, last start + cap); the horizons are
        # computed on the trace without strays, and the first such stray
        # is named
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
            expected = [
                (t, *oracle_minimal_horizons(clean, identity, stride, t, cap))
                for t in eval_indices
            ]
            last = min(len(acts) - 1, stride * eval_indices[-1] + cap)
            hit = sorted(u for u in stray_steps if u <= last)
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


class TestPaddedMasks:
    def test_padded_fold_scores_a_subset_statement(self):
        # a statement over a subset G of the ids is scored by the unchanged
        # k-bit fold over the masks m | (full & ~G): its horizons and window
        # flags, with delta as the cap, are the oracle's on the identity
        # restricted to G, whose steps also hold ids outside G
        rng = random.Random(1_919)
        for _ in range(2_000):
            k = rng.randint(1, 6)
            full = (1 << k) - 1
            identity = context_identity(k)
            bits = ingredient_bits(identity)
            target = rng.randint(1, full)
            restricted = GroundedIdentity(
                tuple(spec for spec in identity.ingredients if bits[spec.ingredient_id] & target)
            )
            delta = rng.randint(0, 12)
            n = rng.randint(delta + 1, delta + 30)
            p_full = rng.choice([0.0, 0.1, 0.3])
            masks = [full if rng.random() < p_full else rng.getrandbits(k) for _ in range(n)]
            acts = activations_from_sets(
                [{i for i, bit in bits.items() if m & bit} for m in masks]
            )
            padded = [m | (full & ~target) for m in masks]
            stride = rng.randint(1, 3)
            ts = range((n - 1) // stride + 1)
            assert list(start_horizons(padded, k, [stride * t for t in ts], delta)) == [
                (stride * t, oracle_minimal_horizons(acts, restricted, stride, t, delta))
                for t in ts
            ]
            cfg = WindowConfig.all_valid(delta, stride, n, delta)
            occur, coinst = window_flags(padded, k, cfg)
            assert [
                (t, bool(o), bool(c)) for t, o, c in zip(cfg.eval_indices, occur, coinst)
            ] == list(oracle_persistence(acts, restricted, cfg).per_window)


class ReadLog(Sequence):
    """Step masks that log each read."""

    def __init__(self, masks):
        self.masks = masks
        self.reads = []

    def __len__(self):
        return len(self.masks)

    def __getitem__(self, u):
        self.reads.append(u)
        return self.masks[u]


def chunk_reads(starts, n, cap, chunk):
    """The reads the kernel makes: for each run of starts within ``chunk``
    steps of its first, the steps from that first start to its last start
    plus the cap, or the trace end."""
    reads = []
    i = 0
    while i < len(starts):
        first = starts[i]
        while i < len(starts) and starts[i] < first + chunk:
            i += 1
        reads.append(slice(first, min(starts[i - 1] + cap, n - 1) + 1))
    return reads


def small_chunks(monkeypatch, chunk):
    monkeypatch.setattr(windows, "CHUNK", chunk)
    return chunk


class TestStartHorizons:
    def test_reads_follow_the_scanned_ranges(self, monkeypatch):
        # the kernel reads one slice of steps per chunk of starts: from the
        # chunk's first start to its last start plus the cap, so it holds at
        # most CHUNK + cap steps, and the slices come in step order; a range
        # of starts, its step up to past the chunk, is cut into ranges
        rng = random.Random(6_116)
        range_steps = set()  # past the chunk or not
        for _ in range(600):
            chunk = small_chunks(monkeypatch, rng.choice([1, 2, 5, 12]))
            k = rng.randint(1, 4)
            full = (1 << k) - 1
            n = rng.randint(1, 80)
            p_full = rng.choice([0.0, 0.03, 0.2])
            masks = [full if rng.random() < p_full else rng.getrandbits(k) for _ in range(n)]
            cap = rng.randint(0, 15)
            if rng.random() < 0.5:
                stride = rng.randint(1, 4)
                ts = sorted(rng.sample(range((n - 1) // stride + 1), rng.randint(1, (n - 1) // stride + 1)))
                starts = [stride * t for t in ts]
            else:
                stride = rng.randint(1, 16)
                first = rng.randrange(n)
                starts = range(first, rng.randint(first + 1, n), stride)
                range_steps.add(stride > chunk)
            log = ReadLog(masks)
            results = list(start_horizons(log, k, starts, cap))
            assert log.reads == chunk_reads(starts, n, cap, chunk)
            assert all(read.stop - read.start <= chunk + cap for read in log.reads)
            assert [s for s, _ in results] == list(starts)
            if isinstance(starts, range):
                assert all(isinstance(cut, range) for cut, *_ in windows.horizon_codes(masks, k, starts, cap))
        assert range_steps == {False, True}

    def test_state_bound_is_reached_on_an_unbound_trace(self, monkeypatch):
        chunk = small_chunks(monkeypatch, 16)
        log = ReadLog([1, 2] * 50)
        results = list(start_horizons(log, 2, range(99), 10))
        assert results == [(s, (1, INFINITE)) for s in range(99)]
        assert max(read.stop - read.start for read in log.reads) == chunk + 10

    def test_results_come_in_start_order_as_they_resolve(self):
        # the start at 0 is covered at step 2 and expires at step 3, where
        # the starts at 1 and 2 are covered and bind; 4 meets the trace end
        masks = [1, 0, 2, 3, 0]
        stream = start_horizons(masks, 2, [0, 1, 2, 4], 2)
        assert next(stream) == (0, (2, INFINITE))
        assert list(stream) == [(1, (2, 2)), (2, (1, 1)), (4, (INFINITE, INFINITE))]


def masks_as_activations(masks, k):
    """The identity over k ids and the activation sets whose masks, under
    ``ingredient_bits``, are ``masks``."""
    identity = context_identity(k)
    bits = ingredient_bits(identity)
    return identity, activations_from_sets([{i for i, bit in bits.items() if m & bit} for m in masks])


def oracle_start_horizons(masks, k, starts, cap):
    identity, acts = masks_as_activations(masks, k)
    return [(s, oracle_minimal_horizons(acts, identity, 1, s, cap)) for s in starts]


class TestKernel:
    """:func:`windows.horizon_codes` against ``oracle_minimal_horizons`` on
    random traces cut into small chunks, so that windows cross chunk
    boundaries: the whole :func:`metrics.window_counts` Counter, and
    ``start_horizons`` window by window."""

    @staticmethod
    def trace(rng: random.Random, k: int, n: int) -> list[int]:
        full = (1 << k) - 1
        shape = rng.choice(["uniform", "full", "rare", "padded"])
        if shape == "uniform":
            return [rng.getrandbits(k) for _ in range(n)]
        if shape == "full":
            p_full = rng.choice([0.05, 0.2, 0.5])
            return [full if rng.random() < p_full else rng.getrandbits(k) for _ in range(n)]
        if shape == "rare":
            # the top id is rare, so both horizons spread over the cap
            rare = 1 << (k - 1)
            return [rng.getrandbits(k - 1) | (rare if rng.random() < 0.06 else 0) for _ in range(n)]
        # a statement over a subset G: every id outside G is on at every step
        target = rng.randint(1, full)
        return [m | (full & ~target) for m in (rng.getrandbits(k) for _ in range(n))]

    @pytest.mark.parametrize("k", [1, 8, 9, 16, 65])
    def test_window_counts_match_the_oracle(self, monkeypatch, k):
        rng = random.Random(f"kernel {k}")
        below_delta = set()
        for _ in range(80):
            small_chunks(monkeypatch, rng.choice([1, 3, 7, 16, 33]))
            n = rng.randint(1, 90)
            masks = self.trace(rng, k, n)
            delta = rng.randint(0, min(8, n - 1))
            stride = rng.randint(1, 3)
            # a cap below delta and a zero cap among them
            cfg = WindowConfig.all_valid(delta, stride, n, rng.choice([0, 1, 3, 12, 24]))
            if len(cfg.eval_indices) > 1 and rng.random() < 0.4:
                kept = rng.sample(cfg.eval_indices, rng.randint(1, len(cfg.eval_indices)))
                cfg = WindowConfig(delta, stride, tuple(kept), cfg.horizon_max)
            cap = max(delta, cfg.horizon_max)
            starts = window_starts(cfg)
            expected = oracle_start_horizons(masks, k, starts, cap)
            assert window_counts(masks, k, cfg) == Counter((w, s) for _, (w, s) in expected)
            assert list(start_horizons(masks, k, starts, cap)) == expected
            below_delta.add(cfg.horizon_max < delta)
        assert below_delta == {True, False}

    @pytest.mark.parametrize("k", [1, 8, 9, 16, 65])
    def test_every_start_to_the_trace_end(self, monkeypatch, k):
        # starts within the cap of the trace end search only to the end
        rng = random.Random(f"kernel end {k}")
        for _ in range(20):
            small_chunks(monkeypatch, rng.choice([1, 4, 16]))
            n = rng.randint(1, 60)
            masks = self.trace(rng, k, n)
            cap = rng.randint(0, 20)
            starts = range(n) if rng.random() < 0.5 else list(range(0, n, rng.randint(1, 3)))
            assert list(start_horizons(masks, k, starts, cap)) == oracle_start_horizons(
                masks, k, starts, cap
            )

    def test_stress_shape(self, monkeypatch):
        # the stress trace in small: ids 0-6 uniform, id 7 rare, so the weak
        # and the strong horizons both spread over the whole cap
        small_chunks(monkeypatch, 64)
        rng = random.Random(1)
        masks = [rng.getrandbits(7) | (128 if rng.random() < 1 / 15 else 0) for _ in range(400)]
        cfg = WindowConfig.all_valid(4, 1, len(masks), 40)
        expected = oracle_start_horizons(masks, 8, window_starts(cfg), 40)
        assert list(start_horizons(masks, 8, window_starts(cfg), 40)) == expected
        counts = window_counts(masks, 8, cfg)
        assert counts == Counter((w, s) for _, (w, s) in expected)
        weak = {w for w, _ in counts if w != INFINITE}
        strong = {s for _, s in counts if s != INFINITE}
        assert max(weak) > 20 and max(strong) > 30 and len(strong) > 20

    def test_more_than_256_horizons_in_a_chunk(self):
        # one full step at 300: the start at s has both horizons 300 - s, so
        # one chunk has 301 codes on each side, two bytes' worth
        masks = [1] * 300 + [3] + [0] * 20
        expected = [(s, (300 - s, 300 - s)) if s >= 1 else (0, (INFINITE, INFINITE)) for s in range(301)]
        expected += [(s, (INFINITE, INFINITE)) for s in range(301, 321)]
        assert list(start_horizons(masks, 2, range(321), 299)) == expected
        cfg = WindowConfig.all_valid(0, 1, len(masks), 299)
        assert window_counts(masks, 2, cfg) == Counter((w, s) for _, (w, s) in expected)

    @pytest.mark.parametrize(
        "a, b, planes, width", [(7, 1, 8, 1), (7, 8, 9, 2), (127, 1, 16, 2), (127, 128, 17, 4)]
    )
    def test_lane_widths(self, monkeypatch, a, b, planes, width):
        # id 0 up to step a, id 1 alone at a, id 0 again up to the full step
        # at a + b: the chunk's weak horizons are 0 .. max(a, b - 1) and its
        # strong ones 0 .. a + b, so with INFINITE as the last rank on each
        # side its joint codes take exactly ``planes`` bits
        seen = []
        transposed = windows._transposed

        def spy(chunk_planes, count):
            codes = transposed(chunk_planes, count)
            seen.append((len(chunk_planes), memoryview(codes).itemsize))
            return codes

        monkeypatch.setattr(windows, "_transposed", spy)
        masks = [1] * a + [2] + [1] * (b - 1) + [3] + [0] * 12
        rng = random.Random(f"lanes {planes}")
        stride = rng.randint(2, 3)
        last = (len(masks) - 1) // stride
        ts = [0, *sorted(rng.sample(range(1, last), last // 2)), last]
        cfg = WindowConfig(0, stride, ts, a + b)
        expected = oracle_start_horizons(masks, 2, window_starts(cfg), a + b)
        assert window_counts(masks, 2, cfg) == Counter((w, s) for _, (w, s) in expected)
        assert list(start_horizons(masks, 2, window_starts(cfg), a + b)) == expected
        assert seen == [(planes, width)] * 2

    def test_levels_stop_once_every_resolvable_start_resolves(self, monkeypatch):
        # a trace that binds within a few steps: each chunk grows its level
        # sets to the largest horizon found there, never to the cap of 256;
        # the starts near the end, with no full step after them, cannot
        # resolve and do not hold the levels up
        grown: list[int] = []
        level_sets = windows._level_sets

        def counted(*args):
            grown.append(0)
            for level in level_sets(*args):
                grown[-1] += 1
                yield level

        monkeypatch.setattr(windows, "_level_sets", counted)
        rng = random.Random(25)
        n = 3 * windows.CHUNK
        masks = [255 if u % 3 == 0 or rng.random() < 0.3 else rng.getrandbits(8) for u in range(n)]
        masks[-5:] = [1, 2, 4, 8, 16]
        cfg = WindowConfig.all_valid(2, 1, n, 256)
        counts = window_counts(masks, 8, cfg)
        assert len(grown) == 2 * 3  # the weak and the strong levels of each chunk
        found = [(w, s) for _, (w, s) in start_horizons(masks, 8, window_starts(cfg), 256)]
        for chunk in range(3):
            part = found[chunk * windows.CHUNK : (chunk + 1) * windows.CHUNK]
            assert grown[2 * chunk] == 1 + max(w for w, _ in part if w != INFINITE)
            assert grown[2 * chunk + 1] == 1 + max(s for _, s in part if s != INFINITE)
        assert max(grown) <= 3
        # the last three windows, which start after the last full step
        assert counts[INFINITE, INFINITE] == 3
