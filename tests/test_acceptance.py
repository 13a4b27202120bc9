"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

All randomized checks use fixed seeds so the suite is deterministic.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

from conftest import (
    activations_from_sets,
    context_identity,
    random_activations,
)
from tracebind.cli import main
from tracebind.identity import LayeredIdentitySpec, check_compositionality, load_identity_file
from tracebind.oracle import oracle_minimal_horizons, oracle_persistence
from tracebind.sets import (
    ActivationSet,
    WindowSegment,
    activation_sets,
    coinstantiated,
    detect_grounding_failures,
    minimal_horizons,
    occurs,
    parse_trace,
    persistence,
    persistence_streaming,
    recovery,
    recovery_bound,
    state_distance,
)
from tracebind.simulator import (
    make_preset,
    scenario_alternating,
    scenario_drift_recover,
    scenario_rag_displacement,
)
from tracebind.windows import INFINITE, WindowConfig


GOLDEN = Path(__file__).parent / "golden"


def report(number: int, description: str, ok: bool) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_noncommutation_fixture(tmp_path, capsys):
    started = time.perf_counter()
    base = tmp_path / "nc"
    assert main(["simulate", "noncommutation", "--out", str(base)]) == 0
    sidecar = json.loads((tmp_path / "nc.expect.json").read_text())
    window = sidecar["window"]
    capsys.readouterr()
    code = main(
        [
            "analyze",
            "--trace", str(tmp_path / sidecar["trace"]),
            "--identity", str(tmp_path / sidecar["identity"]),
            "--delta", str(window["delta"]),
            "--stride", str(window["stride"]),
            "--eval", ",".join(str(t) for t in window["eval"]),
        ]
    )
    elapsed = time.perf_counter() - started
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    # a single evaluated window: the scores are the two predicate booleans
    occurs_flag = doc["p_weak"] == 1.0
    coinst_flag = doc["p_strong"] > 0.0
    # cross-check the booleans directly on the parsed trace
    trace = parse_trace(tmp_path / sidecar["trace"])
    identity, _ = load_identity_file(tmp_path / sidecar["identity"])
    acts = trace.to_activations(identity)
    segment = WindowSegment(start=0, activation_sets=tuple(acts))
    ok = (
        occurs_flag is True
        and coinst_flag is False
        and occurs(segment, identity) is True
        and coinstantiated(segment, identity) is False
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(1, f"occurs/coinst booleans exact, runtime {elapsed:.3f}s < 1s", ok)


def test_criterion_02_planning_failure_fixture(capsys):
    states, identity, cfg = scenario_alternating(100)
    arch = make_preset("prompted", context_capacity=1).architecture()
    acts = activation_sets(states, identity, arch)
    result = persistence(acts, identity, cfg)
    ok = (
        f"{result.p_weak:.6f}" == "1.000000"
        and f"{result.p_strong:.6f}" == "0.000000"
        and result.p_weak == 1.0
        and result.p_strong == 0.0
    )
    with capsys.disabled():
        report(2, "alternating length 100, delta=1: p_weak=1.000000 p_strong=0.000000", ok)


def test_criterion_03_ordering_property(capsys):
    rng = random.Random(30_001)
    violations = 0
    for _ in range(1000):
        k = rng.randint(1, 8)
        identity = context_identity(k)
        length = rng.randint(2, 256)
        acts = random_activations(rng, length, identity)
        delta = rng.randint(0, min(8, length - 1))
        stride = rng.randint(1, 4)
        cfg = WindowConfig.all_valid(delta, stride, length, 32)
        result = persistence(acts, identity, cfg)
        if result.p_strong > result.p_weak:
            violations += 1
        for _, occur, coinst in result.per_window:
            if coinst and not occur:
                violations += 1
    with capsys.disabled():
        report(
            3,
            "1000 random traces: p_strong <= p_weak and per-window coinst => occur",
            violations == 0,
        )


def test_criterion_04_oracle_equivalence(capsys):
    rng = random.Random(40_001)
    mismatches = 0
    for _ in range(1000):
        k = rng.randint(1, 8)
        identity = context_identity(k)
        length = rng.randint(2, 96)
        acts = random_activations(rng, length, identity)
        delta = rng.randint(0, min(6, length - 1))
        stride = rng.randint(1, 4)
        cfg = WindowConfig.all_valid(delta, stride, length, 24)
        expected = oracle_persistence(acts, identity, cfg)
        if persistence(acts, identity, cfg) != expected:
            mismatches += 1
        if persistence_streaming(iter(acts), identity, cfg) != expected:
            mismatches += 1
    for _ in range(500):
        k = rng.randint(1, 6)
        identity = context_identity(k)
        length = rng.randint(1, 64)
        acts = random_activations(rng, length, identity)
        stride = rng.randint(1, 4)
        t = rng.randint(0, (length - 1) // stride)
        cap = rng.randint(0, 48)
        if minimal_horizons(acts, identity, stride, t, cap) != oracle_minimal_horizons(
            acts, identity, stride, t, cap
        ):
            mismatches += 1
    with capsys.disabled():
        report(
            4,
            "persistence/streaming match the oracle on 1000 traces; "
            "minimal horizons match on 500 (trace, t) pairs",
            mismatches == 0,
        )


def test_criterion_05_capacity_void(capsys):
    rng = random.Random(50_001)
    violations = 0
    for k in range(2, 7):
        identity = context_identity(k)
        ids = sorted(identity.ingredient_ids)
        for c in range(1, k):
            for _ in range(100):
                length = rng.randint(2, 40)
                sets = [
                    set(rng.sample(ids, rng.randint(0, c))) for _ in range(length)
                ]
                acts = activations_from_sets(sets)
                for delta in (0, 1, 3):
                    for stride in (1, 2):
                        if delta >= length:
                            continue
                        cfg = WindowConfig.all_valid(delta, stride, length, 16)
                        if persistence(acts, identity, cfg).p_strong != 0.0:
                            violations += 1
    with capsys.disabled():
        report(
            5,
            "capacity-limited traces (all c < k <= 6): p_strong = 0 under every "
            "tested window config",
            violations == 0,
        )


def test_criterion_06_rag_non_monotonicity(capsys):
    without_rag, with_rag, identity, cfg = scenario_rag_displacement()
    from tracebind.sets import ScaffoldArchitecture

    arch = ScaffoldArchitecture(
        n_policy_flags=1,
        context_capacity=12,
        corpus=frozenset({"d0", "d1", "d2", "passage"}),
    )
    base = persistence(activation_sets(without_rag, identity, arch), identity, cfg)
    augmented = persistence(activation_sets(with_rag, identity, arch), identity, cfg)
    ok = augmented.p_strong < base.p_strong and augmented.p_weak >= base.p_weak
    with capsys.disabled():
        report(
            6,
            f"displacement scenario: p_strong {augmented.p_strong:.6f} < "
            f"{base.p_strong:.6f} and p_weak preserved",
            ok,
        )


def test_criterion_07_recovery_bound(capsys):
    rng = random.Random(70_001)
    violations = 0
    for _ in range(500):
        k = rng.randint(1, 10)
        ids = [f"g{i}" for i in range(k)]
        reference = set(rng.sample(ids, rng.randint(0, k)))
        removable = sorted(reference)
        epsilon = rng.choice([0.0, 0.01])
        removed = set(rng.sample(removable, rng.randint(0, len(removable))))
        controllable = set(rng.sample(ids, rng.randint(0, k)))
        interventions = rng.randint(0, k)
        ref_a, drift_a, recov_a = scenario_drift_recover(
            reference, removed, controllable, interventions
        )
        bound = recovery_bound(ref_a, drift_a, controllable, k, epsilon)
        if epsilon > 0:
            measured = recovery(ref_a, drift_a, recov_a, k, epsilon)
        else:
            d_drift = state_distance(drift_a, ref_a, k)
            d_recov = state_distance(recov_a, ref_a, k)
            measured = 1.0 if d_drift == 0 else max(0.0, 1.0 - d_recov / d_drift)
        if measured > bound + 1e-9:
            violations += 1
    # the canonical case: three drifted ingredients, one controllable, eps = 0
    ref_a, drift_a, _ = scenario_drift_recover(
        ["g0", "g1", "g2"], ["g0", "g1", "g2"], ["g0"], 1
    )
    canonical = recovery_bound(ref_a, drift_a, ["g0"], 3, 0.0)
    ok = violations == 0 and f"{canonical:.6f}" == "0.333333"
    with capsys.disabled():
        report(
            7,
            "500 random drift/recovery scenarios respect the bound; canonical "
            "case reports 0.333333",
            ok,
        )


def test_criterion_08_worked_example(capsys):
    acts = activations_from_sets([{"name"}, {"role"}, {"constraint"}])
    identity = context_identity(3)
    # rebuild the identity over the worked example's ingredient names
    from tracebind.identity import GroundedIdentity, IngredientSpec

    identity = GroundedIdentity(
        tuple(
            IngredientSpec(ingredient_id=i, kind="context", context_pattern=(i,))
            for i in ("name", "role", "constraint")
        )
    )
    segment = WindowSegment(start=0, activation_sets=tuple(acts))
    w_weak, w_strong = minimal_horizons(acts, identity, 1, 0, 16)
    from tracebind.sets import gap_ratio

    gap = gap_ratio(acts, identity, 1, (0,), 16)
    ok = (
        occurs(segment, identity) is True
        and coinstantiated(segment, identity) is False
        and w_weak == 2
        and w_strong == INFINITE
        and gap.ratio == INFINITE
    )
    with capsys.disabled():
        report(
            8,
            "three-step worked example: occur true, coinst false, w_weak(0)=2, "
            "gap ratio infinite",
            ok,
        )


def test_criterion_09_collapse_property(capsys):
    rng = random.Random(90_001)
    violations = 0
    for _ in range(200):
        k = rng.randint(1, 8)
        identity = context_identity(k)
        length = rng.randint(1, 128)
        acts = random_activations(rng, length, identity)
        stride = rng.randint(1, 4)
        cfg = WindowConfig.all_valid(0, stride, length, 8)
        result = persistence(acts, identity, cfg)
        if result.p_weak != result.p_strong:
            violations += 1
    with capsys.disabled():
        report(9, "delta=0 forces p_weak = p_strong on 200 random traces", violations == 0)


def test_criterion_10_streaming_performance(capsys):
    rng = random.Random(100_001)
    k = 16
    identity = context_identity(k)
    ids = sorted(identity.ingredient_ids)
    full = frozenset(ids)
    pool = [
        frozenset(rng.sample(ids, rng.randint(0, k - 1))) for _ in range(4093)
    ]
    pool.append(full)
    length = 1_000_000
    acts = [
        ActivationSet(step_index=u, active=pool[(u * 2654435761) % len(pool)])
        for u in range(length)
    ]
    cfg = WindowConfig.all_valid(32, 1, length, 64)
    started = time.perf_counter()
    result = persistence_streaming(acts, identity, cfg)
    elapsed = time.perf_counter() - started
    # spot-check against the naive oracle on a sampled subset of layer times
    sampled = tuple(sorted(rng.sample(cfg.eval_indices, 50)))
    oracle = oracle_persistence(acts, identity, WindowConfig(32, 1, sampled, 64))
    streamed_by_t = {t: (occ, coi) for t, occ, coi in result.per_window}
    agrees = all(
        streamed_by_t[t] == (occ, coi) for t, occ, coi in oracle.per_window
    )
    ok = elapsed < 5.0 and agrees and 0.0 <= result.p_strong <= result.p_weak <= 1.0
    with capsys.disabled():
        report(
            10,
            f"streaming persistence over 1e6 steps (k=16, delta=32) in "
            f"{elapsed:.2f}s < 5s; sampled windows agree with the oracle",
            ok,
        )


def test_criterion_11_report_stability(tmp_path, capsys):
    # scenario at its default flags -> the tests/golden case that pins it
    scenarios = {
        "noncommutation": "noncommutation",
        "alternating": "alternating",
        "capacity": "capacity",
        "rag-displacement": "rag-displacement",
        "drift-recover": "drift-recover",
        "preset-probe": "preset-probe-controller",
    }
    stable = True
    for scenario, golden_case in scenarios.items():
        base = tmp_path / scenario.replace("-", "_")
        assert main(["simulate", scenario, "--out", str(base)]) == 0
        sidecar = json.loads((tmp_path / f"{base.name}.expect.json").read_text())
        window = sidecar["window"]
        trace_names = (
            [sidecar["trace"]]
            if "trace" in sidecar
            else [sidecar["trace_without"], sidecar["trace_with"]]
        )
        for trace_name in trace_names:
            blobs = []
            for attempt in range(2):
                out = tmp_path / f"{base.name}.{trace_name}.{attempt}.report"
                code = main(
                    [
                        "analyze",
                        "--trace", str(tmp_path / trace_name),
                        "--identity", str(tmp_path / sidecar["identity"]),
                        "--delta", str(window["delta"]),
                        "--stride", str(window["stride"]),
                        "--eval", ",".join(str(t) for t in window["eval"]),
                        "--horizon-max", str(window["horizon_max"]),
                        "--out", str(out),
                    ]
                )
                assert code == 0
                blobs.append(out.read_bytes())
            golden = GOLDEN / golden_case / (
                golden_case + trace_name[len(base.name):] + ".analyze.json"
            )
            if blobs[0] != blobs[1] or blobs[0] != golden.read_bytes():
                stable = False
    capsys.readouterr()
    with capsys.disabled():
        report(
            11,
            "analyze reports are byte-identical across two runs and to the "
            "committed goldens on every shipped scenario fixture",
            stable,
        )


def test_criterion_12_compositional_grounding(capsys):
    rng = random.Random(120_001)
    ingredient_ids = [f"g{i}" for i in range(10)]
    identity = context_identity(10)
    failures = 0

    for _ in range(100):
        layer1 = [f"f{i}" for i in range(rng.randint(2, 5))]
        layer2 = [f"n{i}" for i in range(5)]
        map_1_to_0 = {
            label: frozenset(rng.sample(ingredient_ids, rng.randint(1, 3)))
            for label in layer1
        }
        map_2_to_1 = {
            label: frozenset(rng.sample(layer1, rng.randint(1, len(layer1))))
            for label in layer2
        }
        derived = {
            label: frozenset().union(*(map_1_to_0[m] for m in map_2_to_1[label]))
            for label in layer2
        }
        spec = LayeredIdentitySpec(
            layer2_statements=tuple(layer2),
            layer1_statements=tuple(layer1),
            map_2_to_1=map_2_to_1,
            map_1_to_0=map_1_to_0,
            map_2_to_0=derived,
        )
        if check_compositionality(spec) != []:
            failures += 1
        # tamper with a random non-empty subset of the layer-2 labels
        tampered_labels = sorted(rng.sample(layer2, rng.randint(1, len(layer2))))
        tampered_map = dict(derived)
        for label in tampered_labels:
            current = tampered_map[label]
            flip = rng.choice(ingredient_ids)
            tampered_map[label] = (
                current - {flip} if flip in current else current | {flip}
            )
        tampered = LayeredIdentitySpec(
            layer2_statements=tuple(layer2),
            layer1_statements=tuple(layer1),
            map_2_to_1=map_2_to_1,
            map_1_to_0=map_1_to_0,
            map_2_to_0=tampered_map,
        )
        if check_compositionality(tampered) != tampered_labels:
            failures += 1

    for _ in range(100):
        layer1 = ["f0", "f1"]
        layer2 = ["story"]
        map_1_to_0 = {
            "f0": frozenset(rng.sample(ingredient_ids, 2)),
            "f1": frozenset(rng.sample(ingredient_ids, 2)),
        }
        map_2_to_1 = {"story": frozenset(layer1)}
        derived = {"story": map_1_to_0["f0"] | map_1_to_0["f1"]}
        spec = LayeredIdentitySpec(
            layer2_statements=tuple(layer2),
            layer1_statements=tuple(layer1),
            map_2_to_1=map_2_to_1,
            map_1_to_0=map_1_to_0,
            map_2_to_0=derived,
        )
        required = sorted(derived["story"])
        length = 50
        planted = sorted(rng.sample(range(length), rng.randint(0, 6)))
        sets = []
        evaluator = [False] * length
        for u in range(length):
            if u in planted:
                # endorsed but at least one grounded ingredient missing
                missing = rng.choice(required)
                sets.append(set(required) - {missing})
                evaluator[u] = True
            elif rng.random() < 0.3:
                # endorsed and fully grounded: not a failure
                sets.append(set(required))
                evaluator[u] = True
            else:
                sets.append(set(rng.sample(ingredient_ids, rng.randint(0, 3))))
        acts = activations_from_sets(sets)
        found = detect_grounding_failures(
            acts, ["story"], evaluator, identity, spec, m=2
        )
        if found != planted:
            failures += 1

    with capsys.disabled():
        report(
            12,
            "compositionality flags exactly the tampered labels (100 fixtures); "
            "grounding-failure detection finds exactly the planted steps "
            "(100 fixtures)",
            failures == 0,
        )
