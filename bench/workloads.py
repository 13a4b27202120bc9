"""Workload definitions, seeded fixture generators and reference results.

Every fixture is built from a ``random.Random`` seeded with the workload
name and the seed, so one seed always gives the same bytes.  The generators keep the ingredient masks they
planted; the expected reports are computed from those masks by the code in
this module, which shares nothing with the ``tracebind`` production path,
and a seeded sample of windows is cross-checked against ``tracebind.oracle``.
"""

from __future__ import annotations

import json
import random
import statistics
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

INF = float("inf")

# Report parameters the benchmark leaves at their CLI defaults.
DELTA_I = 0.25
DELTA_CONS = 0.5
EPSILON = 0.01
ALPHA = 0.5
REF_INDEX = 0
SIM_HORIZON_MAX = 8  # fixed by the alternating scenario


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int
    delta: int
    horizon_max: int
    outputs: int
    sim_length: int


# Why each workload exists is recorded in BENCHMARK.json and README.md.  The
# probe and simulate sizes not singled out there are small controls.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("activation-k8", 20_000, 32, 256, 200, 3_000),
        Workload("state-session", 10_000, 4, 256, 500, 3_000),
        Workload("alternating-unbound", 8_000, 1, 256, 200, 6_000),
    )
}


def sized(workload: Workload, size: str) -> Workload:
    """The workload itself, or the same shapes at a few hundred steps."""
    if size == "full":
        return workload
    return replace(workload, steps=300, outputs=40, sim_length=60)


# ---------------------------------------------------------------------------
# Fixture generation
# ---------------------------------------------------------------------------


@dataclass
class Fixture:
    """Generated inputs plus the ingredient masks planted in every step."""

    ingredient_ids: list[str]
    identity_doc: dict
    trace_lines: list[str]
    masks: list[int]
    outputs: list[str]


def _context_identity(ids: list[str]) -> dict:
    return {
        "ingredients": [
            {"id": i, "kind": "context", "context_pattern": [i]} for i in ids
        ]
    }


def _activation_lines(masks: list[int], ids: list[str]) -> list[str]:
    lists = {}
    for m in set(masks):
        lists[m] = json.dumps([ids[b] for b in range(len(ids)) if m >> b & 1])
    return [f'{{"u":{u},"F":{lists[m]}}}' for u, m in enumerate(masks)]


def _activation_k8(rng: random.Random, steps: int) -> tuple[list[str], dict, list[int], list[str]]:
    ids = ["name", "role", "goal", "tone", "guard", "charter", "memory", "style"]
    full = (1 << len(ids)) - 1
    # A planted 15% share of full-conjunction steps binds most windows
    # within a few steps; the rest are uniform random subsets.
    masks = [full] + [
        full if rng.random() < 0.15 else rng.getrandbits(len(ids))
        for _ in range(steps - 1)
    ]
    return ids, _context_identity(ids), masks, _activation_lines(masks, ids)


def _alternating(rng: random.Random, steps: int) -> tuple[list[str], dict, list[int], list[str]]:
    ids = ["g1", "g2"]
    # g1 on even steps, g2 on odd ones; a seeded 10% of steps after the
    # first two hold neither, so no step ever holds both.
    masks = [1, 2] + [
        0 if rng.random() < 0.1 else (1 if u % 2 == 0 else 2) for u in range(2, steps)
    ]
    return ids, _context_identity(ids), masks, _activation_lines(masks, ids)


_FILLER = (
    "the a of to and in for on with as by at from that this it be or are was "
    "will can should must may task plan step tool call result user request "
    "reply check note draft file report data query answer review update "
    "status next then after before now later today ok done open close"
).split()
_CORPUS_EXTRA = ["faq", "handbook", "notes", "policy", "roadmap"]
_TEAMS = ["ops", "sales", "support"]
_TOPICS = ["billing", "onboarding", "incident", "audit", "planning"]
CONTEXT_TOKENS = 28


def _state_session(rng: random.Random, steps: int) -> tuple[list[str], dict, list[int], list[str]]:
    ids = ["name", "role", "team", "guard", "charter"]
    identity = {
        "ingredients": [
            {"id": "name", "kind": "context", "context_pattern": ["I", "am", "Ada"]},
            {"id": "role", "kind": "context", "context_pattern": ["analyst"]},
            {"id": "team", "kind": "memory", "memory_key": "team", "memory_value": "audit"},
            {"id": "guard", "kind": "policy", "flag_index": 2},
            {"id": "charter", "kind": "retrieval", "doc_id": "charter"},
        ]
    }
    full = (1 << len(ids)) - 1
    masks = []
    lines = []
    for u in range(steps):
        if u == 0 or rng.random() < 0.1:
            m = full
        else:
            m = sum(1 << b for b in range(len(ids)) if rng.random() < 0.6)
        masks.append(m)
        # Context chunks are shuffled whole, so a planted pattern is never
        # split and the filler never contains a pattern token.
        chunks = [("I", "am", "Ada")] if m & 1 else [("I", "am", rng.choice(["Bo", "Cy"]))]
        if m & 2:
            chunks.append(("analyst",))
        used = sum(len(c) for c in chunks)
        chunks += [(rng.choice(_FILLER),) for _ in range(CONTEXT_TOKENS - used)]
        rng.shuffle(chunks)
        context = [tok for chunk in chunks for tok in chunk]
        memory = {
            "team": "audit" if m & 4 else rng.choice(_TEAMS),
            "topic": rng.choice(_TOPICS),
        }
        flags = [rng.getrandbits(1), rng.getrandbits(1), 1 if m & 8 else 0, rng.getrandbits(1)]
        docs = sorted(
            (["charter"] if m & 16 else [])
            + [d for d in _CORPUS_EXTRA if rng.random() < 0.3]
        )
        lines.append(
            json.dumps(
                {"u": u, "C": context, "M": memory, "pi": flags, "D": docs},
                separators=(",", ":"),
            )
        )
    return ids, identity, masks, lines


_GENERATORS = {
    "activation-k8": _activation_k8,
    "state-session": _state_session,
    "alternating-unbound": _alternating,
}

_TEMPLATES = [
    "as {name} the {role} i will review the {doc} before i act",
    "i am {name} and my role is {role} so the {doc} comes first",
    "my name is {name} and i work as the {role} with the {doc}",
    "checking the {doc} now as the {team} team asked for it",
]
_SLOTS = {
    "name": ["ada", "ada lovelace"],
    "role": ["analyst", "data analyst", "risk analyst"],
    "doc": ["charter", "team charter", "audit charter"],
    "team": ["audit", "ops", "support"],
}


def _outputs(rng: random.Random, count: int) -> list[str]:
    """Paraphrases of a few templates: similar within a template, dissimilar
    across templates, so consistency falls strictly between 0 and 1."""
    out = []
    for _ in range(count):
        template = rng.choice(_TEMPLATES)
        text = template.format(**{k: rng.choice(v) for k, v in _SLOTS.items()})
        extra = [rng.choice(_FILLER) for _ in range(rng.randrange(3))]
        out.append(" ".join([text] + extra))
    return out


def generate(workload: Workload, seed: int) -> Fixture:
    rng = random.Random(f"{workload.name}:{seed}")
    ids, identity, masks, lines = _GENERATORS[workload.name](rng, workload.steps)
    return Fixture(ids, identity, lines, masks, _outputs(rng, workload.outputs))


def write_fixture(fixture: Fixture, directory: Path) -> dict[str, Path]:
    """Write the trace, a two-step setup trace, the identity and the outputs."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "trace": directory / "trace.jsonl",
        "setup_trace": directory / "setup.trace.jsonl",
        "identity": directory / "identity.json",
        "outputs": directory / "outputs.txt",
    }
    paths["trace"].write_text("\n".join(fixture.trace_lines) + "\n", encoding="utf-8")
    paths["setup_trace"].write_text(
        "\n".join(fixture.trace_lines[:2]) + "\n", encoding="utf-8"
    )
    paths["identity"].write_text(json.dumps(fixture.identity_doc), encoding="utf-8")
    paths["outputs"].write_text("\n".join(fixture.outputs) + "\n", encoding="utf-8")
    return paths


# ---------------------------------------------------------------------------
# Reference results
# ---------------------------------------------------------------------------


@dataclass
class WindowFacts:
    """Per-layer-time predicates and minimal horizons, from the masks."""

    occur: list[bool]
    coinst: list[bool]
    w_weak: list[float]
    w_strong: list[float]


def window_facts(masks: list[int], k: int, delta: int, horizon_max: int) -> WindowFacts:
    """Stride-1 windows over every valid layer time.

    One backward pass records, for every start s, the first full step at or
    after s and the step by which every ingredient has occurred; both
    minimal horizons and both persistence flags follow from those two.
    """
    n = len(masks)
    full = (1 << k) - 1
    next_seen = [n] * k
    next_full = n
    cover = [0] * n
    first_full = [0] * n
    for u in range(n - 1, -1, -1):
        m = masks[u]
        for b in range(k):
            if m >> b & 1:
                next_seen[b] = u
        if m == full:
            next_full = u
        cover[u] = max(next_seen)
        first_full[u] = next_full
    facts = WindowFacts([], [], [], [])
    for s in range(n - delta):
        limit = min(horizon_max, n - 1 - s)
        weak = cover[s] - s
        strong = first_full[s] - s
        facts.occur.append(weak <= delta)
        facts.coinst.append(strong <= delta)
        facts.w_weak.append(weak if weak <= limit else INF)
        facts.w_strong.append(strong if strong <= limit else INF)
    return facts


def analyze_document(masks: list[int], k: int, delta: int, horizon_max: int) -> dict:
    """The report ``tracebind analyze`` must print for this trace."""
    facts = window_facts(masks, k, delta, horizon_max)
    t_count = len(facts.occur)
    terms = [
        (ws + 1) / (ww + 1)
        for ww, ws in zip(facts.w_weak, facts.w_strong)
        if ww != INF
    ]
    steps = [1.0 - bin(masks[u] ^ masks[u - 1]).count("1") / k for u in range(1, len(masks))]
    reference = masks[REF_INDEX]
    identifiable = sum(
        1 for t in range(t_count) if bin(masks[t] ^ reference).count("1") / k <= DELTA_I
    )
    p_weak = sum(facts.occur) / t_count
    p_strong = sum(facts.coinst) / t_count
    return {
        "p_weak": p_weak,
        "p_strong": p_strong,
        "gap_ratio": statistics.median(terms),
        "gap_undefined_count": t_count - len(terms),
        "continuity_mean": sum(steps) / len(steps),
        "identifiability_rate": identifiable / t_count,
        "consistency": None,
        "recovery": None,
        "morphospace": {"coh": None, "avail": p_weak, "bind": p_strong, "alpha": ALPHA},
        "params": {
            "delta_i": DELTA_I,
            "delta_cons": DELTA_CONS,
            "epsilon": EPSILON,
            "alpha": ALPHA,
            "horizon_max": horizon_max,
            "ref_index": REF_INDEX,
        },
        "window": {"delta": delta, "stride": 1, "t_count": t_count},
    }


def probe_document(outputs: list[str]) -> dict:
    """Consistency over distinct token sets, weighted by their counts."""
    counts = list(Counter(frozenset(o.casefold().split()) for o in outputs).items())
    hits = 0
    for i, (a, ca) in enumerate(counts):
        hits += ca * (ca - 1) // 2  # identical sets have similarity 1
        for b, cb in counts[i + 1:]:
            if len(a & b) / len(a | b) >= DELTA_CONS:
                hits += ca * cb
    n = len(outputs)
    return {"consistency": hits / (n * (n - 1) / 2), "pairs": n * (n - 1) // 2, "delta_cons": DELTA_CONS}


def simulate_expected(length: int, base_name: str) -> dict:
    """Bytes of the alternating trace and the parsed identity and sidecar."""
    trace = "".join(
        f'{{"u":{u},"C":["{"g2" if u % 2 else "g1"}"],"M":{{}},"pi":[0],"D":[]}}\n'
        for u in range(length)
    )
    return {
        "trace": trace.encode(),
        "identity": _context_identity(["g1", "g2"]),
        "sidecar": {
            "scenario": "alternating",
            "trace": f"{base_name}.trace.jsonl",
            "identity": f"{base_name}.identity.json",
            "window": {
                "delta": 1,
                "stride": 1,
                "eval": list(range(length - 1)),
                "horizon_max": SIM_HORIZON_MAX,
            },
            "expect": {"p_weak": "1.000000", "p_strong": "0.000000", "gap_ratio": "inf"},
        },
    }


def normalized(value):
    """Map floats to the reports' six-decimal text so parsed output compares
    equal to a reference value exactly when the printed digits agree."""
    if isinstance(value, dict):
        return {key: normalized(v) for key, v in value.items()}
    if isinstance(value, list):
        return [normalized(v) for v in value]
    if isinstance(value, float):
        return "inf" if value == INF else f"{value:.6f}"
    return value


def check_against_oracle(fixture: Fixture, workload: Workload, seed: int, samples: int = 12) -> None:
    """Compare the reference window facts with ``tracebind.oracle`` on a
    seeded sample of layer times (the full oracle is quadratic in
    ``horizon_max`` per window).  Raises AssertionError on disagreement."""
    from tracebind.identity import ActivationSet, GroundedIdentity, IngredientSpec
    from tracebind.oracle import oracle_minimal_horizons, oracle_persistence
    from tracebind.windows import WindowConfig

    ids = fixture.ingredient_ids
    k = len(ids)
    identity = GroundedIdentity(
        tuple(IngredientSpec(ingredient_id=i, kind="context", context_pattern=(i,)) for i in ids)
    )
    sets = {m: frozenset(ids[b] for b in range(k) if m >> b & 1) for m in set(fixture.masks)}
    acts = [ActivationSet(step_index=u, active=sets[m]) for u, m in enumerate(fixture.masks)]
    facts = window_facts(fixture.masks, k, workload.delta, workload.horizon_max)
    t_count = len(facts.occur)
    rng = random.Random(f"oracle:{workload.name}:{seed}")
    sample = sorted({0, t_count - 1, *(rng.randrange(t_count) for _ in range(samples))})
    cfg = WindowConfig(workload.delta, 1, tuple(sample), workload.horizon_max)
    per_window = oracle_persistence(acts, identity, cfg).per_window
    for t, occur, coinst in per_window:
        horizons = oracle_minimal_horizons(acts, identity, 1, t, workload.horizon_max)
        mine = (facts.occur[t], facts.coinst[t], (facts.w_weak[t], facts.w_strong[t]))
        if mine != (occur, coinst, horizons):
            raise AssertionError(
                f"reference disagrees with tracebind.oracle at t={t}: "
                f"{mine} != {(occur, coinst, horizons)}"
            )
