"""The mask reader behind ``analyze``: equal to the object path and the oracle.

``read_masks`` turns each trace line straight into a k-bit step mask, and
the CLI folds those masks.  These tests hold it to the per-step object path
(``parse_trace`` -> ``to_activations``), to ``tracebind.oracle`` on random
traces of both forms, and to the same errors on malformed lines.  A guard
keeps per-step objects off the ``analyze`` path, and Hypothesis fuzzes the
readers and the CLI: only ``TracebindError`` may escape them.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import re
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tracebind.trace as trace_module
from tracebind.cli import SCENARIOS, build_report, main
from tracebind.trace import (
    _BLOCK_BYTES,
    _MAX_CACHED_LINES,
    _MAX_CACHED_TAILS,
    _text_lines,
    activation_record,
    context_text_matcher,
    read_masks,
    state_record,
    write_trace,
)
from tracebind.errors import FileFormatError, StructuralError, TracebindError
from tracebind.identity import (
    GroundedIdentity,
    IngredientSpec,
    _split_lines,
    ingredient_bits,
    load_identity_file,
    load_json,
    state_matcher,
)
from tracebind.metrics import (
    MetricParams,
    changed_bits,
    counted_persistence,
    identifiable_count,
    window_counts,
)
from tracebind.oracle import oracle_activation_set, oracle_minimal_horizons, oracle_persistence
from tracebind.sets import (
    ActivationSet,
    ScaffoldArchitecture,
    ScaffoldState,
    activation_mask,
    activation_sets,
    continuity,
    identifiability,
    parse_trace,
    window_horizons,
)
from tracebind.simulator import probe_presets
from tracebind.windows import WindowConfig
from conftest import context_identity, random_window_config

GOLDEN = Path(__file__).parent / "golden"

VOCAB = ["I", "am", "Ada", "x", "y"]
KEYS = ["team", "topic"]
VALUES = ["audit", "ops"]
DOCS = ["charter", "faq", "notes"]


def random_identity(rng: random.Random, n_flags: int) -> GroundedIdentity:
    """1-6 ingredients of every kind over small alphabets, so patterns repeat
    and match often; context patterns have 1-3 tokens."""
    kinds = ["context", "context", "memory", "retrieval"] + (["policy"] if n_flags else [])
    specs = []
    for i in range(rng.randint(1, 6)):
        kind = rng.choice(kinds)
        fields: dict = {"context_pattern": tuple(rng.choices(VOCAB, k=rng.randint(1, 3)))}
        if kind == "memory":
            fields = {"memory_key": rng.choice(KEYS), "memory_value": rng.choice(VALUES)}
        elif kind == "policy":
            fields = {"flag_index": rng.randrange(n_flags)}
        elif kind == "retrieval":
            fields = {"doc_id": rng.choice(DOCS)}
        specs.append(IngredientSpec(ingredient_id=f"i{i}", kind=kind, **fields))
    return GroundedIdentity(tuple(specs))


def random_state_records(rng: random.Random, length: int, n_flags: int) -> list[dict]:
    """Contexts of 0-8 tokens (empty and repeated tokens included)."""
    return [
        state_record(
            ScaffoldState(
                context=tuple(rng.choices(VOCAB, k=rng.randint(0, 8))),
                memory={key: rng.choice(VALUES) for key in KEYS if rng.random() < 0.6},
                policy_flags=tuple(rng.randint(0, 1) for _ in range(n_flags)),
                retrieved=frozenset(doc for doc in DOCS if rng.random() < 0.4),
                step_index=u,
            )
        )
        for u in range(length)
    ]


def random_activation_records(
    rng: random.Random, length: int, identity: GroundedIdentity
) -> list[dict]:
    ids = sorted(identity.ingredient_ids)
    return [
        activation_record(
            ActivationSet(step_index=u, active=frozenset(rng.sample(ids, rng.randint(0, len(ids)))))
        )
        for u in range(length)
    ]


def random_trace(rng: random.Random, path: Path) -> tuple[list[dict], GroundedIdentity]:
    n_flags = rng.randint(0, 3)
    identity = random_identity(rng, n_flags)
    length = rng.randint(1, 40)
    if rng.random() < 0.5:
        records = random_state_records(rng, length, n_flags)
    else:
        records = random_activation_records(rng, length, identity)
    write_trace(path, records)
    return records, identity


def outcome(fn, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return "ok", fn(*args)
    except TracebindError as exc:
        return type(exc), str(exc)


def object_path_masks(path: Path, identity: GroundedIdentity) -> list[int]:
    """``parse_trace`` -> ``to_activations``, then each set as a mask."""
    bits = ingredient_bits(identity)
    return [activation_mask(act, bits) for act in parse_trace(path).to_activations(identity)]


def assert_same_outcome(path: Path, identity: GroundedIdentity) -> tuple:
    got = outcome(read_masks, path, identity)
    assert got == outcome(object_path_masks, path, identity)
    return got


class TestMatchesObjectPathAndOracle:
    def test_random_traces_of_both_forms(self, tmp_path):
        rng = random.Random(4_004)
        path = tmp_path / "trace.jsonl"
        for _ in range(400):
            _, identity = random_trace(rng, path)
            _, masks = assert_same_outcome(path, identity)
            trace = parse_trace(path)
            acts = trace.to_activations(identity)
            if trace.form == "state":
                arch = ScaffoldArchitecture(len(trace.states[0].policy_flags), context_capacity=1)
                assert activation_sets(trace.states, identity, arch) == [
                    oracle_activation_set(state, identity) for state in trace.states
                ]

            k = identity.k
            n = len(acts)
            cfg = random_window_config(rng, n, max_delta=6, max_stride=3, horizon_max=rng.randint(0, 50))
            oracle = oracle_persistence(acts, identity, cfg)
            counts = window_counts(masks, k, cfg)
            assert counted_persistence(counts, cfg.horizon) == (oracle.p_weak, oracle.p_strong)
            horizons = window_horizons(acts, identity, cfg.stride, cfg.eval_indices, cfg.horizon_max)
            assert horizons == [
                (t, *oracle_minimal_horizons(acts, identity, cfg.stride, t, cfg.horizon_max))
                for t in cfg.eval_indices
            ]
            if n > 1:
                per_step, mean = continuity(acts, k)
                assert [1.0 - changed / k for changed in changed_bits(masks, k, range(1, n))] == per_step
                changed = sum((masks[u] ^ masks[u - 1]).bit_count() for u in range(1, n))
                assert mean == float(1 - Fraction(changed, k * (n - 1)))
            ref = rng.randrange(n)
            starts = [cfg.stride * t for t in cfg.eval_indices]
            assert identifiable_count(masks, ref, k, 0.25, starts) == sum(
                identifiability(acts[s], acts[ref], k, 0.25) for s in starts
            )


# One fault per entry: replaces the record of step u (given the file's form
# and that record) with a bad line.
FAULTS = [
    lambda u, rec: "{broken",
    lambda u, rec: "   ",
    lambda u, rec: "[]",
    lambda u, rec: json.dumps({**rec, "extra": 1}),
    lambda u, rec: json.dumps({**rec, "u": u + 1}),
    lambda u, rec: json.dumps({**rec, "u": True}),
    lambda u, rec: json.dumps({**rec, "u": float(u)}),
    lambda u, rec: '{"u":%d,' % u + json.dumps(rec)[1:],
    lambda u, rec: json.dumps({"u": u, "F": ["ghost"]}),
    lambda u, rec: json.dumps({"u": u, "F": "i0"}),
    lambda u, rec: json.dumps({"u": u, "F": [1]}),
    lambda u, rec: json.dumps({"u": u, "C": [], "M": {}, "pi": [], "D": []}),
    lambda u, rec: json.dumps({**rec, "C": ["a", 2]}),
    lambda u, rec: json.dumps({**rec, "M": []}),
    lambda u, rec: json.dumps({**rec, "M": {"team": 1}}),
    lambda u, rec: json.dumps({**rec, "pi": [1.0] + rec.get("pi", [])[1:]}),
    lambda u, rec: json.dumps({**rec, "pi": rec.get("pi", []) + [0]}),
    lambda u, rec: json.dumps({**rec, "D": "charter"}),
]


class TestSameErrorsAsObjectPath:
    def test_malformed_lines(self, tmp_path):
        rng = random.Random(4_005)
        path = tmp_path / "trace.jsonl"
        for _ in range(400):
            records, identity = random_trace(rng, path)
            lines = [json.dumps(rec, separators=(",", ":")) for rec in records]
            # one or two faults, so the order between them is checked too
            for u in rng.sample(range(len(lines)), min(len(lines), rng.randint(1, 2))):
                lines[u] = rng.choice(FAULTS)(u, records[u])
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert_same_outcome(path, identity)

    def test_flag_index_outside_the_first_record(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, random_state_records(random.Random(1), 3, 2))
        identity = GroundedIdentity(
            (
                IngredientSpec(ingredient_id="a", kind="policy", flag_index=1),
                IngredientSpec(ingredient_id="b", kind="policy", flag_index=2),
            )
        )
        got = assert_same_outcome(path, identity)
        assert "flag_index 2 out of range for architecture with 2 flags" in got[1]


class _Repeated(Exception):
    pass


def _refuse_repeats(pairs):
    keys = [key for key, _ in pairs]
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise _Repeated(key)
    return dict(pairs)


def full_decode(text: str, where: str) -> tuple:
    """``json.loads`` with a repeated-key check, mapped to the faults
    ``load_json`` locates: the decode its one-scan path must agree with."""
    try:
        return "ok", json.loads(text, object_pairs_hook=_refuse_repeats)
    except _Repeated as exc:
        return FileFormatError, f"{where}: duplicate key {exc.args[0]!r}"
    except RecursionError:
        return FileFormatError, f"{where}: invalid JSON: nested too deeply"
    except json.JSONDecodeError as exc:
        return json.JSONDecodeError, str(exc)
    except ValueError:
        return FileFormatError, f"{where}: invalid JSON: integer literal too long"


def loaded(text: str, where: str, lineno: int) -> tuple:
    try:
        return "ok", load_json(text, where, lineno)
    except (TracebindError, json.JSONDecodeError) as exc:
        return type(exc), str(exc)


class TestOneScanDecode:
    def test_same_outcome_as_the_full_decode(self, tmp_path):
        rng = random.Random(4_006)
        path = tmp_path / "trace.jsonl"
        kinds = set()
        for _ in range(200):
            records, _ = random_trace(rng, path)
            u = rng.randrange(len(records))
            line = json.dumps(records[u], separators=(",", ":"))
            variants = [fault(u, records[u]) for fault in FAULTS] + [
                line,
                " " + line,
                line + " \t",
                "\ufeff" + line,
                line + "x",
                line + "}",
                line + " 1",
                line[:-1],
                '{"u":' + "1" * 4300 + ',"F":[]}',
                '{"u":' + "1" * 4301 + ',"F":[]}',
                '{"u":0,"F":[' + "9" * 5000 + "]}",
            ]
            for text in variants:
                got = loaded(text, "trace.jsonl", u + 1)
                assert got == full_decode(text, f"trace.jsonl:{u + 1}")
                kinds.add(got[0])
        assert kinds == {"ok", json.JSONDecodeError, FileFormatError}
        deep = "[" * 100_000
        assert loaded(deep, "trace.jsonl", 0) == full_decode(deep, "trace.jsonl")


def compact(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


class TestTailMemo:
    """``read_masks`` reuses the mask of a compact line's ``F`` text; every
    other line takes the full decode.  Each case warms the memo first, so the
    faulty line's tail is cached when it is read."""

    def warm_lines(self, rng: random.Random, identity: GroundedIdentity, length: int) -> list[dict]:
        ids = sorted(identity.ingredient_ids)
        pool = [sorted(rng.sample(ids, rng.randint(0, len(ids)))) for _ in range(4)]
        return [{"u": u, "F": rng.choice(pool)} for u in range(length)]

    def test_faults_after_a_warm_memo(self, tmp_path):
        rng = random.Random(6_006)
        path = tmp_path / "trace.jsonl"
        identity = context_identity(3)
        kinds = set()
        for fault in FAULTS:
            for _ in range(12):
                records = self.warm_lines(rng, identity, 12)
                lines = [compact(rec) for rec in records]
                u = rng.randrange(4, 12)
                text = fault(u, records[u])
                # the fault as written, and compact where it is an object
                try:
                    spellings = [text, compact(json.loads(text))]
                except (ValueError, TypeError):
                    spellings = [text]
                for lines[u] in spellings:
                    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                    kinds.add(assert_same_outcome(path, identity)[0])
        assert kinds == {"ok", FileFormatError}

    def test_other_spellings_of_a_cached_line(self, tmp_path):
        rng = random.Random(6_007)
        path = tmp_path / "trace.jsonl"
        identity = context_identity(3)
        for _ in range(40):
            records = self.warm_lines(rng, identity, 10)
            lines = [compact(rec) for rec in records]
            u = rng.randrange(5, 10)
            line = lines[u]
            tail = line[len('{"u":%d,"F":' % u):]
            # the tail of the line before, so it is in the memo
            cached = lines[u - 1][len('{"u":%d,"F":' % (u - 1)):]
            variants = [
                " " + line,
                line + " ",
                line + "\t",
                "\ufeff" + line,
                line + "x",
                line + "}",
                line[:-1],
                line[:-1] + " ",
                line[:-1] + "]",
                '{"u":%d,"F":%s' % (u + 1, cached),
                '{"u":%d,"F":%s' % (u - 1, cached),
                '{"u":0%d,"F":%s' % (u, cached),
                '{"u":%d.0,"F":%s' % (u, cached),
                '{"u":%d, "F":%s' % (u, cached),
                '{"\\u0075":%d,"F":%s' % (u, cached),
                '{"F":%s,"u":%d}' % (cached[:-1], u),
                '{"u":%d,"F":%s,"F":[]}' % (u, cached[:-1]),
                '{"u":%d,"F":%s' % (u, tail.replace("]", ",1]", 1)),
            ]
            got = set()
            for text in variants:
                lines[u] = text
                path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                got.add(assert_same_outcome(path, identity)[0])
            assert got == {"ok", FileFormatError}

    def test_stray_tail_repeated_after_a_fault(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        identity = context_identity(2)
        stray = ["g0", "ghost"]
        records = [{"u": u, "F": ["g0"] if u < 3 else stray} for u in range(10)]
        lines = [compact(rec) for rec in records]
        write_lines = lambda: path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        write_lines()
        # the first stray step is named, however often its tail repeats
        assert assert_same_outcome(path, identity)[1].startswith("step 3 references")
        lines[7] = "{broken"
        write_lines()
        assert "trace.jsonl:8: invalid JSON" in assert_same_outcome(path, identity)[1]
        lines[7] = compact({"u": 7, "F": ["g1"]})
        lines[2] = compact({"u": 2, "F": ["ghost"]})
        write_lines()
        assert assert_same_outcome(path, identity)[1].startswith("step 2 references")

    def test_state_form_then_compact_activation_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        identity = context_identity(2)
        state = compact({"u": 0, "C": ["g0"], "M": {}, "pi": [], "D": []})
        lines = [state] + [compact({"u": u, "F": ["g0"]}) for u in range(1, 6)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = assert_same_outcome(path, identity)
        assert "do not match the state form used by this file" in got[1]

    @pytest.mark.parametrize("repeats", [1, 3])
    def test_more_distinct_tails_than_the_memo_holds(self, tmp_path, monkeypatch, repeats):
        # 3,072 distinct tails: met once each they drop the memo; met three
        # times in a row they keep it, emptied each time it fills
        rng = random.Random(6_008)
        path = tmp_path / "trace.jsonl"
        identity = context_identity(16)
        ids = sorted(identity.ingredient_ids)
        distinct = [sorted(rng.sample(ids, rng.randint(0, 16))) for _ in range(3 * _MAX_CACHED_TAILS)]
        lines = [compact({"u": u, "F": distinct[u // repeats]}) for u in range(repeats * len(distinct))]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        calls = []
        monkeypatch.setattr(trace_module, "load_json", lambda *args: calls.append(1) or load_json(*args))
        assert assert_same_outcome(path, identity)[0] == "ok"
        decoded_by_read_masks = len(calls) - len(lines)
        if repeats > 1:
            assert decoded_by_read_masks < len(lines) // 2
        u = len(lines) - 5
        lines[u] = '{"u":%d,"F":%s' % (u + 1, lines[u - 1][len('{"u":%d,"F":' % (u - 1)):])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert "expected u=%d, got u=%d" % (u, u + 1) in assert_same_outcome(path, identity)[1]

    def test_each_distinct_tail_is_decoded_once(self, tmp_path, monkeypatch):
        rng = random.Random(6_009)
        path = tmp_path / "trace.jsonl"
        identity = context_identity(8)
        ids = sorted(identity.ingredient_ids)
        records = [
            activation_record(ActivationSet(u, frozenset(rng.sample(ids, rng.randint(0, 8)))))
            for u in range(20_000)
        ]
        write_trace(path, records)
        tails = {json.dumps(rec["F"], separators=(",", ":")) for rec in records}
        expected = object_path_masks(path, identity)
        calls = []

        def counted(*args):
            calls.append(args[0])
            return load_json(*args)

        monkeypatch.setattr(trace_module, "load_json", counted)
        assert read_masks(path, identity) == expected
        assert len(calls) <= len(tails) + 1


# A state identity with every ingredient kind, and the per-file pools its
# warm traces draw their M, pi and D values from.
STATE_IDENTITY = GroundedIdentity(
    (
        IngredientSpec(ingredient_id="name", kind="context", context_pattern=("I", "am", "Ada")),
        IngredientSpec(ingredient_id="role", kind="context", context_pattern=("x",)),
        IngredientSpec(ingredient_id="team", kind="memory", memory_key="team", memory_value="audit"),
        IngredientSpec(ingredient_id="guard", kind="policy", flag_index=1),
        IngredientSpec(ingredient_id="charter", kind="retrieval", doc_id="charter"),
    )
)
STATE_POOLS = {
    "M": [{}, {"team": "audit"}, {"team": "ops", "topic": "audit"}],
    "pi": [[0, 1], [1, 0], [1, 1]],
    "D": [[], ["charter"], ["charter", "faq"]],
}


def counted_decodes(monkeypatch, matched: list | None = None) -> list:
    """Patch the reader's strict decoder to record each call and, given
    ``matched``, its context matcher to record each text it reads there."""
    calls: list = []
    monkeypatch.setattr(trace_module, "load_json", lambda *args: calls.append(args[0]) or load_json(*args))
    if matched is not None:

        def counted_matcher(identity: GroundedIdentity):
            match = context_text_matcher(identity)
            return match and (lambda body: matched.append(body) or match(body))

        monkeypatch.setattr(trace_module, "context_text_matcher", counted_matcher)
    return calls


class TestStateMemo:
    """``read_masks`` reuses the bits of a compact state line's ``M``, ``pi``
    and ``D`` texts and reads its context bits off a ``C`` of plain strings;
    every other line takes the full decode.  Each case warms the memo first,
    so the field texts of the line under test are cached when it is read."""

    def warm(self, rng: random.Random, length: int = 10) -> tuple[list[dict], int]:
        """Records of ``STATE_IDENTITY``, and a step ``u`` whose M, pi and D
        the step before repeats."""
        records = [
            {"u": u, "C": rng.choices(VOCAB, k=rng.randint(0, 8)),
             **{name: rng.choice(pool) for name, pool in STATE_POOLS.items()}}
            for u in range(length)
        ]
        u = rng.randrange(4, length)
        records[u - 1].update({name: records[u][name] for name in STATE_POOLS})
        return records, u

    def check(self, path: Path, lines: list[str], identity: GroundedIdentity = STATE_IDENTITY) -> tuple:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return assert_same_outcome(path, identity)

    def test_faults_after_a_warm_memo(self, tmp_path):
        rng = random.Random(7_007)
        path = tmp_path / "trace.jsonl"
        kinds = set()
        for fault in FAULTS:
            for _ in range(12):
                records, u = self.warm(rng)
                lines = [compact(rec) for rec in records]
                text = fault(u, records[u])
                # the fault as written, and compact where it is an object
                try:
                    spellings = [text, compact(json.loads(text))]
                except (ValueError, TypeError):
                    spellings = [text]
                for lines[u] in spellings:
                    kinds.add(self.check(path, lines)[0])
        assert kinds == {"ok", FileFormatError}

    def test_field_texts_next_to_cached_ones(self, tmp_path):
        # a repeated key in an M whose text without it is cached, pi of
        # another length or with true or 1.0, and near misses of each field
        path = tmp_path / "trace.jsonl"
        cached = {"M": '{"team":"audit"}', "pi": "[0,1]", "D": '["charter"]'}
        variants = {
            "M": ['{"team":"audit","team":"audit"}', '{"team":"ops","team":"audit"}',
                  '{"team":"audit","topic":"x","team":"ops"}', '{"team":"audit"', '{"team":1}',
                  '{"team":"audit"}}', '{"team":"audit","topic":"x"}', '{}', '[]'],
            "pi": ["[0,1,0]", "[0]", "[]", "[true,1]", "[1.0,1]", "[0,1.0]", "[0,2]", "[0,-1]",
                   "[0,1]]", "[0,01]", "[1,1]", "[0,false]"],
            "D": ['["charter","charter"]', '["charter",1]', '"charter"', '["charter"]]',
                  '["charter"', '[]', '["faq"]', '{"charter":1}'],
        }
        kinds = set()
        for name, texts in variants.items():
            for text in texts:
                fields = {**cached, name: text}
                lines = ['{"u":%d,"C":["I","am","Ada"],"M":%s,"pi":%s,"D":%s}' % (u, *cached.values())
                         for u in range(6)]
                lines[4] = '{"u":4,"C":["x"],"M":%s,"pi":%s,"D":%s}' % tuple(fields.values())
                kinds.add(self.check(path, lines)[0])
        # a D text that, without the closing brace, spells a cached pi text
        lines[4] = '{"u":4,"C":["x"],"M":{"team":"audit"},"pi":[0,1],"D":[0,1]'
        kinds.add(self.check(path, lines)[0])
        assert kinds == {"ok", FileFormatError}

    def test_other_spellings_of_a_cached_line(self, tmp_path):
        rng = random.Random(7_008)
        path = tmp_path / "trace.jsonl"
        for _ in range(30):
            records, u = self.warm(rng)
            lines = [compact(rec) for rec in records]
            line = lines[u]
            c = compact(records[u]["C"])
            m, pi, d = (compact(records[u][name]) for name in ("M", "pi", "D"))
            fields = line[line.index(',"M":'):]
            variants = [
                '{"u":%d,"C":%s%s' % (u + 1, c, fields),
                '{"u":%d,"C":%s%s' % (u - 1, c, fields),
                '{"u":0%d,"C":%s%s' % (u, c, fields),
                '{"u":%d.0,"C":%s%s' % (u, c, fields),
                '{"u":%d, "C":%s%s' % (u, c, fields),
                '{"u":%d,"C": %s%s' % (u, c, fields),
                '{"u":%d,"C":%s %s' % (u, c, fields),
                '{"u":%d,"C":%s,"M": %s,"pi":%s,"D":%s}' % (u, c, m, pi, d),
                '{"u":%d,"C":%s,"M":%s, "pi":%s,"D":%s}' % (u, c, m, pi, d),
                '{"u":%d,"C":%s,"M":%s,"pi":%s,"D": %s}' % (u, c, m, pi, d),
                '{"u":%d,"M":%s,"C":%s,"pi":%s,"D":%s}' % (u, m, c, pi, d),
                '{"u":%d,"C":%s,"pi":%s,"M":%s,"D":%s}' % (u, c, pi, m, d),
                '{"u":%d,"C":%s,"M":%s,"D":%s,"pi":%s}' % (u, c, m, d, pi),
                '{"C":%s,"u":%d%s' % (c, u, fields),
                '{"\\u0075":%d,"C":%s%s' % (u, c, fields),
                '{"u":%d,"\\u0043":%s%s' % (u, c, fields),
                '{"u":%d,"C":%s,"C":%s%s' % (u, c, c, fields),
                '{"u":%d,"C":%s,"M":%s,"pi":%s,"D":%s,"D":[]}' % (u, c, m, pi, d),
                " " + line,
                "\ufeff" + line,
                line + " ",
                line + "\t",
                line + "x",
                line + "}",
                line[:-1],
                line[:-1] + "]",
            ]
            got = set()
            for lines[u] in variants:
                got.add(self.check(path, lines)[0])
            assert got == {"ok", FileFormatError}

    # Context lists, each around the cached fields of the line before:
    # escaped texts, texts with structure inside their strings, and
    # hand-written lists that are not lists of strings.
    CONTEXTS = [
        ["I", "am", "Ada"], ["I", "am", "Ada", ""], ["", "", ""], [""], [],
        ["I", '","', "am", "Ada"], ["I","am", "Ada", '],"M":{'], ['I","am","Ada'],
        ["I", 'am"', "Ada"], ["x\\"], ["\\u0041"], ["I", "am", "Ada\u0001"], ["\u007f", "x"],
        ["\u00e9", "I", "am", "Ada"], ["\u65e5\u672c", "x"], ["\u00a0", " ", "x"], [",", "]", "[", "{", "}", ":"],
        ["I", "am", "Ada", "],"], ['"M":{'], ["x", " x", "x "],
    ]
    C_TEXTS = [
        '["a"b"]', '["a",]', '[,"a"]', '["a""b"]', '["a" ,"b"]', '["]', '[""]', '["",""]',
        '["I","am","Ada",]', '["I",am"]', "[1]", '["a",1]', "[null]", '["\x01"]', '["a\tb"]',
        '["\x7f"]', '["\u00a0x"]', '[" x"]', '[ "x"]', '["x" ]', '["x"', '"x"]', '["x\\""]', '["\\u0078"]',
        '["x"],"C":["x"]', '["I","am","Ada"]]', '[["x"]]', '["x",{}]', '[x","y]', '["x","y]',
        '[x","y"]', '["x""]',
    ]

    def test_context_texts(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.jsonl"
        fields = ',"M":{"team":"audit"},"pi":[0,1],"D":["charter"]}'
        texts = [compact(c) for c in self.CONTEXTS]
        texts += [json.dumps(c, ensure_ascii=False, separators=(",", ":")) for c in self.CONTEXTS]
        kinds = set()
        for text in texts + self.C_TEXTS:
            lines = ['{"u":%d,"C":%s%s' % (u, text if u > 1 else "[]", fields) for u in range(5)]
            kinds.add(kind := self.check(path, lines)[0])
            calls = counted_decodes(monkeypatch)
            outcome(read_masks, path, STATE_IDENTITY)
            # the two lines that warm the memo, then none if the list is
            # compact, of strings, and free of escapes and unprintables; else
            # line 3, whose text the tail memo serves to lines 4 and 5, or
            # whose fault stops the read
            try:
                value = json.loads(text)
            except ValueError:
                value = None
            plain = (
                isinstance(value, list) and all(isinstance(token, str) for token in value)
                and json.dumps(value, ensure_ascii=False, separators=(",", ":")) == text
                and "\\" not in text and text.isprintable()
            )
            assert len(calls) == (2 if plain else 3), text
            monkeypatch.undo()
        assert kinds == {"ok", FileFormatError}

    @pytest.mark.parametrize(
        "pattern", [("a,b",), ('a"b',), ("a]",), ("[a",), ("a\\b",), ("",), ("I", ""), ("a\u0001",), ("\u00a0",)]
    )
    def test_patterns_without_a_needle_turn_the_fast_path_off(self, tmp_path, monkeypatch, pattern):
        path = tmp_path / "trace.jsonl"
        identity = GroundedIdentity(
            (
                IngredientSpec(ingredient_id="p", kind="context", context_pattern=pattern),
                IngredientSpec(ingredient_id="i", kind="context", context_pattern=("I",)),
            )
        )
        assert context_text_matcher(identity) is None
        context = ["I", *pattern, "x"]
        lines = [json.dumps({"u": u, "C": context[u % 2:], "M": {}, "pi": [], "D": []},
                            separators=(",", ":"), ensure_ascii=False) for u in range(6)]
        assert self.check(path, lines, identity) [0] == "ok"
        matched: list = []
        calls = counted_decodes(monkeypatch, matched)
        read_masks(path, identity)
        # the first line, then each distinct text after the head once
        assert matched == []
        assert len(calls) == 1 + len({line[line.index("[") :] for line in lines[1:]})

    @pytest.mark.parametrize("repeats", [1, 3])
    def test_more_distinct_texts_than_the_memo_holds(self, tmp_path, monkeypatch, repeats):
        # 3,072 distinct M texts: met once each they drop the memo; met three
        # times in a row they keep it, emptied each time it fills
        path = tmp_path / "trace.jsonl"
        lines = [
            compact({"u": u, "C": ["I", "am", "Ada"], "M": {"team": "audit", "n": str(u // repeats)},
                     "pi": [u % 2, 1], "D": ["charter"]})
            for u in range(repeats * 3 * _MAX_CACHED_TAILS)
        ]
        calls = counted_decodes(monkeypatch)
        assert self.check(path, lines)[0] == "ok"
        decoded_by_read_masks = len(calls) - len(lines)
        if repeats > 1:
            assert decoded_by_read_masks < len(lines) // 2
        u = len(lines) - 5
        lines[u] = lines[u].replace('{"u":%d,' % u, '{"u":%d,' % (u + 1))
        assert "expected u=%d, got u=%d" % (u, u + 1) in self.check(path, lines)[1]

    def test_each_distinct_field_text_is_decoded_once(self, tmp_path, monkeypatch):
        # a 10,000-step trace shaped like the benchmark's state-session: 28
        # context tokens, two memory keys, four flags and a few documents
        rng = random.Random(7_010)
        path = tmp_path / "trace.jsonl"
        filler = ["in", "from", "report", "status", "may", "Bo", "I", "am"]
        records = []
        for u in range(10_000):
            context = rng.choices(filler, k=24) + rng.choice([["I", "am", "Ada"], ["x"], []])
            rng.shuffle(context)
            records.append({
                "u": u,
                "C": context,
                "M": {"team": rng.choice(["audit", "ops", "support"]), "topic": rng.choice(["a", "b", "c"])},
                "pi": [rng.getrandbits(1) for _ in range(4)],
                "D": sorted(rng.sample(["charter", "faq", "notes", "policy"], rng.randint(0, 3))),
            })
        write_trace(path, records)
        distinct = sum(len({compact(rec[name]) for rec in records}) for name in STATE_POOLS)
        expected = object_path_masks(path, STATE_IDENTITY)
        calls = counted_decodes(monkeypatch)
        assert read_masks(path, STATE_IDENTITY) == expected
        assert len(calls) <= 1 + distinct

    def test_escaped_field_texts_serve_a_plain_context(self, tmp_path, monkeypatch):
        # line 2 decodes M and D texts that hold escapes; lines 3-7 repeat
        # them with plain contexts, each its own text after the head, so
        # only the field memo can serve them
        path = tmp_path / "trace.jsonl"
        fields = ',"M":{"note":"a\\"b\\\\c","team":"audit"},"pi":[0,1],"D":["caf\\u00e9","charter"]}'
        contexts = [["I", "am", "Ada"], ["y"], ["x", "y"], ["I", "am", "Ada", "x"], [], ["x"], ["y", "y"]]
        lines = ['{"u":%d,"C":%s%s' % (u, compact(c), fields) for u, c in enumerate(contexts)]
        assert json.loads(lines[2])["M"]["note"] == 'a"b\\c'
        assert self.check(path, lines)[0] == "ok"
        expected = object_path_masks(path, STATE_IDENTITY)
        matched: list = []
        calls = counted_decodes(monkeypatch, matched)
        assert read_masks(path, STATE_IDENTITY) == expected
        # the first line, then line 2, whose field texts serve lines 3-7
        assert len(calls) == 2
        assert len(matched) == 5


class TestStateTailMemo:
    """``read_masks`` keeps the whole text after the head of a state line
    with a mask, served by its field texts or decoded, so a later line of
    the same text is one lookup.  A full memo is emptied if it took at least
    twice as many lines as it holds to fill, and is dropped otherwise."""

    def pool(self, rng: random.Random, size: int) -> list[dict]:
        """``size`` distinct records without ``u``, each a plain context."""
        return [
            {"C": [*rng.choices(VOCAB, k=rng.randint(0, 5)), f"t{i}"],
             **{name: rng.choice(pool) for name, pool in STATE_POOLS.items()}}
            for i in range(size)
        ]

    def lines(self, rng: random.Random) -> list[str]:
        """Phases of lines drawn from pools of 1 to three times the bound, so
        the memo is hit, fills and is emptied, or fills and is dropped."""
        sizes = [1, 2, 8, _MAX_CACHED_LINES - 1, _MAX_CACHED_LINES + 1, 3 * _MAX_CACHED_LINES]
        records = []
        for _ in range(rng.randint(1, 4)):
            pool = self.pool(rng, rng.choice(sizes))
            records += rng.choices(pool, k=rng.randint(1, 4 * _MAX_CACHED_LINES))
        return [compact({"u": u, **rec}) for u, rec in enumerate(records)]

    FAULTS = {
        "u": lambda u, rest: '{"u":%d,' % (u + 1) + rest,
        "pi length": lambda u, rest: '{"u":%d,' % u + rest.replace('"pi":[', '"pi":[0,'),
        "flag": lambda u, rest: '{"u":%d,' % u + rest.replace('"pi":[', '"pi":[2,'),
        "json": lambda u, rest: '{"u":%d,' % u + rest + "x",
        "escaped token": lambda u, rest: '{"u":%d,' % u + rest.replace('"C":["', '"C":["\\u0049', 1),
        "escaped quote": lambda u, rest: '{"u":%d,' % u + rest.replace('"C":["', '"C":["\\"', 1),
    }

    def test_same_outcome_as_the_object_path(self, tmp_path):
        rng = random.Random(7_020)
        path = tmp_path / "trace.jsonl"
        # a policy flag index outside every pi raises at the first step
        outside = GroundedIdentity(
            (*STATE_IDENTITY.ingredients, IngredientSpec(ingredient_id="far", kind="policy", flag_index=2))
        )
        kinds = set()
        for _ in range(6):
            lines = self.lines(rng)
            for identity in (STATE_IDENTITY, outside):
                path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                kinds.add(assert_same_outcome(path, identity)[0])
            for fault in self.FAULTS.values():
                # after the repeats, on a text the memo may hold
                u = rng.randrange(len(lines) // 2, len(lines))
                faulty = lines.copy()
                faulty[u] = fault(u, lines[u][len('{"u":%d,' % u):])
                path.write_text("\n".join(faulty) + "\n", encoding="utf-8")
                kinds.add(assert_same_outcome(path, STATE_IDENTITY)[0])
        assert kinds == {"ok", FileFormatError, StructuralError}

    def test_simulated_alternating_trace_is_read_by_lookup(self, tmp_path, monkeypatch, capsys):
        main(["simulate", "alternating", "--length", "6000", "--out", str(tmp_path / "alternating")])
        path = tmp_path / "alternating.trace.jsonl"
        identity, _ = load_identity_file(tmp_path / "alternating.identity.json")
        expected = object_path_masks(path, identity)
        matched: list = []
        calls = counted_decodes(monkeypatch, matched)
        assert read_masks(path, identity) == expected
        # two lines decoded in full, one served by its field texts
        assert len(calls) <= 2
        assert len(matched) <= 1

    def test_memory_does_not_grow_with_distinct_lines(self, tmp_path):
        # every line distinct: the memo fills once, is never hit, and is dropped
        def held(n: int) -> int:
            path = tmp_path / f"{n}.jsonl"
            write_trace(path, (
                {"u": u, "C": ["I", "am", "Ada", f"t{u}"], "M": {"team": "audit"}, "pi": [u % 2, 1], "D": []}
                for u in range(n)
            ))
            tracemalloc.start()
            try:
                masks = read_masks(path, STATE_IDENTITY)
                current, peak = tracemalloc.get_traced_memory()
                assert len(masks) == n
                return peak - current  # what the read held beyond its result
            finally:
                tracemalloc.stop()

        gc.disable()
        try:
            held(2_000)
            assert held(20_000) <= held(2_000) + 64 * 1024
        finally:
            gc.enable()


class TestLoopReadsOn:
    """``read_masks`` decodes the first line in full and reads the rest in
    one loop, which reads on past a dropped memo or a held fault; a state
    identity that leaves no context matcher has no field path.  Each case
    puts faults on the first line or on every line around a dropped memo,
    and compares each outcome with the object path's."""

    # the activation identity: 16 ids, so 2**16 distinct F texts
    WIDE = context_identity(16)

    def records(self, rng: random.Random, form: str, length: int) -> list[dict]:
        """Compact records whose texts after the head are all distinct: the
        memo fills with texts met once, and is dropped."""
        if form == "activation":
            ids = sorted(self.WIDE.ingredient_ids)
            sets = rng.sample(range(1 << 16), length)
            return [{"u": u, "F": [i for b, i in enumerate(ids) if sets[u] >> b & 1]} for u in range(length)]
        return [
            {"u": u, "C": rng.choices(VOCAB, k=rng.randint(0, 6)), "M": {"team": rng.choice(VALUES), "n": str(u)},
             "pi": [rng.randint(0, 1), rng.randint(0, 1)], "D": rng.choice(STATE_POOLS["D"])}
            for u in range(length)
        ]

    def faults(self, form: str) -> list:
        """Two line faults, and a third of each form: a stray id, held until
        the end, or a pi longer than the first record's."""
        third = (lambda rec: {**rec, "F": [*rec["F"], "ghost"]}) if form == "activation" else (
            lambda rec: {**rec, "pi": [*rec["pi"], 0]})
        return [
            lambda rec: compact({**rec, "u": rec["u"] + 1}),
            lambda rec: compact(rec) + "x",
            lambda rec: compact(third(rec)),
        ]

    def check(self, path: Path, lines: list[str], identity: GroundedIdentity) -> tuple:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return assert_same_outcome(path, identity)

    @pytest.mark.parametrize("form", ["activation", "state"])
    def test_faults_around_the_dropped_memo(self, tmp_path, form):
        rng = random.Random(f"hand-off {form}")
        identity = self.WIDE if form == "activation" else STATE_IDENTITY
        records = self.records(rng, form, _MAX_CACHED_TAILS + 30)
        lines = [compact(rec) for rec in records]
        assert self.check(tmp_path / "trace.jsonl", lines, identity)[0] == "ok"
        # the memo is full near line _MAX_CACHED_TAILS: a fault on every line
        # around it, so one lands on the line that drops the memo and the next
        kinds = set()
        for u in range(_MAX_CACHED_TAILS - 12, _MAX_CACHED_TAILS + 6):
            faulty = lines.copy()
            faulty[u] = rng.choice(self.faults(form))(records[u])
            kinds.add(self.check(tmp_path / "trace.jsonl", faulty, identity)[0])
        assert kinds == {FileFormatError}
        if form == "activation":
            # a stray id held before the drop, then a line fault after it
            faulty = lines.copy()
            faulty[5] = self.faults(form)[2](records[5])
            faulty[-3] = self.faults(form)[0](records[-3])
            assert "expected u=" in self.check(tmp_path / "trace.jsonl", faulty, identity)[1]

    @pytest.mark.parametrize("form", ["activation", "state"])
    def test_faulty_first_line(self, tmp_path, form):
        rng = random.Random(f"first line {form}")
        # in the state form, a flag index outside the first record's pi
        outside = GroundedIdentity(
            (*STATE_IDENTITY.ingredients, IngredientSpec(ingredient_id="far", kind="policy", flag_index=2))
        )
        identity = self.WIDE if form == "activation" else outside
        kinds = set()
        for _ in range(20):
            records = self.records(rng, form, rng.randint(1, 40))
            lines = [compact(rec) for rec in records]
            first = [rng.choice(["{broken", lines[0] + "x", "", lines[0]])]
            if form == "activation":
                first.append(self.faults(form)[2](records[0]))
            for lines[0] in first:
                kinds.add(self.check(tmp_path / "trace.jsonl", lines, identity)[0])
                if len(lines) > 1:
                    u = rng.randrange(1, len(lines))
                    faulty = lines.copy()
                    faulty[u] = rng.choice(self.faults(form))(records[u])
                    kinds.add(self.check(tmp_path / "trace.jsonl", faulty, identity)[0])
        assert kinds == {FileFormatError, StructuralError} if form == "state" else {FileFormatError}

    def test_state_identity_without_a_context_matcher(self, tmp_path, monkeypatch):
        rng = random.Random(7_030)
        identity = GroundedIdentity(
            (*STATE_IDENTITY.ingredients, IngredientSpec(ingredient_id="comma", kind="context", context_pattern=("a,b",)))
        )
        assert context_text_matcher(identity) is None
        kinds = set()
        for _ in range(10):
            records = self.records(rng, "state", rng.randint(2, 60))
            lines = [compact(rec) for rec in records]
            kinds.add(self.check(tmp_path / "trace.jsonl", lines, identity)[0])
            # line 2, the first the loop reads, and one more
            for u in {1, rng.randrange(1, len(lines))}:
                faulty = lines.copy()
                faulty[u] = rng.choice(self.faults("state"))(records[u])
                kinds.add(self.check(tmp_path / "trace.jsonl", faulty, identity)[0])
        assert kinds == {"ok", FileFormatError}
        self.check(tmp_path / "trace.jsonl", lines, identity)
        calls = counted_decodes(monkeypatch)
        read_masks(tmp_path / "trace.jsonl", identity)
        assert len(calls) == len(lines)


class TestOneLoop:
    """``read_masks`` reads every line after the first in one loop, which
    looks each line up by its text after the head, then by its field texts
    on a state line, and decodes in full only what no memo serves.  Random
    traces of both forms repeat whole lines, fill each memo at its cap so
    that it is emptied or dropped, mix in lines that only the full decode
    can read, and hold a stray id or a flag index with line faults after
    it; each read must equal the object path's outcome."""

    IDENTITIES = {
        "activation": [TestLoopReadsOn.WIDE],
        "state": [
            STATE_IDENTITY,
            # patterns that leave no context matcher
            GroundedIdentity(
                (*STATE_IDENTITY.ingredients, IngredientSpec(ingredient_id="comma", kind="context", context_pattern=("a,b",)))
            ),
            # a policy flag index outside every pi, held from the first step
            GroundedIdentity(
                (*STATE_IDENTITY.ingredients, IngredientSpec(ingredient_id="far", kind="policy", flag_index=2))
            ),
        ],
    }
    # per form, the tail memo's cap, and pool sizes around it and the field memo's
    CAPS = {"activation": _MAX_CACHED_TAILS, "state": _MAX_CACHED_LINES}
    SIZES = {
        "activation": [1, 2, 8, _MAX_CACHED_TAILS - 1, _MAX_CACHED_TAILS + 1, 3 * _MAX_CACHED_TAILS],
        "state": [1, 2, 8, _MAX_CACHED_LINES - 1, _MAX_CACHED_LINES + 1, 3 * _MAX_CACHED_LINES,
                  _MAX_CACHED_TAILS + 1],
    }

    def pool(self, rng: random.Random, form: str, size: int) -> list[dict]:
        """``size`` distinct records without ``u``; a state pool of more
        than the field memo holds has that many distinct ``M`` texts."""
        if form == "activation":
            ids = sorted(TestLoopReadsOn.WIDE.ingredient_ids)
            return [{"F": [i for b, i in enumerate(ids) if s >> b & 1]} for s in rng.sample(range(1 << 16), size)]
        return [
            {"C": [*rng.choices(VOCAB, k=rng.randint(0, 5)), f"t{i}"],
             "M": {"team": rng.choice(VALUES), **({"n": str(i)} if size > _MAX_CACHED_TAILS else {})},
             "pi": rng.choice(STATE_POOLS["pi"]), "D": rng.choice(STATE_POOLS["D"])}
            for i in range(size)
        ]

    def spell(self, rng: random.Random, u: int, record: dict) -> str:
        """The line of ``record`` at step ``u``: compact, or now and then a
        valid spelling that only the full decode reads."""
        record = {"u": u, **record}
        roll = rng.random()
        if roll < 0.98:
            return compact(record)
        if roll < 0.99 or "C" not in record:
            return json.dumps(record)  # spaces after the separators
        escaped = {**record, "C": ["é", 'a"b', *record["C"]]}
        return json.dumps(escaped, separators=(",", ":"))

    def lines(self, rng: random.Random, form: str) -> tuple[list[str], list[dict]]:
        """Phases of a pool drawn at random, or in order with each record one
        to three times in a row, so whole lines repeat and each memo is hit,
        fills and is emptied, or fills and is dropped."""
        records: list[dict] = []
        for _ in range(rng.randint(1, 3)):
            pool = self.pool(rng, form, size := rng.choice(self.SIZES[form]))
            count = rng.randint(size, 4 * size)
            if rng.random() < 0.5:
                records += rng.choices(pool, k=count)
            else:
                run = rng.randint(1, 3)
                records += [pool[i // run % size] for i in range(count)]
        return [self.spell(rng, u, rec) for u, rec in enumerate(records)], records

    def faults(self, rng: random.Random, form: str, lines: list[str], records: list[dict]) -> list[str]:
        """Up to two line faults after a step drawn at random or near the tail
        memo's cap, where half the activation traces get a stray id, held
        from there; a state trace's held fault is a flag index outside
        ``pi``, under the last of its ``IDENTITIES``."""
        faulty = lines.copy()
        cap = self.CAPS[form]
        held = rng.choice([rng.randrange(len(lines)), min(len(lines) - 1, cap + rng.randint(-8, 8))])
        if form == "activation" and rng.random() < 0.5:
            faulty[held] = compact({"u": held, "F": [*records[held]["F"], "ghost"]})
        line_faults = [
            lambda u, rec: compact({"u": u + 1, **rec}),
            lambda u, rec: compact({"u": u, **rec}) + "x",
            lambda u, rec: "",
            lambda u, rec: compact({"u": u, **rec, "F": "i0"} if form == "activation"
                                   else {"u": u, **rec, "pi": [*rec["pi"], 0]}),
        ]
        for _ in range(rng.randint(0, 2)):
            if held + 1 < len(lines):
                u = rng.randrange(held + 1, len(lines))
                faulty[u] = rng.choice(line_faults)(u, records[u])
        return faulty

    @pytest.mark.parametrize("form", ["activation", "state"])
    def test_same_outcome_as_the_object_path(self, tmp_path, form):
        rng = random.Random(f"one loop {form}")
        path = tmp_path / "trace.jsonl"
        kinds, filled = set(), False
        for _ in range(24):
            lines, records = self.lines(rng, form)
            filled |= len({line[line.index(",") :] for line in lines[1:]}) > self.CAPS[form]
            for text in (lines, self.faults(rng, form, lines, records)):
                path.write_text("\n".join(text) + "\n", encoding="utf-8")
                for identity in self.IDENTITIES[form]:
                    kinds.add(assert_same_outcome(path, identity)[0])
        assert filled
        assert kinds == ({"ok", FileFormatError} if form == "activation" else {"ok", FileFormatError, StructuralError})

    def test_repeated_decoded_state_line_is_decoded_once(self, tmp_path, monkeypatch):
        # an escaped C has no field path: the tail memo serves its repeats
        path = tmp_path / "trace.jsonl"
        record = {"C": ["I", 'am"', "Ada"], "M": {"team": "audit"}, "pi": [0, 1], "D": ["charter"]}
        write_trace(path, [{"u": u, **record} for u in range(50)])
        expected = object_path_masks(path, STATE_IDENTITY)
        calls = counted_decodes(monkeypatch)
        assert read_masks(path, STATE_IDENTITY) == expected
        # the first line, whose text is not kept, then the second
        assert len(calls) == 2


def reference_lines(path: Path) -> tuple:
    """The lines of a file under the JSON Lines rule: its bytes broken at
    each ``\\n``, ``\\r\\n`` or ``\\r``, with no empty line after a final
    break, and each line decoded alone; or the message of the first line
    that is not UTF-8."""
    pieces = re.split(rb"\r\n|\r|\n", path.read_bytes())
    if not pieces[-1]:
        pieces.pop()
    lines: list[str] = []
    for raw in pieces:
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            return "error", f"{path}:{len(lines) + 1}: not UTF-8 text: {exc}", lines
    return "ok", lines


def block_lines(path: Path) -> tuple:
    lines: list[str] = []
    try:
        for line in _text_lines(path):
            lines.append(line)
    except FileFormatError as exc:
        return "error", str(exc), lines
    return "ok", lines


class TestBlockReader:
    """``_text_lines`` decodes ``_BLOCK_BYTES`` at a time, read on to the end
    of a line; each case puts its feature across a block boundary."""

    def filler(self, size: int) -> bytes:
        # whole lines of 16 bytes, so the offset of what follows is exact
        assert size % 16 == 0
        return b'{"u":0,"F":[ ]}\n' * (size // 16)

    def check(self, tmp_path, data: bytes) -> tuple:
        path = tmp_path / "lines.txt"
        path.write_bytes(data)
        got = block_lines(path)
        assert got == reference_lines(path)
        return got

    def test_invalid_byte_after_the_first_block(self, tmp_path):
        before = self.filler(2 * _BLOCK_BYTES)
        got = self.check(tmp_path, before + b"ok\nab\xffcd\nlater\n")
        line = 2 * _BLOCK_BYTES // 16 + 2
        assert got[1] == (
            f"{tmp_path / 'lines.txt'}:{line}: not UTF-8 text: 'utf-8' codec can't decode "
            "byte 0xff in position 2: invalid start byte"
        )
        # lines before the bad one, in the same block, still come first
        assert got[2][-1] == "ok"

    @pytest.mark.parametrize("at", [-3, -2, -1, 0, 1])
    def test_invalid_byte_near_a_block_boundary(self, tmp_path, at):
        before = self.filler(_BLOCK_BYTES - 16)
        line = b"x" * (16 + at - 1) + b"\xc3(" + b"y" * 20
        got = self.check(tmp_path, before + line + b"\n\r\x85\n")
        assert got[0] == "error" and "invalid continuation byte" in got[1]

    def test_invalid_trace_line_after_the_first_block(self, tmp_path):
        lines = [compact({"u": u, "F": ["g0"]}) for u in range(2 * _BLOCK_BYTES // 16)]
        data = "\n".join(lines).encode() + b'\n{"u":%d,"F":["\xff"]}\n' % len(lines)
        path = tmp_path / "trace.jsonl"
        path.write_bytes(data)
        expected = f"{path}:{len(lines) + 1}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position"
        got = assert_same_outcome(path, context_identity(1))
        assert got[0] is FileFormatError and got[1].startswith(expected)
        # a fault earlier in the same block is reported first
        lines[-2] = "{broken"
        path.write_bytes("\n".join(lines).encode() + b'\n{"u":%d,"F":["\xff"]}\n' % len(lines))
        assert f"trace.jsonl:{len(lines) - 1}: invalid JSON" in assert_same_outcome(path, context_identity(1))[1]

    @pytest.mark.parametrize("at", [1, 2, 3])
    def test_character_split_between_two_reads(self, tmp_path, at):
        # a 4-byte character whose first `at` bytes end the first read
        before = self.filler(_BLOCK_BYTES - 16)
        line = "x" * (16 - at) + "\U0001f600" + "\u00e9" * 3
        got = self.check(tmp_path, before + line.encode("utf-8") + b"\nafter\n")
        assert got[1][-2:] == [line, "after"]

    def test_line_longer_than_a_block(self, tmp_path):
        line = "\u00e9" * (3 * _BLOCK_BYTES // 2 + 1)
        got = self.check(tmp_path, b"first\n" + line.encode("utf-8") + b"\nlast\n")
        assert got[1] == ["first", line, "last"]

    def test_carriage_return_ends_a_block(self, tmp_path):
        before = self.filler(_BLOCK_BYTES - 16)
        got = self.check(tmp_path, before + b"a" * 15 + b"\r\nb\r\rc\n")
        assert got[1][-4:] == ["a" * 15, "b", "", "c"]

    @pytest.mark.parametrize("tail", [b"", b"x" * 40, b"\r", b"\xe2\x80\xa8"])
    def test_no_trailing_newline(self, tmp_path, tail):
        before = self.filler(_BLOCK_BYTES - 16)
        got = self.check(tmp_path, before + b"a" * 10 + tail)
        assert got[0] == "ok" and got[1][-1].startswith("a" * 10)

    def test_truncated_character_at_the_end(self, tmp_path):
        got = self.check(tmp_path, self.filler(_BLOCK_BYTES) + b"abc\xe2\x80")
        assert got[0] == "error" and "unexpected end of data" in got[1]


class TestLineRule:
    """Both readers, the trace reader's ``_text_lines`` and the identity
    loader, break lines where JSON Lines does: at ``\\n``, ``\\r\\n`` and
    ``\\r`` only.  U+2028, U+2029, U+0085 and form feeds, which
    ``str.splitlines`` also breaks at, stay inside their line."""

    PIECES = [
        b"\n", b"\r\n", b"\r", "\u2028".encode(), "\u2029".encode(), "\u0085".encode(), b"\x0c", b"\x0b",
        b"\x1c", b"\xef\xbb\xbf", "\u00e9".encode(), "\U0001f600".encode(), b'{"u":0,"F":[]}',
    ]
    INVALID = [b"\xff", b"\xc3", b"\xe2\x80", b"\xed\xa0\x80"]

    def random_bytes(self, rng: random.Random) -> bytes:
        """One to three blocks of text lines and separators, with the pieces
        dense around the block boundaries; invalid UTF-8 in some files."""
        data = bytearray()
        size = rng.randint(1, 3) * _BLOCK_BYTES + rng.randint(-64, 64)
        while len(data) < size:
            near = abs(len(data) % _BLOCK_BYTES - _BLOCK_BYTES // 2) > _BLOCK_BYTES // 2 - 48
            if near or rng.random() < 0.05:
                data += rng.choice(self.PIECES)
            else:
                data += b"x" * rng.randint(1, 300) + rng.choice([b"\n", b"\r\n", b"\r"])
        if rng.random() < 0.3:
            at = rng.randrange(len(data))
            data[at:at] = rng.choice(self.INVALID)
        return bytes(data)

    def test_random_bytes_across_block_boundaries(self, tmp_path):
        rng = random.Random(13_001)
        path = tmp_path / "lines.txt"
        kinds = set()
        for _ in range(80):
            data = self.random_bytes(rng)
            path.write_bytes(data)
            expected = reference_lines(path)
            assert block_lines(path) == expected
            kinds.add(expected[0])
            if expected[0] == "ok":
                # the identity loader's splitter, on the whole text
                assert _split_lines(data.decode("utf-8")) == expected[1]
        assert kinds == {"ok", "error"}

    def test_identity_records_with_separators_inside_strings(self, tmp_path):
        rng = random.Random(13_002)
        path = tmp_path / "identity.jsonl"
        inside = ["\u2028", "\u2029", "\u0085", "\u00e9", ""]
        for _ in range(40):
            ids = [f"a{rng.choice(inside)}b{i}" for i in range(rng.randint(2, 6))]
            records = [
                json.dumps({"id": id_, "kind": "retrieval", "doc_id": f"d{rng.choice(inside)}"}, ensure_ascii=False)
                for id_ in ids
            ]
            lines = []
            for record in records:
                # blank lines, none empty, so that no CR and LF pair up across one
                lines += [rng.choice([" ", "\t", "\x0c"]) for _ in range(rng.randint(0, 2))] + [record]
            breaks = [rng.choice(["\n", "\r\n", "\r"]) for _ in lines]
            path.write_bytes("".join(map(str.__add__, lines, breaks)).encode("utf-8"))
            identity, layers = load_identity_file(path)
            assert sorted(identity.ingredient_ids) == sorted(ids) and layers is None
            # a fault on the last record names its line under the same rule
            lines[-1] = lines[-1].replace('"retrieval"', '"unknown"')
            path.write_bytes("".join(map(str.__add__, lines, breaks)).encode("utf-8"))
            with pytest.raises(FileFormatError, match=f"identity.jsonl:{len(lines)}: "):
                load_identity_file(path)

    def test_a_trace_line_holding_u2028_loads(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"u":0,"F":["a\u2028b","c"]}\n{"u":1,"F":["c"]}\n', encoding="utf-8")
        identity = GroundedIdentity(
            tuple(IngredientSpec(ingredient_id=i, kind="context", context_pattern=(i,)) for i in ("a\u2028b", "c"))
        )
        assert assert_same_outcome(path, identity) == ("ok", [3, 2])


class TestNoPerStepObjects:
    # capacity is a state trace and drift-recover an activation trace; with
    # a faulty identity spec, analyze still checks every trace line first
    @pytest.mark.parametrize(
        "case",
        ["capacity", "drift-recover", "preset-probe-controller",
         "capacity/faulty-identity", "drift-recover/faulty-identity"],
    )
    def test_analyze_builds_no_state_or_activation_set(self, case, monkeypatch, capsys, tmp_path):
        def refuse(self):
            raise RuntimeError(f"{type(self).__name__} built on the analyze path")

        monkeypatch.setattr(ScaffoldState, "__post_init__", refuse)
        monkeypatch.setattr(ActivationSet, "__post_init__", refuse)
        case, _, fault = case.partition("/")
        folder = GOLDEN / case
        sidecar = json.loads((folder / f"{case}.expect.json").read_text())
        window = sidecar["window"]
        identity_path = folder / sidecar["identity"]
        if fault:
            identity_path = tmp_path / "identity.json"
            identity_path.write_text('{"ingredients": [{"id": "g0"}]', encoding="utf-8")
        code = main(
            [
                "analyze",
                "--trace", str(folder / sidecar["trace"]),
                "--identity", str(identity_path),
                "--delta", str(window["delta"]),
                "--stride", str(window["stride"]),
                "--eval", ",".join(str(t) for t in window["eval"]),
                "--horizon-max", str(window["horizon_max"]),
            ]
        )
        if fault:
            assert code == 2
            assert f"{identity_path}:1: invalid JSON" in capsys.readouterr().err
            return
        assert code == 0
        golden = (folder / f"{sidecar['trace']}.analyze.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden


class TestNoPerWindowObjects:
    @pytest.mark.parametrize("shape", ["activation-k8", "alternating"])
    def test_build_report_memory_does_not_grow_with_the_windows(self, shape):
        # 80,000 windows; the masks and T exist before the report is built,
        # which then holds persistence's two flags per window and nothing
        # else per window
        rng = random.Random(8_008)
        windows = 80_000
        if shape == "activation-k8":
            k, delta = 8, 32
            masks = [255] + [
                255 if rng.random() < 0.15 else rng.getrandbits(8) for _ in range(windows + delta - 1)
            ]
        else:
            k, delta = 2, 1
            masks = [1 + u % 2 for u in range(windows + delta)]
        cfg = WindowConfig.all_valid(delta, 1, len(masks), 256)
        assert len(cfg.eval_indices) == windows
        tracemalloc.start()
        try:
            build_report(masks, k, cfg, MetricParams(), 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 1024


# ---------------------------------------------------------------------------
# Fuzz: readers and the CLI raise nothing but TracebindError
# ---------------------------------------------------------------------------

# Integer literals around Python's 4,300-digit conversion limit, which
# json.dumps cannot write: placeholders are swapped for the digits.
LONG_INTS = {'"<int 4300>"': "9" * 4300, '"<int 4301>"': "1" * 4301, '"<int -5000>"': "-" + "7" * 5000}


def with_long_ints(text: str) -> str:
    for placeholder, digits in LONG_INTS.items():
        text = text.replace(placeholder, digits)
    return text


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
    | st.sampled_from([json.loads(placeholder) for placeholder in LONG_INTS]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
tokens = st.sampled_from(["g0", "g1", "Ada", "x"])
# Ids for F texts: the tokens, g0 and g1 spelled with escapes ("<esc g0>" is
# written as "\u0067\u0030"), and strays whose text holds a bracket, a brace,
# a quote, a non-ASCII letter or a line separator.
F_TOKENS = {'"<esc g0>"': '"\\u0067\\u0030"', '"<esc g1>"': '"\\u0067\\u0031"'}
f_tokens = tokens | st.sampled_from([*(json.loads(t) for t in F_TOKENS), "g]", "}", 'g"0', "\u00e9", "\u2028"])


# Context tokens for state lines: the tokens, and strings that hold the
# separators of a compact state line, a quote, a backslash, a control
# character, a non-ASCII letter, list punctuation, or nothing.
c_tokens = tokens | st.sampled_from(
    ['","', '],"M":{', '},"pi":[', '],"D":[', '"', "\\", "\x01", "\u00e9", "", ",", "]", "{"]
)


def with_escapes(text: str) -> str:
    for placeholder, escaped in F_TOKENS.items():
        text = text.replace(placeholder, escaped)
    return text


@st.composite
def trace_lines(draw) -> list[str]:
    """Near-valid records of either form, some fields replaced by any JSON.

    Half the traces are written compact, as ``write_trace`` writes them, so
    ``read_masks`` looks their ``F`` texts, or their ``M``, ``pi`` and ``D``
    texts, up; those come from small per-trace pools, so they repeat,
    duplicate ids, strays and ``pi`` of another length included."""
    state = draw(st.booleans())
    separators = draw(st.sampled_from([None, (",", ":")]))
    ascii_only = draw(st.booleans())
    pool = draw(st.lists(st.lists(f_tokens, max_size=3), min_size=1, max_size=3))
    pools = {
        "M": st.dictionaries(st.sampled_from(["team", "topic"]), st.sampled_from(["audit", "ops"])),
        "pi": st.lists(st.integers(0, 1), min_size=1, max_size=2),
        "D": st.lists(st.sampled_from(["charter", "faq"]), max_size=2),
    }
    fields = {name: draw(st.lists(values, min_size=1, max_size=3)) for name, values in pools.items()}
    lines = []
    for u in range(draw(st.integers(0, 8))):
        if state:
            record = {"u": u, "C": draw(st.lists(c_tokens, max_size=4))}
            record.update({name: draw(st.sampled_from(values)) for name, values in fields.items()})
        else:
            record = {"u": u, "F": draw(st.sampled_from(pool))}
        if draw(st.integers(0, 3)) == 0:
            record[draw(st.sampled_from(sorted(record) + ["extra"]))] = draw(json_values)
        text = json.dumps(record, separators=separators, ensure_ascii=ascii_only)
        lines.append(with_escapes(with_long_ints(text)))
    if lines and draw(st.booleans()):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.text(max_size=12))
    return lines


@st.composite
def identity_texts(draw) -> str:
    """Identity documents near the schema, as a document or as JSONL."""
    records = []
    for i in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["context", "memory", "policy", "retrieval", "other"]))
        record = {"id": f"g{i}", "kind": kind}
        record.update(
            {
                "context": {"context_pattern": draw(st.lists(tokens, max_size=2))},
                "memory": {"memory_key": "team", "memory_value": "audit"},
                "policy": {"flag_index": draw(st.integers(-1, 2))},
                "retrieval": {"doc_id": "charter"},
                "other": {},
            }[kind]
        )
        if draw(st.integers(0, 2)) == 0:
            record[draw(st.sampled_from(sorted(record) + ["extra"]))] = draw(json_values)
        records.append(record)
    if draw(st.booleans()):
        return "\n".join(with_long_ints(json.dumps(record)) for record in records)
    doc: dict = {"ingredients": records}
    if draw(st.booleans()):
        doc["layers"] = draw(
            st.fixed_dictionaries(
                {
                    "layer2": st.just(["s"]) | json_values,
                    "layer1": st.just(["f"]),
                    "map_2_to_1": st.just({"s": ["f"]}) | json_values,
                    "map_1_to_0": st.just({"f": ["g0"]}),
                    "map_2_to_0": st.just({"s": ["g0"]}) | json_values,
                }
            )
        )
    return with_long_ints(json.dumps(doc))


FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

# Context tokens with no '"', '\\' or control character, some holding the
# punctuation of a JSON list (and U+00A0, which is not printable), and
# pattern tokens from the characters a needle allows.
plain_tokens = st.text(alphabet=" a,[]{}:\u00e9\u00a0", max_size=3)
pattern_tokens = st.text(alphabet=" a{}:\u00e9", min_size=1, max_size=2)


def context_only(patterns) -> GroundedIdentity:
    return GroundedIdentity(
        tuple(
            IngredientSpec(ingredient_id=f"c{i}", kind="context", context_pattern=tuple(p))
            for i, p in enumerate(patterns)
        )
    )


class TestContextNeedles:
    """``trace.context_text_matcher`` against ``state_matcher``."""

    @FUZZ
    @given(data=st.data())
    def test_needles_give_the_context_bits_of_the_matcher(self, data):
        patterns = data.draw(st.lists(st.lists(pattern_tokens, min_size=1, max_size=3), min_size=1, max_size=3))
        vocab = [token for pattern in patterns for token in pattern]
        context = data.draw(st.lists(st.sampled_from(vocab) | plain_tokens, max_size=8))
        identity = context_only(patterns)
        body = json.dumps(context, ensure_ascii=False, separators=(",", ":"))[1:-1]
        expected = state_matcher(identity, 0)(context, {}, (), ())
        assert context_text_matcher(identity)(body) == (expected if body.isprintable() else None)

    @FUZZ
    @given(body=st.text(alphabet='"a,\\] \x01\u00e9', max_size=12))
    def test_only_compact_lists_of_plain_strings_are_read(self, body):
        identity = context_only([("a",), ("a", "a"), ("\u00e9",)])
        text = "[" + body + "]"
        try:
            value = json.loads(text)
        except ValueError:
            value = None
        plain = (
            isinstance(value, list) and all(isinstance(token, str) for token in value)
            and json.dumps(value, ensure_ascii=False, separators=(",", ":")) == text
            and "\\" not in body and body.isprintable()
        )
        expected = state_matcher(identity, 0)(value, {}, (), ()) if plain else None
        assert context_text_matcher(identity)(body) == expected


class TestFuzz:
    @FUZZ
    @given(lines=trace_lines(), raw=st.binary(max_size=12))
    def test_trace_readers(self, tmp_path, lines, raw):
        path = tmp_path / "trace.jsonl"
        identity = GroundedIdentity(
            (
                IngredientSpec(ingredient_id="g0", kind="context", context_pattern=("g0",)),
                IngredientSpec(ingredient_id="g1", kind="context", context_pattern=("Ada", "x")),
            )
        )
        for data in ("\n".join(lines).encode("utf-8"), raw):
            path.write_bytes(data)
            assert_same_outcome(path, identity)

    @FUZZ
    @given(text=identity_texts(), raw=st.binary(max_size=12))
    def test_identity_loader(self, tmp_path, text, raw):
        path = tmp_path / "identity.json"
        for data in (text.encode("utf-8"), raw):
            path.write_bytes(data)
            outcome(load_identity_file, path)

    @FUZZ
    @given(lines=trace_lines(), identity=identity_texts(), delta=st.integers(0, 2))
    def test_analyze_exits_cleanly(self, tmp_path, lines, identity, delta):
        trace_path = tmp_path / "trace.jsonl"
        identity_path = tmp_path / "identity.json"
        trace_path.write_text("\n".join(lines), encoding="utf-8")
        identity_path.write_text(identity, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(
                ["analyze", "--trace", str(trace_path), "--identity", str(identity_path),
                 "--delta", str(delta)]
            )
        assert code in (0, 2, 3)
        if code:
            assert out.getvalue() == "" and err.getvalue().startswith("tracebind: ")
        else:
            json.loads(out.getvalue())


    @FUZZ
    @given(
        data=st.binary(max_size=40)
        | st.lists(st.text(max_size=8), max_size=4).map(lambda texts: "\n".join(texts).encode("utf-8")),
        delta=st.floats() | st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_probe_exits_cleanly(self, tmp_path, data, delta):
        path = tmp_path / "outputs.txt"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["probe", str(path), f"--delta-cons={delta!r}", "--format", "json"])
        assert code in (0, 2)
        if code:
            assert out.getvalue() == "" and err.getvalue().startswith("tracebind: ")
        else:
            assert 0.0 <= delta <= 1.0
            json.loads(out.getvalue())

    @FUZZ
    @given(
        scenario=st.sampled_from(sorted(SCENARIOS)),
        flags=st.dictionaries(
            st.sampled_from(["length", "c", "k", "delta", "block", "passage", "capacity",
                             "drift", "controllable", "interventions", "cycles"]),
            st.integers(-2, 40),
        ),
        epsilon=st.none() | st.floats(),
        preset=st.none() | st.sampled_from([*sorted(probe_presets()), "mainframe"]),
    )
    def test_simulate_exits_cleanly(self, scenario, flags, epsilon, preset):
        argv = ["simulate", scenario, *(f"--{flag}={value}" for flag, value in flags.items())]
        if epsilon is not None:
            argv.append(f"--epsilon={epsilon!r}")
        if preset is not None:
            argv.append(f"--preset={preset}")
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as folder:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--out", str(Path(folder) / "s")])
            written = sorted(path.name for path in Path(folder).iterdir())
        assert code in (0, 2, 3)
        if code:
            assert written == [] and err.getvalue().startswith("tracebind: ")
        else:
            assert "s.expect.json" in written and err.getvalue() == ""
