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
import io
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tracebind.cli import (
    activation_record,
    build_report,
    main,
    parse_trace,
    read_masks,
    state_record,
    write_trace,
)
from tracebind.errors import FileFormatError, TracebindError
from tracebind.identity import (
    ActivationSet,
    GroundedIdentity,
    IngredientSpec,
    ScaffoldState,
    activation_mask,
    ingredient_bits,
    load_identity_file,
    load_json,
)
from tracebind.metrics import (
    MetricParams,
    continuity,
    continuity_terms,
    identifiability,
    identifiable_count,
    persistence_scores,
)
from tracebind.oracle import oracle_minimal_horizons, oracle_persistence
from tracebind.windows import WindowConfig, mask_horizons
from conftest import random_window_config

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
            acts = parse_trace(path).to_activations(identity)

            k = identity.k
            n = len(acts)
            cfg = random_window_config(rng, n, max_delta=6, max_stride=3, horizon_max=rng.randint(0, 50))
            oracle = oracle_persistence(acts, identity, cfg)
            assert persistence_scores(masks, k, cfg) == (oracle.p_weak, oracle.p_strong)
            horizons = mask_horizons(masks, k, cfg.stride, cfg.eval_indices, cfg.horizon_max)
            assert horizons == [
                (t, *oracle_minimal_horizons(acts, identity, cfg.stride, t, cfg.horizon_max))
                for t in cfg.eval_indices
            ]
            if n > 1:
                per_step, mean = continuity(acts, k)
                assert list(continuity_terms(masks, k, range(1, n))) == per_step
                assert sum(continuity_terms(masks, k, range(1, n))) / (n - 1) == mean
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


class TestNoPerStepObjects:
    @pytest.mark.parametrize("case", ["capacity", "drift-recover", "preset-probe-controller"])
    def test_analyze_builds_no_state_or_activation_set(self, case, monkeypatch, capsys):
        def refuse(self):
            raise RuntimeError(f"{type(self).__name__} built on the analyze path")

        monkeypatch.setattr(ScaffoldState, "__post_init__", refuse)
        monkeypatch.setattr(ActivationSet, "__post_init__", refuse)
        folder = GOLDEN / case
        sidecar = json.loads((folder / f"{case}.expect.json").read_text())
        window = sidecar["window"]
        code = main(
            [
                "analyze",
                "--trace", str(folder / sidecar["trace"]),
                "--identity", str(folder / sidecar["identity"]),
                "--delta", str(window["delta"]),
                "--stride", str(window["stride"]),
                "--eval", ",".join(str(t) for t in window["eval"]),
                "--horizon-max", str(window["horizon_max"]),
            ]
        )
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


@st.composite
def trace_lines(draw) -> list[str]:
    """Near-valid records of either form, some fields replaced by any JSON."""
    state = draw(st.booleans())
    lines = []
    for u in range(draw(st.integers(0, 5))):
        if state:
            record = {
                "u": u,
                "C": draw(st.lists(tokens, max_size=4)),
                "M": draw(st.dictionaries(st.sampled_from(["team"]), st.sampled_from(["audit"]))),
                "pi": draw(st.lists(st.integers(0, 1), min_size=1, max_size=1)),
                "D": draw(st.lists(st.sampled_from(["charter"]), max_size=1)),
            }
        else:
            record = {"u": u, "F": draw(st.lists(tokens, max_size=3))}
        if draw(st.integers(0, 3)) == 0:
            record[draw(st.sampled_from(sorted(record) + ["extra"]))] = draw(json_values)
        lines.append(with_long_ints(json.dumps(record)))
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
