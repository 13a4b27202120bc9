"""Tests for trace parsing, the analyze/simulate/probe commands, and exit codes."""

from __future__ import annotations

import gc
import inspect
import json
import random
import statistics
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracebind.cli import build_parser, build_report, integer, main
from tracebind.errors import FileFormatError, MetricError, StructuralError, replace
from tracebind.identity import identity_to_document, ingredient_bits, load_identity_file
from tracebind.metrics import MetricParams, changed_bits, consistency, render_json, render_number
from tracebind.oracle import oracle_minimal_horizons, oracle_persistence
from tracebind.sets import ActivationSet, ScaffoldState, activation_mask, parse_trace
from tracebind.simulator import (
    make_preset,
    probe_presets,
    probe_script,
    run,
    scenario_alternating,
    scenario_capacity_limited,
    scenario_rag_displacement,
)
import tracebind.trace as trace_module
from tracebind.trace import activation_record, state_record, write_trace
from tracebind.windows import INFINITE, WindowConfig
from conftest import context_identity, random_activations


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def activation_lines(sets):
    return [
        json.dumps({"u": u, "F": sorted(active)}, separators=(",", ":"))
        for u, active in enumerate(sets)
    ]


# what a caller may pass where a trace needs a string; 1, 1.0 and True are
# equal keys that JSON spells three ways
NOT_STRINGS = st.integers(-1, 2) | st.booleans() | st.floats(-1, 2) | st.none()


def write_identity(path, identity, layers=None):
    path.write_text(render_json(identity_to_document(identity, layers)) + "\n")


class TestParseTrace:
    def test_activation_form(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_lines(path, activation_lines([{"name"}, {"role"}, {"constraint"}]))
        trace = parse_trace(path)
        assert trace.form == "activation"
        assert [sorted(a.active) for a in trace.activations] == [
            ["name"], ["role"], ["constraint"]
        ]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("")
        with pytest.raises(FileFormatError, match="empty trace"):
            parse_trace(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_lines(path, ['{"u":0,"F":[]}', "{broken"])
        with pytest.raises(FileFormatError, match=":2"):
            parse_trace(path)

    def test_non_contiguous_steps_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_lines(path, ['{"u":0,"F":[]}', '{"u":2,"F":[]}'])
        with pytest.raises(FileFormatError, match="without gaps"):
            parse_trace(path)

    def test_mixed_forms_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_lines(
            path,
            ['{"u":0,"F":[]}', '{"u":1,"C":[],"M":{},"pi":[],"D":[]}'],
        )
        with pytest.raises(FileFormatError, match="form"):
            parse_trace(path)

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_lines(path, ['{"u":0,"F":[],"note":"hi"}'])
        with pytest.raises(FileFormatError):
            parse_trace(path)

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"u":0,"F":[]}\n\n{"u":1,"F":[]}\n')
        with pytest.raises(FileFormatError, match="blank"):
            parse_trace(path)

    def test_state_form_round_trip(self, tmp_path):
        states, identity, _ = scenario_alternating(12)
        path = tmp_path / "trace.jsonl"
        write_trace(path, [state_record(s) for s in states])
        first = path.read_bytes()
        trace = parse_trace(path)
        assert trace.form == "state"
        write_trace(path, [state_record(s) for s in trace.states])
        assert path.read_bytes() == first

    @given(
        st.lists(
            st.tuples(
                st.lists(st.text(max_size=3) | NOT_STRINGS, max_size=4),
                st.dictionaries(st.text(max_size=2) | NOT_STRINGS, st.text(max_size=2) | NOT_STRINGS, max_size=2),
                st.lists(st.sampled_from([0, 1, True, False, 1.0, 0.0]), min_size=2, max_size=2),
                st.sets(st.text(max_size=2) | NOT_STRINGS, max_size=2),
                st.sampled_from([int, int, bool, float]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_library_built_states_round_trip(self, components):
        # the library accepts exactly the states the trace reader accepts back
        states = []
        for u, (context, memory, flags, retrieved, step_type) in enumerate(components):
            strings = (*context, *memory, *memory.values(), *retrieved)
            valid = (
                all(type(flag) is int for flag in flags)
                and all(isinstance(value, str) for value in strings)
                and step_type is int
            )
            try:
                states.append(ScaffoldState(tuple(context), memory, tuple(flags), retrieved, step_type(u)))
            except StructuralError:
                assert not valid
                return
            assert valid
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "trace.jsonl"
            write_trace(path, [state_record(s) for s in states])
            assert parse_trace(path).states == tuple(states)

    @given(
        st.lists(
            st.tuples(
                st.sets(st.text(max_size=2) | NOT_STRINGS, max_size=3),
                st.sampled_from([int, int, bool, float]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_library_built_activation_sets_round_trip(self, components):
        # the library accepts exactly the activation sets the trace reader
        # accepts back, and refuses the rest with StructuralError
        acts = []
        for u, (active, step_type) in enumerate(components):
            valid = all(isinstance(i, str) for i in active) and step_type is int
            try:
                acts.append(ActivationSet(step_type(u), active))
            except StructuralError:
                assert not valid
                return
            assert valid
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "trace.jsonl"
            trace_module.write_lines(path, trace_module.activation_lines(acts))
            assert parse_trace(path).activations == tuple(acts)

    def test_activation_round_trip(self, tmp_path):
        sets = [{"g0"}, {"g0", "g1"}, set()]
        path = tmp_path / "trace.jsonl"
        write_lines(path, activation_lines(sets))
        first = path.read_bytes()
        trace = parse_trace(path)
        write_trace(path, [activation_record(a) for a in trace.activations])
        assert path.read_bytes() == first

    def test_pi_length_must_be_uniform(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_lines(
            path,
            [
                '{"u":0,"C":[],"M":{},"pi":[0],"D":[]}',
                '{"u":1,"C":[],"M":{},"pi":[0,1],"D":[]}',
            ],
        )
        with pytest.raises(FileFormatError, match="pi"):
            parse_trace(path)

    @pytest.mark.parametrize("step", ["true", "1.0", '"1"'])
    def test_non_integer_step_rejected(self, tmp_path, step):
        # bool is a subclass of int, so a type check must exclude it by name
        path = tmp_path / "trace.jsonl"
        write_lines(path, ['{"u":0,"F":[]}', f'{{"u":{step},"F":[]}}'])
        with pytest.raises(FileFormatError, match=r"trace\.jsonl:2: u must be an integer"):
            parse_trace(path)

    @pytest.mark.parametrize("flag", ["1.0", "0.0", "true", "false"])
    def test_non_integer_flag_rejected(self, tmp_path, flag):
        path = tmp_path / "trace.jsonl"
        write_lines(
            path,
            [
                '{"u":0,"C":[],"M":{},"pi":[0],"D":[]}',
                f'{{"u":1,"C":[],"M":{{}},"pi":[{flag}],"D":[]}}',
            ],
        )
        with pytest.raises(FileFormatError, match=r"trace\.jsonl:2: pi entries"):
            parse_trace(path)

    @pytest.mark.parametrize(
        "line, key",
        [
            ('{"u":0,"F":["g0"],"F":["g0","g1"]}', "F"),
            ('{"u":0,"C":[],"M":{"a":"x","a":"y"},"pi":[],"D":[]}', "a"),
        ],
    )
    def test_duplicate_key_rejected(self, tmp_path, line, key):
        path = tmp_path / "trace.jsonl"
        write_lines(path, [line])
        with pytest.raises(FileFormatError, match=rf"trace\.jsonl:1: duplicate key '{key}'"):
            parse_trace(path)

    def test_invalid_utf8_is_located(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b'{"u":0,"F":[]}\n{"u":1,"F":["\xff"]}\n')
        with pytest.raises(FileFormatError, match=r"trace\.jsonl:2: not UTF-8"):
            parse_trace(path)

    def test_deep_nesting_is_a_format_error(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("[" * 100_000)
        with pytest.raises(FileFormatError, match=r"trace\.jsonl:1: invalid JSON"):
            parse_trace(path)

    @pytest.mark.parametrize("field", ["u", "F"])
    def test_overlong_integer_is_a_format_error(self, tmp_path, field):
        # past Python's 4,300-digit limit int() raises ValueError, not a JSON error
        record = {"u": 1, "F": []}
        record[field] = "<int>"
        line = json.dumps(record).replace('"<int>"', "1" * 4301)
        path = tmp_path / "trace.jsonl"
        write_lines(path, ['{"u":0,"F":[]}', line])
        with pytest.raises(FileFormatError, match=r"trace\.jsonl:2: invalid JSON: integer literal too long"):
            parse_trace(path)

    def test_lines_split_as_json_lines_does(self, tmp_path):
        # only LF, CR LF and CR end a line: U+2028 and U+0085 stay inside
        # their strings, and a form feed is a character of its line
        path = tmp_path / "trace.jsonl"
        path.write_text('{"u":0,"F":["a\u2028b"]}\r{"u":1,"F":["c\x85"]}\r\n{"u":2,"F":[]}\n', encoding="utf-8")
        acts = parse_trace(path).activations
        assert [act.active for act in acts] == [{"a\u2028b"}, {"c\x85"}, set()]
        path.write_text('{"u":0,"F":[]}\x0c{"u":1,"F":[]}\n', encoding="utf-8")
        with pytest.raises(FileFormatError, match=r"trace\.jsonl:1: invalid JSON: Extra data"):
            parse_trace(path)

    def test_stray_ingredient_in_activation_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_lines(path, activation_lines([{"ghost"}]))
        trace = parse_trace(path)
        with pytest.raises(FileFormatError, match="ghost"):
            trace.to_activations(context_identity(2))


def reference_join(records) -> bytes:
    """The bytes of one ``json.dumps`` line per record, joined, plus a newline."""
    lines = [json.dumps(record, separators=(",", ":")) for record in records]
    return ("\n".join(lines) + "\n").encode("utf-8")


NON_ASCII = ["Ålice", "日本語", "emoji \U0001f642", "ß", "\u00a0"]
NEEDS_ESCAPES = ['quote " and backslash \\', "tab\tnewline\ncr\r", "\x00\x1f\x7f", "\u2028\u2029", "\ud800"]
JSON_VALUES = st.text() | st.integers() | st.floats() | st.booleans() | st.none()


class TestWriteTrace:
    @pytest.mark.parametrize(
        "records",
        [
            pytest.param([], id="empty"),
            pytest.param([{"u": 0, "F": NON_ASCII}, {"u": 1, "F": []}], id="non-ascii"),
            pytest.param(
                [{"u": u, "C": [t], "M": {t: t}, "pi": [0], "D": [t]} for u, t in enumerate(NEEDS_ESCAPES)],
                id="escapes",
            ),
            pytest.param([state_record(s) for s in scenario_alternating(40)[0]], id="states"),
        ],
    )
    def test_one_shot_generator_writes_the_joined_dumps(self, tmp_path, records):
        path = tmp_path / "trace.jsonl"
        write_trace(path, (record for record in records))
        assert path.read_bytes() == reference_join(records)

    @given(
        st.lists(
            st.dictionaries(st.text(), JSON_VALUES | st.lists(JSON_VALUES, max_size=3), max_size=4),
            max_size=5,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_any_records_write_the_joined_dumps(self, records):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "trace.jsonl"
            write_trace(path, iter(records))
            assert path.read_bytes() == reference_join(records)

    def test_memory_does_not_grow_with_the_records(self, tmp_path):
        def peak(n: int) -> int:
            records = (
                {"u": u, "C": [f"t{u}", "x"], "M": {"k": "v"}, "pi": [u % 2], "D": []}
                for u in range(n)
            )
            tracemalloc.start()
            try:
                write_trace(tmp_path / f"{n}.jsonl", records)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20_000) <= peak(2_000) + 64 * 1024


def distinct_states(start: int, count: int) -> list[ScaffoldState]:
    """``count`` pairwise distinct states, with memory of up to two pairs."""
    return [
        ScaffoldState((f"t{i}", "x"), {f"k{j}": str(i) for j in range(i % 3)}, (i % 2,), {f"d{i % 5}"}, 0)
        for i in range(start, start + count)
    ]


WORDS = st.sampled_from(["a", "Ålice", 'q"\\', "\u2028"])
COMPONENTS = st.tuples(
    st.lists(WORDS, max_size=2),
    st.dictionaries(WORDS, WORDS, max_size=2),
    st.lists(st.sampled_from([0, 1]), min_size=2, max_size=2),
    st.sets(WORDS, max_size=2),
)


class TestStateLines:
    """``state_lines`` writes each state as ``json.dumps(state_record(s))``
    spells it, whether its text comes from the memo or is encoded anew."""

    @staticmethod
    def assert_writes_the_reference(path, states):
        trace_module.write_lines(path, trace_module.state_lines(iter(states)))
        assert path.read_bytes() == reference_join([state_record(s) for s in states])

    @given(
        COMPONENTS,
        st.lists(st.tuples(st.integers(0, 3), COMPONENTS), max_size=5),
        st.lists(st.integers(0, 5), max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_repeated_and_distinct_states(self, base, variants, picks):
        # the pool is a state and variants of it that change one component,
        # and each pick repeats a pool state under a new step index
        pool = [base] + [base[:i] + (other[i],) + base[i + 1 :] for i, other in variants]
        pool = [ScaffoldState(tuple(c), m, tuple(f), d, 0) for c, m, f, d in pool]
        states = [replace(pool[p % len(pool)], step_index=u) for u, p in enumerate(picks)]
        with tempfile.TemporaryDirectory() as folder:
            self.assert_writes_the_reference(Path(folder) / "trace.jsonl", states)

    def test_memo_emptied_then_dropped(self, tmp_path):
        first = distinct_states(0, trace_module._MAX_CACHED_TAILS)
        states = first * 3  # fills the memo, then hits it 2,048 times
        # the next miss finds it full and well hit, so empties it; the next
        # 1,024 fill it with no hit, and the miss after them drops it
        states += distinct_states(trace_module._MAX_CACHED_TAILS, trace_module._MAX_CACHED_TAILS + 2)
        states += first[:100]  # written with no memo
        states = [replace(s, step_index=u) for u, s in enumerate(states)]
        self.assert_writes_the_reference(tmp_path / "trace.jsonl", states)

    @pytest.mark.parametrize("repeats", [1, 2], ids=["distinct", "each-twice"])
    def test_memory_does_not_grow_with_the_states(self, tmp_path, repeats):
        # twice each keeps the memo emptied and refilled; once drops it
        def peak(n: int) -> int:
            states = (
                ScaffoldState((f"t{u // repeats}", "x"), {}, (u % 2,), frozenset(), u)
                for u in range(n)
            )
            tracemalloc.start()
            try:
                trace_module.write_lines(tmp_path / f"{n}.jsonl", trace_module.state_lines(states))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a full collection empties the free lists the first run fills, so
        # none may run between the runs
        gc.disable()
        try:
            peak(2_000)  # the first run leaves its memo's key tuples on the interpreter's free list
            assert peak(20_000) <= peak(2_000) + 64 * 1024
        finally:
            gc.enable()


class TestAnalyzeCommand:
    def _alternating_files(self, tmp_path, length=100):
        states, identity, _ = scenario_alternating(length)
        trace_path = tmp_path / "trace.jsonl"
        identity_path = tmp_path / "identity.json"
        write_trace(trace_path, [state_record(s) for s in states])
        write_identity(identity_path, identity)
        return trace_path, identity_path

    def test_alternating_report(self, tmp_path, capsys):
        trace_path, identity_path = self._alternating_files(tmp_path)
        code = main(
            [
                "analyze",
                "--trace", str(trace_path),
                "--identity", str(identity_path),
                "--delta", "1",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["p_weak"] == 1.0
        assert report["p_strong"] == 0.0
        assert report["gap_ratio"] == "inf"
        assert report["window"]["t_count"] == 99
        assert report["morphospace"]["avail"] == 1.0
        assert report["morphospace"]["bind"] == 0.0
        assert report["consistency"] is None
        assert report["recovery"] is None

    def test_zero_horizon_collapse(self, tmp_path, capsys):
        trace_path, identity_path = self._alternating_files(tmp_path, length=40)
        code = main(
            [
                "analyze",
                "--trace", str(trace_path),
                "--identity", str(identity_path),
                "--delta", "0",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["p_weak"] == report["p_strong"]

    def test_worked_example_activation_form(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        write_lines(
            trace_path, activation_lines([{"name"}, {"role"}, {"constraint"}])
        )
        identity_path = tmp_path / "identity.json"
        identity_path.write_text(
            json.dumps(
                {
                    "ingredients": [
                        {"id": "name", "kind": "context", "context_pattern": ["Alice"]},
                        {"id": "role", "kind": "memory", "memory_key": "role",
                         "memory_value": "analyst"},
                        {"id": "constraint", "kind": "policy", "flag_index": 0},
                    ]
                }
            )
        )
        code = main(
            [
                "analyze",
                "--trace", str(trace_path),
                "--identity", str(identity_path),
                "--delta", "2",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["p_weak"] == 1.0
        assert report["p_strong"] == 0.0
        assert report["gap_ratio"] == "inf"

    def test_horizon_max_below_delta_keeps_persistence(self, tmp_path, capsys):
        # windows bind within delta 3 after up to three steps; a gap cap of 1
        # leaves the persistence scores of the default cap
        trace_path = tmp_path / "trace.jsonl"
        write_lines(trace_path, activation_lines([{"g0"}, {"g1"}, {"g0"}, {"g0", "g1"}] * 10))
        identity_path = tmp_path / "identity.json"
        write_identity(identity_path, context_identity(2))
        reports = []
        for cap in ([], ["--horizon-max", "1"]):
            args = ["analyze", "--trace", str(trace_path), "--identity", str(identity_path)]
            assert main([*args, "--delta", "3", *cap]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        default, capped = reports
        assert capped["params"]["horizon_max"] == 1
        assert (capped["p_weak"], capped["p_strong"]) == (default["p_weak"], default["p_strong"])
        assert (default["p_weak"], default["p_strong"]) == (1.0, 1.0)

    def test_explicit_eval_list(self, tmp_path, capsys):
        trace_path, identity_path = self._alternating_files(tmp_path, length=20)
        code = main(
            [
                "analyze",
                "--trace", str(trace_path),
                "--identity", str(identity_path),
                "--delta", "1",
                "--eval", "0,3,5",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["window"]["t_count"] == 3

    def test_overrunning_eval_indices_are_excluded(self, tmp_path, capsys):
        trace_path, identity_path = self._alternating_files(tmp_path, length=10)
        code = main(
            [
                "analyze",
                "--trace", str(trace_path),
                "--identity", str(identity_path),
                "--delta", "1",
                "--eval", "0,500",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["window"]["t_count"] == 1

    @pytest.mark.parametrize(
        "flags, t_count",
        [(["--delta", "1", "--stride", "3"], 3), (["--delta", "0", "--stride", "3"], 4), (["--delta", "9"], 1)],
    )
    def test_every_layer_time_that_fits(self, tmp_path, capsys, flags, t_count):
        # with --eval all, T is every t whose window s*t .. s*t + delta ends
        # inside the 10 steps
        trace_path, identity_path = self._alternating_files(tmp_path, length=10)
        code = main(["analyze", "--trace", str(trace_path), "--identity", str(identity_path), *flags])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["window"]["t_count"] == t_count

    @pytest.mark.parametrize("flags", [["--delta", "10"], ["--delta", "1", "--eval", "9,500"]])
    def test_no_window_fits_is_usage_error(self, tmp_path, capsys, flags):
        trace_path, identity_path = self._alternating_files(tmp_path, length=10)
        code = main(["analyze", "--trace", str(trace_path), "--identity", str(identity_path), *flags])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == "" and "no evaluation window fits inside the trace" in out.err

    def test_report_written_to_file(self, tmp_path):
        trace_path, identity_path = self._alternating_files(tmp_path, length=12)
        out = tmp_path / "report.json"
        code = main(
            [
                "analyze",
                "--trace", str(trace_path),
                "--identity", str(identity_path),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["p_weak"] == 1.0

    def test_text_format(self, tmp_path, capsys):
        trace_path, identity_path = self._alternating_files(tmp_path, length=12)
        code = main(
            [
                "analyze",
                "--trace", str(trace_path),
                "--identity", str(identity_path),
                "--format", "text",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p_weak = 1.000000" in out
        assert "gap_ratio = inf" in out

    def test_missing_trace_is_input_error(self, tmp_path, capsys):
        identity_path = tmp_path / "identity.json"
        write_identity(identity_path, context_identity(2))
        code = main(
            ["analyze", "--trace", str(tmp_path / "nope.jsonl"),
             "--identity", str(identity_path)]
        )
        assert code == 2

    def test_undefined_gap_is_metric_error(self, tmp_path, capsys):
        # one ingredient never activates: every window's weak horizon is infinite
        trace_path = tmp_path / "trace.jsonl"
        write_lines(trace_path, activation_lines([{"g0"}] * 6))
        identity_path = tmp_path / "identity.json"
        write_identity(identity_path, context_identity(2))
        code = main(
            [
                "analyze",
                "--trace", str(trace_path),
                "--identity", str(identity_path),
                "--delta", "1",
                "--horizon-max", "3",
            ]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "line",
        ['{"u":0,"F":["g1","g2"]}', '{"u":0,"C":["g1","g2"],"M":{},"pi":[0],"D":[]}'],
        ids=["activation", "state"],
    )
    def test_one_step_trace_is_metric_error(self, tmp_path, capsys, line):
        # a valid trace with every ingredient bound at its one step: only
        # continuity, which needs a step with a predecessor, is undefined
        trace_path, identity_path = self._alternating_files(tmp_path)
        write_lines(trace_path, [line])
        code = main(
            [
                "analyze",
                "--trace", str(trace_path),
                "--identity", str(identity_path),
                "--delta", "0",
            ]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tracebind: metric error:")
        assert "continuity" in captured.err

    def test_continuity_tie_renders_half_to_even(self, tmp_path, capsys):
        # k = 12, 33 steps, 189 changed bits: the exact mean 1 - 189/384 =
        # 65/128 = 0.5078125 is a tie at the sixth decimal
        changed = [6] * 32
        changed[15:19] = [5] * 4
        changed[31] = 7
        masks = [(1 << 12) - 1]  # every id at step 0, so the gap is defined
        for bits in changed:
            masks.append(masks[-1] ^ ((1 << bits) - 1))
        trace_path = tmp_path / "trace.jsonl"
        write_lines(trace_path, activation_lines(
            [{f"g{i}" for i in range(12) if mask >> i & 1} for mask in masks]
        ))
        identity_path = tmp_path / "identity.json"
        write_identity(identity_path, context_identity(12))
        code = main(
            ["analyze", "--trace", str(trace_path), "--identity", str(identity_path),
             "--delta", "1"]
        )
        assert code == 0
        assert '"continuity_mean": 0.507812,' in capsys.readouterr().out
        # the float terms, summed in step order, land above the tie
        terms = [1.0 - changed / 12 for changed in changed_bits(masks, 12, range(1, 33))]
        assert render_number(sum(terms) / 32) == "0.507813"

    def test_duplicate_trace_key_is_usage_error(self, tmp_path, capsys):
        # the second "F" used to win: a full step, p_strong 0.5 and exit 0
        trace_path = tmp_path / "trace.jsonl"
        write_lines(trace_path, ['{"u":0,"F":["g0"],"F":["g0","g1"]}', '{"u":1,"F":[]}'])
        identity_path = tmp_path / "identity.json"
        write_identity(identity_path, context_identity(2))
        code = main(
            ["analyze", "--trace", str(trace_path), "--identity", str(identity_path),
             "--delta", "0"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "trace.jsonl:1: duplicate key 'F'" in captured.err

    def test_duplicate_identity_key_is_usage_error(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        write_lines(trace_path, activation_lines([{"b"}, {"b"}]))
        identity_path = tmp_path / "identity.json"
        identity_path.write_text(
            '{"ingredients": [{"id": "a", "id": "b", "kind": "context", '
            '"context_pattern": ["x"]}]}'
        )
        code = main(
            ["analyze", "--trace", str(trace_path), "--identity", str(identity_path)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "duplicate key 'id'" in captured.err

    def test_faulty_trace_reported_before_faulty_identity(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        write_lines(trace_path, ['{"u":0,"F":[]}', "{broken"])
        identity_path = tmp_path / "identity.json"
        identity_path.write_text("{}")
        code = main(
            ["analyze", "--trace", str(trace_path), "--identity", str(identity_path)]
        )
        assert code == 2
        assert "trace.jsonl:2: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines",
        [
            ['{"u":0,"F":["g0","g1"]}', '{"u":true,"F":["g0","g1"]}'],
            [
                '{"u":0,"C":["g0","g1"],"M":{},"pi":[1],"D":[]}',
                '{"u":1,"C":["g0","g1"],"M":{},"pi":[true],"D":[]}',
            ],
        ],
    )
    def test_coerced_trace_values_are_usage_errors(self, tmp_path, capsys, lines):
        trace_path = tmp_path / "trace.jsonl"
        write_lines(trace_path, lines)
        identity_path = tmp_path / "identity.json"
        write_identity(identity_path, context_identity(2))
        code = main(
            ["analyze", "--trace", str(trace_path), "--identity", str(identity_path),
             "--delta", "0"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "trace.jsonl:2:" in captured.err

    def test_overlong_integer_in_trace_is_usage_error(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        write_lines(trace_path, ['{"u":0,"F":[]}', '{"u":' + "1" * 5000 + ',"F":[]}'])
        identity_path = tmp_path / "identity.json"
        write_identity(identity_path, context_identity(2))
        code = main(
            ["analyze", "--trace", str(trace_path), "--identity", str(identity_path),
             "--delta", "0"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "trace.jsonl:2: invalid JSON: integer literal too long" in captured.err

    @pytest.mark.parametrize("jsonl", [False, True])
    def test_overlong_integer_in_identity_is_usage_error(self, tmp_path, capsys, jsonl):
        trace_path = tmp_path / "trace.jsonl"
        write_lines(trace_path, activation_lines([{"g0"}, {"g0"}]))
        identity_path = tmp_path / "identity.json"
        records = [
            '{"id": "g0", "kind": "context", "context_pattern": ["g0"]}',
            '{"id": "g1", "kind": "policy", "flag_index": ' + "9" * 4301 + "}",
        ]
        if jsonl:
            identity_path.write_text("\n".join(records) + "\n")
            where = "identity.json:2"
        else:
            identity_path.write_text('{"ingredients": [' + ", ".join(records) + "]}")
            where = "identity.json:1"
        code = main(
            ["analyze", "--trace", str(trace_path), "--identity", str(identity_path),
             "--delta", "0"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{where}: invalid JSON: integer literal too long" in captured.err

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
    def test_nonfinite_epsilon_is_usage_error(self, tmp_path, capsys, epsilon):
        trace_path, identity_path = self._alternating_files(tmp_path, length=10)
        code = main(
            [
                "analyze",
                "--trace", str(trace_path),
                "--identity", str(identity_path),
                f"--epsilon={epsilon}",
            ]
        )
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_trace_too_short_for_window(self, tmp_path):
        trace_path, identity_path = self._alternating_files(tmp_path, length=3)
        code = main(
            [
                "analyze",
                "--trace", str(trace_path),
                "--identity", str(identity_path),
                "--delta", "9",
            ]
        )
        assert code == 2

    def test_bad_ref_index(self, tmp_path):
        trace_path, identity_path = self._alternating_files(tmp_path, length=10)
        code = main(
            [
                "analyze",
                "--trace", str(trace_path),
                "--identity", str(identity_path),
                "--ref-index", "999",
            ]
        )
        assert code == 2


class TestOnePass:
    def test_build_report_equals_the_oracle(self):
        # one pass searched up to max(delta, horizon_max) gives persistence at
        # delta and the gap at horizon_max, for every horizon_max, 0 and values
        # below delta included, with strides above 1 and explicit eval lists
        rng = random.Random(11_011)
        seen = set()
        for _ in range(400):
            identity = context_identity(rng.randint(1, 4))
            acts = random_activations(rng, rng.randint(2, 40), identity)
            bits = ingredient_bits(identity)
            masks = [activation_mask(act, bits) for act in acts]
            delta = rng.randint(0, 8)
            stride = rng.randint(1, 4)
            t_max = (len(acts) - 1 - delta) // stride
            if t_max < 0:
                continue
            if rng.random() < 0.5:
                times = range(t_max + 1)
            else:
                times = rng.sample(range(t_max + 1), rng.randint(1, t_max + 1))
                seen.add("eval list")
            for horizon_max in {0, rng.randint(0, delta), rng.randint(0, 12), 256}:
                cfg = WindowConfig(delta, stride, times, horizon_max)
                oracle = oracle_persistence(acts, identity, cfg)
                horizons = [
                    oracle_minimal_horizons(acts, identity, stride, t, horizon_max)
                    for t in cfg.eval_indices
                ]
                terms = [(ws + 1) / (wi + 1) for wi, ws in horizons if wi != INFINITE]
                beyond_cap = [
                    w
                    for t in cfg.eval_indices
                    for w in oracle_minimal_horizons(acts, identity, stride, t, delta)
                    if horizon_max < w <= delta
                ]
                if beyond_cap:
                    # persistence needs a horizon the gap's cap does not reach
                    seen.add("window binds beyond horizon_max")
                if stride > 1:
                    seen.add("stride")
                if not terms:
                    seen.add("undefined gap")
                    with pytest.raises(MetricError, match="gap ratio is undefined"):
                        build_report(masks, identity.k, cfg, MetricParams(), 0)
                    continue
                report = build_report(masks, identity.k, cfg, MetricParams(), 0)
                assert (report.p_weak, report.p_strong) == (oracle.p_weak, oracle.p_strong)
                assert report.gap.ratio == statistics.median(terms)
                assert report.gap.undefined_count == len(horizons) - len(terms)
        assert seen == {"eval list", "window binds beyond horizon_max", "stride", "undefined gap"}

    def test_continuity_renders_the_exact_mean(self):
        # the rendered mean is the exact mean rounded half to even; half the
        # cases take a (k, n) whose k * (n - 1) is a multiple of 128, where
        # a mean can be a tie at the sixth decimal
        rng = random.Random(8_128)
        ties = 0
        for _ in range(3000):
            if rng.random() < 0.5:
                k, n = rng.choice([(4, 33), (8, 17), (8, 33), (8, 49), (12, 33)])
            else:
                k, n = rng.randint(1, 12), rng.randint(2, 60)
            full = (1 << k) - 1
            masks = [full] + [rng.randrange(full + 1) for _ in range(n - 1)]
            report = build_report(masks, k, WindowConfig(0, 1, range(n), 0), MetricParams(), 0)
            changed = sum((masks[u] ^ masks[u - 1]).bit_count() for u in range(1, n))
            exact = 1 - Fraction(changed, k * (n - 1))
            ties += (exact * 2_000_000).denominator == 1 and (exact * 1_000_000).denominator != 1
            assert Fraction(render_number(report.continuity_mean)) == round(exact, 6)
        assert ties > 100


def analyze_in_window(tmp_path, sidecar, trace_name):
    """The exit code of ``analyze`` over a written trace, in the sidecar's window."""
    window = sidecar["window"]
    return main(
        [
            "analyze",
            "--trace", str(tmp_path / trace_name),
            "--identity", str(tmp_path / sidecar["identity"]),
            "--delta", str(window["delta"]),
            "--stride", str(window["stride"]),
            "--eval", ",".join(str(t) for t in window["eval"]),
            "--horizon-max", str(window["horizon_max"]),
        ]
    )


def assert_analyze_agrees(tmp_path, capsys, sidecar, trace_name, expect):
    """``analyze`` over a written trace, in the sidecar's window, reports what
    the sidecar's ``expect`` section says."""
    assert analyze_in_window(tmp_path, sidecar, trace_name) == 0
    report = json.loads(capsys.readouterr().out)
    for key in ("p_weak", "p_strong"):
        if key in expect:
            assert f"{report[key]:.6f}" == expect[key], (trace_name, key)
    if "gap_ratio" in expect:
        assert report["gap_ratio"] == expect["gap_ratio"]


class TestSimulateCommand:
    @pytest.mark.parametrize(
        "scenario", ["noncommutation", "alternating", "capacity", "drift-recover"]
    )
    def test_single_trace_scenarios(self, tmp_path, scenario, capsys):
        base = tmp_path / scenario
        code = main(["simulate", scenario, "--out", str(base)])
        assert code == 0
        sidecar = json.loads((tmp_path / f"{scenario}.expect.json").read_text())
        assert sidecar["scenario"] == scenario
        trace_path = tmp_path / sidecar["trace"]
        identity_path = tmp_path / sidecar["identity"]
        assert trace_path.exists() and identity_path.exists()

    def test_rag_displacement_writes_two_traces(self, tmp_path, capsys):
        base = tmp_path / "rd"
        assert main(["simulate", "rag-displacement", "--out", str(base)]) == 0
        sidecar = json.loads((tmp_path / "rd.expect.json").read_text())
        assert (tmp_path / sidecar["trace_without"]).exists()
        assert (tmp_path / sidecar["trace_with"]).exists()
        assert sidecar["expect"]["p_strong_strictly_drops"] is True

    def test_preset_probe_scenarios(self, tmp_path, capsys):
        scores = {}
        for preset in ("stateless", "prompted", "rag", "memory", "controller"):
            base = tmp_path / f"probe_{preset}"
            code = main(
                ["simulate", "preset-probe", "--preset", preset, "--out", str(base)]
            )
            assert code == 0
            sidecar = json.loads((tmp_path / f"probe_{preset}.expect.json").read_text())
            assert sidecar["preset"] == preset
            scores[preset] = float(sidecar["expect"]["p_weak"])
        ladder = [scores[p] for p in ("stateless", "prompted", "rag", "memory", "controller")]
        assert ladder == sorted(ladder)

    def test_unknown_preset_is_usage_error(self, tmp_path):
        code = main(
            ["simulate", "preset-probe", "--preset", "mainframe",
             "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_sidecar_expectations_hold_via_analyze(self, tmp_path, capsys):
        """Every shipped scenario's sidecar passes when re-analyzed."""
        for scenario in (
            "noncommutation", "alternating", "capacity", "rag-displacement",
            "drift-recover", "preset-probe",
        ):
            base = tmp_path / scenario.replace("-", "_")
            assert main(["simulate", scenario, "--out", str(base)]) == 0
            capsys.readouterr()
            sidecar = json.loads(
                (tmp_path / f"{base.name}.expect.json").read_text()
            )
            traces = (
                {"": sidecar["trace"]}
                if "trace" in sidecar
                else {
                    "_without": sidecar["trace_without"],
                    "_with": sidecar["trace_with"],
                }
            )
            for suffix, trace_name in traces.items():
                expect = sidecar["expect" + suffix] if suffix else sidecar["expect"]
                assert_analyze_agrees(tmp_path, capsys, sidecar, trace_name, expect)

    def test_long_alternating_trace_is_the_reference_join(self, tmp_path, capsys):
        assert main(["simulate", "alternating", "--length", "6000", "--out", str(tmp_path / "alt")]) == 0
        capsys.readouterr()
        states, _, _ = scenario_alternating(6000)
        expected = reference_join([state_record(s) for s in states])
        assert (tmp_path / "alt.trace.jsonl").read_bytes() == expected
        sidecar = json.loads((tmp_path / "alt.expect.json").read_text())
        assert sidecar["expect"] == {"p_weak": "1.000000", "p_strong": "0.000000", "gap_ratio": "inf"}
        assert_analyze_agrees(tmp_path, capsys, sidecar, sidecar["trace"], sidecar["expect"])

    @pytest.mark.parametrize(
        "argv, traces, gap_defined",
        [
            pytest.param(
                ["capacity", "--length", "5000"],
                lambda: {"": scenario_capacity_limited(2, 3, 5000)[0]},
                True,
                id="capacity",
            ),
            *[
                pytest.param(
                    ["preset-probe", "--preset", preset, "--cycles", "1000"],
                    lambda preset=preset: {
                        "": run(probe_presets()[preset], probe_script(1000), skip_unsupported=True)
                    },
                    preset not in ("stateless", "prompted"),  # where no window ever binds
                    id=f"preset-probe-{preset}",
                )
                for preset in ("stateless", "prompted", "rag", "memory", "controller")
            ],
            pytest.param(
                ["rag-displacement"],
                lambda: dict(zip(("without", "with"), scenario_rag_displacement()[:2])),
                True,
                id="rag-displacement",
            ),
        ],
    )
    def test_scenario_traces_are_the_reference_join(self, tmp_path, capsys, argv, traces, gap_defined):
        # all but rag-displacement run past the writer's 1,024-entry memo
        assert main(["simulate", *argv, "--out", str(tmp_path / "s")]) == 0
        capsys.readouterr()
        sidecar = json.loads((tmp_path / "s.expect.json").read_text())
        identity, _ = load_identity_file(tmp_path / sidecar["identity"])
        window = sidecar["window"]
        cfg = WindowConfig(window["delta"], window["stride"], window["eval"], window["horizon_max"])
        for label, states in traces().items():
            suffix = f"_{label}" if label else ""
            name = sidecar[f"trace{suffix}"]
            expect = sidecar[f"expect{suffix}"]
            assert (tmp_path / name).read_bytes() == reference_join([state_record(s) for s in states])
            oracle = oracle_persistence(parse_trace(tmp_path / name).to_activations(identity), identity, cfg)
            assert [f"{oracle.p_weak:.6f}", f"{oracle.p_strong:.6f}"] == [expect["p_weak"], expect["p_strong"]]
            if gap_defined:
                assert_analyze_agrees(tmp_path, capsys, sidecar, name, expect)
            else:
                # no window has a finite weak horizon, so analyze scores no gap
                assert analyze_in_window(tmp_path, sidecar, name) == 3
                message = "gap ratio is undefined: no evaluated window has a finite weak horizon"
                assert message in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf", "-0.5"])
    def test_drift_recover_rejects_bad_epsilon(self, tmp_path, epsilon):
        code = main(
            [
                "simulate", "drift-recover",
                f"--epsilon={epsilon}",
                "--out", str(tmp_path / "dr"),
            ]
        )
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("delta, code", [(4, 0), (5, 2), (100, 2)])
    def test_capacity_delta_must_leave_a_window(self, tmp_path, capsys, delta, code):
        argv = ["simulate", "capacity", "--length", "5", f"--delta={delta}"]
        assert main([*argv, "--out", str(tmp_path / "c")]) == code
        if code:
            assert "--delta must be less than --length" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []

    def test_unknown_scenario_is_usage_error(self, tmp_path):
        assert main(["simulate", "warpdrive", "--out", str(tmp_path / "x")]) == 2

    def test_scenario_flag_alias(self, tmp_path):
        code = main(
            ["simulate", "--scenario", "noncommutation", "--out", str(tmp_path / "nc")]
        )
        assert code == 0

    def test_undisplaceable_rag_parameters_error(self, tmp_path):
        code = main(
            [
                "simulate", "rag-displacement",
                "--passage", "1",
                "--out", str(tmp_path / "rd"),
            ]
        )
        assert code == 2


FLAG_FAULTS = {
    "horizon-max": (["analyze", "--horizon-max", "-1"], "horizon_max must be >= 0"),
    "eval-word": (
        ["analyze", "--eval", "x"],
        "--eval must be 'all' or a comma-separated list: "
        "invalid literal for int() with base 10: 'x'",
    ),
    "eval-comma": (["analyze", "--eval", ","], "--eval list is empty"),
    # each --eval entry is an optional '-' and ASCII digits: int() alone reads these as 0,2; 10; 3
    "eval-empty-entry": (
        ["analyze", "--eval", "0,,2"],
        "--eval must be 'all' or a comma-separated list: invalid literal for int() with base 10: ''",
    ),
    "eval-underscore": (
        ["analyze", "--eval", "1_0"],
        "--eval must be 'all' or a comma-separated list: invalid literal for int() with base 10: '1_0'",
    ),
    "eval-non-ascii": (
        ["analyze", "--eval", "٣"],
        "--eval must be 'all' or a comma-separated list: invalid literal for int() with base 10: '٣'",
    ),
    "no-scenario": (["simulate"], "simulate needs a scenario name"),
    "drift-k": (["simulate", "drift-recover", "--k", "0"], "--k must be >= 1"),
    "drift-interventions": (
        ["simulate", "drift-recover", "--interventions", "-1"],
        "the intervention count must be >= 0",
    ),
    "capacity-c": (["simulate", "capacity", "--c", "0"], "capacity c must be >= 1"),
    "capacity-length": (["simulate", "capacity", "--length", "0"], "length must be >= 1"),
    "rag-block": (
        ["simulate", "rag-displacement", "--block", "1"],
        "the identity block needs at least two ingredients",
    ),
    "rag-passage": (
        ["simulate", "rag-displacement", "--passage", "-1"],
        "passage_tokens must be >= 0",
    ),
    "probe-cycles": (["simulate", "preset-probe", "--cycles", "0"], "cycles must be >= 1"),
}


@pytest.mark.parametrize("argv, message", FLAG_FAULTS.values(), ids=FLAG_FAULTS)
def test_flag_fault_exits_2_and_writes_nothing(tmp_path, capsys, argv, message):
    if argv[0] == "analyze":
        states, identity, _ = scenario_alternating(10)
        write_trace(tmp_path / "trace.jsonl", [state_record(s) for s in states])
        write_identity(tmp_path / "identity.json", identity)
        argv = [*argv, "--trace", str(tmp_path / "trace.jsonl")]
        argv += ["--identity", str(tmp_path / "identity.json")]
    out = tmp_path / "out"
    out.mkdir()
    assert main([*argv, "--out", str(out / "x")]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"tracebind: {message}\n")
    assert list(out.iterdir()) == []


INTEGER_FLAGS = [
    ["analyze", "--delta"], ["analyze", "--stride"], ["analyze", "--horizon-max"],
    ["analyze", "--ref-index"], ["simulate", "--length"], ["simulate", "--k"],
    ["simulate", "--cycles"],
]


@pytest.mark.parametrize("value", ["1_0", "٣", "+1", "\t1", "", "1.0", "0x1"])
@pytest.mark.parametrize("flag", INTEGER_FLAGS, ids=" ".join)
def test_integer_flags_take_only_ascii_digits(capsys, flag, value):
    # int() alone would read the first four as 10, 3, 1 and 1
    required = ["--trace", "t", "--identity", "i"] if flag[0] == "analyze" else []
    with pytest.raises(SystemExit) as exit_info:
        main([*flag, value, *required])
    assert exit_info.value.code == 2
    assert f"argument {flag[1]}: invalid integer value: {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("text, value", [("7", 7), ("-7", -7), (" 007 ", 7), ("-0", 0), ("1" * 40, int("1" * 40))])
def test_integer_reads_an_optional_minus_and_ascii_digits(text, value):
    assert integer(text) == value
    assert type(integer(text)) is int


class TestProbeCommand:
    def test_identical_lines(self, tmp_path, capsys):
        path = tmp_path / "outs.txt"
        write_lines(path, ["I am Alice"] * 3)
        assert main(["probe", str(path)]) == 0
        out = capsys.readouterr().out
        assert "consistency = 1.000000" in out
        assert "pairs = 3" in out

    def test_disjoint_pair(self, tmp_path, capsys):
        path = tmp_path / "outs.txt"
        write_lines(path, ["alpha beta", "gamma delta"])
        assert main(["probe", str(path), "--delta-cons", "0.5"]) == 0
        assert "consistency = 0.000000" in capsys.readouterr().out

    def test_one_matching_pair_of_three(self, tmp_path, capsys):
        path = tmp_path / "outs.txt"
        write_lines(path, ["same words here", "same words here", "unrelated text"])
        assert main(["probe", str(path), "--delta-cons", "0.9"]) == 0
        assert "consistency = 0.333333" in capsys.readouterr().out

    def test_blank_lines_are_outputs(self, tmp_path, capsys):
        # every line is an output; the two empty ones are the one matching pair
        path = tmp_path / "outs.txt"
        write_lines(path, ["a b", "", "", "c d"])
        assert main(["probe", str(path)]) == 0
        out = capsys.readouterr().out
        assert "consistency = 0.166667" in out
        assert "pairs = 6" in out

    def test_single_line_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "outs.txt"
        write_lines(path, ["lonely"])
        assert main(["probe", str(path)]) == 2

    def test_invalid_utf8_is_located(self, tmp_path, capsys):
        path = tmp_path / "outs.txt"
        path.write_bytes(b"a b\na b\n\xff c\n")
        assert main(["probe", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outs.txt:3: not UTF-8 text" in captured.err

    @pytest.mark.parametrize("delta", ["nan", "inf", "-inf", "2", "-0.5", "1.0000001"])
    def test_delta_cons_outside_unit_interval_is_usage_error(self, tmp_path, capsys, delta):
        path = tmp_path / "outs.txt"
        write_lines(path, ["a b", "a b"])
        assert main(["probe", str(path), f"--delta-cons={delta}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "delta_cons must be in [0, 1]" in captured.err

    @pytest.mark.parametrize("delta", ["0", "1"])
    def test_delta_cons_bounds_are_valid(self, tmp_path, capsys, delta):
        path = tmp_path / "outs.txt"
        write_lines(path, ["a b", "a b"])
        assert main(["probe", str(path), f"--delta-cons={delta}"]) == 0
        assert "consistency = 1.000000" in capsys.readouterr().out

    # the outputs are read before --delta-cons is checked, and their count
    # after it: a missing or non-UTF-8 file comes first, too few outputs last
    @pytest.mark.parametrize(
        "content, delta, message",
        [
            (None, "2", "No such file or directory"),
            (b"a b\n\xff c\n", "2", "outs.txt:2: not UTF-8 text"),
            (b"lonely\n", "2", "delta_cons must be in [0, 1]"),
            (b"", "2", "delta_cons must be in [0, 1]"),
            (b"lonely\n", "0.5", "consistency needs at least two outputs"),
            (b"", "0.5", "consistency needs at least two outputs"),
        ],
    )
    def test_fault_order(self, tmp_path, capsys, content, delta, message):
        path = tmp_path / "outs.txt"
        if content is not None:
            path.write_bytes(content)
        assert main(["probe", str(path), f"--delta-cons={delta}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tracebind: ")
        assert message in captured.err

    def test_json_format(self, tmp_path, capsys):
        path = tmp_path / "outs.txt"
        write_lines(path, ["a b", "a b"])
        assert main(["probe", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["consistency"] == 1.0
        assert doc["pairs"] == 1


class TestMetricDefaults:
    def test_flag_defaults_are_the_metric_params_fields(self):
        defaults = MetricParams()
        parser = build_parser()
        analyze = parser.parse_args(["analyze", "--trace", "t", "--identity", "i"])
        assert (analyze.delta_i, analyze.delta_cons, analyze.epsilon, analyze.alpha) == (
            defaults.delta_i,
            defaults.delta_cons,
            defaults.epsilon,
            defaults.alpha,
        )
        assert parser.parse_args(["probe", "outputs.txt"]).delta_cons == defaults.delta_cons

    def test_consistency_default_is_the_metric_params_field(self):
        default = inspect.signature(consistency).parameters["delta_cons"].default
        assert default == MetricParams().delta_cons


class TestByteStability:
    def test_analyze_is_byte_stable(self, tmp_path, capsys):
        states, identity, _ = scenario_alternating(30)
        trace_path = tmp_path / "trace.jsonl"
        write_trace(trace_path, [state_record(s) for s in states])
        identity_path = tmp_path / "identity.json"
        write_identity(identity_path, identity)
        outputs = []
        for run_index in range(2):
            out = tmp_path / f"report{run_index}.json"
            code = main(
                [
                    "analyze",
                    "--trace", str(trace_path),
                    "--identity", str(identity_path),
                    "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_simulate_is_byte_stable(self, tmp_path, capsys):
        blobs = []
        for run_index in range(2):
            base = tmp_path / f"run{run_index}" / "alt"
            assert main(["simulate", "alternating", "--out", str(base)]) == 0
            blobs.append(
                (
                    (base.parent / "alt.trace.jsonl").read_bytes(),
                    (base.parent / "alt.identity.json").read_bytes(),
                    (base.parent / "alt.expect.json").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]
