"""Command-line front end: trace ingestion, metric reports, scenario traces.

Commands:

- ``analyze``  compute the metrics report for a trace + identity spec
- ``simulate`` write a scenario trace, its identity spec, and a sidecar of
  expected values
- ``probe``    score consistency over a file of recorded outputs

Trace files are line-delimited JSON, one record per objective step, in one
of two forms (never mixed within a file):

- full state:  ``{"u": 0, "C": [...], "M": {...}, "pi": [...], "D": [...]}``
- activation:  ``{"u": 0, "F": ["ingredient", ...]}``

Exit codes: 0 success, 2 input/usage errors, 3 metric errors.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Generator, Iterator, Sequence

from .errors import (
    FileFormatError,
    MetricError,
    ParameterError,
    TracebindError,
)
from .identity import (
    ActivationSet,
    GroundedIdentity,
    ScaffoldArchitecture,
    ScaffoldState,
    activation_sets,
    context_text_matcher,
    identity_to_document,
    ingredient_bits,
    is_flag,
    load_identity_file,
    load_json,
    state_matcher,
)
from .metrics import (
    MetricParams,
    MetricsReport,
    consistency,
    continuity_terms,
    identifiable_count,
    mask_gap_ratio,
    persistence_scores,
    recovery,
    recovery_bound,
    render_json,
    render_number,
    render_text,
)
from .simulator import (
    PROBE_IDENTITY,
    context_identity,
    probe_presets,
    probe_script,
    probe_window,
    run,
    scenario_alternating,
    scenario_capacity_limited,
    scenario_drift_recover,
    scenario_noncommutation,
    scenario_rag_displacement,
)
from .windows import DEFAULT_HORIZON_MAX, WindowConfig


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------

_STATE_KEYS = {"u", "C", "M", "pi", "D"}
_ACTIVATION_KEYS = {"u", "F"}


@dataclass(frozen=True)
class TraceData:
    """A parsed trace: either raw states or precomputed activation sets."""

    form: str
    states: tuple[ScaffoldState, ...] = ()
    activations: tuple[ActivationSet, ...] = ()

    def __len__(self) -> int:
        return len(self.states) if self.form == "state" else len(self.activations)

    def to_activations(self, identity: GroundedIdentity) -> list[ActivationSet]:
        if self.form == "activation":
            encode = _mask_encoder(self.form, None, identity)
            for act in self.activations:
                encode({"u": act.step_index, "F": act.active})
            return list(self.activations)
        # activation reads nothing of the architecture but its flag count
        arch = ScaffoldArchitecture(len(self.states[0].policy_flags), context_capacity=1)
        return activation_sets(self.states, identity, arch)


def _check_strings(value, located: Callable[[str], FileFormatError], name: str) -> None:
    if not isinstance(value, list):
        raise located(f"{name} must be a list")
    # isinstance(v, str) for every v, without a Python-level loop
    if not all(map(str.__instancecheck__, value)):
        raise located(f"{name} entries must be strings")


_BLOCK_BYTES = 16 * 1024
_MAX_CACHED_TAILS = 1024


def _text_lines(path: str | Path) -> Iterator[str]:
    """Each line of the file, split as ``str.splitlines`` splits the whole
    text.  A block of bytes, read on to the end of its last line so that no
    character and no CR LF pair straddles a cut, is decoded at once; one
    that is not UTF-8 is decoded again newline by newline, so the error
    names its line."""
    lineno = 0
    with open(path, "rb") as stream:
        while data := stream.read(_BLOCK_BYTES) + stream.readline():
            try:
                lines = data.decode("utf-8").splitlines()
            except UnicodeDecodeError:
                lines = []
                for raw in io.BytesIO(data):
                    try:
                        lines += raw.decode("utf-8").splitlines()
                    except UnicodeDecodeError as exc:
                        yield from lines
                        where = f"{path}:{lineno + len(lines) + 1}"
                        raise FileFormatError(f"{where}: not UTF-8 text: {exc}") from None
            lineno += len(lines)
            yield from lines


def _line_checks(path: str | Path) -> Generator[tuple, tuple[int, str], None]:
    """Every check on a trace line, in a coroutine that holds the form and
    the flag count: sent ``(index, line)``, it answers ``(form, record)``
    once JSON syntax and unique keys, the form (fixed by the first record),
    the step index and the type of every field have passed.  A fault raises
    a :class:`FileFormatError` located at its line, built only then."""
    form = None
    expected_keys: set[str] = set()
    n_flags = 0
    obj = None

    def located(message: str) -> FileFormatError:
        return FileFormatError(f"{path}:{index + 1}: {message}")

    while True:
        index, line = yield form, obj
        try:
            obj = load_json(line, path, index + 1)
        except json.JSONDecodeError as exc:
            if not line.strip():
                raise located("blank line in trace") from None
            raise located(f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise located("record must be an object")
        if form is None:
            if obj.keys() == _ACTIVATION_KEYS:
                form, expected_keys = "activation", _ACTIVATION_KEYS
            elif obj.keys() == _STATE_KEYS:
                form, expected_keys = "state", _STATE_KEYS
            else:
                raise located(
                    f"record fields {sorted(obj)} match neither the full-state "
                    f"nor the activation form"
                )
        if obj.keys() != expected_keys:
            raise located(
                f"record fields {sorted(obj)} do not match the {form} form used "
                f"by this file"
            )
        u = obj["u"]
        if type(u) is not int:
            raise located("u must be an integer")
        if u != index:
            raise located(
                f"step indices must increase from 0 without gaps; "
                f"expected u={index}, got u={u}"
            )
        if form == "activation":
            _check_strings(obj["F"], located, "F")
            continue
        memory, flags = obj["M"], obj["pi"]
        _check_strings(obj["C"], located, "C")
        if not isinstance(memory, dict):
            raise located("M must be an object")
        # JSON object keys are always strings
        if not all(map(str.__instancecheck__, memory.values())):
            raise located("M must map strings to strings")
        if not isinstance(flags, list):
            raise located("pi must be a list")
        if not all(map(is_flag, flags)):
            raise located("pi entries must be the integers 0 or 1")
        _check_strings(obj["D"], located, "D")
        if index == 0:
            n_flags = len(flags)
        elif len(flags) != n_flags:
            raise located("pi length differs from earlier records")


def parse_trace(path: str | Path) -> TraceData:
    """Parse a line-delimited trace file into one state or activation set per
    step, with the per-line checks of :func:`read_masks` (which ``analyze``
    uses instead), each line fully decoded."""
    states = []
    activations = []
    form = ""
    check = _line_checks(path)
    next(check)
    for form, record in map(check.send, enumerate(_text_lines(path))):
        if form == "activation":
            activations.append(
                ActivationSet(step_index=record["u"], active=frozenset(record["F"]))
            )
        else:
            states.append(
                ScaffoldState(
                    context=tuple(record["C"]),
                    memory=record["M"],
                    policy_flags=tuple(record["pi"]),
                    retrieved=frozenset(record["D"]),
                    step_index=record["u"],
                )
            )
    if not form:
        raise FileFormatError(f"{path}: empty trace")
    return TraceData(form=form, states=tuple(states), activations=tuple(activations))


def _mask_encoder(form: str, first: dict | None, identity: GroundedIdentity) -> Callable[[dict], int]:
    if form == "state":
        match = state_matcher(identity, len(first["pi"]))
        return lambda record: match(record["C"], record["M"], record["pi"], record["D"])
    bits = ingredient_bits(identity)

    def encode(record: dict) -> int:
        mask = 0
        for ingredient in record["F"]:
            bit = bits.get(ingredient)
            if bit is None:
                stray = sorted(set(record["F"]) - bits.keys())
                raise FileFormatError(
                    f"step {record['u']} references ingredients not in the identity spec: {stray}"
                )
            mask |= bit
        return mask

    return encode


def read_masks(path: str | Path, identity: GroundedIdentity) -> list[int]:
    """The step masks of a trace file (bit i = the i-th ingredient id in
    sorted order), read line by line with no per-step object.

    A line spelled as ``write_trace`` writes it is looked up by its texts
    after ``{"u":<step>,``: ``F``, or, on a state line with no backslash,
    ``M``, ``pi`` and ``D`` after a ``C`` of plain strings (see
    ``identity.context_text_matcher``), each text with the separator before
    it and the last with the closing brace.  A text that passed every check
    once gives its bits again.  Any other line, a stray id included, gets
    the full decode, so every message is the same.  A full memo is emptied,
    or dropped if it was hit less often than it holds texts.

    Raises what ``parse_trace(path).to_activations(identity)`` raises: a
    fault in any line comes first, then a stray ingredient id at its first
    step, or a policy flag index outside the first record's ``pi``.
    """
    check = _line_checks(path)
    next(check)
    form = None
    masks: list[int] = []
    memo: dict[str, int] | None = None
    hits = 0
    encode = context = parts = None
    fault: TracebindError | None = None
    for index, line in enumerate(_text_lines(path)):
        texts: tuple[str, ...] = ()
        if memo is not None and form == "activation":
            # the text after the head decodes the same way after any head
            if line.startswith(head := f'{{"u":{index},"F":'):
                if (mask := memo.get(tail := line[len(head):])) is not None:
                    hits += 1
                    masks.append(mask)
                    continue
                texts = (tail,)
        elif memo is not None and "\\" not in line and line.startswith(head := f'{{"u":{index},"C":['):
            # each text keeps its separator, so no two fields share a text; no
            # string of a valid record holds a separator's quote unescaped, so
            # on a valid record this split is the true one
            c_end = line.find('],"M":{', len(head))
            m_end = line.find('},"pi":[', c_end)
            if (d_end := line.find('],"D":[', m_end)) > 0:
                texts = (line[c_end + 1 : m_end + 1], line[m_end + 1 : d_end + 1], line[d_end + 1 :])
                cached = memo.get(texts[0]), memo.get(texts[1]), memo.get(texts[2])
                if None not in cached and (plain := context(line[len(head) : c_end])) is not None:
                    hits += 1
                    masks.append(plain + sum(cached))  # disjoint bits
                    continue
        form, record = check.send((index, line))
        if fault is not None:
            continue
        try:
            if encode is None:
                encode = _mask_encoder(form, record, identity)
                context = context_text_matcher(identity)
                memo = {} if context or form == "activation" else None
                # the bits each memo text decides: all, or those of M, pi and D
                bits = ingredient_bits(identity)
                parts = [sum(bits[s.ingredient_id] for s in identity.ingredients if s.kind == kind)
                         for kind in ("memory", "policy", "retrieval")] if form == "state" else [-1]
            mask = encode(record)
        except TracebindError as exc:
            fault = exc
            continue
        masks.append(mask)
        if texts and len(memo) + len(texts) <= _MAX_CACHED_TAILS:
            memo.update(zip(texts, [mask & part for part in parts]))
        elif texts:
            memo = {} if hits >= len(memo) else None
            hits = 0
    if form is None:
        raise FileFormatError(f"{path}: empty trace")
    if fault is not None:
        raise fault
    return masks


def state_record(state: ScaffoldState) -> dict:
    return {
        "u": state.step_index,
        "C": list(state.context),
        "M": {key: state.memory[key] for key in sorted(state.memory)},
        "pi": list(state.policy_flags),
        "D": sorted(state.retrieved),
    }


def activation_record(act: ActivationSet) -> dict:
    return {"u": act.step_index, "F": sorted(act.active)}


def write_trace(path: Path, records: Sequence[dict]) -> None:
    lines = [json.dumps(record, separators=(",", ":")) for record in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _parse_eval_selector(value: str) -> tuple[int, ...] | None:
    if value == "all":
        return None
    try:
        indices = tuple(int(part) for part in value.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ParameterError(f"--eval must be 'all' or a comma-separated list: {exc}")
    if not indices:
        raise ParameterError("--eval list is empty")
    return indices


def build_report(
    masks: Sequence[int],
    k: int,
    cfg: WindowConfig,
    params: MetricParams,
    ref_index: int,
) -> MetricsReport:
    """Protocol run over the step masks of a trace: persistence, gap, and
    the trace-computable auxiliary metrics.  Each is a fold that keeps no
    per-window record."""
    p_weak, p_strong = persistence_scores(masks, k, cfg)
    gap = mask_gap_ratio(masks, k, cfg)
    n = len(masks)
    continuity_mean = sum(continuity_terms(masks, k, range(1, n))) / (n - 1)
    starts = (cfg.stride * t for t in cfg.eval_indices)
    hits = identifiable_count(masks, ref_index, k, params.delta_i, starts)
    return MetricsReport(
        p_weak=p_weak,
        p_strong=p_strong,
        gap=gap,
        continuity_mean=continuity_mean,
        identifiability_rate=hits / len(cfg.eval_indices),
        consistency=None,
        recovery=None,
        params=params,
        horizon_max=cfg.horizon_max,
        ref_index=ref_index,
        window_delta=cfg.horizon,
        window_stride=cfg.stride,
        t_count=len(cfg.eval_indices),
    )


def _emit(doc: dict, args: argparse.Namespace) -> None:
    """Write ``doc`` in the ``--format`` rendering to ``--out``, or stdout."""
    text = (render_json if args.format == "json" else render_text)(doc) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        identity, _layers = load_identity_file(args.identity)
    except (TracebindError, OSError):
        # a faulty trace is reported ahead of a faulty identity spec
        parse_trace(args.trace)
        raise
    masks = read_masks(args.trace, identity)
    # with --eval all, T stays a range, which holds no int per layer time
    times = _parse_eval_selector(args.eval) or range(len(masks))
    cfg = WindowConfig(args.delta, args.stride, times, args.horizon_max).restrict_to(len(masks))
    if not cfg.eval_indices:
        raise ParameterError(
            "no evaluation window fits inside the trace; shrink --delta or the "
            "--eval list"
        )
    params = MetricParams(
        delta_i=args.delta_i,
        delta_cons=args.delta_cons,
        epsilon=args.epsilon,
        alpha=args.alpha,
    )
    report = build_report(masks, identity.k, cfg, params, args.ref_index)
    _emit(report.to_document(), args)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioFiles:
    """What one ``simulate`` scenario writes, before anything is written.

    ``traces`` maps a label to trace records; the label ``""`` names the
    lone trace of a scenario, any other label ``x`` names the files
    ``<base>.x.trace.jsonl`` and the sidecar keys ``trace_x`` and
    ``expect_x``.  ``head`` sidecar fields come right after the scenario
    name; each ``tail`` section is merged into the sidecar section of that
    name, or appended when the sidecar has none.
    """

    traces: dict[str, list[dict]]
    identity: GroundedIdentity
    cfg: WindowConfig
    head: dict = field(default_factory=dict)
    tail: dict[str, dict] = field(default_factory=dict)


def _state_records(states: Sequence[ScaffoldState]) -> list[dict]:
    return [state_record(state) for state in states]


def _noncommutation(args: argparse.Namespace) -> ScenarioFiles:
    states, identity, cfg = scenario_noncommutation()
    return ScenarioFiles(
        {"": _state_records(states)},
        identity,
        cfg,
        tail={"expect": {"occurs": True, "coinstantiated": False, "gap_ratio": "inf"}},
    )


def _alternating(args: argparse.Namespace) -> ScenarioFiles:
    states, identity, cfg = scenario_alternating(args.length)
    return ScenarioFiles(
        {"": _state_records(states)}, identity, cfg, tail={"expect": {"gap_ratio": "inf"}}
    )


def _capacity(args: argparse.Namespace) -> ScenarioFiles:
    states, identity = scenario_capacity_limited(args.c, args.k, args.length)
    cfg = WindowConfig.all_valid(args.delta, 1, len(states), DEFAULT_HORIZON_MAX)
    return ScenarioFiles({"": _state_records(states)}, identity, cfg)


def _rag_displacement(args: argparse.Namespace) -> ScenarioFiles:
    without_rag, with_rag, identity, cfg = scenario_rag_displacement(
        baseline_block_tokens=args.block,
        passage_tokens=args.passage,
        capacity=args.capacity,
    )
    return ScenarioFiles(
        {"without": _state_records(without_rag), "with": _state_records(with_rag)},
        identity,
        cfg,
        tail={"expect": {"p_strong_strictly_drops": True, "p_weak_preserved": True}},
    )


def _drift_recover(args: argparse.Namespace) -> ScenarioFiles:
    if args.k < 1:
        raise ParameterError("--k must be >= 1")
    if not 0 <= args.drift <= args.k:
        raise ParameterError("--drift must be between 0 and --k")
    if not 0 <= args.controllable <= args.k:
        raise ParameterError("--controllable must be between 0 and --k")
    universe = [f"g{i}" for i in range(args.k)]
    removed = universe[-args.drift:] if args.drift else []
    controllable = universe[: args.controllable]
    reference, drifted, recovered = scenario_drift_recover(
        universe, removed, controllable, args.interventions
    )
    bound = recovery_bound(reference, drifted, controllable, args.k, args.epsilon)
    measured = recovery(reference, drifted, recovered, args.k, args.epsilon)
    return ScenarioFiles(
        {"": [activation_record(a) for a in (reference, drifted, recovered)]},
        context_identity(universe),
        WindowConfig.all_valid(0, 1, 3, DEFAULT_HORIZON_MAX),
        tail={
            "derived": {
                "recovery_bound": render_number(bound),
                "recovery_measured": render_number(measured),
                "recovery_le_bound": measured <= bound + 1e-9,
                "epsilon": render_number(args.epsilon),
            }
        },
    )


def _preset_probe(args: argparse.Namespace) -> ScenarioFiles:
    presets = probe_presets()
    if args.preset not in presets:
        raise ParameterError(
            f"unknown preset {args.preset!r}; choose from {', '.join(sorted(presets))}"
        )
    states = run(presets[args.preset], probe_script(args.cycles), skip_unsupported=True)
    return ScenarioFiles(
        {"": _state_records(states)},
        PROBE_IDENTITY,
        probe_window(len(states)),
        head={"preset": args.preset},
    )


SCENARIOS = {
    "noncommutation": _noncommutation,
    "alternating": _alternating,
    "capacity": _capacity,
    "rag-displacement": _rag_displacement,
    "drift-recover": _drift_recover,
    "preset-probe": _preset_probe,
}


def _window_doc(cfg: WindowConfig) -> dict:
    return {
        "delta": cfg.horizon,
        "stride": cfg.stride,
        "eval": list(cfg.eval_indices),
        "horizon_max": cfg.horizon_max,
    }


def _write_scenario(scenario: str, files: ScenarioFiles, base: Path) -> None:
    """Write the traces, the identity spec, and the expected-values sidecar.

    The sidecar's persistence expectations come from re-reading each written
    trace, so they describe exactly the bytes on disk.
    """
    base.parent.mkdir(parents=True, exist_ok=True)
    sidecar: dict = {"scenario": scenario, **files.head}
    written = []
    for label, records in files.traces.items():
        name = f"{base.name}.{label}" if label else base.name
        suffix = f"_{label}" if label else ""
        path = base.with_name(f"{name}.trace.jsonl")
        write_trace(path, records)
        sidecar[f"trace{suffix}"] = path.name
        written.append((suffix, path))
    identity_path = base.with_name(base.name + ".identity.json")
    identity_path.write_text(
        render_json(identity_to_document(files.identity)) + "\n", encoding="utf-8"
    )
    sidecar["identity"] = identity_path.name
    sidecar["window"] = _window_doc(files.cfg)
    for suffix, path in written:
        masks = read_masks(path, files.identity)
        p_weak, p_strong = persistence_scores(masks, files.identity.k, files.cfg)
        sidecar[f"expect{suffix}"] = {
            "p_weak": render_number(p_weak),
            "p_strong": render_number(p_strong),
        }
    for section, fields in files.tail.items():
        sidecar.setdefault(section, {}).update(fields)
    sidecar_path = base.with_name(base.name + ".expect.json")
    sidecar_path.write_text(render_json(sidecar) + "\n", encoding="utf-8")


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = args.scenario_name or args.scenario
    if scenario is None:
        raise ParameterError("simulate needs a scenario name")
    if scenario not in SCENARIOS:
        raise ParameterError(
            f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}"
        )
    base = Path(args.out) if args.out else Path(scenario)
    _write_scenario(scenario, SCENARIOS[scenario](args), base)
    sys.stdout.write(f"wrote {scenario} scenario files next to {base}\n")
    return 0


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


def cmd_probe(args: argparse.Namespace) -> int:
    lines = list(_text_lines(args.outputs))
    if len(lines) < 2:
        raise ParameterError("consistency needs at least two recorded outputs")
    score = consistency(lines, delta_cons=args.delta_cons)
    pairs = len(lines) * (len(lines) - 1) // 2
    doc = {
        "consistency": score,
        "pairs": pairs,
        "delta_cons": args.delta_cons,
    }
    _emit(doc, args)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracebind",
        description=(
            "Decide whether identity ingredients merely occur across evaluation "
            "windows or actually co-instantiate at single steps, and compute the "
            "derived identity metrics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="compute a metrics report for a trace")
    analyze.add_argument("--trace", required=True, help="trace file (JSONL)")
    analyze.add_argument("--identity", required=True, help="identity spec file (JSON)")
    analyze.add_argument("--delta", type=int, default=1, help="window horizon")
    analyze.add_argument("--stride", type=int, default=1, help="window stride")
    analyze.add_argument(
        "--eval",
        default="all",
        help="'all' for every valid layer time, or a comma-separated index list",
    )
    analyze.add_argument(
        "--horizon-max",
        type=int,
        default=DEFAULT_HORIZON_MAX,
        dest="horizon_max",
        help="search cap for minimal horizons in the gap ratio",
    )
    analyze.add_argument("--delta-i", type=float, default=0.25, dest="delta_i")
    analyze.add_argument("--delta-cons", type=float, default=0.5, dest="delta_cons")
    analyze.add_argument("--epsilon", type=float, default=0.01)
    analyze.add_argument("--alpha", type=float, default=0.5)
    analyze.add_argument(
        "--ref-index",
        type=int,
        default=0,
        dest="ref_index",
        help="objective step used as the identifiability reference state",
    )
    analyze.add_argument("--format", choices=("json", "text"), default="json")
    analyze.add_argument("--out", default=None, help="write the report here")
    analyze.set_defaults(func=cmd_analyze)

    simulate = sub.add_parser(
        "simulate", help="write a scenario trace plus expected-values sidecar"
    )
    simulate.add_argument(
        "scenario_name",
        nargs="?",
        default=None,
        metavar="scenario",
        help=f"one of: {', '.join(SCENARIOS)}",
    )
    simulate.add_argument("--scenario", default=None, help="alternative to the positional name")
    simulate.add_argument("--length", type=int, default=100)
    simulate.add_argument("--c", type=int, default=2, help="capacity scenario: max concurrent ingredients")
    simulate.add_argument("--k", type=int, default=3, help="ingredient count")
    simulate.add_argument("--delta", type=int, default=1, help="capacity scenario: window horizon")
    simulate.add_argument("--block", type=int, default=3, help="identity block tokens")
    simulate.add_argument("--passage", type=int, default=10, help="retrieved passage tokens")
    simulate.add_argument("--capacity", type=int, default=12, help="context capacity")
    simulate.add_argument("--drift", type=int, default=3, help="drifted ingredient count")
    simulate.add_argument(
        "--controllable", type=int, default=1, help="prompt-controllable ingredient count"
    )
    simulate.add_argument("--interventions", type=int, default=5)
    simulate.add_argument("--epsilon", type=float, default=0.0)
    simulate.add_argument(
        "--preset", default="controller", help="preset-probe scenario: preset name"
    )
    simulate.add_argument(
        "--cycles", type=int, default=6, help="preset-probe scenario: probe cycles"
    )
    simulate.add_argument("--out", default=None, help="base path for the written files")
    simulate.set_defaults(func=cmd_simulate)

    probe = sub.add_parser("probe", help="consistency over recorded outputs")
    probe.add_argument("outputs", help="file of line-delimited outputs")
    probe.add_argument("--delta-cons", type=float, default=0.5, dest="delta_cons")
    probe.add_argument("--format", choices=("json", "text"), default="text")
    probe.add_argument("--out", default=None)
    probe.set_defaults(func=cmd_probe)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MetricError as exc:
        print(f"tracebind: metric error: {exc}", file=sys.stderr)
        return 3
    except TracebindError as exc:
        print(f"tracebind: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"tracebind: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
