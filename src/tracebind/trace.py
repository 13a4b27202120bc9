"""Trace files: the one place that reads, checks, encodes and writes a line.

Trace files are line-delimited JSON, one record per objective step, in one
of two forms (never mixed within a file):

- full state:  ``{"u": 0, "C": [...], "M": {...}, "pi": [...], "D": [...]}``
- activation:  ``{"u": 0, "F": ["ingredient", ...]}``

``write_trace`` spells each record compact, and ``read_masks``, which
``analyze`` runs, looks such lines up by their texts.  ``state_lines`` is
the writer's half of that memo: it encodes each distinct state's text after
``{"u":<step>,`` once, under the reader's memo rule and 1,024-text cap, and
``simulate`` writes its traces through it.  ``sets.parse_trace`` decodes
every line in full into states or activation sets, through the same
checks, as the reference the tests compare against.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Iterator

from .errors import FileFormatError, TracebindError
from .identity import GroundedIdentity, _split_lines, ingredient_bits, is_flag, load_json, state_matcher

if TYPE_CHECKING:
    from .sets import ActivationSet, ScaffoldState


_STATE_KEYS = {"u", "C", "M", "pi", "D"}
_ACTIVATION_KEYS = {"u", "F"}
_COMPACT = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps builds one per call


def _check_strings(value, located: Callable[[str], FileFormatError], name: str) -> None:
    if not isinstance(value, list):
        raise located(f"{name} must be a list")
    # isinstance(v, str) for every v, without a Python-level loop
    if not all(map(str.__instancecheck__, value)):
        raise located(f"{name} entries must be strings")


_BLOCK_BYTES = 16 * 1024
_MAX_CACHED_TAILS = 1024
_MAX_CACHED_LINES = 64


def _text_lines(path: str | Path) -> Iterator[str]:
    """Each line of the file, broken at ``\\n``, ``\\r\\n`` and ``\\r`` only (see
    :func:`identity._split_lines`).  A block of bytes, read on to the end of
    its last line so that no character and no CR LF pair straddles a cut, is
    decoded at once; one that is not UTF-8 is decoded again line by line, so
    the error names its line."""

    def blocks() -> Iterator[list[str]]:
        lineno = 0
        with open(path, "rb") as stream:
            while data := stream.read(_BLOCK_BYTES) + stream.readline():
                try:
                    lines = _split_lines(data.decode("utf-8"))
                except UnicodeDecodeError:
                    lines = []
                    for raw in data.splitlines():  # the same breaks, on bytes
                        try:
                            lines.append(raw.decode("utf-8"))
                        except UnicodeDecodeError as exc:
                            yield lines
                            where = f"{path}:{lineno + len(lines) + 1}"
                            raise FileFormatError(f"{where}: not UTF-8 text: {exc}") from None
                lineno += len(lines)
                yield lines

    return chain.from_iterable(blocks())


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


def _checked_records(path: str | Path) -> Iterator[tuple[str, dict]]:
    """``(form, record)`` for each line of a trace file, each line fully
    decoded and passed through :func:`_line_checks`; a file with no line
    is a fault.  No record is kept once the next line is read."""
    check = _line_checks(path)
    next(check)
    form = None
    for form, record in map(check.send, enumerate(_text_lines(path))):
        yield form, record
    if form is None:
        raise FileFormatError(f"{path}: empty trace")


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


def context_text_matcher(identity: GroundedIdentity) -> Callable[[str], int | None] | None:
    """The context bits of :func:`state_matcher`, read off ``body``, the text
    inside the brackets of a compact JSON list: ``"`` + its strings joined by
    ``","`` + ``"``, none holding ``"``, ``\\`` or an unprintable character
    (else ``None``).  Pattern ``p`` is found as ``'"' + '","'.join(p) + '"'``:
    a match starts inside no string, and at no closing quote, which is
    followed by ``,`` or the end and not by a pattern's first character; so
    it starts at an opening quote, and then each quote pins one string to its
    pattern token.  A pattern token that is empty or unprintable, or holds
    ``"``, ``\\``, ``,``, ``[`` or ``]``, leaves no matcher (``None``)."""
    bits = ingredient_bits(identity)
    contexts = [spec for spec in identity.ingredients if spec.kind == "context"]
    tokens = [token for spec in contexts for token in spec.context_pattern]
    if not all(t and t.isprintable() and set(t).isdisjoint('"\\,[]') for t in tokens):
        return None
    needles = [('"' + '","'.join(s.context_pattern) + '"', bits[s.ingredient_id]) for s in contexts]

    def match_text(body: str) -> int | None:
        # between the end quotes, each " must be in a "," that count finds
        if body and ("\\" in body or len(body) < 2 or not body[0] == body[-1] == '"'
                     or body.count('"', 1, -1) != 2 * body.count('","', 1, -1)
                     or not body.isprintable()):
            return None
        return sum([bit for needle, bit in needles if needle in body])

    return match_text


def read_masks(path: str | Path, identity: GroundedIdentity) -> list[int]:
    """The step masks of a trace file (bit i = the i-th ingredient id in
    sorted order), read line by line with no per-step object.

    The first line is decoded in full.  Its form fixes the head of each later
    line, ``{"u":<step>,"F":`` or ``{"u":<step>,"C":[``, and one loop reads
    the rest.  A line with its head is looked up by its text after the head
    in the tail memo, of at most ``_MAX_CACHED_TAILS`` (1,024) texts in an
    activation trace and ``_MAX_CACHED_LINES`` (64) in a state trace.  A
    state line that the tail memo misses is read by its field texts: ``M``,
    ``pi`` and ``D``, each with the separator before it and the last with
    the closing brace, looked up in the field memo (at most 1,024 texts),
    and ``C``, read by :func:`context_text_matcher`, which refuses a text
    with an escape; an identity with no such matcher has no field path.  Any other line gets
    the full decode, so every message is the same.  Every line with its head
    and a mask is then kept in the tail memo, and a decoded state line's
    field texts in the field memo.  A full memo is emptied if it took at
    least twice as many lines as it holds to fill, and is dropped otherwise:
    no longer read or stored.  A served text passed every check on an
    earlier line, and the loop goes on once a stray id or flag index is
    held, so every line fault is found, in line order.  Whole lines repeat
    in ``simulate alternating --length 6000`` (2 texts in 6,000 lines); in
    ``state-session`` (10,000 in 10,000) the tail memo is dropped at step 65.

    Raises what ``sets.parse_trace(path).to_activations(identity)`` raises: a
    fault in any line comes first, then a stray ingredient id at its first
    step, or a policy flag index outside the first record's ``pi``.
    """
    check = _line_checks(path)
    next(check)
    masks: list[int] = []
    form = encode = fault = None

    def decode(index: int, line: str) -> int | None:
        # every check, then the mask appended; None once a stray id or flag index is held
        nonlocal form, encode, fault
        form, record = check.send((index, line))
        try:
            if fault is None:
                encode = encode or _mask_encoder(form, record, identity)
                masks.append(mask := encode(record))
                return mask
        except TracebindError as exc:
            fault = exc
        return None

    lines = enumerate(_text_lines(path))
    if (first := next(lines, None)) is None:
        raise FileFormatError(f"{path}: empty trace")
    decode(*first)
    if form == "activation":
        key, cap, context = '"F":', _MAX_CACHED_TAILS, None
    else:
        key, cap, context = '"C":[', _MAX_CACHED_LINES, context_text_matcher(identity)
    # each memo, None once dropped, and the first line it could take
    tails: dict[str, int] | None = {}
    fields: dict[str, int] | None = {} if context else None
    tails_from = fields_from = 1
    if context:
        # the bits each field text decides: those of M, pi and D
        bits = ingredient_bits(identity)
        parts = [sum(bits[s.ingredient_id] for s in identity.ingredients if s.kind == kind)
                 for kind in ("memory", "policy", "retrieval")]
    for index, line in lines:
        if not line.startswith(head := f'{{"u":{index},{key}'):
            decode(index, line)
            continue
        # the text after the head decodes the same way after any head
        if tails is not None and (mask := tails.get(tail := line[len(head):])) is not None:
            masks.append(mask)
            continue
        mask = texts = None
        if fields is not None:
            # each text keeps its separator, so no two fields share a text; no
            # string of a valid record holds a separator's quote unescaped, so
            # on a valid record this split is the true one
            d_end = line.rfind('],"D":[')
            m_end = line.rfind('},"pi":[', 0, d_end)
            c_end = line.rfind('],"M":{', 0, m_end)
            if 0 < c_end < m_end < d_end:
                texts = (line[c_end + 1 : m_end + 1], line[m_end + 1 : d_end + 1], line[d_end + 1 :])
                if ((m := fields.get(texts[0])) is not None and (p := fields.get(texts[1])) is not None
                        and (d := fields.get(texts[2])) is not None
                        and (plain := context(line[len(head) : c_end])) is not None):
                    masks.append(mask := plain + m + p + d)  # disjoint bits
        if mask is None:
            if (mask := decode(index, line)) is None:
                continue
            if texts and len(fields) + len(texts) <= _MAX_CACHED_TAILS:
                fields.update(zip(texts, [mask & part for part in parts]))
            elif texts and index - fields_from >= 2 * len(fields):  # full and emptied
                fields, fields_from = {}, index + 1
            elif texts:  # full and dropped
                fields = None
        if tails is not None:
            if len(tails) < cap:
                tails[tail] = mask
            elif index - tails_from >= 2 * len(tails):  # full and emptied
                tails, tails_from = {}, index + 1
            else:  # full and dropped
                tails = None
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


def state_lines(states: Iterable[ScaffoldState]) -> Iterator[str]:
    """The line of each state, ``_COMPACT(state_record(state))``, with the
    text after ``{"u":<step>,`` encoded once per distinct ``(context,
    policy_flags, retrieved, sorted memory items)``: equal keys spell equal
    texts, since a state holds only strings and the ints 0 and 1.  The memo
    has the reader's rule: a full memo is emptied if it took at least twice
    as many lines as it holds to fill, and is dropped otherwise; the states
    left are then encoded one by one with no Python frame per line."""
    states = iter(states)
    return chain(_memo_state_lines(states), map(_COMPACT, map(state_record, states)))


def _memo_state_lines(states: Iterator[ScaffoldState]) -> Iterator[str]:
    """:func:`state_lines` up to the state that drops the memo."""
    memo: dict[tuple, str] = {}
    memo_from = 0  # the first position the memo could take
    for position, state in enumerate(states):
        key = (state.context, state.policy_flags, state.retrieved, tuple(sorted(state.memory.items())))
        if (tail := memo.get(key)) is not None:
            yield '{"u":%d,' % state.step_index + tail
            continue
        line = _COMPACT(state_record(state))
        yield line
        if len(memo) < _MAX_CACHED_TAILS:
            memo[key] = line[line.index(",") + 1 :]  # u is an int: the first comma ends it
        elif position - memo_from >= 2 * len(memo):
            memo, memo_from = {}, position + 1
        else:
            return


def activation_lines(acts: Iterable[ActivationSet]) -> Iterator[str]:
    return map(_COMPACT, map(activation_record, acts))


def write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write each line with its newline as soon as it is made, so no line is
    kept; no line writes one empty line."""
    with path.open("w", encoding="utf-8") as stream:
        lines = iter(lines)
        stream.write(next(lines, "") + "\n")
        stream.writelines(line + "\n" for line in lines)


def write_trace(path: Path, records: Iterable[dict]) -> None:
    """Write one compact JSON line per record, through :func:`write_lines`."""
    write_lines(path, map(_COMPACT, records))
