"""Grounded identities, the step masks they compile to, and grounding maps.

An identity is a conjunction of concrete ingredient conditions over scaffold
state components (context tokens, memory pairs, policy flags, retrieved
documents).  This module compiles an identity into a function from a
state's components to its step mask, loads identity spec files, and handles
the layered grounding maps that connect narrative and functional identity
statements to those ingredients.  Scaffold states and activation sets live
in :mod:`tracebind.sets`; only the bench imports ``ActivationSet`` from here.

Everything here is immutable and pure: repeated evaluation of the same
inputs always agrees, and values can be shared freely across threads.
"""

from __future__ import annotations

import json
from importlib import import_module
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    FileFormatError, Frozen, GroundingLookupError, StructuralError, _integer, _mapping, _split_lines,
    _strings,
)


def __getattr__(name: str):
    # the tracebind.sets names bench/ imports from this module, served on first use (PEP 562)
    if name != "ActivationSet":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(".sets", __package__), name)


# The IngredientSpec fields each ingredient kind sets, in file-record order.
_KIND_FIELDS = {
    "context": ("context_pattern",),
    "memory": ("memory_key", "memory_value"),
    "policy": ("flag_index",),
    "retrieval": ("doc_id",),
}


def is_flag(value) -> bool:
    """True iff ``value`` is the integer 0 or 1; bool and float compare equal
    to them, so the type is checked by name."""
    return type(value) is int and value in (0, 1)


class IngredientSpec(Frozen):
    """One conjunct of a grounded identity.

    Exactly the fields matching ``kind`` may be set:

    - ``context``: ``context_pattern`` (non-empty token sequence)
    - ``memory``: ``memory_key`` and ``memory_value``
    - ``policy``: ``flag_index``
    - ``retrieval``: ``doc_id``
    """

    ingredient_id: str
    kind: str
    context_pattern: tuple[str, ...] | None = None
    memory_key: str | None = None
    memory_value: str | None = None
    flag_index: int | None = None
    doc_id: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in _KIND_FIELDS:
            raise StructuralError(f"unknown ingredient kind {self.kind!r}")
        if not isinstance(self.ingredient_id, str):
            raise StructuralError("ingredient_id must be a string")
        if not self.ingredient_id:
            raise StructuralError("ingredient_id must be non-empty")
        if self.context_pattern is not None:
            if not isinstance(self.context_pattern, (list, tuple)):
                raise StructuralError("context_pattern must be a sequence of tokens")
            object.__setattr__(self, "context_pattern", _strings(self.context_pattern, "context_pattern"))
        required = set(_KIND_FIELDS[self.kind])
        actual = {
            name
            for names in _KIND_FIELDS.values()
            for name in names
            if getattr(self, name) is not None
        }
        if actual != required:
            raise StructuralError(
                f"ingredient {self.ingredient_id!r} of kind {self.kind!r} must set "
                f"exactly {sorted(required)}, got {sorted(actual)}"
            )
        if self.kind == "context":
            if not self.context_pattern:
                raise StructuralError("context_pattern must be non-empty")
        elif self.kind == "memory":
            if not (isinstance(self.memory_key, str) and isinstance(self.memory_value, str)):
                raise StructuralError("memory_key and memory_value must be strings")
        elif self.kind == "policy":
            _integer(self.flag_index, "flag_index", 0)
        elif not isinstance(self.doc_id, str):
            raise StructuralError("doc_id must be a string")


class GroundedIdentity(Frozen):
    """Conjunction of ingredient conditions; active iff all hold at once."""

    ingredients: tuple[IngredientSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ingredients", tuple(self.ingredients))
        if not all(map(IngredientSpec.__instancecheck__, self.ingredients)):
            raise StructuralError("ingredients entries must be IngredientSpec values")
        if not self.ingredients:
            raise StructuralError("an identity needs at least one ingredient")
        ids = [spec.ingredient_id for spec in self.ingredients]
        if len(set(ids)) != len(ids):
            repeated = next(i for n, i in enumerate(ids) if i in ids[:n])
            raise StructuralError(f"ingredient ids must be pairwise distinct; {repeated!r} repeats")

    @property
    def k(self) -> int:
        return len(self.ingredients)

    @property
    def ingredient_ids(self) -> frozenset[str]:
        return frozenset(spec.ingredient_id for spec in self.ingredients)


class LayeredIdentitySpec(Frozen):
    """Grounding maps between narrative (layer 2), functional (layer 1), and
    ingredient-level (layer 0) identity statements.

    ``map_2_to_0`` is declared independently and checked against the
    composition of the other two maps by :func:`check_compositionality`.
    """

    layer2_statements: tuple[str, ...]
    layer1_statements: tuple[str, ...]
    map_2_to_1: Mapping[str, frozenset[str]]
    map_1_to_0: Mapping[str, frozenset[str]]
    map_2_to_0: Mapping[str, frozenset[str]]

    def __post_init__(self) -> None:
        for name in ("layer2_statements", "layer1_statements"):
            object.__setattr__(self, name, _strings(getattr(self, name), name))
        for name in ("map_2_to_1", "map_1_to_0", "map_2_to_0"):
            raw = _mapping(getattr(self, name), name).items()
            held = {label: _strings(to, f"{name}[{label!r}]", frozenset) for label, to in raw}
            _strings(held, name)  # its labels
            object.__setattr__(self, name, held)
        layer1 = set(self.layer1_statements)
        for label, targets in self.map_2_to_1.items():
            missing = targets - layer1
            if missing:
                raise StructuralError(
                    f"map_2_to_1[{label!r}] references undeclared layer-1 "
                    f"labels {sorted(missing)}"
                )

    def validate_against(self, identity: GroundedIdentity) -> None:
        """Raise if any map references an ingredient the identity lacks."""
        known = identity.ingredient_ids
        for name in ("map_1_to_0", "map_2_to_0"):
            for label, targets in getattr(self, name).items():
                missing = targets - known
                if missing:
                    raise StructuralError(
                        f"{name}[{label!r}] references unknown ingredients "
                        f"{sorted(missing)}"
                    )


def _contains_subsequence(tokens: Sequence[str], pattern: Sequence[str]) -> bool:
    n, m = len(tokens), len(pattern)
    if m == 0 or m > n:
        return False
    pattern = tuple(pattern)
    first = pattern[0]
    # jump between occurrences of the first token instead of testing every offset
    i = -1
    try:
        while True:
            i = tokens.index(first, i + 1, n - m + 1)
            if tuple(tokens[i : i + m]) == pattern:
                return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Step masks
# ---------------------------------------------------------------------------
#
# The metric folds read each objective step as one k-bit int: bit i is set
# iff the i-th ingredient id in sorted order is active.  Co-instantiation is
# then ``mask == full`` and the distance of two steps is the popcount of
# their xor.


def ingredient_bits(identity: GroundedIdentity) -> dict[str, int]:
    """The mask bit of each ingredient id: ``1 << i`` for the i-th id in
    sorted order."""
    return {
        ingredient: 1 << i for i, ingredient in enumerate(sorted(identity.ingredient_ids))
    }


def state_matcher(
    identity: GroundedIdentity, n_flags: int
) -> Callable[[Sequence[str], Mapping[str, str], Sequence[int], Iterable[str]], int]:
    """Compile the identity once into a function from a state's components
    ``(context, memory, policy_flags, retrieved)`` to its step mask.

    Context patterns match as contiguous token subsequences, memory needs the
    exact key/value pair, policy reads one flag, and retrieval checks that
    the document was retrieved.  Single-token context patterns become one
    token -> bits dict, and the other ingredients direct lookups.  A flag
    index outside ``n_flags`` raises :class:`StructuralError` here.
    """
    bits = ingredient_bits(identity)
    tokens: dict[str, int] = {}
    phrases: list[tuple[int, tuple[str, ...]]] = []
    pairs: list[tuple[int, str, str]] = []
    flags: list[tuple[int, int]] = []
    docs: dict[str, int] = {}
    for spec in identity.ingredients:
        bit = bits[spec.ingredient_id]
        if spec.kind == "context" and len(spec.context_pattern) == 1:
            token = spec.context_pattern[0]
            tokens[token] = tokens.get(token, 0) | bit
        elif spec.kind == "context":
            phrases.append((bit, spec.context_pattern))
        elif spec.kind == "memory":
            pairs.append((bit, spec.memory_key, spec.memory_value))
        elif spec.kind == "policy":
            if spec.flag_index >= n_flags:
                raise StructuralError(
                    f"flag_index {spec.flag_index} out of range for architecture "
                    f"with {n_flags} flags"
                )
            flags.append((bit, spec.flag_index))
        else:
            docs[spec.doc_id] = docs.get(spec.doc_id, 0) | bit

    def match(
        context: Sequence[str],
        memory: Mapping[str, str],
        policy_flags: Sequence[int],
        retrieved: Iterable[str],
    ) -> int:
        mask = 0
        for token in tokens.keys() & context:
            mask |= tokens[token]
        for bit, pattern in phrases:
            if _contains_subsequence(context, pattern):
                mask |= bit
        for bit, key, value in pairs:
            if memory.get(key) == value:
                mask |= bit
        for bit, index in flags:
            if policy_flags[index] == 1:
                mask |= bit
        for doc in docs.keys() & retrieved:
            mask |= docs[doc]
        return mask

    return match


def ground(
    statement: Sequence[str], spec: LayeredIdentitySpec, m: int
) -> frozenset[str]:
    """Ground a layer-``m`` conjunction of predicate labels to ingredient ids.

    A conjunction grounds to the union of its conjuncts' requirement sets.
    Layer 2 uses the directly declared ``map_2_to_0`` entries.
    """
    if m not in (1, 2):
        raise StructuralError(f"layer index must be 1 or 2, got {m}")
    mapping = spec.map_1_to_0 if m == 1 else spec.map_2_to_0
    declared = set(spec.layer1_statements if m == 1 else spec.layer2_statements)
    grounded: set[str] = set()
    for label in statement:
        if label not in declared or label not in mapping:
            raise GroundingLookupError(
                f"label {label!r} is not declared at layer {m}"
            )
        grounded |= mapping[label]
    return frozenset(grounded)


def compose_grounding(spec: LayeredIdentitySpec, label: str) -> frozenset[str]:
    """Ground one layer-2 label by routing through layer 1."""
    if label not in spec.map_2_to_1:
        raise GroundingLookupError(f"label {label!r} has no map_2_to_1 entry")
    grounded: set[str] = set()
    for mid in spec.map_2_to_1[label]:
        if mid not in spec.map_1_to_0:
            raise GroundingLookupError(f"layer-1 label {mid!r} has no map_1_to_0 entry")
        grounded |= spec.map_1_to_0[mid]
    return frozenset(grounded)


def check_compositionality(spec: LayeredIdentitySpec) -> list[str]:
    """Return the layer-2 labels whose direct grounding disagrees with the
    grounding composed through layer 1 (empty list = compositional)."""
    violations = []
    for label in spec.layer2_statements:
        if compose_grounding(spec, label) != spec.map_2_to_0.get(label, frozenset()):
            violations.append(label)
    return violations


# ---------------------------------------------------------------------------
# Identity spec files
# ---------------------------------------------------------------------------
#
# Either a single JSON document:
#
#   {"ingredients": [{"id": ..., "kind": ..., <kind fields>}, ...],
#    "layers": {"layer2": [...], "layer1": [...],
#               "map_2_to_1": {...}, "map_1_to_0": {...}, "map_2_to_0": {...}}}
#
# or line-delimited JSON where every line is one ingredient record.
# Unknown fields are rejected.


class _RepeatedKey(Exception):
    """A JSON object repeats a key; :func:`load_json` locates it."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _RepeatedKey(key)
            seen.add(key)
    return obj


_STRICT_JSON = json.JSONDecoder(object_pairs_hook=_unique_keys)


def load_json(text: str, where: str | Path, lineno: int = 0):
    """``json.loads`` that also rejects an object with a repeated key.

    A repeated key, nesting too deep to decode, or an integer literal longer
    than Python converts raises a :class:`FileFormatError` located at
    ``where`` (and line ``lineno``, when it is not 0); any other syntax error
    raises ``json.JSONDecodeError`` as ``json.loads`` does.
    """
    if lineno:
        where = f"{where}:{lineno}"
    if text.startswith("\ufeff"):
        # json.loads checks this before decoding; JSONDecoder.decode does not
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        return _STRICT_JSON.decode(text)
    except _RepeatedKey as exc:
        raise FileFormatError(f"{where}: duplicate key {exc.args[0]!r}") from None
    except RecursionError:
        raise FileFormatError(f"{where}: invalid JSON: nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        # int() refuses a literal longer than sys.get_int_max_str_digits()
        raise FileFormatError(f"{where}: invalid JSON: integer literal too long") from None


def _ingredient_from_record(record: dict, where: str) -> IngredientSpec:
    if not isinstance(record, dict):
        raise FileFormatError(f"{where}: ingredient record must be an object")
    kind = record.get("kind")
    if not isinstance(kind, str) or kind not in _KIND_FIELDS:
        raise FileFormatError(f"{where}: unknown ingredient kind {kind!r}")
    allowed = {"id", "kind", *_KIND_FIELDS[kind]}
    unknown = set(record) - allowed
    if unknown:
        raise FileFormatError(f"{where}: unknown fields {sorted(unknown)}")
    missing = allowed - set(record)
    if missing:
        raise FileFormatError(f"{where}: missing fields {sorted(missing)}")
    try:
        return IngredientSpec(
            ingredient_id=record["id"],
            kind=kind,
            **{name: record[name] for name in _KIND_FIELDS[kind]},
        )
    except StructuralError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


_LAYER_FIELDS = {"layer2", "layer1", "map_2_to_1", "map_1_to_0", "map_2_to_0"}


def _labels(value, name: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise FileFormatError(f"layers: {name} must be a list of strings")
    return value


def _label_map(value, name: str) -> dict[str, frozenset[str]]:
    if not isinstance(value, dict):
        raise FileFormatError(f"layers: {name} must be an object")
    return {
        label: frozenset(_labels(targets, f"{name}[{label!r}]"))
        for label, targets in value.items()
    }


def _layers_from_record(record: dict, identity: GroundedIdentity) -> LayeredIdentitySpec:
    if not isinstance(record, dict):
        raise FileFormatError("layers must be an object")
    unknown = set(record) - _LAYER_FIELDS
    if unknown:
        raise FileFormatError(f"layers: unknown fields {sorted(unknown)}")
    missing = _LAYER_FIELDS - set(record)
    if missing:
        raise FileFormatError(f"layers: missing fields {sorted(missing)}")
    try:
        spec = LayeredIdentitySpec(
            layer2_statements=tuple(_labels(record["layer2"], "layer2")),
            layer1_statements=tuple(_labels(record["layer1"], "layer1")),
            map_2_to_1=_label_map(record["map_2_to_1"], "map_2_to_1"),
            map_1_to_0=_label_map(record["map_1_to_0"], "map_1_to_0"),
            map_2_to_0=_label_map(record["map_2_to_0"], "map_2_to_0"),
        )
        spec.validate_against(identity)
    except StructuralError as exc:
        raise FileFormatError(f"layers: {exc}") from exc
    return spec


def parse_identity_document(
    doc: dict,
) -> tuple[GroundedIdentity, LayeredIdentitySpec | None]:
    """Build an identity (and optional layer maps) from a parsed document."""
    if not isinstance(doc, dict):
        raise FileFormatError("identity document must be an object")
    unknown = set(doc) - {"ingredients", "layers"}
    if unknown:
        raise FileFormatError(f"identity document: unknown fields {sorted(unknown)}")
    records = doc.get("ingredients")
    if not isinstance(records, list) or not records:
        raise FileFormatError("identity document needs a non-empty 'ingredients' list")
    ingredients = tuple(
        _ingredient_from_record(rec, f"ingredients[{i}]") for i, rec in enumerate(records)
    )
    try:
        identity = GroundedIdentity(ingredients)
    except StructuralError as exc:
        raise FileFormatError(str(exc)) from exc
    layers = None
    if doc.get("layers") is not None:
        layers = _layers_from_record(doc["layers"], identity)
    return identity, layers


def load_identity_file(
    path: str | Path,
) -> tuple[GroundedIdentity, LayeredIdentitySpec | None]:
    """Load an identity spec: the first non-blank line decides the form.

    If that line does not decode on its own, the file is one JSON document.
    Otherwise each non-blank line is an ingredient record, except a lone line
    holding an object with no ``kind`` key, which is a one-line document.
    Every fault names the file, and a fault within a line names the line too.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text: {exc}") from None
    lines = [(n, line) for n, line in enumerate(_split_lines(text), start=1) if line.strip()]
    if not lines:
        raise FileFormatError(f"{path}: empty identity spec")
    ingredients = []
    for lineno, line in lines:
        try:
            doc = load_json(line, path, lineno)
        except json.JSONDecodeError as exc:
            if ingredients:
                raise FileFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                # stripped at the end only, so the decoder's line numbers are the file's
                doc = load_json(text.rstrip(), path)
            except json.JSONDecodeError as exc:
                raise FileFormatError(f"{path}:{exc.lineno}: invalid JSON: {exc}") from exc
            break  # one document
        if len(lines) == 1 and isinstance(doc, dict) and "kind" not in doc:
            break  # a document on one line
        ingredients.append(_ingredient_from_record(doc, f"{path}:{lineno}"))
    else:  # every line was a record
        try:
            return GroundedIdentity(tuple(ingredients)), None
        except StructuralError as exc:
            raise FileFormatError(f"{path}: {exc}") from exc
    try:
        return parse_identity_document(doc)
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def identity_to_document(
    identity: GroundedIdentity, layers: LayeredIdentitySpec | None = None
) -> dict:
    """Serialize an identity (and optional layers) to the file document form."""
    records = []
    for spec in identity.ingredients:
        record: dict = {"id": spec.ingredient_id, "kind": spec.kind}
        for name in _KIND_FIELDS[spec.kind]:
            value = getattr(spec, name)
            record[name] = list(value) if isinstance(value, tuple) else value
        records.append(record)
    doc: dict = {"ingredients": records}
    if layers is not None:
        doc["layers"] = {
            "layer2": list(layers.layer2_statements),
            "layer1": list(layers.layer1_statements),
            "map_2_to_1": {k: sorted(v) for k, v in sorted(layers.map_2_to_1.items())},
            "map_1_to_0": {k: sorted(v) for k, v in sorted(layers.map_1_to_0.items())},
            "map_2_to_0": {k: sorted(v) for k, v in sorted(layers.map_2_to_0.items())},
        }
    return doc
