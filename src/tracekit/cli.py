"""Command-line driver: JSON automaton files in, tables and reports out.

The file format is JSON with a top-level "kind" discriminator (one of nfa,
moore, weighted, wta, alternating, lts, gps) and exact-rational weights
encoded as "num/den" strings. States are referred to by name everywhere.
Serialization is canonical: stable key order, states in declaration order,
sorted transition lists, so parse then serialize is a normal form and
re-parsing a serialized file gives back the same automaton.

Exit statuses: 0 success, 2 parse error, 3 validation error, 4 budget
exceeded, 5 law failure, 6 query error (unknown state, unknown law, a
method/kind mismatch, a negative --depth, a --budget or --max-size below
1, a --budget for a method that takes none), 7 a computed value too long to
print or an --out file that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, chain, repeat
from json.encoder import encode_basestring
from operator import add, itemgetter
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .automata import (
    GPS,
    LTS,
    NFA,
    TERM,
    AlternatingAut,
    MooreAut,
    UnknownStateError,
    ValidationError,
    WeightedAut,
    WeightedTreeAut,
    _all_values,
    _fold_shapes,
    _node_text,
    require_valid,
)
from .determinize import (
    BOOL_MODES,
    BudgetExceeded,
    DetResult,
    alt_to_nfa,
    canonical_det_nfa,
    det_subset,
    det_weighted,
)
from .minimize import Certificates, brzozowski_minimal, dfa_equiv, partition_refine
from .semantics import (
    _joined_texts,
    _word_texts,
    alt_trace,
    bt_nfa_trace,
    format_word,
    gps_trace,
    lts_traces,
    moore_trace,
    nfa_trace,
    wa_trace,
    wta_trace,
)
from .weights import BOOL, NAT, PartialProb, RAT, SEMIRINGS

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4
EXIT_LAW = 5
EXIT_QUERY = 6
EXIT_OUTPUT = 7

# Python's default cap on the digits of an int converted to or from decimal text
MAX_DIGITS = 4300
_TOO_LONG = 10**MAX_DIGITS


class ParseError(ValueError):
    """The input file is not a well-formed automaton document."""


class QueryError(ValueError):
    """The request itself is bad: unknown law, or method/kind mismatch."""


class OutputError(ValueError):
    """A result cannot be written: a computed value too long to print, or an
    --out file that cannot be opened for writing."""


# ---------------------------------------------------------------------------
# weight encoding


def _weight_json(carrier: str, n: int, d: int) -> Any:
    """The reduced fraction n / d in the file encoding of its carrier: a
    bool as itself, an int for nat, "n" or "n/d" for rat and for a "gps"
    probability, which outside [0, 1] raises ValueError as PartialProb does.
    Past MAX_DIGITS digits, which str and json.dumps refuse, it raises
    OutputError."""
    if carrier == "bool":
        return bool(n)
    if carrier == "gps" and not 0 <= n <= d:
        raise ValueError(f"probability out of range [0, 1]: {Fraction(n, d)}")
    if max(abs(n), d) >= _TOO_LONG:
        raise OutputError(f"a computed value has more than {MAX_DIGITS} digits and is not printed")
    if carrier == "nat":
        return n
    return str(n) if d == 1 else f"{n}/{d}"


def encode_weight(value: Any) -> Any:
    """The JSON value of a carrier value: a bool or an int as itself, a
    Fraction (or a PartialProb's probability) as its string."""
    if isinstance(value, PartialProb):
        value = value.value
    carrier = "bool" if isinstance(value, bool) else "nat" if isinstance(value, int) else "rat"
    return _weight_json(carrier, value.numerator, value.denominator)


def _json(value: Any) -> str:
    """A document's value as the document spells it, in JSON; a value that
    JSON cannot spell, in a document built in Python, as its repr."""
    try:
        return json.dumps(value, ensure_ascii=False)
    except TypeError:
        return repr(value)


class _BadWeight(ParseError):
    """A value outside its carrier; the loader that read it says where."""


def _read_weight(semiring_name: str, value: Any) -> Any:
    if semiring_name == "bool":
        if not isinstance(value, bool):
            raise _BadWeight(f"expected a boolean, got {_json(value)}")
        return value
    if semiring_name == "nat":
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise _BadWeight(f"expected a natural number, got {_json(value)}")
        return value
    if semiring_name != "rat":
        raise _BadWeight(f"unknown semiring {_json(semiring_name)}")
    if isinstance(value, bool) or isinstance(value, float):
        raise _BadWeight(f"rationals must be exact, got {_json(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            # a short string without an exponent spells out fewer digits than it has characters
            if (len(value) > MAX_DIGITS or "e" in value or "E" in value) and _spelled_digits(value) > MAX_DIGITS:
                raise ValueError(f"numerator or denominator passes {MAX_DIGITS} digits")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise _BadWeight(f"not a rational: {_json(value)} ({exc})") from exc
    raise _BadWeight(f"expected a \"num/den\" string, got {_json(value)}")


def _reader(semiring_name: str) -> Callable[[Any], Any]:
    """_read_weight of the carrier for one document, parsing each distinct
    string once; only str values are cached, as True and 1 share a hash."""
    read = partial(_read_weight, semiring_name)
    parse = cache(read)
    return lambda value: parse(value) if type(value) is str else read(value)


def _spelled_digits(text: str) -> int:
    """The digits of the longer of the numerator and denominator that a
    Fraction string spells out, found without expanding its exponent: p/q
    as written, and m.f e k as (m f) * 10^k / 10^len(f)."""
    digits = lambda part: sum(map(str.isdigit, part))
    body, _, exp = text.lower().partition("e")
    num, _, den = body.partition("/")
    whole, _, frac = num.partition(".")
    try:
        shift = int(exp or 0) - digits(frac)
    except ValueError:  # not an exponent: Fraction rejects the string itself
        return 0
    return max(digits(whole + frac) + max(shift, 0), digits(den) + max(-shift, 0) + (shift < 0))


# ---------------------------------------------------------------------------
# document helpers; each one's `at` is the place it reads ("rule: ", or ""
# at the top level), and load_automaton names the kind in front of it


def _expect(doc: Dict[str, Any], key: str, types, at: str = ""):
    if key not in doc:
        raise ParseError(f"{at}missing key {key!r}")
    value = doc[key]
    if not isinstance(value, types):
        raise ParseError(f"{at}key {key!r} has the wrong type: {_json(value)}")
    return value


def _reject_extra(doc: Dict[str, Any], allowed: Sequence[str], at: str = "") -> None:
    extra = sorted(set(doc) - set(allowed))
    if extra:
        raise ParseError(f"{at}unexpected keys {extra}")


def _names(doc: Dict[str, Any], key: str, what: str) -> Tuple[List[str], Dict[str, int]]:
    """The names listed in doc[key], each a string, and each name's
    position; what names them in the error for a repeated one."""
    names = list(_expect(doc, key, list))
    for name in names:
        if not isinstance(name, str):
            raise ParseError(f"{key!r} entries must be strings, got {_json(name)}")
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise ParseError(f"duplicate {what}")
    return names, index


def _signature(doc: Dict[str, Any]) -> Tuple[List[Tuple[str, int]], Dict[str, int]]:
    """The (operator, arity) pairs of doc["signature"], and each operator's
    arity: a wta's alphabet, read as _names reads the others."""
    arities = _expect(doc, "signature", dict)
    for op, arity in arities.items():
        if not isinstance(arity, int) or isinstance(arity, bool) or arity < 0:
            raise ParseError(f"arity of {_json(op)} must be a natural number, got {_json(arity)}")
    return list(arities.items()), arities


def _unknown(what: str, value: Any, at: str) -> ValidationError:
    return ValidationError(f"{at}unknown {what} {_json(value)}")


def _states(names: Sequence[Any], index: Dict[str, int], at: str, what: str = "state") -> List[int]:
    """The index of each name, raising at the first that names nothing in
    index, a string or not."""
    xs = [index.get(name) if isinstance(name, str) else None for name in names]
    if None in xs:
        raise _unknown(what, names[xs.index(None)], at)
    return xs


def _named(obj: Dict[str, Any], index: Dict[str, int], key: str, row: Any = None, what: str = "state"):
    """Iterate (i, name, value) over the entries of obj, i the index of name,
    as _states resolves a list of names. A name outside index raises the
    unknown-name error of doc[key] (of the row of state row, when one is
    given) once the entries before it have been iterated, so that an earlier
    entry's fault reports first."""
    try:
        return zip(list(map(index.__getitem__, obj)), obj, obj.values())
    except KeyError:  # some name is outside index
        pass

    def entries():
        for name, value in obj.items():
            if name not in index:
                raise _unknown(what, name, f"{key}: " if row is None else f"{key} of {row}: ")
            yield index[name], name, value

    return entries()


def _by_state(doc: Dict[str, Any], key: str, index: Dict[str, int]):
    """Check that doc[key] is an object keyed by state name, then iterate
    (x, name, value) over its entries (_named)."""
    return _named(_expect(doc, key, dict), index, key)


def _weights(entries, read: Callable[[Any], Any], into: List[Any], what: str) -> List[Any]:
    """into[x] = read(value) for the (x, name, value) entries of an object
    keyed by state name (_by_state), in order; returns into."""
    try:
        for x, name, value in entries:
            into[x] = read(value)
    except _BadWeight as exc:
        raise ParseError(f"{what} of {name}: {exc}") from exc
    return into


def _by_label(name: Any, row: Any, letters: Dict[str, int], key: str):
    """The entries (i, label, value) of the row of state name in doc[key]
    (_named), once row is an object."""
    if not isinstance(row, dict):
        raise ParseError(f"{key} of {name} must be an object")
    return _named(row, letters, key, name, "label")


def _triples(doc: Dict[str, Any], index: Dict[str, int], letters: Dict[str, int]) -> List[Tuple[int, str, int]]:
    raw = _expect(doc, "transitions", list)
    out = []
    # names resolve inline, not through _states: a call per name made this
    # loop more than twice as slow on the bench's nfa files
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ParseError(f"transitions must be [source, label, target] triples, got {_json(entry)}")
        src, label, dst = entry
        p = index.get(src) if isinstance(src, str) else None
        if p is None:
            raise _unknown("state", src, "transition: ")
        if not isinstance(label, str) or label not in letters:
            raise _unknown("label", label, "transition: ")
        q = index.get(dst) if isinstance(dst, str) else None
        if q is None:
            raise _unknown("state", dst, "transition: ")
        out.append((p, label, q))
    return out


# ---------------------------------------------------------------------------
# loaders, one per kind: each reads its kind's own keys and returns the
# machine, given the alphabet and its letters' positions (for wta the
# signature and the arities), the semiring (None for a kind without one)
# and the states with their positions, as load_automaton has read them


def _load_nfa(doc, alphabet, letters, semiring, names, index):
    accepting = _states(_expect(doc, "accepting", list), index, "accepting: ")
    return NFA(len(names), alphabet, _triples(doc, index, letters), accepting, names=names)


def _load_moore(doc, alphabet, letters, semiring, names, index):
    # both objects are type-checked before either one's entries are read; clean
    # ones are read whole, and the loops run for an error, rat or no letters
    raw_outputs, raw_delta = _expect(doc, "outputs", dict), _expect(doc, "delta", dict)
    if semiring.name != "rat" and raw_outputs.keys() <= index.keys() and _all_values(semiring, raw_outputs.values()):
        outputs = list(map(raw_outputs.get, names, repeat(semiring.zero)))  # bool and nat values read as they are
    else:
        outputs = _weights(_named(raw_outputs, index, "outputs"), _reader(semiring.name), [semiring.zero] * len(names), "output")
    rows, k, delta = raw_delta.values(), len(alphabet), None
    if k and len(rows) == len(names) and set(map(type, rows)) <= {dict} and sum(map(len, rows)) == k * len(names):
        # each state's row in state order, its targets in alphabet order
        targets = map(itemgetter(*alphabet), map(raw_delta.__getitem__, names))
        with suppress(KeyError, TypeError):  # a state without a row, a missing label, a target that names no state
            delta = list(zip(*[map(index.__getitem__, chain.from_iterable(targets) if k > 1 else targets)] * k))
    if delta is None:
        delta = [[-1] * len(alphabet) for _ in names]
        for x, name, row in _named(raw_delta, index, "delta"):
            for i, label, target in _by_label(name, row, letters, "delta"):
                (delta[x][i],) = _states([target], index, f"delta of {name}: ")
        for x, row in enumerate(delta):
            if -1 in row:
                raise ValidationError(f"delta of {names[x]} is missing label {_json(alphabet[row.index(-1)])}")
    return MooreAut(alphabet, outputs, delta, semiring=semiring, names=names)


def _load_weighted(doc, alphabet, letters, semiring, names, index):
    read = _reader(semiring.name)
    out = _weights(_by_state(doc, "out", index), read, [semiring.zero] * len(names), "out")
    trans: Dict[Tuple[int, str], Dict[int, Any]] = {}
    try:
        for x, name, row in _by_state(doc, "transitions", index):
            for _, label, vec in _by_label(name, row, letters, "transitions"):
                if not isinstance(vec, dict):
                    raise ParseError(f"successor weights of ({name}, {label}) must be an object")
                trans[(x, label)] = successors = {}
                for y, target, value in _named(vec, index, "transitions", name):
                    successors[y] = read(value)
    except _BadWeight as exc:
        raise ParseError(f"weight at ({name}, {label}, {target}): {exc}") from exc
    return WeightedAut(len(names), alphabet, semiring, out, trans, names=names)


def _load_wta(doc, signature, arities, semiring, names, index):
    read = _reader(semiring.name)
    rules: Dict[Tuple[int, str, Tuple[int, ...]], Any] = {}
    for entry in _expect(doc, "rules", list):
        if not isinstance(entry, dict):
            raise ParseError(f"rules must be objects, got {_json(entry)}")
        _reject_extra(entry, ("state", "op", "children", "weight"), "rule: ")
        op = _expect(entry, "op", str, "rule: ")
        if op not in arities:
            raise ValidationError(f"rule uses unknown operator {_json(op)}")
        (x,) = _states([_expect(entry, "state", object, "rule: ")], index, "rule: ")
        children = tuple(_states(_expect(entry, "children", list, "rule: "), index, "rule children: "))
        if len(children) != arities[op]:
            raise ValidationError(f"rule for {_json(op)} lists {len(children)} children, arity is {arities[op]}")
        try:
            weight = read(_expect(entry, "weight", object, "rule: "))
        except _BadWeight as exc:
            raise ParseError(f"rule weight: {exc}") from exc
        key = (x, op, children)
        if key in rules:
            raise ParseError(f"duplicate rule for state {names[x]}, {_json(op)}, {_json(entry['children'])}")
        rules[key] = weight
    return WeightedTreeAut(len(names), signature, semiring, rules, names=names)


def _load_alternating(doc, alphabet, letters, semiring, names, index):
    outputs = _weights(_by_state(doc, "outputs", index), partial(_read_weight, "bool"), [False] * len(names), "output")
    trans: Dict[Tuple[int, str], List[List[int]]] = {}
    for x, name, row in _by_state(doc, "transitions", index):
        for _, label, family in _by_label(name, row, letters, "transitions"):
            trans[(x, label)] = sets = []
            # a family that is not a list fails as a list of one non-list would
            for member in family if isinstance(family, list) else [None]:
                if not isinstance(member, list):
                    raise ParseError(f"branch family of ({name}, {label}) must be a list of lists")
                sets.append(_states(member, index, f"transitions of {name}: "))
    return AlternatingAut(len(names), alphabet, outputs, trans, names=names)


def _load_lts(doc, alphabet, letters, semiring, names, index):
    trans: Dict[Tuple[int, str], List[int]] = {}
    for p, a, q in _triples(doc, index, letters):
        trans.setdefault((p, a), []).append(q)
    return LTS(len(names), alphabet, trans, names=names)


def _load_gps(doc, alphabet, letters, semiring, names, index):
    read = _reader("rat")
    dist: Dict[int, Dict[Any, Fraction]] = {}
    for x, name, row in _by_state(doc, "dist", index):
        if not isinstance(row, dict):
            raise ParseError(f"distribution of {name} must be an object")
        if not row.keys() <= {"term", "moves"}:
            _reject_extra(row, ("term", "moves"), f"distribution of {name}: ")
        dist[x] = entries = {}
        try:
            p = read(row.get("term", 0))
        except _BadWeight as exc:
            raise ParseError(f"term of {name}: {exc}") from exc
        if p != 0:
            entries[TERM] = p
        moves = row.get("moves", [])
        # moves that are not a list fail as a list of one non-object would
        for move in moves if isinstance(moves, list) else [None]:
            if not isinstance(move, dict):
                raise ParseError(f"moves of {name} must be objects")
            label, target = move.get("label"), move.get("to")
            known = isinstance(label, str) and label in letters
            y = index.get(target) if isinstance(target, str) else None
            if not (move.keys() <= {"label", "to", "prob"} and known and y is not None and "prob" in move):
                # the first failing check raises; the names resolve inline, as in _triples
                at = f"move of {name}: "
                _reject_extra(move, ("label", "to", "prob"), at)
                _states([_expect(move, "label", object, at)], letters, at, "label")
                _states([_expect(move, "to", object, at)], index, at)
                _expect(move, "prob", object, at)
            try:
                p = read(move["prob"])
            except _BadWeight as exc:
                raise ParseError(f"move of {name}: {exc}") from exc
            if p != 0:
                key = (label, y)
                entries[key] = entries.get(key, 0) + p
    return GPS(len(names), alphabet, dist, names=names)


# kind -> (class, loader, trace function of (automaton, state, depth), the
# document's keys in the order they are read). The trace functions are
# called through lambdas, so the module global is looked up at each call and
# a wrapper bound over it later (bench/spans.py) is seen.
_KINDS = {
    "nfa": (NFA, _load_nfa, lambda *query: nfa_trace(*query), ("kind", "alphabet", "states", "accepting", "transitions", "initial")),
    "moore": (MooreAut, _load_moore, lambda *query: moore_trace(*query), ("kind", "alphabet", "semiring", "states", "outputs", "delta", "initial")),
    "weighted": (WeightedAut, _load_weighted, lambda *query: wa_trace(*query), ("kind", "alphabet", "semiring", "states", "out", "transitions")),
    "wta": (WeightedTreeAut, _load_wta, lambda *query: wta_trace(*query), ("kind", "signature", "semiring", "states", "rules")),
    "alternating": (AlternatingAut, _load_alternating, lambda *query: alt_trace(*query), ("kind", "alphabet", "states", "outputs", "transitions")),
    "lts": (LTS, _load_lts, lambda *query: lts_traces(*query), ("kind", "alphabet", "states", "transitions")),
    "gps": (GPS, _load_gps, lambda *query: gps_trace(*query), ("kind", "alphabet", "states", "dist")),
}
KINDS = tuple(_KINDS)
_KIND_OF = {cls: kind for kind, (cls, *_) in _KINDS.items()}


def load_automaton(doc: Any):
    """Build and validate an automaton from a parsed document.

    Returns (automaton, initial-or-None); the initial set is index-resolved
    when the document carries one. The keys that kinds share are read here:
    unexpected keys first, then the alphabet (a wta's signature), the
    semiring, the states, the kind's own keys by its loader, the initial
    list and the checks on the whole machine. Every ParseError and
    ValidationError raised on the way names the kind first.
    """
    if not isinstance(doc, dict):
        raise ParseError("the document must be a JSON object")
    kind = _expect(doc, "kind", str, "document: ")
    if kind not in _KINDS:
        raise ParseError(f"unknown kind {_json(kind)}; expected one of {', '.join(KINDS)}")
    _, load, _, keys = _KINDS[kind]
    try:
        _reject_extra(doc, keys)
        alphabet, letters = _signature(doc) if "signature" in keys else _names(doc, "alphabet", "alphabet labels")
        if "semiring" in keys and _expect(doc, "semiring", str) not in SEMIRINGS:
            raise ParseError(f"unknown semiring {_json(doc['semiring'])}")
        semiring = SEMIRINGS.get(doc.get("semiring"))  # None for a kind without one
        names, index = _names(doc, "states", "state names")
        aut = load(doc, alphabet, letters, semiring, names, index)
        # _reject_extra lets an "initial" list through for nfa and moore only
        initial = _states(_expect(doc, "initial", list), index, "initial: ") if "initial" in doc else None
        if initial and len(set(initial)) != len(initial):
            raise ParseError("duplicate initial states")
        require_valid(aut)
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{kind}: {exc}") from exc
    return aut, initial


def _unique_keys(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
    """The object of pairs; a repeated key, which json.loads reads as its last value, is a ParseError."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set = set()
        raise ParseError(f"duplicate key {_json(next(k for k, _ in pairs if k in seen or seen.add(k)))}")
    return obj


def parse_document(text: str) -> Any:
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ParseError:
        raise
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"not valid JSON: {exc}") from exc


def load_file(path: str):
    # one unbuffered read; the newline translation gives read_text's text
    try:
        with open(path, "rb", buffering=0) as f:
            text = f.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return load_automaton(parse_document(text))


# ---------------------------------------------------------------------------
# dumpers, one per kind


def _label_rows(aut, rows, encode) -> Dict[str, Dict[str, Any]]:
    """The state -> label -> entry object of a dense [state][letter] table,
    with encode applied to each nonempty entry and empty entries left out."""
    doc: Dict[str, Dict[str, Any]] = {}
    for x, row in enumerate(rows):
        for i, entry in enumerate(row):
            if entry:
                doc.setdefault(aut.names[x], {})[aut.alphabet[i]] = encode(entry)
    return doc


def dump_automaton(aut, initial: Optional[Sequence[int]] = None) -> Dict[str, Any]:
    """Serialize an automaton to its canonical document."""
    kind = _KIND_OF[type(aut)]
    names = aut.names
    doc: Dict[str, Any] = {"kind": kind, "states": list(names)}
    if kind == "wta":
        doc["signature"] = {op: ar for op, ar in aut.signature}
    else:
        doc["alphabet"] = list(aut.alphabet)
    if "semiring" in _KINDS[kind][3]:
        doc["semiring"] = aut.semiring.name
    if kind == "nfa":
        doc["accepting"] = [names[x] for x in sorted(aut.accepting)]
        doc["transitions"] = [[names[p], a, names[q]] for p, a, q in sorted(aut.transitions)]
    elif kind == "moore":
        doc["outputs"] = {names[x]: encode_weight(o) for x, o in enumerate(aut.outputs)}
        doc["delta"] = {
            names[x]: {a: names[row[i]] for i, a in enumerate(aut.alphabet)}
            for x, row in enumerate(aut.delta)
        }
    elif kind == "weighted":
        doc["out"] = {names[x]: encode_weight(o) for x, o in enumerate(aut.out)}
        doc["transitions"] = _label_rows(
            aut, aut.trans, lambda vec: {names[y]: encode_weight(w) for y, w in vec.items()}
        )
    elif kind == "wta":
        rules = []
        for x, per_state in enumerate(aut.rules):
            for (op, children), w in per_state.items():
                rules.append(
                    {
                        "state": names[x],
                        "op": op,
                        "children": [names[c] for c in children],
                        "weight": encode_weight(w),
                    }
                )
        rules.sort(key=lambda r: (r["state"], r["op"], r["children"]))
        doc["rules"] = rules
    elif kind == "alternating":
        doc["outputs"] = {names[x]: bool(o) for x, o in enumerate(aut.outputs)}
        doc["transitions"] = _label_rows(
            aut, aut.trans, lambda family: sorted([names[y] for y in sorted(member)] for member in family)
        )
    elif kind == "lts":
        doc["transitions"] = sorted(
            [names[x], aut.alphabet[i], names[y]]
            for x, row in enumerate(aut.trans)
            for i, succ in enumerate(row)
            for y in succ
        )
    elif kind == "gps":
        dist = {}
        for x, row in enumerate(aut.dist):
            entry: Dict[str, Any] = {}
            if TERM in row:
                entry["term"] = encode_weight(row[TERM])
            moves = [
                {"label": a, "to": names[y], "prob": encode_weight(p)}
                for (a, y), p in ((k, v) for k, v in row.items() if k is not TERM)
            ]
            moves.sort(key=lambda m: (m["label"], m["to"]))
            if moves:
                entry["moves"] = moves
            dist[names[x]] = entry
        doc["dist"] = dist
    if initial is not None:
        doc["initial"] = [names[x] for x in initial]
    return doc


_SCALARS = {str, bool, int, type(None)}


def _json_text(value: Any, pad: str) -> str:
    """json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False), with
    every line after the first indented by pad."""
    if type(value) is list:
        keys, items = None, value
    elif type(value) is dict:
        keys = sorted(value)
        if set(map(type, keys)) - {str}:
            raise TypeError(f"keys must be strings, got {keys!r}")
        items = list(map(value.__getitem__, keys))
    else:
        (text,) = _json_texts([value], pad)
        return text
    texts = _json_texts(items, pad + "  ")
    if keys is None:
        return _block(texts, pad)
    return _block(map("{}: {}".format, map(encode_basestring, keys), texts), pad, "{}")


def _block(texts: Iterable[str], pad: str, brackets: str = "[]") -> str:
    """The list, or with brackets "{}" the object, at pad whose item (or
    "key": value) texts, rendered at pad + "  ", are texts."""
    inner = pad + "  "
    body = (",\n" + inner).join(texts)
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}" if body else brackets


def _json_texts(items: List[Any], pad: str) -> Iterable[str]:
    """_json_text(item, pad) of each item. Strings, or bools and ints, are
    rendered by one map, and other scalars in one pass; the elements of
    lists by one call, then cut back into lists. Objects, and items that
    mix lists, objects and scalars, recurse one by one. Documents are
    exact: a float, a non-str key or any other type raises TypeError."""
    kinds = set(map(type, items))
    if kinds == {str}:
        return map(encode_basestring, items)
    if kinds <= {bool, int}:
        return map(str.lower, map(str, items))
    if kinds <= _SCALARS:
        return [encode_basestring(v) if type(v) is str else "null" if v is None else str(v).lower() for v in items]
    inner = pad + "  "
    if kinds == {list}:
        flat, sep, ends = list(_json_texts([*chain.from_iterable(items)], inner)), ",\n" + inner, [*accumulate(map(len, items))]
        return [f"[\n{inner}{sep.join(flat[a:b])}\n{pad}]" if a < b else "[]" for a, b in zip([0, *ends], ends)]
    unknown = kinds - _SCALARS - {list, dict}
    if unknown:
        raise TypeError(f"a {unknown.pop().__name__} is not written: documents are exact")
    return [_json_text(item, pad) for item in items]


def _rows(keys: Sequence[str], columns: Sequence[Iterable[str]], pad: str, count: int) -> Iterable[str]:
    """The count objects at pad with the texts of the columns under the
    sorted keys, each joined with the text around its values."""
    if not keys:
        return repeat("{}", count)
    inner = pad + "  "
    around = [("{\n" if i == 0 else ",\n") + inner + encode_basestring(key) + ": " for i, key in enumerate(keys)]
    return map("".join, zip(*chain.from_iterable(zip(map(repeat, around), columns)), repeat("\n" + pad + "}")))


def _keyed(quoted: Sequence[str], order: Sequence[int], pad: str, texts: Sequence[str]) -> str:
    """The object at pad from each quoted state name to its text, in order."""
    return _block(map("{}: {}".format, map(quoted.__getitem__, order), map(texts.__getitem__, order)), pad, "{}")


def _moore_text(m: MooreAut, initial: Optional[Sequence[int]], pad: str) -> str:
    """_json_text(dump_automaton(m, initial), pad), written from m's tables:
    each delta row joined column by column over the sorted letters, and
    outputs by encode_weight's rules."""
    i1, quoted = pad + "  ", list(map(encode_basestring, m.names))
    keyed = partial(_keyed, quoted, sorted(range(len(quoted)), key=m.names.__getitem__), i1)
    letters = sorted(range(len(m.alphabet)), key=m.alphabet.__getitem__)
    targets = [map(quoted.__getitem__, map(itemgetter(i), m.delta)) for i in letters]
    fields = {"alphabet": _block(map(encode_basestring, m.alphabet), i1),
              "delta": keyed(list(_rows([m.alphabet[i] for i in letters], targets, i1 + "  ", len(quoted)))),
              "initial": _block(map(quoted.__getitem__, initial or ()), i1), "kind": '"moore"',
              "outputs": keyed(list(_json_texts(list(map(encode_weight, m.outputs)), i1))),
              "semiring": encode_basestring(m.semiring.name), "states": _block(quoted, i1)}
    if initial is None:
        del fields["initial"]
    return _block(map('"{}": {}'.format, fields, fields.values()), pad, "{}")


def serialize_document(doc: Any, pad: str = "") -> str:
    """The canonical text of doc (see _json_text), followed by a newline."""
    return _json_text(doc, pad) + "\n"


# ---------------------------------------------------------------------------
# rendering


def render_value(value: Any) -> str:
    if isinstance(value, bool):
        return "tt" if value else "ff"
    return str(encode_weight(value))


def _resolve_cli_state(aut, spec: str) -> int:
    if spec in aut.names:
        return aut.names.index(spec)
    if spec.isascii() and spec.isdecimal():
        x = int(spec)
        if 0 <= x < aut.n_states:
            return x
    raise UnknownStateError(f"unknown state {spec!r}")


def _write(*files: Tuple[Any, Sequence[str]]) -> None:
    """Write the texts of each (path, texts) file, or of none: each file is
    opened before any is truncated, and when one cannot be, the files that
    this call created are removed."""
    made = []
    try:
        for path, _ in files:
            existed = os.path.lexists(path)
            open(path, "a").close()
            if not existed:
                made.append(path)
        for path, texts in files:
            with open(path, "w", encoding="utf-8") as f:
                f.writelines(texts)
    except OSError as exc:
        for created in made:
            Path(created).unlink(missing_ok=True)
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _emit(out: Optional[str], machine: Callable[[str], str], key: str, side: Callable[[str], str], suffix: str) -> None:
    """Print {"machine": ..., key: ...} as serialize_document would, where
    machine(pad) and side(pad) render the two documents (a Moore machine by
    `_moore_text`) with every line after the first indented by pad; with
    --out, write the machine to out and the side document to out with its
    suffix replaced by suffix. Everything is rendered before the first
    write."""
    if out is not None:
        # a path without a name ("", "." or "/") has no suffix to replace, and fails to open first
        _write((out, [machine(""), "\n"]), (Path(out).with_suffix(suffix) if Path(out).name else out, [side(""), "\n"]))
    else:
        side_text, machine_text = side("  "), machine("  ")
        # key ("certificates" or "embedding") sorts before "machine"
        sys.stdout.writelines((f'{{\n  "{key}": ', side_text, ',\n  "machine": ', machine_text, "\n}\n"))


# ---------------------------------------------------------------------------
# commands


def _cmd_semantics(args) -> int:
    if args.depth < 0:
        raise QueryError(f"--depth must be at least 0, got {args.depth}")
    aut, _ = load_file(args.file)
    kind = _KIND_OF[type(aut)]
    if args.mode is not None and kind != "nfa":
        raise QueryError(f"--mode applies to nfa files only, not {kind}")
    x = _resolve_cli_state(aut, args.state)
    if args.mode:
        table = bt_nfa_trace(aut, x, args.depth, args.mode)
    else:
        table = _KINDS[kind][2](aut, x, args.depth)
    # a view: value numbers per length (height), by index
    entries, wta = table.entries, kind == "wta"
    keys = _fold_shapes(entries.shapes, _node_text) if wta else _word_texts(entries.alphabet, args.depth)
    carrier = "gps" if kind == "gps" else getattr(aut, "semiring", BOOL).name
    # each distinct value as n / d, from its integer tuple when it has one, rendered once as render_value
    # would, in full first, so a value too long to print leaves stdout empty
    pairs = list(map(entries.ratio, entries.raw)) if entries.ratio else [(v.numerator, v.denominator) for v in entries.distinct]
    shown = [("\tff\n", "\ttt\n")[bool(n)] if carrier == "bool" else f"\t{_weight_json(carrier, n, d)}\n" for n, d in pairs]
    text = "".join(chain.from_iterable(zip(chain.from_iterable(keys), map(shown.__getitem__, chain.from_iterable(entries.layers)))))
    if args.out is not None:
        # the rows document as serialize_document writes it, column by column: the value texts by value
        # number, and the trees' texts or each word's quoted letters, in the order of _word_texts
        values = list(_json_texts([_weight_json(carrier, n, d) for n, d in pairs], " " * 6))
        words = () if wta else _joined_texts(list(map(encode_basestring, entries.alphabet)), args.depth, ",\n        ")
        named = map(encode_basestring, chain.from_iterable(keys)) if wta else chain(["[]"], map("[\n        {}\n      ]".format, chain.from_iterable(words)))
        columns = [map(values.__getitem__, chain.from_iterable(entries.layers)), named]
        rows = _rows(["tree", "value"] if wta else ["value", "word"], columns[::-1] if wta else columns, " " * 4, 0)
        fields = (f'"depth": {args.depth}', f'"rows": {_block(rows, "  ")}', f'"state": {encode_basestring(aut.names[x])}')
        _write((args.out, [_block(fields, "", "{}"), "\n"]))
    sys.stdout.write(text)
    return EXIT_OK


# method -> (kind of the source file, default --budget or None for a method
# that takes none, construction of (automaton, budget))
_METHODS = {
    "subset": ("nfa", None, lambda aut, budget: det_subset(aut, "disj")),
    "conj": ("nfa", None, lambda aut, budget: det_subset(aut, "conj")),
    "canonical": ("nfa", 4, lambda aut, budget: canonical_det_nfa(aut, bound=budget)),
    "weighted": ("weighted", 500, lambda aut, budget: det_weighted(aut, budget=budget)),
    "alt": ("alternating", None, lambda aut, budget: alt_to_nfa(aut)),
}


def _embedding_text(result: DetResult, source, pad: str) -> str:
    """_json_text of the {"embed", "method", "stateMeaning"} document of a
    determinization of source, without its objects: a weighted meaning is
    one join per state over the view's row, a set a list of names and a
    canonical meaning a list of lists."""
    names, det_names, meanings = source.names, result.machine.names, result.state_meaning
    quoted, det_quoted = list(map(encode_basestring, names)), list(map(encode_basestring, det_names))
    order, det_order = (sorted(range(len(ns)), key=ns.__getitem__) for ns in (names, det_names))
    i1, i2 = pad + "  ", pad + "    "
    if result.method == "weighted":
        # rows list their entries in state order, which is name order when the names are sorted
        carrier, by_name = source.semiring.name, None if order == sorted(order) else (lambda e: names[e[0]])
        entry = {"bool": "{}: true", "nat": "{}: {}", "rat": '{}: "{}"'}[carrier].format
        texts = [_block([entry(quoted[y], _weight_json(carrier, n, d)) for y, n, d in sorted(meanings._row(i), key=by_name)], i2, "{}")
                 for i in range(len(meanings))]
    else:
        listed = lambda ys: sorted(map(names.__getitem__, ys))
        meanings = [sorted(map(listed, m)) for m in meanings.values()] if result.method == "canonical" else map(listed, meanings.values())
        texts = list(_json_texts(list(meanings), i2))
    embed = [det_quoted[result.embed[x]] for x in range(len(names))]
    return _block((f'"embed": {_keyed(quoted, order, i1, embed)}', f'"method": {encode_basestring(result.method)}',
                   f'"stateMeaning": {_keyed(det_quoted, det_order, i1, texts)}'), pad, "{}")


def _cmd_determinize(args) -> int:
    needed, default, construct = _METHODS[args.method]
    if args.budget is not None and default is None:
        budgeted = " and ".join(method for method, (_, budget, _) in _METHODS.items() if budget)
        raise QueryError(f"--budget applies to the {budgeted} methods only, not {args.method!r}")
    if args.budget is not None and args.budget <= 0:
        raise QueryError(f"--budget must be positive, got {args.budget}")
    aut, _ = load_file(args.file)
    kind = _KIND_OF[type(aut)]
    if kind != needed:
        # "an" where the kind is spoken from a vowel sound: an alternating, an nfa, an lts, a moore
        raise QueryError(f"method {args.method!r} needs {'an' if needed[0] in 'aeilnou' else 'a'} {needed} file, got {kind}")
    result = construct(aut, args.budget or default)
    if isinstance(result, BudgetExceeded):
        # canonical's bound is on the size of its input, which it refuses before exploring
        found = f"an input of {result.discovered} states" if result.method == "canonical" else f"{result.discovered} states discovered"
        print(
            f"budget exceeded: {result.method} determinization passed {result.budget} with {found}",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    machine = result.machine
    # only alt's result, an nfa, is not a Moore machine
    text = partial(_moore_text, machine, None) if isinstance(machine, MooreAut) else partial(_json_text, dump_automaton(machine))
    _emit(args.out, text, "embedding", partial(_embedding_text, result, aut), ".embed.json")
    return EXIT_OK


def _certificate_text(names: Sequence[str], certificates: Optional[Certificates], pad: str) -> str:
    """The list of {"pair": [p, q], "word": [...]} objects, one per
    certificate in (p, q) order, as _json_text(..., pad) writes it, built
    without those objects: one str.join per row p, over the texts of each q
    and of its word, and each word rendered once per first-pass state."""
    if not certificates:
        return "[]"
    i1, i2, i3 = pad + "  ", pad + "    ", pad + "      "
    word_text = lambda word: ("[\n" + i3 + (",\n" + i3).join(map(encode_basestring, word)) + "\n" + i2 + "]") if word else "[]"
    quoted = list(map(encode_basestring, names))
    tails = [f'{q}\n{i2}],\n{i2}"word": ' for q in quoted]
    close = "\n" + i1 + "}"
    parts = ["[\n" + i1]
    # the last state's row is empty, and zip stops before reading it
    for p, (name, words) in enumerate(zip(quoted[:-1], certificates._rows(word_text))):
        head = f'{{\n{i2}"pair": [\n{i3}{name},\n{i3}'
        parts += (head, (close + ",\n" + i1 + head).join(map(add, tails[p + 1 :], words)), close + ",\n" + i1)
    parts[-1] = close + "\n" + pad + "]"
    return "".join(parts)


def _cmd_minimize(args) -> int:
    aut, file_initial = load_file(args.file)
    kind = _KIND_OF[type(aut)]
    if kind not in ("nfa", "moore"):
        raise QueryError(f"minimize needs an nfa or moore file, got {kind}")
    if args.initial is not None:
        initial = [_resolve_cli_state(aut, part) for part in args.initial.split(",")]
        if len(set(initial)) != len(initial):
            raise QueryError("--initial names a state twice")
    elif file_initial is not None:
        initial = file_initial
    else:
        raise QueryError("no initial states: pass --initial or add an \"initial\" list to the file")
    if kind == "nfa":
        observable = brzozowski_minimal(aut, initial)
        machine, init, certificates = observable.machine, observable.initial, observable.certificates
    else:
        if len(initial) != 1:
            raise QueryError("minimizing a moore file needs exactly one initial state")
        machine, init = partition_refine(aut, initial[0])
        certificates = None
    _emit(args.out, partial(_moore_text, machine, [init]), "certificates", partial(_certificate_text, machine.names, certificates), ".certs.json")
    return EXIT_OK


def _single_initial(aut, flag_value: Optional[str], file_initial, which: str) -> int:
    if flag_value is not None:
        return _resolve_cli_state(aut, flag_value)
    if file_initial is not None and len(file_initial) == 1:
        return file_initial[0]
    raise QueryError(f"pass --{which} or give the file a one-element \"initial\" list")


def _cmd_equiv(args) -> int:
    left, left_initial = load_file(args.file1)
    right, right_initial = load_file(args.file2)
    for aut, path in ((left, args.file1), (right, args.file2)):
        if _KIND_OF[type(aut)] != "moore":
            raise QueryError(f"equiv compares moore files; {path} is {_KIND_OF[type(aut)]}")
    i1 = _single_initial(left, args.initial1, left_initial, "initial1")
    i2 = _single_initial(right, args.initial2, right_initial, "initial2")
    same, witness = dfa_equiv(left, right, i1, i2)
    print("tt" if same else format_word(witness))
    return EXIT_OK


def _clamped(value: Optional[int], default: int, cap: int) -> int:
    return default if value is None else min(value, cap)


def _law_checks(max_size: Optional[int]):
    # the law checkers are loaded here, not at import, as only `check` runs them
    from .laws import (BOX, CHI_GOOD, CHI_WRONG, DIAMOND, IDENTITY_NAT, SemiringAction, check_action_laws,
                       check_exchange, check_logic_morphism_diagram, check_monad_morphism, check_naturality)

    nat = _clamped(max_size, 3, 6)
    phi = _clamped(max_size, 3, 3)
    small = _clamped(max_size, 2, 2)
    return {
        "chi-good": lambda: check_naturality(CHI_GOOD, max_size=nat),
        "chi-wrong": lambda: check_naturality(CHI_WRONG, max_size=nat),
        "identity-nat": lambda: check_naturality(IDENTITY_NAT, max_size=nat),
        "action-diamond": lambda: check_action_laws(DIAMOND, max_phi=phi),
        "action-box": lambda: check_action_laws(BOX, max_phi=phi),
        "action-weighted-bool": lambda: check_action_laws(SemiringAction("weighted-bool", BOOL), max_phi=phi),
        "action-weighted-nat": lambda: check_action_laws(SemiringAction("weighted-nat", NAT), max_phi=phi),
        "action-weighted-rat": lambda: check_action_laws(SemiringAction("weighted-rat", RAT), max_phi=phi),
        "monad-diamond": lambda: check_monad_morphism(DIAMOND, max_size=phi),
        "monad-box": lambda: check_monad_morphism(BOX, max_size=phi),
        "diagram-subset": lambda: check_logic_morphism_diagram("subset", max_phi=small),
        "diagram-conj": lambda: check_logic_morphism_diagram("conj", max_phi=small),
        "diagram-weighted": lambda: check_logic_morphism_diagram("weighted", max_phi=small),
        "diagram-alt": lambda: check_logic_morphism_diagram("alt", max_phi=small),
        "exchange": lambda: check_exchange(max_phi=small),
    }


def _cmd_check(args) -> int:
    if args.max_size is not None and args.max_size < 1:
        raise QueryError(f"--max-size must be at least 1, got {args.max_size}")
    from .laws import format_report, known_counterexample

    checks = _law_checks(args.max_size)
    runner = checks.get(args.law)
    if runner is None:
        raise QueryError(f"unknown law {args.law!r}; known: {', '.join(sorted(checks))}")
    report = runner()
    print(format_report(report))
    if args.law == "chi-wrong":
        known = known_counterexample()
        if known in report.failures:
            print("known counterexample reproduced:")
            print(known.render())
            return EXIT_OK
        print("known counterexample NOT reproduced", file=sys.stderr)
        return EXIT_LAW
    return EXIT_OK if report.ok else EXIT_LAW


# ---------------------------------------------------------------------------
# argument parsing


# parsing a command line leaves the tree as it was, so one tree serves every call
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracekit",
        description="Trace semantics, determinization, minimization, and law checking for finite automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("semantics", help="print the trace table of one state")
    p.add_argument("file")
    p.add_argument("--state", required=True, help="state name (or numeric index)")
    p.add_argument("--depth", type=int, required=True, help="maximum word length (tree height for wta files)")
    p.add_argument("--mode", choices=BOOL_MODES, help="branching-time reading for nfa files")
    p.add_argument("--out", help="also write the rows to a JSON file")
    p.set_defaults(func=_cmd_semantics)

    p = sub.add_parser("determinize", help="determinize and report the state embedding")
    p.add_argument("file")
    p.add_argument("--method", required=True, choices=sorted(_METHODS))
    p.add_argument("--budget", type=int, help="state budget (weighted) or input-size bound (canonical)")
    p.add_argument("--out", help="write the machine here and the embedding to <out>.embed.json")
    p.set_defaults(func=_cmd_determinize)

    p = sub.add_parser("minimize", help="minimal observable DFA with distinguishing words")
    p.add_argument("file")
    p.add_argument("--initial", help="comma-separated initial state names")
    p.add_argument("--out", help="write the machine here and certificates to <out>.certs.json")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("equiv", help="language equivalence of two moore files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--initial1", help="initial state of the first file")
    p.add_argument("--initial2", help="initial state of the second file")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("check", help="run a law check and print its report")
    p.add_argument("law", help="law name; try an unknown name to list the known ones")
    p.add_argument("--max-size", type=int, dest="max_size", help="carrier/predicate size bound (clamped to each law's exhaustible range)")
    p.set_defaults(func=_cmd_check)
    return parser


def _parse_args(argv: List[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv). When argv[0] names a command, its
    subparser alone parses the rest, as the full parser would hand it on;
    anything else, leftovers included, goes to the full parser, with its own
    usage lines and errors."""
    parser = build_parser()
    command = next(a.choices for a in parser._actions if a.dest == "command").get(argv[0]) if argv else None
    args, rest = command.parse_known_args(argv[1:]) if command else (None, True)
    if rest:
        return parser.parse_args(argv)
    args.command = argv[0]
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (UnknownStateError, QueryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUERY
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
