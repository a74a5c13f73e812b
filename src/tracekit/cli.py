"""Command-line driver: JSON automaton files in, tables and reports out.

The file format is JSON with a top-level "kind" discriminator (one of nfa,
moore, weighted, wta, alternating, lts, gps) and exact-rational weights
encoded as "num/den" strings. States are referred to by name everywhere.
Serialization is canonical: stable key order, states in declaration order,
sorted transition lists, so parse then serialize is a normal form and
re-parsing a serialized file gives back the same automaton.

Exit statuses: 0 success, 2 parse error, 3 validation error, 4 budget
exceeded, 5 law failure, 6 query error (unknown state, unknown law, a
method/kind mismatch, a negative --depth, or a --budget below 1).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
    format_tree,
    require_valid,
)
from .determinize import (
    BudgetExceeded,
    DetResult,
    alt_to_nfa,
    canonical_det_nfa,
    det_subset,
    det_weighted,
)
from .laws import (
    BOX,
    CHI_GOOD,
    CHI_WRONG,
    DIAMOND,
    IDENTITY_NAT,
    SemiringAction,
    check_action_laws,
    check_exchange,
    check_logic_morphism_diagram,
    check_monad_morphism,
    check_naturality,
    format_report,
    known_counterexample,
)
from .minimize import brzozowski_minimal, dfa_equiv, partition_refine
from .semantics import (
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


class ParseError(ValueError):
    """The input file is not a well-formed automaton document."""


class QueryError(ValueError):
    """The request itself is bad: unknown law, or method/kind mismatch."""


# ---------------------------------------------------------------------------
# weight encoding


def encode_weight(semiring_name: str, value: Any) -> Any:
    if semiring_name == "bool":
        return bool(value)
    if semiring_name == "nat":
        return int(value)
    return str(Fraction(value))


def decode_weight(semiring_name: str, value: Any, where: str) -> Any:
    if semiring_name == "bool":
        if not isinstance(value, bool):
            raise ParseError(f"{where}: expected a boolean, got {value!r}")
        return value
    if semiring_name == "nat":
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ParseError(f"{where}: expected a natural number, got {value!r}")
        return value
    if semiring_name == "rat":
        return _decode_fraction(value, where)
    raise ParseError(f"{where}: unknown semiring {semiring_name!r}")


def _decode_fraction(value: Any, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"{where}: rationals must be exact, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: not a rational: {value!r} ({exc})") from exc
    raise ParseError(f"{where}: expected a \"num/den\" string, got {value!r}")


# ---------------------------------------------------------------------------
# document helpers


def _expect(doc: Dict[str, Any], key: str, types, where: str):
    if key not in doc:
        raise ParseError(f"{where}: missing key {key!r}")
    value = doc[key]
    if not isinstance(value, types):
        raise ParseError(f"{where}: key {key!r} has the wrong type: {value!r}")
    return value


def _string_list(doc: Dict[str, Any], key: str, where: str) -> List[str]:
    raw = _expect(doc, key, list, where)
    for item in raw:
        if not isinstance(item, str):
            raise ParseError(f"{where}: {key!r} entries must be strings, got {item!r}")
    return list(raw)


def _reject_extra(doc: Dict[str, Any], allowed: Sequence[str], where: str) -> None:
    extra = sorted(set(doc) - set(allowed))
    if extra:
        raise ParseError(f"{where}: unexpected keys {extra}")


def _state_names(doc: Dict[str, Any], where: str) -> Tuple[List[str], Dict[str, int]]:
    names = _string_list(doc, "states", where)
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise ParseError(f"{where}: duplicate state names")
    return names, index


def _resolve_state(name: Any, index: Dict[str, int], where: str) -> int:
    if not isinstance(name, str) or name not in index:
        raise ValidationError(f"{where}: unknown state {name!r}")
    return index[name]


def _by_state(doc: Dict[str, Any], key: str, index: Dict[str, int], where: str):
    """Check that doc[key] is an object keyed by state name, then yield
    (x, name, value) for its entries, resolving each name as it is reached."""
    raw = _expect(doc, key, dict, where)
    return ((_resolve_state(name, index, f"{where}: {key}"), name, value) for name, value in raw.items())


def _by_label(doc: Dict[str, Any], key: str, index: Dict[str, int], alphabet: Sequence[str], where: str):
    """_by_state over an object of per-label objects: yield (x, name, label, value)."""

    def entries(states):
        for x, name, row in states:
            if not isinstance(row, dict):
                raise ParseError(f"{where}: {key} of {name} must be an object")
            for label, value in row.items():
                yield x, name, _resolve_label(label, alphabet, f"{where}: {key} of {name}"), value

    return entries(_by_state(doc, key, index, where))


def _resolve_label(label: Any, alphabet: Sequence[str], where: str) -> str:
    if not isinstance(label, str) or label not in alphabet:
        raise ValidationError(f"{where}: unknown label {label!r}")
    return label


def _semiring(doc: Dict[str, Any], where: str):
    name = _expect(doc, "semiring", str, where)
    if name not in SEMIRINGS:
        raise ParseError(f"{where}: unknown semiring {name!r}")
    return SEMIRINGS[name]


def _alphabet(doc: Dict[str, Any], where: str) -> List[str]:
    letters = _string_list(doc, "alphabet", where)
    if len(set(letters)) != len(letters):
        raise ParseError(f"{where}: duplicate alphabet labels")
    return letters


def _initial_list(
    doc: Dict[str, Any], index: Dict[str, int], where: str
) -> Optional[List[int]]:
    if "initial" not in doc:
        return None
    raw = _expect(doc, "initial", list, where)
    return [_resolve_state(name, index, f"{where}: initial") for name in raw]


def _triples(
    doc: Dict[str, Any],
    index: Dict[str, int],
    alphabet: Sequence[str],
    where: str,
) -> List[Tuple[int, str, int]]:
    raw = _expect(doc, "transitions", list, where)
    out = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ParseError(f"{where}: transitions must be [source, label, target] triples, got {entry!r}")
        src, label, dst = entry
        out.append(
            (
                _resolve_state(src, index, f"{where}: transition"),
                _resolve_label(label, alphabet, f"{where}: transition"),
                _resolve_state(dst, index, f"{where}: transition"),
            )
        )
    return out


# ---------------------------------------------------------------------------
# loaders, one per kind


def _load_nfa(doc):
    where = "nfa"
    _reject_extra(doc, ("kind", "alphabet", "states", "accepting", "transitions", "initial"), where)
    alphabet = _alphabet(doc, where)
    names, index = _state_names(doc, where)
    accepting = [
        _resolve_state(name, index, f"{where}: accepting")
        for name in _string_list(doc, "accepting", where)
    ]
    triples = _triples(doc, index, alphabet, where)
    aut = NFA(len(names), alphabet, triples, accepting, names=names)
    return aut, _initial_list(doc, index, where)


def _load_moore(doc):
    where = "moore"
    _reject_extra(doc, ("kind", "alphabet", "semiring", "states", "outputs", "delta", "initial"), where)
    alphabet = _alphabet(doc, where)
    semiring = _semiring(doc, where)
    names, index = _state_names(doc, where)
    # both objects are type-checked before either one's entries are read
    raw_outputs = _by_state(doc, "outputs", index, where)
    raw_delta = _by_label(doc, "delta", index, alphabet, where)
    outputs = [semiring.zero] * len(names)
    for x, name, value in raw_outputs:
        outputs[x] = decode_weight(semiring.name, value, f"{where}: output of {name}")
    delta = [[-1] * len(alphabet) for _ in names]
    for x, name, label, target in raw_delta:
        delta[x][alphabet.index(label)] = _resolve_state(target, index, f"{where}: delta of {name}")
    for x, row in enumerate(delta):
        for i, target in enumerate(row):
            if target < 0:
                raise ValidationError(f"{where}: delta of {names[x]} is missing label {alphabet[i]!r}")
    aut = MooreAut(alphabet, outputs, delta, semiring=semiring, names=names)
    return aut, _initial_list(doc, index, where)


def _load_weighted(doc):
    where = "weighted"
    _reject_extra(doc, ("kind", "alphabet", "semiring", "states", "out", "transitions"), where)
    alphabet = _alphabet(doc, where)
    semiring = _semiring(doc, where)
    names, index = _state_names(doc, where)
    out = [semiring.zero] * len(names)
    for x, name, value in _by_state(doc, "out", index, where):
        out[x] = decode_weight(semiring.name, value, f"{where}: out of {name}")
    trans: Dict[Tuple[int, str], Dict[int, Any]] = {}
    for x, name, label, vec in _by_label(doc, "transitions", index, alphabet, where):
        if not isinstance(vec, dict):
            raise ParseError(f"{where}: successor weights of ({name}, {label}) must be an object")
        trans[(x, label)] = {
            _resolve_state(target, index, f"{where}: transitions of {name}"): decode_weight(
                semiring.name, value, f"{where}: weight at ({name}, {label}, {target})"
            )
            for target, value in vec.items()
        }
    aut = WeightedAut(len(names), alphabet, semiring, out, trans, names=names)
    return aut, None


def _load_wta(doc):
    where = "wta"
    _reject_extra(doc, ("kind", "signature", "semiring", "states", "rules"), where)
    raw_sig = _expect(doc, "signature", dict, where)
    signature = []
    for op, arity in raw_sig.items():
        if not isinstance(arity, int) or isinstance(arity, bool) or arity < 0:
            raise ParseError(f"{where}: arity of {op!r} must be a natural number, got {arity!r}")
        signature.append((op, arity))
    semiring = _semiring(doc, where)
    names, index = _state_names(doc, where)
    raw_rules = _expect(doc, "rules", list, where)
    rules: Dict[Tuple[int, str, Tuple[int, ...]], Any] = {}
    for entry in raw_rules:
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: rules must be objects, got {entry!r}")
        _reject_extra(entry, ("state", "op", "children", "weight"), f"{where}: rule")
        op = _expect(entry, "op", str, f"{where}: rule")
        if op not in raw_sig:
            raise ValidationError(f"{where}: rule uses unknown operator {op!r}")
        x = _resolve_state(_expect(entry, "state", str, f"{where}: rule"), index, f"{where}: rule")
        children = tuple(
            _resolve_state(c, index, f"{where}: rule children")
            for c in _string_list(entry, "children", f"{where}: rule")
        )
        if len(children) != raw_sig[op]:
            raise ValidationError(
                f"{where}: rule for {op!r} lists {len(children)} children, arity is {raw_sig[op]}"
            )
        weight = decode_weight(semiring.name, _expect(entry, "weight", object, f"{where}: rule"), f"{where}: rule weight")
        key = (x, op, children)
        if key in rules:
            raise ParseError(f"{where}: duplicate rule for state {names[x]}, {op!r}, {entry['children']}")
        rules[key] = weight
    aut = WeightedTreeAut(len(names), signature, semiring, rules, names=names)
    return aut, None


def _load_alternating(doc):
    where = "alternating"
    _reject_extra(doc, ("kind", "alphabet", "states", "outputs", "transitions"), where)
    alphabet = _alphabet(doc, where)
    names, index = _state_names(doc, where)
    outputs = [False] * len(names)
    for x, name, value in _by_state(doc, "outputs", index, where):
        outputs[x] = decode_weight("bool", value, f"{where}: output of {name}")
    trans: Dict[Tuple[int, str], List[List[int]]] = {}
    for x, name, label, family in _by_label(doc, "transitions", index, alphabet, where):
        if not isinstance(family, list):
            raise ParseError(f"{where}: branch family of ({name}, {label}) must be a list of lists")
        sets = []
        for member in family:
            if not isinstance(member, list):
                raise ParseError(f"{where}: branch family of ({name}, {label}) must be a list of lists")
            sets.append([_resolve_state(target, index, f"{where}: transitions of {name}") for target in member])
        trans[(x, label)] = sets
    aut = AlternatingAut(len(names), alphabet, outputs, trans, names=names)
    return aut, None


def _load_lts(doc):
    where = "lts"
    _reject_extra(doc, ("kind", "alphabet", "states", "transitions"), where)
    alphabet = _alphabet(doc, where)
    names, index = _state_names(doc, where)
    triples = _triples(doc, index, alphabet, where)
    trans: Dict[Tuple[int, str], List[int]] = {}
    for p, a, q in triples:
        trans.setdefault((p, a), []).append(q)
    aut = LTS(len(names), alphabet, trans, names=names)
    return aut, None


def _load_gps(doc):
    where = "gps"
    _reject_extra(doc, ("kind", "alphabet", "states", "dist"), where)
    alphabet = _alphabet(doc, where)
    names, index = _state_names(doc, where)
    dist: Dict[int, Dict[Any, Fraction]] = {}
    for x, name, row in _by_state(doc, "dist", index, where):
        if not isinstance(row, dict):
            raise ParseError(f"{where}: distribution of {name} must be an object")
        _reject_extra(row, ("term", "moves"), f"{where}: distribution of {name}")
        entries: Dict[Any, Fraction] = {}
        if "term" in row:
            p = _decode_fraction(row["term"], f"{where}: term of {name}")
            if p != 0:
                entries[TERM] = p
        moves = row.get("moves", [])
        if not isinstance(moves, list):
            raise ParseError(f"{where}: moves of {name} must be objects")
        for move in moves:
            if not isinstance(move, dict):
                raise ParseError(f"{where}: moves of {name} must be objects")
            _reject_extra(move, ("label", "to", "prob"), f"{where}: move of {name}")
            label = _resolve_label(_expect(move, "label", str, f"{where}: move of {name}"), alphabet, f"{where}: move of {name}")
            target = _resolve_state(_expect(move, "to", str, f"{where}: move of {name}"), index, f"{where}: move of {name}")
            p = _decode_fraction(_expect(move, "prob", object, f"{where}: move of {name}"), f"{where}: move of {name}")
            if p == 0:
                continue
            key = (label, target)
            entries[key] = entries.get(key, Fraction(0)) + p
        dist[x] = entries
    aut = GPS(len(names), alphabet, dist, names=names)
    return aut, None


# kind -> (class, loader, trace function of (automaton, state, depth)). The
# trace functions are called through lambdas, so the module global is looked
# up at each call and a wrapper bound over it later (bench/spans.py) is seen.
_KINDS = {
    "nfa": (NFA, _load_nfa, lambda *query: nfa_trace(*query)),
    "moore": (MooreAut, _load_moore, lambda *query: moore_trace(*query)),
    "weighted": (WeightedAut, _load_weighted, lambda *query: wa_trace(*query)),
    "wta": (WeightedTreeAut, _load_wta, lambda *query: wta_trace(*query)),
    "alternating": (AlternatingAut, _load_alternating, lambda *query: alt_trace(*query)),
    "lts": (LTS, _load_lts, lambda *query: lts_traces(*query)),
    "gps": (GPS, _load_gps, lambda *query: gps_trace(*query)),
}
KINDS = tuple(_KINDS)
_KIND_OF = {cls: kind for kind, (cls, _, _) in _KINDS.items()}


def load_automaton(doc: Any):
    """Build and validate an automaton from a parsed document.

    Returns (automaton, initial-or-None); the initial set is index-resolved
    when the document carries one.
    """
    if not isinstance(doc, dict):
        raise ParseError("the document must be a JSON object")
    kind = _expect(doc, "kind", str, "document")
    if kind not in _KINDS:
        raise ParseError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    aut, initial = _KINDS[kind][1](doc)
    require_valid(aut)
    return aut, initial


def parse_document(text: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"not valid JSON: {exc}") from exc


def load_file(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
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
    if kind == "nfa":
        doc["accepting"] = [names[x] for x in sorted(aut.accepting)]
        doc["transitions"] = [
            [names[p], a, names[q]]
            for p, a, q in sorted(aut.transitions)
        ]
    elif kind == "moore":
        doc["semiring"] = aut.semiring.name
        doc["outputs"] = {
            names[x]: encode_weight(aut.semiring.name, o) for x, o in enumerate(aut.outputs)
        }
        doc["delta"] = {
            names[x]: {a: names[row[i]] for i, a in enumerate(aut.alphabet)}
            for x, row in enumerate(aut.delta)
        }
    elif kind == "weighted":
        doc["semiring"] = aut.semiring.name
        doc["out"] = {
            names[x]: encode_weight(aut.semiring.name, o) for x, o in enumerate(aut.out)
        }
        doc["transitions"] = _label_rows(
            aut, aut.trans, lambda vec: {names[y]: encode_weight(aut.semiring.name, w) for y, w in vec.items()}
        )
    elif kind == "wta":
        doc["semiring"] = aut.semiring.name
        rules = []
        for x, per_state in enumerate(aut.rules):
            for (op, children), w in per_state.items():
                rules.append(
                    {
                        "state": names[x],
                        "op": op,
                        "children": [names[c] for c in children],
                        "weight": encode_weight(aut.semiring.name, w),
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
                entry["term"] = str(row[TERM])
            moves = [
                {"label": a, "to": names[y], "prob": str(p)}
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


def serialize_document(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# rendering


def render_value(value: Any) -> str:
    if isinstance(value, bool):
        return "tt" if value else "ff"
    if isinstance(value, PartialProb):
        return str(value.value)
    return str(value)


def _json_value(value: Any) -> Any:
    if isinstance(value, (bool, int)):
        return value
    if isinstance(value, PartialProb):
        return str(value.value)
    return str(value)


def _resolve_cli_state(aut, spec: str) -> int:
    if spec in aut.names:
        return aut.names.index(spec)
    if spec.isascii() and spec.isdecimal():
        x = int(spec)
        if 0 <= x < aut.n_states:
            return x
    raise UnknownStateError(f"unknown state {spec!r}")


def _emit(out: Optional[str], machine_doc: Any, key: str, side_doc: Any, suffix: str) -> None:
    """Print {"machine": machine_doc, key: side_doc}; with --out, write the
    machine to out and side_doc to out with its suffix replaced by suffix."""
    if out:
        Path(out).write_text(serialize_document(machine_doc), encoding="utf-8")
        Path(out).with_suffix(suffix).write_text(serialize_document(side_doc), encoding="utf-8")
    else:
        sys.stdout.write(serialize_document({"machine": machine_doc, key: side_doc}))


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
    wta = kind == "wta"
    for key, value in table.entries.items():
        print(f"{format_tree(key) if wta else format_word(key)}\t{render_value(value)}")
    if args.out:
        rows = [
            {"tree": format_tree(key), "value": _json_value(value)} if wta
            else {"word": list(key), "value": _json_value(value)}
            for key, value in table.entries.items()
        ]
        doc = {"state": aut.names[x], "depth": args.depth, "rows": rows}
        Path(args.out).write_text(serialize_document(doc), encoding="utf-8")
    return EXIT_OK


# method -> (kind of the source file, construction of (automaton, --budget))
_METHODS = {
    "subset": ("nfa", lambda aut, budget: det_subset(aut, "disj")),
    "conj": ("nfa", lambda aut, budget: det_subset(aut, "conj")),
    "canonical": ("nfa", lambda aut, budget: canonical_det_nfa(aut, bound=budget or 4)),
    "weighted": ("weighted", lambda aut, budget: det_weighted(aut, budget=budget or 500)),
    "alt": ("alternating", lambda aut, budget: alt_to_nfa(aut)),
}


def _serialize_meaning(result: DetResult, source, meaning) -> Any:
    names = source.names
    if result.method == "weighted":
        return {
            names[y]: encode_weight(source.semiring.name, w) for y, w in meaning.items()
        }
    if result.method == "canonical":
        return sorted(sorted(names[y] for y in phi) for phi in meaning)
    return sorted(names[y] for y in meaning)


def _cmd_determinize(args) -> int:
    if args.budget is not None and args.budget <= 0:
        raise QueryError(f"--budget must be positive, got {args.budget}")
    aut, _ = load_file(args.file)
    kind = _KIND_OF[type(aut)]
    needed, construct = _METHODS[args.method]
    if kind != needed:
        raise QueryError(f"method {args.method!r} needs a {needed} file, got {kind}")
    result = construct(aut, args.budget)
    if isinstance(result, BudgetExceeded):
        print(
            f"budget exceeded: {result.method} determinization passed "
            f"{result.budget} with {result.discovered} states discovered",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    machine_doc = dump_automaton(result.machine)
    det_names = result.machine.names
    embedding = {
        "method": result.method,
        "embed": {aut.names[x]: det_names[result.embed[x]] for x in range(aut.n_states)},
        "stateMeaning": {
            det_names[i]: _serialize_meaning(result, aut, meaning)
            for i, meaning in result.state_meaning.items()
        },
    }
    _emit(args.out, machine_doc, "embedding", embedding, ".embed.json")
    return EXIT_OK


def _cmd_minimize(args) -> int:
    aut, file_initial = load_file(args.file)
    kind = _KIND_OF[type(aut)]
    if kind not in ("nfa", "moore"):
        raise QueryError(f"minimize needs an nfa or moore file, got {kind}")
    if args.initial is not None:
        initial = [_resolve_cli_state(aut, part) for part in args.initial.split(",")]
    elif file_initial is not None:
        initial = file_initial
    else:
        raise QueryError("no initial states: pass --initial or add an \"initial\" list to the file")
    if kind == "nfa":
        observable = brzozowski_minimal(aut, initial)
        machine, init, certificates = (
            observable.machine,
            observable.initial,
            observable.certificates,
        )
    else:
        if len(initial) != 1:
            raise QueryError("minimizing a moore file needs exactly one initial state")
        machine, init = partition_refine(aut, initial[0])
        certificates = {}
    machine_doc = dump_automaton(machine, initial=[init])
    cert_doc = [
        {"pair": [machine.names[p], machine.names[q]], "word": list(word)}
        for (p, q), word in sorted(certificates.items())
    ]
    _emit(args.out, machine_doc, "certificates", cert_doc, ".certs.json")
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
    if value is None:
        return default
    return max(1, min(value, cap))


def _law_checks(max_size: Optional[int]):
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
    checks = _law_checks(args.max_size)
    runner = checks.get(args.law)
    if runner is None:
        raise QueryError(f"unknown law {args.law!r}; known: {', '.join(sorted(checks))}")
    report = runner()
    print(format_report(report))
    if args.law == "chi-wrong":
        known = known_counterexample()
        reproduced = known is not None and any(
            f.instance == known.instance and f.lhs == known.lhs and f.rhs == known.rhs
            for f in report.failures
        )
        if reproduced:
            print("known counterexample reproduced:")
            print(known.render())
            return EXIT_OK
        print("known counterexample NOT reproduced", file=sys.stderr)
        return EXIT_LAW
    return EXIT_OK if report.ok else EXIT_LAW


# ---------------------------------------------------------------------------
# argument parsing


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
    p.add_argument("--mode", choices=["disj", "conj"], help="branching-time reading for nfa files")
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
