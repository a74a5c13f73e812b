"""Command-line interface: file format round-trips, commands, exit statuses."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracekit import (
    GPS,
    LTS,
    NAT,
    NFA,
    RAT,
    AlternatingAut,
    MooreAut,
    WeightedAut,
    WeightedTreeAut,
    alt_to_nfa,
    brzozowski_minimal,
    bt_nfa_trace,
    canonical_det_nfa,
    det_subset,
    det_weighted,
    gps_trace,
    partition_refine,
    wa_trace,
    wta_trace,
)
from tracekit import cli, semantics
from tracekit.automata import TERM, format_tree
from tracekit.weights import BOOL, PartialProb
from tracekit.cli import dump_automaton, load_automaton, main
from tests import cli_pins, corpus

GOLDEN = Path(__file__).parent / "data" / "chi_wrong_counterexample.txt"
EXAMPLES = Path(__file__).parent.parent / "docs" / "examples"


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    if not isinstance(doc, str):
        doc = json_text(doc)
    path.write_text(doc, encoding="utf-8")
    return str(path)


CLASSIC = NFA(2, ["a"], [(0, "a", 0), (0, "a", 1)], accepting=[1], names=["x", "y"])


def classic_file(tmp_path):
    return write_doc(tmp_path, "classic.json", dump_automaton(CLASSIC, initial=[0]))


# --- file format ---------------------------------------------------------


KINDS = {
    "nfa": dump_automaton(CLASSIC, initial=[0]),
    "moore": dump_automaton(
        MooreAut(["a"], [True, False], [[1], [0]], names=["e", "o"]), initial=[0]
    ),
    "weighted": dump_automaton(
        WeightedAut(2, ["a", "b"], RAT, [Fraction(3), Fraction(0)],
                    {(0, "a"): {0: Fraction(1, 2), 1: Fraction(2)}})
    ),
    "wta": dump_automaton(
        WeightedTreeAut(2, [("c", 0), ("b", 2)], NAT,
                        {(0, "b", (1, 1)): 2, (1, "c", ()): 3}, names=["x", "y"])
    ),
    "alternating": dump_automaton(
        AlternatingAut(3, ["a"], [False, True, True],
                       {(0, "a"): [{1}, {2}]}, names=["x", "y", "z"])
    ),
    "lts": dump_automaton(LTS(2, ["a"], {(0, "a"): [1]})),
    "gps": dump_automaton(
        GPS(1, ["a"], {0: {TERM: Fraction(1, 2), ("a", 0): Fraction(1, 2)}})
    ),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_round_trip_is_the_identity_on_canonical_documents(kind):
    doc = KINDS[kind]
    text = json_text(doc)
    loaded, initial = load_automaton(json.loads(text))
    again = dump_automaton(loaded, initial=initial)
    assert json_text(again) == text


def test_loading_canonicalizes_loose_documents():
    doc = {
        "kind": "nfa",
        "states": ["y", "x"],
        "alphabet": ["a"],
        "transitions": [["x", "a", "y"], ["x", "a", "x"]],
        "accepting": ["x"],
    }
    loaded, initial = load_automaton(doc)
    assert loaded.names == ("y", "x")
    out = dump_automaton(loaded, initial=initial)
    # nfa triples sort by (source index, label text, target index), and y has index 0 here
    assert out["transitions"] == [["x", "a", "y"], ["x", "a", "x"]]
    assert "initial" not in out


def test_nfa_triples_sort_by_index_and_label_text_but_lts_triples_by_name():
    """An nfa sorts its triples by (source index, label text, target index),
    so over the alphabet ["b", "a"] the a rows come first; an lts sorts them
    by (source name, label, target name), so with states ["z", "y"] the
    moves of y come first."""
    nfa = NFA(2, ["b", "a"], [(0, "b", 1), (0, "a", 1), (1, "a", 0)], names=["z", "y"])
    lts = LTS(2, ["b", "a"], {(0, "b"): [1], (0, "a"): [1], (1, "a"): [0]}, names=["z", "y"])
    assert dump_automaton(nfa)["transitions"] == [["z", "a", "y"], ["z", "b", "y"], ["y", "a", "z"]]
    assert dump_automaton(lts)["transitions"] == [["y", "a", "z"], ["z", "a", "y"], ["z", "b", "y"]]


# one loadable document per kind, with a state x and a letter a
BASE_DOCS = {
    "nfa": {"kind": "nfa", "states": ["x"], "alphabet": ["a"], "transitions": [], "accepting": []},
    "moore": {
        "kind": "moore", "semiring": "bool", "states": ["x"], "alphabet": ["a"],
        "outputs": {"x": True}, "delta": {"x": {"a": "x"}},
    },
    "weighted": {
        "kind": "weighted", "semiring": "nat", "states": ["x"], "alphabet": ["a"],
        "out": {"x": 1}, "transitions": {"x": {"a": {"x": 1}}},
    },
    "wta": {
        "kind": "wta", "signature": {"c": 0, "f": 1}, "semiring": "nat", "states": ["x"],
        "rules": [{"state": "x", "op": "c", "children": [], "weight": 1}],
    },
    "alternating": {
        "kind": "alternating", "states": ["x"], "alphabet": ["a"],
        "outputs": {"x": True}, "transitions": {"x": {"a": [["x"]]}},
    },
    "lts": {"kind": "lts", "states": ["x"], "alphabet": ["a"], "transitions": [["x", "a", "x"]]},
    "gps": {
        "kind": "gps", "states": ["x"], "alphabet": ["a"],
        "dist": {"x": {"term": "1/2", "moves": [{"label": "a", "to": "x", "prob": "1/2"}]}},
    },
}


def _rule(**changes):
    """The wta base document's rules, its one rule changed."""
    return {"rules": [dict(BASE_DOCS["wta"]["rules"][0], **changes)]}


def _move(**changes):
    """The gps base document's dist, its one move changed (None drops a key)."""
    move = {k: v for k, v in dict({"label": "a", "to": "x", "prob": "1/2"}, **changes).items() if v is not None}
    return {"dist": {"x": {"term": "1/2", "moves": [move]}}}


# (kind, top-level keys replaced in its base document, exit status, stderr):
# one case per rejection branch of the loaders
@pytest.mark.parametrize(
    "breakage",
    [
        ("nfa", {"kind": "pushdown"}, 2,
         "parse error: unknown kind \"pushdown\"; expected one of nfa, moore, weighted, wta, alternating, lts, gps\n"),
        ("nfa", {"bonus": 1}, 2, "parse error: nfa: unexpected keys ['bonus']\n"),
        ("nfa", {"states": ["x", "x"]}, 2, "parse error: nfa: duplicate state names\n"),
        ("nfa", {"transitions": [["x", "a", "ghost"]]}, 3, 'validation error: nfa: transition: unknown state "ghost"\n'),
        ("nfa", {"transitions": [["x", "z", "x"]]}, 3, 'validation error: nfa: transition: unknown label "z"\n'),
        ("nfa", {"kind": 7}, 2, "parse error: document: key 'kind' has the wrong type: 7\n"),
        ("nfa", {"states": "x"}, 2, "parse error: nfa: key 'states' has the wrong type: \"x\"\n"),
        ("nfa", {"alphabet": [1]}, 2, "parse error: nfa: 'alphabet' entries must be strings, got 1\n"),
        ("nfa", {"alphabet": ["a", "a"]}, 2, "parse error: nfa: duplicate alphabet labels\n"),
        ("nfa", {"accepting": ["ghost"]}, 3, 'validation error: nfa: accepting: unknown state "ghost"\n'),
        ("nfa", {"initial": "x"}, 2, "parse error: nfa: key 'initial' has the wrong type: \"x\"\n"),
        ("nfa", {"initial": ["ghost"]}, 3, 'validation error: nfa: initial: unknown state "ghost"\n'),
        ("nfa", {"initial": ["x", "x"]}, 2, "parse error: nfa: duplicate initial states\n"),
        ("nfa", {"transitions": [["x", "a"]]}, 2,
         "parse error: nfa: transitions must be [source, label, target] triples, got [\"x\", \"a\"]\n"),
        ("nfa", {"transitions": [["ghost", "a", "x"]]}, 3, 'validation error: nfa: transition: unknown state "ghost"\n'),
        ("nfa", {"transitions": [["x", 1, "x"]]}, 3, "validation error: nfa: transition: unknown label 1\n"),
        ("moore", {"semiring": "real"}, 2, 'parse error: moore: unknown semiring "real"\n'),
        ("moore", {"outputs": {"ghost": True}}, 3, 'validation error: moore: outputs: unknown state "ghost"\n'),
        ("moore", {"outputs": {"x": 1}}, 2, "parse error: moore: output of x: expected a boolean, got 1\n"),
        ("moore", {"outputs": []}, 2, "parse error: moore: key 'outputs' has the wrong type: []\n"),
        ("moore", {"delta": {"ghost": {"a": "x"}}}, 3, 'validation error: moore: delta: unknown state "ghost"\n'),
        ("moore", {"delta": {"x": 5}}, 2, "parse error: moore: delta of x must be an object\n"),
        ("moore", {"delta": {"x": {"z": "x"}}}, 3, 'validation error: moore: delta of x: unknown label "z"\n'),
        ("moore", {"delta": {"x": {"a": "ghost"}}}, 3, 'validation error: moore: delta of x: unknown state "ghost"\n'),
        ("moore", {"alphabet": ["a", "b"]}, 3, 'validation error: moore: delta of x is missing label "b"\n'),
        ("moore", {"initial": ["ghost"]}, 3, 'validation error: moore: initial: unknown state "ghost"\n'),
        ("weighted", {"out": {"x": -1}}, 2, "parse error: weighted: out of x: expected a natural number, got -1\n"),
        ("weighted", {"out": {"ghost": 1}}, 3, 'validation error: weighted: out: unknown state "ghost"\n'),
        ("weighted", {"transitions": {"ghost": {"a": {"x": 1}}}}, 3,
         'validation error: weighted: transitions: unknown state "ghost"\n'),
        ("weighted", {"transitions": {"x": {"z": {"x": 1}}}}, 3,
         'validation error: weighted: transitions of x: unknown label "z"\n'),
        ("weighted", {"transitions": {"x": {"a": 5}}}, 2,
         "parse error: weighted: successor weights of (x, a) must be an object\n"),
        ("weighted", {"transitions": {"x": {"a": {"ghost": 1}}}}, 3,
         'validation error: weighted: transitions of x: unknown state "ghost"\n'),
        ("weighted", {"transitions": {"x": {"a": {"x": True}}}}, 2,
         "parse error: weighted: weight at (x, a, x): expected a natural number, got true\n"),
        ("weighted", {"semiring": "rat", "out": {"x": True}}, 2,
         "parse error: weighted: out of x: rationals must be exact, got true\n"),
        ("weighted", {"semiring": "rat", "out": {"x": "abc"}}, 2,
         "parse error: weighted: out of x: not a rational: \"abc\" (Invalid literal for Fraction: 'abc')\n"),
        ("weighted", {"semiring": "rat", "out": {"x": [1]}}, 2,
         'parse error: weighted: out of x: expected a "num/den" string, got [1]\n'),
        ("weighted", {"semiring": "rat", "out": {"x": "1/0"}}, 2,
         'parse error: weighted: out of x: not a rational: "1/0" (Fraction(1, 0))\n'),
        ("wta", {"signature": []}, 2, "parse error: wta: key 'signature' has the wrong type: []\n"),
        ("wta", {"signature": {"c": -1}}, 2, 'parse error: wta: arity of "c" must be a natural number, got -1\n'),
        ("wta", {"signature": {"c": True}}, 2, 'parse error: wta: arity of "c" must be a natural number, got true\n'),
        ("wta", {"rules": 5}, 2, "parse error: wta: key 'rules' has the wrong type: 5\n"),
        ("wta", {"rules": [5]}, 2, "parse error: wta: rules must be objects, got 5\n"),
        ("wta", _rule(bonus=1), 2, "parse error: wta: rule: unexpected keys ['bonus']\n"),
        ("wta", _rule(op="g"), 3, 'validation error: wta: rule uses unknown operator "g"\n'),
        ("wta", _rule(op=1), 2, "parse error: wta: rule: key 'op' has the wrong type: 1\n"),
        ("wta", _rule(state="ghost"), 3, 'validation error: wta: rule: unknown state "ghost"\n'),
        ("wta", _rule(children=["ghost"]), 3, 'validation error: wta: rule children: unknown state "ghost"\n'),
        ("wta", _rule(op="f"), 3, 'validation error: wta: rule for "f" lists 0 children, arity is 1\n'),
        ("wta", _rule(weight=-1), 2, "parse error: wta: rule weight: expected a natural number, got -1\n"),
        ("wta", {"rules": [{"state": "x", "op": "c", "children": []}]}, 2,
         "parse error: wta: rule: missing key 'weight'\n"),
        ("wta", {"rules": _rule()["rules"] * 2}, 2, 'parse error: wta: duplicate rule for state x, "c", []\n'),
        ("alternating", {"outputs": {"x": 1}}, 2, "parse error: alternating: output of x: expected a boolean, got 1\n"),
        ("alternating", {"transitions": {"ghost": {"a": [["x"]]}}}, 3,
         'validation error: alternating: transitions: unknown state "ghost"\n'),
        ("alternating", {"transitions": {"x": {"z": [["x"]]}}}, 3,
         'validation error: alternating: transitions of x: unknown label "z"\n'),
        ("alternating", {"transitions": {"x": {"a": ["x"]}}}, 2,
         "parse error: alternating: branch family of (x, a) must be a list of lists\n"),
        ("alternating", {"transitions": {"x": {"a": "x"}}}, 2,
         "parse error: alternating: branch family of (x, a) must be a list of lists\n"),
        ("alternating", {"transitions": {"x": {"a": [["ghost"]]}}}, 3,
         'validation error: alternating: transitions of x: unknown state "ghost"\n'),
        ("lts", {"transitions": [["x", "z", "x"]]}, 3, 'validation error: lts: transition: unknown label "z"\n'),
        ("lts", {"transitions": {}}, 2, "parse error: lts: key 'transitions' has the wrong type: {}\n"),
        ("gps", {"dist": {"ghost": {"term": "1"}}}, 3, 'validation error: gps: dist: unknown state "ghost"\n'),
        ("gps", {"dist": {"x": 5}}, 2, "parse error: gps: distribution of x must be an object\n"),
        ("gps", {"dist": {"x": {"term": "1", "bonus": 1}}}, 2,
         "parse error: gps: distribution of x: unexpected keys ['bonus']\n"),
        ("gps", {"dist": {"x": {"term": "abc"}}}, 2,
         "parse error: gps: term of x: not a rational: \"abc\" (Invalid literal for Fraction: 'abc')\n"),
        ("gps", {"dist": {"x": {"term": "1", "moves": [5]}}}, 2, "parse error: gps: moves of x must be objects\n"),
        ("gps", _move(bonus=1), 2, "parse error: gps: move of x: unexpected keys ['bonus']\n"),
        ("gps", _move(label="z"), 3, 'validation error: gps: move of x: unknown label "z"\n'),
        ("gps", _move(label=1), 3, "validation error: gps: move of x: unknown label 1\n"),
        ("gps", _move(label=None), 2, "parse error: gps: move of x: missing key 'label'\n"),
        ("gps", _move(to="ghost"), 3, 'validation error: gps: move of x: unknown state "ghost"\n'),
        ("gps", _move(to=1), 3, "validation error: gps: move of x: unknown state 1\n"),
        ("gps", _move(prob=None), 2, "parse error: gps: move of x: missing key 'prob'\n"),
        ("gps", _move(prob="1/0"), 2, 'parse error: gps: move of x: not a rational: "1/0" (Fraction(1, 0))\n'),
        ("gps", _move(prob="-1/2"), 3, "validation error: gps: distribution of x has nonpositive or inexact probability "
         "-1/2; distribution of x sums to 1/2, not 1\n"),
        ("gps", _move(prob="3/4"), 3, "validation error: gps: distribution of x sums to 5/4, not 1\n"),
        # a name that is not a string names nothing, as a string outside the index does
        ("nfa", {"accepting": [1]}, 3, "validation error: nfa: accepting: unknown state 1\n"),
        ("wta", _rule(state=1), 3, "validation error: wta: rule: unknown state 1\n"),
        ("wta", _rule(children=[1]), 3, "validation error: wta: rule children: unknown state 1\n"),
        # a name is spelled as the document spells it, in JSON
        ("nfa", {"accepting": [None]}, 3, "validation error: nfa: accepting: unknown state null\n"),
        ("nfa", {"accepting": [True]}, 3, "validation error: nfa: accepting: unknown state true\n"),
        ("nfa", {"initial": ["gh\u00f6st"]}, 3, 'validation error: nfa: initial: unknown state "gh\u00f6st"\n'),
        # a target or a row that fails a whole-column check is reported by
        # the first entry, in document order, that breaks it
        ("moore", {"delta": {"x": {"a": ["x"]}}}, 3, 'validation error: moore: delta of x: unknown state ["x"]\n'),
        ("moore", {"delta": {"x": {"a": None}}}, 3, "validation error: moore: delta of x: unknown state null\n"),
        ("moore", {"delta": {"x": {"a": 1}}}, 3, "validation error: moore: delta of x: unknown state 1\n"),
        ("moore", {"delta": {"x": {"a": "x", "z": "x"}}}, 3, 'validation error: moore: delta of x: unknown label "z"\n'),
        ("moore", {"states": ["x", "y"], "delta": {"x": {"a": "ghost"}, "y": {"z": "x"}}}, 3,
         'validation error: moore: delta of x: unknown state "ghost"\n'),
        ("moore", {"states": ["x", "y"], "delta": {"x": {"z": "x"}, "y": {"a": "ghost"}}}, 3,
         'validation error: moore: delta of x: unknown label "z"\n'),
        ("moore", {"states": ["x", "y"], "delta": {"x": {}, "y": {"a": "ghost"}}}, 3,
         'validation error: moore: delta of y: unknown state "ghost"\n'),
        ("moore", {"outputs": {"ghost": 1, "x": True}}, 3, 'validation error: moore: outputs: unknown state "ghost"\n'),
        ("moore", {"outputs": {"x": 1, "zz": True}}, 2, "parse error: moore: output of x: expected a boolean, got 1\n"),
        # a state that "outputs" omits outputs zero (test_moore_outputs_may_omit_a_state)
        ("moore", {"outputs": {}}, 0, ""),
        ("moore", {"alphabet": [""], "delta": {"x": {"": "x"}}}, 3,
         "validation error: moore: alphabet labels must be nonempty strings\n"),
        ("nfa", {"transitions": [["x", "a", ["x"]]]}, 3, 'validation error: nfa: transition: unknown state ["x"]\n'),
        ("nfa", {"alphabet": [""]}, 3, "validation error: nfa: alphabet labels must be nonempty strings\n"),
        # a document with several faults reports the first entry, in document
        # order, that breaks a check: a name that resolves to nothing raises
        # only after the entries before it have been read (the documents are
        # written with sorted keys, so the extra names sort after x)
        ("weighted", {"transitions": {"x": {"a": {"x": True, "zz": 1}}}}, 2,
         "parse error: weighted: weight at (x, a, x): expected a natural number, got true\n"),
        ("weighted", {"transitions": {"x": {"a": 5, "z": {"x": 1}}}}, 2,
         "parse error: weighted: successor weights of (x, a) must be an object\n"),
        ("weighted", {"out": {"x": -1, "zz": 1}}, 2, "parse error: weighted: out of x: expected a natural number, got -1\n"),
        ("weighted", {"transitions": {"x": {"z": {"x": 1}}, "zz": {}}}, 3,
         'validation error: weighted: transitions of x: unknown label "z"\n'),
        ("alternating", {"transitions": {"x": {"a": ["x"], "z": [["x"]]}}}, 2,
         "parse error: alternating: branch family of (x, a) must be a list of lists\n"),
        ("alternating", {"outputs": {"x": 1, "zz": True}}, 2,
         "parse error: alternating: output of x: expected a boolean, got 1\n"),
        ("gps", {"dist": {"x": {"term": "abc"}, "zz": {}}}, 2,
         "parse error: gps: term of x: not a rational: \"abc\" (Invalid literal for Fraction: 'abc')\n"),
        ("moore", {"semiring": "rat", "outputs": {"x": "1"}, "delta": {"x": {"a": "ghost", "z": "x"}}}, 3,
         'validation error: moore: delta of x: unknown state "ghost"\n'),
        ("moore", {"semiring": "rat", "outputs": {"x": "abc", "zz": "1"}}, 2,
         "parse error: moore: output of x: not a rational: \"abc\" (Invalid literal for Fraction: 'abc')\n"),
    ],
)
def test_bad_documents_are_rejected(tmp_path, capsys, breakage):
    kind, changes, status, err = breakage
    path = write_doc(tmp_path, "bad.json", dict(BASE_DOCS[kind], **changes))
    assert main(["semantics", "--state", "x", "--depth", "1", path]) == status
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("kind", sorted(BASE_DOCS))
def test_base_documents_load(tmp_path, capsys, kind):
    assert main(["semantics", "--state", "x", "--depth", "1", write_doc(tmp_path, "ok.json", BASE_DOCS[kind])]) == 0
    assert capsys.readouterr().err == ""


def test_a_value_json_cannot_spell_is_named_by_its_repr():
    # a document built in Python may hold values that no JSON text parses to
    with pytest.raises(cli.ParseError, match=r'^weighted: out of x: expected a "num/den" string, got Fraction\(1, 2\)$'):
        load_automaton(dict(BASE_DOCS["weighted"], semiring="rat", out={"x": Fraction(1, 2)}))
    with pytest.raises(cli.ValidationError, match=r"^nfa: accepting: unknown state \{1\}$"):
        load_automaton(dict(BASE_DOCS["nfa"], accepting=[{1}]))


_TWO_STATE_MOORE = {
    "kind": "moore", "semiring": "bool", "states": ["x", "y"], "alphabet": ["a"],
    "outputs": {"x": True, "y": False}, "delta": {"x": {"a": "y"}, "y": {"a": "x"}},
}


@pytest.mark.parametrize(
    "command, initial, flags, err",
    [
        ("minimize", ["x", "y"], [], "error: minimizing a moore file needs exactly one initial state\n"),
        ("minimize", None, [], 'error: no initial states: pass --initial or add an "initial" list to the file\n'),
        ("minimize", None, ["--initial", "x,x"], "error: --initial names a state twice\n"),
        ("minimize", None, ["--initial", "ghost"], "error: unknown state 'ghost'\n"),
        ("equiv", None, [], 'error: pass --initial1 or give the file a one-element "initial" list\n'),
        ("equiv", ["x", "y"], ["--initial1", "x"], 'error: pass --initial2 or give the file a one-element "initial" list\n'),
    ],
)
def test_initial_state_checks_exit_6(tmp_path, capsys, command, initial, flags, err):
    """minimize and equiv refuse a missing, repeated or ambiguous initial
    state; equiv compares the file with itself."""
    doc = _TWO_STATE_MOORE if initial is None else dict(_TWO_STATE_MOORE, initial=initial)
    path = write_doc(tmp_path, "m.json", doc)
    assert main([command, path] + ([path] if command == "equiv" else []) + flags) == 6
    assert capsys.readouterr().err == err


def test_weight_typing_is_strict(tmp_path):
    doc = {
        "kind": "weighted",
        "semiring": "nat",
        "states": ["x"],
        "alphabet": ["a"],
        "out": {"x": True},
        "transitions": {},
    }
    assert main(["semantics", "--state", "x", "--depth", "1",
                 write_doc(tmp_path, "w.json", doc)]) == 2
    doc["semiring"] = "rat"
    doc["out"] = {"x": 0.5}
    assert main(["semantics", "--state", "x", "--depth", "1",
                 write_doc(tmp_path, "w2.json", doc)]) == 2
    doc["out"] = {"x": "1/2"}
    assert main(["semantics", "--state", "x", "--depth", "1",
                 write_doc(tmp_path, "w3.json", doc)]) == 0


def test_parse_errors_exit_2(tmp_path):
    path = write_doc(tmp_path, "junk.json", "{not json")
    assert main(["semantics", "--state", "x", "--depth", "1", path]) == 2
    assert main(["semantics", "--state", "x", "--depth", "1",
                 str(tmp_path / "missing.json")]) == 2
    listing = write_doc(tmp_path, "list.json", "[1, 2]")
    assert main(["semantics", "--state", "x", "--depth", "1", listing]) == 2


@pytest.mark.parametrize("semiring, outputs", [("bool", (False, True)), ("nat", (0, 3)), ("rat", (Fraction(0), Fraction(1, 2)))])
def test_moore_outputs_may_omit_a_state(semiring, outputs):
    """A state missing from "outputs" outputs the carrier's zero."""
    doc = dict(_TWO_STATE_MOORE, semiring=semiring, outputs={"y": cli.encode_weight(outputs[1])})
    aut, _ = load_automaton(doc)
    assert aut.outputs == outputs and list(map(type, aut.outputs)) == list(map(type, outputs))


@pytest.mark.parametrize("name", sorted(EXAMPLES.glob("*.json")), ids=lambda path: path.stem)
@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_any_line_ending_prints_as_the_lf_file(tmp_path, capsys, name, newline):
    copy = tmp_path / name.name
    copy.write_bytes(name.read_bytes().replace(b"\n", newline))
    results = []
    for path in (name, copy):
        status = main(["semantics", str(path), "--state", "0", "--depth", "2"])
        results.append((status, capsys.readouterr()))
    assert results[0][0] == 0 and results[0] == results[1]


def test_a_crlf_syntax_error_keeps_its_position(tmp_path, capsys):
    """Line ends are read as "\\n", so positions count one character each."""
    path = tmp_path / "crlf.json"
    path.write_bytes(
        b'{"kind": "moore", "semiring": "bool",\r\n'
        b' "states": ["x"], "alphabet": ["a"], "outputs": {"x": true}, "delta": {"x": {"a": "x"}}\r\n, }'
    )
    assert main(["semantics", str(path), "--state", "x", "--depth", "1"]) == 2
    assert capsys.readouterr().err == (
        "parse error: not valid JSON: Expecting property name enclosed in double quotes: line 3 column 3 (char 128)\n"
    )


@pytest.mark.parametrize("case", ["not-utf8", "missing", "directory", "file-as-directory", "empty-path"])
def test_unreadable_files_exit_2_with_their_error(tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    missing, directory = str(tmp_path / "missing.json"), str(tmp_path)
    file_as_dir = str(EXAMPLES / "nfa-classic.json") + "/"
    path, error = {
        "not-utf8": (str(bad), "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        "missing": (missing, f"[Errno 2] No such file or directory: '{missing}'"),
        "directory": (directory, f"[Errno 21] Is a directory: '{directory}'"),
        # the path is opened as given, not normalized: a trailing slash and
        # the empty path are not read as the file and as "."
        "file-as-directory": (file_as_dir, f"[Errno 20] Not a directory: '{file_as_dir}'"),
        "empty-path": ("", "[Errno 2] No such file or directory: ''"),
    }[case]
    assert main(["semantics", path, "--state", "x", "--depth", "1"]) == 2
    assert capsys.readouterr() == ("", f"parse error: cannot read {path}: {error}\n")


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"kind": "nfa", "kind": "nfa", "states": [], "alphabet": [], "transitions": [], "accepting": []}', "kind"),
        (json.dumps(dict(BASE_DOCS["moore"], outputs="@1", delta="@2"))
         .replace('"@1"', '{"x": true, "x": false}').replace('"@2"', '{"x": {"a": "y", "a": "x"}}'), "x"),
        ('{"kind": "nfa", "states": ["x"], "alphabet": ["a"], "transitions": [], "accepting": [],'
         ' "bonus": {"\\u00e9": 1, "é": 2}}', "é"),
    ],
    ids=["top-level", "moore-outputs-and-delta", "escaped-spelling"],
)
def test_duplicate_keys_exit_2(tmp_path, capsys, text, key):
    """json.loads would keep the last value; the file format rejects the
    document instead, naming the first key repeated in an object."""
    path = write_doc(tmp_path, "dup.json", text)
    assert main(["semantics", path, "--state", "x", "--depth", "1"]) == 2
    assert capsys.readouterr() == ("", f"parse error: duplicate key {json.dumps(key, ensure_ascii=False)}\n")


def _gps_with_moves(moves):
    doc = {"kind": "gps", "alphabet": ["a"], "states": ["x"], "dist": {"x": {"term": "1", "moves": moves}}}
    return json.dumps(doc).encode()


def _rat_out(value):
    doc = {"kind": "weighted", "semiring": "rat", "states": ["x"], "alphabet": ["a"],
           "out": {"x": value}, "transitions": {}}
    return json.dumps(doc).encode()


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe{}",
        b"[" * 100_000 + b"]" * 100_000,
        b'{"kind": "nfa", "states": [' + b"1" * 5000 + b"]}",
        _gps_with_moves(5),
        _gps_with_moves(None),
        _rat_out("1e-10000000"),
        _rat_out("1e5000"),
    ],
    ids=[
        "not-utf8", "nested-too-deep", "integer-too-long", "gps-moves-int", "gps-moves-null",
        "rat-exponent-negative", "rat-exponent-positive",
    ],
)
def test_malformed_inputs_are_parse_errors(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["semantics", "--state", "x", "--depth", "1", str(path)]) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


@pytest.mark.parametrize(
    "value, printed",
    [("1e4299", "1" + "0" * 4299), ("2.5e-3", "1/400"), ("-3/6", "-1/2"), (" 1E+2 ", "100")],
)
def test_rat_strings_within_the_digit_cap_load(tmp_path, capsys, value, printed):
    path = tmp_path / "rat.json"
    path.write_bytes(_rat_out(value))
    assert main(["semantics", "--state", "x", "--depth", "0", str(path)]) == 0
    assert capsys.readouterr().out == f"ε\t{printed}\n"


def _nat_weighted(states, out, transitions):
    return {"kind": "weighted", "semiring": "nat", "states": states, "alphabet": ["a"],
            "out": out, "transitions": transitions}


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["semantics", "--state", "x", "--depth", "1000"],
         _nat_weighted(["x"], {"x": 1}, {"x": {"a": {"x": 100000}}})),
        (["semantics", "--state", "x", "--depth", "1000", "--out", "rows.json"],
         _nat_weighted(["x"], {"x": 1}, {"x": {"a": {"x": 100000}}})),
        # the one-state loop exits 4 at any budget, so the vector 10**5000
        # comes from a chain of two weights of 10**2500
        (["determinize", "--method", "weighted"],
         _nat_weighted(["x", "y", "z"], {"z": 1},
                       {"x": {"a": {"y": 10**2500}}, "y": {"a": {"z": 10**2500}}})),
        # with out only at x every output prints, but the meaning of aa
        # holds the entry 10**5000, or 1/10**5000 over rat
        (["determinize", "--method", "weighted"],
         _nat_weighted(["x", "y", "z"], {"x": 1},
                       {"x": {"a": {"y": 10**2500}}, "y": {"a": {"z": 10**2500}}})),
        (["determinize", "--method", "weighted"],
         dict(_nat_weighted(["x", "y", "z"], {"x": "1"},
                            {"x": {"a": {"y": f"1/{10**2500}"}}, "y": {"a": {"z": f"1/{10**2500}"}}}),
              semiring="rat")),
    ],
    ids=["semantics", "semantics-out", "determinize-weighted", "meaning-nat", "meaning-rat"],
)
def test_values_too_long_to_print_exit_7(tmp_path, capsys, monkeypatch, argv, doc):
    monkeypatch.chdir(tmp_path)
    assert main(argv + [write_doc(tmp_path, "big.json", doc)]) == 7
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a computed value has more than 4300 digits and is not printed\n"
    assert not (tmp_path / "rows.json").exists()


def _paths(doc, prefix=()):
    """Every path into a JSON value, the root () included."""
    yield prefix
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


EXAMPLE_DOCS = {path.name: json.loads(path.read_text(encoding="utf-8")) for path in sorted(EXAMPLES.glob("*.json"))}
EXAMPLE_PATHS = [(name, path) for name, doc in EXAMPLE_DOCS.items() for path in _paths(doc)]
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@given(case=st.sampled_from(EXAMPLE_PATHS), junk=JUNK)
@example(case=("gps-geometric.json", ("dist", "x", "moves")), junk=5)
@settings(max_examples=100, deadline=None)
def test_junk_anywhere_in_a_document_gets_an_exit_status(tmp_path_factory, case, junk):
    """One value of a shipped example replaced by junk: never a traceback."""
    name, path = case
    doc = json.loads(json.dumps(EXAMPLE_DOCS[name]))
    if path:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = junk
    else:
        doc = junk
    target = tmp_path_factory.getbasetemp() / "junk.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    state = EXAMPLE_DOCS[name]["states"][0]
    assert main(["semantics", "--state", state, "--depth", "2", str(target)]) in (0, 2, 3, 4, 6)


# --- semantics -----------------------------------------------------------


def test_semantics_table(tmp_path, capsys):
    path = classic_file(tmp_path)
    assert main(["semantics", "--state", "x", "--depth", "2", path]) == 0
    assert capsys.readouterr().out == "ε\tff\na\ttt\naa\ttt\n"
    assert main(["semantics", "--state", "x", "--depth", "2", "--mode", "conj", path]) == 0
    assert capsys.readouterr().out == "ε\tff\na\tff\naa\tff\n"


@pytest.mark.parametrize(
    "name, depth, trace",
    [
        ("gps-geometric.json", 10, gps_trace),
        ("weighted-rat-halving.json", 8, wa_trace),
        ("wta-nat-product.json", 3, wta_trace),
        ("wta-rat-binary.json", 3, wta_trace),
    ],
)
def test_each_distinct_value_is_rendered_once(monkeypatch, capsys, name, depth, trace):
    """The value formatter, _weight_json, runs once per distinct value
    number of the table, not once per row, and renders each value as
    render_value does."""
    aut, _ = cli.load_file(str(EXAMPLES / name))
    entries = trace(aut, aut.names.index("x"), depth).entries
    expected, rows = list(map(cli.render_value, entries.distinct)), list(map(cli.render_value, entries.values()))
    rendered = []
    encode = cli._weight_json
    monkeypatch.setattr(cli, "_weight_json", lambda *value: rendered.append(str(encode(*value))) or encode(*value))
    assert main(["semantics", str(EXAMPLES / name), "--state", "x", "--depth", str(depth)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert rendered == expected
    assert len(lines) == len(entries) and [line.split("\t")[1] for line in lines] == rows
    if trace is not gps_trace:  # on gps-geometric every word has its own value
        assert len(rendered) < len(lines)


@pytest.mark.parametrize("v", [(2, 3), (4, -1), (1, 5), (1, -1)])
def test_gps_values_outside_the_unit_interval_raise_as_partial_prob_does(v):
    """A gps table value (d, n) outside [0, 1] is refused by the formatter
    with the error PartialProb raises on it."""
    n, d = semantics._ratio(v, 0)
    with pytest.raises(ValueError) as partial_prob:
        PartialProb(Fraction(n, d))
    with pytest.raises(ValueError) as formatter:
        cli._weight_json("gps", n, d)
    assert str(formatter.value) == str(partial_prob.value)
    assert cli._weight_json("gps", 1, 4) == cli.encode_weight(PartialProb(Fraction(1, 4))) == "1/4"


@pytest.mark.parametrize("value", [0.5, float("nan"), None])
def test_encode_weight_refuses_what_is_not_an_exact_carrier_value(value):
    with pytest.raises(TypeError, match="not an exact carrier value"):
        cli.encode_weight(value)


def test_a_float_output_is_not_written():
    """The guard sits where every carrier value is encoded, so neither the
    document nor the Moore writer writes a float."""
    machine = MooreAut(["a"], [Fraction(1, 2), 0.5], [[1], [0]], semiring=RAT)
    with pytest.raises(TypeError, match="0.5"):
        dump_automaton(machine)
    with pytest.raises(TypeError, match="0.5"):
        cli._moore_text(machine, None, "")


def test_semantics_out_file(tmp_path):
    path = classic_file(tmp_path)
    out = tmp_path / "rows.json"
    assert main(["semantics", "--state", "y", "--depth", "1", "--out", str(out), path]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["state"] == "y"
    assert payload["depth"] == 1
    assert payload["rows"] == [
        {"word": [], "value": True},
        {"word": ["a"], "value": False},
    ]


def rows_document(aut, x, depth, mode):
    """The --out rows document as a dict per row and a list per word, as
    the semantics command built it before it wrote the rows as text."""
    kind = cli._KIND_OF[type(aut)]
    table = bt_nfa_trace(aut, x, depth, mode) if mode else cli._KINDS[kind][2](aut, x, depth)
    if kind == "wta":
        rows = [{"tree": format_tree(tree), "value": cli.encode_weight(value)} for tree, value in table.entries.items()]
    else:
        rows = [{"word": list(word), "value": cli.encode_weight(value)} for word, value in table.entries.items()]
    return {"state": aut.names[x], "depth": depth, "rows": rows}


RANDOM_TABLES = {
    "nfa": corpus.rand_nfa, "weighted-rat": corpus.rand_weighted_rat, "weighted-nat": corpus.rand_weighted_nat,
    "alternating": corpus.rand_alternating, "gps": corpus.rand_gps, "moore": lambda rng: corpus.rand_moore(rng, RAT, 6),
    "wta-nat": lambda rng: corpus.rand_wta(rng, NAT), "wta-bool": lambda rng: corpus.rand_wta(rng, BOOL),
}


@given(case=st.sampled_from(sorted(EXAMPLE_DOCS) + sorted(RANDOM_TABLES)), seed=st.integers(0, 2**32 - 1),
       depth=st.integers(0, 4), conj=st.booleans())
@example(case="lts-mixed-labels.json", seed=0, depth=4, conj=False)
@example(case="wta-rat-binary.json", seed=0, depth=3, conj=False)
@settings(max_examples=80, deadline=None)
def test_semantics_out_file_matches_the_row_documents(tmp_path_factory, case, seed, depth, conj):
    """Word and tree tables, from the examples and random machines: the
    --out file is json_text of the row dicts, byte for byte."""
    rng = random.Random(seed)
    aut = load_automaton(EXAMPLE_DOCS[case])[0] if case in EXAMPLE_DOCS else RANDOM_TABLES[case](rng)
    x = rng.randrange(aut.n_states)
    mode = "conj" if conj and isinstance(aut, NFA) else None
    base = tmp_path_factory.mktemp("rows")
    path, out = base / "in.json", base / "rows.json"
    path.write_text(json_text(dump_automaton(aut)), encoding="utf-8")
    argv = ["semantics", str(path), "--state", aut.names[x], "--depth", str(depth), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + (["--mode", mode] if mode else [])) == 0
    assert out.read_bytes() == json_text(rows_document(aut, x, depth, mode)).encode("utf-8")


def test_semantics_weighted_and_gps_values(tmp_path, capsys):
    path = write_doc(tmp_path, "w.json", KINDS["weighted"])
    assert main(["semantics", "--state", "q0", "--depth", "1", path]) == 0
    assert capsys.readouterr().out == "ε\t3\na\t3/2\nb\t0\n"
    gps = write_doc(tmp_path, "g.json", KINDS["gps"])
    assert main(["semantics", "--state", "q0", "--depth", "2", gps]) == 0
    assert capsys.readouterr().out == "ε\t1/2\na\t1/4\naa\t1/8\n"


def test_semantics_wta_prints_trees(tmp_path, capsys):
    path = write_doc(tmp_path, "t.json", KINDS["wta"])
    assert main(["semantics", "--state", "x", "--depth", "2", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "b(c,c)\t18" in lines


def test_semantics_query_errors(tmp_path):
    path = classic_file(tmp_path)
    assert main(["semantics", "--state", "ghost", "--depth", "1", path]) == 6
    lts = write_doc(tmp_path, "l.json", KINDS["lts"])
    assert main(["semantics", "--state", "q0", "--depth", "1", "--mode", "conj", lts]) == 6
    # numeric indices are accepted when no state carries that name
    assert main(["semantics", "--state", "1", "--depth", "1", path]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["semantics", "--state", "²", "--depth", "1"],
        ["minimize", "--initial", "x,²"],
        ["equiv", "--initial1", "²"],
        ["semantics", "--state", "١", "--depth", "0"],
    ],
)
def test_non_ascii_digits_are_unknown_states(tmp_path, capsys, argv):
    """A superscript two passes str.isdigit but not int(), and an Arabic-Indic
    one passes int(); only ASCII digits index a state."""
    if argv[0] == "equiv":
        files = [write_doc(tmp_path, "m.json", KINDS["moore"])] * 2
    else:
        files = [classic_file(tmp_path)]
    spec = "١" if "١" in argv else "²"
    assert main(argv + files) == 6
    assert f"unknown state {spec!r}" in capsys.readouterr().err


# --- determinize ---------------------------------------------------------


def test_determinize_stdout_document(tmp_path, capsys):
    path = classic_file(tmp_path)
    assert main(["determinize", "--method", "subset", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"machine", "embedding"}
    assert payload["embedding"]["method"] == "subset-disj"
    assert payload["embedding"]["embed"] == {"x": "d0", "y": "d1"}
    meanings = payload["embedding"]["stateMeaning"]
    assert meanings["d2"] == ["x", "y"] and meanings["d3"] == []
    assert payload["machine"]["kind"] == "moore"
    assert payload["machine"]["outputs"]["d1"] is True


def test_determinize_out_writes_sidecar(tmp_path):
    path = classic_file(tmp_path)
    out = tmp_path / "det.json"
    assert main(["determinize", "--method", "conj", "--out", str(out), path]) == 0
    machine = json.loads(out.read_text(encoding="utf-8"))
    assert machine["kind"] == "moore"
    sidecar = json.loads((tmp_path / "det.embed.json").read_text(encoding="utf-8"))
    assert sidecar["method"] == "subset-conj"
    assert set(sidecar) == {"method", "embed", "stateMeaning"}


def test_determinize_budget_exceeded(tmp_path, capsys):
    doc = dump_automaton(
        WeightedAut(1, ["a"], RAT, [Fraction(3)], {(0, "a"): {0: Fraction(1, 2)}})
    )
    path = write_doc(tmp_path, "w.json", doc)
    assert main(["determinize", "--method", "weighted", "--budget", "3", path]) == 4
    err = capsys.readouterr().err
    assert "budget exceeded: weighted determinization passed 3" in err
    assert "4 states discovered" in err


def test_canonical_budget_names_the_input_size(tmp_path, capsys):
    # canonical's bound is on its input, two states here, which it refuses before exploring anything
    assert main(["determinize", "--method", "canonical", "--budget", "1", classic_file(tmp_path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: canonical determinization passed 1 with an input of 2 states\n"


# acyclic, so the weight vectors are finite; digests of stdout, the --out
# machine and its .embed.json, measured before det_weighted ran on the
# shared lifted-machine builder
WEIGHTED_DETERMINIZE = {
    "nat": (
        WeightedAut(3, ["a", "b"], NAT, [0, 1, 2],
                    {(0, "a"): {1: 2, 2: 1}, (0, "b"): {2: 3}, (1, "a"): {2: 1}}, names=["x", "y", "z"]),
        {"y": 2, "z": 1},
        ("bc98a99117ba24d3d9831cab3dcd52db613feca63b24ca6fa27a6f94ba29b99e",
         "811b91d4deb0bfa26d71bbdfe38ad2968ebbc1a1f2adde08daa226e6cef9599b",
         "21c709a5645e957744bad8c34ab9377d02d5ecfa6e2228ac543da2aa3328bdbe"),
    ),
    "rat": (
        WeightedAut(3, ["a", "b"], RAT, [Fraction(0), Fraction(1, 2), Fraction(3)],
                    {(0, "a"): {1: Fraction(2, 3), 2: Fraction(1, 4)}, (1, "b"): {2: Fraction(-1, 2)}},
                    names=["x", "y", "z"]),
        {"y": "2/3", "z": "1/4"},
        ("6f552e7296c41acf5c290f681a34621cf05febd777639f0ae15eafdd4bdd88f4",
         "35be9536540ca4277cfd8cfc39bda6e5082d75d3e3f26fe9f382820c20e15e0b",
         "01bbd99e8c4c80a8d1563ee15b57aa436b366097ba29f97171184ab1d7274619"),
    ),
}


@pytest.mark.parametrize("carrier", sorted(WEIGHTED_DETERMINIZE))
def test_determinize_weighted_output_is_pinned(tmp_path, capsys, carrier):
    aut, d3, digests = WEIGHTED_DETERMINIZE[carrier]
    path = write_doc(tmp_path, f"{carrier}.json", dump_automaton(aut))
    assert main(["determinize", "--method", "weighted", path]) == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["embedding"]["stateMeaning"]["d3"] == d3
    out = tmp_path / "det.json"
    assert main(["determinize", "--method", "weighted", "--out", str(out), path]) == 0
    texts = (stdout, out.read_text(encoding="utf-8"), (tmp_path / "det.embed.json").read_text(encoding="utf-8"))
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == digests


def test_semantics_rejects_a_negative_depth(tmp_path, capsys):
    path = classic_file(tmp_path)
    assert main(["semantics", "--state", "x", "--depth", "-3", path]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--depth must be at least 0, got -3" in captured.err


@pytest.mark.parametrize(
    "method, kind, budget",
    [("weighted", "weighted", "0"), ("weighted", "weighted", "-5"), ("canonical", "nfa", "0")],
)
def test_determinize_rejects_a_non_positive_budget(tmp_path, capsys, method, kind, budget):
    path = write_doc(tmp_path, f"{kind}.json", KINDS[kind])
    assert main(["determinize", "--method", method, "--budget", budget, path]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--budget must be positive, got {budget}" in captured.err


@pytest.mark.parametrize("method, kind", [("subset", "nfa"), ("conj", "nfa"), ("alt", "alternating")])
@pytest.mark.parametrize("budget", ["1", "0"])
def test_determinize_refuses_a_budget_for_a_method_without_one(tmp_path, capsys, method, kind, budget):
    path = write_doc(tmp_path, f"{kind}.json", KINDS[kind])
    assert main(["determinize", "--method", method, "--budget", budget, path]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --budget applies to the canonical and weighted methods only, not {method!r}\n"


def test_determinize_method_kind_mismatch(tmp_path):
    path = classic_file(tmp_path)
    assert main(["determinize", "--method", "weighted", path]) == 6
    alt = write_doc(tmp_path, "alt.json", KINDS["alternating"])
    assert main(["determinize", "--method", "subset", alt]) == 6


# every cell a command refuses for the kind of its file: each determinize
# method on each other kind, minimize, equiv with the kind in either file
# position beside a moore file, and semantics --mode
_NEEDS = {"subset": "an nfa", "conj": "an nfa", "canonical": "an nfa", "weighted": "a weighted", "alt": "an alternating"}
_REFUSED = [
    *((("determinize", "--method", method, "{path}"), kind, f"method {method!r} needs {needs} file, got {kind}")
      for method, needs in _NEEDS.items() for kind in KINDS if needs.split()[1] != kind),
    *((("minimize", "{path}"), kind, f"minimize needs an nfa or moore file, got {kind}") for kind in KINDS if kind not in ("nfa", "moore")),
    *((files, kind, f"equiv compares moore files; {{path}} is {kind}")
      for files in (("equiv", "{path}", "{moore}"), ("equiv", "{moore}", "{path}")) for kind in KINDS if kind != "moore"),
    *((("semantics", "{path}", "--state", "x", "--depth", "1", "--mode", "conj"), kind, f"--mode applies to nfa files only, not {kind}")
      for kind in KINDS if kind != "nfa"),
]


@pytest.mark.parametrize("argv, kind, message", _REFUSED)
def test_a_refused_kind_exits_6_with_its_text(tmp_path, capsys, argv, kind, message):
    path = write_doc(tmp_path, f"{kind}.json", KINDS[kind])
    moore = write_doc(tmp_path, "other-moore.json", KINDS["moore"])
    assert main([a.format(path=path, moore=moore) for a in argv]) == 6
    assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")


def test_determinize_alt_and_canonical(tmp_path, capsys):
    alt = write_doc(tmp_path, "alt.json", KINDS["alternating"])
    assert main(["determinize", "--method", "alt", alt]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["embedding"]["method"] == "alt"
    assert payload["machine"]["kind"] == "nfa"
    path = classic_file(tmp_path)
    assert main(["determinize", "--method", "canonical", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["embedding"]["method"] == "canonical"
    meaning = payload["embedding"]["stateMeaning"]
    assert all(isinstance(v, list) for v in meaning.values())


# --- minimize and equiv --------------------------------------------------


def test_minimize_nfa(tmp_path, capsys):
    doc = dump_automaton(
        NFA(3, ["a", "b"],
            [(0, "a", 1), (0, "b", 0), (1, "a", 1), (1, "b", 2),
             (2, "a", 1), (2, "b", 0)],
            accepting=[1], names=["p", "q", "r"]),
        initial=[0],
    )
    path = write_doc(tmp_path, "ends.json", doc)
    assert main(["minimize", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["machine"]["states"]) == 2
    assert len(payload["certificates"]) == 1
    [cert] = payload["certificates"]
    assert sorted(cert) == ["pair", "word"]


def test_minimize_initial_override_and_sidecar(tmp_path):
    path = classic_file(tmp_path)
    out = tmp_path / "min.json"
    assert main(["minimize", "--initial", "x,y", "--out", str(out), path]) == 0
    machine = json.loads(out.read_text(encoding="utf-8"))
    assert machine["kind"] == "moore"
    certs = json.loads((tmp_path / "min.certs.json").read_text(encoding="utf-8"))
    assert isinstance(certs, list)


def test_minimize_requires_an_initial_state(tmp_path):
    doc = dump_automaton(CLASSIC)
    path = write_doc(tmp_path, "bare.json", doc)
    assert main(["minimize", path]) == 6


DUPLICATE_INITIAL = {
    "nfa": (dump_automaton(CLASSIC), "x"),
    "moore": (dump_automaton(MooreAut(["a"], [True, False], [[1], [0]], names=["e", "o"])), "e"),
}


@pytest.mark.parametrize("kind", sorted(DUPLICATE_INITIAL))
@pytest.mark.parametrize("spelling", ["{0},{0}", "{0},0"])
def test_minimize_rejects_an_initial_flag_naming_a_state_twice(tmp_path, capsys, kind, spelling):
    doc, state = DUPLICATE_INITIAL[kind]
    path = write_doc(tmp_path, "m.json", doc)
    assert main(["minimize", "--initial", spelling.format(state), path]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --initial names a state twice\n"


@pytest.mark.parametrize("kind", sorted(DUPLICATE_INITIAL))
@pytest.mark.parametrize("command", ["minimize", "equiv"])
def test_files_listing_an_initial_state_twice_exit_2(tmp_path, capsys, kind, command):
    doc, state = DUPLICATE_INITIAL[kind]
    path = write_doc(tmp_path, "m.json", dict(doc, initial=[state, state]))
    assert main([command, path] if command == "minimize" else [command, path, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: {kind}: duplicate initial states\n"


# letters that JSON escapes, or that a careless encoder would mangle
ODD_LETTERS = ('"', "\\", "\n", "\u2028", "é", "\x07", "a")


def minimize_oracle(aut, initial):
    """The machine and certificate documents that the CLI printed when it
    built one {"pair", "word"} object per certificate and json.dumps'ed them."""
    if isinstance(aut, NFA):
        obs = brzozowski_minimal(aut, initial)
        machine, init, certificates = obs.machine, obs.initial, obs.certificates
    else:
        (x,) = initial
        (machine, init), certificates = partition_refine(aut, x), {}
    certs = [
        {"pair": [machine.names[p], machine.names[q]], "word": list(word)}
        for (p, q), word in certificates.items()
    ]
    return dump_automaton(machine, initial=[init]), certs


def json_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def nested(doc, pad):
    """json_text(doc) at pad: every line after the first indented by pad,
    without the final newline, as the CLI's writers render a document."""
    return json_text(doc)[:-1].replace("\n", "\n" + pad)


@given(seed=st.integers(0, 2**32 - 1), letters=st.lists(st.sampled_from(ODD_LETTERS), min_size=1, max_size=4, unique=True),
       moore=st.booleans())
@example(seed=0, letters=list(ODD_LETTERS), moore=False)
@settings(max_examples=60, deadline=None)
def test_minimize_output_is_byte_identical_to_json_dumps(tmp_path_factory, seed, letters, moore):
    rng = random.Random(seed)
    size = rng.randint(1, 6)
    if moore:
        aut = MooreAut(letters, [rng.random() < 0.5 for _ in range(size)],
                       [[rng.randrange(size) for _ in letters] for _ in range(size)])
        initial = [rng.randrange(size)]
    else:
        trans = {(rng.randrange(size), rng.choice(letters), rng.randrange(size))
                 for _ in range(rng.randint(0, 2 * size * len(letters)))}
        aut = NFA(size, letters, trans, [x for x in range(size) if rng.random() < 0.4])
        initial = sorted({rng.randrange(size) for _ in range(rng.randint(1, 3))})
    machine_doc, certs = minimize_oracle(aut, initial)
    if moore:
        assert certs == []
    base = tmp_path_factory.mktemp("parity")
    path = base / "in.json"
    path.write_text(json_text(dump_automaton(aut, initial=initial)), encoding="utf-8")

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["minimize", str(path)]) == 0
    assert stdout.getvalue() == json_text({"machine": machine_doc, "certificates": certs})

    out = base / "min.json"
    with contextlib.redirect_stdout(io.StringIO()) as quiet:
        assert main(["minimize", "--out", str(out), str(path)]) == 0
    assert quiet.getvalue() == ""
    assert out.read_bytes() == json_text(machine_doc).encode("utf-8")
    assert (base / "min.certs.json").read_bytes() == json_text(certs).encode("utf-8")


# names that JSON escapes: a letter of ODD_LETTERS and an index
def odd_names(rng, size):
    return [f"{rng.choice(ODD_LETTERS)}{i}" for i in range(size)]


def determinize_oracle(aut, method):
    """The machine and embedding documents that the CLI printed when it
    json.dumps'ed one dict holding both."""
    result = {
        "subset": lambda: det_subset(aut, "disj"),
        "conj": lambda: det_subset(aut, "conj"),
        "canonical": lambda: canonical_det_nfa(aut, bound=4),
        "alt": lambda: alt_to_nfa(aut),
        "weighted": lambda: det_weighted(aut),
    }[method]()
    names, det_names = aut.names, result.machine.names

    def meaning(m):
        if method == "weighted":
            return {names[y]: w if isinstance(w, int) else str(w) for y, w in m.items()}
        if method == "canonical":
            return sorted(sorted(names[y] for y in phi) for phi in m)
        return sorted(names[y] for y in m)

    embedding = {
        "method": result.method,
        "embed": {names[x]: det_names[result.embed[x]] for x in range(aut.n_states)},
        "stateMeaning": {det_names[i]: meaning(m) for i, m in result.state_meaning.items()},
    }
    return dump_automaton(result.machine), embedding


DET_CASES = ["subset", "conj", "canonical", "alt", "weighted-nat", "weighted-rat"]
SIGNED_RATS = (Fraction(1), Fraction(-1, 2), Fraction(1, 2), Fraction(-3), Fraction(2, 3))


def random_det_source(rng, case, letters):
    size = rng.randint(1, 4)
    names = odd_names(rng, size)
    if case in ("subset", "conj", "canonical"):
        trans = {(rng.randrange(size), rng.choice(letters), rng.randrange(size))
                 for _ in range(rng.randint(0, 2 * size * len(letters)))}
        return NFA(size, letters, trans, [x for x in range(size) if rng.random() < 0.4], names=names)
    if case == "alt":
        trans = {(x, a): [[y for y in range(size) if rng.random() < 0.5] for _ in range(rng.randint(1, 2))]
                 for x in range(size) for a in letters if rng.random() < 0.7}
        return AlternatingAut(size, letters, [rng.random() < 0.5 for _ in range(size)], trans, names=names)
    # acyclic, so the weighted construction finishes
    semiring, draw = (NAT, lambda: rng.randint(1, 3)) if case == "weighted-nat" else (RAT, lambda: rng.choice(SIGNED_RATS))
    trans = {(x, a): {y: draw() for y in range(x + 1, size) if rng.random() < 0.6}
             for x in range(size) for a in letters}
    out = [draw() if rng.random() < 0.7 else semiring.zero for _ in range(size)]
    return WeightedAut(size, letters, semiring, out, {k: v for k, v in trans.items() if v}, names=names)


@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(DET_CASES),
       letters=st.lists(st.sampled_from(ODD_LETTERS), min_size=1, max_size=3, unique=True))
@example(seed=0, case="weighted-rat", letters=list(ODD_LETTERS[:3]))
@settings(max_examples=80, deadline=None)
def test_determinize_output_is_byte_identical_to_json_dumps(tmp_path_factory, seed, case, letters):
    rng = random.Random(seed)
    aut = random_det_source(rng, case, letters)
    method = case.split("-")[0]
    machine_doc, embedding = determinize_oracle(aut, method)
    base = tmp_path_factory.mktemp("det")
    path = base / "in.json"
    path.write_text(json_text(dump_automaton(aut)), encoding="utf-8")

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["determinize", "--method", method, str(path)]) == 0
    assert stdout.getvalue() == json_text({"machine": machine_doc, "embedding": embedding})

    out = base / "det.json"
    with contextlib.redirect_stdout(io.StringIO()) as quiet:
        assert main(["determinize", "--method", method, "--out", str(out), str(path)]) == 0
    assert quiet.getvalue() == ""
    assert out.read_bytes() == json_text(machine_doc).encode("utf-8")
    assert (base / "det.embed.json").read_bytes() == json_text(embedding).encode("utf-8")


def rendered_or_error(render, *args):
    """render(*args), or the message of the OutputError it raises."""
    try:
        return render(*args)
    except cli.OutputError as exc:
        return f"OutputError: {exc}"


# values each side of the digit cap: 4,300 digits print, 4,301 raise OutputError
NAT_OUTPUTS = st.integers(0, 40) | st.sampled_from([10**4300 - 1, 10**4300])
RAT_OUTPUTS = st.fractions(max_denominator=12) | st.sampled_from(
    [Fraction(-(10**4300 - 1), 7), Fraction(1, 10**4300 - 1), Fraction(-(10**4300), 3), Fraction(1, 10**4300)])


@st.composite
def moore_machines(draw):
    size = draw(st.integers(1, 13))
    names = draw(st.sampled_from(["d", "odd"]))
    names = ([f"d{i}" for i in range(size)] if names == "d" else
             draw(st.lists(st.text(alphabet=ODD_LETTERS, min_size=1, max_size=3), min_size=size, max_size=size, unique=True)))
    letters = draw(st.lists(st.sampled_from(ODD_LETTERS + ("b", "ab")), max_size=3, unique=True))
    semiring = draw(st.sampled_from([BOOL, NAT, RAT]))
    values = {"bool": st.booleans(), "nat": NAT_OUTPUTS, "rat": RAT_OUTPUTS}[semiring.name]
    outputs = draw(st.lists(values, min_size=size, max_size=size))
    delta = draw(st.lists(st.lists(st.integers(0, size - 1), min_size=len(letters), max_size=len(letters)),
                          min_size=size, max_size=size))
    initial = draw(st.none() | st.lists(st.integers(0, size - 1), min_size=1, max_size=3, unique=True))
    return MooreAut(letters, outputs, delta, semiring=semiring, names=names), initial


@given(case=moore_machines())
@example(case=(MooreAut(["b", "a"], [Fraction(-1, 2)] * 12, [[(x + 1) % 12, x] for x in range(12)], semiring=RAT,
                        names=[f"d{i}" for i in range(12)]), [11, 2]))
@settings(max_examples=150, deadline=None)
def test_moore_text_is_the_dumped_document(case):
    """The Moore renderer writes the text of dump_automaton's document: keys
    sorted, delta and outputs in the names' string order (d10 before d2),
    states in index order, and the same OutputError past the digit cap."""
    machine, initial = case
    for pad in ("", "  "):
        expected = rendered_or_error(lambda: nested(dump_automaton(machine, initial), pad))
        assert rendered_or_error(cli._moore_text, machine, initial, pad) == expected


def meaning_docs(result, source):
    """The stateMeaning object of each state, in order, as the CLI built
    them before it wrote the embedding without documents."""
    names, meanings = source.names, result.state_meaning
    if result.method == "weighted":
        return [{names[y]: cli.encode_weight(w) for y, w in meaning.items()} for meaning in meanings.values()]
    if result.method == "canonical":
        return [sorted(sorted(names[y] for y in phi) for phi in meaning) for meaning in meanings.values()]
    return [sorted(names[y] for y in meaning) for meaning in meanings.values()]


def embedding_doc(result, source):
    det_names = result.machine.names
    return {
        "method": result.method,
        "embed": {source.names[x]: det_names[result.embed[x]] for x in range(source.n_states)},
        "stateMeaning": dict(zip(det_names, meaning_docs(result, source))),
    }


@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(DET_CASES + ["weighted-bool"]),
       letters=st.lists(st.sampled_from(ODD_LETTERS), min_size=1, max_size=3, unique=True))
@example(seed=0, case="weighted-rat", letters=list(ODD_LETTERS[:3]))
@settings(max_examples=120, deadline=None)
def test_embedding_text_is_the_embedding_document(seed, case, letters):
    """The embedding renderer writes the text of the document the CLI
    built before, for all five methods and every weighted carrier."""
    rng = random.Random(seed)
    if case == "weighted-bool":
        size = rng.randint(1, 4)
        trans = {(x, a): {y: True for y in range(size) if rng.random() < 0.4} for x in range(size) for a in letters}
        aut = WeightedAut(size, letters, BOOL, [rng.random() < 0.5 for _ in range(size)],
                          {k: v for k, v in trans.items() if v}, names=odd_names(rng, size))
    else:
        aut = random_det_source(rng, case, letters)
    method = case.split("-")[0]
    result = {"subset": lambda: det_subset(aut, "disj"), "conj": lambda: det_subset(aut, "conj"),
              "canonical": lambda: canonical_det_nfa(aut, bound=4), "alt": lambda: alt_to_nfa(aut),
              "weighted": lambda: det_weighted(aut)}[method]()
    for pad in ("", "  "):
        assert cli._embedding_text(result, aut, pad) == nested(embedding_doc(result, aut), pad)


def test_embedding_text_orders_weighted_entries_by_source_name():
    """Meaning entries follow the string order of the source names, not
    their index order: s10 before s2."""
    size = 12
    names = [f"s{i}" for i in range(size)]
    aut = WeightedAut(size, ["a"], NAT, [1] * size, {(0, "a"): {y: y + 1 for y in range(1, size)}}, names=names)
    result = det_weighted(aut)
    text = cli._embedding_text(result, aut, "")
    assert text == nested(embedding_doc(result, aut), "")
    assert text.index('"s10": 11') < text.index('"s2": 3')


def pinned_names(size):
    """x0, x1, ...: x10 sorts before x2, and x7 holds a quote, a backslash
    and an é, which JSON escapes."""
    return [f"x{i}" if i != 7 else 'x"\\é7' for i in range(size)]


# a steps x to x + 1, and every third x also to x + 8; b steps x > 0 to x // 2 and 0 nowhere, to the empty set
PINNED_NFA = NFA(12, ["a", "b"], {(x, "a", (x + 1) % 12) for x in range(12)} | {(x, "a", (x + 8) % 12) for x in range(0, 12, 3)}
                 | {(x, "b", x // 2) for x in range(1, 12)}, [1, 5, 9], names=pinned_names(12))
# a deterministic cycle on a, and b stays put but at 0: canonical meanings of 1,024 predicates, on 12 states
PINNED_CYCLE = NFA(11, ["a", "b"], {(x, "a", (x + 1) % 11) for x in range(11)} | {(x, "b", x) for x in range(1, 11)}, [1, 10],
                   names=pinned_names(11))
# 3's b-family holds the empty branch set, so the translation reaches the empty subset, its accepting sink
PINNED_ALT = AlternatingAut(11, ["a", "b"], [x % 3 == 0 for x in range(11)],
                            {**{(x, "a"): [[(x + 1) % 11]] + [[(x + 9) % 11, (x + 2) % 11]] * (x % 4 == 0) for x in range(11)},
                             **{(x, "b"): [[x // 2]] for x in range(4, 11)}, (3, "b"): [[]]}, names=pinned_names(11))
PINNED_DETERMINIZATIONS = {
    "subset": (PINNED_NFA, lambda aut: det_subset(aut, "disj")),
    "conj": (PINNED_NFA, lambda aut: det_subset(aut, "conj")),
    "alt": (PINNED_ALT, alt_to_nfa),
    "canonical": (PINNED_CYCLE, lambda aut: canonical_det_nfa(aut, bound=11)),
}


@pytest.mark.parametrize("case", list(PINNED_DETERMINIZATIONS))
def test_embedding_text_writes_sets_in_name_order(case):
    """On 11 and 12 states, meanings list names in their string order (x10
    before x2), not in index order; the escaped name is quoted right; and
    the empty subset, conj's accepting [] and alt's accepting sink, lists
    no name."""
    aut, construct = PINNED_DETERMINIZATIONS[case]
    result = construct(aut)
    meanings = list(result.state_meaning.values())
    sets = [phi for meaning in meanings for phi in meaning] if case == "canonical" else meanings
    assert any({2, 7, 10} <= s for s in sets)
    empty = meanings.index(frozenset())
    if case in ("conj", "alt"):
        assert empty in result.machine.accepting if case == "alt" else result.machine.outputs[empty]
    for pad in ("", "  "):
        text, expected = cli._embedding_text(result, aut, pad), nested(embedding_doc(result, aut), pad)
        # line by line, so a failure names a line rather than diffing a megabyte of text
        assert len(text.splitlines()) == len(expected.splitlines())
        for i, (line, want) in enumerate(zip(text.splitlines(), expected.splitlines())):
            assert line == want, f"line {i + 1}"
        assert text == expected
        assert f'"d{empty}": []' in text and '"x\\"\\\\é7"' in text


PINNED_NFA_TEXTS = {
    # x10 and x11 sort before x2, and x7's name needs escapes
    "twelve-states": PINNED_NFA,
    "eleven-states": PINNED_CYCLE,
    "escaped-labels": NFA(3, ['"', "\\", "é", "\n", ""], [(2, "\n", 0), (0, '"', 1), (1, "", 2), (0, "é", 0), (2, "\\", 2)],
                          [2, 0], names=["n\n", "", 'q"\\']),
    "no-accepting-and-no-transitions": NFA(2, ["a"], [], names=["y", "x"]),
    "alphabet-out-of-text-order": NFA(2, ["b", "a", "ab"], [(1, "ab", 0), (1, "a", 1), (0, "b", 1), (0, "a", 0)], [1]),
}


@pytest.mark.parametrize("case", list(PINNED_NFA_TEXTS))
def test_nfa_text_is_the_dumped_document(case):
    """alt's machine writer writes the text of dump_automaton's document:
    accepting names in state order, alphabet and states as declared, and
    the triples in sorted order."""
    n = PINNED_NFA_TEXTS[case]
    for pad in ("", "  "):
        assert cli._nfa_text(n, pad) == nested(dump_automaton(n), pad)


# argvs that every path of the parser sees: valid ones, help, bad values,
# missing and extra arguments, unknown commands and options before the command
PARSER_ARGVS = [
    ["semantics", "f.json", "--state", "x", "--depth", "3"],
    ["semantics", "--state", "x", "f.json", "--depth", "3", "--mode", "conj", "--out", "o.json"],
    ["semantics", "f.json", "--sta", "x", "--depth", "0"],
    ["determinize", "f.json", "--method", "weighted", "--budget", "7", "--out", "d.json"],
    ["minimize", "f.json", "--initial", "a,b"],
    ["equiv", "a.json", "b.json", "--initial1", "p"],
    ["check", "chi-good", "--max-size", "2"],
    ["check", "no-such-law"],
    ["semantics", "-h"],
    ["-h"],
    ["semantics", "f.json", "--depth", "3"],
    ["semantics", "f.json", "--state", "x", "--depth", "x"],
    ["semantics", "f.json", "--state", "x", "--depth", "1", "--foo"],
    ["determinize", "f.json", "--method", "nope"],
    ["check", "chi-good", "extra"],
    ["frobnicate", "f.json"],
    [],
    ["--foo", "semantics", "f.json", "--state", "x", "--depth", "1"],
    ["minimize", "--", "f.json"],
    # one row for each kind of line that the command tables leave to the full parser
    ["semantics", "f.json", "--state=x", "--depth", "1"],
    ["check", "-1"],
    ["minimize", "-"],
    ["semantics", "f.json", "--state", "x", "--depth", "-3"],
    ["minimize", "f.json", "--initial", "a", "--initial", "b"],
    ["minimize", "f.json", "--initial"],
    ["equiv", "a.json"],
    # and plain lines with empty strings
    ["minimize", ""],
    ["semantics", "f.json", "--state", "x", "--depth", "1", "--out", ""],
]


def parsed(parse, argv):
    """vars of the namespace (None on exit), exit code, stdout and stderr."""
    out, err, namespace, code = io.StringIO(), io.StringIO(), None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    return namespace, code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "empty")
def test_command_lines_parse_as_the_full_parser_parses_them(argv):
    """main's parse gives the namespace, output and exit status of
    build_parser().parse_args on every argv."""
    assert parsed(cli._parse_args, argv) == parsed(cli.build_parser().parse_args, argv)


def test_command_tables_read_the_parser_tree():
    """Each command's positionals, option strings, defaults and required
    options, read from the argparse tree's own fields."""
    tables = {name: (positionals, sorted(options), defaults, sorted(required))
              for name, (positionals, options, defaults, required) in cli._command_tables().items()}
    assert tables == {
        "semantics": (["file"], ["--depth", "--mode", "--out", "--state"],
                      dict(file=None, state=None, depth=None, mode=None, out=None, func=cli._cmd_semantics), ["depth", "state"]),
        "determinize": (["file"], ["--budget", "--method", "--out"],
                        dict(file=None, method=None, budget=None, out=None, func=cli._cmd_determinize), ["method"]),
        "minimize": (["file"], ["--initial", "--out"], dict(file=None, initial=None, out=None, func=cli._cmd_minimize), []),
        "equiv": (["file1", "file2"], ["--initial1", "--initial2"],
                  dict(file1=None, file2=None, initial1=None, initial2=None, func=cli._cmd_equiv), []),
        "check": (["law"], ["--max-size"], dict(law=None, max_size=None, func=cli._cmd_check), []),
    }


# per command: the values of each of its positionals and of each option, a good one first
PARSER_VALUES = {
    "semantics": ([["f.json", ""]], {"--state": ["x", "0", ""], "--depth": ["3", "0", "x", "-1", " 2"],
                                   "--mode": ["conj", "disj", "nope"], "--out": ["o.json", "", "a=b"]}),
    "determinize": ([["f.json"]], {"--method": ["weighted", "subset", "nope"], "--budget": ["7", "-5", "1.5"],
                                 "--out": ["d.json"]}),
    "minimize": ([["f.json", "-"]], {"--initial": ["a,b", "-a"], "--out": ["m.json"]}),
    "equiv": ([["a.json"], ["b.json", ""]], {"--initial1": ["p"], "--initial2": ["q", "--initial1"]}),
    "check": ([["chi-good", "-1"]], {"--max-size": ["2", "x", "-3"]}),
}


@st.composite
def command_lines(draw):
    """A command with most of its positionals and options, mostly with good
    values, in any order, sometimes with an extra positional, a repeat, an
    abbreviation, an option without a value or a token that starts with "-".
    About half of these lines are plain ones, which the command tables walk."""
    command = draw(st.sampled_from(sorted(PARSER_VALUES)))
    positionals, options = PARSER_VALUES[command]
    good = lambda values: values[0] if draw(st.integers(0, 3)) else draw(st.sampled_from(values))
    pieces = [[good(values)] for values in positionals if draw(st.integers(0, 9))]
    pieces += [[option, good(values)] for option, values in options.items() if draw(st.integers(0, 3))]
    extra = st.sampled_from(["positional", "repeat", "abbreviated", "bare", "-h", "--", "-", "-1", "--out=o.json", "--foo"])
    extras = draw(st.lists(extra, max_size=2)) if draw(st.integers(0, 2)) == 0 else []
    for kind in extras:
        option = draw(st.sampled_from(sorted(options)))
        pieces.append({"positional": ["x"], "repeat": [option, good(options[option])],
                       "abbreviated": [option[:4], good(options[option])], "bare": [option]}.get(kind, [kind]))
    return [command, *chain.from_iterable(draw(st.permutations(pieces)))]


@settings(max_examples=300, deadline=None)
@given(argv=command_lines())
def test_drawn_command_lines_parse_as_the_full_parser_parses_them(argv):
    assert parsed(cli._parse_args, argv) == parsed(cli.build_parser().parse_args, argv)


@pytest.mark.parametrize("argv", [
    ["semantics", "--state", "x", "--depth", "2", "--out"],
    ["determinize", "--method", "subset", "--out"],
    ["minimize", "--out"],
])
def test_an_unwritable_out_path_exits_7(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "result.json"
    assert main(argv + [str(target), str(EXAMPLES / "nfa-classic.json")]) == 7
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: [Errno 2] ")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv, suffix", [
    (["minimize", "nfa-ends-in-a.json"], ".certs.json"),
    (["determinize", "--method", "weighted", "weighted-nat-branching.json"], ".embed.json"),
])
@pytest.mark.parametrize("blocked", ["machine", "side"])
@pytest.mark.parametrize("before", [None, "old bytes\n"])
def test_an_out_pair_is_written_all_or_nothing(tmp_path, capsys, argv, suffix, blocked, before):
    files = {"machine": tmp_path / "m.json", "side": tmp_path / f"m{suffix}"}
    (other,) = (path for role, path in files.items() if role != blocked)
    files[blocked].mkdir()
    if before is not None:
        other.write_text(before, encoding="utf-8")
    assert main(argv[:-1] + [str(EXAMPLES / argv[-1]), "--out", str(files["machine"])]) == 7
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {files[blocked]}: [Errno 21] ")
    if before is None:
        assert not other.exists()
    else:
        assert other.read_text(encoding="utf-8") == before


OUT_COMMANDS = [
    ["semantics", "--state", "x", "--depth", "2"],
    ["determinize", "--method", "subset"],
    ["minimize"],
]


@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("out, error", [("", "[Errno 2] No such file or directory: ''"), (".", "[Errno 21] Is a directory: '.'")],
                         ids=["empty", "dot"])
def test_an_out_path_without_a_name_exits_7(tmp_path, capsys, monkeypatch, argv, out, error):
    """An empty --out is a path that cannot be opened, not a missing --out;
    like ".", it has no name whose suffix the side file could replace."""
    monkeypatch.chdir(tmp_path)
    assert main(argv + [str(EXAMPLES / "nfa-classic.json"), "--out", out]) == 7
    assert capsys.readouterr() == ("", f"error: cannot write {out}: {error}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=lambda argv: argv[0])
def test_a_failed_write_removes_only_the_files_it_made(tmp_path, capsys, argv):
    """--out m.json/ names no file, and the m.json that exists is kept."""
    kept = tmp_path / "m.json"
    kept.write_text("old bytes\n", encoding="utf-8")
    out = f"{kept}/"
    assert main(argv + [str(EXAMPLES / "nfa-classic.json"), "--out", out]) == 7
    assert capsys.readouterr() == ("", f"error: cannot write {out}: [Errno 21] Is a directory: '{out}'\n")
    assert kept.read_text(encoding="utf-8") == "old bytes\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["m.json"]


EDIT_KEYS = ("kind", "alphabet", "signature", "semiring", "states", "initial", "transitions", "outputs", "rules", "dist", "to", "zz")
EDIT_VALUES = (None, True, 0, -1, 2, 0.5, "", "x", "zz", "1/2", "rat", [], {}, ["x"], ["x", "x"], {"x": 1}, "dfa", *cli.KINDS)


def _edited(rng, doc):
    """doc after one edit at a random place in it: a value replaced by junk,
    an entry deleted, or a key inserted at a random position."""
    path = rng.choice(list(_paths(doc)))
    holder, node = None, doc
    for key in path:
        holder, node = node, node[key]
    junk, edit = json.loads(json.dumps(rng.choice(EDIT_VALUES))), rng.randrange(3)
    if edit == 1 and node and isinstance(node, (dict, list)):
        del node[rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))]
        return doc
    if edit == 2 and isinstance(node, list):
        node.insert(rng.randrange(len(node) + 1), junk)
        return doc
    if edit == 2 and isinstance(node, dict):
        items = list(node.items())
        items.insert(rng.randrange(len(items) + 1), (rng.choice(EDIT_KEYS), junk))
        junk = dict(items)
    if not path:
        return junk
    holder[path[-1]] = junk
    return doc


@pytest.mark.parametrize("seed", range(4))
def test_every_error_in_a_document_of_a_known_kind_names_it_first(seed):
    """Examples edited at random load, or raise ParseError or ValidationError;
    while the kind is a known one, the error text names it first, once."""
    rng = random.Random(seed)
    for _ in range(1500):
        doc = json.loads(json.dumps(EXAMPLE_DOCS[rng.choice(sorted(EXAMPLE_DOCS))]))
        for _ in range(rng.randint(1, 3)):
            doc = _edited(rng, doc)
        try:
            load_automaton(doc)
        except (cli.ParseError, cli.ValidationError) as exc:
            kind = doc.get("kind") if isinstance(doc, dict) else None
            if isinstance(kind, str) and kind in cli.KINDS:
                assert str(exc).startswith(f"{kind}: ") and not str(exc).startswith(f"{kind}: {kind}: "), (doc, exc)


def _repeated_weights(kind):
    """A rat document of each kind whose weights repeat the string "1/2"."""
    half, states = "1/2", ["x", "y"]
    return {
        "weighted": {"kind": "weighted", "semiring": "rat", "states": states, "alphabet": ["a"],
                     "out": {"x": half, "y": half}, "transitions": {"x": {"a": {"x": half, "y": half}}}},
        "moore": {"kind": "moore", "semiring": "rat", "states": states, "alphabet": ["a"],
                  "outputs": {"x": half, "y": half}, "delta": {"x": {"a": "y"}, "y": {"a": "x"}}},
        "wta": {"kind": "wta", "semiring": "rat", "states": states, "signature": {"c": 0, "f": 1},
                "rules": [{"state": "x", "op": "c", "children": [], "weight": half},
                          {"state": "y", "op": "f", "children": ["x"], "weight": half}]},
        "gps": {"kind": "gps", "states": states, "alphabet": ["a"],
                "dist": {"x": {"term": half, "moves": [{"label": "a", "to": "y", "prob": half}]},
                         "y": {"term": half, "moves": [{"label": "a", "to": "x", "prob": half}]}}},
    }[kind]


@pytest.mark.parametrize("kind", ["weighted", "moore", "wta", "gps"])
def test_each_distinct_weight_string_is_parsed_once_per_document(monkeypatch, kind):
    parsed = []
    read = cli._read_weight
    monkeypatch.setattr(cli, "_read_weight", lambda carrier, value: parsed.append(value) or read(carrier, value))
    for _ in range(2):
        load_automaton(_repeated_weights(kind))
    assert [value for value in parsed if isinstance(value, str)] == ["1/2", "1/2"]


def test_a_cached_weight_string_does_not_answer_for_another_type(tmp_path, capsys):
    # True and 1 share a hash, and "1" parses to 1: each is still read as itself
    doc = {"kind": "weighted", "semiring": "rat", "states": ["x", "y", "z"], "alphabet": ["a"],
           "out": {"x": "1", "y": 1, "z": True}, "transitions": {}}
    assert main(["semantics", "--state", "x", "--depth", "0", write_doc(tmp_path, "mixed.json", doc)]) == 2
    assert capsys.readouterr().err == "parse error: weighted: out of z: rationals must be exact, got true\n"


PINS = cli_pins.rows()


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("row", PINS, ids=[f"{i:02d}-{row['argv'][0]}" for i, row in enumerate(PINS)])
def test_pinned_command_lines_hold(tmp_path, monkeypatch, row):
    monkeypatch.chdir(cli_pins.ROOT)
    assert cli_pins.mismatches(row, run_in_process, tmp_path) == []


def _flip(text):
    return chr(ord(text[0]) ^ 1) + text[1:]


@pytest.mark.parametrize("field, corrupt", [
    ("status", lambda status: status + 1),
    ("stdout", _flip),
    ("stdout_sha256", _flip),
    ("stderr", _flip),
    ("out", lambda out: {**out, min(out): _flip(out[min(out)])}),
])
def test_a_pin_broken_on_purpose_fails(tmp_path, monkeypatch, field, corrupt):
    monkeypatch.chdir(cli_pins.ROOT)
    row = next(row for row in PINS if row.get(field) not in (None, "", {}))
    held, broken = tmp_path / "held", tmp_path / "broken"
    held.mkdir()
    broken.mkdir()
    assert cli_pins.mismatches(row, run_in_process, held) == []
    assert len(cli_pins.mismatches(dict(row, **{field: corrupt(row[field])}), run_in_process, broken)) == 1


@pytest.mark.parametrize("argv, name", [
    (["minimize", "docs/examples/nfa-ends-in-a.json"], "stdout"),
    (["minimize", "docs/examples/nfa-ends-in-a.json", "--out", "{tmp}/m.json"], "m.json"),
])
def test_a_non_canonical_document_is_reported(tmp_path, monkeypatch, argv, name):
    """A run that writes a valid document as other text than json.dumps's
    canonical text fails its row, on stdout and in a file it leaves."""
    monkeypatch.chdir(cli_pins.ROOT)
    row = next(row for row in PINS if row["argv"] == argv)

    def compact(argv):
        status, stdout, stderr = run_in_process(argv)
        out = tmp_path / "m.json"
        if out.exists():
            out.write_text(json.dumps(json.loads(out.read_text(encoding="utf-8"))), encoding="utf-8")
        return status, json.dumps(json.loads(stdout)) if stdout else stdout, stderr

    found = cli_pins.mismatches(row, compact, tmp_path)
    assert [line for line in found if "canonical" in line] == [f"{name}: not the canonical text of its JSON document"]


def test_the_console_script_runner_fails_without_the_script(tmp_path):
    done = subprocess.run([sys.executable, cli_pins.__file__], env={**os.environ, "PATH": str(tmp_path)},
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", "tracekit is not on PATH\n")


def test_nth_letter_fixture_minimizes_to_every_pair_of_32_states():
    aut, initial = load_automaton(json.loads((EXAMPLES / "nfa-nth-letter-5.json").read_text(encoding="utf-8")))
    observable = brzozowski_minimal(aut, initial)
    assert observable.machine.n_states == 32
    assert len(observable.certificates) == 496 == len(dict(observable.certificates.items()))
    assert max(map(len, observable.certificates.values())) == 4


def test_equiv(tmp_path, capsys):
    even = dump_automaton(
        MooreAut(["a"], [True, False], [[1], [0]], names=["e", "o"]), initial=[0]
    )
    shifted = dump_automaton(
        MooreAut(["a"], [False, True], [[1], [0]], names=["o", "e"]), initial=[1]
    )
    always = dump_automaton(MooreAut(["a"], [True], [[0]]), initial=[0])
    f1 = write_doc(tmp_path, "even.json", even)
    f2 = write_doc(tmp_path, "shift.json", shifted)
    f3 = write_doc(tmp_path, "always.json", always)
    assert main(["equiv", f1, f2]) == 0
    assert capsys.readouterr().out == "tt\n"
    assert main(["equiv", f1, f3]) == 0
    assert capsys.readouterr().out == "a\n"
    assert main(["equiv", "--initial1", "o", f1, f2]) == 0
    assert capsys.readouterr().out == "ε\n"


def test_equiv_rejects_mismatched_alphabets(tmp_path):
    m1 = dump_automaton(MooreAut(["a"], [True], [[0]]), initial=[0])
    m2 = dump_automaton(MooreAut(["b"], [True], [[0]]), initial=[0])
    f1 = write_doc(tmp_path, "m1.json", m1)
    f2 = write_doc(tmp_path, "m2.json", m2)
    assert main(["equiv", f1, f2]) == 3


def test_equiv_only_accepts_moore_files(tmp_path):
    path = classic_file(tmp_path)
    assert main(["equiv", path, path]) == 6


# --- check ---------------------------------------------------------------


def test_check_chi_good(capsys):
    assert main(["check", "chi-good"]) == 0
    out = capsys.readouterr().out
    assert "law: naturality:chi-good" in out
    assert "failures: 0" in out


def test_check_chi_wrong_reproduces_the_counterexample(capsys):
    assert main(["check", "chi-wrong"]) == 0
    out = capsys.readouterr().out
    assert "known counterexample reproduced:" in out
    assert GOLDEN.read_text(encoding="utf-8").strip() in out


def test_check_chi_wrong_needs_three_points(capsys):
    assert main(["check", "chi-wrong", "--max-size", "2"]) == 5
    captured = capsys.readouterr()
    assert "failures: 0" in captured.out
    assert "NOT reproduced" in captured.err


@pytest.mark.parametrize("size", ["0", "-3"])
def test_check_rejects_a_max_size_below_one(capsys, size):
    """A --max-size below 1 is an error, not the size-1 run it once was."""
    assert main(["check", "identity-nat", "--max-size", size]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --max-size must be at least 1, got {size}\n"


def test_check_clamps_a_max_size_above_the_cap(capsys):
    assert main(["check", "identity-nat", "--max-size", "100"]) == 0
    above = capsys.readouterr().out
    assert main(["check", "identity-nat", "--max-size", "6"]) == 0
    assert capsys.readouterr().out == above


def test_check_other_laws(capsys):
    assert main(["check", "identity-nat"]) == 0
    assert main(["check", "action-diamond"]) == 0
    assert main(["check", "monad-box"]) == 0
    assert main(["check", "diagram-subset", "--max-size", "2"]) == 0
    capsys.readouterr()


def test_check_unknown_law_lists_the_registry(capsys):
    assert main(["check", "flux-capacitance"]) == 6
    err = capsys.readouterr().err
    for name in ("chi-good", "chi-wrong", "diagram-alt", "exchange"):
        assert name in err


def test_shipped_fixtures_are_canonical():
    fixtures = sorted(EXAMPLES.glob("*.json"))
    assert len(fixtures) >= 7
    kinds = set()
    for path in fixtures:
        text = path.read_text(encoding="utf-8")
        loaded, initial = load_automaton(json.loads(text))
        kinds.add(json.loads(text)["kind"])
        assert json_text(dump_automaton(loaded, initial=initial)) == text
    assert kinds == {"nfa", "moore", "weighted", "wta", "alternating", "lts", "gps"}


def test_cli_entry_point_runs_as_a_subprocess(tmp_path):
    path = classic_file(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "tracekit.cli", "semantics",
         "--state", "x", "--depth", "1", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "ε\tff\na\ttt\n"


def test_a_stdout_closed_by_its_reader_ends_quietly_with_status_7(tmp_path):
    """`tracekit minimize nth-8.json | head -c 100`: the reader leaves after a
    few bytes of the 3.3 MB of certificates, and the command exits 7 with
    nothing on stderr, no traceback."""
    n = 8
    steps = [[f"q{i}", a, f"q{i + 1}"] for i in range(1, n) for a in "ab"]
    doc = {"kind": "nfa", "alphabet": ["a", "b"], "states": [f"q{i}" for i in range(n + 1)], "accepting": [f"q{n}"],
           "transitions": [["q0", "a", "q0"], ["q0", "a", "q1"], ["q0", "b", "q0"], *steps], "initial": ["q0"]}
    path = write_doc(tmp_path, "nth-8.json", doc)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "tracekit.cli", "minimize", path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.read(100).startswith(b'{\n  "certificates": [')
        proc.stdout.close()
        assert proc.wait(timeout=60) == cli.EXIT_OUTPUT
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


def test_one_parser_serves_every_call(capsys):
    """main builds its argparse tree and its command tables once; every call
    prints the usage, errors and help, and returns the exit status, of a
    freshly built tree."""
    argvs = [
        [],
        ["semantics"],
        ["semantics", "f.json", "--state", "x", "--depth", "two"],
        ["determinize", "f.json", "--method", "nope"],
        ["check", "--help"],
        ["--help"],
        ["check", "no-such-law"],
        ["semantics", str(EXAMPLES / "nfa-classic.json"), "--state", "x", "--depth", "2"],
    ]

    def run(argv):
        status = main(argv)
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    def clear():
        cli.build_parser.cache_clear()
        cli._command_tables.cache_clear()

    fresh = []
    for argv in argvs:
        clear()
        fresh.append(run(argv))
    clear()
    assert [run(argv) for argv in argvs + argvs] == fresh + fresh
    assert cli.build_parser.cache_info().misses == 1
    assert cli._command_tables.cache_info().misses == 1
    assert {status for status, _, _ in fresh} == {0, 2, 6}
