"""Command-line interface: file format round-trips, commands, exit statuses."""

import json
import subprocess
import sys
from fractions import Fraction
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
)
from tracekit.automata import TERM
from tracekit.cli import (
    dump_automaton,
    load_automaton,
    main,
    serialize_document,
)

GOLDEN = Path(__file__).parent / "data" / "chi_wrong_counterexample.txt"
EXAMPLES = Path(__file__).parent.parent / "docs" / "examples"


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    if not isinstance(doc, str):
        doc = serialize_document(doc)
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
    text = serialize_document(doc)
    loaded, initial = load_automaton(json.loads(text))
    again = dump_automaton(loaded, initial=initial)
    assert serialize_document(again) == text


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
    # canonical order is by state/letter/target index, and y has index 0 here
    assert out["transitions"] == [["x", "a", "y"], ["x", "a", "x"]]
    assert "initial" not in out


@pytest.mark.parametrize(
    "breakage",
    [
        {"kind": "pushdown"},
        {"bonus": 1},
        {"states": ["x", "x"]},
        {"transitions": [["x", "a", "ghost"]]},
        {"transitions": [["x", "z", "x"]]},
    ],
)
def test_bad_documents_are_rejected(tmp_path, breakage):
    doc = {
        "kind": "nfa",
        "states": ["x"],
        "alphabet": ["a"],
        "transitions": [],
        "accepting": [],
    }
    doc.update(breakage)
    path = write_doc(tmp_path, "bad.json", doc)
    rc = main(["semantics", "--state", "x", "--depth", "1", path])
    assert rc in (2, 3)
    # unknown kinds, unknown keys and duplicate names are parse problems
    if "kind" in breakage or "bonus" in breakage or "states" in breakage:
        assert rc == 2
    else:
        assert rc == 3


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


def _gps_with_moves(moves):
    doc = {"kind": "gps", "alphabet": ["a"], "states": ["x"], "dist": {"x": {"term": "1", "moves": moves}}}
    return json.dumps(doc).encode()


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe{}",
        b"[" * 100_000 + b"]" * 100_000,
        b'{"kind": "nfa", "states": [' + b"1" * 5000 + b"]}",
        _gps_with_moves(5),
        _gps_with_moves(None),
    ],
    ids=["not-utf8", "nested-too-deep", "integer-too-long", "gps-moves-int", "gps-moves-null"],
)
def test_malformed_inputs_are_parse_errors(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["semantics", "--state", "x", "--depth", "1", str(path)]) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


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


def test_determinize_method_kind_mismatch(tmp_path):
    path = classic_file(tmp_path)
    assert main(["determinize", "--method", "weighted", path]) == 6
    alt = write_doc(tmp_path, "alt.json", KINDS["alternating"])
    assert main(["determinize", "--method", "subset", alt]) == 6


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
        assert serialize_document(dump_automaton(loaded, initial=initial)) == text
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
