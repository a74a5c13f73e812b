"""Independent checks of CLI output.

Every job's stdout is checked here against an answer that does not come from
the code under test: `tests/oracles.py` (per-word recursive reference
semantics), walks over the benchmark's own input documents, and closed-form
facts about the generated families. Automata for the oracles are built from
the benchmark's documents with the plain constructors, not with the CLI
loader, so a loader bug cannot hide itself.
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Word = Tuple[str, ...]


class Mismatch(Exception):
    """A job's output disagrees with the independent answer."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


_ORACLES = None


def load_oracles(root: Path) -> None:
    """Import the repository's reference semantics; call after tracekit is importable."""
    global _ORACLES
    spec = importlib.util.spec_from_file_location("bench_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    _ORACLES = module


def _tk():
    return sys.modules["tracekit"]


# ---------------------------------------------------------------------------
# documents -> automata (constructors only) and reference values


def _weight(semiring: str, value: Any) -> Any:
    if semiring == "rat":
        return Fraction(str(value))
    if semiring == "nat":
        return int(value)
    return bool(value)


def build(doc: Dict[str, Any]):
    """The automaton a document describes, built with the plain constructors.

    An LTS becomes the NFA in which every state accepts, which has the same
    finite traces.
    """
    tk = _tk()
    names = doc["states"]
    idx = {s: i for i, s in enumerate(names)}
    kind = doc["kind"]
    if kind in ("nfa", "lts"):
        triples = [(idx[p], a, idx[q]) for p, a, q in doc["transitions"]]
        accepting = range(len(names)) if kind == "lts" else [idx[x] for x in doc["accepting"]]
        return tk.NFA(len(names), doc["alphabet"], triples, accepting, names=names)
    if kind == "alternating":
        trans = {
            (idx[x], a): [[idx[y] for y in member] for member in fam]
            for x, row in doc["transitions"].items()
            for a, fam in row.items()
        }
        outputs = [bool(doc["outputs"].get(s, False)) for s in names]
        return tk.AlternatingAut(len(names), doc["alphabet"], outputs, trans, names=names)
    if kind == "weighted":
        sr = doc["semiring"]
        trans = {
            (idx[x], a): {idx[y]: _weight(sr, w) for y, w in vec.items()}
            for x, row in doc["transitions"].items()
            for a, vec in row.items()
        }
        out = [_weight(sr, doc["out"].get(s, 0)) for s in names]
        return tk.WeightedAut(len(names), doc["alphabet"], tk.SEMIRINGS[sr], out, trans, names=names)
    if kind == "gps":
        dist = {}
        for x, row in doc["dist"].items():
            entries: Dict[Any, Fraction] = {}
            if "term" in row and Fraction(row["term"]) != 0:
                entries[tk.TERM] = Fraction(row["term"])
            for move in row.get("moves", ()):
                key = (move["label"], idx[move["to"]])
                entries[key] = entries.get(key, Fraction(0)) + Fraction(move["prob"])
            dist[idx[x]] = entries
        return tk.GPS(len(names), doc["alphabet"], dist, names=names)
    if kind == "wta":
        sr = doc["semiring"]
        rules = {
            (idx[r["state"]], r["op"], tuple(idx[c] for c in r["children"])): _weight(sr, r["weight"])
            for r in doc["rules"]
        }
        return tk.WeightedTreeAut(len(names), list(doc["signature"].items()), tk.SEMIRINGS[sr], rules, names=names)
    raise ValueError(f"no oracle for kind {kind!r}")


def render(value: Any) -> str:
    if isinstance(value, bool):
        return "tt" if value else "ff"
    return str(value)


def moore_run(doc: Dict[str, Any], state: str, word: Sequence[str]) -> Any:
    for a in word:
        state = doc["delta"][state][a]
    return doc["outputs"][state]


def _moore_render(doc: Dict[str, Any], value: Any) -> str:
    if doc.get("semiring", "bool") == "bool":
        require(isinstance(value, bool), f"moore output {value!r} is not Boolean")
        return render(value)
    return str(Fraction(str(value)))


def reference(doc: Dict[str, Any], mode: Optional[str] = None) -> Callable[[str, Any], str]:
    """(state name, word or tree) -> the rendered value the table must show."""
    o = _ORACLES
    kind = doc["kind"]
    if kind == "moore":
        return lambda s, w: _moore_render(doc, moore_run(doc, s, w))
    aut = build(doc)
    idx = {s: i for i, s in enumerate(doc["states"])}
    if kind in ("nfa", "lts"):
        f = o.nfa_conj_value if mode == "conj" else o.nfa_accepts
        return lambda s, w: render(f(aut, idx[s], tuple(w)))
    if kind == "alternating":
        return lambda s, w: render(o.alt_accepts(aut, idx[s], tuple(w)))
    if kind == "weighted":
        return lambda s, w: render(o.wa_value(aut, idx[s], tuple(w)))
    if kind == "gps":
        return lambda s, w: render(o.gps_mass(aut, idx[s], tuple(w)))
    return lambda s, t: render(o.wta_value(aut, idx[s], t))


# ---------------------------------------------------------------------------
# words and trees as the CLI prints them


def parse_word(label: str, alphabet: Sequence[str]) -> Word:
    if label == "ε":
        return ()
    word = tuple(label.split("·")) if "·" in label else tuple(label)
    require(all(a in alphabet for a in word), f"word {label!r} leaves the alphabet")
    return word


def parse_tree(label: str, arity: Dict[str, int]):
    Tree = _tk().Tree
    pos = 0

    def node():
        nonlocal pos
        start = pos
        while pos < len(label) and label[pos] not in "(),":
            pos += 1
        op = label[start:pos]
        require(op in arity, f"tree {label!r} uses unknown operator {op!r}")
        children = []
        if pos < len(label) and label[pos] == "(":
            pos += 1
            children.append(node())
            while label[pos] == ",":
                pos += 1
                children.append(node())
            require(label[pos] == ")", f"tree {label!r} is malformed")
            pos += 1
        require(len(children) == arity[op], f"tree {label!r} has a wrong arity at {op!r}")
        return Tree(op, tuple(children))

    try:
        tree = node()
    except IndexError:
        raise Mismatch(f"tree {label!r} is truncated") from None
    require(pos == len(label), f"tree {label!r} has trailing text")
    return tree


def _height(t) -> int:
    return 1 + max(map(_height, t.children)) if t.children else 0


def tree_count(arity: Dict[str, int], depth: int) -> int:
    """Number of arity-correct trees of height at most depth."""
    leaves = sum(1 for ar in arity.values() if ar == 0)
    total = leaves
    for _ in range(depth):
        total = leaves + sum(total ** ar for ar in arity.values() if ar > 0)
    return total


def sample_words(rng: random.Random, alphabet: Sequence[str], max_len: int, count: int) -> List[Word]:
    words = [()]
    while len(words) < count:
        words.append(tuple(rng.choice(alphabet) for _ in range(rng.randint(1, max_len))))
    return words


# ---------------------------------------------------------------------------
# per-command checks; each raises Mismatch


def table(out: str, doc: Dict[str, Any], state: str, depth: int, rng: random.Random,
          mode: Optional[str] = None, samples: int = 40) -> None:
    """A `semantics` table: total on all words (trees) up to the depth, and
    equal to the reference on every row up to length 3 (height 1) and on
    sampled longer rows."""
    value = reference(doc, mode)
    rows = {}
    for line in out.splitlines():
        label, tab, shown = line.partition("\t")
        require(tab == "\t", f"row {line!r} has no value")
        rows[label] = shown
    if doc["kind"] == "wta":
        arity = dict(doc["signature"])
        expected = tree_count(arity, depth)
        keys = {label: parse_tree(label, arity) for label in rows}
        size = {label: _height(t) for label, t in keys.items()}
        short = 1
    else:
        alphabet = doc["alphabet"]
        expected = sum(len(alphabet) ** k for k in range(depth + 1))
        keys = {label: parse_word(label, alphabet) for label in rows}
        size = {label: len(w) for label, w in keys.items()}
        short = 3
    require(max(size.values()) <= depth, "a row is beyond the depth")
    require(len(out.splitlines()) == expected and len(set(keys.values())) == expected,
            f"table has {len(rows)} distinct rows, expected {expected}")
    longer = sorted(label for label in rows if size[label] > short)
    checked = [label for label in rows if size[label] <= short] + rng.sample(longer, min(samples, len(longer)))
    for label in checked:
        want = value(state, keys[label])
        require(rows[label] == want, f"row {label!r}: printed {rows[label]}, reference {want}")


_METHOD_NAMES = {"subset": "subset-disj", "conj": "subset-conj"}


def determinized(out: str, doc: Dict[str, Any], method: str, rng: random.Random,
                 max_len: int = 7, words_per_state: int = 12) -> None:
    """A `determinize` result: every source state's embedding shows the
    reference semantics on sampled words (conjunctive reading for conj)."""
    data = json.loads(out)
    machine, embedding = data["machine"], data["embedding"]
    require(embedding["method"] == _METHOD_NAMES.get(method, method), f"method is {embedding['method']!r}")
    embed = embedding["embed"]
    require(sorted(embed) == sorted(doc["states"]), "embedding does not cover the source states")
    value = reference(doc, "conj" if method == "conj" else None)
    kind = "nfa" if method == "alt" else "moore"
    require(machine["kind"] == kind, f"result is not an {kind} file")
    det = reference(machine)
    for x in doc["states"]:
        for w in sample_words(rng, doc["alphabet"], max_len, words_per_state):
            require(det(embed[x], w) == value(x, w), f"state {x} on {''.join(w)!r} disagrees with the reference")


def _reachable(machine: Dict[str, Any], start: str) -> int:
    seen = {start}
    todo = [start]
    while todo:
        s = todo.pop()
        for t in machine["delta"][s].values():
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return len(seen)


def minimized(out: str, doc: Dict[str, Any], initial: Sequence[str], rng: random.Random,
              expect_states: Optional[int] = None, max_certs: int = 2000) -> None:
    """A `minimize` result. For an nfa: every state reachable, one certificate
    per pair of states, sampled (or all) certificates really separate their
    pair, and the language matches the reference on sampled words. Reachable
    plus pairwise separated is minimal, so with all certificates checked this
    proves minimality. For a moore file the state count is compared with an
    answer worked out from the input."""
    data = json.loads(out)
    machine, certs = data["machine"], data["certificates"]
    states = machine["states"]
    n = len(states)
    require(len(machine["initial"]) == 1, "result has no single initial state")
    init = machine["initial"][0]
    require(_reachable(machine, init) == n, "result has unreachable states")
    if expect_states is not None:
        require(n == expect_states, f"result has {n} states, expected {expect_states}")
    if doc["kind"] == "nfa":
        require(len(certs) == n * (n - 1) // 2, f"{len(certs)} certificates for {n} states")
        pairs = {tuple(c["pair"]) for c in certs}
        require(len(pairs) == len(certs) and all(p != q for p, q in pairs), "certificate pairs repeat")
        chosen = certs if len(certs) <= max_certs else rng.sample(certs, max_certs)
        for c in chosen:
            p, q = c["pair"]
            w = c["word"]
            require(moore_run(machine, p, w) != moore_run(machine, q, w), f"certificate {w} does not separate {p}, {q}")
        value = reference(doc)
        accepts = lambda w: "tt" if any(value(x, w) == "tt" for x in initial) else "ff"
    else:
        require(certs == [], "a moore minimization printed certificates")
        accepts = lambda w: _moore_render(doc, moore_run(doc, initial[0], w))
    for w in sample_words(rng, doc["alphabet"], 12, 40):
        require(_moore_render(machine, moore_run(machine, init, w)) == accepts(w),
                f"minimized language differs on {''.join(w)!r}")


def moore_min_states(doc: Dict[str, Any], initial: str) -> int:
    """Minimal state count of a small moore machine by brute force: distinct
    output signatures, over all words shorter than the state count, of the
    states reachable from initial."""
    n = len(doc["states"])
    words = [()]
    frontier = [()]
    for _ in range(n - 1):
        frontier = [w + (a,) for w in frontier for a in doc["alphabet"]]
        words.extend(frontier)
    seen = {initial}
    todo = [initial]
    while todo:
        s = todo.pop()
        for t in doc["delta"][s].values():
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return len({tuple(moore_run(doc, s, w) for w in words) for s in seen})


def exact(out: str, want: str) -> None:
    require(out == want, f"printed {out[:80]!r}, expected {want[:80]!r}")


def law(out: str, rc: int, expect_rc: int, counterexample: Optional[str]) -> None:
    """A `check` report: the known exit status, a positive instance count,
    no failures for a law that holds, and the known counterexample text for
    the negative control."""
    lines = out.splitlines()
    require(len(lines) >= 3 and lines[0].startswith("law: "), "report header missing")
    require(lines[1].startswith("instances checked: ") and int(lines[1].split(": ")[1]) > 0,
            "report checked no instances")
    if counterexample is None:
        require(rc == expect_rc == 0 and lines[2] == "failures: 0", f"law reported {lines[2]!r}")
    elif expect_rc == 0:
        require("known counterexample reproduced:\n" + counterexample in out,
                "known counterexample not in the report")
    require(rc == expect_rc, f"exit status {rc}, expected {expect_rc}")
