"""Depth-bounded trace tables for every machine kind, against slow oracles."""

import io
import json
import random
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracekit import (
    BOOL,
    GPS,
    LTS,
    NFA,
    NAT,
    RAT,
    TERM,
    AlternatingAut,
    BudgetExceeded,
    MooreAut,
    PartialProb,
    Tree,
    UnknownStateError,
    WeightedAut,
    WeightedTreeAut,
    all_trees,
    alt_trace,
    bottom_up_algebra,
    bt_nfa_trace,
    check_correctness,
    det_subset,
    det_weighted,
    fold_tree,
    format_tree,
    format_word,
    gps_trace,
    length_semantics,
    lts_traces,
    moore_trace,
    nfa_trace,
    wa_trace,
    wta_trace,
)
from tracekit import semantics
from tracekit.cli import dump_automaton, encode_weight, load_automaton, main, render_value
from tests import oracles
from tests.corpus import (
    nfa_as_bool_wa,
    rand_alternating,
    rand_gps,
    rand_moore,
    rand_moore_bool,
    rand_nfa,
    rand_weighted_nat,
    rand_weighted_rat,
    rand_wta,
)

CLASSIC = NFA(2, ["a"], [(0, "a", 0), (0, "a", 1)], accepting=[1], names=["x", "y"])


def test_table_orders_words_by_alphabet():
    """Words of one length come in declared letter order, first letter most
    significant, as the view reads a word's index off its letters."""
    n = NFA(1, ("b", "a"), [], accepting=[0])
    assert list(nfa_trace(n, 0, 2).entries) == [
        (),
        ("b",),
        ("a",),
        ("b", "b"),
        ("b", "a"),
        ("a", "b"),
        ("a", "a"),
    ]


def test_format_word_separator():
    assert format_word(()) == "ε"
    assert format_word(("a", "b")) == "ab"
    assert format_word(("in", "out")) == "in·out"


def test_nfa_trace_classic():
    t = nfa_trace(CLASSIC, 0, 2)
    assert t[()] is False
    assert t[("a",)] is True
    assert t[("a", "a")] is True
    assert len(t.entries) == 3


def test_nfa_trace_edge_tables():
    dead = NFA(1, ["a"], [], accepting=[])
    assert set(nfa_trace(dead, 0, 3).entries.values()) == {False}
    sink = NFA(1, ["a"], [(0, "a", 0)], accepting=[0])
    assert set(nfa_trace(sink, 0, 3).entries.values()) == {True}


def test_nfa_trace_unknown_state():
    with pytest.raises(UnknownStateError):
        nfa_trace(CLASSIC, 9, 1)


def test_length_semantics_examples():
    hop = NFA(2, ["a"], [(0, "a", 1)], accepting=[1])
    lengths = length_semantics(hop, 0, 3)
    assert lengths == {0: False, 1: True, 2: False, 3: False}
    lone = NFA(1, ["a"], [], accepting=[0])
    assert length_semantics(lone, 0, 2) == {0: True, 1: False, 2: False}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_length_semantics_abstracts_the_language(seed):
    n = rand_nfa(random.Random(seed), max_states=4, max_letters=2)
    table = nfa_trace(n, 0, 4)
    lengths = length_semantics(n, 0, 4)
    for k in range(5):
        assert lengths[k] == any(v for w, v in table.entries.items() if len(w) == k)


def test_lts_traces_examples():
    dead = LTS(1, ["a"], {})
    t = lts_traces(dead, 0, 2)
    assert t[()] is True and t[("a",)] is False and t[("a", "a")] is False
    hop = LTS(2, ["a"], {(0, "a"): [1]})
    t = lts_traces(hop, 0, 2)
    assert (t[()], t[("a",)], t[("a", "a")]) == (True, True, False)
    loop = LTS(1, ["a"], {(0, "a"): [0]})
    assert all(lts_traces(loop, 0, 4).entries.values())


def test_conjunctive_vacuous_truth():
    n = NFA(1, ["a"], [], accepting=[])
    t = bt_nfa_trace(n, 0, 2, "conj")
    assert t[()] is False
    assert t[("a",)] is True
    assert t[("a", "a")] is True


def test_conjunctive_fails_on_one_bad_branch():
    n = NFA(3, ["a"], [(0, "a", 1), (0, "a", 2)], accepting=[1], names=["x", "y", "z"])
    assert bt_nfa_trace(n, 0, 1, "conj")[("a",)] is False
    assert bt_nfa_trace(n, 0, 1, "disj")[("a",)] is True


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_disjunctive_mode_is_nfa_trace(seed):
    n = rand_nfa(random.Random(seed), max_states=4, max_letters=2)
    for x in range(n.n_states):
        assert bt_nfa_trace(n, x, 4, "disj").entries == nfa_trace(n, x, 4).entries


def test_alt_trace_examples():
    a = AlternatingAut(
        3, ["a"], [False, True, False], {(0, "a"): [[1], [2]]}, names=["x", "y", "z"]
    )
    assert alt_trace(a, 0, 1)[("a",)] is True
    b = AlternatingAut(3, ["a"], [False, True, False], {(0, "a"): [[1, 2]]})
    assert alt_trace(b, 0, 1)[("a",)] is False
    empty = AlternatingAut(1, ["a"], [True], {})
    t = alt_trace(empty, 0, 2)
    assert t[()] is True and t[("a",)] is False and t[("a", "a")] is False


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_alt_trace_matches_oracle(seed):
    rng = random.Random(seed)
    from tests.corpus import rand_alternating

    a = rand_alternating(rng, max_states=3)
    for x in range(a.n_states):
        table = alt_trace(a, x, 3)
        for word, value in table.entries.items():
            assert value == oracles.alt_accepts(a, x, word)


def test_wa_trace_geometric():
    w = WeightedAut(1, ["a"], NAT, [3], {(0, "a"): {0: 2}}, names=["x"])
    t = wa_trace(w, 0, 3)
    assert [t[("a",) * k] for k in range(4)] == [3, 6, 12, 24]


def test_wa_trace_zero_output():
    w = WeightedAut(2, ["a"], NAT, [0, 0], {(0, "a"): {1: 5}})
    assert set(wa_trace(w, 0, 3).entries.values()) == {0}


def test_moore_trace_even_as():
    even = MooreAut(["a"], [True, False], [[1], [0]], names=["e", "o"])
    t = moore_trace(even, 0, 4)
    for word, value in t.entries.items():
        assert value == (len(word) % 2 == 0)


def test_gps_trace_geometric():
    g = GPS(1, ["a"], {0: {TERM: Fraction(1, 2), ("a", 0): Fraction(1, 2)}})
    d = gps_trace(g, 0, 3)
    assert [d[("a",) * k].value for k in range(4)] == [
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 8),
        Fraction(1, 16),
    ]


def test_gps_trace_instant_termination():
    g = GPS(1, ["a"], {0: {TERM: Fraction(1)}})
    d = gps_trace(g, 0, 2)
    assert d[()].value == 1
    assert d[("a",)].value == 0 and d[("a", "a")].value == 0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_gps_trace_matches_oracle_and_mass(seed):
    g = rand_gps(random.Random(seed), max_states=3)
    for x in range(g.n_states):
        d = gps_trace(g, x, 4)
        total = Fraction(0)
        for word, p in d.entries.items():
            assert p.value == oracles.gps_mass(g, x, word)
            total += p.value
        assert total <= 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_nfa_trace_matches_oracle(seed):
    n = rand_nfa(random.Random(seed), max_states=4, max_letters=2)
    for x in range(n.n_states):
        for word, value in nfa_trace(n, x, 4).entries.items():
            assert value == oracles.nfa_accepts(n, x, word)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_conjunctive_trace_matches_oracle(seed):
    n = rand_nfa(random.Random(seed), max_states=4, max_letters=2)
    for x in range(n.n_states):
        for word, value in bt_nfa_trace(n, x, 4, "conj").entries.items():
            assert value == oracles.nfa_conj_value(n, x, word)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_lts_traces_match_the_all_accepting_nfa(seed):
    n = rand_nfa(random.Random(seed), max_states=4, max_letters=2)
    lts = LTS(
        n.n_states,
        n.alphabet,
        {
            (x, n.alphabet[i]): succ
            for x, row in enumerate(oracles.succ_sets(n))
            for i, succ in enumerate(row)
        },
    )
    everywhere = NFA(n.n_states, n.alphabet, n.transitions, range(n.n_states))
    for x in range(n.n_states):
        for word, value in lts_traces(lts, x, 4).entries.items():
            assert value == oracles.nfa_accepts(everywhere, x, word)


@given(st.integers(0, 2**32 - 1), st.sampled_from(("bool", "nat", "rat")))
@settings(max_examples=60)
def test_wa_trace_matches_oracle(seed, carrier):
    rng = random.Random(seed)
    if carrier == "bool":
        w = nfa_as_bool_wa(rand_nfa(rng, max_states=4, max_letters=2))
    elif carrier == "nat":
        w = rand_weighted_nat(rng)
    else:
        w = rand_weighted_rat(rng, max_states=4)
    for x in range(w.n_states):
        for word, value in wa_trace(w, x, 4).entries.items():
            assert value == oracles.wa_value(w, x, word)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_moore_trace_matches_oracle(seed):
    rng = random.Random(seed)
    machines = [rand_moore_bool(rng)]
    weighted = det_weighted(rand_weighted_rat(rng, max_states=4))
    if not isinstance(weighted, BudgetExceeded):
        machines.append(weighted.machine)
    for m in machines:
        for x in range(m.n_states):
            for word, value in moore_trace(m, x, 4).entries.items():
                assert value == oracles.moore_value(m, x, word)


def test_wta_trace_single_term():
    w = WeightedTreeAut(
        1, [("b", 2), ("c", 0)], NAT, {(0, "c", ()): 3, (0, "b", (0, 0)): 2}, names=["x"]
    )
    t = wta_trace(w, 0, 1)
    assert t[Tree("c")] == 3
    assert t[Tree("b", (Tree("c"), Tree("c")))] == 18


def test_wta_trace_nullary_only():
    w = WeightedTreeAut(2, [("c", 0)], NAT, {(0, "c", ()): 7})
    assert wta_trace(w, 0, 0)[Tree("c")] == 7
    assert wta_trace(w, 1, 0)[Tree("c")] == 0


def _signed_rat(w: WeightedTreeAut, rng: random.Random) -> WeightedTreeAut:
    """w's rules over RAT, each weight divided by 1 to 3 and possibly
    negated, so that tree values can cancel to zero."""
    rules = {
        (x, op, children): Fraction(wt * rng.choice((1, -1)), rng.randint(1, 3))
        for x, rules in enumerate(w.rules)
        for (op, children), wt in rules.items()
    }
    return WeightedTreeAut(w.n_states, w.signature, RAT, rules)


@pytest.mark.parametrize("semiring", [BOOL, NAT, RAT])
def test_wta_trace_matches_the_run_oracle(semiring):
    """Every tree of height at most 3, at every state, has the value (and
    type) of the run enumeration; the view lists all_trees in order, and
    all_trees lists the filter-by-height enumeration."""
    rng = random.Random(f"wta/{semiring.name}")
    for _ in range(8):
        w = rand_wta(rng, semiring)
        if semiring is RAT:
            w = _signed_rat(w, rng)
        for depth in range(4):
            trees = all_trees(w.signature, depth)
            assert trees == oracles.trees_by_max_height(w.signature, depth)
            for x in range(w.n_states):
                entries = wta_trace(w, x, depth).entries
                assert list(entries) == trees and len(entries) == len(trees)
                assert list(entries.values()) == [entries[t] for t in trees]
                if depth == 3:
                    for t in trees:
                        expected = oracles.wta_value(w, x, t)
                        assert entries[t] == expected and type(entries[t]) is type(expected)


def test_all_trees_matches_the_reference_on_wider_signatures():
    for signature in ([("c", 0), ("t", 3)], [("u", 1), ("b", 2)], [("a", 0), ("b", 0), ("f", 2), ("u", 1)], []):
        for height in range(-1, 3):
            assert all_trees(signature, height) == oracles.trees_by_max_height(signature, height)


def test_tree_view_rejects_keys_beyond_the_table():
    """A tree above the depth raises KeyError even when each of its nodes'
    (op, child value numbers) was stepped; so do an unknown operator, a wrong
    arity and keys that are not trees. The table is read-only."""
    w = WeightedTreeAut(1, [("c", 0), ("u", 1), ("b", 2)], NAT, {(0, "c", ()): 1, (0, "u", (0,)): 1})
    entries = wta_trace(w, 0, 2).entries
    c = Tree("c")
    deep = Tree("u", (Tree("u", (Tree("u", (c,)),)),))  # u(c) and u(u(c)) have c's value number
    assert entries[deep.children[0]] == 1 and len(entries.distinct) == 2
    for key in (deep, Tree("b", (c, deep)), Tree("e"), Tree("u", (c, c)), Tree("b", (c,)), Tree("c", (c,)),
                "c", ("c",), None, 0):
        with pytest.raises(KeyError):
            entries[key]
        assert key not in entries
    with pytest.raises(TypeError):
        entries[c] = 2
    assert dict(entries.items()) == {t: entries[t] for t in all_trees(w.signature, 2)}
    assert entries == dict(entries.items())


def test_tree_view_looks_a_tree_up_in_one_fold(monkeypatch):
    """A lookup folds the tree once, carrying heights with value numbers,
    whether it finds the tree or not."""
    w = WeightedTreeAut(1, [("c", 0), ("u", 1), ("b", 2)], NAT, {(0, "c", ()): 1, (0, "u", (0,)): 1})
    entries = wta_trace(w, 0, 2).entries
    folds = []
    fold = semantics._fold
    monkeypatch.setattr(semantics, "_fold", lambda tree, f: folds.append(tree) or fold(tree, f))
    c = Tree("c")
    deep = Tree("u", (Tree("u", (Tree("u", (c,)),)),))
    assert entries[Tree("b", (c, c))] == 0 and entries[deep.children[0]] == 1
    with pytest.raises(KeyError):
        entries[deep]
    assert folds == [Tree("b", (c, c)), deep.children[0], deep]


def test_wta_trace_steps_each_child_value_tuple_once(monkeypatch):
    """_tree_step runs once per distinct (op, child value numbers), not once
    per tree: here every tree of height at most 3 has one of two values."""
    calls = []
    step = semantics._tree_step

    def counting(w):
        inner = step(w)
        return lambda op, args: calls.append(op) or inner(op, args)

    monkeypatch.setattr(semantics, "_tree_step", counting)
    w = WeightedTreeAut(2, [("c", 0), ("d", 0), ("b", 2)], BOOL, {(0, "c", ()): True, (1, "b", (0, 0)): True})
    entries = wta_trace(w, 0, 3).entries
    assert len(entries) == 1446 and len(entries.distinct) == 3
    # c, d and b over the 3 x 3 pairs of value numbers
    assert len(calls) == 2 + 9


def test_bottom_up_algebra_transpose():
    w = WeightedTreeAut(
        1, [("b", 2), ("c", 0)], NAT, {(0, "c", ()): 3, (0, "b", (0, 0)): 2}
    )
    evaluator = bottom_up_algebra(w)
    assert evaluator("c", [])(0) == 3
    folded = fold_tree(evaluator, Tree("b", (Tree("c"), Tree("c"))))
    assert folded(0) == 18


def test_fold_tree_on_a_deep_tree():
    w = WeightedTreeAut(
        2, [("c", 0), ("u", 1)], NAT, {(0, "c", ()): 2, (1, "u", (0,)): 3, (0, "u", (1,)): 1}
    )
    t = Tree("c")
    for _ in range(3000):
        t = Tree("u", (t,))
    folded = fold_tree(bottom_up_algebra(w), t)
    assert (folded(0), folded(1)) == (3**1500 * 2, 0)


def test_monotone_refinement():
    for depth in range(3):
        shallow = nfa_trace(CLASSIC, 0, depth)
        deep = nfa_trace(CLASSIC, 0, depth + 2)
        for word, value in shallow.entries.items():
            assert deep[word] == value


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_cross_presentation_agreement(seed):
    n = rand_nfa(random.Random(seed), max_states=4, max_letters=2)
    w = nfa_as_bool_wa(n)
    for x in range(n.n_states):
        base = nfa_trace(n, x, 5).entries
        assert bt_nfa_trace(n, x, 5, "disj").entries == base
        assert wa_trace(w, x, 5).entries == base


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_prefix_coherence_via_reachability_shadow(seed):
    """A word with no nonzero-weight path cannot gain weight by extension."""
    rng = random.Random(seed)
    n = rand_nfa(rng, max_states=4, max_letters=2)
    bool_wa = nfa_as_bool_wa(n)
    nat_wa = WeightedAut(
        n.n_states,
        n.alphabet,
        NAT,
        [int(x in n.accepting) for x in range(n.n_states)],
        {
            (x, n.alphabet[i]): {y: rng.randint(1, 3) for y in succ}
            for x, row in enumerate(oracles.succ_sets(n))
            for i, succ in enumerate(row)
            if succ
        },
    )
    shadow = LTS(
        n.n_states,
        n.alphabet,
        {
            (x, n.alphabet[i]): list(succ)
            for x, row in enumerate(oracles.succ_sets(n))
            for i, succ in enumerate(row)
        },
    )
    for x in range(n.n_states):
        reach = lts_traces(shadow, x, 3).entries
        bool_values = wa_trace(bool_wa, x, 4).entries
        nat_values = wa_trace(nat_wa, x, 4).entries
        for word, alive in reach.items():
            if not alive:
                for letter in n.alphabet:
                    assert bool_values[word + (letter,)] is False
                    assert nat_values[word + (letter,)] == 0


def test_tables_are_total_and_ordered():
    t = nfa_trace(CLASSIC, 0, 3)
    words = list(t.entries)
    assert words == sorted(words, key=lambda w: (len(w), w))
    assert len(words) == 1 + 1 + 1 + 1
    two = rand_nfa(random.Random(7), max_states=3, max_letters=2)
    table = nfa_trace(two, 0, 2)
    m = len(two.alphabet)
    assert len(table.entries) == 1 + m + m * m


_NEGATIVE_DEPTH_CALLS = {
    "nfa_trace": lambda d: nfa_trace(CLASSIC, 0, d),
    "bt_nfa_trace": lambda d: bt_nfa_trace(CLASSIC, 0, d, "conj"),
    "length_semantics": lambda d: length_semantics(CLASSIC, 0, d),
    "lts_traces": lambda d: lts_traces(LTS(1, ["a"], {(0, "a"): [0]}), 0, d),
    "alt_trace": lambda d: alt_trace(AlternatingAut(1, ["a"], [True], {}), 0, d),
    "wa_trace": lambda d: wa_trace(WeightedAut(1, ["a"], NAT, [1], {}), 0, d),
    "gps_trace": lambda d: gps_trace(GPS(1, ["a"], {0: {TERM: Fraction(1)}}), 0, d),
    "moore_trace": lambda d: moore_trace(MooreAut(["a"], [True], [[0]]), 0, d),
    "wta_trace": lambda d: wta_trace(WeightedTreeAut(1, [("c", 0)], NAT, {(0, "c", ()): 1}), 0, d),
    # a machine with flipped outputs fails on the empty word at depth 0
    "check_correctness": lambda d: check_correctness(
        CLASSIC, _flipped(det_subset(CLASSIC)), d
    ),
}


def _flipped(result):
    m = result.machine
    flipped = MooreAut(m.alphabet, [not o for o in m.outputs], m.delta, names=m.names)
    return replace(result, machine=flipped)


@pytest.mark.parametrize("name", sorted(_NEGATIVE_DEPTH_CALLS))
def test_a_negative_depth_raises(name):
    call = _NEGATIVE_DEPTH_CALLS[name]
    call(0)
    with pytest.raises(ValueError, match="depth must be at least 0, got -1"):
        call(-1)


def test_each_distinct_value_is_stepped_once_per_letter(monkeypatch):
    """Every word of length k has the same value here (both letters act
    alike), so 127 words up to depth 6 share 4 values; the trace steps each
    value within depth - 1 letters once per letter, and no other."""
    w = WeightedAut(
        3,
        ["a", "b"],
        RAT,
        [Fraction(0), Fraction(0), Fraction(1)],
        {
            (0, "a"): {1: Fraction(1)},
            (0, "b"): {1: Fraction(1)},
            (1, "a"): {2: Fraction(1, 2)},
            (1, "b"): {2: Fraction(1, 2)},
        },
    )
    stepped = Counter()
    recurrence = semantics._recurrence

    def counting(aut, mode="disj"):
        base, step, read = recurrence(aut, mode)

        def counted(ai, v):
            # keyed by the decoded vector, whatever the recurrence stores
            stepped[ai, tuple(read(v, x) for x in range(aut.n_states))] += 1
            return step(ai, v)

        return base, counted, read

    monkeypatch.setattr(semantics, "_recurrence", counting)
    depth = 6
    tables = [wa_trace(w, x, depth) for x in range(w.n_states)]
    assert len(tables[0].entries) == 127
    distinct = {tuple(t[word] for t in tables) for word in tables[0].entries if len(word) < depth}
    assert len(distinct) == 4
    # three tables, each from its own unfolding
    assert stepped == Counter({(ai, v): 3 for ai in range(2) for v in distinct})


@st.composite
def _exact_weighted(draw, carrier):
    """A weighted automaton over NAT, or over RAT with negative and zero
    weights (zero entries are dropped on construction); half of them acyclic,
    so det_weighted often finishes."""
    sr, weight = (NAT, st.integers(0, 3)) if carrier == "nat" else (RAT, st.fractions(-3, 3, max_denominator=6))
    n = draw(st.integers(1, 4))
    alphabet = ["a", "b"][: draw(st.integers(1, 2))]
    acyclic = draw(st.booleans())
    trans = {}
    for x in range(n):
        for a in alphabet:
            row = draw(st.dictionaries(st.integers(0, n - 1), weight, max_size=3))
            trans[x, a] = {y: wt for y, wt in row.items() if y > x or not acyclic}
    return WeightedAut(n, alphabet, sr, [draw(weight) for _ in range(n)], trans)


def _words(alphabet, depth):
    return [w for k in range(depth + 1) for w in product(alphabet, repeat=k)]


def _value_numbers_are_vectors(aut, depth):
    """The unfolded values decode to pairwise distinct vectors: one value
    number per vector, however its denominator was reached."""
    base, step, read = semantics._recurrence(aut)
    values, _ = semantics._unfold(aut.alphabet, base, step, depth)
    decoded = [tuple(read(v, x) for x in range(aut.n_states)) for v in values]
    assert len(set(decoded)) == len(decoded)
    return decoded


@given(st.sampled_from(("nat", "rat")).flatmap(_exact_weighted))
@settings(max_examples=80)
def test_integer_kernel_matches_the_fraction_references(w):
    """wa_trace, and check_correctness's weighted method on the determinized
    machine and on one with a shifted output, against tests/oracles.py."""
    carrier = int if w.semiring is NAT else Fraction
    words = _words(w.alphabet, 3)
    for x in range(w.n_states):
        table = wa_trace(w, x, 3)
        assert list(table.entries) == words
        for word, value in table.entries.items():
            assert type(value) is carrier and value == oracles.wa_value(w, x, word)
    _value_numbers_are_vectors(w, 4)
    det = det_weighted(w, budget=40)
    if isinstance(det, BudgetExceeded):
        return
    m = det.machine
    shifted = replace(det, machine=MooreAut(
        m.alphabet, [m.outputs[0] + w.semiring.one] + list(m.outputs[1:]), m.delta, semiring=m.semiring
    ))
    for result in (det, shifted):
        expected = [
            (f"state {w.names[x]}, word {format_word(word)}", f"source trace: {lhs}", f"determinized trace: {rhs}")
            for x in range(w.n_states)
            for word in words
            for lhs, rhs in [(oracles.wa_value(w, x, word), oracles.moore_value(result.machine, result.embed[x], word))]
            if lhs != rhs
        ]
        report = check_correctness(w, result, 3, max_failures=1000)
        assert report.instances_checked == w.n_states * len(words)
        assert [(f.instance, f.lhs, f.rhs) for f in report.failures] == expected


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_gps_integer_kernel_matches_the_fraction_reference(seed):
    g = rand_gps(random.Random(seed), max_states=4)
    for x in range(g.n_states):
        for word, p in gps_trace(g, x, 4).entries.items():
            assert type(p.value) is Fraction and p.value == oracles.gps_mass(g, x, word)
    _value_numbers_are_vectors(g, 5)


def test_values_meeting_through_different_denominators_share_one_number():
    """a scales by 2 and b by 6 (the 1/3 on z's b-row), yet a and b take the
    base (0, 1, 0, 1) to the same vector (1/2, 0, 0, 0), w's entry cancelling
    to 0 under a; both then take that vector to the all-zero one, over
    denominators 4 and 12."""
    h = Fraction(1, 2)
    w = WeightedAut(
        4,
        ["a", "b"],
        RAT,
        [Fraction(0), Fraction(1), Fraction(0), Fraction(1)],
        {
            (0, "a"): {1: h},
            (1, "a"): {0: Fraction(0)},
            (3, "a"): {1: h, 3: -h},
            (0, "b"): {1: h},
            (2, "b"): {2: Fraction(1, 3)},
        },
        names=["x", "y", "z", "w"],
    )
    zero = Fraction(0)
    assert _value_numbers_are_vectors(w, 2) == [(zero, 1, zero, 1), (h, zero, zero, zero), (zero,) * 4]
    base, step, _ = semantics._recurrence(w)
    assert step(0, base) == step(1, base) == (2, 1, 0, 0, 0)
    half = step(0, base)
    assert step(0, half) == step(1, half) == (1, 0, 0, 0, 0)


def _assert_step_contract(n: NFA):
    """Bit x of _recurrence(n, mode)'s step(ai, p) is set iff some (disj) or
    every (conj, vacuously for none) a-successor of x is in p, for every
    letter and every mask p; the same relation read as an LTS, as a BOOL
    WeightedAut and, when it is deterministic, as a BOOL MooreAut steps as
    disj does."""
    succ = oracles.succ_sets(n)
    readings = [_lts_of(n), nfa_as_bool_wa(n)]
    if all(len(s) == 1 for row in succ for s in row):
        delta = [[min(s) for s in row] for row in succ]
        readings.append(MooreAut(n.alphabet, [x in n.accepting for x in range(n.n_states)], delta))
    disj, conj = (semantics._recurrence(n, mode)[1] for mode in ("disj", "conj"))
    others = [semantics._recurrence(aut)[1] for aut in readings]
    for ai in range(len(n.alphabet)):
        for p in range(1 << n.n_states):
            inside = {y for y in range(n.n_states) if p >> y & 1}
            some = sum(1 << x for x, row in enumerate(succ) if row[ai] & inside)
            every = sum(1 << x for x, row in enumerate(succ) if row[ai] <= inside)
            assert disj(ai, p) == some
            assert conj(ai, p) == every
            assert [step(ai, p) for step in others] == [some] * len(others)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_boolean_steps_keep_the_successor_contract(seed):
    rng = random.Random(seed)
    _assert_step_contract(rand_nfa(rng, max_states=6))
    # rand_nfa is seldom total and deterministic, so a Moore machine's
    # relation is checked too, read as an NFA
    m = rand_moore_bool(rng, max_states=6)
    trans = [(x, a, t) for x, row in enumerate(m.delta) for a, t in zip(m.alphabet, row)]
    _assert_step_contract(NFA(m.n_states, m.alphabet, trans, [x for x, o in enumerate(m.outputs) if o]))


def _lts_of(n: NFA) -> LTS:
    trans = {}
    for p, a, q in n.transitions:
        trans.setdefault((p, a), []).append(q)
    return LTS(n.n_states, n.alphabet, trans)


# kind -> (random automaton over a, b, c; its table; per-word reference; --mode)
_VIEW_KINDS = {
    "nfa": (lambda rng: rand_nfa(rng, 4), nfa_trace, oracles.nfa_accepts, None),
    "nfa-conj": (lambda rng: rand_nfa(rng, 4), lambda n, x, d: bt_nfa_trace(n, x, d, "conj"), oracles.nfa_conj_value, "conj"),
    "lts": (lambda rng: _lts_of(rand_nfa(rng, 4)), lts_traces, oracles.lts_can_do, None),
    "alternating": (rand_alternating, alt_trace, oracles.alt_accepts, None),
    "weighted-nat": (rand_weighted_nat, wa_trace, oracles.wa_value, None),
    "weighted-rat": (rand_weighted_rat, wa_trace, oracles.wa_value, None),
    "gps": (rand_gps, gps_trace, lambda g, x, w: PartialProb(oracles.gps_mass(g, x, w)), None),
    "moore": (lambda rng: rand_moore(rng, rng.choice((BOOL, NAT, RAT)), max_states=5), moore_trace, oracles.moore_value, None),
}
# one-character labels, longer ones, and mixtures, not all in text order
_LABELS = [("a", "b", "c"), ("in", "out", "go"), ("in", "a", "out"), ("é", "xy", "z"), ("·", "ab", "c")]


def _relabelled(aut, labels):
    """aut's document with the letters a, b, c renamed to labels, and the
    automaton loaded back from it."""
    rename = dict(zip("abc", labels))

    def walk(v):
        if isinstance(v, dict):
            return {rename.get(k, k): walk(u) for k, u in v.items()}
        if isinstance(v, list):
            return [walk(u) for u in v]
        return rename.get(v, v) if isinstance(v, str) else v

    doc = walk(dump_automaton(aut))
    return load_automaton(doc)[0], doc


@given(
    kind=st.sampled_from(sorted(_VIEW_KINDS)),
    labels=st.sampled_from(_LABELS),
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(0, 4),
)
@settings(max_examples=150, deadline=None)
def test_tables_are_views_of_the_per_word_oracle(tmp_path_factory, kind, labels, seed, depth):
    """Every word kind's entries equal the per-word dict of tests/oracles.py
    in value, type and order; len and in agree, other keys raise KeyError;
    the CLI prints and writes format_word and render_value of each word."""
    make, trace, value, mode = _VIEW_KINDS[kind]
    rng = random.Random(seed)
    aut, doc = _relabelled(make(rng), labels)
    x = rng.randrange(aut.n_states)
    table = trace(aut, x, depth).entries
    expected = oracles.word_table(lambda w: value(aut, x, w), aut.alphabet, depth)
    assert list(table.items()) == list(expected.items())
    assert [type(v) for v in table.values()] == [type(v) for v in expected.values()]
    assert table == expected and expected == table
    assert len(table) == len(expected) and list(table) == list(expected)
    assert all(word in table and table[word] == v for word, v in expected.items())
    first = aut.alphabet[0]
    for bad in [(first,) * (depth + 1), ("zz",), (first, "zz"), ("zz",) * (depth + 2), (0,), "", [first]]:
        assert bad not in table
        with pytest.raises(KeyError):
            table[bad]
    with pytest.raises(TypeError):
        table[()] = None
    path = tmp_path_factory.getbasetemp() / "view.json"
    rows = tmp_path_factory.getbasetemp() / "view-rows.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["semantics", str(path), "--state", aut.names[x], "--depth", str(depth), "--out", str(rows)]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv + (["--mode", mode] if mode else [])) == 0
    assert out.getvalue() == "".join(f"{format_word(w)}\t{render_value(v)}\n" for w, v in expected.items())
    written = json.loads(rows.read_text(encoding="utf-8"))["rows"]
    assert written == [{"word": list(w), "value": encode_weight(v)} for w, v in expected.items()]


@pytest.mark.parametrize("semiring", [BOOL, NAT, RAT])
def test_cli_tree_rows_match_the_run_oracle_without_building_trees(tmp_path, monkeypatch, semiring):
    """CLI semantics of a wta file prints and writes format_tree and
    render_value of each tree's oracle value, in all_trees order, and builds
    no Tree to do so."""
    rng = random.Random(f"wta-cli/{semiring.name}")
    cases = []
    for i in range(4):
        w = rand_wta(rng, semiring)
        if semiring is RAT:
            w = _signed_rat(w, rng)
        x, depth = rng.randrange(w.n_states), rng.randint(0, 3)
        path, rows = tmp_path / f"w{i}.json", tmp_path / f"w{i}-rows.json"
        path.write_text(json.dumps(dump_automaton(w)), encoding="utf-8")
        expected = {format_tree(t): oracles.wta_value(w, x, t) for t in all_trees(w.signature, depth)}
        cases.append((["semantics", str(path), "--state", w.names[x], "--depth", str(depth), "--out", str(rows)], rows, expected))

    def no_trees(self):
        raise AssertionError("the CLI built a Tree")

    monkeypatch.setattr(Tree, "__post_init__", no_trees)
    for argv, rows, expected in cases:
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue() == "".join(f"{t}\t{render_value(v)}\n" for t, v in expected.items())
        written = json.loads(rows.read_text(encoding="utf-8"))["rows"]
        assert written == [{"tree": t, "value": encode_weight(v)} for t, v in expected.items()]
