"""Automaton containers: construction, validation, reversal (the oracle), trees."""

from fractions import Fraction

import pytest
from hypothesis import given
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
    MooreAut,
    Tree,
    UnknownStateError,
    ValidationError,
    WeightedAut,
    WeightedTreeAut,
    all_trees,
    format_tree,
    require_valid,
    tree_height,
    validate,
    wa_trace,
)
from tests.corpus import rand_nfa
from tests.oracles import reverse_nfa

import random


def test_nfa_basics():
    n = NFA(2, ["a"], [(0, "a", 0), (0, "a", 1)], accepting=[1], names=["x", "y"])
    assert validate(n) == []
    assert n.names == ("x", "y")


def test_nfa_rejects_bad_references():
    n = NFA(2, ["a"], [(0, "b", 1)], accepting=[])
    assert any("label" in problem for problem in validate(n))
    n = NFA(2, ["a"], [(0, "a", 5)], accepting=[])
    with pytest.raises(ValidationError):
        require_valid(n)
    n = NFA(2, ["a"], [], accepting=[7])
    assert validate(n)


def test_default_names_and_duplicates():
    n = NFA(3, ["a"], [], accepting=[])
    assert n.names == ("q0", "q1", "q2")
    bad = NFA(2, ["a"], [], accepting=[], names=["s", "s"])
    assert any("name" in problem for problem in validate(bad))


def test_moore_total_and_step():
    even = MooreAut(["a"], [True, False], [[1], [0]], names=["e", "o"])
    assert validate(even) == []
    assert even.step(0, "aaa") == 1
    assert even.step(0, "") == 0
    partial = MooreAut(["a", "b"], [True], [[0]])
    assert any("total" in problem for problem in validate(partial))


def _walked_violations(aut):
    """NFA and Moore violations found by walking every entry, transitions in
    repr order: the reference for the whole-column checks."""
    from tracekit.automata import _check_value, _common_violations, _name

    out = _common_violations(aut)
    state = lambda x: isinstance(x, int) and 0 <= x < aut.n_states
    if isinstance(aut, NFA):
        for p, a, q in sorted(aut.transitions, key=repr):
            if not state(p):
                out.append(f"transition ({p!r}, {a!r}, {q!r}): unknown source state")
            if not state(q):
                out.append(f"transition ({_name(aut, p) if isinstance(p, int) else p!r}, {a!r}, {q!r}): unknown target state")
            if a not in aut.alphabet:
                out.append(f"transition ({_name(aut, p) if isinstance(p, int) else p!r}, {a!r}, ...): unknown label")
        return out + [f"accepting state {x!r} is not a state" for x in sorted(aut.accepting, key=repr) if not state(x)]
    if len(aut.delta) != aut.n_states:
        out.append(f"delta has {len(aut.delta)} rows for {aut.n_states} states")
    for x, row in enumerate(aut.delta):
        if len(row) != len(aut.alphabet):
            out.append(f"delta row for {_name(aut, x)} is not total on the alphabet")
            continue
        out += [f"delta({_name(aut, x)}, {aut.alphabet[i]!r}) leads to unknown state {t!r}" for i, t in enumerate(row) if not state(t)]
    return out + [f"output of {_name(aut, x)} is not a {aut.semiring.name} value: {o!r}"
                  for x, o in enumerate(aut.outputs) if not _check_value(aut.semiring, o)]


class _Small(int):
    """An int subclass: a carrier value that the whole-column checks pass to the walk."""


STATE_LIKE = st.sampled_from([0, 1, 2, -1, 3, True, 1.0, "x", None, _Small(1)])
VALUE_LIKE = st.sampled_from([True, False, 0, 2, -1, _Small(3), Fraction(1, 2), Fraction(-1), 0.5, "1", None])


@given(
    st.lists(st.tuples(STATE_LIKE, st.sampled_from(["a", "b", "z", 1]), STATE_LIKE), max_size=6),
    st.lists(STATE_LIKE, max_size=3),
)
def test_nfa_violations_are_the_walked_ones_in_order(transitions, accepting):
    aut = NFA(3, ["a", "b"], transitions, accepting)
    assert validate(aut) == _walked_violations(aut)


@given(
    st.lists(st.lists(STATE_LIKE, min_size=1, max_size=3), min_size=1, max_size=4),
    st.lists(VALUE_LIKE, min_size=1, max_size=4),
    st.sampled_from([BOOL, NAT, RAT]),
)
def test_moore_violations_are_the_walked_ones_in_order(delta, outputs, semiring):
    aut = MooreAut(["a", "b"], outputs, delta, semiring=semiring)
    assert validate(aut) == _walked_violations(aut)


def test_weighted_fills_missing_rows_with_zero():
    w = WeightedAut(2, ["a", "b"], NAT, [1, 0], {(0, "a"): {1: 2}})
    assert w.trans[0][1].is_zero()
    assert w.trans[1][0].is_zero()
    assert w.trans[0][0](1) == 2
    assert validate(w) == []


def test_weighted_value_typing():
    w = WeightedAut(1, ["a"], NAT, [Fraction(1, 2)], {})
    assert any("nat value" in problem for problem in validate(w))
    w = WeightedAut(1, ["a"], RAT, [Fraction(1, 2)], {(0, "a"): {0: 0.5}})
    assert any("rat value" in problem for problem in validate(w))


def test_tree_shape_and_formatting():
    t = Tree("b", (Tree("c"), Tree("u", (Tree("c"),))))
    assert format_tree(t) == "b(c,u(c))"
    assert tree_height(t) == 2
    assert tree_height(Tree("c")) == 0


DEEP = 3000


def _chain(height: int, leaf: str = "c") -> Tree:
    t = Tree(leaf)
    for _ in range(height):
        t = Tree("u", (t,))
    return t


def test_deep_tree_hash():
    t = _chain(DEEP)
    assert hash(t) == hash(_chain(DEEP))
    assert t in {_chain(DEEP): 1}


def test_deep_tree_repr():
    t = _chain(DEEP)
    assert repr(t) == format_tree(t) == "u(" * DEEP + "c" + ")" * DEEP
    assert format_tree(Tree("b", (Tree("c"), _chain(2, "d")))) == "b(c,u(u(d)))"


def test_deep_tree_equality():
    t, twin = _chain(DEEP), _chain(DEEP)
    assert t is not twin and t == twin
    assert t != _chain(DEEP, "d")
    assert t != _chain(DEEP - 1)
    assert Tree("b", (Tree("c"), Tree("d"))) != Tree("b", (Tree("d"), Tree("c")))


def test_all_trees_counts():
    assert len(all_trees((("c", 0), ("u", 1)), 3)) == 4
    trees = all_trees((("c", 0), ("d", 0), ("b", 2)), 2)
    assert len(trees) == 38
    assert len({format_tree(t) for t in trees}) == 38
    assert all(tree_height(t) <= 2 for t in trees)


def test_wta_drops_zero_rules_and_checks_arity():
    w = WeightedTreeAut(
        1, [("b", 2), ("c", 0)], NAT, {(0, "c", ()): 3, (0, "b", (0, 0)): 0}
    )
    assert w.rules[0] == {("c", ()): 3}
    bad = WeightedTreeAut(1, [("b", 2)], NAT, {(0, "b", (0,)): 1})
    assert any("arity" in problem for problem in validate(bad))


def test_alternating_families():
    a = AlternatingAut(3, ["a"], [False, True, False], {(0, "a"): [[1], [2]]})
    assert a.trans[0][0] == frozenset({frozenset({1}), frozenset({2})})
    assert validate(a) == []
    bad = AlternatingAut(1, ["a"], [True], {(0, "a"): [[4]]})
    assert validate(bad)


def test_lts_and_gps_validation():
    l = LTS(2, ["a"], {(0, "a"): [1]})
    assert validate(l) == []
    g = GPS(1, ["a"], {0: {TERM: Fraction(1, 2), ("a", 0): Fraction(1, 2)}})
    assert validate(g) == []
    short = GPS(1, ["a"], {0: {TERM: Fraction(1, 3)}})
    assert any("sums to" in problem for problem in validate(short))
    negative = GPS(1, ["a"], {0: {TERM: Fraction(2), ("a", 0): Fraction(-1)}})
    assert validate(negative)


def test_unknown_state_queries():
    n = NFA(2, ["a"], [], accepting=[])
    with pytest.raises(UnknownStateError):
        reverse_nfa(n, [5])


def test_reverse_swaps_roles():
    n = NFA(3, ["a", "b"], [(0, "a", 1), (1, "b", 2)], accepting=[2], names=list("xyz"))
    rev, rev_init = reverse_nfa(n, [0])
    assert rev.accepting == frozenset({0})
    assert rev_init == frozenset({2})
    assert (1, "a", 0) in rev.transitions and (2, "b", 1) in rev.transitions


@given(st.integers(0, 2**32 - 1))
def test_reverse_is_an_involution(seed):
    n = rand_nfa(random.Random(seed))
    initial = frozenset({0})
    rev, rev_init = reverse_nfa(n, initial)
    back, back_init = reverse_nfa(rev, rev_init)
    assert back.transitions == n.transitions
    assert back.accepting == n.accepting
    assert back_init == initial


def _fresh_machines():
    """One machine of each kind, none of them validated yet."""
    return [
        NFA(2, ["a"], [(0, "a", 1)], accepting=[1]),
        MooreAut(["a"], [True, False], [[1], [0]]),
        WeightedAut(2, ["a"], NAT, [1, 0], {(0, "a"): {1: 2}}),
        WeightedTreeAut(1, [("c", 0), ("b", 2)], NAT, {(0, "b", (0, 0)): 2, (0, "c", ()): 1}),
        AlternatingAut(2, ["a"], [False, True], {(0, "a"): [[1], [0, 1]]}),
        LTS(2, ["a"], {(0, "a"): [1]}),
        GPS(1, ["a"], {0: {TERM: Fraction(1, 2), ("a", 0): Fraction(1, 2)}}),
    ]


def _count_violations(monkeypatch, cls):
    calls = []
    violations = cls._violations
    monkeypatch.setattr(cls, "_violations", lambda self: calls.append(self) or violations(self))
    return calls


@pytest.mark.parametrize("index", range(7), ids=[type(aut).__name__ for aut in _fresh_machines()])
def test_require_valid_checks_each_machine_once(monkeypatch, index):
    aut = _fresh_machines()[index]
    calls = _count_violations(monkeypatch, type(aut))
    require_valid(aut)
    require_valid(aut)
    assert len(calls) == 1
    # validate itself never reads the cache
    assert validate(aut) == [] and len(calls) == 2


def test_weighted_traces_validate_once(monkeypatch):
    w = WeightedAut(2, ["a"], NAT, [1, 0], {(0, "a"): {1: 2}})
    calls = _count_violations(monkeypatch, WeightedAut)
    wa_trace(w, 0, 2)
    wa_trace(w, 1, 2)
    assert len(calls) == 1
    with pytest.raises(TypeError, match="not an automaton"):
        require_valid("nfa")
