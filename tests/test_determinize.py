"""Determinization constructions and their state meanings."""

import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracekit import (
    LTS,
    NFA,
    BOOL,
    NAT,
    RAT,
    AlternatingAut,
    BudgetExceeded,
    WeightedAut,
    alt_to_nfa,
    alt_trace,
    bt_nfa_trace,
    canonical_det_nfa,
    chi_good,
    chi_wrong,
    det_subset,
    det_weighted,
    moore_trace,
    nfa_trace,
    unit,
    wa_trace,
)
from tracekit import determinize
from tracekit.automata import _iter_bits
from tracekit.determinize import _choice_bits, _explore, _hitting_bits, hitting_unions
from tests.corpus import (
    LETTERS,
    nfa_as_bool_wa,
    rand_alternating,
    rand_gps,
    rand_moore,
    rand_moore_bool,
    rand_nfa,
    rand_weighted_nat,
    rand_weighted_rat,
)
from tests.oracles import chi_good_bruteforce, double_dual, succ_sets, weight_vectors

CLASSIC = NFA(2, ["a"], [(0, "a", 0), (0, "a", 1)], accepting=[1], names=["q0", "q1"])


def test_subset_reaches_the_textbook_states():
    result = det_subset(CLASSIC)
    meanings = set(result.state_meaning.values())
    assert frozenset({0}) in meanings and frozenset({0, 1}) in meanings
    by_meaning = {m: i for i, m in result.state_meaning.items()}
    assert result.machine.outputs[by_meaning[frozenset({0, 1})]] is True
    assert result.machine.outputs[by_meaning[frozenset({0})]] is False
    assert result.embed[0] == by_meaning[frozenset({0})]
    assert result.method == "subset-disj"


def test_subset_on_deterministic_input_is_isomorphic():
    dfa = NFA(2, ["a", "b"], [(0, "a", 1), (0, "b", 0), (1, "a", 0), (1, "b", 1)], [1])
    result = det_subset(dfa)
    singles = {result.embed[x] for x in range(2)}
    reachable_from_singles = set()
    frontier = list(singles)
    aidx = result.machine.letter_index()
    while frontier:
        s = frontier.pop()
        if s in reachable_from_singles:
            continue
        reachable_from_singles.add(s)
        frontier.extend(result.machine.delta[s])
    assert reachable_from_singles == singles
    for x in range(2):
        assert result.state_meaning[result.embed[x]] == frozenset({x})


def test_subset_conjunctive_output():
    n = NFA(3, ["a"], [(0, "a", 1), (0, "a", 2)], accepting=[1], names=["x", "y", "z"])
    result = det_subset(n, "conj")
    state = result.machine.delta[result.embed[0]][0]
    assert result.state_meaning[state] == frozenset({1, 2})
    assert result.machine.outputs[state] is False
    empty = [i for i, m in result.state_meaning.items() if m == frozenset()]
    assert all(result.machine.outputs[i] is True for i in empty)


def test_subset_rejects_bad_mode():
    with pytest.raises(ValueError):
        det_subset(CLASSIC, "both")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_subset_traces_match_source(seed):
    n = rand_nfa(random.Random(seed), max_states=4, max_letters=2)
    for mode, reference in (("disj", nfa_trace), ("conj", None)):
        result = det_subset(n, mode)
        for x in range(n.n_states):
            want = (
                reference(n, x, 4).entries
                if reference
                else bt_nfa_trace(n, x, 4, "conj").entries
            )
            got = moore_trace(result.machine, result.embed[x], 4).entries
            assert got == want


def test_weighted_runs_the_geometric_machine():
    w = WeightedAut(1, ["a"], NAT, [3], {(0, "a"): {0: 2}}, names=["x"])
    result = det_weighted(w, budget=10)
    assert isinstance(result, BudgetExceeded)
    capped = det_weighted(w, budget=1000)
    assert isinstance(capped, BudgetExceeded)
    assert capped.method == "weighted" and capped.budget == 1000


def test_weighted_zero_automaton():
    w = WeightedAut(2, ["a"], NAT, [0, 0], {})
    result = det_weighted(w)
    zero_vec = [v for v in result.state_meaning.values() if v.is_zero()]
    assert zero_vec
    assert all(o == 0 for o in result.machine.outputs)
    zero_id = [i for i, v in result.state_meaning.items() if v.is_zero()][0]
    assert result.machine.delta[zero_id] == (zero_id,)


def test_weighted_moore_run_matches_wa_trace():
    # cycle weight 1/2 * 2 = 1, so the reachable vectors repeat
    w = WeightedAut(
        2,
        ["a"],
        RAT,
        [Fraction(1), Fraction(0)],
        {(0, "a"): {1: Fraction(1, 2)}, (1, "a"): {0: Fraction(2)}},
    )
    result = det_weighted(w)
    for x in range(2):
        got = moore_trace(result.machine, result.embed[x], 6).entries
        assert got == wa_trace(w, x, 6).entries
    assert result.state_meaning[result.embed[0]] == unit(RAT, 0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_weighted_bool_coincides_with_subset(seed):
    n = rand_nfa(random.Random(seed), max_states=4, max_letters=2)
    by_subset = det_subset(n)
    by_vector = det_weighted(nfa_as_bool_wa(n))
    subset_meanings = {
        i: frozenset(m) for i, m in by_subset.state_meaning.items()
    }
    vector_meanings = {i: v.support for i, v in by_vector.state_meaning.items()}
    assert set(subset_meanings.values()) == set(vector_meanings.values())
    out_by_meaning = {}
    for i, m in subset_meanings.items():
        out_by_meaning[m] = by_subset.machine.outputs[i]
    for i, m in vector_meanings.items():
        assert by_vector.machine.outputs[i] == out_by_meaning[m]


# few values of both signs, so that two paths into one state often cancel
SIGNED = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2))


def rand_weighted_signed(rng: random.Random, max_states: int = 4) -> WeightedAut:
    """Rational weights of both signs, mostly acyclic so the run often
    finishes; the shared corpus pool has no negative weights."""
    n = rng.randint(1, max_states)
    alphabet = LETTERS[: rng.randint(1, 2)]
    acyclic = rng.random() < 0.7
    trans = {}
    for x in range(n):
        for a in alphabet:
            targets = range(x + 1, n) if acyclic else range(n)
            row = {y: rng.choice(SIGNED) for y in targets if rng.random() < 0.6}
            if row:
                trans[(x, a)] = row
    out = [rng.choice(SIGNED + (Fraction(0),)) for _ in range(n)]
    return WeightedAut(n, alphabet, RAT, out, trans)


WEIGHTED_SOURCES = {
    "bool": lambda rng: nfa_as_bool_wa(rand_nfa(rng, max_states=5, max_letters=2)),
    "nat": lambda rng: rand_weighted_nat(rng),
    "rat": lambda rng: rand_weighted_rat(rng),
    "rat-signed": rand_weighted_signed,
}

# x -a-> y and z with weight 1, then y -b-> u with 1/2 and z -b-> u with -1/2,
# so {y: 1, z: 1} steps under b to the zero vector: 8 states in all
CANCEL = WeightedAut(
    4, ["a", "b"], RAT, [Fraction(0), Fraction(1), Fraction(2), Fraction(3)],
    {(0, "a"): {1: Fraction(1), 2: Fraction(1)}, (1, "b"): {3: Fraction(1, 2)}, (2, "b"): {3: Fraction(-1, 2)}},
    names=["x", "y", "z", "u"],
)


def assert_matches_weight_vectors(w, budget):
    got, want = det_weighted(w, budget=budget), weight_vectors(w, budget)
    if isinstance(want, BudgetExceeded):
        assert got == want
        return
    outputs, delta, embed, meanings = want
    # same values of the same types, so the CLI prints the same bytes
    assert [(type(o), o) for o in got.machine.outputs] == [(type(o), o) for o in outputs]
    assert [tuple(row) for row in got.machine.delta] == delta
    assert got.embed == embed
    assert got.state_meaning == meanings
    assert list(map(repr, got.state_meaning.values())) == list(map(repr, meanings.values()))


@given(
    st.sampled_from(sorted(WEIGHTED_SOURCES)),
    st.integers(0, 2**32 - 1),
    st.sampled_from((1, 2, 3, 5, 8, 13, 500)),
)
@example("rat-signed", 0, 500)
@settings(max_examples=120, deadline=None)
def test_weighted_matches_the_vector_reference(kind, seed, budget):
    assert_matches_weight_vectors(WEIGHTED_SOURCES[kind](random.Random(seed)), budget)


# acyclic, and x steps under a to {y: 2, z: 3}
BRANCHING = WeightedAut(
    5, ["a", "b"], NAT, [0, 1, 2, 3, 1],
    {(0, "a"): {1: 2, 2: 3}, (0, "b"): {2: 1}, (1, "a"): {3: 2}, (1, "b"): {3: 1, 4: 4},
     (2, "a"): {3: 5}, (2, "b"): {4: 2}, (3, "b"): {4: 3}},
)


def weighted_view(w):
    """det_weighted(w) and the dict of the oracle's weight vectors."""
    return det_weighted(w), weight_vectors(w, 500)[3]


def boolean_view(result, n=None):
    """result and the dict its state meanings were before they became a
    view: frozensets built eagerly from the explored masks, and for
    canonical_det_nfa (on n states) each subset's predicates."""
    sets = {i: frozenset(_iter_bits(s)) for i, s in enumerate(result.state_meaning._states)}
    if n is None:
        return result, sets
    preds = [frozenset(_iter_bits(phi)) for phi in range(1 << n)]
    return result, {i: frozenset(phi for phi in preds if phi & s) for i, s in sets.items()}


# 2 has no a-successor and 3 no b-successor, so the subset machines reach the empty set
VIEW_NFA = NFA(4, ["a", "b"], [(0, "a", 0), (0, "b", 1), (0, "a", 1), (1, "a", 2), (1, "b", 2), (2, "b", 3), (3, "a", 0)], [3])
VIEW_ALT = AlternatingAut(3, ["a", "b"], [False, True, True], {(0, "a"): [[0, 1], [2]], (1, "b"): [[2]], (2, "a"): [[]]})
VIEWS = {
    "bool": lambda: weighted_view(WEIGHTED_SOURCES["bool"](random.Random(0))),
    "nat": lambda: weighted_view(BRANCHING),
    "rat": lambda: weighted_view(WEIGHTED_SOURCES["rat-signed"](random.Random(0))),
    "subset-disj": lambda: boolean_view(det_subset(VIEW_NFA, "disj")),
    "subset-conj": lambda: boolean_view(det_subset(VIEW_NFA, "conj")),
    "alt": lambda: boolean_view(alt_to_nfa(VIEW_ALT)),
    "canonical": lambda: boolean_view(canonical_det_nfa(VIEW_NFA), VIEW_NFA.n_states),
}


@pytest.mark.parametrize("case", list(VIEWS))
def test_weighted_meanings_are_a_read_only_view_like_the_old_dict(case):
    """Every method's state meanings, the weighted ones included, are a
    read-only view that reads like the dict the method built before."""
    result, old = VIEWS[case]()
    view = result.state_meaning
    n = len(old)
    assert n > 1 and len(view) == n
    assert list(view) == list(range(n)) == list(old)
    assert list(view.items()) == list(old.items())
    for key in [*range(-1, n + 1), 0.0, 1.0, True, False, "0", None, (0,), 0.5]:
        assert (key in view) == (key in old)
        if key in old:
            assert view[key] == old[key] and repr(view[key]) == repr(old[key])
        else:
            with pytest.raises(KeyError):
                view[key]
    with pytest.raises(TypeError):
        view[0] = old[0]
    assert repr(result) == repr(dataclasses.replace(result, state_meaning=old))
    assert result == dataclasses.replace(result, state_meaning=old)


def test_weighted_cancelling_weights_reach_the_zero_vector():
    result = det_weighted(CANCEL)
    after_ab = result.machine.delta[result.machine.delta[result.embed[0]][0]][1]
    assert result.state_meaning[after_ab].is_zero()
    assert result.machine.outputs[after_ab] == 0
    assert result.machine.n_states == 8
    assert_matches_weight_vectors(CANCEL, 500)


@pytest.mark.parametrize("budget", [0, -3])
def test_weighted_rejects_a_budget_below_one(budget):
    with pytest.raises(ValueError, match=f"budget must be at least 1, got {budget}"):
        det_weighted(CANCEL, budget=budget)


@pytest.mark.parametrize("w", [CANCEL, nfa_as_bool_wa(CLASSIC)], ids=["rat", "bool"])
def test_weighted_budget_boundary(w):
    reachable = det_weighted(w).machine.n_states
    assert det_weighted(w, budget=reachable).machine.n_states == reachable
    assert det_weighted(w, budget=reachable - 1) == BudgetExceeded("weighted", reachable - 1, reachable)


def test_chi_good_worked_example():
    family = frozenset({frozenset("ac"), frozenset("bc")})
    assert chi_good(family) == frozenset(
        {
            frozenset("c"),
            frozenset("ab"),
            frozenset("ac"),
            frozenset("bc"),
            frozenset("abc"),
        }
    )


def test_chi_wrong_worked_examples():
    family = frozenset({frozenset("ac"), frozenset("bc")})
    assert chi_wrong(family) == frozenset(
        {frozenset("ab"), frozenset("ac"), frozenset("bc"), frozenset("c")}
    )
    assert chi_wrong(frozenset({frozenset("de")})) == frozenset(
        {frozenset("d"), frozenset("e")}
    )


def test_chi_edge_cases():
    assert chi_good(frozenset()) == frozenset({frozenset()})
    assert chi_good(frozenset({frozenset()})) == frozenset()
    assert chi_wrong(frozenset()) == frozenset({frozenset()})
    assert chi_wrong(frozenset({frozenset()})) == frozenset()


def test_chi_wrong_on_mixed_element_types():
    assert chi_wrong([[1, "a"], [2]]) == frozenset(
        {frozenset({1, 2}), frozenset({"a", 2})}
    )


MIXED_ELEMENTS = st.sampled_from([0, 1, 2, 3, "a", "b", "c"])


@given(st.lists(st.frozensets(MIXED_ELEMENTS, max_size=4), max_size=5))
@example([])
@example([frozenset({1, "a"}), frozenset()])
def test_chi_good_matches_bruteforce(family):
    assert chi_good(family) == chi_good_bruteforce(family)


def _bits(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


@given(st.lists(st.integers(0, 127), max_size=6))
def test_hitting_bits_matches_bruteforce(members):
    hits = _hitting_bits(members)
    got = frozenset(_bits(v) for v in _bits(hits))
    assert got == chi_good_bruteforce(_bits(u) for u in members)


@given(st.lists(st.integers(0, 63), max_size=4, unique=True))
@example([])
@example([0b11, 0])
def test_choice_bits_matches_the_choice_functions(members):
    got = frozenset(_bits(v) for v in _bits(_choice_bits(members)))
    assert got == chi_wrong(_bits(u) for u in members)


def test_chi_wrong_of_a_wide_member_stays_cheap():
    """chi_wrong enumerates choices, so its cost follows its result, not
    the 2^|union| masks of its kernel: one member of 40 points is 40 picks."""
    assert chi_wrong([range(40)]) == frozenset(frozenset({i}) for i in range(40))
    assert chi_wrong([range(40), range(40, 42)]) == frozenset(frozenset({i, j}) for i in range(40) for j in (40, 41))


@given(st.lists(st.sets(st.integers(0, 4), max_size=4), max_size=3))
def test_chi_wrong_selections_refine_chi_good(family):
    fam = frozenset(frozenset(u) for u in family)
    assert chi_wrong(fam) <= chi_good(fam)


@given(st.lists(st.frozensets(st.integers(0, 63), max_size=3), max_size=3))
def test_hitting_unions_closed_form(families):
    """One family of successor masks per branching state: the computed
    successor set is exactly the unions of the hitting sets of the families."""
    outer = frozenset(families)
    via_chi = set()
    for hitting_set in chi_good(outer):
        combined = 0
        for mask in hitting_set:
            combined |= mask
        via_chi.add(combined)
    assert hitting_unions([tuple(f) for f in families]) == frozenset(via_chi)


def test_alt_translation_simple_branch():
    a = AlternatingAut(2, ["a"], [False, True], {(0, "a"): [[1]]}, names=["x", "y"])
    result = alt_to_nfa(a)
    assert alt_trace(a, 0, 1)[("a",)] is True
    assert nfa_trace(result.machine, result.embed[0], 1)[("a",)] is True


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_alt_translation_matches_alt_trace(seed):
    a = rand_alternating(random.Random(seed), max_states=3)
    result = alt_to_nfa(a)
    for x in range(a.n_states):
        got = nfa_trace(result.machine, result.embed[x], 4).entries
        assert got == alt_trace(a, x, 4).entries


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_alt_translation_purely_nondeterministic(seed):
    """All-singleton inner sets: the translation is plain nondeterminism."""
    rng = random.Random(seed)
    n = rand_nfa(rng, max_states=3, max_letters=2)
    trans = {}
    for x, row in enumerate(succ_sets(n)):
        for i, succ in enumerate(row):
            if succ:
                trans[(x, n.alphabet[i])] = [[y] for y in succ]
    a = AlternatingAut(
        n.n_states,
        n.alphabet,
        [x in n.accepting for x in range(n.n_states)],
        trans,
    )
    result = alt_to_nfa(a)
    for x in range(n.n_states):
        got = nfa_trace(result.machine, result.embed[x], 4).entries
        assert got == nfa_trace(n, x, 4).entries


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_alt_translation_purely_conjunctive(seed):
    """One inner set per letter: the translation is the conjunctive reading."""
    rng = random.Random(seed)
    n = rand_nfa(rng, max_states=3, max_letters=2)
    trans = {}
    for x, row in enumerate(succ_sets(n)):
        for i, succ in enumerate(row):
            trans[(x, n.alphabet[i])] = [list(succ)]
    a = AlternatingAut(
        n.n_states,
        n.alphabet,
        [x in n.accepting for x in range(n.n_states)],
        trans,
    )
    result = alt_to_nfa(a)
    for x in range(n.n_states):
        got = nfa_trace(result.machine, result.embed[x], 4).entries
        assert got == bt_nfa_trace(n, x, 4, "conj").entries


def test_canonical_empty_language():
    n = NFA(1, ["a"], [], accepting=[])
    result = canonical_det_nfa(n)
    table = moore_trace(result.machine, result.embed[0], 4)
    assert set(table.entries.values()) == {False}


def test_canonical_respects_bound():
    big = NFA(5, ["a"], [], accepting=[])
    outcome = canonical_det_nfa(big, bound=4)
    assert isinstance(outcome, BudgetExceeded)
    assert outcome.method == "canonical"
    assert canonical_det_nfa(big, bound=5).machine is not None


@pytest.mark.parametrize("n_states, bound", [(2, -1), (0, -3)])
def test_canonical_rejects_a_bound_below_zero(n_states, bound):
    """A negative bound is refused, not reported as exceeded, also for an
    input with no states; bound 0 still admits the 0-state NFA."""
    n = NFA(n_states, ["a"], [], accepting=[])
    with pytest.raises(ValueError, match=f"bound must be at least 0, got {bound}"):
        canonical_det_nfa(n, bound=bound)
    assert canonical_det_nfa(NFA(0, ["a"], []), bound=0).machine.n_states == 0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_canonical_matches_source_language(seed):
    n = rand_nfa(random.Random(seed), max_states=3, max_letters=2)
    result = canonical_det_nfa(n)
    assert len(result.state_meaning) <= 2 ** (2 ** n.n_states)
    for x in range(n.n_states):
        got = moore_trace(result.machine, result.embed[x], 5).entries
        assert got == nfa_trace(n, x, 5).entries


def _double_dual_of(result, meanings):
    return {
        "delta": tuple(map(tuple, result.machine.delta)),
        "outputs": tuple(result.machine.outputs),
        "names": tuple(result.machine.names),
        "embed": result.embed,
        "meanings": meanings,
    }


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_canonical_is_the_diamond_double_dual(seed):
    n = rand_nfa(random.Random(seed), max_states=3, max_letters=3)
    result = canonical_det_nfa(n)
    assert _double_dual_of(result, result.state_meaning) == double_dual(n, "diamond")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_box_double_dual_is_the_conjunctive_subset_machine(seed):
    """Over the box logic, the double dual of a subset S is the principal
    filter {phi : S <= phi}, and the machine is det_subset's conj one."""
    n = rand_nfa(random.Random(seed), max_states=3, max_letters=3)
    result = det_subset(n, "conj")
    preds = [frozenset(c) for r in range(n.n_states + 1) for c in combinations(range(n.n_states), r)]
    filters = {i: frozenset(phi for phi in preds if s <= phi) for i, s in result.state_meaning.items()}
    assert _double_dual_of(result, filters) == double_dual(n, "box")


def test_canonical_two_state_meaning_bound():
    n = NFA(2, ["a", "b"], [(0, "a", 1), (1, "b", 0)], accepting=[1])
    result = canonical_det_nfa(n)
    assert len(result.state_meaning) <= 16


@st.composite
def _graphs(draw):
    n = draw(st.integers(1, 8))
    adjacency = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=3), min_size=n, max_size=n))
    seeds = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    return adjacency, seeds


@given(_graphs())
def test_explore_to_a_depth_numbers_the_states_within_it(graph):
    adjacency, seeds = graph
    step = lambda s, intern: [intern(t) for t in adjacency[s]]
    # breadth-first distances from the seeds
    distance = {}
    frontier, level = list(dict.fromkeys(seeds)), 0
    while frontier:
        distance.update(dict.fromkeys(frontier, level))
        frontier = list(dict.fromkeys(t for s in frontier for t in adjacency[s] if t not in distance))
        level += 1
    full = _explore(seeds, step)
    assert set(full[1]) == set(distance)
    for depth in range(5):
        embed, order, rows = _explore(seeds, step, depth=depth)
        assert set(order) == {s for s, d in distance.items() if d <= depth}
        assert set(order[: len(rows)]) == {s for s, d in distance.items() if d < depth}
        # a breadth-first prefix of the unbounded exploration
        assert embed == full[0]
        assert order == full[1][: len(order)]
        assert rows == full[2][: len(rows)]
    assert _explore(seeds, step, depth=len(adjacency) + 1) == full


def _readings(rng):
    """One automaton of every kind that `_one_step` reads, with its mode."""
    n = rand_nfa(rng, max_states=5)
    lts = LTS(n.n_states, n.alphabet, {(x, n.alphabet[i]): succ for x, row in enumerate(succ_sets(n)) for i, succ in enumerate(row)})
    return [
        ("nfa-disj", n, "disj"),
        ("nfa-conj", n, "conj"),
        ("lts", lts, "disj"),
        ("moore-bool", rand_moore_bool(rng), "disj"),
        ("moore-nat", rand_moore(rng, NAT, max_states=5), "disj"),
        ("moore-rat", rand_moore(rng, RAT, max_states=5), "disj"),
        ("weighted-bool", nfa_as_bool_wa(rand_nfa(rng, max_states=5)), "disj"),
        ("weighted-nat", rand_weighted_nat(rng), "disj"),
        ("weighted-rat", rand_weighted_rat(rng), "disj"),
        ("gps", rand_gps(rng), "disj"),
        ("alternating", rand_alternating(rng, max_states=5), "disj"),
    ]


def _unit_points(sr, n):
    """The singletons of n states as masks over BOOL, else the unit vectors as integer tuples."""
    return [1 << x for x in range(n)] if sr is BOOL else [(1,) + tuple(int(y == x) for y in range(n)) for x in range(n)]


def _pairing_failures(aut, mode, rng, forward=None, back=None, samples=6):
    """The (letter index, S, p) where <forward_a(S), p> differs from
    <S, back_a(p)>, for `_one_step`'s steps of aut unless others are given.

    The pairing is "meets" for disj over BOOL, containment for conj, and
    the Fraction dot product of the decoded tuples over NAT and RAT. An
    alternating S is read conjunctively, as `alt_to_nfa`'s subsets accept,
    and its forward step is a list of unions: the pairing asks whether some
    U in forward_a(S) lies inside p, and whether S lies inside back_a(p). S
    and p range over the unit points (and over BOOL their complements), so
    that every edge is seen, and a few random points.
    """
    sr, _, fwd = determinize._one_step(aut, mode, back=False)
    forward, back = forward or fwd, back or determinize._one_step(aut, mode)[2]
    n = aut.n_states
    points = _unit_points(sr, n)
    alternating = isinstance(aut, AlternatingAut)
    if sr is BOOL:
        points += [((1 << n) - 1) ^ u for u in points] + [rng.getrandbits(n) for _ in range(samples)]
        pairing = (lambda s, p: s & ~p == 0) if mode == "conj" or alternating else (lambda s, p: s & p != 0)
    else:
        for _ in range(samples):
            v = (rng.randint(1, 1 if sr is NAT else 6),) + tuple(rng.randint(0 if sr is NAT else -3, 3) for _ in range(n))
            points.append(tuple(c // math.gcd(*v) for c in v))
        pairing = lambda s, p: sum(Fraction(a, s[0]) * Fraction(b, p[0]) for a, b in zip(s[1:], p[1:]))
    paired = (lambda unions, p: any(pairing(u, p) for u in unions)) if alternating else pairing
    return [
        (ai, s, p)
        for ai in range(len(aut.alphabet))
        for s in points
        for p in points
        if paired(forward(ai, s), p) != pairing(s, back(ai, p))
    ]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_forward_and_preimage_steps_are_paired(seed):
    """<forward_a(S), p> = <S, back_a(p)>: the determinization step and the
    logic step of every kind are adjoint, as both come from one edge list."""
    rng = random.Random(seed)
    for kind, aut, mode in _readings(rng):
        assert _pairing_failures(aut, mode, rng) == [], kind


def _dropping_one_edge(monkeypatch, aut, mode, back):
    """`_one_step`'s step of aut in one direction, built from its masks or
    rows with the first listed edge dropped. An alternating automaton drops
    a smallest branch set of the first state and letter that has one: one
    that contains another branch set there would change neither step."""
    if isinstance(aut, AlternatingAut):
        trans = {(x, aut.alphabet[ai]): list(fam) for x, row in enumerate(aut.trans) for ai, fam in enumerate(row)}
        fam = next(fam for fam in trans.values() if fam)
        fam.remove(min(fam, key=len))
        return determinize._one_step(AlternatingAut(aut.n_states, aut.alphabet, aut.outputs, trans), mode, back=back)[2]
    post, linear = determinize._post, determinize._linear

    def dropped_post(masks):
        masks = [list(row) for row in masks]
        x, ai = next((x, ai) for x, row in enumerate(masks) for ai, m in enumerate(row) if m)
        masks[x][ai] &= masks[x][ai] - 1
        return post(masks)

    def dropped_linear(out, rows, letters):
        rows = [[list(pairs) for pairs in row] for row in rows]
        next(pairs for row in rows for pairs in row if pairs).pop(0)
        return linear(out, rows, letters)

    with monkeypatch.context() as m:
        m.setattr(determinize, "_post", dropped_post)
        m.setattr(determinize, "_linear", dropped_linear)
        return determinize._one_step(aut, mode, back=back)[2]


@pytest.mark.parametrize("back", [False, True], ids=["forward", "back"])
def test_the_pairing_fails_when_one_direction_drops_an_edge(monkeypatch, back):
    """For every kind, the first automaton of the seeds with an edge (for
    alternating, with a branch set)."""
    mutated = set()
    for seed in range(20):
        rng = random.Random(seed)
        for kind, aut, mode in _readings(rng):
            sr, _, step = determinize._one_step(aut, mode, back=False)
            zero = [] if kind == "alternating" else 0 if sr is BOOL else (1,) + (0,) * aut.n_states
            if kind in mutated or all(step(ai, u) == zero for ai in range(len(aut.alphabet)) for u in _unit_points(sr, aut.n_states)):
                continue  # done, or no edge to drop
            step = _dropping_one_edge(monkeypatch, aut, mode, back)
            assert _pairing_failures(aut, mode, rng, **{"back" if back else "forward": step}), kind
            mutated.add(kind)
    assert len(mutated) == 11
