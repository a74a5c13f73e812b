"""Brzozowski minimization against the partition-refinement oracle."""

import random
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracekit import (
    BOOL,
    NAT,
    NFA,
    RAT,
    MooreAut,
    ValidationError,
    brzozowski_minimal,
    brzozowski_observable,
    det_subset,
    dfa_equiv,
    moore_trace,
    nfa_trace,
    partition_refine,
)
from tracekit.determinize import _lifted_machine
from tracekit.minimize import Certificates
from tests.corpus import rand_moore, rand_moore_bool, rand_nfa
from tests.oracles import refine_rounds

ENDS_IN_A = NFA(
    3,
    ["a", "b"],
    [(0, "a", 0), (0, "b", 0), (0, "a", 1), (1, "a", 2), (2, "a", 2)],
    accepting=[1],
    names=["p", "q", "r"],
)


def verify_certificates(obs):
    assert set(obs.certificates) == {
        (p, q)
        for p in range(obs.machine.n_states)
        for q in range(p + 1, obs.machine.n_states)
    }
    for (p, q), word in obs.certificates.items():
        assert obs.machine.outputs[obs.machine.step(p, word)] != obs.machine.outputs[
            obs.machine.step(q, word)
        ]


def test_sigma_star_single_state():
    n = NFA(1, ["a", "b"], [(0, "a", 0), (0, "b", 0)], accepting=[0])
    obs = brzozowski_observable(n, [0])
    assert obs.machine.n_states == 1
    assert obs.machine.outputs == (True,)


def test_ends_in_a_two_states():
    obs = brzozowski_observable(ENDS_IN_A, [0])
    minimal = brzozowski_minimal(ENDS_IN_A, [0])
    assert minimal.machine.n_states == 2
    verify_certificates(obs)
    verify_certificates(minimal)
    table = moore_trace(minimal.machine, minimal.initial, 4)
    for word, value in table.entries.items():
        assert value == (bool(word) and word[-1] == "a")


def test_bisimilar_states_merge():
    # y and z are duplicates of each other
    dup = NFA(
        3,
        ["a"],
        [(0, "a", 1), (0, "a", 2), (1, "a", 1), (2, "a", 2)],
        accepting=[1, 2],
        names=["x", "y", "z"],
    )
    minimal = brzozowski_minimal(dup, [0])
    ds = det_subset(dup)
    oracle, _ = partition_refine(ds.machine, ds.embed[0])
    assert minimal.machine.n_states == oracle.n_states


def test_unreachable_junk_dropped():
    junk = NFA(
        3,
        ["a"],
        [(0, "a", 0), (2, "a", 2)],
        accepting=[0, 2],
        names=["x", "y", "junk"],
    )
    minimal = brzozowski_minimal(junk, [0])
    assert minimal.machine.n_states == 1


def test_partition_refine_examples():
    allacc = MooreAut(["a"], [True, True], [[1], [0]])
    machine, initial = partition_refine(allacc, 0)
    assert machine.n_states == 1 and initial == 0
    even = MooreAut(["a"], [True, False], [[1], [0]])
    machine, initial = partition_refine(even, 0)
    assert machine.n_states == 2


def test_partition_refine_idempotent():
    rng = random.Random(11)
    for _ in range(25):
        d = rand_moore_bool(rng)
        once, i1 = partition_refine(d, 0)
        twice, i2 = partition_refine(once, i1)
        assert twice.n_states == once.n_states
        assert dfa_equiv(once, twice, i1, i2)[0]


def test_dfa_equiv_counterexample():
    ends_min = brzozowski_minimal(ENDS_IN_A, [0])
    contains = NFA(
        2, ["a", "b"],
        [(0, "a", 0), (0, "b", 0), (0, "a", 1), (1, "a", 1), (1, "b", 1)],
        accepting=[1],
    )
    contains_min = brzozowski_minimal(contains, [0])
    same, word = dfa_equiv(
        ends_min.machine, contains_min.machine, ends_min.initial, contains_min.initial
    )
    assert not same
    assert word == ("a", "b")


def test_dfa_equiv_words_follow_the_declared_letter_order():
    # both letters tell states 0 and 1 apart; "b" is declared first
    d = MooreAut(["b", "a"], [False, False, True, False], [[2, 2], [3, 3], [2, 2], [3, 3]])
    assert dfa_equiv(d, d, 0, 1) == (False, ("b",))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_certificates_are_shortest(seed):
    rng = random.Random(seed)
    n = rand_nfa(rng, max_states=4, max_letters=3)
    initial = sorted({rng.randrange(n.n_states) for _ in range(rng.randint(1, 3))})
    obs = brzozowski_observable(n, initial)
    for (p, q), word in obs.certificates.items():
        same, shortest = dfa_equiv(obs.machine, obs.machine, p, q)
        assert not same and len(word) == len(shortest)


def test_certificates_follow_the_declared_letter_order():
    # "b" and "a" both tell states 0 and 2 apart; "b" is declared first
    m = NFA(2, ("b", "a"), [(0, "a", 1), (1, "b", 0)], [0, 1])
    obs = brzozowski_observable(m, [0])
    assert brzozowski_minimal is brzozowski_observable
    assert obs.certificates[(0, 2)] == ("b",) == dfa_equiv(obs.machine, obs.machine, 0, 2)[1]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_certificates_come_in_pair_order(seed):
    rng = random.Random(seed)
    n = rand_nfa(rng, max_states=5, max_letters=3)
    initial = sorted({rng.randrange(n.n_states) for _ in range(rng.randint(0, 3))})
    obs = brzozowski_observable(n, initial)
    assert list(obs.certificates) == sorted(obs.certificates)


def nth_letter_nfa(n):
    """Accepts the words whose n-th letter from the end is a; its minimal
    DFA has 2^n states."""
    trans = [(0, "a", 0), (0, "b", 0), (0, "a", 1)]
    trans += [(i, a, i + 1) for i in range(1, n) for a in "ab"]
    return NFA(n + 1, ["a", "b"], trans, accepting=[n])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_certificate_view_keeps_the_dict_contract(seed):
    rng = random.Random(seed)
    n = rand_nfa(rng, max_states=5, max_letters=3)
    initial = sorted({rng.randrange(n.n_states) for _ in range(rng.randint(1, 3))})
    obs = brzozowski_observable(n, initial)
    certs, size = obs.certificates, obs.machine.n_states
    assert isinstance(certs, Certificates)
    # the eager table, filled by the loop the view replaces
    eager = {}
    for p in range(size):
        for q in range(p + 1, size):
            eager[(p, q)] = certs[(p, q)]
    assert len(certs) == len(eager) == comb(size, 2)
    assert list(certs) == list(eager)
    assert list(certs.items()) == list(eager.items())
    assert list(certs.values()) == list(eager.values())
    assert certs == eager and eager == certs
    assert all(pair in certs for pair in eager)
    assert all((pair, word) in certs.items() for pair, word in eager.items())
    outside = [(size, size + 1), (-1, 0), (0, size), (0,), (0, 1, 2), "01", None]
    outside += [(q, p) for p, q in eager] + [(p, p) for p in range(size)]
    for pair in outside:
        assert pair not in certs
        with pytest.raises(KeyError):
            certs[pair]
    with pytest.raises(TypeError):
        certs[(0, 1)] = ()


def test_certificates_at_sixteen_thousand_states_are_read_on_demand():
    obs = brzozowski_minimal(nth_letter_nfa(14), [0])
    machine = obs.machine
    assert machine.n_states == 1 << 14
    assert len(obs.certificates) == comb(1 << 14, 2)
    rng = random.Random(14)
    pairs = [(0, 1), (machine.n_states - 2, machine.n_states - 1)]
    pairs += [tuple(sorted(rng.sample(range(machine.n_states), 2))) for _ in range(50)]
    for p, q in pairs:
        word = obs.certificates[(p, q)]
        assert machine.outputs[machine.step(p, word)] != machine.outputs[machine.step(q, word)]


def test_a_four_thousand_state_chain_minimizes_in_linear_memory():
    """The chain 0 -a-> 1 ... -a-> 3999 accepting 3999: its first pass's
    reversed words have about n^2 / 2 letters in all, so they are spelled
    from the first-pass links when read, and each step costs its mask's
    set bits, not a scan of every state."""
    n = 4000
    chain = NFA(n, ["a"], [(i, "a", i + 1) for i in range(n - 1)], accepting=[n - 1])
    tracemalloc.start()
    try:
        obs = brzozowski_minimal(chain, [0])
        words = obs.certificates[(0, 1)], obs.certificates[(0, n)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert obs.machine.n_states == n + 1
    assert words == (("a",) * (n - 2), ("a",) * (n - 1))
    assert peak < 20 * 2**20


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_partition_refine_numbers_breadth_first(seed):
    rng = random.Random(seed)
    d = rand_moore_bool(rng, max_states=7)
    machine, initial = partition_refine(d, rng.randrange(d.n_states))
    assert initial == 0
    # exploring the result breadth first from 0 renumbers nothing
    _, order, again = _lifted_machine(
        machine.alphabet, [0], lambda ai, s: machine.delta[s][ai], machine.outputs.__getitem__
    )
    assert order == list(range(machine.n_states))
    assert again.delta == machine.delta and again.outputs == machine.outputs


@given(st.integers(0, 2**32 - 1), st.sampled_from([BOOL, NAT, RAT]))
@settings(max_examples=200, deadline=None)
def test_partition_refine_equals_the_round_based_oracle(seed, semiring):
    rng = random.Random(seed)
    d = rand_moore(rng, semiring)
    x = rng.randrange(d.n_states)
    machine, initial = partition_refine(d, x)
    oracle, oracle_initial = refine_rounds(d, x)
    assert machine.delta == oracle.delta
    assert machine.outputs == oracle.outputs
    assert machine.names == oracle.names
    assert machine.semiring is oracle.semiring is semiring
    assert initial == oracle_initial == 0


def chain_rows(n):
    """a walks a chain of n states and stays at its end; b resets to 0."""
    return [[min(i + 1, n - 1), 0] for i in range(n)]


def shuffled(outputs, delta, rng):
    """The machine on ("a", "b") with its states renumbered at random, and
    the new number of state 0."""
    perm = list(range(len(outputs)))
    rng.shuffle(perm)
    new_outputs, new_delta = [None] * len(perm), [None] * len(perm)
    for x, y in enumerate(perm):
        new_outputs[y] = outputs[x]
        new_delta[y] = [perm[t] for t in delta[x]]
    return MooreAut(["a", "b"], new_outputs, new_delta), perm[0]


@pytest.mark.parametrize("shape", ["chain", "counter"])
def test_two_thousand_distinct_states_come_back_numbered_breadth_first(shape):
    n = 2000
    if shape == "chain":
        outputs, delta = [i == n - 1 for i in range(n)], chain_rows(n)
    else:
        # a advances a mod-n counter, b resets it; true at 0
        outputs, delta = [i == 0 for i in range(n)], [[(i + 1) % n, 0] for i in range(n)]
    d, x = shuffled(outputs, delta, random.Random(n))
    machine, initial = partition_refine(d, x)
    # breadth first from 0, "a" before "b", numbers the state a^i as i
    assert initial == 0
    assert machine.delta == tuple(map(tuple, delta))
    assert machine.outputs == tuple(outputs)
    assert machine.names == tuple(f"m{i}" for i in range(n))


def test_chain_with_a_duplicated_tail_collapses_to_the_chain():
    n, k = 2000, 1000
    # states n .. n+k-1 copy the chain's last k states, entered by b from 0
    delta = chain_rows(n) + [[min(j + 1, n + k - 1), 0] for j in range(n, n + k)]
    delta[0][1] = n
    outputs = [i == n - 1 for i in range(n)] + [j == n + k - 1 for j in range(n, n + k)]
    d, x = shuffled(outputs, delta, random.Random(k))
    machine, initial = partition_refine(d, x)
    assert machine.n_states == n
    # the chain itself, with b from 0 entering the state the copy starts at
    rows = chain_rows(n)
    rows[0][1] = n - k
    quotient = MooreAut(["a", "b"], outputs[:n], rows)
    assert dfa_equiv(machine, quotient, initial, 0) == (True, None)


def test_dfa_equiv_spells_a_three_thousand_letter_witness():
    n = 3000
    chain = MooreAut(["a", "b"], [i == n - 1 for i in range(n)], chain_rows(n))
    flipped = MooreAut(["a", "b"], [False] * n, chain_rows(n))
    assert dfa_equiv(chain, flipped, 0, 0) == (False, ("a",) * (n - 1))


def test_dfa_equiv_reads_one_alphabet_declared_in_two_orders():
    """d2's rows step in d1's letter order, so a witness is the least
    shortest word with letters ordered as d1 declares them."""
    # one machine, declared twice: a leads to the accepting 1, b to 2
    ab = MooreAut(["a", "b"], [False, True, False], [[1, 2], [1, 1], [2, 2]])
    ba = MooreAut(["b", "a"], [False, True, False], [[2, 1], [1, 1], [2, 2]])
    assert dfa_equiv(ab, ba, 0, 0) == dfa_equiv(ba, ab, 0, 0) == (True, None)
    # both letters tell these two apart
    never = MooreAut(["a", "b"], [False], [[0, 0]])
    always_after = MooreAut(["b", "a"], [False, True], [[1, 1], [1, 1]])
    assert dfa_equiv(never, always_after, 0, 0) == (False, ("a",))
    assert dfa_equiv(always_after, never, 0, 0) == (False, ("b",))


def test_dfa_equiv_rejects_mismatched_alphabets():
    d1 = MooreAut(["a"], [True], [[0]])
    d2 = MooreAut(["a", "b"], [True], [[0, 0]])
    with pytest.raises(ValidationError):
        dfa_equiv(d1, d2, 0, 0)


def test_self_equivalence():
    d = rand_moore_bool(random.Random(3))
    assert dfa_equiv(d, d, 0, 0) == (True, None)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_pipeline_matches_subset_and_oracle(seed):
    rng = random.Random(seed)
    n = rand_nfa(rng, max_states=5, max_letters=3)
    initial = sorted({rng.randrange(n.n_states) for _ in range(rng.randint(1, 2))})
    minimal = brzozowski_minimal(n, initial)
    verify_certificates(minimal)

    ds = det_subset(n)
    ref = ds.machine
    # embed the initial SET: run the subset machine from the union state
    union_table = {m: i for i, m in ds.state_meaning.items()}
    union = frozenset().union(*(ds.state_meaning[ds.embed[x]] for x in initial))
    if union in union_table:
        ref_init = union_table[union]
        same, word = dfa_equiv(minimal.machine, ref, minimal.initial, ref_init)
        assert same, word
        oracle, _ = partition_refine(ref, ref_init)
        assert minimal.machine.n_states == oracle.n_states


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_minimal_result_is_reachable_from_its_initial_state(seed):
    rng = random.Random(seed)
    n = rand_nfa(rng, max_states=6, max_letters=3)
    initial = sorted({rng.randrange(n.n_states) for _ in range(rng.randint(1, 3))})
    minimal = brzozowski_minimal(n, initial)
    seen = {minimal.initial}
    frontier = [minimal.initial]
    while frontier:
        frontier = [t for s in frontier for t in minimal.machine.delta[s] if t not in seen]
        seen.update(frontier)
    assert seen == set(range(minimal.machine.n_states))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_single_initial_pipeline_and_idempotence(seed):
    rng = random.Random(seed)
    n = rand_nfa(rng, max_states=5, max_letters=2)
    x = rng.randrange(n.n_states)
    minimal = brzozowski_minimal(n, [x])
    ds = det_subset(n)
    same, word = dfa_equiv(minimal.machine, ds.machine, minimal.initial, ds.embed[x])
    assert same, word
    oracle, _ = partition_refine(ds.machine, ds.embed[x])
    assert minimal.machine.n_states == oracle.n_states

    # idempotence up to isomorphism: feed the result back in as an NFA
    back = NFA(
        minimal.machine.n_states,
        minimal.machine.alphabet,
        [
            (p, a, minimal.machine.delta[p][i])
            for p in range(minimal.machine.n_states)
            for i, a in enumerate(minimal.machine.alphabet)
        ],
        accepting=[
            p for p in range(minimal.machine.n_states) if minimal.machine.outputs[p]
        ],
    )
    again = brzozowski_minimal(back, [minimal.initial])
    assert again.machine.n_states == minimal.machine.n_states
    assert dfa_equiv(again.machine, minimal.machine, again.initial, minimal.initial)[0]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_observable_language_preserved(seed):
    rng = random.Random(seed)
    n = rand_nfa(rng, max_states=4, max_letters=2)
    x = rng.randrange(n.n_states)
    obs = brzozowski_observable(n, [x])
    got = moore_trace(obs.machine, obs.initial, 5).entries
    assert got == nfa_trace(n, x, 5).entries
