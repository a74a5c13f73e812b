"""Seeded random automata used across the test modules.

Every generator takes an explicit random.Random so corpora are reproducible;
the acceptance tests pin their seeds. Weighted generators lean heavily on
acyclic shapes because determinization over non-idempotent carriers only
terminates when the reachable vector set is finite.
"""

import random
from fractions import Fraction

from tracekit import (
    GPS,
    NFA,
    RAT,
    TERM,
    AlternatingAut,
    BOOL,
    MooreAut,
    NAT,
    WeightedAut,
    WeightedTreeAut,
)
from tests.oracles import succ_sets

LETTERS = ("a", "b", "c")


def rand_nfa(rng: random.Random, max_states: int = 6, max_letters: int = 3) -> NFA:
    n = rng.randint(1, max_states)
    alphabet = LETTERS[: rng.randint(1, max_letters)]
    trans = set()
    for _ in range(rng.randint(0, 2 * n * len(alphabet))):
        trans.add((rng.randrange(n), rng.choice(alphabet), rng.randrange(n)))
    accepting = [x for x in range(n) if rng.random() < 0.4]
    return NFA(n, alphabet, trans, accepting)


RAT_POOL = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 3), Fraction(3, 2))


def rand_weighted_rat(rng: random.Random, max_states: int = 5) -> WeightedAut:
    """Rational-weighted automaton, mostly acyclic so detWeighted terminates."""
    n = rng.randint(1, max_states)
    alphabet = LETTERS[: rng.randint(1, 2)]
    acyclic = rng.random() < 0.85
    trans = {}
    for x in range(n):
        for a in alphabet:
            row = {}
            targets = range(x + 1, n) if acyclic else range(n)
            for y in targets:
                if rng.random() < 0.5:
                    row[y] = rng.choice(RAT_POOL)
            if row:
                trans[(x, a)] = row
    out = [rng.choice(RAT_POOL) if rng.random() < 0.7 else Fraction(0) for _ in range(n)]
    return WeightedAut(n, alphabet, RAT, out, trans)


def rand_weighted_nat(rng: random.Random, max_states: int = 4) -> WeightedAut:
    """Natural-weighted automaton with cycles allowed: traces only, no
    determinization."""
    n = rng.randint(1, max_states)
    alphabet = LETTERS[: rng.randint(1, 2)]
    trans = {}
    for x in range(n):
        for a in alphabet:
            row = {y: rng.randint(1, 3) for y in range(n) if rng.random() < 0.4}
            if row:
                trans[(x, a)] = row
    out = [rng.randint(0, 2) for _ in range(n)]
    return WeightedAut(n, alphabet, NAT, out, trans)


def rand_alternating(rng: random.Random, max_states: int = 4) -> AlternatingAut:
    n = rng.randint(1, max_states)
    alphabet = LETTERS[: rng.randint(1, 2)]
    trans = {}
    for x in range(n):
        for a in alphabet:
            family = []
            for _ in range(rng.randint(0, 3)):
                member = [y for y in range(n) if rng.random() < 0.5][:3]
                family.append(member)
            if family:
                trans[(x, a)] = family
    outputs = [rng.random() < 0.5 for _ in range(n)]
    return AlternatingAut(n, alphabet, outputs, trans)


# Signatures kept small enough that "every tree of height <= 3" stays an
# enumerable corpus (4, 183, and 1446 trees respectively).
WTA_SIGNATURES = (
    (("c", 0), ("u", 1)),
    (("c", 0), ("u", 1), ("b", 2)),
    (("c", 0), ("d", 0), ("b", 2)),
)


def rand_wta(rng: random.Random, semiring, max_states: int = 3) -> WeightedTreeAut:
    n = rng.randint(1, max_states)
    signature = WTA_SIGNATURES[rng.randrange(3) if rng.random() < 0.6 else 0]
    rules = {}
    for op, arity in signature:
        combos = [(x, children)
                  for x in range(n)
                  for children in _tuples(n, arity)]
        rng.shuffle(combos)
        for x, children in combos[: rng.randint(1, 2 if arity == 2 else 3)]:
            if semiring is BOOL:
                weight = True
            else:
                weight = rng.randint(1, 3)
            rules[(x, op, children)] = weight
    return WeightedTreeAut(n, signature, semiring, rules)


def _tuples(n, arity):
    if arity == 0:
        return [()]
    if arity == 1:
        return [(x,) for x in range(n)]
    return [(x, y) for x in range(n) for y in range(n)]


def rand_gps(rng: random.Random, max_states: int = 4) -> GPS:
    """Exact random distributions: integer weights normalized by their sum."""
    n = rng.randint(1, max_states)
    alphabet = LETTERS[: rng.randint(1, 2)]
    dist = {}
    for x in range(n):
        outcomes = [TERM] if rng.random() < 0.8 else []
        for a in alphabet:
            for y in range(n):
                if rng.random() < 0.3:
                    outcomes.append((a, y))
        if not outcomes:
            outcomes = [TERM]
        weights = [rng.randint(1, 5) for _ in outcomes]
        total = sum(weights)
        dist[x] = {o: Fraction(w, total) for o, w in zip(outcomes, weights)}
    return GPS(n, alphabet, dist)


def nfa_as_bool_wa(n: NFA) -> WeightedAut:
    """The same machine presented with Boolean weights."""
    trans = {}
    for x, row in enumerate(succ_sets(n)):
        for i, succ in enumerate(row):
            if succ:
                trans[(x, n.alphabet[i])] = {y: True for y in succ}
    out = [x in n.accepting for x in range(n.n_states)]
    return WeightedAut(n.n_states, n.alphabet, BOOL, out, trans, names=n.names)


def rand_moore_bool(rng: random.Random, max_states: int = 5) -> MooreAut:
    n = rng.randint(1, max_states)
    alphabet = LETTERS[: rng.randint(1, 2)]
    delta = [[rng.randrange(n) for _ in alphabet] for _ in range(n)]
    outputs = [rng.random() < 0.5 for _ in range(n)]
    return MooreAut(alphabet, outputs, delta)


MOORE_OUTPUTS = {"bool": (False, True), "nat": (0, 1, 3), "rat": (Fraction(0), Fraction(1, 2), Fraction(-2, 3))}


def rand_moore(rng: random.Random, semiring, max_states: int = 30) -> MooreAut:
    """A Moore machine over BOOL, NAT or RAT with outputs drawn from at most
    three values, so refinement starts from few large blocks and splits them
    often."""
    n = rng.randint(1, max_states)
    alphabet = LETTERS[: rng.randint(1, 3)]
    delta = [[rng.randrange(n) for _ in alphabet] for _ in range(n)]
    values = MOORE_OUTPUTS[semiring.name][: rng.randint(1, 3)]
    outputs = [rng.choice(values) for _ in range(n)]
    return MooreAut(alphabet, outputs, delta, semiring=semiring)
