"""Minimization of boolean-output machines by double reversal.

The pipeline determinizes the reversed automaton, reverses the result, and
determinizes again. Both passes explore forward from one start state, so the
result holds only reachable states and needs no restriction afterwards.
Each run also produces certificates: for every pair of distinct result states
a shortest word on which they disagree, read off the first-pass machine
rather than searched for pairwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .automata import (
    NFA,
    MooreAut,
    ValidationError,
    _iter_bits,
    check_state,
    require_valid,
    reverse_nfa,
)
from .determinize import _explore, _subset_machine

Word = Tuple[str, ...]


@dataclass
class ObservableDFA:
    """A reachable deterministic machine with pairwise-distinguished states.

    certificates maps each pair (p, q) with p < q to a shortest word whose
    acceptance differs from p and from q.
    """

    machine: MooreAut
    initial: int
    certificates: Dict[Tuple[int, int], Word]


def _first_words(alphabet: Iterable[str], seed, successors: Callable) -> Dict:
    """Every state reachable from seed, in breadth-first discovery order,
    with the word that first discovered it: its lexicographically least
    shortest word. successors(s) lists s's successor per letter."""
    words = {seed: ()}

    def step(s, intern) -> None:
        for label, t in zip(alphabet, successors(s)):
            if t not in words:
                words[t] = words[s] + (label,)
                intern(t)

    _explore([seed], step)
    return words


def brzozowski_observable(n: NFA, initial: Iterable[int]) -> ObservableDFA:
    """Determinize and minimize by double reversal.

    The first pass determinizes the reversal of n; reading a word w into the
    second-pass machine tracks, per first-pass state q, whether reversed(w)
    leads from the first pass's start to q. Two second-pass states therefore
    disagree exactly on the words reversed(u) for u reaching a first-pass
    state in their symmetric difference, which yields the certificates.
    """
    require_valid(n)
    init = frozenset(initial)
    for x in init:
        check_state(n, x)
    rev, rev_start = reverse_nfa(n, init)
    (d1_init,), _, d1 = _subset_machine(rev, [sum(1 << x for x in rev_start)])
    reach = _first_words(d1.alphabet, d1_init, d1.delta.__getitem__)

    back = set()
    for s in range(d1.n_states):
        for ai, label in enumerate(d1.alphabet):
            back.add((d1.delta[s][ai], label, s))
    rev2 = NFA(d1.n_states, d1.alphabet, back, accepting=(d1_init,))
    seed2 = sum(1 << s for s in range(d1.n_states) if d1.outputs[s])
    (d2_init,), meanings, d2 = _subset_machine(rev2, [seed2])

    certificates: Dict[Tuple[int, int], Word] = {}
    for p in range(d2.n_states):
        for q in range(p + 1, d2.n_states):
            diff = meanings[p] ^ meanings[q]
            r = min(_iter_bits(diff), key=lambda s: (len(reach[s]), reach[s]))
            certificates[(p, q)] = tuple(reversed(reach[r]))
    named = MooreAut(
        d2.alphabet,
        d2.outputs,
        d2.delta,
        names=tuple(f"b{i}" for i in range(d2.n_states)),
    )
    return ObservableDFA(named, d2_init, certificates)


def _restrict_reachable(d: MooreAut, initial: int) -> MooreAut:
    """Drop states unreachable from `initial`, renumbering in visit order,
    so that `initial` becomes state 0."""
    _, old_order, delta = _explore([initial], lambda s, intern: tuple(map(intern, d.delta[s])))
    outputs = [d.outputs[old] for old in old_order]
    names = tuple(d.names[old] for old in old_order)
    return MooreAut(d.alphabet, outputs, delta, semiring=d.semiring, names=names)


def brzozowski_minimal(n: NFA, initial: Iterable[int]) -> ObservableDFA:
    """The minimal deterministic machine: `brzozowski_observable`'s result.

    That result is observable (its certificates tell every pair of states
    apart) and reachable (the second pass interns only states it reaches
    from its one seed), hence minimal.
    """
    return brzozowski_observable(n, initial)


def partition_refine(d: MooreAut, initial: int) -> Tuple[MooreAut, int]:
    """Quotient the reachable part of a deterministic machine by behaviour.

    Starts from the output partition and splits blocks until successor
    blocks are constant on every block, then rebuilds the machine on blocks.
    Blocks are numbered by their least member, so the result is reproducible.
    """
    require_valid(d)
    check_state(d, initial)
    d, initial = _restrict_reachable(d, initial), 0
    m = len(d.alphabet)
    block: List[int] = []
    keys = {}
    for s in range(d.n_states):
        k = keys.setdefault(d.outputs[s], len(keys))
        block.append(k)
    while True:
        sigs: Dict[Tuple, int] = {}
        new_block = []
        for s in range(d.n_states):
            sig = (block[s],) + tuple(block[d.delta[s][ai]] for ai in range(m))
            new_block.append(sigs.setdefault(sig, len(sigs)))
        if new_block == block:
            break
        block = new_block
    reps: Dict[int, int] = {}
    for s in range(d.n_states):
        reps.setdefault(block[s], s)
    ordered = sorted(reps.values())
    renum = {block[s]: i for i, s in enumerate(ordered)}
    delta = tuple(
        tuple(renum[block[d.delta[s][ai]]] for ai in range(m)) for s in ordered
    )
    outputs = [d.outputs[s] for s in ordered]
    names = tuple(f"m{i}" for i in range(len(ordered)))
    machine = MooreAut(d.alphabet, outputs, delta, semiring=d.semiring, names=names)
    return machine, renum[block[initial]]


def dfa_equiv(
    d1: MooreAut, d2: MooreAut, i1: int, i2: int
) -> Tuple[bool, Optional[Word]]:
    """Decide language equality of two deterministic machines.

    Runs a breadth-first product walk, so a negative answer comes with a
    lexicographically least shortest word on which the outputs differ.
    """
    require_valid(d1)
    require_valid(d2)
    check_state(d1, i1)
    check_state(d2, i2)
    if d1.alphabet != d2.alphabet:
        raise ValidationError(
            f"alphabets differ: {list(d1.alphabet)} vs {list(d2.alphabet)}"
        )
    if d1.semiring.name != d2.semiring.name:
        raise ValidationError(
            f"output carriers differ: {d1.semiring.name} vs {d2.semiring.name}"
        )
    differ = []

    def successors(pair):
        # the walk stops expanding at the first pair whose outputs differ
        p, q = pair
        if not differ and d1.outputs[p] != d2.outputs[q]:
            differ.append(pair)
        return () if differ else zip(d1.delta[p], d2.delta[q])

    words = _first_words(d1.alphabet, (i1, i2), successors)
    if differ:
        return False, words[differ[0]]
    return True, None
