"""Minimization of boolean-output machines by double reversal.

The pipeline determinizes the reversed automaton, reverses the result, and
determinizes again, keeping only states reached from the embedded start set.
Each run also produces certificates: for every pair of distinct result states
a shortest word on which they disagree, read off the first-pass machine
rather than searched for pairwise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .automata import (
    NFA,
    MooreAut,
    ValidationError,
    _iter_bits,
    check_state,
    require_valid,
    reverse_nfa,
)

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


def _subset_dfa(n: NFA, seed: Iterable[int]) -> Tuple[MooreAut, int, List[int]]:
    """Reachable subset construction from a single seed set.

    Accepts on overlap with n's accepting states. Returns the machine, the
    id of the seed state, and the subset (as a bitmask) behind each state id.
    """
    masks = n.succ_masks()
    acc = n.accepting_mask()
    ids: Dict[int, int] = {}
    order: List[int] = []
    work: deque = deque()

    def intern(mask: int) -> int:
        sid = ids.get(mask)
        if sid is None:
            sid = len(order)
            ids[mask] = sid
            order.append(mask)
            work.append(mask)
        return sid

    seed_mask = 0
    for x in seed:
        seed_mask |= 1 << x
    init = intern(seed_mask)
    delta: List[Tuple[int, ...]] = []
    while work:
        s = work.popleft()
        row = []
        for ai in range(len(n.alphabet)):
            t = 0
            for x in _iter_bits(s):
                t |= masks[x][ai]
            row.append(intern(t))
        delta.append(tuple(row))
    outputs = [bool(s & acc) for s in order]
    names = tuple(f"s{i}" for i in range(len(order)))
    return MooreAut(n.alphabet, outputs, delta, names=names), init, order


def _shortest_words(d: MooreAut, initial: int) -> List[Word]:
    """Lexicographically least shortest word from `initial` to every state.

    Every state must be reachable; the subset constructions above guarantee
    that for their own output.
    """
    words: List[Optional[Word]] = [None] * d.n_states
    words[initial] = ()
    queue = deque([initial])
    while queue:
        s = queue.popleft()
        for ai, label in enumerate(d.alphabet):
            t = d.delta[s][ai]
            if words[t] is None:
                words[t] = words[s] + (label,)
                queue.append(t)
    missing = [i for i, w in enumerate(words) if w is None]
    if missing:
        raise ValueError(f"states {missing} unreachable from {initial}")
    return words  # type: ignore[return-value]


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
    d1, d1_init, _ = _subset_dfa(rev, sorted(rev_start))
    reach = _shortest_words(d1, d1_init)

    back = set()
    for s in range(d1.n_states):
        for ai, label in enumerate(d1.alphabet):
            back.add((d1.delta[s][ai], label, s))
    rev2 = NFA(d1.n_states, d1.alphabet, back, accepting=(d1_init,))
    seed2 = [s for s in range(d1.n_states) if d1.outputs[s]]
    d2, d2_init, meanings = _subset_dfa(rev2, seed2)

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


def _restrict_reachable(d: MooreAut, initial: int) -> Tuple[MooreAut, int, Dict[int, int]]:
    """Drop states unreachable from `initial`, renumbering in visit order."""
    old_order: List[int] = [initial]
    seen = {initial}
    queue = deque([initial])
    while queue:
        s = queue.popleft()
        for t in d.delta[s]:
            if t not in seen:
                seen.add(t)
                old_order.append(t)
                queue.append(t)
    remap = {old: new for new, old in enumerate(old_order)}
    delta = tuple(
        tuple(remap[d.delta[old][ai]] for ai in range(len(d.alphabet)))
        for old in old_order
    )
    outputs = [d.outputs[old] for old in old_order]
    names = tuple(d.names[old] for old in old_order)
    machine = MooreAut(d.alphabet, outputs, delta, semiring=d.semiring, names=names)
    return machine, remap[initial], remap


def brzozowski_minimal(n: NFA, initial: Iterable[int]) -> ObservableDFA:
    """The observable machine restricted to its reachable part.

    The double-reversal pipeline only ever constructs reachable states, so
    the restriction is expected to keep everything; it is applied anyway so
    the result is minimal by construction, not by argument.
    """
    obs = brzozowski_observable(n, initial)
    machine, init, remap = _restrict_reachable(obs.machine, obs.initial)
    certificates = {}
    for (p, q), word in obs.certificates.items():
        if p in remap and q in remap:
            a, b = sorted((remap[p], remap[q]))
            certificates[(a, b)] = word
    return ObservableDFA(machine, init, certificates)


def partition_refine(d: MooreAut, initial: int) -> Tuple[MooreAut, int]:
    """Quotient the reachable part of a deterministic machine by behaviour.

    Starts from the output partition and splits blocks until successor
    blocks are constant on every block, then rebuilds the machine on blocks.
    Blocks are numbered by their least member, so the result is reproducible.
    """
    require_valid(d)
    check_state(d, initial)
    d, initial, _ = _restrict_reachable(d, initial)
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
    start = (i1, i2)
    parent: Dict[Tuple[int, int], Optional[Tuple[Tuple[int, int], str]]] = {start: None}
    queue = deque([start])

    def word_to(pair: Tuple[int, int]) -> Word:
        out: List[str] = []
        cur = parent[pair]
        while cur is not None:
            prev, label = cur
            out.append(label)
            cur = parent[prev]
        return tuple(reversed(out))

    while queue:
        pair = queue.popleft()
        p, q = pair
        if d1.outputs[p] != d2.outputs[q]:
            return False, word_to(pair)
        for ai, label in enumerate(d1.alphabet):
            nxt = (d1.delta[p][ai], d2.delta[q][ai])
            if nxt not in parent:
                parent[nxt] = (pair, label)
                queue.append(nxt)
    return True, None
