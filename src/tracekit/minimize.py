"""Minimization by Brzozowski's two passes (boolean-output NFAs) and by
Hopcroft's refinement (deterministic machines over any output carrier).

Each Brzozowski pass explores a preimage step on bitmask states from one
seed, so its result holds only reachable states. Each run also produces
certificates: for every pair of distinct result states a shortest word on
which they disagree, spelled from the first pass's links when read.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from itertools import chain, repeat
from operator import and_, neg, xor
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .automata import NFA, MooreAut, ValidationError, check_state, require_valid
from .determinize import _explore, _lifted_machine
from .semantics import _recurrence

Word = Tuple[str, ...]


class Certificates(Mapping):
    """The read-only mapping from each pair (p, q) with 0 <= p < q < n to the
    certificate of p and q, spelled on access: `_spell(links, r)` for r the
    lowest set bit of meanings[p] ^ meanings[q]. It has n(n-1)/2 pairs,
    iterates them in (p, q) order, and compares equal to its items' dict."""

    __slots__ = ("_meanings", "_links")

    def __init__(self, meanings: Sequence[int], links: Mapping[int, Optional[Tuple[int, str]]]):
        self._meanings = meanings
        self._links = links

    def __getitem__(self, pair: Tuple[int, int]) -> Word:
        if isinstance(pair, tuple) and len(pair) == 2:
            p, q = pair
            if isinstance(p, int) and isinstance(q, int) and 0 <= p < q < len(self._meanings):
                diff = self._meanings[p] ^ self._meanings[q]
                return _spell(self._links, (diff & -diff).bit_length() - 1)
        raise KeyError(pair)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        n = len(self._meanings)
        return ((p, q) for p in range(n) for q in range(p + 1, n))

    def __len__(self) -> int:
        n = len(self._meanings)
        return n * (n - 1) // 2

    def items(self) -> ItemsView:
        return _CertificateItems(self)

    def _rows(self, render: Optional[Callable[[Word], Any]] = None) -> Iterator[Iterator[Any]]:
        """Per p in order, an iterator over the certificates of (p, q) for
        q > p in order, each passed through render, which is called once per
        first-pass word. The lowest set bit of each difference is found by
        one map per step over the whole row."""
        words = [_spell(self._links, r) for r in self._links]
        back = words if render is None else list(map(render, words))
        # the lowest set bit of a difference is 1 << r, whose bit length is r + 1
        by_length = [None, *back].__getitem__
        meanings = self._meanings
        for p, mp in enumerate(meanings):
            diffs = list(map(xor, repeat(mp), meanings[p + 1 :]))
            yield map(by_length, map(int.bit_length, map(and_, diffs, map(neg, diffs))))


class _CertificateItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, chain.from_iterable(self._mapping._rows()))


@dataclass
class ObservableDFA:
    """A reachable deterministic machine with pairwise-distinguished states.

    certificates is a read-only mapping (`Certificates`), spelled on access
    from the first pass's links, from each pair (p, q) with p < q, iterated
    in (p, q) order, to a shortest word whose acceptance differs from p and
    from q: the reversal of the least first-pass word, shortest first and
    then with letters ordered as the alphabet declares them, that reaches a
    first-pass state on which p and q differ.
    """

    machine: MooreAut
    initial: int
    certificates: Certificates


def _spell(links: Mapping, s) -> Word:
    """The letters of the links from s back to the seed, in that order: the
    reversal of s's least shortest word."""
    word = []
    while links[s] is not None:
        s, label = links[s]
        word.append(label)
    return tuple(word)


def _first_links(alphabet: Iterable[str], seed, successors: Callable) -> Dict:
    """Every state reachable from seed, in breadth-first discovery order,
    mapped to the (state, letter) step that first discovered it (None for the
    seed): following them back spells its least shortest word in reverse,
    letters ordered as the alphabet declares them. successors(s) lists s's
    successor per letter."""
    links = {seed: None}

    def step(s, intern) -> None:
        for label, t in zip(alphabet, successors(s)):
            if t not in links:
                links[t] = (s, label)
                intern(t)

    _explore([seed], step)
    return links


def brzozowski_observable(n: NFA, initial: Iterable[int]) -> ObservableDFA:
    """The minimal deterministic machine, by two explored preimage passes.

    The first pass explores the predicates definable from the acceptance
    predicate by a-preimages (`semantics._recurrence`): u reaches the states
    accepting reversed(u). The second is canonical determinization over
    those predicates: a state holds the first-pass states whose predicate
    meets the current subset of n's states, and steps by the first pass's
    preimage. Reading w into it therefore tracks, per first-pass state q,
    whether reversed(w) leads from the first pass's start to q. Two
    second-pass states disagree exactly on the words reversed(u) for u
    reaching a first-pass state in their symmetric difference. The first
    pass numbers its states breadth first, so the least such state carries
    the certificate. The result is observable (its certificates tell every
    pair of states apart) and reachable (the second pass interns only states
    it reaches from its one seed), hence minimal.
    """
    require_valid(n)
    init = frozenset(initial)
    for x in init:
        check_state(n, x)
    init_mask = sum(1 << x for x in init)
    base, pre, _ = _recurrence(n)
    (d1_init,), _, d1 = _lifted_machine(n.alphabet, [base], pre, lambda s: bool(s & init_mask))
    # _first_links discovers d1's states in d1's own numbering order
    links = _first_links(d1.alphabet, d1_init, d1.delta.__getitem__)

    seed2, pre1, read1 = _recurrence(d1)
    (d2_init,), meanings, d2 = _lifted_machine(d1.alphabet, [seed2], pre1, lambda s: read1(s, d1_init))

    named = MooreAut(d2.alphabet, d2.outputs, d2.delta, names=[f"b{i}" for i in range(d2.n_states)])
    return ObservableDFA(named, d2_init, Certificates(meanings, links))


brzozowski_minimal = brzozowski_observable


def partition_refine(d: MooreAut, initial: int) -> Tuple[MooreAut, int]:
    """Quotient the reachable part of a deterministic machine by behaviour.

    Refines the partition by output value by Hopcroft's algorithm, in
    O(m log n) for m transitions on n states: a pending block, copied when
    popped, splits every block by its preimage under each letter in turn, in
    time linear in that preimage. A split moves the smaller half to a new
    pending block, and the rest keeps the old number: both halves of a
    pending block stay pending. Blocks are numbered by their least member in
    the breadth-first numbering of the reachable part, so the result is
    reproducible and is itself numbered breadth first from its initial 0.
    """
    require_valid(d)
    check_state(d, initial)
    rows = d.delta
    (initial,), _, d = _lifted_machine(
        d.alphabet, [initial], lambda ai, s: rows[s][ai], d.outputs.__getitem__, d.semiring
    )
    keys: Dict = {}
    block = [keys.setdefault(o, len(keys)) for o in d.outputs]
    blocks: List[set] = [set() for _ in keys]
    preimages = [[[] for _ in block] for _ in d.alphabet]
    for s, row in enumerate(d.delta):
        blocks[block[s]].add(s)
        for into, t in zip(preimages, row):
            into[t].append(s)
    pending = list(range(len(blocks)))
    while pending:
        splitter = tuple(blocks[pending.pop()])
        for into in preimages:
            hit: Dict[int, List[int]] = {}
            for t in splitter:
                for s in into[t]:
                    hit.setdefault(block[s], []).append(s)
            for b, part in hit.items():
                whole = blocks[b]
                if len(part) < len(whole):
                    moved = set(part) if 2 * len(part) <= len(whole) else whole.difference(part)
                    whole -= moved
                    for s in moved:
                        block[s] = len(blocks)
                    pending.append(len(blocks))
                    blocks.append(moved)
    reps: Dict[int, int] = {}
    for s, b in enumerate(block):
        reps.setdefault(b, s)
    number = {b: i for i, b in enumerate(reps)}
    delta = tuple(tuple(number[block[t]] for t in d.delta[s]) for s in reps.values())
    outputs = [d.outputs[s] for s in reps.values()]
    names = tuple(f"m{i}" for i in range(len(reps)))
    machine = MooreAut(d.alphabet, outputs, delta, semiring=d.semiring, names=names)
    return machine, number[block[initial]]


def dfa_equiv(
    d1: MooreAut, d2: MooreAut, i1: int, i2: int
) -> Tuple[bool, Optional[Word]]:
    """Decide language equality of two deterministic machines.

    Runs a breadth-first product walk, so a negative answer comes with a
    shortest word on which the outputs differ, the least of them with letters
    ordered as d1's alphabet declares them (not by their text). The two
    alphabets must hold the same letters, in any order: d2's rows are
    stepped in d1's letter order.
    """
    require_valid(d1)
    require_valid(d2)
    check_state(d1, i1)
    check_state(d2, i2)
    if set(d1.alphabet) != set(d2.alphabet):
        raise ValidationError(
            f"alphabets differ: {list(d1.alphabet)} vs {list(d2.alphabet)}"
        )
    delta2 = d2.delta
    if d2.alphabet != d1.alphabet:
        columns = list(map(d2.letter_index().__getitem__, d1.alphabet))
        delta2 = [[row[i] for i in columns] for row in delta2]
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
        return () if differ else zip(d1.delta[p], delta2[q])

    links = _first_links(d1.alphabet, (i1, i2), successors)
    if not differ:
        return True, None
    return False, _spell(links, differ[0])[::-1]
