"""Determinization constructions returning the machine plus the unit embedding.

All constructions materialize only the part of the lifted state space that is
reachable from the embedded original states, by deterministic breadth-first
frontier exploration (states are numbered in discovery order, so results are
reproducible); `_lifted_machine` builds the Moore machine of the subset,
conjunctive, weighted and canonical ones, of both Brzozowski passes and of
`partition_refine`'s reachable part. Every result keeps `state_meaning`, the
underlying value of each new state (a state set, a weight vector, or a set
of predicates), so tests can assert against meanings rather than opaque ids.
The explored states themselves are plain: bitmasks of states for the subset
constructions and for weighted automata over BOOL, and over NAT and RAT the
canonical integer tuples of `weights._linear`. Outputs are built from them
once per discovered state, after the exploration; `state_meaning` is, for
every method, a read-only view over them that builds a meaning only when it
is read, and writers read the masks and tuples themselves. `_one_step` is
the one source of both steps of every word automaton, the alternating kind
included: the forward step explored here, and the preimage step of
`semantics._recurrence`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from operator import mul
from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .automata import (
    GPS,
    LTS,
    NFA,
    TERM,
    AlternatingAut,
    MooreAut,
    WeightedAut,
    _iter_bits,
    require_valid,
)
from .weights import BOOL, RAT, Semiring, WeightVec, _entries, _linear

BOOL_MODES = ("disj", "conj")


@dataclass
class DetResult:
    """A determinized machine, the embedding of old states, and state
    meanings by state number: for every method a read-only view that builds
    a meaning when it is read and compares equal to the dict of its items."""

    machine: Union[MooreAut, NFA]
    embed: Dict[int, int]
    state_meaning: Mapping[int, Any]
    method: str


class _Meanings(Mapping):
    """The read-only mapping from each state number of a determinization, in
    order, to meaning(s) of its explored state s, built when it is read: s is
    a mask for the subset, alternating and canonical methods, and for the
    weighted one a mask over BOOL and a `weights._linear` tuple over NAT and
    RAT. It compares equal to the dict of its items."""

    __slots__ = ("_states", "_meaning")

    def __init__(self, states: Sequence[Any], meaning: Callable[[Any], Any]):
        self._states, self._meaning = states, meaning

    def __getitem__(self, i: int) -> Any:
        if i not in range(len(self._states)):  # the keys a dict of 0..n-1 would find
            raise KeyError(i)
        return self._meaning(self._states[int(i)])

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._states)))

    def __len__(self) -> int:
        return len(self._states)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(frozen=True)
class BudgetExceeded:
    """Explicit outcome when exploration would pass its configured bound."""

    method: str
    budget: int
    discovered: int


class _Overflow(Exception):
    pass


def _explore(
    seeds: Iterable[Hashable], step: Callable, budget: Optional[int] = None, depth: Optional[int] = None
) -> Optional[Tuple[List[int], List[Hashable], List[Any]]]:
    """The reachable part of a lifted coalgebra, breadth first from the seeds.

    States are numbered in discovery order: the seeds first, then each
    state's successors in the order step interns them. step(s, intern)
    returns the row of state s, calling intern on a successor to get its
    number. Returns (seed numbers, states by number, rows by number), or None
    as soon as a state beyond the first `budget` is discovered. With a depth
    d, only the states within d - 1 steps of a seed are stepped, so exactly
    those within d steps are numbered and rows covers the stepped prefix.
    """
    ids: Dict[Hashable, int] = {}
    order: List[Hashable] = []

    def intern(s: Hashable) -> int:
        sid = ids.get(s)
        if sid is None:
            if budget is not None and len(order) >= budget:
                raise _Overflow
            sid = ids[s] = len(order)
            order.append(s)
        return sid

    try:
        embed = [intern(s) for s in seeds]
        # iterating `order` while step appends to it is the work queue; with
        # a depth, a round steps one level: the states numbered before it
        rows = [step(s, intern) for s in order] if depth is None else []
        for _ in range(depth or 0):
            rows += [step(s, intern) for s in order[len(rows):]]
    except _Overflow:
        return None
    return embed, order, rows


def _lifted_machine(
    alphabet: Sequence[str], seeds: Iterable[Hashable], step: Callable[[int, Any], Hashable],
    output: Callable[[Any], Any], semiring: Semiring = BOOL, budget: Optional[int] = None,
) -> Optional[Tuple[List[int], List[Any], MooreAut]]:
    """The reachable lifted machine from the seeds, on states d0, d1, ...

    A state s steps under the letter of index ai to step(ai, s) and outputs
    output(s) in the semiring. Returns the seed numbers, the state behind
    each number and the Moore machine, or None past the budget. It builds
    det_subset (so canonical_det_nfa), det_weighted, both Brzozowski passes
    and the reachable part of partition_refine.
    """
    letters = range(len(alphabet))
    found = _explore(seeds, lambda s, intern: tuple(map(intern, map(step, letters, repeat(s)))), budget)
    if found is None:
        return None
    embed, order, delta = found
    names = [f"d{i}" for i in range(len(order))]
    return embed, order, MooreAut(alphabet, list(map(output, order)), delta, semiring=semiring, names=names)


def _post(masks: Sequence[Sequence[int]]) -> Callable[[int, int], int]:
    """The successor-set step on bitmasks: step(ai, s) is the union of
    masks[x][ai] over the members x of s."""

    def post(ai: int, s: int) -> int:
        t = 0
        while s:  # the set bits inline, lowest first: no generator to resume per bit
            low = s & -s
            t |= masks[low.bit_length() - 1][ai]
            s ^= low
        return t

    return post


def _one_step(aut, mode: str = "disj", back: bool = True) -> Tuple[Semiring, Any, Callable[[int, Any], Any]]:
    """The carrier, the outputs and one step of a word automaton, from one
    edge list (x, letter index, y, weight): the one source of the forward
    step of the determinizations and of the preimage step (back) of the
    recurrences. An NFA is read in `mode`, an LTS as an NFA whose every
    state accepts, a GPS over RAT, a Moore machine with weight one per edge.

    Over BOOL: the accepting mask, and `_post` over successor masks or
    predecessor masks (back: bit x is set iff some a-successor of x is in
    p, or in conj mode every one is, vacuously for none). Over NAT and RAT:
    `weights._linear`'s integer tuple of the outputs and its step along the
    transposed rows (forward) or the rows (back). An alternating automaton
    has branch sets, not edges, as bitmasks: its forward step sends a subset
    to the sorted `hitting_unions` of its members' a-families, and bit x of
    its back step is set iff some a-branch set of x lies inside p.
    """
    if isinstance(aut, NFA):
        if mode not in BOOL_MODES:
            raise ValueError(f"mode must be 'disj' or 'conj', got {mode!r}")
        aidx = aut.letter_index()
        sr, out = BOOL, [x in aut.accepting for x in range(aut.n_states)]
        edges = [(x, aidx[a], y, True) for x, a, y in aut.transitions]
    elif isinstance(aut, GPS):
        aidx = aut.letter_index()
        sr, out = RAT, [d.get(TERM, RAT.zero) for d in aut.dist]
        edges = [(x, aidx[k[0]], k[1], p) for x, d in enumerate(aut.dist) for k, p in d.items() if k is not TERM]
    elif isinstance(aut, WeightedAut):
        sr, out = aut.semiring, aut.out
        edges = [(x, ai, y, wt) for x, row in enumerate(aut.trans) for ai, vec in enumerate(row) for y, wt in vec.items()]
    elif isinstance(aut, MooreAut):
        sr, out = aut.semiring, aut.outputs
        edges = [(x, ai, y, 1) for x, row in enumerate(aut.delta) for ai, y in enumerate(row)]
    elif isinstance(aut, LTS):
        sr, out = BOOL, [True] * aut.n_states
        edges = [(x, ai, y, True) for x, row in enumerate(aut.trans) for ai, succ in enumerate(row) for y in succ]
    elif isinstance(aut, AlternatingAut):
        fams = [[tuple(sum(1 << y for y in inner) for inner in fam) for fam in row] for row in aut.trans]
        acc = sum(1 << x for x in range(aut.n_states) if aut.outputs[x])
        if not back:
            return BOOL, acc, lambda ai, s: sorted(hitting_unions([fams[x][ai] for x in _iter_bits(s)]))

        def step(ai: int, p: int) -> int:
            miss = ~p
            q = 0
            for x, row in enumerate(fams):
                for inner in row[ai]:
                    if not inner & miss:
                        q |= 1 << x
                        break
            return q

        return BOOL, acc, step
    else:
        raise TypeError(f"not a word automaton: {aut!r}")
    letters, into = len(aut.alphabet), back == (sr.name == "bool")
    # row i holds the edges into i for BOOL back and NAT/RAT forward: _post pushes, _linear pulls
    if sr.name != "bool":
        rows = [[[] for _ in range(letters)] for _ in out]
        for x, ai, y, wt in edges:
            rows[y if into else x][ai].append((x if into else y, wt))
        return (sr, *_linear(out, rows, letters))
    masks = [[0] * letters for _ in out]
    for x, ai, y, _ in edges:
        masks[y if into else x][ai] |= 1 << (x if into else y)
    some, full = _post(masks), (1 << len(out)) - 1
    step = (lambda ai, p: full ^ some(ai, full ^ p)) if back and mode == "conj" else some
    return sr, sum(1 << x for x, o in enumerate(out) if o), step


def det_subset(n: NFA, mode: str = "disj") -> DetResult:
    """Powerset construction from the singleton states.

    Result states are the subsets of n's states reachable from singletons,
    stepping by `_one_step`'s forward step. Disjunctive output accepts a
    subset meeting the accepting set; conjunctive output accepts a subset
    contained in it (so the empty subset accepts).
    """
    require_valid(n)
    _, acc, step = _one_step(n, mode, back=False)
    output = (lambda s: bool(s & acc)) if mode == "disj" else (lambda s: s & ~acc == 0)
    embed, order, machine = _lifted_machine(n.alphabet, [1 << x for x in range(n.n_states)], step, output)
    return DetResult(machine, dict(enumerate(embed)), _Meanings(order, lambda s: frozenset(_iter_bits(s))), f"subset-{mode}")


def det_weighted(w: WeightedAut, budget: int = 500) -> Union[DetResult, BudgetExceeded]:
    """Weight-vector construction: states are the vectors reachable from the
    unit vectors.

    output(v) sums v(y) * out(y); the a-successor of v is the vector
    z -> sum over y of v(y) * trans(y)(a)(z), `_one_step`'s forward step.
    Over BOOL the vectors are explored as bitmasks, as in `det_subset`; over
    NAT and RAT as the canonical integer tuples of `weights._linear`. Each
    state's output is built once, from its mask or tuple, after the
    exploration, and its `WeightVec` meaning only when it is read. Over
    non-idempotent carriers the reachable set can be infinite, so
    exploration stops with a BudgetExceeded outcome once more than `budget`
    states appear; a budget below 1 raises ValueError.
    """
    require_valid(w)
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    (sr, outs, step), n = _one_step(w, back=False), w.n_states
    if sr.name == "bool":
        seeds, output = [1 << x for x in range(n)], lambda s: bool(s & outs)
        meaning = lambda s: WeightVec(sr, [(y, True) for y in _iter_bits(s)])
    else:
        # the carrier value of an entry c / d: c itself over NAT, where d is always 1
        scale, (m, *out) = Fraction if sr.name == "rat" else (lambda c, d: c), outs
        seeds = [(1,) + (0,) * x + (1,) + (0,) * (n - 1 - x) for x in range(n)]
        output = lambda v: scale(sum(map(mul, out, v[1:])), m * v[0])
        meaning = lambda v: WeightVec(sr, [(y, scale(c, d)) for y, c, d in _entries(v)])
    found = _lifted_machine(w.alphabet, seeds, step, output, sr, budget)
    if found is None:
        # the states within the budget plus the one that overflowed it
        return BudgetExceeded("weighted", budget, budget + 1)
    embed, order, machine = found
    return DetResult(machine, dict(enumerate(embed)), _Meanings(order, meaning), "weighted")


def _submask_bits(mask: int) -> int:
    """A mask over masks: bit v is set iff v is a submask of mask. Built by
    doubling, one shift per set bit of mask."""
    out = 1
    while mask:
        low = mask & -mask
        out |= out << low
        mask ^= low
    return out


def _hitting_bits(members: Sequence[int]) -> int:
    """The hitting sets of a family of bitmask sets, as a mask over masks.

    Bit v of the result is set iff v is a submask of the members' union and
    meets every member: each member u clears the submasks of union & ~u,
    the candidates that miss it.
    """
    union = 0
    for u in members:
        union |= u
    hits = _submask_bits(union)
    for u in members:
        hits &= ~_submask_bits(union & ~u)
    return hits


def _choice_bits(members: Sequence[int]) -> int:
    """The images of the choice functions of a family of bitmask sets, as a
    mask over masks, built member by member: each bit b of a member sends
    each image v so far to v | b (the empty family gives {0}, an empty member
    0). It works on 2^|union|-bit ints, so it is meant for small unions."""
    union = 0
    for u in members:
        union |= u
    images = 1
    for u in members:
        picks = 0
        for i in _iter_bits(u):
            lacks = _submask_bits(union ^ (1 << i))
            picks |= (images & lacks) << (1 << i) | images & ~lacks
        images = picks
    return images


def chi_good(family: Iterable[Iterable[Hashable]]) -> frozenset:
    """All subsets of the union that meet every member set.

    This is the transformation that turns a set of branch sets into the
    collection of its hitting sets; it commutes with direct images.

    Each element of the union gets a bit position (in any order: the result
    is a set), so each member is a bitmask. The kernel `_hitting_bits` then
    tests all 2^|union| candidate subsets at once on one 2^|union|-bit int,
    with one shift per union bit and member; frozensets are built only for
    the hitting sets it returns. Elements need only be hashable.
    """
    fams = frozenset(frozenset(u) for u in family)
    universe = list(frozenset().union(*fams))
    bit = {e: 1 << i for i, e in enumerate(universe)}
    hits = _hitting_bits([sum(bit[e] for e in u) for u in fams])
    return frozenset(
        frozenset(universe[i] for i in _iter_bits(v)) for v in _iter_bits(hits)
    )


def chi_wrong(family: Iterable[Iterable[Hashable]]) -> frozenset:
    """All images of choice functions picking one element from each member set.

    Kept only as a negative-test subject: unlike `chi_good` it fails
    naturality, so it cannot drive a correct determinization. Its kernel on
    bitmask sets is `_choice_bits`.
    """
    fams = frozenset(frozenset(u) for u in family)
    return frozenset(frozenset(choice) for choice in product(*fams))


def hitting_unions(fams: Sequence[Iterable[int]]) -> frozenset:
    """The set {union of V | V a hitting set of fams}, on bitmask elements.

    Every hitting set is one pick per member set plus arbitrary further
    members, so the result is the choice-unions closed under joining any
    member. Agrees with mapping union over chi_good(fams).
    """
    factors = [tuple(f) for f in fams]
    if any(not f for f in factors):
        return frozenset()
    choices = {0}
    for f in factors:
        choices = {c | u for c in choices for u in f}
    for u in {u for f in factors for u in f}:
        choices |= {c | u for c in choices}
    return frozenset(choices)


def alt_to_nfa(a: AlternatingAut) -> DetResult:
    """Translate an alternating automaton to an NFA on state subsets.

    A subset steps under a to every union of a hitting set of its members'
    branch families, `_one_step`'s forward step, and accepts iff all its
    members output true (so the empty subset is an accepting sink). The
    successor families are the closure-enlarged ones produced by `chi_good`;
    the textbook translation is deliberately not attempted.
    """
    require_valid(a)
    _, out_mask, step = _one_step(a, back=False)
    embed, order, rows = _explore(
        [1 << x for x in range(a.n_states)],
        lambda s, intern: [(label, intern(t)) for ai, label in enumerate(a.alphabet) for t in step(ai, s)],
    )
    transitions = {(sid, label, t) for sid, row in enumerate(rows) for label, t in row}
    accepting = [i for i, s in enumerate(order) if s & ~out_mask == 0]
    machine = NFA(len(order), a.alphabet, transitions, accepting, names=[f"d{i}" for i in range(len(order))])
    return DetResult(machine, dict(enumerate(embed)), _Meanings(order, lambda s: frozenset(_iter_bits(s))), "alt")


def canonical_det_nfa(n: NFA, bound: int = 4) -> Union[DetResult, BudgetExceeded]:
    """Double-dual determinization: states are sets of predicates on n's states.

    A state x embeds as the set of predicates holding at x. A predicate
    belongs to the a-successor of Q iff its a-preimage (the states with some
    a-successor satisfying it) belongs to Q, and Q outputs true iff the
    acceptance predicate belongs to Q. So Q is the up-set {phi : phi meets
    S} of a subset S, stepping to the up-set of S's successor set: the
    machine is the disjunctive subset machine, with up-sets as meanings.
    `bound` caps the input size, as a meaning lists up to 2^|states|
    predicates; a bound below 0 raises ValueError.
    """
    require_valid(n)
    if bound < 0:
        raise ValueError(f"bound must be at least 0, got {bound}")
    if n.n_states > bound:
        return BudgetExceeded("canonical", bound, n.n_states)
    subsets, preds = det_subset(n), range(1, 1 << n.n_states)
    meaning = lambda s: frozenset(frozenset(_iter_bits(phi)) for phi in preds if phi & s)
    return DetResult(subsets.machine, subsets.embed, _Meanings(subsets.state_meaning._states, meaning), "canonical")
