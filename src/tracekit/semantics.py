"""Depth-bounded trace semantics for every automaton kind.

Each machine kind comes with a one-step recurrence; the functions here unfold
it by dynamic programming over word length (tree height for tree automata).
Layer k+1 depends only on layer k and the recurrences couple all states, so
the tables for every state are produced in one pass and each table is total on
all words (trees) within the requested depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import itemgetter, or_
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from .automata import (
    GPS,
    LTS,
    NFA,
    AlternatingAut,
    MooreAut,
    TERM,
    Tree,
    WeightedAut,
    WeightedTreeAut,
    _fold,
    all_trees,
    check_state,
    require_valid,
)
from .weights import RAT, PartialProb, Semiring, WeightVec

Word = Tuple[str, ...]


@dataclass(frozen=True)
class LanguageTable:
    """Map from words of length <= depth to Boolean or carrier values."""

    depth: int
    entries: Mapping[Word, Any]

    def __getitem__(self, word) -> Any:
        return self.entries[tuple(word)]


@dataclass(frozen=True)
class TreeLanguageTable:
    """Map from arity-correct trees of height <= depth to carrier values."""

    depth: int
    entries: Mapping[Tree, Any]

    def __getitem__(self, tree: Tree) -> Any:
        return self.entries[tree]


@dataclass(frozen=True)
class TraceDist:
    """Map from words to the exact probability of the complete trace."""

    depth: int
    entries: Mapping[Word, PartialProb]

    def __getitem__(self, word) -> PartialProb:
        return self.entries[tuple(word)]


def word_at(alphabet: Sequence[str], length: int, index: int) -> Word:
    """Decode the word at a positional index within its length layer.

    Words of one length are ordered lexicographically by letter index; the
    index is read as `length` base-|alphabet| digits, most significant first.
    """
    m = len(alphabet)
    letters = []
    for _ in range(length):
        index, d = divmod(index, m)
        letters.append(alphabet[d])
    letters.reverse()
    return tuple(letters)


def format_word(word: Sequence[str]) -> str:
    """Render a word for output: ε when empty, ·-separated for long labels."""
    if not word:
        return "ε"
    if all(len(label) == 1 for label in word):
        return "".join(word)
    return "·".join(word)


def _layers(alphabet: Sequence[str], base, step: Callable, depth: int) -> List[list]:
    """Unfold a one-step recurrence by word length.

    layers[k][i] is the value, for all states at once, of the length-k word
    with index i; layers[0] is [base]. The word a.w sits at index
    (a * len(layers[k - 1]) + index of w), and its value is step(a, value of
    w). Many words share a value, so step results are memoized per letter.
    """
    layers = [[base]]
    memos: List[dict] = [{} for _ in alphabet]
    for _ in range(depth):
        cur = []
        for ai, memo in enumerate(memos):
            for v in layers[-1]:
                nv = memo.get(v)
                if nv is None:
                    nv = memo[v] = step(ai, v)
                cur.append(nv)
        layers.append(cur)
    return layers


def _mask_step(masks: Sequence[Sequence[int]], conj: bool = False) -> Callable[[int, int], int]:
    """Boolean successor-mask step over bitmasks of states.

    masks[x][ai] is x's a-successor set. Bit x of step(ai, p) is set iff some
    a-successor of x is in p, or, when conj, every one is (vacuously so for
    none): the conjunctive step is the disjunctive one on complements.
    """
    full = (1 << len(masks)) - 1

    def some(ai: int, p: int) -> int:
        q = 0
        for x, row in enumerate(masks):
            if row[ai] & p:
                q |= 1 << x
        return q

    if conj:
        return lambda ai, p: full ^ some(ai, full ^ p)
    return some


def _alt_step(fams: Sequence[Sequence[Sequence[int]]]) -> Callable[[int, int], int]:
    """Bit x of step(ai, p) is set iff some a-branch set of x (a bitmask in
    fams[x][ai]) lies inside p."""

    def step(ai: int, p: int) -> int:
        miss = ~p
        q = 0
        for x, row in enumerate(fams):
            for inner in row[ai]:
                if not inner & miss:
                    q |= 1 << x
                    break
        return q

    return step


def _linear_step(rows: Sequence[Sequence[Sequence[Tuple[int, Any]]]], sr: Semiring) -> Callable:
    """Entry x of step(ai, v) is the sum over the (y, weight) pairs of
    rows[x][ai] of weight * v[y], in the semiring sr."""
    add, mul, zero = sr.add, sr.mul, sr.zero

    def step(ai: int, v: tuple) -> tuple:
        out = []
        for row in rows:
            acc = zero
            for y, wt in row[ai]:
                acc = add(acc, mul(wt, v[y]))
            out.append(acc)
        return tuple(out)

    return step


def _recurrence(aut, mode: str = "disj") -> Tuple[Any, Callable]:
    """The empty-word values and the one-step function of a word automaton.

    Values are bitmasks over states for the Boolean kinds (NFA in `mode`,
    LTS as an NFA whose every state accepts, alternating) and tuples over
    states for the carrier kinds (weighted, GPS over RAT, and Moore as a
    weighted automaton whose a-row is weight one on the a-successor).
    """
    if isinstance(aut, NFA):
        if mode not in ("disj", "conj"):
            raise ValueError(f"mode must be 'disj' or 'conj', got {mode!r}")
        return aut.accepting_mask(), _mask_step(aut.succ_masks(), mode == "conj")
    if isinstance(aut, LTS):
        masks = [[sum(1 << y for y in succ) for succ in row] for row in aut.trans]
        return (1 << aut.n_states) - 1, _mask_step(masks)
    if isinstance(aut, AlternatingAut):
        fams = [
            [tuple(sum(1 << y for y in inner) for inner in fam) for fam in row]
            for row in aut.trans
        ]
        return sum(1 << x for x in range(aut.n_states) if aut.outputs[x]), _alt_step(fams)
    if isinstance(aut, WeightedAut):
        rows = [[vec.items() for vec in row] for row in aut.trans]
        return tuple(aut.out), _linear_step(rows, aut.semiring)
    if isinstance(aut, GPS):
        aidx = aut.letter_index()
        moves: List[List[List[Tuple[int, Fraction]]]] = [
            [[] for _ in aut.alphabet] for _ in aut.dist
        ]
        for x, d in enumerate(aut.dist):
            for k, p in d.items():
                if k is not TERM:
                    moves[x][aidx[k[0]]].append((k[1], p))
        return tuple(d.get(TERM, RAT.zero) for d in aut.dist), _linear_step(moves, RAT)
    if isinstance(aut, MooreAut):
        one = aut.semiring.one
        rows = [[((t, one),) for t in row] for row in aut.delta]
        return aut.outputs, _linear_step(rows, aut.semiring)
    raise TypeError(f"not a word automaton: {aut!r}")


def _reader(base, x: int) -> Callable[[Any], Any]:
    """Read state x's entry off a layer value shaped like base."""
    if isinstance(base, int):
        return lambda mask: bool(mask >> x & 1)
    return itemgetter(x)


def _table(alphabet: Sequence[str], layers: List[list], read: Callable) -> Dict[Word, Any]:
    """One entry per word up to the depth, by length and then index: read
    applied to the word's value in the layers."""
    entries: Dict[Word, Any] = {}
    words: List[Word] = [()]
    for k, layer in enumerate(layers):
        if k:
            words = [(a,) + w for a in alphabet for w in words]
        entries.update(zip(words, map(read, layer)))
    return entries


def _trace(aut, x: int, depth: int, mode: str = "disj") -> Dict[Word, Any]:
    """x's value on every word up to the depth, from aut's recurrence."""
    check_state(aut, x)
    require_valid(aut)
    base, step = _recurrence(aut, mode)
    return _table(aut.alphabet, _layers(aut.alphabet, base, step, depth), _reader(base, x))


def nfa_trace(n: NFA, x: int, depth: int) -> LanguageTable:
    """Language of x up to the depth: the empty word iff x accepts, and a.w
    iff some a-successor of x accepts w."""
    return LanguageTable(depth, _trace(n, x, depth))


def length_semantics(n: NFA, x: int, depth: int) -> Dict[int, bool]:
    """Whether x accepts some word of each length up to the depth: the
    language of n with every letter read as one, whose successor set is the
    union of the letters' successor sets."""
    require_valid(n)
    check_state(n, x)
    rows = [[reduce(or_, row, 0)] for row in n.succ_masks()]
    base = n.accepting_mask()
    read = _reader(base, x)
    return {k: read(v) for k, (v,) in enumerate(_layers(("*",), base, _mask_step(rows), depth))}


def bt_nfa_trace(n: NFA, x: int, depth: int, mode: str = "disj") -> LanguageTable:
    """Trace table for the successor-function view, in either branching mode.

    Disjunctive mode asks for some successor to accept the rest of the word;
    conjunctive mode asks for all successors to accept it, which is vacuously
    true when the successor set is empty.
    """
    return LanguageTable(depth, _trace(n, x, depth, mode))


def lts_traces(l: LTS, x: int, depth: int) -> LanguageTable:
    """Finite traces: the empty word always holds, a.w holds iff some
    a-successor can do w."""
    return LanguageTable(depth, _trace(l, x, depth))


def alt_trace(a: AlternatingAut, x: int, depth: int) -> LanguageTable:
    """a.w holds iff some branch set for a has all members accepting w."""
    return LanguageTable(depth, _trace(a, x, depth))


def wa_trace(w: WeightedAut, x: int, depth: int) -> LanguageTable:
    """Weighted language: out(x) on the empty word, and on a.w the sum over
    successors y of the transition weight times the value of w at y."""
    return LanguageTable(depth, _trace(w, x, depth))


def gps_trace(g: GPS, x: int, depth: int) -> TraceDist:
    """Probability of each complete trace: termination mass on the empty word,
    and on a.w the sum over (a, y) moves of their probability times y's value
    at w. Entries of pairwise distinct words never sum above 1."""
    entries = _trace(g, x, depth)
    return TraceDist(depth, {w: PartialProb(p) for w, p in entries.items()})


def moore_trace(m: MooreAut, x: int, depth: int) -> LanguageTable:
    """Observed outputs of a deterministic machine: the value at w is the
    output of the state reached by reading w."""
    require_valid(m)
    check_state(m, x)
    # layers[k][i]: the state that the length-k word of index i leads x to
    layers = [[x]]
    for _ in range(depth):
        layers.append([t for s in layers[-1] for t in m.delta[s]])
    return LanguageTable(depth, _table(m.alphabet, layers, m.outputs.__getitem__))


def wta_trace(w: WeightedTreeAut, x: int, depth: int) -> TreeLanguageTable:
    """Tree series of x: on op(t1..tn), the sum over rules op(x1..xn) of the
    rule weight times the product of the xi values at ti, bottom-up by height."""
    require_valid(w)
    check_state(w, x)
    sr = w.semiring
    add, mul, zero, one = sr.add, sr.mul, sr.zero, sr.one
    by_op: List[Dict[str, List[Tuple[Tuple[int, ...], Any]]]] = [{} for _ in range(w.n_states)]
    for s, rules in enumerate(w.rules):
        for (op, children), wt in rules.items():
            by_op[s].setdefault(op, []).append((children, wt))
    trees = all_trees(w.signature, depth)
    memo: Dict[Tuple[int, Tree], Any] = {}
    for t in trees:
        for s in range(w.n_states):
            acc = zero
            for children, wt in by_op[s].get(t.op, ()):
                term = wt
                for cs, ct in zip(children, t.children):
                    term = mul(term, memo[(cs, ct)])
                    if term == zero:
                        break
                acc = add(acc, term)
            memo[(s, t)] = acc
    return TreeLanguageTable(depth, {t: memo[(x, t)] for t in trees})


def bottom_up_algebra(w: WeightedTreeAut) -> Callable[[str, Sequence[WeightVec]], WeightVec]:
    """Algebra view of a weighted tree automaton.

    The returned evaluator sends an operator and one weight vector per child
    to the vector whose x entry is the sum over rules op(x1..xn) of x of the
    rule weight times the product of the child vectors at the xi. Folding a
    tree through the evaluator and reading off coordinate x agrees with
    `wta_trace`.
    """
    require_valid(w)
    sr = w.semiring
    mul, zero = sr.mul, sr.zero
    arity = w.arity()

    def evaluator(op: str, args: Sequence[WeightVec]) -> WeightVec:
        if op not in arity:
            raise ValueError(f"unknown operator {op!r}")
        if len(args) != arity[op]:
            raise ValueError(f"operator {op!r} expects {arity[op]} arguments, got {len(args)}")
        pairs = []
        for s, rules in enumerate(w.rules):
            for (rop, children), wt in rules.items():
                if rop != op:
                    continue
                term = wt
                for i, c in enumerate(children):
                    term = mul(term, args[i](c))
                    if term == zero:
                        break
                if term != zero:
                    pairs.append((s, term))
        return WeightVec(sr, pairs)

    return evaluator


def fold_tree(evaluator: Callable[[str, Sequence[WeightVec]], WeightVec], t: Tree) -> WeightVec:
    """Evaluate t bottom-up through the evaluator, without recursion."""
    return _fold(t, evaluator)
