"""Depth-bounded trace semantics for every automaton kind.

Each word automaton kind comes with a one-step recurrence: a base value, for
all states at once, and a step that takes the value of w to that of a.w.
`determinize._explore` explores the recurrence from its base to the depth, so
each distinct value is stepped once per letter however many words share it; a
table's entries are a read-only view (`_ValueView`) of the words' value
numbers, each distinct value read once, on first access. Every word kind,
the alternating one included, takes its base and its preimage step from
`determinize._one_step`, the one source of both steps. Values are bitmasks
for the Boolean kinds and, over NAT and RAT, integer tuples (d, n_0, ...)
with gcd 1 for the vectors n / d: one value per vector. Tree automata are
unfolded bottom-up by tree height over the shapes of `automata._tree_shapes`:
`_tree_step` runs once per distinct (op, child value numbers), and the table
is a read-only view (`_TreeView`) of the trees' value numbers that builds no
tree until it is iterated. Each table is total on all words (trees) within
the requested depth, and a negative depth raises ValueError.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .automata import (
    GPS,
    LTS,
    NFA,
    AlternatingAut,
    MooreAut,
    Shape,
    Tree,
    WeightedAut,
    WeightedTreeAut,
    _fold,
    _fold_shapes,
    _tree_shapes,
    check_state,
    require_valid,
)
from .determinize import _explore, _one_step
from .weights import PartialProb, WeightVec

Word = Tuple[str, ...]


class _View(Mapping):
    """A read-only mapping from keys to values held as value numbers:
    layers[k][i] numbers, in raw, the explored value of the key of index i
    in layer k, and distinct holds read(v) of each v in raw (raw without a
    read); ratio, if any, is `_ratio` at the key's state. It iterates layer
    by layer and compares equal to the dict of its items."""

    __slots__ = ("layers", "raw", "ratio", "_read", "_distinct", "_len")

    def __init__(self, layers: List[List[int]], raw: Sequence[Any], read: Optional[Callable] = None, ratio: Optional[Callable] = None):
        self.layers, self.raw, self.ratio, self._read = layers, raw, ratio, read
        self._distinct = None if read else raw
        self._len = sum(map(len, layers))

    @property
    def distinct(self) -> Sequence[Any]:
        if self._distinct is None:
            self._distinct = list(map(self._read, self.raw))
        return self._distinct

    def __len__(self) -> int:
        return self._len

    def items(self) -> ItemsView:
        return _ViewItems(self)

    def values(self) -> ValuesView:
        return _ViewValues(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _ValueView(_View):
    """The words up to the depth: layer k holds the length-k words, the word
    of index i having its letters' positions read as base-|alphabet| digits,
    first letter most significant. Any other key raises KeyError. distinct
    is read on first access, so a table that is only printed from raw and
    ratio builds no Fraction or PartialProb."""

    __slots__ = ("alphabet", "_position")

    def __init__(self, alphabet: Sequence[str], layers: List[List[int]], raw: Sequence[Any], read: Optional[Callable] = None, ratio: Optional[Callable] = None):
        super().__init__(layers, raw, read, ratio)
        self.alphabet = tuple(alphabet)
        self._position = {a: i for i, a in enumerate(self.alphabet)}

    def __getitem__(self, word: Word) -> Any:
        if isinstance(word, tuple) and len(word) < len(self.layers):
            index, m = 0, len(self.alphabet)
            for a in word:
                i = self._position.get(a)
                if i is None:
                    break
                index = index * m + i
            else:
                return self.distinct[self.layers[len(word)][index]]
        raise KeyError(word)

    def __iter__(self) -> Iterator[Word]:
        words: List[Word] = [()]
        for k in range(len(self.layers)):
            if k:
                words = [(a,) + w for a in self.alphabet for w in words]
            yield from words


class _TreeView(_View):
    """The trees up to the depth: layer h holds the height-h trees in the
    order of `shapes` (`automata._tree_shapes`), and memo numbers the value
    of each (op, child value numbers) that a tree within the depth has. A
    key is looked up by folding it through memo; a tree beyond the depth, an
    unknown operator, a wrong arity and a key that is not a Tree raise
    KeyError. Trees are built only when the view is iterated."""

    __slots__ = ("shapes", "_memo")

    def __init__(self, shapes: List[List[Shape]], layers: List[List[int]], memo: Dict[Tuple[str, Tuple[int, ...]], int], distinct: Sequence[Any]):
        super().__init__(layers, distinct)
        self.shapes, self._memo = shapes, memo

    def __getitem__(self, tree: Tree) -> Any:
        if isinstance(tree, Tree):
            found = _fold(tree, partial(_tree_key, self._memo, len(self.layers) - 1))
            if found is not None:
                return self.distinct[found[1]]
        raise KeyError(tree)

    def __iter__(self) -> Iterator[Tree]:
        return chain.from_iterable(_fold_shapes(self.shapes, Tree))


def _tree_key(memo: Dict[Tuple[str, Tuple[int, ...]], int], top: int, op: str, below: List[Any]) -> Any:
    """One node of a _TreeView lookup: (height, value number) of the node
    over its children's, or None once a node is past the height top or its
    (op, child value numbers) is unknown, which then stays None to the root."""
    if not below:
        v = memo.get((op, ()))
        return None if v is None else (0, v)
    if None in below:
        return None
    heights, numbers = zip(*below)
    height, v = 1 + max(heights), memo.get((op, numbers))
    return None if v is None or height > top else (height, v)


class _ViewItems(ItemsView):
    def __iter__(self):
        view = self._mapping
        return zip(view, _ViewValues(view))


class _ViewValues(ValuesView):
    def __iter__(self):
        distinct = self._mapping.distinct
        return (distinct[i] for layer in self._mapping.layers for i in layer)


@dataclass(frozen=True)
class LanguageTable:
    """Map from words of length <= depth to Boolean or carrier values; the
    word kinds' entries are a read-only `_ValueView`."""

    depth: int
    entries: Mapping[Word, Any]

    def __getitem__(self, word) -> Any:
        return self.entries[tuple(word)]


@dataclass(frozen=True)
class TreeLanguageTable:
    """Map from arity-correct trees of height <= depth to carrier values, as
    a read-only `_TreeView`."""

    depth: int
    entries: Mapping[Tree, Any]

    def __getitem__(self, tree: Tree) -> Any:
        return self.entries[tree]


@dataclass(frozen=True)
class TraceDist:
    """Map from words to the exact probability of the complete trace, as a
    read-only `_ValueView`."""

    depth: int
    entries: Mapping[Word, PartialProb]

    def __getitem__(self, word) -> PartialProb:
        return self.entries[tuple(word)]


def format_word(word: Sequence[str]) -> str:
    """Render a word for output: ε when empty, ·-separated for long labels."""
    if not word:
        return "ε"
    if all(len(label) == 1 for label in word):
        return "".join(word)
    return "·".join(word)


def _joined_texts(letters: Sequence[str], depth: int, sep: str) -> Iterator[List[str]]:
    """Per length 1 to the depth, each word's letter texts joined by sep, by
    word index (first letter major), each built from its suffix's text."""
    joined = list(letters)
    for k in range(depth):
        if k:
            joined = [a + sep + t for a in letters for t in joined]
        yield joined


def _word_texts(alphabet: Sequence[str], depth: int) -> Iterator[List[str]]:
    """Per length up to the depth, the `format_word` text of each word by
    index, by `_joined_texts`. The separator is decided once per alphabet;
    one that mixes one-character labels with longer ones also keeps the
    plain join of the words whose labels are all short."""
    yield ["ε"]
    short = [len(a) == 1 for a in alphabet]
    sep = "" if all(short) else "·"
    plain = [a if s else None for a, s in zip(alphabet, short)]
    for k, joined in enumerate(_joined_texts(alphabet, depth, sep)):
        if k and sep:
            plain = [a + p if s and p is not None else None for a, s in zip(alphabet, short) for p in plain]
        yield [t if p is None else p for t, p in zip(joined, plain)] if sep else joined


def _at_least(floor: int, **values: int) -> None:
    for name, value in values.items():
        if value < floor:
            raise ValueError(f"{name} must be at least {floor}, got {value}")


def _unfold(alphabet: Sequence[str], base, step: Callable, depth: int) -> Tuple[List[Any], List[List[int]]]:
    """Explore a one-step recurrence from its base to the depth.

    Returns the distinct values of the words up to the depth, numbered
    breadth first, and the explored rows: rows[v][ai] numbers the a-step of
    the value v, for each v within depth - 1 steps of the base, so each
    distinct value is stepped once per letter. A negative depth raises
    ValueError.
    """
    _at_least(0, depth=depth)
    letters = range(len(alphabet))
    _, values, rows = _explore([base], lambda v, intern: [intern(step(ai, v)) for ai in letters], depth=depth)
    return values, rows


def _bit(mask: int, x: int) -> bool:
    return bool(mask >> x & 1)


def _ratio(v: Tuple[int, ...], x: int) -> Tuple[int, int]:
    """Entry x of an integer tuple of `_recurrence` as a reduced (numerator,
    denominator), from which read builds its value and the CLI prints it."""
    g = gcd(v[x + 1], v[0])
    return v[x + 1] // g, v[0] // g


def _recurrence(aut, mode: str = "disj") -> Tuple[Any, Callable, Callable[[Any, int], Any]]:
    """The empty-word values, the one-step function and the reader of a word
    automaton; read(v, x) is state x's entry of the value v.

    The outputs and the preimage step come from `determinize._one_step`,
    the one source of both steps, and this adds the reader. Values are
    bitmasks over states for the Boolean kinds (NFA in `mode`, LTS,
    alternating, and weighted and Moore automata over BOOL), and over NAT
    and RAT (weighted, GPS and Moore) integer tuples (d, n_0, ...) for the
    vectors n / d, with d > 0 and gcd(d, n_0, ...) = 1: d is the lcm of the
    entries' reduced denominators, one tuple per vector.
    """
    sr, out, step = _one_step(aut, mode)
    if sr.name == "bool":
        return out, step, _bit
    make = (lambda n, d: n) if sr.name == "nat" else (lambda n, d: PartialProb(Fraction(n, d))) if isinstance(aut, GPS) else Fraction
    return out, step, lambda v, x: make(*_ratio(v, x))


def _trace(aut, x: int, depth: int, mode: str = "disj") -> _ValueView:
    """x's value on every word up to the depth, from aut's recurrence. The
    length-k layer holds the length-k words' value numbers by index, and a.w,
    at index a * |A|^(k - 1) + index of w, the a-entry of w's value's row."""
    check_state(aut, x)
    require_valid(aut)
    base, step, read = _recurrence(aut, mode)
    values, rows = _unfold(aut.alphabet, base, step, depth)
    letters = range(len(aut.alphabet))
    layers = [[0]]
    for _ in range(depth):
        layers.append([rows[i][ai] for ai in letters for i in layers[-1]])
    ratio = partial(_ratio, x=x) if type(base) is tuple else None  # bitmasks are read as bools
    return _ValueView(aut.alphabet, layers, values, lambda v: read(v, x), ratio)


def nfa_trace(n: NFA, x: int, depth: int) -> LanguageTable:
    """Language of x up to the depth: the empty word iff x accepts, and a.w
    iff some a-successor of x accepts w."""
    return LanguageTable(depth, _trace(n, x, depth))


def length_semantics(n: NFA, x: int, depth: int) -> Dict[int, bool]:
    """Whether x accepts some word of each length up to the depth: the
    language of n with every letter read as one letter *."""
    require_valid(n)
    star = NFA(n.n_states, ["*"], [(p, "*", q) for p, _, q in n.transitions], n.accepting, n.names)
    return {len(w): v for w, v in _trace(star, x, depth).items()}


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
    return TraceDist(depth, _trace(g, x, depth))


def moore_trace(m: MooreAut, x: int, depth: int) -> LanguageTable:
    """Observed outputs of a deterministic machine: the value at w is the
    output of the state reached by reading w."""
    _at_least(0, depth=depth)
    require_valid(m)
    check_state(m, x)
    # layers[k][i]: the state that the length-k word of index i leads x to
    layers = [[x]]
    for _ in range(depth):
        layers.append([t for s in layers[-1] for t in m.delta[s]])
    return LanguageTable(depth, _ValueView(m.alphabet, layers, m.outputs))


def _tree_step(w: WeightedTreeAut) -> Callable[[str, Sequence[Callable[[int], Any]]], List[Any]]:
    """One bottom-up step of w: op and one value function per child go to the
    list whose x entry is the sum over rules op(x1..xn) of x of the rule
    weight times the product of the args[i](xi)."""
    sr = w.semiring
    add, mul, zero = sr.add, sr.mul, sr.zero
    by_op: List[Dict[str, List[Tuple[Tuple[int, ...], Any]]]] = [{} for _ in range(w.n_states)]
    for s, rules in enumerate(w.rules):
        for (op, children), wt in rules.items():
            by_op[s].setdefault(op, []).append((children, wt))

    def step(op: str, args: Sequence[Callable[[int], Any]]) -> List[Any]:
        values = []
        for rules in by_op:
            acc = zero
            for children, wt in rules.get(op, ()):
                term = wt
                for c, arg in zip(children, args):
                    term = mul(term, arg(c))
                    if term == zero:
                        break
                acc = add(acc, term)
            values.append(acc)
        return values

    return step


def wta_trace(w: WeightedTreeAut, x: int, depth: int) -> TreeLanguageTable:
    """Tree series of x: on op(t1..tn), the sum over rules op(x1..xn) of the
    rule weight times the product of the xi values at ti, bottom-up by height.

    The value vectors (all states at once) are numbered as they appear, and
    `_tree_step` runs once per distinct (op, child value numbers), however
    many trees share it; each distinct vector is read once at x."""
    _at_least(0, depth=depth)
    require_valid(w)
    check_state(w, x)
    step = _tree_step(w)
    shapes = _tree_shapes(w.signature, depth)
    vectors: List[Tuple[Any, ...]] = []
    number: Dict[Tuple[Any, ...], int] = {}  # distinct vector -> its value number
    memo: Dict[Tuple[str, Tuple[int, ...]], int] = {}  # (op, child value numbers) -> value number

    def value_number(op: str, children: List[int]) -> int:
        key = (op, tuple(children))
        v = memo.get(key)
        if v is None:
            vec = tuple(step(op, [vectors[c].__getitem__ for c in children]))
            v = memo[key] = number.setdefault(vec, len(vectors))
            if v == len(vectors):
                vectors.append(vec)
        return v

    layers = _fold_shapes(shapes, value_number)
    return TreeLanguageTable(depth, _TreeView(shapes, layers, memo, [vec[x] for vec in vectors]))


def bottom_up_algebra(w: WeightedTreeAut) -> Callable[[str, Sequence[WeightVec]], WeightVec]:
    """Algebra view of a weighted tree automaton.

    The returned evaluator sends an operator and one weight vector per child
    to the vector whose x entry is the sum over rules op(x1..xn) of x of the
    rule weight times the product of the child vectors at the xi. It runs
    the same step as `wta_trace`, so folding a tree through it and reading
    off coordinate x gives `wta_trace`'s value.
    """
    require_valid(w)
    step = _tree_step(w)
    arity = w.arity()

    def evaluator(op: str, args: Sequence[WeightVec]) -> WeightVec:
        if op not in arity:
            raise ValueError(f"unknown operator {op!r}")
        if len(args) != arity[op]:
            raise ValueError(f"operator {op!r} expects {arity[op]} arguments, got {len(args)}")
        return WeightVec(w.semiring, enumerate(step(op, args)))

    return evaluator


def fold_tree(evaluator: Callable[[str, Sequence[WeightVec]], WeightVec], t: Tree) -> WeightVec:
    """Evaluate t bottom-up through the evaluator, without recursion."""
    return _fold(t, evaluator)
