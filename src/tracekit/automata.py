"""Finite coalgebra-style automaton structures.

Every machine here is a finite state space plus one structure map per state:
nondeterministic (NFA), deterministic Moore, semiring-weighted (word and
tree), alternating, labelled transition systems, and generative probabilistic
systems. States are interned small integers so that sets of states can be
handled as bitmasks; a name table preserves user-facing labels. Machines carry
no designated initial state; initial states are supplied per query.

Construction is permissive: `validate` reports invariant violations as data,
and the semantic operations insist on a clean report before running.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product, repeat
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .weights import BOOL, Semiring, WeightVec

Label = str


class ValidationError(ValueError):
    """An operation was applied to a structurally invalid automaton."""


class UnknownStateError(ValueError):
    """A query referred to a state that the automaton does not have."""


class _TermType:
    """The termination outcome in a generative probabilistic distribution."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TERM"


TERM = _TermType()


def _iter_bits(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _common_violations(aut) -> List[str]:
    out = []
    if len(aut.names) != aut.n_states:
        out.append(f"name table has {len(aut.names)} entries for {aut.n_states} states")
    elif len(set(aut.names)) != aut.n_states:
        out.append("state names are not unique")
    if len(set(aut.alphabet)) != len(aut.alphabet):
        out.append("alphabet labels are not unique")
    if any(not isinstance(a, str) or not a for a in aut.alphabet):
        out.append("alphabet labels must be nonempty strings")
    return out


def _name(aut, x: int) -> str:
    if 0 <= x < len(aut.names):
        return aut.names[x]
    return f"<{x}>"


def _all_values(semiring: Semiring, values: Sequence[Any]) -> bool:
    """Whether _check_value holds for every value, by whole-column checks
    that fail on a subclass of the carrier's type, which it accepts."""
    types = {"bool": {bool}, "nat": {int}, "rat": {Fraction}}.get(semiring.name, set())
    return set(map(type, values)) <= types and (semiring.name != "nat" or min(values, default=0) >= 0)


def _check_value(semiring: Semiring, v: Any) -> bool:
    if semiring.name == "bool":
        return isinstance(v, bool)
    if semiring.name == "nat":
        return isinstance(v, int) and not isinstance(v, bool) and v >= 0
    if semiring.name == "rat":
        return isinstance(v, Fraction)
    return True


class _Machine:
    """A state space 0..n_states-1 with its name table and its alphabet.

    Names default to q0, q1, ...; a tree automaton has the empty alphabet.
    `_cache` holds a clean `require_valid` result.
    """

    def __init__(self, n_states: int, alphabet: Iterable[Label], names: Optional[Sequence[str]]):
        self.n_states = int(n_states)
        self.alphabet = tuple(alphabet)
        self.names = tuple(names) if names is not None else tuple(f"q{i}" for i in range(self.n_states))
        self._aidx = {a: i for i, a in enumerate(self.alphabet)}
        self._cache: Dict[str, Any] = {}

    def letter_index(self) -> Dict[Label, int]:
        return self._aidx

    def _rows(self, trans: Mapping[Tuple[int, Label], Any], empty: Any, convert: Callable[[Any], Any]):
        """The dense [state][letter index] table of trans; absent pairs share the immutable empty."""
        rows = [[empty] * len(self.alphabet) for _ in range(self.n_states)]
        for (x, a), entry in trans.items():
            rows[x][self._aidx[a]] = convert(entry)
        return tuple(tuple(row) for row in rows)


class NFA(_Machine):
    """Nondeterministic finite automaton: a transition set plus accepting set."""

    def __init__(
        self,
        n_states: int,
        alphabet: Iterable[Label],
        transitions: Iterable[Tuple[int, Label, int]],
        accepting: Iterable[int] = (),
        names: Optional[Sequence[str]] = None,
    ):
        super().__init__(n_states, alphabet, names)
        self.transitions = frozenset((p, a, q) for p, a, q in transitions)
        self.accepting = frozenset(accepting)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NFA) and (
            self.n_states,
            self.alphabet,
            self.transitions,
            self.accepting,
            self.names,
        ) == (other.n_states, other.alphabet, other.transitions, other.accepting, other.names)

    def __hash__(self) -> int:
        return hash((self.n_states, self.alphabet, self.transitions, self.accepting))

    def __repr__(self) -> str:
        return (
            f"NFA({self.n_states} states, alphabet {''.join(self.alphabet)!r}, "
            f"{len(self.transitions)} transitions, accepting {sorted(self.accepting)})"
        )

    def _violations(self) -> List[str]:
        out = _common_violations(self)
        labels = set(self.alphabet)
        state = lambda x: isinstance(x, int) and 0 <= x < self.n_states
        bad = [(p, a, q) for p, a, q in self.transitions if not (state(p) and state(q) and a in labels)]
        for p, a, q in sorted(bad, key=repr):
            if not state(p):
                out.append(f"transition ({p!r}, {a!r}, {q!r}): unknown source state")
            if not state(q):
                out.append(f"transition ({_name(self, p) if isinstance(p, int) else p!r}, {a!r}, {q!r}): unknown target state")
            if a not in labels:
                out.append(f"transition ({_name(self, p) if isinstance(p, int) else p!r}, {a!r}, ...): unknown label")
        for x in sorted([x for x in self.accepting if not state(x)], key=repr):
            out.append(f"accepting state {x!r} is not a state")
        return out


class MooreAut(_Machine):
    """Deterministic Moore machine: per-state output, total transition table.

    `delta` is a dense table indexed [state][letter index], which makes
    totality structural; `outputs` take values in the tagged semiring's
    carrier (Boolean for acceptance-style machines).
    """

    def __init__(
        self,
        alphabet: Iterable[Label],
        outputs: Sequence[Any],
        delta: Sequence[Sequence[int]],
        semiring: Semiring = BOOL,
        names: Optional[Sequence[str]] = None,
    ):
        self.outputs = tuple(outputs)
        super().__init__(len(self.outputs), alphabet, names)
        self.delta = tuple(map(tuple, delta))
        self.semiring = semiring

    def step(self, x: int, word: Iterable[Label]) -> int:
        aidx = self.letter_index()
        for a in word:
            x = self.delta[x][aidx[a]]
        return x

    def __repr__(self) -> str:
        return f"MooreAut({self.n_states} states, alphabet {''.join(self.alphabet)!r}, {self.semiring.name})"

    def _violations(self) -> List[str]:
        out = _common_violations(self)
        if len(self.delta) != self.n_states:
            out.append(f"delta has {len(self.delta)} rows for {self.n_states} states")
        # the rows and outputs are walked only when a whole-column check fails
        ts = tuple(chain.from_iterable(self.delta))
        if not (set(map(len, self.delta)) <= {len(self.alphabet)} and all(map(isinstance, ts, repeat(int)))
                and (not ts or 0 <= min(ts) and max(ts) < self.n_states)):
            for x, row in enumerate(self.delta):
                if len(row) != len(self.alphabet):
                    out.append(f"delta row for {_name(self, x)} is not total on the alphabet")
                    continue
                for i, t in enumerate(row):
                    if not (isinstance(t, int) and 0 <= t < self.n_states):
                        out.append(f"delta({_name(self, x)}, {self.alphabet[i]!r}) leads to unknown state {t!r}")
        if not _all_values(self.semiring, self.outputs):
            for x, o in enumerate(self.outputs):
                if not _check_value(self.semiring, o):
                    out.append(f"output of {_name(self, x)} is not a {self.semiring.name} value: {o!r}")
        return out


class WeightedAut(_Machine):
    """Semiring-weighted automaton: termination weight plus weighted successors."""

    def __init__(
        self,
        n_states: int,
        alphabet: Iterable[Label],
        semiring: Semiring,
        out: Sequence[Any],
        trans: Mapping[Tuple[int, Label], Any],
        names: Optional[Sequence[str]] = None,
    ):
        super().__init__(n_states, alphabet, names)
        self.semiring = semiring
        self.out = tuple(out)
        self.trans = self._rows(
            trans,
            WeightVec(semiring),
            lambda v: v if isinstance(v, WeightVec) else WeightVec(semiring, v),
        )

    def __repr__(self) -> str:
        return f"WeightedAut({self.n_states} states, alphabet {''.join(self.alphabet)!r}, {self.semiring.name})"

    def _violations(self) -> List[str]:
        out = _common_violations(self)
        if len(self.out) != self.n_states:
            out.append(f"out has {len(self.out)} entries for {self.n_states} states")
        for x, o in enumerate(self.out):
            if not _check_value(self.semiring, o):
                out.append(f"termination weight of {_name(self, x)} is not a {self.semiring.name} value: {o!r}")
        for x, row in enumerate(self.trans):
            for i, vec in enumerate(row):
                if vec.semiring.name != self.semiring.name:
                    out.append(f"transition vector at ({_name(self, x)}, {self.alphabet[i]!r}) uses semiring {vec.semiring.name}")
                    continue
                for y, w in vec.items():
                    if not (isinstance(y, int) and 0 <= y < self.n_states):
                        out.append(f"transition ({_name(self, x)}, {self.alphabet[i]!r}) targets unknown state {y!r}")
                    if not _check_value(self.semiring, w):
                        out.append(f"weight at ({_name(self, x)}, {self.alphabet[i]!r}, {y!r}) is not a {self.semiring.name} value: {w!r}")
        return out


@dataclass(frozen=True, eq=False)
class Tree:
    """A finite ranked tree; a nullary node has height 0.

    The hash is computed once, at construction, from the children's cached
    hashes, and equality walks both trees with an explicit stack, so neither
    recurses on deep trees.
    """

    op: str
    children: Tuple["Tree", ...] = ()

    def __post_init__(self):
        children = tuple(self.children)
        object.__setattr__(self, "children", children)
        # hashing the children reads their cached hashes, so this never recurses
        object.__setattr__(self, "_hash", hash((self.op, children)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            s, o = stack.pop()
            if s is o:
                continue
            if s._hash != o._hash or s.op != o.op or len(s.children) != len(o.children):
                return False
            stack.extend(zip(s.children, o.children))
        return True

    def __repr__(self) -> str:
        return format_tree(self)


def _fold(t: Tree, f: Callable[[str, List[Any]], Any]) -> Any:
    """Evaluate t bottom-up: a node's value is f(op, its children's values).

    Children are evaluated left to right, and explicit stacks replace
    recursion, so deep trees do not overflow the interpreter stack.
    """
    # popping children right to left, then reversing, lists the nodes in
    # left-to-right post-order
    order = []
    stack = [t]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    values: List[Any] = []
    for node in reversed(order):
        split = len(values) - len(node.children)
        args = values[split:]
        del values[split:]
        values.append(f(node.op, args))
    return values[0]


def _node_text(op: str, args: Sequence[str]) -> str:
    return f"{op}({','.join(args)})" if args else op


def format_tree(t: Tree) -> str:
    return _fold(t, _node_text)


def tree_height(t: Tree) -> int:
    return _fold(t, lambda op, heights: 1 + max(heights) if heights else 0)


Shape = Tuple[str, Tuple[int, ...]]


def _tree_shapes(signature: Iterable[Tuple[str, int]], max_height: int) -> List[List[Shape]]:
    """Per height up to max_height, every arity-correct tree as (op, child
    indices), where a tree's index is its position in all the layers read in
    order. A height-h tree is op over trees of lower height, some of height
    h - 1; within a height, trees come by operator, then by children as
    digits in base (number of lower trees), the first most significant."""
    if max_height < 0:
        return []
    sig = sorted(signature)
    layers = [[(op, ()) for op, ar in sig if ar == 0]]
    lower = len(layers[0])  # the number of trees below the next height
    for _ in range(max_height):
        top = lower - len(layers[-1])  # the first index of the height below
        layers.append([(op, combo) for op, ar in sig if ar for combo in product(range(lower), repeat=ar) if max(combo) >= top])
        lower += len(layers[-1])
    return layers


def _fold_shapes(shapes: Sequence[Sequence[Shape]], f: Callable[[str, List[Any]], Any]) -> List[List[Any]]:
    """Evaluate every tree of the shape layers bottom-up, as `_fold` does one
    tree: per layer, f(op, its children's values) for each tree in order."""
    done: List[Any] = []
    out = []
    for layer in shapes:
        out.append([f(op, list(map(done.__getitem__, children))) for op, children in layer])
        done += out[-1]
    return out


def all_trees(signature: Iterable[Tuple[str, int]], max_height: int) -> List[Tree]:
    """Every arity-correct tree of height at most max_height, by height then shape."""
    return [t for layer in _fold_shapes(_tree_shapes(signature, max_height), Tree) for t in layer]


class WeightedTreeAut(_Machine):
    """Top-down weighted tree automaton: finitely many weighted flat rules.

    A rule maps a state and a flat term op(x1..xn) to a nonzero weight;
    `rules` is given as a flat mapping (state, op, children tuple) -> weight.
    """

    def __init__(
        self,
        n_states: int,
        signature: Iterable[Tuple[str, int]],
        semiring: Semiring,
        rules: Mapping[Tuple[int, str, Tuple[int, ...]], Any],
        names: Optional[Sequence[str]] = None,
    ):
        super().__init__(n_states, (), names)
        self.signature = tuple(sorted(signature))
        self.semiring = semiring
        per_state: List[Dict[Tuple[str, Tuple[int, ...]], Any]] = [
            {} for _ in range(self.n_states)
        ]
        for (x, op, children), w in rules.items():
            if w == semiring.zero:
                continue
            per_state[x][(op, tuple(children))] = w
        self.rules = tuple(per_state)

    def arity(self) -> Dict[str, int]:
        return dict(self.signature)

    def __repr__(self) -> str:
        sig = ",".join(f"{op}:{ar}" for op, ar in self.signature)
        return f"WeightedTreeAut({self.n_states} states, signature {{{sig}}}, {self.semiring.name})"

    def _violations(self) -> List[str]:
        out = _common_violations(self)
        arity = self.arity()
        if len(set(op for op, _ in self.signature)) != len(self.signature):
            out.append("signature operator names are not unique")
        for op, ar in self.signature:
            if ar < 0:
                out.append(f"operator {op!r} has negative arity")
        for x, rules in enumerate(self.rules):
            for (op, children), w in sorted(rules.items(), key=repr):
                if op not in arity:
                    out.append(f"rule at {_name(self, x)} uses unknown operator {op!r}")
                elif len(children) != arity[op]:
                    out.append(f"rule {_name(self, x)} -> {op!r}{children} does not match arity {arity[op]}")
                for c in children:
                    if not (isinstance(c, int) and 0 <= c < self.n_states):
                        out.append(f"rule {_name(self, x)} -> {op!r}{children} mentions unknown state {c!r}")
                if not _check_value(self.semiring, w):
                    out.append(f"rule weight {w!r} at {_name(self, x)} is not a {self.semiring.name} value")
        return out


class AlternatingAut(_Machine):
    """Alternating automaton: per letter, a finite set of finite state sets."""

    def __init__(
        self,
        n_states: int,
        alphabet: Iterable[Label],
        outputs: Sequence[bool],
        trans: Mapping[Tuple[int, Label], Iterable[Iterable[int]]],
        names: Optional[Sequence[str]] = None,
    ):
        super().__init__(n_states, alphabet, names)
        self.outputs = tuple(outputs)
        self.trans = self._rows(trans, frozenset(), lambda fam: frozenset(frozenset(s) for s in fam))

    def __repr__(self) -> str:
        return f"AlternatingAut({self.n_states} states, alphabet {''.join(self.alphabet)!r})"

    def _violations(self) -> List[str]:
        out = _common_violations(self)
        if len(self.outputs) != self.n_states:
            out.append(f"outputs has {len(self.outputs)} entries for {self.n_states} states")
        for x, o in enumerate(self.outputs):
            if not isinstance(o, bool):
                out.append(f"output of {_name(self, x)} is not Boolean: {o!r}")
        for x, row in enumerate(self.trans):
            for i, fam in enumerate(row):
                for inner in fam:
                    for y in inner:
                        if not (isinstance(y, int) and 0 <= y < self.n_states):
                            out.append(f"branch set at ({_name(self, x)}, {self.alphabet[i]!r}) mentions unknown state {y!r}")
        return out


class LTS(_Machine):
    """Labelled transition system: per letter, a finite successor set."""

    def __init__(
        self,
        n_states: int,
        alphabet: Iterable[Label],
        trans: Mapping[Tuple[int, Label], Iterable[int]],
        names: Optional[Sequence[str]] = None,
    ):
        super().__init__(n_states, alphabet, names)
        self.trans = self._rows(trans, frozenset(), frozenset)

    def __repr__(self) -> str:
        return f"LTS({self.n_states} states, alphabet {''.join(self.alphabet)!r})"

    def _violations(self) -> List[str]:
        out = _common_violations(self)
        for x, row in enumerate(self.trans):
            for i, succ in enumerate(row):
                for y in succ:
                    if not (isinstance(y, int) and 0 <= y < self.n_states):
                        out.append(f"transition ({_name(self, x)}, {self.alphabet[i]!r}) targets unknown state {y!r}")
        return out


class GPS(_Machine):
    """Generative probabilistic system: one full distribution per state.

    Each state's distribution assigns exact rational probabilities to the
    termination outcome TERM and to (label, successor) moves; the probabilities
    of a state must be positive and sum to exactly 1.
    """

    def __init__(
        self,
        n_states: int,
        alphabet: Iterable[Label],
        dist: Mapping[int, Mapping[Any, Any]],
        names: Optional[Sequence[str]] = None,
    ):
        super().__init__(n_states, alphabet, names)
        rows: List[Dict[Any, Fraction]] = [{} for _ in range(self.n_states)]
        for x, d in dist.items():
            rows[x] = {k: Fraction(v) for k, v in d.items()}
        self.dist = tuple(rows)

    def __repr__(self) -> str:
        return f"GPS({self.n_states} states, alphabet {''.join(self.alphabet)!r})"

    def _violations(self) -> List[str]:
        out = _common_violations(self)
        labels = set(self.alphabet)
        for x, d in enumerate(self.dist):
            total = Fraction(0)
            for k, p in d.items():
                if k is not TERM:
                    if not (isinstance(k, tuple) and len(k) == 2):
                        out.append(f"distribution of {_name(self, x)} has malformed outcome {k!r}")
                        continue
                    a, y = k
                    if a not in labels:
                        out.append(f"distribution of {_name(self, x)} uses unknown label {a!r}")
                    if not (isinstance(y, int) and 0 <= y < self.n_states):
                        out.append(f"distribution of {_name(self, x)} targets unknown state {y!r}")
                if not (isinstance(p, Fraction) and p > 0):
                    out.append(f"distribution of {_name(self, x)} has nonpositive or inexact probability {p if isinstance(p, Fraction) else repr(p)}")
                else:
                    total += p
            if total != 1:
                out.append(f"distribution of {_name(self, x)} sums to {total}, not 1")
        return out


def validate(aut) -> List[str]:
    """Structural invariant check; the empty list means the automaton is well formed."""
    if not isinstance(aut, _Machine):
        raise TypeError(f"not an automaton: {aut!r}")
    return aut._violations()


def require_valid(aut) -> None:
    """Raise ValidationError unless `validate` is clean (result is cached)."""
    if isinstance(aut, _Machine) and aut._cache.get("valid"):
        return
    problems = validate(aut)
    if problems:
        raise ValidationError("; ".join(problems[:5]))
    aut._cache["valid"] = True


def check_state(aut, x: int) -> None:
    if not (isinstance(x, int) and 0 <= x < aut.n_states):
        raise UnknownStateError(f"unknown state {x!r}")
