"""Exact semirings, finitely supported weight vectors, and partial probabilities.

A weight vector is a finitely supported map from states to nonzero semiring
values. Vectors are canonicalized on construction (zero entries are dropped),
so structural equality coincides with semantic equality and vectors can serve
as dictionary keys, in particular as the meanings of a determinized weighted
automaton's states.

`_linear` is the exact linear kernel on NAT and RAT vectors written as
canonical integer tuples; the trace recurrences and the weighted
determinization both step it, and `_entries` reads such a tuple back.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Callable, Iterable, List, Sequence, Tuple, Union

StateId = int


@dataclass(frozen=True)
class Semiring:
    """A semiring with exact carrier arithmetic.

    `add` must be associative and commutative with unit `zero`, `mul`
    associative with unit `one` and distributing over `add` from both sides,
    and `zero` must annihilate `mul`. Only exact carriers are provided; all
    downstream equality checks are exact, so floating point is deliberately
    not supported.
    """

    name: str
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]

    def sum(self, values: Iterable[Any]) -> Any:
        total = self.zero
        for v in values:
            total = self.add(total, v)
        return total

    def product(self, values: Iterable[Any]) -> Any:
        total = self.one
        for v in values:
            total = self.mul(total, v)
        return total

    def __repr__(self) -> str:
        return f"Semiring({self.name})"


BOOL = Semiring("bool", False, True, operator.or_, operator.and_)
NAT = Semiring("nat", 0, 1, operator.add, operator.mul)
RAT = Semiring("rat", Fraction(0), Fraction(1), operator.add, operator.mul)

SEMIRINGS = {s.name: s for s in (BOOL, NAT, RAT)}

EntriesLike = Union[Mapping[StateId, Any], Iterable[Tuple[StateId, Any]]]


class WeightVec:
    """Finitely supported map from StateId to carrier, with no stored zeros.

    Duplicate states in the input are accumulated with the semiring addition
    before zeros are dropped, so constructing from an edge list is safe.
    """

    __slots__ = ("semiring", "_map", "_items", "_hash")

    def __init__(self, semiring: Semiring, entries: EntriesLike = ()):
        if type(entries) is dict or isinstance(entries, Mapping):
            entries = entries.items()
        acc: dict = {}
        add = semiring.add
        for x, v in entries:
            acc[x] = add(acc[x], v) if x in acc else v
        zero = semiring.zero
        self.semiring = semiring
        self._map = {x: v for x, v in acc.items() if v != zero}
        try:
            self._items = tuple(sorted(self._map.items()))
        except TypeError:
            # nested keys (vectors of vectors) have no natural order
            self._items = tuple(sorted(self._map.items(), key=lambda kv: repr(kv[0])))
        self._hash = None

    def __call__(self, x: StateId) -> Any:
        return self._map.get(x, self.semiring.zero)

    def items(self) -> Tuple[Tuple[StateId, Any], ...]:
        return self._items

    @property
    def support(self) -> frozenset:
        return frozenset(self._map)

    def is_zero(self) -> bool:
        return not self._map

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WeightVec)
            and self.semiring.name == other.semiring.name
            and self._items == other._items
        )

    def __hash__(self) -> int:
        if self._hash is None:  # kept: each Fraction entry costs about 1 µs to hash
            self._hash = hash((self.semiring.name, self._items))
        return self._hash

    def __repr__(self) -> str:
        return f"WeightVec({self.semiring.name}, {dict(self._items)!r})"


def unit(semiring: Semiring, x: StateId) -> WeightVec:
    """The monad unit: all mass `one` on the single state x."""
    return WeightVec(semiring, ((x, semiring.one),))


def map_weights(f: Callable[[StateId], StateId], v: WeightVec) -> WeightVec:
    """Push a vector forward along f, summing over preimages."""
    return WeightVec(v.semiring, ((f(x), val) for x, val in v.items()))


def monad_mul(semiring: Semiring, outer: Mapping[WeightVec, Any]) -> WeightVec:
    """Flatten a finitely supported map over vectors into one vector.

    result(x) = sum over psi of outer(psi) * psi(x).
    """
    mul = semiring.mul
    zero = semiring.zero
    pairs = []
    for psi, c in outer.items():
        if c == zero:
            continue
        for x, v in psi.items():
            pairs.append((x, mul(c, v)))
    return WeightVec(semiring, pairs)


def _linear(out: Sequence[Any], rows: Sequence[Sequence[Sequence[Tuple[int, Any]]]], letters: int) -> Tuple[tuple, Callable]:
    """The integer tuple of the exact values out, and the step on such tuples.

    A NAT or RAT vector n / d is the tuple (d, n_0, ...) with d > 0 and
    gcd(d, n_0, ...) = 1, so equal vectors are equal tuples. Entry x of
    step(ai, v) sums weight * v_y over the pairs (y, weight) of rows[x][ai],
    in integers: each letter's weights are scaled once by the lcm of their
    denominators. out is stepped as the weights of one more letter, from
    the value 1.
    """
    scaled = []
    for by_state in [[row[ai] for row in rows] for ai in range(letters)] + [[((0, o),) for o in out]]:
        m = lcm(*(wt.denominator for pairs in by_state for _, wt in pairs))
        scaled.append((m, [[(y + 1, wt.numerator * (m // wt.denominator)) for y, wt in pairs] for pairs in by_state]))

    def step(ai: int, v: tuple) -> tuple:
        m, coeffs = scaled[ai]
        sums = [v[0] * m]
        for row in coeffs:
            acc = 0
            for y, c in row:
                acc += c * v[y]
            sums.append(acc)
        g = gcd(*sums)  # positive, as the denominator sums[0] is
        return tuple(sums) if g == 1 else tuple(n // g for n in sums)

    return step(letters, (1, 1)), step


def _entries(v: tuple) -> List[Tuple[int, int, int]]:
    """The nonzero entries c / d of `_linear`'s tuple v = (d, c_0, ...), as
    (x, numerator, denominator) with each fraction reduced."""
    return [(x, c // g, v[0] // g) for x, c in enumerate(v[1:]) if c for g in (gcd(c, v[0]),)]


@dataclass(frozen=True)
class PartialProb:
    """An exact rational probability in [0, 1]."""

    value: Fraction

    def __post_init__(self):
        v = Fraction(self.value)
        if not (0 <= v <= 1):
            raise ValueError(f"probability out of range [0, 1]: {v}")
        object.__setattr__(self, "value", v)

    def __repr__(self) -> str:
        return f"PartialProb({self.value})"
