"""Finite-instance checkers for the equations behind the determinizations.

Every construction in this package leans on a handful of equations: the
branch-set transformation must be natural, the branching resolution must
satisfy unit and multiplication laws (also in monad-morphism form), the
one-step exchange squares must commute, and the determinized machine must
agree with the source semantics word by word. Each checker enumerates a
declared finite fragment exhaustively (plus optional seeded samples above
the exhaustive bound) and returns a LawReport. A clean report is a finite
proof over that fragment, nothing more, so a negative size or sample count
raises ValueError. Naturality is exhaustive on carriers of up to three
points and the Boolean action laws on predicates over up to two, each
sampled beyond. Exchange and the alternating square enumerate every family
of predicate sets; on three points there are 2^256 of them, so both refuse
max_phi above 2, and the subset and conj squares refuse it above 3; every
one-step square refuses to enumerate more than 2^20 instances. The
monad-morphism law enumerates every family of subsets; on five points
there are 2^32 of them, so it refuses max_size above 4.

Predicates over a finite set of size k are bitmasks over k points, so a
predicate doubles as its own index; sets of predicates and families of such
sets are masks over masks. Both sides of a law are compared as masks, read
from tables indexed by a family mask, or by each of its bytes, rather than
bit by bit; the one-step squares field by field, once per set of a
letter's parts, the subset, conj and weighted fields from
`determinize._one_step`'s preimage (top) and forward (bottom) steps; a
square walks a head's last members only when the head has bad part bits.
Naturality, exchange and the action laws judge each distinct argument
once, so a transformation or a fold must be a function of its arguments,
and a semiring's add and mul must give equal results on equal arguments:
its values are numbered, equal ones alike, and compared by equality; a
failing family is rendered from the values computed for it. No cache
outlives one checker call. Samples are drawn through `_below` from the
seeded generator's own `getrandbits` stream, as `randrange` draws them.
Naturality runs a transformation's kernel on masks (`FiniteNatTrans.masks`)
and builds no frozenset per family. Rendering expands all of this back to
braces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, combinations, compress, islice, product
from math import comb
from operator import and_, ne, or_
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from .automata import NFA, AlternatingAut, ValidationError, WeightedAut, _iter_bits, require_valid
from .determinize import BudgetExceeded, DetResult, _choice_bits, _hitting_bits, _one_step, chi_good, chi_wrong
from .semantics import _at_least, _recurrence, _unfold, format_word
from .weights import BOOL, Semiring, WeightVec, map_weights, monad_mul, unit


@dataclass(frozen=True)
class LawFailure:
    """One refuted instance: a description plus both fully rendered sides."""

    instance: str
    lhs: str
    rhs: str

    def render(self) -> str:
        return "\n".join((self.instance, self.lhs, self.rhs))


@dataclass
class LawReport:
    law_name: str
    instances_checked: int
    failures: List[LawFailure]

    @property
    def ok(self) -> bool:
        return not self.failures


def format_report(report: LawReport, max_failures: int = 5) -> str:
    _at_least(0, max_failures=max_failures)
    lines = [
        f"law: {report.law_name}",
        f"instances checked: {report.instances_checked}",
        f"failures: {len(report.failures)}",
    ]
    for failure in report.failures[:max_failures]:
        lines.append(failure.render())
    hidden = len(report.failures) - max_failures
    if hidden > 0:
        lines.append(f"... and {hidden} more")
    return "\n".join(lines)


def _tt(bit) -> str:
    return "tt" if bit else "ff"


def _fold_table(values: Sequence, op: Callable, start) -> list:
    """out[m] folds values[i] by op from start over the set bits i of m, for
    every m below 2 ** len(values)."""
    out = [start]
    for v in values:
        out += [op(x, v) for x in out]
    return out


def _below(rng: random.Random) -> Callable[[int], int]:
    """below(n) is rng.randrange(n) in one call, drawn as CPython's
    `Random._randbelow_with_getrandbits` draws it: getrandbits(n.bit_length())
    until the result is below n. So a + below(b - a + 1) is randint(a, b) and
    seq[below(len(seq))] is choice(seq), the same values in the same order."""
    bits = rng.getrandbits
    def below(n: int) -> int:
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r
    return below


def _halves(values: Sequence, op: Callable, start) -> Tuple[list, list]:
    """`_fold_table` for masks of up to 16 bits, one table of at most 256
    entries per byte: lo for m & 0xFF, hi for m >> 8."""
    return _fold_table(values[:8], op, start), _fold_table(values[8:16], op, start)


# ---------------------------------------------------------------------------
# Naturality of set-of-set transformations


def _family_mask(fam: Iterable[Iterable[int]]) -> int:
    """A family of sets of bit positions as a mask over member masks."""
    return reduce(or_, (1 << sum(1 << x for x in u) for u in fam), 0)


@dataclass(frozen=True)
class FiniteNatTrans:
    """A transformation on finite families of finite sets, one map for all
    carriers (elements are opaque; only membership structure matters).

    `masks` is the same map on masks: from a family, a mask over its member
    masks, to its result in the same form. Naturality is judged on `masks`
    alone, so it must agree with `apply`. Given only `apply`, `masks` runs
    it on frozensets and reads the result back.
    """

    name: str
    apply: Callable[[Iterable[Iterable[int]]], frozenset]
    masks: Optional[Callable[[int], int]] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.masks is None:
            apply = self.apply
            object.__setattr__(self, "masks", lambda fam: _family_mask(apply(frozenset(frozenset(_iter_bits(u)) for u in _iter_bits(fam)))))


CHI_GOOD = FiniteNatTrans("chi-good", chi_good, lambda fam: _hitting_bits([*_iter_bits(fam)]))
CHI_WRONG = FiniteNatTrans("chi-wrong", chi_wrong, lambda fam: _choice_bits([*_iter_bits(fam)]))
IDENTITY_NAT = FiniteNatTrans("identity", lambda fam: frozenset(frozenset(u) for u in fam), lambda fam: fam)


def _fmt_family(fam: int, first: str) -> str:
    """A family mask's members, as tuples of sorted elements, in order;
    element i is lettered i places after first."""
    inner = sorted(tuple(_iter_bits(u)) for u in _iter_bits(fam))
    return "{" + ", ".join("{" + ",".join(chr(ord(first) + i) for i in u) + "}" for u in inner) + "}"


def _image(img: Sequence[int], fam: int) -> int:
    """The direct image of a family mask, img[u] the image of member u."""
    return reduce(or_, (1 << img[u] for u in _iter_bits(fam)), 0)


def _nat_failure(
    t: FiniteNatTrans, nx: int, ny: int, f: Sequence[int], fam: int, lhs: int, rhs: int, fmt: Callable = _fmt_family
) -> LawFailure:
    if nx + ny > 26:
        raise ValueError("carriers too large to letter")
    xs, ys = [chr(ord("a") + i) for i in range(nx)], [chr(ord("a") + nx + i) for i in range(ny)]
    fn = ", ".join(f"{xs[x]}->{ys[f[x]]}" for x in range(nx))
    instance = f"X={{{','.join(xs)}}}, Y={{{','.join(ys)}}}, f=[{fn}], S={fmt(fam, 'a')}"
    y0 = chr(ord("a") + nx)
    return LawFailure(instance, f"map after {t.name}: {fmt(lhs, y0)}", f"{t.name} after map: {fmt(rhs, y0)}")


def naturality_instance(
    t: FiniteNatTrans, nx: int, ny: int, f: Sequence[int], fam: Iterable[Iterable[int]]
) -> Optional[LawFailure]:
    """Evaluate one naturality square; None when it commutes."""
    fam = _family_mask(fam)
    img = _fold_table([1 << y for y in f], or_, 0)
    lhs, rhs = _image(img, t.masks(fam)), t.masks(_image(img, fam))
    return None if lhs == rhs else _nat_failure(t, nx, ny, f, fam, lhs, rhs)


def known_counterexample(t: FiniteNatTrans = CHI_WRONG) -> Optional[LawFailure]:
    """The classical instance refuting the choice-function transformation:
    two sets sharing one element, under a map gluing the unshared ones."""
    return naturality_instance(t, 3, 2, (0, 0, 1), [{0, 2}, {1, 2}])


def check_naturality(
    t: FiniteNatTrans,
    max_size: int = 3,
    samples: int = 500,
    seed: int = 2026,
) -> LawReport:
    """Probe t_Y(map f applied inside) = map f applied to t_X, for all maps
    f between carriers of size up to max_size and all family arguments.

    The enumeration is exhaustive up to carrier size 3; sizes above that are
    covered by seeded random sampling. Families are masks over subset masks,
    and the square is judged on `t.masks`, once per distinct family, so t
    must be a function of its argument; one table of t, over the largest
    exhaustive carrier, serves every map. A failing square is rendered from
    its two sides' masks, both carriers lettered a to z, so max_size above
    13 raises ValueError.
    """
    _at_least(0, max_size=max_size, samples=samples)
    if max_size > 13:
        raise ValueError(f"check_naturality can letter failures only up to max_size=13, got {max_size}")
    failures: List[LawFailure] = []
    count = 0
    t_of, fmt = lru_cache(maxsize=None)(t.masks), lru_cache(maxsize=None)(_fmt_family)
    limit = min(max_size, 3)
    t_tab = list(map(t_of, range(1 << (1 << limit))))
    for nx in range(limit + 1):
        for ny in range(limit + 1):
            for f in product(range(ny), repeat=nx):
                img = _fold_table([1 << y for y in f], or_, 0)
                lifted = _fold_table([1 << u for u in img], or_, 0)
                count += len(lifted)
                # lifted, the shorter table, leads, so the walk stops at its end
                bad = compress(range(len(lifted)), map(ne, map(t_tab.__getitem__, lifted), map(lifted.__getitem__, t_tab)))
                failures.extend(_nat_failure(t, nx, ny, f, fam, lifted[t_tab[fam]], t_tab[lifted[fam]], fmt) for fam in bad)
    if max_size > 3:
        below = _below(random.Random(seed))
        for _ in range(samples):
            nx, ny = 1 + below(max_size), 1 + below(max_size)
            if max(nx, ny) <= 3:
                nx = max_size
            f = tuple(map(below, [ny] * nx))
            fam = reduce(or_, [1 << below(1 << nx) for _ in range(below(5))], 0)
            img = _fold_table([1 << y for y in f], or_, 0)
            lhs, rhs = _image(img, t_of(fam)), t_of(_image(img, fam))
            count += 1
            if lhs != rhs:
                failures.append(_nat_failure(t, nx, ny, f, fam, lhs, rhs, fmt))
    return LawReport(f"naturality:{t.name}", count, failures)


# ---------------------------------------------------------------------------
# Branching-resolution actions and their laws


@dataclass(frozen=True)
class PredicateAction:
    """Resolves a finite set of predicates to one predicate.

    fold(masks, full) combines predicate bitmasks; `full` is the all-points
    mask, the unit of conjunctive folds (also used for width-1 truth bits).
    """

    name: str
    fold: Callable[[Iterable[int], int], int]


DIAMOND = PredicateAction("diamond", lambda masks, full: reduce(or_, masks, 0))
BOX = PredicateAction("box", lambda masks, full: reduce(and_, masks, full))


@dataclass(frozen=True)
class SemiringAction:
    """Resolves a weighted bag of carrier-valued predicates by weighted sum."""

    name: str
    semiring: Semiring


def _vec_resolve(sr: Semiring, vec: WeightVec, k: int) -> tuple:
    """Pointwise weighted sum: the resolved predicate at p sums c * psi[p]."""
    return tuple(
        sr.sum(sr.mul(c, psi[p]) for psi, c in vec.items()) for p in range(k)
    )


def _fmt_points(mask: int) -> str:
    return "{" + ",".join(str(p) for p in _iter_bits(mask)) + "}"


def _fmt_predset(masks: Iterable[int]) -> str:
    return "{" + ", ".join(_fmt_points(m) for m in sorted(masks)) + "}"


def check_action_laws(
    action: Union[PredicateAction, SemiringAction],
    max_phi: int = 3,
    samples: int = 300,
    seed: int = 2026,
) -> LawReport:
    """Check the unit law (resolving a singleton returns its member) and the
    multiplication law (resolving a union agrees with resolving the
    resolutions) over predicates on at most max_phi points.

    Boolean predicate actions are exhaustive: fully up to 2 points, and up to
    two-member outer families plus samples at 3 points. Semiring actions are
    exhaustive over Boolean vectors on at most 1 point plus bounded/sampled
    fragments beyond that. A Boolean fold runs once per distinct list of
    resolutions, in member order, so it must be a function of that list. A
    semiring action is judged on value numbers, equal values alike, each
    distinct outer family once and each add and mul once per pair of
    numbers, so they must give equal results on equal arguments; values are
    compared by equality, and a failing family is rendered from the values
    computed for it. A semiring other than bool, nat and rat has no pool of
    values to draw from and raises ValueError. Samples are drawn through
    `_below` from the seeded generator's own `getrandbits` stream.
    """
    _at_least(0, max_phi=max_phi, samples=samples)
    if isinstance(action, PredicateAction):
        return _action_laws_bool(action, max_phi, samples, seed)
    if isinstance(action, SemiringAction):
        return _action_laws_semiring(action, max_phi, samples, seed)
    raise TypeError(f"not an action: {action!r}")


def _action_laws_bool(
    action: PredicateAction, max_phi: int, samples: int, seed: int
) -> LawReport:
    failures: List[LawFailure] = []
    count = 0

    for k in range(max_phi + 1):
        full = (1 << k) - 1
        for phi in range(1 << k):
            count += 1
            got = action.fold((phi,), full)
            if got != phi:
                failures.append(LawFailure(
                    f"|Phi|={k}, predicate {_fmt_points(phi)}",
                    f"resolve of singleton: {_fmt_points(got)}",
                    f"the predicate itself: {_fmt_points(phi)}",
                ))

    fmt_inner = lru_cache(maxsize=None)(lambda fm: _fmt_predset(_iter_bits(fm)))

    def judge(k: int, lhs: list, rhs: list, fams: Callable[[int], Iterable[int]]) -> None:
        """Count a row of outer families, the i-th with members fams(i)."""
        nonlocal count
        count += len(lhs)
        if lhs == rhs:  # one C-level comparison; indices are walked only in a row that differs
            return
        for i in compress(range(len(lhs)), map(ne, lhs, rhs)):
            rendered = "{" + ", ".join(map(fmt_inner, fams(i))) + "}"
            failures.append(LawFailure(
                f"|Phi|={k}, family of predicate sets {rendered}",
                f"resolve of union: {_fmt_points(lhs[i])}",
                f"resolve of resolutions: {_fmt_points(rhs[i])}",
            ))

    # the union side folds fold_of's own call; the resolution side calls
    # action.fold on the whole list, as a fold need not be associative, once
    # per distinct list
    for k in range(min(max_phi, 2) + 1):
        full = (1 << k) - 1
        fold_of = [action.fold(_iter_bits(fm), full) for fm in range(1 << (1 << k))]
        # every outer family, as a mask lo | hi << 8 over the predicate sets
        # fm, lists the lo byte's s then the hi byte's h. A list folds at its
        # split with the longest s; a split whose h's head joins s reads h[1:]
        res_lo, res_hi = _halves(fold_of, lambda acc, r: acc + (r,), ())
        union_lo, union_hi = _halves(range(len(fold_of)), or_, 0)
        seqs: dict = {}
        id_lo = [seqs.setdefault(s, len(seqs)) for s in res_lo]
        rows: dict = {}
        for h in sorted(dict.fromkeys(res_hi), key=len):
            rows[h] = [rows[h[1:]][seqs[s + h[:1]]] if h and s + h[:1] in seqs
                       else action.fold(list(s + h), full) for s in seqs]
        # each distinct row once: its union side depends on hi only through uh, its resolutions on h
        lhs_of = {uh: [fold_of[ul | uh] for ul in union_lo] for uh in set(union_hi)}
        rhs_of = {h: list(map(row.__getitem__, id_lo)) for h, row in rows.items()}
        for hi, (uh, h) in enumerate(zip(union_hi, res_hi)):
            judge(k, lhs_of[uh], rhs_of[h], lambda lo: _iter_bits(lo | hi << 8))
    if max_phi >= 3:
        k, full, nfam = 3, 7, 256
        fold_of = [action.fold(_iter_bits(fm), full) for fm in range(nfam)]
        resolve = lru_cache(maxsize=None)(lambda seq: action.fold(list(seq), full))

        def each(fams: list) -> None:
            rhs = [resolve(tuple(map(fold_of.__getitem__, fs))) for fs in fams]
            judge(k, [fold_of[reduce(or_, fs, 0)] for fs in fams], rhs, fams.__getitem__)

        # outer families of up to two members, then samples with repeats
        each([()] + [(fm,) for fm in range(nfam)])
        row_of: dict = {}
        for a, va in enumerate(fold_of):
            later = fold_of[a + 1:]
            if va not in row_of:  # a value's first row meets every value that its later rows meet
                row_of[va] = {vb: resolve((va, vb)) for vb in dict.fromkeys(later)}
            judge(k, list(map(fold_of.__getitem__, map(a.__or__, range(a + 1, nfam)))),
                  list(map(row_of[va].__getitem__, later)), lambda i: (a, a + 1 + i))
        below = _below(random.Random(seed))
        each([list(map(below, [nfam] * (3 + below(4)))) for _ in range(samples)])
    return LawReport(f"action-laws:{action.name}", count, failures)


_VALUE_POOLS = {
    "bool": (False, True),
    "nat": (0, 1, 2, 3),
    "rat": (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3)),
}


def _fmt_vec(vec: WeightVec) -> str:
    return "{" + ", ".join(f"{key}:{val}" for key, val in vec.items()) + "}"


def _numbered_items(pairs: Iterable[tuple], add: Callable, zero: int, key: Optional[Callable] = None) -> tuple:
    """A `WeightVec`'s items on value numbers: pairs accumulated by add in
    first-seen order, zeros dropped, sorted (by key, if given)."""
    acc: dict = {}
    for x, v in pairs:
        acc[x] = add(acc[x], v) if x in acc else v
    return tuple(sorted([(x, v) for x, v in acc.items() if v != zero], key=key))


def _flatten(outer: tuple, add: Callable, mul: Callable, zero: int) -> tuple:
    """`monad_mul` on value numbers: the items of a family's flattening."""
    return _numbered_items(((x, mul(c, v)) for inner, c in outer if c != zero for x, v in inner), add, zero)


def _action_laws_semiring(
    action: SemiringAction, max_phi: int, samples: int, seed: int
) -> LawReport:
    sr = action.semiring
    if sr.name not in _VALUE_POOLS:
        raise ValueError(f"no value pool for the {sr.name} semiring; pools exist for {', '.join(_VALUE_POOLS)}")
    pool = _VALUE_POOLS[sr.name]
    failures: List[LawFailure] = []
    count = 0
    # value numbers, the pool's first and sorted, so that tuples of pool
    # numbers sort as their values do; a family orders its members by the
    # repr of their values, as a WeightVec of WeightVecs does
    vals = sorted(pool)
    nums = {v: n for n, v in enumerate(vals)}

    def number(v) -> int:
        n = nums.setdefault(v, len(vals))
        if n == len(vals):
            vals.append(v)
        return n

    zero, one = number(sr.zero), number(sr.one)
    add, mul = (lru_cache(maxsize=None)(lambda a, b, op=op: number(op(vals[a], vals[b]))) for op in (sr.add, sr.mul))
    resolve = lru_cache(maxsize=None)(lambda k, vec: tuple(reduce(add, [mul(c, psi[p]) for psi, c in vec], zero) for p in range(k)))
    values = lambda ns: tuple(map(vals.__getitem__, ns))
    inner_repr = lru_cache(maxsize=None)(lambda inner: repr({values(x): vals[v] for x, v in inner}))
    pool_nums, nonzero_nums = [nums[v] for v in pool], [nums[v] for v in pool if v != sr.zero]

    for k in range(max_phi + 1):
        for psi in product(pool_nums, repeat=k):
            count += 1
            if resolve(k, _numbered_items([(psi, one)], add, zero)) != psi:
                psi = values(psi)
                failures.append(LawFailure(
                    f"|Phi|={k}, predicate {psi}",
                    f"resolve of singleton: {_vec_resolve(sr, unit(sr, psi), k)}",
                    f"the predicate itself: {psi}",
                ))

    @lru_cache(maxsize=None)
    def judge(k: int, outer: tuple) -> Optional[LawFailure]:
        lhs = resolve(k, _flatten(outer, add, mul, zero))
        rhs = resolve(k, _numbered_items(((resolve(k, v), c) for v, c in outer), add, zero, lambda item: values(item[0])))
        if lhs == rhs:
            return None
        # rendered from the values that the per-instance path computes: equal values may differ in type
        family = WeightVec(sr, {WeightVec(sr, {values(x): vals[v] for x, v in inner}): vals[c] for inner, c in outer})
        rendered = "{" + ", ".join(f"{_fmt_vec(v)}:{c}" for v, c in family.items()) + "}"
        return LawFailure(
            f"|Phi|={k}, weighted family {rendered}",
            f"resolve of flattening: {_vec_resolve(sr, monad_mul(sr, family), k)}",
            f"resolve of resolutions: {_vec_resolve(sr, map_weights(lambda v: _vec_resolve(sr, v, k), family), k)}",
        )

    def check_mult(k: int, outer: dict) -> None:
        nonlocal count
        count += 1
        failure = judge(k, tuple(sorted(outer.items(), key=lambda item: inner_repr(item[0]))))
        if failure:
            failures.append(failure)

    if sr.name == "bool":
        tt = nums[True]
        for k in range(min(max_phi, 2) + 1):
            preds = list(product(pool_nums, repeat=k))
            vecs = [tuple((p, tt) for p in chosen) for r in range(len(preds) + 1) for chosen in combinations(preds, r)]
            # every outer family up to 1 point; at 2 points, up to two members
            for r in range(len(vecs) + 1 if k < 2 else 3):
                for chosen in combinations(vecs, r):
                    check_mult(k, dict.fromkeys(chosen, tt))
    below = _below(random.Random(seed))
    for _ in range(samples):
        k = below(max_phi + 1)
        inner = []
        for _ in range(below(4)):
            support = {
                tuple(pool_nums[below(len(pool_nums))] for _ in range(k)): nonzero_nums[below(len(nonzero_nums))]
                for _ in range(below(3))
            }
            inner.append(tuple(sorted(support.items())))  # distinct keys, nonzero values
        check_mult(k, {v: nonzero_nums[below(len(nonzero_nums))] for v in inner})
    return LawReport(f"action-laws:{action.name}", count, failures)


def check_monad_morphism(action: PredicateAction, max_size: int = 3) -> LawReport:
    """Check that folding point evaluations is a monad morphism into the
    double-contravariant-powerset monad.

    A subset U of an n-point carrier resolves to the set of predicates
    dagger(U) obtained by folding, over x in U, the set of predicates
    holding at x. Unit law: dagger({x}) is evaluation at x. Multiplication
    law: a predicate lies in dagger(union of a family) iff the fold over
    members U of its membership in dagger(U) holds. Every family is checked,
    so max_size above 4 (2^32 families) raises ValueError.
    """
    _at_least(0, max_size=max_size)
    if max_size > 4:
        raise ValueError(f"check_monad_morphism is exhaustible only up to max_size=4, got {max_size}")
    failures: List[LawFailure] = []
    count = 0
    for n in range(max_size + 1):
        npred = 1 << n
        full_predset = (1 << npred) - 1
        iota = [
            sum(1 << phi for phi in range(npred) if phi >> x & 1) for x in range(n)
        ]
        dagger = [
            action.fold((iota[x] for x in _iter_bits(u)), full_predset)
            for u in range(1 << n)
        ]
        for x in range(n):
            count += 1
            if dagger[1 << x] != iota[x]:
                failures.append(LawFailure(
                    f"n={n}, element {x}",
                    f"dagger of singleton: {_fmt_predset(_iter_bits(dagger[1 << x]))}",
                    f"evaluation at the element: {_fmt_predset(_iter_bits(iota[x]))}",
                ))
        for souter in range(1 << (1 << n)):
            members = list(_iter_bits(souter))
            count += 1
            union = reduce(or_, members, 0)
            lhs = dagger[union]
            rhs = 0
            for phi in range(npred):
                bit = action.fold((dagger[u] >> phi & 1 for u in members), 1)
                rhs |= bit << phi
            if lhs != rhs:
                rendered = (
                    "{" + ", ".join(_fmt_points(u) for u in members) + "}"
                )
                failures.append(LawFailure(
                    f"n={n}, family {rendered}",
                    f"dagger of union: {_fmt_predset(_iter_bits(lhs))}",
                    f"fold of daggers: {_fmt_predset(_iter_bits(rhs))}",
                ))
    return LawReport(f"monad-morphism:{action.name}", count, failures)


# ---------------------------------------------------------------------------
# One-step logic-morphism diagrams

DIAGRAMS = ("subset", "conj", "weighted", "alt")
_MUTATIONS = (None, "flip-output")
_FAMILY_SIZES = {"subset": (4, 8), "conj": (4, 8), "alt": (3, 4)}  # all under lo elements, samples of lo..hi
_DIAGRAM_LIMIT = 1 << 20  # above the 355,219 families of subset at max_phi=3


def _lpred_names(alphabet: Sequence[str], k: int) -> List[str]:
    """The formulas a one-step predicate's bits stand for: ε, then each
    letter with each point."""
    return ["ε"] + [f"({label},{p})" for label in alphabet for p in range(k)]


def _fmt_lpred(mask: int, names: Sequence[str]) -> str:
    return "{" + ", ".join(names[i] for i in _iter_bits(mask)) + "}"


def check_logic_morphism_diagram(
    which: str,
    max_phi: int = 2,
    alphabet: Sequence[str] = ("a", "b"),
    samples: int = 200,
    seed: int = 2026,
    mutate: Optional[str] = None,
) -> LawReport:
    """Evaluate both composite paths of the one-step exchange square for one
    determinization flavour, on every element of its finite domain.

    The top path turns each machine element into its one-step predicate over
    formulas (output, or letter-then-point) and resolves those predicates;
    the bottom path aggregates the machine elements first and takes the
    one-step predicate of the aggregate. For subset, conj and weighted, the
    top path is `determinize._one_step`'s preimage step and the bottom one
    its forward step (`_part_sides`). `mutate="flip-output"` corrupts the
    bottom path's output aggregation, as a negative control for the checker.
    The alt square aggregates through every family of predicate sets, and
    subset and conj take every family of up to three elements (22.7 million
    at max_phi=4), so they raise ValueError above max_phi=2 and 3, as does
    any square, naming the count, that would enumerate over 2^20 instances.
    """
    if which not in DIAGRAMS:
        raise ValueError(f"unknown diagram {which!r}; expected one of {DIAGRAMS}")
    if mutate not in _MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r}")
    _at_least(0, max_phi=max_phi, samples=samples)
    bound = {"alt": 2, "subset": 3, "conj": 3}.get(which)
    if bound is not None and max_phi > bound:
        raise ValueError(f"the {which} diagram is exhaustible only up to max_phi={bound}, got {max_phi}")
    count, letters = 0, len(alphabet)
    for k in range(max_phi + 1):  # to the first |Phi| past the limit: the next count can be too large to build
        elements = 2 * (1 << ((1 << k) if which == "alt" else k)) ** letters  # of a branching square
        count += (2 << letters * (1 << k)) if which == "weighted" else sum(
            comb(elements, r) for r in range(_FAMILY_SIZES[which][0]))
        if count > _DIAGRAM_LIMIT:
            raise ValueError(f"the {which} diagram on {letters} letters up to max_phi={max_phi} "
                             f"enumerates at least {count:,} instances, more than {_DIAGRAM_LIMIT:,}")
    if which == "weighted":
        return _diagram_weighted(max_phi, tuple(alphabet), mutate)
    return _diagram_branching(which, max_phi, tuple(alphabet), samples, seed, mutate)


def _diagram_weighted(max_phi: int, alphabet: Tuple[str, ...], mutate: Optional[str]) -> LawReport:
    m = len(alphabet)
    failures: List[LawFailure] = []
    count = 0
    for k in range(max_phi + 1):
        nmask = 1 << k
        top_of, bottom_of = _part_sides("weighted", k)
        fields = [(top_of(pf), bottom_of(pf)) for pf in range(1 << nmask)]
        lnames = _lpred_names(alphabet, k)
        for psi in range(1 << 1 + m * nmask):
            count += 1
            top = bottom = psi & 1
            if mutate == "flip-output":
                bottom ^= 1
            for ai in range(m):
                top_f, bottom_f = fields[psi >> 1 + ai * nmask & (1 << nmask) - 1]
                top, bottom = top | top_f << 1 + ai * k, bottom | bottom_f << 1 + ai * k
            if top != bottom:
                names = ["*"] + [f"({alphabet[ai]},{_fmt_points(phi)})" for ai in range(m) for phi in range(nmask)]
                rendered = "{" + ", ".join(names[i] for i in _iter_bits(psi)) + "}"
                failures.append(LawFailure(
                    f"|Phi|={k}, weighted one-step bag {rendered}",
                    f"resolve of one-step predicates: {_fmt_lpred(top, lnames)}",
                    f"one-step of aggregate: {_fmt_lpred(bottom, lnames)}",
                ))
    return LawReport("logic-morphism:weighted", count, failures)


def _exchange_bytes(k: int) -> Tuple[list, list, Callable[[int], int]]:
    """For predicates on k <= 2 points, the exchange law's tables by byte of
    a family of predicate sets (a mask over predicate-set masks): for each
    value of the low byte and of the high one, the pair (meet of the
    members' joins, mask of their common hitting sets); and `join`, from a
    mask of hitting sets to the join of their meets. A family's two sides
    are the AND of its bytes' first entries, and `join` of the AND of their
    second ones.

    Hitting sets are taken among all predicate sets, not only within the
    family's union. The extra ones are supersets of those within it, with
    smaller meets, so the join is the same.
    """
    full_pred = (1 << k) - 1
    preds = range(1 << k)
    everything = (1 << len(preds)) - 1  # the set of all predicates
    join_of, meet_of = _fold_table(preds, or_, 0), _fold_table(preds, and_, full_pred)
    top_lo, top_hi = _halves(join_of, and_, full_pred)
    hit1 = [_hitting_bits((u, everything)) for u in range(everything + 1)]
    hits_lo, hits_hi = _halves(hit1, and_, (1 << (everything + 1)) - 1)
    join_lo, join_hi = _halves(meet_of, or_, 0)
    return [*zip(top_lo, hits_lo)], [*zip(top_hi, hits_hi)], lambda hits: join_lo[hits & 0xFF] | join_hi[hits >> 8]


def _part_sides(which: str, k: int) -> Tuple[Callable[[int], int], Callable[[int], int]]:
    """A letter's top (logic) and bottom (determinization) fields over
    predicates on k points, as lookups on its set of parts, a mask.

    For alt they are the exchange law's sides (`_exchange_bytes`). The
    others read both from `_one_step` on one machine of one letter, an NFA
    (over BOOL for weighted): the parts, each stepping to its points (for
    conj, to those outside it), then the k points. Top bit j is whether the
    set meets the preimage of point j (for conj, lies in the box step of
    every state but point j); the bottom field is the set's forward image,
    complemented for conj. They agree by the pairing <post(S), p> = <S, pre(p)>.
    """
    if which == "alt":
        lo, hi, join = _exchange_bytes(k)
        return lambda fam: lo[fam & 0xFF][0] & hi[fam >> 8][0], lambda fam: join(lo[fam & 0xFF][1] & hi[fam >> 8][1])
    conj, nparts = which == "conj", 1 << k
    succ = {(t, "a"): {nparts + j: True for j in range(k) if (t >> j & 1) != conj} for t in range(nparts)}
    aut = (WeightedAut(nparts + k, "a", BOOL, [False] * (nparts + k), succ) if which == "weighted"
           else NFA(nparts + k, "a", [(t, "a", y) for (t, _), ys in succ.items() for y in ys]))
    mode, states, flip = ("conj", (1 << nparts + k) - 1, (1 << k) - 1) if conj else ("disj", 0, 0)
    (*_, post), (*_, pre) = _one_step(aut, mode, back=False), _one_step(aut, mode)
    marks = [pre(0, states ^ 1 << nparts + j) for j in range(k)]
    top = lambda s: sum(1 << j for j, m in enumerate(marks) if (s & m == s if conj else s & m))
    return top, lambda s: flip ^ post(0, s) >> nparts


def _diagram_branching(
    which: str, max_phi: int, alphabet: Tuple[str, ...], samples: int, seed: int, mutate: Optional[str]
) -> LawReport:
    """The powerset-like squares. An element is an output bit plus one part
    per letter: a predicate (subset, conj) or a set of predicates read as
    its join (alt). Both paths fold the outputs, and take each letter's
    field from the set of its parts, read from `_part_sides` once per set:
    for subset and conj the top field from `_one_step`'s preimage step and
    the bottom one from its forward step, for alt the exchange law's two
    sides. In `combinations` order, a family's head (all but its last
    member) gives the part bits that break the square, per letter the parts
    t whose addition to its part set breaks it (`bad_parts`): one AND per
    family, and a head without such bits has its last members counted.
    """
    alt = which == "alt"
    fold = (DIAMOND if which == "subset" else BOX).fold
    flip = mutate == "flip-output"
    lo, hi = _FAMILY_SIZES[which]
    failures: List[LawFailure] = []
    count = 0
    rng = random.Random(seed)
    fmt_part = (lambda t: _fmt_predset(_iter_bits(t))) if alt else _fmt_points
    for k in range(max_phi + 1):
        top_of, bottom_of = _part_sides(which, k)
        nparts, shifts = 1 << (1 << k if alt else k), [1 + ai * k for ai in range(len(alphabet))]
        # packed masks: the output one-hot in bits 0..1, then each letter's part one-hot
        offsets, part_full = [2 + ai * nparts for ai in range(len(alphabet))], (1 << nparts) - 1
        base = [(o, ts) for o in (0, 1) for ts in product(range(nparts), repeat=len(alphabet))]
        packed = [1 << o | sum(1 << t + w for t, w in zip(ts, offsets)) for o, ts in base]
        lnames = _lpred_names(alphabet, k)
        judged = lru_cache(maxsize=None)(lambda pf: (top_of(pf), bottom_of(pf)))  # a part-family's two fields
        bad_parts = lru_cache(maxsize=None)(lambda pf: sum(1 << t for t in range(nparts) if ne(*judged(pf | 1 << t))))

        @lru_cache(maxsize=None)
        def fmt_elem(i: int) -> str:
            o, ts = base[i]
            parts = [f"out={_tt(o)}"] + [f"{label}->{fmt_part(t)}" for label, t in zip(alphabet, ts)]
            return "(" + ", ".join(parts) + ")"

        def report(idxs: Sequence[int], pk: int) -> None:
            top = bottom = fold(_iter_bits(pk & 3), 1)
            bottom ^= flip
            for w, s in zip(offsets, shifts):
                top_f, bottom_f = judged(pk >> w & part_full)
                top, bottom = top | top_f << s, bottom | bottom_f << s
            if top != bottom:
                fam = "[" + "; ".join(fmt_elem(i) for i in idxs) + "]"
                failures.append(LawFailure(
                    f"|Phi|={k}, machine family {fam}",
                    f"resolve of one-step predicates: {_fmt_lpred(top, lnames)}",
                    f"one-step of aggregate: {_fmt_lpred(bottom, lnames)}",
                ))

        n = len(base)
        count += 1
        report((), 0)  # the one family without a last member
        heads = (head for r in range(lo - 1) for head in combinations(range(n), r))
        sampled = (rng.sample(range(n), rng.randint(lo, min(hi, n))) for _ in range(samples if n > lo else 0))
        for head, tails in chain(
            ((head, range(head[-1] + 1 if head else 0, n)) for head in heads),
            ((tuple(idxs[:-1]), idxs[-1:]) for idxs in sampled),
        ):
            pk0 = reduce(or_, map(packed.__getitem__, head), 0)
            bad = sum(bad_parts(pk0 >> w & part_full) << w for w in offsets)
            count += len(tails)
            for j in tails if flip or bad else ():  # a clean head's last members are counted, not walked
                if flip or packed[j] & bad:
                    report(head + (j,), pk0 | packed[j])
    return LawReport(f"logic-morphism:{which}", count, failures)


def check_exchange(max_phi: int = 2) -> LawReport:
    """Conjunction-over-disjunction exchange: on any family of predicate
    sets, the meet of the members' joins equals the join, over all hitting
    sets of the family, of the hitting set's meet. This is the pointwise law
    that makes the alternating translation work. Every family is checked,
    so max_phi above 2 (2^256 families) raises ValueError.
    """
    _at_least(0, max_phi=max_phi)
    if max_phi > 2:
        raise ValueError(f"check_exchange is exhaustible only up to max_phi=2, got {max_phi}")
    failures: List[LawFailure] = []
    count = 0
    for k in range(max_phi + 1):
        # a family is its low byte then its high one; the law is judged once
        # per distinct pair of their table entries, and each high byte's
        # failing low bytes are read off, in order, by their class ids
        lo_pairs, hi_pairs, join = _exchange_bytes(k)
        classes: dict = {}
        lo_ids = [classes.setdefault(pair, len(classes)) for pair in lo_pairs]
        rows = {(th, hh): [(tl & th) != join(hl & hh) for tl, hl in classes] for th, hh in set(hi_pairs)}
        for hi, (th, hh) in enumerate(hi_pairs):
            for lo in compress(range(len(lo_ids)), map(rows[th, hh].__getitem__, lo_ids)):
                (tl, hl), fam = lo_pairs[lo], lo | hi << 8
                rendered = "{" + ", ".join(_fmt_predset(_iter_bits(im)) for im in _iter_bits(fam)) + "}"
                failures.append(LawFailure(
                    f"|Phi|={k}, family {rendered}",
                    f"meet of joins: {_fmt_points(tl & th)}",
                    f"join of hitting-set meets: {_fmt_points(join(hl & hh))}",
                ))
        count += len(lo_pairs) * len(hi_pairs)
    return LawReport("exchange:conjunction-over-disjunction", count, failures)


# ---------------------------------------------------------------------------
# Word-by-word correctness of determinization results


_SOURCE_KINDS = {
    "subset-disj": (NFA, "an NFA"),
    "subset-conj": (NFA, "an NFA"),
    "canonical": (NFA, "an NFA"),
    "alt": (AlternatingAut, "an alternating"),
    "weighted": (WeightedAut, "a weighted"),
}


def check_correctness(
    source, det: DetResult, depth: int, max_failures: int = 25
) -> LawReport:
    """Compare, for every source state and every word up to the given depth,
    the source trace value against the determinized machine's value at the
    embedded state. Equality is exact (Boolean or carrier values).

    Source and machine are both read through their one-step recurrences in
    `semantics`. The pair (source values, machine values) of a word a.w
    depends only on a and the pair of w, so the pair machine explored to
    the depth (`semantics._unfold`) holds the pair of every word, each
    distinct pair stepped once. Failures are listed in state, length and
    word order, up to the first max_failures. Only the lengths whose words
    reach a differing pair are walked, depth first over the explored rows:
    a word's first letters are kept with the values of the remaining
    length that they lead into a differing pair, and only while there are
    some, so each branch ends in a listed word. An invalid machine, or an
    embedding that misses a machine state, raises ValidationError, and a
    negative depth or a max_failures below 1 ValueError.
    """
    if isinstance(det, BudgetExceeded):
        raise ValueError("a budget-exceeded outcome carries no machine to check")
    _at_least(1, max_failures=max_failures)
    machine = det.machine
    method = det.method
    if tuple(machine.alphabet) != tuple(source.alphabet):
        raise ValueError("determinized machine alphabet differs from source")
    require_valid(source)
    if method not in _SOURCE_KINDS:
        raise ValueError(f"unknown determinization method {det.method!r}")
    kind, article = _SOURCE_KINDS[method]
    if not isinstance(source, kind):
        raise TypeError(f"{method} results check against {article} source")
    if method == "weighted" and machine.semiring.name != source.semiring.name:
        raise ValueError("carrier mismatch between source and machine")
    require_valid(machine)
    for x in range(source.n_states):
        t = det.embed.get(x)
        if not (isinstance(t, int) and 0 <= t < machine.n_states):
            raise ValidationError(f"embedding sends source state {x} to {t!r}, not a machine state")

    alphabet = source.alphabet
    src_base, src_step, src_read = _recurrence(source, "conj" if method == "subset-conj" else "disj")
    mach_base, mach_step, mach_read = _recurrence(machine)
    count = source.n_states * sum(len(alphabet) ** k for k in range(depth + 1))
    pairs, rows = _unfold(
        alphabet, (src_base, mach_base), lambda ai, p: (src_step(ai, p[0]), mach_step(ai, p[1])), depth
    )
    render = str if method == "weighted" else _tt

    def failures():
        # the value numbers of the length-k words, read off the explored rows
        present = [{0}]
        for x in range(source.n_states):
            # both sides' values at x on each distinct pair, and which differ
            side = [(src_read(s, x), mach_read(t, det.embed[x])) for s, t in pairs]
            bad = [lhs != rhs for lhs, rhs in side]
            if not any(bad):
                continue
            for k in range(depth + 1):
                if k == len(present):
                    present.append({v for u in present[-1] for v in rows[u]})
                ends = {v for v in present[k] if bad[v]}
                if not ends:
                    continue
                # a word's first letters, with the values of the remaining length
                # that they lead into ends; pushed last letter first, so words pop in index order
                stack = [((), ends)]
                while stack:
                    word, tails = stack.pop()
                    if len(word) < k:
                        rest = present[k - len(word) - 1]
                        for ai in reversed(range(len(alphabet))):
                            kept = {u for u in rest if rows[u][ai] in tails}
                            if kept:
                                stack.append((word + (ai,), kept))
                        continue
                    v = 0
                    for ai in reversed(word):
                        v = rows[v][ai]
                    lhs, rhs = side[v]
                    yield LawFailure(
                        f"state {source.names[x]}, word {format_word([alphabet[ai] for ai in word])}",
                        f"source trace: {render(lhs)}",
                        f"determinized trace: {render(rhs)}",
                    )

    return LawReport(f"correctness:{method}", count, list(islice(failures(), max_failures)))
