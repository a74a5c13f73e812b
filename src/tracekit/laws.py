"""Finite-instance checkers for the equations behind the determinizations.

Every construction in this package leans on a handful of equations: the
branch-set transformation must be natural, the branching resolution must
satisfy unit and multiplication laws (also in monad-morphism form), the
one-step exchange squares must commute, and the determinized machine must
agree with the source semantics word by word. Each checker enumerates a
declared finite fragment exhaustively (plus optional seeded samples above
the exhaustive bound) and returns a LawReport. A clean report is a finite
proof over that fragment, nothing more; bounds are chosen as the largest
sizes with runs well under a second.

Predicates over a finite set of size k are bitmasks over k points, so a
predicate doubles as its own index; sets of predicates and families of such
sets are masks over masks. Rendering expands all of this back to braces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import and_, or_
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .automata import NFA, AlternatingAut, ValidationError, WeightedAut, _iter_bits, require_valid
from .determinize import BudgetExceeded, DetResult, _hitting_bits, chi_good, chi_wrong
from .semantics import _layers, _reader, _recurrence, format_word, word_at
from .weights import Semiring, WeightVec, map_weights, monad_mul, unit

NAT_SHAPE = "PP=>PP"


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


# ---------------------------------------------------------------------------
# Naturality of set-of-set transformations


@dataclass(frozen=True)
class FiniteNatTrans:
    """A transformation on finite families of finite sets, one map for all
    carriers (elements are opaque; only membership structure matters)."""

    name: str
    apply: Callable[[Iterable[Iterable[int]]], frozenset]


CHI_GOOD = FiniteNatTrans("chi-good", chi_good)
CHI_WRONG = FiniteNatTrans("chi-wrong", chi_wrong)
IDENTITY_NAT = FiniteNatTrans(
    "identity", lambda fam: frozenset(frozenset(u) for u in fam)
)

NAT_TRANSFORMS = {t.name: t for t in (CHI_GOOD, CHI_WRONG, IDENTITY_NAT)}


def _carrier_names(nx: int, ny: int) -> Tuple[List[str], List[str]]:
    if nx + ny > 26:
        raise ValueError("carriers too large to letter")
    xs = [chr(ord("a") + i) for i in range(nx)]
    ys = [chr(ord("a") + nx + i) for i in range(ny)]
    return xs, ys


def _fmt_set(s: Iterable[int], names: Sequence[str]) -> str:
    return "{" + ",".join(names[i] for i in sorted(s)) + "}"


def _fmt_family(fam: Iterable[Iterable[int]], names: Sequence[str]) -> str:
    inner = sorted(tuple(sorted(u)) for u in fam)
    return "{" + ", ".join(_fmt_set(u, names) for u in inner) + "}"


def _map_family(f: Sequence[int], fam: Iterable[Iterable[int]]) -> frozenset:
    return frozenset(frozenset(f[x] for x in u) for u in fam)


def naturality_instance(
    t: FiniteNatTrans, nx: int, ny: int, f: Sequence[int], fam: Iterable[Iterable[int]]
) -> Optional[LawFailure]:
    """Evaluate one naturality square; None when it commutes."""
    fam = frozenset(frozenset(u) for u in fam)
    lhs = _map_family(f, t.apply(fam))
    rhs = t.apply(_map_family(f, fam))
    if lhs == rhs:
        return None
    xs, ys = _carrier_names(nx, ny)
    fn = "[" + ", ".join(f"{xs[x]}->{ys[f[x]]}" for x in range(nx)) + "]"
    instance = (
        f"X={_fmt_set(range(nx), xs)}, Y={_fmt_set(range(ny), ys)}, "
        f"f={fn}, S={_fmt_family(fam, xs)}"
    )
    return LawFailure(
        instance,
        f"map after {t.name}: {_fmt_family(lhs, ys)}",
        f"{t.name} after map: {_fmt_family(rhs, ys)}",
    )


_KNOWN_NX = 3
_KNOWN_NY = 2
_KNOWN_F = (0, 0, 1)
_KNOWN_FAMILY = frozenset({frozenset({0, 2}), frozenset({1, 2})})


def known_counterexample(t: FiniteNatTrans = CHI_WRONG) -> Optional[LawFailure]:
    """The classical instance refuting the choice-function transformation:
    two sets sharing one element, under a map gluing the unshared ones."""
    return naturality_instance(t, _KNOWN_NX, _KNOWN_NY, _KNOWN_F, _KNOWN_FAMILY)


def check_naturality(
    t: FiniteNatTrans,
    shape: str = NAT_SHAPE,
    max_size: int = 3,
    samples: int = 500,
    seed: int = 2026,
) -> LawReport:
    """Probe t_Y(map f applied inside) = map f applied to t_X, for all maps
    f between carriers of size up to max_size and all family arguments.

    The enumeration is exhaustive up to carrier size 3; sizes above that are
    covered by seeded random sampling.
    """
    if shape != NAT_SHAPE:
        raise ValueError(f"unsupported shape {shape!r}; only {NAT_SHAPE!r} is known")
    failures: List[LawFailure] = []
    count = 0
    limit = min(max_size, 3)
    for nx in range(limit + 1):
        for ny in range(limit + 1):
            subsets = [frozenset(_iter_bits(m)) for m in range(1 << nx)]
            for f in product(range(ny), repeat=nx):
                for fam_mask in range(1 << (1 << nx)):
                    fam = frozenset(subsets[j] for j in _iter_bits(fam_mask))
                    count += 1
                    failure = naturality_instance(t, nx, ny, f, fam)
                    if failure is not None:
                        failures.append(failure)
    if max_size > 3:
        rng = random.Random(seed)
        for _ in range(samples):
            nx = rng.randint(1, max_size)
            ny = rng.randint(1, max_size)
            if max(nx, ny) <= 3:
                nx = max_size
            f = tuple(rng.randrange(ny) for _ in range(nx))
            fam = frozenset(
                frozenset(_iter_bits(rng.randrange(1 << nx)))
                for _ in range(rng.randint(0, 4))
            )
            count += 1
            failure = naturality_instance(t, nx, ny, f, fam)
            if failure is not None:
                failures.append(failure)
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
    fragments beyond that.
    """
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
                failures.append(
                    LawFailure(
                        f"|Phi|={k}, predicate {_fmt_points(phi)}",
                        f"resolve of singleton: {_fmt_points(got)}",
                        f"the predicate itself: {_fmt_points(phi)}",
                    )
                )

    def check_mult(k: int, fam_masks: Sequence[int], resolved: Sequence[int]) -> None:
        nonlocal count
        count += 1
        full = (1 << k) - 1
        union = reduce(or_, fam_masks, 0)
        lhs = action.fold(_iter_bits(union), full)
        rhs = action.fold(resolved, full)
        if lhs != rhs:
            rendered = (
                "{" + ", ".join(_fmt_predset(_iter_bits(fm)) for fm in fam_masks) + "}"
            )
            failures.append(
                LawFailure(
                    f"|Phi|={k}, family of predicate sets {rendered}",
                    f"resolve of union: {_fmt_points(lhs)}",
                    f"resolve of resolutions: {_fmt_points(rhs)}",
                )
            )

    for k in range(min(max_phi, 2) + 1):
        npred = 1 << k
        full = (1 << k) - 1
        fold_of = [action.fold(_iter_bits(fm), full) for fm in range(1 << npred)]
        for outer in range(1 << (1 << npred)):
            fams = list(_iter_bits(outer))
            check_mult(k, fams, [fold_of[fm] for fm in fams])
    if max_phi >= 3:
        k = 3
        full = (1 << k) - 1
        nfam = 1 << (1 << k)
        fold_of = [action.fold(_iter_bits(fm), full) for fm in range(nfam)]
        for r in range(3):
            for fams in combinations(range(nfam), r):
                check_mult(k, fams, [fold_of[fm] for fm in fams])
        rng = random.Random(seed)
        for _ in range(samples):
            fams = [rng.randrange(nfam) for _ in range(rng.randint(3, 6))]
            check_mult(k, fams, [fold_of[fm] for fm in fams])
    return LawReport(f"action-laws:{action.name}", count, failures)


_VALUE_POOLS = {
    "bool": (False, True),
    "nat": (0, 1, 2, 3),
    "rat": (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3)),
}


def _fmt_vec(vec: WeightVec) -> str:
    return "{" + ", ".join(f"{key}:{val}" for key, val in vec.items()) + "}"


def _action_laws_semiring(
    action: SemiringAction, max_phi: int, samples: int, seed: int
) -> LawReport:
    sr = action.semiring
    pool = _VALUE_POOLS[sr.name]
    nonzero = tuple(v for v in pool if v != sr.zero)
    failures: List[LawFailure] = []
    count = 0

    for k in range(max_phi + 1):
        for psi in product(pool, repeat=k):
            count += 1
            got = _vec_resolve(sr, unit(sr, psi), k)
            if got != psi:
                failures.append(
                    LawFailure(
                        f"|Phi|={k}, predicate {psi}",
                        f"resolve of singleton: {got}",
                        f"the predicate itself: {psi}",
                    )
                )

    def check_mult(k: int, outer: WeightVec) -> None:
        nonlocal count
        count += 1
        lhs = _vec_resolve(sr, monad_mul(sr, outer), k)
        rhs = _vec_resolve(
            sr, map_weights(lambda v: _vec_resolve(sr, v, k), outer), k
        )
        if lhs != rhs:
            rendered = (
                "{" + ", ".join(f"{_fmt_vec(v)}:{c}" for v, c in outer.items()) + "}"
            )
            failures.append(
                LawFailure(
                    f"|Phi|={k}, weighted family {rendered}",
                    f"resolve of flattening: {lhs}",
                    f"resolve of resolutions: {rhs}",
                )
            )

    if sr.name == "bool":
        for k in range(min(max_phi, 2) + 1):
            preds = list(product(pool, repeat=k))
            vecs = [
                WeightVec(sr, {p: True for p in chosen})
                for r in range(len(preds) + 1)
                for chosen in combinations(preds, r)
            ]
            # every outer family up to 1 point; at 2 points, up to two members
            for r in range(len(vecs) + 1 if k < 2 else 3):
                for chosen in combinations(vecs, r):
                    check_mult(k, WeightVec(sr, {v: True for v in chosen}))
    rng = random.Random(seed)
    for _ in range(samples):
        k = rng.randint(0, max_phi)
        inner = []
        for _ in range(rng.randint(0, 3)):
            support = {
                tuple(rng.choice(pool) for _ in range(k)): rng.choice(nonzero)
                for _ in range(rng.randint(0, 2))
            }
            inner.append(WeightVec(sr, support))
        outer = WeightVec(sr, {v: rng.choice(nonzero) for v in inner})
        check_mult(k, outer)
    return LawReport(f"action-laws:{action.name}", count, failures)


def check_monad_morphism(action: PredicateAction, max_size: int = 3) -> LawReport:
    """Check that folding point evaluations is a monad morphism into the
    double-contravariant-powerset monad.

    A subset U of an n-point carrier resolves to the set of predicates
    dagger(U) obtained by folding, over x in U, the set of predicates
    holding at x. Unit law: dagger({x}) is evaluation at x. Multiplication
    law: a predicate lies in dagger(union of a family) iff the fold over
    members U of its membership in dagger(U) holds.
    """
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
                failures.append(
                    LawFailure(
                        f"n={n}, element {x}",
                        f"dagger of singleton: {_fmt_predset(_iter_bits(dagger[1 << x]))}",
                        f"evaluation at the element: {_fmt_predset(_iter_bits(iota[x]))}",
                    )
                )
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
                failures.append(
                    LawFailure(
                        f"n={n}, family {rendered}",
                        f"dagger of union: {_fmt_predset(_iter_bits(lhs))}",
                        f"fold of daggers: {_fmt_predset(_iter_bits(rhs))}",
                    )
                )
    return LawReport(f"monad-morphism:{action.name}", count, failures)


# ---------------------------------------------------------------------------
# One-step logic-morphism diagrams

DIAGRAMS = ("subset", "conj", "weighted", "alt")
_MUTATIONS = (None, "flip-output")


def _fmt_lpred(mask: int, alphabet: Sequence[str], k: int) -> str:
    names = ["ε"]
    for label in alphabet:
        for p in range(k):
            names.append(f"({label},{p})")
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
    one-step predicate of the aggregate. `mutate="flip-output"` corrupts the
    bottom path's output aggregation, as a negative control for the checker.
    """
    if which not in DIAGRAMS:
        raise ValueError(f"unknown diagram {which!r}; expected one of {DIAGRAMS}")
    if mutate not in _MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r}")
    if which == "weighted":
        return _diagram_weighted(max_phi, tuple(alphabet), mutate)
    return _diagram_branching(which, max_phi, tuple(alphabet), samples, seed, mutate)


def _diagram_weighted(
    max_phi: int, alphabet: Tuple[str, ...], mutate: Optional[str]
) -> LawReport:
    m = len(alphabet)
    failures: List[LawFailure] = []
    count = 0
    for k in range(max_phi + 1):
        nmask = 1 << k
        points = 1 + m * nmask
        rho = [1] + [phi << (1 + ai * k) for ai in range(m) for phi in range(nmask)]
        for psi in range(1 << points):
            count += 1
            top = 0
            for i in _iter_bits(psi):
                top |= rho[i]
            out = psi & 1
            if mutate == "flip-output":
                out ^= 1
            bottom = out
            for ai in range(m):
                orphi = 0
                for phi in range(nmask):
                    if psi >> (1 + ai * nmask + phi) & 1:
                        orphi |= phi
                bottom |= orphi << (1 + ai * k)
            if top != bottom:
                names = ["*"] + [
                    f"({alphabet[ai]},{_fmt_points(phi)})"
                    for ai in range(m)
                    for phi in range(nmask)
                ]
                rendered = "{" + ", ".join(names[i] for i in _iter_bits(psi)) + "}"
                failures.append(
                    LawFailure(
                        f"|Phi|={k}, weighted one-step bag {rendered}",
                        f"resolve of one-step predicates: {_fmt_lpred(top, alphabet, k)}",
                        f"one-step of aggregate: {_fmt_lpred(bottom, alphabet, k)}",
                    )
                )
    return LawReport("logic-morphism:weighted", count, failures)


def _joins_and_meets(ninner: int, full_pred: int) -> Tuple[List[int], List[int]]:
    """For every set of predicates (a mask over predicate masks below ninner),
    the join and the meet of its members; the empty meet is full_pred."""
    join_of = []
    meet_of = []
    for im in range(ninner):
        disj = 0
        conj = full_pred
        for phi in _iter_bits(im):
            disj |= phi
            conj &= phi
        join_of.append(disj)
        meet_of.append(conj)
    return join_of, meet_of


def _hitting_meet(members: Iterable[int], meet_of: Sequence[int]) -> int:
    """The join, over the hitting sets of a family of predicate sets, of
    each hitting set's meet (meet_of as from `_joins_and_meets`)."""
    got = 0
    for v in _iter_bits(_hitting_bits(members)):
        got |= meet_of[v]
    return got


def _diagram_branching(
    which: str,
    max_phi: int,
    alphabet: Tuple[str, ...],
    samples: int,
    seed: int,
    mutate: Optional[str],
) -> LawReport:
    """The powerset-like squares. An element is an output bit plus one part
    per letter: a predicate (subset, conj) or a set of predicates read as
    its join (alt). The top path folds the elements' one-step predicates;
    the bottom path folds the outputs and aggregates each letter's parts,
    by the same fold, or, for alt, as the join of their hitting-set meets.
    """
    alt = which == "alt"
    fold = (DIAMOND if which == "subset" else BOX).fold
    # families: all of fewer than lo elements, then samples of lo..hi of them
    lo, hi = (3, 4) if alt else (4, 8)
    failures: List[LawFailure] = []
    count = 0
    rng = random.Random(seed)
    for k in range(max_phi + 1):
        full_pred = (1 << k) - 1
        shifts = [1 + ai * k for ai in range(len(alphabet))]
        full_l = (1 << (1 + len(alphabet) * k)) - 1
        if alt:
            pred_of, meet_of = _joins_and_meets(1 << (1 << k), full_pred)
            fmt_part = lambda t: _fmt_predset(_iter_bits(t))
            memo: Dict[frozenset, int] = {}

            def aggregate(parts: List[int]) -> int:
                key = frozenset(parts)
                got = memo.get(key)
                if got is None:
                    got = memo[key] = _hitting_meet(key, meet_of)
                return got

        else:
            pred_of = range(1 << k)
            fmt_part = _fmt_points
            aggregate = lambda parts: fold(parts, full_pred)
        base = [(o, ts) for o in (0, 1) for ts in product(range(len(pred_of)), repeat=len(alphabet))]
        ones = [o | sum(pred_of[t] << s for t, s in zip(ts, shifts)) for o, ts in base]

        def fmt_elem(i: int) -> str:
            o, ts = base[i]
            parts = [f"out={_tt(o)}"] + [
                f"{label}->{fmt_part(t)}" for label, t in zip(alphabet, ts)
            ]
            return "(" + ", ".join(parts) + ")"

        def check_family(idxs: Sequence[int]) -> None:
            nonlocal count
            count += 1
            top = fold([ones[i] for i in idxs], full_l)
            bottom = fold([base[i][0] for i in idxs], 1)
            if mutate == "flip-output":
                bottom ^= 1
            for ai, s in enumerate(shifts):
                bottom |= aggregate([base[i][1][ai] for i in idxs]) << s
            if top != bottom:
                fam = "[" + "; ".join(fmt_elem(i) for i in idxs) + "]"
                failures.append(
                    LawFailure(
                        f"|Phi|={k}, machine family {fam}",
                        f"resolve of one-step predicates: {_fmt_lpred(top, alphabet, k)}",
                        f"one-step of aggregate: {_fmt_lpred(bottom, alphabet, k)}",
                    )
                )

        for r in range(lo):
            for idxs in combinations(range(len(base)), r):
                check_family(idxs)
        if len(base) > lo:
            for _ in range(samples):
                r = rng.randint(lo, min(hi, len(base)))
                check_family(tuple(rng.sample(range(len(base)), r)))
    return LawReport(f"logic-morphism:{which}", count, failures)


def check_exchange(max_phi: int = 2) -> LawReport:
    """Conjunction-over-disjunction exchange: on any family of predicate
    sets, the meet of the members' joins equals the join, over all hitting
    sets of the family, of the hitting set's meet. This is the pointwise law
    that makes the alternating translation work.
    """
    failures: List[LawFailure] = []
    count = 0
    for k in range(max_phi + 1):
        nmask = 1 << k
        ninner = 1 << nmask
        full_pred = (1 << k) - 1
        join_of, meet_of = _joins_and_meets(ninner, full_pred)
        for fam_mask in range(1 << ninner):
            count += 1
            inner_masks = list(_iter_bits(fam_mask))
            top = full_pred
            for im in inner_masks:
                top &= join_of[im]
            bottom = _hitting_meet(inner_masks, meet_of)
            if top != bottom:
                rendered = (
                    "{"
                    + ", ".join(_fmt_predset(_iter_bits(im)) for im in inner_masks)
                    + "}"
                )
                failures.append(
                    LawFailure(
                        f"|Phi|={k}, family {rendered}",
                        f"meet of joins: {_fmt_points(top)}",
                        f"join of hitting-set meets: {_fmt_points(bottom)}",
                    )
                )
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
    depends only on a and the pair of w, so a breadth-first sweep over the
    distinct pairs of the words up to the depth checks every word, and a
    pair seen before is not stepped again. Word-by-word layers are built
    only to report failures, in state, length and word order. An invalid
    machine, or an embedding that misses a machine state, raises
    ValidationError.
    """
    if isinstance(det, BudgetExceeded):
        raise ValueError("a budget-exceeded outcome carries no machine to check")
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
    letters = range(len(alphabet))
    src_base, src_step = _recurrence(source, "conj" if method == "subset-conj" else "disj")
    mach_base, mach_step = _recurrence(machine)
    readers = [
        (_reader(src_base, x), _reader(mach_base, det.embed[x]))
        for x in range(source.n_states)
    ]
    name = f"correctness:{method}"
    count = source.n_states * sum(len(alphabet) ** k for k in range(depth + 1))

    seen = {(src_base, mach_base)}
    frontier = set(seen)
    for _ in range(depth):
        frontier = {(src_step(ai, s), mach_step(ai, t)) for s, t in frontier for ai in letters}
        frontier -= seen
        seen |= frontier
    if all(src(s) == mach(t) for s, t in seen for src, mach in readers):
        return LawReport(name, count, [])

    render = str if method == "weighted" else _tt
    src_layers = _layers(alphabet, src_base, src_step, depth)
    mach_layers = _layers(alphabet, mach_base, mach_step, depth)
    failures: List[LawFailure] = []
    for x, (src, mach) in enumerate(readers):
        for k in range(depth + 1):
            for i, (s, t) in enumerate(zip(src_layers[k], mach_layers[k])):
                lhs, rhs = src(s), mach(t)
                if lhs == rhs:
                    continue
                if len(failures) >= max_failures:
                    return LawReport(name, count, failures)
                failures.append(
                    LawFailure(
                        f"state {source.names[x]}, word {format_word(word_at(alphabet, k, i))}",
                        f"source trace: {render(lhs)}",
                        f"determinized trace: {render(rhs)}",
                    )
                )
    return LawReport(name, count, failures)
