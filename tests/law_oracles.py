"""Per-instance reference loops for the naturality, action-law and exchange
checkers, the references their judges of distinct arguments are compared
against.

They walk every instance one at a time, in the checkers' enumeration order,
on frozensets or plain lists, and render failures with their own code. They
live apart from `tests/oracles.py`, which the benchmark loads into every run:
that module's source size moves the benchmark's peak memory.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from tracekit.weights import WeightVec, map_weights, monad_mul, unit


def naturality(t, max_size, samples=500, seed=2026):
    """The naturality square of t checked one map and one family at a time,
    on frozensets, the reference for check_naturality's table judge.

    Both paths are computed for every instance: the image under f of t of
    the family, and t of the family's image. Every map f from X to Y with
    |X|, |Y| <= min(max_size, 3), in `product` order, meets every family
    over X, in mask order (bit u stands for the subset with bits u); above
    size 3 come seeded samples. Returns the instance count and (instance,
    lhs, rhs) of every failure.
    """
    def fmt_set(s, names):
        return "{" + ",".join(names[i] for i in sorted(s)) + "}"

    def fmt_family(fam, names):
        return "{" + ", ".join(fmt_set(u, names) for u in sorted(tuple(sorted(u)) for u in fam)) + "}"

    def family(nx, mask):
        return frozenset(
            frozenset(x for x in range(nx) if u >> x & 1) for u in range(1 << nx) if mask >> u & 1
        )

    count, failures = 0, []

    def square(nx, ny, f, fam):
        nonlocal count
        count += 1
        image = lambda fm: frozenset(frozenset(f[x] for x in u) for u in fm)
        lhs, rhs = image(t.apply(fam)), t.apply(image(fam))
        if lhs != rhs:
            xs = [chr(ord("a") + i) for i in range(nx)]
            ys = [chr(ord("a") + nx + i) for i in range(ny)]
            fn = "[" + ", ".join(f"{xs[x]}->{ys[f[x]]}" for x in range(nx)) + "]"
            failures.append((
                f"X={fmt_set(range(nx), xs)}, Y={fmt_set(range(ny), ys)}, f={fn}, S={fmt_family(fam, xs)}",
                f"map after {t.name}: {fmt_family(lhs, ys)}",
                f"{t.name} after map: {fmt_family(rhs, ys)}",
            ))

    limit = min(max_size, 3)
    for nx in range(limit + 1):
        for ny in range(limit + 1):
            for f in product(range(ny), repeat=nx):
                for mask in range(1 << (1 << nx)):
                    square(nx, ny, f, family(nx, mask))
    if max_size > 3:
        rng = random.Random(seed)
        for _ in range(samples):
            nx, ny = rng.randint(1, max_size), rng.randint(1, max_size)
            if max(nx, ny) <= 3:
                nx = max_size
            f = tuple(rng.randrange(ny) for _ in range(nx))
            mask = 0
            for _ in range(rng.randint(0, 4)):
                mask |= 1 << rng.randrange(1 << nx)
            square(nx, ny, f, family(nx, mask))
    return count, failures


def action_laws(action, max_phi, samples=300, seed=2026):
    """check_action_laws for a PredicateAction, one family at a time, the
    reference for its judge of each distinct argument.

    Unit law: folding (phi,) gives phi. Multiplication law, per outer family
    of predicate sets: the fold of its union's predicates against the fold
    of the list of its members' folds, in member order. Every outer family
    up to 2 points, in mask order; at 3 points, every one of up to two
    members in `combinations` order, then seeded samples with repeats.
    Returns the instance count and (instance, lhs, rhs) of every failure.
    """
    def bits(mask):
        return [i for i in range(mask.bit_length()) if mask >> i & 1]

    @lru_cache(maxsize=None)
    def points(mask):
        return "{" + ",".join(str(p) for p in bits(mask)) + "}"

    @lru_cache(maxsize=None)
    def predicates(fm):
        return "{" + ", ".join(points(p) for p in bits(fm)) + "}"

    count, failures = 0, []
    for k in range(max_phi + 1):
        for phi in range(1 << k):
            count += 1
            got = action.fold((phi,), (1 << k) - 1)
            if got != phi:
                failures.append((
                    f"|Phi|={k}, predicate {points(phi)}",
                    f"resolve of singleton: {points(got)}",
                    f"the predicate itself: {points(phi)}",
                ))

    def multiply(k, members, resolved):
        nonlocal count
        count += 1
        union = 0
        for fm in members:
            union |= fm
        lhs = resolved[union]
        rhs = action.fold([resolved[fm] for fm in members], (1 << k) - 1)
        if lhs != rhs:
            failures.append((
                f"|Phi|={k}, family of predicate sets {{{', '.join(map(predicates, members))}}}",
                f"resolve of union: {points(lhs)}",
                f"resolve of resolutions: {points(rhs)}",
            ))

    for k in range(min(max_phi, 3) + 1):
        nfam = 1 << (1 << k)
        resolved = [action.fold(iter(bits(fm)), (1 << k) - 1) for fm in range(nfam)]
        if k < 3:
            for outer in range(1 << nfam):
                multiply(k, bits(outer), resolved)
        else:
            for r in range(3):
                for members in combinations(range(nfam), r):
                    multiply(k, members, resolved)
            rng = random.Random(seed)
            for _ in range(samples):
                multiply(k, [rng.randrange(nfam) for _ in range(rng.randint(3, 6))], resolved)
    return count, failures


def semiring_action_laws(sr, max_phi, samples=300, seed=2026, families=None):
    """check_action_laws for a SemiringAction, one instance at a time and
    with no memo, the reference for its judge of each distinct family.

    Unit law: resolving the unit vector of each predicate psi (a k-tuple of
    pool values) gives psi. Multiplication law, per weighted family of
    vectors: resolving its flattening against resolving the family of its
    members' resolutions, each resolution summed point by point with the
    semiring's own add and mul. Over bool, every family up to 1 point and
    those of up to two members at 2 points, in `combinations` order; then
    seeded samples, each counted even when it repeats. Each multiplication
    instance's (k, family) is appended to families when one is given.
    Returns the instance count and (instance, lhs, rhs) of every failure.
    """
    pool = {
        "bool": (False, True),
        "nat": (0, 1, 2, 3),
        "rat": (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3)),
    }[sr.name]
    nonzero = tuple(v for v in pool if v != sr.zero)

    def resolve(vec, k):
        out = []
        for p in range(k):
            total = sr.zero
            for psi, c in vec.items():
                total = sr.add(total, sr.mul(c, psi[p]))
            out.append(total)
        return tuple(out)

    def fmt_vec(vec):
        return "{" + ", ".join(f"{key}:{val}" for key, val in vec.items()) + "}"

    count, failures = 0, []
    for k in range(max_phi + 1):
        for psi in product(pool, repeat=k):
            count += 1
            got = resolve(unit(sr, psi), k)
            if got != psi:
                failures.append((
                    f"|Phi|={k}, predicate {psi}",
                    f"resolve of singleton: {got}",
                    f"the predicate itself: {psi}",
                ))

    def multiply(k, outer):
        nonlocal count
        count += 1
        if families is not None:
            families.append((k, outer))
        lhs = resolve(monad_mul(sr, outer), k)
        rhs = resolve(map_weights(lambda v: resolve(v, k), outer), k)
        if lhs != rhs:
            rendered = ", ".join(f"{fmt_vec(v)}:{c}" for v, c in outer.items())
            failures.append((
                f"|Phi|={k}, weighted family {{{rendered}}}",
                f"resolve of flattening: {lhs}",
                f"resolve of resolutions: {rhs}",
            ))

    if sr.name == "bool":
        for k in range(min(max_phi, 2) + 1):
            preds = list(product(pool, repeat=k))
            vecs = [WeightVec(sr, {p: True for p in chosen}) for r in range(len(preds) + 1) for chosen in combinations(preds, r)]
            for r in range(len(vecs) + 1 if k < 2 else 3):
                for chosen in combinations(vecs, r):
                    multiply(k, WeightVec(sr, {v: True for v in chosen}))
    rng = random.Random(seed)
    for _ in range(samples):
        k = rng.randint(0, max_phi)
        inner = []
        for _ in range(rng.randint(0, 3)):
            support = {tuple(rng.choice(pool) for _ in range(k)): rng.choice(nonzero) for _ in range(rng.randint(0, 2))}
            inner.append(WeightVec(sr, support))
        multiply(k, WeightVec(sr, {v: rng.choice(nonzero) for v in inner}))
    return count, failures


def exchange(max_phi, kernel):
    """check_exchange one family of predicate sets at a time, the reference
    for its judge of each distinct pair of byte classes.

    On k points, every family in mask order (bit u stands for the predicate
    set with bits u, bit phi of u for the predicate with bits phi): the meet
    of its members' joins against the join of the meets of its hitting
    sets, the predicate sets v that every member u's kernel call
    kernel((u, all predicates)) keeps. kernel is the hitting-set kernel in
    force, so a mutated one must fail the same families in both. Returns
    the instance count and (instance, lhs, rhs) of every failure.
    """
    def bits(mask):
        return [i for i in range(mask.bit_length()) if mask >> i & 1]

    def points(mask):
        return "{" + ",".join(map(str, bits(mask))) + "}"

    count, failures = 0, []
    for k in range(max_phi + 1):
        full, nsets = (1 << k) - 1, 1 << (1 << k)
        joins, meets = [0] * nsets, [full] * nsets
        for u in range(nsets):
            for phi in bits(u):
                joins[u] |= phi
                meets[u] &= phi
        hits_of = [kernel((u, nsets - 1)) for u in range(nsets)]
        for fam in range(1 << nsets):
            count += 1
            members = bits(fam)
            top, hits = full, (1 << nsets) - 1
            for u in members:
                top &= joins[u]
                hits &= hits_of[u]
            bottom = 0
            for v in bits(hits):
                bottom |= meets[v]
            if top != bottom:
                rendered = ", ".join("{" + ", ".join(map(points, bits(u))) + "}" for u in members)
                failures.append((
                    f"|Phi|={k}, family {{{rendered}}}",
                    f"meet of joins: {points(top)}",
                    f"join of hitting-set meets: {points(bottom)}",
                ))
    return count, failures
