"""Per-instance reference loops for the naturality and Boolean action-law
checkers, the references their table judges are compared against.

They walk every instance one at a time, in the checkers' enumeration order,
on frozensets or plain lists, and render failures with their own code. They
live apart from `tests/oracles.py`, which the benchmark loads into every run:
that module's source size moves the benchmark's peak memory.
"""

import random
from functools import lru_cache
from itertools import combinations, product


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
