"""Independent reference computations the implementation is checked against.

These deliberately share no code or algorithmic shape with the package: the
word oracles walk transition relations per word, and the tree oracle
enumerates complete runs one at a time. Slow and obvious beats fast here.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import tracekit.laws
from tracekit import (
    GPS,
    LTS,
    NFA,
    TERM,
    AlternatingAut,
    BudgetExceeded,
    MooreAut,
    Tree,
    UnknownStateError,
    WeightedAut,
    WeightedTreeAut,
    WeightVec,
    unit,
)


def succ_sets(n: NFA):
    """Per state, per letter of n's alphabet in order, the frozenset of its
    successors, read off n.transitions one transition at a time."""
    return [
        [frozenset(q for p, b, q in n.transitions if p == x and b == a) for a in n.alphabet]
        for x in range(n.n_states)
    ]


def nfa_accepts(n: NFA, x: int, word) -> bool:
    """Existential path search by plain recursion over the word."""
    if not word:
        return x in n.accepting
    first, rest = word[0], word[1:]
    return any(
        nfa_accepts(n, q, rest)
        for (p, a, q) in n.transitions
        if p == x and a == first
    )


def nfa_conj_value(n: NFA, x: int, word) -> bool:
    """Conjunctive reading: every successor chain must end accepting."""
    if not word:
        return x in n.accepting
    first, rest = word[0], word[1:]
    return all(
        nfa_conj_value(n, q, rest)
        for (p, a, q) in n.transitions
        if p == x and a == first
    )


def alt_accepts(a: AlternatingAut, x: int, word) -> bool:
    if not word:
        return a.outputs[x]
    first, rest = word[0], word[1:]
    i = a.alphabet.index(first)
    return any(
        all(alt_accepts(a, y, rest) for y in member)
        for member in a.trans[x][i]
    )


def lts_can_do(l: LTS, x: int, word) -> bool:
    """Some path from x reads the word; every state may stop."""
    if not word:
        return True
    i = l.alphabet.index(word[0])
    return any(lts_can_do(l, y, word[1:]) for y in l.trans[x][i])


def word_table(value, alphabet, depth: int) -> dict:
    """value(word) for every word up to the depth, one word at a time: by
    length, then letters in declared order, the first letter most
    significant."""
    return {w: value(w) for k in range(depth + 1) for w in product(alphabet, repeat=k)}


def wa_value(w: WeightedAut, x: int, word):
    """Sum over all paths of the product of edge weights times final output."""
    sr = w.semiring
    if not word:
        return w.out[x]
    i = w.alphabet.index(word[0])
    total = sr.zero
    for y, c in w.trans[x][i].items():
        total = sr.add(total, sr.mul(c, wa_value(w, y, word[1:])))
    return total


def moore_value(m, x: int, word):
    """Follow delta one letter at a time and read the output where it ends."""
    for label in word:
        x = m.delta[x][m.alphabet.index(label)]
    return m.outputs[x]


def refine_rounds(m: MooreAut, initial: int):
    """Round-based partition refinement of the part of m reachable from
    initial, the reference for partition_refine.

    The reachable states are numbered breadth first, successors letter by
    letter. Each round gives every state the signature (its block, its
    successors' blocks) and numbers the signatures by first appearance,
    until a round changes nothing; so blocks end numbered by least member.
    A chain needs about one round per state, so this is quadratic.
    """
    order, index = [initial], {initial: 0}
    for x in order:
        for y in m.delta[x]:
            if y not in index:
                index[y] = len(order)
                order.append(y)
    delta = [[index[y] for y in m.delta[x]] for x in order]
    keys = {}
    block = [keys.setdefault(m.outputs[x], len(keys)) for x in order]
    while True:
        sigs = {}
        new_block = [
            sigs.setdefault((block[s],) + tuple(block[t] for t in row), len(sigs))
            for s, row in enumerate(delta)
        ]
        if new_block == block:
            break
        block = new_block
    reps = {}
    for s, b in enumerate(block):
        reps.setdefault(b, s)
    machine = MooreAut(
        m.alphabet,
        [m.outputs[order[s]] for s in reps.values()],
        [[block[t] for t in delta[s]] for s in reps.values()],
        semiring=m.semiring,
        names=[f"m{i}" for i in range(len(reps))],
    )
    return machine, block[0]


def gps_mass(g: GPS, x: int, word) -> Fraction:
    if not word:
        return g.dist[x].get(TERM, Fraction(0))
    first, rest = word[0], word[1:]
    total = Fraction(0)
    for key, p in g.dist[x].items():
        if key is not TERM and key[0] == first:
            total += p * gps_mass(g, key[1], rest)
    return total


def reverse_nfa(n: NFA, initial):
    """Flip all edges; the old initial set becomes accepting and vice versa.
    Returns the reversed automaton with its initial set (the old accepting
    set), so reversing twice gives back n and initial."""
    init = frozenset(initial)
    for x in init:
        if not (isinstance(x, int) and 0 <= x < n.n_states):
            raise UnknownStateError(f"unknown state {x!r}")
    rev = NFA(n.n_states, n.alphabet, ((q, a, p) for p, a, q in n.transitions), accepting=init, names=n.names)
    return rev, n.accepting


def subset_dfa(n: NFA, initial):
    """The textbook subset construction from the set initial: an NFA (a
    complete DFA) on the reachable subsets, with its initial set. With
    reverse_nfa, two rounds of reverse-then-determinize give the minimal DFA
    (Brzozowski)."""
    subsets = [frozenset(initial)]
    edges = []
    for i, s in enumerate(subsets):  # the list grows as subsets are found
        for a in n.alphabet:
            t = frozenset(q for p, b, q in n.transitions if p in s and b == a)
            if t not in subsets:
                subsets.append(t)
            edges.append((i, a, subsets.index(t)))
    accepting = [i for i, s in enumerate(subsets) if s & n.accepting]
    return NFA(len(subsets), n.alphabet, edges, accepting), [0]


def weight_vectors(w: WeightedAut, budget: int):
    """The reference weighted determinization, on `WeightVec` states.

    The vectors reachable from the unit vectors are numbered breadth first,
    successors letter by letter; the a-successor of v sums v(y) * weight
    over every edge y -a-> z in the carrier's own arithmetic. Returns the
    outputs, successor rows, embedding and vectors by number, or the
    `BudgetExceeded` that `det_weighted` gives once more than budget
    vectors appear.
    """
    sr = w.semiring
    order, index = [], {}

    def number(v):
        if v not in index:
            index[v] = len(order)
            order.append(v)
        return index[v]

    embed = {x: number(unit(sr, x)) for x in range(w.n_states)}
    delta = []
    while len(delta) < len(order) <= budget:
        v = order[len(delta)]
        delta.append(tuple(
            number(WeightVec(sr, [(z, sr.mul(c, wt)) for y, c in v.items() for z, wt in w.trans[y][ai].items()]))
            for ai in range(len(w.alphabet))
        ))
    if len(order) > budget:
        return BudgetExceeded("weighted", budget, budget + 1)
    outputs = [sr.sum(sr.mul(c, w.out[y]) for y, c in v.items()) for v in order]
    return outputs, delta, embed, dict(enumerate(order))


def chi_good_bruteforce(family):
    """Every subset of the union, kept when it meets every member set."""
    fams = frozenset(frozenset(u) for u in family)
    universe = list(frozenset().union(*fams))
    out = []
    for keep in product((False, True), repeat=len(universe)):
        v = frozenset(e for e, k in zip(universe, keep) if k)
        if all(v & u for u in fams):
            out.append(v)
    return frozenset(out)


def double_dual(n: NFA, logic: str) -> dict:
    """Canonical determinization of n for the diamond or the box logic,
    built literally on sets of predicates.

    A predicate is a frozenset of states, and a state is a frozenset of
    predicates. State x embeds as the predicates holding at x. The
    predicate phi belongs to the a-successor of Q iff phi's a-preimage
    belongs to Q: the states with some a-successor in phi (diamond), or
    with every a-successor in phi (box). Q outputs whether the acceptance
    predicate belongs to it. States are numbered breadth first: the
    embedded ones by source state, then each state's successors letter by
    letter, named d0, d1, ...
    """
    states = range(n.n_states)
    preds = [frozenset(c) for r in range(n.n_states + 1) for c in combinations(states, r)]
    succ = {
        (x, a): frozenset(q for p, b, q in n.transitions if p == x and b == a)
        for x in states
        for a in n.alphabet
    }

    def preimage(a, phi):
        if logic == "diamond":
            return frozenset(x for x in states if succ[x, a] & phi)
        return frozenset(x for x in states if succ[x, a] <= phi)

    order = []

    def number(q):
        if q not in order:
            order.append(q)
        return order.index(q)

    embed = {x: number(frozenset(phi for phi in preds if x in phi)) for x in states}
    delta = []
    while len(delta) < len(order):
        q = order[len(delta)]
        delta.append(tuple(
            number(frozenset(phi for phi in preds if preimage(a, phi) in q))
            for a in n.alphabet
        ))
    return {
        "delta": tuple(delta),
        "outputs": tuple(frozenset(n.accepting) in q for q in order),
        "names": tuple(f"d{i}" for i in range(len(order))),
        "embed": embed,
        "meanings": dict(enumerate(order)),
    }


def wta_runs(w: WeightedTreeAut, t: Tree):
    """Every complete run of the tree, as (root state, run weight) pairs.

    A run picks one rule at every node, with child states matching; its
    weight is the product of all chosen rule weights, top to bottom.
    """
    sr = w.semiring
    child_runs = [wta_runs(w, c) for c in t.children]
    out = []
    for x in range(w.n_states):
        for (op, children), weight in w.rules[x].items():
            if op != t.op:
                continue
            for picks in product(*child_runs):
                if any(run_x != want for (run_x, _), want in zip(picks, children)):
                    continue
                total = weight
                for _, run_w in picks:
                    total = sr.mul(total, run_w)
                out.append((x, total))
    return out


def wta_value(w: WeightedTreeAut, x: int, t: Tree):
    sr = w.semiring
    total = sr.zero
    for run_x, run_w in wta_runs(w, t):
        if run_x == x:
            total = sr.add(total, run_w)
    return total


def branching_diagram(which, max_phi, alphabet, samples=200, seed=2026, mutate=None):
    """The subset, conj or alt one-step square, checked one family at a
    time, the reference for the letter-wise judge of
    check_logic_morphism_diagram.

    An element is an output bit and one part per letter: a predicate, or
    for alt a predicate set. The top path packs each member's one-step
    predicate (the output bit, then per letter the part, or its join for
    alt, in k bits) and folds the packed masks: OR for subset, AND
    otherwise. The bottom path folds the outputs and, letter by letter,
    aggregates the members' parts: by the same fold, or for alt as the join
    of the meets of their hitting sets among all predicate sets, found by
    `tracekit.laws._hitting_bits` so that a patched kernel reaches both
    sides. Families: every one of fewer than 3 (alt) or 4 elements
    in `combinations` order, then seeded samples of 3..4 or 4..8. Returns
    the instance count and (instance, lhs, rhs) of every failure.
    """
    alt = which == "alt"
    lo, hi = (3, 4) if alt else (4, 8)
    rng = random.Random(seed)

    def fold(values, full):
        out = 0 if which == "subset" else full
        for v in values:
            out = out | v if which == "subset" else out & v
        return out

    def bits(mask):
        return [i for i in range(mask.bit_length()) if mask >> i & 1]

    def points(mask):
        return "{" + ",".join(str(p) for p in bits(mask)) + "}"

    count, failures = 0, []
    for k in range(max_phi + 1):
        full_pred = (1 << k) - 1
        shifts = [1 + ai * k for ai in range(len(alphabet))]
        if alt:
            everything = (1 << (1 << k)) - 1  # the set of all predicates
            parts = range(everything + 1)
            pred_of, meet_of = [0] * len(parts), [fold(bits(t), full_pred) for t in parts]
            for t in parts:
                for p in bits(t):
                    pred_of[t] |= p
            # per predicate set u, the predicate sets that meet it, as a mask
            meeting = [tracekit.laws._hitting_bits((u, everything)) for u in parts]
            fmt_part = lambda t: "{" + ", ".join(points(m) for m in bits(t)) + "}"

            def aggregate(ps):
                hits = (1 << len(parts)) - 1
                for u in ps:
                    hits &= meeting[u]
                out = 0
                for v in bits(hits):
                    out |= meet_of[v]
                return out

        else:
            parts = pred_of = range(1 << k)
            fmt_part = points
            aggregate = lambda ps: fold(ps, full_pred)
        base = [(o, ts) for o in (0, 1) for ts in product(parts, repeat=len(alphabet))]
        ones = [o | sum(pred_of[t] << s for t, s in zip(ts, shifts)) for o, ts in base]
        names = ["ε"] + [f"({label},{p})" for label in alphabet for p in range(k)]

        def lpred(mask):
            return "{" + ", ".join(names[i] for i in bits(mask)) + "}"

        def elem(i):
            o, ts = base[i]
            shown = [f"out={'tt' if o else 'ff'}"] + [f"{label}->{fmt_part(t)}" for label, t in zip(alphabet, ts)]
            return "(" + ", ".join(shown) + ")"

        families = [c for r in range(lo) for c in combinations(range(len(base)), r)]
        if len(base) > lo:
            for _ in range(samples):
                r = rng.randint(lo, min(hi, len(base)))
                families.append(tuple(rng.sample(range(len(base)), r)))
        for idxs in families:
            count += 1
            top = fold([ones[i] for i in idxs], (1 << (1 + len(alphabet) * k)) - 1)
            bottom = fold([base[i][0] for i in idxs], 1) ^ (mutate == "flip-output")
            for ai, s in enumerate(shifts):
                bottom |= aggregate([base[i][1][ai] for i in idxs]) << s
            if top != bottom:
                failures.append((
                    f"|Phi|={k}, machine family [" + "; ".join(elem(i) for i in idxs) + "]",
                    f"resolve of one-step predicates: {lpred(top)}",
                    f"one-step of aggregate: {lpred(bottom)}",
                ))
    return count, failures


def trees_by_max_height(signature, max_height: int):
    """Every arity-correct tree of height at most max_height, by height: each
    height's candidates are every operator (in sorted signature order) over
    every tuple of lower trees, kept when their tallest child is just below."""
    sig = sorted(signature)
    by_height = []
    heights = {}
    for h in range(max_height + 1):
        layer = []
        if h == 0:
            for op, ar in sig:
                if ar == 0:
                    t = Tree(op)
                    heights[t] = 0
                    layer.append(t)
        else:
            lower = [t for hh in range(h) for t in by_height[hh]]
            for op, ar in sig:
                if ar == 0:
                    continue
                for combo in product(lower, repeat=ar):
                    if max(heights[c] for c in combo) == h - 1:
                        t = Tree(op, combo)
                        heights[t] = h
                        layer.append(t)
        by_height.append(layer)
    return [t for layer in by_height for t in layer]
