"""Seeded inputs and job lists for the benchmark workloads.

A job is one `tracekit` command line plus the independent check of its
output. Inputs are generated here from the workload seed and written as JSON
documents; the program under test only ever sees those files. The seed picks
only the random structure: job names, job counts and input sizes (states,
letters, depths) are the same for every seed, so digests can be pinned by
name, the tail percentile stays fixed and the work per run varies little.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List

import verify as V


@dataclass
class Job:
    name: str
    argv: List[str]
    check: Callable[[int, str], None]  # (exit status, stdout); raises V.Mismatch
    quick: bool = False  # part of the small job list the self-check runs
    bytes_in: int = 0


class Builder:
    """Collects jobs and writes their input documents into a work directory."""

    def __init__(self, workload: str, seed: int, workdir: Path, root: Path):
        self.rng = random.Random(f"{workload}/{seed}")
        self.seed = seed
        self.workdir = workdir
        self.examples = root / "docs" / "examples"
        self.root = root
        self.jobs: List[Job] = []

    def write(self, name: str, doc: Dict[str, Any]) -> str:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return str(path)

    def example(self, name: str):
        path = self.examples / f"{name}.json"
        return str(path), json.loads(path.read_text(encoding="utf-8"))

    def checker(self, name: str) -> random.Random:
        return random.Random(f"check/{name}/{self.seed}")

    def add(self, name: str, argv: List[str], check: Callable[[int, str], None], quick: bool = False) -> None:
        rng = self.checker(name)
        self.jobs.append(Job(name, argv, lambda rc, out: check(rc, out, rng), quick))

    # -- job kinds shared by the workloads ----------------------------------

    def semantics(self, name, path, doc, state, depth, mode=None, quick=False):
        argv = ["semantics", path, "--state", state, "--depth", str(depth)]
        if mode:
            argv += ["--mode", mode]

        def check(rc, out, rng):
            V.require(rc == 0, f"exit status {rc}")
            V.table(out, doc, state, depth, rng, mode)

        self.add(name, argv, check, quick)

    def determinize(self, name, path, doc, method, quick=False):
        def check(rc, out, rng):
            V.require(rc == 0, f"exit status {rc}")
            V.determinized(out, doc, method, rng)

        self.add(name, ["determinize", path, "--method", method], check, quick)

    def budget(self, name, path):
        """Weighted determinization whose reachable vectors are infinite."""

        def check(rc, out, rng):
            V.require(rc == 4, f"exit status {rc}, expected 4 (budget exceeded)")
            V.exact(out, "")

        self.add(name, ["determinize", path, "--method", "weighted"], check)

    def minimize(self, name, path, doc, initial, expect_states=None, quick=False):
        argv = ["minimize", path]
        if "initial" not in doc:
            argv += ["--initial", ",".join(initial)]

        def check(rc, out, rng):
            V.require(rc == 0, f"exit status {rc}")
            V.minimized(out, doc, initial, rng, expect_states)

        self.add(name, argv, check, quick)


# ---------------------------------------------------------------------------
# document generators


LETTERS = "abc"


def nth_letter_nfa(rng: random.Random, n: int) -> Dict[str, Any]:
    """Accepts the words whose n-th letter from the end is a; n+1 states,
    declared in a seeded order."""
    states = [f"q{i}" for i in range(n + 1)]
    trans = [["q0", "a", "q0"], ["q0", "b", "q0"], ["q0", "a", "q1"]]
    for i in range(1, n):
        trans += [[f"q{i}", "a", f"q{i + 1}"], [f"q{i}", "b", f"q{i + 1}"]]
    rng.shuffle(states)
    return {"kind": "nfa", "alphabet": ["a", "b"], "states": states,
            "accepting": [f"q{n}"], "transitions": trans, "initial": ["q0"]}


def window_dfa(rng: random.Random, width: int, bit: int) -> Dict[str, Any]:
    """Remembers the last `width` letters (bit i: the (i+1)-th letter from the
    end is a) and outputs whether the (bit+1)-th letter from the end is a.
    With bit = width - 1 this is the minimal DFA of the nth-letter language."""
    size = 1 << width
    names = [f"w{s}" for s in range(size)]
    delta = {f"w{s}": {"a": f"w{((s << 1) | 1) % size}", "b": f"w{(s << 1) % size}"} for s in range(size)}
    outputs = {f"w{s}": bool(s >> bit & 1) for s in range(size)}
    rng.shuffle(names)
    return {"kind": "moore", "alphabet": ["a", "b"], "semiring": "bool", "states": names,
            "outputs": outputs, "delta": delta, "initial": ["w0"]}


def chain_dfa(rng: random.Random, n: int) -> Dict[str, Any]:
    """a walks a chain of n states that outputs true only at its end, b
    resets; all n states are distinct and round-based refinement needs n
    rounds to see it."""
    names = [f"c{i}" for i in range(n)]
    delta = {f"c{i}": {"a": f"c{min(i + 1, n - 1)}", "b": "c0"} for i in range(n)}
    outputs = {f"c{i}": i == n - 1 for i in range(n)}
    rng.shuffle(names)
    return {"kind": "moore", "alphabet": ["a", "b"], "semiring": "bool", "states": names,
            "outputs": outputs, "delta": delta, "initial": ["c0"]}


def random_nfa(rng: random.Random, n: int, letters: int) -> Dict[str, Any]:
    alphabet = list(LETTERS[:letters])
    states = [f"s{i}" for i in range(n)]
    trans = {(rng.randrange(n), rng.choice(alphabet), rng.randrange(n)) for _ in range(rng.randint(n, 2 * n * len(alphabet)))}
    accepting = [s for s in states if rng.random() < 0.4] or [rng.choice(states)]
    return {"kind": "nfa", "alphabet": alphabet, "states": states, "accepting": accepting,
            "transitions": [[states[p], a, states[q]] for p, a, q in sorted(trans)]}


def random_alternating(rng: random.Random, n: int, letters: int) -> Dict[str, Any]:
    alphabet = list(LETTERS[:letters])
    states = [f"s{i}" for i in range(n)]
    trans: Dict[str, Dict[str, List[List[str]]]] = {}
    for x in states:
        for a in alphabet:
            fam = [sorted({rng.choice(states) for _ in range(rng.randint(0, 2))}) for _ in range(rng.randint(0, 3))]
            if fam:
                trans.setdefault(x, {})[a] = fam
    outputs = {s: rng.random() < 0.5 for s in states}
    return {"kind": "alternating", "alphabet": alphabet, "states": states, "outputs": outputs, "transitions": trans}


RAT_POOL = ("1", "1/2", "2", "1/3", "3/2", "2/3", "3")


def weights(semiring: str) -> Iterator[Any]:
    """Weights in a fixed order. The seed picks where they go, not what they
    are, so the size of the exact numbers, and with it the work, varies
    little from seed to seed."""
    return itertools.cycle(RAT_POOL if semiring == "rat" else (1, 2, 3))


def random_weighted(rng: random.Random, semiring: str, acyclic: bool, n: int) -> Dict[str, Any]:
    """Two letters, two successors per state and letter where there are two
    to pick from; acyclic ones only step to later states, so weighted
    determinization terminates."""
    states = [f"s{i}" for i in range(n)]
    w = weights(semiring)
    trans: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for i, x in enumerate(states):
        for a in "ab":
            targets = states[i + 1:] if acyclic else states
            row = {y: next(w) for y in rng.sample(targets, min(2, len(targets)))}
            if row:
                trans.setdefault(x, {})[a] = row
    out = {s: next(w) for s in rng.sample(states, (2 * n + 2) // 3)}
    return {"kind": "weighted", "alphabet": ["a", "b"], "semiring": semiring, "states": states,
            "out": out, "transitions": trans}


def geometric(rng: random.Random, semiring: str, r: Any) -> Dict[str, Any]:
    """x steps to itself with a weight r other than 0 and 1, and to y, so
    the vectors reached are pairwise distinct and determinization must hit
    its budget."""
    w = weights(semiring)
    for _ in range(rng.randrange(3)):
        next(w)
    trans = {"x": {"a": {"x": r, "y": next(w)}}}
    states = ["x", "y"]
    return {"kind": "weighted", "alphabet": ["a"], "semiring": semiring, "states": states,
            "out": {"x": next(w)}, "transitions": trans}


def random_gps(rng: random.Random, n: int, letters: int) -> Dict[str, Any]:
    alphabet = list(LETTERS[:letters])
    states = [f"s{i}" for i in range(n)]
    dist = {}
    for x in states:
        outcomes: List[Any] = ["term"] + [(a, y) for a in alphabet for y in rng.sample(states, 2)]
        shares = list(itertools.islice(weights("nat"), len(outcomes)))
        total = sum(shares)
        row: Dict[str, Any] = {}
        for o, w in zip(outcomes, shares):
            if o == "term":
                row["term"] = str(Fraction(w, total))
            else:
                row.setdefault("moves", []).append({"label": o[0], "to": o[1], "prob": str(Fraction(w, total))})
        dist[x] = row
    return {"kind": "gps", "alphabet": alphabet, "states": states, "dist": dist}


WTA_SIGNATURES = ({"c": 0, "u": 1}, {"c": 0, "u": 1, "b": 2}, {"c": 0, "d": 0, "b": 2})


def random_wta(rng: random.Random, semiring: str, signature: Dict[str, int], n: int) -> Dict[str, Any]:
    states = [f"s{i}" for i in range(n)]
    rules = []
    w = weights(semiring)
    for op, arity in sorted(signature.items()):
        combos = [(x, children) for x in states for children in _tuples(states, arity)]
        rng.shuffle(combos)
        for x, children in combos[:2]:
            rules.append({"state": x, "op": op, "children": list(children), "weight": next(w)})
    return {"kind": "wta", "signature": signature, "semiring": semiring, "states": states, "rules": rules}


def _tuples(states, arity):
    if arity == 0:
        return [()]
    if arity == 1:
        return [(x,) for x in states]
    return [(x, y) for x in states for y in states]


# ---------------------------------------------------------------------------
# workloads


def bool_pipeline(b: Builder) -> None:
    """Boolean exploration and minimization: subset, conjunctive, alternating
    and canonical determinization, double-reversal and partition-refinement
    minimization, equivalence, and bitmask trace tables."""
    rng = b.rng
    for name, state in (("nfa-classic", "x"), ("nfa-ends-in-a", "p"), ("moore-even-as", "even"),
                        ("alternating-two-families", "x"), ("lts-hop", "go")):
        path, doc = b.example(name)
        b.semantics(f"{name}/semantics", path, doc, state, 10, quick=True)
        if doc["kind"] == "nfa":
            b.semantics(f"{name}/semantics-conj", path, doc, state, 10, mode="conj", quick=True)
            for method in ("subset", "conj", "canonical"):
                b.determinize(f"{name}/determinize-{method}", path, doc, method, quick=True)
            b.minimize(f"{name}/minimize", path, doc, doc["initial"], quick=True)
        elif doc["kind"] == "moore":
            b.minimize(f"{name}/minimize", path, doc, doc["initial"],
                       expect_states=V.moore_min_states(doc, doc["initial"][0]), quick=True)
        elif doc["kind"] == "alternating":
            b.determinize(f"{name}/determinize-alt", path, doc, "alt", quick=True)

    for n in range(3, 9):
        quick = n <= 4
        doc = nth_letter_nfa(rng, n)
        path = b.write(f"nth-{n}", doc)
        b.minimize(f"nth-{n}/minimize", path, doc, ["q0"], expect_states=1 << n, quick=quick)
        b.determinize(f"nth-{n}/determinize-subset", path, doc, "subset", quick=quick)
        b.determinize(f"nth-{n}/determinize-conj", path, doc, "conj", quick=quick)
        if n + 1 <= 4:
            b.determinize(f"nth-{n}/determinize-canonical", path, doc, "canonical", quick=quick)
        b.semantics(f"nth-{n}/semantics", path, doc, "q0", n + 3, quick=quick)
        minimal = b.write(f"nth-{n}-minimal", window_dfa(rng, n, n - 1))
        twin = b.write(f"nth-{n}-twin", window_dfa(rng, n + 1, n - 1))
        following = b.write(f"nth-{n + 1}-minimal", window_dfa(rng, n + 1, n))
        b.add(f"nth-{n}/equiv-twin", ["equiv", minimal, twin],
              lambda rc, out, rng: V.exact(f"{rc}:{out}", "0:tt\n"), quick)
        b.add(f"nth-{n}/equiv-next", ["equiv", minimal, following],
              lambda rc, out, rng, n=n: V.exact(f"{rc}:{out}", f"0:{'a' * n}\n"), quick)

    for size in (150, 250, 400):
        doc = chain_dfa(rng, size)
        path = b.write(f"chain-{size}", doc)
        b.minimize(f"chain-{size}/minimize", path, doc, ["c0"], expect_states=size)

    for i in range(16):
        quick = i < 3
        doc = random_nfa(rng, 3 + i % 4, 2 + i % 2)
        path = b.write(f"nfa-{i:02d}", doc)
        state = rng.choice(doc["states"])
        b.semantics(f"nfa-{i:02d}/semantics", path, doc, state, 6, quick=quick)
        b.semantics(f"nfa-{i:02d}/semantics-conj", path, doc, state, 6, mode="conj", quick=quick)
        for method in ("subset", "conj", "canonical"):
            if method != "canonical" or len(doc["states"]) <= 4:
                b.determinize(f"nfa-{i:02d}/determinize-{method}", path, doc, method, quick=quick)
        initial = sorted(rng.sample(doc["states"], rng.randint(1, 2)))
        b.minimize(f"nfa-{i:02d}/minimize", path, doc, initial, quick=quick)

    for i in range(8):
        quick = i < 2
        doc = random_alternating(rng, 2 + i % 3, 1 + i % 2)
        path = b.write(f"alt-{i:02d}", doc)
        b.determinize(f"alt-{i:02d}/determinize-alt", path, doc, "alt", quick=quick)
        b.semantics(f"alt-{i:02d}/semantics", path, doc, rng.choice(doc["states"]), 8, quick=quick)


# Every law `tracekit check` lists, with the --max-size values that change
# what it checks: the CLI clamps nat-transformation laws to 1..6, action and
# monad laws to 1..3 and diagram/exchange laws to 1..2; each law's default
# equals one of these and is run as the flagless job instead.
LAW_SIZES = {
    "chi-good": (6, 3), "chi-wrong": (6, 3), "identity-nat": (6, 3),
    "action-diamond": (3, 3), "action-box": (3, 3), "action-weighted-bool": (3, 3),
    "action-weighted-nat": (3, 3), "action-weighted-rat": (3, 3),
    "monad-diamond": (3, 3), "monad-box": (3, 3),
    "diagram-subset": (2, 2), "diagram-conj": (2, 2), "diagram-weighted": (2, 2), "diagram-alt": (2, 2),
    "exchange": (2, 2),
}


def law_suite(b: Builder) -> None:
    """Every law checker through `tracekit check`; the jobs are the same for
    every seed. chi-wrong is the negative control: it exits 0 when it finds
    the known counterexample, which needs carriers of size 3, so below that
    its known verdict is exit 5."""
    known = (b.root / "tests" / "data" / "chi_wrong_counterexample.txt").read_text(encoding="utf-8").strip()
    for law, (cap, default) in LAW_SIZES.items():
        for size in [None] + [s for s in range(1, cap + 1) if s != default]:
            effective = default if size is None else size
            expect_rc = 5 if law == "chi-wrong" and effective < 3 else 0
            argv = ["check", law] + ([] if size is None else ["--max-size", str(size)])
            name = f"{law}/{'default' if size is None else f'size-{size}'}"
            b.add(name, argv,
                  lambda rc, out, rng, e=expect_rc, c=known if law == "chi-wrong" else None: V.law(out, rc, e, c),
                  quick=size == 1)


def weighted_exact(b: Builder) -> None:
    """The semantics and determinize layers over Fraction and natural-number
    carriers instead of bitmasks, including the budget path."""
    rng = b.rng
    for name, state, depth in (("weighted-rat-halving", "x", 8), ("weighted-nat-geometric", "x", 8),
                               ("gps-geometric", "x", 10), ("wta-nat-product", "x", 3)):
        path, doc = b.example(name)
        b.semantics(f"{name}/semantics", path, doc, state, depth, quick=True)
        if doc["kind"] == "weighted":
            b.budget(f"{name}/determinize-weighted", path)

    for semiring, count in (("rat", 12), ("nat", 8)):
        for i in range(count):
            quick = i < 2
            doc = random_weighted(rng, semiring, acyclic=True, n=6 + i % 3)
            path = b.write(f"{semiring}-acyclic-{i:02d}", doc)
            b.semantics(f"{semiring}-acyclic-{i:02d}/semantics", path, doc, "s0", 9, quick=quick)
            b.determinize(f"{semiring}-acyclic-{i:02d}/determinize-weighted", path, doc, "weighted", quick=quick)

    for i in range(4):
        doc = random_weighted(rng, "rat", acyclic=False, n=4)
        path = b.write(f"rat-cyclic-{i:02d}", doc)
        b.semantics(f"rat-cyclic-{i:02d}/semantics", path, doc, rng.choice(doc["states"]), 8, quick=i == 0)

    for i, r in enumerate((2, "1/2", 3, "2/3")):
        path = b.write(f"geometric-{i:02d}", geometric(rng, ("nat", "rat")[i % 2], r))
        b.budget(f"geometric-{i:02d}/determinize-weighted", path)

    for i in range(8):
        doc = random_gps(rng, 2 + i % 3, 1 + i % 2)
        path = b.write(f"gps-{i:02d}", doc)
        b.semantics(f"gps-{i:02d}/semantics", path, doc, rng.choice(doc["states"]), 9, quick=i < 2)

    for i in range(6):
        signature = WTA_SIGNATURES[i % 3]
        doc = random_wta(rng, ("nat", "rat")[i % 2], signature, 2 + i % 2)
        path = b.write(f"wta-{i:02d}", doc)
        b.semantics(f"wta-{i:02d}/semantics", path, doc, rng.choice(doc["states"]), 3, quick=i < 2)


WORKLOADS = {"bool-pipeline": bool_pipeline, "law-suite": law_suite, "weighted-exact": weighted_exact}


def build(workload: str, seed: int, workdir: Path, root: Path, quick: bool) -> List[Job]:
    """Generate the workload's inputs into workdir and return its jobs."""
    workdir.mkdir(parents=True, exist_ok=True)
    b = Builder(workload, seed, workdir, root)
    WORKLOADS[workload](b)
    jobs = [j for j in b.jobs if j.quick] if quick else b.jobs
    for job in jobs:
        job.bytes_in = sum(Path(a).stat().st_size for a in job.argv if a.endswith(".json"))
    return jobs
