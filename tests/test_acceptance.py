"""Acceptance gate: ten end-to-end checks over seeded random corpora.

Every numeric comparison in this module is literal equality on Booleans,
ints, or Fractions; there are no tolerances anywhere. Each check appends
one PASS/FAIL line to RESULTS, printed in the terminal summary.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import List

import pytest

from tracekit import (
    BOOL,
    NAT,
    BudgetExceeded,
    alt_to_nfa,
    alt_trace,
    all_trees,
    bottom_up_algebra,
    bt_nfa_trace,
    brzozowski_minimal,
    canonical_det_nfa,
    check_action_laws,
    check_correctness,
    check_logic_morphism_diagram,
    check_monad_morphism,
    check_naturality,
    det_subset,
    det_weighted,
    dfa_equiv,
    fold_tree,
    format_report,
    gps_trace,
    nfa_trace,
    partition_refine,
    wa_trace,
    wta_trace,
)
from tracekit.laws import BOX, CHI_GOOD, CHI_WRONG, DIAMOND
from tests.corpus import (
    nfa_as_bool_wa,
    rand_alternating,
    rand_gps,
    rand_nfa,
    rand_weighted_rat,
    rand_wta,
)
from tests.oracles import reverse_nfa, subset_dfa, wta_value

GOLDEN = Path(__file__).parent / "data" / "chi_wrong_counterexample.txt"

RESULTS: List[str] = []


@contextmanager
def criterion(num: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        RESULTS.append(f"criterion {num:02d} FAIL  {title}")
        raise
    elapsed = time.perf_counter() - start
    RESULTS.append(f"criterion {num:02d} PASS  {title}  ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def small_nfas():
    """Shared corpus for the subset-construction and coherence checks."""
    rng = random.Random(20260815)
    return [rand_nfa(rng, max_states=6, max_letters=3) for _ in range(200)]


def test_criterion_01_counterexample_reproduction():
    with criterion(1, "naturality counterexample and clean run"):
        start = time.perf_counter()
        bad = check_naturality(CHI_WRONG, max_size=3)
        assert not bad.ok
        golden = GOLDEN.read_text(encoding="utf-8").strip()
        assert bad.failures[0].render() == golden
        good = check_naturality(CHI_GOOD, max_size=3)
        assert good.ok
        # both runs enumerate the same function-and-family space
        assert good.instances_checked == bad.instances_checked
        assert time.perf_counter() - start < 10.0


def test_criterion_02_subset_correctness(small_nfas):
    with criterion(2, "subset determinization, both readings, depth 8"):
        start = time.perf_counter()
        for n in small_nfas:
            for mode in ("disj", "conj"):
                report = check_correctness(n, det_subset(n, mode), 8)
                assert report.ok, format_report(report)
        assert time.perf_counter() - start < 30.0


def test_criterion_03_weighted_correctness():
    with criterion(3, "rational weighted determinization, depth 6"):
        rng = random.Random(33)
        overflowed = 0
        for _ in range(100):
            w = rand_weighted_rat(rng, max_states=5)
            result = det_weighted(w, budget=500)
            if isinstance(result, BudgetExceeded):
                overflowed += 1
                continue
            report = check_correctness(w, result, 6)
            assert report.ok, format_report(report)
        assert overflowed < 20


def test_criterion_04_alternating_correctness():
    with criterion(4, "alternating translation matches trace, depth 6"):
        rng = random.Random(44)
        for _ in range(100):
            a = rand_alternating(rng, max_states=4)
            result = alt_to_nfa(a)
            for x in range(a.n_states):
                lhs = alt_trace(a, x, 6)
                rhs = nfa_trace(result.machine, result.embed[x], 6)
                assert lhs.entries == rhs.entries


def test_criterion_05_canonical_determinization():
    with criterion(5, "canonical determinization, depth 6, <= 256 states"):
        rng = random.Random(55)
        for _ in range(100):
            n = rand_nfa(rng, max_states=3, max_letters=2)
            result = canonical_det_nfa(n)
            assert not isinstance(result, BudgetExceeded)
            assert result.machine.n_states <= 256
            report = check_correctness(n, result, 6)
            assert report.ok, format_report(report)


def test_criterion_06_wta_oracle_equivalence():
    with criterion(6, "tree automata vs run enumeration, height 3"):
        rng = random.Random(66)
        corpus = [rand_wta(rng, BOOL, max_states=3) for _ in range(25)]
        corpus += [rand_wta(rng, NAT, max_states=3) for _ in range(25)]
        for w in corpus:
            trees = all_trees(w.signature, 3)
            evaluator = bottom_up_algebra(w)
            tables = [wta_trace(w, x, 3) for x in range(w.n_states)]
            for t in trees:
                folded = fold_tree(evaluator, t)
                for x in range(w.n_states):
                    expected = wta_value(w, x, t)
                    assert tables[x][t] == expected
                    assert folded(x) == expected


def test_criterion_07_subprobability_invariants():
    with criterion(7, "trace mass bounded by 1 and disjoint-additive"):
        rng = random.Random(77)
        pair_rng = random.Random(777)
        pairs_checked = 0
        for _ in range(100):
            g = rand_gps(rng, max_states=4)
            for x in range(g.n_states):
                table = gps_trace(g, x, 8)
                mass = sum((p.value for p in table.entries.values()), Fraction(0))
                assert 0 <= mass <= 1
                words = sorted(table.entries)
                for _ in range(10):
                    if pairs_checked >= 1000:
                        break
                    sample = pair_rng.sample(words, min(6, len(words)))
                    cut = pair_rng.randrange(len(sample) + 1)
                    left, right = sample[:cut], sample[cut:]
                    mass_left = sum((table[w].value for w in left), Fraction(0))
                    mass_right = sum((table[w].value for w in right), Fraction(0))
                    union = sum((table[w].value for w in left + right), Fraction(0))
                    assert union == mass_left + mass_right
                    pairs_checked += 1
        assert pairs_checked == 1000


def test_criterion_08_law_suite():
    with criterion(8, "action, morphism, and one-step exchange laws"):
        assert check_action_laws(DIAMOND, max_phi=3).ok
        assert check_action_laws(BOX, max_phi=3).ok
        assert check_monad_morphism(DIAMOND, max_size=3).ok
        assert check_monad_morphism(BOX, max_size=3).ok
        for which in ("subset", "conj", "weighted", "alt"):
            assert check_logic_morphism_diagram(which, max_phi=2).ok
            mutated = check_logic_morphism_diagram(
                which, max_phi=2, mutate="flip-output"
            )
            assert not mutated.ok


def test_criterion_09_brzozowski_pipeline():
    with criterion(9, "double reversal vs subset plus partition refinement"):
        start = time.perf_counter()
        rng = random.Random(99)
        for _ in range(200):
            n = rand_nfa(rng, max_states=5, max_letters=2)
            minimal = brzozowski_minimal(n, [0])
            det = det_subset(n)
            same, witness = dfa_equiv(
                minimal.machine, det.machine, minimal.initial, det.embed[0]
            )
            assert same, witness
            refined, _ = partition_refine(det.machine, det.embed[0])
            assert minimal.machine.n_states == refined.n_states
            textbook, _ = subset_dfa(*reverse_nfa(*subset_dfa(*reverse_nfa(n, [0]))))
            assert minimal.machine.n_states == textbook.n_states
            machine = minimal.machine
            for p in range(machine.n_states):
                for q in range(p + 1, machine.n_states):
                    word = minimal.certificates[(p, q)]
                    out_p = machine.outputs[machine.step(p, word)]
                    out_q = machine.outputs[machine.step(q, word)]
                    assert out_p != out_q
        assert time.perf_counter() - start < 60.0


def test_criterion_10_cross_presentation_coherence(small_nfas):
    with criterion(10, "linear, branching, and weighted readings agree"):
        for n in small_nfas:
            w = nfa_as_bool_wa(n)
            for x in range(n.n_states):
                base = nfa_trace(n, x, 6)
                assert bt_nfa_trace(n, x, 6, "disj").entries == base.entries
                weighted = wa_trace(w, x, 6)
                assert all(
                    weighted[word] == value for word, value in base.entries.items()
                )
