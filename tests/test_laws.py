"""Law reports: naturality, actions, monad morphisms, diagrams, correctness."""

import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import tracekit.laws
from tracekit import (
    NFA,
    BOOL,
    NAT,
    RAT,
    AlternatingAut,
    BudgetExceeded,
    DetResult,
    MooreAut,
    PredicateAction,
    SemiringAction,
    ValidationError,
    WeightedAut,
    alt_to_nfa,
    canonical_det_nfa,
    check_action_laws,
    check_correctness,
    check_exchange,
    check_logic_morphism_diagram,
    check_monad_morphism,
    check_naturality,
    det_subset,
    det_weighted,
    format_report,
    known_counterexample,
)
from tracekit.laws import CHI_GOOD, CHI_WRONG, IDENTITY_NAT, LawFailure, LawReport
from tests.corpus import rand_nfa

GOLDEN = Path(__file__).parent / "data" / "chi_wrong_counterexample.txt"


def test_report_formatting():
    report = LawReport("demo", 3, [LawFailure("inst", "left", "right")])
    assert not report.ok
    text = format_report(report)
    assert "law: demo" in text
    assert "instances checked: 3" in text
    assert "failures: 1" in text
    assert "inst\nleft\nright" in text
    many = LawReport("demo", 9, [LawFailure(str(i), "l", "r") for i in range(8)])
    assert "... and 3 more" in format_report(many)


def test_chi_good_is_natural_exhaustively():
    report = check_naturality(CHI_GOOD, max_size=3)
    assert report.ok
    assert report.instances_checked > 9000


def test_identity_is_natural():
    assert check_naturality(IDENTITY_NAT, max_size=3).ok


def test_chi_wrong_counterexample_matches_golden_file():
    report = check_naturality(CHI_WRONG, max_size=3)
    assert not report.ok
    golden = GOLDEN.read_text(encoding="utf-8").strip()
    rendered = {f.render() for f in report.failures}
    assert golden in rendered
    known = known_counterexample()
    assert known is not None
    assert known.render() == golden
    # the pinned instance is the first one the enumeration finds
    assert report.failures[0].render() == golden


def test_chi_wrong_clean_on_tiny_carriers():
    assert check_naturality(CHI_WRONG, max_size=2).ok


def test_naturality_sampling_above_exhaustive_range():
    report = check_naturality(CHI_GOOD, max_size=5, samples=80, seed=5)
    assert report.ok
    bad = check_naturality(CHI_WRONG, max_size=5, samples=80, seed=5)
    assert not bad.ok


def test_naturality_rejects_unknown_shape():
    with pytest.raises(ValueError):
        check_naturality(CHI_GOOD, shape="P=>P")


def test_action_laws_hold():
    from tracekit.laws import BOX, DIAMOND

    assert check_action_laws(DIAMOND, max_phi=3).ok
    assert check_action_laws(BOX, max_phi=3).ok
    for semiring in (BOOL, NAT, RAT):
        assert check_action_laws(SemiringAction("resolve", semiring), max_phi=2).ok


def test_xor_fold_fails_the_multiplication_law():
    from functools import reduce
    from operator import xor

    parity = PredicateAction("parity", lambda masks, full: reduce(xor, masks, 0))
    report = check_action_laws(parity, max_phi=2)
    assert not report.ok
    assert all("singleton" not in f.lhs for f in report.failures)


def test_constant_fold_fails_the_unit_law():
    top = PredicateAction("top", lambda masks, full: full)
    report = check_action_laws(top, max_phi=2)
    assert not report.ok
    assert any("singleton" in f.lhs for f in report.failures)


def test_monad_morphism_holds_for_both_actions():
    from tracekit.laws import BOX, DIAMOND

    for action in (DIAMOND, BOX):
        report = check_monad_morphism(action, max_size=3)
        assert report.ok
        assert report.instances_checked == 284


def test_monad_morphism_catches_parity():
    from functools import reduce
    from operator import xor

    parity = PredicateAction("parity", lambda masks, full: reduce(xor, masks, 0))
    assert not check_monad_morphism(parity, max_size=3).ok


@pytest.mark.parametrize("which", ["subset", "conj", "weighted", "alt"])
def test_diagrams_commute(which):
    report = check_logic_morphism_diagram(which, max_phi=2)
    assert report.ok, format_report(report)


@pytest.mark.parametrize("which", ["subset", "conj", "weighted", "alt"])
def test_diagram_mutation_is_caught(which):
    report = check_logic_morphism_diagram(which, max_phi=2, mutate="flip-output")
    assert not report.ok


def test_diagram_rejects_unknown_inputs():
    with pytest.raises(ValueError):
        check_logic_morphism_diagram("mystery")
    with pytest.raises(ValueError):
        check_logic_morphism_diagram("subset", mutate="scramble")


def test_exchange_is_exhaustive_and_clean():
    report = check_exchange(max_phi=2)
    assert report.ok
    assert report.instances_checked == 20 + 2**16


def test_exchange_and_alt_diagram_run_through_the_hitting_set_kernel(monkeypatch):
    """Negative control: with a kernel that finds no hitting sets, both
    checks must fail, so neither is a tautology."""
    monkeypatch.setattr(tracekit.laws, "_hitting_bits", lambda members: 0)
    assert not check_exchange(max_phi=2).ok
    assert not check_logic_morphism_diagram("alt").ok


def test_correctness_positive():
    n = NFA(2, ["a"], [(0, "a", 0), (0, "a", 1)], accepting=[1], names=["x", "y"])
    for result in (det_subset(n), det_subset(n, "conj"), canonical_det_nfa(n)):
        report = check_correctness(n, result, 6)
        assert report.ok
        assert report.instances_checked == 2 * 7


def test_correctness_catches_a_flipped_output():
    n = NFA(2, ["a"], [(0, "a", 0), (0, "a", 1)], accepting=[1], names=["x", "y"])
    result = det_subset(n)
    flipped = list(result.machine.outputs)
    flipped[result.embed[0]] = not flipped[result.embed[0]]
    broken = DetResult(
        MooreAut(
            result.machine.alphabet,
            flipped,
            result.machine.delta,
            names=result.machine.names,
        ),
        result.embed,
        result.state_meaning,
        result.method,
    )
    report = check_correctness(n, broken, 3)
    assert not report.ok
    first = report.failures[0]
    assert "state x" in first.instance and "word ε" in first.instance
    assert first.lhs == "source trace: ff"
    assert first.rhs == "determinized trace: tt"


def test_correctness_rejects_an_invalid_machine_or_embedding():
    n = NFA(1, ["a"], [(0, "a", 0)], accepting=[0])
    result = det_subset(n)
    out_of_range = replace(result, machine=MooreAut(["a"], [True], [[5]]))
    for broken in (out_of_range, replace(result, embed={0: 7}), replace(result, embed={})):
        with pytest.raises(ValidationError):
            check_correctness(n, broken, 2)


def _with_outputs(result, outputs):
    machine = result.machine
    changed = MooreAut(
        machine.alphabet, outputs, machine.delta, semiring=machine.semiring, names=machine.names
    )
    return DetResult(changed, result.embed, result.state_meaning, result.method)


def _failure_texts(report):
    return [(f.instance, f.lhs, f.rhs) for f in report.failures]


def test_correctness_report_for_a_flipped_subset_state():
    n = NFA(2, ["a"], [(0, "a", 0), (0, "a", 1)], accepting=[1], names=["x", "y"])
    result = det_subset(n)
    both = {m: i for i, m in result.state_meaning.items()}[frozenset({0, 1})]
    outputs = list(result.machine.outputs)
    outputs[both] = False
    report = check_correctness(n, _with_outputs(result, outputs), 3)
    assert report.law_name == "correctness:subset-disj"
    assert report.instances_checked == 2 * 4
    assert _failure_texts(report) == [
        (f"state x, word {w}", "source trace: tt", "determinized trace: ff")
        for w in ("a", "aa", "aaa")
    ]


def test_correctness_report_for_a_changed_weighted_output():
    w = WeightedAut(
        2,
        ["a", "b"],
        RAT,
        [Fraction(1), Fraction(1, 2)],
        {(0, "a"): {1: Fraction(2)}, (0, "b"): {1: Fraction(1, 3)}},
        names=["x", "y"],
    )
    result = det_weighted(w)
    sink = next(i for i, v in result.state_meaning.items() if not v.support)
    outputs = list(result.machine.outputs)
    outputs[sink] = Fraction(1, 4)
    broken = _with_outputs(result, outputs)
    report = check_correctness(w, broken, 2)
    assert report.law_name == "correctness:weighted"
    assert report.instances_checked == 2 * 7
    words = [("x", word) for word in ("aa", "ab", "ba", "bb")] + [
        ("y", word) for word in ("a", "b", "aa", "ab", "ba", "bb")
    ]
    assert _failure_texts(report) == [
        (f"state {x}, word {word}", "source trace: 0", "determinized trace: 1/4")
        for x, word in words
    ]
    capped = check_correctness(w, broken, 2, max_failures=3)
    assert capped.instances_checked == 2 * 7
    assert _failure_texts(capped) == _failure_texts(report)[:3]


def test_correctness_report_for_a_changed_alt_acceptance():
    a = AlternatingAut(
        3,
        ["a", "b"],
        [False, True, False],
        {(0, "a"): [[1], [2]], (0, "b"): [[1, 2]], (1, "a"): [[1]]},
        names=["x", "y", "z"],
    )
    result = alt_to_nfa(a)
    m = result.machine
    accepting = set(m.accepting) ^ {result.embed[1]}
    broken = DetResult(
        NFA(m.n_states, m.alphabet, m.transitions, accepting, names=m.names),
        result.embed,
        result.state_meaning,
        result.method,
    )
    report = check_correctness(a, broken, 2)
    assert report.law_name == "correctness:alt"
    assert report.instances_checked == 3 * 7
    words = [("x", "a"), ("x", "aa"), ("y", "ε"), ("y", "a"), ("y", "aa")]
    assert _failure_texts(report) == [
        (f"state {x}, word {w}", "source trace: tt", "determinized trace: ff")
        for x, w in words
    ]


def test_correctness_weighted_and_alt():
    rng = random.Random(4)
    from tests.corpus import rand_alternating, rand_weighted_rat

    for _ in range(10):
        a = rand_alternating(rng, max_states=3)
        assert check_correctness(a, alt_to_nfa(a), 5).ok
        w = rand_weighted_rat(rng, max_states=4)
        result = det_weighted(w)
        if not isinstance(result, BudgetExceeded):
            assert check_correctness(w, result, 5).ok


def test_correctness_rejects_bad_inputs():
    n = NFA(1, ["a"], [], accepting=[])
    result = det_subset(n)
    with pytest.raises(ValueError):
        check_correctness(n, BudgetExceeded("weighted", 5, 6), 3)
    with pytest.raises(TypeError):
        check_correctness(
            AlternatingAut(1, ["a"], [True], {}), result, 3
        )
    other = NFA(1, ["b"], [], accepting=[])
    with pytest.raises(ValueError):
        check_correctness(other, result, 3)


def test_correctness_instance_accounting():
    rng = random.Random(9)
    n = rand_nfa(rng, max_states=4, max_letters=2)
    result = det_subset(n)
    report = check_correctness(n, result, 5)
    m = len(n.alphabet)
    expected = n.n_states * sum(m**k for k in range(6))
    assert report.instances_checked == expected
