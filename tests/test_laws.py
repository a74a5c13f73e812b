"""Law reports: naturality, actions, monad morphisms, diagrams, correctness."""

import hashlib
import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from operator import add, and_, mul, or_, xor
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    Semiring,
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
    format_word,
    known_counterexample,
)
from tracekit.automata import _iter_bits
from tracekit.cli import _clamped, _law_checks, main
from tracekit.laws import (
    CHI_GOOD,
    CHI_WRONG,
    DIAGRAMS,
    IDENTITY_NAT,
    FiniteNatTrans,
    LawFailure,
    LawReport,
    _VALUE_POOLS,
    _below,
    _flatten,
    _part_sides,
)
from tests.corpus import RAT_POOL, rand_alternating, rand_nfa
from tests.law_oracles import action_laws, exchange, naturality, semiring_action_laws
from tests.oracles import (
    alt_accepts,
    branching_diagram,
    chi_good_bruteforce,
    moore_value,
    nfa_accepts,
    nfa_conj_value,
    wa_value,
    word_table,
)

GOLDEN = Path(__file__).parent / "data" / "chi_wrong_counterexample.txt"
# sha256 of every pinned report, rendered with all of its failures
LAW_DIGESTS = json.loads((Path(__file__).parent / "data" / "law_report_digests.json").read_text())


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


def test_naturality_refuses_carriers_too_large_to_letter(monkeypatch):
    """A failure letters both carriers a..z, so max_size above 13 is refused
    before any square is judged; 13 itself still runs."""
    judged = []
    monkeypatch.setattr(tracekit.laws, "_fold_table", lambda *args: judged.append(args))
    for t in (CHI_WRONG, CHI_GOOD):
        with pytest.raises(ValueError, match="^check_naturality can letter failures only up to max_size=13, got 14$"):
            check_naturality(t, max_size=14)
    assert judged == []
    monkeypatch.undo()
    assert check_naturality(CHI_GOOD, max_size=13, samples=5).ok
    assert not check_naturality(CHI_WRONG, max_size=13, samples=40).ok


def test_below_draws_the_randrange_stream():
    """The checkers' one-call draws give randrange, randint and choice's
    values, interleaved and in order, from the generator's own bit stream."""
    for seed in (1, 7, 2026):
        below, twin = _below(random.Random(seed)), random.Random(seed)
        for n in [*range(1, 301), 2 ** 40, 3 ** 30]:
            assert below(n) == twin.randrange(n)
            a, b = n % 7 - 3, n % 7 - 3 + n
            assert a + below(b - a + 1) == twin.randint(a, b)
            seq = range(n % 11, n % 11 + n)
            assert seq[below(len(seq))] == twin.choice(seq)


def test_chi_wrong_clean_on_tiny_carriers():
    assert check_naturality(CHI_WRONG, max_size=2).ok


def test_naturality_sampling_above_exhaustive_range():
    report = check_naturality(CHI_GOOD, max_size=5, samples=80, seed=5)
    assert report.ok
    bad = check_naturality(CHI_WRONG, max_size=5, samples=80, seed=5)
    assert not bad.ok


# keeping only the singleton members is not natural: gluing the two points
# of a pair turns it into a singleton
SINGLETONS = FiniteNatTrans(
    "singletons", lambda fam: frozenset(frozenset(u) for u in fam if len(frozenset(u)) == 1)
)


def test_naturality_refutes_a_user_transformation():
    report = check_naturality(SINGLETONS, max_size=3)
    assert report.instances_checked == 9472
    assert not report.ok
    assert report.failures[0].instance == "X={a,b}, Y={c}, f=[a->c, b->c], S={{a,b}}"


def test_naturality_applies_the_transformation_once_per_family():
    calls = []

    def counting(fam):
        calls.append(fam)
        return CHI_GOOD.apply(fam)

    report = check_naturality(FiniteNatTrans("chi-good", counting), max_size=3)
    assert report.ok
    assert report.instances_checked == 9472
    assert len(calls) <= 278
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("t", [CHI_GOOD, CHI_WRONG, IDENTITY_NAT, SINGLETONS], ids=lambda t: t.name)
def test_naturality_matches_the_per_square_oracle(t):
    """Whole reports (count, failure order and text) against the loop that
    maps every family through both paths on frozensets, exhaustive sizes
    and sampled ones."""
    for max_size in range(6):
        for samples, seed in ((500, 2026), (37, 5)) if max_size > 3 else ((500, 2026),):
            report = check_naturality(t, max_size=max_size, samples=samples, seed=seed)
            expected = naturality(t, max_size, samples, seed)
            assert (report.instances_checked, _failure_texts(report)) == expected


POINTS = (0, 1, "a", "b", (2, 3), frozenset({4}))  # six points, not all ints


@pytest.mark.parametrize("t", [CHI_GOOD, CHI_WRONG, IDENTITY_NAT, SINGLETONS], ids=lambda t: t.name)
@given(family=st.lists(st.frozensets(st.sampled_from(POINTS), max_size=4), max_size=5))
@example(family=[])
@example(family=[frozenset()])
@example(family=[frozenset({0, "a"}), frozenset(), frozenset({(2, 3)})])
def test_apply_is_the_mask_map_relabeled(t, family):
    """t.apply on a family over up to six points of any hashable kind is
    t.masks on the family's mask, point i standing for bit i."""
    bit = {p: i for i, p in enumerate(POINTS)}
    fam = reduce(or_, (1 << sum(1 << bit[p] for p in u) for u in family), 0)
    relabeled = frozenset(frozenset(POINTS[i] for i in _iter_bits(v)) for v in _iter_bits(t.masks(fam)))
    assert t.apply(family) == relabeled


def test_naturality_refutes_a_kernel_that_drops_one_hitting_set():
    """Naturality is judged on the kernel alone, so a chi-good whose kernel
    loses the largest hitting set, the union, is caught."""
    dropping = lambda fam: CHI_GOOD.masks(fam) & ~(1 << reduce(or_, _iter_bits(fam), 0))
    report = check_naturality(FiniteNatTrans("chi-good", CHI_GOOD.apply, dropping), max_size=3)
    assert not report.ok
    assert report.failures[0].render() == "\n".join((
        "X={a,b}, Y={c}, f=[a->c, b->c], S={{a,b}}", "map after chi-good: {{c}}", "chi-good after map: {}"))


PARITY = PredicateAction("parity", lambda masks, full: reduce(xor, masks, 0))
ZERO = PredicateAction("zero", lambda masks, full: 0)
# neither associative nor commutative: the first member, else the unit
FIRST = PredicateAction("first", lambda masks, full: next(iter(masks), full))


@pytest.mark.parametrize(
    "action", [tracekit.laws.DIAMOND, tracekit.laws.BOX, PARITY, ZERO, FIRST], ids=lambda a: a.name
)
def test_boolean_action_laws_match_the_per_family_oracle(action):
    """Whole reports against the loop that folds every outer family's list
    of resolutions on its own."""
    for max_phi, samples, seed in ((0, 300, 2026), (1, 300, 2026), (2, 300, 2026), (3, 41, 9)):
        report = check_action_laws(action, max_phi=max_phi, samples=samples, seed=seed)
        expected = action_laws(action, max_phi, samples, seed)
        assert (report.instances_checked, _failure_texts(report)) == expected


# a diamond that is wrong on lists of 16 resolutions only: at 2 points, on the
# one family of all 16 predicate sets, in a row that otherwise agrees
WRONG_AT_16 = PredicateAction(
    "wrong-at-16", lambda masks, full: (lambda ms: reduce(or_, ms, 0) ^ (len(ms) == 16))(list(masks))
)


def test_boolean_action_laws_walk_the_one_differing_family_of_a_row():
    """A row whose two sides differ at one index is walked, and only there."""
    for max_phi in (2, 3):
        report = check_action_laws(WRONG_AT_16, max_phi=max_phi)
        assert len(report.failures) == 1
        assert (report.instances_checked, _failure_texts(report)) == action_laws(WRONG_AT_16, max_phi)


def test_action_laws_fold_each_distinct_list_of_resolutions_once():
    """The resolution side's argument (the one list the fold gets) is seen
    once per distinct value, and exactly the values the per-family loop
    passes."""
    def counting(seen):
        def fold(masks, full):
            if isinstance(masks, list):
                seen.append((tuple(masks), full))
            return tracekit.laws.DIAMOND.fold(masks, full)
        return PredicateAction("diamond", fold)

    calls, oracle_calls = [], []
    report = check_action_laws(counting(calls), max_phi=3)
    assert _failure_texts(report) == [] and report.instances_checked == 98768
    assert action_laws(counting(oracle_calls), 3) == (98768, [])
    assert len(calls) == len(set(calls)) == len(set(oracle_calls)) < len(oracle_calls)
    assert set(calls) == set(oracle_calls)


@pytest.mark.parametrize("k", [0, 1])
def test_exchange_sides_match_the_bruteforce_hitting_sets(k):
    """On every family of predicate sets, the meet of joins and the join of
    hitting-set meets agree with chi_good_bruteforce's hitting sets."""
    full_pred = (1 << k) - 1
    meet_of_joins, join_of_meets = _part_sides("alt", k)
    for fam in range(1 << (1 << (1 << k))):
        members = [frozenset(_iter_bits(u)) for u in _iter_bits(fam)]
        joins = [reduce(or_, u, 0) for u in members]
        assert meet_of_joins(fam) == reduce(and_, joins, full_pred)
        meets = [reduce(and_, v, full_pred) for v in chi_good_bruteforce(members)]
        assert join_of_meets(fam) == reduce(or_, meets, 0)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("which", ["subset", "conj", "weighted"])
def test_part_sides_are_the_join_or_meet_of_the_parts(which, k):
    """On every set of predicates on k points, both fields read from the
    machine's two steps are the set's join (subset, weighted) or meet (conj)."""
    top, bottom = _part_sides(which, k)
    for parts in range(1 << (1 << k)):
        preds = list(_iter_bits(parts))
        want = reduce(and_, preds, (1 << k) - 1) if which == "conj" else reduce(or_, preds, 0)
        assert (top(parts), bottom(parts)) == (want, want)


def _digest(report):
    text = format_report(report, max_failures=len(report.failures))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("law", sorted(_law_checks(None)))
def test_law_reports_at_every_cli_size_are_pinned(law):
    """`tracekit check LAW` with --max-size unset and 1..6 (larger sizes
    clamp to 6): every report, all failures rendered, hashes as pinned."""
    cap = 6 if law in ("chi-good", "chi-wrong", "identity-nat") else 3 if law.startswith(("action-", "monad-")) else 2
    got = {}
    by_bound = {}
    for size in (None, 1, 2, 3, 4, 5, 6):
        bound = _clamped(size, min(cap, 3), cap)
        if bound not in by_bound:
            by_bound[bound] = _digest(_law_checks(size)[law]())
        got[f"cli:{law}@{size}"] = by_bound[bound]
    assert got == {key: LAW_DIGESTS[key] for key in got}


def test_negative_control_and_diagram_reports_are_pinned():
    """The diagrams at every size, mutated or not, on one and two letters;
    the parity and constant-0 folds; exchange at 0..2."""
    got = {}
    for which in DIAGRAMS:
        for phi in range(3):
            for mutate in (None, "flip-output"):
                for alphabet in (("a", "b"), ("a",)):
                    report = check_logic_morphism_diagram(which, max_phi=phi, alphabet=alphabet, mutate=mutate)
                    got[f"diagram:{which}:{phi}:{mutate}:{''.join(alphabet)}"] = _digest(report)
    for action in (PARITY, ZERO):
        for n in (1, 2, 3):
            got[f"action:{action.name}:{n}"] = _digest(check_action_laws(action, max_phi=n))
            got[f"monad:{action.name}:{n}"] = _digest(check_monad_morphism(action, max_size=n))
    for phi in range(3):
        got[f"exchange:{phi}"] = _digest(check_exchange(max_phi=phi))
    assert got == {key: LAW_DIGESTS[key] for key in got}
    assert len(got) + 15 * 7 == len(LAW_DIGESTS)


def test_action_laws_hold():
    from tracekit.laws import BOX, DIAMOND

    assert check_action_laws(DIAMOND, max_phi=3).ok
    assert check_action_laws(BOX, max_phi=3).ok
    for semiring in (BOOL, NAT, RAT):
        assert check_action_laws(SemiringAction("resolve", semiring), max_phi=2).ok


def test_xor_fold_fails_the_multiplication_law():
    report = check_action_laws(PARITY, max_phi=2)
    assert not report.ok
    assert all("singleton" not in f.lhs for f in report.failures)


def test_constant_fold_fails_the_unit_law():
    top = PredicateAction("top", lambda masks, full: full)
    report = check_action_laws(top, max_phi=2)
    assert not report.ok
    assert any("singleton" in f.lhs for f in report.failures)


# the declared one, 2, is no unit: resolving a singleton doubles it
BAD_UNIT = Semiring("nat", 0, 2, add, mul)
# a product of two factors above 1 gains 1, which breaks the multiplication law
BAD_MULT = Semiring("nat", 0, 1, add, lambda a, b: a * b + (a > 1 and b > 1))
# nat with Fraction products, a lawful one and BAD_MULT's: their sums mix int
# and Fraction values that are equal but render differently
FRACTION_MUL = Semiring("nat", 0, 1, add, lambda a, b: Fraction(a * b))
BAD_FRACTION_MUL = Semiring("nat", 0, 1, add, lambda a, b: Fraction(a * b + (a > 1 and b > 1)))


@pytest.mark.parametrize(
    "name, sr, counts, digest",
    [
        ("bad-unit", BAD_UNIT, (18, 0),
         "7950b0807132e4783426a4c1077bf4e4db4965b78ea17120465d9c854579adef"),
        ("bad-mult", BAD_MULT, (0, 54),
         "62fc4bfa0f7091b540f2a175118cb7a8541f28e93fa16f9bf366b9376baba6f8"),
    ],
)
def test_semiring_action_law_failures_are_pinned(name, sr, counts, digest):
    report = check_action_laws(SemiringAction(name, sr), max_phi=2)
    assert report.instances_checked == 321
    unit_failures = sum("singleton" in f.lhs for f in report.failures)
    assert (unit_failures, len(report.failures) - unit_failures) == counts
    text = format_report(report, max_failures=len(report.failures))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "sr",
    [BOOL, NAT, RAT, BAD_UNIT, BAD_MULT, FRACTION_MUL, BAD_FRACTION_MUL],
    ids=["bool", "nat", "rat", "bad-unit", "bad-mult", "fraction-mul", "bad-fraction-mul"],
)
def test_semiring_action_laws_match_the_per_instance_oracle(sr):
    """Whole reports (count, failure order and text), repeated samples and
    failing families included, against the loop that judges every instance
    on its own. A failing family's sides keep the types of their values,
    though the judge numbers equal values alike."""
    for max_phi in range(4):
        for samples, seed in ((300, 2026), (120, 7)):
            report = check_action_laws(SemiringAction("resolve", sr), max_phi=max_phi, samples=samples, seed=seed)
            expected = semiring_action_laws(sr, max_phi, samples, seed)
            assert (report.instances_checked, _failure_texts(report)) == expected


@pytest.mark.parametrize("sr", [BOOL, NAT, RAT, BAD_MULT], ids=["bool", "nat", "rat", "bad-mult"])
def test_semiring_action_laws_flatten_each_distinct_family_once(monkeypatch, sr):
    """Counting the judge's flattenings: each distinct (size, outer family)
    of the per-instance loop is flattened exactly once, though the samples
    repeat some, and the report is the loop's. The judge numbers a pool
    value by its place in the sorted pool."""
    flattened = []

    def counting(outer, *ops):
        flattened.append(outer)
        return _flatten(outer, *ops)

    monkeypatch.setattr(tracekit.laws, "_flatten", counting)
    families = []
    report = check_action_laws(SemiringAction("counted", sr), max_phi=3)
    assert (report.instances_checked, _failure_texts(report)) == semiring_action_laws(sr, 3, families=families)
    assert len(flattened) == len(set(families)) < len(families)
    number = {v: n for n, v in enumerate(sorted(_VALUE_POOLS[sr.name]))}
    inner = lambda vec: tuple((tuple(map(number.get, psi)), number[c]) for psi, c in vec.items())
    assert Counter(flattened) == Counter(tuple((inner(v), number[c]) for v, c in outer.items()) for _, outer in set(families))


def test_action_laws_reject_a_semiring_without_a_value_pool():
    top = Semiring("max", 0, 0, max, add)
    with pytest.raises(ValueError, match="^no value pool for the max semiring; pools exist for bool, nat, rat$"):
        check_action_laws(SemiringAction("t", top))


def test_monad_morphism_holds_for_both_actions():
    from tracekit.laws import BOX, DIAMOND

    for action in (DIAMOND, BOX):
        report = check_monad_morphism(action, max_size=3)
        assert report.ok
        assert report.instances_checked == 284


def test_monad_morphism_catches_parity():
    assert not check_monad_morphism(PARITY, max_size=3).ok


@pytest.mark.parametrize("which", ["subset", "conj", "weighted", "alt"])
def test_diagrams_commute(which):
    report = check_logic_morphism_diagram(which, max_phi=2)
    assert report.ok, format_report(report)


@pytest.mark.parametrize("which", ["subset", "conj", "weighted", "alt"])
def test_diagram_mutation_is_caught(which):
    report = check_logic_morphism_diagram(which, max_phi=2, mutate="flip-output")
    assert not report.ok


def _one_step_losing(direction, lost):
    """The squares' `_one_step`, its step in one direction ("forward" or
    "back") clearing the states lost(aut) from every result."""
    real = tracekit.laws._one_step

    def one_step(aut, mode="disj", back=True):
        sr, out, step = real(aut, mode, back)
        if back != (direction == "back"):
            return sr, out, step
        keep = ~lost(aut)
        return sr, out, lambda ai, s: step(ai, s) & keep

    return one_step


@pytest.mark.parametrize(
    "direction, lost, counts",
    [
        # no forward image reaches the last point: its edges are gone
        ("forward", lambda aut: 1 << aut.n_states - 1, (5885, 5885, 504)),
        # no preimage holds the part {0}, state 1
        ("back", lambda aut: 2, (3114, 1176, 248)),
    ],
    ids=["forward", "back"],
)
def test_squares_fail_when_one_direction_of_the_step_loses_edges(monkeypatch, capsys, direction, lost, counts):
    """The subset, conj and weighted squares step the determinization and
    the logic by `_one_step`'s two directions, so patching one breaks
    them; the alt square does not read `_one_step` and stays clean."""
    monkeypatch.setattr(tracekit.laws, "_one_step", _one_step_losing(direction, lost))
    failures = [len(check_logic_morphism_diagram(which, max_phi=2).failures) for which in ("subset", "conj", "weighted")]
    assert tuple(failures) == counts
    assert check_logic_morphism_diagram("alt", max_phi=2).ok
    assert main(["check", "diagram-subset"]) == 5
    assert f"\nfailures: {counts[0]}\n" in capsys.readouterr().out


def test_diagram_rejects_unknown_inputs():
    with pytest.raises(ValueError):
        check_logic_morphism_diagram("mystery")
    with pytest.raises(ValueError):
        check_logic_morphism_diagram("subset", mutate="scramble")


def test_exchange_is_exhaustive_and_clean():
    report = check_exchange(max_phi=2)
    assert report.ok
    assert report.instances_checked == 20 + 2**16


def test_exchange_rejects_sizes_beyond_the_exhaustible_bound():
    with pytest.raises(ValueError, match="max_phi=2"):
        check_exchange(max_phi=3)


def test_monad_morphism_rejects_sizes_beyond_the_exhaustible_bound():
    from tracekit.laws import DIAMOND

    with pytest.raises(ValueError, match="max_size=4"):
        check_monad_morphism(DIAMOND, max_size=5)


def test_alt_diagram_rejects_sizes_beyond_the_exhaustible_bound():
    with pytest.raises(ValueError, match="max_phi=2"):
        check_logic_morphism_diagram("alt", max_phi=3)


@pytest.mark.parametrize("which", ["subset", "conj"])
def test_subset_and_conj_diagrams_reject_sizes_beyond_the_exhaustible_bound(monkeypatch, which):
    """At max_phi=4 there are 22.7 million families of up to three elements,
    each rendered under flip-output: refused before the judge runs."""
    assert check_logic_morphism_diagram(which, max_phi=3).instances_checked == 355819
    reached = []
    monkeypatch.setattr(tracekit.laws, "_diagram_branching", lambda *args: reached.append(args[1]))
    with pytest.raises(ValueError, match=f"^the {which} diagram is exhaustible only up to max_phi=3, got 4$"):
        check_logic_morphism_diagram(which, max_phi=4, mutate="flip-output")
    check_logic_morphism_diagram(which, max_phi=3)
    assert reached == [3]


@pytest.mark.parametrize(
    "which, max_phi, letters, count",
    [
        # 2^(1 + 2*16) bags at |Phi|=4 on top of the 131,624 below it
        ("weighted", 4, 2, "8,590,066,216"),
        ("weighted", 3, 3, "33,562,768"),
        ("subset", 3, 3, "179,308,159"),
        ("conj", 2, 4, "22,375,542"),
        ("alt", 2, 3, "33,566,923"),
    ],
)
def test_diagrams_refuse_more_instances_than_the_limit(monkeypatch, which, max_phi, letters, count):
    """The count covers the alphabet and the weighted square, and is taken
    before anything is enumerated."""
    reached = []
    for judge in ("_diagram_weighted", "_diagram_branching"):
        monkeypatch.setattr(tracekit.laws, judge, lambda *args: reached.append(args))
    alphabet = ("a", "b", "c", "d")[:letters]
    message = (
        f"^the {which} diagram on {letters} letters up to max_phi={max_phi} enumerates "
        f"at least {count} instances, more than 1,048,576$"
    )
    with pytest.raises(ValueError, match=message):
        check_logic_morphism_diagram(which, max_phi=max_phi, alphabet=alphabet)
    assert reached == []


def test_diagrams_within_the_limit_still_run():
    """The largest calls on the default two letters that passed before the
    count bound: weighted at 3 (every bag), alt at 2."""
    assert check_logic_morphism_diagram("weighted", max_phi=3).instances_checked == 131624
    assert check_logic_morphism_diagram("alt", max_phi=2).instances_checked == 132495


def test_exchange_and_alt_diagram_run_through_the_hitting_set_kernel(monkeypatch):
    """Negative control: with a kernel that finds no hitting sets, both
    checks must fail, so neither is a tautology."""
    monkeypatch.setattr(tracekit.laws, "_hitting_bits", lambda members: 0)
    assert not check_exchange(max_phi=2).ok
    assert not check_logic_morphism_diagram("alt").ok


@pytest.mark.parametrize(
    "mutation",
    [
        None,
        # no hitting sets for the predicate set {{0}} (mask 2): 2,050 failures at max_phi=2
        lambda kernel: lambda members: 0 if members[0] == 2 else kernel(members),
        # the predicate sets 12 to 15 are never hitting sets: 3,600 failures at max_phi=2
        lambda kernel: lambda members: kernel(members) & ~0xF000,
    ],
    ids=["kernel", "drop-one-member", "drop-high-sets"],
)
def test_exchange_matches_the_per_family_oracle(monkeypatch, mutation):
    """Whole reports (count, failure order and text) against the loop that
    judges every family of predicate sets on its own, under the hitting-set
    kernel and two mutations of it."""
    if mutation:
        monkeypatch.setattr(tracekit.laws, "_hitting_bits", mutation(tracekit.laws._hitting_bits))
    for phi in range(3):
        report = check_exchange(max_phi=phi)
        assert (report.instances_checked, _failure_texts(report)) == exchange(phi, tracekit.laws._hitting_bits)
    assert mutation is None or len(report.failures) in (2050, 3600)


@pytest.mark.parametrize("alphabet", [("a",), ("a", "b")])
@pytest.mark.parametrize("which", ["subset", "conj", "alt"])
def test_branching_diagrams_match_the_per_family_oracle(which, alphabet):
    """Whole reports (count, failure order and text), clean and mutated,
    against the loop that folds every family's elements one by one; the
    mutated two-letter alt report at max_phi=2 is pinned by digest instead."""
    for phi in range(3):
        for mutate in (None, "flip-output") if (which, phi, len(alphabet)) != ("alt", 2, 2) else (None,):
            report = check_logic_morphism_diagram(which, max_phi=phi, alphabet=alphabet, mutate=mutate)
            expected = branching_diagram(which, phi, alphabet, mutate=mutate)
            assert (report.instances_checked, _failure_texts(report)) == expected


@pytest.mark.parametrize("alphabet", [("a",), ("a", "b")])
def test_alt_diagram_with_some_hitting_sets_dropped_matches_the_oracle(monkeypatch, alphabet):
    """A kernel that finds no hitting sets for the predicate set {{0}}
    (mask 2) alone: only families with it among a letter's parts can fail,
    so the judge must tell them apart and keep their order."""
    kernel = tracekit.laws._hitting_bits
    monkeypatch.setattr(tracekit.laws, "_hitting_bits", lambda members: 0 if members[0] == 2 else kernel(members))
    for phi in range(3):
        report = check_logic_morphism_diagram("alt", max_phi=phi, alphabet=alphabet, samples=50, seed=phi)
        expected = branching_diagram("alt", phi, alphabet, samples=50, seed=phi)
        assert (report.instances_checked, _failure_texts(report)) == expected
        assert phi == 0 or 0 < len(report.failures) < report.instances_checked


_SIZED_LAWS = {
    "naturality": lambda **kw: check_naturality(CHI_GOOD, **kw),
    "action-box": lambda **kw: check_action_laws(tracekit.laws.BOX, **kw),
    "action-weighted-nat": lambda **kw: check_action_laws(SemiringAction("weighted-nat", NAT), **kw),
    "monad-diamond": lambda **kw: check_monad_morphism(tracekit.laws.DIAMOND, **kw),
    "diagram-alt": lambda **kw: check_logic_morphism_diagram("alt", **kw),
    "diagram-weighted": lambda **kw: check_logic_morphism_diagram("weighted", **kw),
    "exchange": lambda **kw: check_exchange(**kw),
}


@pytest.mark.parametrize(
    "law, param",
    [
        ("naturality", "max_size"), ("naturality", "samples"),
        ("action-box", "max_phi"), ("action-weighted-nat", "max_phi"), ("action-weighted-nat", "samples"),
        ("monad-diamond", "max_size"),
        ("diagram-alt", "max_phi"), ("diagram-alt", "samples"), ("diagram-weighted", "max_phi"),
        ("exchange", "max_phi"),
    ],
)
def test_negative_sizes_and_sample_counts_raise(law, param):
    """A negative bound checks nothing, so it must not come back as a clean
    report; zero is still a real fragment."""
    with pytest.raises(ValueError, match=f"^{param} must be at least 0, got -1$"):
        _SIZED_LAWS[law](**{param: -1})
    report = _SIZED_LAWS[law](**{param: 0})
    assert report.ok and report.instances_checked > 0


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


def test_correctness_report_for_a_flipped_chain_state():
    # the chain 0 -a-> ... -a-> 9 over a, b, c at depth 10: only the state
    # read by a^9 from q0 is flipped, so each qi fails on a^(9 - i) alone
    n = NFA(10, ["a", "b", "c"], [(i, "a", i + 1) for i in range(9)], accepting=[9], names=[f"q{i}" for i in range(10)])
    result = det_subset(n)
    flipped = result.embed[0]
    for _ in range(9):
        flipped = result.machine.delta[flipped][0]
    outputs = list(result.machine.outputs)
    outputs[flipped] = not outputs[flipped]
    report = check_correctness(n, _with_outputs(result, outputs), 10)
    assert report.instances_checked == 10 * (3**11 - 1) // 2
    want = [(f"state q{i}, word {'a' * (9 - i) or 'ε'}", "source trace: tt", "determinized trace: ff") for i in range(10)]
    assert _failure_texts(report) == want
    assert _failure_texts(check_correctness(n, _with_outputs(result, outputs), 10, max_failures=3)) == want[:3]


def test_correctness_builds_no_layer_past_its_last_failure():
    # the chain 0 -a-> ... -a-> 9 over a, b, c at depth 25 (3^25 words of
    # the longest length), with the empty set's output flipped: q0 fails on
    # every word that leaves the chain, 36 of them up to length 3
    n = NFA(10, ["a", "b", "c"], [(i, "a", i + 1) for i in range(9)], accepting=[9], names=[f"q{i}" for i in range(10)])
    result = det_subset(n)
    sink = {m: i for i, m in result.state_meaning.items()}[frozenset()]
    outputs = list(result.machine.outputs)
    outputs[sink] = True
    report = check_correctness(n, _with_outputs(result, outputs), 25)
    assert report.instances_checked == 10 * (3**26 - 1) // 2
    words = [w for w in word_table(lambda w: None, n.alphabet, 3) if set(w) - {"a"}]
    want = [(f"state q0, word {''.join(w)}", "source trace: ff", "determinized trace: tt") for w in words[:25]]
    assert _failure_texts(report) == want


def test_correctness_lists_a_thirty_letter_failure_without_its_layer():
    # the chain 0 -a-> ... -a-> 30 over a, b, c at depth 40, with the state
    # {30} flipped: q0 first fails on a^30, whose layer holds 3^30 words
    n = NFA(31, ["a", "b", "c"], [(i, "a", i + 1) for i in range(30)], accepting=[30], names=[f"q{i}" for i in range(31)])
    result = det_subset(n)
    last = {m: i for i, m in result.state_meaning.items()}[frozenset({30})]
    outputs = list(result.machine.outputs)
    outputs[last] = False
    report = check_correctness(n, _with_outputs(result, outputs), 40, max_failures=1)
    assert report.instances_checked == 31 * (3**41 - 1) // 2
    assert _failure_texts(report) == [("state q0, word " + "a" * 30, "source trace: tt", "determinized trace: ff")]


def _acyclic_weighted(rng, semiring):
    """A weighted automaton over semiring whose transitions go to higher
    states only, so det_weighted finishes."""
    n = rng.randint(1, 4)
    alphabet = ("a", "b")[: rng.randint(1, 2)]
    weight = {"bool": lambda: True, "nat": lambda: rng.randint(1, 3), "rat": lambda: rng.choice(RAT_POOL)}[semiring.name]
    trans = {(x, a): {y: weight() for y in range(x + 1, n) if rng.random() < 0.5} for x in range(n) for a in alphabet}
    return WeightedAut(n, alphabet, semiring, [weight() if rng.random() < 0.7 else semiring.zero for _ in range(n)], trans)


def _broken_case(method, rng):
    """A source, its determinization with one or two machine outputs flipped
    or changed, the per-word source and machine values at a source state,
    and the rendering of a value in a failure."""
    tt = lambda v: "tt" if v else "ff"
    if method == "alt":
        a = rand_alternating(rng, max_states=3)
        result = alt_to_nfa(a)
        m = result.machine
        accepting = set(m.accepting) ^ set(rng.sample(range(m.n_states), rng.randint(1, min(2, m.n_states))))
        broken = replace(result, machine=NFA(m.n_states, m.alphabet, m.transitions, accepting, names=m.names))
        return a, broken, alt_accepts, lambda y, w: nfa_accepts(broken.machine, y, w), tt
    if method.startswith("weighted"):
        semiring = {"bool": BOOL, "nat": NAT, "rat": RAT}[method.split("-")[1]]
        source = _acyclic_weighted(rng, semiring)
        result, value, render = det_weighted(source), wa_value, str
        change = (lambda o: not o) if semiring is BOOL else (lambda o: o + 1) if semiring is NAT else (lambda o: o + Fraction(1, 2))
    else:
        source = rand_nfa(rng, max_states=4)
        conj = method == "subset-conj"
        result = canonical_det_nfa(source) if method == "canonical" else det_subset(source, "conj" if conj else "disj")
        value, render, change = nfa_conj_value if conj else nfa_accepts, tt, (lambda o: not o)
    outputs = list(result.machine.outputs)
    for i in rng.sample(range(len(outputs)), rng.randint(1, min(2, len(outputs)))):
        outputs[i] = change(outputs[i])
    broken = _with_outputs(result, outputs)
    return source, broken, value, lambda y, w: moore_value(broken.machine, y, w), render


@given(
    st.sampled_from(("subset-disj", "subset-conj", "canonical", "alt", "weighted-bool", "weighted-nat", "weighted-rat")),
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
)
@settings(max_examples=150, deadline=None)
def test_correctness_failures_match_a_per_word_listing(method, seed, max_failures):
    source, broken, value, machine_value, render = _broken_case(method, random.Random(seed))
    want = [
        (f"state {source.names[x]}, word {format_word(w)}", f"source trace: {render(src)}", f"determinized trace: {render(det)}")
        for x in range(source.n_states)
        for w, src in word_table(lambda w: value(source, x, w), source.alphabet, 4).items()
        for det in [machine_value(broken.embed[x], w)]
        if det != src
    ]
    assert _failure_texts(check_correctness(source, broken, 4, max_failures)) == want[:max_failures]


@pytest.mark.parametrize(
    "call, cap, floor",
    [("check_correctness", 0, 1), ("check_correctness", -1, 1), ("format_report", -1, 0)],
)
def test_failure_caps_below_their_floor_raise(call, cap, floor):
    n = NFA(2, ["a"], [(0, "a", 0), (0, "a", 1)], accepting=[1], names=["x", "y"])
    result = det_subset(n)
    broken = _with_outputs(result, [not o for o in result.machine.outputs])
    report = check_correctness(n, broken, 2)
    assert len(report.failures) == 6
    # at the floor, a capped report still fails and the render counts the rest
    assert not check_correctness(n, broken, 2, max_failures=1).ok
    assert format_report(report, max_failures=0).endswith("failures: 6\n... and 6 more")
    with pytest.raises(ValueError, match=f"max_failures must be at least {floor}, got {cap}"):
        if call == "check_correctness":
            check_correctness(n, broken, 2, max_failures=cap)
        else:
            format_report(report, max_failures=cap)


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


def test_law_checkers_reject_what_they_cannot_judge():
    """A non-action, an unknown determinization method, and a weighted
    machine over another carrier than its source are refused."""
    with pytest.raises(TypeError, match="^not an action: 'diamond'$"):
        check_action_laws("diamond")
    n = NFA(1, ["a"], [(0, "a", 0)], accepting=[0])
    with pytest.raises(ValueError, match="^unknown determinization method 'mystery'$"):
        check_correctness(n, replace(det_subset(n), method="mystery"), 2)
    w_nat = WeightedAut(1, ["a"], NAT, [1], {(0, "a"): {0: 1}})
    w_bool = WeightedAut(1, ["a"], BOOL, [True], {(0, "a"): {0: True}})
    with pytest.raises(ValueError, match="^carrier mismatch between source and machine$"):
        check_correctness(w_nat, det_weighted(w_bool), 2)
    assert check_correctness(w_bool, det_weighted(w_bool), 2).ok


def test_correctness_instance_accounting():
    rng = random.Random(9)
    n = rand_nfa(rng, max_states=4, max_letters=2)
    result = det_subset(n)
    report = check_correctness(n, result, 5)
    m = len(n.alphabet)
    expected = n.n_states * sum(m**k for k in range(6))
    assert report.instances_checked == expected
