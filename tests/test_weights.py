"""Semiring carriers, weight vectors, and exact probabilities."""

from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracekit import (
    BOOL,
    NAT,
    RAT,
    SEMIRINGS,
    PartialProb,
    WeightVec,
    map_weights,
    monad_mul,
    unit,
)


def test_registry_carriers():
    assert set(SEMIRINGS) == {"bool", "nat", "rat"}
    assert BOOL.add(True, True) is True
    assert BOOL.mul(True, False) is False
    assert NAT.sum([1, 2, 3]) == 6
    assert RAT.product([Fraction(1, 2), Fraction(2, 3)]) == Fraction(1, 3)


nat_values = st.integers(min_value=0, max_value=9)
rat_values = st.fractions(max_denominator=6).map(lambda q: Fraction(q))


@pytest.mark.parametrize(
    "semiring,values",
    [(BOOL, st.booleans()), (NAT, nat_values), (RAT, rat_values)],
    ids=["bool", "nat", "rat"],
)
def test_semiring_laws(semiring, values):
    @given(values, values, values)
    def laws(x, y, z):
        add, mul = semiring.add, semiring.mul
        assert add(x, y) == add(y, x)
        assert add(add(x, y), z) == add(x, add(y, z))
        assert add(x, semiring.zero) == x
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, semiring.one) == x and mul(semiring.one, x) == x
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
        assert mul(x, semiring.zero) == semiring.zero

    laws()


def test_vector_canonical_form():
    v = WeightVec(NAT, {0: 2, 3: 0, 1: 5})
    assert v.items() == ((0, 2), (1, 5))
    assert v.support == {0, 1}
    assert v(3) == 0 and v(0) == 2
    assert WeightVec(NAT, [(0, 1), (0, 1)]) == WeightVec(NAT, {0: 2})
    assert WeightVec(NAT, {}).is_zero()
    assert hash(WeightVec(RAT, {2: Fraction(1, 2)})) == hash(
        WeightVec(RAT, [(2, Fraction(1, 4)), (2, Fraction(1, 4))])
    )


def test_vector_hashes_its_entries_once_and_reads_any_mapping():
    hashed = []

    class Entry:
        def __hash__(self):
            hashed.append(self)
            return 7

    v = WeightVec(NAT, MappingProxyType({0: Entry()}))
    assert hash(v) == hash(v) == hash(("nat", v.items()))
    assert len(hashed) == 2  # once for v, once for the tuple it is compared with


def test_vector_zero_annihilation():
    assert WeightVec(BOOL, {0: False}).is_zero()
    assert monad_mul(NAT, {WeightVec(NAT, {1: 7}): 0}).is_zero()


vec_entries = st.dictionaries(st.integers(0, 4), nat_values, max_size=4)


@given(vec_entries, st.integers(0, 3))
def test_monad_left_unit(entries, x):
    v = WeightVec(NAT, entries)
    assert monad_mul(NAT, {v: 1}) == v
    assert monad_mul(NAT, {unit(NAT, x): 1}) == unit(NAT, x)


@given(vec_entries)
def test_monad_right_unit(entries):
    v = WeightVec(NAT, entries)
    outer = {unit(NAT, x): c for x, c in v.items()}
    assert monad_mul(NAT, outer) == v


@given(vec_entries, st.sampled_from([0, 1, 2]))
def test_map_weights_sums_preimages(entries, target):
    v = WeightVec(NAT, entries)
    pushed = map_weights(lambda x: target, v)
    expected = sum(c for _, c in v.items())
    assert pushed(target) == expected


def test_partial_prob_bounds():
    assert PartialProb(Fraction(1, 2)).value == Fraction(1, 2)
    assert PartialProb(1).value == 1
    with pytest.raises(ValueError):
        PartialProb(Fraction(3, 2))
    with pytest.raises(ValueError):
        PartialProb(Fraction(-1, 2))
