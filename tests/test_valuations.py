import pytest
from hypothesis import given
from hypothesis import strategies as st

from manna.errors import ContractViolation, MalformedValuation
from manna.instgen import SplitMix64, gen_capped_groups
from manna.valuations import (
    Additive,
    CappedGroups,
    Explicit,
    GeneralAdditive,
    Group,
    materialize,
    telescoping_vector,
    validate_order_neutral,
    validate_range,
    validate_submodular,
)
from support import random_two_valued_table

C = 2
CAP_PAIR = CappedGroups((Group(frozenset({0, 1}), 1, C, 0),), 0)  # c·min(|S∩{0,1}|,1)
NON_ON = Explicit(2, (0, 0, 1, 0))  # submodular but order-sensitive


def test_value_examples(named_fixtures):
    assert CAP_PAIR.value({0, 1, 2}) == C
    assert CAP_PAIR.value(frozenset()) == 0
    assert Additive(()).value(frozenset()) == 0
    v2 = named_fixtures["ex_ef1"].valuation(2)  # (c+1)|S∩{o1,o2}| − |S|, c=2
    assert v2.value({0, 1, 2}) == 2 * (C + 1) - 3 == 3


def test_marginal_examples():
    assert CAP_PAIR.marginal(frozenset(), 0) == C
    assert CAP_PAIR.marginal({0}, 1) == 0
    classic = CappedGroups((Group(frozenset({0, 1}), 1, C, -1),), 0)
    assert classic.marginal({0}, 1) == -1
    with pytest.raises(ContractViolation):
        CAP_PAIR.marginal({0}, 0)


@pytest.mark.parametrize("spec", [Additive((2, 0, -1)), GeneralAdditive((5, 0, -3))])
@pytest.mark.parametrize("bundle_type", [frozenset, list])
def test_additive_marginal_rejects_held_item(spec, bundle_type):
    assert spec.marginal(bundle_type([0, 1]), 2) == spec.values[2]
    assert spec.marginal(bundle_type([]), 0) == spec.values[0]
    with pytest.raises(ContractViolation):
        spec.marginal(bundle_type([0, 1]), 1)


def test_telescoping_examples():
    assert telescoping_vector(NON_ON, {0, 1}, [0, 1]) == (0, 0)
    assert telescoping_vector(NON_ON, {0, 1}, [1, 0]) == (-1, 1)
    assert telescoping_vector(CAP_PAIR, frozenset()) == ()
    with pytest.raises(ContractViolation):
        telescoping_vector(CAP_PAIR, {0, 1}, [0, 0])


def test_telescoping_order_invariance_for_capped_groups():
    rng = SplitMix64(11)
    inst = gen_capped_groups(1, 7, 3, (1, 3), (1, 3), 99)
    spec = inst.valuation(1)
    bundle = [0, 2, 3, 5, 6]
    reference = telescoping_vector(spec, bundle)
    for _ in range(50):
        order = list(bundle)
        rng.shuffle(order)
        assert telescoping_vector(spec, bundle, order) == reference


def test_telescoping_conserves_value():
    inst = gen_capped_groups(1, 6, 2, (1, 3), (1, 3), 5)
    spec = inst.valuation(1)
    rng = SplitMix64(17)
    for mask in range(1 << 6):
        bundle = [o for o in range(6) if mask >> o & 1]
        order = list(bundle)
        rng.shuffle(order)
        assert sum(telescoping_vector(spec, bundle, order)) == spec.value(bundle)


def test_explicit_structural_checks():
    with pytest.raises(MalformedValuation):
        Explicit(2, (0, 1, 2))  # wrong table size
    with pytest.raises(ContractViolation):
        Explicit(2, (0, 1, 1, 2)).marginal({0}, 0)


def test_validate_submodular():
    assert validate_submodular(NON_ON).ok
    bad_empty = Explicit(1, (1, 1))
    res = validate_submodular(bad_empty)
    assert not res.ok and res.witness == (frozenset(),)
    # strictly supermodular pair
    res = validate_submodular(Explicit(2, (0, 0, 0, 1)))
    assert not res.ok
    S, T, o = res.witness
    assert S < T and o not in T


def test_validate_order_neutral_witness():
    res = validate_order_neutral(NON_ON)
    assert not res.ok
    bundle, vec1, vec2 = res.witness
    assert bundle == frozenset({0, 1})
    assert {vec1, vec2} == {(0, 0), (-1, 1)}
    assert validate_order_neutral(Explicit(2, (0, 1, 1, 2))).ok  # additive table


def test_validate_range():
    assert validate_range(Explicit(2, (0, 2, -1, 1)), 2).ok
    res = validate_range(Explicit(2, (0, 2, 0, 2)), 3)
    assert not res.ok
    S, o, delta = res.witness
    assert delta == 2


def test_fig1_table_passes_all_validators(named_fixtures):
    spec = named_fixtures["fig1"].valuation(1)
    assert validate_submodular(spec).ok
    assert validate_order_neutral(spec).ok
    assert validate_range(spec, 1).ok


def test_example1_capped_rendering_in_range():
    # value c·min(|S|, 2) over four items, materialized at c=2
    spec = CappedGroups((Group(frozenset(range(4)), 2, 2, 0),), 0)
    table = materialize(spec, 4)
    assert validate_range(table, 2).ok
    assert validate_submodular(table).ok
    assert validate_order_neutral(table).ok


@pytest.mark.parametrize("seed", range(8))
def test_materialized_capped_groups_pass_validators(seed):
    inst = gen_capped_groups(1, 6, 1 + seed % 3, (1, 3), (0, 3), 300 + seed)
    table = materialize(inst.valuation(1), 6)
    assert validate_submodular(table).ok
    assert validate_order_neutral(table).ok
    assert validate_range(table, inst.c).ok


@given(st.integers(0, 10_000))
def test_two_valued_submodular_implies_order_neutral(seed):
    table = random_two_valued_table(4, -1, 1, seed)
    assert validate_submodular(table).ok
    assert validate_order_neutral(table).ok


def test_capped_groups_rejects_overlapping_groups():
    with pytest.raises(MalformedValuation):
        CappedGroups(
            (Group(frozenset({0, 1}), 1, 1, 0), Group(frozenset({1, 2}), 1, 1, 0)), 0
        )
