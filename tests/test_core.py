import pytest
from hypothesis import given
from hypothesis import strategies as st

from manna.core import (
    Allocation,
    Instance,
    lex_compare,
    pareto_dominates,
    sorted_utilities,
    utility_vector,
)
from manna.errors import ContractViolation, InvalidInstance
from manna.valuations import Additive, CappedGroups, GeneralAdditive, Group


def test_lex_compare_examples():
    assert lex_compare((1, 2, 3), (1, 2, 2)) == 1
    assert lex_compare((0, 0), (0, 0)) == 0
    # two-item additive tie-break: keeping the zero beats trading it for a chore
    assert lex_compare((0, 1), (-1, 2)) == 1


def test_lex_compare_length_mismatch():
    with pytest.raises(ContractViolation):
        lex_compare((1, 2), (1, 2, 3))


def test_pareto_dominates_examples():
    assert pareto_dominates((1, 1), (0, 1))
    assert not pareto_dominates((1, 0), (0, 1))
    assert not pareto_dominates((2, 2), (2, 2))
    with pytest.raises(ContractViolation):
        pareto_dominates((1,), (1, 2))


@given(st.data())
def test_lex_compare_total_order(data):
    n = data.draw(st.integers(1, 5))
    vec = st.tuples(*[st.integers(-4, 4)] * n)
    a, b, c = data.draw(vec), data.draw(vec), data.draw(vec)
    assert lex_compare(a, b) == -lex_compare(b, a)
    assert (lex_compare(a, b) == 0) == (a == b)
    if lex_compare(a, b) >= 0 and lex_compare(b, c) >= 0:
        assert lex_compare(a, c) >= 0


@given(st.data())
def test_pareto_implies_lex(data):
    n = data.draw(st.integers(1, 5))
    vec = st.tuples(*[st.integers(-4, 4)] * n)
    a, b = data.draw(vec), data.draw(vec)
    if pareto_dominates(a, b):
        assert lex_compare(a, b) == 1


def test_allocation_invariants():
    alloc = Allocation((frozenset({0, 1}), frozenset({3})), frozenset({2}))
    assert alloc.num_agents == 2
    assert alloc.num_items == 4
    assert alloc.bundle(0) == frozenset({2})
    assert alloc.owner_of(3) == 2
    assert not alloc.is_complete
    assert Allocation((frozenset({0}), frozenset({1})), frozenset()).is_complete


def test_allocation_rejects_overlap_and_gaps():
    with pytest.raises(ContractViolation):
        Allocation((frozenset({0}), frozenset({0})), frozenset({1}))
    with pytest.raises(ContractViolation):
        Allocation((frozenset({0}), frozenset({2})), frozenset())


def test_allocation_helpers():
    alloc = Allocation.empty(2, 3)
    assert alloc.unallocated == frozenset({0, 1, 2})
    moved = alloc.replace_bundle(1, {0, 2})
    assert moved.bundle(1) == frozenset({0, 2})
    assert moved.unallocated == frozenset({1})
    assert moved.sizes() == (2, 0)
    assert moved.bundles[1] is alloc.bundles[1]
    back = moved.replace_bundle(1, {2})
    assert back.unallocated == frozenset({0, 1})
    with pytest.raises(ContractViolation):
        back.replace_bundle(2, {2})  # o2 is agent 1's


def test_replace_bundles_checks_only_the_replaced_parts():
    alloc = Allocation(
        (frozenset({0, 1}), frozenset({3}), frozenset({4})), frozenset({2})
    )
    moved = alloc.replace_bundles({1: {0}, 0: {1, 2}})
    assert moved == Allocation(
        (frozenset({0}), frozenset({3}), frozenset({4})), frozenset({1, 2})
    )
    assert moved.bundles[1] is alloc.bundles[1] and moved.bundles[2] is alloc.bundles[2]
    swapped = alloc.replace_bundles({1: {0, 3}, 2: {1}})
    assert swapped.bundles == (frozenset({0, 3}), frozenset({1}), frozenset({4}))
    assert swapped.unallocated is alloc.unallocated
    for parts in (
        {1: {0, 1, 4}},  # o4 duplicated into a bundle that agent 3 keeps
        {1: {0, 1}, 0: {1, 2}},  # o1 in two replaced parts
        {1: {0}},  # o1 dropped
        {1: {0, 1, 5}},  # o5 added: there is no such item
    ):
        with pytest.raises(ContractViolation):
            alloc.replace_bundles(parts)


def test_instance_validation():
    with pytest.raises(InvalidInstance):
        Instance(0, 2, 1, ())
    with pytest.raises(InvalidInstance):
        Instance(1, 2, 0, (Additive((0, 0)),))
    with pytest.raises(InvalidInstance):
        Instance(1, 2, 1, (Additive((2, 0)),))  # 2 not in {-1, 0, 1}
    with pytest.raises(InvalidInstance):
        Instance(2, 2, 1, (Additive((0, 0)),))  # wrong valuation count
    # general additive admits arbitrary integers
    Instance(1, 2, 1, (GeneralAdditive((7, -3)),))


def test_utility_vector_examples(named_fixtures):
    ex2 = named_fixtures["ex2"]
    X = Allocation((frozenset({0, 1}), frozenset({2, 3})), frozenset())
    assert utility_vector(ex2, X) == (ex2.c, -2)
    empty = Allocation.empty(2, 4)
    assert utility_vector(ex2, empty) == (0, 0)
    everything = Allocation((frozenset(range(4)), frozenset()), frozenset())
    assert utility_vector(ex2, everything) == (ex2.c, 0)


def test_sorted_utilities_invariant_under_joint_relabeling():
    inst = Instance(
        2, 3, 2,
        (
            CappedGroups((Group(frozenset({0, 1}), 1, 2, 0),), 0),
            Additive((2, 0, -1)),
        ),
    )
    swapped = Instance(2, 3, 2, (inst.valuations[1], inst.valuations[0]))
    X = Allocation((frozenset({0, 1}), frozenset({2})), frozenset())
    Xs = Allocation((frozenset({2}), frozenset({0, 1})), frozenset())
    assert sorted_utilities(inst, X) == sorted_utilities(swapped, Xs)
