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
    assert alloc.owner_of(2) == 0
    assert not alloc.is_complete
    assert Allocation((frozenset({0}), frozenset({1})), frozenset()).is_complete


@pytest.mark.parametrize("item", [4, 999, -1])
def test_owner_of_rejects_an_item_in_no_part(item):
    alloc = Allocation((frozenset({0, 1}), frozenset({3})), frozenset({2}))
    with pytest.raises(ContractViolation, match=f"item {item} is in no part"):
        alloc.owner_of(item)


def test_allocation_rejects_overlap_and_gaps():
    with pytest.raises(ContractViolation):
        Allocation((frozenset({0}), frozenset({0})), frozenset({1}))
    with pytest.raises(ContractViolation):
        Allocation((frozenset({0}), frozenset({2})), frozenset())


def test_allocation_helpers():
    alloc = Allocation.empty(2, 3)
    assert alloc.unallocated == frozenset({0, 1, 2})
    moved = alloc.move([(0, 0, 1), (2, 0, 1)])
    assert moved.bundle(1) == frozenset({0, 2})
    assert moved.unallocated == frozenset({1})
    assert moved.sizes() == (2, 0)
    assert moved.bundles[1] is alloc.bundles[1]
    back = moved.move([(0, 1, 0)])
    assert back.unallocated == frozenset({0, 1})
    with pytest.raises(ContractViolation):
        back.move([(2, 2, 0)])  # o2 is agent 1's


def _three_agents():
    return Allocation((frozenset({0, 1}), frozenset({3}), frozenset({4})), frozenset({2}))


def test_move_rebuilds_only_the_touched_parts():
    alloc = _three_agents()
    # o1 goes back to the pool
    moved = alloc.move([(1, 1, 0)])
    assert moved == Allocation(
        (frozenset({0}), frozenset({3}), frozenset({4})), frozenset({1, 2})
    )
    assert moved.bundles[1] is alloc.bundles[1] and moved.bundles[2] is alloc.bundles[2]
    # a path ending at a held item: agent 1 takes o3 from agent 2, who takes
    # o1 from agent 1; the pool and agent 3 pass through
    swapped = alloc.move([(3, 2, 1), (1, 1, 2)])
    assert swapped.bundles == (frozenset({0, 3}), frozenset({1}), frozenset({4}))
    assert swapped.unallocated is alloc.unallocated
    assert swapped.bundles[2] is alloc.bundles[2]
    # a pickup from the pool: only the pool and the gainer change
    picked = alloc.move([(2, 0, 3)])
    assert picked.bundles[2] == frozenset({2, 4}) and picked.unallocated == frozenset()
    assert all(new is old for new, old in zip(picked.bundles[:2], alloc.bundles))
    # no move: every part passes through
    same = alloc.move([])
    assert same == alloc and same.unallocated is alloc.unallocated
    assert all(new is old for new, old in zip(same.bundles, alloc.bundles))


@pytest.mark.parametrize(
    "moves, message",
    [
        # o3 is agent 2's; the self-move of o0 keeps agent 1's size in step,
        # so without the membership check o3 would end in two parts
        ([(3, 1, 3), (0, 1, 1)], "item 3 is not in part 1"),
        # o1 leaves agent 1 twice; the self-move of o0 keeps the sizes in
        # step, so without the check o1 would end in two parts
        ([(1, 1, 2), (1, 1, 3), (0, 1, 1)], "item 1 moves twice"),
        # o0 enters agent 1, which holds it: only the size check sees it
        ([(0, 1, 1)], "a moved item is already in part 1"),
        ([(2, 0, 4)], "item 2 moves between unknown parts"),
        ([(2, 0, -1)], "item 2 moves between unknown parts"),
        ([(5, 0, 1)], "item 5 is not in part 0"),  # there is no such item
    ],
)
def test_move_rejects_moves_that_break_the_cover(moves, message):
    with pytest.raises(ContractViolation, match=f"^{message}$"):
        _three_agents().move(moves)


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


@pytest.mark.parametrize("name", ["num_agents", "num_items", "c"])
@pytest.mark.parametrize("bad", [True, 1.5], ids=["bool", "float"])
def test_instance_rejects_sizes_that_are_not_ints(name, bad):
    # a bool or a float passes every range comparison, and a JSON file
    # written with one would not parse back
    sizes = {"num_agents": 1, "num_items": 2, "c": 1, name: bad}
    with pytest.raises(InvalidInstance, match=f"^{name} {bad!r} is not an integer$"):
        Instance(valuations=(Additive((0, 0)),), **sizes)


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
