import pytest

from manna.core import Allocation, Instance
from manna.errors import BudgetExceeded, ContractViolation
from manna.oracle import (
    brute_leximin,
    brute_lorenz_dominating,
    brute_max_usw,
    brute_mms,
    compare_domination,
    complete_utilities,
    enumeration_count,
)
from manna.solver import solve
from manna.threshold import TriDecomposition, decompose3
from manna.valuations import Additive


def test_brute_leximin_examples(named_fixtures):
    ex2 = named_fixtures["ex2"]
    assert brute_leximin(ex2)[0] == (0, ex2.c)
    assert brute_leximin(named_fixtures["ex_mms"])[0] == (0, 0)
    single = Instance(1, 2, 1, (Additive((1, -1)),))
    sorted_vec, witness = brute_leximin(single)
    assert sorted_vec == (0,)
    assert witness.is_complete


def test_brute_leximin_first_witness_is_canonical():
    inst = Instance(2, 3, 1, (Additive((0, 0, 0)), Additive((0, 0, 0))))
    _, witness = brute_leximin(inst)
    # every complete allocation ties; enumeration starts with everything on agent 1
    assert witness.bundle(1) == frozenset({0, 1, 2})


def test_brute_max_usw_examples(named_fixtures):
    assert brute_max_usw(named_fixtures["ex2"]) == named_fixtures["ex2"].c
    chores = Instance(2, 3, 1, (Additive((-1,) * 3), Additive((-1,) * 3)))
    assert brute_max_usw(chores) == -3
    assert brute_max_usw(named_fixtures["ex_ef1"]) == 6


def test_brute_mms_examples(named_fixtures):
    assert brute_mms(named_fixtures["ex_mms"], 1) == 1
    inst = Instance(2, 3, 2, (Additive((2, 2, -1)), Additive((2, 2, -1))))
    assert brute_mms(inst, 1) == 1  # best split: {o1} vs {o2, o3}
    single = Instance(1, 3, 2, (Additive((2, 0, -1)),))
    assert brute_mms(single, 1) == single.value(1, range(3))


@pytest.mark.parametrize("agent", [0, -1, 3])
def test_brute_mms_rejects_agents_outside_the_instance(agent):
    # agent 0 would read agent 2's valuation and agent 3 raise IndexError
    inst = Instance(2, 3, 2, (Additive((2, 2, -1)), Additive((2, 0, 0))))
    message = rf"^agent {agent} is not among the agents 1\.\.2$"
    with pytest.raises(ContractViolation, match=message):
        brute_mms(inst, agent)


def test_brute_lorenz_examples(named_fixtures):
    ex2 = named_fixtures["ex2"]
    report = solve(ex2)
    assert brute_lorenz_dominating(ex2, report.allocation)
    unbalanced = Allocation((frozenset({0, 1}), frozenset({2, 3})), frozenset())
    assert not brute_lorenz_dominating(ex2, unbalanced)
    single = Instance(1, 2, 1, (Additive((1, -1)),))
    full = Allocation((frozenset({0, 1}),), frozenset())
    assert brute_lorenz_dominating(single, full)
    with pytest.raises(ContractViolation):
        brute_lorenz_dominating(ex2, Allocation.empty(2, 4))


def test_budget_enforcement():
    inst = Instance(2, 4, 1, (Additive((0,) * 4), Additive((0,) * 4)))
    assert enumeration_count(inst) == 16
    with pytest.raises(BudgetExceeded):
        brute_leximin(inst, budget=10)
    with pytest.raises(BudgetExceeded):
        list(complete_utilities(inst, budget=15))
    assert brute_max_usw(inst, budget=16) == 0


def test_enumeration_is_deterministic(named_fixtures):
    ex2 = named_fixtures["ex2"]
    assert list(complete_utilities(ex2)) == list(complete_utilities(ex2))
    assert brute_leximin(ex2) == brute_leximin(ex2)


def _additive_dec(inst, bundles):
    X = Allocation.from_bundles(bundles, inst.num_items)
    return decompose3(inst, X), tuple(
        inst.value(i, X.bundle(i)) for i in inst.agents
    )


def test_compare_domination_clause_a():
    inst = Instance(2, 2, 1, (Additive((1, 1)), Additive((1, 1))))
    dec_a, u_a = _additive_dec(inst, [{0, 1}, set()])
    dec_b, u_b = _additive_dec(inst, [{0}, {1}])
    # sorted c-part (1,1) beats (0,2)
    assert compare_domination(inst, dec_a, u_a, dec_b, u_b) == -1
    assert compare_domination(inst, dec_b, u_b, dec_a, u_a) == 1
    assert compare_domination(inst, dec_a, u_a, dec_a, u_a) == 0


def test_compare_domination_clause_b():
    # equal sorted c-parts (0, 1); the unsorted c-part vector breaks the tie
    inst = Instance(2, 2, 1, (Additive((1, 0)), Additive((0, 1))))
    dec_a, u_a = _additive_dec(inst, [{0, 1}, set()])  # c-part utilities (1, 0)
    dec_b, u_b = _additive_dec(inst, [set(), {0, 1}])  # c-part utilities (0, 1)
    assert compare_domination(inst, dec_a, u_a, dec_b, u_b) == 1
    assert compare_domination(inst, dec_b, u_b, dec_a, u_a) == -1


def test_compare_domination_clause_c():
    # identical c-part vectors; the full utility vector decides
    inst = Instance(2, 2, 1, (Additive((1, -1)), Additive((1, -1))))
    dec_a, u_a = _additive_dec(inst, [{0, 1}, set()])  # utilities (0, 0)
    dec_b, u_b = _additive_dec(inst, [{0}, {1}])       # utilities (1, -1)
    assert u_a == (0, 0) and u_b == (1, -1)
    assert compare_domination(inst, dec_a, u_a, dec_b, u_b) == -1
