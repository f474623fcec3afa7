import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from manna.core import Allocation, Instance
from manna.errors import ContractViolation
from manna.fairness import check_ef1, check_mms, check_prop1, lorenz_geq, p_mean_welfare
from manna.instgen import SplitMix64
from manna.oracle import brute_leximin, brute_lorenz_dominating, brute_mms
from manna.solver import solve
from manna.valuations import Additive
from support import permute_additive, permute_allocation


def test_prop1_on_mms_fixture(named_fixtures):
    inst = named_fixtures["ex_mms"]
    assert inst.value(1, range(10)) == 0
    assert inst.value(2, range(10)) == -6
    report = solve(inst)
    assert all(check_prop1(inst, report.allocation).values())


def test_prop1_single_agent_trivial():
    inst = Instance(1, 3, 2, (Additive((2, -1, -1)),))
    full = Allocation((frozenset(range(3)),), frozenset())
    assert check_prop1(inst, full) == {1: True}


def test_prop1_requires_complete_allocation(named_fixtures):
    with pytest.raises(ContractViolation):
        check_prop1(named_fixtures["ex2"], Allocation.empty(2, 4))


def test_ef1_violation_on_ef1_fixture(named_fixtures):
    inst = named_fixtures["ex_ef1"]
    report = solve(inst)
    own = inst.value(1, report.allocation.bundle(1))
    rival = inst.value(1, report.allocation.bundle(2))
    assert own == 2 * inst.c - 1 == 3
    assert rival == 3 * inst.c == 6
    verdicts = check_ef1(inst, report.allocation)
    assert verdicts[(1, 2)] is False
    assert verdicts[(2, 1)] is True


def test_ef1_holds_on_small_additive_leximin():
    inst = Instance(2, 2, 2, (Additive((2, -1)), Additive((2, -1))))
    report = solve(inst)
    assert report.sorted_utilities == brute_leximin(inst)[0] == (0, 1)
    assert all(check_ef1(inst, report.allocation).values())


def test_ef1_vacuous_with_no_items():
    inst = Instance(2, 0, 1, (Additive(()), Additive(())))
    full = Allocation((frozenset(), frozenset()), frozenset())
    assert check_ef1(inst, full) == {(1, 2): True, (2, 1): True}


def test_check_mms(named_fixtures):
    inst = named_fixtures["ex_mms"]
    report = solve(inst)
    shares = [brute_mms(inst, i) for i in inst.agents]
    verdicts = check_mms(inst, report.allocation, shares)
    assert verdicts[1] is False  # utility 0 against a share of 1
    single = Instance(1, 2, 1, (Additive((1, -1)),))
    full = Allocation((frozenset({0, 1}),), frozenset())
    assert check_mms(single, full, [single.value(1, {0, 1})]) == {1: True}


# complete allocations that do not fit ex2's 2 agents and 4 items
MISFITS = {
    "extra bundle": Allocation((frozenset(), frozenset(), frozenset(range(4))), frozenset()),
    "missing bundle": Allocation((frozenset(range(4)),), frozenset()),
    "extra item": Allocation((frozenset({0, 1}), frozenset({2, 3, 4})), frozenset()),
}
CHECKERS = {
    "prop1": check_prop1,
    "ef1": check_ef1,
    "mms": lambda inst, allocation: check_mms(inst, allocation, [0, 0]),
    "lorenz": brute_lorenz_dominating,
}


@pytest.mark.parametrize("misfit", sorted(MISFITS))
@pytest.mark.parametrize("checker", sorted(CHECKERS))
def test_checkers_reject_an_allocation_that_does_not_fit(named_fixtures, checker, misfit):
    with pytest.raises(ContractViolation, match="does not match instance"):
        CHECKERS[checker](named_fixtures["ex2"], MISFITS[misfit])


@pytest.mark.parametrize("shares", [[], [0], [0, 0, 0]], ids=len)
def test_check_mms_takes_one_share_per_agent(named_fixtures, shares):
    ex2 = named_fixtures["ex2"]
    report = solve(ex2)
    with pytest.raises(ContractViolation, match=f"^{len(shares)} shares for 2 agents$"):
        check_mms(ex2, report.allocation, shares)


def test_fairness_verdicts_invariant_under_relabeling():
    inst = Instance(2, 4, 2, (Additive((2, 0, -1, 2)), Additive((0, 2, -1, -1))))
    report = solve(inst)
    perm = [2, 0, 3, 1]
    inst_p = permute_additive(inst, perm)
    alloc_p = permute_allocation(report.allocation, perm)
    assert check_prop1(inst, report.allocation) == check_prop1(inst_p, alloc_p)
    assert check_ef1(inst, report.allocation) == check_ef1(inst_p, alloc_p)


def test_lorenz_geq_examples():
    assert lorenz_geq((0, 2), (-1, 3))
    assert not lorenz_geq((1, 1), (0, 3))
    with pytest.raises(ContractViolation):
        lorenz_geq((1,), (1, 2))


@given(st.data())
def test_lorenz_geq_matches_prefix_definition(data):
    n = data.draw(st.integers(1, 5))
    vec = st.tuples(*[st.integers(-4, 4)] * n)
    a, b = sorted(data.draw(vec)), sorted(data.draw(vec))
    expected = all(
        sum(a[: k + 1]) >= sum(b[: k + 1]) for k in range(n)
    )
    assert lorenz_geq(a, b) == expected


def test_p_mean_welfare_examples():
    assert p_mean_welfare((2, 0), 0) == 0.0
    assert p_mean_welfare((2, 2), 1) == pytest.approx(2.0)
    assert p_mean_welfare((-1, 3), 0) is None
    assert p_mean_welfare((-1, 3), 1) is None
    assert p_mean_welfare((2, 8), 0) == pytest.approx(4.0)  # geometric mean
    assert p_mean_welfare((1, 4), -1) == pytest.approx(1.6)  # harmonic mean
    assert p_mean_welfare((3, 0), -2) == 0.0
    with pytest.raises(ContractViolation):
        p_mean_welfare((1, 2), 2)
    with pytest.raises(ContractViolation):
        p_mean_welfare((), 1)


def test_p_mean_monotone_in_p():
    rng = SplitMix64(3)
    for _ in range(30):
        u = tuple(1 + rng.below(9) for _ in range(3))
        values = [p_mean_welfare(u, p) for p in (-2, -1, 0, 0.5, 1)]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-9
        assert min(u) - 1e-9 <= values[0] and values[-1] <= max(u) + 1e-9
