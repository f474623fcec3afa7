import pytest
from hypothesis import given, settings

import manna.solver as solver_mod
from manna.core import Allocation, Instance
from manna.errors import CleannessViolation, InvalidInstance, UnsupportedValuation
from manna.instgen import gen_random_additive
from manna.exchange import (
    augment,
    build_weighted_graph,
    clean_state_violations,
    min_weight_path,
)
from manna.oracle import brute_leximin
from manna.solver import SolverState, phase1, phase2, phase3, solve
from manna.threshold import verify_tridecomposition
from manna.valuations import Additive, Explicit, GeneralAdditive
from support import reference_phase2, solver_instances


def test_phase1_examples(named_fixtures):
    state = phase1(named_fixtures["ex2"])
    assert state.x0.sizes() == (2, 2)
    assert state.xc.sizes() == (0, 0)

    empty = Instance(2, 0, 1, (Additive(()), Additive(())))
    state = phase1(empty)
    assert state.x0.sizes() == (0, 0)

    state = phase1(named_fixtures["ex_classic"])
    assert state.x0.bundle(1) == frozenset({0})


def test_phase2_example2(named_fixtures):
    inst = named_fixtures["ex2"]
    state = phase2(phase1(inst), inst)
    assert state.xc.bundle(1) == frozenset({0})
    assert state.xc.sizes() == (1, 0)


def test_phase2_no_c_marginals_is_a_noop():
    inst = Instance(2, 4, 3, (Additive((0, 0, -1, 0)), Additive((0, -1, 0, 0))))
    state = phase1(inst)
    before = (state.xc, state.x0)
    state = phase2(state, inst)
    assert (state.xc, state.x0) == before
    assert state.pareto_augmentations == 0
    assert state.exchange_augmentations == 0


def test_phase2_ef1_fixture_sizes(named_fixtures):
    inst = named_fixtures["ex_ef1"]
    state = phase2(phase1(inst), inst)
    assert state.xc.sizes() == (2, 2)
    assert state.xc.bundle(2) == frozenset({0, 1})


@settings(max_examples=200)
@given(solver_instances())
def test_two_stage_phase2_equals_rescanning_reference(inst):
    """The two-stage loop augments along the same paths, and reports the
    same, as a loop that seeks Pareto paths again after every exchange and
    filters every search by reachability; and every such rescan finds none."""
    lines, reference_lines, rescans = [], [], []
    report = solve(inst, trace=lines.append)
    state = reference_phase2(phase1(inst), inst, reference_lines.append, rescans)
    assert reference_lines == [line for line in lines if line.startswith("phase2")]
    assert phase3(state, inst) == report
    assert len(rescans) == report.exchange_augmentations
    assert rescans == [None] * len(rescans)


def test_an_agent_without_a_pareto_path_never_gets_one_in_the_pareto_stage():
    """What lets the Pareto stage retire agents: along the loop that
    rescans every agent after each Pareto augmentation and takes the first
    path, an agent whose pool search failed in one state has no path in any
    later state."""
    later_failures = []

    @settings(max_examples=200)
    @given(solver_instances())
    def check(inst):
        state, graph, failed = phase1(inst), None, set()
        while True:
            graph = build_weighted_graph(inst, state.xc, state.x0, check=False, previous=graph)
            paths = [min_weight_path(graph, graph.desired[i - 1], i, 0) for i in inst.agents]
            assert [paths[i - 1] for i in sorted(failed)] == [None] * len(failed)
            later_failures.append(len(failed))
            failed.update(i for i, path in zip(inst.agents, paths) if path is None)
            first = next((path for path in paths if path is not None), None)
            if first is None:
                return
            state.xc, state.x0 = augment(inst, state.xc, state.x0, first)

    check()
    assert sum(later_failures) > 500  # failed agents searched again, and failing


def test_phase2_rejects_a_pareto_path_left_after_the_exchange_stage(monkeypatch):
    # Agent 1's Pareto searches find nothing until the first exchange search,
    # so the Pareto stage ends with o2 in the pool, which agent 1 desires.
    # The exchange stage hands agent 1 o0 from agent 2, and then the Pareto
    # path to o2 is there to be found.
    inst = Instance(2, 4, 2, (Additive((2, 2, 2, 0)), Additive((2, 2, 0, 0))))
    search = solver_mod.min_weight_path
    exchanges = []

    def hobbled(graph, sources, agent, target):
        if target:
            exchanges.append(agent)
        elif agent == 1 and not exchanges:
            return None
        return search(graph, sources, agent, target)

    monkeypatch.setattr(solver_mod, "min_weight_path", hobbled)
    with pytest.raises(CleannessViolation, match=r"agent 1 .* path \[2\]"):
        phase2(phase1(inst), inst)
    assert exchanges == [1]  # one exchange search, which found o0


def test_phase3_example2_noop(named_fixtures):
    inst = named_fixtures["ex2"]
    report = solve(inst)
    assert report.utilities == (inst.c, 0)
    assert report.sorted_utilities == (0, inst.c)


def test_phase3_mms_fixture(named_fixtures):
    report = solve(named_fixtures["ex_mms"])
    assert report.utilities == (0, 0)


def test_phase3_universal_chores_tie_break():
    inst = Instance(2, 3, 1, (Additive((-1,) * 3), Additive((-1,) * 3)))
    report = solve(inst)
    # the higher index absorbs first, so agent 2 ends with two chores
    assert report.utilities == (-1, -2)
    assert report.sorted_utilities == brute_leximin(inst)[0]


def test_phase3_rejects_a_leftover_item_that_is_no_chore():
    # item 0 is worth 0 to the only agent, so phase 1 should have taken it
    inst = Instance(1, 2, 1, (Additive((0, -1)),))
    empty = Allocation.empty(1, 2)
    with pytest.raises(CleannessViolation, match="item 0 has marginal != -1 for agent 1"):
        phase3(SolverState(empty, empty), inst)


def test_phase3_rejects_a_zero_part_that_is_worth_more():
    # item 0 is worth c but sits in the zero-valued part
    inst = Instance(1, 1, 2, (Additive((2,)),))
    state = SolverState(Allocation.empty(1, 1), Allocation.from_bundles([{0}], 1))
    with pytest.raises(CleannessViolation, match=r"violates clause \(c\)"):
        phase3(state, inst)


def test_solve_examples(named_fixtures):
    report = solve(named_fixtures["ex_ef1"])
    assert report.sorted_utilities == (3, 3)
    single = Instance(1, 1, 1, (Additive((-1,)),))
    assert solve(single).utilities == (-1,)


def test_solve_is_deterministic(named_fixtures):
    for name in ("ex2", "ex_ef1", "ex_mms", "fig1"):
        inst = named_fixtures[name]
        assert solve(inst) == solve(inst)


def test_report_consistency(named_fixtures):
    inst = named_fixtures["ex_ef1"]
    report = solve(inst)
    assert report.allocation.is_complete
    assert report.usw == sum(report.utilities)
    dec = report.decomposition
    assert verify_tridecomposition(inst, report.allocation, dec) == (True, None)
    assert clean_state_violations(inst, dec.xc, dec.x0) == []
    n, m = inst.num_agents, inst.num_items
    assert report.pareto_augmentations <= m
    assert report.exchange_augmentations <= n**4 * m**3
    assert report.usw == sum(
        inst.c * len(dec.xc.bundle(i)) - len(dec.xm1.bundle(i)) for i in inst.agents
    )


def test_potential_strictly_decreases_across_exchanges(named_fixtures, monkeypatch):
    """The potential phase 2 keeps up to date from each exchange's source and
    target strictly decreases, and before and after every exchange it equals
    the potential recomputed from the counted sizes."""
    exchanged, augment_state = solver_mod._exchanged_potential, solver_mod.augment
    states, potentials = [], []  # potentials: (before, after) per exchange

    def recording_augment(inst_, xc, x0, path):
        new_xc, new_x0 = augment_state(inst_, xc, x0, path)
        states.append(new_xc)
        return new_xc, new_x0

    def recording_potential(potential, sizes, path):
        after = exchanged(potential, sizes, path)
        potentials.append((potential, after))
        # states[-2] is the state before this exchange: both instances make
        # Pareto augmentations first
        assert potential == solver_mod._scaled_potential(states[-2].sizes())
        assert after == solver_mod._scaled_potential(states[-1].sizes())
        return after

    monkeypatch.setattr(solver_mod, "augment", recording_augment)
    monkeypatch.setattr(solver_mod, "_exchanged_potential", recording_potential)
    for inst in (named_fixtures["ex_ef1"], gen_random_additive(8, 40, 2, (1, 1, 2), 0)):
        states.clear()
        potentials.clear()
        report = solve(inst)
        assert len(potentials) == report.exchange_augmentations > 1
        for before, after in potentials:
            assert after < before


def test_solver_rejects_general_additive():
    inst = Instance(1, 2, 1, (GeneralAdditive((5, -2)),))
    with pytest.raises(UnsupportedValuation):
        solve(inst)


def test_solver_rejects_non_order_neutral_table(named_fixtures):
    with pytest.raises(InvalidInstance):
        solve(named_fixtures["non_on"])


def test_gate_stops_at_the_first_failing_validator(monkeypatch):
    calls = []
    for name in ("validate_order_neutral", "validate_range"):
        check = getattr(solver_mod, name)
        counted = lambda *args, name=name, check=check: calls.append(name) or check(*args)
        monkeypatch.setattr(solver_mod, name, counted)
    supermodular = Instance(1, 2, 1, (Explicit(2, (0, 0, 0, 1)),))
    with pytest.raises(InvalidInstance) as err:
        solver_mod.check_supported(supermodular)
    assert str(err.value) == (
        "agent 1: submodularity check failed: marginal of item 0 grows from 0 to 1"
    )
    assert calls == []
    solver_mod.check_supported(Instance(1, 2, 1, (Explicit(2, (0, 1, 1, 1)),)))
    assert calls == ["validate_order_neutral", "validate_range"]


def test_trace_lines(named_fixtures):
    lines = []
    solve(named_fixtures["ex_ef1"], trace=lines.append)
    assert any(line.startswith("phase2 pareto i=") for line in lines)
    assert any(line.startswith("phase2 exchange i=") for line in lines)
    assert any(line.startswith("phase3 give o") for line in lines)
