from collections import deque

import pytest

from manna import exchange, solver
from manna.core import Allocation, Instance
from manna.errors import CleannessViolation, ContractViolation, InvalidInstance
from manna.exchange import (
    EXCHANGE,
    PARETO,
    AugmentingPath,
    WeightedExchangeGraph,
    augment,
    build_weighted_graph,
    clean_state_violations,
    f_set,
    min_weight_path,
)
from manna.instgen import gen_capped_groups, gen_random_additive
from manna.solver import phase1
from manna.valuations import Additive
from support import exhaustive_least_key, suite_instances


def classic_state(named_fixtures):
    inst = named_fixtures["ex_classic"]
    xc = Allocation.empty(1, 2)
    x0 = Allocation.from_bundles([{0}], 2)
    return inst, xc, x0


def test_f_set_examples(named_fixtures):
    inst, xc, _ = classic_state(named_fixtures)
    assert f_set(inst, xc, 1, inst.c) == frozenset({0, 1})
    ex2 = named_fixtures["ex2"]
    assert f_set(ex2, Allocation.empty(2, 4), 2, ex2.c) == frozenset()
    ef1 = named_fixtures["ex_ef1"]
    xc2 = Allocation.from_bundles([set(), {0}], 6)
    assert f_set(ef1, xc2, 2, ef1.c) == frozenset({1})


def test_build_weighted_graph_examples(named_fixtures):
    inst, xc, x0 = classic_state(named_fixtures)
    g = build_weighted_graph(inst, xc, x0)
    assert list(g.edges()) == []
    ex2 = named_fixtures["ex2"]
    xc2 = Allocation.from_bundles([{0}, set()], 4)
    x02 = Allocation.from_bundles([{1}, set()], 4)
    g2 = build_weighted_graph(ex2, xc2, x02)
    assert list(g2.edges()) == [(0, 1, 1)]
    assert g2.dump() == "o0 -> o1 w=1"
    empty = build_weighted_graph(ex2, Allocation.empty(2, 4), Allocation.empty(2, 4))
    assert list(empty.edges()) == []


def test_build_weighted_graph_asserts_preconditions(named_fixtures):
    inst = named_fixtures["ex_classic"]
    # {o0, o1} is not clean at threshold 0 for this agent
    xc = Allocation.from_bundles([{1}], 2)
    x0 = Allocation.from_bundles([{0}], 2)
    with pytest.raises(ContractViolation):
        build_weighted_graph(inst, xc, x0)


def test_min_weight_path_prefers_absorbable_pickup(named_fixtures):
    inst, xc, x0 = classic_state(named_fixtures)
    g = build_weighted_graph(inst, xc, x0)
    path = min_weight_path(g, f_set(inst, xc, 1, inst.c), PARETO, 1)
    assert path.items == (0,)
    assert path.doubled_weight == 1
    assert path.kind == PARETO and path.target == 0


def test_min_weight_path_no_sources(named_fixtures):
    inst, xc, x0 = classic_state(named_fixtures)
    g = build_weighted_graph(inst, xc, x0)
    assert min_weight_path(g, frozenset(), PARETO, 1) is None


def test_min_weight_path_lexicographic_tie(named_fixtures):
    ex2 = named_fixtures["ex2"]
    state = phase1(ex2)
    g = build_weighted_graph(ex2, state.xc, state.x0)
    path = min_weight_path(g, f_set(ex2, state.xc, 1, ex2.c), PARETO, 1)
    assert path.items == (0,)
    assert path.doubled_weight == 2  # o0 sits in the other agent's zero bundle


def test_augment_good_path(named_fixtures):
    inst, xc, x0 = classic_state(named_fixtures)
    g = build_weighted_graph(inst, xc, x0)
    path = min_weight_path(g, f_set(inst, xc, 1, inst.c), PARETO, 1)
    nxc, nx0 = augment(inst, xc, x0, path)
    assert nxc.bundle(1) == frozenset({0})
    assert nx0.bundle(1) == frozenset()
    assert clean_state_violations(inst, nxc, nx0) == []


def test_augment_forced_bad_path_is_caught(named_fixtures):
    # regression for why edge weights exist: grabbing the pool item keeps the
    # zero-bundle item stranded and breaks cleanness of the union
    inst, xc, x0 = classic_state(named_fixtures)
    forced = AugmentingPath((1,), PARETO, 1, 0, 2)
    with pytest.raises(CleannessViolation):
        augment(inst, xc, x0, forced)
    nxc, nx0 = augment(inst, xc, x0, forced, check=False)
    assert nxc.bundle(1) == frozenset({1})
    assert nx0.bundle(1) == frozenset({0})
    assert clean_state_violations(inst, nxc, nx0) != []


def test_augment_exchange_size_bookkeeping():
    inst = Instance(2, 2, 2, (Additive((2, 0)), Additive((2, 2))))
    xc = Allocation.from_bundles([set(), {0, 1}], 2)
    x0 = Allocation.empty(2, 2)
    g = build_weighted_graph(inst, xc, x0)
    path = min_weight_path(g, f_set(inst, xc, 1, inst.c), EXCHANGE, 1, target_agent=2)
    assert path.items == (0,)
    nxc, _ = augment(inst, xc, x0, path)
    assert (len(nxc.bundle(1)), len(nxc.bundle(2))) == (1, 1)


def _bfs_length(adjacency, sources, targets):
    dist = {o: 0 for o in sources}
    queue = deque(sorted(sources))
    while queue:
        u = queue.popleft()
        for v, _w in adjacency.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    hits = [dist[t] for t in targets if t in dist]
    return min(hits) if hits else None


def test_pareto_paths_are_unweighted_shortest_and_existence_matches():
    checked = 0
    for family, inst in suite_instances():
        if checked >= 60:
            break
        checked += 1
        state = phase1(inst)
        allocated = None
        while True:
            g = build_weighted_graph(inst, state.xc, state.x0, check=False)
            found = None
            for i in inst.agents:
                sources = f_set(inst, state.xc, i, inst.c)
                path = min_weight_path(g, sources, PARETO, i)
                bfs = _bfs_length(g.adjacency, sources, state.xc.unallocated)
                # weighted reachability agrees with unweighted reachability
                assert (path is None) == (bfs is None)
                if path is not None:
                    # least-weight path is still an unweighted shortest path
                    assert len(path.items) - 1 == bfs
                    found = (i, path)
                    break
            if found is None:
                break
            count = sum(
                len(state.xc.bundle(h) | state.x0.bundle(h)) for h in inst.agents
            )
            state.xc, state.x0 = augment(inst, state.xc, state.x0, found[1])
            new_count = sum(
                len(state.xc.bundle(h) | state.x0.bundle(h)) for h in inst.agents
            )
            assert new_count >= count  # allocated mass never shrinks
            allocated = new_count
        assert allocated is None or allocated <= inst.num_items


def _phase2_graphs(monkeypatch, inst):
    """Solve ``inst`` and return every graph phase 2 built, in order."""
    graphs = []
    build = solver.build_weighted_graph

    def recording(*args, **kwargs):
        graphs.append(build(*args, **kwargs))
        return graphs[-1]

    with monkeypatch.context() as patch:
        patch.setattr(solver, "build_weighted_graph", recording)
        report = solver.solve(inst)
    # one graph for the seeded state, then one after each augmentation
    assert len(graphs) == 1 + report.pareto_augmentations + report.exchange_augmentations
    return graphs


EQUIVALENCE_INSTANCES = {
    "additive_8x40_s0": lambda: gen_random_additive(8, 40, 2, (1, 1, 2), 0),
    "capped_6x30_s0": lambda: gen_capped_groups(6, 30, 2, (1, 3), (1, 3), 0),
}


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_INSTANCES))
def test_incremental_graph_equals_fresh_build(monkeypatch, name):
    inst = EQUIVALENCE_INSTANCES[name]()
    graphs = _phase2_graphs(monkeypatch, inst)
    assert len(graphs) > 10
    for g in graphs:
        fresh = build_weighted_graph(inst, g.xc, g.x0)
        assert g.dump() == fresh.dump()
        assert g.adjacency == fresh.adjacency
        assert g.owner == fresh.owner


def test_build_weighted_graph_recomputes_agents_whose_x0_changed(named_fixtures):
    ex2 = named_fixtures["ex2"]
    xc = Allocation.from_bundles([{0}, set()], 4)
    g = build_weighted_graph(ex2, xc, Allocation.from_bundles([{1}, set()], 4))
    assert g.dump() == "o0 -> o1 w=1"
    bare = Allocation.empty(2, 4)
    assert build_weighted_graph(ex2, xc, bare, previous=g).dump() == "o0 -> o1 w=2"
    assert build_weighted_graph(ex2, bare, bare, previous=g).dump() == ""


def test_build_weighted_graph_rejects_previous_of_another_instance(named_fixtures):
    ex2 = named_fixtures["ex2"]
    state = phase1(ex2)
    other = build_weighted_graph(
        named_fixtures["ex_classic"], Allocation.empty(1, 2), Allocation.empty(1, 2)
    )
    with pytest.raises(ContractViolation):
        build_weighted_graph(ex2, state.xc, state.x0, previous=other)


def _every_search(graph):
    inst = graph.inst
    for i in inst.agents:
        sources = f_set(inst, graph.xc, i, inst.c)
        yield min_weight_path(graph, sources, PARETO, i)
        for j in inst.agents:
            if j != i:
                yield min_weight_path(graph, sources, EXCHANGE, i, target_agent=j)


def test_reachability_filter_changes_no_search(monkeypatch, named_fixtures):
    instances = dict(named_fixtures)
    instances.update((name, make()) for name, make in EQUIVALENCE_INSTANCES.items())
    found = missing = 0
    for name, inst in sorted(instances.items()):
        try:
            graphs = _phase2_graphs(monkeypatch, inst)
        except InvalidInstance:
            continue  # rejected before phase 2 (non_on is not order-neutral)
        for g in graphs:
            filtered = list(_every_search(g))
            with monkeypatch.context() as patch:
                patch.setattr(
                    WeightedExchangeGraph,
                    "reaching",
                    lambda self, targets: frozenset(self.inst.items),
                )
                unfiltered = list(_every_search(g))
            assert filtered == unfiltered, name
            found += sum(p is not None for p in filtered)
            missing += sum(p is None for p in filtered)
    assert found > 100 and missing > 1000


def test_reaching_is_reverse_reachability(monkeypatch):
    inst = gen_random_additive(8, 40, 2, (1, 1, 2), 1)
    graphs = _phase2_graphs(monkeypatch, inst)
    g = graphs[len(graphs) // 2]
    assert g.adjacency
    for target_agent in range(0, inst.num_agents + 1):
        targets = g.xc.bundle(target_agent)
        expected = {
            o for o in inst.items if _bfs_length(g.adjacency, {o}, targets) is not None
        }
        assert g.reaching(targets) == expected
        assert g.reaching(targets) is g.reaching(targets)  # cached per target set


def test_bounded_search_equals_exhaustive_search(monkeypatch, named_fixtures):
    outcomes = []
    bounded = exchange._run_dijkstra

    def checked(starts, neighbors, targets):
        key = bounded(starts, neighbors, targets)
        assert key == exhaustive_least_key(starts, neighbors, targets)
        if starts:
            outcomes.append(key is not None)
        return key

    monkeypatch.setattr(exchange, "_run_dijkstra", checked)
    instances = dict(named_fixtures)
    instances.update((name, make()) for name, make in EQUIVALENCE_INSTANCES.items())
    # every shortest_path_to_pool call of phase 1
    for inst in [inst for _family, inst in suite_instances()] + list(instances.values()):
        try:
            phase1(inst)
        except InvalidInstance:
            continue  # non_on is not order-neutral
    assert sum(outcomes) > 2000 and outcomes.count(False) > 500
    # every min_weight_path of every phase-2 state, unfiltered so that the
    # searches that find nothing run too
    outcomes.clear()
    monkeypatch.setattr(
        WeightedExchangeGraph, "reaching", lambda self, targets: frozenset(self.inst.items)
    )
    for inst in instances.values():
        try:
            graphs = _phase2_graphs(monkeypatch, inst)
        except InvalidInstance:
            continue
        for g in graphs:
            list(_every_search(g))
    assert sum(outcomes) > 1000 and outcomes.count(False) > 2000
