from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manna import exchange, solver, yankee
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
    shortest_path_to_pool,
)
from manna.instgen import (
    SplitMix64,
    gen_capped_groups,
    gen_random_additive,
    graphic_matroid_rank_table,
)
from manna.solver import phase1
from manna.valuations import Additive
from support import (
    exhaustive_least_key,
    full_scan_f_set,
    full_scan_unweighted_adjacency,
    full_scan_weighted_adjacency,
    suite_instances,
)


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


def test_augment_catches_a_path_holder_left_unclean():
    # agent 1 takes o0 from agent 2, who receives o1 along the path; agent 2
    # counts o1 at 0, so its counted bundle is no longer clean
    inst = Instance(2, 3, 2, (Additive((2, 2, 2)), Additive((2, 0, 0))))
    xc = Allocation.from_bundles([set(), {0}], 3)
    x0 = Allocation.empty(2, 3)
    forced = AugmentingPath((0, 1), PARETO, 1, 0, 4)
    with pytest.raises(CleannessViolation, match="agent 2: xc bundle not clean"):
        augment(inst, xc, x0, forced)
    nxc, nx0 = augment(inst, xc, x0, forced, check=False)
    assert nxc.bundles == (frozenset({0}), frozenset({1}))
    assert clean_state_violations(inst, nxc, nx0, [1]) == []


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


def _quotient_sets(graph):
    return (
        graph.node_of,
        {node: set(items) for node, items in graph.members.items()},
        {v: set(nodes) for v, nodes in graph.reverse.items()},
    )


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_INSTANCES))
def test_incremental_graph_equals_fresh_build(monkeypatch, name):
    inst = EQUIVALENCE_INSTANCES[name]()
    graphs = _phase2_graphs(monkeypatch, inst)
    assert len(graphs) > 10
    carried = [_quotient_sets(g) for g in graphs]
    for g, quotient in zip(graphs, carried):
        fresh = build_weighted_graph(inst, g.xc, g.x0)
        assert g.dump() == fresh.dump()
        assert g.adjacency == fresh.adjacency
        assert g.owner == fresh.owner
        # the quotient carried over from the previous graph is a fresh one
        assert quotient == _quotient_sets(fresh)
        assert set(g.node_of) == set(g.adjacency)
        for node, items in g.members.items():
            assert list(items) == sorted(items)
            assert all(g.node_of[o] == node for o in items)
            assert len({id(g.adjacency[o]) for o in items}) == 1
    # building the next graph left every earlier one as it was
    assert carried == [_quotient_sets(g) for g in graphs]
    kinds = {node < 0 for g in graphs for node in g.members}
    assert kinds == ({True} if name.startswith("additive") else {True, False})


def graphic_matroid_instance(n: int, m: int, seed: int) -> Instance:
    """n agents, c=1, each valuing m items by the graphic-matroid rank of a
    random m-edge multigraph on five vertices."""
    rng = SplitMix64(seed)
    tables = []
    for _ in range(n):
        edges = []
        for _ in range(m):
            u = rng.below(5)
            edges.append((u, (u + 1 + rng.below(4)) % 5))
        tables.append(graphic_matroid_rank_table(m, edges))
    return Instance(n, m, 1, tuple(tables))


FULL_SCAN_INSTANCES = {
    "additive_8x40_s0": lambda: gen_random_additive(8, 40, 2, (1, 1, 2), 0),
    "capped_6x30_s0": lambda: gen_capped_groups(6, 30, 2, (1, 3), (1, 3), 0),
    "capped_32x160_s0": lambda: gen_capped_groups(32, 160, 2, (1, 3), (1, 3), 0),
    "graphic_3x10_s0": lambda: graphic_matroid_instance(3, 10, 0),
    "graphic_4x10_s1": lambda: graphic_matroid_instance(4, 10, 1),
}


def _per_item_lists(allocation, adjacency):
    """Whether some agent's held items have different out-lists."""
    return any(
        len({adjacency.get(o) for o in allocation.bundle(j)}) > 1
        for j in range(1, allocation.num_agents + 1)
    )


@pytest.mark.parametrize("name", sorted(FULL_SCAN_INSTANCES))
def test_builders_equal_full_scan(monkeypatch, name):
    inst = FULL_SCAN_INSTANCES[name]()
    adjacencies = []
    build = exchange.unweighted_adjacency

    def recording(allocation, oracles, candidates, previous=None):
        adjacency, desired = build(allocation, oracles, candidates, previous)
        adjacencies.append((allocation, oracles, adjacency, desired))
        return adjacency, desired

    monkeypatch.setattr(exchange, "unweighted_adjacency", recording)
    graphs = _phase2_graphs(monkeypatch, inst)
    assert len(adjacencies) > 5 and len(graphs) > 5
    for allocation, oracles, adjacency, desired in adjacencies:
        assert adjacency == full_scan_unweighted_adjacency(allocation, oracles)
        assert desired == tuple(
            full_scan_f_set(allocation, oracles[i - 1], i, 1)
            for i in range(1, allocation.num_agents + 1)
        )
    for g in graphs:
        assert g.adjacency == full_scan_weighted_adjacency(inst, g.xc, g.x0)
        for i in inst.agents:
            want = full_scan_f_set(g.xc, inst.valuation(i), i, inst.c)
            assert f_set(inst, g.xc, i, inst.c, g.candidates[i - 1]) == want
            assert f_set(inst, g.xc, i, inst.c) == want
    # the per-item recheck of the items not sure on the whole bundle runs:
    # additive marginals never fall, and threshold-0 marginals of a matroid
    # rank never fall below the threshold
    phase1_varied = any(_per_item_lists(a, adj) for a, _o, adj, _d in adjacencies)
    assert phase1_varied == name.startswith("capped")
    phase2_varied = any(_per_item_lists(g.xc, g.adjacency) for g in graphs)
    assert phase2_varied == (not name.startswith("additive"))


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
    additive = gen_random_additive(8, 40, 2, (1, 1, 2), 1)
    capped = gen_capped_groups(6, 30, 2, (1, 3), (1, 3), 0)
    # additive agents' items always share a node; the capped graph mixes
    # shared-list nodes with one-item nodes
    for inst, kinds in ((additive, {True}), (capped, {True, False})):
        graphs = _phase2_graphs(monkeypatch, inst)
        g = graphs[len(graphs) // 2]
        assert g.adjacency
        assert {node < 0 for node in g.members} == kinds
        for target_agent in range(0, inst.num_agents + 1):
            targets = g.xc.bundle(target_agent)
            expected = {
                o
                for o in inst.items
                if _bfs_length(g.adjacency, {o}, targets) is not None
            }
            assert g.reaching(targets) == expected
            assert g.reaching(targets) is g.reaching(targets)  # cached per set


def _reference_pool_path(allocation, adjacency, sources):
    """What ``shortest_path_to_pool`` must return: the exhaustive search's
    least key, every edge weighing 1 and the pool as targets."""
    starts = {o: (0, 0, (o,)) for o in sources}

    def neighbors(u):
        for v in adjacency.get(u, ()):
            yield v, 1

    key = exhaustive_least_key(starts, neighbors, allocation.unallocated)
    return None if key is None else key[2]


def test_bounded_search_equals_exhaustive_search(monkeypatch, named_fixtures):
    outcomes = []
    instances = dict(named_fixtures)
    instances.update((name, make()) for name, make in EQUIVALENCE_INSTANCES.items())
    # every shortest_path_to_pool call of phase 1
    breadth_first = yankee.shortest_path_to_pool

    def checked_pool_path(allocation, adjacency, sources):
        path = breadth_first(allocation, adjacency, sources)
        assert path == _reference_pool_path(allocation, adjacency, sources)
        if sources:
            outcomes.append(path is not None)
        return path

    phase1_instances = [inst for _family, inst in suite_instances()]
    phase1_instances += instances.values()
    with monkeypatch.context() as patch:
        patch.setattr(yankee, "shortest_path_to_pool", checked_pool_path)
        for inst in phase1_instances:
            try:
                phase1(inst)
            except InvalidInstance:
                continue  # non_on is not order-neutral
    assert sum(outcomes) > 2000 and outcomes.count(False) > 500
    # every min_weight_path of every phase-2 state, unfiltered so that the
    # searches that find nothing run too
    outcomes.clear()
    bounded = exchange._run_dijkstra

    def checked(starts, neighbors, targets, node_of):
        key = bounded(starts, neighbors, targets, node_of)
        assert key == exhaustive_least_key(starts, neighbors, targets)
        if starts:
            outcomes.append(key is not None)
        return key

    monkeypatch.setattr(exchange, "_run_dijkstra", checked)
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


def _pickup(owner, v):
    return 1 + (owner + v) % 2


@st.composite
def quotient_searches(draw):
    """A small weighted digraph shaped like a phase-2 exchange graph, with
    its node map: each agent's held items either share one out-list tuple
    (node ``-agent``) or have lists of their own (node ``item``); out-lists
    avoid the holder's own items, pool items have none, edges weigh 1 or 2,
    and an edge into a target adds a pickup cost that depends on the owner
    of the item it leaves, as in a Pareto search."""
    m = draw(st.integers(6, 12))
    item = st.integers(0, m - 1)
    n = draw(st.integers(1, 3))
    owner = [draw(st.integers(0, n)) for _ in range(m)]  # 0: the pool
    adjacency, node_of = {}, {}

    def out_list(held):
        weights = draw(st.dictionaries(item, st.integers(1, 2), max_size=3))
        return tuple(sorted((v, w) for v, w in weights.items() if v not in held))

    for j in range(1, n + 1):
        held = [o for o in range(m) if owner[o] == j]
        if draw(st.booleans()):
            shared = out_list(held)
            lists = {o: shared for o in held} if shared else {}
            node_of.update((o, -j) for o in lists)
        else:
            lists = {o: out for o in held if (out := out_list(held))}
            node_of.update((o, o) for o in lists)
        adjacency.update(lists)
    targets = draw(st.frozensets(item, min_size=1, max_size=3))
    sources = draw(st.frozensets(item, min_size=1, max_size=3))
    starts = {o: (draw(st.integers(0, 2)), 0, (o,)) for o in sorted(sources)}

    def neighbors(u):
        for v, w in adjacency.get(u, ()):
            yield v, w + (_pickup(owner[u], v) if v in targets else 0)

    return starts, neighbors, targets, node_of


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(quotient_searches())
def test_one_expansion_search_equals_exhaustive_search(search):
    starts, neighbors, targets, node_of = search
    assert exchange._run_dijkstra(starts, neighbors, targets, node_of) == (
        exhaustive_least_key(starts, neighbors, targets)
    )


def test_one_expansion_search_tie_break_between_members():
    # o2 and o3 share agent 1's out-list; both are reached at cost 2 in one
    # edge and both reach the target o7 at cost 4 in two.  The path through
    # o0 is lexicographically smaller, so o3 is popped and expanded first
    # although o2 is the smaller item, and o2 is never expanded.
    adjacency = {0: ((3, 2),), 1: ((2, 2),), 2: ((7, 2),), 3: ((7, 2),)}
    adjacency[2] = adjacency[3]
    node_of = {0: 0, 1: 1, 2: -1, 3: -1}
    expanded = []

    def neighbors(u):
        expanded.append(u)
        return adjacency.get(u, ())

    starts = {0: (0, 0, (0,)), 1: (0, 0, (1,))}
    key = exchange._run_dijkstra(starts, neighbors, frozenset({7}), node_of)
    assert key == (4, 2, (0, 3, 7))
    assert expanded == [0, 1, 3]
    assert exhaustive_least_key(starts, neighbors, frozenset({7})) == key


@st.composite
def pool_searches(draw):
    """A small digraph shaped like an unweighted exchange graph: ascending
    edge lists, no self-loops, pool items without out-edges; cycles, sources
    in the pool, sources reachable from other sources and pools that no
    source reaches all occur."""
    m = draw(st.integers(6, 12))
    item = st.integers(0, m - 1)
    pool = draw(st.frozensets(item, min_size=1, max_size=2))
    adjacency = {}
    for u in sorted(set(range(m)) - pool):
        out = sorted(draw(st.sets(item, max_size=3)) - {u})
        if out:
            adjacency[u] = out
    sources = draw(st.frozensets(item, min_size=2, max_size=3))
    allocation = Allocation.from_bundles([set(range(m)) - pool], m)
    return allocation, adjacency, sources


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(pool_searches())
def test_shortest_path_to_pool_equals_exhaustive_search(search):
    allocation, adjacency, sources = search
    assert shortest_path_to_pool(allocation, adjacency, sources) == (
        _reference_pool_path(allocation, adjacency, sources)
    )


@pytest.mark.parametrize(
    "sources, adjacency, pool, expected",
    [
        # the frontier is walked in discovery order (5 before 3), not item order
        ({0, 1}, {0: [5], 1: [3], 5: [9], 3: [8]}, {8, 9}, (0, 5, 9)),
        # an item keeps the first parent that reached it
        ({0, 2}, {0: [4], 2: [4], 4: [7]}, {7}, (0, 4, 7)),
    ],
)
def test_shortest_path_to_pool_tie_breaks(sources, adjacency, pool, expected):
    allocation = Allocation.from_bundles([set(range(10)) - pool], 10)
    sources = frozenset(sources)
    assert shortest_path_to_pool(allocation, adjacency, sources) == expected
    assert _reference_pool_path(allocation, adjacency, sources) == expected
