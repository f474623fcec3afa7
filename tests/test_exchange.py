import dataclasses
import heapq
import types
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manna import dijkstra, exchange, solver, yankee
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
    shift_along_path,
)
from manna.instgen import gen_capped_groups, gen_random_additive
from manna.solver import phase1
from manna.valuations import Additive, CappedGroups
from manna.yankee import shortest_path_to_pool
from support import (
    exhaustive_least_key,
    full_scan_f_set,
    full_scan_unweighted_adjacency,
    full_scan_weighted_adjacency,
    graphic_matroid_instance,
    solver_instances,
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


def test_augment_catches_an_exchange_path_holder_left_unclean():
    # agent 1 takes o0 from agent 2, who takes o1 from the target, agent 3;
    # agent 2 counts o1 at 0.  Every size moves as an exchange's should, so
    # only the cleanness recheck of the path holders catches it.
    inst = Instance(
        3, 3, 2, (Additive((2, 0, 0)), Additive((2, 0, 0)), Additive((0, 2, 2)))
    )
    xc = Allocation.from_bundles([set(), {0}, {1, 2}], 3)
    x0 = Allocation.empty(3, 3)
    forced = AugmentingPath((0, 1), EXCHANGE, 1, 3, 4)
    unclean = "^agent 2: xc bundle not clean at threshold c$"
    with pytest.raises(CleannessViolation, match=unclean):
        augment(inst, xc, x0, forced)


def test_augment_exchange_size_bookkeeping():
    inst = Instance(2, 2, 2, (Additive((2, 0)), Additive((2, 2))))
    xc = Allocation.from_bundles([set(), {0, 1}], 2)
    x0 = Allocation.empty(2, 2)
    g = build_weighted_graph(inst, xc, x0)
    path = min_weight_path(g, f_set(inst, xc, 1, inst.c), EXCHANGE, 1, target_agent=2)
    assert path.items == (0,)
    nxc, _ = augment(inst, xc, x0, path)
    assert (len(nxc.bundle(1)), len(nxc.bundle(2))) == (1, 1)
    # forced paths of the wrong kind; sizes are checked before cleanness
    inst = Instance(2, 3, 2, (Additive((2, 0, 2)), Additive((2, 2, 0))))
    xc = Allocation.from_bundles([set(), {0, 1}], 3)
    x0 = Allocation.empty(2, 3)
    # ending in the pool, it leaves the target's bundle object in place
    forced = AugmentingPath((2,), EXCHANGE, 1, 2, 0)
    with pytest.raises(CleannessViolation, match="agent 2: .*size 2 .*expected 1"):
        augment(inst, xc, x0, forced)
    forced = AugmentingPath((0,), PARETO, 1, 0, 2)
    with pytest.raises(CleannessViolation, match="agent 2: .*size 1 .*expected 2"):
        augment(inst, xc, x0, forced)


@pytest.mark.parametrize(
    "items, gainer, bundles, rebuilt",
    [
        # a Pareto path: agent 5 takes o1 from agent 1, who takes o2 from
        # agent 2, who takes pool item o5
        ((1, 2, 5), 5, ({0, 2}, {5}, {3}, {4}, {1}), {1, 2, 5}),
        # an exchange path ending in agent 3's bundle, which loses o3
        ((1, 3), 5, ({0, 3}, {2}, set(), {4}, {1}), {1, 3, 5}),
        # a lone pool item: only the gainer's bundle changes
        ((6,), 2, ({0, 1}, {2, 6}, {3}, {4}, set()), {2}),
    ],
)
def test_shift_along_path_rebuilds_only_the_gainer_and_path_holders(
    items, gainer, bundles, rebuilt
):
    before = Allocation.from_bundles([{0, 1}, {2}, {3}, {4}, set()], 7)
    after = shift_along_path(before, items, gainer)
    assert after.bundles == bundles
    for k, (new, old) in enumerate(zip(after.bundles, before.bundles), start=1):
        assert (new is not old) == (k in rebuilt), k


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


def _phase2_graphs(monkeypatch, inst, check):
    """Solve ``inst``, calling ``check`` on every graph phase 2 builds right
    after it is built, before the next build advances it in place; return
    how many graphs there were."""
    built = 0
    build = solver.build_weighted_graph

    def recording(*args, **kwargs):
        nonlocal built
        graph = build(*args, **kwargs)
        check(graph)
        built += 1
        return graph

    with monkeypatch.context() as patch:
        patch.setattr(solver, "build_weighted_graph", recording)
        report = solver.solve(inst)
    # one graph for the seeded state, then one after each augmentation
    assert built == 1 + report.pareto_augmentations + report.exchange_augmentations
    return built


EQUIVALENCE_INSTANCES = {
    "additive_8x40_s0": lambda: gen_random_additive(8, 40, 2, (1, 1, 2), 0),
    "capped_6x30_s0": lambda: gen_capped_groups(6, 30, 2, (1, 3), (1, 3), 0),
}


def _assert_equals_fresh_build(g):
    """Every part of ``g`` -- edge lists with their weights and order, the
    quotient with its weights, and desired items -- equals a fresh build's.
    Reverse lists are compared where they are read: those of a graph that
    does not keep them (the exchange stage's) are compared as ``reaching``
    rebuilds them, on a copy that leaves ``g`` as it was."""
    fresh = build_weighted_graph(g.inst, g.xc, g.x0)
    assert g.dump() == fresh.dump()
    if not g.reverse_kept:
        g = dataclasses.replace(g)
        g.reaching(g.xc.unallocated)
        assert g.reverse_kept
    for name in (
        "adjacency", "node_of", "members", "weights", "reverse", "desired"
    ):
        assert getattr(g, name) == getattr(fresh, name), name


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_INSTANCES))
def test_incremental_graph_equals_fresh_build(monkeypatch, name):
    inst = EQUIVALENCE_INSTANCES[name]()
    kinds = set()
    kept = []  # per graph, whether it keeps reverse lists
    listed = []  # per graph, the agents with a shared out-list
    # per splice: the graph it builds, whether that graph keeps reverse
    # lists (the Pareto stage), and the agent whose out-list it emptied
    spliced = []
    splice = exchange._splice

    def recording_splice(graph, reverse, j, out, left, entered):
        splice(graph, reverse, j, out, left, entered)
        spliced.append((len(kept), reverse is not None, None if out else j))

    monkeypatch.setattr(exchange, "_splice", recording_splice)

    def check(g):
        kept.append(g.reverse_kept)
        listed.append({-node for node in g.members if node < 0})
        _assert_equals_fresh_build(g)
        assert set(g.node_of) == set(g.adjacency)
        for node, items in g.members.items():
            assert list(items) == sorted(items)
            assert all(g.node_of[o] == node for o in items)
            assert len({id(g.adjacency[o]) for o in items}) == 1
        kinds.update(node < 0 for node in g.members)

    assert _phase2_graphs(monkeypatch, inst, check) > 10
    assert kinds == ({True} if name.startswith("additive") else {True, False})
    # the Pareto stage keeps them in place; the exchange stage does not
    assert kept[0] and not kept[-1]
    if name.startswith("additive"):
        # every agent is fully declared, so both stages splice, and some
        # agent comes to hold all its candidates and later has a list again
        assert {stage for _k, stage, _j in spliced} == {True, False}
        emptied = [(k, j) for k, _stage, j in spliced if j is not None]
        assert any(j not in listed[k] for k, j in emptied)
        assert any(j in later for k, j in emptied for later in listed[k + 1 :])


def _recorded_marginals(monkeypatch):
    """Record each batched ``Additive`` or ``CappedGroups`` oracle call as
    ``(spec, bundle, items)``."""
    calls = []
    for family in (Additive, CappedGroups):

        def recording(self, items, candidates, _ask=family.marginals):
            calls.append((self, frozenset(items), tuple(candidates)))
            return _ask(self, items, candidates)

        monkeypatch.setattr(family, "marginals", recording)
    return calls


def test_additive_rebuilds_make_no_oracle_call(monkeypatch):
    """An additive agent declares every item bundle-independent, so after
    the candidates are found, once per agent in each phase, no builder call
    asks ``Additive.marginals`` anything."""
    calls = _recorded_marginals(monkeypatch)
    inst = EQUIVALENCE_INSTANCES["additive_8x40_s0"]()
    asked_by_fresh_build = []

    def check(g):
        if not asked_by_fresh_build:  # phase 2's fresh build
            asked_by_fresh_build.append(len(calls))

    assert _phase2_graphs(monkeypatch, inst, check) > 10
    assert asked_by_fresh_build == [len(calls)] == [2 * inst.num_agents]
    assert all(not bundle for _spec, bundle, _items in calls)


def test_capped_rebuilds_ask_only_about_grouped_items(monkeypatch):
    """A capped agent declares its ungrouped items bundle-independent, so no
    builder passes one to ``CappedGroups.marginals``; only the candidate
    scans, on the empty bundle, ask about them."""
    calls = _recorded_marginals(monkeypatch)
    inst = EQUIVALENCE_INSTANCES["capped_6x30_s0"]()
    _phase2_graphs(monkeypatch, inst, lambda g: None)
    asked = [(spec, items) for spec, bundle, items in calls if bundle]
    assert len(asked) > 10
    for spec, items in asked:
        grouped = frozenset().union(*(g.items for g in spec.groups))
        assert grouped.issuperset(items)


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
        len({tuple(adjacency.get(o, ())) for o in allocation.bundle(j)}) > 1
        for j in range(1, allocation.num_agents + 1)
    )


@pytest.mark.parametrize("name", sorted(FULL_SCAN_INSTANCES))
def test_builders_equal_full_scan(monkeypatch, name):
    inst = FULL_SCAN_INSTANCES[name]()
    # per build, whether some agent's held items have different out-lists
    phase1_varied, phase2_varied = [], []
    build = exchange.unweighted_adjacency

    def recording(allocation, oracles, candidates, dependent, previous=None):
        adjacency, desired = build(allocation, oracles, candidates, dependent, previous)
        assert adjacency == full_scan_unweighted_adjacency(allocation, oracles)
        assert desired == [
            full_scan_f_set(allocation, oracles[i - 1], i, 1)
            for i in range(1, allocation.num_agents + 1)
        ]
        phase1_varied.append(_per_item_lists(allocation, adjacency))
        return adjacency, desired

    def check(g):
        # a shared out-list is a list, edited in place; compare the edges
        edges = {u: tuple(out) for u, out in g.adjacency.items()}
        assert edges == full_scan_weighted_adjacency(inst, g.xc, g.x0)
        for i in inst.agents:
            want = full_scan_f_set(g.xc, inst.valuation(i), i, inst.c)
            assert g.desired[i - 1] == want
            assert f_set(inst, g.xc, i, inst.c, g.candidates[i - 1]) == want
            assert f_set(inst, g.xc, i, inst.c) == want
        phase2_varied.append(_per_item_lists(g.xc, g.adjacency))

    monkeypatch.setattr(exchange, "unweighted_adjacency", recording)
    assert _phase2_graphs(monkeypatch, inst, check) > 5
    assert len(phase1_varied) > 5
    # the per-item recheck of the items not sure on the whole bundle runs:
    # additive marginals never fall, and threshold-0 marginals of a matroid
    # rank never fall below the threshold
    assert any(phase1_varied) == name.startswith("capped")
    assert any(phase2_varied) == (not name.startswith("additive"))


def _rebuilt_iff_changed(before, after):
    for old, new in zip(before.bundles, after.bundles):
        assert (new is old) == (new == old)


@settings(derandomize=True, deadline=None, max_examples=250)
@given(solver_instances())
def test_graphs_advanced_in_place_equal_fresh_builds(inst):
    """After every augmentation of either phase, the graph advanced in place
    equals a fresh build of the same state, and exactly the bundles whose
    contents changed are new objects."""
    unweighted, weighted = exchange.unweighted_adjacency, solver.build_weighted_graph
    shift, augment_state = yankee.shift_along_path, solver.augment

    def checked_adjacency(allocation, oracles, candidates, dependent, previous=None):
        adjacency, desired = unweighted(
            allocation, oracles, candidates, dependent, previous
        )
        if previous is not None:
            assert adjacency is previous[1] and desired is previous[2]
        fresh = unweighted(allocation, oracles, candidates, dependent)
        assert (adjacency, desired) == fresh
        # a fresh build that asks about every candidate agrees
        asked = [frozenset(c) for c in candidates]
        assert fresh == unweighted(allocation, oracles, candidates, asked)
        return adjacency, desired

    def checked_graph(inst_, xc, x0, check=True, previous=None):
        g = weighted(inst_, xc, x0, check, previous)
        assert previous is None or g is previous
        _assert_equals_fresh_build(g)
        return g

    def checked_shift(allocation, items, gainer):
        after = shift(allocation, items, gainer)
        _rebuilt_iff_changed(allocation, after)
        return after

    def checked_augment(inst_, xc, x0, path, check=True):
        new_xc, new_x0 = augment_state(inst_, xc, x0, path, check)
        _rebuilt_iff_changed(xc, new_xc)
        _rebuilt_iff_changed(x0, new_x0)
        return new_xc, new_x0

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exchange, "unweighted_adjacency", checked_adjacency)
        patch.setattr(solver, "build_weighted_graph", checked_graph)
        patch.setattr(yankee, "shift_along_path", checked_shift)
        patch.setattr(solver, "augment", checked_augment)
        solver.solve(inst)


def test_build_weighted_graph_recomputes_agents_whose_x0_changed(named_fixtures):
    ex2 = named_fixtures["ex2"]
    xc = Allocation.from_bundles([{0}, set()], 4)
    g = build_weighted_graph(ex2, xc, Allocation.from_bundles([{1}, set()], 4))
    assert g.dump() == "o0 -> o1 w=1"
    bare = Allocation.empty(2, 4)
    g = build_weighted_graph(ex2, xc, bare, previous=g)
    assert g.dump() == "o0 -> o1 w=2"
    _assert_equals_fresh_build(g)
    # o0 goes back to the pool, which the solver's augmentations never do
    g = build_weighted_graph(ex2, bare, bare, previous=g)
    assert g.dump() == ""
    _assert_equals_fresh_build(g)


def test_spliced_node_loses_and_regains_a_weight_class():
    # agent 1 counts o0, o1 and o2 at c and holds o1 in its zero-valued
    # bundle, so from o0 the edge to o1 weighs 1 and the edge to o2 weighs 2
    inst = Instance(2, 4, 2, (Additive((2, 2, 2, 0)), Additive((2, 2, 2, 2))))
    x0 = Allocation.from_bundles([{1}, set()], 4)
    def advanced(g, bundles):
        xc = Allocation.from_bundles(bundles, 4)
        return build_weighted_graph(inst, xc, x0, previous=g)

    g = build_weighted_graph(inst, Allocation.from_bundles([{0}, {2}], 4), x0)
    out = g.adjacency[0]
    assert (out, g.weights[-1]) == ([(1, 1), (2, 2)], (1, 2))
    # o2 joins agent 1's counted bundle: its last weight-2 edge goes
    g = advanced(g, [{0, 2}, set()])
    assert g.adjacency[0] is g.adjacency[2] is out  # spliced, not rebuilt
    assert (out, g.weights[-1]) == ([(1, 1)], (1,))
    _assert_equals_fresh_build(g)
    # o2 goes back to agent 2: the weight-2 edge returns
    g = advanced(g, [{0}, {2}])
    assert g.adjacency[0] is out and 2 not in g.members[-1]
    assert (out, g.weights[-1]) == ([(1, 1), (2, 2)], (1, 2))
    _assert_equals_fresh_build(g)


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

        def check(g):
            nonlocal found, missing
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

        try:
            _phase2_graphs(monkeypatch, inst, check)
        except InvalidInstance:
            continue  # rejected before phase 2 (non_on is not order-neutral)
    assert found > 100 and missing > 1000


def test_reaching_is_reverse_reachability(monkeypatch):
    additive = gen_random_additive(8, 40, 2, (1, 1, 2), 1)
    capped = gen_capped_groups(6, 30, 2, (1, 3), (1, 3), 0)
    # additive agents' items always share a node; the capped graph mixes
    # shared-list nodes with one-item nodes
    for inst, kinds in ((additive, {True}), (capped, {True, False})):
        middle = _phase2_graphs(monkeypatch, inst, lambda g: None) // 2
        index = -1

        def check(g):
            nonlocal index
            index += 1
            if index != middle:
                return
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

        _phase2_graphs(monkeypatch, inst, check)


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
    bounded = dijkstra.least_key
    graph = None  # the graph being searched

    def checked(starts, adjacency, node_of, weights, targets, pool):
        key = bounded(starts, adjacency, node_of, weights, targets, pool)
        x0 = graph.x0

        def neighbors(u):
            # the pickup as defined, not as the search derives it
            for v, w in adjacency.get(u, ()):
                pickup = 1 if v in x0.bundle(graph.xc.owner_of(u)) else 2
                yield v, w + (pickup if pool and v in targets else 0)

        reference_starts = {o: (cost, 0, (o,)) for o, cost in starts.items()}
        assert key == exhaustive_least_key(reference_starts, neighbors, targets)
        if starts:
            outcomes.append(key is not None)
        return key

    def search_all(g):
        nonlocal graph
        graph = g
        list(_every_search(g))

    monkeypatch.setattr(dijkstra, "least_key", checked)
    monkeypatch.setattr(
        WeightedExchangeGraph, "reaching", lambda self, targets: frozenset(self.inst.items)
    )
    for inst in instances.values():
        try:
            _phase2_graphs(monkeypatch, inst, search_all)
        except InvalidInstance:
            continue
    assert sum(outcomes) > 1000 and outcomes.count(False) > 2000


@st.composite
def exchange_searches(draw):
    """A weighted exchange graph of an arbitrary state of a small instance
    and an exchange search in it, from agent i's sources to agent j's
    counted bundle: in about a third of the searches the sources meet that
    bundle, a one-item steal."""
    inst = draw(solver_instances(max_agents=4))
    n, m = inst.num_agents, inst.num_items
    agent = st.integers(0, n)  # 0: the pool
    xc_owner = [draw(agent) for _ in range(m)]
    x0_owner = [draw(agent) if not k else 0 for k in xc_owner]
    xc, x0 = (
        Allocation.from_bundles(
            [{o for o in inst.items if owner[o] == k} for k in inst.agents], m
        )
        for owner in (xc_owner, x0_owner)
    )
    graph = build_weighted_graph(inst, xc, x0, check=False)
    i, j = draw(st.permutations(list(inst.agents)))[:2]
    targets = xc.bundle(j)
    # sources mostly among the items with a path to the targets, so that
    # most searches that are not steals find one
    reaching = sorted(graph.reaching(targets) - targets)
    near = st.sampled_from(reaching or list(inst.items))
    sources = draw(st.frozensets(near, max_size=3))
    sources |= draw(st.frozensets(st.integers(0, m - 1), max_size=1))
    if targets and draw(st.booleans()):
        sources |= {draw(st.sampled_from(sorted(targets)))}
    else:
        sources -= targets
    return graph, sources, i, j


@settings(derandomize=True, deadline=None, max_examples=400)
@given(exchange_searches())
def test_exchange_search_equals_exhaustive_search(search):
    graph, sources, i, j = search
    path = min_weight_path(graph, sources, EXCHANGE, i, target_agent=j)

    def neighbors(u):
        yield from graph.adjacency.get(u, ())

    starts = {o: (0, 0, (o,)) for o in sources}
    key = exhaustive_least_key(starts, neighbors, graph.xc.bundle(j))
    if key is None:
        assert path is None
    else:
        assert (path.kind, path.source_agent, path.target) == (EXCHANGE, i, j)
        assert (path.doubled_weight, len(path.items) - 1, path.items) == key


def _reference_key(starts, adjacency, _node_of, _weights, targets, pool):
    """What ``dijkstra.least_key`` must return for these arguments: the
    exhaustive search's least key, where an edge costs its weight, doubled
    into a target of a pool search."""

    def neighbors(u):
        for v, w in adjacency.get(u, ()):
            yield v, 2 * w if pool and v in targets else w

    reference_starts = {o: (cost, 0, (o,)) for o, cost in starts.items()}
    return exhaustive_least_key(reference_starts, neighbors, targets)


def _weights_of(out):
    return tuple(sorted({w for _v, w in out}))


@st.composite
def quotient_searches(draw):
    """The arguments of a search over a small graph shaped like a phase-2
    exchange graph: each agent's held items either share one out-list tuple
    (node ``-agent``) or have lists of their own (node ``item``); out-lists
    are ascending, avoid the holder's own items and mix weights 1 and 2,
    and pool items have none.  A node's weights are its list's, or for
    items with lists of their own, the weights of all their holder's
    lists.  A pool search targets the pool, and an edge
    into it costs twice its weight; any other search targets a few items.
    Lists of up to six edges over at most ten items make cursors pass
    over items settled after they were pushed, and make two cursors of one
    cost meet, from two nodes or, in a pool search, from one."""
    m = draw(st.integers(5, 10))
    item = st.integers(0, m - 1)
    n = draw(st.integers(1, 3))
    owner = [draw(st.integers(0, n)) for _ in range(m)]  # 0: the pool
    adjacency, node_of, weights = {}, {}, {}

    def out_list(held):
        edges = draw(st.dictionaries(item, st.integers(1, 2), min_size=1, max_size=6))
        return tuple(sorted((v, w) for v, w in edges.items() if v not in held))

    for j in range(1, n + 1):
        held = [o for o in range(m) if owner[o] == j]
        if draw(st.booleans()):
            shared = out_list(held)
            if shared and held:
                adjacency.update(dict.fromkeys(held, shared))
                node_of.update(dict.fromkeys(held, -j))
                weights[-j] = _weights_of(shared)
        else:
            # as the builder records them: the weights of all the lists
            for o in held:
                if out := out_list(held):
                    adjacency[o], node_of[o] = out, o
            every = tuple(sorted({w for o in held for _v, w in adjacency.get(o, ())}))
            weights.update((o, every) for o in held if o in adjacency)
    pool = draw(st.booleans())
    if pool:
        targets = frozenset(o for o in range(m) if owner[o] == 0)
    else:
        targets = draw(st.frozensets(item, min_size=1, max_size=3))
    # a source in the targets ends most searches at once, so most have none
    sources = draw(st.frozensets(item, min_size=1, max_size=4))
    sources = (sources - targets or sources) if draw(st.integers(0, 3)) else sources
    costs = st.just(0) if draw(st.booleans()) else st.integers(0, 2)
    starts = {o: draw(costs) for o in sorted(sources)}
    return starts, adjacency, node_of, weights, targets, pool


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(quotient_searches())
def test_one_expansion_search_equals_exhaustive_search(search):
    assert dijkstra.least_key(*search) == _reference_key(*search)


def _recorded_search(monkeypatch, starts, adjacency, node_of, targets, pool=False):
    """Run the search, recording the items whose node it expands and the
    item of every heap entry it pops, in order."""
    expanded, popped = [], []

    class Recording(dict):
        def __getitem__(self, u):
            expanded.append(u)
            return super().__getitem__(u)

    def recorded(pop):
        def wrapper(*args):
            entry = pop(*args)
            popped.append(entry[3])
            return entry

        return wrapper

    heap = types.SimpleNamespace(
        heapify=heapq.heapify,
        heappush=heapq.heappush,
        heappop=recorded(heapq.heappop),
        heapreplace=recorded(heapq.heapreplace),
    )
    weights = {node_of[u]: _weights_of(out) for u, out in adjacency.items()}
    search = (starts, Recording(adjacency), node_of, weights, targets, pool)
    with monkeypatch.context() as patch:
        patch.setattr(dijkstra, "heapq", heap)
        key = dijkstra.least_key(*search)
    assert key == _reference_key(*search)
    return key, expanded, popped


def test_one_expansion_search_tie_break_between_members(monkeypatch):
    # o2 and o3 share agent 1's out-list; both are reached at cost 2 in one
    # edge and both reach the target o7 at cost 4 in two.  The path through
    # o0 is lexicographically smaller, so o3 is popped and expanded first
    # although o2 is the smaller item, and o2 is never expanded.
    adjacency = {0: ((3, 2),), 1: ((2, 2),), 2: ((7, 2),), 3: ((7, 2),)}
    adjacency[2] = adjacency[3]
    node_of = {0: 0, 1: 1, 2: -1, 3: -1}
    starts = {0: 0, 1: 0}
    key, expanded, _popped = _recorded_search(
        monkeypatch, starts, adjacency, node_of, frozenset({7})
    )
    assert key == (4, 2, (0, 3, 7))
    assert expanded == [0, 1, 3]


def test_cursor_passes_over_items_settled_after_it_was_pushed(monkeypatch):
    # o0's cursor is pushed pointing at o1 at cost 2.  o5 then reaches o2
    # at cost 1 and settles it, so when the cursor is popped at o1 it moves
    # straight on to o3, the target: no item is popped twice.
    adjacency = {0: ((1, 2), (2, 2), (3, 2)), 5: ((2, 1),)}
    node_of = {0: 0, 5: 5}
    key, _expanded, popped = _recorded_search(
        monkeypatch, {0: 0, 5: 0}, adjacency, node_of, frozenset({3})
    )
    assert key == (2, 1, (0, 3))
    assert popped == [0, 5, 2, 1]


def test_pool_search_ties_two_classes_of_one_cursor_cost(monkeypatch):
    # From o0, the weight-2 edge to o1 and the weight-1 edge into the pool
    # item o2 both cost 2, so two of o0's cursors tie on cost, edge count
    # and prefix; the smaller item, o1, goes first.  The pool item o4 is
    # reached through o1 at cost 4, but o2 costs 2 and ends the search.
    adjacency = {0: ((1, 2), (2, 1)), 1: ((4, 1),)}
    node_of = {0: 0, 1: 1}
    key, expanded, popped = _recorded_search(
        monkeypatch, {0: 0}, adjacency, node_of, frozenset({2, 4}), pool=True
    )
    assert key == (2, 1, (0, 2))
    assert expanded == [0, 1]
    assert popped == [0, 1]


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
