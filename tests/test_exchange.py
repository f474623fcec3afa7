import dataclasses
import re
from collections import Counter, defaultdict, deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from manna import exchange, solver, yankee
from manna.core import Allocation, Instance
from manna.errors import CleannessViolation, ContractViolation, InvalidInstance
from manna.exchange import (
    AugmentingPath,
    ExchangeGraph,
    augment,
    build_weighted_graph,
    candidate_items,
    clean_state_violations,
    f_set,
    min_weight_path,
    shift_along_path,
)
from manna.instgen import gen_capped_groups, gen_random_additive, serialize_instance
from manna.search import least_path
from manna.solver import phase1
from manna.valuations import Additive, CappedGroups, Group
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
    path = min_weight_path(g, f_set(inst, xc, 1, inst.c), 1, 0)
    assert path.items == (0,)
    assert path.doubled_weight == 1
    assert path.target == 0


def test_min_weight_path_no_sources(named_fixtures):
    inst, xc, x0 = classic_state(named_fixtures)
    g = build_weighted_graph(inst, xc, x0)
    assert min_weight_path(g, frozenset(), 1, 0) is None


def test_min_weight_path_lexicographic_tie(named_fixtures):
    ex2 = named_fixtures["ex2"]
    state = phase1(ex2)
    g = build_weighted_graph(ex2, state.xc, state.x0)
    path = min_weight_path(g, f_set(ex2, state.xc, 1, ex2.c), 1, 0)
    assert path.items == (0,)
    assert path.doubled_weight == 2  # o0 sits in the other agent's zero bundle


def test_augment_good_path(named_fixtures):
    inst, xc, x0 = classic_state(named_fixtures)
    g = build_weighted_graph(inst, xc, x0)
    path = min_weight_path(g, f_set(inst, xc, 1, inst.c), 1, 0)
    nxc, nx0 = augment(inst, xc, x0, path)
    assert nxc.bundle(1) == frozenset({0})
    assert nx0.bundle(1) == frozenset()
    assert clean_state_violations(inst, nxc, nx0) == []


def test_pareto_augment_moves_the_terminal_into_the_x0_pool():
    # agent 1 picks up pool item o0, which agent 2 holds in its x0 bundle
    zero = Additive((0, 0, 0, 0))
    inst = Instance(3, 4, 2, (Additive((2, 0, 0, 0)), zero, zero))
    xc = Allocation.empty(3, 4)
    x0 = Allocation.from_bundles([{1}, {0}, {2}], 4)
    g = build_weighted_graph(inst, xc, x0)
    path = min_weight_path(g, f_set(inst, xc, 1, inst.c), 1, 0)
    assert (path.items, path.doubled_weight) == ((0,), 2)
    nxc, nx0 = augment(inst, xc, x0, path)
    assert nxc.bundles == (frozenset({0}), frozenset(), frozenset())
    assert nxc.bundles[1] is xc.bundles[1] and nxc.bundles[2] is xc.bundles[2]
    assert nx0.bundles == (frozenset({1}), frozenset(), frozenset({2}))
    assert nx0.unallocated == x0.unallocated | {0}
    assert nx0.bundles[0] is x0.bundles[0] and nx0.bundles[2] is x0.bundles[2]


def test_augment_catches_a_terminal_left_in_another_agents_x0():
    # The pickup above with the retirement from x0 left out: agent 2 keeps
    # o0 in its x0 bundle while agent 1 counts it.  Each agent's own two
    # bundles stay disjoint and clean, so only the pool clause catches it.
    class Unretired(Allocation):
        def move(self, moves):
            return self

    zero = Additive((0, 0, 0, 0))
    inst = Instance(3, 4, 2, (Additive((2, 0, 0, 0)), zero, zero))
    xc = Allocation.empty(3, 4)
    x0 = Unretired((frozenset({1}), frozenset({0}), frozenset({2})), frozenset({3}))
    path = AugmentingPath((0,), 1, 0, 2)
    stray = r"^agent 2: x0 holds \[0\], outside xc's pool$"
    with pytest.raises(CleannessViolation, match=stray):
        augment(inst, xc, x0, path)


def test_augment_forced_bad_path_is_caught(named_fixtures):
    # regression for why edge weights exist: grabbing the pool item keeps the
    # zero-bundle item stranded and breaks cleanness of the union
    inst, xc, x0 = classic_state(named_fixtures)
    forced = AugmentingPath((1,), 1, 0, 2)
    with pytest.raises(CleannessViolation):
        augment(inst, xc, x0, forced)
    # the state the path leaves: o1 is a pool item, so x0 keeps o0
    nxc = shift_along_path(xc, forced.items, 1)
    assert nxc.bundle(1) == frozenset({1})
    assert x0.bundle(1) == frozenset({0})
    assert clean_state_violations(inst, nxc, x0) != []


def test_augment_catches_a_path_holder_left_unclean():
    # agent 1 takes o0 from agent 2, who receives o1 along the path; agent 2
    # counts o1 at 0, so its counted bundle is no longer clean
    inst = Instance(2, 3, 2, (Additive((2, 2, 2)), Additive((2, 0, 0))))
    xc = Allocation.from_bundles([set(), {0}], 3)
    x0 = Allocation.empty(2, 3)
    forced = AugmentingPath((0, 1), 1, 0, 4)
    with pytest.raises(CleannessViolation, match="agent 2: xc bundle not clean"):
        augment(inst, xc, x0, forced)
    nxc = shift_along_path(xc, forced.items, 1)
    assert nxc.bundles == (frozenset({0}), frozenset({1}))
    assert clean_state_violations(inst, nxc, x0, [1]) == []


def test_augment_catches_an_exchange_path_holder_left_unclean():
    # agent 1 takes o0 from agent 2, who takes o1 from the target, agent 3;
    # agent 2 counts o1 at 0.  Every size moves as an exchange's should, so
    # only the cleanness recheck of the path holders catches it.
    inst = Instance(
        3, 3, 2, (Additive((2, 0, 0)), Additive((2, 0, 0)), Additive((0, 2, 2)))
    )
    xc = Allocation.from_bundles([set(), {0}, {1, 2}], 3)
    x0 = Allocation.empty(3, 3)
    forced = AugmentingPath((0, 1), 1, 3, 4)
    unclean = "^agent 2: xc bundle not clean at threshold c$"
    with pytest.raises(CleannessViolation, match=unclean):
        augment(inst, xc, x0, forced)


def test_augment_exchange_size_bookkeeping():
    inst = Instance(2, 2, 2, (Additive((2, 0)), Additive((2, 2))))
    xc = Allocation.from_bundles([set(), {0, 1}], 2)
    x0 = Allocation.empty(2, 2)
    g = build_weighted_graph(inst, xc, x0)
    path = min_weight_path(g, f_set(inst, xc, 1, inst.c), 1, 2)
    assert path.items == (0,)
    nxc, _ = augment(inst, xc, x0, path)
    assert (len(nxc.bundle(1)), len(nxc.bundle(2))) == (1, 1)
    # forced paths into the wrong part; sizes are checked before cleanness
    inst = Instance(2, 3, 2, (Additive((2, 0, 2)), Additive((2, 2, 0))))
    xc = Allocation.from_bundles([set(), {0, 1}], 3)
    x0 = Allocation.empty(2, 3)
    # ending in the pool, it leaves the target's bundle object in place
    forced = AugmentingPath((2,), 1, 2, 0)
    with pytest.raises(CleannessViolation, match="agent 2: .*size 2 .*expected 1"):
        augment(inst, xc, x0, forced)
    forced = AugmentingPath((0,), 1, 0, 2)
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
    # the pool is rebuilt only when the path ends there
    ends_in_pool = items[-1] in before.unallocated
    assert (after.unallocated is not before.unallocated) == ends_in_pool


def _edge_lists(graph):
    """Each item's out-edges ``(item, weight)``, ascending, read from
    ``graph.edges()``."""
    lists = defaultdict(list)
    for u, v, w in graph.edges():
        lists[u].append((v, w))
    return {u: tuple(out) for u, out in lists.items()}


def _bfs_length(lists, sources, targets):
    dist = {o: 0 for o in sources}
    queue = deque(sorted(sources))
    while queue:
        u = queue.popleft()
        for v, _w in lists.get(u, ()):
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
            lists = _edge_lists(g)
            found = None
            for i in inst.agents:
                sources = f_set(inst, state.xc, i, inst.c)
                path = min_weight_path(g, sources, i, 0)
                bfs = _bfs_length(lists, sources, state.xc.unallocated)
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


def _nodes(g):
    """The items with out-edges, partitioned by the identity of their pair."""
    nodes = defaultdict(list)
    for u, pair in g.adjacency.items():
        nodes[id(pair)].append(u)
    return sorted(sorted(items) for items in nodes.values())


def _node_kinds(g):
    """Per node, whether it is its holder's whole counted bundle."""
    return {len(items) == len(g.xc.bundle(g.xc.owner_of(items[0]))) for items in _nodes(g)}


def _class_types(g):
    """Per item, which of its pair's class lists are lists and which tuples."""
    return {u: tuple(map(type, pair)) for u, pair in g.adjacency.items()}


def _assert_equals_fresh_build(g):
    """Every part of ``g`` -- its edges with their weights and order, its
    pairs with the type of each class list, its nodes and desired items --
    equals a fresh build's: the same builder from an empty graph."""
    fresh = ExchangeGraph(g.valuations, g.threshold, g.candidates, g.dependent)
    exchange._advance(fresh, g.xc, g.x0)
    assert g.dump() == fresh.dump()
    assert g.adjacency == fresh.adjacency
    assert _class_types(g) == _class_types(fresh)
    assert _nodes(g) == _nodes(fresh)
    assert g.desired == fresh.desired


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_INSTANCES))
def test_incremental_graph_equals_fresh_build(monkeypatch, name):
    inst = EQUIVALENCE_INSTANCES[name]()
    kinds = set()
    pools = []  # per graph, the pool's size
    listed = []  # per graph, the agents whose items have out-edges
    # per phase-2 splice: the graph it builds, whether the augmentation
    # before it took an item from the pool (the Pareto stage), and the agent
    # whose pair it emptied
    spliced = []
    splice = exchange._splice

    def recording_splice(graph, j, pair, left, entered):
        splice(graph, j, pair, left, entered)
        if graph.threshold == 0:
            return  # phase 1's
        pareto = len(graph.xc.unallocated) < pools[-1]
        spliced.append((len(listed), pareto, None if any(pair) else j))

    monkeypatch.setattr(exchange, "_splice", recording_splice)

    def check(g):
        pools.append(len(g.xc.unallocated))
        listed.append({g.xc.owner_of(o) for o in g.adjacency})
        _assert_equals_fresh_build(g)
        for items in _nodes(g):
            assert len({g.xc.owner_of(o) for o in items}) == 1
        kinds.update(_node_kinds(g))

    assert _phase2_graphs(monkeypatch, inst, check) > 10
    assert kinds == ({True} if name.startswith("additive") else {True, False})
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
    the candidates are found, from one call per agent in the whole solve,
    no builder call asks ``Additive.marginals`` anything."""
    calls = _recorded_marginals(monkeypatch)
    inst = EQUIVALENCE_INSTANCES["additive_8x40_s0"]()
    asked_by_fresh_build = []

    def check(g):
        if not asked_by_fresh_build:  # phase 2's fresh build
            asked_by_fresh_build.append(len(calls))

    assert _phase2_graphs(monkeypatch, inst, check) > 10
    assert asked_by_fresh_build == [len(calls)] == [inst.num_agents]
    assert all(not bundle for _spec, bundle, _items in calls)


def test_empty_bundle_marginals_are_kept_outside_the_fields():
    """The marginals on the empty bundle that ``candidate_items`` keeps with
    each valuation change no valuation's ``==``, hash, ``repr`` or
    serialization, and are asked again for another item count."""
    inst, twin = (EQUIVALENCE_INSTANCES["capped_6x30_s0"]() for _ in range(2))
    solver.solve(inst)
    assert all("_empty_gains" in vars(v) for v in inst.valuations)
    assert inst == twin and hash(inst.valuations) == hash(twin.valuations)
    assert [repr(v) for v in inst.valuations] == [repr(v) for v in twin.valuations]
    assert serialize_instance(inst) == serialize_instance(twin)
    spec = CappedGroups((), 0)
    assert candidate_items(spec, 0, 3) == (0, 1, 2)
    assert candidate_items(spec, 0, 5) == (0, 1, 2, 3, 4)
    assert candidate_items(spec, 1, 5) == ()


def test_candidate_items_compare_gains_by_value():
    # a capped valuation built with float values answers float marginals,
    # which an int's own ``__le__`` does not compare
    spec = CappedGroups((Group({0, 1}, 1, 2.0, 0.0),), 0.0)
    assert candidate_items(spec, 2, 4) == (0, 1)
    assert candidate_items(spec, 0, 4) == (0, 1, 2, 3)


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


def _per_item_lists(graph, lists):
    """Whether some agent's held items have different out-edges in
    ``lists``, the ``_edge_lists`` of ``graph``."""
    return any(
        len({lists.get(o, ()) for o in bundle}) > 1 for bundle in graph.xc.bundles
    )


@pytest.mark.parametrize("name", sorted(FULL_SCAN_INSTANCES))
def test_builders_equal_full_scan(monkeypatch, name):
    inst = FULL_SCAN_INSTANCES[name]()
    # per build, whether some agent's held items have different out-lists
    phase1_varied, phase2_varied = [], []
    build = exchange.unweighted_adjacency

    def recording(allocation, valuations, previous=None):
        graph = build(allocation, valuations, previous)
        # phase 1's graph is the valuations' at threshold 0, and every
        # edge is heavy
        lists = _edge_lists(graph)
        assert {w for out in lists.values() for _v, w in out} <= {2}
        unweighted = {u: tuple(v for v, _w in out) for u, out in lists.items()}
        assert unweighted == full_scan_unweighted_adjacency(allocation, inst.valuations, 0)
        assert graph.desired == [
            full_scan_f_set(allocation, inst.valuation(i), i, 0) for i in inst.agents
        ]
        phase1_varied.append(_per_item_lists(graph, lists))
        return graph

    def check(g):
        lists = _edge_lists(g)
        assert lists == full_scan_weighted_adjacency(inst, g.xc, g.x0)
        for i in inst.agents:
            want = full_scan_f_set(g.xc, inst.valuation(i), i, inst.c)
            assert g.desired[i - 1] == want
            assert f_set(inst, g.xc, i, inst.c) == want
        phase2_varied.append(_per_item_lists(g, lists))

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


@settings(max_examples=250)
@given(solver_instances())
def test_graphs_advanced_in_place_equal_fresh_builds(inst):
    """After every augmentation of either phase, the graph advanced in place
    equals a fresh build of the same state, and exactly the bundles whose
    contents changed are new objects."""
    unweighted, weighted = exchange.unweighted_adjacency, solver.build_weighted_graph
    shift, augment_state = yankee.shift_along_path, solver.augment

    def checked_adjacency(allocation, valuations, previous=None):
        graph = unweighted(allocation, valuations, previous)
        assert previous is None or graph is previous
        _assert_equals_fresh_build(graph)
        # a fresh build that asks about every candidate has the same edges
        asked = [frozenset(c) for c in graph.candidates]
        fresh = ExchangeGraph(valuations, 0, graph.candidates, asked)
        exchange._advance(fresh, allocation, graph.x0)
        assert (fresh.dump(), fresh.desired) == (graph.dump(), graph.desired)
        return graph

    def checked_graph(inst_, xc, x0, check=True, previous=None):
        g = weighted(inst_, xc, x0, check, previous)
        assert previous is None or g is previous
        _assert_equals_fresh_build(g)
        return g

    def checked_shift(allocation, items, gainer):
        after = shift(allocation, items, gainer)
        _rebuilt_iff_changed(allocation, after)
        return after

    def checked_augment(inst_, xc, x0, path):
        new_xc, new_x0 = augment_state(inst_, xc, x0, path)
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


def test_spliced_pair_loses_and_regains_its_heavy_edge():
    # agent 1 counts o0, o1 and o2 at c and holds o1 in its zero-valued
    # bundle, so from o0 the edge to o1 is light and the edge to o2 heavy
    inst = Instance(2, 4, 2, (Additive((2, 2, 2, 0)), Additive((2, 2, 2, 2))))
    x0 = Allocation.from_bundles([{1}, set()], 4)
    def advanced(g, bundles):
        xc = Allocation.from_bundles(bundles, 4)
        return build_weighted_graph(inst, xc, x0, previous=g)

    g = build_weighted_graph(inst, Allocation.from_bundles([{0}, {2}], 4), x0)
    pair = g.adjacency[0]
    light, heavy = pair
    assert pair == ((1,), [2])
    # o2 joins agent 1's counted bundle: its heavy edge goes
    g = advanced(g, [{0, 2}, set()])
    assert g.adjacency[0] is g.adjacency[2] is pair  # spliced, not rebuilt
    assert pair == ((1,), []) and pair[0] is light and pair[1] is heavy
    _assert_equals_fresh_build(g)
    # o2 goes back to agent 2: the heavy edge returns
    g = advanced(g, [{0}, {2}])
    assert g.adjacency[0] is pair is not g.adjacency[2]
    assert pair == ((1,), [2]) and pair[0] is light
    _assert_equals_fresh_build(g)


def test_build_weighted_graph_rejects_previous_of_another_instance(named_fixtures):
    ex2 = named_fixtures["ex2"]
    state = phase1(ex2)
    other = build_weighted_graph(
        named_fixtures["ex_classic"], Allocation.empty(1, 2), Allocation.empty(1, 2)
    )
    with pytest.raises(ContractViolation):
        build_weighted_graph(ex2, state.xc, state.x0, previous=other)


def _every_search(graph, inst):
    """Every search phase 2 can ask of ``graph``, as ``(i, j, sources,
    path)``: agent i's Pareto search (j = 0) and its exchange search toward
    each other agent j."""
    for i in inst.agents:
        sources = f_set(inst, graph.xc, i, inst.c)
        for j in (0, *inst.agents):
            if j != i:
                yield i, j, sources, min_weight_path(graph, sources, i, j)


def test_memo_changes_no_search(monkeypatch, named_fixtures):
    """Every Pareto search of every phase-2 graph, agents ascending and
    then descending on the graph's shared memo of dead pairs, finds what it
    finds on an empty memo."""
    instances = dict(named_fixtures)
    instances.update((name, make()) for name, make in EQUIVALENCE_INSTANCES.items())
    found = missing = 0
    for name, inst in sorted(instances.items()):

        def check(g):
            nonlocal found, missing
            for i in (*inst.agents, *reversed(inst.agents)):
                sources = g.desired[i - 1]
                path = min_weight_path(g, sources, i, 0)
                alone = min_weight_path(dataclasses.replace(g), sources, i, 0)
                assert path == alone, name
                found += path is not None
                missing += path is None

        try:
            _phase2_graphs(monkeypatch, inst, check)
        except InvalidInstance:
            continue  # rejected before phase 2 (non_on is not order-neutral)
    assert found > 100 and missing > 1000


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_INSTANCES))
def test_forced_pareto_searches_leave_the_memo_untouched(monkeypatch, name):
    """Every Pareto search of a solve with no sources or with a source in
    the pool leaves the graph's memo as it was, and so does every other
    search that finds a path; one that finds none only adds to it.  Each
    finds what it finds on an empty memo."""
    inst = EQUIVALENCE_INSTANCES[name]()
    search = solver.min_weight_path
    seen = {"no sources": 0, "source in pool": 0, "searched": 0}

    def checked(graph, sources, agent, target):
        before = dict(graph.dead)
        path = search(graph, sources, agent, target)
        if not target:
            pool = graph.xc.unallocated
            case = (
                "no sources"
                if not sources
                else "searched" if pool.isdisjoint(sources) else "source in pool"
            )
            seen[case] += 1
            if case == "searched" and path is None:
                assert graph.dead.items() >= before.items()
            else:
                assert graph.dead == before
            assert path == search(dataclasses.replace(graph), sources, agent, 0)
        return path

    monkeypatch.setattr(solver, "min_weight_path", checked)
    solver.solve(inst)
    assert min(seen.values()) > 0, seen


def test_advancing_the_graph_empties_the_memo():
    """A Pareto search that failed walked agent 2's pair; when agent 3
    gives its item back to the pool, agent 2 keeps its bundles and so its
    pair object, and the search finds a path through that pair."""
    inst = Instance(
        3, 3, 2, (Additive((2, 0, 0)), Additive((2, 2, 0)), Additive((0, 2, 0)))
    )
    xc = Allocation.from_bundles([set(), {0}, {1}], 3)
    x0 = Allocation.empty(3, 3)
    g = build_weighted_graph(inst, xc, x0)
    pair = g.adjacency[0]
    assert g.desired[0] == {0} and pair == ((), [1])
    assert min_weight_path(g, g.desired[0], 1, 0) is None
    assert id(pair) in g.dead
    g = build_weighted_graph(inst, xc.move([(1, 3, 0)]), x0, previous=g)
    assert g.adjacency[0] is pair
    path = min_weight_path(g, g.desired[0], 1, 0)
    assert path == AugmentingPath((0, 1), 1, 0, 4)
    fresh = build_weighted_graph(inst, g.xc, g.x0)
    assert path == min_weight_path(fresh, fresh.desired[0], 1, 0)


@pytest.mark.parametrize(
    "agent, target",
    [
        pytest.param(1, 1, id="exchange-1-1"),  # would take agent 1's own item
        pytest.param(1, -1, id="exchange-1--1"),  # would search agent 3's bundle
        pytest.param(1, 5, id="exchange-1-5"),
        pytest.param(0, 3, id="exchange-0-3"),
        pytest.param(0, 0, id="pool-0"),  # would be a path with source agent 0
        pytest.param(-1, 0, id="pool--1"),
        pytest.param(5, 0, id="pool-5"),
    ],
)
def test_min_weight_path_rejects_agents_outside_the_instance(agent, target):
    inst = Instance(4, 4, 2, (Additive((2, 2, 2, 2)),) * 4)
    xc = Allocation.from_bundles([set(), {0}, {1}, set()], 4)
    x0 = Allocation.empty(4, 4)
    g = build_weighted_graph(inst, xc, x0)
    with pytest.raises(ContractViolation, match="1..4"):
        min_weight_path(g, frozenset({1, 2}), agent, target)


def _reference_pool_path(allocation, adjacency, sources):
    """What ``shortest_path_to_pool`` must return: the exhaustive search's
    least key, every edge of both classes weighing 1 and the pool as
    targets."""
    starts = {o: (0, 0, (o,)) for o in sources}

    def neighbors(u):
        for part in adjacency.get(u, ()):
            for v in part:
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
    # every min_weight_path of every phase-2 state equals the exhaustive
    # search, forced answers included; each search whose sources miss the
    # targets also runs through ``least_path`` directly, on an empty memo,
    # an exchange search stopping at its first heavy hit
    outcomes.clear()

    def search_all(g):
        lists = _edge_lists(g)
        for i, j, sources, path in _every_search(g, inst):
            starts, targets, key = _reference_search(g, lists, sources, i, j)
            assert _path_key(path, i, j) == key
            if targets.isdisjoint(sources):
                found = least_path(g.adjacency, sources, targets, {}, bool(j))
                assert _least_key(found, not j) == key
            if starts:
                outcomes.append(key is not None)

    for inst in instances.values():
        try:
            _phase2_graphs(monkeypatch, inst, search_all)
        except InvalidInstance:
            continue
    assert sum(outcomes) > 1000 and outcomes.count(False) > 2000


def _reference_search(graph, lists, sources, agent, target):
    """The starts, targets and exhaustive least key of a search from
    ``agent``'s ``sources`` in ``graph``, whose ``_edge_lists`` are
    ``lists``: into agent ``target``'s counted bundle, or into the pool when
    it is 0.  An item is picked up from the pool, as a start or along an
    edge, at 1 when the picker holds it in its zero-valued bundle, else 2:
    the pickup as defined, not as the search derives it."""
    xc, x0 = graph.xc, graph.x0
    targets = xc.bundle(target)

    def pickup(picker, v):
        if target or v not in targets:
            return 0
        return 1 if v in x0.bundle(picker) else 2

    starts = {o: pickup(agent, o) for o in sources}

    def neighbors(u):
        for v, w in lists.get(u, ()):
            yield v, w + pickup(xc.owner_of(u), v)

    reference_starts = {o: (cost, 0, (o,)) for o, cost in starts.items()}
    return starts, targets, exhaustive_least_key(reference_starts, neighbors, targets)


def _path_key(path, agent, target):
    """The key of a path ``min_weight_path`` returned for a search from
    ``agent`` into part ``target`` (0: the pool), after checking its
    labels."""
    if path is None:
        return None
    assert (path.source_agent, path.target) == (agent, target)
    return path.doubled_weight, len(path.items) - 1, path.items


def _least_key(found, pool):
    """The key ``(doubled cost, edge count, items)`` of a ``least_path``
    result ``(items, light)``: every edge but the last weighs 2 and the
    last 1 when it is light, and a pool search pays the last edge again."""
    if found is None:
        return None
    items, light = found
    edges = len(items) - 1
    last = (1 if light else 2) * (2 if pool else 1)
    return 2 * (edges - 1) + last, edges, items


def _shape(sources, targets, path):
    """Which kind of search found ``path``: a forced one, whose sources meet
    its targets, or one of one edge, of two or more, or of none found."""
    if not targets.isdisjoint(sources):
        return "forced"
    if path is None:
        return "no path"
    return "one edge" if len(path.items) == 2 else "two or more edges"


def _assert_every_shape(shapes):
    """Each kind of search is at least a twentieth of those drawn."""
    drawn = sum(shapes.values())
    for shape in ("forced", "one edge", "two or more edges", "no path"):
        assert 20 * shapes[shape] >= drawn > 0, shapes


@st.composite
def contract_states(draw):
    """A small instance and the weighted exchange graph of a state that
    meets the part of ``build_weighted_graph``'s contract the search relies
    on: ``xc`` and ``x0`` are two parts of one allocation, so an item has a
    zero-valued holder, any agent or none, only while ``xc`` leaves it in
    the pool.  So every light edge enters the pool.  Neither part need be
    clean."""
    inst = draw(solver_instances(max_agents=4))
    n, m = inst.num_agents, inst.num_items
    xc_owner = [draw(st.integers(0, n)) for _ in range(m)]  # 0: the pool
    x0_owner = [0 if owner else draw(st.integers(0, n)) for owner in xc_owner]
    xc, x0 = (
        Allocation.from_bundles(
            [{o for o in inst.items if owner[o] == k} for k in inst.agents], m
        )
        for owner in (xc_owner, x0_owner)
    )
    return inst, build_weighted_graph(inst, xc, x0, check=False)


def _distances(graph, targets):
    """The fewest edges of a path into ``targets`` from each item outside
    them that has one."""
    lists = _edge_lists(graph)
    distances = {o: _bfs_length(lists, {o}, targets) for o in lists if o not in targets}
    return {o: d for o, d in distances.items() if d is not None}


def _near(distances, items, draw):
    """A strategy for sources: the items with a path to the targets, or in
    about half of the draws the farthest of them; every item when there
    are none."""
    reaching = set(distances)
    if reaching and draw(st.booleans()):
        far = max(distances.values())
        reaching = {o for o, d in distances.items() if d == far}
    return st.sampled_from(sorted(reaching) or list(items))


@st.composite
def exchange_searches(draw):
    """An exchange search in a ``contract_states`` graph, from agent i's
    sources to agent j's counted bundle.  In about half of the searches j
    is the agent whose bundle is farthest from some item, and in about half
    the sources meet that bundle, a one-item steal."""
    inst, graph = draw(contract_states())
    m = inst.num_items
    agents, xc = list(inst.agents), graph.xc
    j = draw(st.sampled_from(agents))
    if draw(st.booleans()):
        j = max(agents, key=lambda k: max(_distances(graph, xc.bundle(k)).values(), default=0))
    i = draw(st.sampled_from([k for k in agents if k != j]))
    targets = xc.bundle(j)
    # sources mostly among the items with a path to the targets, so that
    # most searches that are not steals find one, and often among the
    # farthest, so that many paths have two edges or more
    near = _near(_distances(graph, targets), inst.items, draw)
    sources = draw(st.frozensets(near, min_size=1, max_size=3))
    sources |= draw(st.frozensets(st.integers(0, m - 1), max_size=1))
    if targets and draw(st.booleans()):
        sources |= {draw(st.sampled_from(sorted(targets)))}
    else:
        sources -= targets
    return graph, sources, i, j


def test_exchange_search_equals_exhaustive_search():
    shapes = Counter()

    @settings(max_examples=400)
    @given(exchange_searches())
    def check(search):
        graph, sources, i, j = search
        path = min_weight_path(graph, sources, i, j)
        _starts, _targets, key = _reference_search(graph, _edge_lists(graph), sources, i, j)
        assert _path_key(path, i, j) == key
        shapes[_shape(sources, graph.xc.bundle(j), path)] += 1

    check()
    _assert_every_shape(shapes)


def test_build_weighted_graph_rejects_x0_outside_the_pool():
    # Agent 4 holds o2 in its zero-valued bundle while agent 3 counts it, so
    # xc and x0 are not two parts of one allocation, and o1 -> o2 would be
    # a light edge into a counted bundle.  Every agent's own two bundles are
    # disjoint and clean, so only the pool clause reports it.
    inst = Instance(
        4,
        3,
        2,
        (Additive((2, 2, 0)), Additive((2, 0, 2)), Additive((0, 0, 2)), Additive((0, 2, 2))),
    )
    xc = Allocation.from_bundles([set(), {0}, {2}, {1}], 3)
    x0 = Allocation.from_bundles([set(), set(), set(), {2}], 3)
    stray = "agent 4: x0 holds [2], outside xc's pool"
    assert clean_state_violations(inst, xc, x0) == [stray]
    with pytest.raises(ContractViolation, match=re.escape(stray)):
        build_weighted_graph(inst, xc, x0)


@st.composite
def pareto_searches(draw):
    """A Pareto search in a ``contract_states`` graph from agent i's
    sources: in about half of the searches some sources lie in the pool, a
    forced pickup."""
    inst, graph = draw(contract_states())
    m = inst.num_items
    i = draw(st.sampled_from(list(inst.agents)))
    pool = graph.xc.unallocated
    # otherwise mostly among the items with a path to the pool, as above
    near = _near(_distances(graph, pool), inst.items, draw)
    sources = draw(st.frozensets(near, min_size=1, max_size=3))
    sources |= draw(st.frozensets(st.integers(0, m - 1), max_size=1))
    if pool and draw(st.booleans()):
        sources |= draw(st.frozensets(st.sampled_from(sorted(pool)), min_size=1, max_size=2))
    else:
        sources -= pool
    return graph, sources, i


def _later_cheap_pickup():
    """One agent desiring the pool items o0 and o1 and holding o1 in its
    zero-valued bundle: picking up o1 costs 1 and o0 costs 2."""
    inst = Instance(1, 2, 2, (Additive((2, 2)),))
    xc = Allocation.empty(1, 2)
    x0 = Allocation.from_bundles([{1}], 2)
    return build_weighted_graph(inst, xc, x0), frozenset({0, 1}), 1


def test_pool_search_takes_a_light_hit_after_a_heavy_one_in_its_layer():
    # agent 1's sources o0 and o1 form the first layer: o0 has a heavy edge
    # into the pool item o2, and o1, walked after it, a light one into o3,
    # in agent 3's zero-valued bundle, which costs less
    inst = Instance(
        3, 4, 2, (Additive((2, 2, 0, 0)), Additive((2, 0, 2, 0)), Additive((0, 2, 0, 2)))
    )
    xc = Allocation.from_bundles([set(), {0}, {1}], 4)
    x0 = Allocation.from_bundles([set(), set(), {3}], 4)
    graph = build_weighted_graph(inst, xc, x0)
    assert graph.adjacency == {0: ((), [2]), 1: ((3,), [])}
    path = min_weight_path(graph, graph.desired[0], 1, 0)
    assert (path.items, path.doubled_weight) == ((1, 3), 2)


def test_pareto_search_equals_exhaustive_search():
    shapes = Counter()
    graph, sources, i = _later_cheap_pickup()
    path = min_weight_path(graph, sources, i, 0)
    assert (path.items, path.doubled_weight) == ((1,), 1)

    @settings(max_examples=400)
    @given(pareto_searches())
    @example((graph, sources, i))
    def check(search):
        graph, sources, i = search
        path = min_weight_path(graph, sources, i, 0)
        _starts, _targets, key = _reference_search(graph, _edge_lists(graph), sources, i, 0)
        assert _path_key(path, i, 0) == key
        shapes[_shape(sources, graph.xc.unallocated, path)] += 1

    check()
    _assert_every_shape(shapes)


def _reference_key(sources, adjacency, targets, pool):
    """What ``least_path`` must return for these arguments, as a key: the
    exhaustive search's least key from the ``sources``, where a light edge
    costs 1 and a heavy one 2, doubled into a target of a pool search."""

    def neighbors(u):
        for w, part in zip((1, 2), adjacency.get(u, ())):
            for v in part:
                yield v, 2 * w if pool and v in targets else w

    starts = {o: (0, 0, (o,)) for o in sources}
    return exhaustive_least_key(starts, neighbors, targets)


@st.composite
def quotient_searches(draw):
    """The arguments of a search over a small graph shaped like a phase-2
    exchange graph, and whether it is a pool search: each agent's held
    items either share one out-list pair or have pairs of their own; each
    pair's light and heavy lists are ascending, disjoint and avoid the
    holder's own items, and pool items have none.  A pool search targets
    the pool, and an edge into it costs twice its weight; any other search
    targets a few items.  A light edge enters a target or the pool, so it
    ends every path it is on.  The sources avoid the targets."""
    m = draw(st.integers(5, 10))
    item = st.integers(0, m - 1)
    n = draw(st.integers(1, 3))
    owner = [draw(st.integers(0, n)) for _ in range(m)]  # 0: the pool
    pool = draw(st.booleans())
    if pool:
        targets = frozenset(o for o in range(m) if owner[o] == 0)
    else:
        targets = draw(st.frozensets(item, min_size=1, max_size=3))
    ends = targets.union(o for o in range(m) if owner[o] == 0)
    adjacency = {}

    def out_pair(held):
        edges = draw(st.dictionaries(item, st.integers(1, 2), min_size=1, max_size=6))
        edges = {v: w for v, w in edges.items() if v not in held}
        light = tuple(sorted(v for v, w in edges.items() if w == 1 and v in ends))
        return light, tuple(sorted(v for v in edges if v not in light))

    for j in range(1, n + 1):
        held = [o for o in range(m) if owner[o] == j]
        if draw(st.booleans()):
            shared = out_pair(held)
            if any(shared):
                adjacency.update(dict.fromkeys(held, shared))
        else:
            for o in held:
                if any(pair := out_pair(held)):
                    adjacency[o] = pair
    sources = draw(st.frozensets(item, min_size=1, max_size=4)) - targets
    return sources, adjacency, targets, pool


def _members_of_one_node():
    """A search in which o2 and o3 share agent 1's out-list pair; both are
    reached in one edge and both reach the target o7 in two.  The path
    through o0 is lexicographically smaller, so it goes through o3 although
    o2 is the smaller item."""
    adjacency = {0: ((), (3,)), 1: ((), (2,)), 3: ((), (7,))}
    adjacency[2] = adjacency[3]
    return frozenset({0, 1}), adjacency, frozenset({7}), False


@settings(max_examples=1000)
@given(quotient_searches())
@example(_members_of_one_node())
# from o0, the heavy edge to o1 and the light edge into the pool item o2
# both cost 2; the light one is the answer, and the pool item o4, light
# from o1, is never reached
@example((frozenset({0}), {0: ((2,), (1,)), 1: ((4,), ())}, frozenset({2, 4}), True))
# both sources are in the first layer: o0's heavy edge into the pool item o5
# is hit first, and o1's light edge into the pool item o6, hit later in the
# same layer, is the answer
@example((frozenset({0, 1}), {0: ((), (5,)), 1: ((6,), ())}, frozenset({5, 6}), True))
def test_one_expansion_search_equals_exhaustive_search(search):
    sources, adjacency, targets, pool = search
    # stopping at the first heavy hit is exact where no light list can hit
    hits_light = any(not targets.isdisjoint(light) for light, _heavy in adjacency.values())
    for stop_at_heavy in (False, not hits_light):
        found = least_path(adjacency, sources, targets, {}, stop_at_heavy)
        assert _least_key(found, pool) == _reference_key(*search)


def test_one_expansion_search_tie_break_between_members():
    # o3 is reached first, from o0, so the shared pair is read at o3, and
    # o2, reached from o1, is never expanded
    sources, adjacency, targets, _pool = _members_of_one_node()
    expanded = []

    class Recording(dict):
        last = None  # the item last looked up

        def get(self, u, default=None):
            self.last = u
            return super().get(u, default)

    recording = Recording()

    class Expanded(tuple):
        def __iter__(self):
            expanded.append(recording.last)
            return super().__iter__()

    wrapped = {id(pair): Expanded(pair) for pair in adjacency.values()}
    recording.update((u, wrapped[id(pair)]) for u, pair in adjacency.items())
    assert least_path(recording, sources, targets, {}, False) == ((0, 3, 7), False)
    assert expanded == [0, 1, 3]


def test_early_stop_walks_no_pair_after_the_first_heavy_hit():
    # o0 reaches o1, o2 and o3; in that layer o1's heavy edge into the
    # target o9 is the first hit, and o2's and o3's pairs, which also reach
    # it, are walked only without the early stop
    adjacency = {0: ((), (1, 2, 3)), 1: ((), (9,)), 2: ((), (9,)), 3: ((), (8, 9))}
    walked = []

    class Recording(dict):
        def get(self, u, default=None):
            walked.append(u)
            return super().get(u, default)

    recording = Recording(adjacency)
    for stop_at_heavy, expected in ((True, [0, 1]), (False, [0, 1, 2, 3])):
        walked.clear()
        found = least_path(recording, frozenset({0}), frozenset({9}), {}, stop_at_heavy)
        assert found == ((0, 1, 9), False)
        assert walked == expected


@st.composite
def pool_searches(draw):
    """A small digraph shaped like an unweighted exchange graph: pairs of an
    empty light list and an ascending heavy one, no self-loops, pool items without out-edges; cycles, sources
    in the pool, sources reachable from other sources and pools that no
    source reaches all occur."""
    m = draw(st.integers(6, 12))
    item = st.integers(0, m - 1)
    pool = draw(st.frozensets(item, min_size=1, max_size=2))
    adjacency = {}
    for u in sorted(set(range(m)) - pool):
        out = sorted(draw(st.sets(item, max_size=3)) - {u})
        if out:
            adjacency[u] = ((), out)
    sources = draw(st.frozensets(item, min_size=2, max_size=3))
    allocation = Allocation.from_bundles([set(range(m)) - pool], m)
    return allocation, adjacency, sources


@settings(max_examples=1000)
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
        (
            {0, 1},
            {0: ((), [5]), 1: ((), [3]), 5: ((), [9]), 3: ((), [8])},
            {8, 9},
            (0, 5, 9),
        ),
        # an item keeps the first parent that reached it
        ({0, 2}, {0: ((), [4]), 2: ((), [4]), 4: ((), [7])}, {7}, (0, 4, 7)),
    ],
)
def test_shortest_path_to_pool_tie_breaks(sources, adjacency, pool, expected):
    allocation = Allocation.from_bundles([set(range(10)) - pool], 10)
    sources = frozenset(sources)
    assert shortest_path_to_pool(allocation, adjacency, sources) == expected
    assert _reference_pool_path(allocation, adjacency, sources) == expected
