from itertools import product

import pytest
from hypothesis import given, settings

from manna import exchange, threshold, yankee
from manna.core import Allocation
from manna.errors import CleannessViolation, ContractViolation
from manna.exchange import shift_along_path, unweighted_adjacency
from manna.instgen import gen_capped_groups, gen_random_additive
from manna.valuations import Additive, Explicit, items_of
from manna.yankee import yankee_swap
from support import (
    reference_shortest_path_to_pool,
    reference_yankee_swap,
    solver_instances,
)


def brute_beta_leximin(num_items, valuations):
    """Best sorted vector of threshold-0 counts over every (n+1)-way split,
    plus the maximum total count."""
    n = len(valuations)
    best = None
    best_total = None
    for assign in product(range(n + 1), repeat=num_items):
        bundles = [set() for _ in range(n)]
        for item, a in enumerate(assign):
            if a > 0:
                bundles[a - 1].add(item)
        values = tuple(threshold.beta(v, 0, frozenset(s)) for v, s in zip(valuations, bundles))
        key = tuple(sorted(values))
        total = sum(values)
        if best is None or key > best:
            best = key
        if best_total is None or total > best_total:
            best_total = total
    return best, best_total


def test_example2_zero_threshold_oracles(named_fixtures):
    ex2 = named_fixtures["ex2"]
    out = yankee_swap(4, ex2.valuations)
    assert out.sizes() == (2, 2)
    assert out.bundle(2) == frozenset({0, 1})


def test_single_agent_single_useful_item():
    # counts one specific item; the other, whose marginal is -1, stays in
    # the pool
    out = yankee_swap(2, [Additive((1, -1))])
    assert out.bundle(1) == frozenset({0})
    assert out.unallocated == frozenset({1})


def test_all_zero_oracles():
    # every marginal is -1, so every threshold-0 count is zero
    chores = Explicit(3, tuple(-len(items_of(s)) for s in range(8)))
    out = yankee_swap(3, [chores, chores])
    assert out.sizes() == (0, 0)
    assert out.unallocated == frozenset({0, 1, 2})


def test_output_clean_and_matches_brute_force():
    for k in range(40):
        n = 2 + k % 2
        m = 4 + k % 3
        inst = gen_capped_groups(n, m, 1 + k % 3, (1, 3), (1, 3), 4000 + k)
        out = yankee_swap(m, inst.valuations)
        for i in inst.agents:
            assert threshold.beta(inst.valuation(i), 0, out.bundle(i)) == len(out.bundle(i))
        got_sizes = tuple(sorted(out.sizes()))
        want_sizes, want_total = brute_beta_leximin(m, inst.valuations)
        assert got_sizes == want_sizes
        assert sum(out.sizes()) == want_total


def test_rejects_a_bundle_left_unclean():
    # not submodular: item 1's marginal is -1 on {0} and on {2} but 0 on
    # {0, 2}, so the agent takes items 0, 2 and 1 in turn, and along the
    # ascending order item 1 counts -1 in {0, 1, 2}
    table = Explicit(3, (0, 0, 0, -1, 0, 0, -1, 0))
    with pytest.raises(CleannessViolation, match="agent 1: bundle not clean"):
        yankee_swap(3, [table])


def test_rejects_a_path_that_takes_another_agents_item(monkeypatch):
    # agent 1 takes o0 and agent 2 takes o1; on the third turn, agent 1's
    # second, a forged path takes o1 from agent 2.  Agent 1's bundle grows
    # by one and stays clean, so only the path's end shows the fault.
    search, calls = yankee.shortest_path_to_pool, []

    def forging_search(allocation, adjacency, sources):
        calls.append(sources)
        return (1,) if len(calls) == 3 else search(allocation, adjacency, sources)

    monkeypatch.setattr(yankee, "shortest_path_to_pool", forging_search)
    valuations = [Additive((0, 0, -1)), Additive((-1, 0, -1))]
    with pytest.raises(ContractViolation, match="^path does not end in part 0$"):
        yankee_swap(3, valuations)


PHASE1_INSTANCES = {
    "capped_6x30_s0": lambda: gen_capped_groups(6, 30, 2, (1, 3), (1, 3), 0),
    "capped_32x160_s0": lambda: gen_capped_groups(32, 160, 2, (1, 3), (1, 3), 0),
    "additive_8x40_s0": lambda: gen_random_additive(8, 40, 2, (1, 1, 2), 0),
}


@pytest.mark.parametrize("name", sorted(PHASE1_INSTANCES))
def test_reused_adjacency_equals_fresh_build(monkeypatch, name):
    """Every graph phase 1 advances in place equals a fresh build, and has
    only empty light lists; additive agents are fully declared at threshold
    0, so phase 1 splices them."""
    inst = PHASE1_INSTANCES[name]()
    built = spliced = 0
    splice = exchange._splice

    def recording_splice(*args):
        nonlocal spliced
        spliced += 1
        splice(*args)

    def recording(allocation, valuations, previous=None):
        nonlocal built
        graph = unweighted_adjacency(allocation, valuations, previous)
        # checked before the next build advances it in place
        assert graph == unweighted_adjacency(allocation, valuations)
        assert not any(light for light, _heavy in graph.adjacency.values())
        built += 1
        return graph

    monkeypatch.setattr(exchange, "_splice", recording_splice)
    monkeypatch.setattr(exchange, "unweighted_adjacency", recording)
    out = yankee_swap(inst.num_items, inst.valuations)
    # each augmentation allocates one more item; one build before the first
    # turn, then one after each augmentation and none when an agent retires
    augmentations = sum(out.sizes())
    assert augmentations > 20
    assert built == 1 + augmentations
    if name.startswith("additive"):
        assert spliced > 10


def test_adjacency_recomputes_gainer_holding_no_path_item():
    # agent 1 counts up to two of items 0..2; agent 2 counts one of {2, 3};
    # a count f becomes the valuation 2f - |S|, whose marginals are 1 where
    # f's are 1 and -1 where they are 0
    def counting(f):
        return Explicit(4, tuple(2 * f(s) - bin(s).count("1") for s in range(16)))

    valuations = [
        counting(lambda s: min(bin(s & 0b0111).count("1"), 2)),
        counting(lambda s: min(bin(s & 0b1100).count("1"), 1)),
    ]
    before = Allocation.from_bundles([{0}, {3}], 4)
    graph = unweighted_adjacency(before, valuations)
    assert graph.candidates == ((0, 1, 2), (2, 3))
    assert graph.adjacency == {0: ((), (1, 2)), 3: ((), (2,))}
    assert graph.desired == [{1, 2}, set()]
    kept_pair, kept_desired = graph.adjacency[3], graph.desired[1]
    # the path is a lone pool item: no agent holds a path item, yet the
    # gainer's bundle grows and its edges change
    after = shift_along_path(before, (1,), 1)
    reused = unweighted_adjacency(after, valuations, graph)
    fresh = unweighted_adjacency(after, valuations)
    # o2 is an out-neighbour of both held items but not desired: agent 1
    # already counts two of items 0..2
    assert reused == fresh
    assert reused.adjacency == {0: ((), (2,)), 1: ((), (2,)), 3: ((), (2,))}
    assert reused.desired == [set(), set()]
    # the previous graph is advanced in place, keeping the unchanged agent's
    # pair and desired items
    assert reused is graph
    assert graph.adjacency[3] is kept_pair and graph.desired[1] is kept_desired


class _Recording(list):
    """A desired-items list that remembers the last index read from it."""

    last = None

    def __getitem__(self, k):
        self.last = k
        return super().__getitem__(k)


@settings(max_examples=200)
@given(solver_instances(max_agents=6))
def test_round_robin_turn_order_equals_min_scan_reference(inst):
    """Each turn goes to the same agent and finds the same path, and the
    allocation is the same, as in the reference loop, which scans every
    active agent for the smallest bundle and walks every edge list in its
    searches."""
    want_turns = []
    want = reference_yankee_swap(inst.num_items, inst.valuations, want_turns)
    build, search = exchange.unweighted_adjacency, yankee.shortest_path_to_pool
    turns, recorded = [], []

    def recording_build(allocation, valuations, previous=None):
        graph = build(allocation, valuations, previous)
        if previous is None:
            graph.desired = _Recording(graph.desired)  # advanced in place from here on
            recorded.append(graph.desired)
        return graph

    def recording_search(allocation, adjacency, sources):
        path = search(allocation, adjacency, sources)
        # yankee_swap reads its agent's sources just before the search
        turns.append((recorded[0].last + 1, path))
        return path

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exchange, "unweighted_adjacency", recording_build)
        patch.setattr(yankee, "shortest_path_to_pool", recording_search)
        got = yankee_swap(inst.num_items, inst.valuations)
    assert turns == want_turns
    assert got == want


class _Walked(tuple):
    """An out-list pair that counts the times it is read."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


@pytest.mark.parametrize("name", sorted(PHASE1_INSTANCES))
def test_search_walks_each_shared_edge_list_once(monkeypatch, name):
    """Every search of a solve reads each out-list pair at most once, a pair
    shared by several items included, and finds the reference's path, which
    reads the pair of every item it reaches; shared pairs make that fewer
    reads in all.  A search on an empty pool, and one with a source in the
    pool (a direct pickup, whose path is its least such source), reads no
    pair."""
    inst = PHASE1_INSTANCES[name]()
    search = yankee.shortest_path_to_pool
    walks = {"search": 0, "reference": 0}
    forced = {"empty pool": 0, "direct pickup": 0}

    def counting_search(allocation, adjacency, sources):
        copies = {id(pair): _Walked(pair) for pair in adjacency.values()}
        pairs = {u: copies[id(pair)] for u, pair in adjacency.items()}
        walked_pairs = list(copies.values())
        path = search(allocation, pairs, sources)
        assert all(pair.walks <= 1 for pair in walked_pairs)
        walked = sum(pair.walks for pair in walked_pairs)
        pool = allocation.unallocated
        if not pool:
            forced["empty pool"] += bool(sources)
            assert walked == 0
        elif not pool.isdisjoint(sources):
            # a pickup with a choice of items
            forced["direct pickup"] += len(pool.intersection(sources)) > 1
            assert path == (min(pool.intersection(sources)),) and walked == 0
        walks["search"] += walked
        for pair in walked_pairs:
            pair.walks = 0
        assert path == reference_shortest_path_to_pool(allocation, pairs, sources)
        walks["reference"] += sum(pair.walks for pair in walked_pairs)
        return path

    monkeypatch.setattr(yankee, "shortest_path_to_pool", counting_search)
    yankee_swap(inst.num_items, inst.valuations)
    assert 0 < walks["search"] < walks["reference"]
    assert forced["empty pool"] > 0 and forced["direct pickup"] > 0


def test_search_walks_a_shared_pair_once():
    # o1 and o2 share one pair and are both reached from o0 in one layer, so
    # the pair is read at o1 only; the path to the pool item o9 goes
    # through o1, the first parent to reach o4
    shared = _Walked(((), (3, 4)))
    adjacency = {0: ((), (1, 2)), 1: shared, 2: shared, 4: ((), (9,))}
    allocation = Allocation.from_bundles([set(range(9))], 10)
    path = yankee.shortest_path_to_pool(allocation, adjacency, frozenset({0}))
    assert path == (0, 1, 4, 9)
    assert shared.walks == 1
