"""Shared helpers for the test suite: the canonical randomized suite, a
constructive source of two-valued submodular tables, a Hypothesis strategy
for small solver instances, a reference path search, reference
exchange-graph builders, reference phase-1 and phase-2 loops, the
per-subset rank-table loop and the per-subset validator loops the
packed-lane validators replaced."""

from __future__ import annotations

import heapq

from hypothesis import strategies as st

from manna.core import Allocation, Instance
from manna.errors import OracleViolation
from manna.exchange import (
    EXCHANGE,
    PARETO,
    augment,
    build_weighted_graph,
    candidate_items,
    min_weight_path,
    shift_along_path,
    unweighted_adjacency,
)
from manna.instgen import (
    SplitMix64,
    gen_capped_groups,
    gen_random_additive,
    graphic_matroid_rank_table,
)
from manna.threshold import is_clean
from manna.valuations import Additive, CheckResult, Explicit, items_of
from manna.yankee import _CheckedOracle

ADDITIVE_SEED_BASE = 1000
CAPPED_SEED_BASE = 2000
SUITE_SIZE = 200


def suite_params(family: str):
    """Parameters of the 200-instance randomized suite for one family:
    n in {2, 3}, m in {4..8}, c in {1, 2, 3}, fixed seeds."""
    base = ADDITIVE_SEED_BASE if family == "additive" else CAPPED_SEED_BASE
    for k in range(SUITE_SIZE):
        yield 2 + k % 2, 4 + k % 5, 1 + k % 3, base + k


def make_suite_instance(family: str, n: int, m: int, c: int, seed: int) -> Instance:
    if family == "additive":
        return gen_random_additive(n, m, c, (1, 1, 2), seed)
    return gen_capped_groups(n, m, c, (1, 3), (1, 3), seed)


def suite_instances():
    for family in ("additive", "capped_groups"):
        for n, m, c, seed in suite_params(family):
            yield family, make_suite_instance(family, n, m, c, seed)


def gf2_rank_table(m: int, vectors: list[int]) -> list[int]:
    """Rank of every subset of ``vectors`` over GF(2), indexed by bitmask."""

    def rank(items: list[int]) -> int:
        basis: list[int] = []
        for o in items:
            v = vectors[o]
            for b in basis:
                v = min(v, v ^ b)
            if v:
                basis.append(v)
                basis.sort(reverse=True)
        return len(basis)

    return [rank([o for o in range(m) if mask >> o & 1]) for mask in range(1 << m)]


def random_two_valued_table(m: int, a: int, b: int, seed: int) -> Explicit:
    """A random {a, b}-valued submodular table, a < b: a modular shift of a
    random binary-matroid rank function, v(S) = a|S| + (b-a) rank(S)."""
    assert a < b
    rng = SplitMix64(seed)
    dim = 1 + rng.below(m)
    vectors = [rng.below(1 << dim) for _ in range(m)]
    ranks = gf2_rank_table(m, vectors)
    table = []
    for mask in range(1 << m):
        size = bin(mask).count("1")
        table.append(a * size + (b - a) * ranks[mask])
    return Explicit(m, tuple(table))


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


@st.composite
def solver_instances(draw, max_agents=5):
    """A small additive, capped-groups or graphic-matroid ``Explicit``
    instance with 2 to ``max_agents`` agents."""
    family = draw(st.sampled_from(("additive", "capped", "graphic")))
    n = draw(st.integers(2, max_agents))
    seed = draw(st.integers(0, 2**16))
    if family == "graphic":
        return graphic_matroid_instance(n, draw(st.integers(5, 9)), seed)
    m = n * draw(st.integers(2, 5))
    c = draw(st.integers(1, 3))
    if family == "additive":
        return gen_random_additive(n, m, c, (1, 1, 2), seed)
    return gen_capped_groups(n, m, c, (1, 3), (1, 3), seed)


def permute_additive(inst: Instance, item_perm: list[int]) -> Instance:
    """Relabel the items of an additive instance: new item ``item_perm[o]``
    is the old item ``o``."""
    specs = []
    for spec in inst.valuations:
        assert isinstance(spec, Additive)
        values = [0] * inst.num_items
        for o, v in enumerate(spec.values):
            values[item_perm[o]] = v
        specs.append(Additive(tuple(values)))
    return Instance(inst.num_agents, inst.num_items, inst.c, tuple(specs))


def permute_allocation(allocation: Allocation, item_perm: list[int]) -> Allocation:
    return Allocation(
        tuple(frozenset(item_perm[o] for o in b) for b in allocation.bundles),
        frozenset(item_perm[o] for o in allocation.unallocated),
    )


def exhaustive_least_key(starts, neighbors, targets):
    """Reference for both path searches, ``dijkstra.least_key`` and
    ``yankee.shortest_path_to_pool`` (every edge weighing 1): run Dijkstra
    over the whole reachable graph, then take the least key among the
    reached targets."""
    best = dict(starts)
    heap = [(key, node) for node, key in sorted(starts.items())]
    heapq.heapify(heap)
    while heap:
        key, u = heapq.heappop(heap)
        if key > best[u]:
            continue
        cost, nedges, path = key
        for v, add in neighbors(u):
            cand = (cost + add, nedges + 1, path + (v,))
            if v not in best or cand < best[v]:
                best[v] = cand
                heapq.heappush(heap, (cand, v))
    reached = [best[t] for t in targets if t in best]
    return min(reached) if reached else None


def full_scan_unweighted_adjacency(allocation, oracles):
    """Reference for ``exchange.unweighted_adjacency``: every held item's
    oracle is asked about every item outside its holder's bundle."""
    adj = {}
    for j in range(1, allocation.num_agents + 1):
        bundle = allocation.bundle(j)
        oracle = oracles[j - 1]
        for o in sorted(bundle):
            rest = bundle - {o}
            out = tuple(
                op
                for op in range(allocation.num_items)
                if op not in bundle and oracle.marginal(rest, op) == 1
            )
            if out:
                adj[o] = out
    return adj


def full_scan_weighted_adjacency(inst, xc, x0):
    """Reference for the edge lists of ``exchange.build_weighted_graph``,
    scanning every item for every held item."""
    adj = {}
    for j in inst.agents:
        bundle = xc.bundle(j)
        x0_j = x0.bundle(j)
        spec = inst.valuation(j)
        for o in sorted(bundle):
            rest = bundle - {o}
            out = []
            for op in range(inst.num_items):
                if op in bundle:
                    continue
                if spec.marginal(rest, op) >= inst.c:
                    out.append((op, 1 if op in x0_j else 2))
            if out:
                adj[o] = tuple(out)
    return adj


def full_scan_f_set(allocation, oracle, agent, tau):
    """Reference for ``exchange.f_set`` and for the desired items of
    ``exchange.unweighted_adjacency`` (``tau`` = 1), scanning every item."""
    bundle = allocation.bundle(agent)
    return frozenset(
        o
        for o in range(allocation.num_items)
        if o not in bundle and oracle.marginal(bundle, o) >= tau
    )


def _filtered_path(graph, sources, kind, agent, target_agent=None):
    """``min_weight_path`` behind the reachability filter, whatever the kind."""
    targets = graph.xc.unallocated if kind == PARETO else graph.xc.bundle(target_agent)
    if graph.reaching(targets).isdisjoint(sources):
        return None
    return min_weight_path(graph, sources, kind, agent, target_agent)


def reference_phase2(state, inst, trace, rescans):
    """Reference for ``solver.phase2``: exhaust Pareto-improving paths, make
    one qualifying exchange augmentation, and start over, so the Pareto
    paths are sought again after every exchange; every search is filtered
    by reachability.  Each augmentation's trace line goes to ``trace``, and
    the result of each rescan, the first Pareto scan after an exchange, is
    appended to ``rescans``."""
    graph = None
    after_exchange = False
    while True:
        while True:
            graph = build_weighted_graph(
                inst, state.xc, state.x0, check=False, previous=graph
            )
            found = None
            for i in inst.agents:
                path = _filtered_path(graph, graph.desired[i - 1], PARETO, i)
                if path is not None:
                    found = path
                    break
            if after_exchange:
                rescans.append(found)
            after_exchange = False
            if found is None:
                break
            state.xc, state.x0 = augment(inst, state.xc, state.x0, found)
            state.pareto_augmentations += 1
            trace(
                f"phase2 pareto i={found.source_agent} j=0 "
                f"path={list(found.items)} w={found.doubled_weight}"
            )
        sizes = state.xc.sizes()
        found = None
        for i in inst.agents:
            sources = graph.desired[i - 1]
            for j in inst.agents:
                if j == i or not sources:
                    continue
                balances = sizes[i - 1] + 1 < sizes[j - 1]
                swaps_down = sizes[i - 1] + 1 == sizes[j - 1] and i < j
                if balances or swaps_down:
                    found = _filtered_path(graph, sources, EXCHANGE, i, target_agent=j)
                    if found is not None:
                        break
            if found is not None:
                break
        if found is None:
            return state
        state.xc, state.x0 = augment(inst, state.xc, state.x0, found)
        state.exchange_augmentations += 1
        after_exchange = True
        trace(
            f"phase2 exchange i={found.source_agent} j={found.target} "
            f"path={list(found.items)} w={found.doubled_weight}"
        )


def reference_shortest_path_to_pool(allocation, adjacency, sources):
    """Reference for ``yankee.shortest_path_to_pool``: the same
    breadth-first search, walking the edge list of every item it reaches."""
    pool = allocation.unallocated
    frontier = sorted(sources)
    for o in frontier:
        if o in pool:
            return (o,)
    parent = dict.fromkeys(frontier)
    while frontier:
        layer = []
        for u in frontier:
            for v in adjacency.get(u, ()):
                if v in parent:
                    continue
                parent[v] = u
                if v in pool:
                    path = [v]
                    while (v := parent[v]) is not None:
                        path.append(v)
                    return tuple(reversed(path))
                layer.append(v)
        frontier = layer
    return None


def reference_yankee_swap(num_items, betas, turns):
    """Reference for ``yankee.yankee_swap``: each turn goes to the active
    agent with the smallest bundle (ties to the lower index), found by a
    scan of all active agents, and searches with
    ``reference_shortest_path_to_pool``.  Each turn's ``(agent, path)`` is
    appended to ``turns``, ``path`` None when the agent retires."""
    n = len(betas)
    oracles = [_CheckedOracle(b, i + 1) for i, b in enumerate(betas)]
    candidates = [candidate_items(o.marginals, 1, num_items) for o in oracles]
    asked = [frozenset(c) for c in candidates]  # no declaration is used
    allocation = Allocation.empty(n, num_items)
    adjacency, desired = unweighted_adjacency(allocation, oracles, candidates, asked)
    active = set(range(1, n + 1))
    while active:
        agent = min(active, key=lambda i: (len(allocation.bundle(i)), i))
        path = reference_shortest_path_to_pool(allocation, adjacency, desired[agent - 1])
        turns.append((agent, path))
        if path is None:
            active.discard(agent)
            continue
        previous = (allocation, adjacency, desired)
        allocation = shift_along_path(allocation, path, agent)
        if not is_clean(oracles[agent - 1], allocation.bundle(agent)):
            raise OracleViolation(f"agent {agent}: bundle not clean after augmentation")
        adjacency, desired = unweighted_adjacency(
            allocation, oracles, candidates, asked, previous
        )
    return allocation


def reference_rank_table(num_edges, edges):
    """Reference for ``instgen.graphic_matroid_rank_table``: a fresh
    union-find over every edge of each subset."""
    table = []
    for mask in range(1 << num_edges):
        parent = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        rank = 0
        for e in range(num_edges):
            if mask >> e & 1:
                ru, rv = find(edges[e][0]), find(edges[e][1])
                if ru != rv:
                    parent[ru] = rv
                    rank += 1
        table.append(rank)
    return Explicit(num_edges, tuple(table))


def reference_validate_range(spec, c):
    """Reference for ``valuations.validate_range``: every (S, o) in turn."""
    m = spec.num_items
    allowed = {-1, 0, c}
    for mask in range(1 << m):
        for o in range(m):
            bit = 1 << o
            if mask & bit:
                continue
            delta = spec.table[mask | bit] - spec.table[mask]
            if delta not in allowed:
                return CheckResult(
                    False,
                    (items_of(mask), o, delta),
                    f"marginal of item {o} on {sorted(items_of(mask))} is {delta}",
                )
    return CheckResult(True)


def reference_validate_submodular(spec):
    """Reference for ``valuations.validate_submodular``: every (S, o, p) in
    turn, both orders of each pair."""
    if spec.table[0] != 0:
        return CheckResult(False, (frozenset(),), "value of the empty set is nonzero")
    m = spec.num_items
    for mask in range(1 << m):
        for o in range(m):
            bit_o = 1 << o
            if mask & bit_o:
                continue
            delta_s = spec.table[mask | bit_o] - spec.table[mask]
            for op in range(m):
                bit_p = 1 << op
                if op == o or mask & bit_p:
                    continue
                bigger = mask | bit_p
                delta_t = spec.table[bigger | bit_o] - spec.table[bigger]
                if delta_s < delta_t:
                    return CheckResult(
                        False,
                        (items_of(mask), items_of(bigger), o),
                        f"marginal of item {o} grows from {delta_s} to {delta_t}",
                    )
    return CheckResult(True)


def reference_validate_order_neutral(spec):
    """Reference for ``valuations.validate_order_neutral``: a dynamic program
    over subsets, where the sorted-gain multisets of S are those of S-o
    extended by Δ(S-o, o), stopped at the first bundle with two."""
    m = spec.num_items
    reachable = [None] * (1 << m)
    reachable[0] = frozenset({()})
    for mask in range(1, 1 << m):
        vecs = set()
        for o in range(m):
            bit = 1 << o
            if not mask & bit:
                continue
            parent = mask ^ bit
            delta = spec.table[mask] - spec.table[parent]
            for vec in reachable[parent]:
                vecs.add(tuple(sorted(vec + (delta,))))
        if len(vecs) > 1:
            two = sorted(vecs)[:2]
            return CheckResult(
                False,
                (items_of(mask), two[0], two[1]),
                f"bundle {sorted(items_of(mask))} has telescoping vectors "
                f"{two[0]} and {two[1]}",
            )
        reachable[mask] = frozenset(vecs)
    return CheckResult(True)
