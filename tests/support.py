"""Shared helpers for the test suite: the canonical randomized suite, a
constructive source of two-valued submodular tables, a reference path search
and reference exchange-graph builders."""

from __future__ import annotations

import heapq

from manna.core import Allocation, Instance
from manna.instgen import SplitMix64, gen_capped_groups, gen_random_additive
from manna.valuations import Additive, Explicit

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
    """Reference for both path searches, ``exchange._run_dijkstra`` and
    ``exchange.shortest_path_to_pool`` (every edge weighing 1): run Dijkstra
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
