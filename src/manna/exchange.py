"""Exchange graphs, weighted path search, and path augmentation.

The exchange graph of a clean allocation has an edge ``o -> o'`` whenever the
agent holding ``o`` could swap it for ``o'`` without losing count under their
binary oracle.  Augmenting along a path shifts every item one step toward the
path's start, freeing the first item for the requesting agent.

The weighted variant grades edges in doubled units (so arithmetic stays in
exact integers): an edge from an agent's counted bundle into the same agent's
zero-valued bundle costs 1, every other edge costs 2.  Pool-terminated
("Pareto-improving") paths additionally pay a terminal pickup cost -- 1 when
the absorbing agent already holds the terminal item in its zero-valued
bundle, else 2.  The pickup rule extends the half-weight preference to
zero-edge singleton paths, where edge weights alone cannot discriminate; see
the regression test on the two-item cap fixture for why that matters.

Searches are deterministic: minimum doubled cost, then fewest edges, then
lexicographically smallest item sequence.  A search stops at the first
target it reaches, which holds the least key of all targets: exactly the one
a search run to exhaustion would pick.

* **Phase 2 runs Dijkstra.**  Extending a path strictly increases its key
  ``(cost, edges, item sequence)``, so Dijkstra settles keys in increasing
  order and the first target it settles has the least key.
* **Phase 1 searches breadth-first.**  Every edge weighs 1, so cost equals
  edge count and the key is ``(edges, item sequence)``.  A FIFO search
  discovers items in that order: a layer sorted by path key, expanded in
  discovery order through ascending edge lists, yields the next layer
  sorted by ``(parent's path key, item)``, which is that layer's path key.
  So the first parent to reach an item gives it its least key, and the
  first pool item discovered is the one Dijkstra would settle first.

Both phases reuse edges between states instead of recomputing them, and
neither reuse can change a tie-break.  The out-edges of an item held by
agent j depend only on j's bundles and j's oracle, so a builder given the
previous state and graph copies j's edge lists whenever j's bundles are
unchanged.  It decides this by comparing bundles, not by reading the path:
the gainer's bundle changes even when it holds no path item.  After an
augmentation only the gainer and the holders of path items have new
bundles.  The copied lists are the ones a fresh build would compute, so
the graph -- edges, weights and their order -- is the same as a
from-scratch build.

Phase 1 keeps the last ``unweighted_adjacency`` and rebuilds it only after
an augmentation, so a turn whose agent retires builds nothing.

Phase 2 builds one graph per state and asks it for up to n² paths, so two
things are shared instead of recomputed:

* **Incremental rebuilds.**  Agent j's weighted edges depend on ``xc_j``,
  ``x0_j`` and j's valuation; ``build_weighted_graph`` copies them when both
  of j's bundles are unchanged.
* **Reachability pre-filter.**  Each graph lazily builds its reverse
  adjacency and caches, per target set (the pool or an agent's counted
  bundle), the items that can reach it.  ``min_weight_path`` returns None
  before running Dijkstra when no source is among them.  Those are exactly
  the runs in which Dijkstra would reach no target and return None, so the
  searches that do run are unchanged.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .core import Allocation, Instance
from .errors import CleannessViolation, ContractViolation
from .threshold import beta

PARETO = "pareto_improving"
EXCHANGE = "exchange"


def f_set(inst: Instance, allocation: Allocation, agent: int, tau: int) -> frozenset[int]:
    """Items outside the agent's bundle whose threshold marginal is 1."""
    spec = inst.valuation(agent)
    bundle = allocation.bundle(agent)
    return frozenset(
        o
        for o in inst.items
        if o not in bundle and spec.marginal(bundle, o) >= tau
    )


def unweighted_adjacency(
    allocation: Allocation,
    oracles: Sequence,
    previous: Optional[tuple[Allocation, dict[int, list[int]]]] = None,
) -> dict[int, list[int]]:
    """Edge lists of the exchange graph of a clean allocation.

    ``oracles[i-1]`` must expose ``marginal(bundle, item)`` with values in
    {0, 1}.  Items in the pool have no outgoing edges.  ``previous``, an
    ``(allocation, adjacency)`` pair built with the same oracles, lends the
    edge lists of every agent whose bundle it shares; only the other agents'
    edges are computed.
    """
    num_items = allocation.num_items
    adj: dict[int, list[int]] = {}
    for j in range(1, allocation.num_agents + 1):
        bundle = allocation.bundle(j)
        if previous is not None and previous[0].bundle(j) == bundle:
            for o in sorted(bundle):
                if o in previous[1]:
                    adj[o] = previous[1][o]
            continue
        oracle = oracles[j - 1]
        for o in sorted(bundle):
            rest = bundle - {o}
            out = [
                op
                for op in range(num_items)
                if op not in bundle and oracle.marginal(rest, op) == 1
            ]
            if out:
                adj[o] = out
    return adj


@dataclass(frozen=True)
class WeightedExchangeGraph:
    """Exchange graph of ``xc`` under the c-threshold oracles, with doubled
    integer edge weights derived from ``x0`` membership."""

    inst: Instance
    xc: Allocation
    x0: Allocation
    owner: tuple[int, ...]
    adjacency: dict[int, tuple[tuple[int, int], ...]]
    _reaching: dict[frozenset[int], frozenset[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @cached_property
    def _reverse(self) -> dict[int, list[int]]:
        reverse: dict[int, list[int]] = defaultdict(list)
        for u, out in self.adjacency.items():
            for v, _w in out:
                reverse[v].append(u)
        return reverse

    def reaching(self, targets: frozenset[int]) -> frozenset[int]:
        """Items with a path to some item of ``targets`` (targets included),
        computed once per target set by a reverse search."""
        if targets not in self._reaching:
            seen = set(targets)
            stack = list(targets)
            while stack:
                for u in self._reverse.get(stack.pop(), ()):
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            self._reaching[targets] = frozenset(seen)
        return self._reaching[targets]

    def edges(self):
        for u in sorted(self.adjacency):
            for v, w in self.adjacency[u]:
                yield u, v, w

    def dump(self) -> str:
        return "\n".join(f"o{u} -> o{v} w={w}" for u, v, w in self.edges())


def build_weighted_graph(
    inst: Instance,
    xc: Allocation,
    x0: Allocation,
    check: bool = True,
    previous: Optional[WeightedExchangeGraph] = None,
) -> WeightedExchangeGraph:
    """Materialize the weighted exchange graph for the state ``(xc, x0)``.

    ``previous``, a graph of the same instance, lends the edge lists of every
    agent whose ``xc`` and ``x0`` bundles it shares; only the other agents'
    edges are computed.

    Preconditions (asserted unless ``check`` is False):
    ``xc`` clean at threshold c, ``xc ∪ x0`` clean at threshold 0, and the
    per-agent parts disjoint.
    """
    if check:
        violations = clean_state_violations(inst, xc, x0)
        if violations:
            raise ContractViolation("; ".join(violations))
    if previous is not None and previous.inst is not inst:
        raise ContractViolation("previous graph belongs to another instance")
    owner = tuple(xc.owner_map())
    adj: dict[int, tuple[tuple[int, int], ...]] = {}
    for j in inst.agents:
        bundle = xc.bundle(j)
        x0_j = x0.bundle(j)
        if (
            previous is not None
            and previous.xc.bundle(j) == bundle
            and previous.x0.bundle(j) == x0_j
        ):
            for o in sorted(bundle):
                if o in previous.adjacency:
                    adj[o] = previous.adjacency[o]
            continue
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
    return WeightedExchangeGraph(inst, xc, x0, owner, adj)


@dataclass(frozen=True)
class AugmentingPath:
    """A path selected for augmentation.

    ``target`` is the agent whose counted bundle shrinks; 0 means the path
    ends in the pool (Pareto-improving).  ``doubled_weight`` includes the
    terminal pickup cost for pool-terminated paths.
    """

    items: tuple[int, ...]
    kind: str
    source_agent: int
    target: int
    doubled_weight: int


def _run_dijkstra(starts, neighbors, targets):
    """Least key ``(cost, edge count, item path)`` of a path from ``starts``
    to ``targets``, or None when no target is reachable.

    Extending a path strictly increases its key, so keys leave the heap in
    increasing order and the first target popped with its final key is the
    least one; the search stops there.
    """
    best = dict(starts)
    heap = [(key, node) for node, key in sorted(starts.items())]
    heapq.heapify(heap)
    while heap:
        key, u = heapq.heappop(heap)
        if key > best[u]:
            continue
        if u in targets:
            return key
        cost, nedges, path = key
        for v, add in neighbors(u):
            cand = (cost + add, nedges + 1, path + (v,))
            if v not in best or cand < best[v]:
                best[v] = cand
                heapq.heappush(heap, (cand, v))
    return None


def min_weight_path(
    graph: WeightedExchangeGraph,
    sources: Iterable[int],
    kind: str,
    agent: int,
    target_agent: Optional[int] = None,
) -> Optional[AugmentingPath]:
    """Least-cost augmenting path from ``sources`` (the requesting agent's
    desired items) to the pool (``pareto_improving``) or to ``target_agent``'s
    counted bundle (``exchange``).  Returns None when no path exists."""
    xc, x0 = graph.xc, graph.x0
    if kind == PARETO:
        targets = xc.unallocated
    elif kind == EXCHANGE:
        if target_agent is None or target_agent == agent:
            raise ContractViolation("exchange paths need a distinct target agent")
        targets = xc.bundle(target_agent)
    else:
        raise ContractViolation(f"unknown path kind {kind!r}")

    def pickup(absorber: int, item: int) -> int:
        return 1 if item in x0.bundle(absorber) else 2

    starts = {}
    for o in sorted(sources):
        cost = pickup(agent, o) if (kind == PARETO and o in targets) else 0
        starts[o] = (cost, 0, (o,))
    if starts.keys().isdisjoint(graph.reaching(targets)):
        return None

    if kind == PARETO:
        def neighbors(u):
            for v, w in graph.adjacency.get(u, ()):
                yield v, w + (pickup(graph.owner[u], v) if v in targets else 0)
    else:
        def neighbors(u):
            yield from graph.adjacency.get(u, ())

    key = _run_dijkstra(starts, neighbors, targets)
    if key is None:
        return None
    target = 0 if kind == PARETO else target_agent
    return AugmentingPath(key[2], kind, agent, target, key[0])


def shift_along_path(allocation: Allocation, items: Sequence[int], gainer: int) -> Allocation:
    """Apply the path-augmentation shift: every path item moves one step back
    toward the start, the last item leaves its bundle, and the first item
    joins ``gainer``'s bundle."""
    path_set = set(items)
    if len(path_set) != len(items):
        raise ContractViolation("augmenting path repeats an item")
    arrivals: dict[int, set[int]] = {}
    for j in range(len(items) - 1):
        holder = allocation.owner_of(items[j])
        if holder == 0:
            raise ContractViolation("interior path item is unallocated")
        arrivals.setdefault(holder, set()).add(items[j + 1])
    new_bundles = []
    for k in range(1, allocation.num_agents + 1):
        b = (set(allocation.bundle(k)) - path_set) | arrivals.get(k, set())
        if k == gainer:
            b.add(items[0])
        new_bundles.append(b)
    return Allocation.from_bundles(new_bundles, allocation.num_items)


def clean_state_violations(inst: Instance, xc: Allocation, x0: Allocation) -> list[str]:
    """All broken state invariants: c-cleanness of xc, 0-cleanness of the
    per-agent unions, and per-agent disjointness.  Empty list when sound."""
    problems = []
    for i in inst.agents:
        spec = inst.valuation(i)
        xc_i, x0_i = xc.bundle(i), x0.bundle(i)
        if xc_i & x0_i:
            problems.append(f"agent {i}: xc and x0 overlap on {sorted(xc_i & x0_i)}")
        if beta(spec, inst.c, xc_i) != len(xc_i):
            problems.append(f"agent {i}: xc bundle not clean at threshold c")
        union = xc_i | x0_i
        if beta(spec, 0, union) != len(union):
            problems.append(f"agent {i}: xc ∪ x0 not clean at threshold 0")
    return problems


def augment(
    inst: Instance,
    xc: Allocation,
    x0: Allocation,
    path: AugmentingPath,
    check: bool = True,
) -> tuple[Allocation, Allocation]:
    """Augment the state along ``path`` and return the new ``(xc, x0)``.

    Pool-terminated paths also retire the terminal item from whichever x0
    bundle held it.  With ``check`` on, the postconditions (cleanness,
    disjointness, bundle-size deltas) are asserted and any failure raises
    ``CleannessViolation`` -- which must never happen for valid inputs.
    """
    items = path.items
    old_sizes = xc.sizes()
    new_xc = shift_along_path(xc, items, path.source_agent)
    if path.kind == PARETO:
        terminal = items[-1]
        new_x0 = Allocation.from_bundles(
            [x0.bundle(k) - {terminal} for k in inst.agents], inst.num_items
        )
    else:
        new_x0 = x0
    if check:
        expected = list(old_sizes)
        expected[path.source_agent - 1] += 1
        if path.kind == EXCHANGE:
            expected[path.target - 1] -= 1
        if list(new_xc.sizes()) != expected:
            raise CleannessViolation(
                f"bundle sizes {new_xc.sizes()} after augmentation, expected {tuple(expected)}"
            )
        problems = clean_state_violations(inst, new_xc, new_x0)
        if problems:
            raise CleannessViolation("; ".join(problems))
    return new_xc, new_x0


def shortest_path_to_pool(
    allocation: Allocation, adjacency: dict[int, list[int]], sources: Iterable[int]
) -> Optional[tuple[int, ...]]:
    """Shortest path from ``sources`` to the unallocated pool in
    ``adjacency``, the ``unweighted_adjacency`` of ``allocation``; ties go
    to the lexicographically smallest item sequence.

    A breadth-first search: each layer is walked in discovery order and each
    edge list in its ascending order, an item's parent is the first item to
    reach it, and the search stops at the first pool item it discovers.
    """
    pool = allocation.unallocated
    frontier = sorted(sources)
    for o in frontier:
        if o in pool:
            return (o,)
    parent: dict[int, Optional[int]] = dict.fromkeys(frontier)
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
