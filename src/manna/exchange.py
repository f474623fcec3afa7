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

Both builders scan only each agent's *candidate items*, listed once per
solve: the items whose marginal on the empty bundle reaches the threshold
(c in phase 2; in phase 1, a threshold-0 marginal of 1).  Marginals only
fall as a bundle grows, so for a bundle B holding o::

    Δ(B, o') <= Δ(B - o, o') <= Δ(∅, o')

Edge ``o -> o'`` needs the middle term to reach the threshold.  By the
right inequality no other item can be an out-neighbour.  By the left one a
candidate that reaches it on B itself (a *sure* one) is an out-neighbour of
every item of B, so only the other candidates (*maybe* ones) are tested
against each ``B - o``.  When there are none -- always for additive agents,
whose marginals never change, and for capped agents with no group at its
cap -- all items of B share one out-list.  Every test left out has a known
answer and the candidates are walked in ascending order, so each edge list,
its weights and its order are what a scan of all items gives.  The same
lists bound ``f_set`` and phase 1's desired items.

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
  bundle), the items that can reach it.  ``min_weight_path`` returns None,
  before it builds start keys or runs Dijkstra, when no source is among
  them.  Those are exactly the runs in which Dijkstra would reach no target
  and return None, so the searches that do run are unchanged.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable, Optional, Sequence

from .core import Allocation, Instance
from .errors import CleannessViolation, ContractViolation
from .threshold import beta

PARETO = "pareto_improving"
EXCHANGE = "exchange"


def candidate_items(marginal, threshold: int, num_items: int) -> tuple[int, ...]:
    """Items whose marginal on the empty bundle reaches ``threshold``, in
    ascending order.

    Marginals only fall as a bundle grows, so no other item reaches the
    threshold on any bundle: these are the only items an agent can desire
    and the only out-neighbours of the items it holds.
    """
    empty: frozenset[int] = frozenset()
    return tuple(o for o in range(num_items) if marginal(empty, o) >= threshold)


def f_set(
    inst: Instance,
    allocation: Allocation,
    agent: int,
    tau: int,
    candidates: Optional[Sequence[int]] = None,
) -> frozenset[int]:
    """Items outside the agent's bundle whose threshold marginal is 1.

    ``candidates`` is the agent's ``candidate_items`` at ``tau``, computed
    here when not given.
    """
    spec = inst.valuation(agent)
    if candidates is None:
        candidates = candidate_items(spec.marginal, tau, inst.num_items)
    bundle = allocation.bundle(agent)
    if not bundle:
        return frozenset(candidates)  # on the empty bundle, exactly these
    return frozenset(
        o for o in candidates if o not in bundle and spec.marginal(bundle, o) >= tau
    )


def _out_lists(bundle, outside, entries, marginal, threshold):
    """Out-lists of the items of one agent's ``bundle``: ``o -> o'`` whenever
    ``marginal(bundle - {o}, o') >= threshold``.

    ``outside`` lists the agent's candidate items that lie outside the
    bundle, in ascending order, and ``entries`` what an out-list holds for
    each (the item, or its ``(item, weight)`` edge).  A candidate that
    already clears the threshold on the whole bundle clears it on every
    ``bundle - {o}`` and is a *sure* out-neighbour of every held item; only
    the others are tested per held item.  When every candidate is sure, all
    held items share one out-list.  Items without out-edges are left out.
    """
    sure = [marginal(bundle, op) >= threshold for op in outside]
    if all(sure):
        shared = tuple(entries)
        return dict.fromkeys(sorted(bundle), shared) if shared else {}
    out = {}
    for o in sorted(bundle):
        rest = bundle - {o}
        edges = tuple(
            entry
            for op, entry, is_sure in zip(outside, entries, sure)
            if is_sure or marginal(rest, op) >= threshold
        )
        if edges:
            out[o] = edges
    return out


def unweighted_adjacency(
    allocation: Allocation,
    oracles: Sequence,
    candidates: Sequence[Sequence[int]],
    previous: Optional[tuple[Allocation, dict[int, tuple[int, ...]]]] = None,
) -> dict[int, tuple[int, ...]]:
    """Edge lists of the exchange graph of a clean allocation.

    ``oracles[i-1]`` must expose ``marginal(bundle, item)`` with values in
    {0, 1} that never grow as the bundle grows, and ``candidates[i-1]`` is its
    ``candidate_items`` at threshold 1.  Items in the pool have no outgoing
    edges.  ``previous``, an ``(allocation, adjacency)`` pair built with the
    same oracles, lends the edge lists of every agent whose bundle it shares;
    only the other agents' edges are computed.
    """
    adj: dict[int, tuple[int, ...]] = {}
    for j in range(1, allocation.num_agents + 1):
        bundle = allocation.bundle(j)
        if not bundle:
            continue
        if previous is not None and previous[0].bundle(j) == bundle:
            for o in sorted(bundle):
                if o in previous[1]:
                    adj[o] = previous[1][o]
            continue
        outside = [op for op in candidates[j - 1] if op not in bundle]
        adj.update(_out_lists(bundle, outside, outside, oracles[j - 1].marginal, 1))
    return adj


@dataclass(frozen=True)
class WeightedExchangeGraph:
    """Exchange graph of ``xc`` under the c-threshold oracles, with doubled
    integer edge weights derived from ``x0`` membership.  ``candidates[i-1]``
    is agent i's ``candidate_items`` at threshold c."""

    inst: Instance
    xc: Allocation
    x0: Allocation
    owner: tuple[int, ...]
    adjacency: dict[int, tuple[tuple[int, int], ...]]
    candidates: tuple[tuple[int, ...], ...]
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

    ``previous``, a graph of the same instance, lends its candidate lists and
    the edge lists of every agent whose ``xc`` and ``x0`` bundles it shares;
    only the other agents' edges are computed.

    Preconditions (asserted unless ``check`` is False):
    ``xc`` clean at threshold c, ``xc ∪ x0`` clean at threshold 0, and the
    per-agent parts disjoint.
    """
    if check:
        violations = clean_state_violations(inst, xc, x0)
        if violations:
            raise ContractViolation("; ".join(violations))
    if previous is None:
        candidates = tuple(
            candidate_items(inst.valuation(j).marginal, inst.c, inst.num_items)
            for j in inst.agents
        )
    elif previous.inst is not inst:
        raise ContractViolation("previous graph belongs to another instance")
    else:
        candidates = previous.candidates
    owner = tuple(xc.owner_map())
    adj: dict[int, tuple[tuple[int, int], ...]] = {}
    for j in inst.agents:
        bundle = xc.bundle(j)
        if not bundle:
            continue
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
        outside = [op for op in candidates[j - 1] if op not in bundle]
        # One (item, weight) edge per candidate, shared by every out-list.
        # Parallel lists, not (item, edge) pairs: short-lived pairs mixed in
        # with the long-lived edges fragmented memory and raised peak RSS.
        edges = [(op, 1 if op in x0_j else 2) for op in outside]
        adj.update(
            _out_lists(bundle, outside, edges, inst.valuation(j).marginal, inst.c)
        )
    return WeightedExchangeGraph(inst, xc, x0, owner, adj, candidates)


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
    sources: Collection[int],
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

    if graph.reaching(targets).isdisjoint(sources):
        return None

    def pickup(absorber: int, item: int) -> int:
        return 1 if item in x0.bundle(absorber) else 2

    starts = {}
    for o in sorted(sources):
        cost = pickup(agent, o) if (kind == PARETO and o in targets) else 0
        starts[o] = (cost, 0, (o,))

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


def clean_state_violations(
    inst: Instance,
    xc: Allocation,
    x0: Allocation,
    agents: Optional[Iterable[int]] = None,
) -> list[str]:
    """All broken state invariants: c-cleanness of xc, 0-cleanness of the
    per-agent unions, and per-agent disjointness.  Empty list when sound.

    Each invariant concerns one agent's bundles; ``agents`` limits the check
    to those agents (default: all).
    """
    problems = []
    for i in inst.agents if agents is None else agents:
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
    ``CleannessViolation`` -- which must never happen for valid inputs.  The
    state passed in must be sound: cleanness and disjointness are rechecked
    only for the agents whose ``xc`` or ``x0`` bundle changed.
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
        changed = [
            k
            for k in inst.agents
            if new_xc.bundle(k) != xc.bundle(k) or new_x0.bundle(k) != x0.bundle(k)
        ]
        problems = clean_state_violations(inst, new_xc, new_x0, changed)
        if problems:
            raise CleannessViolation("; ".join(problems))
    return new_xc, new_x0


def shortest_path_to_pool(
    allocation: Allocation, adjacency: dict[int, Sequence[int]], sources: Iterable[int]
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
