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

* **Phase 2 runs a lazy Dijkstra, one search for both path kinds.**
  Extending a path strictly increases its key ``(cost, edges, item
  sequence)``, so Dijkstra settles keys in increasing order and the first
  target it settles has the least key.  The heap holds cursors, not edges.
  Out-lists are sorted by item, and the extensions of a path through the
  edges of one *class* share its cost, edge count and prefix, so their keys
  rise with the item.  One cursor per expanded node and class stands for
  all of them with its least key whose item is not yet settled; popped, it
  moves on past the items settled since.  So the heap's least entry is the
  least key an eager search, pushing every edge, would hold, and each item
  is settled at its first pop.  The search stops at the first target, so
  most of each out-list is never read.  An exchange edge's class is its
  weight, 1 or 2.  A pool search's class adds whether the edge enters the
  pool: an item picked up from the pool along ``u -> v`` costs 1 exactly
  when ``v`` lies in the zero-valued bundle of ``u``'s holder, the very
  test that made the edge's weight 1, so a pool edge costs twice its
  weight.  The builder records, per node, the weights of its holder's
  candidate edges: exactly its out-list's weights when the list is shared,
  as every additive agent's is, so that no cursor walks such a list for a
  class it lacks.  An item with a list of its own gets its holder's
  weights too, which is cheaper than scanning each list.
* **Phase 1 searches breadth-first.**  Every edge weighs 1, so cost equals
  edge count and the key is ``(edges, item sequence)``.  A FIFO search
  discovers items in that order: a layer sorted by path key, expanded in
  discovery order through ascending edge lists, yields the next layer
  sorted by ``(parent's path key, item)``, which is that layer's path key.
  So the first parent to reach an item gives it its least key, and the
  first pool item discovered is the one Dijkstra would settle first.  An
  edge list that several items share -- one tuple object, as the builder
  makes it when all of an agent's candidates are sure -- is walked only at
  the first of them.  That walk gave every item on the list a parent, or
  found the pool, so a second walk would skip every item on it.  The skip
  keys on the list's identity, as the builders key on bundle identity,
  and needs no node map.

Both builders scan only each agent's *candidate items*, listed once per
solve: the items whose marginal on the empty bundle reaches the threshold
(c in phase 2; in phase 1, a threshold-0 marginal of 1).  Marginals only
fall as a bundle grows, so for a bundle B holding o::

    Δ(B, o') <= Δ(B - o, o') <= Δ(∅, o')

Edge ``o -> o'`` needs the middle term to reach the threshold.  By the
right inequality no other item can be an out-neighbour.  By the left one a
candidate that reaches it on B itself (a *sure* one) is an out-neighbour of
every item of B, so only the other candidates (*maybe* ones) are tested
against each ``B - o``.  A candidate that the agent's valuation declares
*bundle-independent* (see ``valuations``) is sure without an oracle call:
its marginal on B is still its marginal on ∅, which reached the threshold.
So the sure test asks only about the undeclared candidates.  The oracles
are asked in batches: ``marginals(B, items)`` gives the marginals of a list
of items on one bundle.  The candidates cost one call on the empty bundle,
the sure test at most one call per agent and the maybe test one per held
item, so the wrapper layers between a builder and the valuation, and their
checks, are paid once per call instead of once per item.
When there are no maybe candidates -- always when every candidate is
declared, as for additive agents, and for capped agents with no group at
its cap -- all items of B share one out-list.  Every test left out has a
known answer and the candidates are walked in ascending order, so each edge
list, its weights and its order are what a scan of all items gives.  The
same lists bound ``f_set``.  An agent's desired items, its ``f_set``, are
its sure candidates, so both builders keep them with the edges.  An agent
whose candidates are all declared makes no oracle call after its candidates
are listed.

Both phases advance one graph in place along each augmentation instead of
building a new one per state, and this changes no tie-break.  The
out-edges of an item held by agent j depend only on j's bundles and j's
oracle.  After an augmentation only the gainer and the holders of path
items have new bundles: ``shift_along_path`` and ``augment`` pass every
other agent's bundle through as the same object.  So a builder given the
previous graph keys each agent on the identity of its bundles.  An agent
whose bundle objects are the previous graph's keeps its entries; every
other agent's entries are dropped, all of them before any is computed anew,
since an item may move between two such agents.  A bundle rebuilt equal to
the old one is merely recomputed, so identity is a safe stand-in for
equality, and the builder never reads the path: the gainer's bundle changes
even when it holds no path item.  A fresh build is the same code starting
from an empty graph, in which every agent counts as changed.  The entries
kept are the ones a fresh build would compute, so the graph -- edges,
weights and their order -- is the same as a from-scratch build.  The
graph passed to a builder as ``previous`` is consumed: the builder updates
it in place, so it no longer describes the state it was built for.

Phase 1 keeps the last ``unweighted_adjacency`` and advances it only after
an augmentation, so a turn whose agent retires builds nothing.

Phase 2 advances one graph per state and asks it for up to n² paths, so
these things are shared instead of recomputed:

* **In-place updates.**  Agent j's weighted edges and desired items depend
  on ``xc_j``, ``x0_j`` and j's valuation, and ``build_weighted_graph``
  recomputes them, with j's nodes and their weights, only when one of
  j's bundle objects changed.  The desired items at threshold c, the sources
  of j's searches, are the sure candidates of its out-lists.
* **Agent quotient.**  The held items of an agent whose items all share one
  out-list -- every additive agent -- form one node; every other item with
  out-edges is a node of its own.
* **Reverse lists only where they are read.**  The graph keeps, per item,
  the set of nodes with an edge into it, for the reverse search below.
  Only pool searches read them.  In the Pareto stage they are kept in
  place: only the entries that a rebuilt agent's old or new nodes point
  into change.  The exchange stage makes no pool search until its final
  check, so it stops keeping them, and ``reaching`` rebuilds them once,
  from the nodes and their out-lists, before that check.
* **Reachability pre-filter, for pool searches only.**  Each graph caches
  the items that can reach the pool, found by a reverse search that
  expands each node into its members once.  A ``pareto_improving`` search
  returns None, before it builds start costs or runs Dijkstra, when no
  source is among them.  Those are exactly the runs in which Dijkstra
  would reach no target and return None, so the searches that do run are
  unchanged.  The one reverse search serves the Pareto scan of all n
  agents, most of whose searches find nothing, so it pays.  An exchange
  search has a target set of its own, an agent's counted bundle, and the
  exchange scan searches only pairs whose sizes qualify, where a path
  nearly always exists.  A reverse search there would cost about as much
  as the Dijkstra run it could spare, so exchange searches run Dijkstra
  directly.
* **One expansion per node.**  Dijkstra pushes a shared node's cursors only
  when the first of its members leaves the heap; a later member is still
  tested as a target, but not expanded.  This prunes nothing that matters.
  The members share one out-list, so the same weights, and one holder, so
  the same Pareto pickup costs: each offers the same extensions at the same
  added cost.  A later member's key is larger, since keys leave the heap in
  increasing order and no two are equal.  Extended by the same edge it
  stays larger: a smaller cost or edge count carries over, and with both
  equal the two paths have one length and differ before their last item.
  So a later member's extension improves no key a search would settle.
"""

from __future__ import annotations

import heapq
from itertools import compress
from dataclasses import dataclass, field
from typing import Collection, Iterable, Optional, Sequence

from .core import Allocation, Instance
from .errors import CleannessViolation, ContractViolation
from .threshold import beta

PARETO = "pareto_improving"
EXCHANGE = "exchange"


def candidate_items(marginals, threshold: int, num_items: int) -> tuple[int, ...]:
    """Items whose marginal on the empty bundle reaches ``threshold``, in
    ascending order; ``marginals(bundle, items)`` is the agent's batched
    oracle, asked once.

    Marginals only fall as a bundle grows, so no other item reaches the
    threshold on any bundle: these are the only items an agent can desire
    and the only out-neighbours of the items it holds.
    """
    gains = marginals(frozenset(), range(num_items))
    return tuple(o for o, d in enumerate(gains) if d >= threshold)


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
        candidates = candidate_items(spec.marginals, tau, inst.num_items)
    bundle = allocation.bundle(agent)
    if not bundle:
        return frozenset(candidates)  # on the empty bundle, exactly these
    outside = [o for o in candidates if o not in bundle]
    gains = spec.marginals(bundle, outside)
    return frozenset(o for o, d in zip(outside, gains) if d >= tau)


def _out_lists(bundle, outside, entries, dependent, marginals, threshold):
    """Out-lists of the items of one agent's ``bundle``, and which of the
    agent's candidates are *sure* ones.

    ``o -> o'`` whenever ``marginals(bundle - {o}, [o'])`` reaches
    ``threshold``; ``marginals`` is the agent's batched oracle.  ``outside``
    lists the agent's candidate items that lie outside the bundle, in
    ascending order, and ``entries`` what an out-list holds for each (the
    item, or its ``(item, weight)`` edge).  Only the candidates in
    ``dependent``, those the agent's valuation does not declare
    bundle-independent, are asked about: any other is sure without a call.
    One that clears the threshold on the whole bundle clears it on every
    ``bundle - {o}`` and is sure too.  A sure candidate is an out-neighbour
    of every held item; only the others, the *maybe* ones, are tested per
    held item, in one call each.  When every candidate is sure, all held
    items share one out-list.  Items without out-edges are left out.
    Returned with the out-lists are the sure candidates: the items the agent
    desires.
    """
    asked = [o for o in outside if o in dependent] if dependent else ()
    low = asked and {o for o, d in zip(asked, marginals(bundle, asked)) if d < threshold}
    if not low:
        shared = tuple(entries)
        out = dict.fromkeys(sorted(bundle), shared) if shared else {}
        return out, frozenset(outside)
    sure = [o not in low for o in outside]
    desired = frozenset(compress(outside, sure))
    maybe = [k for k, is_sure in enumerate(sure) if not is_sure]
    maybe_items = [outside[k] for k in maybe]
    out = {}
    for o in sorted(bundle):
        keep = sure.copy()
        for k, d in zip(maybe, marginals(bundle - {o}, maybe_items)):
            if d >= threshold:
                keep[k] = True
        edges = tuple(compress(entries, keep))
        if edges:
            out[o] = edges
    return out, desired


def unweighted_adjacency(
    allocation: Allocation,
    oracles: Sequence,
    candidates: Sequence[Sequence[int]],
    dependent: Sequence[frozenset[int]],
    previous: Optional[tuple[Allocation, dict, list[frozenset[int]]]] = None,
) -> tuple[dict[int, tuple[int, ...]], list[frozenset[int]]]:
    """Edge lists of the exchange graph of a clean allocation, and each
    agent's desired items: its candidates outside its bundle whose marginal
    on the bundle is 1 (``desired[i-1]`` for agent i).

    ``oracles[i-1]`` must expose ``marginals(bundle, items)`` with values in
    {0, 1} that never grow as the bundle grows, and ``candidates[i-1]`` is its
    ``candidate_items`` at threshold 1, of which ``dependent[i-1]`` are those
    the oracle does not declare bundle-independent, the only ones it is
    asked about.  Items in the pool have no outgoing edges.  ``previous``,
    an ``(allocation, adjacency, desired)`` triple built with the same
    oracles, is consumed: its adjacency and desired items are advanced in
    place and returned, recomputed only for the agents whose bundle is not
    the same object as in its allocation.
    """
    if previous is None:
        before = (None,) * allocation.num_agents  # every agent is computed
        adj: dict[int, tuple[int, ...]] = {}
        desired: list[frozenset[int]] = [frozenset()] * allocation.num_agents
    else:
        before, adj, desired = previous[0].bundles, previous[1], previous[2]
    changed = [
        j
        for j, (bundle, old) in enumerate(zip(allocation.bundles, before), start=1)
        if bundle is not old
    ]
    for j in changed:
        for o in before[j - 1] or ():
            adj.pop(o, None)
    for j in changed:
        bundle = allocation.bundles[j - 1]
        if not bundle:
            # on the empty bundle, exactly the candidates
            desired[j - 1] = frozenset(candidates[j - 1])
            continue
        outside = [op for op in candidates[j - 1] if op not in bundle]
        out, desired[j - 1] = _out_lists(
            bundle, outside, outside, dependent[j - 1], oracles[j - 1].marginals, 1
        )
        adj.update(out)
    return adj, desired


@dataclass
class WeightedExchangeGraph:
    """Exchange graph of ``xc`` under the c-threshold oracles, with doubled
    integer edge weights derived from ``x0`` membership.  ``candidates[i-1]``
    is agent i's ``candidate_items`` at threshold c, ``dependent[i-1]``
    those of them its valuation does not declare bundle-independent, and
    ``desired[i-1]`` its ``f_set`` at threshold c.

    The graph is also kept as its agent quotient.  Each item with out-edges
    lies in one node: agent i's node ``-i`` when all of i's held items share
    one out-list, else a node of its own, named by the item.  ``node_of``
    maps such an item to its node, ``members`` a node to its items in
    ascending order, ``weights`` a node to the weights of its holder's
    candidate edges (``(1,)``, ``(2,)`` or ``(1, 2)``; every weight its
    out-list has, and exactly those for a shared list), and ``reverse`` an
    item to the nodes with an edge into it.  ``reverse`` is valid wherever
    it is read: while ``reverse_kept`` is False it is not kept up to date,
    and ``reaching`` rebuilds it before reading it.

    A graph passed as ``previous`` to ``build_weighted_graph`` is advanced
    in place to the new state and returned.
    """

    inst: Instance
    xc: Allocation
    x0: Allocation
    adjacency: dict[int, tuple[tuple[int, int], ...]]
    candidates: tuple[tuple[int, ...], ...]
    dependent: tuple[frozenset[int], ...]
    desired: list[frozenset[int]]
    node_of: dict[int, int]
    members: dict[int, tuple[int, ...]]
    weights: dict[int, tuple[int, ...]]
    reverse: dict[int, set[int]]
    reverse_kept: bool = True
    _reaching: dict[frozenset[int], frozenset[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def reaching(self, targets: frozenset[int]) -> frozenset[int]:
        """Items with a path to some item of ``targets`` (targets included),
        computed once per target set by a reverse search that expands each
        node into its members once.  Rebuilds ``reverse`` first when it is
        not kept."""
        if not self.reverse_kept:
            # The stale lists are freed only now, so that the new ones can
            # take their memory: freed any earlier, it went to other objects
            # and the rebuild raised the peak RSS.
            self.reverse = {}
            for node, items in self.members.items():
                _point_into(self.reverse, node, self.adjacency[items[0]])
            self.reverse_kept = True
        if targets not in self._reaching:
            seen = set(targets)
            stack = list(targets)
            expanded = set()
            while stack:
                for node in self.reverse.get(stack.pop(), ()):
                    if node not in expanded:
                        expanded.add(node)
                        for u in self.members[node]:
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

    ``previous``, a graph of the same instance, is consumed: it is advanced
    in place and returned, recomputed only for the agents whose ``xc`` or
    ``x0`` bundle is not the same object as in its state.

    Preconditions (asserted unless ``check`` is False):
    ``xc`` clean at threshold c, ``xc ∪ x0`` clean at threshold 0, and the
    per-agent parts disjoint.
    """
    if check:
        violations = clean_state_violations(inst, xc, x0)
        if violations:
            raise ContractViolation("; ".join(violations))
    if previous is None:
        specs = inst.valuations
        candidates = tuple(
            candidate_items(spec.marginals, inst.c, inst.num_items) for spec in specs
        )
        dependent = tuple(
            frozenset(c).difference(spec.bundle_independent(c))
            for spec, c in zip(specs, candidates)
        )
        n = inst.num_agents
        graph = WeightedExchangeGraph(
            inst, xc, x0, {}, candidates, dependent, [frozenset()] * n, {}, {}, {}, {}
        )
        old_xc = old_x0 = (None,) * n  # every agent is computed
    elif previous.inst is not inst:
        raise ContractViolation("previous graph belongs to another instance")
    else:
        graph = previous
        old_xc, old_x0 = graph.xc.bundles, graph.x0.bundles
        graph.xc, graph.x0, graph._reaching = xc, x0, {}
    changed = [
        j
        for j, bundle, x0_j, old, old0 in zip(
            inst.agents, xc.bundles, x0.bundles, old_xc, old_x0
        )
        if bundle is not old or x0_j is not old0
    ]
    _advance(graph, changed, old_xc)
    return graph


# Edge weights, indexed by (has weight 1) + 2 * (has weight 2): shared
# constants, so that a node's entry allocates nothing.
_WEIGHT_CLASSES = ((), (1,), (2,), (1, 2))


def _point_into(reverse, node, out):
    """Record in ``reverse`` that ``node`` has an edge into each item of its
    out-list ``out``."""
    for v, _w in out:
        into = reverse.get(v)
        if into is None:
            reverse[v] = {node}
        else:
            into.add(node)


def _advance(graph, changed, old_xc):
    """Recompute in place the entries of the agents in ``changed``, whose
    counted bundles were ``old_xc[j-1]`` (None: no entries yet).

    Every old entry goes before any new one is added, since an item can move
    between two changed agents.  A node's reverse entries, while ``reverse``
    is kept, leave with it and come back with its new out-list.
    """
    inst, xc, x0 = graph.inst, graph.xc, graph.x0
    adjacency, desired = graph.adjacency, graph.desired
    node_of, members, weights = graph.node_of, graph.members, graph.weights
    reverse = graph.reverse if graph.reverse_kept else None
    dependent = graph.dependent
    for j in changed:
        for o in old_xc[j - 1] or ():
            out = adjacency.pop(o, None)
            if out is None:
                continue
            node = node_of.pop(o)
            if members.pop(node, None) is not None:  # the node's first member
                del weights[node]
                if reverse is not None:
                    for v, _w in out:
                        into = reverse[v]
                        into.discard(node)
                        if not into:
                            del reverse[v]
    for j in changed:
        bundle = xc.bundles[j - 1]
        candidates = graph.candidates[j - 1]
        if not bundle:
            # on the empty bundle, exactly the candidates
            desired[j - 1] = frozenset(candidates)
            continue
        x0_j = x0.bundles[j - 1]
        outside = [op for op in candidates if op not in bundle]
        # One (item, weight) edge per candidate, shared by every out-list.
        # Parallel lists, not (item, edge) pairs: short-lived tuples mixed in
        # with the long-lived edges fragmented memory and raised peak RSS.
        edges = [(op, 1 if op in x0_j else 2) for op in outside]
        light, heavy = not x0_j.isdisjoint(outside), not x0_j.issuperset(outside)
        out, desired[j - 1] = _out_lists(
            bundle, outside, edges, dependent[j - 1], inst.valuation(j).marginals, inst.c
        )
        adjacency.update(out)
        shared = len(desired[j - 1]) == len(outside)  # every candidate sure
        nodes = {-j: tuple(out)} if out and shared else {o: (o,) for o in out}
        for node, items in nodes.items():
            members[node] = items
            node_of.update(dict.fromkeys(items, node))
            weights[node] = _WEIGHT_CLASSES[light + 2 * heavy]
            if reverse is not None:
                _point_into(reverse, node, out[items[0]])


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


def _run_dijkstra(starts, adjacency, node_of, weights, targets, pool):
    """Least key ``(cost, edge count, item path)`` of a path from ``starts``
    to ``targets``, or None when no target is reachable.

    ``starts`` maps each source to the cost of its one-item path.
    ``adjacency`` maps an item to its out-list of ``(item, weight)`` edges in
    ascending item order, ``node_of`` an item to its quotient node, and
    ``weights`` a node to weights that include those on its out-list.  An
    edge ``u -> v`` costs its weight ``w``, or ``2w`` when ``pool`` is set
    and ``v`` is a target.

    The lazy search of the module docstring.  A heap entry is ``(cost, edge
    count, prefix, item, out-list, index, weight)``: a cursor at ``index``
    of ``out-list``, or, with no out-list, a start or a pool edge's target.
    A target popped ends the search, so a target class never moves on: its
    entry is its first target.  Entries with one prefix come from the
    cursors of one item, which never point at the same item, so no two
    entries agree on their first four fields and the rest is never compared.
    """
    heap = [(cost, 0, (), o, None, 0, 0) for o, cost in starts.items()]
    heapq.heapify(heap)
    skip = targets if pool else ()  # what a non-target cursor passes over
    settled = set()
    expanded = set()
    while heap:
        cost, nedges, prefix, v, out, k, weight = heap[0]
        if v in targets:
            return cost, nedges, prefix + (v,)
        if out is None:
            heapq.heappop(heap)
        else:
            for k in range(k + 1, len(out)):
                u, w = out[k]
                if w == weight and u not in settled and u not in skip:
                    heapq.heapreplace(heap, (cost, nedges, prefix, u, out, k, weight))
                    break
            else:
                heapq.heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        node = node_of.get(v)
        if node is None or node in expanded:
            continue
        expanded.add(node)
        out = adjacency[v]
        path = prefix + (v,)
        nedges += 1
        for weight in weights[node]:
            for k, (u, w) in enumerate(out):
                if w == weight and u not in settled and u not in skip:
                    heapq.heappush(heap, (cost + w, nedges, path, u, out, k, w))
                    break
            if pool:
                for u, w in out:
                    if w == weight and u in targets:
                        heapq.heappush(heap, (cost + 2 * w, nedges, path, u, None, 0, 0))
                        break
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
    counted bundle (``exchange``).  Returns None when no path exists.

    A pool item ``v`` reached along ``u -> v`` is picked up by ``u``'s
    holder, at 1 when it holds ``v`` in its zero-valued bundle, else 2:
    the edge's own weight, which tests the same membership.  So such an
    edge costs twice its weight."""
    xc, x0 = graph.xc, graph.x0
    if kind == PARETO:
        targets = xc.unallocated
        if graph.reaching(targets).isdisjoint(sources):
            return None
        held = x0.bundle(agent)
        starts = {
            o: (1 if o in held else 2) if o in targets else 0 for o in sources
        }
    elif kind == EXCHANGE:
        if target_agent is None or target_agent == agent:
            raise ContractViolation("exchange paths need a distinct target agent")
        targets = xc.bundle(target_agent)
        starts = dict.fromkeys(sources, 0)
    else:
        raise ContractViolation(f"unknown path kind {kind!r}")
    key = _run_dijkstra(
        starts, graph.adjacency, graph.node_of, graph.weights, targets, kind == PARETO
    )
    if key is None:
        return None
    target = 0 if kind == PARETO else target_agent
    return AugmentingPath(key[2], kind, agent, target, key[0])


def shift_along_path(allocation: Allocation, items: Sequence[int], gainer: int) -> Allocation:
    """Apply the path-augmentation shift: every path item moves one step back
    toward the start, the last item leaves its bundle, and the first item
    joins ``gainer``'s bundle.

    Only the gainer's and the path holders' bundles, the pool among them
    when the last item is unallocated, are rebuilt and checked; every other
    bundle is passed through as the same object."""
    path_set = set(items)
    if len(path_set) != len(items):
        raise ContractViolation("augmenting path repeats an item")
    holders = [allocation.owner_of(o) for o in items]
    if 0 in holders[:-1]:
        raise ContractViolation("interior path item is unallocated")
    receivers = (gainer, *holders)  # items[k] goes to receivers[k], never 0
    parts = {k: allocation.bundle(k) - path_set for k in receivers}
    for o, k in zip(items, receivers):
        parts[k] = parts[k] | {o}
    return allocation.replace_bundles(parts)


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
    bundle held it.  Every bundle the path leaves alone is passed through as
    the same object.  With ``check`` on, the postconditions (cleanness,
    disjointness, bundle-size deltas) are asserted and any failure raises
    ``CleannessViolation`` -- which must never happen for valid inputs.  The
    state passed in must be sound: cleanness and disjointness are rechecked
    only for the agents whose ``xc`` or ``x0`` bundle changed.
    """
    items = path.items
    new_xc = shift_along_path(xc, items, path.source_agent)
    new_x0 = x0
    if path.kind == PARETO:
        terminal = items[-1]
        holder = x0.owner_of(terminal)
        if holder:
            new_x0 = x0.replace_bundle(holder, x0.bundle(holder) - {terminal})
    if check:
        changed = [
            k
            for k, new, old, new0, old0 in zip(
                inst.agents, new_xc.bundles, xc.bundles, new_x0.bundles, x0.bundles
            )
            if new is not old or new0 is not old0
        ]
        # A bundle passed through as the same object kept its size, so only
        # the changed agents, the source and the target are compared.
        delta = dict.fromkeys(changed, 0)
        delta[path.source_agent] = 1
        if path.kind == EXCHANGE:
            delta[path.target] = delta.get(path.target, 0) - 1
        for k, d in delta.items():
            size, old_size = len(new_xc.bundles[k - 1]), len(xc.bundles[k - 1])
            if size != old_size + d:
                raise CleannessViolation(
                    f"agent {k}: counted bundle size {size} after augmentation, "
                    f"expected {old_size + d}"
                )
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
    reach it, and the search stops at the first pool item it discovers.  An
    edge list shared by several items, the same object, is walked once:
    walking it again would only meet items already reached.
    """
    pool = allocation.unallocated
    frontier = sorted(sources)
    for o in frontier:
        if o in pool:
            return (o,)
    parent: dict[int, Optional[int]] = dict.fromkeys(frontier)
    walked = set()  # ids of the edge lists walked, alive in ``adjacency``
    while frontier:
        layer = []
        for u in frontier:
            out = adjacency.get(u, ())
            if id(out) in walked:
                continue
            walked.add(id(out))
            for v in out:
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
