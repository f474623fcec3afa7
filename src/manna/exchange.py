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

Phase 2 runs one search for both path kinds, the lazy Dijkstra of
``dijkstra``, over the graph's out-lists, sorted by item, and its agent
quotient (below).  An exchange edge's class there is its weight, 1 or 2.
A pool search's class adds whether the edge enters the pool: an item picked
up from the pool along ``u -> v`` costs 1 exactly when ``v`` lies in the
zero-valued bundle of ``u``'s holder, the very test that made the edge's
weight 1, so a pool edge costs twice its weight.  The builder records, per
node, the weights of its holder's candidate edges: exactly its out-list's
weights when the list is shared, as every additive agent's is, so that no
cursor walks such a list for a class it lacks.  An item with a list of its
own gets its holder's weights too, which is cheaper than scanning each
list.  Phase 1's search is breadth-first (``yankee.shortest_path_to_pool``).

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
*bundle-independent* at the threshold (see ``valuations``) is sure without
an oracle call: its marginal on B is on the same side of the threshold as
its marginal on ∅, which reached it.
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
other agent's entries are dropped, or edited where phase 2 splices them
(below), every removal before any addition, since an item may move between
two such agents.  A bundle rebuilt equal to the old one is merely
recomputed, so identity is a safe stand-in for equality, and the builder
never reads the path: the gainer's bundle changes
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
* **Splices, for fully declared agents.**  An agent is *fully declared*
  when its valuation declares every candidate bundle-independent at c:
  every additive agent, and every capped agent none of whose groups can
  cross c.  All its candidates are sure, so all its held items share one
  out-list, which holds exactly its candidates outside ``xc_j``, each
  weighted by whether ``x0_j`` holds it, and its desired items are the
  same candidates.  When
  ``x0_j`` is the same object and only ``xc_j`` changed, both bundles
  clean, the new list is the old one less the items that entered ``xc_j``
  and plus the items that left it.  Every item of a clean bundle is a
  candidate (its marginal on the items before it reaches c, and on the
  empty bundle it is no smaller), so an item that entered had an edge and
  one that left gets one, weighted as a fresh build would weigh it.  So
  the builder edits the shared list in place, which every held item's
  entry points to, and touches the adjacency, node, members, weight class
  and desired entries of the moved items only.  An exchange moves
  one or two items of an agent, while a rebuild walks all its candidates.
  A list that empties leaves no entry, as in a fresh build; the agent is
  rebuilt when it next changes.
* **Agent quotient.**  The held items of an agent whose items all share one
  out-list -- every additive agent -- form one node; every other item with
  out-edges is a node of its own.  A search expands each node once.
* **Reachability pre-filter, for pool searches only.**  Each graph state
  caches the items that can reach the pool, found by a reverse search that
  expands each node into its members once.  The search reads, per item,
  the nodes with an edge into it: an index that ``reaching`` builds from
  each node's out-list, once per state, and that advancing the graph drops
  with the rest of the cache.  A ``pareto_improving`` search
  returns None, before it builds start costs or runs Dijkstra, when no
  source is among them.  Those are exactly the runs in which Dijkstra
  would reach no target and return None, so the searches that do run are
  unchanged.  Two kinds of pool search have a known answer to the filter
  and do not consult it: one with no sources returns None at once, and one
  whose sources meet the pool runs Dijkstra, since a source in the pool is
  itself a target and the filter would pass.  So the reverse search runs
  only for a graph where some other pool search is asked, and there it
  serves the Pareto scan of all n agents, most of whose searches find
  nothing, so it pays.  An exchange search has a target set of its own,
  an agent's counted bundle, and the exchange scan searches only pairs
  whose sizes qualify, where a path nearly always exists.  A reverse
  search there would cost about as much as the Dijkstra run it could
  spare, so exchange searches run Dijkstra directly, and the exchange
  stage builds no index before its final Pareto check.
* **One-item steals without a search.**  When some source of an exchange
  search lies in the target's counted bundle, the search returns the least
  such item as a one-item path of cost 0.  Every start has cost 0 and
  no edges, so no key is below ``(0, 0, (o,))`` for the least such item
  ``o``: it is the first target Dijkstra would settle.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from itertools import compress
from operator import is_not, itemgetter
from dataclasses import dataclass, field
from typing import Collection, Iterable, Optional, Sequence

from . import dijkstra
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


def _out_lists(bundle, outside, entries, dependent, marginals, threshold, share=tuple):
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
    items share one out-list, made by ``share`` from ``entries``.  Items
    without out-edges are left out.
    Returned with the out-lists are the sure candidates: the items the agent
    desires.
    """
    asked = [o for o in outside if o in dependent] if dependent else ()
    low = asked and {o for o, d in zip(asked, marginals(bundle, asked)) if d < threshold}
    if not low:
        shared = share(entries)
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


def _changed(bundles, before):
    """The agents, ascending, whose bundle is not the same object as in
    ``before``.  Compared at C speed: after an augmentation nearly every
    agent keeps its bundle."""
    return list(compress(range(1, len(bundles) + 1), map(is_not, bundles, before)))


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
    changed = _changed(allocation.bundles, before)
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
    those of them its valuation does not declare bundle-independent at c, and
    ``desired[i-1]`` its ``f_set`` at threshold c.

    The graph is also kept as its agent quotient.  Each item with out-edges
    lies in one node: agent i's node ``-i`` when all of i's held items share
    one out-list, else a node of its own, named by the item.  A fully
    declared agent's shared out-list and members are lists, which a splice
    edits in place; every other out-list and member sequence is a tuple.
    ``node_of``
    maps such an item to its node, ``members`` a node to its items in
    ascending order, and ``weights`` a node to the weights of its holder's
    candidate edges (``(1,)``, ``(2,)`` or ``(1, 2)``; every weight its
    out-list has, and exactly those for a shared list).

    A graph passed as ``previous`` to ``build_weighted_graph`` is advanced
    in place to the new state and returned.
    """

    inst: Instance
    xc: Allocation
    x0: Allocation
    adjacency: dict[int, Sequence[tuple[int, int]]]
    candidates: tuple[tuple[int, ...], ...]
    dependent: tuple[frozenset[int], ...]
    desired: list[frozenset[int]]
    node_of: dict[int, int]
    members: dict[int, Sequence[int]]
    weights: dict[int, tuple[int, ...]]
    # per state: each target set's ``reaching`` items, and under None the
    # reverse index they are searched in
    _reaching: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def reaching(self, targets: frozenset[int]) -> frozenset[int]:
        """Items with a path to some item of ``targets`` (targets included),
        computed once per target set by a reverse search that expands each
        node into its members once.  The search reads, per item, the nodes
        with an edge into it, indexed from each node's out-list at the
        state's first call."""
        cache = self._reaching
        if targets not in cache:
            into = cache.get(None)
            if into is None:
                into = cache[None] = defaultdict(list)
                for node, items in self.members.items():
                    for v, _w in self.adjacency[items[0]]:
                        into[v].append(node)
            seen = set(targets)
            stack = list(targets)
            expanded = set()
            while stack:
                for node in into.get(stack.pop(), ()):
                    if node not in expanded:
                        expanded.add(node)
                        for u in self.members[node]:
                            if u not in seen:
                                seen.add(u)
                                stack.append(u)
            cache[targets] = frozenset(seen)
        return cache[targets]

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
            frozenset(cs).difference(spec.bundle_independent(cs, inst.c))
            for spec, cs in zip(specs, candidates)
        )
        n = inst.num_agents
        graph = WeightedExchangeGraph(
            inst, xc, x0, {}, candidates, dependent, [frozenset()] * n, {}, {}, {}
        )
        old_xc = old_x0 = (None,) * n  # every agent is computed
    elif previous.inst is not inst:
        raise ContractViolation("previous graph belongs to another instance")
    else:
        graph = previous
        old_xc, old_x0 = graph.xc.bundles, graph.x0.bundles
        graph.xc, graph.x0, graph._reaching = xc, x0, {}
    changed = sorted({*_changed(xc.bundles, old_xc), *_changed(x0.bundles, old_x0)})
    _advance(graph, changed, old_xc, old_x0)
    return graph


# Edge weights, indexed by (has weight 1) + 2 * (has weight 2): shared
# constants, so that a node's entry allocates nothing.
_WEIGHT_CLASSES = ((), (1,), (2,), (1, 2))
_weight = itemgetter(1)  # of an (item, weight) edge


def _advance(graph, changed, old_xc, old_x0):
    """Recompute in place the entries of the agents in ``changed``, whose
    bundles were ``old_xc[j-1]`` and ``old_x0[j-1]`` (None: no entries yet).

    An agent is spliced (``_splice``) when it is fully declared (no
    ``dependent`` candidate), its ``x0`` bundle is the same object, it has
    a shared out-list and its counted bundle is not empty.  Every other
    changed agent is rebuilt from its candidates.  Every old entry goes
    before any new one is added, since an item can move between two
    changed agents.
    """
    inst, xc, x0 = graph.inst, graph.xc, graph.x0
    adjacency, desired = graph.adjacency, graph.desired
    node_of, members, weights = graph.node_of, graph.members, graph.weights
    dependent = graph.dependent
    spliced, rebuilt = [], []
    for j in changed:
        old, bundle = old_xc[j - 1], xc.bundles[j - 1]
        if (
            bundle
            and -j in members
            and not dependent[j - 1]
            and x0.bundles[j - 1] is old_x0[j - 1]
        ):
            out = adjacency[members[-j][0]]
            left = old - bundle
            for o in left:
                del adjacency[o], node_of[o]
            spliced.append((j, out, left, bundle - old))
            continue
        rebuilt.append(j)
        for o in old or ():
            if adjacency.pop(o, None) is not None:
                node = node_of.pop(o)
                if members.pop(node, None) is not None:  # the node's first member
                    del weights[node]
    for j, out, left, entered in spliced:
        _splice(graph, j, out, left, entered)
    for j in rebuilt:
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
        # Only a fully declared agent is spliced, so only its shared list and
        # members are lists, edited in place; any other agent's are tuples.
        share = tuple if dependent[j - 1] else list
        out, desired[j - 1] = _out_lists(
            bundle,
            outside,
            edges,
            dependent[j - 1],
            inst.valuation(j).marginals,
            inst.c,
            share,
        )
        adjacency.update(out)
        shared = len(desired[j - 1]) == len(outside)  # every candidate sure
        nodes = {-j: share(out)} if out and shared else {o: (o,) for o in out}
        for node, items in nodes.items():
            members[node] = items
            node_of.update(dict.fromkeys(items, node))
            weights[node] = _WEIGHT_CLASSES[light + 2 * heavy]


def _splice(graph, j, out, left, entered):
    """Advance the entries of fully declared agent j by the items that
    ``left`` and ``entered`` its counted bundle, editing its shared
    out-list ``out`` and its members in place.  The items that left are
    already out of ``adjacency`` and ``node_of``.

    Every candidate of j is sure, so ``out`` holds one edge per candidate
    outside the bundle, weighted by the unchanged ``x0`` bundle.  Both
    counted bundles are clean, and every item of a clean bundle is a
    candidate: its marginal on the items before it reaches c, and on the
    empty bundle it is no smaller.  So an item that entered loses its edge,
    and one that left gains one at its place in item order.  Only weight
    classes whose last edge went are looked for in the list.  When the
    list empties, every candidate is held and j keeps no entry, as a fresh
    build would.
    """
    adjacency, node_of = graph.adjacency, graph.node_of
    node, items = -j, graph.members[-j]
    x0_j = graph.x0.bundles[j - 1]
    dropped, added = [], []
    for o in entered:
        dropped.append(out.pop(bisect_left(out, (o,)))[1])
    for o in left:
        del items[bisect_left(items, o)]
        edge = (o, 1 if o in x0_j else 2)
        insort(out, edge)
        added.append(edge[1])
    graph.desired[j - 1] = graph.desired[j - 1].difference(entered).union(left)
    if not out:
        for o in items:
            del adjacency[o], node_of[o]
        del graph.members[node], graph.weights[node]
        return
    for o in entered:
        adjacency[o] = out
        node_of[o] = node
        insort(items, o)
    present = {*graph.weights[node], *added}
    for w in set(dropped).difference(added):
        if w not in map(_weight, out):
            present.discard(w)
    graph.weights[node] = _WEIGHT_CLASSES[(1 in present) + 2 * (2 in present)]


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
        if not sources:
            return None
        targets = xc.unallocated
        if targets.isdisjoint(sources) and graph.reaching(targets).isdisjoint(sources):
            return None
        held = x0.bundle(agent)
        starts = {
            o: (1 if o in held else 2) if o in targets else 0 for o in sources
        }
    elif kind == EXCHANGE:
        if target_agent is None or target_agent == agent:
            raise ContractViolation("exchange paths need a distinct target agent")
        targets = xc.bundle(target_agent)
        if not targets.isdisjoint(sources):  # a one-item steal, the least key
            return AugmentingPath(
                (min(targets.intersection(sources)),), kind, agent, target_agent, 0
            )
        starts = dict.fromkeys(sources, 0)
    else:
        raise ContractViolation(f"unknown path kind {kind!r}")
    key = dijkstra.least_key(
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
    return allocation.replace_bundles(_shifted_parts(allocation, items, gainer))


def _shifted_parts(allocation, items, gainer):
    """The bundles ``shift_along_path`` replaces, keyed by agent (0: the
    pool), as they are after the shift."""
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
    return parts


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
) -> tuple[Allocation, Allocation]:
    """Augment the state along ``path`` and return the new ``(xc, x0)``.

    Pool-terminated paths also retire the terminal item from whichever x0
    bundle held it.  Every bundle the path leaves alone is passed through as
    the same object.  The postconditions (cleanness, disjointness,
    bundle-size deltas) are asserted, and any failure raises
    ``CleannessViolation`` -- which must never happen for valid inputs.  The
    state passed in must be sound.  The changed agents are the ones whose
    counted bundles the shift replaced, plus the x0 holder of a Pareto
    terminal: exactly the agents with a new bundle object, found without a
    walk over all n agents.  Cleanness and disjointness are rechecked only
    for them.
    """
    items = path.items
    parts = _shifted_parts(xc, items, path.source_agent)
    new_xc = xc.replace_bundles(parts)
    new_x0 = x0
    changed = set(parts)
    changed.discard(0)
    if path.kind == PARETO:
        terminal = items[-1]
        holder = x0.owner_of(terminal)
        if holder:
            new_x0 = x0.replace_bundle(holder, x0.bundle(holder) - {terminal})
            changed.add(holder)
    changed = sorted(changed)
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
