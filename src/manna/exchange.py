"""Exchange graphs, weighted path search, and path augmentation.

The exchange graph of a clean allocation has an edge ``o -> o'`` whenever the
agent holding ``o`` could swap it for ``o'`` without losing count: the
marginal of ``o'`` on the rest of the bundle reaches the threshold.
Augmenting along a path shifts every item one step toward the path's start,
freeing the first item for the requesting agent.  The shift is a list of
moves ``(item, from, to)``, one per path item, that ``Allocation.move``
applies: it rebuilds only the parts the moves touch and checks them in
O(moves), and it updates the pool, which a pool-terminated path leaves, by
one set difference.  A path moves one to three items, so an augmentation
does no set work on the parts it leaves alone.

The weighted variant grades edges in doubled units (so arithmetic stays in
exact integers): an edge from an agent's counted bundle into the same agent's
zero-valued bundle costs 1, every other edge costs 2.  Pool-terminated
("Pareto-improving") paths additionally pay a terminal pickup cost -- 1 when
the absorbing agent already holds the terminal item in its zero-valued
bundle, else 2.  The pickup rule extends the half-weight preference to
zero-edge singleton paths, where edge weights alone cannot discriminate; see
the regression test on the two-item cap fixture for why that matters.

One store, ``ExchangeGraph``, holds both phases' graphs, and one builder
advances it.  Each item's out-list is a pair ``(light, heavy)`` of ascending
items: its weight-1 and its weight-2 edges.  Phase 2 builds it at threshold
c over the state ``(xc, x0)`` (``build_weighted_graph``).  Phase 1 builds it
at threshold 0 over the valuations, with an empty zero-valued part, so every
edge is heavy (``unweighted_adjacency``).  ``empty_graph`` lists both
phases' candidates and declarations.

Searches are deterministic: minimum doubled cost, then fewest edges, then
lexicographically smallest item sequence.  The state ``(xc, x0)`` is two
parts of one allocation, so every ``x0`` item lies in ``xc``'s pool and a
light edge, which enters its holder's ``x0`` bundle, can only be a path's
last edge.  So a path's key follows from its edge count and its last edge,
and the key order is breadth-first order: both phases run one search,
``search.least_path``, over the pairs, after the answers of no edge that
``min_weight_path`` and ``yankee.shortest_path_to_pool`` give themselves
(below).  A pool item picked up along ``u -> v`` costs 1 exactly when
``v`` lies in the zero-valued bundle of ``u``'s holder, the very test that
made the edge light, so a pool edge costs twice its weight.

The builder scans only each agent's *candidate items*: the items whose
marginal on the empty bundle reaches the threshold.  Those marginals are
asked once per valuation object, so both phases' graphs share them.
Marginals only fall as a bundle grows, so for a bundle B holding o::

    Δ(B, o') <= Δ(B - o, o') <= Δ(∅, o')

Edge ``o -> o'`` needs the middle term to reach the threshold.  By the
right inequality no other item can be an out-neighbour.  By the left one a
candidate that reaches it on B itself (a *sure* one) is an out-neighbour of
every item of B, so only the other candidates (*maybe* ones) are tested
against each ``B - o``.  A candidate that the agent's valuation declares
*bundle-independent* at the threshold (see ``valuations``) is sure without
a query: its marginal on B is on the same side of the threshold as
its marginal on ∅, which reached it.
So the sure test asks only about the undeclared candidates.  The valuations
are asked in batches: ``marginals(B, items)`` gives the marginals of a list
of items on one bundle.  The candidates cost one call on the empty bundle,
the sure test at most one call per agent and the maybe test one per held
item.
When there are no maybe candidates -- always when every candidate is
declared, as for additive agents, and for capped agents with no group at
its cap -- all items of B share one pair.  Every test left out has a
known answer and the candidates are walked in ascending order, so each
pair is what a scan of all items gives.  The same lists bound ``f_set``.
An agent's desired items, its ``f_set``, are its sure candidates, so the
builder keeps them with the edges.  An agent whose candidates are all
declared makes no query after its candidates are listed.

Both phases advance one graph in place along each augmentation instead of
building a new one per state, and this changes no tie-break.  The
out-edges of an item held by agent j depend only on j's bundles and j's
valuation.  After an augmentation only the gainer and the holders of path
items have new bundles: their moves touch no other part, and
``Allocation.move`` passes every part it leaves alone through as the same
object.  So the builder, given the previous graph, keys each agent on the
identity of its bundles.  An agent
whose bundle objects are the previous graph's keeps its entries; every
other agent's entries are dropped, or edited where the builder splices them
(below), every removal before any addition, since an item may move between
two such agents.  A bundle rebuilt equal to the old one is merely
recomputed, so identity is a safe stand-in for equality, and the builder
never reads the path: the gainer's bundle changes
even when it holds no path item.  A fresh build is the same code starting
from an empty graph, in which every agent counts as changed.  The entries
kept are the ones a fresh build would compute, so the graph -- edges,
weights and their order -- is the same as a from-scratch build.  The
graph passed to a builder as ``previous`` is consumed: the builder updates
it in place, so it no longer describes the state it was built for.  So
phase 1 advances its graph only after an augmentation, and a turn whose
agent retires builds nothing.

* **Splices, for fully declared agents.**  An agent is *fully declared*
  when its valuation declares every candidate bundle-independent at the
  threshold: every additive agent, and every capped agent none of whose
  groups can cross it.  All its candidates are sure, so all its held items
  share one pair, which holds exactly its candidates outside ``xc_j``,
  light when ``x0_j`` holds them, and its desired items are the same
  candidates.  When ``x0_j`` is the same object and only ``xc_j`` changed,
  both bundles clean, the items that entered ``xc_j`` leave ``heavy`` and
  those that left it join ``heavy``: ``x0_j`` is disjoint from both counted
  bundles, so no moved item is light.  Every item of a clean bundle is a
  candidate (its marginal on the items before it reaches the threshold,
  and on the empty bundle it is no smaller), so an item that entered had an
  edge and one that left gets one.  So the builder edits the shared
  ``heavy`` list in place, and touches the adjacency and desired entries of
  the moved items only.  An exchange moves one or two items of an agent,
  while a rebuild walks all its candidates.  A pair that empties leaves no
  entry, as in a fresh build; the agent is rebuilt when it next changes.
* **Agent quotient.**  Items whose pairs are the same object form one
  node: the held items of an agent whose candidates are all sure -- every
  additive agent -- share one pair, and every other item with out-edges
  has a pair of its own.  A search expands each node once, as it walks a
  shared pair once, and needs no node map: the pair's identity is the node.

Phase 2 asks each graph state for up to n² paths, so it also shares these:

* **Dead pairs, for pool searches only.**  Each graph state keeps
  ``dead``, the pairs that its failed pool searches walked, and every
  pool search of the state skips them (see ``search``): they reach no
  pool item.  Advancing the graph empties it.  An exchange search has a
  target set of its own, an agent's counted bundle, so it gets a fresh
  memo.
* **Searches of no edge, answered without a search.**  A path of no edges
  is a source that is a target, and ``min_weight_path`` answers it itself.

  - *Direct pickups.*  When the sources of a pool search meet the pool,
    the answer is the one-item path of the least ``(pickup cost, item)``
    among them.  Any other path ends in an edge into the pool, at a cost
    of at least 2, so its key is above ``(2, 0, ...)``, the largest key of
    a one-item pickup.
  - *One-item steals.*  When some source of an exchange search lies in the
    target's counted bundle, the least such item is the answer, a one-item
    path of cost 0: every start has cost 0 and no edges, so no key is below
    ``(0, 0, (o,))`` for the least such item ``o``.

  They stay at the call site: inside the search they would cost a call
  per forced search, a measurable cost at desk scale.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import compress, repeat
from operator import is_not, le
from dataclasses import dataclass, field
from typing import Collection, Iterable, Optional, Sequence

from .core import Allocation, Instance
from .errors import CleannessViolation, ContractViolation
from .search import least_path
from .threshold import beta

def candidate_items(valuation, threshold: int, num_items: int) -> tuple[int, ...]:
    """Items whose marginal on the empty bundle reaches ``threshold``, in
    ascending order.

    Marginals only fall as a bundle grows, so no other item reaches the
    threshold on any bundle: these are the only items an agent can desire
    and the only out-neighbours of the items it holds.  The marginals on the
    empty bundle are asked once per valuation object, in one batched call,
    and kept with it outside its fields, so a solve's threshold-0 and
    threshold-c graphs share them.
    """
    gains = valuation.__dict__.get("_empty_gains")
    if gains is None or len(gains) != num_items:
        gains = tuple(valuation.marginals(frozenset(), range(num_items)))
        object.__setattr__(valuation, "_empty_gains", gains)
    return tuple(compress(range(num_items), map(le, repeat(threshold), gains)))


def f_set(inst: Instance, allocation: Allocation, agent: int, tau: int) -> frozenset[int]:
    """Items outside the agent's bundle whose threshold marginal is 1."""
    spec = inst.valuation(agent)
    candidates = candidate_items(spec, tau, inst.num_items)
    bundle = allocation.bundle(agent)
    if not bundle:
        return frozenset(candidates)  # on the empty bundle, exactly these
    outside = [o for o in candidates if o not in bundle]
    gains = spec.marginals(bundle, outside)
    return frozenset(o for o, d in zip(outside, gains) if d >= tau)


def _out_lists(bundle, outside, x0_j, dependent, marginals, threshold):
    """Out-list pairs of the items of one agent's ``bundle``, and which of
    the agent's candidates are *sure* ones.

    ``o -> o'`` whenever ``marginals(bundle - {o}, [o'])`` reaches
    ``threshold``; ``marginals`` is the agent's valuation's.  ``outside``
    lists the agent's candidate items that lie outside the bundle, in
    ascending order; the edges into ``x0_j``, the agent's zero-valued
    bundle, are light and the rest heavy.  Only the candidates in
    ``dependent``, those the agent's valuation does not declare
    bundle-independent, are asked about: any other is sure without a call.
    One that clears the threshold on the whole bundle clears it on every
    ``bundle - {o}`` and is sure too.  A sure candidate is an out-neighbour
    of every held item; only the others, the *maybe* ones, are tested per
    held item, in one call each.  When every candidate is sure, all held
    items share one pair, whose ``heavy`` is a list when ``dependent`` is
    empty, for splices to edit.  Items without out-edges are left out.
    Returned with the pairs are the sure candidates: the items the agent
    desires.
    """
    asked = [o for o in outside if o in dependent] if dependent else ()
    low = asked and {o for o, d in zip(asked, marginals(bundle, asked)) if d < threshold}
    light = x0_j and x0_j.intersection(outside)  # decided once for every list
    if not low:
        if not outside:
            return {}, frozenset()
        share = tuple if dependent else list
        pair = _split(outside, light, share) if light else ((), share(outside))
        return dict.fromkeys(bundle, pair), frozenset(outside)
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
        edges = tuple(compress(outside, keep))
        if edges:
            out[o] = _split(edges, light) if light else ((), edges)
    return out, desired


def _split(edges, light, share=tuple):
    """The pair ``(light, heavy)`` of ``edges``: those in ``light``, and the
    rest made by ``share``."""
    return tuple(o for o in edges if o in light), share(o for o in edges if o not in light)


def _changed(bundles, before):
    """The agents, ascending, whose bundle is not the same object as in
    ``before``.  Compared at C speed: after an augmentation nearly every
    agent keeps its bundle."""
    return list(compress(range(1, len(bundles) + 1), map(is_not, bundles, before)))


@dataclass
class ExchangeGraph:
    """Exchange graph of the state ``(xc, x0)`` under the per-agent
    ``valuations`` at ``threshold``.  ``candidates[i-1]`` is agent i's
    ``candidate_items`` at the threshold, ``dependent[i-1]`` those of them
    its valuation does not declare bundle-independent, and ``desired[i-1]``
    its ``f_set``.

    ``adjacency`` maps each item with out-edges to its pair ``(light,
    heavy)`` of ascending items: its edges into its holder's ``x0`` bundle,
    weighing 1, and the rest, weighing 2.  Items whose pairs are the same
    object form one node.  A fully declared agent's held items share one
    pair, whose ``heavy`` is a list that a splice edits in place; every
    other class list is a tuple.

    A graph passed as ``previous`` to a builder is advanced in place to the
    new state and returned.
    """

    valuations: Sequence
    threshold: int
    candidates: Sequence[Sequence[int]]
    dependent: Sequence[frozenset[int]]
    xc: Optional[Allocation] = None  # None until the first advance
    x0: Optional[Allocation] = None
    adjacency: dict[int, tuple[Sequence[int], Sequence[int]]] = field(default_factory=dict)
    desired: list[frozenset[int]] = field(default_factory=list)
    # per state: the pairs its failed pool searches walked (``search``)
    dead: dict[int, int] = field(default_factory=dict, init=False, repr=False, compare=False)

    def edges(self):
        """Every edge ``(u, v, weight)``, in ascending order."""
        for u in sorted(self.adjacency):
            light, heavy = self.adjacency[u]
            yield from sorted([(u, v, 1) for v in light] + [(u, v, 2) for v in heavy])

    def dump(self) -> str:
        return "\n".join(f"o{u} -> o{v} w={w}" for u, v, w in self.edges())


def empty_graph(valuations: Sequence, threshold: int, num_items: int) -> ExchangeGraph:
    """The graph of ``valuations`` at ``threshold`` with no state yet: each
    agent's ``candidate_items`` and its ``dependent`` ones, those its
    valuation does not declare bundle-independent at the threshold."""
    candidates = tuple(candidate_items(v, threshold, num_items) for v in valuations)
    dependent = tuple(
        frozenset(cs).difference(v.bundle_independent(cs, threshold))
        for v, cs in zip(valuations, candidates)
    )
    return ExchangeGraph(valuations, threshold, candidates, dependent)


def unweighted_adjacency(
    allocation: Allocation,
    valuations: Sequence,
    previous: Optional[ExchangeGraph] = None,
) -> ExchangeGraph:
    """Exchange graph of an allocation clean at threshold 0: the store of
    ``valuations`` at threshold 0 with an empty zero-valued part, so every
    edge is heavy.  ``desired[i-1]`` holds agent i's candidates outside its
    bundle whose marginal on the bundle is at least 0.  Items in the pool
    have no outgoing edges.  ``previous``, a graph built with the same
    valuations, is consumed: it is advanced in place and returned.
    """
    if previous is not None:
        return _advance(previous, allocation, previous.x0)
    # phase 1 counts every item, so any allocation whose bundles are all
    # empty is its zero-valued part: the one given, when it is one
    x0 = allocation
    if any(allocation.bundles):
        x0 = Allocation.empty(allocation.num_agents, allocation.num_items)
    return _advance(empty_graph(valuations, 0, allocation.num_items), allocation, x0)


def build_weighted_graph(
    inst: Instance,
    xc: Allocation,
    x0: Allocation,
    previous: Optional[ExchangeGraph] = None,
) -> ExchangeGraph:
    """Materialize the weighted exchange graph for the state ``(xc, x0)``:
    the store under ``inst``'s valuations at threshold c.

    ``previous``, a graph of the same instance, is consumed: it is advanced
    in place and returned.

    Preconditions, not checked here: ``xc`` clean at threshold c, ``xc ∪
    x0`` clean at threshold 0, and every ``x0`` bundle within ``xc``'s pool.
    ``solver.phase1`` and ``augment`` check them where each state is made.
    """
    if previous is None:
        previous = empty_graph(inst.valuations, inst.c, inst.num_items)
    elif previous.valuations is not inst.valuations:
        raise ContractViolation("previous graph belongs to another instance")
    return _advance(previous, xc, x0)


def _advance(graph, xc, x0):
    """Advance ``graph`` in place to the state ``(xc, x0)`` and return it,
    recomputing only the agents whose ``xc`` or ``x0`` bundle is not the
    same object as in its state (every agent, when it has none yet).

    An agent is spliced (``_splice``) when it is fully declared (no
    ``dependent`` candidate), its ``x0`` bundle is the same object, an item
    of its old counted bundle has a pair and its new counted bundle is not
    empty.  Every other changed agent is rebuilt from its candidates.  Every
    old entry goes before any new one is added, since an item can move
    between two changed agents.
    """
    if graph.xc is None:  # every agent is computed
        old_xc = old_x0 = (None,) * len(xc.bundles)
        graph.desired = [frozenset()] * len(xc.bundles)
    else:
        old_xc, old_x0 = graph.xc.bundles, graph.x0.bundles
    changed = _changed(xc.bundles, old_xc)
    if x0 is not graph.x0:
        changed = sorted({*changed, *_changed(x0.bundles, old_x0)})
    graph.xc, graph.x0, graph.dead = xc, x0, {}
    adjacency, desired, dependent = graph.adjacency, graph.desired, graph.dependent
    spliced, rebuilt = [], []
    for j in changed:
        old, bundle = old_xc[j - 1], xc.bundles[j - 1]
        if (
            bundle
            and old
            and not dependent[j - 1]
            and x0.bundles[j - 1] is old_x0[j - 1]
            and (pair := adjacency.get(next(iter(old)))) is not None
        ):
            left = old - bundle
            for o in left:
                del adjacency[o]
            spliced.append((j, pair, left, bundle - old))
            continue
        rebuilt.append(j)
        for o in old or ():
            adjacency.pop(o, None)
    for j, pair, left, entered in spliced:
        _splice(graph, j, pair, left, entered)
    for j in rebuilt:
        bundle, candidates = xc.bundles[j - 1], graph.candidates[j - 1]
        if not bundle:
            # on the empty bundle, exactly the candidates
            desired[j - 1] = frozenset(candidates)
            continue
        outside = [op for op in candidates if op not in bundle]
        out, desired[j - 1] = _out_lists(
            bundle,
            outside,
            x0.bundles[j - 1],
            dependent[j - 1],
            graph.valuations[j - 1].marginals,
            graph.threshold,
        )
        adjacency.update(out)
    return graph


def _splice(graph, j, pair, left, entered):
    """Advance the entries of fully declared agent j by the items that
    ``left`` and ``entered`` its counted bundle, editing the ``heavy`` list
    of its shared ``pair`` in place.  The items that left are already out
    of ``adjacency``.

    Every candidate of j is sure, so the pair holds every candidate outside
    the bundle.  The ``x0`` bundle is the same object and disjoint from both
    counted bundles, so every item that moved is heavy and ``light`` stays
    as it is.  Both counted bundles are clean, and every item of a clean
    bundle is a candidate: its marginal on the items before it reaches the
    threshold, and on the empty bundle it is no smaller.  So an item that
    entered leaves ``heavy``, and one that left joins it at its place in
    item order.  When the pair empties, every candidate is held and j keeps
    no entry, as a fresh build would.
    """
    light, heavy = pair
    for o in entered:
        del heavy[bisect_left(heavy, o)]
    for o in left:
        insort(heavy, o)
    graph.desired[j - 1] = graph.desired[j - 1].difference(entered).union(left)
    if light or heavy:
        graph.adjacency.update(dict.fromkeys(entered, pair))
    else:
        for o in graph.xc.bundles[j - 1] - entered:
            del graph.adjacency[o]


@dataclass(frozen=True)
class AugmentingPath:
    """A path selected for augmentation.

    ``target`` is the part of the counted allocation the path ends in: 0 for
    the pool, where a path is Pareto-improving, else the agent whose counted
    bundle shrinks, along an exchange path.  ``doubled_weight`` includes the
    terminal pickup cost of a path into the pool.
    """

    items: tuple[int, ...]
    source_agent: int
    target: int
    doubled_weight: int


def min_weight_path(
    graph: ExchangeGraph,
    sources: Collection[int],
    agent: int,
    target: int,
) -> Optional[AugmentingPath]:
    """Least-cost augmenting path from ``sources`` (the requesting agent's
    desired items) into part ``target`` of the counted allocation: the pool
    when it is 0, else that agent's counted bundle.  Returns None when no
    path exists.

    A pool item ``v`` reached along ``u -> v`` is picked up by ``u``'s
    holder, at 1 when it holds ``v`` in its zero-valued bundle, else 2:
    the edge's own weight, since the same membership makes it light.  So
    such an edge costs twice its weight.  A search with a source among the
    targets is answered here; any other is ``search.least_path``'s, on the
    graph state's memo of dead pairs for a pool search, and stopping at its
    first heavy hit for an exchange search, since no light list meets an
    agent's counted bundle.  Its edge count, whether its last edge is light
    and the target fix its cost (see the module docstring).

    ``agent`` must be an agent, 1..n, and ``target`` the pool or another
    agent."""
    xc = graph.xc
    n = xc.num_agents
    if not 1 <= agent <= n:
        raise ContractViolation(f"agent {agent} is not among the agents 1..{n}")
    if target == agent or not 0 <= target <= n:
        raise ContractViolation(f"target {target} is not the pool 0 or another agent of 1..{n}")
    if not sources:
        return None
    targets = xc.bundle(target)
    if not targets.isdisjoint(sources):  # a path of no edge, the least key
        picked = targets.intersection(sources)
        if target:  # a one-item steal
            return AugmentingPath((min(picked),), agent, target, 0)
        cheap = picked.intersection(graph.x0.bundle(agent))  # a direct pickup
        return AugmentingPath((min(cheap or picked),), agent, 0, 1 if cheap else 2)
    found = least_path(
        graph.adjacency, sources, targets, {} if target else graph.dead, bool(target)
    )
    if found is None:
        return None
    items, light = found
    edges = len(items) - 1
    # every edge but the last is heavy; a pickup pays the last edge again
    weight = 2 * edges - light if target else 2 * (edges + 1 - light)
    return AugmentingPath(items, agent, target, weight)


def shift_along_path(allocation: Allocation, items: Sequence[int], gainer: int) -> Allocation:
    """Apply the path-augmentation shift to a path that ends in the pool:
    every path item moves one step back toward the start, the last item
    leaves the pool, and the first item joins ``gainer``'s bundle.

    Only the gainer's and the path holders' bundles, and the pool, are
    rebuilt and checked; every other bundle is passed through as the same
    object."""
    return allocation.move(_path_moves(allocation, items, gainer, 0))


def _path_moves(allocation, items, gainer, target):
    """The moves ``(item, from, to)`` of a path that ends in part ``target``:
    each path item goes to the holder of the item before it, the first to
    ``gainer``.  Raises ``ContractViolation`` unless the path ends in part
    ``target``, which is not ``gainer``, and every interior item is held by
    an agent.  ``Allocation.move`` checks that each item moves once, out of
    a part that holds it, so the moves add one item to ``gainer``, take one
    from ``target`` and change no other size."""
    if not items or items[-1] not in allocation.bundle(target) or gainer == target:
        raise ContractViolation(f"path does not end in part {target}")
    holders = list(map(allocation.owner_of, items[:-1]))
    if 0 in holders:
        raise ContractViolation("interior path item is unallocated")
    holders.append(target)
    return list(zip(items, holders, (gainer, *holders)))


def clean_state_violations(
    inst: Instance,
    xc: Allocation,
    x0: Allocation,
    agents: Optional[Iterable[int]] = None,
) -> list[str]:
    """All broken state invariants: c-cleanness of xc, 0-cleanness of the
    per-agent unions, and every x0 bundle within xc's pool, as two parts of
    one allocation.  Empty list when sound.

    Each invariant concerns one agent's bundles; ``agents`` limits the check
    to those agents (default: all).
    """
    problems = []
    pool, valuations = xc.unallocated, inst.valuations
    for i in inst.agents if agents is None else agents:
        spec = valuations[i - 1]
        xc_i, x0_i = xc.bundles[i - 1], x0.bundles[i - 1]
        if not x0_i <= pool:
            held = x0_i - pool
            if held & xc_i:
                problems.append(f"agent {i}: xc and x0 overlap on {sorted(held & xc_i)}")
            if held - xc_i:
                problems.append(
                    f"agent {i}: x0 holds {sorted(held - xc_i)}, outside xc's pool"
                )
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
    the same object.  ``_path_moves`` checks that the path ends in its
    target part, so only the source's and the target's counted sizes move,
    by +1 and -1.  The postconditions (cleanness, every x0 bundle within
    xc's pool) are asserted, and any failure raises ``CleannessViolation``
    -- which must never happen for valid inputs.  The state passed in must
    be sound.  The changed agents are the gainer and the path items'
    holders, whose counted bundles the shift's moves touch, plus the x0
    holder of a Pareto terminal, which moves into x0's pool: exactly the
    agents with a new bundle object, found without a walk over all n
    agents.  The invariants are rechecked only for them: xc's pool loses
    only a Pareto terminal, whose x0 holder is among them.
    """
    items, source, target = path.items, path.source_agent, path.target
    moves = _path_moves(xc, items, source, target)
    new_xc = xc.move(moves)
    new_x0 = x0
    # the gainer and the holders, the pool among them when the path ends there
    changed = {source}.union(holder for _, holder, _ in moves)
    changed.discard(0)
    if not target:  # the path ends in the pool
        terminal = items[-1]
        holder = x0.owner_of(terminal)
        if holder:
            new_x0 = x0.move([(terminal, holder, 0)])
            changed.add(holder)
    problems = clean_state_violations(inst, new_xc, new_x0, sorted(changed))
    if problems:
        raise CleannessViolation("; ".join(problems))
    return new_xc, new_x0
