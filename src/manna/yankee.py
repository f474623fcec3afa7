"""Clean MAX-USW leximin allocation for binary submodular oracles.

The procedure repeatedly lets the active agent with the smallest bundle
(ties to the lower index) hunt for a shortest exchange-graph path from its
desired items to the pool.  A found path is augmented, handing the agent its
first item; otherwise the agent retires.  The result is simultaneously
leximin and welfare-maximal for the supplied oracles, and every bundle is
clean (its oracle count equals its size).

The turn order is a heap of ``(bundle size, agent)`` over the active agents.
Only the gainer's entry ever needs to move.  A path ends in the pool, so
each path item a holder gives up is replaced in its bundle by the next item
on the path, and only the gainer, which receives the first item, grows: by
exactly one.  The gainer goes back with its size plus one, an always-on
check confirms that its bundle grew by exactly one, and a retiring agent
leaves the heap.  The heap's least entry is then the one a scan of all
active agents for the smallest bundle would pick.

An agent's desired items and the out-neighbours of its items are sought
only among the items it values on the empty bundle, so the oracles'
marginals must not grow as a bundle grows (see ``exchange``).

Every exchange-graph edge weighs 1 here, so cost equals edge count and a
path's key is ``(edges, item sequence)``; ties go to the lexicographically
smallest item sequence.  A FIFO search discovers items in that order: a
layer sorted by path key, expanded in discovery order through ascending
edge lists, yields the next layer sorted by ``(parent's path key, item)``,
which is that layer's path key.  So the first parent to reach an item gives
it its least key, and the first pool item discovered is the one Dijkstra
would settle first.  An edge list that several items share -- one tuple
object, as the builder makes it when all of an agent's candidates are sure
-- is walked only at the first of them.  That walk gave every item on the
list a parent, or found the pool, so a second walk would skip every item on
it.  The skip keys on the list's identity, as the builders key on bundle
identity, and needs no node map.

The oracles are asked in batches, through ``marginals(bundle, items)``, so
one call through the wrapper that checks each marginal is 0 or 1 covers a
whole list of items on one bundle (see ``exchange``).

The exchange graph is built once and then advanced in place only after an
augmentation.  The shift passes every bundle the path leaves alone through
as the same object, so the build, keyed on bundle identity, recomputes only
the agents whose bundles changed and keeps the rest, which gives the same
graph as a fresh build (see ``exchange``).  The graph it is handed is
consumed: its edge lists and desired items are updated, not copied.  The
build also lists each agent's desired items: it tests every candidate
against the agent's whole bundle to find the out-neighbours all held items
share, and those candidates are exactly the desired ones.  An agent's
bundle changes on every turn that does not retire it, so a desired set kept
from its own last turn would never be reused; the one kept with its edges
is.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional, Sequence

from . import exchange
from .core import Allocation
from .errors import CleannessViolation, OracleViolation
from .exchange import shift_along_path
from .threshold import ThresholdBeta, is_clean


_BINARY = frozenset((0, 1))


class _CheckedOracle:
    """Wraps a binary oracle, rejecting out-of-range marginals."""

    def __init__(self, oracle, agent: int):
        self._oracle = oracle
        self._agent = agent

    def value(self, items):
        return self._oracle.value(items)

    def marginal(self, items, item):
        d = self._oracle.marginal(items, item)
        if d not in (0, 1):
            raise OracleViolation(
                f"agent {self._agent}: binary oracle returned marginal {d}"
            )
        return d

    def marginals(self, items, candidates):
        ds = self._oracle.marginals(items, candidates)
        if len(ds) != len(candidates):
            raise OracleViolation(
                f"agent {self._agent}: binary oracle returned {len(ds)} "
                f"marginals for {len(candidates)} items"
            )
        if not _BINARY.issuperset(ds):
            d = next(d for d in ds if d not in _BINARY)
            raise OracleViolation(
                f"agent {self._agent}: binary oracle returned marginal {d}"
            )
        return ds

    def bundle_independent(self, items):
        """The bundle-independent items among ``items`` that a wrapped
        ``ThresholdBeta`` declares for its valuation; none for any other
        oracle.  No later call checks a declared item, so only manna's own
        valuation families are trusted to declare."""
        if type(self._oracle) is ThresholdBeta:
            return self._oracle.bundle_independent(items)
        return frozenset()


def yankee_swap(num_items: int, betas: Sequence) -> Allocation:
    """Compute a clean MAX-USW leximin allocation for ``betas``.

    ``betas[i-1]`` is agent i's binary submodular oracle exposing
    ``value(bundle)``, ``marginal(bundle, item)`` and
    ``marginals(bundle, items)``; its marginals must not grow as the bundle
    grows.  The items a ``ThresholdBeta`` oracle declares bundle-independent
    (see ``valuations``) are never asked about again.
    """
    n = len(betas)
    oracles = [_CheckedOracle(b, i + 1) for i, b in enumerate(betas)]
    candidates = [exchange.candidate_items(o.marginals, 1, num_items) for o in oracles]
    dependent = [
        frozenset(c).difference(o.bundle_independent(c))
        for o, c in zip(oracles, candidates)
    ]
    allocation = Allocation.empty(n, num_items)
    adjacency, desired = exchange.unweighted_adjacency(
        allocation, oracles, candidates, dependent
    )
    # (bundle size, agent) of every active agent; sorted, so already a heap
    turns = [(0, i) for i in range(1, n + 1)]
    while turns:
        size, agent = turns[0]
        path = shortest_path_to_pool(allocation, adjacency, desired[agent - 1])
        if path is None:
            heapq.heappop(turns)
            continue
        previous = (allocation, adjacency, desired)
        allocation = shift_along_path(allocation, path, agent)
        if len(allocation.bundle(agent)) != size + 1:
            raise CleannessViolation(
                f"agent {agent}: bundle size {len(allocation.bundle(agent))} "
                f"after augmentation, expected {size + 1}"
            )
        heapq.heapreplace(turns, (size + 1, agent))
        if not is_clean(oracles[agent - 1], allocation.bundle(agent)):
            raise OracleViolation(
                f"agent {agent}: bundle not clean after augmentation; "
                "the supplied oracle is not binary submodular"
            )
        adjacency, desired = exchange.unweighted_adjacency(
            allocation, oracles, candidates, dependent, previous
        )
    for i in range(1, n + 1):
        if not is_clean(oracles[i - 1], allocation.bundle(i)):
            raise OracleViolation(f"agent {i}: final bundle not clean")
    return allocation


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
