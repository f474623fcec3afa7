"""Clean MAX-USW leximin allocation for the threshold-0 counts of valuations.

Agent i's count (``threshold.beta`` at 0) is binary submodular: an item's
marginal under it is 1 exactly when the valuation's marginal reaches 0.
The procedure repeatedly lets the active agent with the smallest bundle
(ties to the lower index) hunt for a shortest exchange-graph path from its
desired items to the pool.  A found path is augmented, handing the agent
its first item; otherwise the agent retires.  The result is leximin and
welfare-maximal for these counts, and every bundle is clean (its count
equals its size).

The turn order is a heap of ``(bundle size, agent)`` over the active agents.
Only the gainer's entry ever needs to move.  A path ends in the pool, so
each path item a holder gives up is replaced in its bundle by the next item
on the path, and only the gainer, which receives the first item, grows: by
exactly one.  The gainer goes back with its size plus one, an always-on
check confirms that its bundle grew by exactly one and is clean, and a
retiring agent leaves the heap.  The heap's least entry is then the one a
scan of all active agents for the smallest bundle would pick.

An agent's desired items and the out-neighbours of its items are sought
only among the items whose marginal on the empty bundle reaches 0, so the
valuations' marginals must not grow as a bundle grows (see ``exchange``).

Every exchange-graph edge is heavy here, so a path's key orders as
``(edges, item sequence)``; ties go to the lexicographically smallest item
sequence.  The search is the one phase 2 runs, ``search.least_path``: a
breadth-first search whose first pool item reached, in layer order, is the
least path, and which walks each node of the graph's agent quotient once.

Two kinds of search have a forced answer and walk no list.  Every path
ends in the pool, so a search on an empty pool finds none.  A desired item
in the pool is a path of no edges, below every longer one, so the least
such item is the path (a *direct pickup*).

The exchange graph is built once and then advanced in place only after an
augmentation, recomputing only the agents whose bundles changed (see
``exchange``).  The build also lists each agent's desired items: it tests
every candidate against the agent's whole bundle to find the out-neighbours
all held items share, and those candidates are exactly the desired ones.
An agent's bundle changes on every turn that does not retire it, so a
desired set kept from its own last turn would never be reused; the one
kept with its edges is.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional, Sequence

from . import exchange, threshold
from .core import Allocation
from .errors import CleannessViolation
from .exchange import shift_along_path
from .search import least_path


def yankee_swap(num_items: int, valuations: Sequence) -> Allocation:
    """Compute a clean MAX-USW leximin allocation for the threshold-0 counts
    of ``valuations`` (agent i's is ``valuations[i-1]``), whose marginals
    must not grow as a bundle grows: the solver's gate admits no other."""
    n = len(valuations)
    allocation = Allocation.empty(n, num_items)
    graph = exchange.unweighted_adjacency(allocation, valuations)
    # (bundle size, agent) of every active agent; sorted, so already a heap
    turns = [(0, i) for i in range(1, n + 1)]
    while turns:
        size, agent = turns[0]
        path = shortest_path_to_pool(allocation, graph.adjacency, graph.desired[agent - 1])
        if path is None:
            heapq.heappop(turns)
            continue
        allocation = shift_along_path(allocation, path, agent)
        bundle = allocation.bundle(agent)
        if len(bundle) != size + 1:
            raise CleannessViolation(
                f"agent {agent}: bundle size {len(bundle)} after augmentation, "
                f"expected {size + 1}"
            )
        heapq.heapreplace(turns, (size + 1, agent))
        if threshold.beta(valuations[agent - 1], 0, bundle) != len(bundle):
            raise CleannessViolation(
                f"agent {agent}: bundle not clean at threshold 0 after augmentation"
            )
        graph = exchange.unweighted_adjacency(allocation, valuations, graph)
    for i, bundle in enumerate(allocation.bundles, 1):
        if threshold.beta(valuations[i - 1], 0, bundle) != len(bundle):
            raise CleannessViolation(f"agent {i}: final bundle not clean at threshold 0")
    return allocation


def shortest_path_to_pool(
    allocation: Allocation, adjacency: dict[int, tuple], sources: Iterable[int]
) -> Optional[tuple[int, ...]]:
    """Shortest path from ``sources`` to the unallocated pool in
    ``adjacency``, the out-list pairs of ``allocation``'s
    ``unweighted_adjacency``, whose edges are all heavy; ties go to the
    lexicographically smallest item sequence.

    An empty pool gives None and a source in the pool the least such item,
    without a walk; any other search is ``search.least_path``'s.
    """
    pool = allocation.unallocated
    if not pool:
        return None
    direct = pool.intersection(sources)
    if direct:
        return (min(direct),)
    found = least_path(adjacency, sources, pool, {}, True)  # every list is heavy
    return None if found is None else found[0]
