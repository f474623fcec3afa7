"""Clean MAX-USW leximin allocation for binary submodular oracles.

The procedure repeatedly lets the active agent with the smallest bundle
(ties to the lower index) hunt for a shortest exchange-graph path from its
desired items to the pool.  A found path is augmented, handing the agent its
first item; otherwise the agent retires.  The result is simultaneously
leximin and welfare-maximal for the supplied oracles, and every bundle is
clean (its oracle count equals its size).

An agent's desired items and the out-neighbours of its items are sought
only among the items it values on the empty bundle, so the oracles'
marginals must not grow as a bundle grows (see ``exchange``).

Every exchange-graph edge weighs 1 here, so the path search is breadth-first
and stops at the first pool item it discovers; its path is the one Dijkstra
would return (see ``exchange``).

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

from typing import Sequence

from . import exchange
from .core import Allocation
from .errors import OracleViolation
from .exchange import shift_along_path, shortest_path_to_pool
from .threshold import is_clean


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


def yankee_swap(num_items: int, betas: Sequence) -> Allocation:
    """Compute a clean MAX-USW leximin allocation for ``betas``.

    ``betas[i-1]`` is agent i's binary submodular oracle exposing
    ``value(bundle)`` and ``marginal(bundle, item)``; its marginals must not
    grow as the bundle grows.
    """
    n = len(betas)
    oracles = [_CheckedOracle(b, i + 1) for i, b in enumerate(betas)]
    candidates = [exchange.candidate_items(o.marginal, 1, num_items) for o in oracles]
    allocation = Allocation.empty(n, num_items)
    adjacency, desired = exchange.unweighted_adjacency(allocation, oracles, candidates)
    active = set(range(1, n + 1))
    while active:
        agent = min(active, key=lambda i: (len(allocation.bundle(i)), i))
        path = shortest_path_to_pool(allocation, adjacency, desired[agent - 1])
        if path is None:
            active.discard(agent)
            continue
        previous = (allocation, adjacency, desired)
        allocation = shift_along_path(allocation, path, agent)
        if not is_clean(oracles[agent - 1], allocation.bundle(agent)):
            raise OracleViolation(
                f"agent {agent}: bundle not clean after augmentation; "
                "the supplied oracle is not binary submodular"
            )
        adjacency, desired = exchange.unweighted_adjacency(
            allocation, oracles, candidates, previous
        )
    for i in range(1, n + 1):
        if not is_clean(oracles[i - 1], allocation.bundle(i)):
            raise OracleViolation(f"agent {i}: final bundle not clean")
    return allocation
