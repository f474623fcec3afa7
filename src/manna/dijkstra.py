"""The lazy Dijkstra that runs every phase-2 path search.

A path's key is ``(cost, edge count, item sequence)``; the search returns
the least key of a path from a start to a target.  Extending a path
strictly increases its key, so Dijkstra settles keys in increasing order
and the first target it settles has the least key: the one a search run to
exhaustion would pick.

* **Cursors, not edges.**  Out-lists are sorted by item, and the extensions
  of a path through the edges of one *class* share its cost, edge count and
  prefix, so their keys rise with the item.  One cursor per expanded node
  and class stands for all of them with its least key whose item is not
  yet settled; popped, it moves on past the items settled since.  So the
  heap's least entry is the least key an eager search, pushing every edge,
  would hold, and each item is settled at its first pop.  The search stops
  at the first target, so most of each out-list is never read.  A class is
  an edge weight, and in a pool search also whether the edge enters a
  target (see ``exchange``).
* **One expansion per node.**  Items that share one out-list and one holder
  form a node.  The search pushes a node's cursors only when the first of
  its members leaves the heap; a later member is still tested as a target,
  but not expanded.  This prunes nothing that matters.  The members share
  one out-list, so the same weights, and one holder, so the same Pareto
  pickup costs: each offers the same extensions at the same added cost.  A
  later member's key is larger, since keys leave the heap in increasing
  order and no two are equal.  Extended by the same edge it stays larger: a
  smaller cost or edge count carries over, and with both equal the two
  paths have one length and differ before their last item.  So a later
  member's extension improves no key a search would settle.
"""

from __future__ import annotations

import heapq


def least_key(starts, adjacency, node_of, weights, targets, pool):
    """Least key ``(cost, edge count, item path)`` of a path from ``starts``
    to ``targets``, or None when no target is reachable.

    ``starts`` maps each source to the cost of its one-item path.
    ``adjacency`` maps an item to its out-list of ``(item, weight)`` edges in
    ascending item order, ``node_of`` an item to its quotient node, and
    ``weights`` a node to weights that include those on its out-list.  An
    edge ``u -> v`` costs its weight ``w``, or ``2w`` when ``pool`` is set
    and ``v`` is a target.

    A heap entry is ``(cost, edge count, prefix, item, out-list, index,
    weight)``: a cursor at ``index`` of ``out-list``, or, with no out-list,
    a start or a pool edge's target.  A target popped ends the search, so a
    target class never moves on: its entry is its first target.  Entries
    with one prefix come from the cursors of one item, which never point at
    the same item, so no two entries agree on their first four fields and
    the rest is never compared.
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
