"""The lazy Dijkstra that runs the phase-2 path searches whose answer the key
order alone does not fix; ``exchange`` answers the others without it.

A path's key is ``(cost, edge count, item sequence)``; the search returns
the least key of a path from a start to a target.  Extending a path
strictly increases its key, so Dijkstra settles keys in increasing order
and the first target it settles has the least key: the one a search run to
exhaustion would pick.

* **Cursors, not edges.**  Out-lists are pairs of class lists sorted by
  item, and the extensions of a path through the edges of one *class*
  share its cost, edge count and prefix, so their keys rise with the item.
  One cursor per expanded node and class stands for all of them with its
  least key whose item is not yet settled; popped, it moves on past the
  items settled since.  So the heap's least entry is the least key an
  eager search, pushing every edge, would hold, and each item is settled at
  its first pop.  The search stops at the first target, so most of each
  list is never read.  A class is an edge weight, and in a pool search also
  whether the edge enters a target (see ``exchange``).
* **One expansion per node.**  Items whose out-list pair is the same object
  form a node.  The search pushes a node's cursors only when the first of
  its items leaves the heap; a later item is still tested as a target,
  but not expanded.  This prunes nothing that matters.  The items share
  one pair, so the same edges in the same classes, and a pool pickup costs
  twice its edge's class: the pair alone fixes every extension's cost, so
  each item offers the same extensions at the same added cost.  A
  later item's key is larger, since keys leave the heap in increasing
  order and no two are equal.  Extended by the same edge it stays larger: a
  smaller cost or edge count carries over, and with both equal the two
  paths have one length and differ before their last item.  So a later
  item's extension improves no key a search would settle.
"""

from __future__ import annotations

import heapq

_WEIGHTS = (1, 2)  # of the edges in a pair's ``light`` and ``heavy`` lists


def least_key(starts, adjacency, targets, pool):
    """Least key ``(cost, edge count, item path)`` of a path from ``starts``
    to ``targets``, or None when no target is reachable.

    ``starts`` maps each source to the cost of its one-item path.
    ``adjacency`` maps an item to its out-list pair ``(light, heavy)``, two
    ascending lists of items whose edges weigh 1 and 2.  An edge ``u -> v``
    costs its weight ``w``, or ``2w`` when ``pool`` is set and ``v`` is a
    target.

    A heap entry is ``(cost, edge count, prefix, item, list, index)``: a
    cursor at ``index`` of a class ``list``, or, with no list, a start or a
    pool edge's target.  A target popped ends the search, so a target class
    never moves on: its entry is its first target.  Entries with one prefix
    come from the cursors of one item, which never point at the same item,
    so no two entries agree on their first four fields and the rest is never
    compared.
    """
    heap = [(cost, 0, (), o, None, 0) for o, cost in starts.items()]
    heapq.heapify(heap)
    skip = targets if pool else ()  # what a non-target cursor passes over
    settled = set()
    expanded = set()
    while heap:
        cost, nedges, prefix, v, out, k = heap[0]
        if v in targets:
            return cost, nedges, prefix + (v,)
        if out is None:
            heapq.heappop(heap)
        else:
            for k in range(k + 1, len(out)):
                u = out[k]
                if u not in settled and u not in skip:
                    heapq.heapreplace(heap, (cost, nedges, prefix, u, out, k))
                    break
            else:
                heapq.heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        pair = adjacency.get(v)
        if pair is None or id(pair) in expanded:
            continue
        expanded.add(id(pair))
        path = prefix + (v,)
        nedges += 1
        for weight, out in zip(_WEIGHTS, pair):
            for k, u in enumerate(out):
                if u not in settled and u not in skip:
                    heapq.heappush(heap, (cost + weight, nedges, path, u, out, k))
                    break
            if pool:
                for u in out:
                    if u in targets:
                        heapq.heappush(heap, (cost + 2 * weight, nedges, path, u, None, 0))
                        break
    return None
