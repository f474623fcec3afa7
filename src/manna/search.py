"""The one path search of both phases: a layered breadth-first search over
the exchange graph's out-list pairs.

``adjacency`` maps an item to its out-list pair ``(light, heavy)``, two
ascending lists of items whose edges weigh 1 and 2 (see ``exchange``).  A
path's key is ``(cost, edge count, item sequence)``; phase 2 doubles the
cost of an edge into the pool, its pickup.  The search returns the path of
one or more edges with the least key, without weighing an edge.

* **The key order is breadth-first order.**  The phase-2 state ``(xc,
  x0)`` is two parts of one allocation, so every ``x0`` item lies in
  ``xc``'s pool, and a light edge, which enters its holder's ``x0``
  bundle, enters the pool.  A pool item has no out-edge, so a light edge
  can only be a path's last edge, and a path of ``e`` edges costs ``2e``,
  less 1 when its last edge is light; a pool search pays that last edge
  twice, so ``2e`` or ``2e + 2``.  An exchange key then orders as ``(e,
  light before heavy, items)``, and so does a Pareto key: its ``2e + 2``
  ties ``e + 1`` edges ending light, and the fewer edges win.  Phase 1's
  edges are all heavy.
* **Layers in discovery order.**  The sources, ascending, are the first
  layer.  A layer sorted by path key, extended in its order through
  ascending lists, yields the next layer sorted by ``(parent's path key,
  item)``, which is that layer's path key.  So the first parent to reach an
  item gives it its least key, and in each layer the first hit in layer
  order, through the least target of its list, is the least path of its
  class.  The search walks a layer once for light hits and heavy hits; the
  first light hit is the answer, failing one the first heavy hit, and
  failing both the layer is extended through its heavy lists.
* **One walk per node.**  Items whose pair is the same object form one
  node: the pair alone fixes their edges and each edge's class.  Of the
  items of one node the first reached has the least path key, and the
  same edge extends a larger key to a larger one, so a later item's walk
  could find no hit and reach no item first.  So each pair is walked once
  per search, from the first of its items: checked for hits, and extended
  when its layer has none.
* **Dead pairs, shared by failed pool searches.**  ``dead`` holds the
  pairs walked by earlier failed searches of the same graph state, by id,
  and the search walks none of them; a failed search adds its own.  Phase
  2 shares one memo between the pool searches of a state and gives every
  other search a fresh one.  The memo changes no answer:

  - every pool search of one state has the same targets, ``xc``'s pool;
  - a light edge enters the pool, so a walked pair with a non-empty light
    list is a hit;
  - so a failed search has walked every pair reachable from its sources
    and found no target, and none of those pairs reaches the pool;
  - every out-neighbour of a dead pair is also dead, so skipping dead
    pairs changes no hit, no discovered live item and no first parent.
* **Early stop, when no light list can hit.**  ``stop_at_heavy`` ends a
  layer's walk at its first heavy hit, which is then the answer.  The
  caller passes it exactly when no light list meets the targets: an
  exchange search, whose targets are an agent's counted bundle, while a
  light list enters ``x0``, which lies in ``xc``'s pool; and phase 1, whose
  light lists are all empty.  Without a light hit the first heavy hit in
  layer order is the least path, so the rest of the layer cannot change
  it.  A pool search passes False: a light hit later in the layer costs
  less.
"""

from __future__ import annotations

from itertools import filterfalse, islice
from typing import Iterable, Optional


def least_path(
    adjacency: dict[int, tuple],
    sources: Iterable[int],
    targets: frozenset[int],
    dead: dict[int, int],
    stop_at_heavy: bool,
) -> Optional[tuple[tuple[int, ...], bool]]:
    """The least path of one or more edges from ``sources`` to ``targets``
    in ``adjacency``, and whether its last edge is light; None when no
    target is reachable, after adding the pairs walked to ``dead``.  Every
    light edge must end its path, entering a target or an item with no
    out-edges, and no source may be a target: a search with a source among
    the targets has its zero-edge answer already.  ``dead`` must hold only
    pairs that reach no target, and ``stop_at_heavy``, which ends a layer
    at its first heavy hit, may be true only when no light list meets the
    targets."""
    frontier = sorted(sources)
    parent: dict[int, Optional[int]] = {}  # first parents, from the first extension on
    walked = dict(dead)  # id of each pair walked -> the item it was walked at
    while frontier:
        first, hit = len(walked), None
        for u in frontier:
            pair = adjacency.get(u)
            if pair is None or id(pair) in walked:
                continue
            walked[id(pair)] = u
            light, heavy = pair
            if light and not targets.isdisjoint(light):
                hit = u, min(targets.intersection(light)), True
                break
            if hit is None and not targets.isdisjoint(heavy):
                hit = u, min(targets.intersection(heavy)), False
                if stop_at_heavy:
                    break
        if hit is not None:
            u, v, ends_light = hit
            path = u, v
            while (u := parent.get(u)) is not None:
                path = u, *path
            return path, ends_light
        if not parent:  # the sources, which have none
            parent = dict.fromkeys(frontier)
        frontier = []
        for u in islice(walked.values(), first, None):  # this layer's nodes
            fresh = list(filterfalse(parent.__contains__, adjacency[u][1]))
            parent.update(dict.fromkeys(fresh, u))
            frontier += fresh
    dead.update(walked)
    return None

