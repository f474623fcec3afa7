"""Instance generators, canonical fixtures, the hardness reduction, and JSON
serialization.

Generation is platform-deterministic: the only randomness source is a
splitmix64 stream (fixed constants, 64-bit wrapping arithmetic), so a seed
plus parameters pins an instance bit-for-bit on every platform.  All file
formats are JSON with sorted keys and no floats, making golden files exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .core import Allocation, Instance
from .errors import ContractViolation, InvalidInstance, ParseError
from .jsontext import dumps
from .solver import SolveReport
from .threshold import TriDecomposition
from .valuations import (
    EXPLICIT_MAX_ITEMS,
    Additive,
    CappedGroups,
    Explicit,
    GeneralAdditive,
    Group,
    ValuationSpec,
    mask_of,
)

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 stream; an algorithm specification, not a library RNG."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); the tiny modulo bias is irrelevant for
        instance generation and keeps the stream platform-exact."""
        if n <= 0:
            raise ContractViolation("below() needs a positive bound")
        return self.next_u64() % n

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


def gen_random_additive(
    n: int,
    m: int,
    c: int,
    weights: tuple[int, int, int],
    seed: int,
) -> Instance:
    """I.i.d. additive instance; ``weights`` are the integer odds of drawing
    value c, 0 and -1 respectively."""
    w_c, w_0, w_m1 = weights
    if min(w_c, w_0, w_m1) < 0 or w_c + w_0 + w_m1 <= 0:
        raise ContractViolation(f"invalid value ratios {weights}")
    total = w_c + w_0 + w_m1
    rng = SplitMix64(seed)
    specs = []
    for _ in range(n):
        values = []
        for _ in range(m):
            r = rng.below(total)
            values.append(c if r < w_c else 0 if r < w_c + w_0 else -1)
        specs.append(Additive(tuple(values)))
    return Instance(n, m, c, tuple(specs))


_HI_LO_PAIRS = ((None, 0), (None, -1), (0, -1), (0, 0))  # None stands for c


def gen_capped_groups(
    n: int,
    m: int,
    c: int,
    groups_range: tuple[int, int],
    cap_range: tuple[int, int],
    seed: int,
) -> Instance:
    """Random capped-group instance: each agent gets disjoint item groups of
    size 1..4 with random (hi, lo) marginals and caps, plus a random default
    marginal in {0, -1} for the ungrouped remainder."""
    g_lo, g_hi = groups_range
    cap_lo, cap_hi = cap_range
    if g_lo > g_hi or cap_lo > cap_hi or g_lo < 0 or cap_lo < 0:
        raise ContractViolation("empty generator range")
    rng = SplitMix64(seed)
    specs = []
    for _ in range(n):
        k = g_lo + rng.below(g_hi - g_lo + 1)
        perm = list(range(m))
        rng.shuffle(perm)
        pos = 0
        groups = []
        for _ in range(k):
            remaining = m - pos
            if remaining <= 0:
                break
            size = 1 + rng.below(min(remaining, 4))
            items = frozenset(perm[pos : pos + size])
            pos += size
            hi, lo = _HI_LO_PAIRS[rng.below(len(_HI_LO_PAIRS))]
            hi = c if hi is None else hi
            cap = cap_lo + rng.below(cap_hi - cap_lo + 1)
            groups.append(Group(items, cap, hi, lo))
        default = 0 if rng.below(2) == 0 else -1
        specs.append(CappedGroups(tuple(groups), default))
    return Instance(n, m, c, tuple(specs))


@dataclass(frozen=True)
class ExPDMInstance:
    """Exact p-dimensional matching input: p vertex parts of size a and a set
    of hyperedges picking one vertex per part."""

    p: int
    a: int
    parts: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(tuple(x) for x in self.parts))
        object.__setattr__(self, "edges", tuple(tuple(x) for x in self.edges))
        if len(self.parts) != self.p or any(len(part) != self.a for part in self.parts):
            raise ContractViolation("parts must be p lists of size a")
        seen: set[int] = set()
        for part in self.parts:
            for v in part:
                if v in seen:
                    raise ContractViolation(f"vertex {v} appears twice")
                seen.add(v)
        for e in self.edges:
            if len(e) != self.p or any(
                e[k] not in self.parts[k] for k in range(self.p)
            ):
                raise ContractViolation(f"edge {e} does not pick one vertex per part")


def canonical_parts(p: int, a: int) -> tuple[tuple[int, ...], ...]:
    """Part k holds vertices ``k*a .. (k+1)*a - 1``."""
    return tuple(tuple(range(k * a, (k + 1) * a)) for k in range(p))


def gen_hardness(expdm: ExPDMInstance, q: int) -> Instance:
    """Reduce a matching instance to a fair-division instance with
    {-p, q}-valued additive agents; leximin decides the matching.

    One item per vertex plus ``a*q`` dummy items at the highest indices; each
    edge becomes an agent valuing its own p vertices at q and everything
    else at -p.  The output is marked general-additive: the solver rejects
    it, the brute-force oracles decide it.
    """
    p, a = expdm.p, expdm.a
    if q < 1:
        raise ContractViolation("q must be a positive integer")
    if p < 3:
        raise ContractViolation("the reduction needs p >= 3")
    if math.gcd(p, q) != 1:
        raise ContractViolation(f"p={p} and q={q} must be coprime")
    num_vertices = p * a
    num_items = num_vertices + a * q
    specs = []
    for edge in expdm.edges:
        incident = set(edge)
        values = tuple(q if o in incident else -p for o in range(num_items))
        specs.append(GeneralAdditive(values))
    if not specs:
        raise ContractViolation("the matching instance has no edges")
    return Instance(len(specs), num_items, q, tuple(specs))


def graphic_matroid_rank_table(num_edges: int, edges: Sequence[tuple[int, int]]) -> Explicit:
    """Explicit {0,1} table: rank of each edge subset in the graphic matroid
    (size of the largest acyclic sub-subset).

    A subset's rank is that of the subset without its highest edge, plus 1
    when that edge joins two of its components.  The subsets are visited
    depth first, each child adding an edge above its parent's highest, and a
    union-find with undo holds the components of the subset being visited:
    union by size and no path compression, so that undoing a union restores
    two parent links and one size."""
    table = [0] * (1 << num_edges)
    ends = [tuple(edges[e]) for e in range(num_edges)]
    parent = {x: x for end in ends for x in end}
    size = dict.fromkeys(parent, 1)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def visit(mask: int, rank: int, lowest: int) -> None:
        for e in range(lowest, num_edges):
            child = mask | 1 << e
            ru, rv = find(ends[e][0]), find(ends[e][1])
            if ru == rv:
                table[child] = rank
                visit(child, rank, e + 1)
                continue
            if size[ru] < size[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]
            table[child] = rank + 1
            visit(child, rank + 1, e + 1)
            size[ru] -= size[rv]
            parent[rv] = rv

    visit(0, 0, 0)
    return Explicit(num_edges, tuple(table))


# 6-node triangular-lattice graph; 9 edges indexed 0..8.
LATTICE_EDGES = (
    (0, 1), (0, 2), (1, 2), (3, 1), (3, 2), (3, 4), (2, 4), (1, 5), (3, 5),
)


def fixtures() -> dict[str, Instance]:
    """The canonical small instances used throughout the test suite.

    ``ex2``       two agents, one capped good-pair vs. two pure chores (c=2)
    ``ex_classic`` one agent whose second item turns into a chore (c=2)
    ``ex_ef1``    the envy counterexample: a capped agent facing an additive
                  one over six items (c=2)
    ``ex_mms``    the maxmin-share counterexample over ten items (c=1)
    ``non_on``    a submodular but order-sensitive two-item table (c=1)
    ``fig1``      graphic-matroid rank of the 9-edge lattice (c=1)
    """
    c = 2
    ex2 = Instance(
        2, 4, c,
        (
            CappedGroups((Group(frozenset({0, 1}), 1, c, 0),), 0),
            Additive((0, 0, -1, -1)),
        ),
    )
    ex_classic = Instance(
        1, 2, c,
        (CappedGroups((Group(frozenset({0, 1}), 1, c, -1),), 0),),
    )
    ex_ef1 = Instance(
        2, 6, c,
        (
            CappedGroups((Group(frozenset({2, 3, 4, 5}), 2, c, -1),), c),
            Additive((c, c, -1, -1, -1, -1)),
        ),
    )
    ex_mms = Instance(
        2, 10, 1,
        (
            CappedGroups(
                (
                    Group(frozenset({0, 1, 2, 3}), 2, 1, 0),
                    Group(frozenset({4, 5}), 2, 1, 0),
                    Group(frozenset({6, 7, 8, 9}), 0, 0, -1),
                ),
                0,
            ),
            Additive((-1, -1, -1, -1, 1, 1, -1, -1, -1, -1)),
        ),
    )
    non_on = Instance(1, 2, 1, (Explicit(2, (0, 0, 1, 0)),))
    fig1 = Instance(1, 9, 1, (graphic_matroid_rank_table(9, LATTICE_EDGES),))
    return {
        "ex2": ex2,
        "ex_classic": ex_classic,
        "ex_ef1": ex_ef1,
        "ex_mms": ex_mms,
        "non_on": non_on,
        "fig1": fig1,
    }


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _canonical_keys(num_items: int) -> tuple[tuple[str, ...], dict[str, int]]:
    """The explicit-table key of every subset of ``num_items`` items, in mask
    order (ascending items joined by commas, ``""`` for the empty set), and
    the map from each key back to its mask."""
    keys = [""]
    for o in range(num_items):
        head = str(o)
        keys += [f"{key},{head}" if key else head for key in keys]
    return tuple(keys), {key: mask for mask, key in enumerate(keys)}


def _spec_to_obj(spec: ValuationSpec) -> dict:
    if isinstance(spec, Additive):
        return {"kind": "additive", "values": list(spec.values)}
    if isinstance(spec, GeneralAdditive):
        return {"kind": "general_additive", "values": list(spec.values)}
    if isinstance(spec, CappedGroups):
        return {
            "kind": "capped_groups",
            "groups": [
                {"items": sorted(g.items), "cap": g.cap, "hi": g.hi, "lo": g.lo}
                for g in spec.groups
            ],
            "default": spec.default,
        }
    if isinstance(spec, Explicit):
        keys, _ = _canonical_keys(spec.num_items)
        return {"kind": "explicit", "table": dict(zip(keys, spec.table))}
    raise ContractViolation(f"unknown valuation kind {type(spec).__name__}")


def _expect(obj, key, kind, loc):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(loc, f"missing field {key!r}")
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise ParseError(f"{loc}.{key}", "expected an integer")
    if not isinstance(value, kind):
        raise ParseError(f"{loc}.{key}", f"expected {kind.__name__}")
    return value


def _int_list(value, loc) -> list[int]:
    if not isinstance(value, list) or any(
        not isinstance(x, int) or isinstance(x, bool) for x in value
    ):
        raise ParseError(loc, "expected a list of integers")
    return value


def _spec_from_obj(obj: dict, num_items: int, loc: str) -> ValuationSpec:
    kind = _expect(obj, "kind", str, loc)
    if kind in ("additive", "general_additive"):
        values = tuple(_int_list(_expect(obj, "values", list, loc), f"{loc}.values"))
        return Additive(values) if kind == "additive" else GeneralAdditive(values)
    if kind == "capped_groups":
        groups = []
        raw_groups = _expect(obj, "groups", list, loc)
        for gi, g in enumerate(raw_groups):
            gloc = f"{loc}.groups[{gi}]"
            groups.append(
                Group(
                    frozenset(_int_list(_expect(g, "items", list, gloc), f"{gloc}.items")),
                    _expect(g, "cap", int, gloc),
                    _expect(g, "hi", int, gloc),
                    _expect(g, "lo", int, gloc),
                )
            )
        return CappedGroups(tuple(groups), _expect(obj, "default", int, loc))
    if kind == "explicit":
        raw = _expect(obj, "table", dict, loc)
        if not 0 <= num_items <= EXPLICIT_MAX_ITEMS:
            raise ParseError(
                f"{loc}.table",
                f"explicit tables cover 0 to {EXPLICIT_MAX_ITEMS} items, not {num_items}",
            )
        if len(raw) != 1 << num_items:
            raise ParseError(
                f"{loc}.table",
                f"expected {1 << num_items} entries, found {len(raw)}",
            )
        return Explicit(num_items, _explicit_table(raw, num_items, loc))
    raise ParseError(f"{loc}.kind", f"unknown valuation kind {kind!r}")


def _explicit_table(raw: dict, num_items: int, loc: str) -> tuple[int, ...]:
    """The values of a table with ``2^num_items`` entries, in mask order.

    When the keys are exactly the canonical ones and every value is a plain
    integer, the table is read in one pass over the canonical keys.
    Otherwise each key is looked up among the canonical keys, and only a
    key that is not one of them is split and checked; the first bad entry in
    the document's order raises.
    """
    keys, index = _canonical_keys(num_items)
    if raw.keys() == index.keys():
        table = tuple(map(raw.__getitem__, keys))
        if set(map(type, table)) <= {int}:
            return table
    table = [None] * (1 << num_items)
    for key, v in raw.items():
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParseError(f"{loc}.table[{key!r}]", "expected an integer value")
        mask = index.get(key)
        if mask is None:
            mask = _subset_mask(key, num_items, loc)
        if table[mask] is not None:
            raise ParseError(f"{loc}.table[{key!r}]", "duplicate subset key")
        table[mask] = v
    return tuple(table)


def _subset_mask(key: str, num_items: int, loc: str) -> int:
    """The mask of a subset key that is not canonical, such as ``"1,0"``."""
    try:
        items = [int(tok) for tok in key.split(",")] if key else []
    except ValueError:
        raise ParseError(f"{loc}.table[{key!r}]", "malformed subset key") from None
    if any(o < 0 or o >= num_items for o in items) or len(set(items)) != len(items):
        raise ParseError(f"{loc}.table[{key!r}]", "subset key out of range")
    return mask_of(items)


def instance_to_obj(inst: Instance) -> dict:
    return {
        "c": inst.c,
        "num_agents": inst.num_agents,
        "num_items": inst.num_items,
        "agents": [_spec_to_obj(s) for s in inst.valuations],
    }


def instance_from_obj(obj) -> Instance:
    loc = "instance"
    c = _expect(obj, "c", int, loc)
    n = _expect(obj, "num_agents", int, loc)
    m = _expect(obj, "num_items", int, loc)
    agents = _expect(obj, "agents", list, loc)
    if len(agents) != n:
        raise ParseError(f"{loc}.agents", f"expected {n} entries, found {len(agents)}")
    specs = tuple(
        _spec_from_obj(a, m, f"{loc}.agents[{i}]") for i, a in enumerate(agents)
    )
    try:
        return Instance(n, m, c, specs)
    except (InvalidInstance, ContractViolation) as exc:
        raise ParseError(loc, str(exc)) from exc


def allocation_to_obj(allocation: Allocation) -> dict:
    return {
        "bundles": [sorted(b) for b in allocation.bundles],
        "unallocated": sorted(allocation.unallocated),
    }


def allocation_from_obj(obj, num_items: int | None = None) -> Allocation:
    loc = "allocation"
    bundles = _expect(obj, "bundles", list, loc)
    parsed = [
        frozenset(_int_list(b, f"{loc}.bundles[{i}]")) for i, b in enumerate(bundles)
    ]
    unallocated = frozenset(
        _int_list(_expect(obj, "unallocated", list, loc), f"{loc}.unallocated")
    )
    try:
        alloc = Allocation(tuple(parsed), unallocated)
    except ContractViolation as exc:
        raise ParseError(loc, str(exc)) from exc
    if num_items is not None and alloc.num_items != num_items:
        raise ParseError(loc, f"covers {alloc.num_items} items, expected {num_items}")
    return alloc


def decomposition_to_obj(dec: TriDecomposition) -> dict:
    return {
        "xc": allocation_to_obj(dec.xc),
        "x0": allocation_to_obj(dec.x0),
        "xm1": allocation_to_obj(dec.xm1),
    }


def report_to_obj(report: SolveReport) -> dict:
    return {
        "allocation": allocation_to_obj(report.allocation),
        "utilities": list(report.utilities),
        "sorted_utilities": list(report.sorted_utilities),
        "usw": report.usw,
        "augmentations": {
            "pareto": report.pareto_augmentations,
            "exchange": report.exchange_augmentations,
        },
        "decomposition": decomposition_to_obj(report.decomposition),
    }


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}", exc.msg) from exc


def serialize_instance(inst: Instance) -> str:
    return dumps(instance_to_obj(inst))


def parse_instance(text: str) -> Instance:
    return instance_from_obj(loads(text))


def serialize_allocation(allocation: Allocation) -> str:
    return dumps(allocation_to_obj(allocation))


def parse_allocation(text: str, num_items: int | None = None) -> Allocation:
    return allocation_from_obj(loads(text), num_items)
