"""Valuation families, their value/marginal oracles, and structural validators.

The solver's families answer ``marginal(bundle, item)`` and its batched form
``marginals(bundle, items)``, which checks the bundle once for a whole list
of items.  Both raise ``ContractViolation`` for an item already in the
bundle.

Three families are first-class citizens of the solver:

* ``Additive`` -- one integer per item, each in ``{-1, 0, c}``;
* ``CappedGroups`` -- a sum of per-group concave terms
  ``hi * min(|S ∩ C|, cap) + lo * max(|S ∩ C| - cap, 0)`` plus a default
  per-item marginal for ungrouped items.  Order-neutral submodular by
  construction, and expressive enough for every closed-form fixture;
* ``Explicit`` -- a full table over all ``2^m`` subsets (``m <= 20``),
  admitted to the solver only after passing the three validators below.

``GeneralAdditive`` (arbitrary integer item values) is parseable and usable
by the brute-force oracles and the hardness generator, but the solver
rejects it: the unrestricted problem is intractable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .errors import ContractViolation, MalformedValuation

EXPLICIT_MAX_ITEMS = 20


def mask_of(items: Iterable[int]) -> int:
    m = 0
    for o in items:
        m |= 1 << o
    return m


def items_of(mask: int) -> frozenset[int]:
    out = []
    o = 0
    while mask:
        if mask & 1:
            out.append(o)
        mask >>= 1
        o += 1
    return frozenset(out)


def _outside(items: Iterable[int], candidates: Sequence[int]) -> Union[set, frozenset]:
    """``items`` as a set, copied only when it is not one already, after
    checking that no candidate lies in it."""
    if not isinstance(items, (set, frozenset)):
        items = frozenset(items)
    if not items.isdisjoint(candidates):
        item = next(o for o in candidates if o in items)
        raise ContractViolation(f"item {item} already in bundle")
    return items


@dataclass(frozen=True)
class Additive:
    """Additive valuation with per-item values restricted to ``{-1, 0, c}``."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))

    def value(self, items: Iterable[int]) -> int:
        return sum(self.values[o] for o in items)

    def marginal(self, items: Iterable[int], item: int) -> int:
        if item in items:
            raise ContractViolation(f"item {item} already in bundle")
        return self.values[item]

    def marginals(self, items: Iterable[int], candidates: Sequence[int]) -> list[int]:
        """``[self.marginal(items, o) for o in candidates]``."""
        _outside(items, candidates)
        values = self.values
        return [values[o] for o in candidates]


@dataclass(frozen=True)
class GeneralAdditive:
    """Additive valuation with unrestricted integer item values (oracles only)."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))

    def value(self, items: Iterable[int]) -> int:
        return sum(self.values[o] for o in items)

    def marginal(self, items: Iterable[int], item: int) -> int:
        if item in items:
            raise ContractViolation(f"item {item} already in bundle")
        return self.values[item]


@dataclass(frozen=True)
class Group:
    items: frozenset[int]
    cap: int
    hi: int
    lo: int

    def __post_init__(self):
        object.__setattr__(self, "items", frozenset(self.items))


@dataclass(frozen=True)
class CappedGroups:
    """Sum of concave per-group terms plus a flat default for ungrouped items.

    The marginal of an item in group ``g`` is ``hi_g`` while the bundle holds
    fewer than ``cap_g`` items of the group and ``lo_g`` afterwards; ungrouped
    items always contribute ``default``.  Marginals depend only on within-group
    counts, which makes every member of this family order-neutral.
    """

    groups: tuple[Group, ...]
    default: int

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        group_of = {}
        for gi, g in enumerate(self.groups):
            for o in g.items:
                if o in group_of:
                    raise MalformedValuation(f"item {o} appears in two groups")
                group_of[o] = gi
        object.__setattr__(self, "_group_of", group_of)

    def value(self, items: Iterable[int]) -> int:
        if not isinstance(items, (set, frozenset)):
            items = frozenset(items)
        total = 0
        grouped = 0
        for g in self.groups:
            k = len(items & g.items)
            grouped += k
            total += g.hi * min(k, g.cap) + g.lo * max(k - g.cap, 0)
        return total + self.default * (len(items) - grouped)

    def marginal(self, items: Iterable[int], item: int) -> int:
        if not isinstance(items, (set, frozenset)):
            items = frozenset(items)
        if item in items:
            raise ContractViolation(f"item {item} already in bundle")
        gi = self._group_of.get(item)
        if gi is None:
            return self.default
        g = self.groups[gi]
        return g.hi if len(items & g.items) < g.cap else g.lo

    def marginals(self, items: Iterable[int], candidates: Sequence[int]) -> list[int]:
        """``[self.marginal(items, o) for o in candidates]``, checking the
        bundle once."""
        items = _outside(items, candidates)
        group_of, groups, default = self._group_of, self.groups, self.default
        out = []
        for o in candidates:
            gi = group_of.get(o)
            if gi is None:
                out.append(default)
            else:
                g = groups[gi]
                out.append(g.hi if len(items & g.items) < g.cap else g.lo)
        return out


@dataclass(frozen=True)
class Explicit:
    """Complete value table over all subsets, indexed by item bitmask."""

    num_items: int
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(int(v) for v in self.table))
        if self.num_items > EXPLICIT_MAX_ITEMS:
            raise MalformedValuation(
                f"explicit tables support at most {EXPLICIT_MAX_ITEMS} items"
            )
        if len(self.table) != 1 << self.num_items:
            raise MalformedValuation(
                f"table has {len(self.table)} entries, expected {1 << self.num_items}"
            )

    def value(self, items: Iterable[int]) -> int:
        return self.table[mask_of(items)]

    def marginal(self, items: Iterable[int], item: int) -> int:
        m = mask_of(items)
        bit = 1 << item
        if m & bit:
            raise ContractViolation(f"item {item} already in bundle")
        return self.table[m | bit] - self.table[m]

    def marginals(self, items: Iterable[int], candidates: Sequence[int]) -> list[int]:
        """``[self.marginal(items, o) for o in candidates]``, building the
        bundle's mask once."""
        m = mask_of(items)
        if m & mask_of(candidates):
            item = next(o for o in candidates if m >> o & 1)
            raise ContractViolation(f"item {item} already in bundle")
        table = self.table
        base = table[m]
        return [table[m | 1 << o] - base for o in candidates]


ValuationSpec = Union[Additive, GeneralAdditive, CappedGroups, Explicit]

IN_SCOPE_KINDS = (Additive, CappedGroups, Explicit)


def validate_structure(spec: ValuationSpec, num_items: int, c: int) -> None:
    """Cheap structural checks run on instance construction.

    Deep semantic validation of explicit tables (submodularity, order
    neutrality, marginal range) is a separate, solver-gating step.
    """
    if isinstance(spec, (Additive, GeneralAdditive)):
        if len(spec.values) != num_items:
            raise MalformedValuation(
                f"expected {num_items} item values, got {len(spec.values)}"
            )
        if isinstance(spec, Additive):
            allowed = {-1, 0, c}
            for o, v in enumerate(spec.values):
                if v not in allowed:
                    raise MalformedValuation(
                        f"item {o}: additive value {v} outside {{-1, 0, {c}}}"
                    )
    elif isinstance(spec, CappedGroups):
        for gi, g in enumerate(spec.groups):
            if any(o < 0 or o >= num_items for o in g.items):
                raise MalformedValuation(f"group {gi} references an unknown item")
            if g.cap < 0:
                raise MalformedValuation(f"group {gi}: negative cap")
            if g.hi not in (-1, 0, c):
                raise MalformedValuation(f"group {gi}: hi={g.hi} outside {{-1, 0, {c}}}")
            if g.lo not in (-1, 0):
                raise MalformedValuation(f"group {gi}: lo={g.lo} outside {{-1, 0}}")
            if g.lo > g.hi:
                raise MalformedValuation(f"group {gi}: lo={g.lo} exceeds hi={g.hi}")
        if spec.default not in (-1, 0, c):
            raise MalformedValuation(f"default={spec.default} outside {{-1, 0, {c}}}")
    elif isinstance(spec, Explicit):
        if spec.num_items != num_items:
            raise MalformedValuation(
                f"table covers {spec.num_items} items, instance has {num_items}"
            )
    else:
        raise MalformedValuation(f"unknown valuation kind {type(spec).__name__}")


def telescoping_vector(
    spec: ValuationSpec,
    items: Iterable[int],
    order: Optional[Sequence[int]] = None,
) -> tuple[int, ...]:
    """Marginal gains of inserting ``items`` one by one, sorted ascending.

    ``order`` defaults to ascending item index (the canonical insertion
    order).  For order-neutral valuations the result does not depend on it.

    >>> telescoping_vector(Additive((2, 0, -1)), {0, 1, 2})
    (-1, 0, 2)
    """
    items = frozenset(items)
    if order is None:
        order = sorted(items)
    else:
        order = list(order)
        if len(order) != len(items) or frozenset(order) != items:
            raise ContractViolation("order is not a permutation of the bundle")
    gains = []
    prefix: set[int] = set()
    for o in order:
        gains.append(spec.marginal(prefix, o))
        prefix.add(o)
    return tuple(sorted(gains))


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a validator: ``ok`` plus a structured witness on failure."""

    ok: bool
    witness: Optional[tuple] = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _require_explicit(spec) -> Explicit:
    if not isinstance(spec, Explicit):
        raise ContractViolation("validator requires an explicit table")
    return spec


def validate_range(spec: Explicit, c: int) -> CheckResult:
    """Check every marginal lies in ``{-1, 0, c}``; witness is ``(S, o, delta)``."""
    spec = _require_explicit(spec)
    m = spec.num_items
    allowed = {-1, 0, c}
    for mask in range(1 << m):
        for o in range(m):
            bit = 1 << o
            if mask & bit:
                continue
            delta = spec.table[mask | bit] - spec.table[mask]
            if delta not in allowed:
                return CheckResult(
                    False,
                    (items_of(mask), o, delta),
                    f"marginal of item {o} on {sorted(items_of(mask))} is {delta}",
                )
    return CheckResult(True)


def validate_submodular(spec: Explicit) -> CheckResult:
    """Check v(∅)=0 and decreasing marginals; witness is ``(S, T, o)``.

    The pairwise test Δ(S, o) >= Δ(S+o', o) over all S and distinct o, o'
    is equivalent to the full nested-set condition.
    """
    spec = _require_explicit(spec)
    if spec.table[0] != 0:
        return CheckResult(False, (frozenset(),), "value of the empty set is nonzero")
    m = spec.num_items
    for mask in range(1 << m):
        for o in range(m):
            bit_o = 1 << o
            if mask & bit_o:
                continue
            delta_s = spec.table[mask | bit_o] - spec.table[mask]
            for op in range(m):
                bit_p = 1 << op
                if op == o or mask & bit_p:
                    continue
                bigger = mask | bit_p
                delta_t = spec.table[bigger | bit_o] - spec.table[bigger]
                if delta_s < delta_t:
                    return CheckResult(
                        False,
                        (items_of(mask), items_of(bigger), o),
                        f"marginal of item {o} grows from {delta_s} to {delta_t}",
                    )
    return CheckResult(True)


def validate_order_neutral(spec: Explicit) -> CheckResult:
    """Check every bundle has a unique sorted telescoping vector.

    Dynamic program over subsets: the reachable sorted-gain multisets of S
    are the multisets of S-o extended by Δ(S-o, o).  Pruned at the first
    bundle with two distinct vectors; witness is ``(S, vec1, vec2)``.
    """
    spec = _require_explicit(spec)
    m = spec.num_items
    reachable: list[Optional[frozenset[tuple[int, ...]]]] = [None] * (1 << m)
    reachable[0] = frozenset({()})
    for mask in range(1, 1 << m):
        vecs = set()
        for o in range(m):
            bit = 1 << o
            if not mask & bit:
                continue
            parent = mask ^ bit
            delta = spec.table[mask] - spec.table[parent]
            for vec in reachable[parent]:
                vecs.add(tuple(sorted(vec + (delta,))))
        if len(vecs) > 1:
            two = sorted(vecs)[:2]
            return CheckResult(
                False,
                (items_of(mask), two[0], two[1]),
                f"bundle {sorted(items_of(mask))} has telescoping vectors "
                f"{two[0]} and {two[1]}",
            )
        reachable[mask] = frozenset(vecs)
    return CheckResult(True)


def materialize(spec: ValuationSpec, num_items: int) -> Explicit:
    """Evaluate a closed-form valuation into an explicit table (small m only)."""
    if num_items > EXPLICIT_MAX_ITEMS:
        raise ContractViolation("refusing to materialize a table this large")
    table = tuple(spec.value(items_of(mask)) for mask in range(1 << num_items))
    return Explicit(num_items, table)


def is_solver_supported(spec: ValuationSpec) -> bool:
    return isinstance(spec, IN_SCOPE_KINDS)
