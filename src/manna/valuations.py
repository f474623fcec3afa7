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
from functools import cached_property, lru_cache
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
        object.__setattr__(self, "table", tuple(map(int, self.table)))
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

    @cached_property
    def _lanes(self) -> "_Lanes":
        """The table packed into lanes, built at first use and kept with the
        spec, so that the three validators pack each table once."""
        return _Lanes(self)


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


_BELOW_64 = bytes(range(64))


@lru_cache(maxsize=2)
def _lane_patterns(m: int, w: int) -> tuple[int, tuple[int, ...]]:
    """For ``2^m`` lanes of ``w`` bytes: the integer with a 1 at the bottom
    of every lane, and for each item ``o`` the one with a 1 at the bottom of
    every lane ``S ∌ o``."""
    n = 1 << m
    lane = b"\x01" + bytes(w - 1)
    ones = int.from_bytes(lane * n, "little")
    free = tuple(
        int.from_bytes((lane * (1 << o) + bytes(w << o)) * (n >> (o + 1)), "little")
        for o in range(m)
    )
    return ones, free


class _Lanes:
    """An explicit table packed into one integer, one lane per subset.

    Lane ``S`` of the packed integer ``T`` (bits ``8w·S`` up to
    ``8w·(S+1)``) holds ``v(S) − low``.  With ``B = 2^k`` every packed value
    is below ``B``, and ``w`` is the fewest bytes holding ``k + 2`` bits.
    Any such ``k`` will do.  A table whose values all lie in ``[0, 64)``, the
    common case, packs as its own bytes with ``low = 0`` and ``k = 6``;
    any other takes ``low = min v`` and ``k = bitlen(max v − min v)``.  Then

        ``delta[o] = ((T >> 8w·2^o) | B̄) − T``

    holds ``Δ(S, o) + B`` in lane ``S`` for every ``S ∌ o``: the shift moves
    lane ``S + o`` down onto lane ``S``, and the OR adds ``B`` to a value
    below ``B``.  Every lane of ``delta[o]``, including those with ``o ∈ S``
    and those past the shifted table's end, lies in ``[1, 2B)``, so no
    subtraction borrows across a lane boundary.  (``X̄`` is ``X`` repeated
    in every lane.)

    Bit ``k + 1`` of each lane is its guard bit, above every lane value.
    ``ge(a, b) = ((a | Ḡ) − b) & Ḡ`` leaves the guard bit set in exactly the
    lanes where ``a ≥ b``: the guard absorbs a lane's borrow, so lanes stay
    independent.  ``ne(a, b)`` is ``ge(a ^ b, 1̄)``, the lanes that differ.
    ``free[o]`` holds the guard bits of the lanes ``S ∌ o``.

    Each test below is a handful of such operations on the whole table per
    item or item pair, so a validator makes at most ``m(m−1)/2`` passes of
    ``O(2^m·w)`` machine words, where the loops it replaces made
    ``O(2^m·m²)`` Python steps.
    """

    def __init__(self, spec: Explicit):
        table, m = spec.table, spec.num_items
        try:
            data = bytes(table)  # raises unless every value is in [0, 256)
            fits = not data.translate(None, _BELOW_64)
        except ValueError:
            fits = False
        if fits:
            k = 6
        else:
            low = min(table)
            k = (max(table) - low).bit_length()
        w = (k + 9) // 8  # k value bits, a carry bit and a guard bit
        if not fits:
            data = b"".join([(v - low).to_bytes(w, "little") for v in table])
        packed = int.from_bytes(data, "little")
        self.ones, free = _lane_patterns(m, w)
        self.bits = bits = 8 * w
        self.bias = 1 << k
        self.guards = self.ones << (k + 1)
        biased = self.ones << k
        self.delta = [((packed >> (bits << o)) | biased) - packed for o in range(m)]
        self.free = [lanes << (k + 1) for lanes in free]

    def ge(self, a: int, b: int) -> int:
        return ((a | self.guards) - b) & self.guards

    def ne(self, a: int, b: int) -> int:
        return self.ge(a ^ b, self.ones)

    def up(self, a: int, p: int) -> int:
        """``a`` with lane ``S + p`` moved onto lane ``S``."""
        return a >> (self.bits << p)

    def lowest(self, lanes: int) -> int:
        """The lowest lane whose guard bit is set in ``lanes``."""
        return ((lanes & -lanes).bit_length() - 1) // self.bits


def validate_range(spec: Explicit, c: int) -> CheckResult:
    """Check every marginal lies in ``{-1, 0, c}``; witness is ``(S, o, delta)``
    for the first failing ``(S, o)`` in mask-then-item order.

    One pass per item: lane ``S`` of ``delta[o]`` must equal ``B − 1``, ``B``
    or ``B + c``.  A target outside the lanes' range ``[0, 2B)`` cannot
    match and is left out.
    """
    spec = _require_explicit(spec)
    lanes = spec._lanes
    targets = [
        lanes.ones * (lanes.bias + d) for d in {-1, 0, c} if 0 <= lanes.bias + d < 2 * lanes.bias
    ]
    first = None
    for o, delta in enumerate(lanes.delta):
        bad = lanes.free[o]
        for target in targets:
            bad &= lanes.ne(delta, target)
        if bad:
            failure = (lanes.lowest(bad), o)
            first = failure if first is None else min(first, failure)
    if first is None:
        return CheckResult(True)
    mask, o = first
    delta = spec.table[mask | 1 << o] - spec.table[mask]
    return CheckResult(
        False,
        (items_of(mask), o, delta),
        f"marginal of item {o} on {sorted(items_of(mask))} is {delta}",
    )


def validate_submodular(spec: Explicit) -> CheckResult:
    """Check v(∅)=0 and decreasing marginals; witness is ``(S, T, o)``.

    The pairwise test Δ(S, o) >= Δ(S+p, o) over all S and distinct o, p
    is equivalent to the full nested-set condition.  Since
    Δ(S, o) − Δ(S+p, o) = Δ(S, p) − Δ(S+o, p), one order per pair o < p is
    enough: one pass compares lane S of ``delta[o]`` with lane S+p.  The
    witness is the first failure over S, then o, then p ≠ o; a pair that
    fails does so in both orders, so that is the least failing (S, o, p)
    with o < p.
    """
    spec = _require_explicit(spec)
    if spec.table[0] != 0:
        return CheckResult(False, (frozenset(),), "value of the empty set is nonzero")
    lanes = spec._lanes
    m = spec.num_items
    first = None
    for o in range(m):
        delta = lanes.delta[o]
        for p in range(o + 1, m):
            bad = lanes.free[o] & lanes.free[p] & ~lanes.ge(delta, lanes.up(delta, p))
            if bad:
                failure = (lanes.lowest(bad), o, p)
                first = failure if first is None else min(first, failure)
    if first is None:
        return CheckResult(True)
    mask, o, p = first
    bigger = mask | 1 << p
    table = spec.table
    delta_s = table[mask | 1 << o] - table[mask]
    delta_t = table[bigger | 1 << o] - table[bigger]
    return CheckResult(
        False,
        (items_of(mask), items_of(bigger), o),
        f"marginal of item {o} grows from {delta_s} to {delta_t}",
    )


def validate_order_neutral(spec: Explicit) -> CheckResult:
    """Check every bundle has a unique sorted telescoping vector; witness is
    ``(S, vec1, vec2)``, the first such bundle in mask order with its two
    least vectors.

    The local square test decides it.  For a bundle X, each insertion order
    gives a multiset of marginals, and any two orders differ by adjacent
    transpositions.  Swapping o and p after a prefix S replaces
    {Δ(S,o), Δ(S+o,p)} by {Δ(S,p), Δ(S+p,o)} and leaves every other
    marginal alone.  So X has one vector iff every square (S, o, p) with
    S+o+p ⊆ X keeps its pair; a square that changes its pair gives S+o+p,
    and so every bundle above it, two vectors.  The pairs have equal sums,
    v(S+o+p) − v(S), so the test is Δ(S,o) ∈ {Δ(S,p), Δ(S+p,o)}, two
    lane comparisons per pair o < p.  The first bundle with two vectors is
    then the least S+o+p over failing squares, which for one pair is given
    by its lowest failing lane S.  Its vectors are rebuilt from
    ``telescoping_vector`` of its parents, whose vectors are unique.
    """
    spec = _require_explicit(spec)
    lanes = spec._lanes
    m = spec.num_items
    first = None
    for o in range(m):
        delta = lanes.delta[o]
        for p in range(o + 1, m):
            bad = (
                lanes.free[o]
                & lanes.free[p]
                & lanes.ne(delta, lanes.delta[p])
                & lanes.ne(delta, lanes.up(delta, p))
            )
            if bad:
                bundle = lanes.lowest(bad) | 1 << o | 1 << p
                first = bundle if first is None else min(first, bundle)
    if first is None:
        return CheckResult(True)
    vecs = set()
    for o in items_of(first):
        parent = first ^ 1 << o
        gain = spec.table[first] - spec.table[parent]
        vecs.add(tuple(sorted(telescoping_vector(spec, items_of(parent)) + (gain,))))
    two = sorted(vecs)[:2]
    return CheckResult(
        False,
        (items_of(first), two[0], two[1]),
        f"bundle {sorted(items_of(first))} has telescoping vectors "
        f"{two[0]} and {two[1]}",
    )


def materialize(spec: ValuationSpec, num_items: int) -> Explicit:
    """Evaluate a closed-form valuation into an explicit table (small m only)."""
    if num_items > EXPLICIT_MAX_ITEMS:
        raise ContractViolation("refusing to materialize a table this large")
    table = tuple(spec.value(items_of(mask)) for mask in range(1 << num_items))
    return Explicit(num_items, table)


def is_solver_supported(spec: ValuationSpec) -> bool:
    return isinstance(spec, IN_SCOPE_KINDS)
