"""Valuation families, their value/marginal oracles, and structural validators.

Every family answers ``value(bundle)``, ``marginal(bundle, item)`` and its
batched form ``marginals(bundle, items)``, which checks the bundle once for
a whole list of items.  Both marginal forms raise ``ContractViolation`` for
an item already in the bundle.

Three families are first-class citizens of the solver:

* ``Additive`` -- one integer per item, each in ``{-1, 0, c}``.  It is a
  ``GeneralAdditive`` and shares its body; ``validate_structure`` checks
  the restriction on its values;
* ``CappedGroups`` -- a sum of per-group concave terms
  ``hi * min(|S ∩ C|, cap) + lo * max(|S ∩ C| - cap, 0)`` plus a default
  per-item marginal for ungrouped items.  Order-neutral submodular by
  construction, and expressive enough for every closed-form fixture;
* ``Explicit`` -- a full table over all ``2^m`` subsets (``m <= 20``),
  admitted to the solver only after passing the three validators below.

``GeneralAdditive`` (arbitrary integer item values) is parseable and usable
by the brute-force oracles and the hardness generator, but the solver
rejects it: the unrestricted problem is intractable.

``telescoping_gains`` walks a bundle's prefixes: the marginal of each item
on the items before it.  ``telescoping_vector`` sorts those gains, and
``threshold`` counts and splits bundles by them.  Every family also counts
a set's gains at least ``tau``, ``count_at_least(tau, items)``: the additive
families and ``CappedGroups`` in closed form, ``Explicit`` along one running
mask.

Each solver family also declares its *bundle-independent* items at a
threshold: ``bundle_independent(items, tau)`` returns those items ``o`` of
``items`` whose marginal stays on one side of ``tau`` on every bundle
without ``o``, so that Δ(B, o) >= tau exactly when Δ(∅, o) >= tau.  The
exchange graph passes its threshold (0 in phase 1, c in phase 2) and never
asks the valuation about such an item again (see ``exchange``).  A
declaration may leave such items out, never put others in:

* ``Additive`` declares every item at every threshold: its marginals are
  its item values;
* ``CappedGroups`` declares its ungrouped items, whose marginal is always
  ``default``, and the items of every group whose marginal cannot cross
  ``tau``: a group with cap 0 (always ``lo``), one with cap at least its
  size (always ``hi``), and one with ``hi`` and ``lo`` on the same side of
  ``tau``;
* ``Explicit`` declares none, since finding them would take a pass over
  the whole table.
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
class GeneralAdditive:
    """Additive valuation with unrestricted integer item values."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "_at_least", {})  # see ``count_at_least``

    def value(self, items: Iterable[int]) -> int:
        return sum(self.values[o] for o in items)

    def marginal(self, items: Iterable[int], item: int) -> int:
        return self.marginals(items, (item,))[0]

    def marginals(self, items: Iterable[int], candidates: Sequence[int]) -> list[int]:
        """The marginal of each of ``candidates`` on the bundle ``items``."""
        _outside(items, candidates)
        values = self.values
        return [values[o] for o in candidates]

    def bundle_independent(self, items: Iterable[int], tau: int) -> frozenset[int]:
        """Every item of ``items``: each marginal is the item's value."""
        return frozenset(items)

    def count_at_least(self, tau: int, items: Iterable[int]) -> int:
        """Number of the distinct ``items`` whose value is at least ``tau``:
        the telescoping-vector count of ``threshold.beta``, whatever the
        order.  The items valued at least ``tau`` are kept with the
        valuation outside its fields, one set per threshold."""
        chosen = self._at_least.get(tau)
        if chosen is None:
            chosen = frozenset(o for o, v in enumerate(self.values) if v >= tau)
            self._at_least[tau] = chosen
        return len(chosen.intersection(items))


class Additive(GeneralAdditive):
    """Additive valuation with per-item values restricted to ``{-1, 0, c}``."""


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
        return self.marginals(items, (item,))[0]

    def marginals(self, items: Iterable[int], candidates: Sequence[int]) -> list[int]:
        """The marginal of each of ``candidates`` on the bundle ``items``,
        checking the bundle once."""
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

    def bundle_independent(self, items: Iterable[int], tau: int) -> frozenset[int]:
        """The items of ``items`` outside every group whose marginal can
        cross ``tau``: an ungrouped item's is always ``default``, and a
        grouped item's is always ``lo`` when its cap is 0, always ``hi``
        when its cap is at least the group's size (a bundle without the
        item holds fewer of the group), and otherwise ``hi`` or ``lo``,
        which cross ``tau`` only when ``lo < tau <= hi``."""
        crossing = [
            g.items for g in self.groups if 0 < g.cap < len(g.items) and g.lo < tau <= g.hi
        ]
        return frozenset(items).difference(*crossing)

    def count_at_least(self, tau: int, items: Iterable[int]) -> int:
        """Number of telescoping gains of the distinct ``items`` that are at
        least ``tau``, whatever the order: a group's first ``cap`` items
        gain ``hi`` and the rest ``lo``, and an ungrouped item ``default``."""
        if not isinstance(items, (set, frozenset)):
            items = frozenset(items)
        count = grouped = 0
        for g in self.groups:
            k = len(items & g.items)
            grouped += k
            count += (g.hi >= tau) * min(k, g.cap) + (g.lo >= tau) * max(k - g.cap, 0)
        return count + (self.default >= tau) * (len(items) - grouped)


@dataclass(frozen=True)
class Explicit:
    """Complete value table over all subsets, indexed by item bitmask."""

    num_items: int
    table: tuple[int, ...]

    def __post_init__(self):
        table = tuple(self.table)
        _require_ints(table, "table value")
        object.__setattr__(self, "table", table)
        _require_ints((self.num_items,), "item count")
        if self.num_items < 0:
            raise MalformedValuation(f"negative item count {self.num_items}")
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
        return self.marginals(items, (item,))[0]

    def marginals(self, items: Iterable[int], candidates: Sequence[int]) -> list[int]:
        """The marginal of each of ``candidates`` on the bundle ``items``,
        building the bundle's mask once."""
        m = mask_of(items)
        if m & mask_of(candidates):
            item = next(o for o in candidates if m >> o & 1)
            raise ContractViolation(f"item {item} already in bundle")
        table = self.table
        base = table[m]
        return [table[m | 1 << o] - base for o in candidates]

    def bundle_independent(self, items: Iterable[int], tau: int) -> frozenset[int]:
        """None of ``items``: the table is not searched for them."""
        return frozenset()

    def count_at_least(self, tau: int, items: Iterable[int]) -> int:
        """Number of telescoping gains of the distinct ``items`` that are at
        least ``tau``, along their ascending order: one mask grows by each
        item in turn."""
        table, mask, count = self.table, 0, 0
        for o in sorted(items):
            grown = mask | 1 << o
            count += table[grown] - table[mask] >= tau
            mask = grown
        return count

    @cached_property
    def _lanes(self) -> "_Lanes":
        """The table packed into lanes, built at first use and kept with the
        spec, so that the three validators pack each table once."""
        return _Lanes(self)


ValuationSpec = Union[Additive, GeneralAdditive, CappedGroups, Explicit]

IN_SCOPE_KINDS = (Additive, CappedGroups, Explicit)


def _require_ints(values: Sequence, what: str) -> None:
    """Raise ``MalformedValuation`` unless every one of ``values`` is of
    type ``int``."""
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise MalformedValuation(f"{what} {bad!r} is not an integer")


def validate_structure(spec: ValuationSpec, num_items: int, c: int) -> None:
    """Cheap structural checks run on instance construction.  Every value,
    cap and table entry must be of type ``int``.

    Deep semantic validation of explicit tables (submodularity, order
    neutrality, marginal range) is a separate, solver-gating step.
    """
    if isinstance(spec, (Additive, GeneralAdditive)):
        if len(spec.values) != num_items:
            raise MalformedValuation(
                f"expected {num_items} item values, got {len(spec.values)}"
            )
        _require_ints(spec.values, "additive value")
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
            _require_ints((g.cap, g.hi, g.lo), f"group {gi}: cap, hi or lo")
            if g.cap < 0:
                raise MalformedValuation(f"group {gi}: negative cap")
            if g.hi not in (-1, 0, c):
                raise MalformedValuation(f"group {gi}: hi={g.hi} outside {{-1, 0, {c}}}")
            if g.lo not in (-1, 0):
                raise MalformedValuation(f"group {gi}: lo={g.lo} outside {{-1, 0}}")
            if g.lo > g.hi:
                raise MalformedValuation(f"group {gi}: lo={g.lo} exceeds hi={g.hi}")
        _require_ints((spec.default,), "default")
        if spec.default not in (-1, 0, c):
            raise MalformedValuation(f"default={spec.default} outside {{-1, 0, {c}}}")
    elif isinstance(spec, Explicit):
        if spec.num_items != num_items:
            raise MalformedValuation(
                f"table covers {spec.num_items} items, instance has {num_items}"
            )
    else:
        raise MalformedValuation(f"unknown valuation kind {type(spec).__name__}")


def telescoping_gains(spec: ValuationSpec, order: Iterable[int]) -> list[int]:
    """The marginal of each item of ``order`` on the items before it.  The
    valuation's ``marginal`` raises ``ContractViolation`` for a repeated
    item.

    >>> telescoping_gains(CappedGroups((Group({0, 1}, 1, 2, 0),), -1), [1, 0, 2])
    [2, 0, -1]
    """
    gains = []
    prefix: set[int] = set()
    for o in order:
        gains.append(spec.marginal(prefix, o))
        prefix.add(o)
    return gains


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
    return tuple(sorted(telescoping_gains(spec, order)))


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


def _sums_decide(spec: Explicit) -> bool:
    """Whether no two distinct pairs of the values Δ(S, o) share a sum.

    The values are found item by item: the lanes ``S ∌ o`` of ``delta[o]``
    that differ from every value found so far hold a new one, read from the
    lowest of them.  A fourth value ends the search with False."""
    lanes, table = spec._lanes, spec.table
    found: dict[int, int] = {}  # value -> that value in every lane
    for o, delta in enumerate(lanes.delta):
        rest = lanes.free[o]
        for value in found.values():
            rest &= lanes.ne(delta, value)
        while rest:
            if len(found) == 3:
                return False
            s = lanes.lowest(rest)
            d = table[s | 1 << o] - table[s]
            found[d] = value = lanes.ones * (lanes.bias + d)
            rest &= lanes.ne(delta, value)
    if len(found) < 3:
        return True
    a, b, c = sorted(found)
    return b - a != c - b


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

    The set D of values the marginals take often decides every square
    first.  A square's two pairs are drawn from D and share their sum, so
    they are equal whenever no two distinct pairs from D share a sum.  That
    holds when |D| <= 2, and when D = {a < b < c} unless b − a = c − b: of
    the sums 2a < a+b < 2b, a+c < b+c < 2c only 2b and a+c can meet.  So a
    dichotomous table ({0, 1}: a matroid rank) passes at once, and so does
    a {−1, 0, c} table for c >= 2, or for c = 1 unless −1, 0 and 1 all
    occur.  Finding D takes a few lane tests per item, stopping at a fourth
    value.  Any other table, every failing one among them, takes the pair
    pass, which finds the witness.
    """
    spec = _require_explicit(spec)
    if _sums_decide(spec):
        return CheckResult(True)
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
