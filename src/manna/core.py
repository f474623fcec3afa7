"""Core data model: instances, allocations, utility vectors and their comparators.

Conventions used throughout the package:

* items are integers ``0 .. m-1``; ascending item index is the canonical
  order for every deterministic tie-break;
* agents are integers ``1 .. n``; index ``0`` denotes the unallocated pool;
  lower agent index wins ties unless an operation states otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ContractViolation, InvalidInstance
from .valuations import ValuationSpec, validate_structure

LESS = -1
EQUAL = 0
GREATER = 1


def lex_compare(a: Sequence[int], b: Sequence[int]) -> int:
    """Three-way lexicographic comparison of two equal-length vectors.

    Returns ``1`` if ``a`` dominates ``b`` (first differing entry is larger),
    ``-1`` for the opposite, ``0`` if the vectors are identical.

    >>> lex_compare((1, 2, 3), (1, 2, 2))
    1
    >>> lex_compare((0, 0), (0, 0))
    0
    """
    if len(a) != len(b):
        raise ContractViolation(f"vector lengths differ: {len(a)} vs {len(b)}")
    for x, y in zip(a, b):
        if x > y:
            return GREATER
        if x < y:
            return LESS
    return EQUAL


def pareto_dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff ``a`` is weakly larger everywhere and strictly somewhere."""
    if len(a) != len(b):
        raise ContractViolation(f"vector lengths differ: {len(a)} vs {len(b)}")
    return all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))


@dataclass(frozen=True)
class Allocation:
    """An (n+1)-way partition of the items ``0 .. m-1``.

    ``bundles[i-1]`` is agent ``i``'s bundle; ``unallocated`` is the pool.
    The constructor enforces the disjoint-cover invariant in O(n + m).
    ``move`` keeps it by moving items between parts, checked in O(moves).
    """

    bundles: tuple[frozenset[int], ...]
    unallocated: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "bundles", tuple(frozenset(b) for b in self.bundles))
        object.__setattr__(self, "unallocated", frozenset(self.unallocated))
        total = sum(len(b) for b in self.bundles) + len(self.unallocated)
        union = frozenset().union(self.unallocated, *self.bundles)
        if len(union) != total:
            raise ContractViolation("allocation bundles are not pairwise disjoint")
        if union != frozenset(range(len(union))):
            raise ContractViolation("allocation does not cover a contiguous item range")

    @classmethod
    def empty(cls, num_agents: int, num_items: int) -> "Allocation":
        return cls(tuple(frozenset() for _ in range(num_agents)), frozenset(range(num_items)))

    @classmethod
    def from_bundles(cls, bundles: Sequence[Iterable[int]], num_items: int) -> "Allocation":
        """Build an allocation from per-agent bundles; the rest is unallocated."""
        bs = tuple(frozenset(b) for b in bundles)
        allocated = frozenset().union(*bs) if bs else frozenset()
        return cls(bs, frozenset(range(num_items)) - allocated)

    @property
    def num_agents(self) -> int:
        return len(self.bundles)

    @property
    def num_items(self) -> int:
        return sum(len(b) for b in self.bundles) + len(self.unallocated)

    def bundle(self, agent: int) -> frozenset[int]:
        """Bundle of ``agent`` (1-based); ``0`` returns the unallocated pool."""
        return self.unallocated if agent == 0 else self.bundles[agent - 1]

    def owner_of(self, item: int) -> int:
        """Agent holding ``item``, or ``0`` if it is in the pool; an item in
        no part raises ``ContractViolation``.  The pool is tested first."""
        if item in self.unallocated:
            return 0
        for i, b in enumerate(self.bundles, start=1):
            if item in b:
                return i
        raise ContractViolation(f"item {item} is in no part of the allocation")

    def move(self, moves: Sequence[tuple[int, int, int]]) -> "Allocation":
        """New allocation with each move ``(item, from, to)`` applied, where
        ``from`` and ``to`` are agents or 0, the pool.  Only the parts the
        moves touch are rebuilt; every other part is passed through as the
        same object.

        Checked in O(moves), where the constructor's check is O(n + m), and
        as strong: no item moves twice, and each lies in the part it leaves,
        the only part holding it, and enters another.  Items only change
        parts, so the result is again a disjoint cover of the same items.
        Raises ``ContractViolation`` otherwise.
        """
        parts = [self.unallocated, *self.bundles]  # indexed by agent
        moved = set()
        for item, source, dest in moves:
            if not (0 <= source < len(parts) and 0 <= dest < len(parts)):
                raise ContractViolation(f"item {item} moves between unknown parts")
            if item in moved:
                raise ContractViolation(f"item {item} moves twice")
            if item not in parts[source]:
                raise ContractViolation(f"item {item} is not in part {source}")
            if dest == source:  # the parts are disjoint: only this one holds it
                raise ContractViolation(f"a moved item is already in part {dest}")
            moved.add(item)
            parts[source] = parts[source].difference((item,))
            parts[dest] = parts[dest].union((item,))
        # the constructor would repeat the O(n + m) check just argued for
        derived = object.__new__(Allocation)
        object.__setattr__(derived, "bundles", tuple(parts[1:]))
        object.__setattr__(derived, "unallocated", parts[0])
        return derived

    @property
    def is_complete(self) -> bool:
        return not self.unallocated

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bundles)


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: ``n`` agents, ``m`` items, the constant ``c``
    and one valuation specification per agent."""

    num_agents: int
    num_items: int
    c: int
    valuations: tuple[ValuationSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "valuations", tuple(self.valuations))
        for name in ("num_agents", "num_items", "c"):
            if type(getattr(self, name)) is not int:
                raise InvalidInstance(f"{name} {getattr(self, name)!r} is not an integer")
        if self.num_agents < 1:
            raise InvalidInstance("need at least one agent")
        if self.num_items < 0:
            raise InvalidInstance("negative item count")
        if self.c < 1:
            raise InvalidInstance(f"c must be a positive integer, got {self.c}")
        if len(self.valuations) != self.num_agents:
            raise InvalidInstance(
                f"expected {self.num_agents} valuations, got {len(self.valuations)}"
            )
        for i, spec in enumerate(self.valuations, start=1):
            try:
                validate_structure(spec, self.num_items, self.c)
            except Exception as exc:
                raise InvalidInstance(f"agent {i}: {exc}") from exc

    def valuation(self, agent: int) -> ValuationSpec:
        return self.valuations[agent - 1]

    def value(self, agent: int, items: Iterable[int]) -> int:
        return self.valuations[agent - 1].value(items)

    def marginal(self, agent: int, items: Iterable[int], item: int) -> int:
        return self.valuations[agent - 1].marginal(items, item)

    @property
    def agents(self) -> range:
        return range(1, self.num_agents + 1)

    @property
    def items(self) -> range:
        return range(self.num_items)


def require_fit(inst: Instance, allocation: Allocation) -> None:
    """Raise ``ContractViolation`` unless ``allocation`` has ``inst``'s
    agent and item counts."""
    if allocation.num_agents != inst.num_agents or allocation.num_items != inst.num_items:
        raise ContractViolation("allocation shape does not match instance")


def utility_vector(inst: Instance, allocation: Allocation) -> tuple[int, ...]:
    """Per-agent utilities ``v_i(X_i)`` in agent order."""
    require_fit(inst, allocation)
    return tuple(inst.value(i, allocation.bundle(i)) for i in inst.agents)


def sorted_utilities(inst: Instance, allocation: Allocation) -> tuple[int, ...]:
    """Utility vector sorted ascending (the leximin comparison key)."""
    return tuple(sorted(utility_vector(inst, allocation)))
