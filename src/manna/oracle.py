"""Brute-force reference implementations.

Everything here enumerates all ``n^m`` complete allocations in a fixed
canonical order (items assigned in index order, agent digits little-endian)
and reduces.  No pruning, no cleverness: these are the ground truth the
solver and the fairness checkers are certified against, so they must stay
obviously correct.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .core import GREATER, LESS, Allocation, Instance, lex_compare, utility_vector
from .errors import BudgetExceeded, ContractViolation
from .threshold import TriDecomposition

DEFAULT_BUDGET = 10**8


def enumeration_count(inst: Instance) -> int:
    return inst.num_agents**inst.num_items


def ensure_budget(inst: Instance, budget: Optional[int] = None) -> int:
    limit = DEFAULT_BUDGET if budget is None else budget
    total = enumeration_count(inst)
    if total > limit:
        raise BudgetExceeded(
            f"instance needs {total} enumerations, budget allows {limit}"
        )
    return total


def _complete_bundles(inst: Instance) -> Iterator[list[set[int]]]:
    """All complete allocations as per-agent bundle lists, canonical order."""
    n, m = inst.num_agents, inst.num_items
    for counter in range(n**m):
        bundles: list[set[int]] = [set() for _ in range(n)]
        t = counter
        for item in range(m):
            bundles[t % n].add(item)
            t //= n
        yield bundles


def complete_utilities(inst: Instance, budget: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Utility vectors of every complete allocation, canonical order."""
    ensure_budget(inst, budget)
    for bundles in _complete_bundles(inst):
        yield tuple(inst.value(i, bundles[i - 1]) for i in inst.agents)


def brute_leximin(
    inst: Instance, budget: Optional[int] = None
) -> tuple[tuple[int, ...], Allocation]:
    """Lexicographically greatest sorted utility vector over all complete
    allocations, plus the first witness in enumeration order."""
    ensure_budget(inst, budget)
    best: Optional[tuple[int, ...]] = None
    witness: Optional[list[set[int]]] = None
    for bundles in _complete_bundles(inst):
        s = tuple(sorted(inst.value(i, bundles[i - 1]) for i in inst.agents))
        if best is None or s > best:
            best = s
            witness = bundles
    assert best is not None and witness is not None
    return best, Allocation.from_bundles(witness, inst.num_items)


def brute_max_usw(inst: Instance, budget: Optional[int] = None) -> int:
    """Maximum utilitarian social welfare over all complete allocations."""
    return max(sum(u) for u in complete_utilities(inst, budget))


def brute_mms(inst: Instance, agent: int, budget: Optional[int] = None) -> int:
    """The agent's maxmin share: the best worst bundle over all ways they
    could split the items into n parts themselves.  ``agent`` must be one
    of 1..n."""
    n = inst.num_agents
    if not 1 <= agent <= n:
        raise ContractViolation(f"agent {agent} is not among the agents 1..{n}")
    ensure_budget(inst, budget)
    best = None
    for bundles in _complete_bundles(inst):
        worst = min(inst.value(agent, b) for b in bundles)
        if best is None or worst > best:
            best = worst
    assert best is not None
    return best


def brute_lorenz_dominating(
    inst: Instance, allocation: Allocation, budget: Optional[int] = None
) -> bool:
    """True iff the allocation's sorted-utility prefix sums weakly dominate
    those of every complete allocation.  The allocation must be complete and
    fit the instance."""
    if not allocation.is_complete:
        raise ContractViolation("Lorenz dominance is checked over complete allocations")
    mine = sorted(utility_vector(inst, allocation))
    prefixes = []
    acc = 0
    for v in mine:
        acc += v
        prefixes.append(acc)
    for utilities in complete_utilities(inst, budget):
        acc = 0
        for k, v in enumerate(sorted(utilities)):
            acc += v
            if prefixes[k] < acc:
                return False
    return True


def _domination_key(inst: Instance, dec: TriDecomposition, utilities: tuple[int, ...]):
    cpart = tuple(inst.value(i, dec.xc.bundle(i)) for i in inst.agents)
    return (tuple(sorted(cpart)), cpart, tuple(utilities))


def compare_domination(
    inst: Instance,
    dec_a: TriDecomposition,
    utilities_a: tuple[int, ...],
    dec_b: TriDecomposition,
    utilities_b: tuple[int, ...],
) -> int:
    """Three-way domination comparison between decomposed allocations.

    Applies, in order: lexicographic comparison of the sorted c-part utility
    vectors, of the unsorted c-part utility vectors, and of the full utility
    vectors.  Returns 1 / -1 / 0 as the first side dominates / is dominated /
    neither.
    """
    ka = _domination_key(inst, dec_a, utilities_a)
    kb = _domination_key(inst, dec_b, utilities_b)
    for a, b in zip(ka, kb):
        cmp = lex_compare(a, b)
        if cmp != 0:
            return GREATER if cmp > 0 else LESS
    return 0
