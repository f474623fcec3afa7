"""Threshold counting functions and bundle decompositions.

For a valuation ``v`` and threshold ``tau``, the function ``beta`` counts the
entries of the sorted telescoping vector that are at least ``tau``.  For
order-neutral submodular valuations this count is well defined (independent
of insertion order) and is itself a binary submodular function, which is what
lets the exchange-graph machinery drive the solver.  The solver only ever
uses ``tau = 0`` and ``tau = c``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import Allocation, Instance
from .errors import DecompositionFailure
from .valuations import ValuationSpec, telescoping_gains


def beta(spec: ValuationSpec, tau: int, items: Iterable[int]) -> int:
    """Number of telescoping-vector entries of ``items`` that are >= ``tau``,
    computed along the canonical ascending insertion order.

    For a set of items, the form every solver caller passes, the spec
    counts them with ``count_at_least(tau, items)``.  Items in another form
    take ``telescoping_gains`` along the sorted items, the reference walk,
    which raises ``ContractViolation`` for a repeated item; a set cannot
    hold one.
    """
    if isinstance(items, (set, frozenset)):
        return spec.count_at_least(tau, items)
    return sum(1 for gain in telescoping_gains(spec, sorted(items)) if gain >= tau)


def decompose_threshold(
    inst: Instance, allocation: Allocation, tau: int
) -> tuple[Allocation, Allocation]:
    """Split every bundle into a clean part (running marginal >= tau) and a
    supplementary part, by the telescoping gains along the canonical
    ascending order.

    Postcondition per agent i: the parts partition X_i and
    ``beta_i(X_i) = beta_i(clean_i) = |clean_i|``.
    """
    clean_bundles = []
    supp_bundles = []
    for i in inst.agents:
        order = sorted(allocation.bundle(i))
        gains = telescoping_gains(inst.valuation(i), order)
        clean_bundles.append({o for o, gain in zip(order, gains) if gain >= tau})
        supp_bundles.append({o for o, gain in zip(order, gains) if gain < tau})
    m = inst.num_items
    return (
        Allocation.from_bundles(clean_bundles, m),
        Allocation.from_bundles(supp_bundles, m),
    )


@dataclass(frozen=True)
class TriDecomposition:
    """Per-agent split of bundles into c-valued, 0-valued and (-1)-valued parts."""

    xc: Allocation
    x0: Allocation
    xm1: Allocation


def decompose3(inst: Instance, allocation: Allocation) -> TriDecomposition:
    """Three-way decomposition: first split off the negative-marginal items at
    threshold 0, then split the remainder at threshold c."""
    nonneg, xm1 = decompose_threshold(inst, allocation, 0)
    xc, x0 = decompose_threshold(inst, nonneg, inst.c)
    dec = TriDecomposition(xc, x0, xm1)
    ok, clause = verify_tridecomposition(inst, allocation, dec)
    if not ok:
        raise DecompositionFailure(clause)
    return dec


def verify_tridecomposition(
    inst: Instance, allocation: Allocation, dec: TriDecomposition
) -> tuple[bool, str | None]:
    """Check the four decomposition clauses exactly; returns the verdict and
    the first failing clause name (``None`` when all hold)."""
    c = inst.c
    for i in inst.agents:
        xc_i = dec.xc.bundle(i)
        x0_i = dec.x0.bundle(i)
        xm1_i = dec.xm1.bundle(i)
        if xc_i | x0_i | xm1_i != allocation.bundle(i):
            return False, "a"
        if len(xc_i) + len(x0_i) + len(xm1_i) != len(allocation.bundle(i)):
            return False, "b"
        if not (inst.value(i, xc_i | x0_i) == inst.value(i, xc_i) == c * len(xc_i)):
            return False, "c"
        if inst.value(i, allocation.bundle(i)) != c * len(xc_i) - len(xm1_i):
            return False, "d"
    return True, None
