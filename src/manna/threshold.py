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
from .valuations import ValuationSpec


def beta(spec: ValuationSpec, tau: int, items: Iterable[int]) -> int:
    """Number of telescoping-vector entries of ``items`` that are >= ``tau``,
    computed along the canonical ascending insertion order."""
    count = 0
    prefix: set[int] = set()
    for o in sorted(items):
        if spec.marginal(prefix, o) >= tau:
            count += 1
        prefix.add(o)
    return count


def beta_marginal(spec: ValuationSpec, tau: int, items: Iterable[int], item: int) -> int:
    """Marginal of ``beta`` in {0, 1}: append ``item`` after the bundle and
    test its gain against the threshold.  The valuation's ``marginal``
    raises ``ContractViolation`` for an item already in the bundle."""
    return 1 if spec.marginal(items, item) >= tau else 0


@dataclass(frozen=True)
class ThresholdBeta:
    """Binary submodular oracle derived from a valuation and a threshold."""

    spec: ValuationSpec
    tau: int

    def value(self, items: Iterable[int]) -> int:
        return beta(self.spec, self.tau, items)

    def marginal(self, items: Iterable[int], item: int) -> int:
        return beta_marginal(self.spec, self.tau, items, item)


def is_clean(oracle, bundle: Iterable[int]) -> bool:
    bundle = frozenset(bundle)
    return oracle.value(bundle) == len(bundle)


def decompose_threshold(
    inst: Instance, allocation: Allocation, tau: int
) -> tuple[Allocation, Allocation]:
    """Split every bundle into a clean part (running marginal >= tau) and a
    supplementary part, walking items in canonical ascending order.

    Postcondition per agent i: the parts partition X_i and
    ``beta_i(X_i) = beta_i(clean_i) = |clean_i|``.
    """
    clean_bundles = []
    supp_bundles = []
    for i in inst.agents:
        spec = inst.valuation(i)
        clean: set[int] = set()
        supp: set[int] = set()
        prefix: set[int] = set()
        for o in sorted(allocation.bundle(i)):
            if spec.marginal(prefix, o) >= tau:
                clean.add(o)
            else:
                supp.add(o)
            prefix.add(o)
        clean_bundles.append(clean)
        supp_bundles.append(supp)
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
    xc_bundles = []
    x0_bundles = []
    for i in inst.agents:
        spec = inst.valuation(i)
        hi: set[int] = set()
        lo: set[int] = set()
        prefix: set[int] = set()
        for o in sorted(nonneg.bundle(i)):
            if spec.marginal(prefix, o) >= inst.c:
                hi.add(o)
            else:
                lo.add(o)
            prefix.add(o)
        xc_bundles.append(hi)
        x0_bundles.append(lo)
    m = inst.num_items
    dec = TriDecomposition(
        Allocation.from_bundles(xc_bundles, m),
        Allocation.from_bundles(x0_bundles, m),
        xm1,
    )
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
