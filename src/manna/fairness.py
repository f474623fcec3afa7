"""Fairness property checkers and welfare functionals.

All share comparisons are exact: proportionality is tested as
``n * v_i(bundle) >= v_i(O)`` in integers, never through division.  The
power-mean welfare is the single floating-point surface of the package and
is a reporting functional only.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .core import Allocation, Instance, require_fit
from .errors import ContractViolation


def _require_complete(inst: Instance, allocation: Allocation) -> None:
    """Raise ``ContractViolation`` unless ``allocation`` fits ``inst`` and
    allocates every item."""
    require_fit(inst, allocation)
    if not allocation.is_complete:
        raise ContractViolation("fairness checks apply to complete allocations")


def check_prop1(inst: Instance, allocation: Allocation) -> dict[int, bool]:
    """Proportionality up to one item, per agent.

    Agent i passes if their bundle -- possibly after adding one outside item
    or dropping one owned item -- is worth at least a 1/n share of the whole.
    """
    _require_complete(inst, allocation)
    n = inst.num_agents
    verdicts = {}
    for i in inst.agents:
        whole = inst.value(i, range(inst.num_items))
        bundle = allocation.bundle(i)
        ok = n * inst.value(i, bundle) >= whole
        if not ok:
            ok = any(
                n * inst.value(i, bundle | {o}) >= whole
                for o in inst.items
                if o not in bundle
            )
        if not ok:
            ok = any(n * inst.value(i, bundle - {o}) >= whole for o in bundle)
        verdicts[i] = ok
    return verdicts


def check_ef1(inst: Instance, allocation: Allocation) -> dict[tuple[int, int], bool]:
    """Envy-freeness up to one item, per ordered agent pair.

    Pair (i, j) passes if i does not envy j outright, or some single item
    o in either bundle can be dropped from both sides so that
    ``v_i(X_i - o) >= v_i(X_j - o)``.
    """
    _require_complete(inst, allocation)
    verdicts = {}
    for i in inst.agents:
        mine = allocation.bundle(i)
        for j in inst.agents:
            if i == j:
                continue
            theirs = allocation.bundle(j)
            ok = inst.value(i, mine) >= inst.value(i, theirs)
            if not ok:
                ok = any(
                    inst.value(i, mine - {o}) >= inst.value(i, theirs - {o})
                    for o in sorted(mine | theirs)
                )
            verdicts[(i, j)] = ok
    return verdicts


def check_mms(
    inst: Instance, allocation: Allocation, mms: Sequence[int]
) -> dict[int, bool]:
    """Per-agent test ``v_i(X_i) >= mms_i`` against caller-supplied shares,
    one per agent."""
    require_fit(inst, allocation)
    if len(mms) != inst.num_agents:
        raise ContractViolation(f"{len(mms)} shares for {inst.num_agents} agents")
    return {
        i: inst.value(i, allocation.bundle(i)) >= mms[i - 1] for i in inst.agents
    }


def lorenz_geq(s_a: Sequence[int], s_b: Sequence[int]) -> bool:
    """True iff every prefix sum of ``s_a`` is at least that of ``s_b``.

    >>> lorenz_geq((0, 2), (-1, 3))
    True
    >>> lorenz_geq((1, 1), (0, 3))
    False
    """
    if len(s_a) != len(s_b):
        raise ContractViolation(f"vector lengths differ: {len(s_a)} vs {len(s_b)}")
    acc_a = acc_b = 0
    for x, y in zip(s_a, s_b):
        acc_a += x
        acc_b += y
        if acc_a < acc_b:
            return False
    return True


def p_mean_welfare(utilities: Sequence[int], p: float) -> Optional[float]:
    """Power-mean welfare of a utility vector, for exponents p <= 1.

    Undefined (None) when any utility is negative.  For p <= 0 a zero
    utility collapses the welfare to 0 (the right-limit convention); p = 0
    is the geometric mean (Nash welfare); otherwise
    ``((1/n) * sum(u_i^p)) ** (1/p)``.
    """
    if p > 1:
        raise ContractViolation("power-mean welfare is defined for p <= 1")
    if any(u < 0 for u in utilities):
        return None
    n = len(utilities)
    if n == 0:
        raise ContractViolation("empty utility vector")
    if p <= 0 and any(u == 0 for u in utilities):
        return 0.0
    if p == 0:
        return math.exp(sum(math.log(u) for u in utilities) / n)
    return (sum(u**p for u in utilities) / n) ** (1.0 / p)
