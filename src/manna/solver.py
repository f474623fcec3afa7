"""Three-phase leximin solver for {-1, 0, c} order-neutral submodular instances.

Phase 1 seeds the state: the zero-threshold oracles are handed to the
binary-swap subroutine, which allocates every item that can contribute a
non-negative marginal somewhere.  Phase 2 turns the c-counted part into a
leximin allocation by augmenting along minimum-weight Pareto-improving and
exchange paths.  Phase 3 distributes the leftover universally-negative items
to the currently happiest agents.  The final utility vector, sorted
ascending, is lexicographically maximal among all complete allocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .core import Allocation, Instance, sorted_utilities, utility_vector
from .errors import (
    CleannessViolation,
    InvalidInstance,
    TerminationGuard,
    UnsupportedValuation,
)
from .exchange import (
    EXCHANGE,
    PARETO,
    augment,
    build_weighted_graph,
    clean_state_violations,
    f_set,  # noqa: F401  (not called here; perfbench/spans.py wraps solver.f_set)
    min_weight_path,
)
from .threshold import ThresholdBeta, TriDecomposition, verify_tridecomposition
from .valuations import (
    Explicit,
    is_solver_supported,
    validate_order_neutral,
    validate_range,
    validate_submodular,
)
from .yankee import yankee_swap

Trace = Optional[Callable[[str], None]]


@dataclass
class SolverState:
    xc: Allocation
    x0: Allocation
    xm1: Allocation
    pareto_augmentations: int = 0
    exchange_augmentations: int = 0


@dataclass(frozen=True)
class SolveReport:
    """Complete solver output: the allocation, its utilities, the witnessing
    three-way decomposition, and the augmentation counters."""

    allocation: Allocation
    utilities: tuple[int, ...]
    sorted_utilities: tuple[int, ...]
    decomposition: TriDecomposition
    pareto_augmentations: int
    exchange_augmentations: int
    usw: int


def check_supported(inst: Instance) -> None:
    """Gate the solver: reject out-of-scope valuation classes and explicit
    tables that fail deep validation."""
    for i in inst.agents:
        spec = inst.valuation(i)
        if not is_solver_supported(spec):
            raise UnsupportedValuation(
                f"agent {i}: {type(spec).__name__} valuations are outside the "
                "solvable class (the unrestricted problem is NP-hard)"
            )
        if isinstance(spec, Explicit):
            for name, res in (
                ("submodularity", validate_submodular(spec)),
                ("order neutrality", validate_order_neutral(spec)),
                ("marginal range", validate_range(spec, inst.c)),
            ):
                if not res:
                    raise InvalidInstance(f"agent {i}: {name} check failed: {res.message}")


def phase1(inst: Instance) -> SolverState:
    """Allocate all non-negative marginals via the binary-swap subroutine."""
    check_supported(inst)
    betas0 = [ThresholdBeta(inst.valuation(i), 0) for i in inst.agents]
    x0 = yankee_swap(inst.num_items, betas0)
    empty = Allocation.empty(inst.num_agents, inst.num_items)
    state = SolverState(xc=empty, x0=x0, xm1=empty)
    problems = clean_state_violations(inst, state.xc, state.x0)
    if problems:
        raise CleannessViolation("; ".join(problems))
    return state


def _scaled_potential(sizes: tuple[int, ...]) -> int:
    # sum_h (|xc_h| + h/n^2)^2 over the counted sizes, scaled by n^4 to stay
    # integral
    n = len(sizes)
    return sum((n * n * size + h) ** 2 for h, size in enumerate(sizes, start=1))


def augmentation_bounds(n: int, m: int) -> tuple[int, int]:
    """Phase 2's termination guard for n agents and m items: at most ``m``
    Pareto-improving and ``n**4 * m**3`` exchange augmentations."""
    return m, n**4 * m**3


def phase2(state: SolverState, inst: Instance, trace: Trace = None) -> SolverState:
    """Augment until the c-counted part is leximin.

    Pareto-improving paths (agents scanned ascending) are exhausted first;
    then the lexicographically first pair (i, j) admitting an exchange path
    that either strictly balances the counted sizes (|xc_i| + 1 < |xc_j|) or
    swaps equal outcomes toward the lower index (|xc_i| + 1 = |xc_j|, i < j)
    is augmented and the loop restarts.
    """
    n = inst.num_agents
    pareto_bound, exchange_bound = augmentation_bounds(n, inst.num_items)

    def guard():
        if (
            state.pareto_augmentations > pareto_bound
            or state.exchange_augmentations > exchange_bound
        ):
            raise TerminationGuard(
                f"augmentation counts (pareto={state.pareto_augmentations}, "
                f"exchange={state.exchange_augmentations}) exceeded the "
                f"polynomial bounds ({pareto_bound}, {exchange_bound})"
            )

    graph = None
    while True:
        # Exhaust Pareto-improving paths.  Each graph advances the last one
        # in place, recomputing only the agents whose bundles the last
        # augmentation changed; an agent's sources are its desired items.
        while True:
            graph = build_weighted_graph(
                inst, state.xc, state.x0, check=False, previous=graph
            )
            found = None
            for i in inst.agents:
                path = min_weight_path(graph, graph.desired[i - 1], PARETO, i)
                if path is not None:
                    found = (i, path)
                    break
            if found is None:
                break
            i, path = found
            state.xc, state.x0 = augment(inst, state.xc, state.x0, path)
            state.pareto_augmentations += 1
            guard()
            if trace:
                trace(
                    f"phase2 pareto i={i} j=0 path={list(path.items)} "
                    f"w={path.doubled_weight}"
                )

        # One qualifying exchange augmentation, then start over.  The state
        # has not changed since the last Pareto scan, so neither has its graph
        # nor, until the scan augments and stops, its bundle sizes.
        augmented = False
        sizes = state.xc.sizes()
        for i in inst.agents:
            size_i = sizes[i - 1]
            sources = graph.desired[i - 1]
            if not sources:
                continue
            for j in inst.agents:
                if j == i:
                    continue
                size_j = sizes[j - 1]
                balances = size_i + 1 < size_j
                swaps_down = size_i + 1 == size_j and i < j
                if not (balances or swaps_down):
                    continue
                path = min_weight_path(graph, sources, EXCHANGE, i, target_agent=j)
                if path is None:
                    continue
                before = _scaled_potential(sizes)
                state.xc, state.x0 = augment(inst, state.xc, state.x0, path)
                after = _scaled_potential(state.xc.sizes())
                if after >= before:
                    raise TerminationGuard(
                        f"potential failed to decrease ({before} -> {after}) "
                        "across an exchange augmentation"
                    )
                state.exchange_augmentations += 1
                guard()
                if trace:
                    trace(
                        f"phase2 exchange i={i} j={j} path={list(path.items)} "
                        f"w={path.doubled_weight}"
                    )
                augmented = True
                break
            if augmented:
                break
        if not augmented:
            break
    return state


def phase3(state: SolverState, inst: Instance, trace: Trace = None) -> SolveReport:
    """Hand each leftover item to the currently happiest agent (ties to the
    higher index), then assemble and verify the report."""
    remaining = sorted(
        state.xc.unallocated & state.x0.unallocated & state.xm1.unallocated
    )
    xm1_bundles = [set(state.xm1.bundle(i)) for i in inst.agents]

    def bundle_of(i: int) -> frozenset[int]:
        return state.xc.bundle(i) | state.x0.bundle(i) | frozenset(xm1_bundles[i - 1])

    for o in remaining:
        utilities = [inst.value(i, bundle_of(i)) for i in inst.agents]
        top = max(utilities)
        receiver = max(i for i in inst.agents if utilities[i - 1] == top)
        if inst.marginal(receiver, bundle_of(receiver), o) != -1:
            raise CleannessViolation(
                f"item {o} has marginal != -1 for agent {receiver}; this "
                "contradicts welfare maximality of the non-negative part"
            )
        xm1_bundles[receiver - 1].add(o)
        if trace:
            trace(f"phase3 give o{o} to agent {receiver}")

    state.xm1 = Allocation.from_bundles(xm1_bundles, inst.num_items)
    allocation = Allocation.from_bundles(
        [bundle_of(i) for i in inst.agents], inst.num_items
    )
    if not allocation.is_complete:
        raise CleannessViolation("final allocation is not complete")
    decomposition = TriDecomposition(state.xc, state.x0, state.xm1)
    ok, clause = verify_tridecomposition(inst, allocation, decomposition)
    if not ok:
        raise CleannessViolation(f"final decomposition violates clause ({clause})")
    utilities = utility_vector(inst, allocation)
    usw = sum(utilities)
    by_parts = sum(
        inst.c * len(state.xc.bundle(i)) - len(state.xm1.bundle(i)) for i in inst.agents
    )
    if usw != by_parts:
        raise CleannessViolation(
            f"welfare mismatch: utilities sum to {usw}, parts give {by_parts}"
        )
    return SolveReport(
        allocation=allocation,
        utilities=utilities,
        sorted_utilities=tuple(sorted(utilities)),
        decomposition=decomposition,
        pareto_augmentations=state.pareto_augmentations,
        exchange_augmentations=state.exchange_augmentations,
        usw=usw,
    )


def solve(inst: Instance, trace: Trace = None) -> SolveReport:
    """Run all three phases and return the verified report."""
    state = phase1(inst)
    state = phase2(state, inst, trace)
    return phase3(state, inst, trace)
