"""Three-phase leximin solver for {-1, 0, c} order-neutral submodular instances.

Phase 1 seeds the state: Yankee Swap on the valuations' threshold-0 counts
allocates every item that can contribute a non-negative marginal somewhere.
Phase 2 turns the c-counted part into a leximin allocation by augmenting
along minimum-weight Pareto-improving and exchange paths.  Phase 3
distributes the leftover universally-negative items to the currently
happiest agents.  The final utility vector, sorted
ascending, is lexicographically maximal among all complete allocations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .core import Allocation, Instance, sorted_utilities, utility_vector
from .errors import (
    CleannessViolation,
    InvalidInstance,
    TerminationGuard,
    UnsupportedValuation,
)
from .exchange import (
    AugmentingPath,
    ExchangeGraph,
    augment,
    build_weighted_graph,
    clean_state_violations,
    f_set,  # noqa: F401  (not called here; perfbench/spans.py wraps solver.f_set)
    min_weight_path,
)
from .threshold import TriDecomposition, verify_tridecomposition
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
    tables that fail deep validation.  A table's validators run in order,
    and the first that fails raises without running the rest."""
    for i in inst.agents:
        spec = inst.valuation(i)
        if not is_solver_supported(spec):
            raise UnsupportedValuation(
                f"agent {i}: {type(spec).__name__} valuations are outside the "
                "solvable class (the unrestricted problem is NP-hard)"
            )
        if isinstance(spec, Explicit):
            for name, check, args in (
                ("submodularity", validate_submodular, ()),
                ("order neutrality", validate_order_neutral, ()),
                ("marginal range", validate_range, (inst.c,)),
            ):
                res = check(spec, *args)
                if not res:
                    raise InvalidInstance(f"agent {i}: {name} check failed: {res.message}")


def phase1(inst: Instance) -> SolverState:
    """Allocate all non-negative marginals by Yankee Swap at threshold 0."""
    check_supported(inst)
    x0 = yankee_swap(inst.num_items, inst.valuations)
    state = SolverState(xc=Allocation.empty(inst.num_agents, inst.num_items), x0=x0)
    problems = clean_state_violations(inst, state.xc, state.x0)
    if problems:
        raise CleannessViolation("; ".join(problems))
    return state


def _scaled_potential(sizes) -> int:
    # sum_h (|xc_h| + h/n^2)^2 over the counted sizes, scaled by n^4 to stay
    # integral
    n = len(sizes)
    return sum((n * n * size + h) ** 2 for h, size in enumerate(sizes, start=1))


def _exchanged_potential(potential: int, sizes: list[int], path: AugmentingPath) -> int:
    """The scaled potential after an exchange along ``path``: the source's
    counted size rises by one and the target's falls by one, in ``sizes``
    too.  Only their two terms of the sum change."""
    n = len(sizes)
    for h, step in ((path.source_agent, 1), (path.target, -1)):
        term = n * n * sizes[h - 1] + h
        sizes[h - 1] += step
        potential += (term + n * n * step) ** 2 - term**2
    return potential


def augmentation_bounds(n: int, m: int) -> tuple[int, int]:
    """Phase 2's termination guard for n agents and m items: at most ``m``
    Pareto-improving and ``n**4 * m**3`` exchange augmentations."""
    return m, n**4 * m**3


def phase2(state: SolverState, inst: Instance, trace: Trace = None) -> SolverState:
    """Augment until the c-counted part is leximin, in two stages.

    The Pareto stage augments along Pareto-improving paths until none is
    left.  It retires agents as Yankee Swap does: one pointer starts at
    agent 1 and moves up only when that agent's pool search fails, never
    after a success.  An agent with no Pareto-improving path has none in
    any later state of the stage.  Each β_c is a matroid rank function and
    ``xc`` is clean, so agent k has such a path exactly when the counted
    sizes s + e_k are feasible: some disjoint sets, each independent for
    its agent's β_c, have those sizes.  Feasible size vectors are
    down-closed, and a Pareto augmentation only grows sizes, so once s +
    e_k is infeasible, every later s' + e_k >= s + e_k is too.  So the
    agents below the pointer would fail again, and the pointer's path is
    the one a rescan from agent 1 would take.

    The exchange stage then augments along the exchange path of the
    lexicographically first pair (i, j) that either strictly balances the
    counted sizes (|xc_i| + 1 < |xc_j|) or swaps equal outcomes toward the
    lower index (|xc_i| + 1 = |xc_j|, i < j), until no pair admits one.

    No Pareto-improving path can appear during the exchange stage, so it
    never rescans for one.  By the matroid-union augmenting-path theorem a
    Pareto-improving path exists exactly while Σ|xc_i| is below its maximum
    (Viswanathan & Zick, "Yankee Swap", AAMAS 2023; Babaioff, Ezra & Feige,
    AAAI 2021).  The Pareto stage reaches that maximum, and an exchange
    augmentation keeps the sum fixed: ``augment`` asserts the +1 for i and
    the -1 for j.  After an exchange stage that augmented, a Pareto scan of
    the final graph checks this and raises ``CleannessViolation`` if it
    finds a path.

    The exchange stage keeps the counted sizes and the scaled potential
    Σ_h (n²·|xc_h| + h)² up to date instead of recomputing them from the
    allocation: an exchange adds 1 to the source's size and takes 1 from
    the target's, and ``augment`` has asserted that no other size moved,
    so only those two terms of the sum change.  The potential must still
    strictly decrease across every exchange, or ``TerminationGuard`` is
    raised.
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

    # One graph, advanced in place after each augmentation: only the agents
    # whose bundles changed are recomputed.  An agent's sources are its
    # desired items.
    graph = build_weighted_graph(inst, state.xc, state.x0, check=False)
    agent = 1  # the agents below it are retired
    while agent <= n:
        path = min_weight_path(graph, graph.desired[agent - 1], agent, 0)
        if path is None:
            agent += 1
            continue
        state.xc, state.x0 = augment(inst, state.xc, state.x0, path)
        state.pareto_augmentations += 1
        guard()
        if trace:
            trace(
                f"phase2 pareto i={path.source_agent} j=0 path={list(path.items)} "
                f"w={path.doubled_weight}"
            )
        graph = build_weighted_graph(
            inst, state.xc, state.x0, check=False, previous=graph
        )

    sizes = list(state.xc.sizes())
    potential = _scaled_potential(sizes)
    exchanged = False
    while (path := _first_path(graph, _exchange_pairs(graph, inst.agents, sizes))) is not None:
        state.xc, state.x0 = augment(inst, state.xc, state.x0, path)
        before, potential = potential, _exchanged_potential(potential, sizes, path)
        if potential >= before:
            raise TerminationGuard(
                f"potential failed to decrease ({before} -> {potential}) "
                "across an exchange augmentation"
            )
        state.exchange_augmentations += 1
        exchanged = True
        guard()
        if trace:
            trace(
                f"phase2 exchange i={path.source_agent} j={path.target} "
                f"path={list(path.items)} w={path.doubled_weight}"
            )
        graph = build_weighted_graph(
            inst, state.xc, state.x0, check=False, previous=graph
        )

    # Without an exchange the Pareto stage has retired every agent.
    pool_pairs = ((i, 0) for i in inst.agents)
    if exchanged and (path := _first_path(graph, pool_pairs)) is not None:
        raise CleannessViolation(
            f"agent {path.source_agent} has a Pareto-improving path "
            f"{list(path.items)} after the exchange stage"
        )
    return state


def _first_path(
    graph: ExchangeGraph, pairs: Iterable[tuple[int, int]]
) -> Optional[AugmentingPath]:
    """The path of the first pair (i, j) that has one: from agent i's
    desired items into part j of the counted allocation, the pool for 0."""
    for i, j in pairs:
        path = min_weight_path(graph, graph.desired[i - 1], i, j)
        if path is not None:
            return path
    return None


def _exchange_pairs(
    graph: ExchangeGraph, agents: range, sizes: list[int]
) -> Iterator[tuple[int, int]]:
    """The pairs (i, j), lexicographically, whose counted sizes an exchange
    balances (|xc_i| + 1 < |xc_j|) or swaps toward the lower index
    (|xc_i| + 1 = |xc_j|, i < j).  Neither holds for j = i.  Every pair
    needs |xc_i| + 1 <= |xc_j|, so an agent already within one of the
    largest size has no partner and is skipped, as is one that desires
    nothing."""
    top = max(sizes)
    for i in agents:
        grown = sizes[i - 1] + 1
        if not graph.desired[i - 1] or grown > top:
            continue
        for j in agents:
            size_j = sizes[j - 1]
            if grown < size_j or (grown == size_j and i < j):
                yield i, j


def phase3(state: SolverState, inst: Instance, trace: Trace = None) -> SolveReport:
    """Hand each leftover item to the currently happiest agent (ties to the
    higher index), then assemble and verify the report.

    The agents wait in a heap keyed on (-utility, -agent), built only when
    an item is left.  Each item costs its receiver exactly 1, which the
    marginal check before each push asserts, so only the receiver's key
    moves, and the heap's least entry is the agent a scan of all utilities
    would pick."""
    remaining = sorted(state.xc.unallocated & state.x0.unallocated)
    bundles = [set(state.xc.bundle(i) | state.x0.bundle(i)) for i in inst.agents]
    if remaining:
        happiest = [(-inst.value(i, bundles[i - 1]), -i) for i in inst.agents]
        heapq.heapify(happiest)
    for o in remaining:
        minus_utility, minus_receiver = happiest[0]
        receiver = -minus_receiver
        if inst.marginal(receiver, bundles[receiver - 1], o) != -1:
            raise CleannessViolation(
                f"item {o} has marginal != -1 for agent {receiver}; this "
                "contradicts welfare maximality of the non-negative part"
            )
        heapq.heapreplace(happiest, (minus_utility + 1, minus_receiver))
        bundles[receiver - 1].add(o)
        if trace:
            trace(f"phase3 give o{o} to agent {receiver}")

    allocation = Allocation.from_bundles(bundles, inst.num_items)
    if not allocation.is_complete:
        raise CleannessViolation("final allocation is not complete")
    xm1 = Allocation.from_bundles(
        [b - state.xc.bundle(i) - state.x0.bundle(i) for i, b in enumerate(bundles, 1)],
        inst.num_items,
    )
    decomposition = TriDecomposition(state.xc, state.x0, xm1)
    # clause (d) makes each utility c·|xc_i| − |xm1_i|, so welfare needs no check of its own
    ok, clause = verify_tridecomposition(inst, allocation, decomposition)
    if not ok:
        raise CleannessViolation(f"final decomposition violates clause ({clause})")
    utilities = utility_vector(inst, allocation)
    return SolveReport(
        allocation=allocation,
        utilities=utilities,
        sorted_utilities=tuple(sorted(utilities)),
        decomposition=decomposition,
        pareto_augmentations=state.pareto_augmentations,
        exchange_augmentations=state.exchange_augmentations,
        usw=sum(utilities),
    )


def solve(inst: Instance, trace: Trace = None) -> SolveReport:
    """Run all three phases and return the verified report."""
    state = phase1(inst)
    state = phase2(state, inst, trace)
    return phase3(state, inst, trace)
