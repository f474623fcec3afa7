from itertools import product

import pytest

from manna import exchange
from manna.core import Allocation
from manna.errors import OracleViolation
from manna.exchange import candidate_items, shift_along_path, unweighted_adjacency
from manna.instgen import gen_capped_groups, gen_random_additive
from manna.threshold import ThresholdBeta, is_clean
from manna.valuations import Explicit
from manna.yankee import yankee_swap


def brute_beta_leximin(num_items, betas):
    """Best sorted oracle-value vector over every (n+1)-way split, plus the
    maximum total value."""
    n = len(betas)
    best = None
    best_total = None
    for assign in product(range(n + 1), repeat=num_items):
        bundles = [set() for _ in range(n)]
        for item, a in enumerate(assign):
            if a > 0:
                bundles[a - 1].add(item)
        values = tuple(b.value(frozenset(s)) for b, s in zip(betas, bundles))
        key = tuple(sorted(values))
        total = sum(values)
        if best is None or key > best:
            best = key
        if best_total is None or total > best_total:
            best_total = total
    return best, best_total


def test_example2_zero_threshold_oracles(named_fixtures):
    ex2 = named_fixtures["ex2"]
    betas = [ThresholdBeta(ex2.valuation(i), 0) for i in ex2.agents]
    out = yankee_swap(4, betas)
    assert out.sizes() == (2, 2)
    assert out.bundle(2) == frozenset({0, 1})


def test_single_agent_single_useful_item():
    # values one specific item; the other stays in the pool
    beta = Explicit(2, (0, 1, 0, 1))
    out = yankee_swap(2, [beta])
    assert out.bundle(1) == frozenset({0})
    assert out.unallocated == frozenset({1})


def test_all_zero_oracles():
    zero = Explicit(3, (0,) * 8)
    out = yankee_swap(3, [zero, zero])
    assert out.sizes() == (0, 0)
    assert out.unallocated == frozenset({0, 1, 2})


def test_output_clean_and_matches_brute_force():
    for k in range(40):
        n = 2 + k % 2
        m = 4 + k % 3
        inst = gen_capped_groups(n, m, 1 + k % 3, (1, 3), (1, 3), 4000 + k)
        betas = [ThresholdBeta(inst.valuation(i), 0) for i in inst.agents]
        out = yankee_swap(m, betas)
        for i in inst.agents:
            assert is_clean(betas[i - 1], out.bundle(i))
        got_sizes = tuple(sorted(out.sizes()))
        want_sizes, want_total = brute_beta_leximin(m, betas)
        assert got_sizes == want_sizes
        assert sum(out.sizes()) == want_total


def test_rejects_non_binary_oracle():
    class Doubler:
        def value(self, items):
            return 2 * len(items)

        def marginal(self, items, item):
            return 2

    with pytest.raises(OracleViolation):
        yankee_swap(2, [Doubler()])


PHASE1_INSTANCES = {
    "capped_6x30_s0": lambda: gen_capped_groups(6, 30, 2, (1, 3), (1, 3), 0),
    "capped_32x160_s0": lambda: gen_capped_groups(32, 160, 2, (1, 3), (1, 3), 0),
    "additive_8x40_s0": lambda: gen_random_additive(8, 40, 2, (1, 1, 2), 0),
}


@pytest.mark.parametrize("name", sorted(PHASE1_INSTANCES))
def test_reused_adjacency_equals_fresh_build(monkeypatch, name):
    inst = PHASE1_INSTANCES[name]()
    betas = [ThresholdBeta(inst.valuation(i), 0) for i in inst.agents]
    built = 0

    def recording(allocation, oracles, candidates, previous=None):
        nonlocal built
        graph = unweighted_adjacency(allocation, oracles, candidates, previous)
        # checked before the next build advances it in place
        assert graph == unweighted_adjacency(allocation, oracles, candidates)
        built += 1
        return graph

    monkeypatch.setattr(exchange, "unweighted_adjacency", recording)
    out = yankee_swap(inst.num_items, betas)
    # each augmentation allocates one more item; one build before the first
    # turn, then one after each augmentation and none when an agent retires
    augmentations = sum(out.sizes())
    assert augmentations > 20
    assert built == 1 + augmentations


def test_adjacency_recomputes_gainer_holding_no_path_item():
    # agent 1 counts up to two of items 0..2; agent 2 counts one of {2, 3}
    uniform2 = Explicit(4, tuple(min(bin(s & 0b0111).count("1"), 2) for s in range(16)))
    either = Explicit(4, tuple(min(bin(s & 0b1100).count("1"), 1) for s in range(16)))
    oracles = [uniform2, either]
    candidates = [candidate_items(o.marginal, 1, 4) for o in oracles]
    assert candidates == [(0, 1, 2), (2, 3)]
    before = Allocation.from_bundles([{0}, {3}], 4)
    adj, desired = unweighted_adjacency(before, oracles, candidates)
    assert adj == {0: (1, 2), 3: (2,)}
    assert desired == [{1, 2}, set()]
    kept_edges, kept_desired = adj[3], desired[1]
    # the path is a lone pool item: no agent holds a path item, yet the
    # gainer's bundle grows and its edges change
    after = shift_along_path(before, (1,), 1)
    reused = unweighted_adjacency(after, oracles, candidates, (before, adj, desired))
    fresh = unweighted_adjacency(after, oracles, candidates)
    # o2 is an out-neighbour of both held items but not desired: agent 1
    # already counts two of items 0..2
    assert reused == fresh == ({0: (2,), 1: (2,), 3: (2,)}, [set(), set()])
    # the previous graph is advanced in place, keeping the unchanged agent's
    # edge list and desired items
    assert reused[0] is adj and reused[1] is desired
    assert adj[3] is kept_edges and desired[1] is kept_desired
