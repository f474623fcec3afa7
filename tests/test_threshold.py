import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manna.core import Allocation
from manna.errors import ContractViolation
from manna.instgen import gen_capped_groups
from manna.threshold import (
    TriDecomposition,
    beta,
    decompose3,
    decompose_threshold,
    verify_tridecomposition,
)
from manna.valuations import (
    Additive,
    CappedGroups,
    Explicit,
    Group,
    items_of,
    validate_submodular,
)
from support import capped_specs, per_item_split, solver_instances


def test_beta_examples(named_fixtures):
    ex2 = named_fixtures["ex2"]
    v1, v2 = ex2.valuation(1), ex2.valuation(2)
    assert beta(v1, ex2.c, {0, 1}) == 1
    assert beta(v2, 0, {2, 3}) == 0
    assert beta(v1, 0, {0, 1}) == 2


@pytest.mark.parametrize(
    "spec",
    [
        Additive((2, 0, -1, 2, 0)),
        # capped: at most one of {0, 1, 3} counts c, the rest count 0
        CappedGroups((Group(frozenset({0, 1, 3}), 1, 2, 0),), 2),
        Explicit(3, (0, 1, 1, 1, 1, 1, 1, 1)),
    ],
)
def test_beta_of_a_set_equals_the_prefix_walk(spec):
    """A set of items is counted in closed form by a spec with
    ``count_at_least`` (additive and capped here) and by the prefix walk
    otherwise (the table); every count equals the walk along a sorted
    list."""
    m = spec.num_items if isinstance(spec, Explicit) else 5
    for mask in range(1 << m):
        items = sorted(items_of(mask))
        for tau in (0, 2):
            assert beta(spec, tau, frozenset(items)) == beta(spec, tau, items)
            assert beta(spec, tau, set(items)) == beta(spec, tau, items)


def test_beta_rejects_a_repeated_item():
    with pytest.raises(ContractViolation, match="item 1 already"):
        beta(Additive((2, 2, 0)), 0, [1, 0, 1])


def test_beta_marginal_examples(named_fixtures):
    ex2 = named_fixtures["ex2"]
    v1 = ex2.valuation(1)
    assert v1.marginals(frozenset(), [0]) == v1.marginals(frozenset(), [1]) == [ex2.c]
    assert v1.marginals({0}, [1]) == v1.marginals({1}, [0]) == [0]
    classic = named_fixtures["ex_classic"].valuation(1)
    assert classic.marginals({0}, [1]) == [-1]
    with pytest.raises(ContractViolation):
        v1.marginals({0}, [0])


@settings(max_examples=300)
@given(st.data())
def test_capped_count_at_least_equals_the_prefix_walk(data):
    """Every (hi, lo) pair, caps 0 to 3, every default and both thresholds:
    the closed-form count equals ``beta``'s walk along a sorted list."""
    c = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 9))
    spec = data.draw(capped_specs(m, c))
    bundle = data.draw(st.frozensets(st.sampled_from(range(m))))
    for tau in (0, c):
        assert spec.count_at_least(tau, bundle) == beta(spec, tau, sorted(bundle))


def test_decompose_threshold_examples(named_fixtures):
    ex2 = named_fixtures["ex2"]
    X = Allocation((frozenset({0, 1}), frozenset({2, 3})), frozenset())
    clean, supp = decompose_threshold(ex2, X, ex2.c)
    assert clean.bundle(1) == frozenset({0})
    assert supp.bundle(1) == frozenset({1})
    clean0, supp0 = decompose_threshold(ex2, X, 0)
    assert clean0.bundle(2) == frozenset()
    assert supp0.bundle(2) == frozenset({2, 3})
    low, rest = decompose_threshold(ex2, X, -2)
    assert all(low.bundle(i) == X.bundle(i) for i in ex2.agents)
    assert all(not rest.bundle(i) for i in ex2.agents)


def test_decompose3_example(named_fixtures):
    ex2 = named_fixtures["ex2"]
    X = Allocation((frozenset({0, 1}), frozenset({2, 3})), frozenset())
    dec = decompose3(ex2, X)
    assert dec.xc.bundle(1) == frozenset({0})
    assert dec.x0.bundle(1) == frozenset({1})
    assert dec.xm1.bundle(2) == frozenset({2, 3})
    assert dec.xc.bundle(2) == dec.x0.bundle(2) == dec.xm1.bundle(1) == frozenset()


def test_decompose3_empty_allocation(named_fixtures):
    ex2 = named_fixtures["ex2"]
    dec = decompose3(ex2, Allocation.empty(2, 4))
    for part in (dec.xc, dec.x0, dec.xm1):
        assert all(not part.bundle(i) for i in ex2.agents)


def test_decompose3_mms_fixture_counts(named_fixtures):
    ex_mms = named_fixtures["ex_mms"]
    X = Allocation.from_bundles([{0, 1, 2, 3, 6, 7}, set()], 10)
    dec = decompose3(ex_mms, X)
    assert len(dec.xc.bundle(1)) == 2
    assert len(dec.x0.bundle(1)) == 2
    assert len(dec.xm1.bundle(1)) == 2
    assert ex_mms.value(1, X.bundle(1)) == 0 == 1 * 2 - 2


def test_verify_tridecomposition(named_fixtures):
    ex2 = named_fixtures["ex2"]
    X = Allocation((frozenset({0, 1}), frozenset({2, 3})), frozenset())
    dec = decompose3(ex2, X)
    assert verify_tridecomposition(ex2, X, dec) == (True, None)
    # decompositions are not unique: swapping the two items in the c-pair is also valid
    swapped = TriDecomposition(
        Allocation.from_bundles([{1}, set()], 4),
        Allocation.from_bundles([{0}, set()], 4),
        dec.xm1,
    )
    assert verify_tridecomposition(ex2, X, swapped) == (True, None)
    # moving a chore into the zero part breaks clause (c)
    broken = TriDecomposition(
        dec.xc,
        Allocation.from_bundles([{1}, {2}], 4),
        Allocation.from_bundles([set(), {3}], 4),
    )
    assert verify_tridecomposition(ex2, X, broken) == (False, "c")


@pytest.mark.parametrize("seed", range(6))
def test_decompose3_verifies_on_random_capped(seed):
    inst = gen_capped_groups(2, 7, 1 + seed % 3, (1, 3), (1, 3), 700 + seed)
    rngmask = (seed * 2654435761) % (1 << 7)
    X = Allocation.from_bundles(
        [
            {o for o in range(7) if rngmask >> o & 1},
            {o for o in range(7) if not rngmask >> o & 1},
        ],
        7,
    )
    dec = decompose3(inst, X)
    assert verify_tridecomposition(inst, X, dec) == (True, None)


@settings(max_examples=60)
@given(solver_instances(max_agents=3), st.data())
def test_decompositions_equal_the_per_item_definition(inst, data):
    """Both splits equal the per-item definition on a random allocation;
    ``decompose3`` splits at 0 and then the non-negative part at c."""
    m = inst.num_items
    owners = data.draw(st.lists(st.integers(0, inst.num_agents), min_size=m, max_size=m))
    X = Allocation.from_bundles(
        [{o for o, k in enumerate(owners) if k == i} for i in inst.agents], m
    )
    for tau in (0, inst.c):
        clean, supp = decompose_threshold(inst, X, tau)
        for i in inst.agents:
            want = per_item_split(inst.valuation(i), X.bundle(i), tau)
            assert (clean.bundle(i), supp.bundle(i)) == want
    dec = decompose3(inst, X)
    for i in inst.agents:
        spec = inst.valuation(i)
        nonneg, xm1 = per_item_split(spec, X.bundle(i), 0)
        xc, x0 = per_item_split(spec, nonneg, inst.c)
        assert (dec.xc.bundle(i), dec.x0.bundle(i), dec.xm1.bundle(i)) == (xc, x0, xm1)


@pytest.mark.parametrize("tau_kind", ["zero", "c"])
def test_materialized_beta_is_binary_submodular(named_fixtures, tau_kind):
    for name in ("ex2", "ex_classic", "fig1"):
        inst = named_fixtures[name]
        tau = 0 if tau_kind == "zero" else inst.c
        for i in inst.agents:
            spec = inst.valuation(i)
            m = inst.num_items
            table = Explicit(
                m, tuple(beta(spec, tau, items_of(mask)) for mask in range(1 << m))
            )
            assert validate_submodular(table).ok
            for mask in range(1 << m):
                for o in range(m):
                    if not mask >> o & 1:
                        d = table.table[mask | 1 << o] - table.table[mask]
                        assert d in (0, 1)


def test_beta_monotone_in_threshold(named_fixtures):
    inst = named_fixtures["ex_mms"]
    spec = inst.valuation(1)
    for mask in range(0, 1 << 10, 37):
        S = items_of(mask)
        assert beta(spec, inst.c, S) <= beta(spec, 0, S) <= len(S)
