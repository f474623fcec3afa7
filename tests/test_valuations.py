from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manna.core import Instance
from manna.errors import ContractViolation, InvalidInstance, MalformedValuation
from manna.instgen import SplitMix64, gen_capped_groups, gen_random_additive
from manna.valuations import (
    Additive,
    CappedGroups,
    Explicit,
    GeneralAdditive,
    Group,
    materialize,
    telescoping_vector,
    validate_order_neutral,
    validate_range,
    validate_submodular,
)
from support import (
    capped_specs,
    graphic_matroid_instance,
    random_two_valued_table,
    reference_validate_order_neutral,
    reference_validate_range,
    reference_validate_submodular,
)

C = 2
CAP_PAIR = CappedGroups((Group(frozenset({0, 1}), 1, C, 0),), 0)  # c·min(|S∩{0,1}|,1)
NON_ON = Explicit(2, (0, 0, 1, 0))  # submodular but order-sensitive


def test_value_examples(named_fixtures):
    assert CAP_PAIR.value({0, 1, 2}) == C
    assert CAP_PAIR.value(frozenset()) == 0
    assert Additive(()).value(frozenset()) == 0
    v2 = named_fixtures["ex_ef1"].valuation(2)  # (c+1)|S∩{o1,o2}| − |S|, c=2
    assert v2.value({0, 1, 2}) == 2 * (C + 1) - 3 == 3


def test_marginal_examples():
    assert CAP_PAIR.marginal(frozenset(), 0) == C
    assert CAP_PAIR.marginal({0}, 1) == 0
    classic = CappedGroups((Group(frozenset({0, 1}), 1, C, -1),), 0)
    assert classic.marginal({0}, 1) == -1
    with pytest.raises(ContractViolation):
        CAP_PAIR.marginal({0}, 0)


@pytest.mark.parametrize(
    "spec",
    [
        Additive((2, 0, -1)),
        GeneralAdditive((5, 0, -3)),
        CappedGroups((Group(frozenset({0, 1}), 1, C, -1),), 0),
        materialize(CappedGroups((Group(frozenset({1, 2}), 1, C, 0),), -1), 3),
    ],
)
@pytest.mark.parametrize("bundle_type", [frozenset, list, set])
def test_additive_marginal_rejects_held_item(spec, bundle_type):
    # every family, not only the additive ones: ``marginal`` is the
    # one-item ``marginals``, and both reject a held item
    for bundle, o in (([0, 1], 2), ([], 0), ([1], 0), ([2], 1)):
        want = spec.value(bundle + [o]) - spec.value(bundle)
        assert spec.marginal(bundle_type(bundle), o) == want
        assert spec.marginals(bundle_type(bundle), [o]) == [want]
    for ask in (spec.marginal, lambda b, o: spec.marginals(b, [o])):
        with pytest.raises(ContractViolation, match="item 1 already in bundle"):
            ask(bundle_type([0, 1]), 1)


def test_telescoping_examples():
    assert telescoping_vector(NON_ON, {0, 1}, [0, 1]) == (0, 0)
    assert telescoping_vector(NON_ON, {0, 1}, [1, 0]) == (-1, 1)
    assert telescoping_vector(CAP_PAIR, frozenset()) == ()
    with pytest.raises(ContractViolation):
        telescoping_vector(CAP_PAIR, {0, 1}, [0, 0])


def test_telescoping_order_invariance_for_capped_groups():
    rng = SplitMix64(11)
    inst = gen_capped_groups(1, 7, 3, (1, 3), (1, 3), 99)
    spec = inst.valuation(1)
    bundle = [0, 2, 3, 5, 6]
    reference = telescoping_vector(spec, bundle)
    for _ in range(50):
        order = list(bundle)
        rng.shuffle(order)
        assert telescoping_vector(spec, bundle, order) == reference


def test_telescoping_conserves_value():
    inst = gen_capped_groups(1, 6, 2, (1, 3), (1, 3), 5)
    spec = inst.valuation(1)
    rng = SplitMix64(17)
    for mask in range(1 << 6):
        bundle = [o for o in range(6) if mask >> o & 1]
        order = list(bundle)
        rng.shuffle(order)
        assert sum(telescoping_vector(spec, bundle, order)) == spec.value(bundle)


def test_explicit_structural_checks():
    with pytest.raises(MalformedValuation):
        Explicit(2, (0, 1, 2))  # wrong table size
    for bad in (1.9, "1", True):
        with pytest.raises(MalformedValuation, match="is not an integer"):
            Explicit(1, (0, bad))
    with pytest.raises(ContractViolation):
        Explicit(2, (0, 1, 1, 2)).marginal({0}, 0)


@pytest.mark.parametrize(
    "num_items, message",
    [(-1, "negative item count -1"), (1.5, "item count 1.5 is not an integer"),
     (True, "item count True is not an integer")],
)
def test_explicit_rejects_an_item_count_that_is_not_a_size(num_items, message):
    # the table-size shift would raise a ValueError or a TypeError, not a
    # MannaError, or take True for 1
    with pytest.raises(MalformedValuation, match=f"^{message}$"):
        Explicit(num_items, (0, 0))


NOT_INTEGERS = {
    "additive-float": Additive((2.5, -1.7)),  # once truncated to (2, -1), which passes
    "additive-float-c": Additive((2.0, 0)),
    "additive-bool": Additive((True, 0)),
    "general-additive-float": GeneralAdditive((5.5, -2)),
    "capped-hi-lo": CappedGroups((Group({0, 1}, 1, 2.0, 0.0),), 0),  # 2.0 == c passed
    "capped-lo": CappedGroups((Group({0, 1}, 1, 2, -1.0),), 0),
    "capped-cap": CappedGroups((Group({0, 1}, 1.0, 2, 0),), 0),
    "capped-default": CappedGroups((), 0.0),
}


@pytest.mark.parametrize("spec", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
def test_instance_rejects_values_that_are_not_integers(spec):
    """Additive values and capped caps, ``hi``, ``lo`` and ``default`` must
    be of type ``int``, as table values must."""
    with pytest.raises(InvalidInstance, match="is not an integer"):
        Instance(1, 2, C, (spec,))


def test_additive_values_are_kept_as_given():
    assert GeneralAdditive([2.5, -1]).values == (2.5, -1)


def test_validate_submodular():
    assert validate_submodular(NON_ON).ok
    bad_empty = Explicit(1, (1, 1))
    res = validate_submodular(bad_empty)
    assert not res.ok and res.witness == (frozenset(),)
    # strictly supermodular pair
    res = validate_submodular(Explicit(2, (0, 0, 0, 1)))
    assert not res.ok
    S, T, o = res.witness
    assert S < T and o not in T


def test_validate_order_neutral_witness():
    # marginals {-1, 0, 1}, a progression: the pair pass runs and fails
    res = validate_order_neutral(NON_ON)
    assert not res.ok
    bundle, vec1, vec2 = res.witness
    assert bundle == frozenset({0, 1})
    assert {vec1, vec2} == {(0, 0), (-1, 1)}
    assert validate_order_neutral(Explicit(2, (0, 1, 1, 2))).ok  # additive table


def test_validate_range():
    assert validate_range(Explicit(2, (0, 2, -1, 1)), 2).ok
    res = validate_range(Explicit(2, (0, 2, 0, 2)), 3)
    assert not res.ok
    S, o, delta = res.witness
    assert delta == 2


def test_fig1_table_passes_all_validators(named_fixtures):
    spec = named_fixtures["fig1"].valuation(1)
    assert validate_submodular(spec).ok
    assert validate_order_neutral(spec).ok
    assert validate_range(spec, 1).ok


def test_example1_capped_rendering_in_range():
    # value c·min(|S|, 2) over four items, materialized at c=2
    spec = CappedGroups((Group(frozenset(range(4)), 2, 2, 0),), 0)
    table = materialize(spec, 4)
    assert validate_range(table, 2).ok
    assert validate_submodular(table).ok
    assert validate_order_neutral(table).ok


@pytest.mark.parametrize("seed", range(8))
def test_materialized_capped_groups_pass_validators(seed):
    inst = gen_capped_groups(1, 6, 1 + seed % 3, (1, 3), (0, 3), 300 + seed)
    table = materialize(inst.valuation(1), 6)
    assert validate_submodular(table).ok
    assert validate_order_neutral(table).ok
    assert validate_range(table, inst.c).ok


@given(st.integers(0, 10_000))
def test_two_valued_submodular_implies_order_neutral(seed):
    table = random_two_valued_table(4, -1, 1, seed)
    assert validate_submodular(table).ok
    assert validate_order_neutral(table).ok


@st.composite
def explicit_tables(draw):
    """A table over m = 0..7 items and a c, drawn both near and far from the
    validators' boundaries: a materialized additive or capped valuation, a
    two-valued submodular table or raw small integers; then perhaps a few
    entries perturbed, every value scaled up to 2^70, and the whole table
    shifted off v(∅) = 0, into or across the top of the one-byte range
    [0, 64) that packs without a scan for the span."""
    m = draw(st.sampled_from(range(8)))
    c = draw(st.sampled_from((1, 2, 3, 2**40 + 1)))
    seed = draw(st.integers(0, 2**16))
    family = draw(st.sampled_from(("additive", "capped", "two_valued", "raw")))
    if family == "additive":
        table = materialize(gen_random_additive(1, m, c, (1, 1, 2), seed).valuation(1), m).table
    elif family == "capped":
        inst = gen_capped_groups(1, m, c, (1, 3), (0, 3), seed)
        table = materialize(inst.valuation(1), m).table
    elif family == "two_valued" and m:
        a, b = draw(st.sampled_from(((-1, 0), (-1, c), (0, c), (-2, 1))))
        table = random_two_valued_table(m, a, b, seed).table
    else:
        table = draw(st.lists(st.integers(-3, 3), min_size=1 << m, max_size=1 << m))
    table = list(table)
    for _ in range(draw(st.integers(0, 2))):
        table[draw(st.integers(0, (1 << m) - 1))] += draw(st.sampled_from((-1, 1, c, 2**70)))
    scale = draw(st.sampled_from((1, 1, 2, 2**35, 2**70)))
    shift = draw(st.sampled_from((0, 0, 0, 1, 40, 61, -(2**70))))
    return Explicit(m, tuple(v * scale + shift for v in table)), c


@settings(max_examples=400)
@given(explicit_tables())
def test_packed_validators_equal_reference_loops(drawn):
    spec, c = drawn
    for fast, slow in (
        (validate_submodular(spec), reference_validate_submodular(spec)),
        (validate_order_neutral(spec), reference_validate_order_neutral(spec)),
        (validate_range(spec, c), reference_validate_range(spec, c)),
    ):
        assert (fast.ok, fast.witness, fast.message) == (slow.ok, slow.witness, slow.message)


# Marginal value sets D of each kind that ``validate_order_neutral`` tells
# apart before its pair pass.
VALUE_SETS = {
    "at most two": ((0, 1), (-1, 0), (-1, 2)),
    "three apart": ((-1, 0, 2), (-2, 0, 1)),
    "progression": ((-1, 0, 1), (0, 1, 2)),
    "four or more": ((-1, 0, 1, 2), (-2, -1, 0, 2, 3)),
}


def _marginal_values(spec):
    m, table = spec.num_items, spec.table
    return {
        table[mask | 1 << o] - table[mask]
        for mask in range(1 << m)
        for o in range(m)
        if not mask >> o & 1
    }


def _kind(values):
    if len(values) <= 2:
        return "at most two"
    if len(values) > 3:
        return "four or more"
    a, b, c = sorted(values)
    return "progression" if b - a == c - b else "three apart"


@st.composite
def marginal_valued_tables(draw):
    """A table over m = 2..6 items whose marginals are drawn from a value
    set D of one kind, scaled and shifted.  Either a sum of blocks of one or
    two items, where a two-item block is "crossed" (a failing square) when
    its two orders gain distinct pairs of values from D with one sum, or a
    table filled in mask order, each value one of those that keep every
    marginal into it in D if there are any."""
    m = draw(st.sampled_from(range(2, 7)))
    values = draw(st.sampled_from(VALUE_SETS[draw(st.sampled_from(sorted(VALUE_SETS)))]))
    pick = st.sampled_from(values)
    table = [0] * (1 << m)
    if draw(st.booleans()):
        crossings = [
            (x, d, y, e)
            for x in values for d in values for y in values for e in values
            if x + d == y + e and sorted((x, d)) != sorted((y, e))
        ]
        crossed = crossings and draw(st.booleans())
        o = 0
        while o < m:
            if o + 1 < m and draw(st.booleans()):
                if crossed and draw(st.booleans()):
                    x, d, y, _ = draw(st.sampled_from(crossings))
                else:
                    x, y = draw(pick), draw(pick)
                    d = y
                block = {0: 0, 1 << o: x, 2 << o: y, 3 << o: x + d}
                o += 2
            else:
                block = {0: 0, 1 << o: draw(pick)}
                o += 1
            items = max(block)
            for mask in range(1 << m):
                table[mask] += block[mask & items]
    else:
        for mask in range(1, 1 << m):
            parents = [mask ^ 1 << o for o in range(m) if mask >> o & 1]
            fits = [
                table[parents[0]] + d
                for d in values
                if all(table[parents[0]] + d - table[p] in values for p in parents)
            ]
            table[mask] = draw(st.sampled_from(fits or [table[parents[0]] + d for d in values]))
    scale = draw(st.sampled_from((1, 1, 3, 2**35)))
    shift = draw(st.sampled_from((0, 0, 61, -(2**70))))
    return Explicit(m, tuple(v * scale + shift for v in table))


def test_marginal_values_decide_order_neutrality_as_the_pair_pass_does():
    seen = Counter()

    @settings(max_examples=400, database=None)
    @given(marginal_valued_tables())
    def check(spec):
        fast, slow = validate_order_neutral(spec), reference_validate_order_neutral(spec)
        assert (fast.ok, fast.witness, fast.message) == (slow.ok, slow.witness, slow.message)
        kind = _kind(_marginal_values(spec))
        # where no two distinct pairs of D share a sum, no square can fail
        assert slow.ok or kind in ("progression", "four or more")
        seen[kind, slow.ok] += 1

    check()
    assert seen["at most two", True] and seen["three apart", True]
    assert all(seen[kind, ok] for kind in ("progression", "four or more") for ok in (True, False))


def test_capped_groups_rejects_overlapping_groups():
    with pytest.raises(MalformedValuation):
        CappedGroups(
            (Group(frozenset({0, 1}), 1, 1, 0), Group(frozenset({1, 2}), 1, 1, 0)), 0
        )


@st.composite
def batched_queries(draw):
    """An in-scope valuation, a bundle of some container type, and items
    outside it in any order."""
    family = draw(st.sampled_from(("additive", "capped", "graphic")))
    seed = draw(st.integers(0, 2**16))
    if family == "graphic":
        inst = graphic_matroid_instance(1, draw(st.integers(1, 9)), seed)
    else:
        m, c = draw(st.integers(1, 12)), draw(st.integers(1, 3))
        if family == "additive":
            inst = gen_random_additive(1, m, c, (1, 1, 2), seed)
        else:
            inst = gen_capped_groups(1, m, c, (1, 3), (0, 3), seed)
    spec = inst.valuation(1)
    bundle = draw(st.sets(st.sampled_from(range(inst.num_items))))
    outside = [o for o in range(inst.num_items) if o not in bundle]
    items = draw(st.permutations(outside))
    items = items[: draw(st.integers(0, len(items)))]
    container = draw(st.sampled_from((frozenset, set, sorted)))
    return spec, container(bundle), items


@settings(max_examples=300)
@given(batched_queries(), st.data())
def test_batched_marginals_equal_single_marginals(query, data):
    spec, bundle, items = query
    assert spec.marginals(bundle, items) == [spec.marginal(bundle, o) for o in items]
    if bundle:
        held = data.draw(st.sampled_from(sorted(bundle)))
        at = data.draw(st.integers(0, len(items)))
        with pytest.raises(ContractViolation, match=f"item {held} already"):
            spec.marginals(bundle, items[:at] + [held] + items[at:])


@st.composite
def declaring_valuations(draw):
    """A valuation of a declaring family -- additive, capped groups with caps
    0 to 3, or a graphic-matroid table -- with a threshold ``tau`` of 0 or
    c, its item count and the items it must declare at ``tau``."""
    family = draw(st.sampled_from(("additive", "capped", "graphic")))
    c = 1 if family == "graphic" else draw(st.integers(1, 3))
    tau = draw(st.sampled_from((0, c)))
    if family == "graphic":
        seed = draw(st.integers(0, 2**16))
        inst = graphic_matroid_instance(1, draw(st.integers(1, 9)), seed)
        spec, m, want = inst.valuation(1), inst.num_items, frozenset()
    else:
        m = draw(st.integers(1, 12))
        if family == "additive":
            values = st.sampled_from((-1, 0, c))
            spec = Additive(tuple(draw(st.lists(values, min_size=m, max_size=m))))
            want = frozenset(range(m))
        else:
            spec = draw(capped_specs(m, c))
            # a grouped item is declared when its marginal cannot cross tau
            crossing = (
                g.items
                for g in spec.groups
                if not (g.cap == 0 or g.cap >= len(g.items) or (g.hi >= tau) == (g.lo >= tau))
            )
            want = frozenset(range(m)).difference(*crossing)
    return spec, tau, m, want


@settings(max_examples=400)
@given(declaring_valuations(), st.data())
def test_declared_items_keep_their_empty_bundle_marginal(drawn, data):
    """Each family declares exactly its documented items at each threshold,
    and every declared item's marginal is on the same side of the threshold
    on drawn bundles as on the empty one."""
    spec, tau, m, want = drawn
    items = data.draw(st.permutations(range(m)))
    declared = spec.bundle_independent(items, tau)
    assert declared == want
    for _ in range(3):
        bundle = data.draw(st.frozensets(st.sampled_from(range(m))))
        for o in sorted(declared - bundle):
            [on_bundle] = spec.marginals(bundle, [o])
            [on_empty] = spec.marginals(frozenset(), [o])
            assert (on_bundle >= tau) == (on_empty >= tau)


def test_capped_declarations_depend_on_the_threshold():
    """A group whose marginal falls from c to 0 at its cap is declared at 0
    but not at c, one that falls from c to -1 at neither, and one whose cap
    is 0 or at least its size, whose marginal never changes, at both."""
    falls_to_zero = Group(frozenset({0, 1, 2}), 1, C, 0)
    falls_below_zero = Group(frozenset({3, 4}), 1, C, -1)
    never_falls = Group(frozenset({5, 6, 7}), 3, C, -1)
    always_low = Group(frozenset({8, 9}), 0, C, -1)
    spec = CappedGroups((falls_to_zero, falls_below_zero, never_falls, always_low), 0)
    items = range(11)  # item 10 is ungrouped
    assert spec.bundle_independent(items, 0) == {0, 1, 2, 5, 6, 7, 8, 9, 10}
    assert spec.bundle_independent(items, C) == {5, 6, 7, 8, 9, 10}
