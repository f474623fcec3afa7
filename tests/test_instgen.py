import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from manna.core import Allocation, Instance
from manna.errors import ContractViolation, MannaError, ParseError
from manna.instgen import (
    ExPDMInstance,
    SplitMix64,
    canonical_parts,
    dumps,
    fixtures,
    gen_capped_groups,
    gen_hardness,
    gen_random_additive,
    graphic_matroid_rank_table,
    parse_allocation,
    parse_instance,
    serialize_allocation,
    serialize_instance,
)
from manna.oracle import brute_leximin
from manna.valuations import Additive, CappedGroups, GeneralAdditive, Group
from support import reference_rank_table

GOLDEN = Path(__file__).parent / "golden"

# first four outputs of the splitmix64 stream seeded with 0
SPLITMIX64_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
)


def test_splitmix64_golden_sequence():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(4)) == SPLITMIX64_SEED0


def test_splitmix64_below_and_shuffle_are_deterministic():
    a, b = SplitMix64(99), SplitMix64(99)
    assert [a.below(7) for _ in range(20)] == [b.below(7) for _ in range(20)]
    xs, ys = list(range(10)), list(range(10))
    SplitMix64(5).shuffle(xs)
    SplitMix64(5).shuffle(ys)
    assert xs == ys and sorted(xs) == list(range(10))
    with pytest.raises(ContractViolation):
        SplitMix64(0).below(0)


def test_gen_additive_golden_file():
    inst = gen_random_additive(2, 4, 1, (1, 1, 2), 42)
    assert serialize_instance(inst) == (GOLDEN / "additive_seed42.json").read_text()
    assert parse_instance((GOLDEN / "additive_seed42.json").read_text()) == inst


def test_gen_capped_golden_file():
    inst = gen_capped_groups(2, 6, 2, (1, 2), (1, 3), 7)
    assert serialize_instance(inst) == (GOLDEN / "capped_seed7.json").read_text()
    assert parse_instance((GOLDEN / "capped_seed7.json").read_text()) == inst


def test_mixed_kinds_golden_file_round_trips():
    """One agent of each additive kind and one capped agent: each parses to
    its own class, and serializing gives the same bytes back."""
    text = (GOLDEN / "mixed_kinds.json").read_text()
    inst = parse_instance(text)
    assert [type(spec) for spec in inst.valuations] == [
        Additive, GeneralAdditive, CappedGroups
    ]
    assert serialize_instance(inst) == text


def test_gen_additive_extreme_ratios():
    all_c = gen_random_additive(2, 5, 3, (1, 0, 0), 1)
    assert all(set(s.values) == {3} for s in all_c.valuations)
    all_chores = gen_random_additive(2, 5, 3, (0, 0, 1), 1)
    assert all(set(s.values) == {-1} for s in all_chores.valuations)
    with pytest.raises(ContractViolation):
        gen_random_additive(1, 2, 1, (0, 0, 0), 1)
    with pytest.raises(ContractViolation):
        gen_random_additive(1, 2, 1, (1, -1, 1), 1)


def test_gen_capped_zero_groups_is_default_only():
    inst = gen_capped_groups(2, 5, 2, (0, 0), (1, 1), 3)
    for spec in inst.valuations:
        assert isinstance(spec, CappedGroups) and spec.groups == ()
        assert spec.default in (0, -1)


def test_full_group_with_loose_cap_is_additive():
    spec = CappedGroups((Group(frozenset(range(5)), 5, 2, 0),), 0)
    additive = Additive((2,) * 5)
    for mask in range(1 << 5):
        s = {o for o in range(5) if mask >> o & 1}
        assert spec.value(s) == additive.value(s)


def test_fixtures_round_trip_bit_exact():
    for name, inst in fixtures().items():
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst, name
        assert serialize_instance(again) == text, name


def test_hardness_reduction_structure():
    expdm = ExPDMInstance(3, 1, canonical_parts(3, 1), ((0, 1, 2),))
    inst = gen_hardness(expdm, 1)
    assert inst.num_agents == 1
    assert inst.num_items == 4  # three vertices plus a*q dummies
    spec = inst.valuation(1)
    assert isinstance(spec, GeneralAdditive)
    assert spec.values == (1, 1, 1, -3)  # dummies occupy the highest indices
    assert brute_leximin(inst)[0] == (0,)


def test_hardness_reduction_matching_fixtures():
    parts = canonical_parts(3, 2)
    perfect = gen_hardness(ExPDMInstance(3, 2, parts, ((0, 2, 4), (1, 3, 5))), 1)
    assert brute_leximin(perfect)[0][0] == 0
    broken = gen_hardness(ExPDMInstance(3, 2, parts, ((0, 2, 4), (0, 3, 5))), 1)
    assert brute_leximin(broken)[0][0] < 0


def test_hardness_reduction_guards():
    parts = canonical_parts(3, 1)
    with pytest.raises(ContractViolation):
        gen_hardness(ExPDMInstance(3, 1, parts, ((0, 1, 2),)), 3)  # gcd(3,3)=3
    with pytest.raises(ContractViolation):
        gen_hardness(ExPDMInstance(2, 1, canonical_parts(2, 1), ((0, 1),)), 1)
    with pytest.raises(ContractViolation):
        gen_hardness(ExPDMInstance(3, 1, parts, ()), 1)  # no edges
    with pytest.raises(ContractViolation):
        ExPDMInstance(3, 1, parts, ((0, 0, 2),))  # not one vertex per part


def test_parse_instance_range_error_names_agent_and_item():
    text = """{"c": 3, "num_agents": 1, "num_items": 2,
               "agents": [{"kind": "additive", "values": [2, 0]}]}"""
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert "agent 1" in str(err.value)
    assert "item 0" in str(err.value)


def test_parse_instance_structural_errors():
    with pytest.raises(ParseError):
        parse_instance("{not json")
    with pytest.raises(ParseError):
        parse_instance('{"c": 1, "num_agents": 2, "num_items": 0, "agents": []}')
    with pytest.raises(ParseError):
        parse_instance(
            '{"c": 1, "num_agents": 1, "num_items": 1,'
            ' "agents": [{"kind": "mystery"}]}'
        )
    # explicit table with a missing subset
    with pytest.raises(ParseError):
        parse_instance(
            '{"c": 1, "num_agents": 1, "num_items": 1,'
            ' "agents": [{"kind": "explicit", "table": {"": 0}}]}'
        )


def _explicit_doc(table, num_items=2):
    return json.dumps({
        "c": 1, "num_agents": 1, "num_items": num_items,
        "agents": [{"kind": "explicit", "table": table}],
    })


def test_parse_explicit_accepts_non_canonical_keys():
    canonical = {"": 0, "0": 1, "1": 1, "0,1": 2, "2": 1, "0,2": 2, "1,2": 2, "0,1,2": 3}
    shuffled = {"1,0": 2, "": 0, "2,1,0": 3, "1": 1, "2,0": 2, "0": 1, "2": 1, "1,2": 2}
    expected = (0, 1, 1, 2, 1, 2, 2, 3)
    # the canonical keys in mask order, sorted (as manna writes them) and
    # shuffled, then keys that are not canonical
    for table in (
        canonical,
        dict(sorted(canonical.items())),
        {key: canonical[key] for key in ("1,2", "0", "", "0,1,2", "2", "0,2", "1", "0,1")},
        shuffled,
    ):
        assert parse_instance(_explicit_doc(table, 3)).valuation(1).table == expected


@pytest.mark.parametrize(
    "table, message",
    [
        ({"": 0, "0": 1, "0,1": 2, "1,0": 2},
         "instance.agents[0].table['1,0']: duplicate subset key"),
        ({"": 0, "0": 1, "1,0": 2, "0,1": 2},
         "instance.agents[0].table['0,1']: duplicate subset key"),
        ({"": 0, "0": True, "1": 1, "0,1": 2},
         "instance.agents[0].table['0']: expected an integer value"),
        ({"": 0, "0": 1, "1": "1", "0,1": 2},
         "instance.agents[0].table['1']: expected an integer value"),
        ({"1,0": 2, "0,1": True, "": 0, "0": 1},
         "instance.agents[0].table['0,1']: expected an integer value"),
        ({"": 0, "0": 1, "2": 1, "0,1": 2},
         "instance.agents[0].table['2']: subset key out of range"),
        ({"": 0, "0": 1, "x": 1, "0,1": 2},
         "instance.agents[0].table['x']: malformed subset key"),
        ({"": 0, "0": 1, "1": 1},
         "instance.agents[0].table: expected 4 entries, found 3"),
        # values that are not plain integers, the keys sorted as manna
        # writes them
        ({"": 0, "0": 1, "0,1": 1.5, "1": 1},
         "instance.agents[0].table['0,1']: expected an integer value"),
        ({"": 0, "0": "1", "0,1": 2, "1": 1},
         "instance.agents[0].table['0']: expected an integer value"),
        ({"": 0, "0": 1, "0,1": 2, "1": False},
         "instance.agents[0].table['1']: expected an integer value"),
    ],
)
def test_parse_explicit_errors(table, message):
    with pytest.raises(ParseError) as err:
        parse_instance(_explicit_doc(table))
    assert str(err.value) == message


@pytest.mark.parametrize("num_items", [-1, 21, 10**12])
def test_parse_explicit_rejects_item_count_out_of_range(num_items):
    with pytest.raises(ParseError) as err:
        parse_instance(_explicit_doc({"": 0}, num_items))
    assert str(err.value) == (
        f"instance.agents[0].table: explicit tables cover 0 to 20 items, not {num_items}"
    )


def test_allocation_round_trip_and_errors():
    alloc = Allocation((frozenset({0, 2}), frozenset({1})), frozenset({3}))
    assert parse_allocation(serialize_allocation(alloc)) == alloc
    with pytest.raises(ParseError):
        parse_allocation('{"bundles": [[0], [0]], "unallocated": [1]}')
    with pytest.raises(ParseError):
        parse_allocation(serialize_allocation(alloc), num_items=7)
    assert parse_allocation(serialize_allocation(alloc), 4, 2) == alloc
    for num_agents in (1, 3):
        with pytest.raises(ParseError, match=f"has 2 bundles, expected {num_agents}"):
            parse_allocation(serialize_allocation(alloc), num_agents=num_agents)


@st.composite
def multigraphs(draw):
    """0 to 12 edges on up to six vertices, parallel edges and self-loops
    included."""
    vertices = st.integers(0, draw(st.integers(0, 5)))
    return draw(st.lists(st.tuples(vertices, vertices), max_size=12))


@settings(max_examples=150)
@given(multigraphs())
@example([(0, 1), (1, 2), (2, 0), (0, 1), (3, 3), (2, 3)] * 2)
def test_rank_table_equals_per_subset_union_find(edges):
    assert graphic_matroid_rank_table(len(edges), edges) == reference_rank_table(
        len(edges), edges
    )


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.text(max_size=6)


def json_values(scalars=JSON_SCALARS):
    """Small JSON values: nested lists, tuples and string-keyed dicts."""
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=12,
    )


@settings(max_examples=200)
@given(json_values())
@example({})
@example([{}, [], ()])
@example({"été": [" ", "\x00\x1f\"\\", "\U0001f600"], "": None})
@example([True, False, None, 0, -(10**30)])
@example({"b": {"a": 1, "A": [2]}, "a": True})
@example({2: "two", 10: "ten"})  # keys that are not strings: json.dumps renders them
@example([1.5, float("inf"), -0.0])  # floats: json.dumps renders them
def test_dumps_equals_indented_json_dumps(obj):
    assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _paths(obj, prefix=()):
    """The path of every value inside ``obj``, the root's ``()`` included."""
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for k, value in enumerate(obj):
            yield from _paths(value, prefix + (k,))


@st.composite
def near_documents(draw, bases):
    """One of the valid documents ``bases`` with one to three values inside
    it, picked uniformly, replaced by a small integer or arbitrary JSON or
    removed, as JSON text."""
    obj = json.loads(draw(st.sampled_from(bases)))
    pick = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(obj))[1:]
        if not paths:
            break
        *keys, last = pick.choice(paths)
        parent = obj
        for key in keys:
            parent = parent[key]
        if draw(st.booleans()):
            parent[last] = draw(st.integers(-2, 25) | json_values())
        else:
            del parent[last]
    return json.dumps(obj)


INSTANCE_DOCS = [
    serialize_instance(gen_random_additive(2, 4, 2, (1, 1, 2), 0)),
    serialize_instance(gen_capped_groups(2, 5, 2, (1, 3), (1, 3), 1)),
    serialize_instance(
        Instance(1, 2, 1, (graphic_matroid_rank_table(2, [(0, 1), (1, 2)]),))
    ),
    serialize_instance(Instance(1, 2, 1, (GeneralAdditive((5, -2)),))),
]
ALLOCATION_DOCS = [
    serialize_allocation(Allocation((frozenset({0, 2}), frozenset({1})), frozenset({3})))
]


def documents(bases):
    """JSON text that is mostly malformed: any text, any JSON value, and
    valid documents with a few values replaced or removed."""
    return st.one_of(
        st.text(max_size=12), json_values().map(json.dumps), near_documents(bases)
    )


def test_parse_instance_rejects_deep_nesting():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_instance("[" * 200_000)


@settings(max_examples=250)
@given(documents(INSTANCE_DOCS))
def test_parse_instance_raises_only_manna_errors(text):
    try:
        parse_instance(text)
    except MannaError:
        pass


@settings(max_examples=150)
@given(documents(ALLOCATION_DOCS), st.none() | st.integers(-1, 6))
def test_parse_allocation_raises_only_manna_errors(text, num_items):
    try:
        parse_allocation(text, num_items)
    except MannaError:
        pass
