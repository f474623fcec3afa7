"""Acceptance suite: every guarantee is certified against brute-force oracles
on the randomized desk-scale suite (200 seeded instances per valuation
family; n in {2,3}, m in {4..8}, c in {1,2,3}) plus the named fixtures.

One line per criterion is printed; run with ``pytest -s`` to watch them.
"""

import math
from dataclasses import dataclass

import pytest

from manna.cli import main as cli_main
from manna.core import Allocation, Instance
from manna.errors import CleannessViolation
from manna.exchange import AugmentingPath, augment, clean_state_violations
from manna.fairness import check_ef1, check_mms, check_prop1, p_mean_welfare
from manna.instgen import (
    ExPDMInstance,
    canonical_parts,
    fixtures,
    gen_hardness,
    serialize_instance,
)
from manna.oracle import (
    brute_leximin,
    brute_lorenz_dominating,
    brute_max_usw,
    brute_mms,
    complete_utilities,
)
from manna.solver import SolveReport, solve
from manna.threshold import verify_tridecomposition
from manna.valuations import (
    Additive,
    validate_order_neutral,
    validate_range,
    validate_submodular,
)
from support import make_suite_instance, random_two_valued_table, suite_params


def report_line(cid: str, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {cid} {name}: {status}{suffix}")
    assert ok, f"{cid} {name}: {detail}"


@dataclass(frozen=True)
class SuiteRecord:
    family: str
    inst: Instance
    report: SolveReport
    brute_sorted: tuple[int, ...]
    brute_usw: int


@pytest.fixture(scope="module")
def suite():
    records = []
    for family in ("additive", "capped_groups"):
        for n, m, c, seed in suite_params(family):
            inst = make_suite_instance(family, n, m, c, seed)
            report = solve(inst)
            brute_sorted, _ = brute_leximin(inst)
            records.append(
                SuiteRecord(family, inst, report, brute_sorted, brute_max_usw(inst))
            )
    return records


def test_c01_leximin_oracle_equivalence(suite):
    bad = [r for r in suite if r.report.sorted_utilities != r.brute_sorted]
    report_line(
        "c01", "leximin oracle equivalence", not bad,
        f"{len(suite)} instances, {len(bad)} mismatches",
    )


def test_c02_max_usw(suite):
    bad = [r for r in suite if r.report.usw != r.brute_usw]
    report_line("c02", "MAX-USW equals oracle", not bad,
                f"{len(suite)} instances, {len(bad)} mismatches")


def test_c03_prop1(suite):
    bad = sum(
        not all(check_prop1(r.inst, r.report.allocation).values()) for r in suite
    )
    report_line("c03", "PROP1 on every output", bad == 0, f"{bad} failures")


def test_c04_ef1(suite):
    bad = sum(
        not all(check_ef1(r.inst, r.report.allocation).values())
        for r in suite
        if r.family == "additive"
    )
    inst = fixtures()["ex_ef1"]
    rep = solve(inst)
    own = inst.value(1, rep.allocation.bundle(1))
    rival = inst.value(1, rep.allocation.bundle(2))
    counterexample = (
        own == 2 * inst.c - 1
        and rival == 3 * inst.c
        and check_ef1(inst, rep.allocation)[(1, 2)] is False
    )
    report_line(
        "c04", "EF1 on additive outputs + capped counterexample",
        bad == 0 and counterexample,
        f"{bad} additive failures; counterexample values ({own}, {rival})",
    )


def test_c05_mms(suite):
    bad = 0
    for r in suite:
        if r.family != "additive":
            continue
        shares = [brute_mms(r.inst, i) for i in r.inst.agents]
        if not all(check_mms(r.inst, r.report.allocation, shares).values()):
            bad += 1
    inst = fixtures()["ex_mms"]
    rep = solve(inst)
    share1 = brute_mms(inst, 1)
    counterexample = share1 == 1 and rep.utilities[0] == 0
    report_line(
        "c05", "MMS on additive outputs + capped counterexample",
        bad == 0 and counterexample,
        f"{bad} additive failures; fixture share={share1}, utility={rep.utilities[0]}",
    )


def test_c06_lorenz_dominance(suite):
    bad = sum(
        not brute_lorenz_dominating(r.inst, r.report.allocation) for r in suite
    )
    report_line("c06", "Lorenz dominance", bad == 0, f"{bad} failures")


def test_c07_welfare_maximality(suite):
    checked = 0
    nash_bad = 0
    mean_bad = 0
    for r in suite:
        if r.brute_sorted[0] < 0:
            continue
        checked += 1
        best_nash = None
        best_mean = None
        for u in complete_utilities(r.inst):
            nash = p_mean_welfare(u, 0)
            if nash is not None and (best_nash is None or nash > best_nash):
                best_nash = nash
            mean = p_mean_welfare(u, 1)
            if mean is not None and (best_mean is None or mean > best_mean):
                best_mean = mean
        mine_nash = p_mean_welfare(r.report.utilities, 0)
        mine_mean = p_mean_welfare(r.report.utilities, 1)
        if not math.isclose(mine_nash, best_nash, rel_tol=1e-12, abs_tol=0.0):
            nash_bad += 1
        if mine_mean != best_mean:
            mean_bad += 1
    report_line(
        "c07", "Nash (p=0) and utilitarian mean (p=1) maximality",
        nash_bad == 0 and mean_bad == 0 and checked > 0,
        f"{checked} nonnegative instances, {nash_bad} Nash / {mean_bad} mean failures",
    )


def test_c08_cleanness_invariants(suite):
    # positive: every suite run finished with the always-on augmentation
    # asserts silent, and the final states re-verify here
    bad = 0
    for r in suite:
        dec = r.report.decomposition
        if clean_state_violations(r.inst, dec.xc, dec.x0):
            bad += 1
        if verify_tridecomposition(r.inst, r.report.allocation, dec) != (True, None):
            bad += 1
    # negative control: the forced bad singleton on the two-item cap fixture
    inst = fixtures()["ex_classic"]
    xc = Allocation.empty(1, 2)
    x0 = Allocation.from_bundles([{0}], 2)
    try:
        augment(inst, xc, x0, AugmentingPath((1,), 1, 0, 2))
        control = False
    except CleannessViolation:
        control = True
    report_line(
        "c08", "cleanness invariants + negative control",
        bad == 0 and control,
        f"{bad} state violations; forced-path control caught={control}",
    )


def test_c09_termination_bounds(suite):
    bad = [
        r
        for r in suite
        if r.report.pareto_augmentations > r.inst.num_items
        or r.report.exchange_augmentations
        > r.inst.num_agents**4 * r.inst.num_items**3
    ]
    # the in-solver potential assert (strict decrease per exchange) never
    # fired across the suite, or solve() would have raised TerminationGuard
    report_line(
        "c09", "augmentation counts within polynomial bounds", not bad,
        f"max pareto={max(r.report.pareto_augmentations for r in suite)}, "
        f"max exchange={max(r.report.exchange_augmentations for r in suite)}",
    )


def test_c10_hardness_reduction():
    parts = canonical_parts(3, 2)
    perfect = gen_hardness(ExPDMInstance(3, 2, parts, ((0, 2, 4), (1, 3, 5))), 1)
    with_matching = brute_leximin(perfect)[0][0]
    broken = gen_hardness(ExPDMInstance(3, 2, parts, ((0, 2, 4), (0, 3, 5))), 1)
    without_matching = brute_leximin(broken)[0][0]
    report_line(
        "c10", "hardness reduction (p=3, q=1, a=2)",
        with_matching == 0 and without_matching < 0,
        f"min utility {with_matching} with matching, {without_matching} without",
    )


def test_c11_validators():
    non_on = fixtures()["non_on"].valuation(1)
    res = validate_order_neutral(non_on)
    witness_ok = (
        not res.ok
        and res.witness[0] == frozenset({0, 1})
        and {res.witness[1], res.witness[2]} == {(0, 0), (-1, 1)}
    )
    fig1 = fixtures()["fig1"].valuation(1)
    fig1_ok = (
        validate_submodular(fig1).ok
        and validate_order_neutral(fig1).ok
        and validate_range(fig1, 1).ok
    )
    two_valued_bad = 0
    pairs = ((-1, 0), (-1, 2), (0, 1), (0, 3), (-1, 1))
    for k in range(100):
        m = 3 + k % 4  # m <= 6
        a, b = pairs[k % len(pairs)]
        table = random_two_valued_table(m, a, b, 5000 + k)
        if not validate_submodular(table).ok or not validate_order_neutral(table).ok:
            two_valued_bad += 1
    report_line(
        "c11", "validators (witness, lattice table, 100 two-valued tables)",
        witness_ok and fig1_ok and two_valued_bad == 0,
        f"witness={witness_ok}, lattice={fig1_ok}, two-valued failures={two_valued_bad}",
    )


def test_c12_cli_determinism(tmp_path, capsys):
    solvable = ("ex2", "ex_classic", "ex_ef1", "ex_mms", "fig1")
    identical = True
    for name, inst in fixtures().items():
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_instance(inst))
        outputs = []
        codes = []
        for _ in range(2):
            codes.append(cli_main(["solve", "--instance", str(path)]))
            outputs.append(capsys.readouterr().out)
        if outputs[0] != outputs[1] or codes[0] != codes[1]:
            identical = False
        if name in solvable and codes[0] != 0:
            identical = False
        if name == "non_on" and codes[0] != 4:
            identical = False
    report_line("c12", "byte-identical solve reports", identical)
