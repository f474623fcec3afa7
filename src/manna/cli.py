"""Command-line front end.

Subcommands: ``solve``, ``brute``, ``verify``, ``gen``, ``validate``,
``bench``.  Machine-readable JSON goes to stdout (byte-identical across
runs); traces and debug dumps go to stderr.  Exit codes: 0 ok, 1 a verified
property is violated, 2 usage error, 3 enumeration budget exceeded,
4 invalid instance.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import instgen, oracle
from .core import Instance, sorted_utilities, utility_vector
from .errors import (
    BudgetExceeded,
    ContractViolation,
    InvalidInstance,
    MalformedValuation,
    MannaError,
    ParseError,
    UnsupportedValuation,
)
from .exchange import build_weighted_graph
from .fairness import check_ef1, check_mms, check_prop1
from .solver import augmentation_bounds, phase1, phase2, phase3, solve
from .valuations import (
    Explicit,
    GeneralAdditive,
    materialize,
    validate_order_neutral,
    validate_range,
    validate_submodular,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INVALID = 4

VERIFY_PROPS = ("leximin", "prop1", "ef1", "mms", "lorenz", "usw")


def _read_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instgen.parse_instance(fh.read())


def _budget(args) -> int | None:
    env = os.environ.get("MANNA_ORACLE_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ContractViolation(
                f"MANNA_ORACLE_BUDGET must be an integer, got {env!r}"
            ) from None
    return None


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    inst = _read_instance(args.instance)
    trace = (lambda line: print(line, file=sys.stderr)) if args.trace else None
    if args.dump_graph:
        state = phase1(inst)
        graph = build_weighted_graph(inst, state.xc, state.x0)
        print(graph.dump(), file=sys.stderr)
        state = phase2(state, inst, trace)
        report = phase3(state, inst, trace)
    else:
        report = solve(inst, trace)
    if args.human:
        lines = []
        for i in inst.agents:
            bundle = ",".join(f"o{o}" for o in sorted(report.allocation.bundle(i)))
            lines.append(f"agent {i}: [{bundle}] utility {report.utilities[i - 1]}")
        lines.append(f"sorted utilities: {list(report.sorted_utilities)}")
        lines.append(f"usw: {report.usw}")
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(instgen.dumps(instgen.report_to_obj(report)), args.output)
    return EXIT_OK


def _cmd_brute(args) -> int:
    inst = _read_instance(args.instance)
    budget = _budget(args)
    sorted_vec, witness = oracle.brute_leximin(inst, budget)
    obj = {
        "sorted_utilities": list(sorted_vec),
        "witness": instgen.allocation_to_obj(witness),
        "max_usw": oracle.brute_max_usw(inst, budget),
    }
    _emit(instgen.dumps(obj), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = _read_instance(args.instance)
    with open(args.allocation, "r", encoding="utf-8") as fh:
        allocation = instgen.parse_allocation(fh.read(), inst.num_items)
    props = [p.strip() for p in args.props.split(",") if p.strip()]
    for p in props:
        if p not in VERIFY_PROPS:
            raise ContractViolation(
                f"unknown property {p!r}; choose from {', '.join(VERIFY_PROPS)}"
            )
    budget = _budget(args)
    results = {}
    all_ok = True
    for prop in props:
        if prop == "leximin":
            expected, _ = oracle.brute_leximin(inst, budget)
            actual = sorted_utilities(inst, allocation)
            ok = actual == expected
            detail = {"expected": list(expected), "actual": list(actual)}
        elif prop == "prop1":
            verdicts = check_prop1(inst, allocation)
            ok = all(verdicts.values())
            detail = {"agents": {str(i): v for i, v in verdicts.items()}}
        elif prop == "ef1":
            verdicts = check_ef1(inst, allocation)
            ok = all(verdicts.values())
            detail = {
                "pairs": {f"{i},{j}": v for (i, j), v in sorted(verdicts.items())}
            }
        elif prop == "mms":
            shares = [oracle.brute_mms(inst, i, budget) for i in inst.agents]
            verdicts = check_mms(inst, allocation, shares)
            ok = all(verdicts.values())
            detail = {
                "shares": shares,
                "agents": {str(i): v for i, v in verdicts.items()},
            }
        elif prop == "lorenz":
            ok = oracle.brute_lorenz_dominating(inst, allocation, budget)
            detail = {}
        else:  # usw
            expected_usw = oracle.brute_max_usw(inst, budget)
            actual_usw = sum(utility_vector(inst, allocation))
            ok = actual_usw == expected_usw
            detail = {"expected": expected_usw, "actual": actual_usw}
        results[prop] = {"ok": ok, **detail}
        all_ok = all_ok and ok
    obj = {"ok": all_ok, "properties": results}
    if args.human:
        lines = [f"{p}: {'pass' if results[p]['ok'] else 'FAIL'}" for p in props]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(instgen.dumps(obj), args.output)
    return EXIT_OK if all_ok else EXIT_VIOLATED


def _parse_ratio(text: str, parts: int, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(":"))
    except ValueError:
        raise ContractViolation(f"{flag} must be colon-separated integers") from None
    if len(values) != parts:
        raise ContractViolation(f"{flag} needs exactly {parts} parts")
    return values


def _cmd_gen(args) -> int:
    if args.family == "additive":
        weights = _parse_ratio(args.weights, 3, "--weights")
        inst = instgen.gen_random_additive(args.agents, args.items, args.c, weights, args.seed)
    elif args.family == "capped":
        groups = _parse_ratio(args.groups, 2, "--groups")
        caps = _parse_ratio(args.caps, 2, "--caps")
        inst = instgen.gen_capped_groups(args.agents, args.items, args.c, groups, caps, args.seed)
    else:  # hardness
        edges = []
        for tok in args.edges.split(";"):
            tok = tok.strip()
            if tok:
                edges.append(tuple(int(x) for x in tok.split(",")))
        expdm = instgen.ExPDMInstance(
            args.p, args.a, instgen.canonical_parts(args.p, args.a), tuple(edges)
        )
        inst = instgen.gen_hardness(expdm, args.q)
    _emit(instgen.serialize_instance(inst), args.output)
    return EXIT_OK


def _cmd_validate(args) -> int:
    inst = _read_instance(args.instance)
    agents = []
    all_ok = True
    for i in inst.agents:
        spec = inst.valuation(i)
        entry: dict = {"agent": i, "kind": type(spec).__name__}
        if isinstance(spec, GeneralAdditive):
            entry["checked"] = False
            entry["note"] = "general additive values; oracle-only"
        else:
            table = spec if isinstance(spec, Explicit) else None
            if table is None and inst.num_items <= 12:
                table = materialize(spec, inst.num_items)
            if table is None:
                entry["checked"] = False
                entry["note"] = "closed form too large to materialize"
            else:
                sub = validate_submodular(table)
                neutral = validate_order_neutral(table)
                rng = validate_range(table, inst.c)
                entry["checked"] = True
                entry["submodular"] = sub.ok
                entry["order_neutral"] = neutral.ok
                entry["range"] = rng.ok
                for name, res in (
                    ("submodular", sub), ("order_neutral", neutral), ("range", rng),
                ):
                    if not res.ok:
                        entry[f"{name}_witness"] = res.message
                        all_ok = False
        agents.append(entry)
    _emit(instgen.dumps({"ok": all_ok, "agents": agents}), args.output)
    return EXIT_OK if all_ok else EXIT_INVALID


def _cmd_bench(args) -> int:
    sizes = []
    for tok in args.sizes.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            n_str, m_str = tok.split("x")
            sizes.append((int(n_str), int(m_str)))
        except ValueError:
            raise ContractViolation(
                f"--sizes entries look like NxM, got {tok!r}"
            ) from None
    rows = [
        "family,n,m,c,seed,seconds,pareto_augmentations,exchange_augmentations,"
        "pareto_bound,exchange_bound,within_bound"
    ]
    for idx, (n, m) in enumerate(sizes):
        seed = args.seed + idx
        if args.family == "additive":
            inst = instgen.gen_random_additive(n, m, args.c, (1, 1, 2), seed)
        else:
            inst = instgen.gen_capped_groups(n, m, args.c, (1, 3), (1, 3), seed)
        start = time.perf_counter()
        report = solve(inst)
        elapsed = time.perf_counter() - start
        p_bound, e_bound = augmentation_bounds(n, m)
        within = report.pareto_augmentations <= p_bound and (
            report.exchange_augmentations <= e_bound
        )
        rows.append(
            f"{args.family},{n},{m},{args.c},{seed},{elapsed:.6f},"
            f"{report.pareto_augmentations},{report.exchange_augmentations},"
            f"{p_bound},{e_bound},{within}"
        )
    _emit("\n".join(rows) + "\n", args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manna",
        description="Leximin allocation of mixed goods and chores with "
        "{-1, 0, c} order-neutral submodular valuations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the three-phase solver")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--output")
    p_solve.add_argument("--trace", action="store_true")
    p_solve.add_argument("--dump-graph", action="store_true",
                         help="print the initial weighted exchange graph to stderr")
    p_solve.add_argument("--human", action="store_true")
    p_solve.set_defaults(func=_cmd_solve)

    p_brute = sub.add_parser("brute", help="brute-force leximin report")
    p_brute.add_argument("--instance", required=True)
    p_brute.add_argument("--output")
    p_brute.set_defaults(func=_cmd_brute)

    p_verify = sub.add_parser("verify", help="check properties of an allocation")
    p_verify.add_argument("--instance", required=True)
    p_verify.add_argument("--allocation", required=True)
    p_verify.add_argument("--props", required=True,
                          help="comma list from: " + ",".join(VERIFY_PROPS))
    p_verify.add_argument("--human", action="store_true")
    p_verify.add_argument("--output")
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("gen", help="generate an instance")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    g_add = gen_sub.add_parser("additive")
    g_add.add_argument("--agents", type=int, required=True)
    g_add.add_argument("--items", type=int, required=True)
    g_add.add_argument("--c", type=int, default=1)
    g_add.add_argument("--weights", default="1:1:1",
                       help="integer odds c:zero:minus-one, e.g. 1:1:2")
    g_add.add_argument("--seed", type=int, required=True)
    g_add.add_argument("--output")
    g_add.set_defaults(func=_cmd_gen)
    g_cap = gen_sub.add_parser("capped")
    g_cap.add_argument("--agents", type=int, required=True)
    g_cap.add_argument("--items", type=int, required=True)
    g_cap.add_argument("--c", type=int, default=1)
    g_cap.add_argument("--groups", default="1:3", help="group-count range lo:hi")
    g_cap.add_argument("--caps", default="1:3", help="cap range lo:hi")
    g_cap.add_argument("--seed", type=int, required=True)
    g_cap.add_argument("--output")
    g_cap.set_defaults(func=_cmd_gen)
    g_hard = gen_sub.add_parser("hardness")
    g_hard.add_argument("--p", type=int, required=True)
    g_hard.add_argument("--q", type=int, required=True)
    g_hard.add_argument("--a", type=int, required=True)
    g_hard.add_argument("--edges", required=True,
                        help="semicolon-separated edges, e.g. 0,2,4;1,3,5")
    g_hard.add_argument("--output")
    g_hard.set_defaults(func=_cmd_gen)

    p_val = sub.add_parser("validate", help="run valuation validators")
    p_val.add_argument("--instance", required=True)
    p_val.add_argument("--output")
    p_val.set_defaults(func=_cmd_validate)

    p_bench = sub.add_parser("bench", help="time solves, CSV output")
    p_bench.add_argument("--family", choices=("additive", "capped"), required=True)
    p_bench.add_argument("--sizes", required=True, help="comma list of NxM")
    p_bench.add_argument("--c", type=int, default=2)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--output")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, InvalidInstance, MalformedValuation, UnsupportedValuation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MannaError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
