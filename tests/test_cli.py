import json
from pathlib import Path

import pytest

from manna import cli, errors
from manna.cli import main
from manna.instgen import fixtures, serialize_allocation, serialize_instance
from manna.solver import solve


@pytest.fixture()
def fixture_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_instance(fixtures()[name]))
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_reports_brute_verified_utilities(fixture_file, capsys):
    code, out, _ = run(capsys, ["solve", "--instance", fixture_file("ex2")])
    assert code == 0
    report = json.loads(out)
    assert report["sorted_utilities"] == [0, 2]
    assert report["usw"] == 2
    assert report["allocation"]["unallocated"] == []


def test_solve_is_byte_identical(fixture_file, capsys):
    path = fixture_file("ex_ef1")
    _, first, _ = run(capsys, ["solve", "--instance", path])
    _, second, _ = run(capsys, ["solve", "--instance", path])
    assert first == second


def test_solve_human_and_trace_and_dump(fixture_file, capsys):
    path = fixture_file("ex_ef1")
    code, out, err = run(
        capsys, ["solve", "--instance", path, "--human", "--trace", "--dump-graph"]
    )
    assert code == 0
    assert "sorted utilities: [3, 3]" in out
    assert any(line.startswith("phase2 ") for line in err.splitlines())
    assert any("w=" in line for line in err.splitlines())


def test_solve_rejects_invalid_instance(fixture_file, capsys):
    code, _, err = run(capsys, ["solve", "--instance", fixture_file("non_on")])
    assert code == 4
    assert "order neutrality" in err


def test_brute_command(fixture_file, capsys):
    code, out, _ = run(capsys, ["brute", "--instance", fixture_file("ex_mms")])
    assert code == 0
    report = json.loads(out)
    assert report["sorted_utilities"] == [0, 0]
    assert report["max_usw"] == 0


def test_verify_all_props_on_solver_output(tmp_path, fixture_file, capsys):
    # additive instance: every guarantee should hold on the solver's output
    inst_path = tmp_path / "inst.json"
    from manna.instgen import gen_random_additive

    inst = gen_random_additive(2, 5, 2, (1, 1, 2), 12)
    inst_path.write_text(serialize_instance(inst))
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(serialize_allocation(solve(inst).allocation))
    code, out, _ = run(
        capsys,
        [
            "verify",
            "--instance", str(inst_path),
            "--allocation", str(alloc_path),
            "--props", "leximin,prop1,ef1,mms,lorenz,usw",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert set(report["properties"]) == {"leximin", "prop1", "ef1", "mms", "lorenz", "usw"}


def test_verify_flags_ef1_violation(tmp_path, fixture_file, capsys):
    inst = fixtures()["ex_ef1"]
    inst_path = fixture_file("ex_ef1")
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(serialize_allocation(solve(inst).allocation))
    code, out, _ = run(
        capsys,
        ["verify", "--instance", inst_path, "--allocation", str(alloc_path),
         "--props", "ef1"],
    )
    assert code == 1
    report = json.loads(out)
    assert report["properties"]["ef1"]["pairs"]["1,2"] is False


def test_verify_budget_exceeded(tmp_path, fixture_file, capsys, monkeypatch):
    inst_path = fixture_file("ex2")
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(serialize_allocation(solve(fixtures()["ex2"]).allocation))
    monkeypatch.setenv("MANNA_ORACLE_BUDGET", "3")
    code, _, err = run(
        capsys,
        ["verify", "--instance", inst_path, "--allocation", str(alloc_path),
         "--props", "leximin"],
    )
    assert code == 3
    assert "budget" in err


def test_verify_unknown_prop_is_usage_error(tmp_path, fixture_file, capsys):
    inst_path = fixture_file("ex2")
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(serialize_allocation(solve(fixtures()["ex2"]).allocation))
    code, _, err = run(
        capsys,
        ["verify", "--instance", inst_path, "--allocation", str(alloc_path),
         "--props", "karma"],
    )
    assert code == 2
    assert "unknown property" in err


@pytest.mark.parametrize("prop", ["leximin", "prop1", "ef1", "mms", "lorenz", "usw"])
@pytest.mark.parametrize(
    "bundles, unallocated",
    [([[0, 1]], [2, 3]), ([[0], [1], [3]], [2])],
    ids=["fewer-bundles", "more-bundles"],
)
def test_verify_rejects_an_allocation_of_another_agent_count(
    tmp_path, fixture_file, capsys, prop, bundles, unallocated
):
    # ex2 has two agents and four items; every item is covered either way
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"bundles": bundles, "unallocated": unallocated}))
    code, out, err = run(
        capsys,
        ["verify", "--instance", fixture_file("ex2"), "--allocation", str(alloc_path),
         "--props", prop],
    )
    assert code == 4
    assert out == ""
    assert f"has {len(bundles)} bundles, expected 2" in err
    assert "Traceback" not in err


def test_verify_rejects_an_empty_property_list(tmp_path, fixture_file, capsys):
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(serialize_allocation(solve(fixtures()["ex2"]).allocation))
    code, out, err = run(
        capsys,
        ["verify", "--instance", fixture_file("ex2"), "--allocation", str(alloc_path),
         "--props", ","],
    )
    assert code == 2
    assert out == ""
    assert "names no property" in err


def test_gen_additive_round_trips(tmp_path, capsys):
    out_path = tmp_path / "gen.json"
    code, _, _ = run(
        capsys,
        ["gen", "additive", "--agents", "2", "--items", "4", "--c", "1",
         "--weights", "1:1:2", "--seed", "42", "--output", str(out_path)],
    )
    assert code == 0
    from manna.instgen import gen_random_additive, parse_instance

    assert parse_instance(out_path.read_text()) == gen_random_additive(
        2, 4, 1, (1, 1, 2), 42
    )


def test_gen_hardness_decides_matching(tmp_path, capsys):
    out_path = tmp_path / "hard.json"
    code, _, _ = run(
        capsys,
        ["gen", "hardness", "--p", "3", "--q", "1", "--a", "2",
         "--edges", "0,2,4;1,3,5", "--output", str(out_path)],
    )
    assert code == 0
    from manna.instgen import parse_instance
    from manna.oracle import brute_leximin

    inst = parse_instance(out_path.read_text())
    assert brute_leximin(inst)[0][0] == 0
    # the solver refuses the general-additive class
    inst_path = tmp_path / "hard2.json"
    inst_path.write_text(out_path.read_text())
    code, _, err = run(capsys, ["solve", "--instance", str(inst_path)])
    assert code == 4


@pytest.mark.parametrize("edges", ["0,x,2", "0,1,2,"])
def test_gen_hardness_rejects_malformed_edges(capsys, edges):
    code, _, err = run(
        capsys,
        ["gen", "hardness", "--p", "3", "--q", "1", "--a", "2", "--edges", edges],
    )
    assert code == 2
    assert err.startswith("error: --edges ")
    assert "Traceback" not in err


def test_validate_command(fixture_file, capsys):
    code, out, _ = run(capsys, ["validate", "--instance", fixture_file("fig1")])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    code, out, _ = run(capsys, ["validate", "--instance", fixture_file("non_on")])
    assert code == 4
    report = json.loads(out)
    assert report["agents"][0]["order_neutral"] is False


# Agent 2's table fails all three validators; the report pins each witness.
FAILING_TABLES = {
    "c": 1, "num_agents": 2, "num_items": 3,
    "agents": [
        {"kind": "explicit", "table": {
            "": 0, "0": 1, "1": 1, "0,1": 1, "2": 1, "0,2": 1, "1,2": 1, "0,1,2": 1}},
        {"kind": "explicit", "table": {
            "": 0, "0": 1, "1": 0, "0,1": 2, "2": 1, "0,2": 1, "1,2": 1, "0,1,2": 3}},
    ],
}
FAILING_REPORT = """{
  "agents": [
    {
      "agent": 1,
      "checked": true,
      "kind": "Explicit",
      "order_neutral": true,
      "range": true,
      "submodular": true
    },
    {
      "agent": 2,
      "checked": true,
      "kind": "Explicit",
      "order_neutral": false,
      "order_neutral_witness": "bundle [0, 1] has telescoping vectors (0, 2) and (1, 1)",
      "range": false,
      "range_witness": "marginal of item 0 on [1] is 2",
      "submodular": false,
      "submodular_witness": "marginal of item 0 grows from 1 to 2"
    }
  ],
  "ok": false
}
"""


def test_validate_failing_tables_report_is_byte_identical(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(FAILING_TABLES))
    code, out, _ = run(capsys, ["validate", "--instance", str(path)])
    assert code == 4
    assert out == FAILING_REPORT


# Agent 1 is additive in {-1, 0, c}, agent 2 general additive, agent 3 capped:
# only the general additive agent is left unchecked.
MIXED_REPORT = """{
  "agents": [
    {
      "agent": 1,
      "checked": true,
      "kind": "Additive",
      "order_neutral": true,
      "range": true,
      "submodular": true
    },
    {
      "agent": 2,
      "checked": false,
      "kind": "GeneralAdditive",
      "note": "general additive values; oracle-only"
    },
    {
      "agent": 3,
      "checked": true,
      "kind": "CappedGroups",
      "order_neutral": true,
      "range": true,
      "submodular": true
    }
  ],
  "ok": true
}
"""


def test_validate_mixed_kinds_report_is_byte_identical(capsys):
    path = str(Path(__file__).parent / "golden" / "mixed_kinds.json")
    code, out, _ = run(capsys, ["validate", "--instance", path])
    assert code == 0
    assert out == MIXED_REPORT


@pytest.mark.parametrize("num_items", [-1, 21, 10**12])
def test_solve_rejects_explicit_item_count_out_of_range(tmp_path, capsys, num_items):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "c": 1, "num_agents": 1, "num_items": num_items,
        "agents": [{"kind": "explicit", "table": {"": 0}}],
    }))
    code, _, err = run(capsys, ["solve", "--instance", str(path)])
    assert code == 4
    assert f"explicit tables cover 0 to 20 items, not {num_items}" in err


def test_bench_csv(capsys):
    code, out, _ = run(
        capsys,
        ["bench", "--family", "additive", "--sizes", "2x4,2x5", "--c", "2",
         "--seed", "5"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("family,n,m,c,seed,seconds")
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.endswith("True")


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, ["solve", "--instance", "/nonexistent.json"])
    assert code == 2


def _directory(tmp_path):
    return ["solve", "--instance", str(tmp_path)]


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"c": 1, "note": "caf\xe9"}')
    return ["solve", "--instance", str(path)]


def _deeply_nested(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    return ["solve", "--instance", str(path)]


def _output_directory(tmp_path):
    path = tmp_path / "ex2.json"
    path.write_text(serialize_instance(fixtures()["ex2"]))
    return ["solve", "--instance", str(path), "--output", str(tmp_path)]


@pytest.mark.parametrize(
    "argv, code",
    [(_directory, 2), (_not_utf8, 4), (_deeply_nested, 4), (_output_directory, 2)],
    ids=["instance-is-a-directory", "instance-not-utf8", "deeply-nested", "output-is-a-directory"],
)
def test_unreadable_input_and_output_exit_with_their_code(tmp_path, capsys, argv, code):
    got, _, err = run(capsys, argv(tmp_path))
    assert got == code
    assert err.startswith("error: ")
    assert "Traceback" not in err


# exit code and message prefix of every MannaError subclass
EXIT_CODES = {
    errors.ContractViolation: (2, "error"),
    errors.MalformedValuation: (4, "error"),
    errors.UnsupportedValuation: (4, "error"),
    errors.InvalidInstance: (4, "error"),
    errors.DecompositionFailure: (2, "internal error"),
    errors.CleannessViolation: (2, "internal error"),
    errors.TerminationGuard: (2, "internal error"),
    errors.BudgetExceeded: (3, "error"),
    errors.ParseError: (4, "error"),
}


def test_every_manna_error_has_its_exit_code(fixture_file, capsys, monkeypatch):
    assert set(EXIT_CODES) == set(errors.MannaError.__subclasses__())
    path = fixture_file("ex2")
    for cls, want in EXIT_CODES.items():
        exc = cls("where", "what") if cls is errors.ParseError else cls("what")

        def raising(inst, trace=None, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "solve", raising)
        code, _, err = run(capsys, ["solve", "--instance", path])
        assert (code, err.split(":")[0]) == want, cls.__name__
