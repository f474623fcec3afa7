"""Smoke test of the benchmark's traced mode.

``perfbench/spans.py`` wraps manna's functions at the names their callers
look them up by, so renaming one of them would break ``run.py --trace 1``
without any other test noticing.  These tests install the tracer, solve a
few ``desk-batch`` instances, one ``explicit-validate`` instance and one
``additive-balance`` instance through the benchmark's own operation, and
check the reports and the trace's counts against each other.  They read
``perfbench/`` and write nothing there.
"""

from pathlib import Path

import manna

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
INSTANCES = 8


def _traced(monkeypatch, name, count):
    """Solve the first ``count`` instances of workload ``name`` at the default
    seed under the tracer, check each report against its frozen digest, and
    return the ``(instance, report, output)`` triples and the tracer."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    uids = workloads.pool_ids(workload, run.DEFAULT_SEED)[:count]
    texts = workloads.generate(workload, uids)
    digests = run.load_digests(name)

    tracer = spans.Tracer()
    tracer.install(manna)
    try:
        reports = [run.operate(manna, text) for text in texts]
    finally:
        tracer.uninstall()

    for uid, (_inst, _report, out) in zip(uids, reports):
        assert run.report_digest(out) == digests[uid]
    return reports, tracer


def test_traced_desk_batch_matches_digests_and_counts_augmentations(monkeypatch):
    reports, tracer = _traced(monkeypatch, "desk-batch", INSTANCES)
    table = tracer.summary()
    augmentations = sum(
        r.pareto_augmentations + r.exchange_augmentations for _i, r, _o in reports
    )
    assert augmentations > 0
    assert table["exchange.augment"]["calls"] == augmentations
    assert table["solver.phase1"]["calls"] == INSTANCES
    assert table["yankee.shortest_path_to_pool"]["calls"] > 0
    assert table["exchange.unweighted_adjacency"]["calls"] > 0


def test_traced_explicit_validate_runs_each_validator_per_agent(monkeypatch):
    reports, tracer = _traced(monkeypatch, "explicit-validate", 1)
    ((inst, _report, _out),) = reports
    assert inst.num_agents == 4
    table = tracer.summary()
    for name in ("submodular", "order_neutral", "range"):
        assert table[f"valuations.validate_{name}"]["calls"] == inst.num_agents


def test_traced_additive_balance_runs_every_search_through_the_solver(monkeypatch):
    # The counts a solve made when each phase-2 search was one eager Dijkstra
    # run: a search that bypassed ``solver.min_weight_path``, or an engine
    # that found other paths, would change them.
    reports, tracer = _traced(monkeypatch, "additive-balance", 1)
    ((_inst, report, _out),) = reports
    assert (report.pareto_augmentations, report.exchange_augmentations) == (80, 321)
    table = tracer.summary()
    assert table["exchange.min_weight_path"]["calls"] == 680
    assert tracer.found["exchange.min_weight_path"] == 401
    assert table["exchange.augment"]["calls"] == 401
