"""Smoke test of the benchmark's traced mode.

``perfbench/spans.py`` wraps manna's functions at the names their callers
look them up by, so renaming one of them would break ``run.py --trace 1``
without any other test noticing.  This test installs the tracer, solves a
few ``desk-batch`` instances through the benchmark's own operation, and
checks the reports and the trace's self-check against each other.  It reads
``perfbench/`` and writes nothing there.
"""

from pathlib import Path

import manna

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
INSTANCES = 8


def test_traced_desk_batch_matches_digests_and_counts_augmentations(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import spans
    import workloads

    workload = workloads.WORKLOADS["desk-batch"]
    uids = workloads.pool_ids(workload, run.DEFAULT_SEED)[:INSTANCES]
    texts = workloads.generate(workload, uids)
    digests = run.load_digests("desk-batch")

    tracer = spans.Tracer()
    tracer.install(manna)
    try:
        reports = [run.operate(manna, text) for text in texts]
    finally:
        tracer.uninstall()

    for uid, (_inst, _report, out) in zip(uids, reports):
        assert run.report_digest(out) == digests[uid]
    table = tracer.summary()
    augmentations = sum(
        r.pareto_augmentations + r.exchange_augmentations for _i, r, _o in reports
    )
    assert augmentations > 0
    assert table["exchange.augment"]["calls"] == augmentations
    assert table["solver.phase1"]["calls"] == INSTANCES
    assert table["yankee.shortest_path_to_pool"]["calls"] > 0
    assert table["exchange.unweighted_adjacency"]["calls"] > 0
