"""The manna benchmark: seeded solve workloads with checked outputs.

One process, one thread, a closed loop with one client: each operation does
what ``manna solve`` does for one instance, from its serialized JSON to the
canonical report text::

    instgen.parse_instance(text) -> solver.solve(inst)
        -> instgen.dumps(instgen.report_to_obj(report))

The loop starts operations until ``--seconds`` have passed.  Every operation
is checked outside its timed region: the report's SHA-256 must equal the
digest frozen in ``digests.json``, PROP1 must hold, and EF1 must hold when
every agent is additive (the only class where the solver guarantees it).  A
raised ``MannaError`` or a failed check counts the operation as failed.

The machine this benchmark was built on, a VM sharing its cores with other
tenants, changes speed by up to 2x from minute to minute.  So a calibration
slice of fixed pure-Python work, which calls no manna code, is timed every
quarter second of the loop (from a timer signal, so also in the middle of an
operation, whose latency excludes it) and around each set-up.  The gated times
are reported in reference seconds: wall seconds scaled by the speed the
calibration measured, relative to ``NOMINAL_CALIBRATION_S``.  A slower
manna still reads slower; a slower machine largely does not.  The wall-clock
figures and the measured speeds are printed too.

``--trace 0`` prints the end-to-end metrics.  The result line carries the
ones ``BENCHMARK.json`` gates: ``setup_s``, ``instances_per_s`` and
``peak_rss_mb``.  The lines before it also give ``latency_p50_ms``,
``latency_tail_ms`` and ``failed_ratio``, which are not gated (see
``BASELINE.md``).

``--trace 1`` wraps manna's functions (see ``spans.py``), prints the
per-layer metrics instead, writes the spans to ``perfbench/out/`` and checks
the trace against the reports.  The traced run solves a fixed list of
instances, the first ``traced_ops`` of the seed's pool, in whole passes until
``--seconds`` have passed.  Every per-layer figure is given per operation, so
a call count is exact for a seed and does not depend on how many operations
fitted in the run.  The self-check:
``exchange.augment`` must run once per augmentation the reports count, and
``solver.phase1`` once per operation.  Both modes check every report against
the same frozen digests, so tracing cannot change an answer unnoticed.
The last line of standard output is the JSON result::

    python3 perfbench/run.py --workload desk-batch --seed 0 --seconds 24 --trace 0

Seed 0 is the default seed; seed 7 is held out for checking a claim on a
seed its author did not tune on.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ROOT, WORKLOADS, MissingProgram, import_manna

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"
DEFAULT_SEED = 0
# The set-up is timed SETUP_REPEATS times, or fewer once SETUP_BUDGET_S of
# set-ups have run, but never fewer than SETUP_MIN_REPEATS.  Only
# explicit-validate, whose set-up takes ~1 s, stops early.
SETUP_REPEATS = 15
SETUP_MIN_REPEATS = 7
SETUP_BUDGET_S = 7.0
# Calibration: a fixed slice of pure-Python work that calls no manna code,
# timed every CALIBRATION_INTERVAL_S of the loop and before and after each
# set-up.  NOMINAL_CALIBRATION_S is its typical time on the 2-vCPU Xeon VM the
# baseline was measured on, where it ranged from 3 to 7 ms.
CALIBRATION_ITERATIONS = 2500
NOMINAL_CALIBRATION_S = 0.006
CALIBRATION_INTERVAL_S = 0.25
# Percentiles tried for the tail latency, highest first; one is reported only
# when at least ten samples lie beyond it.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests(workload: str) -> list[str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        frozen = json.load(fh)[workload]
    if frozen["universe"] != WORKLOADS[workload].universe:
        raise SystemExit(f"error: {DIGESTS.name} was frozen for another {workload} universe")
    return frozen["digests"]


def operate(manna, text: str):
    """The timed operation: what ``manna solve`` does for one instance."""
    instgen, solver = manna.instgen, manna.solver
    inst = instgen.parse_instance(text)
    report = solver.solve(inst)
    return inst, report, instgen.dumps(instgen.report_to_obj(report))


def fair(manna, inst, report) -> bool:
    """PROP1 always; EF1 only when every agent is additive."""
    fairness, valuations = manna.fairness, manna.valuations
    if not all(fairness.check_prop1(inst, report.allocation).values()):
        return False
    if all(isinstance(v, valuations.Additive) for v in inst.valuations):
        return all(fairness.check_ef1(inst, report.allocation).values())
    return True


def calibrate() -> float:
    """Time one calibration slice: set, dict and integer work shaped like
    the solver's, with no manna code.  The garbage collector is off during
    the slice, so that a collection walking manna's live heap cannot slow
    it: the slice measures the machine, not the size of manna's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seen: dict[frozenset, int] = {}
        total = 0
        for i in range(CALIBRATION_ITERATIONS):
            bundle = frozenset(range(i % 40))
            seen[bundle] = seen.get(bundle, 0) + len(bundle - {3, 5})
            total += i * i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Times a calibration slice every ``CALIBRATION_INTERVAL_S`` of wall
    time, from a timer signal, so that samples also fall inside long
    operations.  ``spent`` is the total time taken, which the caller
    subtracts from any operation the samples interrupted."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Calibration":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def speed(calibrations: list[float]) -> float:
    """The machine's speed relative to the nominal one, from the mean of the
    calibration times (the mean follows the mix of fast and slow periods)."""
    return NOMINAL_CALIBRATION_S / statistics.mean(calibrations)


def timed_setup(workload: str, seed: int) -> tuple[list[float], list[float], list[float], dict]:
    """Run the set-up (interpreter start, import, generate, serialize) in a
    fresh process up to ``SETUP_REPEATS`` times, with a calibration slice right
    before and after each.  Return the wall times, the same times in
    reference seconds (each scaled by the mean of its own two slices), every
    calibration time, and the generated pool."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed)]
    times, scaled, calibrations, pool = [], [], [calibrate()], None
    while len(times) < SETUP_REPEATS and (
        len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_BUDGET_S
    ):
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        times.append(time.perf_counter() - start)
        calibrations.append(calibrate())
        scaled.append(times[-1] * speed(calibrations[-2:]))
        if done.returncode != 0:
            raise SystemExit(f"error: set-up failed: {done.stderr.strip()}")
        pool = done.stdout
    return times, scaled, calibrations, json.loads(pool)


def tail_latency(latencies: list[float]):
    """Highest percentile of ``TAIL_PERCENTILES`` with at least ten samples
    beyond it, by nearest rank; ``None`` when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = -(-pct * n // 100)  # ceil
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[int(rank) - 1]
    return None


def measure(manna, uids: list[int], texts: list[str], digests: list[str], seconds: float,
            tracer=None):
    """Closed loop over ``texts`` until ``seconds`` have passed.  A traced
    run also finishes its last pass, so that it solves every instance of its
    fixed list equally often."""
    op = operate if tracer is None else tracer.span("bench.op", operate)
    latencies, augmentations = [], {"pareto": 0, "exchange": 0}
    attempted = failed = 0
    clock = time.perf_counter
    with Calibration() as calibration:
        deadline = clock() + seconds
        while clock() < deadline or (tracer is not None and attempted % len(texts)):
            k = attempted % len(texts)
            if tracer is not None:
                tracer.current_op = attempted
            attempted += 1
            spent, start = calibration.spent, clock()
            try:
                inst, report, out = op(manna, texts[k])
            except manna.errors.MannaError:
                failed += 1
                continue
            latencies.append(clock() - start - (calibration.spent - spent))
            augmentations["pareto"] += report.pareto_augmentations
            augmentations["exchange"] += report.exchange_augmentations
            if report_digest(out) != digests[uids[k]] or not fair(manna, inst, report):
                failed += 1
    return latencies, calibration.samples, attempted, failed, augmentations


def run_record(load_start, usage_start, setup_speed, loop_speed) -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "process.cpu_s": (usage.ru_utime + usage.ru_stime)
        - (usage_start.ru_utime + usage_start.ru_stime),
        "process.nivcsw": usage.ru_nivcsw - usage_start.ru_nivcsw,
        "machine.speed_setup": setup_speed,
        "machine.speed_loop": loop_speed,
    }


def per_layer(tracer, latencies, attempted, augmentations):
    """Per-layer metrics from the trace, each per operation, the trace's
    self-check problems (empty when the trace agrees with the reports) and a
    printable table of every span, also per operation."""
    table = tracer.summary()

    def row(name):
        return table.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    metrics = {"bench.op.latency_p50_ms": (1e3 * statistics.median(latencies), "ms")}
    for name in (
        "instgen.parse_instance", "instgen.report_to_obj", "instgen.dumps",
        "solver.check_supported", "solver.phase1", "solver.phase2", "solver.phase3",
        "yankee.shortest_path_to_pool", "exchange.unweighted_adjacency",
        "exchange.build_weighted_graph", "exchange.min_weight_path", "exchange.f_set",
        "exchange.augment", "exchange.clean_state_violations",
        "threshold.verify_tridecomposition", "valuations.validate_submodular",
        "valuations.validate_order_neutral", "valuations.validate_range",
        "fairness.check_prop1", "fairness.check_ef1",
    ):
        metrics[f"{name}.busy_s"] = (row(name)["busy_s"] / attempted, "s/op")
    for name in (
        "solver.phase1", "yankee.shortest_path_to_pool", "exchange.unweighted_adjacency",
        "exchange.build_weighted_graph", "exchange.min_weight_path", "exchange.augment",
    ):
        metrics[f"{name}.calls"] = (row(name)["calls"] / attempted, "count/op")
    for name in ("solver.phase2", "yankee.shortest_path_to_pool", "exchange.min_weight_path"):
        metrics[f"{name}.self_s"] = (row(name)["self_s"] / attempted, "s/op")
    for name in ("yankee.shortest_path_to_pool", "exchange.min_weight_path"):
        calls = row(name)["calls"]
        metrics[f"{name}.found_ratio"] = (tracer.found[name] / calls if calls else 0.0, "ratio")
    for name in (
        "threshold.beta", "valuations.Additive.marginal",
        "valuations.CappedGroups.marginal", "valuations.Explicit.marginal", "core.Allocation",
    ):
        metrics[f"{name}.calls"] = (tracer.count(name) / attempted, "count/op")
    for kind in ("pareto", "exchange"):
        metrics[f"solver.{kind}_augmentations"] = (augmentations[kind] / attempted, "count/op")

    problems = []
    total = augmentations["pareto"] + augmentations["exchange"]
    if row("exchange.augment")["calls"] != total:
        problems.append(
            f"exchange.augment.calls={row('exchange.augment')['calls']} but the reports "
            f"sum to {total} augmentations"
        )
    if row("solver.phase1")["calls"] != attempted:
        problems.append(f"solver.phase1.calls={row('solver.phase1')['calls']} for {attempted} operations")
    lines = [f"per operation, over {attempted} operations:",
             f"{'span':40s} {'calls':>12s} {'busy_s':>12s} {'self_s':>12s}"]
    for name in sorted(table, key=lambda n: -table[n]["busy_s"]):
        r = table[name]
        lines.append(f"{name:40s} {r['calls'] / attempted:12.6g} {r['busy_s'] / attempted:12.6g} "
                     f"{r['self_s'] / attempted:12.6g}")
    return metrics, problems, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_start = os.getloadavg()
    usage_start = resource.getrusage(resource.RUSAGE_SELF)
    try:
        manna = import_manna()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    digests = load_digests(args.workload)
    setup_times, setup_scaled, setup_calibrations, pool = timed_setup(args.workload, args.seed)
    uids, texts = pool["uids"], pool["texts"]

    tracer = None
    if args.trace:
        from spans import Tracer

        traced_ops = WORKLOADS[args.workload].traced_ops
        uids, texts = uids[:traced_ops], texts[:traced_ops]
        tracer = Tracer()
        tracer.install(manna)
    try:
        latencies, calibrations, attempted, failed, augmentations = measure(
            manna, uids, texts, digests, args.seconds, tracer
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not latencies:
        print("error: no operation completed", file=sys.stderr)
        return 1
    setup_speed, loop_speed = speed(setup_calibrations), speed(calibrations)
    record = run_record(load_start, usage_start, setup_speed, loop_speed)
    print("run " + json.dumps({"workload": args.workload, "seed": args.seed,
                             "setup_repeats": len(setup_times), **record}))
    print(f"operations attempted={attempted} failed={failed} failed_ratio={failed / attempted:.6f}")

    problems = []
    if tracer is None:
        setup_wall = statistics.median(setup_times)
        per_s_wall = (attempted - failed) / sum(latencies)
        # Gated times are in reference seconds: wall seconds scaled by the
        # machine speed the calibration measured around the same work.
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "instances_per_s": (per_s_wall / loop_speed, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"wall clock: setup_s={setup_wall:.6g} s instances_per_s={per_s_wall:.6g} 1/s "
              f"latency_p50_ms={1e3 * statistics.median(latencies):.6g} ms")
        tail = tail_latency(latencies)
        if tail is None:
            print(f"latency_tail_ms: none ({len(latencies)} samples, fewer than "
                  f"{TAIL_MIN_BEYOND} beyond p{TAIL_PERCENTILES[-1]:g})")
        else:
            print(f"latency_tail_ms: p{tail[0]:g} = {1e3 * tail[1]:.4f} ms (wall clock) "
                  f"over {len(latencies)} samples")
    else:
        metrics, problems, lines = per_layer(tracer, latencies, attempted, augmentations)
        print("\n".join(lines))
        tracer.write(OUT / f"spans-{args.workload}.tsv.gz")
        for problem in problems:
            print(f"trace self-check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
