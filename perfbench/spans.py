"""Span recording for the benchmark's traced run.

``Tracer.install`` replaces each public function of manna by a wrapper at the
name its caller looks it up by (``manna.solver.build_weighted_graph`` is the
name ``phase2`` calls, ``manna.yankee.shortest_path_to_pool`` the one
``yankee_swap`` calls), so the program itself is not edited.  A wrapper
records a span: its name, start, end, its parent span and the operation it
belongs to.  Spans stay in memory in flat arrays until ``write`` puts them in
a gzipped TSV file at the end of the run.

Functions called millions of times per solve (the valuation ``marginal``
oracles, ``threshold.beta``) and ``Allocation`` construction get a counting
wrapper instead, which records no time.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, attribute, span name, record whether the result was not None)
SPANNED = (
    ("instgen", "parse_instance", "instgen.parse_instance", False),
    ("instgen", "report_to_obj", "instgen.report_to_obj", False),
    ("instgen", "dumps", "instgen.dumps", False),
    ("solver", "solve", "solver.solve", False),
    ("solver", "check_supported", "solver.check_supported", False),
    ("solver", "phase1", "solver.phase1", False),
    ("solver", "phase2", "solver.phase2", False),
    ("solver", "phase3", "solver.phase3", False),
    ("solver", "validate_submodular", "valuations.validate_submodular", False),
    ("solver", "validate_order_neutral", "valuations.validate_order_neutral", False),
    ("solver", "validate_range", "valuations.validate_range", False),
    ("solver", "yankee_swap", "yankee.yankee_swap", False),
    ("yankee", "shortest_path_to_pool", "yankee.shortest_path_to_pool", True),
    ("exchange", "unweighted_adjacency", "exchange.unweighted_adjacency", False),
    ("solver", "build_weighted_graph", "exchange.build_weighted_graph", False),
    ("solver", "f_set", "exchange.f_set", False),
    ("solver", "min_weight_path", "exchange.min_weight_path", True),
    ("solver", "augment", "exchange.augment", False),
    ("solver", "clean_state_violations", "exchange.clean_state_violations", False),
    ("exchange", "clean_state_violations", "exchange.clean_state_violations", False),
    ("solver", "verify_tridecomposition", "threshold.verify_tridecomposition", False),
    ("fairness", "check_prop1", "fairness.check_prop1", False),
    ("fairness", "check_ef1", "fairness.check_ef1", False),
)

# (module, attribute or (class, method), counter name)
COUNTED = (
    ("exchange", "beta", "threshold.beta"),
    ("threshold", "beta", "threshold.beta"),
    ("valuations", ("Additive", "marginal"), "valuations.Additive.marginal"),
    ("valuations", ("CappedGroups", "marginal"), "valuations.CappedGroups.marginal"),
    ("valuations", ("Explicit", "marginal"), "valuations.Explicit.marginal"),
    ("core", ("Allocation", "__post_init__"), "core.Allocation"),
)

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.found: Counter[str] = Counter()
        self._counts: dict[str, list[int]] = {}
        self._stack = [NO_PARENT]
        self.current_op = NO_PARENT
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, record_found: bool = False):
        nid = self._name_id(name)
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        stack, found, clock = self._stack, self.found, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if record_found and result is not None:
                found[name] += 1
            return result

        return wrapper

    def counter(self, name: str, fn):
        box = self._counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count(self, name: str) -> int:
        return self._counts.get(name, [0])[0]

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, manna) -> None:
        """Wrap every function in ``SPANNED`` and ``COUNTED``."""
        for module, attr, name, record_found in SPANNED:
            owner = getattr(manna, module)
            self._patch(owner, attr, self.span(name, getattr(owner, attr), record_found))
        for module, attr, name in COUNTED:
            owner = getattr(manna, module)
            if isinstance(attr, tuple):
                owner, attr = getattr(owner, attr[0]), attr[1]
            self._patch(owner, attr, self.counter(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def summary(self) -> dict[str, dict[str, float]]:
        """``calls``, ``busy_s`` and ``self_s`` per span name; self time is
        the span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.name)
        for idx, parent in enumerate(self.parent):
            if parent != NO_PARENT:
                child[parent] += self.end[idx] - self.start[idx]
        out = {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for n in self.names}
        for idx, nid in enumerate(self.name):
            row = out[self.names[nid]]
            dur = self.end[idx] - self.start[idx]
            row["calls"] += 1
            row["busy_s"] += dur
            row["self_s"] += dur - child[idx]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            t0 = self.start[0] if self.start else 0.0
            for idx, nid in enumerate(self.name):
                fh.write(
                    f"{idx}\t{self.parent[idx]}\t{self.op[idx]}\t{self.names[nid]}\t"
                    f"{self.start[idx] - t0:.9f}\t{self.end[idx] - t0:.9f}\n"
                )
