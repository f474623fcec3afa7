"""Freeze the canonical report digest of every instance in every workload
universe into ``digests.json``.

Each report is checked the way the benchmark checks it (PROP1, EF1 on
all-additive instances).  ``desk-batch`` reports are also certified against
the brute-force oracles: the sorted utilities must equal
``oracle.brute_leximin``'s and the welfare ``oracle.brute_max_usw``'s.  Run
only on a commit whose reports are known good; the benchmark then holds every
later commit to byte-identical reports::

    python3 perfbench/freeze.py                      # every workload
    python3 perfbench/freeze.py --workload desk-batch
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import DIGESTS, fair, operate, report_digest
from workloads import WORKLOADS, import_manna

CERTIFIED_BY_ORACLE = ("desk-batch",)


def freeze(manna, name: str) -> list[str]:
    workload = WORKLOADS[name]
    digests = []
    for uid in range(workload.universe):
        text = manna.instgen.serialize_instance(workload.make(uid))
        start = time.perf_counter()
        inst, report, out = operate(manna, text)
        elapsed = time.perf_counter() - start
        if not fair(manna, inst, report):
            raise SystemExit(f"{name} #{uid}: fairness check failed")
        if name in CERTIFIED_BY_ORACLE:
            best, _ = manna.oracle.brute_leximin(inst)
            if tuple(report.sorted_utilities) != best:
                raise SystemExit(f"{name} #{uid}: not leximin ({report.sorted_utilities} < {best})")
            if report.usw != manna.oracle.brute_max_usw(inst):
                raise SystemExit(f"{name} #{uid}: welfare {report.usw} is not maximal")
        digests.append(report_digest(out))
        print(
            f"{name} #{uid}: n={inst.num_agents} m={inst.num_items} c={inst.c} "
            f"{elapsed:.4f} s pareto={report.pareto_augmentations} "
            f"exchange={report.exchange_augmentations}",
            flush=True,
        )
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args(argv)
    manna = import_manna()
    frozen = {}
    if DIGESTS.exists():
        with open(DIGESTS, encoding="utf-8") as fh:
            frozen = json.load(fh)
    for name in args.workload or sorted(WORKLOADS):
        frozen[name] = {"universe": WORKLOADS[name].universe, "digests": freeze(manna, name)}
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(frozen, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
