"""Seeded workload inputs for the manna benchmark.

Each workload draws its instances from a finite universe of ``universe``
instances, numbered ``0 .. universe-1``.  Instance ``uid`` of a workload is
always the same instance, so its canonical report digest can be frozen once
(``digests.json``, written by ``freeze.py``) and every timed operation is
checked against it.  A run's ``--seed`` picks which ``pool`` instances of the
universe the run uses and in which order; the operation loop cycles through
that pool.

Run as a script, this module performs the benchmark's set-up in a fresh
interpreter: import manna, generate and serialize the pool, and print it as
JSON on stdout.  ``run.py`` times that process to obtain ``setup_s``::

    python3 perfbench/workloads.py --workload desk-batch --seed 0
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(Exception):
    """The checkout holds no importable ``manna`` package under ``src``."""


def import_manna():
    """Import manna from this checkout's ``src`` and nowhere else."""
    if not (SRC / "manna" / "__init__.py").is_file():
        raise MissingProgram(f"no manna package under {SRC}")
    sys.path.insert(0, str(SRC))
    import manna

    if not Path(manna.__file__).resolve().is_relative_to(SRC):
        raise MissingProgram(f"manna imported from {manna.__file__}, not {SRC}")
    return manna


@dataclass(frozen=True)
class Workload:
    name: str
    universe: int
    pool: int
    traced_ops: int
    make: Callable[[int], object]


def relabel(inst, uid: int):
    """The instance with its agents and items renumbered by permutations
    drawn from ``uid``.  The leximin value is unchanged; the solver's
    index-based tie-breaks, and so its paths and report, are not."""
    from manna.core import Instance
    from manna.valuations import Additive, CappedGroups, Group

    rng = random.Random(uid)
    agents = list(inst.agents)
    rng.shuffle(agents)
    items = list(inst.items)
    rng.shuffle(items)
    specs = []
    for agent in agents:
        spec = inst.valuation(agent)
        if isinstance(spec, Additive):
            values = [0] * inst.num_items
            for o, v in enumerate(spec.values):
                values[items[o]] = v
            specs.append(Additive(tuple(values)))
        else:
            groups = tuple(
                Group(frozenset(items[o] for o in g.items), g.cap, g.hi, g.lo)
                for g in spec.groups
            )
            specs.append(CappedGroups(groups, spec.default))
    return Instance(inst.num_agents, inst.num_items, inst.c, tuple(specs))


def _additive_balance(uid: int):
    from manna import instgen

    return relabel(instgen.gen_random_additive(16, 80, 2, (1, 1, 2), 0), uid)


def _capped_seed(uid: int):
    from manna import instgen

    return relabel(instgen.gen_capped_groups(32, 160, 2, (1, 3), (1, 3), 0), uid)


def _explicit_validate(uid: int):
    """Four agents, each valuing 12 items by the graphic-matroid rank of a
    random 12-edge multigraph on six vertices (parallel edges allowed)."""
    from manna import instgen
    from manna.core import Instance

    rng = random.Random(uid)
    tables = []
    for _ in range(4):
        edges = []
        for _ in range(12):
            u, v = rng.sample(range(6), 2)
            edges.append((u, v))
        tables.append(instgen.graphic_matroid_rank_table(12, edges))
    return Instance(4, 12, 1, tuple(tables))


def _desk_batch(uid: int):
    """The desk-scale mix the acceptance suite certifies: both families,
    n in {2, 3}, m in {4..8}, c in {1, 2, 3}."""
    from manna import instgen

    rng = random.Random(uid)
    n, m, c = rng.choice((2, 3)), rng.randint(4, 8), rng.randint(1, 3)
    if rng.random() < 0.5:
        return instgen.gen_random_additive(n, m, c, (1, 1, 2), 3000 + uid)
    return instgen.gen_capped_groups(n, m, c, (1, 3), (1, 3), 3000 + uid)


# A run completes only about 5 (additive-balance) or 10 (capped-seed)
# operations, too few for the median to average out differences between
# instances.  Measured in one pass over 24-32 instances each, independent
# random instances of those sizes differ in solve time by 16-18% (coefficient
# of variation), relabelings of one generated instance by about 12%, so those
# two universes are relabelings.  Their pool is the whole seeded universe.  On
# the fast workloads the pool is cut to keep set-up short, and the loop cycles
# through it.  The traced run solves only the first ``traced_ops`` instances
# of the pool, in whole passes, so that its per-operation counts are exact for
# a seed; on the two large workloads that keeps one pass within ~20 s.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("additive-balance", universe=24, pool=24, traced_ops=3, make=_additive_balance),
        Workload("capped-seed", universe=32, pool=32, traced_ops=4, make=_capped_seed),
        Workload("explicit-validate", universe=32, pool=4, traced_ops=4, make=_explicit_validate),
        Workload("desk-batch", universe=512, pool=256, traced_ops=256, make=_desk_batch),
    )
}


def pool_ids(workload: Workload, seed: int) -> list[int]:
    """The universe ids a run with ``seed`` uses, in operation order."""
    ids = list(range(workload.universe))
    random.Random(seed).shuffle(ids)
    return ids[: workload.pool]


def generate(workload: Workload, uids: list[int]) -> list[str]:
    from manna import instgen

    return [instgen.serialize_instance(workload.make(uid)) for uid in uids]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    try:
        import_manna()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    uids = pool_ids(workload, args.seed)
    json.dump({"uids": uids, "texts": generate(workload, uids)}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
