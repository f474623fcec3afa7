"""Frozen solver reports at sizes brute force cannot reach.

Each case names a seeded generator call; its canonical report JSON
(``instgen.dumps(report_to_obj(solve(inst)))``) is stored under
``golden/reports/<name>.json``.  The test re-solves every case and compares
bytes, so an optimisation cannot quietly change an answer.  The additive
32x160 case, the largest, is marked ``slow``; it solves in 0.35-0.5 s on a
2-vCPU Xeon VM.  ``pytest -m "not slow"`` skips it.

To regenerate the corpus from a known-good tree::

    PYTHONPATH=src python tests/test_golden_reports.py [name ...]
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from manna import instgen
from manna.solver import solve

REPORTS = Path(__file__).parent / "golden" / "reports"

# name -> (family, n, m, seed); every case uses c = 2 and the defaults of
# ``manna bench`` (additive odds 1:1:2, capped groups and caps in 1..3).  The
# "chores" family is additive with odds 1:1:120, so phase 3 gives out most
# items: 54 of the 60 in its one case.
CASES = {
    **{f"additive_8x40_s{s}": ("additive", 8, 40, s) for s in range(4)},
    "additive_16x80_s0": ("additive", 16, 80, 0),
    **{f"capped_16x80_s{s}": ("capped", 16, 80, s) for s in range(4)},
    **{f"capped_32x160_s{s}": ("capped", 32, 160, s) for s in range(2)},
    "additive_32x160_s0": ("additive", 32, 160, 0),
    "additive_chores_8x60_s0": ("chores", 8, 60, 0),
}
SLOW = {"additive_32x160_s0"}


def make_instance(name: str):
    family, n, m, seed = CASES[name]
    if family == "additive":
        return instgen.gen_random_additive(n, m, 2, (1, 1, 2), seed)
    if family == "chores":
        return instgen.gen_random_additive(n, m, 2, (1, 1, 120), seed)
    return instgen.gen_capped_groups(n, m, 2, (1, 3), (1, 3), seed)


def render(name: str) -> str:
    return instgen.dumps(instgen.report_to_obj(solve(make_instance(name))))


@pytest.mark.parametrize(
    "name",
    [pytest.param(n, marks=pytest.mark.slow) if n in SLOW else n for n in CASES],
)
def test_report_is_byte_identical(name):
    assert render(name) == (REPORTS / f"{name}.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    REPORTS.mkdir(parents=True, exist_ok=True)
    for name in sys.argv[1:] or CASES:
        (REPORTS / f"{name}.json").write_text(render(name), encoding="utf-8")
        print(f"froze {name}")
