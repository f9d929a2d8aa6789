"""Measure how far other valid direct solves move a workload's rows.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/tolerance.py NAME

Runs the workload's levels once for each SuperLU column ordering below
(every solve still has to meet the solver's residual contract) and
prints, per level, the largest relative distance of a row value from its
pinned value in ``reference.json``.  The gate tolerances there rest on
these distances.
"""

import argparse
import functools
import sys
from pathlib import Path

import scipy.sparse.linalg as spla

import workloads

ORDERINGS = ("COLAMD", "MMD_AT_PLUS_A", "MMD_ATA")
OUT_DIR = Path(__file__).resolve().parent / "out" / "tolerance"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    reference = workloads.load_reference()
    pinned = reference[args.workload]["rows"]
    splu = spla.splu
    try:
        for ordering in ORDERINGS:
            spla.splu = functools.partial(splu, permc_spec=ordering)
            workload = workloads.make(args.workload, OUT_DIR)
            for lv in workloads.run_levels(workload, workload.setup(),
                                           reference):
                if "row" not in lv:
                    print(f"{ordering} {lv['level']}: {lv['error']}")
                    continue
                values = pinned[lv["level"]]["values"]
                dist = max((abs(lv["row"][key] - want) / abs(want)
                            for key, want in values.items() if want),
                           default=0.0)
                print(f"{ordering} {lv['level']}: {dist:.2e}")
    finally:
        spla.splu = splu


if __name__ == "__main__":
    sys.exit(main())
