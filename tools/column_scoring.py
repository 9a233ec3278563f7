"""Time sampled's column scoring against the two alternatives to its rule.

    python3 tools/column_scoring.py --pairs 8 --out BENCH_28_columns.json

Run from any directory; kaczlab is imported from this checkout's ``src/`` and
the problems are built by ``benchmarks/workloads.py``, which this script
reads and does not change.  BLAS is pinned to one thread in this process's
environment before numpy loads.

sampled scores its columns from a kept A^T z exactly where
``RowColMatrix.col_grams_memoized()`` says another engine has started the
column Gram memo, and dots them elsewhere.  Each alternative is emulated by
replacing that method inside this process only:

* ``dots`` (the kept vector deleted): the method returns False, so every
  column is dotted;
* ``fill`` (fill the memo as the run goes): the method returns True wherever
  the column side fits ``GRAM_MEMO_ENTRIES``, so a run on a fresh matrix
  keeps A^T z from its first step and computes each column's Gram row on its
  first pick.

Cells, each of ``--pairs`` alternating pairs (odd pairs run the rule first):

* ``warm/<workload>`` for all three workloads: the problem is set up once,
  one grak and one agrak run start its column memo, as in a benchmark round,
  then sampled runs under the rule (kept A^T z) against ``dots``;
* ``cold/tomo-n60`` (its 5,000-step budget) and ``cold/sparse-tall`` (to its
  ``lise`` stop): every run sets the problem up anew, so the memo starts
  cold, and sampled runs alone under the rule (dots) against ``fill``.

Both runs of a pair use the same solver seed, ``1000 + pair``, and the
output counts the pairs whose final x and z are equal bit for bit.  Times are
``workloads.solve``'s, the wall time of one ``kaczlab.run`` call.  Per cell
the output holds every time, the median and quartiles
(``statistics.quantiles(values, n=4)``) of each arm, the ratio of the
medians alternative / rule, and in how many pairs the rule was faster.  The
file is rewritten after every cell.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import kaczlab as kl  # noqa: E402
from kaczlab.matrix import RowColMatrix  # noqa: E402
from workloads import WORKLOADS, solve  # noqa: E402

RULE = RowColMatrix.col_grams_memoized
ALTERNATIVES = {
    "dots": lambda mat: False,
    "fill": lambda mat: mat.n * mat.n <= kl.matrix.GRAM_MEMO_ENTRIES,
}
CELLS = (("warm", "sparse-tall", "dots"), ("warm", "dense-gauss", "dots"),
         ("warm", "tomo-n60", "dots"), ("cold", "tomo-n60", "fill"),
         ("cold", "sparse-tall", "fill"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pairs", type=int, default=8, help="alternating pairs per cell")
    p.add_argument("--out", type=Path, required=True, help="JSON file to write")
    return p.parse_args(argv)


def sampled_run(workload, problem, arm: str, seed: int) -> dict:
    """One sampled run with ``col_grams_memoized`` as ``arm`` says."""
    RowColMatrix.col_grams_memoized = ALTERNATIVES.get(arm, RULE)
    try:
        report, seconds = solve(workload, problem, "sampled", seed)
    finally:
        RowColMatrix.col_grams_memoized = RULE
    block = report.final_state.cache
    return {"seconds": seconds, "iterations": report.iterations,
            "kept_a_t_z": block.kept is not None,
            "iterate": report.final_state.x.tobytes() + report.final_state.z.tobytes()}


def _spread(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1_q3": [q[0], q[2]], "seconds": values}


def run_cell(state: str, name: str, alternative: str, pairs: int) -> dict:
    workload = WORKLOADS[name]
    problem = None
    if state == "warm":
        problem = workload.setup(workload.problem_seed)
        for engine in ("grak", "agrak"):
            solve(workload, problem, engine, 1000)
        assert problem.system.mat.col_grams_memoized()
    runs = {"rule": [], alternative: []}
    for pair in range(pairs):
        order = ("rule", alternative) if pair % 2 else (alternative, "rule")
        for arm in order:
            fresh = workload.setup(workload.problem_seed) if state == "cold" else problem
            runs[arm].append(sampled_run(workload, fresh, arm, 1000 + pair))
            if state == "cold" and arm == "rule":
                assert not fresh.system.mat.col_grams_memoized()
        print(f"{state}/{name} pair {pair}: " + " ".join(
            f"{arm} {runs[arm][-1]['seconds']:.3f} s" for arm in runs), file=sys.stderr)
    rule = [r["seconds"] for r in runs["rule"]]
    other = [r["seconds"] for r in runs[alternative]]
    cell = {"rule": _spread(rule), alternative: _spread(other)}
    cell[f"{alternative}_over_rule"] = statistics.median(other) / statistics.median(rule)
    cell["rule_lower_in_pairs"] = sum(r < o for r, o in zip(rule, other))
    cell["identical_iterates_in_pairs"] = sum(
        r["iterate"] == o["iterate"] for r, o in zip(runs["rule"], runs[alternative]))
    cell["iterations"] = [r["iterations"] for r in runs["rule"]]
    cell["kept_a_t_z"] = {arm: sorted({r["kept_a_t_z"] for r in runs[arm]}) for arm in runs}
    return cell


def main(argv=None):
    args = parse_args(argv)
    doc = {
        "command": f"python3 tools/column_scoring.py --pairs {args.pairs} --out {args.out}",
        "method": ("rule: the package as it stands (A^T z kept where the column Gram memo "
                   "has started); dots: col_grams_memoized patched to False; fill: patched "
                   "to 'the column side fits GRAM_MEMO_ENTRIES'. warm: one set-up, one grak "
                   "and one agrak run, then sampled pairs; cold: a fresh set-up per run, "
                   "sampled alone. Odd pairs run the rule first; both runs of a pair use "
                   "solver seed 1000 + pair."),
        "machine": (f"{platform.system()} {platform.machine()}, nproc {os.cpu_count()}, "
                    f"Python {platform.python_version()}, numpy {np.__version__}, "
                    f"scipy {scipy.__version__}, BLAS pinned to one thread"),
        "cells": {},
    }
    for state, name, alternative in CELLS:
        doc["cells"][f"{state}/{name}"] = run_cell(state, name, alternative, args.pairs)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
