"""Alternating parent/change pairs of ``benchmarks/run.py``, summarized per metric.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload sparse-tall \\
        --seeds 1-5 --out BENCH_pairs.json

The parent side is ``git archive <rev>`` of this repository, unpacked into a
temporary directory; the change side is this checkout as it stands on disk.
For each workload and seed the two sides run one after the other, each as a
child process that runs ``benchmarks/run.py --workload W --seed S --seconds T
--trace 0`` from its own tree; the side that goes first alternates with the
seed (odd seeds: parent first), so a slow spell of the machine does not land
on one side.  Only one run is alive at a time.  The parent process waits for
each run with ``os.wait4``, whose ``ru_maxrss`` is the run's peak RSS.

The output holds every run (its JSON result line, the steps and rse lines it
printed on standard error, its peak RSS in MiB) and, per workload and
metric, the median and quartiles (``statistics.quantiles(values, n=4)``) of
each side, their ratio change / parent, and in how many pairs the change
read lower and higher.  ``rse_identical_in_pairs`` counts the pairs whose
four ``*.rse`` values are all equal.  The file is rewritten after every pair,
so an interrupted session keeps the pairs it finished.

A metric has moved when the change's median lies outside the parent's
quartiles and the change is lower (or higher) in most pairs.  That rule
only describes movement; the bounds in ``BENCHMARK.json`` are what a change
is judged by.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = "benchmarks/run.py"


def parse_seeds(text: str) -> list[int]:
    """'1-5,9' -> [1, 2, 3, 4, 5, 9]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--workload", action="append", required=True,
                   help="workload name; repeat for several")
    p.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-5 or 1,3,7")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--out", type=Path, required=True, help="JSON file to write")
    return p.parse_args(argv)


def extract(rev: str, dest: Path) -> str:
    """Unpack ``rev``'s tree into ``dest``; returns its full commit id."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"error: git archive {commit} failed")
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in its own process; its result, stderr lines and peak RSS."""
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(argv, cwd=tree, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        lines = out.read().splitlines()
        log = [line.rstrip() for line in err.read().splitlines() if line.strip()]
    if not lines:
        raise SystemExit(f"error: {' '.join(argv)} in {tree} printed no result "
                         f"(exit {proc.returncode}):\n" + "\n".join(log[-20:]))
    return {"result": json.loads(lines[-1]), "steps_and_rse": log,
            "peak_rss_mb": usage.ru_maxrss / 1024}


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def summarize(runs: dict) -> dict:
    """Per metric: both sides' medians and quartiles, their ratio and the pair wins."""
    seeds = [s for s in runs["parent"] if s in runs["change"]]
    side = {name: [runs[name][s]["result"] for s in seeds] for name in ("parent", "change")}
    out = {"pairs": len(seeds), "seeds": seeds}
    for metric in side["parent"][0]["metrics"] if seeds else []:
        par = [r["metrics"][metric]["value"] for r in side["parent"]]
        chg = [r["metrics"][metric]["value"] for r in side["change"]]
        pm, cm = statistics.median(par), statistics.median(chg)
        out[metric] = {
            "parent_median": pm,
            "parent_q1_q3": _quartiles(par),
            "change_median": cm,
            "change_q1_q3": _quartiles(chg),
            "change_over_parent": cm / pm if pm else None,
            "change_lower_in_pairs": sum(c < p for p, c in zip(par, chg)),
            "change_higher_in_pairs": sum(c > p for p, c in zip(par, chg)),
        }
    out["rse_identical_in_pairs"] = sum(
        all(p["metrics"][m] == c["metrics"][m] for m in p["metrics"] if m.endswith(".rse"))
        for p, c in zip(side["parent"], side["change"]))
    out["failed"] = {name: sum(r["failed"] for r in side[name]) for name in side}
    return out


def main(argv=None):
    args = parse_args(argv)
    import numpy
    import scipy

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        commit = extract(args.parent, Path(tmp))
        trees = {"parent": Path(tmp), "change": ROOT}
        doc = {
            "command": f"python3 {RUN} --workload W --seed S --seconds {args.seconds:g} "
                       "--trace 0",
            "sides": {"parent": f"commit {commit[:7]}", "change": "the checkout on disk"},
            "method": (f"python3 tools/bench_pairs.py --parent {args.parent} "
                       + " ".join(f"--workload {w}" for w in args.workload)
                       + f" --seeds {','.join(map(str, args.seeds))} --seconds {args.seconds:g}"
                       + ": alternating pairs, one child process at a time, odd seeds run "
                       "the parent first; peak RSS from os.wait4."),
            "machine": (f"{platform.system()} {platform.machine()}, nproc {os.cpu_count()}, "
                        f"Python {platform.python_version()}, numpy {numpy.__version__}, "
                        f"scipy {scipy.__version__}, BLAS pinned to one thread by run.py"),
            "summary": {},
            "runs": {},
        }
        for workload in args.workload:
            runs = doc["runs"][workload] = {"parent": {}, "change": {}}
            for seed in args.seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for name in order:
                    runs[name][seed] = run_once(trees[name], workload, seed, args.seconds)
                    metrics = runs[name][seed]["result"]["metrics"]
                    print(f"{workload} seed {seed} {name}: " + " ".join(
                        f"{m} {v['value']:.3f}" for m, v in metrics.items()
                        if m.endswith("_s")), file=sys.stderr)
                doc["summary"][workload] = summarize(runs)
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
