"""Time to solution and error of every kaczlab engine on one workload.

    python3 benchmarks/run.py --workload sparse-tall --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
process, one ``kaczlab.run`` at a time, BLAS pinned to one thread.  The run
sets the problem up ``SETUPS`` times (``setup_s`` is the median), then runs
whole rounds (every engine on each of its solver seeds) until ``--seconds``
have passed.  Each (engine, seed) run is one operation and is checked; one
that fails a check counts in ``failed``.  With ``--trace 1`` the same rounds
run once more with every call into kaczlab's public functions wrapped, and
the per-layer metrics are printed instead of the end-to-end ones.  The last
line of standard output is the JSON result; a table goes to standard error.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUPS = 5

ENGINES = ("rek", "grak", "agrak", "sampled")
ENGINE_LAYERS = {
    "rek": ("matrix.row_dot", "matrix.col_dot", "matrix.add_row_to", "matrix.add_col_to",
            "sampling.weighted_row_sample", "sampling.weighted_column_sample"),
    "grak": ("matrix.gram_row_update", "matrix.gram_col_update", "matrix.add_row_to",
             "matrix.add_col_to", "matrix.matvec", "matrix.rmatvec",
             "sampling.grak_residual_sample", "solvers.grak_build_selection"),
    "agrak": ("matrix.gram_row_update", "matrix.gram_col_update", "matrix.add_row_to",
              "matrix.add_col_to", "matrix.matvec", "matrix.rmatvec",
              "sampling.weighted_row_sample"),
    "sampled": ("sampling.simple_random_subset", "sampling.weighted_row_sample",
                "matrix.rows_dot", "matrix.cols_dot", "matrix.row_dot", "matrix.col_dot",
                "matrix.add_row_to", "matrix.add_col_to", "matrix.matvec", "matrix.rmatvec"),
}
SETUP_PHASES = (("problems.build_inconsistent_rhs_s", "rhs"),
                ("problems.reference_solution_s", "reference"),
                ("matrix.warm_s", "warm"))
GENERATOR_METRICS = ("problems.generate_s", "tomo.gen_paralleltomo_s")


def end_to_end_names():
    names = [("setup_s", "s")]
    names += [(f"{e}.solve_s", "s") for e in ENGINES]
    names += [(f"{e}.rse", "1") for e in ENGINES]
    return names


def per_layer_names():
    names = []
    for e in ENGINES:
        for layer in ENGINE_LAYERS[e]:
            names += [(f"{e}.{layer}.us", "us"), (f"{e}.{layer}.calls", "1/step")]
        names += [(f"{e}.solvers.steps", "steps"), (f"{e}.solvers.col_steps", "steps"),
                  (f"{e}.solvers.self_us", "us"),
                  (f"{e}.stopping.observe.us", "us"), (f"{e}.stopping.observe.calls", "1/step"),
                  (f"{e}.trace.overhead_s", "s")]
    names.append(("grak.solvers.candidates", "count"))
    names += [(m, "s") for m in GENERATOR_METRICS]
    names += [(m, "s") for m, _ in SETUP_PHASES]
    names.append(("problems.oracle_products", "count"))
    return names


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import kaczlab from this checkout's src/, never from anywhere else."""
    if not (SRC / "kaczlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no kaczlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kaczlab

    if Path(kaczlab.__file__).resolve().parent != SRC / "kaczlab":
        raise SystemExit(f"error: kaczlab imported from {kaczlab.__file__}, not {SRC}")


class Rounds:
    """Runs rounds of a workload's operations, checks each and counts failures."""

    def __init__(self, workload, problem, seed, premise_failures):
        self.workload = workload
        self.problem = problem
        self.seed = seed
        self.premise_failures = premise_failures
        self.failures = []
        self.attempted = 0

    def run(self, tracer=None):
        """Returns engine -> (summed wall seconds, [rse], [report])."""
        from workloads import check_run, solve

        out = {engine: (0.0, [], []) for engine in ENGINES}
        for engine, s in self.workload.schedule(self.seed):
            if tracer is None:
                report, secs = solve(self.workload, self.problem, engine, s)
            else:
                with tracer.segment(engine):
                    report, secs = solve(self.workload, self.problem, engine, s)
            err, failed = check_run(self.workload, self.problem, report)
            failed = self.premise_failures + failed
            self.attempted += 1
            if failed:
                self.failures.append(f"{engine} seed {s}: " + "; ".join(failed))
            wall, errs, reports = out[engine]
            errs.append(err)
            reports.append(report)
            out[engine] = (wall + secs, errs, reports)
        return out


def measure(workload, seed, seconds, trace):
    from tracing import Tracer
    from workloads import finish_problem

    tracer = Tracer() if trace else None

    def setup_once():
        if tracer is None:
            return workload.setup(workload.problem_seed)
        with tracer.installed(), tracer.segment("setup"):
            return workload.setup(workload.problem_seed)

    setups = []  # (seconds, phases) of every set-up; only the last system is kept
    for _ in range(SETUPS):
        problem = None  # release the previous matrix before building the next
        problem = setup_once()
        setups.append((problem.seconds, problem.phases))
    premise_failures = finish_problem(workload, problem)

    rounds = []
    counter = Rounds(workload, problem, seed, premise_failures)
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        rounds.append(counter.run())
    traced = []
    if tracer is not None:
        with tracer.installed():
            for _ in rounds:
                traced.append(counter.run(tracer))
    return setups, rounds, traced, tracer, counter


def end_to_end(setups, rounds):
    metrics = {"setup_s": statistics.median(secs for secs, _ in setups)}
    for e in ENGINES:
        metrics[f"{e}.solve_s"] = statistics.median(r[e][0] for r in rounds)
    for e in ENGINES:
        metrics[f"{e}.rse"] = statistics.median(x for r in rounds for x in r[e][1])
    return metrics


def per_layer(workload, setups, rounds, traced, tracer):
    from tracing import STEP_SPAN

    metrics = {name: 0.0 for name, _ in per_layer_names()}
    for e in ENGINES:
        reports = [rep for r in traced for rep in r[e][2]]
        steps = sum(rep.iterations for rep in reports)
        totals = tracer.totals({e})
        for layer in ENGINE_LAYERS[e] + ("stopping.observe",):
            calls, secs = totals.get(layer, (0, 0.0))
            metrics[f"{e}.{layer}.us"] = 1e6 * secs / calls if calls else 0.0
            metrics[f"{e}.{layer}.calls"] = calls / steps
        calls, secs = totals[STEP_SPAN]
        metrics[f"{e}.solvers.self_us"] = 1e6 * secs / calls
        metrics[f"{e}.solvers.steps"] = steps / len(reports)
        metrics[f"{e}.solvers.col_steps"] = (
            sum(rep.branch_counts["col"] for rep in reports) / len(reports))
        metrics[f"{e}.trace.overhead_s"] = (statistics.median(r[e][0] for r in traced)
                                            - statistics.median(r[e][0] for r in rounds))
    if tracer.selections:
        metrics["grak.solvers.candidates"] = tracer.candidates / tracer.selections
    metrics[workload.generator_metric] = statistics.median(ph["generate"] for _, ph in setups)
    for name, phase in SETUP_PHASES:
        metrics[name] = statistics.median(ph[phase] for _, ph in setups)
    totals = tracer.totals({"setup"})
    products = sum(totals.get(f"matrix.{f}", (0, 0.0))[0] for f in ("matvec", "rmatvec"))
    metrics["problems.oracle_products"] = products / len(setups)
    return metrics


def main(argv=None):
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    setups, rounds, traced, tracer, counter = measure(
        workload, args.seed, args.seconds, args.trace)

    if args.trace:
        values = per_layer(workload, setups, rounds, traced, tracer)
        units = dict(per_layer_names())
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload.name}.npz")
    else:
        values = end_to_end(setups, rounds)
        units = dict(end_to_end_names())

    print(f"{workload.name} seed {args.seed}: {len(rounds)} round(s), "
          f"{counter.attempted} runs, {len(counter.failures)} failed", file=sys.stderr)
    for e in ENGINES:
        reports = rounds[0][e][2]
        print(f"  {e:8s} steps {[r.iterations for r in reports]} "
              f"solve_s {rounds[0][e][0]:.3f} rse {statistics.median(rounds[0][e][1]):.5g}",
              file=sys.stderr)
    for failure in counter.failures[:10]:
        print(f"  FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not counter.failures,
        "attempted": counter.attempted,
        "failed": len(counter.failures),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
