"""The benchmark's three workloads: problem set-up, solver runs and checks.

Each workload solves one fixed problem, built from its own problem seed;
the workload seed given on the command line picks the solver seeds.  Set-up
goes through kaczlab's public generators and oracle only; the checks
recompute what they need with numpy/scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

import kaczlab as kl

LISE = kl.StoppingRule("lise", tol=1e-4, window=400)
# about five times the longest stop seen (21,200 steps); a run still going here failed
LISE_MAX_ITERS = 100_000
# a run that stops on the windowed rule further than this from x_ref failed
LISE_RSE_BOUND = 1e-2
ORACLE_AGREEMENT = 1e-8
ORTHOGONALITY = 1e-11
# stream id of the planted solution, as in the CLI's generators
STREAM_PLANTED = 3


@dataclass
class Problem:
    """One set-up: the system the engines solve and what the checks need."""

    system: kl.LinearSystem
    x_planted: np.ndarray
    x_ref: np.ndarray | None
    phases: dict  # set-up phase -> seconds
    seconds: float


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Problem]
    problem_seed: int
    seeds_per_engine: dict  # engine -> solver seeds per round
    rule: kl.StoppingRule | None = None
    budget: int | None = None  # fixed step budget when there is no rule
    generator_metric: str = "problems.generate_s"

    def schedule(self, seed: int) -> list[tuple[str, int]]:
        """(engine, solver seed) runs of one round, in the order they run.

        Each engine's runs are spread evenly over the round, so a slow spell
        of the machine is shared between the engines instead of landing on
        whichever one was running.
        """
        runs = []
        for rank, (engine, count) in enumerate(self.seeds_per_engine.items()):
            runs += [((k + 0.5) / count, rank, engine, 1000 * seed + k) for k in range(count)]
        return [(engine, s) for _, _, engine, s in sorted(runs)]


def _warm(mat):
    """Build the matrix's lazily built tables through public calls."""
    first = np.zeros(1, dtype=np.int64)
    mat.rows_dot(first, np.zeros(mat.n))
    mat.cols_dot(first, np.zeros(mat.m))
    mat.row_norm_cumsum()
    mat.col_norm_cumsum()


def _gaussian_setup(generate) -> Callable[[int], Problem]:
    def setup(seed: int) -> Problem:
        t0 = perf_counter()
        mat = generate(seed)
        t1 = perf_counter()
        x_planted = kl.RngStream(seed, STREAM_PLANTED).standard_normal(mat.n)
        b = kl.build_inconsistent_rhs(mat, x_planted, noise_seed=seed, noise_scale=0.5)
        t2 = perf_counter()
        x_star, z_star = kl.reference_solution(mat, b)
        t3 = perf_counter()
        _warm(mat)
        t4 = perf_counter()
        system = kl.LinearSystem(mat, b, x_star, z_star)
        phases = {"generate": t1 - t0, "rhs": t2 - t1, "reference": t3 - t2, "warm": t4 - t3}
        return Problem(system, x_planted, None, phases, t4 - t0)

    return setup


TOMO_SPEC = kl.TomoSpec(size=60, angles=tuple(np.arange(0.0, 179.0, 1.0)), rays=125)


def _tomo_setup(seed: int) -> Problem:
    t0 = perf_counter()
    mat, phantom = kl.gen_paralleltomo(TOMO_SPEC)
    t1 = perf_counter()
    b = kl.build_inconsistent_rhs(mat, phantom, noise_seed=seed, noise_scale=0.5)
    t2 = perf_counter()
    _warm(mat)
    t3 = perf_counter()
    # the phantom is the least-squares solution once the noise is orthogonal
    system = kl.LinearSystem(mat, b, x_star=phantom)
    phases = {"generate": t1 - t0, "rhs": t2 - t1, "reference": 0.0, "warm": t3 - t2}
    return Problem(system, phantom, phantom, phases, t3 - t0)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sparse-tall",
            setup=_gaussian_setup(lambda s: kl.gen_sparse_gaussian(60_000, 209, 0.0168, seed=s)),
            problem_seed=77,  # the acceptance-05 system
            seeds_per_engine={"rek": 51, "grak": 1, "agrak": 3, "sampled": 1},
            rule=LISE,
        ),
        Workload(
            name="dense-gauss",
            setup=_gaussian_setup(lambda s: kl.gen_gaussian(2000, 500, seed=s)),
            problem_seed=7,  # the README's library sketch
            seeds_per_engine={"rek": 9, "grak": 2, "agrak": 3, "sampled": 7},
            rule=LISE,
        ),
        Workload(
            name="tomo-n60",
            setup=_tomo_setup,
            problem_seed=0,  # the CLI's default noise seed
            seeds_per_engine={"rek": 9, "grak": 2, "agrak": 2, "sampled": 2},
            budget=5_000,
            generator_metric="tomo.gen_paralleltomo_s",
        ),
    )
}


def finish_problem(workload: Workload, problem: Problem) -> list[str]:
    """Fill in x_ref and check the set-up; returns the failed premises."""
    system = problem.system
    mat, b = system.mat, system.b
    failures = []
    noise = b - mat.matvec(problem.x_planted)
    orth = float(np.linalg.norm(mat.rmatvec(noise))) / (
        math.sqrt(mat.frob_sq) * float(np.linalg.norm(noise)))
    if not orth <= ORTHOGONALITY:
        failures.append(f"noise orthogonality {orth:.2e} > {ORTHOGONALITY:g}")
    if problem.x_ref is None:
        x_ref = np.linalg.lstsq(mat.to_dense(), b, rcond=None)[0]
        problem.x_ref = x_ref
        gap = float(np.linalg.norm(system.x_star - x_ref) / np.linalg.norm(x_ref))
        if not gap <= ORACLE_AGREEMENT:
            failures.append(f"oracle differs from lstsq by {gap:.2e}")
    return failures


def rse(x, x_ref) -> float:
    return float(np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref))


def solve(workload: Workload, problem: Problem, engine: str, seed: int):
    """One operation: a ``kaczlab.run`` call, timed from outside."""
    system = problem.system
    if workload.rule is not None:
        t0 = perf_counter()
        report = kl.run(engine, system, rule=workload.rule, max_iters=LISE_MAX_ITERS,
                        seed=seed)
        return report, perf_counter() - t0
    t0 = perf_counter()
    report = kl.run(engine, system, rule=None, max_iters=workload.budget, seed=seed,
                    metrics_every=workload.budget // 2)
    return report, perf_counter() - t0


def check_run(workload: Workload, problem: Problem, report) -> tuple[float, list[str]]:
    """The run's rse against x_ref, and the checks it failed."""
    err = rse(report.final_state.x, problem.x_ref)
    failures = []
    if workload.rule is not None:
        L = workload.rule.window
        if not (report.converged and not report.max_iters_hit
                and report.iterations > 0 and report.iterations % L == 0):
            failures.append(f"did not stop on its rule at a multiple of {L} "
                            f"(stopped at {report.iterations})")
        if not err < LISE_RSE_BOUND:
            failures.append(f"rse {err:.3e} >= {LISE_RSE_BOUND:g}")
        return err, failures
    if report.iterations != workload.budget or len(report.metrics) != 2:
        failures.append(f"ran {report.iterations} of {workload.budget} steps")
        return err, failures
    (_, half, zres_half), (_, full, zres_full) = report.metrics
    if not math.isclose(full, err, rel_tol=1e-9):
        failures.append(f"run's own rse {full:.6e} differs from {err:.6e}")
    if report.engine == "rek":
        # rek's x error still exceeds the starting error at this budget; its
        # z must approach the noise, the part of b outside range(A)
        noise = problem.system.b - problem.system.mat.matvec(problem.x_planted)
        z = report.final_state.z
        if not np.linalg.norm(z - noise) < np.linalg.norm(problem.system.b - noise):
            failures.append("z no closer to the noise than b is")
        if not zres_full < zres_half:
            failures.append(f"||A^T z|| {zres_full:.3e} not below {zres_half:.3e} at half budget")
    elif not (err < 1.0 and err < half):
        failures.append(f"rse {err:.4f} not below 1 and below {half:.4f} at half budget")
    return err, failures
