"""SHA-256 fingerprints of every engine's trajectory and of the benchmark problems.

    python3 tools/trajectory_hash.py

Run from any directory; kaczlab is imported from this checkout's ``src/`` and
the benchmark problems are built by ``benchmarks/workloads.py``.  BLAS is
pinned to one thread in this process's environment before numpy loads, so
the fingerprints do not depend on the thread count.

A problem line is ``problem <workload> <sha256>``; two checkouts print the
same line exactly when that problem has the same matrix and right-hand side,
bit for bit.  Every other line ends in two hashes, ``<picks> <state>``:

* ``picks`` covers the selection only: the kind, row and column of every
  ``StepOutcome``, or for a report its iteration count, convergence flags,
  branch counts and the steps at which its rule was evaluated;
* ``state`` covers the final ``(x, z)`` bit for bit and, for a report, every
  field but the wall time.

So a change that only rounds differently keeps ``picks`` and moves
``state``, and a change that alters the selection moves both.

``tools/trajectory_hash.txt`` holds the lines of the committed code, and

    python3 tools/trajectory_hash.py | diff tools/trajectory_hash.txt -

prints nothing when a change keeps every trajectory.  A change that moves a
hash on purpose updates that file in the same commit.  The file was printed
with numpy 2.4 and scipy 1.17 on an x86-64 Xeon; another CPU or BLAS may
round differently and move ``state`` hashes without any change to the code.

Trajectories: each engine runs ``STEPS`` steps from ``init_state`` for each
seed in ``SEEDS`` on a dense 200x50, a sparse 3000x60, a sparse 12000x500
and an N=16 tomography system.  The 12000x500 matrix has one full row and
one full column among short lines, so its batched dots and Gram updates
read lines of very uneven length, and a Gram update through a full line adds
tens of thousands of entries.  On the two Gaussian systems, one ``lise`` run per
engine adds its report.  On the dense system, one run per other stopping
rule kind adds its report the same way.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import kaczlab as kl  # noqa: E402
from kaczlab.sampling import STREAM_PLANTED  # noqa: E402
from kaczlab.solvers import agrak_step, grak_step, rek_step, sampled_step  # noqa: E402

STEPS = 2000
SEEDS = (0, 1, 2)
STEPPERS = {"rek": rek_step, "grak": grak_step, "agrak": agrak_step, "sampled": sampled_step}
LISE = kl.StoppingRule("lise", tol=1e-4, window=200)
# (engine, rule) per remaining kind; each tolerance lets the rule fire after
# a few evaluations, and rres's sits just above the system's noise floor 0.4472
RULES = (
    ("grak", kl.StoppingRule("rse", tol=1e-3)),
    ("agrak", kl.StoppingRule("ase", tol=1e-3)),
    ("sampled", kl.StoppingRule("aise", tol=1e-8)),
    ("grak", kl.StoppingRule("rres", tol=0.4473)),
    ("rek", kl.StoppingRule("rek-native", tol=1e-5)),
    ("grak", kl.StoppingRule("grak-native", tol=1e-6)),
)


def _planted_system(mat, seed):
    x = kl.RngStream(seed, STREAM_PLANTED).standard_normal(mat.n)
    b = kl.build_inconsistent_rhs(mat, x, noise_seed=seed, noise_scale=0.5)
    x_star, z_star = kl.reference_solution(mat, b)
    return kl.LinearSystem(mat, b, x_star, z_star)


def _with_full_lines(mat, seed):
    """``mat`` plus a full first row and a full first column."""
    m, n = mat.m, mat.n
    coo = mat._csr.tocoo()
    rows = np.concatenate([coo.row, np.zeros(n, dtype=np.int64), np.arange(m)])
    cols = np.concatenate([coo.col, np.arange(n), np.zeros(m, dtype=np.int64)])
    vals = np.concatenate([coo.data, np.random.default_rng(seed).standard_normal(n + m)])
    return kl.build_matrix((rows, cols, vals), shape=(m, n))


def systems():
    """(label, system, whether to add a lise run) for each trajectory system."""
    yield "dense-200x50", _planted_system(kl.gen_gaussian(200, 50, seed=11), 11), True
    yield ("sparse-3000x60",
           _planted_system(kl.gen_sparse_gaussian(3000, 60, 0.05, seed=12), 12), True)
    uneven = _with_full_lines(kl.gen_sparse_gaussian(12000, 500, 0.005, seed=14), 14)
    yield "sparse-12000x500-full-lines", _planted_system(uneven, 14), False
    spec = kl.TomoSpec(size=16, angles=tuple(np.arange(0.0, 179.0, 6.0)), rays=23)
    mat, phantom = kl.gen_paralleltomo(spec)
    b = kl.build_inconsistent_rhs(mat, phantom, noise_seed=13, noise_scale=0.5)
    yield "tomo-N16", kl.LinearSystem(mat, b, x_star=phantom), False


def _state_hash(state, fields=""):
    h = hashlib.sha256(fields.encode())
    h.update(state.x.tobytes())
    h.update(state.z.tobytes())
    return h


def trajectory_hash(step, system, seed) -> str:
    """``<picks> <state>`` of ``STEPS`` steps from ``init_state``."""
    picks = hashlib.sha256()
    state = kl.init_state(system, seed)
    for _ in range(STEPS):
        out = step(state, system)
        picks.update(f"{out.kind},{out.row},{out.col};".encode())
        if out.converged:
            break
    return f"{picks.hexdigest()} {_state_hash(state).hexdigest()}"


def report_hash(engine, system, rule=LISE) -> str:
    """``<picks> <state>`` of one ``run()``."""
    report = kl.run(engine, system, rule=rule, max_iters=50_000, seed=7)
    fields = report.to_dict()
    fields.pop("wall_time_s")
    picks = (fields["iterations"], fields["converged"], fields["max_iters_hit"],
             sorted(fields["branch_counts"].items()), [k for k, _ in fields["stop_trace"]])
    state = _state_hash(report.final_state, repr(sorted(fields.items())))
    return f"{hashlib.sha256(repr(picks).encode()).hexdigest()} {state.hexdigest()}"


def problem_hash(system) -> str:
    mat = system.mat
    h = hashlib.sha256(f"{mat.m}x{mat.n}".encode())
    if mat.is_sparse:
        # the canonical CSR arrays; densifying the tomography matrix takes 0.6 GB
        csr = mat._csr
        h.update(np.asarray(csr.indptr, dtype=np.int64).tobytes())
        h.update(np.asarray(csr.indices, dtype=np.int64).tobytes())
        h.update(np.asarray(csr.data, dtype=np.float64).tobytes())
    else:
        h.update(mat.to_dense().tobytes())
    h.update(system.b.tobytes())
    return h.hexdigest()


def main():
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        problem = workload.setup(workload.problem_seed)
        print(f"problem {name} {problem_hash(problem.system)}", flush=True)
    for label, system, with_lise in systems():
        for engine, step in STEPPERS.items():
            for seed in SEEDS:
                print(f"steps {label} {engine} seed {seed} "
                      f"{trajectory_hash(step, system, seed)}", flush=True)
            if with_lise:
                print(f"lise {label} {engine} {report_hash(engine, system)}", flush=True)
        if label == "dense-200x50":
            for engine, rule in RULES:
                print(f"{rule.kind} {label} {engine} {report_hash(engine, system, rule)}",
                      flush=True)


if __name__ == "__main__":
    main()
