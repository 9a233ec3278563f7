"""End-to-end acceptance suite.

Each test prints one verdict line so a full run reads as a checklist.  The
heavyweight fixtures (mid-size and wide Gaussian systems, the large sparse
benchmark) are session-scoped and shared between related criteria.
"""

import itertools
import math
import statistics

import numpy as np
import pytest
from scipy import stats

import kaczlab as kl
from kaczlab import RngStream, build_matrix
from kaczlab.sampling import STREAM_PLANTED
from kaczlab.solvers import agrak_step, grak_step, init_state, rek_step, run, sampled_step
from kaczlab.stopping import LiseWindow, StoppingRule, lise_check

from conftest import make_gaussian_system, random_sparse_matrix


def _verdict(num, label, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {state} {label} {detail}".rstrip())
    return ok


# ---------------------------------------------------------------------------
# 1. projection exactness
# ---------------------------------------------------------------------------


def test_criterion_01_projection_exactness(rng):
    worst = 0.0
    for trial in range(100):
        m, n = int(rng.integers(2, 12)), int(rng.integers(1, 8))
        if trial % 2:
            mat, dense = random_sparse_matrix(rng, m, n)
        else:
            dense = rng.standard_normal((m, n))
            mat = build_matrix(dense)
        b = rng.standard_normal(m)
        x = rng.standard_normal(n)
        z = rng.standard_normal(m)
        i = int(rng.integers(0, m))
        j = int(rng.integers(0, n))
        rhs = float(rng.standard_normal())

        x1 = kl.kaczmarz_row_project(x, i, rhs, mat)
        worst = max(worst, abs(rhs - dense[i] @ x1) / max(abs(rhs), np.sqrt(mat.row_norms_sq[i])))

        z2, x2 = kl.augmented_row_update(z, x, i, b, mat)
        worst = max(worst, abs(b[i] - z2[i] - dense[i] @ x2) / (1.0 + mat.row_norms_sq[i]))

        z3 = kl.column_z_update(z, j, mat)
        scale = np.sqrt(mat.col_norms_sq[j]) * max(np.linalg.norm(z), 1.0)
        worst = max(worst, abs(dense[:, j] @ z3) / scale)
    ok = worst <= 1e-12
    assert _verdict(1, "projection exactness (100 instances/op)", ok,
                    f"worst residual {worst:.2e} <= 1e-12")


# ---------------------------------------------------------------------------
# 2. greedy selection equals a brute-force recomputation
# ---------------------------------------------------------------------------


def _brute_force_selection(A, b, x, z):
    m, n = A.shape
    rr = np.array([b[i] - z[i] - A[i] @ x for i in range(m)])
    rc = np.array([A[:, j] @ z for j in range(n)])
    total = sum(v * v for v in rr) + sum(v * v for v in rc)
    base = 1.0 / (m + 2 * (A * A).sum())
    row_crit = [rr[i] ** 2 / (1 + (A[i] ** 2).sum()) for i in range(m)]
    col_crit = [rc[j] ** 2 / (A[:, j] ** 2).sum() for j in range(n)]
    eps = max(0.5 * (max(row_crit) / total + base),
              0.5 * (max(col_crit) / total + base))
    row_set = [i for i in range(m) if row_crit[i] >= eps * total]
    col_set = [j for j in range(n) if col_crit[j] >= eps * total]
    r_masked = np.array([rr[i] if i in row_set else 0.0 for i in range(m)])
    s_masked = np.array([-rc[j] if j in col_set else 0.0 for j in range(n)])
    return row_set, col_set, r_masked, s_masked


def test_criterion_02_selection_matches_brute_force(rng):
    mismatches = 0
    worst = 0.0
    for trial in range(50):
        system = make_gaussian_system(6, 4, seed=5000 + trial, with_reference=False)
        st = init_state(system, seed=trial)
        st.x = rng.standard_normal(4)
        st.z = rng.standard_normal(6)
        sel = kl.grak_build_selection(st, system)
        row_set, col_set, r_m, s_m = _brute_force_selection(
            system.mat.to_dense(), system.b, st.x, st.z)
        if sel.row_set.tolist() != row_set or sel.col_set.tolist() != col_set:
            mismatches += 1
            continue
        # the sets match, and the brute-force vectors are zero off them
        worst = max(worst, np.abs(sel.row_values - r_m[row_set]).max(initial=0.0))
        worst = max(worst, np.abs(sel.col_values - s_m[col_set]).max(initial=0.0))
    ok = mismatches == 0 and worst <= 1e-14
    assert _verdict(2, "greedy selection equals brute force (50 x 6x4)", ok,
                    f"set mismatches {mismatches}, worst residual gap {worst:.1e}")


# ---------------------------------------------------------------------------
# 3 + 11. convergence and z-convergence on the 500x100 fixture
# ---------------------------------------------------------------------------

N_SEEDS = 10
MAX_ITERS = 200_000


@pytest.fixture(scope="session")
def mid_crossings():
    """First iterations at which RSE <= 1e-3 and ||A^T z|| <= 1e-6 (scaled)."""
    system = make_gaussian_system(500, 100, seed=31)
    mat = system.mat
    fro_b = math.sqrt(mat.frob_sq) * np.linalg.norm(system.b)
    x_norm = np.linalg.norm(system.x_star)
    steppers = {
        "rek": rek_step,
        "grak": grak_step,
        "agrak": agrak_step,
        "sampled": lambda s, y: sampled_step(s, y, 0.05),
    }
    crossings = {e: {"rse": [], "zres": []} for e in steppers}
    for engine, step in steppers.items():
        track_z = engine in ("grak", "agrak")
        for seed in range(N_SEEDS):
            st = init_state(system, seed=seed)
            k_rse = k_z = None
            for k in range(1, MAX_ITERS + 1):
                step(st, system)
                if k % 250 == 0:
                    if k_rse is None and \
                            np.linalg.norm(st.x - system.x_star) <= 1e-3 * x_norm:
                        k_rse = k
                    if track_z and k_z is None and \
                            np.linalg.norm(mat.rmatvec(st.z)) <= 1e-6 * fro_b:
                        k_z = k
                    if k_rse is not None and (k_z is not None or not track_z):
                        break
            crossings[engine]["rse"].append(k_rse if k_rse else math.inf)
            crossings[engine]["zres"].append(k_z if k_z else math.inf)
    return crossings


def test_criterion_03_convergence_mid_fixture(mid_crossings):
    medians = {e: statistics.median(c["rse"]) for e, c in mid_crossings.items()}
    ok = all(v <= MAX_ITERS for v in medians.values())
    detail = ", ".join(f"{e}@{v:.0f}" for e, v in medians.items())
    assert _verdict(3, "RSE <= 1e-3 within 200k iters (500x100, median of 10)",
                    ok, detail)


def test_criterion_11_z_convergence(mid_crossings):
    medians = {e: statistics.median(mid_crossings[e]["zres"])
               for e in ("grak", "agrak")}
    ok = all(v <= MAX_ITERS for v in medians.values())
    detail = ", ".join(f"{e}@{v:.0f}" for e, v in medians.items())
    assert _verdict(11, "||A^T z|| below 1e-6 scale within 200k iters", ok, detail)


# ---------------------------------------------------------------------------
# 4 + 9. iteration ordering and stopping-rule quality on the wide fixture
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def wide_runs():
    system = make_gaussian_system(2000, 500, seed=10)
    lise = StoppingRule("lise", 1e-4, window=400)
    native = StoppingRule("grak-native", 1e-4)
    out = {"grak_it": [], "agrak_it": [], "lise_rse": [], "native_rse": []}
    for seed in range(N_SEEDS):
        rg = run("grak", system, rule=lise, max_iters=400_000, seed=seed)
        ra = run("agrak", system, rule=lise, max_iters=400_000, seed=seed)
        rn = run("grak", system, rule=native, max_iters=400_000, seed=seed)
        out["grak_it"].append(rg.iterations)
        out["agrak_it"].append(ra.iterations)
        out["lise_rse"].append(rg.final_rse)
        out["native_rse"].append(rn.final_rse)
    return out


def test_criterion_04_iteration_ordering(wide_runs):
    med_a = statistics.median(wide_runs["agrak_it"])
    med_g = statistics.median(wide_runs["grak_it"])
    ok = med_a < med_g
    assert _verdict(4, "accelerated beats greedy on iterations (2000x500)",
                    ok, f"median IT {med_a:.0f} < {med_g:.0f}")


def test_criterion_09_native_rule_stops_early(wide_runs):
    med_native = statistics.median(wide_runs["native_rse"])
    med_lise = statistics.median(wide_runs["lise_rse"])
    ok = med_native >= 10.0 * med_lise
    assert _verdict(9, "combined-error rule is >= 10x less accurate than the "
                       "windowed rule", ok,
                    f"RSE {med_native:.2e} vs {med_lise:.2e}")


# ---------------------------------------------------------------------------
# 5. wall-time advantage of the sampled engine on a large sparse system
# ---------------------------------------------------------------------------


def test_criterion_05_sampled_speedup():
    mat = kl.gen_sparse_gaussian(60_000, 209, 0.0168, seed=77)
    x_seed = RngStream(77, STREAM_PLANTED).standard_normal(209)
    b = kl.build_inconsistent_rhs(mat, x_seed, noise_seed=77, noise_scale=0.5)
    x_star, z_star = kl.reference_solution(mat, b)
    system = kl.LinearSystem(mat, b, x_star, z_star, provenance="sparse:60000x209")
    rule = StoppingRule("lise", 1e-4, window=400)
    grak_cpu, sampled_cpu = [], []
    for seed in (5, 6):
        grak_cpu.append(run("grak", system, rule=rule, max_iters=800_000,
                            seed=seed).wall_time_s)
        sampled_cpu.append(run("sampled", system, rule=rule, max_iters=800_000,
                               seed=seed, eta_s=0.01).wall_time_s)
    ratio = statistics.fmean(grak_cpu) / statistics.fmean(sampled_cpu)
    ok = ratio >= 1.5
    assert _verdict(5, "sampled engine speed-up over greedy (sparse 60000x209)",
                    ok, f"speed-up {ratio:.2f} >= 1.5")


# ---------------------------------------------------------------------------
# 6. bound values and orderings
# ---------------------------------------------------------------------------


def test_criterion_06_bound_ordering_and_identity_values():
    rep = kl.compute_bounds(build_matrix(np.eye(2)))
    eta = (math.sqrt(1.25) - 0.5) ** 2
    beta_hand = 1.0 - 0.5 * (6.0 / 5.0 + 1.0) * (eta / 6.0)
    identity_ok = (abs(rep.beta - beta_hand) <= 1e-9
                   and abs(rep.alpha - 0.5) <= 1e-9
                   and abs(rep.delta - 0.0) <= 1e-9)
    shapes = [(50, 20), (80, 25), (120, 40), (200, 60), (400, 100)]
    violations = 0
    for i, (m, n) in enumerate(shapes * 4):
        bounds = kl.compute_bounds(kl.gen_gaussian(m, n, seed=600 + i))
        if not (bounds.beta_tilde < bounds.beta and bounds.alpha < bounds.beta):
            violations += 1
    ok = identity_ok and violations == 0
    assert _verdict(6, "rate orderings on 20 seeded matrices + identity values",
                    ok, f"beta={rep.beta:.9f} (hand {beta_hand:.9f}), "
                        f"violations {violations}")


# ---------------------------------------------------------------------------
# 7. sampling distributions
# ---------------------------------------------------------------------------


def _chi_square_ok(observed, probs, alpha=0.001):
    n = observed.sum()
    expected = probs * n
    stat = ((observed - expected) ** 2 / expected).sum()
    return stat < stats.chi2.ppf(1 - alpha, df=len(probs) - 1)


def test_criterion_07_sampling_distributions():
    draws = 100_000
    checks = []

    mat = build_matrix([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])  # row norms 1,1,2
    rng = RngStream(70)
    counts = np.zeros(3)
    for _ in range(draws):
        counts[kl.weighted_row_sample(mat, rng)] += 1
    checks.append(_chi_square_ok(counts, np.array([0.25, 0.25, 0.5])))

    counts = np.zeros(2)
    for _ in range(draws):
        counts[kl.weighted_column_sample(mat, rng)] += 1
    checks.append(_chi_square_ok(counts, np.array([0.5, 0.5])))

    # masked residuals (1, 2) on the rows and (2) on the column: the draw
    # probabilities are the squared masses (1/9, 4/9, 4/9)
    sel = kl.GreedySelection(
        eps=0.0, eps_row=0.0, eps_col=0.0,
        row_set=np.array([0, 1]), col_set=np.array([0]),
        row_values=np.array([1.0, 2.0]), col_values=np.array([2.0]),
        residual_row=np.zeros(2), residual_col=np.zeros(1))
    counts = np.zeros(3)
    for _ in range(draws):
        counts[kl.grak_residual_sample(sel, rng)] += 1
    checks.append(_chi_square_ok(counts, np.array([1 / 9, 4 / 9, 4 / 9])))

    subset_ok = True
    cases = [(m, n, k) for m, n in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 2))
             for k in range(1, m + n)]
    # k <= (m+n) // 8: the batched draw the sampled engine runs, which the
    # small cases above never reach
    cases.append((10, 6, 2))
    for m, n, k in cases:
        total = m + n
        combos = {frozenset(c): 0
                  for c in itertools.combinations(range(total), k)}
        reps = max(4000, 400 * len(combos))
        for _ in range(reps):
            s = kl.simple_random_subset(m, n, k / total, rng)
            combos[frozenset(s.indices.tolist())] += 1
        counts = np.array(list(combos.values()))
        probs = np.full(len(combos), 1.0 / len(combos))
        if len(combos) > 1 and not _chi_square_ok(counts, probs):
            subset_ok = False
    ok = all(checks) and subset_ok
    assert _verdict(7, "chi-square sampling distributions + exhaustive subsets",
                    ok, f"weighted checks {checks}, subsets {subset_ok}")


# ---------------------------------------------------------------------------
# 8. windowed-rule soundness and the adjacent-iterate sandwich
# ---------------------------------------------------------------------------


def test_criterion_08_windowed_rule_soundness(rng):
    lag = 8
    sound = True
    sequences = [
        0.97 ** np.arange(0, 4000, lag),
        5.0 / (1.0 + np.arange(0, 4000, lag)) ** 1.5,
        3.0 * 0.999 ** np.arange(0, 40000, lag),
    ]
    for g in sequences:
        for eps in (g[0] / 10, g[0] / 100):
            k1 = int(np.argmax(g <= eps / 2))
            tol = eps / (2 * lag * k1)
            angles = 1e-3 * np.arange(len(g))
            xs = g[:, None] * np.c_[np.cos(angles), np.sin(angles)]
            window = LiseWindow(snapshot=xs[0].copy())
            for step in range(1, len(g)):
                fired, _ = lise_check(window, xs[step], k=step * lag, L=lag, tol=tol)
                if fired:
                    sound = sound and bool(g[step] < eps)
                    break

    sandwich = True
    for _ in range(1000):
        x_k = rng.standard_normal(6)
        x_p = rng.standard_normal(6)
        x_s = rng.standard_normal(6)
        b = rng.standard_normal(6)
        _, v = kl.aise_check(x_k, x_p, b, tol=1.0)
        bn = np.linalg.norm(b)
        lo = abs(np.linalg.norm(x_k - x_s) - np.linalg.norm(x_p - x_s)) / bn
        hi = (np.linalg.norm(x_k - x_s) + np.linalg.norm(x_p - x_s)) / bn
        sandwich = sandwich and (lo - 1e-12 <= v <= hi + 1e-12)
    ok = sound and sandwich
    assert _verdict(8, "windowed-rule soundness + adjacent-iterate sandwich",
                    ok, f"sound={sound} sandwich={sandwich}")


# ---------------------------------------------------------------------------
# 10. tomography: generator shape and phantom reconstruction
# ---------------------------------------------------------------------------


def test_criterion_10_tomography():
    spec = kl.TomoSpec(size=60, angles=tuple(np.arange(0.0, 179.0, 1.0)), rays=125)
    mat, _ = kl.gen_paralleltomo(spec)
    shape_ok = (mat.m, mat.n) == (22375, 3600)

    # Full column rank and noise in range(A)^perp make the phantom the unique
    # least-squares solution, so the SNR against it scores reconstruction and
    # must keep growing.  No engine ordering is asserted: the accelerated and
    # sampled engines promise a tighter rate bound (criterion 06) and a cheaper
    # step (criterion 05), not a higher SNR at equal iterations.
    desk = kl.TomoSpec(size=24, angles=tuple(np.arange(0.0, 179.0, 2.5)), rays=50)
    dmat, x_true = kl.gen_paralleltomo(desk)
    rank = int(np.linalg.matrix_rank(dmat.to_dense()))
    fro = math.sqrt(dmat.frob_sq)
    worst_orth = 0.0
    snrs = {e: ([], []) for e in ("grak", "agrak", "sampled")}
    growing = True
    for seed in range(5):
        b = kl.build_inconsistent_rhs(dmat, x_true, noise_seed=seed, noise_scale=0.5)
        noise = b - dmat.matvec(x_true)
        worst_orth = max(worst_orth, float(np.linalg.norm(dmat.rmatvec(noise)))
                         / (fro * float(np.linalg.norm(noise))))
        system = kl.LinearSystem(dmat, b, x_star=x_true)
        for engine in snrs:
            report = run(engine, system, rule=None, max_iters=20_000, seed=seed,
                         eta_s=0.01, metrics_every=10_000)
            # with x_star = x_true, RSE^-2 is the SNR against the phantom
            mid, end = (rse ** -2 for _, rse, _ in report.metrics)
            growing = growing and 1.0 < mid < end
            snrs[engine][0].append(mid)
            snrs[engine][1].append(end)
    premise_ok = rank == dmat.n and worst_orth <= 1e-11
    med = ", ".join(f"{e}={statistics.median(mid):.3g}/{statistics.median(end):.3g}"
                    for e, (mid, end) in snrs.items())
    ok = shape_ok and premise_ok and growing
    assert _verdict(10, "tomography shape + phantom reconstruction", ok,
                    f"shape {mat.m}x{mat.n}, rank {rank}/{dmat.n}, "
                    f"noise orthogonality {worst_orth:.1e} <= 1e-11, "
                    f"SNR growing {growing}; median SNR at 10k/20k steps {med}")
