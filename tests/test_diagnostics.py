import math

import numpy as np
import pytest
import scipy.sparse as sp

import kaczlab as kl
from kaczlab import (
    IncompleteRun,
    OracleUnavailable,
    build_matrix,
    compute_bounds,
    gen_gaussian,
    lambda_min_oracle,
    speedup,
)
from kaczlab.solvers import run

from conftest import make_gaussian_system, random_sparse_matrix


def test_identity_bounds_hand_values():
    mat = build_matrix(np.eye(2))
    rep = compute_bounds(mat)
    eta = (math.sqrt(1.25) - 0.5) ** 2
    assert rep.lambda_min == pytest.approx(1.0, abs=1e-12)
    assert rep.eta == pytest.approx(eta, abs=1e-12)
    assert rep.gamma == pytest.approx(5.0, abs=1e-12)
    assert rep.beta == pytest.approx(1.0 - 0.5 * (6.0 / 5.0 + 1.0) * (eta / 6.0), abs=1e-12)
    assert rep.zeta == pytest.approx(1.0 - eta / 6.0, abs=1e-12)
    assert rep.beta_tilde == pytest.approx(1.0 - eta / 5.0, abs=1e-12)
    assert rep.alpha == pytest.approx(0.5, abs=1e-12)
    assert rep.delta == pytest.approx(0.0, abs=1e-12)
    assert rep.theta_bracket == (rep.delta, rep.alpha)


def test_lambda_min_is_smallest_nonzero(rng):
    # a rank-deficient matrix: zero eigenvalues are filtered out
    base = rng.standard_normal((6, 3))
    dense = np.hstack([base, base[:, :1] + base[:, 1:2]])  # rank 3, 4 columns
    lam = lambda_min_oracle(build_matrix(dense))
    eigs = np.linalg.eigvalsh(dense.T @ dense)
    nonzero = eigs[eigs > 1e-10 * (dense**2).sum()]
    assert lam == pytest.approx(nonzero.min(), rel=1e-10)


def test_lambda_min_oracle_supports_wide_and_sparse(rng):
    mat, dense = random_sparse_matrix(rng, 5, 9)
    lam = lambda_min_oracle(mat)
    eigs = np.linalg.eigvalsh(dense.T @ dense)
    nonzero = eigs[eigs > 1e-10 * (dense**2).sum()]
    assert lam == pytest.approx(nonzero.min(), rel=1e-8)


def test_oracle_size_limit():
    # min(m, n) = 2001 is past the limit; the refusal comes before any eigensolve
    mat = build_matrix(sp.identity(2001, format="csr"))
    with pytest.raises(OracleUnavailable):
        compute_bounds(mat)


def test_rate_orderings_over_seeded_matrices():
    shapes = [(50, 20), (80, 25), (120, 40), (200, 60), (400, 100)]
    count = 0
    for i, (m, n) in enumerate(shapes * 4):
        mat = gen_gaussian(m, n, seed=1000 + i)
        rep = compute_bounds(mat)
        for rate in (rep.beta, rep.zeta, rep.beta_tilde, rep.alpha, rep.delta):
            assert 0.0 <= rate < 1.0
        assert rep.beta_tilde < rep.beta
        assert rep.alpha < rep.beta
        assert rep.eta < rep.lambda_min
        assert rep.theta_bracket[0] <= rep.theta_bracket[1]
        count += 1
    assert count == 20


def test_greedy_rate_equals_stacked_matrix_form(rng):
    # the published rate can also be written through the stacked system's
    # Frobenius norm, minimal row norm and smallest nonzero eigenvalue
    for trial in range(6):
        dense = rng.standard_normal((7, 4))
        mat = build_matrix(dense)
        rep = compute_bounds(mat)
        stacked = np.block([[np.eye(7), dense], [dense.T, np.zeros((4, 4))]])
        fro2 = (stacked**2).sum()
        eigs = np.linalg.eigvalsh(stacked.T @ stacked)
        lam = eigs[eigs > 1e-10 * fro2].min()
        assert lam == pytest.approx(rep.eta, rel=1e-9)
        min_row = (stacked**2).sum(axis=1).min()
        beta_alt = 1.0 - 0.5 * (fro2 / (fro2 - min_row) + 1.0) * (lam / fro2)
        assert rep.beta == pytest.approx(beta_alt, rel=1e-9)


def test_empirical_greedy_rate_below_bound():
    # fitted geometric decay of the combined squared error stays below the
    # proven contraction factor (it is an upper bound, not a tight one)
    system = make_gaussian_system(200, 50, seed=7)
    bound = compute_bounds(system.mat).beta
    target = np.concatenate([system.z_star, system.x_star])
    fits = []
    for seed in range(20):
        st = kl.init_state(system, seed=seed)
        ks, errs = [], []
        for k in range(1, 2001):
            kl.grak_step(st, system)
            if k >= 500 and k % 100 == 0:
                ks.append(k)
                errs.append(np.linalg.norm(np.concatenate([st.z, st.x]) - target) ** 2)
        slope = np.polyfit(ks, np.log(errs), 1)[0]
        fits.append(math.exp(slope))
    assert np.median(fits) <= bound + 0.05


def test_speedup_values():
    system = make_gaussian_system(12, 4, seed=3)
    a = run("grak", system, rule=None, max_iters=50, seed=0)
    b = run("grak", system, rule=None, max_iters=50, seed=1)
    a.wall_time_s, b.wall_time_s = 2.0, 1.0
    assert speedup(a, b) == 2.0
    b.wall_time_s = 2.0
    assert speedup(a, b) == 1.0
    b.wall_time_s = 0.0
    with pytest.raises(IncompleteRun):
        speedup(a, b)


def test_bound_report_serializes():
    rep = compute_bounds(build_matrix(np.eye(2)))
    doc = rep.to_dict()
    assert set(doc) == {"eta", "gamma", "beta", "zeta", "beta_tilde", "alpha",
                        "delta", "theta_bracket", "lambda_min"}
    assert doc["theta_bracket"] == [rep.delta, rep.alpha]
