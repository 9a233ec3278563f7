import copy
import functools
import json
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, strategies

import kaczlab as kl
from kaczlab import RngStream, build_matrix
from kaczlab.sampling import simple_random_subsets, subset_size
from kaczlab.solvers import (
    _BOUND_MARGIN,
    _DRAW_BLOCK,
    _TOUCHED_FRACTION,
    RESIDUAL_REFRESH,
    GreedySelection,
    _apply_column_projection,
    _RekDraws,
    _Residuals,
    _SubsetBlock,
    agrak_step,
    grak_build_selection,
    grak_step,
    init_state,
    rek_step,
    run,
    sampled_step,
    weighted_row_sample,
)
from kaczlab.stopping import StoppingRule

from conftest import make_gaussian_system, random_sparse_matrix


# ---------------------------------------------------------------------------
# naive reference implementations (no caches, straight from the update rules)
# ---------------------------------------------------------------------------


def _weighted_draw(weights, rng):
    cum = np.cumsum(weights)
    u = rng.uniform() * cum[-1]
    return min(int(np.searchsorted(cum, u, side="right")), len(weights) - 1)


def naive_grak(A, b, iters, seed):
    m, n = A.shape
    rn2 = (A * A).sum(1)
    cn2 = (A * A).sum(0)
    aug = 1.0 + rn2
    fro2 = rn2.sum()
    x = np.zeros(n)
    z = b.copy()
    rng = RngStream(seed)
    for _ in range(iters):
        rr = b - z - A @ x
        rc = A.T @ z
        rcrit = rr * rr / aug
        ccrit = rc * rc / cn2
        total = rr @ rr + rc @ rc
        base = 1.0 / (m + 2 * fro2)
        eps = max(0.5 * (rcrit.max() / total + base), 0.5 * (ccrit.max() / total + base))
        thr = eps * total
        masses = np.concatenate([np.where(rcrit >= thr, rr, 0.0) ** 2,
                                 np.where(ccrit >= thr, rc, 0.0) ** 2])
        t = _weighted_draw(masses, rng)
        if t < m:
            d = rr[t] / aug[t]
            z[t] += d
            x = x + d * A[t]
        else:
            j = t - m
            z = z - (rc[j] / cn2[j]) * A[:, j]
    return x, z


def naive_agrak(A, b, iters, seed):
    m, n = A.shape
    rn2 = (A * A).sum(1)
    cn2 = (A * A).sum(0)
    aug = 1.0 + rn2
    x = np.zeros(n)
    z = b.copy()
    rng = RngStream(seed)
    for _ in range(iters):
        rr = b - z - A @ x
        rc = A.T @ z
        rcrit = rr * rr / aug
        ccrit = rc * rc / cn2
        i, j = int(np.argmax(rcrit)), int(np.argmax(ccrit))
        if rcrit[i] >= ccrit[j]:
            d = rr[i] / aug[i]
            z[i] += d
            x = x + d * A[i]
        else:
            z = z - (rc[j] / cn2[j]) * A[:, j]
            ii = _weighted_draw(rn2, rng)
            x = x + ((b[ii] - z[ii] - A[ii] @ x) / rn2[ii]) * A[ii]
    return x, z


def naive_sampled(A, b, iters, seed, eta_s):
    """Dense sampled engine; subsets come from ``simple_random_subset``,
    _DRAW_BLOCK of them drawn whenever the previous ones are used up."""
    m, n = A.shape
    rn2 = (A * A).sum(1)
    cn2 = (A * A).sum(0)
    x = np.zeros(n)
    z = b.copy()
    rng = RngStream(seed)
    queue = []
    for _ in range(iters):
        if not queue:
            queue = [kl.simple_random_subset(m, n, eta_s, rng) for _ in range(_DRAW_BLOCK)]
        s = queue.pop(0)
        rcrit = (b - z - A @ x)[s.rows] ** 2 / (1.0 + rn2[s.rows])
        ccrit = (A.T @ z)[s.cols] ** 2 / cn2[s.cols]
        crit = np.concatenate([rcrit, ccrit])
        t = int(np.argmax(crit))
        if t < s.rows.size:
            i = s.rows[t]
            d = (b[i] - z[i] - A[i] @ x) / (1.0 + rn2[i])
            z[i] += d
            x = x + d * A[i]
        else:
            j = s.cols[t - s.rows.size]
            z = z - ((A[:, j] @ z) / cn2[j]) * A[:, j]
            ii = _weighted_draw(rn2, rng)
            x = x + ((b[ii] - z[ii] - A[ii] @ x) / rn2[ii]) * A[ii]
    return x, z


def _skewed_sparse(rng, m, n):
    """Sparse matrix of uneven rows: most hold one or two entries, every
    tenth row all n."""
    dense = np.zeros((m, n))
    for i in range(m):
        width = n if i % 10 == 0 else 1 + i % 2
        dense[i, rng.choice(n, width, replace=False)] = rng.standard_normal(width)
    ii, jj = np.nonzero(dense)
    return build_matrix((ii, jj, dense[ii, jj]), shape=(m, n)), dense


def _banded_sparse(rng, m, n):
    """Sparse matrix of even rows: three entries a row."""
    dense = np.zeros((m, n))
    for i in range(m):
        dense[i, (i + np.arange(3)) % n] = rng.standard_normal(3)
    ii, jj = np.nonzero(dense)
    return build_matrix((ii, jj, dense[ii, jj]), shape=(m, n)), dense


def _parity_matrices(rng, m=90, n=12):
    dense = rng.standard_normal((m, n))
    return {"sparse, uneven rows": _skewed_sparse(rng, m, n),
            "sparse, even rows": _banded_sparse(rng, m, n),
            "dense": (build_matrix(dense), dense)}


# ---------------------------------------------------------------------------
# extended baseline
# ---------------------------------------------------------------------------


def test_rek_forced_single_step():
    # on a 1x1 system both draws are forced: z is cleaned, then x projected
    system = kl.LinearSystem(build_matrix([[1.0]]), [2.0])
    st = init_state(system, seed=0)
    out = rek_step(st, system)
    assert out.kind == "col" and out.row == 0 and out.col == 0
    assert st.z[0] == pytest.approx(0.0)
    assert st.x[0] == pytest.approx(2.0)
    assert st.k == 1


def test_rek_consistent_identity_converges():
    system = kl.LinearSystem(build_matrix(np.eye(2)), [1.0, 1.0])
    st = init_state(system, seed=1)
    for _ in range(200):
        rek_step(st, system)
    np.testing.assert_allclose(st.x, [1.0, 1.0], atol=1e-10)
    np.testing.assert_allclose(st.z, 0.0, atol=1e-10)


def test_rek_two_by_one_limit():
    mat = build_matrix([[1.0], [1.0]])
    system = kl.LinearSystem(mat, [1.0, 3.0])
    st = init_state(system, seed=2)
    for _ in range(4000):
        rek_step(st, system)
    assert st.x[0] == pytest.approx(2.0, abs=1e-6)
    np.testing.assert_allclose(st.z, [-1.0, 1.0], atol=1e-6)


def _interleaved_draws(mat, rng, steps):
    return [(kl.weighted_row_sample(mat, rng), kl.weighted_column_sample(mat, rng))
            for _ in range(steps)]


def test_rek_block_draws_match_per_step_draws():
    # a block holds the picks that a row and a column draw per step would
    # have made; each new block starts 2 * _DRAW_BLOCK uniforms further along
    sys_a = make_gaussian_system(60, 20, seed=51, with_reference=False)
    sys_b = make_gaussian_system(60, 20, seed=52, with_reference=False)
    steps = 100
    assert steps > 3 * _DRAW_BLOCK
    st = init_state(sys_a, seed=4)
    picks = [(o.row, o.col) for o in (rek_step(st, sys_a) for _ in range(steps))]
    assert picks == _interleaved_draws(sys_a.mat, RngStream(4), steps)
    blocks = -(-steps // _DRAW_BLOCK)

    def after(block_count, mat, count):
        ref = RngStream(4)
        for _ in range(2 * _DRAW_BLOCK * block_count):
            ref.uniform()
        return _interleaved_draws(mat, ref, count)

    # another right-hand side on the same matrix keeps the block
    block = st.cache
    rek_step(st, kl.LinearSystem(sys_a.mat, sys_b.b))
    assert st.cache is block and block.used == steps % _DRAW_BLOCK + 1
    # another matrix draws a new block from where the stream stands
    out = rek_step(st, sys_b)
    assert st.cache.mat is sys_b.mat and st.cache.used == 1
    assert [(out.row, out.col)] == after(blocks, sys_b.mat, 1)
    # invalidate() drops the block
    st.invalidate()
    assert st.cache is None
    out = rek_step(st, sys_b)
    assert [(out.row, out.col)] == after(blocks + 1, sys_b.mat, 1)
    # a deep copy replays the same picks and iterates, across block ends
    twin = copy.deepcopy(st)
    for _ in range(2 * _DRAW_BLOCK):
        a, b = rek_step(st, sys_b), rek_step(twin, sys_b)
        assert (a.row, a.col) == (b.row, b.col)
    np.testing.assert_array_equal(st.x, twin.x)
    np.testing.assert_array_equal(st.z, twin.z)


# ---------------------------------------------------------------------------
# greedy selection
# ---------------------------------------------------------------------------


def test_selection_one_by_one_hand_case():
    system = kl.LinearSystem(build_matrix([[1.0]]), [2.0])
    st = init_state(system, seed=0)
    sel = grak_build_selection(st, system)
    assert sel.row_set.size == 0
    np.testing.assert_array_equal(sel.col_set, [0])
    np.testing.assert_allclose(sel.col_values, [-2.0])
    assert sel.eps == pytest.approx(2.0 / 3.0)
    assert sel.eps_row == pytest.approx(1.0 / 6.0)


def test_selection_max_index_always_qualifies(rng):
    for _ in range(30):
        system = make_gaussian_system(7, 4, seed=int(rng.integers(1, 10_000)),
                                      with_reference=False)
        st = init_state(system, seed=3)
        st.x = rng.standard_normal(4)
        st.z = rng.standard_normal(7)
        sel = grak_build_selection(st, system)
        rr, rc = sel.residual_row, sel.residual_col
        rcrit = rr**2 / system.mat.aug_row_norms_sq
        ccrit = rc**2 / system.mat.col_norms_sq
        if rcrit.max() >= ccrit.max():
            assert int(np.argmax(rcrit)) in sel.row_set
        else:
            assert int(np.argmax(ccrit)) in sel.col_set
        assert sel.row_set.size + sel.col_set.size >= 1
        assert sel.eps == pytest.approx(max(sel.eps_row, sel.eps_col))


def brute_force_selection(A, b, x, z):
    """Literal recomputation of thresholds, sets and masked residuals."""
    m, n = A.shape
    rr = np.array([b[i] - z[i] - A[i] @ x for i in range(m)])
    rc = np.array([A[:, j] @ z for j in range(n)])
    total = sum(v * v for v in rr) + sum(v * v for v in rc)
    base = 1.0 / (m + 2 * (A * A).sum())
    row_crit = [rr[i] ** 2 / (1 + (A[i] ** 2).sum()) for i in range(m)]
    col_crit = [rc[j] ** 2 / (A[:, j] ** 2).sum() for j in range(n)]
    eps_row = 0.5 * (max(row_crit) / total + base)
    eps_col = 0.5 * (max(col_crit) / total + base)
    eps = max(eps_row, eps_col)
    row_set = [i for i in range(m) if row_crit[i] >= eps * total]
    col_set = [j for j in range(n) if col_crit[j] >= eps * total]
    r_masked = np.array([rr[i] if i in row_set else 0.0 for i in range(m)])
    s_masked = np.array([-rc[j] if j in col_set else 0.0 for j in range(n)])
    return eps, eps_row, eps_col, row_set, col_set, r_masked, s_masked


def test_selection_matches_brute_force(rng):
    for _ in range(20):
        seed = int(rng.integers(1, 10_000))
        system = make_gaussian_system(4, 3, seed=seed, with_reference=False)
        st = init_state(system, seed=seed)
        st.x = rng.standard_normal(3)
        st.z = rng.standard_normal(4)
        sel = grak_build_selection(st, system)
        dense = system.mat.to_dense()
        eps, eps_row, eps_col, row_set, col_set, r_m, s_m = brute_force_selection(
            dense, system.b, st.x, st.z)
        assert sel.eps == pytest.approx(eps, rel=1e-12)
        assert sel.eps_row == pytest.approx(eps_row, rel=1e-12)
        assert sel.eps_col == pytest.approx(eps_col, rel=1e-12)
        assert sel.row_set.tolist() == row_set
        assert sel.col_set.tolist() == col_set
        # the sets match, and the brute-force vectors are zero off them
        np.testing.assert_allclose(sel.row_values, r_m[row_set], rtol=0, atol=1e-14)
        np.testing.assert_allclose(sel.col_values, s_m[col_set], rtol=0, atol=1e-14)


def test_grak_one_by_one_step():
    system = kl.LinearSystem(build_matrix([[1.0]]), [2.0])
    st = init_state(system, seed=0)
    out = grak_step(st, system)
    assert out.kind == "col" and out.col == 0
    assert st.z[0] == pytest.approx(0.0)
    assert st.x[0] == 0.0


def test_grak_column_branch_keeps_x_bitwise(rng):
    system = make_gaussian_system(6, 3, seed=11, with_reference=False)
    st = init_state(system, seed=4)
    seen_col = False
    for _ in range(60):
        before = st.x.copy()
        out = grak_step(st, system)
        if out.kind == "col":
            seen_col = True
            assert np.array_equal(st.x, before)
    assert seen_col


def test_grak_concentrated_row_residual():
    # all stacked residual mass on one top row forces that branch
    mat = build_matrix(np.eye(3))
    system = kl.LinearSystem(mat, [0.0, 0.0, -4.0])
    st = init_state(system, seed=5)
    st.z = np.zeros(3)  # column correlations vanish, row 2 carries everything
    out = grak_step(st, system)
    assert out.kind == "row" and out.row == 2
    resid = system.b[2] - st.z[2] - mat.row_dot(2, st.x)
    assert resid == pytest.approx(0.0, abs=1e-12)


def test_grak_matches_naive(rng):
    system = make_gaussian_system(40, 12, seed=21, with_reference=False)
    st = init_state(system, seed=9)
    for _ in range(2500):
        grak_step(st, system)
    x_ref, z_ref = naive_grak(system.mat.to_dense(), system.b, 2500, seed=9)
    np.testing.assert_allclose(st.x, x_ref, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(st.z, z_ref, rtol=1e-8, atol=1e-10)


def test_grak_converged_outcome():
    system = kl.LinearSystem(build_matrix(np.eye(2)), [1.0, 2.0])
    st = init_state(system, seed=0)
    st.x = np.array([1.0, 2.0])
    st.z = np.zeros(2)
    out = grak_step(st, system)
    assert out.converged


# ---------------------------------------------------------------------------
# accelerated engine
# ---------------------------------------------------------------------------


def test_agrak_two_by_one_hand_case():
    system = kl.LinearSystem(build_matrix([[1.0], [1.0]]), [1.0, 3.0])
    st = init_state(system, seed=6)
    out = agrak_step(st, system)
    assert out.kind == "col" and out.col == 0
    np.testing.assert_allclose(st.z, [-1.0, 1.0], rtol=1e-15)
    assert st.x[0] == pytest.approx(2.0, rel=1e-15)


def test_agrak_row_branch_beats_weaker_column():
    mat = build_matrix(np.eye(2))
    system = kl.LinearSystem(mat, [5.0, 0.0])
    st = init_state(system, seed=7)
    st.z = np.zeros(2)
    st.x = np.array([0.0, 1.0])  # row criteria (12.5, 0.5), no column criterion
    out = agrak_step(st, system)
    assert out.kind == "row" and out.row == 0


def test_agrak_tie_breaks_row_block_then_smallest_index():
    # row 0 criterion and the column criterion are bit-identical (both 4/2)
    mat = build_matrix([[1.0], [1.0]])
    system = kl.LinearSystem(mat, [3.0, 1.0])
    st = init_state(system, seed=8)
    st.z = np.array([1.0, 1.0])
    st.x = np.zeros(1)
    rr = system.b - st.z - mat.matvec(st.x)
    assert (rr[0] ** 2 / 2) == (mat.rmatvec(st.z) ** 2 / 2)[0]
    out = agrak_step(st, system)
    assert out.kind == "row" and out.row == 0

    # duplicated rows tie among themselves: smallest index wins
    mat2 = build_matrix([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    system2 = kl.LinearSystem(mat2, [4.0, 4.0, 0.0])
    st2 = init_state(system2, seed=8)
    st2.z = np.zeros(3)
    out2 = agrak_step(st2, system2)
    assert out2.kind == "row" and out2.row == 0


def test_agrak_column_branch_postconditions(rng):
    for trial in range(20):
        system = make_gaussian_system(9, 4, seed=100 + trial, with_reference=False)
        st = init_state(system, seed=trial)
        for _ in range(40):
            out = agrak_step(st, system)
            if out.kind == "col":
                scale = np.sqrt(system.mat.col_norms_sq[out.col]) * np.linalg.norm(st.z)
                assert abs(system.mat.col_dot(out.col, st.z)) <= 1e-12 * max(scale, 1.0)
                resid = system.b[out.row] - st.z[out.row] - system.mat.row_dot(out.row, st.x)
                assert abs(resid) <= 1e-12 * (1.0 + system.mat.row_norms_sq[out.row])


def test_agrak_matches_naive(rng):
    system = make_gaussian_system(35, 10, seed=22, with_reference=False)
    st = init_state(system, seed=10)
    for _ in range(2500):
        agrak_step(st, system)
    x_ref, z_ref = naive_agrak(system.mat.to_dense(), system.b, 2500, seed=10)
    np.testing.assert_allclose(st.x, x_ref, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(st.z, z_ref, rtol=1e-8, atol=1e-10)


def test_agrak_matches_naive_sparse(rng):
    mat, dense = random_sparse_matrix(rng, 30, 8)
    x_seed = rng.standard_normal(8)
    b = kl.build_inconsistent_rhs(mat, x_seed, noise_seed=3)
    system = kl.LinearSystem(mat, b)
    st = init_state(system, seed=12)
    for _ in range(3000):
        agrak_step(st, system)
    x_ref, z_ref = naive_agrak(dense, b, 3000, seed=12)
    np.testing.assert_allclose(st.x, x_ref, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(st.z, z_ref, rtol=1e-8, atol=1e-10)


# ---------------------------------------------------------------------------
# sampled engine
# ---------------------------------------------------------------------------


def test_sampled_full_ratio_equals_argmax_selection(rng):
    # with the whole index set sampled, the selected index matches the
    # deterministic argmax rule on any state
    for trial in range(15):
        system = make_gaussian_system(8, 5, seed=300 + trial, with_reference=False)
        st_a = init_state(system, seed=trial)
        st_b = init_state(system, seed=trial)
        st_a.x = st_b.x = rng.standard_normal(5)
        st_a.z = st_b.z = rng.standard_normal(8)
        st_a.x, st_b.x = st_a.x.copy(), st_b.x.copy()
        st_a.z, st_b.z = st_a.z.copy(), st_b.z.copy()
        out_s = sampled_step(st_a, system, eta_s=1.0)
        out_g = agrak_step(st_b, system)
        assert out_s.kind == out_g.kind
        if out_s.kind == "row":
            assert out_s.row == out_g.row
        else:
            assert out_s.col == out_g.col


def test_sampled_singleton_subset():
    # ratio so small the subset clamps to one index, which must be selected
    system = kl.LinearSystem(build_matrix([[2.0]]), [5.0])
    st = init_state(system, seed=13)
    st.z = np.array([1.0])
    st.x = np.array([3.0])
    out = sampled_step(st, system, eta_s=0.5)  # floor(2 * 0.5) = 1
    assert out.kind in ("row", "col")
    assert st.k == 1


def test_sampled_zero_subset_falls_back_to_full_residual():
    # only stacked index 3 / column 3 carries residual; subsets that miss it
    # sample zero criteria and must fall back instead of stalling
    mat = build_matrix(np.eye(4))
    system = kl.LinearSystem(mat, [0.0, 0.0, 0.0, 0.0])
    st = init_state(system, seed=14)
    st.z = np.array([0.0, 0.0, 0.0, -2.0])
    out = sampled_step(st, system, eta_s=0.3)
    assert out.kind in ("row", "col")
    assert out.row == 3 or out.col == 3
    # the exact solution is reached within a few steps and then reported
    outcomes = [sampled_step(st, system, eta_s=0.3) for _ in range(30)]
    assert outcomes[-1].converged
    np.testing.assert_allclose(st.x, 0.0, atol=1e-15)
    np.testing.assert_allclose(st.z, 0.0, atol=1e-15)


def test_sampled_converged_on_exact_solution():
    system = kl.LinearSystem(build_matrix(np.eye(2)), [1.0, 1.0])
    st = init_state(system, seed=15)
    st.x = np.array([1.0, 1.0])
    st.z = np.zeros(2)
    assert sampled_step(st, system, eta_s=0.5).converged


def test_sampled_block_criterion_matches_dense(rng):
    # every subset of a block is scored as (b_i - z_i - A^(i) x)^2 /
    # (1 + ||A^(i)||^2) on rows and (A_(j) . z)^2 / ||A_(j)||^2 on columns
    for name, (mat, dense) in _parity_matrices(rng).items():
        m, n = dense.shape
        system = kl.LinearSystem(mat, rng.standard_normal(m))
        x, z = rng.standard_normal(n), rng.standard_normal(m)
        row_crit = (system.b - z - dense @ x) ** 2 / (1.0 + (dense * dense).sum(1))
        col_crit = (z @ dense) ** 2 / (dense * dense).sum(0)
        for k in (1, 12, 40):  # batched draw, batched draw, shuffle
            blk = _SubsetBlock(mat, k, RngStream(k))
            for j in range(_DRAW_BLOCK):
                rows = blk.rows[blk.row_bounds[j]:blk.row_bounds[j + 1]]
                cols = blk.cols[blk.col_bounds[j]:blk.col_bounds[j + 1]]
                assert rows.size + cols.size == k
                crit = np.concatenate([row_crit[rows], col_crit[cols]])
                best = int(np.argmax(crit))
                t, value = blk.take(system.b, x, z)
                assert t == (rows[best] if best < rows.size
                             else m + cols[best - rows.size]), name
                np.testing.assert_allclose(value, crit[best], rtol=1e-12)
            spent = init_state(system, seed=0)
            spent.cache = blk
            assert _SubsetBlock.of(spent, mat, k) is not blk


def test_sampled_matches_naive(rng):
    for name, (mat, dense) in _parity_matrices(rng).items():
        b = rng.standard_normal(dense.shape[0])
        system = kl.LinearSystem(mat, b)
        for eta_s in (0.05, 0.5):
            st = init_state(system, seed=8)
            for _ in range(150):
                sampled_step(st, system, eta_s=eta_s)
            x_ref, z_ref = naive_sampled(dense, b, 150, seed=8, eta_s=eta_s)
            np.testing.assert_allclose(st.x, x_ref, rtol=1e-8, atol=1e-10, err_msg=name)
            np.testing.assert_allclose(st.z, z_ref, rtol=1e-8, atol=1e-10, err_msg=name)


def _last_scored(st):
    """The stacked subset the state's sampled block scored last, and its matrix."""
    block = st.cache
    return _block_subsets(block)[block.used - 1], block.mat


def test_sampled_block_follows_system_and_subset_size():
    sys_a = make_gaussian_system(60, 20, seed=41, with_reference=False)
    sys_b = make_gaussian_system(30, 8, seed=42, with_reference=False)
    st = init_state(sys_a, seed=5)
    st.x = np.full(20, 0.1)  # at x = 0 every row criterion is zero
    for eta_s, size in ((0.05, 4), (0.2, 16), (0.05, 4)):
        sampled_step(st, sys_a, eta_s=eta_s)
        scored, mat = _last_scored(st)
        assert mat is sys_a.mat and len(set(scored)) == size
    st.x, st.z = np.full(8, 0.1), sys_b.b.copy()
    sampled_step(st, sys_b, eta_s=0.2)  # floor(38 * 0.2) = 7
    scored, mat = _last_scored(st)
    assert mat is sys_b.mat and len(set(scored)) == 7
    assert max(scored) < 38


def _block_subsets(block):
    """The stacked index subsets of a sampled block, one sorted row each."""
    return np.stack([np.concatenate([
        block.rows[block.row_bounds[j]:block.row_bounds[j + 1]],
        block.cols[block.col_bounds[j]:block.col_bounds[j + 1]] + block.mat.m])
        for j in range(_DRAW_BLOCK)])


def test_sampled_block_draws_follow_matrix():
    # a block belongs to a matrix and a subset size, never to a system; a new
    # block holds the subsets simple_random_subsets draws from where the
    # stream stands (column steps also draw a row from it)
    sys_a = make_gaussian_system(60, 20, seed=51, with_reference=False)
    sys_b = make_gaussian_system(60, 20, seed=52, with_reference=False)
    k = subset_size(60, 20, 0.2)

    def step_drawing_block(system, eta_s):
        stream = copy.deepcopy(st.rng)
        sampled_step(st, system, eta_s=eta_s)
        assert st.cache.mat is system.mat and st.cache.used == 1
        expected = simple_random_subsets(60, 20, subset_size(60, 20, eta_s),
                                         _DRAW_BLOCK, stream)
        np.testing.assert_array_equal(_block_subsets(st.cache), expected)

    st = init_state(sys_a, seed=4)
    step_drawing_block(sys_a, 0.2)
    for _ in range(_DRAW_BLOCK + 7):
        sampled_step(st, sys_a, eta_s=0.2)
    # another right-hand side on the same matrix keeps the block
    block = st.cache
    assert block.used == 8
    sampled_step(st, kl.LinearSystem(sys_a.mat, sys_b.b), eta_s=0.2)
    assert st.cache is block and block.used == 9
    # another matrix draws a new block, and so does another subset size
    step_drawing_block(sys_b, 0.2)
    step_drawing_block(sys_b, 0.1)
    assert st.cache.k == subset_size(60, 20, 0.1) != k
    # invalidate() drops the block
    st.invalidate()
    assert st.cache is None
    step_drawing_block(sys_b, 0.1)
    # copies of a system share its matrix, which keys the block
    assert copy.deepcopy(sys_a).mat is sys_a.mat and copy.copy(sys_a.mat) is sys_a.mat


@pytest.mark.parametrize("storage", ["dense", "sparse"])
@pytest.mark.parametrize("engine,eta_s", [("rek", None), ("sampled", 0.01),
                                          ("sampled", 0.2), ("grak", None),
                                          ("agrak", None)])
def test_copied_state_replays(engine, eta_s, storage):
    # a deep copy shares the immutable system and matrix its cache is keyed
    # on, so, copied mid-block or with its block just spent (greedy engines:
    # after a few updates or right after a RESIDUAL_REFRESH rebuild), it
    # makes the original's picks and reaches its iterates byte for byte
    if storage == "dense":
        system = make_gaussian_system(60, 20, seed=41, with_reference=False)
    else:
        mat, _ = random_sparse_matrix(np.random.default_rng(41), 60, 20)
        system = kl.LinearSystem(mat, np.random.default_rng(42).standard_normal(60))
    greedy = engine in ("grak", "agrak")
    if greedy:
        step = grak_step if engine == "grak" else agrak_step
        count, length = (lambda cache: cache.updates), RESIDUAL_REFRESH
    else:
        step = rek_step if engine == "rek" else functools.partial(sampled_step, eta_s=eta_s)
        count, length = (lambda cache: cache.used), _DRAW_BLOCK
    for copy_after in (5, length):
        # a sampled step takes a second subset when the first one scores zero,
        # and an agrak column step makes two updates
        st = init_state(system, seed=5)
        while st.cache is None or count(st.cache) < copy_after:
            step(st, system)
        assert greedy or count(st.cache) == copy_after
        if greedy and copy_after == length:
            spent = st.cache
            step(st, system)
            assert st.cache is not spent  # the RESIDUAL_REFRESH rebuild
        twin = copy.deepcopy(st)
        for _ in range(2 * length + 5):
            a, b = step(st, system), step(twin, system)
            assert (a.kind, a.row, a.col) == (b.kind, b.row, b.col), copy_after
        assert st.x.tobytes() == twin.x.tobytes() and st.z.tobytes() == twin.z.tobytes()


def test_sampled_replay_deterministic():
    system = make_gaussian_system(9, 4, seed=77, with_reference=False)
    reports = [run("sampled", system, rule=None, max_iters=300, seed=3, eta_s=0.3)
               for _ in range(2)]
    assert reports[0].branch_counts == reports[1].branch_counts
    np.testing.assert_array_equal(reports[0].final_state.x, reports[1].final_state.x)
    np.testing.assert_array_equal(reports[0].final_state.z, reports[1].final_state.z)


# ---------------------------------------------------------------------------
# driver and cross-engine properties
# ---------------------------------------------------------------------------


def test_run_zero_iterations():
    system = make_gaussian_system(6, 3, seed=5)
    report = run("grak", system, rule=None, max_iters=0, seed=0)
    assert report.iterations == 0
    assert report.max_iters_hit
    assert not report.converged
    # a negative budget reported zero steps with max_iters_hit set
    with pytest.raises(ValueError, match="max_iters"):
        run("grak", system, rule=None, max_iters=-1, seed=0)


def test_run_unknown_engine():
    system = make_gaussian_system(6, 3, seed=5)
    with pytest.raises(ValueError):
        run("nope", system)


def test_run_reports_replayable():
    system = make_gaussian_system(30, 8, seed=6)
    rule = StoppingRule("lise", 1e-6, window=50)
    r1 = run("agrak", system, rule=rule, max_iters=20000, seed=4)
    r2 = run("agrak", system, rule=rule, max_iters=20000, seed=4)
    assert r1.iterations == r2.iterations
    assert r1.branch_counts == r2.branch_counts
    assert r1.stop_trace == r2.stop_trace
    assert r1.final_rse == r2.final_rse
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1.pop("wall_time_s"), d2.pop("wall_time_s")
    assert d1 == d2
    # the final state rides along on the report but is not part of its record
    assert r1.final_state.k == r1.iterations
    assert "final_state" not in d1 and "final_state" not in json.dumps(r1.to_dict())
    assert "final_state" not in repr(r1)


def test_run_zero_reference_reports_no_rse():
    # x* = 0 here, so the relative error is undefined at every checkpoint;
    # rek keeps stepping at the solution, where the greedy engines stop
    system = kl.LinearSystem(build_matrix([[1.0], [1.0]]), [1.0, -1.0],
                             x_star=[0.0], z_star=[1.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run("rek", system, max_iters=6, seed=0, metrics_every=2)
    assert report.final_rse is None
    assert [(k, rse) for k, rse, _ in report.metrics] == [(2, None), (4, None), (6, None)]

    def reject(name):
        raise ValueError(f"invalid JSON constant {name}")

    json.loads(json.dumps(report.to_dict()), parse_constant=reject)


def test_run_trace_streaming(tmp_path):
    system = make_gaussian_system(8, 3, seed=7)
    path = str(tmp_path / "trace.log")
    report = run("grak", system, rule=None, max_iters=25, seed=1, trace_path=path)
    lines = open(path).read().splitlines()
    assert len(lines) == report.iterations
    k, kind, idx, value = lines[0].split(",")
    assert int(k) == 1 and kind in ("row", "col")


def test_iterates_stay_in_row_space(rng):
    # from x0 = 0 every engine's x lives in range(A^T)
    system = make_gaussian_system(20, 6, seed=8, with_reference=False)
    dense = system.mat.to_dense()
    _, _, vt = np.linalg.svd(dense, full_matrices=True)
    rank = np.linalg.matrix_rank(dense)
    null_proj = vt[rank:].T @ vt[rank:]
    for engine in kl.ENGINES:
        report = run(engine, system, rule=None, max_iters=500, seed=2, eta_s=0.3)
        x = report.final_state.x
        assert np.linalg.norm(null_proj @ x) <= 1e-10 * max(np.linalg.norm(x), 1.0)


def test_all_engines_converge_in_median(rng):
    # squared combined error after 2000 steps is below its value after 200,
    # in the median over seeds, for every engine
    system = make_gaussian_system(120, 30, seed=9)
    x_star, z_star = system.x_star, system.z_star

    def combined(state):
        return (np.linalg.norm(state.x - x_star) ** 2
                + np.linalg.norm(state.z - z_star) ** 2)

    for engine in kl.ENGINES:
        early, late = [], []
        for seed in range(7):
            early.append(combined(run(engine, system, rule=None, max_iters=200,
                                      seed=seed, eta_s=0.1).final_state))
            late.append(combined(run(engine, system, rule=None, max_iters=2000,
                                     seed=seed, eta_s=0.1).final_state))
        assert np.median(late) < np.median(early), engine


def test_accelerated_beats_greedy_at_equal_iterations():
    system = make_gaussian_system(120, 30, seed=10)

    def combined(state):
        return (np.linalg.norm(state.x - system.x_star) ** 2
                + np.linalg.norm(state.z - system.z_star) ** 2)

    grak_err = [combined(run("grak", system, rule=None, max_iters=2000,
                             seed=s).final_state) for s in range(7)]
    agrak_err = [combined(run("agrak", system, rule=None, max_iters=2000,
                              seed=s).final_state) for s in range(7)]
    assert np.median(agrak_err) <= np.median(grak_err)


def test_row_branch_projection_exactness(rng):
    # a stacked-row branch lands exactly on its hyperplane
    system = make_gaussian_system(10, 5, seed=11, with_reference=False)
    st = init_state(system, seed=6)
    for _ in range(60):
        out = grak_step(st, system)
        if out.kind == "row":
            i = out.row
            resid = system.b[i] - st.z[i] - system.mat.row_dot(i, st.x)
            assert abs(resid) <= 1e-12 * (1.0 + system.mat.row_norms_sq[i])


def test_residual_cache_matches_truth_after_many_steps():
    system = make_gaussian_system(25, 8, seed=12, with_reference=False)
    st = init_state(system, seed=7)
    for _ in range(3000):
        agrak_step(st, system)
    rr, rc = st.cache.row, st.cache.col
    true_rr = system.b - st.z - system.mat.matvec(st.x)
    true_rc = system.mat.rmatvec(st.z)
    scale = max(np.linalg.norm(system.b), 1.0)
    assert np.abs(rr - true_rr).max() <= 1e-9 * scale
    assert np.abs(rc - true_rc).max() <= 1e-9 * scale


def _assign_x(st, system):
    st.x = st.x + 0.3 * system.mat.rmatvec(np.ones(system.mat.m))
    return system


def _write_x_in_place(st, system):
    st.x += 0.3 * system.mat.rmatvec(np.ones(system.mat.m))
    st.invalidate()
    return system


def _other_rhs(st, system):
    # same matrix, another b: the residuals of the old b are wrong for it
    return kl.LinearSystem(system.mat, system.b + RngStream(9).standard_normal(system.mat.m))


def _rek_on_other_matrix(st, system):
    # rek moves x and z in place along another matrix's lines
    other = make_gaussian_system(60, 20, seed=14, with_reference=False)
    for _ in range(3):
        rek_step(st, other)
    return system


@pytest.mark.parametrize("step", [grak_step, agrak_step])
def test_residual_cache_follows_assigned_iterate(step):
    # a new x, an in-place write followed by invalidate(), another system, or
    # steps on another matrix must not leave the engine choosing on stale
    # residuals: the next step matches a twin whose caches were invalidated
    for move in (_assign_x, _write_x_in_place, _other_rhs, _rek_on_other_matrix):
        system = make_gaussian_system(60, 20, seed=13, with_reference=False)
        st = init_state(system, seed=8)
        for _ in range(5):
            step(st, system)
        target = move(st, system)
        twin = copy.deepcopy(st)
        twin.invalidate()
        out, twin_out = step(st, target), step(twin, target)
        assert (out.kind, out.row, out.col) == (twin_out.kind, twin_out.row, twin_out.col), \
            move.__name__
        np.testing.assert_array_equal(st.x, twin.x, err_msg=move.__name__)
        np.testing.assert_array_equal(st.z, twin.z, err_msg=move.__name__)
        true_rr = target.b - st.z - target.mat.matvec(st.x)
        rr = st.cache.row
        assert np.linalg.norm(rr - true_rr) <= 1e-12 * np.linalg.norm(true_rr), move.__name__


_ENGINE_STEPS = {"rek": rek_step, "grak": grak_step, "agrak": agrak_step,
                 "sampled": functools.partial(sampled_step, eta_s=0.3)}
_ENGINE_CACHE = {"rek": _RekDraws, "grak": _Residuals, "agrak": _Residuals,
                 "sampled": _SubsetBlock}


@functools.cache
def _mixed_step_systems(storage):
    """Two 12 x 5 systems sharing a matrix, and a third on another matrix."""
    rng = np.random.default_rng(71)
    if storage == "dense":
        mats = [build_matrix(rng.standard_normal((12, 5))) for _ in range(2)]
    else:
        mats = [random_sparse_matrix(rng, 12, 5)[0] for _ in range(2)]
    b = rng.standard_normal((3, 12))
    return tuple(kl.LinearSystem(mat, rhs) for mat, rhs in zip(mats[:1] + mats, b))


@given(storage=strategies.sampled_from(["dense", "sparse"]),
       seed=strategies.integers(0, 2**16),
       moves=strategies.lists(strategies.tuples(
           strategies.sampled_from([*_ENGINE_STEPS, "assign x", "assign z",
                                    "write and invalidate", "start column memo"]),
           strategies.integers(0, 2)), min_size=1, max_size=30))
# sampled's A^T z is keyed on the z array and carried to another system on its matrix
@example(storage="sparse", seed=0, moves=[("start column memo", 0), ("sampled", 0),
                                          ("assign z", 0), ("sampled", 1)])
def test_step_invariants_over_mixed_sequences(storage, seed, moves):
    # whichever engines, systems and caller writes came before, a row step
    # zeroes its equation, a column step zeroes A_(j)^T z, the state holds the
    # last engine's cache, and cached residuals match a fresh recompute
    systems = _mixed_step_systems(storage)
    st = init_state(systems[0], seed)
    for move, which in moves:
        system = systems[which]
        mat, b = system.mat, system.b
        if move == "assign x":
            st.x = st.x + mat.rmatvec(b) / mat.frob_sq
            continue
        if move == "assign z":
            st.z = st.z + 0.5 * b
            continue
        if move == "write and invalidate":
            st.x *= 0.5
            st.z[which] += 0.5
            st.invalidate()
            continue
        if move == "start column memo":  # as a greedy engine's column step does
            mat.gram_col_update(np.zeros(mat.n), which, 0.0)
            continue
        out = _ENGINE_STEPS[move](st, system)
        assert isinstance(st.cache, _ENGINE_CACHE[move])
        x_norm, z_norm = np.linalg.norm(st.x), np.linalg.norm(st.z)
        if out.col is not None:
            j = out.col
            assert abs(mat.col_dot(j, st.z)) <= 1e-12 * np.sqrt(mat.col_norms_sq[j]) * z_norm
        if out.row is not None:
            i = out.row
            scale = 1.0 + abs(b[i]) + abs(st.z[i]) + np.sqrt(mat.row_norms_sq[i]) * x_norm
            assert abs(b[i] - st.z[i] - mat.row_dot(i, st.x)) <= 1e-12 * scale
        row, col = b - st.z - mat.matvec(st.x), mat.rmatvec(st.z)
        atol = 1e-12 * (1.0 + np.linalg.norm(b) + z_norm + np.sqrt(mat.frob_sq) * x_norm)
        if isinstance(st.cache, _SubsetBlock):
            # sampled keeps A^T z exactly where the column Gram rows are
            # memoized, on either storage (the matrices here are shared
            # between examples)
            kept = st.cache.kept
            assert (kept is not None) == mat.col_grams_memoized()
            if kept is not None:
                assert kept.mat is mat and kept.z is st.z
                np.testing.assert_allclose(kept.col, col, rtol=0,
                                           atol=atol * np.sqrt(mat.frob_sq))
        if isinstance(st.cache, _Residuals):
            res = st.cache
            assert res.system is system and res.x is st.x and res.z is st.z
            np.testing.assert_allclose(res.row, row, rtol=0, atol=atol)
            np.testing.assert_allclose(res.col, col, rtol=0, atol=atol * np.sqrt(mat.frob_sq))
            res.best_row(), res.best_col()
            row_crit, col_crit = res.row_crit, res.col_crit
            np.testing.assert_allclose(row_crit, row * row / mat.aug_row_norms_sq,
                                       rtol=1e-9, atol=atol * atol)
            np.testing.assert_allclose(col_crit, col * col / mat.col_norms_sq,
                                       rtol=1e-9, atol=atol * atol * mat.frob_sq)


@pytest.mark.parametrize("storage", ["dense", "sparse"])
@pytest.mark.parametrize("engine", list(_ENGINE_STEPS))
def test_step_outcome_fields(engine, storage):
    # what run(trace_path=...) writes: a greedy engine's value is the picked
    # index's criterion at the pre-step iterate, and a column step's row is the
    # row that refreshed x (agrak, sampled) or None (grak, which leaves x alone);
    # rek's value is its x step over the row norm
    if storage == "dense":
        system = make_gaussian_system(60, 20, seed=43, with_reference=False)
    else:
        mat, _ = random_sparse_matrix(np.random.default_rng(43), 60, 20)
        system = kl.LinearSystem(mat, np.random.default_rng(44).standard_normal(60))
    mat, b = system.mat, system.b
    A = mat.to_dense()
    st = init_state(system, seed=7)
    kinds = set()
    for _ in range(300):
        x, z = st.x.copy(), st.z.copy()
        refresh_row = weighted_row_sample(mat, copy.deepcopy(st.rng))
        out = _ENGINE_STEPS[engine](st, system)
        kinds.add(out.kind)
        dx = st.x - x
        if engine == "rek":
            assert out.kind == "col"
            np.testing.assert_allclose(
                out.value, np.linalg.norm(dx) / np.sqrt(mat.row_norms_sq[out.row]), rtol=1e-10)
            continue
        if out.kind == "row":
            assert out.col is None
            expected = (b - z - A @ x)[out.row] ** 2 / mat.aug_row_norms_sq[out.row]
        else:
            expected = (A.T @ z)[out.col] ** 2 / mat.col_norms_sq[out.col]
            if engine == "grak":
                assert out.row is None and st.x.tobytes() == x.tobytes()
            else:
                # x moved along A^(i) alone (up to the rounding of x's entries)
                # and zeroed equation i at the new z
                i = out.row
                assert engine == "sampled" or i == refresh_row  # agrak draws nothing else
                np.testing.assert_allclose(dx, (dx @ A[i]) / (A[i] @ A[i]) * A[i],
                                           rtol=0, atol=1e-14 * np.linalg.norm(st.x))
                scale = abs(b[i]) + abs(st.z[i]) + np.linalg.norm(A[i]) * np.linalg.norm(st.x)
                assert abs(b[i] - st.z[i] - A[i] @ st.x) <= 1e-12 * scale
        np.testing.assert_allclose(out.value, expected, rtol=1e-12)
    assert kinds == ({"col"} if engine == "rek" else {"row", "col"})


@pytest.mark.parametrize("step", [grak_step, agrak_step])
def test_residual_cache_refreshes_after_refresh_updates(step):
    # one update per projection, so agrak's column step (column projection
    # plus x refresh) counts two; the step that finds RESIDUAL_REFRESH or
    # more rebuilds the residuals, and no other step does
    system = make_gaussian_system(25, 8, seed=12, with_reference=False)
    st = init_state(system, seed=7)
    step(st, system)
    refreshes = 0
    for _ in range(2 * RESIDUAL_REFRESH + 100):
        res, before = st.cache, st.cache.updates
        out = step(st, system)
        if before >= RESIDUAL_REFRESH:
            assert st.cache is not res
            refreshes += 1
            before = 0
        else:
            assert st.cache is res
        made = 2 if step is agrak_step and out.kind == "col" else 1
        assert st.cache.updates == before + made
    assert refreshes >= 2


def test_sampled_column_residual_refreshes_after_refresh_updates():
    # on sparse storage one update per projection that moves z (a column
    # step's x refresh moves x only); A^T z is carried from block to block,
    # and the step that finds RESIDUAL_REFRESH or more rebuilds it
    mat, _ = random_sparse_matrix(np.random.default_rng(45), 60, 20)
    mat.gram_col_update(np.zeros(20), 0, 0.0)  # as a greedy engine's column step does
    system = kl.LinearSystem(mat, np.random.default_rng(46).standard_normal(60))
    step = functools.partial(sampled_step, eta_s=0.2)
    st = init_state(system, seed=7)
    step(st, system)
    refreshes = blocks = 0
    for _ in range(2 * RESIDUAL_REFRESH + 100):
        block, kept, before = st.cache, st.cache.kept, st.cache.kept.updates
        step(st, system)
        blocks += st.cache is not block
        if before >= RESIDUAL_REFRESH:
            assert st.cache.kept is not kept
            refreshes += 1
            before = 0
        else:
            assert st.cache.kept is kept
        assert st.cache.kept.updates == before + 1
    assert refreshes >= 2 and blocks > 2 * RESIDUAL_REFRESH / _DRAW_BLOCK


def _sampled_run(storage, steps, start_memo, memo_entries, monkeypatch):
    """A sampled run on a fresh dense or sparse 3000x60 system: its picks, its
    last block and its final x and z as bytes."""
    monkeypatch.setattr(kl.matrix, "GRAM_MEMO_ENTRIES", memo_entries)
    if storage == "dense":
        mat = kl.gen_gaussian(3000, 60, seed=1)
    else:
        mat = kl.gen_sparse_gaussian(3000, 60, 0.05, seed=1)
    if start_memo:
        mat.gram_col_update(np.zeros(60), 0, 0.0)
    system = kl.LinearSystem(mat, np.random.default_rng(0).standard_normal(3000))
    st = init_state(system, seed=5)
    picks = [(out.kind, out.row, out.col) for out in
             (sampled_step(st, system) for _ in range(steps))]
    return picks, st.cache, st.x.tobytes(), st.z.tobytes()


def test_sampled_picks_do_not_depend_on_kept_column_residual(monkeypatch):
    # on either storage, columns scored from the kept A^T z (column memo
    # started) or by dots (memo not started, or past the cap) make the same
    # picks and reach the same iterates, byte for byte; on a fresh matrix
    # sampled never starts the memo itself
    cap = kl.matrix.GRAM_MEMO_ENTRIES
    for storage in ("dense", "sparse"):
        runs = []
        for start_memo, memo_entries in ((True, cap), (False, cap), (True, 0)):
            picks, block, x, z = _sampled_run(storage, 2000, start_memo, memo_entries,
                                              monkeypatch)
            kept = start_memo and memo_entries > 0
            assert block.mat.is_sparse == (storage == "sparse")
            assert (block.kept is not None) == kept
            assert block.mat.col_grams_memoized() == kept
            runs.append((picks, x, z))
        assert {kind for kind, _, _ in runs[0][0]} == {"row", "col"}
        assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("start_memo", [False, True])
@pytest.mark.parametrize("storage", ["sparse", "dense"])
def test_sampled_zero_criteria_on_either_storage(storage, start_memo, monkeypatch):
    # the fallback and the converged report on either storage, with columns
    # dotted or scored from the kept A^T z: of a 6x4 system with two entries
    # in each row but the last, only row 5 and column 3 carry criteria at
    # the start, and the first two subsets of seed 13 miss both
    dense = np.zeros((6, 4))
    dense[np.arange(5), np.arange(5) % 4] = 1.0
    dense[np.arange(5), (np.arange(5) + 1) % 4] = 0.5
    dense[5, 3] = 1.0
    mat = build_matrix(sp.csr_matrix(dense) if storage == "sparse" else dense)
    if start_memo:
        mat.gram_col_update(np.zeros(4), 0, 0.0)
    fallbacks = []

    class Counted(_Residuals):
        def __init__(self, *args):
            fallbacks.append(args)
            super().__init__(*args)

    monkeypatch.setattr(kl.solvers, "_Residuals", Counted)
    system = kl.LinearSystem(mat, np.zeros(6))
    st = init_state(system, seed=13)
    st.z = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -2.0])
    out = sampled_step(st, system, eta_s=0.3)
    assert len(fallbacks) == 1 and (out.row, out.kind) == (5, "row")
    assert (st.cache.kept is not None) == start_memo
    # at an exact solution every criterion is zero, in the subsets and in full
    system = kl.LinearSystem(mat, mat.matvec(np.ones(4)))
    st = init_state(system, seed=13)
    st.x, st.z = np.ones(4), np.zeros(6)
    assert sampled_step(st, system, eta_s=0.3).converged


def test_sampled_rebuilds_kept_column_residual_picked_on_drift():
    # at an exact solution, a kept A^T z that drifted off zero picks a column
    # whose projection moves nothing; that step marks the vector for a
    # rebuild, so the next step scores zeros and reports convergence, on
    # either storage
    dense = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.5], [0.5, 0.0, 1.0], [1.0, 0.0, 0.0]])
    for data in (sp.csr_matrix(dense), dense):
        mat = build_matrix(data)
        mat.gram_col_update(np.zeros(3), 0, 0.0)
        system = kl.LinearSystem(mat, mat.matvec(np.ones(3)))
        st = init_state(system, seed=3)
        st.x, st.z = np.ones(3), np.zeros(4)
        assert sampled_step(st, system, eta_s=1.0).converged
        kept = st.cache.kept
        kept.col[:] = 1e-17  # drift: every column scores above zero
        out = sampled_step(st, system, eta_s=1.0)
        assert out.kind == "col" and st.cache.kept is kept
        assert kept.updates == RESIDUAL_REFRESH
        np.testing.assert_array_equal(st.x, np.ones(3))
        np.testing.assert_array_equal(st.z, np.zeros(4))
        assert sampled_step(st, system, eta_s=1.0).converged
        assert st.cache.kept is not kept and not st.cache.kept.col.any()


def _touched_criteria_system(storage, monkeypatch, seed):
    """400x40 system: sparse rows of one to two entries, and a column of 80
    (past ``_TOUCHED_FRACTION`` of m) that fills one row in five; or dense."""
    m, n = 400, 40
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(m)
    if storage == "dense":
        return kl.LinearSystem(build_matrix(rng.standard_normal((m, n))), b)
    if storage == "sparse, unmemoized":
        monkeypatch.setattr(kl.matrix, "GRAM_MEMO_ENTRIES", 0)
    rows = np.concatenate([np.arange(m), np.arange(0, m, 5)])
    cols = np.concatenate([np.arange(m) % n, np.full(m // 5, n - 1)])
    assert m // 5 > _TOUCHED_FRACTION * m
    return kl.LinearSystem(build_matrix((rows, cols, rng.standard_normal(rows.size)),
                                        shape=(m, n)), b)


@pytest.mark.parametrize("storage", ["sparse, unmemoized", "sparse, memoized", "dense"])
def test_touched_criteria_match_full_recompute(storage, monkeypatch):
    # after every kind of step, criteria() leaves the buffers bit-identical to
    # a full pass over the residuals
    monkeypatch.setattr(kl.solvers, "RESIDUAL_REFRESH", 40)
    system = _touched_criteria_system(storage, monkeypatch, seed=61)
    other = _touched_criteria_system(storage, monkeypatch, seed=62)
    mat = system.mat
    seen = set()

    def check(st, label):
        res = st.cache
        seen.add((label, "full" if res.touched is None else "touched"))
        res.best_row(), res.best_col()
        row_crit, col_crit = res.row_crit, res.col_crit
        full_row = res.row * res.row
        full_row /= mat.aug_row_norms_sq
        full_col = res.col * res.col
        full_col /= mat.col_norms_sq
        assert row_crit.tobytes() == full_row.tobytes(), label
        assert col_crit.tobytes() == full_col.tobytes(), label

    st = init_state(system, seed=3)
    rebuilt = 0
    for step in (grak_step, agrak_step, grak_step):
        for _ in range(60):
            res = st.cache
            out = step(st, system)
            rebuilt += res is not None and st.cache is not res
            check(st, f"{step.__name__} {out.kind}")
    assert rebuilt >= 2  # RESIDUAL_REFRESH rebuilds
    # a column past the fallback fraction
    j = mat.n - 1
    _apply_column_projection(mat, j, st.z, st.cache)
    assert st.cache.touched is None
    check(st, "long column")
    # rek on another matrix drops the residuals; the next greedy step rebuilds
    for _ in range(3):
        rek_step(st, other)
    assert isinstance(st.cache, _RekDraws)
    for step in (grak_step, agrak_step):
        out = step(st, system)
        check(st, f"{step.__name__} {out.kind} after rek")

    kinds = {label for label, _ in seen}
    assert {"grak_step row", "grak_step col", "agrak_step row", "agrak_step col"} <= kinds
    # a dense update writes every entry of the row residual; a sparse one writes
    # a column's entries, or a Gram row's unless it is memoized
    if storage == "dense":
        assert {path for _, path in seen} == {"full"}
    else:
        assert ("grak_step col", "touched") in seen
        assert (("grak_step row", "touched") in seen) == (storage == "sparse, unmemoized")


def _row_pass_skip_system(kind):
    """A dense and a sparse Gaussian system, where rows win most agrak steps,
    and an N=16 tomography system, where columns win most of them."""
    if kind == "dense":
        return make_gaussian_system(200, 50, seed=11, with_reference=False)
    if kind == "sparse":
        mat = kl.gen_sparse_gaussian(3000, 60, 0.05, seed=12)
        return kl.LinearSystem(mat, np.random.default_rng(12).standard_normal(mat.m))
    spec = kl.TomoSpec(size=16, angles=tuple(np.arange(0.0, 179.0, 6.0)), rays=23)
    mat, phantom = kl.gen_paralleltomo(spec)
    return kl.LinearSystem(mat, kl.build_inconsistent_rhs(mat, phantom, noise_seed=13,
                                                          noise_scale=0.5))


@pytest.mark.parametrize("kind", ["dense", "sparse", "tomography"])
def test_agrak_row_pass_skip_keeps_every_pick(kind, monkeypatch):
    # agrak skips its row pass while the residuals' bound shows that no row
    # criterion reaches the best column's; forced off (an infinite margin),
    # every step runs the pass, and the picks, their criteria and the final
    # iterates are the same bits
    system = _row_pass_skip_system(kind)
    passes = []
    best_row = _Residuals.best_row
    monkeypatch.setattr(_Residuals, "best_row", lambda res: passes.append(1) or best_row(res))
    steps = 2000

    def trajectory(seed, margin):
        monkeypatch.setattr(kl.solvers, "_BOUND_MARGIN", margin)
        passes.clear()
        st = init_state(system, seed)
        picks = []
        for _ in range(steps):
            out = agrak_step(st, system)
            picks.append((out.kind, out.row, out.col, out.value))
        return picks, st.x.tobytes(), st.z.tobytes()

    for seed in (0, 1, 2):
        skipping = trajectory(seed, _BOUND_MARGIN)
        skipped = steps - len(passes)
        full = trajectory(seed, np.inf)
        assert len(passes) == steps
        assert skipping == full
        assert {pick[0] for pick in full[0]} == {"row", "col"}
        if kind == "tomography":
            assert skipped > 0
