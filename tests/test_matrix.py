import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import kaczlab as kl
from kaczlab import (
    IndexOutOfRange,
    NonFiniteEntry,
    ZeroRowOrColumn,
    augmented_row_update,
    build_matrix,
    column_z_update,
    kaczmarz_row_project,
)

from conftest import make_gaussian_system, random_sparse_matrix


def test_dense_construction_norms():
    mat = build_matrix([[1.0, 0.0], [0.0, 2.0]])
    assert (mat.m, mat.n) == (2, 2)
    assert mat.frob_sq == 5.0
    assert np.array_equal(mat.row_norms_sq, [1.0, 4.0])
    assert np.array_equal(mat.col_norms_sq, [1.0, 4.0])
    assert mat.nnz == 4


def test_zero_row_rejected():
    with pytest.raises(ZeroRowOrColumn) as exc:
        build_matrix([[1.0, 1.0], [0.0, 0.0]])
    assert exc.value.kind == "row"
    assert exc.value.index == 1


def test_zero_column_rejected():
    with pytest.raises(ZeroRowOrColumn) as exc:
        build_matrix([[1.0, 0.0], [2.0, 0.0]])
    assert exc.value.kind == "column"
    assert exc.value.index == 1


def test_sparse_zero_line_rejected():
    # an explicitly stored zero still leaves the row numerically empty
    with pytest.raises(ZeroRowOrColumn):
        build_matrix((np.array([0, 1]), np.array([0, 0]), np.array([1.0, 0.0])),
                     shape=(2, 1))


@pytest.mark.parametrize("sparse", [False, True])
def test_underflowing_line_norm_rejected(sparse):
    # 1e-200 squares to 0: the line is not empty, but its norm is, so it is
    # rejected with a message that says which
    dense = np.array([[1e-200, 0.0], [0.0, 1.0]])
    with pytest.raises(ZeroRowOrColumn) as exc:
        build_matrix(sp.csr_matrix(dense) if sparse else dense)
    assert (exc.value.kind, exc.value.index) == ("row", 0)
    assert str(exc.value) == "row 0 has nonzero entries, but its squared norm underflows to 0"
    with pytest.raises(ZeroRowOrColumn, match="^zero row at index 1$"):
        build_matrix(sp.csr_matrix([[1.0], [0.0]]) if sparse else [[1.0], [0.0]])


def test_nonfinite_rejected():
    with pytest.raises(NonFiniteEntry):
        build_matrix([[1.0, np.nan], [0.0, 2.0]])
    with pytest.raises(NonFiniteEntry):
        build_matrix((np.array([0]), np.array([0]), np.array([np.inf])), shape=(1, 1))
    # finite duplicates that sum past float64's range were stored as inf
    with pytest.raises(NonFiniteEntry):
        build_matrix((np.array([0, 0]), np.array([0, 0]), np.array([1e308, 1e308])),
                     shape=(1, 1))


def test_overflowing_norms_match_across_storage():
    # a square past float64's range is inf on both storages; the sparse
    # store's numpy square warned RuntimeWarning where the dense einsum did not
    dense = np.array([[1e300, 1.0], [2.0, 3.0]])
    for mat in (build_matrix(dense), build_matrix(sp.csr_matrix(dense))):
        np.testing.assert_array_equal(mat.row_norms_sq, [np.inf, 13.0])
        np.testing.assert_array_equal(mat.col_norms_sq, [np.inf, 10.0])


def test_triplet_duplicates_summed():
    mat = build_matrix((np.array([0, 0]), np.array([0, 0]), np.array([1.0, 2.0])),
                       shape=(1, 1))
    assert mat.to_dense()[0, 0] == 3.0


def test_dual_storage_identical(rng):
    mat, dense = random_sparse_matrix(rng, 17, 9)
    assert np.array_equal(mat.to_dense(), dense)
    # rebuild the matrix from the column-oriented copy, one column at a time
    for mat in (mat, build_matrix(dense)):
        from_cols = np.zeros((mat.n, mat.m))
        for j in range(mat.n):
            mat.add_col_to(from_cols[j], j, 1.0)
        assert np.array_equal(mat.to_dense(), from_cols.T)


def test_norm_caches_match_recomputation(rng):
    for mat, dense in (random_sparse_matrix(rng, 23, 7),
                       (build_matrix(rng.standard_normal((11, 5))), None)):
        dense = mat.to_dense() if dense is None else dense
        np.testing.assert_allclose(mat.row_norms_sq, (dense**2).sum(axis=1), rtol=1e-12)
        np.testing.assert_allclose(mat.col_norms_sq, (dense**2).sum(axis=0), rtol=1e-12)
        np.testing.assert_allclose(mat.inv_aug_row_norms_sq,
                                   1.0 / (1.0 + (dense**2).sum(axis=1)), rtol=1e-12)
        assert mat.frob_sq == pytest.approx((dense**2).sum(), rel=1e-12)
        assert mat.row_norms_sq.sum() == pytest.approx(mat.col_norms_sq.sum(), rel=1e-12)


def test_products_and_single_dots(rng):
    mat, dense = random_sparse_matrix(rng, 14, 6)
    x = rng.standard_normal(6)
    z = rng.standard_normal(14)
    np.testing.assert_allclose(mat.matvec(x), dense @ x, rtol=1e-12)
    np.testing.assert_allclose(mat.rmatvec(z), dense.T @ z, rtol=1e-12)
    assert mat.row_dot(3, x) == pytest.approx(dense[3] @ x, rel=1e-12)
    assert mat.col_dot(2, z) == pytest.approx(dense[:, 2] @ z, rel=1e-12)
    rows = np.array([0, 5, 9])
    cols = np.array([1, 4])
    np.testing.assert_allclose(mat.rows_dot(rows, x), dense[rows] @ x, rtol=1e-12)
    np.testing.assert_allclose(mat.cols_dot(cols, z), dense[:, cols].T @ z, rtol=1e-12)


def test_batch_dots_segmented_path(rng):
    # batched dots and Gram updates on a small matrix and on one whose full
    # first row and column make its lines uneven
    uneven = _storage_matrix("segmented")
    for mat, dense in (random_sparse_matrix(rng, 12, 8), (uneven, uneven.to_dense())):
        m, n = dense.shape
        x = rng.standard_normal(n)
        z = rng.standard_normal(m)
        rows = np.array([0, 2, 3, m - 1])
        cols = np.array([0, 6, 7, n - 1])
        np.testing.assert_allclose(mat.rows_dot(rows, x), dense[rows] @ x, rtol=1e-12)
        np.testing.assert_allclose(mat.cols_dot(cols, z), dense[:, cols].T @ z, rtol=1e-12)
        np.testing.assert_allclose(mat.row_scorer(rows)(1, 3, x),
                                   dense[rows[1:3]] @ x, rtol=1e-12)
        out_m = z.copy()
        mat.gram_row_update(out_m, 5, 0.7)
        np.testing.assert_allclose(out_m, z + 0.7 * (dense @ dense[5]), rtol=1e-12,
                                   atol=1e-12)
        out_n = x.copy()
        mat.gram_col_update(out_n, 6, -1.3)
        np.testing.assert_allclose(out_n, x - 1.3 * (dense.T @ dense[:, 6]), rtol=1e-12,
                                   atol=1e-12)


def test_gram_updates_match_dense(rng):
    for sparse in (True, False):
        if sparse:
            mat, dense = random_sparse_matrix(rng, 13, 6)
        else:
            dense = rng.standard_normal((13, 6))
            mat = build_matrix(dense)
        out_m = rng.standard_normal(13)
        expected_m = out_m + 0.7 * (dense @ dense[4])
        mat.gram_row_update(out_m, 4, 0.7)
        np.testing.assert_allclose(out_m, expected_m, rtol=1e-12, atol=1e-12)
        out_n = rng.standard_normal(6)
        expected_n = out_n - 1.3 * (dense.T @ dense[:, 2])
        mat.gram_col_update(out_n, 2, -1.3)
        np.testing.assert_allclose(out_n, expected_n, rtol=1e-12, atol=1e-12)


def _gram_sides(mat):
    """(update, line store, other store, out length, index) of each Gram update."""
    return ((mat.gram_row_update, mat._row_lines, mat._col_lines, mat.m, 4),
            (mat.gram_col_update, mat._col_lines, mat._row_lines, mat.n, 2))


def _memos(mat):
    return [mat._row_lines.memo, mat._col_lines.memo]


def test_gram_memo_dense_miss_and_hit_bit_identical(rng):
    # a memoized row is the kernel's product, so dense iterates are exactly
    # those of the unmemoized kernel, cold or warm
    mat = build_matrix(rng.standard_normal((13, 6)))
    for update, lines, other, p, k in _gram_sides(mat):
        assert lines.memo is None
        for c in (0.7, -1.3):  # a miss, then a hit on the same index
            out = rng.standard_normal(p)
            expected = out.copy()
            lines.gram_kernel(other, expected, k, c)
            update(out, k, c)
            np.testing.assert_array_equal(out, expected)
        table, filled = lines.memo
        assert table.shape == (p, p)
        assert np.flatnonzero(filled).tolist() == [k]


def test_gram_memo_sparse_padded_and_segmented(rng):
    # the 12000 x 500 matrix's full row and column give Gram updates of more
    # than 4,096 entries on both sides; its row side is past the memo's cap
    small = random_sparse_matrix(rng, 13, 6)
    uneven = _storage_matrix("segmented")
    for mat, dense, ks in ((*small, (4, 2)), (uneven, uneven.to_dense(), (0, 0))):
        for (update, lines, other, p, _), k in zip(_gram_sides(mat), ks):
            gram_k = dense @ dense[k] if lines is mat._row_lines else dense.T @ dense[:, k]
            if mat is uneven:
                hit = lines.indices[lines.indptr[k]:lines.indptr[k + 1]]
                assert other.lengths[hit].sum() > 4096
            for c in (0.7, -1.3):
                out = rng.standard_normal(p)
                expected = out + c * gram_k
                update(out, k, c)
                np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
            if p * p <= kl.matrix.GRAM_MEMO_ENTRIES:
                assert lines.memo[1][k]
            else:
                assert lines.memo is None


def test_gram_memo_respects_size_cap(rng, monkeypatch):
    dense = rng.standard_normal((13, 6))
    mat = build_matrix(dense)
    monkeypatch.setattr(kl.matrix, "GRAM_MEMO_ENTRIES", 6 * 6 - 1)
    calls = []
    for update, lines, other, p, k in _gram_sides(mat):
        kernel = lines.gram_kernel
        lines.gram_kernel = (lambda other, out, k, c, kernel=kernel:
                             calls.append(k) or kernel(other, out, k, c))
        for _ in range(2):
            out = rng.standard_normal(p)
            expected = out.copy()
            kernel(other, expected, k, 0.7)
            update(out, k, 0.7)
            np.testing.assert_array_equal(out, expected)
        assert lines.memo is None
    assert calls == [4, 4, 2, 2]


@pytest.mark.parametrize("memo_entries", [kl.matrix.GRAM_MEMO_ENTRIES, 0])
@pytest.mark.parametrize("storage", ["dense", "sparse"])
def test_gram_update_rejects_out_of_range_index(storage, memo_entries, monkeypatch):
    # a sparse line read through k = -1 is empty: memoized, it would leave a
    # zero row marked filled under the last index
    monkeypatch.setattr(kl.matrix, "GRAM_MEMO_ENTRIES", memo_entries)
    sparse = kl.gen_sparse_gaussian(50, 8, 0.3, seed=1)
    dense = sparse.to_dense()
    mat = sparse if storage == "sparse" else build_matrix(dense)
    for update, lines, _, p, _ in _gram_sides(mat):
        gram = dense @ dense.T if p == mat.m else dense.T @ dense
        for k in (-1, p):
            with pytest.raises(IndexOutOfRange):
                update(np.zeros(p), k, 1.0)
        for k in (7, p - 1):
            out = np.zeros(p)
            update(out, k, 1.0)
            np.testing.assert_allclose(out, gram[k], rtol=1e-12, atol=1e-12)
        assert (lines.memo is None) == (memo_entries == 0)


def test_gram_memo_untouched_by_rek_and_sampled():
    system = make_gaussian_system(60, 12, seed=23)
    for engine in ("rek", "sampled"):
        kl.run(engine, system, max_iters=500, seed=1)
    assert _memos(system.mat) == [None, None]
    kl.run("agrak", system, max_iters=500, seed=1)
    assert all(memo is not None for memo in _memos(system.mat))


def _sparse_system(seed):
    mat = kl.gen_sparse_gaussian(300, 20, 0.2, seed=seed)
    x = kl.RngStream(seed, 3).standard_normal(20)
    b = kl.build_inconsistent_rhs(mat, x, noise_seed=seed, noise_scale=0.5)
    return kl.LinearSystem(mat, b, *kl.reference_solution(mat, b))


def test_run_reports_do_not_depend_on_a_warm_memo():
    rule = kl.StoppingRule("lise", tol=1e-4, window=50)
    for build in (lambda: make_gaussian_system(60, 12, seed=24), lambda: _sparse_system(25)):
        fresh, warmed = build(), build()
        kl.run("agrak", warmed, rule=rule, max_iters=20_000, seed=9)
        assert all(memo is not None for memo in _memos(warmed.mat))
        for engine in ("grak", "agrak"):
            reports = [kl.run(engine, system, rule=rule, max_iters=20_000, seed=2)
                       for system in (fresh, warmed)]
            dicts = [r.to_dict() for r in reports]
            for d in dicts:
                d.pop("wall_time_s")
            assert dicts[0] == dicts[1], engine
            np.testing.assert_array_equal(reports[0].final_state.x, reports[1].final_state.x)
            np.testing.assert_array_equal(reports[0].final_state.z, reports[1].final_state.z)


def _uneven_sparse(m, n, seed):
    """Sparse m x n matrix, density 0.005 plus a full first row and column.

    At 12000 x 500 the lines are very uneven (one of 500 entries among rows
    of about 3.5), and a Gram update through a full line adds more than
    4,096 entries.
    """
    base = sp.random(m, n, density=0.005, format="coo", random_state=seed)
    rows = np.concatenate([base.row, np.zeros(n, dtype=np.int64), np.arange(m)])
    cols = np.concatenate([base.col, np.arange(n), np.zeros(m, dtype=np.int64)])
    vals = np.concatenate([base.data, np.full(n + m, 0.5)])
    return build_matrix((rows, cols, vals), shape=(m, n))


def _transpose_pairs(mat, mat_t, rng):
    """(column-side result on A, row-side result on A^T) for every primitive,
    and the reverse Gram pairing."""
    m, n = mat.m, mat.n
    z = rng.standard_normal(m)
    yield mat.col_norms_sq, mat_t.row_norms_sq
    yield mat.col_norm_cumsum(), mat_t.row_norm_cumsum()
    yield ([mat.col_dot(j, z) for j in range(n)], [mat_t.row_dot(j, z) for j in range(n)])
    ids = np.concatenate([[0, n - 1], rng.choice(n, size=min(n, 9), replace=False)])
    yield mat.cols_dot(ids, z), mat_t.rows_dot(ids, z)
    for col_update, row_update, k, p in (
            (mat.add_col_to, mat_t.add_row_to, n - 1, m),
            (mat.gram_col_update, mat_t.gram_row_update, 0, n),
            (mat.gram_col_update, mat_t.gram_row_update, n // 2, n),
            (mat.gram_row_update, mat_t.gram_col_update, 0, m),
            (mat.gram_row_update, mat_t.gram_col_update, m // 3, m)):
        for c in (0.7, -1.3):  # a Gram update's memo misses, then hits
            out = rng.standard_normal(p)
            out_t = out.copy()
            col_update(out, k, c)
            row_update(out_t, k, c)
            yield out, out_t


def _storage_matrix(storage):
    """A matrix whose stores are dense blocks or CSR arrays: "padded" has
    short lines of even length, "segmented" the uneven 12000 x 500 lines of
    ``_uneven_sparse``, and "duplicates" is built from triplets with
    repeated coordinates."""
    if storage == "padded":
        return kl.gen_sparse_gaussian(300, 40, 0.1, seed=5)
    if storage == "segmented":
        return _uneven_sparse(12000, 500, seed=5)
    rng = np.random.default_rng(8)
    if storage == "dense":
        return build_matrix(rng.standard_normal((30, 12)))
    # every coordinate of a 30 x 12 grid twice, plus 200 repeats at random
    ii, jj = np.divmod(np.arange(360), 12)
    rows = np.concatenate([ii, ii, rng.integers(0, 30, 200)])
    cols = np.concatenate([jj, jj, rng.integers(0, 12, 200)])
    return build_matrix((rows, cols, rng.standard_normal(rows.size)), shape=(30, 12))


@pytest.mark.parametrize("storage", ["padded", "segmented"])
def test_sparse_index_arrays_are_intp(storage):
    # numpy casts an int32 index array on every fancy index, so every index
    # array a sparse store gathers or scatters through is intp; the row
    # store's segments are what ``row_scorer`` gathers
    mat = _storage_matrix(storage)
    ids = np.arange(3)
    for lines in (mat._row_lines, mat._col_lines):
        arrays = [lines.indptr, lines.indices, lines.lengths, *lines.segments(ids)[1:]]
        assert [a.dtype for a in arrays] == [np.dtype(np.intp)] * len(arrays)


@pytest.mark.parametrize("storage", ["padded", "segmented", "dense", "duplicates"])
def test_scaled_adds_match_fancy_index_add(storage):
    # add_row_to / add_col_to add exactly what out[idx] += c * vals adds
    mat = _storage_matrix(storage)
    dense = mat.to_dense()
    rng = np.random.default_rng(9)
    for add, lines, count in ((mat.add_row_to, dense, mat.m),
                              (mat.add_col_to, dense.T, mat.n)):
        for k in (0, count - 1, *rng.choice(count, size=5, replace=False)):
            idx = np.flatnonzero(lines[k]) if mat.is_sparse else np.arange(lines.shape[1])
            for c in (0.7, -1.3):
                out = rng.standard_normal(lines.shape[1])
                expected = out.copy()
                expected[idx] += c * lines[k, idx]
                add(out, k, c)
                np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("storage", ["padded", "segmented"])
def test_sparse_columns_are_rows_of_the_transpose(storage):
    # a column step on A is a row step on A^T: each column primitive must
    # give the row primitive's result on the transposed matrix, bit for bit
    mat = _storage_matrix(storage)
    mat_t = build_matrix(mat._csr.T)
    for got, expected in _transpose_pairs(mat, mat_t, np.random.default_rng(6)):
        np.testing.assert_array_equal(got, expected)


# The compiled sparse loops check no bounds: unguarded, a bad index or a
# short vector reads or writes outside an array, or kills the interpreter.
# So each call runs in a child process, where a missing guard fails the test
# instead of crashing the test run.
_GUARD_SETUP = """
import numpy as np, scipy.sparse as sp, kaczlab as kl
from kaczlab.solvers import _SubsetBlock
mat = kl.build_matrix(sp.csr_matrix([[1.0, 0, 2], [0, 3, 0], [4, 0, 0], [0, 5, 6]]))
wide = kl.build_matrix(sp.csr_matrix(np.ones((2, 50000))))
block = _SubsetBlock(mat, 7, kl.RngStream(0))
"""
_GUARDED_CALLS = {
    "row id past the end": "mat.rows_dot(np.array([0, 4]), np.zeros(3))",
    "row id -1": "mat.rows_dot(np.array([-1, 0]), np.zeros(3))",
    "column id past the end": "mat.cols_dot(np.array([3]), np.zeros(4))",
    "segments of a row past the end": "mat.row_scorer(np.array([4]))",
}
# A batch's gathered segments once reached the compiled loop from the
# caller, trusted: shifted column indices killed the interpreter, and
# another matrix's segments read past a short x.  No public call takes
# them now.
_UNEXPRESSIBLE_CALLS = {
    "shifted segment indices": ("vals, idx, off = mat.row_segments(np.arange(4))\n"
                                "mat.segment_dots((vals, idx + 10**9, off), 0, 4, np.zeros(3))"),
    "another matrix's segments": ("mat.segment_dots(wide.row_segments(np.arange(2)), 0, 2,"
                                  " np.zeros(3))"),
}
_GUARDED_VECTORS = {
    "short vector": "mat.rows_dot(np.array([0, 1]), np.zeros(2))",
    "float32 vector": "mat.cols_dot(np.array([0]), np.zeros(4, dtype=np.float32))",
    "short Gram output, memoized": "mat.gram_row_update(np.zeros(2), 3, 1.0)",
    "short Gram output, unmemoized": ("kl.matrix.GRAM_MEMO_ENTRIES = 0\n"
                                      "mat.gram_row_update(np.zeros(2), 3, 1.0)"),
    "float32 Gram output": "mat.gram_col_update(np.zeros(3, dtype=np.float32), 0, 1.0)",
    "short x for segment dots": "mat.row_scorer(np.arange(4))(0, 4, np.zeros(2))",
    "wide rows scored with a short x": "wide.row_scorer(np.arange(2))(0, 2, np.zeros(3))",
    "short x in take": "block.take(np.ones(4), np.zeros(2), np.zeros(4))",
    "float32 x in take": "block.take(np.ones(4), np.zeros(3, dtype=np.float32), np.zeros(4))",
    "long z in take": "block.take(np.ones(4), np.zeros(3), np.zeros(5))",
}


@pytest.mark.parametrize("case,expected", [
    *((case, "IndexOutOfRange") for case in _GUARDED_CALLS),
    *((case, "ValueError") for case in _GUARDED_VECTORS),
    *((case, "AttributeError") for case in _UNEXPRESSIBLE_CALLS)])
def test_sparse_kernels_reject_bad_input(case, expected):
    call = {**_GUARDED_CALLS, **_GUARDED_VECTORS, **_UNEXPRESSIBLE_CALLS}[case]
    code = (f"{_GUARD_SETUP}\ntry:\n    " + call.replace("\n", "\n    ")
            + "\nexcept Exception as exc:\n    print(type(exc).__name__)\n"
            "else:\n    print('no error')\n")
    src = Path(kl.__file__).resolve().parent.parent
    child = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                           text=True, timeout=120)
    assert (child.returncode, child.stdout.strip()) == (0, expected), child.stderr


def test_dense_columns_are_rows_of_the_transpose(rng):
    dense = rng.standard_normal((37, 11))
    mat, mat_t = build_matrix(dense), build_matrix(dense.T)
    for got, expected in _transpose_pairs(mat, mat_t, np.random.default_rng(7)):
        np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_kaczmarz_row_project_examples():
    mat = build_matrix([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(kaczmarz_row_project([5.0, 7.0], 0, 5.0, mat),
                                  [5.0, 7.0])
    mat2 = build_matrix([[1.0, 1.0], [1.0, -1.0]])
    np.testing.assert_allclose(kaczmarz_row_project([0.0, 0.0], 0, 2.0, mat2),
                               [1.0, 1.0], rtol=1e-15)
    mat3 = build_matrix([[0.0, 2.0], [1.0, 0.0]])
    np.testing.assert_allclose(kaczmarz_row_project([1.0, 0.0], 0, 4.0, mat3),
                               [1.0, 2.0], rtol=1e-15)


def test_row_project_index_checked():
    mat = build_matrix([[1.0]])
    with pytest.raises(IndexOutOfRange):
        kaczmarz_row_project([0.0], 1, 1.0, mat)
    with pytest.raises(IndexOutOfRange):
        column_z_update([0.0], -1, mat)
    with pytest.raises(IndexOutOfRange):
        augmented_row_update([0.0], [0.0], 3, [1.0], mat)


def test_augmented_row_update_examples(rng):
    mat = build_matrix([[1.0]])
    z, x = augmented_row_update([0.0], [0.0], 0, [3.0], mat)
    assert z[0] == pytest.approx(1.5) and x[0] == pytest.approx(1.5)

    # zero residual leaves the state untouched
    z2, x2 = augmented_row_update(z, x, 0, [3.0], mat)
    np.testing.assert_array_equal(z2, z)
    np.testing.assert_array_equal(x2, x)

    dense = rng.standard_normal((5, 3))
    mat5 = build_matrix(dense)
    b = rng.standard_normal(5)
    z0 = rng.standard_normal(5)
    x0 = rng.standard_normal(3)
    for i in range(5):
        z1, x1 = augmented_row_update(z0, x0, i, b, mat5)
        resid = b[i] - z1[i] - dense[i] @ x1
        assert abs(resid) <= 1e-12 * (1.0 + mat5.row_norms_sq[i])


def test_column_z_update_examples(rng):
    mat = build_matrix([[1.0], [1.0]])
    np.testing.assert_allclose(column_z_update([1.0, 3.0], 0, mat), [-1.0, 1.0],
                               rtol=1e-15)
    # already orthogonal: no change
    np.testing.assert_allclose(column_z_update([1.0, -1.0], 0, mat), [1.0, -1.0])

    dense = rng.standard_normal((6, 4))
    mat6 = build_matrix(dense)
    z = rng.standard_normal(6)
    for j in range(4):
        z1 = column_z_update(z, j, mat6)
        assert abs(dense[:, j] @ z1) <= 1e-12 * np.linalg.norm(dense[:, j]) * np.linalg.norm(z)


def test_projection_nonexpansive(rng):
    # distance to any point of the target hyperplane never grows
    dense = rng.standard_normal((8, 5))
    mat = build_matrix(dense)
    for trial in range(25):
        x = rng.standard_normal(5)
        i = int(rng.integers(0, 8))
        rhs = float(rng.standard_normal())
        x1 = kaczmarz_row_project(x, i, rhs, mat)
        y = rng.standard_normal(5)
        s = y + ((rhs - dense[i] @ y) / mat.row_norms_sq[i]) * dense[i]
        assert np.linalg.norm(x1 - s) <= np.linalg.norm(x - s) * (1 + 1e-12) + 1e-12


def test_stacked_norms_match_explicit_matrix(rng):
    # the engines read the stacked system [[I, A], [A^T, 0]] through these
    # norms; compare them against the matrix written out
    for mat, dense in (random_sparse_matrix(rng, 9, 4),
                       (build_matrix(rng.standard_normal((7, 3))), None)):
        dense = mat.to_dense() if dense is None else dense
        m, n = dense.shape
        stacked = np.block([[np.eye(m), dense], [dense.T, np.zeros((n, n))]])
        norms = (stacked**2).sum(axis=1)
        np.testing.assert_allclose(mat.aug_row_norms_sq, norms[:m], rtol=1e-12)
        np.testing.assert_allclose(mat.col_norms_sq, norms[m:], rtol=1e-12)
        assert mat.m + 2.0 * mat.frob_sq == pytest.approx(norms.sum(), rel=1e-12)


def test_matrices_are_immutable(rng):
    mat = build_matrix(rng.standard_normal((4, 3)))
    with pytest.raises(ValueError):
        mat.row_norms_sq[0] = 7.0
    with pytest.raises(ValueError):
        mat._rows[0, 0] = 7.0
