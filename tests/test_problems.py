import copy
import dataclasses
import math
import os

import numpy as np
import pytest

from kaczlab import (
    LinearSystem,
    NonFiniteEntry,
    OracleNotConverged,
    ParseError,
    TrivialNullSpace,
    UnsupportedField,
    build_inconsistent_rhs,
    build_matrix,
    gen_gaussian,
    gen_sparse_gaussian,
    read_matrix_market,
    reference_solution,
    snr,
    write_matrix_market,
    write_pgm,
)

from conftest import make_gaussian_system


# ---------------------------------------------------------------------------
# Matrix Market
# ---------------------------------------------------------------------------

FIXTURE_3X2 = """%%MatrixMarket matrix coordinate real general
% small fixture
3 2 4
1 1 1.5
2 2 -2.0
3 1 0.25
3 2 4.0
"""


def _write(tmp_path, text, name="fix.mtx"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_read_coordinate_fixture(tmp_path):
    mat = read_matrix_market(_write(tmp_path, FIXTURE_3X2))
    assert (mat.m, mat.n, mat.nnz) == (3, 2, 4)
    np.testing.assert_array_equal(mat.to_dense(),
                                  [[1.5, 0.0], [0.0, -2.0], [0.25, 4.0]])


def test_read_pattern_and_symmetric(tmp_path):
    pattern = "%%MatrixMarket matrix coordinate pattern general\n2 2 3\n1 1\n2 1\n2 2\n"
    mat = read_matrix_market(_write(tmp_path, pattern))
    np.testing.assert_array_equal(mat.to_dense(), [[1.0, 0.0], [1.0, 1.0]])

    sym = ("%%MatrixMarket matrix coordinate real symmetric\n"
           "2 2 3\n1 1 3.0\n2 1 5.0\n2 2 7.0\n")
    mat = read_matrix_market(_write(tmp_path, sym))
    np.testing.assert_array_equal(mat.to_dense(), [[3.0, 5.0], [5.0, 7.0]])


def test_read_array_formats(tmp_path):
    arr = "%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n4.0\n"
    mat = read_matrix_market(_write(tmp_path, arr))
    np.testing.assert_array_equal(mat.to_dense(), [[1.0, 3.0], [2.0, 4.0]])

    sym = "%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n2.0\n4.0\n"
    mat = read_matrix_market(_write(tmp_path, sym))
    np.testing.assert_array_equal(mat.to_dense(), [[1.0, 2.0], [2.0, 4.0]])


def test_read_rejects_unsupported(tmp_path):
    with pytest.raises(UnsupportedField):
        read_matrix_market(_write(
            tmp_path, "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 2.0 0.0\n"))
    with pytest.raises(UnsupportedField):
        read_matrix_market(_write(
            tmp_path, "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n"))


def test_read_parse_errors_carry_line(tmp_path):
    short = FIXTURE_3X2.replace("3 2 4", "3 2 5")
    with pytest.raises(ParseError):
        read_matrix_market(_write(tmp_path, short))

    bad_entry = FIXTURE_3X2.replace("3 1 0.25", "3 oops 0.25")
    with pytest.raises(ParseError) as exc:
        read_matrix_market(_write(tmp_path, bad_entry))
    assert exc.value.line == 6

    out_of_range = FIXTURE_3X2.replace("2 2 -2.0", "2 9 -2.0")
    with pytest.raises(ParseError):
        read_matrix_market(_write(tmp_path, out_of_range))

    with pytest.raises(ParseError):
        read_matrix_market(_write(tmp_path, "not a header\n"))


def test_write_read_roundtrip(tmp_path, rng):
    dense = rng.standard_normal((4, 3))
    mat = build_matrix(dense)
    path = str(tmp_path / "dense.mtx")
    write_matrix_market(path, mat)
    np.testing.assert_array_equal(read_matrix_market(path).to_dense(), dense)

    sparse = gen_sparse_gaussian(30, 10, 0.2, seed=5)
    path2 = str(tmp_path / "sparse.mtx")
    write_matrix_market(path2, sparse)
    back = read_matrix_market(path2)
    np.testing.assert_array_equal(back.to_dense(), sparse.to_dense())


def test_abtaha1_if_available():
    path = os.environ.get("KACZLAB_ABTAHA1", "tests/data/abtaha1.mtx")
    if not os.path.exists(path):
        pytest.skip("abtaha1.mtx not bundled")
    mat = read_matrix_market(path)
    assert (mat.m, mat.n, mat.nnz) == (14596, 209, 51307)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_gen_gaussian_shape_and_determinism():
    a = gen_gaussian(2, 2, seed=9)
    b = gen_gaussian(2, 2, seed=9)
    assert np.array_equal(a.to_dense(), b.to_dense())
    big = gen_gaussian(500, 100, seed=1)
    assert (big.m, big.n) == (500, 100)


def test_gen_gaussian_moments():
    mat = gen_gaussian(1000, 1000, seed=2)
    entries = mat.to_dense().ravel()
    assert abs(entries.mean()) <= 0.005  # 3 sigma at 1e6 samples is ~0.003
    assert abs(entries.std() - 1.0) <= 0.01


def test_gen_sparse_gaussian_properties():
    mat = gen_sparse_gaussian(300, 40, 0.05, seed=3)
    assert (mat.m, mat.n) == (300, 40)
    assert abs(mat.nnz - 0.05 * 300 * 40) <= 0.02 * 300 * 40
    assert np.all(mat.row_norms_sq > 0) and np.all(mat.col_norms_sq > 0)
    again = gen_sparse_gaussian(300, 40, 0.05, seed=3)
    assert np.array_equal(mat.to_dense(), again.to_dense())


# ---------------------------------------------------------------------------
# Reference oracle
# ---------------------------------------------------------------------------

def test_reference_identity():
    mat = build_matrix(np.eye(3))
    x, z = reference_solution(mat, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(x, [1.0, 2.0, 3.0], rtol=1e-12)
    np.testing.assert_allclose(z, 0.0, atol=1e-12)


def test_reference_two_by_one():
    mat = build_matrix([[1.0], [1.0]])
    x, z = reference_solution(mat, [1.0, 3.0])
    np.testing.assert_allclose(x, [2.0], rtol=1e-12)
    np.testing.assert_allclose(z, [-1.0, 1.0], rtol=1e-12)


def test_reference_matches_pinv(rng):
    for m, n in ((12, 5), (7, 7), (6, 9)):
        dense = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        mat = build_matrix(dense)
        x, z = reference_solution(mat, b)
        np.testing.assert_allclose(x, np.linalg.pinv(dense) @ b, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(z, b - dense @ x, rtol=1e-10, atol=1e-12)


def test_reference_optimality_and_refinement(rng):
    dense = rng.standard_normal((40, 12))
    mat = build_matrix(dense)
    b = rng.standard_normal(40)
    for tol in (1e-8, 1e-12):
        x, z = reference_solution(mat, b, oracle_tol=tol)
        resid = np.linalg.norm(dense.T @ (b - dense @ x))
        assert resid <= tol * math.sqrt(mat.frob_sq) * np.linalg.norm(b)
    x8, _ = reference_solution(mat, b, oracle_tol=1e-8)
    x12, _ = reference_solution(mat, b, oracle_tol=1e-12)
    assert np.linalg.norm(x8 - x12) <= 1e-6 * np.linalg.norm(x12)


def test_reference_zero_rhs():
    mat = build_matrix([[1.0, 2.0]])
    x, z = reference_solution(mat, [0.0])
    assert not x.any() and not z.any()


def test_reference_budget_exhaustion(rng):
    # an inconsistent system floors at rounding level, never at exactly zero
    mat = build_matrix(rng.standard_normal((6, 3)))
    with pytest.raises(OracleNotConverged):
        reference_solution(mat, rng.standard_normal(6), oracle_tol=0.0)


# ---------------------------------------------------------------------------
# Inconsistent right-hand sides
# ---------------------------------------------------------------------------

def test_rhs_two_by_one_direction():
    mat = build_matrix([[1.0], [1.0]])
    b = build_inconsistent_rhs(mat, [2.0], noise_seed=1, noise_scale=0.3)
    r = b - np.array([2.0, 2.0])
    # the orthogonal complement of the all-ones column is span{(1, -1)}
    assert abs(r @ np.array([1.0, 1.0])) <= 1e-10 * np.linalg.norm(r)
    assert np.linalg.norm(r) == pytest.approx(0.3 * np.linalg.norm([2.0, 2.0]), rel=1e-10)


def test_rhs_square_nonsingular_rejected(rng):
    dense = rng.standard_normal((5, 5))
    mat = build_matrix(dense)
    with pytest.raises(TrivialNullSpace):
        build_inconsistent_rhs(mat, np.ones(5), noise_seed=2)


def test_rhs_orthogonality(rng):
    for seed in range(5):
        dense = rng.standard_normal((30, 8))
        mat = build_matrix(dense)
        x_seed = rng.standard_normal(8)
        b = build_inconsistent_rhs(mat, x_seed, noise_seed=seed)
        r = b - dense @ x_seed
        assert np.linalg.norm(dense.T @ r) <= 1e-10 * math.sqrt(mat.frob_sq) * np.linalg.norm(r)
        assert np.linalg.norm(r) > 0


def test_linear_system_reference_invariants():
    system = make_gaussian_system(25, 6, seed=4)
    mat, b = system.mat, system.b
    resid = mat.rmatvec(b - mat.matvec(system.x_star))
    assert np.linalg.norm(resid) <= 1e-12 * math.sqrt(mat.frob_sq) * np.linalg.norm(b)
    np.testing.assert_allclose(system.z_star, b - mat.matvec(system.x_star),
                               rtol=1e-10, atol=1e-12)


def test_linear_system_is_immutable():
    b = np.arange(1.0, 4.0)
    system = LinearSystem(build_matrix([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]), b,
                          x_star=[0.5, 0.5])
    b[0] = 9.0
    assert system.b[0] == 1.0  # a copy, not the caller's array
    for vec in (system.b, system.x_star):
        with pytest.raises(ValueError, match="read-only"):
            vec[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.b = b
    assert copy.copy(system) is system and copy.deepcopy(system) is system
    assert copy.deepcopy([system])[0] is system


def test_linear_system_rejects_overflowing_norms():
    # the matrix itself keeps values near 1e300 (they round-trip through
    # Matrix Market), but every engine divides by its inf line norms
    mat = build_matrix([[1e300, 1.0], [2.0, 3.0], [1.0, 1.0]])
    assert mat.row_norms_sq[0] == np.inf
    with pytest.raises(NonFiniteEntry, match="engines divide by"):
        LinearSystem(mat, np.ones(3))


def test_oracle_and_rhs_reject_overflowing_norms():
    # both ran numpy arithmetic on the inf norms first and warned of overflow
    mat = build_matrix([[1e300, 1.0], [2.0, 3.0], [1.0, 1.0]])
    with pytest.raises(NonFiniteEntry, match="engines divide by"):
        reference_solution(mat, np.ones(3))
    with pytest.raises(NonFiniteEntry, match="engines divide by"):
        build_inconsistent_rhs(mat, np.ones(2), noise_seed=1)


# ---------------------------------------------------------------------------
# Scoring and images
# ---------------------------------------------------------------------------

def test_snr_values():
    assert snr([1.0, 1.0], [1.0, 0.0]) == pytest.approx(2.0)
    assert snr([1.0, 0.0], [2.0, 0.0]) == pytest.approx(1.0)
    assert snr([1.0, 2.0], [1.0, 2.0]) == math.inf


def test_write_pgm(tmp_path):
    img = np.array([[0.0, 1.0], [2.0, 4.0], [1.0, 3.0]])
    path = str(tmp_path / "img.pgm")
    write_pgm(path, img)
    with open(path, "rb") as fh:
        data = fh.read()
    header, rest = data.split(b"\n255\n", 1)
    assert header == b"P5\n2 3"
    pixels = np.frombuffer(rest, dtype=np.uint8).reshape(3, 2)
    expected = np.round((img - img.min()) / (img.max() - img.min()) * 255)
    np.testing.assert_array_equal(pixels, expected.astype(np.uint8))

    flat = str(tmp_path / "flat.pgm")
    write_pgm(flat, np.ones((2, 2)))
    with open(flat, "rb") as fh:
        assert fh.read().endswith(b"\x00" * 4)
