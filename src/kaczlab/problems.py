"""Problem ingestion and synthesis.

Covers Matrix Market reading/writing, Gaussian test matrices, inconsistent
right-hand sides built from noise orthogonal to the column space, the
deterministic least-squares reference oracle, reconstruction scoring, and
binary PGM image output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.io

from .errors import (
    NonFiniteEntry,
    OracleNotConverged,
    ParseError,
    TrivialNullSpace,
    UnsupportedField,
)
from .matrix import RowColMatrix, as_vector, build_matrix
from .sampling import STREAM_MATRIX, STREAM_NOISE, RngStream, _sample_without_replacement

__all__ = [
    "LinearSystem",
    "read_matrix_market",
    "write_matrix_market",
    "gen_gaussian",
    "gen_sparse_gaussian",
    "reference_solution",
    "build_inconsistent_rhs",
    "snr",
    "write_pgm",
]

DEFAULT_ORACLE_TOL = 1e-12


def _check_finite_norms(mat: RowColMatrix) -> None:
    """Raise :class:`NonFiniteEntry` when the squared norm of ``mat`` overflows."""
    if not math.isfinite(mat.frob_sq):
        raise NonFiniteEntry("squared matrix norm overflows; the engines divide by the "
                             "squared row and column norms")


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """A matrix, a right-hand side, and (optionally) the reference solution.

    ``x_star`` is the least-norm least-squares solution and ``z_star`` the
    component of b orthogonal to the column space, ``z_star = b - A x_star``.
    A system is immutable, as its matrix is: it holds read-only copies of
    its vectors, and ``copy.copy`` and ``copy.deepcopy`` return it.  Its
    matrix must have finite line norms, which the engines divide by.
    """

    mat: RowColMatrix
    b: np.ndarray
    x_star: np.ndarray | None = None
    z_star: np.ndarray | None = None
    provenance: str = ""

    def __post_init__(self):
        _check_finite_norms(self.mat)
        for name, length in (("b", self.mat.m), ("x_star", self.mat.n), ("z_star", self.mat.m)):
            if getattr(self, name) is not None:
                v = as_vector(getattr(self, name), length=length, name=name).copy()
                v.flags.writeable = False
                object.__setattr__(self, name, v)

    def __deepcopy__(self, memo=None):  # immutable
        return self

    __copy__ = __deepcopy__

    def with_reference(self, oracle_tol: float = DEFAULT_ORACLE_TOL) -> "LinearSystem":
        """Return a copy carrying the oracle solution."""
        if self.x_star is not None and self.z_star is not None:
            return self
        x_star, z_star = reference_solution(self.mat, self.b, oracle_tol)
        return replace(self, x_star=x_star, z_star=z_star)


# ---------------------------------------------------------------------------
# Matrix Market
# ---------------------------------------------------------------------------

_MM_BANNER = "%%matrixmarket"


def read_matrix_market(path) -> RowColMatrix:
    """Read a Matrix Market file (coordinate or array; real, integer or
    pattern; general or symmetric).

    Complex fields and skew/hermitian symmetries are rejected with
    :class:`UnsupportedField`.  Structural problems raise :class:`ParseError`
    carrying the offending 1-based line number.  The size line is checked
    before anything is allocated: it must declare rows and columns, a square
    matrix if symmetric, no more values than the rest of the file holds (an
    entry a line, a value a character) and entries enough to fill every row
    and column (a mirrored entry fills two).
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(1, "empty file")
    header = lines[0].strip().lower().split()
    if len(header) != 5 or header[0] != _MM_BANNER or header[1] != "matrix":
        raise ParseError(1, "missing '%%MatrixMarket matrix' header")
    fmt, field, symmetry = header[2], header[3], header[4]
    if fmt not in ("coordinate", "array"):
        raise ParseError(1, f"unknown format {fmt!r}")
    if field == "complex":
        raise UnsupportedField("complex matrices are not supported")
    if field not in ("real", "integer", "pattern"):
        raise UnsupportedField(f"unsupported field {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise UnsupportedField(f"unsupported symmetry {symmetry!r}")
    if fmt == "array" and field == "pattern":
        raise ParseError(1, "array format cannot carry a pattern field")

    # (line number, fields) of every line after the header that is neither
    # blank nor a comment; the first is the size line
    records = ((no, text.split()) for no, text in enumerate(map(str.strip, lines[1:]), 2)
               if text and not text.startswith("%"))
    lineno, size_parts = next(records, (len(lines) + 1, None))
    if size_parts is None:
        raise ParseError(lineno, "missing size line")
    coordinate = fmt == "coordinate"
    if len(size_parts) != 2 + coordinate:
        raise ParseError(lineno, "coordinate size line needs 'm n nnz'" if coordinate
                         else "array size line needs 'm n'")
    try:
        m, n, *nnz = (int(p) for p in size_parts)
    except ValueError:
        raise ParseError(lineno, "size line entries must be integers") from None
    if m < 1 or n < 1:
        raise ParseError(lineno, f"a {m} x {n} matrix has no rows or no columns")
    if symmetry == "symmetric" and m != n:
        raise ParseError(lineno, f"symmetric {fmt} matrix must be square")
    if coordinate:
        expected, room = nnz[0], len(lines) - lineno
    else:
        expected = m * n if symmetry == "general" else n * (n + 1) // 2
        room = sum(map(len, lines[lineno:]))
    if not 0 <= expected <= room:
        raise ParseError(lineno, f"{expected} values declared, room for at most {room}")
    if coordinate and max(m, n) > expected * (1 + (symmetry == "symmetric")):
        raise ParseError(lineno, f"{expected} entries leave a row or column of {m} x {n} empty")

    values = np.empty(expected, dtype=np.float64)
    count = 0
    if coordinate:
        needs_value = field != "pattern"
        ri = np.empty(expected, dtype=np.int64)
        ci = np.empty(expected, dtype=np.int64)
        for no, parts in records:
            if count >= expected:
                raise ParseError(no, f"more than the declared {expected} entries")
            if len(parts) != (3 if needs_value else 2):
                raise ParseError(no, "malformed entry line")
            try:
                i, j = int(parts[0]), int(parts[1])
                v = float(parts[2]) if needs_value else 1.0
            except ValueError:
                raise ParseError(no, "malformed entry line") from None
            if not (1 <= i <= m and 1 <= j <= n):
                raise ParseError(no, f"entry ({i}, {j}) outside {m} x {n}")
            ri[count], ci[count], values[count] = i - 1, j - 1, v
            count += 1
        if count != expected:
            raise ParseError(len(lines), f"declared {expected} entries but found {count}")
        if symmetry == "symmetric":
            off = ri != ci
            ri, ci = np.concatenate([ri, ci[off]]), np.concatenate([ci, ri[off]])
            values = np.concatenate([values, values[off]])
        return build_matrix((ri, ci, values), shape=(m, n))

    # array format: dense values in column-major order
    for no, parts in records:
        for p in parts:
            if count >= expected:
                raise ParseError(no, f"more than the expected {expected} values")
            try:
                values[count] = float(p)
            except ValueError:
                raise ParseError(no, f"bad value {p!r}") from None
            count += 1
    if count != expected:
        raise ParseError(len(lines), f"expected {expected} values but found {count}")
    if symmetry == "general":
        return build_matrix(values.reshape((m, n), order="F"))
    # the lower triangle column by column is the upper triangle row by row
    upper = np.zeros((n, n))
    upper[np.triu_indices(n)] = values
    return build_matrix(np.where(np.tri(n, k=-1, dtype=bool), upper.T, upper))


def write_matrix_market(path, mat: RowColMatrix, comment: str = ""):
    """Write ``mat`` to exactly ``path`` with scipy's writer: ``coordinate real
    general`` for sparse storage, ``array real general`` for dense, values in
    shortest round-trip form, so :func:`read_matrix_market` reads them back
    bit for bit.

    ``symmetry="general"`` keeps scipy from storing one triangle of a
    symmetric matrix, and the open binary handle keeps it from appending
    ``.mtx`` to a path that lacks it.
    """
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, mat._csr if mat.is_sparse else mat.to_dense(), comment=comment,
                         field="real", symmetry="general")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def gen_gaussian(m: int, n: int, seed: int) -> RowColMatrix:
    """Dense matrix of i.i.d. standard normal entries; bit-reproducible."""
    rng = RngStream(seed, STREAM_MATRIX)
    return build_matrix(rng.standard_normal((m, n)))


def gen_sparse_gaussian(m: int, n: int, density: float, seed: int) -> RowColMatrix:
    """Sparse matrix with ~density*m*n standard normal entries.

    Positions are drawn uniformly without replacement; every row and column
    is then guaranteed at least one entry so construction never rejects.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    rng = RngStream(seed, STREAM_MATRIX)
    total = m * n
    nnz = min(total, max(m, n, int(round(total * density))))
    flat = _sample_without_replacement(total, nnz, rng)
    rows = flat // n
    cols = flat % n
    # patch uncovered rows/columns with one extra entry each
    missing_rows = np.flatnonzero(np.bincount(rows, minlength=m) == 0)
    if missing_rows.size:
        rows = np.concatenate([rows, missing_rows])
        cols = np.concatenate([cols, rng.integers(0, n, size=missing_rows.size)])
    missing_cols = np.flatnonzero(np.bincount(cols, minlength=n) == 0)
    if missing_cols.size:
        cols = np.concatenate([cols, missing_cols])
        rows = np.concatenate([rows, rng.integers(0, m, size=missing_cols.size)])
    vals = rng.standard_normal(rows.size)
    return build_matrix((rows, cols, vals), shape=(m, n))


# ---------------------------------------------------------------------------
# Least-squares reference oracle
# ---------------------------------------------------------------------------


def reference_solution(mat: RowColMatrix, b, oracle_tol: float = DEFAULT_ORACLE_TOL):
    """Least-norm least-squares solution and its orthogonal remainder.

    Runs conjugate gradient on the normal equations starting from zero, so
    the iterate stays in range(A^T) and converges to the pseudoinverse
    solution.  Returns ``(x_star, z_star)`` with ``z_star = b - A x_star``
    and ``||A^T z_star|| <= oracle_tol * ||A||_F * ||b||``.  CG gets
    4 min(m, n) + 200 iterations in all, over at most five restarts from
    the recomputed residual; past that it raises ``OracleNotConverged``.
    A matrix whose squared norm overflows raises :class:`NonFiniteEntry`.
    """
    _check_finite_norms(mat)
    b = as_vector(b, length=mat.m, name="b")
    bnorm = float(np.linalg.norm(b))
    x = np.zeros(mat.n)
    if bnorm == 0.0:
        return x, b.copy()
    target = oracle_tol * math.sqrt(mat.frob_sq) * bnorm
    max_iters = 4 * min(mat.m, mat.n) + 200
    used = 0
    r = b.copy()
    for _ in range(5):
        s = mat.rmatvec(r)
        if np.linalg.norm(s) <= target:
            return x, r
        p = s.copy()
        gamma = float(s @ s)
        while used < max_iters:
            used += 1
            q = mat.matvec(p)
            qq = float(q @ q)
            if qq <= 0.0:
                break
            a = gamma / qq
            x += a * p
            r -= a * q
            s = mat.rmatvec(r)
            g2 = float(s @ s)
            if g2 <= target * target:
                break
            p *= g2 / gamma
            p += s
            gamma = g2
        r = b - mat.matvec(x)  # recompute truly; recurrences drift at tight tolerances
    s = mat.rmatvec(r)
    if np.linalg.norm(s) <= target:
        return x, r
    raise OracleNotConverged(
        f"normal-equation residual {np.linalg.norm(s):.3e} above target {target:.3e} "
        f"after {used} iterations"
    )


# ---------------------------------------------------------------------------
# Inconsistent right-hand sides
# ---------------------------------------------------------------------------


def build_inconsistent_rhs(mat: RowColMatrix, x_seed_solution, noise_seed: int,
                           noise_scale: float = 0.5,
                           oracle_tol: float = DEFAULT_ORACLE_TOL) -> np.ndarray:
    """b = A x_seed + r with nonzero r orthogonal to the column space.

    The noise is a seeded Gaussian vector projected onto range(A)^perp (by
    subtracting its least-squares fit) and rescaled to
    ``noise_scale * ||A x_seed||``.  Raises :class:`TrivialNullSpace` when
    the projection is numerically zero three redraws in a row, and
    :class:`NonFiniteEntry` when the squared norm of A overflows.
    """
    _check_finite_norms(mat)
    x_seed = as_vector(x_seed_solution, length=mat.n, name="x_seed_solution")
    base = mat.matvec(x_seed)
    base_norm = float(np.linalg.norm(base))
    if base_norm == 0.0:
        raise ValueError("A @ x_seed_solution is zero; cannot scale the noise")
    if noise_scale <= 0.0:
        raise ValueError(f"noise_scale must be positive, got {noise_scale}")
    rng = RngStream(noise_seed, STREAM_NOISE)
    fro = math.sqrt(mat.frob_sq)
    for _ in range(3):
        w = rng.standard_normal(mat.m)
        _, r = reference_solution(mat, w, oracle_tol)
        rnorm = float(np.linalg.norm(r))
        if rnorm > 1e-6 * float(np.linalg.norm(w)):
            break
    else:
        raise TrivialNullSpace("range(A)^perp is numerically trivial")
    # one refinement pass if the projection is not orthogonal enough yet
    for _ in range(2):
        if float(np.linalg.norm(mat.rmatvec(r))) <= 1e-11 * fro * rnorm:
            break
        _, r = reference_solution(mat, r, oracle_tol)
        rnorm = float(np.linalg.norm(r))
    r *= noise_scale * base_norm / rnorm
    return base + r


# ---------------------------------------------------------------------------
# Scoring and image output
# ---------------------------------------------------------------------------


def snr(x_ref, x_hat) -> float:
    """Energy of the reference over the energy of the error.

    Returns ``inf`` when the two vectors match exactly (zero denominator).
    """
    x_ref = as_vector(x_ref, name="x_ref")
    x_hat = as_vector(x_hat, length=x_ref.shape[0], name="x_hat")
    diff = x_ref - x_hat
    den = float(diff @ diff)
    if den == 0.0:
        return math.inf
    return float(x_ref @ x_ref) / den


def write_pgm(path, image: np.ndarray):
    """Write a 2-D array as binary 8-bit PGM, min-max scaled per image."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"image must be two-dimensional, got shape {img.shape}")
    lo, hi = float(img.min()), float(img.max())
    if hi > lo:
        scaled = np.round((img - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(img)
    data = scaled.astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes(order="C"))
