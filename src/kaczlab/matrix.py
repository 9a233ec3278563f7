"""Dual-access matrix storage and its elementary products and updates.

Every solver in this package touches individual rows A^(i) and columns A_(j)
inside its hot loop, so the matrix is stored twice: dense inputs keep
row-major and column-major mirrors, sparse inputs keep CSR and CSC forms of
the same values.  Squared row norms, squared column norms and the squared
Frobenius norm are cached at construction, together with the cumulative norm
tables of weighted index sampling and, for sparse storage, the fixed-width
tables of the batched dots.  Matrices with a zero row or zero column are
rejected outright; the solvers divide by those norms.

The Gram updates ``gram_row_update`` (out += c A A^(i)) and
``gram_col_update`` (out += c A^T A_(j)) memoize one Gram row per index, so
an index that comes back costs one axpy instead of a matrix-vector product
(dense) or a scatter-add (sparse).  Each side has its own p x p table, p
being the length of ``out`` (m for the row side, n for the column side),
allocated on the side's first update and only when p^2 is at most
``GRAM_MEMO_ENTRIES``; a larger side runs its kernel on every call.  The
table is zero-filled memory, so only the rows actually filled are touched:
at most 8 p^2 bytes per side.  Results do not depend on whether the memo is
warm, and on dense storage they are bit-identical to the kernel's.

Scalars are real float64 throughout.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import IndexOutOfRange, NonFiniteEntry, ZeroRowOrColumn

__all__ = [
    "GRAM_MEMO_ENTRIES",
    "RowColMatrix",
    "as_vector",
    "build_matrix",
]

# largest p * p table of Gram rows one side of a matrix memoizes (8 bytes an
# entry, so 128 MiB); a side whose table would be larger is never memoized
GRAM_MEMO_ENTRIES = 1 << 24


def as_vector(values, length: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a contiguous float64 1-D array, rejecting NaN/Inf entries."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteEntry(f"{name} contains NaN or Inf")
    return v


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate integer ranges [s, s+c) without a Python loop."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    pos = np.cumsum(counts)[:-1]
    out[pos] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(out)


class RowColMatrix:
    """Immutable real matrix with O(1)-indexable rows *and* columns.

    Attributes
    ----------
    m, n : int
        Row and column counts.
    nnz : int
        Stored nonzeros (``m * n`` for dense storage).
    row_norms_sq, col_norms_sq : ndarray
        Cached squared Euclidean norms of every row / column.
    aug_row_norms_sq, inv_aug_row_norms_sq : ndarray
        Cached stacked-row norms 1 + ||A^(i)||^2 and their reciprocals.
    frob_sq : float
        Cached squared Frobenius norm.
    is_sparse : bool
        Whether the dual storage is CSR+CSC (True) or C-order+F-order (False).
    """

    def __init__(self, data, shape=None):
        if sp.issparse(data):
            self._init_sparse(data.tocoo())
        elif isinstance(data, tuple) and len(data) == 3:
            rows, cols, vals = data
            if shape is None:
                raise ValueError("triplet input requires an explicit shape")
            vals = np.asarray(vals, dtype=np.float64)
            if vals.size and not np.all(np.isfinite(vals)):
                raise NonFiniteEntry("matrix entries contain NaN or Inf")
            coo = sp.coo_matrix((vals, (rows, cols)), shape=shape)
            self._init_sparse(coo)
        else:
            dense = np.array(data, dtype=np.float64, order="C", copy=True)
            if dense.ndim != 2:
                raise ValueError(f"matrix must be two-dimensional, got shape {dense.shape}")
            if not np.all(np.isfinite(dense)):
                raise NonFiniteEntry("matrix entries contain NaN or Inf")
            self._init_dense(dense)
        self._check_no_zero_lines()
        self.row_norms_sq.flags.writeable = False
        self.col_norms_sq.flags.writeable = False
        # denominators of the stacked-row criterion, shared by all solvers
        self.aug_row_norms_sq = 1.0 + self.row_norms_sq
        self.aug_row_norms_sq.flags.writeable = False
        self.inv_aug_row_norms_sq = 1.0 / self.aug_row_norms_sq
        self.inv_aug_row_norms_sq.flags.writeable = False
        self._row_cum = np.cumsum(self.row_norms_sq)
        self._col_cum = np.cumsum(self.col_norms_sq)
        # padded (index, value) tables of the batched dots; None selects the
        # segmented path
        self._row_pad = self._col_pad = None
        # whether row_segments serves batches of rows: on a padded row table
        # under half full, most of a padded gather would read padding
        self._gather_row_segments = False
        if self.is_sparse:
            self._row_pad = self._build_padding(self._rp, self._ri, self._rx, self.m)
            self._col_pad = self._build_padding(self._cp, self._ci, self._cx, self.n)
            self._gather_row_segments = (
                self._row_pad is None or 2 * self.nnz < self._row_pad[0].size)
        # memoized Gram rows of the row side (A A^T) and the column side
        # (A^T A), each a (table, filled) pair allocated on first use
        self._gram_memo = [None, None]

    def _init_dense(self, dense: np.ndarray):
        self.is_sparse = False
        self.m, self.n = dense.shape
        self._rows = dense
        self._cols = np.asfortranarray(dense)
        self._rows.flags.writeable = False
        self.nnz = self.m * self.n
        self.row_norms_sq = np.einsum("ij,ij->i", dense, dense)
        self.col_norms_sq = np.einsum("ij,ij->j", dense, dense)
        self.frob_sq = float(self.row_norms_sq.sum())
        self._csr = self._csc = self._csrT = None
        self._rp = self._ri = self._rx = None
        self._cp = self._ci = self._cx = None

    def _init_sparse(self, coo: sp.coo_matrix):
        if coo.data.size and not np.all(np.isfinite(coo.data)):
            raise NonFiniteEntry("matrix entries contain NaN or Inf")
        self.is_sparse = True
        self.m, self.n = coo.shape
        csr = coo.tocsr()
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csc = csr.tocsc()
        self._csr, self._csc = csr, csc
        self._csrT = csr.T  # CSC view sharing the CSR arrays; used for A^T @ z
        self._rows = self._cols = None
        self._rp, self._ri, self._rx = csr.indptr, csr.indices, csr.data
        self._cp, self._ci, self._cx = csc.indptr, csc.indices, csc.data
        self.nnz = int(csr.nnz)
        self.row_norms_sq = self._segment_sums(self._rx**2, self._rp, self.m)
        self.col_norms_sq = self._segment_sums(self._cx**2, self._cp, self.n)
        self.frob_sq = float(self.row_norms_sq.sum())

    @staticmethod
    def _segment_sums(values: np.ndarray, indptr: np.ndarray, count: int) -> np.ndarray:
        out = np.zeros(count)
        nonempty = np.diff(indptr) > 0
        if values.size:
            out[nonempty] = np.add.reduceat(values, indptr[:-1][nonempty])
        return out

    def _check_no_zero_lines(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("matrix must have at least one row and one column")
        zr = np.flatnonzero(self.row_norms_sq == 0.0)
        if zr.size:
            raise ZeroRowOrColumn(int(zr[0]), "row")
        zc = np.flatnonzero(self.col_norms_sq == 0.0)
        if zc.size:
            raise ZeroRowOrColumn(int(zc[0]), "column")

    def _check_row(self, i: int):
        if not 0 <= i < self.m:
            raise IndexOutOfRange(f"row index {i} outside [0, {self.m})")

    def _check_col(self, j: int):
        if not 0 <= j < self.n:
            raise IndexOutOfRange(f"column index {j} outside [0, {self.n})")

    # -- element access ----------------------------------------------------

    def to_dense(self) -> np.ndarray:
        if not self.is_sparse:
            return self._rows.copy()
        return self._csr.toarray()

    # -- products ----------------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x."""
        if not self.is_sparse:
            return self._rows @ x
        return self._csr @ x

    def rmatvec(self, z: np.ndarray) -> np.ndarray:
        """A^T @ z."""
        if not self.is_sparse:
            return z @ self._rows
        return self._csrT @ z

    def row_dot(self, i: int, x: np.ndarray) -> float:
        """A^(i) . x for one row."""
        if not self.is_sparse:
            return float(self._rows[i] @ x)
        s, e = self._rp[i], self._rp[i + 1]
        return float(self._rx[s:e] @ x[self._ri[s:e]])

    def col_dot(self, j: int, z: np.ndarray) -> float:
        """A_(j) . z for one column."""
        if not self.is_sparse:
            return float(self._cols[:, j] @ z)
        s, e = self._cp[j], self._cp[j + 1]
        return float(self._cx[s:e] @ z[self._ci[s:e]])

    @staticmethod
    def _build_padding(indptr, indices, data, count):
        """Fixed-width (index, value) tables for loop-free batched row dots.

        Padded gathers beat the segmented path on every matrix measured, so
        both stay: this returns None only when padding would blow memory up
        (one long line in an otherwise short-line matrix), and callers then
        use the segmented path.
        """
        counts = np.diff(indptr)
        width = int(counts.max()) if counts.size else 0
        if width == 0 or count * width > 16 * indices.size + (1 << 22):
            return None
        pad_idx = np.zeros((count, width), dtype=np.int32)
        pad_val = np.zeros((count, width), dtype=np.float64)
        flat = _concat_ranges(indptr[:-1], counts)
        lane = np.arange(len(flat)) - np.repeat(indptr[:-1], counts)
        line = np.repeat(np.arange(count), counts)
        pad_idx[line, lane] = indices[flat]
        pad_val[line, lane] = data[flat]
        return pad_idx, pad_val

    @staticmethod
    def _gather_segments(indptr, indices, data, ids):
        """Values and indices of lines ``ids``, concatenated, and the offsets
        of each line's segment (line r at ``offsets[r]:offsets[r + 1]``)."""
        starts = indptr[ids]
        counts = indptr[ids + 1] - starts
        flat = _concat_ranges(starts, counts)
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return data[flat], indices[flat], offsets

    @classmethod
    def _segmented_dots(cls, indptr, indices, data, ids, vec):
        vals, idx, offsets = cls._gather_segments(indptr, indices, data, ids)
        if not vals.size:
            return np.zeros(len(ids))
        return np.add.reduceat(vals * vec[idx], offsets[:-1])

    def row_segments(self, rows: np.ndarray):
        """CSR values, column indices and segment offsets of a batch of rows.

        Returns ``(values, cols, offsets)`` with row ``rows[r]`` stored at
        ``offsets[r]:offsets[r + 1]``, so that ``np.add.reduceat(values *
        x[cols], offsets[:-1])`` gives the row dots.  Returns None where
        ``rows_dot`` is the cheaper way to score rows: dense storage, and a
        sparse matrix whose padded row table is at least half full.
        """
        if not self._gather_row_segments:
            return None
        return self._gather_segments(self._rp, self._ri, self._rx, rows)

    def rows_dot(self, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """A^(i) . x for a batch of rows (one vector op, no Python loop)."""
        if not self.is_sparse:
            return self._rows[rows] @ x
        pad = self._row_pad
        if pad is not None:
            idx, val = pad
            return np.einsum("ij,ij->i", val[rows], x[idx[rows]])
        return self._segmented_dots(self._rp, self._ri, self._rx, rows, x)

    def cols_dot(self, cols: np.ndarray, z: np.ndarray) -> np.ndarray:
        """A_(j) . z for a batch of columns."""
        if not self.is_sparse:
            return z @ self._cols[:, cols]
        pad = self._col_pad
        if pad is not None:
            idx, val = pad
            return np.einsum("ij,ij->i", val[cols], z[idx[cols]])
        return self._segmented_dots(self._cp, self._ci, self._cx, cols, z)

    # -- in-place rank-one style updates (hot path; no index checks) --------

    def add_row_to(self, out: np.ndarray, i: int, c: float):
        """out += c * A^(i) with out of length n."""
        if not self.is_sparse:
            out += c * self._rows[i]
            return
        s, e = self._rp[i], self._rp[i + 1]
        out[self._ri[s:e]] += c * self._rx[s:e]

    def add_col_to(self, out: np.ndarray, j: int, c: float):
        """out += c * A_(j) with out of length m."""
        if not self.is_sparse:
            out += c * self._cols[:, j]
            return
        s, e = self._cp[j], self._cp[j + 1]
        out[self._ci[s:e]] += c * self._cx[s:e]

    @staticmethod
    def _scatter_add(out: np.ndarray, idx: np.ndarray, vals: np.ndarray):
        # overlapping targets need an accumulating scatter; bincount beats
        # add.at only once the update is large
        if idx.size < 4096:
            np.add.at(out, idx, vals)
        else:
            out += np.bincount(idx, weights=vals, minlength=out.shape[0])

    def gram_row_update(self, out: np.ndarray, i: int, c: float):
        """out += c * (A @ A^(i)), from the memo of Gram rows where it fits."""
        self._memoized_update(0, out, i, c, self._gram_row_kernel)

    def gram_col_update(self, out: np.ndarray, j: int, c: float):
        """out += c * (A^T @ A_(j)), from the memo of Gram rows where it fits."""
        self._memoized_update(1, out, j, c, self._gram_col_kernel)

    def _memoized_update(self, side: int, out: np.ndarray, k: int, c: float, kernel):
        """out += c * G[k] for the Gram matrix G of one side, G[k] memoized.

        A side whose p x p table (p = len(out)) would exceed
        ``GRAM_MEMO_ENTRIES`` entries runs ``kernel`` on every call.  A miss
        runs it once with c = 1.0 into a zeroed table row, which holds the
        kernel's product exactly; every call then adds c times that row, so
        results do not depend on whether the memo is warm.
        """
        memo = self._gram_memo[side]
        if memo is None:
            p = out.shape[0]
            if p * p > GRAM_MEMO_ENTRIES:
                kernel(out, k, c)
                return
            # zeroed pages are mapped on first write: rows never filled cost
            # no memory
            memo = self._gram_memo[side] = (np.zeros((p, p)), np.zeros(p, dtype=bool))
        table, filled = memo
        row = table[k]
        if not filled[k]:
            kernel(row, k, 1.0)
            filled[k] = True
        out += c * row

    def _gram_row_kernel(self, out: np.ndarray, i: int, c: float):
        """out += c * (A @ A^(i)); touches only columns where row i is nonzero."""
        if not self.is_sparse:
            out += c * (self._rows @ self._rows[i])
            return
        s, e = self._rp[i], self._rp[i + 1]
        cols = self._ri[s:e]
        weights = c * self._rx[s:e]
        pad = self._col_pad
        if pad is not None:
            idx, val = pad
            contrib = weights[:, None] * val[cols]
            self._scatter_add(out, idx[cols].ravel(), contrib.ravel())
            return
        starts = self._cp[cols]
        counts = self._cp[cols + 1] - starts
        flat = _concat_ranges(starts, counts)
        contrib = np.repeat(weights, counts) * self._cx[flat]
        self._scatter_add(out, self._ci[flat], contrib)

    def _gram_col_kernel(self, out: np.ndarray, j: int, c: float):
        """out += c * (A^T @ A_(j)); touches only rows where column j is nonzero."""
        if not self.is_sparse:
            out += c * (self._cols[:, j] @ self._rows)
            return
        s, e = self._cp[j], self._cp[j + 1]
        rows = self._ci[s:e]
        weights = c * self._cx[s:e]
        pad = self._row_pad
        if pad is not None:
            idx, val = pad
            contrib = weights[:, None] * val[rows]
            self._scatter_add(out, idx[rows].ravel(), contrib.ravel())
            return
        starts = self._rp[rows]
        counts = self._rp[rows + 1] - starts
        flat = _concat_ranges(starts, counts)
        contrib = np.repeat(weights, counts) * self._rx[flat]
        self._scatter_add(out, self._ri[flat], contrib)

    # -- cached cumulative norm tables for weighted index sampling ----------

    def row_norm_cumsum(self) -> np.ndarray:
        return self._row_cum

    def col_norm_cumsum(self) -> np.ndarray:
        return self._col_cum


def build_matrix(data, shape=None) -> RowColMatrix:
    """Build a :class:`RowColMatrix` from dense, scipy-sparse or triplet input.

    Triplet input is ``(row_indices, col_indices, values)`` plus an explicit
    ``shape``; duplicate coordinates are summed.
    """
    return RowColMatrix(data, shape=shape)

