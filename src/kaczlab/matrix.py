"""Dual-access matrix storage and its elementary products and updates.

Every solver in this package is a row-action method on the stacked system
[[I, A], [A^T, 0]]: a row step reads a row A^(i) of A, and a column step
reads a column A_(j), which is a row of A^T.  So the matrix keeps two line
stores of the same values, one holding the rows of A and one the rows of
A^T, and each elementary operation (single and batched dots, scaled adds,
Gram updates, index checks) is written once on the store; ``row_*`` and
``col_*`` methods run it on one store or the other.  A dense store holds a
row-major block: A itself, or the transpose of a column-major copy of A.  A
sparse store holds the CSR arrays of its operand: A's CSR form, or A's CSC
form, which is the CSR form of A^T.  Each store caches its squared line norms
and their cumulative table for weighted index sampling.  Matrices with a zero
row or zero column, or one whose squared norm underflows to 0, are rejected
outright; the solvers divide by those norms.

A sparse store's batched kernels are scipy's compiled CSR loops from the
private module ``scipy.sparse._sparsetools``, which scipy builds and ships,
so they need no build step here: ``csr_matvec`` dots a batch of lines with a
vector where they lie in the store's own arrays, ``csr_row_index`` gathers
the lines a sparse Gram row is accumulated from into contiguous segments,
and ``csc_matvec`` adds their weighted sum into the Gram row in place.  Only
this module calls them.  They check no bounds: an id past either end of a
line table, or a vector or output shorter than the indices that reach into
it, reads or writes outside the arrays.  So before a call every
caller-supplied id is checked against [0, count) (``IndexOutOfRange``), and
every vector and output against its length and float64 dtype
(``ValueError``).

A sparse store keeps ``np.intp`` copies of the CSR index arrays (numpy
casts an int32 index array to intp on every fancy index, and the compiled
loops take one integer type throughout); the scipy operator ``op`` keeps
scipy's own int32 arrays for whole products.  It also keeps each line's
(start, end) offsets as one 16-byte record, so a batch's pointer pairs are
one gather.  The line stores and scipy's arrays take 12.5 MB on the
60000 x 209 benchmark system and 72 MB on the N=60 tomography matrix
(22375 x 3600), the records 1.0 MB and 0.4 MB of that; one set-up of those
workloads peaks at 75 MiB and 221 MiB of RSS.

The Gram updates ``gram_row_update`` (out += c A A^(i)) and
``gram_col_update`` (out += c A^T A_(j)) memoize one Gram row per index, so
an index that comes back costs one axpy instead of a matrix-vector product
(dense) or an accumulation of the other store's lines (sparse).  Each
store has its own p x p table, p being the length of ``out`` (m for the row
side, n for the column side), allocated on the store's first update and only
when p^2 is at most ``GRAM_MEMO_ENTRIES``; a larger side runs its kernel on
every call.  ``col_grams_memoized`` tells whether the column side's table
has been allocated.  The table is zero-filled memory, so only the rows
actually filled are touched: at most 8 p^2 bytes per side.  Results do not
depend on whether the memo is warm, and on dense storage they are
bit-identical to the kernel's.  So a matrix is immutable, memo and all: ``copy.copy`` and
``copy.deepcopy`` return it, and copies share every cache keyed on it.

Scalars are real float64 throughout.
"""

from __future__ import annotations

import bisect

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

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


def _segment_sums(values: np.ndarray, indptr: np.ndarray, count: int) -> np.ndarray:
    out = np.zeros(count)
    nonempty = np.diff(indptr) > 0
    if values.size:
        out[nonempty] = np.add.reduceat(values, indptr[:-1][nonempty])
    return out


def check_vector(v: np.ndarray, length: int, name: str):
    """Reject anything but a float64 1-D array of ``length`` entries.

    The sparsetools loops check no bounds: they read and write through
    whatever pointers and lengths they are given.
    """
    if not (isinstance(v, np.ndarray) and v.ndim == 1 and v.dtype == np.float64
            and v.shape[0] == length):
        raise ValueError(f"{name} must be a float64 vector of length {length}, got "
                         f"{getattr(v, 'dtype', type(v).__name__)} of shape "
                         f"{np.shape(v)}")


class _Lines:
    """The rows of one operand of the stacked system: A or A^T.

    ``lines`` is a row-major ndarray, or a scipy matrix in CSR form whose
    ``indptr``/``indices``/``data`` the store keeps; ``op`` is the operand
    for whole products and dense Gram rows; ``norms_sq`` gives a dense
    operand's squared line norms.  ``count`` lines of ``width`` entries.
    The Gram methods take the other store, whose lines a sparse Gram row is
    accumulated from.
    """

    def __init__(self, kind: str, lines, op, norms_sq=None):
        self.kind = kind
        self.count, self.width = lines.shape
        self.op = op
        if sp.issparse(lines):
            self.block = None
            # intp copies: numpy casts an int32 index array on every fancy
            # index, so scipy's own arrays stay with ``op``
            self.indptr = lines.indptr.astype(np.intp)
            self.indices = lines.indices.astype(np.intp)
            self.data = lines.data
            self.lengths = np.diff(self.indptr)
            # line k's (start, end) offsets as one record (see the module
            # docstring)
            self.bounds = np.stack((self.indptr[:-1], self.indptr[1:]), axis=1).view(
                np.dtype((np.void, 2 * self.indptr.itemsize))).ravel()
            # a square past float64's range is inf, as a dense store's einsum
            # gives it, without a warning
            with np.errstate(over="ignore"):
                norms_sq = _segment_sums(self.data**2, self.indptr, self.count)
        else:
            self.block = lines
        norms_sq.flags.writeable = False
        self.norms_sq = norms_sq
        self.cum = np.cumsum(norms_sq)
        # memoized Gram rows: a (table, filled) pair allocated on first use
        self.memo = None

    def check(self, k: int):
        if not 0 <= k < self.count:
            raise IndexOutOfRange(f"{self.kind} index {k} outside [0, {self.count})")

    def dot(self, k: int, v: np.ndarray) -> float:
        if self.block is not None:
            return float(self.block[k] @ v)
        s, e = self.indptr[k], self.indptr[k + 1]
        return float(self.data[s:e] @ v[self.indices[s:e]])

    def checked(self, ids) -> np.ndarray:
        """An intp copy of ``ids``, every id checked against [0, count) first:
        the compiled loops read line ``ids[r]`` through ``indptr`` unchecked,
        and an id past either end reads outside it."""
        ids = np.asarray(ids).astype(np.intp, casting="safe")
        if ids.size and (ids.min() < 0 or ids.max() >= self.count):
            bad = ids[(ids < 0) | (ids >= self.count)][0]
            raise IndexOutOfRange(f"{self.kind} index {bad} outside [0, {self.count})")
        return ids

    def _gather(self, ids: np.ndarray):
        """Values and indices of intp lines ``ids``, already known to lie in
        [0, count), concatenated, and the offsets of each line's segment
        (line r at ``offsets[r]:offsets[r + 1]``)."""
        offsets = np.zeros(len(ids) + 1, dtype=np.intp)
        np.add.accumulate(self.lengths[ids], out=offsets[1:])
        idx = np.empty(offsets[-1], dtype=np.intp)
        vals = np.empty(offsets[-1])
        _sparsetools.csr_row_index(len(ids), ids, self.indptr, self.indices, self.data,
                                   idx, vals)
        return vals, idx, offsets

    def pair_dots(self, ptr: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Dot of ``v`` with each sparse line whose (start, end) offsets ``ptr``
        lists, flat, in non-increasing line order; read where the lines lie in
        the store's arrays.

        ``csr_matvec`` runs over ``ptr`` as a CSR pointer array, so the
        "line" between two pairs runs from one line's end back to a start at
        or before it: it is empty, costs nothing, and its output slot is
        dropped.  Each dot sums the same products in the same order as a dot
        of the gathered line, so the results are the same bits as
        ``csr[ids] @ v``.  The offsets come from ``bounds`` of checked ids.
        """
        check_vector(v, self.width, "vector")
        out = np.zeros(max(len(ptr) - 1, 0))
        _sparsetools.csr_matvec(len(out), self.width, ptr, self.indices, self.data, v, out)
        return out[::2]

    def line_dots(self, ids: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``pair_dots`` of sparse lines ``ids`` (intp, already checked) in
        any order."""
        order = np.argsort(ids, kind="stable")[::-1]
        dots = np.empty(len(ids))
        dots[order] = self.pair_dots(self.bounds[ids[order]].view(np.intp), v)
        return dots

    def dots(self, ids, v: np.ndarray) -> np.ndarray:
        if self.block is not None:
            return self.block[ids] @ v
        return self.line_dots(self.checked(ids), v)

    def add_to(self, out: np.ndarray, k: int, c: float):
        """out += c * line k; returns the indices of ``out`` it wrote, or None
        when it wrote every entry (dense)."""
        if self.block is not None:
            out += c * self.block[k]
            return None
        s, e = self.indptr[k], self.indptr[k + 1]
        idx = self.indices[s:e]
        # a line holds each index once, so this adds exactly what += does
        np.add.at(out, idx, c * self.data[s:e])
        return idx

    def gram_update(self, other: _Lines, out: np.ndarray, k: int, c: float):
        """out += c * G[k] for this store's Gram matrix G, G[k] memoized.

        A store whose p x p table (p = ``count``, the length of ``out``)
        would exceed ``GRAM_MEMO_ENTRIES`` entries runs ``gram_kernel`` on
        every call.  A miss runs it once with c = 1.0 into a zeroed table
        row, which holds the kernel's product exactly; every call then adds
        c times that row, so results do not depend on whether the memo is
        warm.  ``k`` and ``out`` are checked before the memo is touched: a
        sparse line read through a negative ``k`` is empty, and its zero row
        would be memoized as filled.  Returns what ``gram_kernel`` returns
        when it ran on ``out``, and None (every entry written) from the memo.
        """
        self.check(k)
        check_vector(out, self.count, "out")
        memo = self.memo
        if memo is None:
            p = self.count
            if p * p > GRAM_MEMO_ENTRIES:
                return self.gram_kernel(other, out, k, c)
            # zeroed pages are mapped on first write: rows never filled cost
            # no memory
            memo = self.memo = (np.zeros((p, p)), np.zeros(p, dtype=bool))
        table, filled = memo
        row = table[k]
        if not filled[k]:
            self.gram_kernel(other, row, k, 1.0)
            filled[k] = True
        out += c * row
        return None

    def gram_kernel(self, other: _Lines, out: np.ndarray, k: int, c: float):
        """out += c * (op @ line k); touches only the lines of ``other`` where
        line k is nonzero.

        Sparse: those lines, gathered, are the columns of a CSC matrix with
        ``len(out)`` rows, and ``csc_matvec`` adds it times c * line k into
        ``out`` in place, entry by entry in gather order.  Returns the
        gathered indices, which hold every entry of ``out`` written (some
        more than once), or None on dense storage, which writes every entry.
        """
        if self.block is not None:
            out += c * (self.op @ self.block[k])
            return None
        check_vector(out, self.count, "out")
        s, e = self.indptr[k], self.indptr[k + 1]
        # a line's indices were range-checked when the matrix was built: each
        # lies in [0, other.count)
        hit = self.indices[s:e]
        vals, idx, offsets = other._gather(hit)
        _sparsetools.csc_matvec(len(out), len(hit), offsets, idx, vals, c * self.data[s:e],
                                out)
        return idx


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
        Whether the line stores hold CSR arrays (True) or dense blocks (False).
    """

    def __init__(self, data, shape=None):
        if sp.issparse(data):
            self._init_sparse(data.tocoo())
        elif isinstance(data, tuple) and len(data) == 3:
            rows, cols, vals = data
            if shape is None:
                raise ValueError("triplet input requires an explicit shape")
            vals = np.asarray(vals, dtype=np.float64)
            coo = sp.coo_matrix((vals, (rows, cols)), shape=shape)
            self._init_sparse(coo)
        else:
            dense = np.array(data, dtype=np.float64, order="C", copy=True)
            if dense.ndim != 2:
                raise ValueError(f"matrix must be two-dimensional, got shape {dense.shape}")
            if not np.all(np.isfinite(dense)):
                raise NonFiniteEntry("matrix entries contain NaN or Inf")
            self._init_dense(dense)
        self.row_norms_sq = self._row_lines.norms_sq
        self.col_norms_sq = self._col_lines.norms_sq
        self.frob_sq = float(self.row_norms_sq.sum())
        self._check_no_zero_lines()
        # denominators of the stacked-row criterion, shared by all solvers
        self.aug_row_norms_sq = 1.0 + self.row_norms_sq
        self.aug_row_norms_sq.flags.writeable = False
        self.inv_aug_row_norms_sq = 1.0 / self.aug_row_norms_sq
        self.inv_aug_row_norms_sq.flags.writeable = False

    def _init_dense(self, dense: np.ndarray):
        self.is_sparse = False
        self.m, self.n = dense.shape
        self.nnz = self.m * self.n
        self._rows, self._csr = dense, None
        self._rows.flags.writeable = False
        self._row_lines = _Lines("row", dense, dense, np.einsum("ij,ij->i", dense, dense))
        self._col_lines = _Lines("column", np.asfortranarray(dense).T, dense.T,
                                 np.einsum("ij,ij->j", dense, dense))

    def _init_sparse(self, coo: sp.coo_matrix):
        csr = coo.tocsr()
        csr.sum_duplicates()
        # checked after summing: finite duplicates can sum past float64's range
        if not np.all(np.isfinite(csr.data)):
            raise NonFiniteEntry("matrix entries contain NaN or Inf")
        self.is_sparse = True
        self.m, self.n = coo.shape
        csr.eliminate_zeros()
        self.nnz = int(csr.nnz)
        self._rows, self._csr = None, csr
        # A's CSC arrays are the CSR arrays of A^T; csr.T is a CSC view of A
        # sharing the CSR arrays, used for A^T @ z
        self._row_lines = _Lines("row", csr, csr)
        self._col_lines = _Lines("column", csr.tocsc().T, csr.T)

    def __deepcopy__(self, memo=None):  # immutable: see the module docstring
        return self

    __copy__ = __deepcopy__

    def _check_no_zero_lines(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("matrix must have at least one row and one column")
        for lines in (self._row_lines, self._col_lines):
            zero = np.flatnonzero(lines.norms_sq == 0.0)
            if zero.size:
                k = int(zero[0])
                if lines.block is not None:
                    entries = lines.block[k]
                else:
                    entries = lines.data[lines.indptr[k]:lines.indptr[k + 1]]
                # nonzero entries all below ~1.5e-162 square to 0: the solvers
                # would divide by that norm all the same
                raise ZeroRowOrColumn(k, lines.kind, underflow=bool(np.any(entries)))

    def _check_row(self, i: int):
        self._row_lines.check(i)

    def _check_col(self, j: int):
        self._col_lines.check(j)

    # -- element access ----------------------------------------------------

    def to_dense(self) -> np.ndarray:
        if not self.is_sparse:
            return self._rows.copy()
        return self._csr.toarray()

    # -- products ----------------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x."""
        return self._row_lines.op @ x

    def rmatvec(self, z: np.ndarray) -> np.ndarray:
        """A^T @ z."""
        return self._col_lines.op @ z

    def row_dot(self, i: int, x: np.ndarray) -> float:
        """A^(i) . x for one row."""
        return self._row_lines.dot(i, x)

    def col_dot(self, j: int, z: np.ndarray) -> float:
        """A_(j) . z for one column."""
        return self._col_lines.dot(j, z)

    def row_scorer(self, rows: np.ndarray):
        """A scorer of a batch of rows: ``score(r0, r1, x)`` returns A^(i) . x
        for the rows at positions r0:r1 of ``rows``.

        On sparse storage every id is checked once, here, and the scorer
        keeps its own copy of them and of their pointer pairs, so no caller
        can hand the compiled loop an offset of its own; each call dots the
        run of rows in place with x in one compiled loop (``pair_dots``),
        after checking x.  The pairs are kept last row first, so a run of
        ascending ids, such as a sorted subset, is a slice of them; any other
        run is sorted on the call.  On dense storage each call is
        ``rows_dot`` on the slice, looked up when called.
        """
        if not self.is_sparse:
            return lambda r0, r1, x: self.rows_dot(rows[r0:r1], x)
        lines = self._row_lines
        rows = lines.checked(rows)
        count = len(rows)
        reversed_pairs = lines.bounds[rows[::-1]].view(np.intp)
        # positions where a row id is below the one before it
        breaks = (np.flatnonzero(rows[1:] < rows[:-1]) + 1).tolist()

        def score(r0, r1, x):
            r0, r1, _ = slice(r0, r1).indices(count)
            k = bisect.bisect_right(breaks, r0)
            if k < len(breaks) and breaks[k] < r1:
                return lines.line_dots(rows[r0:r1], x)
            return lines.pair_dots(reversed_pairs[2 * (count - r1):2 * (count - r0)], x)[::-1]

        return score

    def rows_dot(self, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """A^(i) . x for a batch of rows (one vector op, no Python loop)."""
        return self._row_lines.dots(rows, x)

    def cols_dot(self, cols: np.ndarray, z: np.ndarray) -> np.ndarray:
        """A_(j) . z for a batch of columns."""
        return self._col_lines.dots(cols, z)

    # -- in-place updates (hot path; only the Gram updates check indices) ---
    # Each returns the indices of ``out`` it wrote (possibly repeated), or
    # None when it wrote every entry: dense storage and memoized Gram rows.

    def add_row_to(self, out: np.ndarray, i: int, c: float):
        """out += c * A^(i) with out of length n."""
        return self._row_lines.add_to(out, i, c)

    def add_col_to(self, out: np.ndarray, j: int, c: float):
        """out += c * A_(j) with out of length m."""
        return self._col_lines.add_to(out, j, c)

    def gram_row_update(self, out: np.ndarray, i: int, c: float):
        """out += c * (A @ A^(i)), from the memo of Gram rows where it fits."""
        return self._row_lines.gram_update(self._col_lines, out, i, c)

    def gram_col_update(self, out: np.ndarray, j: int, c: float):
        """out += c * (A^T @ A_(j)), from the memo of Gram rows where it fits."""
        return self._col_lines.gram_update(self._row_lines, out, j, c)

    def col_grams_memoized(self) -> bool:
        """Whether column Gram rows A^T A_(j) are memoized: the column side
        fits ``GRAM_MEMO_ENTRIES`` and a ``gram_col_update`` has started its
        table, as a greedy engine's first column step does."""
        return self._col_lines.memo is not None

    # -- cached cumulative norm tables for weighted index sampling ----------

    def row_norm_cumsum(self) -> np.ndarray:
        return self._row_lines.cum

    def col_norm_cumsum(self) -> np.ndarray:
        return self._col_lines.cum


def build_matrix(data, shape=None) -> RowColMatrix:
    """Build a :class:`RowColMatrix` from dense, scipy-sparse or triplet input.

    Triplet input is ``(row_indices, col_indices, values)`` plus an explicit
    ``shape``; duplicate coordinates are summed.
    """
    return RowColMatrix(data, shape=shape)

