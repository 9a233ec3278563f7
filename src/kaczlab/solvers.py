"""The iterative engines, exposed as resumable step machines.

Four engines share one :class:`SolverState` layout:

* ``rek``: independent weighted row and column draws every step; the column
  projection cleans z, the row projection refreshes x against b - z.
* ``grak``: greedy thresholding over the stacked residual builds candidate
  index sets, then one stacked index is drawn with probability proportional
  to its squared residual.  Column branches leave x untouched.
* ``agrak``: replaces the draw with a deterministic argmax of the stacked
  criteria and, on column branches, additionally refreshes x along one
  weighted-randomly chosen row.
* ``sampled``: evaluates the same criteria only on a small uniformly sampled
  index subset, a fresh one every iteration; branches as in ``agrak``.

A ``grak``, ``agrak`` or ``sampled`` step selects one stacked index, then
``_apply`` projects it (agrak and sampled refresh x on column steps).  It and
``rek`` move the iterate through three helpers: a stacked-row projection (z_i
and x), a column projection (z) and an x refresh along one row (x).  Each
takes the arrays it moves, the index, its right-hand-side entry and the
residuals it keeps in step (grak's and agrak's, else None), from which it
reads the residual entry it zeroes; without them it computes that entry at
the iterate.  The public projections ``augmented_row_update``,
``column_z_update`` and ``kaczmarz_row_project`` wrap the same helpers.

``grak`` and ``agrak`` need the full residuals b - z - A x and A^T z each
step, kept by the projection helpers (one row or column of the Gram
products, which the matrix memoizes per index where its side fits
``GRAM_MEMO_ENTRIES``) and rebuilt after ``RESIDUAL_REFRESH`` updates to cap
drift.  They also hold their normalized squared criteria; on sparse storage
the row criteria are recomputed only on the entries the previous step
wrote.  ``sampled`` and ``rek`` never form the m-length residual b - z - A x,
and neither starts the memo.  Where another engine has started the column
side's memo on a sparse matrix, sampled keeps the n-length A^T z the same
way (``_ColResidual``) and scores its columns from it; elsewhere it dots
them.  A Gram row computed for one use costs more than the dots it saves
(a dense one reads all of A), so the kept vector pays only where the rows
are already there or a long run reuses them.  rek and sampled draw
``_DRAW_BLOCK`` steps ahead (rek its row and column pairs, sampled its
subsets), so after such steps a stream shared with other engines sits
further along than one draw per step would leave it.

One cache rule: a state carries one engine cache, that of the engine that
last stepped it, keyed on immutable inputs: the residuals on the system and
the iterate arrays, rek's draws on the matrix, sampled's subsets on the
matrix and the subset size, and the A^T z its blocks carry on the matrix
and z.  A step rebuilds the cache when it is another engine's, is spent,
or is keyed on other inputs than the step's.  Systems and matrices are
immutable, and a copy of a state shares them, so a deep-copied state
replays its original bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .diagnostics import BoundReport
from .errors import ZeroResidual
from .matrix import RowColMatrix, as_vector, check_vector
from .sampling import (
    STREAM_SOLVER,
    RngStream,
    _weighted_row_col_pairs,
    grak_residual_sample,
    simple_random_subset,  # noqa: F401  the benchmark's tracer wraps this name here
    simple_random_subsets,
    subset_size,
    weighted_column_sample,  # noqa: F401  the benchmark's tracer wraps this name here
    weighted_row_sample,
)
from .stopping import StoppingRule, make_monitor

__all__ = [
    "ENGINES",
    "SolverState",
    "GreedySelection",
    "StepOutcome",
    "RunReport",
    "kaczmarz_row_project",
    "augmented_row_update",
    "column_z_update",
    "init_state",
    "rek_step",
    "grak_build_selection",
    "grak_step",
    "agrak_step",
    "sampled_step",
    "run",
]

ENGINES = ("rek", "grak", "agrak", "sampled")

RESIDUAL_REFRESH = 1000

# share of m past which the row criteria are recomputed in full rather than
# on the touched entries (counted with repeats); on the 60000 x 209 benchmark
# system the two passes cost about the same at a tenth
_TOUCHED_FRACTION = 0.1

# steps whose draws rek (row and column pairs) and sampled (subsets) take at a time
_DRAW_BLOCK = 32


@dataclass
class SolverState:
    """Iterate pair, step counter, the engine's private random stream and
    one engine cache.

    ``x`` starts in range(A^T) (zero by default) and ``z`` at b; every step
    function advances ``k`` by exactly one.  ``cache`` holds the cache of the
    engine that last stepped the state, keyed on immutable inputs (see the
    module docstring).  So a state may be stepped by any engine on any system
    or deep-copied, and a new array may be assigned to ``x`` or ``z``.  After
    writing into them in place, call ``invalidate()``; the unused draws it
    drops leave the law of the next block, drawn fresh from the stream,
    unchanged.
    """

    x: np.ndarray
    z: np.ndarray
    k: int
    rng: RngStream
    cache: _Residuals | _SubsetBlock | _RekDraws | None = field(
        default=None, repr=False, compare=False)

    def invalidate(self) -> None:
        """Drop the engine cache; the next step rebuilds it."""
        self.cache = None


@dataclass
class StepOutcome:
    """What one step did: branch kind, touched indices, criterion value."""

    kind: str  # "row" | "col" | "converged"
    row: int | None = None
    col: int | None = None
    value: float = 0.0

    @property
    def converged(self) -> bool:
        return self.kind == "converged"


@dataclass(slots=True)
class GreedySelection:
    """Thresholds, candidate index sets and masked residuals of one greedy
    sweep over the stacked system.

    ``residual_row`` is b - z - A x and ``residual_col`` is A^T z (views of
    the engine caches).  ``row_values``/``col_values`` hold the masked
    residual entries on the candidate sets (column values negated).
    """

    eps: float
    eps_row: float
    eps_col: float
    row_set: np.ndarray
    col_set: np.ndarray
    row_values: np.ndarray
    col_values: np.ndarray
    residual_row: np.ndarray
    residual_col: np.ndarray


def init_state(system, seed: int) -> SolverState:
    """Fresh state: x0 = 0, which lies in range(A^T), and z0 = b."""
    return SolverState(x=np.zeros(system.mat.n), z=system.b.copy(), k=0,
                       rng=RngStream(seed, STREAM_SOLVER))


# ---------------------------------------------------------------------------
# residual caches
# ---------------------------------------------------------------------------


class _Residuals:
    """b - z - A x and A^T z of one system at one iterate, and buffers for their
    stacked criteria; the projection helpers update both and count ``updates``.

    The helpers also ``touch`` the entries of ``row`` they write, so that
    ``criteria()`` recomputes the row criteria only there.  ``touched`` is
    None when the next pass must cover every row: after a build, after an
    update that wrote every entry (dense storage, memoized Gram rows), and
    once more than ``_TOUCHED_FRACTION`` of m entries were recorded.
    """

    def __init__(self, system, x: np.ndarray, z: np.ndarray):
        mat = self.mat = system.mat
        self.system, self.x, self.z = system, x, z
        self.row = system.b - z - mat.matvec(x)
        self.col = mat.rmatvec(z)
        self.row_crit, self.col_crit = np.empty(mat.m), np.empty(mat.n)
        self.updates = 0
        self.touched, self.n_touched = None, 0
        self.touch_limit = _TOUCHED_FRACTION * mat.m

    @classmethod
    def of(cls, state: SolverState, system) -> _Residuals:
        """The state's residuals for a step on ``system``, rebuilt after
        ``RESIDUAL_REFRESH`` updates or when their system, x or z is not the step's."""
        res = state.cache
        if (type(res) is not cls or res.updates >= RESIDUAL_REFRESH or res.system is not system
                or res.x is not state.x or res.z is not state.z):
            res = state.cache = cls(system, state.x, state.z)
        return res

    def touch(self, idx) -> None:
        """Record ``idx`` (indices, repeats allowed) as written in ``row``; None
        means every entry.  Past the limit only a full pass is left to do, so
        nothing more is kept."""
        if self.touched is None:
            return
        if idx is not None:
            self.n_touched += len(idx)
        if idx is None or self.n_touched > self.touch_limit:
            self.touched = None
        else:
            self.touched.append(idx)

    def criteria(self):
        """Normalized squared criteria of every stacked row, in the buffers.

        Row criteria are recomputed only on the touched entries when they were
        recorded: the same correctly rounded operations as the full pass, so
        the buffers hold the same bits either way.
        """
        touched, aug = self.touched, self.mat.aug_row_norms_sq
        if touched is None:
            np.multiply(self.row, self.row, out=self.row_crit)
            self.row_crit /= aug
        elif touched:
            idx = np.concatenate(touched)
            r = self.row[idx]
            r *= r
            r /= aug[idx]
            self.row_crit[idx] = r
        self.touched, self.n_touched = [], 0
        np.multiply(self.col, self.col, out=self.col_crit)
        self.col_crit /= self.mat.col_norms_sq
        return self.row_crit, self.col_crit


class _ColResidual:
    """A^T z of one matrix at one z array: sampled's column scores.

    ``_apply`` keeps it in step with z, one ``updates`` per projection that
    moves z; ``of`` rebuilds it after ``RESIDUAL_REFRESH`` of them, to cap
    drift, or when its matrix or z is not the step's.  A column picked on a
    kept score whose fresh A_(j) . z is zero was picked on drift alone, so
    that step marks the vector for a rebuild at once.
    """

    def __init__(self, mat: RowColMatrix, z: np.ndarray):
        self.mat, self.z = mat, z
        self.col = mat.rmatvec(z)
        self.updates = 0

    @classmethod
    def of(cls, kept: _ColResidual | None, mat, z: np.ndarray) -> _ColResidual:
        if (kept is None or kept.updates >= RESIDUAL_REFRESH or kept.mat is not mat
                or kept.z is not z):
            kept = cls(mat, z)
        return kept


def _apply_stacked_row(mat, i: int, b_i: float, x, z, res: _Residuals | None) -> float:
    """Zero r = b_i - z_i - A^(i) x (res.row[i] if given): with d = r / (1 + ||A^(i)||^2),
    z_i += d and x += d * A^(i), ``res`` in step.  Returns d."""
    r = res.row[i] if res is not None else b_i - z[i] - mat.row_dot(i, x)
    d = r / mat.aug_row_norms_sq[i]
    z[i] += d
    mat.add_row_to(x, i, d)
    if res is not None:
        res.row[i] -= d
        res.touch((i,))
        res.touch(mat.gram_row_update(res.row, i, -d))
        mat.add_row_to(res.col, i, d)
        res.updates += 1
    return d


def _apply_column_projection(mat, j: int, z, res: _Residuals | None) -> float:
    """Zero s = A_(j) . z (res.col[j] if given): with c = s / ||A_(j)||^2, z -= c * A_(j),
    ``res`` in step.  Returns c."""
    s = res.col[j] if res is not None else mat.col_dot(j, z)
    c = s / mat.col_norms_sq[j]
    mat.add_col_to(z, j, -c)
    if res is not None:
        res.touch(mat.add_col_to(res.row, j, c))
        mat.gram_col_update(res.col, j, -c)
        res.updates += 1
    return c


def _apply_x_refresh(mat, i: int, rhs_i: float, x, res: _Residuals | None) -> float:
    """Zero r = rhs_i - A^(i) x (res.row[i], for rhs_i = b_i - z_i, if given): with
    d = r / ||A^(i)||^2, x += d * A^(i) only, ``res`` in step.  Returns d."""
    r = res.row[i] if res is not None else rhs_i - mat.row_dot(i, x)
    d = r / mat.row_norms_sq[i]
    mat.add_row_to(x, i, d)
    if res is not None:
        res.touch(mat.gram_row_update(res.row, i, -d))
        res.updates += 1
    return d


def kaczmarz_row_project(x, i: int, rhs_i: float, mat: RowColMatrix) -> np.ndarray:
    """Orthogonal projection of x onto the hyperplane A^(i) . x = rhs_i, as a
    new vector: the engines' x refresh, run on a copy."""
    mat._check_row(i)
    x = as_vector(x, length=mat.n, name="x").copy()
    _apply_x_refresh(mat, i, rhs_i, x, None)
    return x


def augmented_row_update(z, x, i: int, b, mat: RowColMatrix):
    """Updated copies (z, x) after the engines' stacked-row projection on row
    i; afterwards ``b_i - z_i - A^(i) x = 0`` up to rounding."""
    mat._check_row(i)
    z = as_vector(z, length=mat.m, name="z").copy()
    x = as_vector(x, length=mat.n, name="x").copy()
    b = as_vector(b, length=mat.m, name="b")
    _apply_stacked_row(mat, i, b[i], x, z, None)
    return z, x


def column_z_update(z, j: int, mat: RowColMatrix) -> np.ndarray:
    """z projected onto the orthogonal complement of column j, as a new vector
    (``A_(j) . z = 0`` up to rounding): the engines' column projection."""
    mat._check_col(j)
    z = as_vector(z, length=mat.m, name="z").copy()
    _apply_column_projection(mat, j, z, None)
    return z


def _stacked_argmax(row_crit: np.ndarray, col_crit: np.ndarray):
    """Best stacked index (rows first, then columns) and its criterion.

    Ties break toward the row block, then toward the smallest index.
    Returns (None, 0.0) when every criterion is zero.
    """
    i_best = int(np.argmax(row_crit))
    j_best = int(np.argmax(col_crit))
    max_row = float(row_crit[i_best])
    max_col = float(col_crit[j_best])
    if max_row == 0.0 and max_col == 0.0:
        return None, 0.0
    if max_row >= max_col:
        return i_best, max_row
    return row_crit.shape[0] + j_best, max_col


def _apply(state: SolverState, system, t: int, value: float, res: _Residuals | None,
           refresh: bool, kept: _ColResidual | None = None) -> StepOutcome:
    """Project the selected stacked index t, keeping ``res`` (grak's or agrak's
    residuals, or None) and ``kept`` (sampled's A^T z, or None) in step;
    ``value`` is its selection criterion.

    A row index takes the stacked-row projection; a column index cleans z
    and, with ``refresh``, then refreshes x along one weighted-randomly
    drawn row, which the outcome reports as its row.
    """
    mat = system.mat
    if t < mat.m:
        d = _apply_stacked_row(mat, t, system.b[t], state.x, state.z, res)
        if kept is not None:
            mat.add_row_to(kept.col, t, d)
            kept.updates += 1
        out = StepOutcome("row", row=t, value=value)
    else:
        j = t - mat.m
        c = _apply_column_projection(mat, j, state.z, res)
        if kept is not None:
            mat.gram_col_update(kept.col, j, -c)
            kept.updates = RESIDUAL_REFRESH if c == 0.0 else kept.updates + 1
        i = None
        if refresh:
            i = weighted_row_sample(mat, state.rng)
            # the column projection moved z, so b_i - z_i is read after it
            _apply_x_refresh(mat, i, system.b[i] - state.z[i], state.x, res)
        out = StepOutcome("col", row=i, col=j, value=value)
    state.k += 1
    return out


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


class _RekDraws:
    """The next ``_DRAW_BLOCK`` (row, column) index pairs of a rek run.

    Drawn in one call from the state's stream; the pairs are what a
    ``weighted_row_sample`` and a ``weighted_column_sample`` per step would
    have drawn.  A block belongs to one matrix; ``take`` returns the next
    unused pair.
    """

    def __init__(self, mat: RowColMatrix, rng: RngStream):
        self.mat = mat
        self.rows, self.cols = _weighted_row_col_pairs(mat, _DRAW_BLOCK, rng)
        self.used = 0

    @classmethod
    def of(cls, state: SolverState, mat) -> _RekDraws:
        """The state's block for a step on ``mat``, drawn anew when spent or when
        its matrix is not the step's."""
        block = state.cache
        if type(block) is not cls or block.used >= _DRAW_BLOCK or block.mat is not mat:
            block = state.cache = cls(mat, state.rng)
        return block

    def take(self) -> tuple[int, int]:
        k = self.used
        self.used += 1
        return self.rows[k], self.cols[k]


def rek_step(state: SolverState, system) -> StepOutcome:
    """One extended-Kaczmarz step: weighted column draw cleans z, weighted
    row draw projects x onto the updated equation A^(i) x = b_i - z_i."""
    mat = system.mat
    i, j = _RekDraws.of(state, mat).take()
    _apply_column_projection(mat, j, state.z, None)
    d = _apply_x_refresh(mat, i, system.b[i] - state.z[i], state.x, None)
    state.k += 1
    return StepOutcome("col", row=i, col=j, value=abs(d))


def grak_build_selection(state: SolverState, system) -> GreedySelection:
    """Thresholds, index sets and masked residuals of the greedy draw.

    An index enters the row (column) set when its normalized squared
    residual reaches ``eps`` times the total squared stacked residual; the
    thresholds average the best normalized criterion with the inverse
    stacked Frobenius weight, so the argmax index always qualifies.
    """
    res = _Residuals.of(state, system)
    row_crit, col_crit = res.criteria()
    mat = system.mat
    total = float(res.row @ res.row) + float(res.col @ res.col)
    if total <= 0.0:
        raise ZeroResidual("stacked residual is zero")
    base = 1.0 / (mat.m + 2.0 * mat.frob_sq)
    max_row = float(row_crit.max())
    max_col = float(col_crit.max())
    eps_row = 0.5 * (max_row / total + base)
    eps_col = 0.5 * (max_col / total + base)
    eps = max(eps_row, eps_col)
    threshold = eps * total
    row_set = np.flatnonzero(row_crit >= threshold)
    col_set = np.flatnonzero(col_crit >= threshold)
    if row_set.size == 0 and col_set.size == 0:
        # rounding pushed the threshold past the max; keep the best index
        if max_row >= max_col:
            row_set = np.array([np.argmax(row_crit)])
        else:
            col_set = np.array([np.argmax(col_crit)])
    return GreedySelection(
        eps=eps,
        eps_row=eps_row,
        eps_col=eps_col,
        row_set=row_set,
        col_set=col_set,
        row_values=res.row[row_set],
        col_values=-res.col[col_set],
        residual_row=res.row,
        residual_col=res.col,
    )


def grak_step(state: SolverState, system) -> StepOutcome:
    """One greedy randomized step over the stacked system."""
    try:
        sel = grak_build_selection(state, system)
        t = grak_residual_sample(sel, state.rng)
    except ZeroResidual:
        return StepOutcome("converged")
    res = _Residuals.of(state, system)  # the residuals the selection read
    m = system.mat.m
    value = float(res.row_crit[t] if t < m else res.col_crit[t - m])  # filled by the selection
    return _apply(state, system, t, value, res, refresh=False)


def agrak_step(state: SolverState, system) -> StepOutcome:
    """One accelerated step: deterministic argmax selection; column branches
    also refresh x along a weighted-randomly drawn row.

    Ties break toward the row block, then toward the smallest index.
    """
    res = _Residuals.of(state, system)
    t, value = _stacked_argmax(*res.criteria())
    if t is None:
        return StepOutcome("converged")
    return _apply(state, system, t, value, res, refresh=True)


class _SubsetBlock:
    """The next ``_DRAW_BLOCK`` subsets of a sampled run, and what scoring them
    needs.

    Drawn in one call from the state's stream; each subset is what
    ``simple_random_subset`` would have returned at that point of the
    stream.  Per subset, the block gathers the inverse stacked norms of its
    rows and the squared norms of its columns, and holds the matrix's
    scorer of its rows (``row_scorer``, whose ids are checked once), so
    ``take`` scores a subset's rows with one call.  Columns are scored from
    ``kept``, the A^T z that ``of`` carries from block to block on a sparse
    matrix whose column Gram rows are memoized, or else by ``cols_dot``.
    A block belongs to one matrix and one subset size; ``take`` scores the
    next unused subset against the step's right-hand side.
    """

    def __init__(self, mat: RowColMatrix, k: int, rng: RngStream):
        self.mat, self.k = mat, k
        subsets = simple_random_subsets(mat.m, mat.n, k, _DRAW_BLOCK, rng)
        is_row = subsets < mat.m
        row_counts = np.count_nonzero(is_row, axis=1)
        self.row_bounds = np.concatenate(([0], np.cumsum(row_counts))).tolist()
        self.col_bounds = [k * j - r for j, r in enumerate(self.row_bounds)]
        self.rows = subsets[is_row]
        self.cols = subsets[~is_row] - mat.m
        self.inv_norms = mat.inv_aug_row_norms_sq[self.rows]
        self.col_norms = mat.col_norms_sq[self.cols]
        self.score_rows = mat.row_scorer(self.rows)
        self.used = 0
        self.kept = None

    @classmethod
    def of(cls, state: SolverState, mat, k: int) -> _SubsetBlock:
        """The state's block for a step on ``mat`` with size-k subsets, drawn
        anew when spent or when its matrix or subset size is not the step's,
        with its A^T z kept for the state's z where the matrix is sparse and
        memoizes its column Gram rows (``col_grams_memoized``)."""
        block = state.cache
        kept = block.kept if type(block) is cls else None
        if (type(block) is not cls or block.used >= _DRAW_BLOCK or block.mat is not mat
                or block.k != k):
            block = state.cache = cls(mat, k, state.rng)
        if mat.is_sparse and mat.col_grams_memoized():
            block.kept = _ColResidual.of(kept, mat, state.z)
        return block

    def take(self, b: np.ndarray, x: np.ndarray, z: np.ndarray):
        """Best stacked index of the next subset by the squared criteria.

        Squaring preserves the argmax of the square-root criteria and keeps
        the hot loop free of square roots.  Rows win ties against columns.
        Returns (None, 0.0) when every sampled criterion is zero.  ``b`` is
        the step's; ``x`` and ``z`` are checked first, as callers assign them.
        """
        check_vector(x, self.mat.n, "x")
        check_vector(z, self.mat.m, "z")
        j = self.used
        self.used += 1
        best_t = None
        best = 0.0
        r0, r1 = self.row_bounds[j], self.row_bounds[j + 1]
        if r1 > r0:
            rows = self.rows[r0:r1]
            crit = b[rows] - z[rows]
            crit -= self.score_rows(r0, r1, x)
            crit *= crit
            crit *= self.inv_norms[r0:r1]
            i = int(np.argmax(crit))
            if crit[i] > best:
                best = float(crit[i])
                best_t = int(rows[i])
        c0, c1 = self.col_bounds[j], self.col_bounds[j + 1]
        if c1 > c0:
            cols = self.cols[c0:c1]
            crit = self.kept.col[cols] if self.kept is not None else self.mat.cols_dot(cols, z)
            crit *= crit
            crit /= self.col_norms[c0:c1]
            i = int(np.argmax(crit))
            if crit[i] > best:
                best = float(crit[i])
                best_t = self.mat.m + int(cols[i])
        return best_t, best


def sampled_step(state: SolverState, system, eta_s: float = 0.01) -> StepOutcome:
    """One step of the subset-sampled semi-randomized engine.

    A fresh uniform subset of stacked indices is taken, the greedy criterion
    is evaluated only there, and the winning index is projected exactly as in
    the accelerated engine.  The m-length residual b - z - A x is formed
    only if the sampled criteria all vanish twice: the next subset is tried
    first, and if it vanishes too the full residuals decide between
    convergence and a full-sweep fallback.
    """
    mat = system.mat
    k = subset_size(mat.m, mat.n, eta_s)
    block = _SubsetBlock.of(state, mat, k)
    t, value = block.take(system.b, state.x, state.z)
    if t is None:
        block = _SubsetBlock.of(state, mat, k)
        t, value = block.take(system.b, state.x, state.z)
    if t is None:
        # full sweep on fresh residuals, not stored: the greedy cache is never started
        t, value = _stacked_argmax(*_Residuals(system, state.x, state.z).criteria())
        if t is None:
            return StepOutcome("converged")
    return _apply(state, system, t, value, None, refresh=True, kept=block.kept)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """Everything one solver run produced, plus the metadata to replay it."""

    engine: str
    provenance: str
    seed: int
    stream_id: int
    eta_s: float | None
    stop_kind: str | None
    stop_tol: float | None
    stop_window: int | None
    max_iters: int
    iterations: int
    wall_time_s: float
    converged: bool
    max_iters_hit: bool
    stop_value: float | None
    final_rse: float | None
    branch_counts: dict
    stop_trace: list
    metrics: list
    snr: float | None = None
    bounds: BoundReport | None = None
    # the run's last SolverState, for callers; not serialized
    final_state: SolverState | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "final_state"}
        if self.bounds is not None:
            out["bounds"] = self.bounds.to_dict()
        return out


def _rse(x: np.ndarray, x_star) -> float | None:
    """||x - x_star|| / ||x_star||, or None without a nonzero reference."""
    if x_star is None:
        return None
    ref = float(np.linalg.norm(x_star))
    return float(np.linalg.norm(x - x_star)) / ref if ref > 0 else None


def _zres(state: SolverState, system) -> float:
    mat = system.mat
    denom = np.sqrt(mat.frob_sq) * np.linalg.norm(system.b)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(mat.rmatvec(state.z))) / denom


def run(engine: str, system, rule: StoppingRule | None = None,
        max_iters: int = 1_000_000, seed: int = 0, *, eta_s: float = 0.01,
        metrics_every: int = 0, trace_path=None) -> RunReport:
    """Drive one engine until the stopping rule fires or max_iters (>= 0)
    is hit.

    Wall time covers the iteration loop only (problem assembly and oracle
    work happen before).  ``metrics_every > 0`` records (k, RSE, normalized
    ||A^T z||) every so many iterations for convergence studies; recording
    cost is included in the wall time, so leave it off when timing.
    ``trace_path`` streams one line per step: k, branch, index, criterion.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    # looked up per call, so a step function rebound on the module is honoured
    stepper = {"rek": rek_step, "grak": grak_step, "agrak": agrak_step,
               "sampled": partial(sampled_step, eta_s=eta_s)}[engine]
    state = init_state(system, seed)
    monitor = make_monitor(rule, system, engine) if rule is not None else None
    if monitor is not None:
        monitor.start(state, system)

    counts = {"row": 0, "col": 0}
    exact = False
    fired = False
    stop_value = None
    metrics = []
    tracef = open(trace_path, "w", encoding="ascii") if trace_path else None
    try:
        t0 = time.perf_counter()
        for _ in range(max_iters):
            out = stepper(state, system)
            if out.converged:
                exact = True
                break
            counts[out.kind] += 1
            if tracef is not None:
                idx = out.row if out.kind == "row" else out.col
                tracef.write(f"{state.k},{out.kind},{idx},{out.value:.6e}\n")
            if metrics_every and state.k % metrics_every == 0:
                metrics.append((state.k, _rse(state.x, system.x_star),
                                _zres(state, system)))
            if monitor is not None and state.k % monitor.period == 0:
                fired, value = monitor.observe(state.k, state, system)
                if fired:
                    stop_value = value
                    break
        wall = time.perf_counter() - t0
    finally:
        if tracef is not None:
            tracef.close()

    return RunReport(
        engine=engine,
        provenance=system.provenance,
        seed=seed,
        stream_id=STREAM_SOLVER,
        eta_s=eta_s if engine == "sampled" else None,
        stop_kind=rule.kind if rule is not None else None,
        stop_tol=rule.tol if rule is not None else None,
        stop_window=rule.window if rule is not None and rule.kind == "lise" else None,
        max_iters=max_iters,
        iterations=state.k,
        wall_time_s=wall,
        converged=bool(fired or exact),
        max_iters_hit=bool(not (fired or exact) and state.k >= max_iters),
        stop_value=stop_value,
        final_rse=_rse(state.x, system.x_star),
        branch_counts=counts,
        stop_trace=list(monitor.trace) if monitor is not None else [],
        metrics=metrics,
        final_state=state,
    )
