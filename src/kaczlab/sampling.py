"""Seeded randomness: weighted index draws and uniform subset sampling.

All solver randomness flows through :class:`RngStream`, a counter-based
(Philox) generator keyed by ``(seed, stream_id)``.  Identical keys reproduce
identical draw sequences; distinct stream ids give independent streams, so
parallel benchmark repetitions stay reproducible regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidRatio, ZeroResidual
from .matrix import RowColMatrix

__all__ = [
    "RngStream",
    "SampleSubset",
    "weighted_row_sample",
    "weighted_column_sample",
    "simple_random_subset",
    "simple_random_subsets",
    "subset_size",
    "grak_residual_sample",
]

# conventional stream ids so different uses of one seed never share a stream
STREAM_SOLVER = 0
STREAM_MATRIX = 1
STREAM_NOISE = 2
STREAM_PLANTED = 3  # the planted solution a synthetic right-hand side is built on

_MASK64 = (1 << 64) - 1
_INT64_MAX = (1 << 63) - 1


class RngStream:
    """Counter-based random stream identified by (seed, stream_id)."""

    algorithm = "philox4x64"

    def __init__(self, seed: int, stream_id: int = STREAM_SOLVER):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self) -> float:
        return float(self._gen.random())

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size=size)

    def standard_normal(self, shape):
        return self._gen.standard_normal(shape)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


@dataclass
class SampleSubset:
    """A sorted subset of the stacked index range {0, ..., m+n-1}.

    ``rows`` holds the members below m (matrix row indices) and ``cols`` the
    members at or above m, shifted down to column indices.
    """

    m: int
    n: int
    indices: np.ndarray
    rows: np.ndarray = field(init=False)
    cols: np.ndarray = field(init=False)

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        split = int(np.searchsorted(self.indices, self.m))
        self.rows = self.indices[:split]
        self.cols = self.indices[split:] - self.m


def _cumsum_draw(cum: np.ndarray, rng: RngStream) -> int:
    """Draw an index with probability proportional to the cumsum increments."""
    u = rng.uniform() * cum[-1]
    idx = int(cum.searchsorted(u, side="right"))
    return min(idx, len(cum) - 1)


def weighted_row_sample(mat: RowColMatrix, rng: RngStream) -> int:
    """Row index drawn with probability ||A^(i)||^2 / ||A||_F^2."""
    return _cumsum_draw(mat.row_norm_cumsum(), rng)


def weighted_column_sample(mat: RowColMatrix, rng: RngStream) -> int:
    """Column index drawn with probability ||A_(j)||^2 / ||A||_F^2."""
    return _cumsum_draw(mat.col_norm_cumsum(), rng)


def _first_distinct(draws: np.ndarray, total: int, k: int) -> np.ndarray | None:
    """Per row of ``draws``: its first k distinct values in draw order, sorted.

    Returns a (rows, k) array, or None when some row holds fewer than k
    distinct values.  Values lie in range(total).
    """
    count, width = draws.shape
    if total * width <= _INT64_MAX:
        # (value, position) keys are unique, so a plain sort orders equal
        # values by position, as a stable sort would
        keys = draws * width + np.arange(width)
        keys.sort(axis=1)
        vals, pos = np.divmod(keys, width)
    else:
        pos = np.argsort(draws, axis=1, kind="stable")
        vals = np.take_along_axis(draws, pos, axis=1)
    r, c = np.nonzero(vals[:, 1:] == vals[:, :-1])
    keep = np.ones(draws.shape, dtype=bool)
    keep[r, pos[r, c + 1]] = False  # repeats of a value already drawn
    rank = np.cumsum(keep, axis=1)
    if rank[:, -1].min() < k:
        return None
    keep &= rank <= k
    out = draws[keep].reshape(count, k)
    out.sort(axis=1)
    return out


def _batch_width(k: int) -> int:
    """Draws per first batch of the rejection sampler."""
    return k + 16 + k // 32


def _sample_without_replacement(total: int, k: int, rng: RngStream) -> np.ndarray:
    """Uniform sorted size-k subset of range(total), O(k) memory.

    For small k this is batched rejection: draw k indices at once, keep first
    occurrences, redraw the collisions (about k^2/2/total expected, so the
    Python loop almost never runs).  Inserting draws in order while skipping
    already-seen values is exactly sequential sampling without replacement.
    Dense requests fall back to a partial shuffle.
    """
    if k >= total:
        return np.arange(total, dtype=np.int64)
    if k > total // 8:
        picked = rng._gen.permutation(total)[:k].astype(np.int64)
        picked.sort()
        return picked
    draws = rng._gen.integers(0, total, size=_batch_width(k))
    while (out := _first_distinct(draws[None, :], total, k)) is None:
        missing = k - np.unique(draws).size
        draws = np.concatenate(
            [draws, rng._gen.integers(0, total, size=2 * missing + 8)])
    return out[0]


def subset_size(m: int, n: int, eta_s: float) -> int:
    """max(1, floor((m+n)*eta_s)), the size of a simple random subset."""
    if not 0.0 < eta_s <= 1.0:
        raise InvalidRatio(f"sampling ratio must be in (0, 1], got {eta_s}")
    return max(1, int(math.floor((m + n) * eta_s + 1e-9)))


def simple_random_subset(m: int, n: int, eta_s: float, rng: RngStream) -> SampleSubset:
    """Uniform without-replacement subset of size max(1, floor((m+n)*eta_s)).

    ``eta_s`` is the sampling ratio; the floor is clamped to one so a draw
    always exists even for tiny systems.  This is one draw of
    :func:`simple_random_subsets`, the sampler the ``sampled`` engine runs.
    """
    k = subset_size(m, n, eta_s)
    return SampleSubset(m, n, simple_random_subsets(m, n, k, 1, rng)[0])


def simple_random_subsets(m: int, n: int, k: int, count: int, rng: RngStream) -> np.ndarray:
    """``count`` consecutive size-k simple random subsets, one per row.

    Row r is exactly what the r-th of ``count`` successive sequential draws
    ``_sample_without_replacement(m + n, k, rng)`` would return from the same
    stream; so the rows are independent and each is uniform over the size-k
    subsets of {0, ..., m+n-1}.  The common case takes all the draws in one
    call and removes repeats in one pass; when a row would have needed the
    sampler's redraw, the stream is rewound and the rows are drawn one at a
    time.
    """
    total = m + n
    if k < total and k <= total // 8:
        bitgen = rng._gen.bit_generator
        start = bitgen.state
        draws = rng._gen.integers(0, total, size=(count, _batch_width(k)))
        out = _first_distinct(draws, total, k)
        if out is not None:
            return out
        bitgen.state = start
    return np.stack([_sample_without_replacement(total, k, rng) for _ in range(count)])


def grak_residual_sample(selection, rng: RngStream) -> int:
    """Stacked index drawn with probability proportional to the squared
    masked residual entries of a greedy selection.

    Returns t in [0, m+n): t < m selects a stacked top row, t >= m selects
    column t - m.
    """
    m = selection.residual_row.shape[0]
    rv = selection.row_values
    cv = selection.col_values
    masses = np.concatenate([rv * rv, cv * cv])
    if masses.size == 0 or masses.sum() <= 0.0:
        raise ZeroResidual("masked residual carries no mass: already converged")
    cum = np.cumsum(masses)
    pos = _cumsum_draw(cum, rng)
    if pos < rv.size:
        return int(selection.row_set[pos])
    return m + int(selection.col_set[pos - rv.size])
