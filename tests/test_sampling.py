import itertools
import math

import numpy as np
import pytest
from scipy import stats

import kaczlab as kl
from kaczlab import (
    InvalidRatio,
    RngStream,
    ZeroResidual,
    build_matrix,
    grak_residual_sample,
    simple_random_subset,
    weighted_column_sample,
    weighted_row_sample,
)
from kaczlab.sampling import _first_distinct, _sample_without_replacement, simple_random_subsets
from kaczlab.solvers import _DRAW_BLOCK, GreedySelection, _SubsetBlock


def test_stream_reproducible():
    a = RngStream(42, 7)
    b = RngStream(42, 7)
    assert [a.uniform() for _ in range(20)] == [b.uniform() for _ in range(20)]
    assert np.array_equal(RngStream(1).standard_normal(10),
                          RngStream(1).standard_normal(10))


def test_distinct_streams_differ():
    a = RngStream(42, 0)
    b = RngStream(42, 1)
    assert [a.uniform() for _ in range(8)] != [b.uniform() for _ in range(8)]
    assert RngStream(42, 5).stream_id == 5


def _chi_square_ok(observed, probs, alpha=0.001):
    n = observed.sum()
    expected = probs * n
    stat = ((observed - expected) ** 2 / expected).sum()
    return stat < stats.chi2.ppf(1 - alpha, df=len(probs) - 1)


def test_weighted_row_sample_distribution():
    mat = build_matrix([[1.0, 0.0], [1.0, np.sqrt(2.0)]])  # row norms^2 = (1, 3)
    rng = RngStream(3)
    counts = np.zeros(2)
    n = 100_000
    for _ in range(n):
        counts[weighted_row_sample(mat, rng)] += 1
    probs = np.array([0.25, 0.75])
    sigma = np.sqrt(probs * (1 - probs) / n)
    assert np.all(np.abs(counts / n - probs) <= 3 * sigma + 1e-12)
    assert _chi_square_ok(counts, probs)


def test_weighted_column_sample_distribution():
    mat = build_matrix([[1.0, 2.0]])  # col norms^2 = (1, 4)
    rng = RngStream(4)
    counts = np.zeros(2)
    n = 100_000
    for _ in range(n):
        counts[weighted_column_sample(mat, rng)] += 1
    probs = np.array([0.2, 0.8])
    sigma = np.sqrt(probs * (1 - probs) / n)
    assert np.all(np.abs(counts / n - probs) <= 3 * sigma)


def test_degenerate_single_row_and_column():
    tall = build_matrix([[2.0], [1e-9]])
    rng = RngStream(0)
    assert all(weighted_column_sample(tall, rng) == 0 for _ in range(10))
    single = build_matrix([[3.0, 1.0]])
    assert all(weighted_row_sample(single, rng) == 0 for _ in range(10))


def test_subset_size_rules():
    rng = RngStream(11)
    s = simple_random_subset(600, 400, 0.01, rng)
    assert s.indices.size == 10
    tiny = simple_random_subset(30, 20, 0.001, rng)
    assert tiny.indices.size == 1
    full = simple_random_subset(4, 2, 1.0, rng)
    assert np.array_equal(full.indices, np.arange(6))
    with pytest.raises(InvalidRatio):
        simple_random_subset(5, 5, 0.0, rng)
    with pytest.raises(InvalidRatio):
        simple_random_subset(5, 5, 1.5, rng)


def test_subset_invariants():
    rng = RngStream(12)
    for _ in range(200):
        s = simple_random_subset(40, 25, 0.2, rng)
        assert np.all(np.diff(s.indices) > 0)
        assert np.all(s.rows < 40)
        assert np.all(s.cols < 25)
        recon = np.concatenate([s.rows, s.cols + 40])
        assert np.array_equal(np.sort(recon), s.indices)


def test_subset_inclusion_frequency():
    # every index included with probability k / (m + n)
    rng = RngStream(13)
    m, n, reps = 12, 8, 100_000
    counts = np.zeros(m + n)
    for _ in range(reps):
        counts[simple_random_subset(m, n, 0.25, rng).indices] += 1
    p = 5 / 20
    sigma = math.sqrt(p * (1 - p) / reps)
    assert np.all(np.abs(counts / reps - p) <= 3 * sigma + 1e-3)


def test_subset_uniform_over_all_subsets():
    # exhaustive check on a domain small enough to enumerate
    rng = RngStream(14)
    m, n, k = 4, 2, 3
    all_subsets = {frozenset(c): 0 for c in itertools.combinations(range(m + n), k)}
    reps = 40_000
    for _ in range(reps):
        s = simple_random_subset(m, n, k / (m + n), rng)
        all_subsets[frozenset(s.indices.tolist())] += 1
    counts = np.array(list(all_subsets.values()))
    assert counts.min() > 0
    probs = np.full(len(all_subsets), 1.0 / len(all_subsets))
    assert _chi_square_ok(counts, probs)


def _unique_reference(total, k, rng):
    """The rejection sampler with numpy's own first-occurrence dedupe."""
    if k >= total:
        return np.arange(total, dtype=np.int64)
    if k > total // 8:
        picked = rng._gen.permutation(total)[:k].astype(np.int64)
        picked.sort()
        return picked
    draws = rng._gen.integers(0, total, size=k + 16 + k // 32)
    while True:
        _, first_pos = np.unique(draws, return_index=True)
        if first_pos.size >= k:
            break
        draws = np.concatenate(
            [draws, rng._gen.integers(0, total, size=2 * (k - first_pos.size) + 8)])
    first_pos.sort()
    out = draws[first_pos[:k]]
    out.sort()
    return out


@pytest.mark.parametrize("total,k", [(60209, 602), (2500, 25), (7, 1), (16, 2),
                                     (40, 29), (8000, 1000), (5, 5), (1_254_000, 21_000)])
def test_without_replacement_matches_unique_dedupe(total, k):
    # 8000/1000 needs the redraw loop; 40/29 and 5/5 take the shuffle and
    # the full range; the last is a gen_sparse_gaussian-sized draw
    for seed in range(5):
        a, b = RngStream(seed), RngStream(seed)
        np.testing.assert_array_equal(_sample_without_replacement(total, k, a),
                                      _unique_reference(total, k, b))
        assert a.uniform() == b.uniform()


def test_first_distinct_without_composite_keys():
    # a range too large for (value, position) keys takes the stable sort
    draws = np.array([[5, 3, 5, 1, 3, 9], [2, 2, 2, 7, 0, 7]])
    for total in (10, 1 << 62):
        np.testing.assert_array_equal(_first_distinct(draws, total, 3), [[1, 3, 5], [0, 2, 7]])
        assert _first_distinct(draws, total, 4) is None


@pytest.mark.parametrize("m,n,k", [(60000, 209, 602), (2000, 500, 25), (6, 3, 1),
                                   (4, 2, 3), (10, 6, 2), (6000, 2000, 1000), (3, 1, 4)])
def test_subset_block_is_consecutive_single_draws(m, n, k):
    # (6000, 2000, 1000) misses in one batch and replays from the saved stream;
    # the sequential sampler is the reference both block sizes must match
    a, b, c = RngStream(21), RngStream(21), RngStream(21)
    block = simple_random_subsets(m, n, k, 33, a)
    single = [simple_random_subset(m, n, k / (m + n), b).indices for _ in range(33)]
    sequential = [_sample_without_replacement(m + n, k, c) for _ in range(33)]
    np.testing.assert_array_equal(block, np.stack(single))
    np.testing.assert_array_equal(block, np.stack(sequential))
    assert a.uniform() == b.uniform() == c.uniform()


def _engine_subsets(m, n, k, blocks, seed):
    """The stacked index subsets the sampled engine scores, in order."""
    system = kl.LinearSystem(build_matrix(np.arange(1.0, m * n + 1).reshape(m, n)),
                             np.zeros(m))
    rng = RngStream(seed)
    out = []
    for _ in range(blocks):
        blk = _SubsetBlock(system.mat, k, rng)
        for j in range(_DRAW_BLOCK):
            rows = blk.rows[blk.row_bounds[j]:blk.row_bounds[j + 1]]
            cols = blk.cols[blk.col_bounds[j]:blk.col_bounds[j + 1]]
            out.append(tuple(rows.tolist()) + tuple((cols + m).tolist()))
    return out


def _uniform_ok(samples, outcomes):
    counts = dict.fromkeys(outcomes, 0)
    for s in samples:
        counts[s] += 1  # a KeyError is an impossible subset
    counts = np.array(list(counts.values()))
    return counts.min() > 0 and _chi_square_ok(counts, np.full(len(counts), 1 / len(counts)))


@pytest.mark.parametrize("m,n,k", [(6, 3, 1), (10, 6, 2), (3, 2, 2), (4, 2, 3)])
def test_engine_subsets_uniform_over_all_subsets(m, n, k):
    # the first two take the batched draw, the last two the shuffle
    outcomes = list(itertools.combinations(range(m + n), k))
    blocks = max(4000, 400 * len(outcomes)) // _DRAW_BLOCK
    assert _uniform_ok(_engine_subsets(m, n, k, blocks, seed=m * n + k), outcomes)


def test_engine_subsets_independent_within_and_across_blocks():
    # consecutive subsets must be jointly uniform over all pairs, both inside
    # one block and across the boundary between two blocks
    m, n = 6, 3
    singles = [(t,) for t in range(m + n)]
    pairs = [a + b for a in singles for b in singles]
    subsets = _engine_subsets(m, n, 1, 4000, seed=31)
    inside = [subsets[i] + subsets[i + 1]
              for i in range(0, len(subsets), 2)]
    across = [subsets[i - 1] + subsets[i]
              for i in range(_DRAW_BLOCK, len(subsets), _DRAW_BLOCK)]
    assert _uniform_ok(inside, pairs)
    assert _uniform_ok(across, pairs)


def _selection(row_vals, col_vals, m, n):
    row_vals = np.asarray(row_vals, dtype=float)
    col_vals = np.asarray(col_vals, dtype=float)
    rr = np.zeros(m)
    rc = np.zeros(n)
    row_set = np.flatnonzero(row_vals)
    col_set = np.flatnonzero(col_vals)
    rr[row_set] = row_vals[row_set]
    rc[col_set] = -col_vals[col_set]
    return GreedySelection(eps=0.0, eps_row=0.0, eps_col=0.0,
                           row_set=row_set, col_set=col_set,
                           row_values=row_vals[row_set],
                           col_values=col_vals[col_set],
                           residual_row=rr, residual_col=rc)


def test_residual_sample_concentrated():
    sel = _selection([0.0, 0.0, 5.0], [0.0], 3, 1)
    rng = RngStream(15)
    assert all(grak_residual_sample(sel, rng) == 2 for _ in range(20))


def test_residual_sample_even_split():
    sel = _selection([1.0], [1.0], 1, 1)
    rng = RngStream(16)
    n = 100_000
    hits = sum(grak_residual_sample(sel, rng) == 0 for _ in range(n))
    sigma = math.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) <= 3 * sigma


def test_residual_sample_weighted():
    sel = _selection([1.0, 2.0], [2.0], 2, 1)
    rng = RngStream(17)
    n = 100_000
    counts = np.zeros(3)
    for _ in range(n):
        counts[grak_residual_sample(sel, rng)] += 1
    probs = np.array([1 / 9, 4 / 9, 4 / 9])
    sigma = np.sqrt(probs * (1 - probs) / n)
    assert np.all(np.abs(counts / n - probs) <= 3 * sigma)


def test_residual_sample_zero_mass():
    sel = _selection([0.0], [0.0], 1, 1)
    with pytest.raises(ZeroResidual):
        grak_residual_sample(sel, RngStream(18))
