import numpy as np
import pytest
from hypothesis import settings

import kaczlab as kl
from kaczlab.sampling import STREAM_PLANTED

# Property tests draw the same examples on every run (derandomize), write no
# example database into the checkout, take no deadline (an example's wall
# time drifts with the machine's load) and stay within a few seconds.
settings.register_profile("kaczlab", derandomize=True, database=None, deadline=None,
                          max_examples=150)
settings.load_profile("kaczlab")


def make_gaussian_system(m, n, seed, noise_scale=0.5, with_reference=True,
                         oracle_tol=1e-12):
    """Dense inconsistent test system with a planted solution."""
    mat = kl.gen_gaussian(m, n, seed)
    x_seed = kl.RngStream(seed, STREAM_PLANTED).standard_normal(n)
    b = kl.build_inconsistent_rhs(mat, x_seed, noise_seed=seed,
                                  noise_scale=noise_scale)
    if not with_reference:
        return kl.LinearSystem(mat, b, provenance=f"gaussian:{m}x{n}:seed{seed}")
    x_star, z_star = kl.reference_solution(mat, b, oracle_tol)
    return kl.LinearSystem(mat, b, x_star, z_star,
                           provenance=f"gaussian:{m}x{n}:seed{seed}")


def random_sparse_matrix(rng, m, n, density=0.4):
    """Small random sparse matrix with every row and column occupied."""
    dense = rng.standard_normal((m, n))
    dense[rng.random((m, n)) > density] = 0.0
    for i in range(m):
        if not dense[i].any():
            dense[i, rng.integers(0, n)] = rng.standard_normal()
    for j in range(n):
        if not dense[:, j].any():
            dense[rng.integers(0, m), j] = rng.standard_normal()
    ii, jj = np.nonzero(dense)
    return kl.build_matrix((ii, jj, dense[ii, jj]), shape=(m, n)), dense


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
