"""Computable convergence-rate constants and benchmark metrics.

The bound report collects the per-iteration expected contraction factors of
the combined squared error ``||x - x_star||^2 + ||z - z_star||^2``:

* ``beta``: rate of the greedy randomized engine (with ``zeta`` the looser
  first-step factor);
* ``beta_tilde``: rate of the accelerated engine's row branch, always below
  ``beta`` for matrices without zero columns;
* ``alpha`` and ``delta``: the x- and z-side factors of the accelerated
  column branch, whose effective rate lies inside ``theta_bracket``.

All constants need the smallest nonzero eigenvalue of A^T A, supplied by a
dense eigen-oracle that is only meant for desk-scale matrices.  Bounds are
diagnostics; nothing here runs in solver hot paths.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import IncompleteRun, OracleUnavailable
from .matrix import RowColMatrix

__all__ = ["BoundReport", "lambda_min_oracle", "compute_bounds", "speedup"]

# largest min(m, n) the dense eigen-oracle accepts
_ORACLE_SIZE_LIMIT = 2000

# eigenvalues below this fraction of ||A||_F^2 count as numerically zero
_EIG_CUTOFF = 1e-10


@dataclass(frozen=True)
class BoundReport:
    """Contraction-rate constants of one matrix (all in [0, 1))."""

    eta: float
    gamma: float
    beta: float
    zeta: float
    beta_tilde: float
    alpha: float
    delta: float
    theta_bracket: tuple[float, float]
    lambda_min: float

    def to_dict(self) -> dict:
        out = asdict(self)
        out["theta_bracket"] = list(self.theta_bracket)
        return out


def lambda_min_oracle(mat: RowColMatrix) -> float:
    """Smallest nonzero eigenvalue of A^T A via a dense symmetric eigensolve.

    Works on the smaller Gram matrix (A^T A or A A^T, same nonzero spectrum)
    and raises ``OracleUnavailable``, before any eigensolve, on a matrix
    whose smaller dimension exceeds 2000 (``_ORACLE_SIZE_LIMIT``).
    """
    k = min(mat.m, mat.n)
    if k > _ORACLE_SIZE_LIMIT:
        raise OracleUnavailable(
            f"min(m, n) = {k} exceeds the eigen-oracle limit {_ORACLE_SIZE_LIMIT}"
        )
    if mat.is_sparse:
        csr = mat._csr
        gram = (csr.T @ csr).toarray() if mat.n <= mat.m else (csr @ csr.T).toarray()
    else:
        dense = mat._rows
        gram = dense.T @ dense if mat.n <= mat.m else dense @ dense.T
    eigs = np.linalg.eigvalsh(gram)
    cutoff = _EIG_CUTOFF * mat.frob_sq
    nonzero = eigs[eigs > cutoff]
    if nonzero.size == 0:
        raise OracleUnavailable("no eigenvalue of A^T A above the zero cutoff")
    return float(nonzero.min())


def compute_bounds(mat: RowColMatrix) -> BoundReport:
    """Evaluate every computable rate constant for one matrix.

    The smallest nonzero eigenvalue of A^T A comes from
    ``lambda_min_oracle``, so a matrix past its size limit raises
    ``OracleUnavailable``.
    """
    lam = lambda_min_oracle(mat)
    fro_sq = mat.frob_sq
    stacked = 2.0 * fro_sq + mat.m
    eta = min(1.0, (math.sqrt(lam + 0.25) - 0.5) ** 2)
    gamma = stacked - min(1.0 + float(mat.row_norms_sq.min()),
                          float(mat.col_norms_sq.min()))
    beta = 1.0 - 0.5 * (stacked / gamma + 1.0) * (eta / stacked)
    zeta = 1.0 - eta / stacked
    beta_tilde = 1.0 - eta / gamma
    alpha = 1.0 - lam / fro_sq
    col_slack = fro_sq - float(mat.col_norms_sq.min())
    delta = 1.0 - lam / col_slack if col_slack > 0.0 else 0.0
    return BoundReport(
        eta=eta,
        gamma=gamma,
        beta=beta,
        zeta=zeta,
        beta_tilde=beta_tilde,
        alpha=alpha,
        delta=delta,
        theta_bracket=(delta, alpha),
        lambda_min=lam,
    )


def speedup(report_a, report_b) -> float:
    """Wall time of run a over wall time of run b (how much faster b is)."""
    for rep in (report_a, report_b):
        wall = getattr(rep, "wall_time_s", None)
        if wall is None or not math.isfinite(wall) or wall <= 0.0:
            raise IncompleteRun("both runs need a positive wall time")
    return report_a.wall_time_s / report_b.wall_time_s
