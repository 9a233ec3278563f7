"""Augmented Kaczmarz solvers for large inconsistent linear systems.

A toolkit of row-action solvers for A x = b when b has a component outside
the column space: a randomized extended baseline, greedy and accelerated
engines over the stacked consistent reformulation, a cheap subset-sampled
variant, practical stopping rules, convergence-rate diagnostics, and a
benchmark / tomography CLI.
"""

from .diagnostics import BoundReport, compute_bounds, lambda_min_oracle, speedup
from .errors import (
    DegenerateGeometry,
    IncompleteRun,
    IndexOutOfRange,
    InvalidRatio,
    KaczlabError,
    NonFiniteEntry,
    OracleNotConverged,
    OracleUnavailable,
    ParseError,
    ReferenceUnavailable,
    TrivialNullSpace,
    UnsupportedField,
    WindowNotReady,
    ZeroResidual,
    ZeroRowOrColumn,
)
from .matrix import RowColMatrix, as_vector, build_matrix
from .problems import (
    LinearSystem,
    build_inconsistent_rhs,
    gen_gaussian,
    gen_sparse_gaussian,
    read_matrix_market,
    reference_solution,
    snr,
    write_matrix_market,
    write_pgm,
)
from .sampling import (
    RngStream,
    SampleSubset,
    grak_residual_sample,
    simple_random_subset,
    weighted_column_sample,
    weighted_row_sample,
)
from .solvers import (
    ENGINES,
    GreedySelection,
    RunReport,
    SolverState,
    StepOutcome,
    agrak_step,
    augmented_row_update,
    column_z_update,
    grak_build_selection,
    grak_step,
    init_state,
    kaczmarz_row_project,
    rek_step,
    run,
    sampled_step,
)
from .stopping import (
    LiseWindow,
    StoppingRule,
    aise_check,
    ase_check,
    grak_native_check,
    lise_check,
    rek_native_check,
    rres_check,
    rse_check,
)
from .tomo import TomoSpec, gen_paralleltomo, phantom_image

__version__ = "0.1.0"
