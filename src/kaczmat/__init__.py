"""Randomized row/column-action solvers for consistent matrix equations
A X B = C, with problem generators, convergence-rate formulas, and an
image-deblurring application."""

from .images import GrayImage, read_pgm, write_pgm
from .matrices import (
    as_csr,
    as_dense,
    col_norms,
    frobenius_norm,
    pinv,
    row_norms,
)
from .problems import (
    BlurSpec,
    InconsistentSystemWarning,
    TypeISpec,
    blur_problem,
    gaussian_toeplitz,
    gen_type1,
    gen_type2,
    make_problem,
    min_norm_solution,
    psnr,
    uniform_toeplitz,
)
from .mmio import load_matrix_market, write_matrix_market
from .rates import (
    RateBundle,
    beta_max,
    gamma_max,
    general_grabk_rate,
    grabk_adaptive_rate,
    grabk_const_rate,
    grbk_rate,
    grk_rate,
    rate_bundle,
    weighting_sigma_min,
)
from .sampling import (
    BlockPartition,
    CategoricalDistribution,
    SeededRng,
    categorical,
    frobenius_block_probs,
    make_partition,
    sample_block,
)
from .solvers import (
    ConvergenceReport,
    Problem,
    SolverConfig,
    Trace,
    adaptive_stepsize,
    grabk_step,
    grbk_step,
    grk_step,
    prepare_state,
    relative_error,
    solve,
)

__version__ = "0.1.0"
