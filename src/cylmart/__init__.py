"""Desk-scale stochastic calculus for cylindrical martingale truncations.

Submodules:

* ``measures``     grid measures, suprema, difference quotients
* ``operators``    symmetric/PSD matrix calculus and projection selection
* ``martingales``  truncation simulation, brackets, operator densities
* ``integration``  stochastic integrals, covariation, stopping
* ``timechange``   bracket clock changes and substitution identities
* ``gammanorm``    Gaussian-series norms of kernels, exact and Monte Carlo
* ``bdg``          isometry / two-sided moment panels / chain-rule residual
* ``evolution``    mild-solution solver by blockwise fixed-point iteration
* ``harness``      experiment registry, reports, replay
"""

from .measures import (
    GridMeasure,
    IncreasingPath,
    TimeGrid,
    measure_from_increasing,
    partial_sup,
    radon_nikodym,
    sup_density_measures,
    sup_measures,
    sup_measures_bruteforce,
)
from .operators import ProjectionTriple, op_norm_sym, projection_selection, psd_sqrt
from .martingales import (
    BracketPaths,
    MartEnsemble,
    NoiseSpec,
    OperatorProcess,
    am_operator,
    countex_spec,
    qm_empirical,
    qm_operator,
    qv_exact,
    qv_partition_estimate,
    simulate,
    sphere_panel,
    stacked_spec,
    stop_ensemble,
    stopped_spec,
)
from .integration import (
    CheckReport,
    ElementaryIntegrand,
    ElementaryPiece,
    IntegralPaths,
    IntegrandProcess,
    bracket_of_integral,
    covariation_operator,
    elementary_integral,
    first_passage_time,
    integrate,
    kunita_watanabe_check,
    local_property_check,
    stop_integral,
)
from .timechange import (
    TimeChange,
    apply_time_change,
    build_time_change,
    dds_integral_check,
    gamma_timechange_check,
    plateau_constancy_check,
    substitute,
)
from .gammanorm import (
    GammaEstimate,
    GammaKernel,
    gamma_fubini_check,
    gamma_norm,
    gamma_norm_exact_hilbert,
    gamma_norm_mc,
    ideal_check,
    kernel_operator_norm,
    primitive_gamma_bound_check,
    type2_cotype2_check,
)
from .bdg import (
    BDGInstance,
    BDGReport,
    bdg_ratio_panel,
    fit_bracket,
    integral_kernel,
    ito_isometry,
    ito_residual,
    trace_term,
)
from .evolution import (
    PicardDiagnostics,
    PicardError,
    SEEProblem,
    det_convolution,
    localization_consistency,
    mild_residual,
    picard_solve,
    rho_stopping_times,
    stoch_convolution,
    vp_norm,
)

__version__ = "0.1.0"
