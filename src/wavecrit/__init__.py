"""Numerical laboratory for semilinear wave equations on ℝ³.

Exact free-wave transport, sharp pointwise criteria for global existence
and blow-up of a null-form quadratic equation via an integrating-factor
change of unknown, and monotone Duhamel iteration for the focusing power
equation, with finite-difference oracles for cross-checking.
"""

from .errors import (
    AdmissibilityError,
    CeasedSolutionError,
    ConfigError,
    ConvergenceError,
    ExtentError,
    GridError,
    InvertibilityError,
    KatoClassError,
    SolitonError,
    WavecritError,
    WitnessError,
)
from .freewave import (
    CauchyData,
    DalembertPair,
    FreePropagator,
    TruncationInfo,
    as_general,
    dalembert_split,
    evaluate_at_origin_nonradial,
    lift_from_line,
    local_envelope,
    outgoing_velocity,
    propagate_radial,
    reduce_to_line,
    time_translate_split,
    wave_energy,
)
from .criteria import (
    Verdict,
    focusing_domination,
    local_existence_time,
    nonradial_laplacian,
    nonradial_momentum,
    oned_positivity,
    outgoing_check,
    quadratic_global_condition,
    radial_bounds,
    radial_positivity,
    supercritical_envelope,
)
from .nullwave import (
    BlowupReport,
    NullSolution,
    asymptotic_profile,
    conserved_energy_quadratic,
    detect_blowup,
    dispersion_metrics,
    null_solution,
    solve_null,
    verify_pointwise_bounds,
)
from .transforms import (
    BUILTIN_NONLINEARITIES,
    EndpointClassification,
    NonlinearityProfile,
    build_profile,
    builtin_nonlinearity,
    pull_back,
    push_forward,
)
from .radial import (
    Field3D,
    KatoNormResult,
    RadialField,
    RadialGrid,
    TailInfo,
    differentiate,
    field_from_csv,
    field_from_json,
    field_to_csv,
    field_to_json,
    integrate_radial,
    inverse_laplacian_radial,
    kato_norm,
    line_integral,
)
from .oracle import (
    FDRun,
    convergence_order,
    discrete_energy,
    fd_solve,
)
from .focusing import (
    IterationState,
    Soliton,
    blowup_window_probe,
    crossing_radii,
    duhamel_apply,
    energy_focusing,
    kenig_merle_quantities,
    monotone_iterate,
    soliton,
    supersolution_check,
)

__version__ = "0.1.0"
