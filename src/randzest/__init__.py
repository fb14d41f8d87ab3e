"""Design-based Z-estimation and treatment-effect inference for completely
randomized experiments.

The public surface re-exports the main types and operations; see the module
docstrings for the statistical contracts.
"""

from .ate import (
    IDENTITY,
    LOG,
    LOGIT,
    AteResult,
    GScale,
    adjusted_imputation,
    fit_optimal_adjustment,
    fit_working_model,
    gscale,
    mean_adjustment,
    tau_model_assisted,
    tau_model_based,
    tau_model_imputed,
    tau_unadjusted,
)
from .errors import (
    ConvergenceError,
    DataError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    EnumerationTooLargeError,
    NumericalError,
    RandzestError,
    SpecificationError,
)
from .estfun import (
    EstimatingFunction,
    GlmFamily,
    MeanSpec,
    binomial_family,
    canonical_q_vectors,
    gaussian_family,
    glm_mean,
    glm_score_estfun,
    moment_kappa,
    negbin_family,
    parse_model_spec,
    poisson_family,
    squared_loss_estfun,
)
from .finitepop import (
    Assignment,
    Dataset,
    PotentialTable,
    draw_assignment,
    enumerate_assignments,
    fp_var,
    group_mean,
    group_moments,
    make_rng,
    observe,
    read_dataset_csv,
    read_potential_csv,
)
from .ite import (
    EdfTauModel,
    EffectDecomposition,
    effect_variance_decomposition,
    fit_normal_linear,
    fit_ternary,
    ite_estfun,
    normal_linear_model,
    pseudo_effects,
    pseudo_effects_adjusted,
    ternary_model,
)
from .simlab import (
    EstimatorConfig,
    Scenario,
    StudyTable,
    bundled_scenario_path,
    exact_randomization_distribution,
    gen_population,
    load_scenario,
    run_study,
)
from .zestim import (
    WaldSet,
    ZFit,
    empirical_jacobian,
    empirical_psi,
    empirical_risk,
    population_psi,
    sandwich,
    solve,
    wald_set,
)

__version__ = "0.1.0"
