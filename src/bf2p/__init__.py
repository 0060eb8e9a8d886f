"""Bayes factors for the equality of two binomial proportions.

Two main prior setups are implemented and contrasted: independent
symmetric Beta priors placed directly on the rates (closed form), and
Gaussian priors on the logit-scale grand mean and log odds ratio
(deterministic quadrature).  A dependent truncated-Gaussian variant,
model averaging across the setups, induced-prior analytics, posterior
summaries and a batch reanalysis harness round out the package.
"""

__version__ = "0.1.0"

from .model import (
    BetaPriorKind,
    ConfigError,
    DepIBPrior,
    DiffCoords,
    DomainError,
    EvidenceResult,
    Hypothesis,
    IBPrior,
    LogitCoords,
    LTPrior,
    Method,
    NumericalError,
    ProportionPair,
    TwoByTwoData,
    UnsupportedFeatureError,
    ValidationError,
    WidePriorWarning,
    diff_to_proportions,
    evidence_label,
    logit_to_proportions,
    proportions_to_diff,
    proportions_to_logit,
    validate_data,
)
from .ib import IBPosterior, bf01_ib, ib_posterior, log_ml_h0_ib, log_ml_h1_ib
from .lt import (
    QuadratureSpec,
    bf01_lt,
    find_mode_and_scale,
    log_integrand_h0_lt,
    log_integrand_h1_lt,
    log_ml_h0_lt,
    log_ml_h1_lt,
)
from .dep_ib import (
    bf01_depib,
    clamped_rates,
    log_ml_h0_depib,
    log_ml_h1_depib,
    prior_correlation_depib,
)
from .averaging import (
    ALL_MODELS,
    Approach,
    ApproachParams,
    M0_IB,
    M0_LT,
    M1_IB,
    M1_LT,
    MixedApproachWarning,
    ModelId,
    bf_avg01,
    cross_model_ratio,
    evidence,
    log_ml,
)
from .special import (
    DensityValue,
    eta_density_ib,
    log_beta_fn,
    psi_density_ib_a1,
)
from .priors import (
    DensityGrid,
    ParamSamples,
    conditional_theta2_density,
    joint_density_grid,
    marginal_density,
    prior_correlation,
    sample_prior,
)
from .posterior import (
    PosteriorSummary,
    marginal_from_grid,
    posterior_draws_ib,
    posterior_grid_lt,
    summarize_posterior,
)
from .reanalysis import (
    ParseError,
    StudyRecord,
    SweepResult,
    emit,
    ingest_csv,
    load_bundled_corpus,
    run_sweep,
    sensitivity_curve,
)
