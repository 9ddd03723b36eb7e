"""Bayesian screening of AR(1) panels for units with mean-shift alternatives.

The package provides a parametric importance-sampling screen, a Dirichlet
process model for the AR(1) residual law, a functional nonparametric model
for mean trajectories with a blocked Gibbs sampler, simulation studies of
the operating characteristics, and a command line driver.
"""

from .ar_core import (
    ArParams,
    ObservedSeries,
    SeriesPanel,
    ar1_loglik,
    cdf_standardize,
    log_conditional_bayes_factor,
    mean_shift_loglik,
    stationary_variance,
)
from .dp_residual import (
    elicit_concentration,
    expected_clusters,
    gibbs_sweep_residual,
    init_residual_state,
    run_residual_chain,
)
from .errors import (
    ArscreenError,
    DomainError,
    InvalidInputError,
    ModeSearchError,
    NumericalError,
)
from .parametric import (
    ParametricPrior,
    build_importance_sampler,
    inclusion_probabilities_parametric,
    posterior_mixing_mode,
)
from .simulation import (
    MixtureScenario,
    error_report,
    generate_mixture_panel,
    generate_prior_study,
    simulate_ar1,
)
from .trajectory import (
    GpKernelParams,
    RunConfig,
    TrajectoryAtom,
    frozen_cluster_rerun,
    gibbs_sweep_joint,
    gp_covariance,
    init_fdp_state,
    load_chain,
    merge_inclusion,
    mle_trajectory_set,
    report_summaries,
    run_chain,
    save_chain,
)

__all__ = [
    "ArParams",
    "ObservedSeries",
    "SeriesPanel",
    "ar1_loglik",
    "cdf_standardize",
    "log_conditional_bayes_factor",
    "mean_shift_loglik",
    "stationary_variance",
    "frozen_cluster_rerun",
    "mle_trajectory_set",
    "report_summaries",
    "elicit_concentration",
    "expected_clusters",
    "gibbs_sweep_residual",
    "init_residual_state",
    "run_residual_chain",
    "ArscreenError",
    "DomainError",
    "InvalidInputError",
    "ModeSearchError",
    "NumericalError",
    "ParametricPrior",
    "build_importance_sampler",
    "inclusion_probabilities_parametric",
    "posterior_mixing_mode",
    "MixtureScenario",
    "error_report",
    "generate_mixture_panel",
    "generate_prior_study",
    "simulate_ar1",
    "GpKernelParams",
    "RunConfig",
    "TrajectoryAtom",
    "gibbs_sweep_joint",
    "gp_covariance",
    "init_fdp_state",
    "load_chain",
    "merge_inclusion",
    "run_chain",
    "save_chain",
]
