"""Constrained Bayesian optimization toolkit for cure-cycle design.

Provides GP surrogates with an expected-constrained-improvement acquisition,
an elitist constrained GA baseline, a lumped-point thermoset cure simulator,
and a batch study runner with seeded replications.
"""

from curebo.space import CandidatePool, DesignSpace, lhs_sample, sieve
from curebo.gp import FitConfig, GpSurrogate, KernelParams, Posterior, fit_gp, matern52, predict
from curebo.acquisition import (
    Incumbent,
    argmax_pool,
    constrained_ei,
    expected_improvement,
    prob_feasible,
)
from curebo.records import Evaluation, RunReport, best_feasible, running_best
from curebo.cbo import CboConfig, run_cbo
from curebo.ga import GaConfig, Individual, constraint_dominates, run_ga
from curebo.problems import (
    Problem,
    analytical_problem,
    four_point_problem,
    two_point_problem,
)

__version__ = "0.1.0"

__all__ = [
    "CandidatePool",
    "CboConfig",
    "DesignSpace",
    "Evaluation",
    "FitConfig",
    "GaConfig",
    "GpSurrogate",
    "Incumbent",
    "Individual",
    "KernelParams",
    "Posterior",
    "Problem",
    "RunReport",
    "analytical_problem",
    "argmax_pool",
    "best_feasible",
    "constrained_ei",
    "constraint_dominates",
    "expected_improvement",
    "fit_gp",
    "four_point_problem",
    "lhs_sample",
    "matern52",
    "predict",
    "prob_feasible",
    "run_cbo",
    "run_ga",
    "running_best",
    "sieve",
    "two_point_problem",
]
