"""Constrained Bayesian optimization toolkit for cure-cycle design.

Provides GP surrogates with an expected-constrained-improvement acquisition,
an elitist constrained GA baseline, a lumped-point thermoset cure simulator,
and a batch study runner with seeded replications.
"""

from curebo.space import DesignSpace, lhs_sample, sieve
from curebo.gp import GpSurrogate, fit_gp, predict_batch
from curebo.acquisition import ei_values, pf_values
from curebo.records import Evaluation, RunReport
from curebo.cbo import CboConfig, run_cbo
from curebo.ga import GaConfig, run_ga
from curebo.problems import (
    Problem,
    analytical_problem,
    four_point_problem,
    two_point_problem,
)

__version__ = "0.1.0"

__all__ = [
    "CboConfig",
    "DesignSpace",
    "Evaluation",
    "GaConfig",
    "GpSurrogate",
    "Problem",
    "RunReport",
    "analytical_problem",
    "ei_values",
    "fit_gp",
    "four_point_problem",
    "lhs_sample",
    "pf_values",
    "predict_batch",
    "run_cbo",
    "run_ga",
    "sieve",
    "two_point_problem",
]
