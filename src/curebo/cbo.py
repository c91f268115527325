"""Constrained Bayesian optimization loop.

Each run spends its budget as exactly n_init space-filling evaluations
followed by n_steps acquisition-driven evaluations. Every learn step refits
both surrogates on all finite data so far, scores a fresh Latin hypercube
candidate pool by expected constrained improvement, and evaluates the true
functions at the best-scoring candidate that is not a near-duplicate of an
evaluated point. With no feasible incumbent the acquisition degrades to the
probability of feasibility alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from curebo.acquisition import ei_values, pf_values
from curebo.blas import openblas_pinned_to_one_thread
from curebo.gp import NumericalError, fit_gp, predict_batch
from curebo.problems.blackbox import Problem
from curebo.records import Evaluation, RunReport, evaluate, running_best
from curebo.space import drop_near_duplicates, lhs_sample, sieve

# L-inf distance within which a candidate counts as an already evaluated point.
DUPLICATE_TOL = 1e-9


@dataclass(frozen=True)
class CboConfig:
    """Budget of one cBO run: n_init space-filling evaluations, then n_steps
    learn steps, each scoring a fresh pool of pool_size candidates."""

    n_init: int = 10
    n_steps: int = 30
    pool_size: int = 10_000

    def __post_init__(self):
        problems = []
        if self.n_init < 2:
            problems.append("n_init must be at least 2")
        if self.n_steps < 1:
            problems.append("n_steps must be at least 1")
        if self.pool_size < 1:
            problems.append("pool_size must be at least 1")
        if problems:
            raise ValueError("; ".join(problems))


def run_cbo(problem: Problem, config: CboConfig, seed: int) -> RunReport:
    """Run the constrained BO loop against a problem, seeded by seed.

    The points come from problem.space, feasibility is g >= problem.threshold,
    and a problem with a sieve_raw has every pool passed through it before
    scoring (see `space.sieve`). No pick lies within DUPLICATE_TOL of an
    evaluated point.

    Every loaded OpenBLAS runs at one thread for the run and gets its thread
    count back after. The report is bitwise reproducible for identical
    inputs. A failing problem evaluation, a surrogate that cannot be fitted,
    a sieve that rejects every candidate of a pool, or a pool whose every
    candidate is a near-duplicate of an evaluated point ends the run early
    and returns the partial report with complete=False.
    """
    t0 = time.perf_counter()
    space, threshold = problem.space, problem.threshold
    root = np.random.SeedSequence(seed)
    init_ss, *pool_seeds = root.spawn(1 + config.n_steps)

    evaluations: list[Evaluation] = []
    events: list[str] = []

    def finish(complete: bool) -> RunReport:
        return RunReport(
            evaluations, threshold, config.n_init, time.perf_counter() - t0, complete, events
        )

    # The products are small, so extra BLAS threads only cost time (twice
    # the time at two threads, with the same bits). The pin reaches only the
    # libraries loaded by then, and gp loads scipy's submodules, and with
    # them scipy's own OpenBLAS, at its first call; so that library is
    # loaded here, before the pin.
    import scipy.linalg  # noqa: F401

    with openblas_pinned_to_one_thread():
        for x in lhs_sample(space, config.n_init, init_ss):
            if evaluate(problem, x, 0, None, evaluations, events) is None:
                return finish(complete=False)

        for step in range(1, config.n_steps + 1):
            train_x = np.array([e.x for e in evaluations])
            y_f = np.array([e.f for e in evaluations])
            y_g = np.array([e.g for e in evaluations])
            finite_f, finite_g = np.isfinite(y_f), np.isfinite(y_g)  # non-finite values train no model
            try:
                model_f = fit_gp(train_x[finite_f], y_f[finite_f])
                model_g = fit_gp(train_x[finite_g], y_g[finite_g])
            except (NumericalError, ValueError) as exc:
                events.append(f"step {step}: surrogate fit failed: {exc}")
                return finish(complete=False)

            pool = lhs_sample(space, config.pool_size, pool_seeds[step - 1])
            if problem.sieve_raw is not None:
                pool = sieve(pool, problem.sieve_raw, space)
                if len(pool) == 0:
                    events.append(f"step {step}: sieve emptied the pool, stopping early")
                    return finish(complete=False)

            mean_g, var_g = predict_batch(model_g, pool)
            pf = pf_values(mean_g, var_g, threshold)
            best = running_best(evaluations, threshold)[-1]
            if best is None:
                scores = pf
            else:
                mean_f, var_f = predict_batch(model_f, pool)
                scores = ei_values(mean_f, var_f, evaluations[best].f) * pf

            pick = _best_distinct(pool, scores, train_x)
            if pick is None:
                events.append(f"step {step}: duplicate guard emptied the pool, stopping early")
                return finish(complete=False)
            if evaluate(problem, pool[pick], step, float(scores[pick]), evaluations, events) is None:
                return finish(complete=False)

        return finish(complete=True)


def _best_distinct(pool: np.ndarray, scores, train_x) -> Optional[int]:
    """Index of the best-scoring candidate farther than DUPLICATE_TOL (L-inf)
    from every evaluated point, first index on ties as np.argmax and NaN
    ranked last; None when there is none. Normally the np.argmax winner is
    it; only a NaN or near-duplicate winner sends the duplicate guard down
    the candidates in descending score."""
    def distinct(i):
        return len(drop_near_duplicates(pool[i : i + 1], train_x, DUPLICATE_TOL)) > 0

    winner = int(np.argmax(scores))
    if not np.isnan(scores[winner]) and distinct(winner):
        return winner
    return next((i for i in np.argsort(-scores, kind="stable").tolist() if distinct(i)), None)
