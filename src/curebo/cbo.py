"""Constrained Bayesian optimization loop.

Each run spends its budget as exactly n_init space-filling evaluations
followed by n_steps acquisition-driven evaluations. Every learn step refits
both surrogates on all finite data so far, scores a fresh Latin hypercube
candidate pool by expected constrained improvement, and evaluates the true
functions at the best-scoring candidate that is not a near-duplicate of an
evaluated point. With no feasible incumbent the acquisition degrades to the
probability of feasibility alone.

PF <= 1, so no candidate scores above its own EI (Gardner et al. 2014).
A step therefore predicts the objective surrogate on the pool first, and
settles on the EI leader, predicting the constraint surrogate at that one
point only, when the leader leads every other EI strictly, passes the
duplicate guard and has a PF of exactly 1.0. Exactly 1.0, because its
score EI x 1.0 then has the bits of its EI; a one-row prediction rounds
differently from the whole-pool one, so a PF just below 1 could move the
logged acquisition value in its last bits. Any other step scores the whole
pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from curebo.acquisition import ei_values, pf_values
from curebo.blas import openblas_pinned_to_one_thread
from curebo.gp import NumericalError, fit_gp, predict_batch
from curebo.problems.blackbox import Problem
from curebo.records import RunReport, RunStopped
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


def import_surrogate_scipy() -> None:
    """Load the scipy submodules that gp and acquisition reach at call time,
    and with scipy.linalg scipy's own OpenBLAS."""
    import scipy.linalg, scipy.optimize, scipy.spatial, scipy.special  # noqa: E401, F401


def run_cbo(problem: Problem, config: CboConfig, seed: int) -> RunReport:
    """Run the constrained BO loop against a problem, seeded by seed.

    The points come from problem.space, feasibility is g >= problem.threshold,
    and a problem with a sieve_raw has every pool passed through it before
    scoring (see `space.sieve`). No pick lies within DUPLICATE_TOL of an
    evaluated point. When a feasible incumbent exists and the EI leader
    leads every other EI strictly, passes the duplicate guard and has a PF
    of exactly 1.0 at its one row, it is the pick, with its EI as the
    acquisition value, and the constraint surrogate predicts that row alone.
    PF must be exactly 1.0 because a one-row prediction rounds differently
    from the whole-pool one. Any other step scores the whole pool.

    Every loaded OpenBLAS runs at one thread for the run and gets its thread
    count back after. The report is bitwise reproducible for identical
    inputs. A failing problem evaluation, a surrogate that cannot be fitted,
    a sieve that rejects every candidate of a pool, or a pool whose every
    candidate is a near-duplicate of an evaluated point stops the run (see
    RunReport). Each learn step reads its y_min from the report's incumbent.
    """
    space, threshold = problem.space, problem.threshold
    root = np.random.SeedSequence(seed)
    init_ss, *pool_seeds = root.spawn(1 + config.n_steps)
    report = RunReport(threshold)

    # The products are small, so extra BLAS threads only cost time (twice
    # the time at two threads, with the same bits). The pin reaches only the
    # libraries loaded by then, so scipy's own OpenBLAS is loaded here.
    import_surrogate_scipy()

    with report, openblas_pinned_to_one_thread():
        for x in lhs_sample(space, config.n_init, init_ss):
            report.evaluate(problem, x, 0)

        for step in range(1, config.n_steps + 1):
            train_x = np.array([e.x for e in report.evaluations])
            y_f = np.array([e.f for e in report.evaluations])
            y_g = np.array([e.g for e in report.evaluations])
            finite_f, finite_g = np.isfinite(y_f), np.isfinite(y_g)  # NaN, inf train no model
            try:
                model_f = fit_gp(train_x[finite_f], y_f[finite_f])
                model_g = fit_gp(train_x[finite_g], y_g[finite_g])
            except (NumericalError, ValueError) as exc:
                raise RunStopped(f"step {step}: surrogate fit failed: {exc}") from exc

            pool = lhs_sample(space, config.pool_size, pool_seeds[step - 1])
            if problem.sieve_raw is not None:
                pool = sieve(pool, problem.sieve_raw, space)
                if len(pool) == 0:
                    raise RunStopped(f"step {step}: sieve emptied the pool, stopping early")

            # EI x PF, with EI taken as 1 while no evaluated point is feasible
            pick, scores = None, 1.0
            if report.incumbent is not None:
                scores = ei_values(*predict_batch(model_f, pool), report.incumbent.f)
                pick = _certain_leader(pool, scores, train_x, model_g, threshold)
            if pick is None:
                scores = scores * pf_values(*predict_batch(model_g, pool), threshold)
                pick = _best_distinct(pool, scores, train_x)
            if pick is None:
                raise RunStopped(f"step {step}: duplicate guard emptied the pool, stopping early")
            report.evaluate(problem, pool[pick], step, float(scores[pick]))
    return report


def _distinct(pool: np.ndarray, i: int, train_x) -> bool:
    """Whether candidate i lies farther than DUPLICATE_TOL (L-inf) from every evaluated point."""
    return len(drop_near_duplicates(pool[i : i + 1], train_x, DUPLICATE_TOL)) > 0


def _certain_leader(pool: np.ndarray, ei, train_x, model_g, threshold: float) -> Optional[int]:
    """The EI leader when it is certainly the pick of EI x PF (see the
    module docstring), else None: its EI leads every other strictly, which
    no NaN EI does, it passes the duplicate guard, and its PF, predicted on
    its one row, is exactly 1.0."""
    top = int(np.argmax(ei))
    if (ei >= ei[top]).sum() != 1 or not _distinct(pool, top, train_x):
        return None
    pf = pf_values(*predict_batch(model_g, pool[top : top + 1]), threshold)
    return top if pf[0] == 1.0 else None


def _best_distinct(pool: np.ndarray, scores, train_x) -> Optional[int]:
    """Index of the best-scoring candidate that passes the duplicate guard
    (`_distinct`), first index on ties as np.argmax and NaN ranked last;
    None when there is none. Normally the np.argmax winner is it; only a
    NaN or near-duplicate winner sends the guard down the candidates in
    descending score."""
    winner = int(np.argmax(scores))
    if not np.isnan(scores[winner]) and _distinct(pool, winner, train_x):
        return winner
    candidates = np.argsort(-scores, kind="stable").tolist()
    return next((i for i in candidates if _distinct(pool, i, train_x)), None)
