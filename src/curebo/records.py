"""Shared evaluation records and run reports for the cBO and GA drivers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

PHASE_INIT = "init"
PHASE_LEARN = "learn"


@dataclass(frozen=True)
class Evaluation:
    """One true black-box evaluation: normalized input, objective, constraint."""

    x: np.ndarray
    f: float
    g: float
    step_index: int
    phase: str


@dataclass
class RunReport:
    """Per-evaluation log plus the best-feasible-so-far trace of one run.

    best_trace follows the optimizer's step axis: learn steps for cBO
    (one entry per acquisition-driven evaluation), raw evaluations for the
    GA (one entry per evaluation, initialization included). Entries are None
    until the first feasible point has been seen.
    """

    evaluations: list[Evaluation]
    best_trace: list[Optional[float]]
    x_star: Optional[np.ndarray]
    f_star: Optional[float]
    g_star: Optional[float]
    n_init: int
    n_steps: int
    threshold: float
    wall_time: float
    complete: bool = True
    events: list[str] = field(default_factory=list)
    acq_trace: list[float] = field(default_factory=list)

    @property
    def n_evaluations(self) -> int:
        return len(self.evaluations)


def running_best(evaluations, threshold: float) -> list[Optional[int]]:
    """Index of the best feasible evaluation after each evaluation in order.

    An evaluation is feasible when g >= threshold, so a NaN g never is. A
    later evaluation takes over only with a strictly smaller f, so ties go to
    the earliest. Entries are None until the first feasible evaluation.
    """
    best: list[Optional[int]] = []
    current = None
    for i, e in enumerate(evaluations):
        if e.g >= threshold and (current is None or e.f < evaluations[current].f):
            current = i
        best.append(current)
    return best


def best_feasible(evaluations, threshold: float) -> Optional[Evaluation]:
    """Minimum-f evaluation among those with g >= threshold, ties to the
    earliest; None when no evaluation is feasible."""
    best = running_best(evaluations, threshold)
    return evaluations[best[-1]] if best and best[-1] is not None else None


def build_report(
    evaluations: list[Evaluation],
    threshold: float,
    trace_from: int,
    n_init: int,
    n_steps: int,
    started: float,
    complete: bool,
    events: list[str],
    acq_trace: list[float],
) -> RunReport:
    """RunReport of a finished or aborted run.

    best_trace holds the running best f from evaluation trace_from on, and
    x_star, f_star and g_star are the last running-best evaluation's; started
    is the run's perf_counter start.
    """
    best = running_best(evaluations, threshold)
    star = evaluations[best[-1]] if best and best[-1] is not None else None
    return RunReport(
        evaluations=evaluations,
        best_trace=[None if i is None else evaluations[i].f for i in best[trace_from:]],
        x_star=None if star is None else star.x,
        f_star=None if star is None else star.f,
        g_star=None if star is None else star.g,
        n_init=n_init,
        n_steps=n_steps,
        threshold=threshold,
        wall_time=time.perf_counter() - started,
        complete=complete,
        events=events,
        acq_trace=acq_trace,
    )
