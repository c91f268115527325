"""Shared evaluation records and run reports for the cBO and GA drivers."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

PHASE_INIT = "init"
PHASE_LEARN = "learn"


@dataclass(frozen=True, slots=True)
class Evaluation:
    """One true black-box evaluation: normalized input x, objective f,
    constraint g and the step that made it (0 for initialization, else the
    cBO learn step or GA generation). acq is the acquisition value that
    chose a cBO learn point, None for every other evaluation."""

    x: np.ndarray
    f: float
    g: float
    step_index: int
    acq: Optional[float]

    @property
    def phase(self) -> str:
        return PHASE_INIT if self.step_index == 0 else PHASE_LEARN


def evaluate(
    problem, x, step_index: int, acq: Optional[float], evaluations: list, events: list
) -> Optional[Evaluation]:
    """Evaluate problem at x and append the Evaluation to evaluations.

    Returns the new Evaluation; when the problem raises, appends one
    "evaluation failed at step k" event instead and returns None, so the
    caller can end its run with a partial report. An f or g that is NaN or
    infinite is kept, and one "non-finite result at step k" event says so.
    """
    try:
        f, g = problem(x)
    except Exception as exc:  # noqa: BLE001 - a failed evaluation ends the run, not the study
        events.append(f"evaluation failed at step {step_index}: {exc}")
        return None
    e = Evaluation(x=x, f=float(f), g=float(g), step_index=step_index, acq=acq)
    if not (math.isfinite(e.f) and math.isfinite(e.g)):
        events.append(f"non-finite result at step {step_index}: f={e.f!r}, g={e.g!r}")
    evaluations.append(e)
    return e


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
    threshold: float
    wall_time: float
    complete: bool = True
    events: list[str] = field(default_factory=list)

    @property
    def n_evaluations(self) -> int:
        return len(self.evaluations)


def feasible(e: Evaluation, threshold: float) -> bool:
    """g >= threshold and a finite f: a NaN g never is, and neither is an
    evaluation whose f is NaN or infinite, whatever its g."""
    return e.g >= threshold and math.isfinite(e.f)


def running_best(evaluations, threshold: float) -> list[Optional[int]]:
    """Index of the best feasible evaluation after each evaluation in order.

    A later feasible evaluation takes over only with a strictly smaller f, so
    ties go to the earliest. Entries are None until the first feasible
    evaluation.
    """
    best: list[Optional[int]] = []
    current = None
    for i, e in enumerate(evaluations):
        if feasible(e, threshold) and (current is None or e.f < evaluations[current].f):
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
    started: float,
    complete: bool,
    events: list[str],
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
        threshold=threshold,
        wall_time=time.perf_counter() - started,
        complete=complete,
        events=events,
    )
