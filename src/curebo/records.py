"""Shared evaluation records and run reports for the cBO and GA drivers."""

from __future__ import annotations

import math
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


class RunStopped(Exception):
    """Ends a run early; its message is the event that says why."""


def evaluate(problem, x, step_index: int, acq: Optional[float], evaluations: list, events: list):
    """Evaluate problem at x and append the Evaluation to evaluations.

    When the problem raises, or returns an f or g that float() cannot
    convert, raises RunStopped("evaluation failed at step k: ...") instead.
    An f or g that is NaN or infinite is kept, and one "non-finite result at
    step k" event says so.
    """
    try:
        f, g = problem(x)
        e = Evaluation(x=x, f=float(f), g=float(g), step_index=step_index, acq=acq)
    except Exception as exc:  # noqa: BLE001 - a failed evaluation ends the run, not the study
        raise RunStopped(f"evaluation failed at step {step_index}: {exc}") from exc
    if not (math.isfinite(e.f) and math.isfinite(e.g)):
        events.append(f"non-finite result at step {step_index}: f={e.f!r}, g={e.g!r}")
    evaluations.append(e)


@dataclass
class RunReport:
    """What one run produced. best is running_best(evaluations, threshold),
    and best_feasible the f of each of its entries (None until the first
    feasible evaluation), both computed once when the report is made.
    best_feasible has one entry per evaluation: it is the best_feasible
    column of the replication CSV and all that a study's summary reads."""

    evaluations: list[Evaluation]
    threshold: float
    complete: bool = True
    events: list[str] = field(default_factory=list)
    best: list[Optional[int]] = field(init=False, repr=False)
    best_feasible: list[Optional[float]] = field(init=False, repr=False)

    def __post_init__(self):
        self.best = running_best(self.evaluations, self.threshold)
        self.best_feasible = [None if i is None else self.evaluations[i].f for i in self.best]

    @property
    def n_evaluations(self) -> int:
        return len(self.evaluations)

    @property
    def incumbent(self) -> Optional[Evaluation]:
        """The best feasible evaluation; None when none is feasible."""
        return self.evaluations[self.best[-1]] if self.best and self.best[-1] is not None else None


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
