"""Evaluation records, the feasibility rule, and the run report that each
cBO and GA run executes in and evaluates through."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

PHASE_INIT = "init"
PHASE_LEARN = "learn"


class Evaluation(NamedTuple):
    """One true black-box evaluation: normalized input x, objective f,
    constraint g and the step that made it (0 for initialization, else the
    cBO learn step or GA generation). acq is the acquisition value that
    chose a cBO learn point, None for every other evaluation.

    An immutable named tuple: a run logs one per evaluation, and a tuple
    built positionally costs a fraction of a frozen dataclass."""

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


def feasible(e: Evaluation, threshold: float) -> bool:
    """g >= threshold and a finite f: a NaN g never is, and neither is an
    evaluation whose f is NaN or infinite, whatever its g."""
    return e.g >= threshold and math.isfinite(e.f)


@dataclass
class RunReport:
    """The log one run writes into, with log(e) the only way in.

    log applies the incumbent rule as it goes: a feasible evaluation becomes
    the incumbent only with an f strictly below the incumbent's, so ties go
    to the earliest. best_feasible holds the incumbent's f after every
    evaluation (None until the first feasible one); it is the best_feasible
    column of the replication CSV and all that a study's summary reads.
    events holds one "non-finite result at step k" line for each evaluation
    whose f or g is NaN or infinite, then, for a run that stopped early, the
    RunStopped message that says why. A run executes in `with report:`: a
    body that returns has spent its whole budget and sets complete, a
    RunStopped ends the run as its last event, and other exceptions pass."""

    threshold: float
    complete: bool = field(init=False, default=False)
    events: list[str] = field(init=False, default_factory=list)
    evaluations: list[Evaluation] = field(init=False, default_factory=list)
    best_feasible: list[Optional[float]] = field(init=False, default_factory=list, repr=False)
    incumbent: Optional[Evaluation] = field(init=False, default=None, repr=False)

    def log(self, e: Evaluation) -> None:
        """Append e to the log and to best_feasible under the incumbent rule."""
        if not (math.isfinite(e.f) and math.isfinite(e.g)):
            self.events.append(f"non-finite result at step {e.step_index}: f={e.f!r}, g={e.g!r}")
        if feasible(e, self.threshold) and (self.incumbent is None or e.f < self.incumbent.f):
            self.incumbent = e
        self.evaluations.append(e)
        self.best_feasible.append(None if self.incumbent is None else self.incumbent.f)

    def evaluate(self, problem, x, step_index: int, acq: Optional[float] = None) -> Evaluation:
        """Evaluate problem at x, log the Evaluation and return it.

        When the problem raises, or returns an f or g that float() cannot
        convert, raises RunStopped("evaluation failed at step k: ...") and
        logs nothing.
        """
        try:
            f, g = problem(x)
            e = Evaluation(x, float(f), float(g), step_index, acq)
        except Exception as exc:  # noqa: BLE001 - a failed evaluation ends the run, not the study
            raise RunStopped(f"evaluation failed at step {step_index}: {exc}") from exc
        self.log(e)
        return e

    def __enter__(self) -> RunReport:
        return self

    def __exit__(self, kind, stop, traceback) -> bool:
        if kind is None:
            self.complete = True
        elif issubclass(kind, RunStopped):
            self.events.append(str(stop))
            return True
        return False
