"""Elitist constrained GA baseline: tournament selection under
constraint domination, simulated-binary crossover, polynomial mutation.

Single-objective specialization: with one objective there are no fronts to
spread, so crowding distance is replaced by plain objective ordering within
the feasibility classes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from curebo.records import PHASE_INIT, PHASE_LEARN, Evaluation, RunReport, build_report
from curebo.space import DesignSpace, lhs_sample


@dataclass(frozen=True)
class GaConfig:
    pop_size: int = 100
    generations: int = 10
    crossover_prob: float = 0.9
    crossover_eta: float = 15.0
    mutation_prob: Optional[float] = None  # default 1/d
    mutation_eta: float = 20.0
    tournament_size: int = 2
    threshold: float = 0.995
    seed: int = 0

    def __post_init__(self):
        problems = []
        if self.pop_size < 2 or self.pop_size % 2 != 0:
            problems.append("pop_size must be an even count of at least 2")
        if self.generations < 1:
            problems.append("generations must be at least 1")
        for name in ("crossover_prob", "mutation_prob"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                problems.append(f"{name} must lie in [0, 1]")
        if self.tournament_size < 1:
            problems.append("tournament_size must be at least 1")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class Individual:
    x: np.ndarray
    f: float
    g: float
    violation: float  # see constraint_violation; zero iff feasible

    @property
    def feasible(self) -> bool:
        return self.violation == 0.0


def constraint_violation(g: float, threshold: float) -> float:
    """max(0, threshold - g); infinite for a NaN g, which has no constraint value."""
    return math.inf if math.isnan(g) else max(0.0, threshold - g)


def constraint_dominates(a: Individual, b: Individual) -> bool:
    """Feasible beats infeasible; else smaller violation; else smaller f."""
    if a.feasible and not b.feasible:
        return True
    if not a.feasible and not b.feasible:
        return a.violation < b.violation
    if a.feasible and b.feasible:
        return a.f < b.f
    return False


def _rank_key(ind: Individual):
    return (1, ind.violation) if not ind.feasible else (0, ind.f)


def sbx_pair(x1: np.ndarray, x2: np.ndarray, eta: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover of two gene vectors, clamped to [0, 1]."""
    u = rng.random(x1.size)
    beta = np.where(u <= 0.5, (2.0 * u) ** (1.0 / (eta + 1.0)), (0.5 / (1.0 - u)) ** (1.0 / (eta + 1.0)))
    c1 = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2)
    c2 = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2)
    return np.clip(c1, 0.0, 1.0), np.clip(c2, 0.0, 1.0)


def polynomial_mutation(x: np.ndarray, eta: float, prob: float, rng) -> np.ndarray:
    """Per-gene polynomial mutation on the unit box, clamped to [0, 1]."""
    u = rng.random(x.size)
    apply = rng.random(x.size) < prob
    delta = np.where(
        u < 0.5,
        (2.0 * u) ** (1.0 / (eta + 1.0)) - 1.0,
        1.0 - (2.0 * (1.0 - u)) ** (1.0 / (eta + 1.0)),
    )
    return np.clip(np.where(apply, x + delta, x), 0.0, 1.0)


def _tournament(population: list[Individual], rng, size: int) -> Individual:
    picks = rng.integers(0, len(population), size=size)
    winner = population[picks[0]]
    for idx in picks[1:]:
        challenger = population[idx]
        if constraint_dominates(challenger, winner):
            winner = challenger
    return winner


def run_ga(problem, space: DesignSpace, config: GaConfig) -> RunReport:
    """Generational (mu + lambda) GA; logs every true evaluation.

    Generation 0 is a Latin hypercube of pop_size; each later generation
    breeds pop_size offspring and truncates the combined population under
    the constraint-domination ordering. The best-feasible trace has one
    entry per raw evaluation.
    """
    t0 = time.perf_counter()
    root = np.random.SeedSequence(config.seed)
    init_ss, evo_ss = root.spawn(2)
    rng = np.random.default_rng(evo_ss)
    d = space.dims
    p_mut = config.mutation_prob if config.mutation_prob is not None else 1.0 / d

    evaluations: list[Evaluation] = []
    events: list[str] = []

    def record(x: np.ndarray, generation: int, phase: str) -> Optional[Individual]:
        try:
            f, g = problem(x)
        except Exception as exc:  # noqa: BLE001 - report partial run
            events.append(f"evaluation failed in generation {generation}: {exc}")
            return None
        f, g = float(f), float(g)
        evaluations.append(Evaluation(x=x, f=f, g=g, step_index=generation, phase=phase))
        return Individual(x=x, f=f, g=g, violation=constraint_violation(g, config.threshold))

    def finish(complete: bool) -> RunReport:
        return build_report(
            evaluations, config.threshold, trace_from=0, n_init=config.pop_size,
            n_steps=config.pop_size * config.generations, started=t0, complete=complete,
            events=events, acq_trace=[],
        )

    population: list[Individual] = []
    for x in lhs_sample(space, config.pop_size, init_ss):
        ind = record(x, 0, PHASE_INIT)
        if ind is None:
            return finish(complete=False)
        population.append(ind)

    for generation in range(1, config.generations + 1):
        offspring_genes: list[np.ndarray] = []
        while len(offspring_genes) < config.pop_size:
            p1 = _tournament(population, rng, config.tournament_size)
            p2 = _tournament(population, rng, config.tournament_size)
            if rng.random() < config.crossover_prob:
                c1, c2 = sbx_pair(p1.x, p2.x, config.crossover_eta, rng)
            else:
                c1, c2 = p1.x.copy(), p2.x.copy()
            c1 = polynomial_mutation(c1, config.mutation_eta, p_mut, rng)
            c2 = polynomial_mutation(c2, config.mutation_eta, p_mut, rng)
            offspring_genes.extend([c1, c2])
        offspring: list[Individual] = []
        for x in offspring_genes[: config.pop_size]:
            ind = record(x, generation, PHASE_LEARN)
            if ind is None:
                return finish(complete=False)
            offspring.append(ind)
        combined = population + offspring
        combined.sort(key=_rank_key)  # stable: earlier individuals win ties
        population = combined[: config.pop_size]

    return finish(complete=True)
