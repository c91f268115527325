"""Elitist constrained GA baseline: binary tournament selection under
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

# Fixed operators: SBX applied to a pair with probability CROSSOVER_PROB,
# polynomial mutation applied to each gene with probability 1/d.
CROSSOVER_PROB = 0.9
CROSSOVER_ETA = 15.0
MUTATION_ETA = 20.0


@dataclass(frozen=True)
class GaConfig:
    pop_size: int = 100
    generations: int = 10
    threshold: float = 0.995
    seed: int = 0

    def __post_init__(self):
        problems = []
        if self.pop_size < 2 or self.pop_size % 2 != 0:
            problems.append("pop_size must be an even count of at least 2")
        if self.generations < 1:
            problems.append("generations must be at least 1")
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


def _rank_key(ind: Individual):
    """Constraint-domination order, smaller first: feasible before
    infeasible, then smaller f among the feasible and smaller violation
    among the infeasible."""
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


def _tournament(population: list[Individual], rng) -> Individual:
    """Binary tournament: the better of two draws with replacement under
    _rank_key; the first drawn wins ties."""
    i, j = rng.integers(0, len(population), size=2)
    first, second = population[i], population[j]
    return second if _rank_key(second) < _rank_key(first) else first


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
    p_mut = 1.0 / space.dims

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
            p1 = _tournament(population, rng)
            p2 = _tournament(population, rng)
            if rng.random() < CROSSOVER_PROB:
                c1, c2 = sbx_pair(p1.x, p2.x, CROSSOVER_ETA, rng)
            else:
                c1, c2 = p1.x.copy(), p2.x.copy()
            c1 = polynomial_mutation(c1, MUTATION_ETA, p_mut, rng)
            c2 = polynomial_mutation(c2, MUTATION_ETA, p_mut, rng)
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
