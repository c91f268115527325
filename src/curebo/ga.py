"""Elitist constrained GA baseline: binary tournament selection under
Deb's feasibility rule, simulated-binary crossover, polynomial mutation.

Single-objective specialization: with one objective there are no fronts to
spread, so crowding distance is replaced by plain objective ordering within
the feasibility classes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from curebo.records import Evaluation, RunReport, build_report, evaluate
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


def _rank_key(e: Evaluation, threshold: float):
    """Deb's feasibility rule as a sort key, smaller first: feasible
    (g >= threshold, the test of records.running_best) before infeasible,
    then smaller f among the feasible and smaller violation threshold - g
    among the infeasible. A NaN g, which has no constraint value, counts as
    infinitely violating."""
    if e.g >= threshold:
        return (0, e.f)
    return (1, math.inf if math.isnan(e.g) else threshold - e.g)


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


def _tournament(population: list[Evaluation], rng, threshold: float) -> Evaluation:
    """Binary tournament: the better of two draws with replacement under
    _rank_key; the first drawn wins ties."""
    i, j = rng.integers(0, len(population), size=2)
    first, second = population[i], population[j]
    return second if _rank_key(second, threshold) < _rank_key(first, threshold) else first


def run_ga(problem, space: DesignSpace, config: GaConfig) -> RunReport:
    """Generational (mu + lambda) GA; logs every true evaluation.

    Generation 0 is a Latin hypercube of pop_size; each later generation
    breeds pop_size offspring and truncates the combined population under
    Deb's feasibility rule (_rank_key). Every evaluation's step_index is its
    generation. The best-feasible trace has one entry per raw evaluation.
    """
    t0 = time.perf_counter()
    root = np.random.SeedSequence(config.seed)
    init_ss, evo_ss = root.spawn(2)
    rng = np.random.default_rng(evo_ss)
    p_mut = 1.0 / space.dims

    threshold = config.threshold
    evaluations: list[Evaluation] = []
    events: list[str] = []

    def finish(complete: bool) -> RunReport:
        return build_report(
            evaluations, threshold, trace_from=0, started=t0, complete=complete, events=events
        )

    for x in lhs_sample(space, config.pop_size, init_ss):
        if evaluate(problem, x, 0, None, evaluations, events) is None:
            return finish(complete=False)
    population = list(evaluations)

    for generation in range(1, config.generations + 1):
        offspring_genes: list[np.ndarray] = []
        while len(offspring_genes) < config.pop_size:
            p1 = _tournament(population, rng, threshold)
            p2 = _tournament(population, rng, threshold)
            if rng.random() < CROSSOVER_PROB:
                c1, c2 = sbx_pair(p1.x, p2.x, CROSSOVER_ETA, rng)
            else:
                c1, c2 = p1.x.copy(), p2.x.copy()
            c1 = polynomial_mutation(c1, MUTATION_ETA, p_mut, rng)
            c2 = polynomial_mutation(c2, MUTATION_ETA, p_mut, rng)
            offspring_genes.extend([c1, c2])
        for x in offspring_genes[: config.pop_size]:
            if evaluate(problem, x, generation, None, evaluations, events) is None:
                return finish(complete=False)
        combined = population + evaluations[-config.pop_size :]
        combined.sort(key=lambda e: _rank_key(e, threshold))  # stable: earlier ones win ties
        population = combined[: config.pop_size]

    return finish(complete=True)
