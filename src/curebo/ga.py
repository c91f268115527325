"""Elitist constrained GA baseline: binary tournament selection under
Deb's feasibility rule, simulated-binary crossover, polynomial mutation.

Single-objective specialization: with one objective there are no fronts to
spread, so crowding distance is replaced by plain objective ordering within
the feasibility classes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from curebo.problems.blackbox import Problem
from curebo.records import Evaluation, RunReport, feasible
from curebo.space import lhs_sample

# Fixed operators: SBX applied to a pair with probability CROSSOVER_PROB,
# polynomial mutation applied to each gene with probability 1/d.
CROSSOVER_PROB = 0.9
CROSSOVER_ETA = 15.0
MUTATION_ETA = 20.0


@dataclass(frozen=True)
class GaConfig:
    """Budget of one GA run: a population of pop_size bred for generations."""

    pop_size: int = 100
    generations: int = 10

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
    (records.feasible) before infeasible, then smaller f among the feasible
    and smaller violation threshold - g among the infeasible. An infeasible
    point without a positive violation, a NaN g or a non-finite f with
    g >= threshold, counts as infinitely violating."""
    if feasible(e, threshold):
        return (0, e.f)
    violation = threshold - e.g
    return (1, violation if violation > 0.0 else math.inf)


def _pow(base: np.ndarray, exponent: float) -> np.ndarray:
    """base ** exponent elementwise through libm's pow. numpy's ** picks a
    SIMD kernel by CPU (its AVX512 one rounds differently), which would make
    the genes depend on the host; a generation takes only a few hundred."""
    powers = map(math.pow, base.ravel().tolist(), itertools.repeat(exponent))
    return np.fromiter(powers, float, base.size).reshape(base.shape)


def sbx_pair(
    x1: np.ndarray, x2: np.ndarray, u: np.ndarray, eta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover of gene rows x1 and x2 under uniforms u of
    the same shape, clamped to [0, 1]."""
    beta = _pow(np.where(u <= 0.5, 2.0 * u, 0.5 / (1.0 - u)), 1.0 / (eta + 1.0))
    c1 = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2)
    c2 = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2)
    return np.clip(c1, 0.0, 1.0), np.clip(c2, 0.0, 1.0)


def polynomial_mutation(x: np.ndarray, u: np.ndarray, apply: np.ndarray, eta: float) -> np.ndarray:
    """Polynomial mutation of the genes of x where apply is true, under
    uniforms u of the same shape, clamped to [0, 1]."""
    low = u < 0.5
    power = _pow(np.where(low, 2.0 * u, 2.0 * (1.0 - u)), 1.0 / (eta + 1.0))
    delta = np.where(low, power - 1.0, 1.0 - power)
    return np.clip(np.where(apply, x + delta, x), 0.0, 1.0)


def _tournament(population: list[Evaluation], rng, threshold: float) -> Evaluation:
    """Binary tournament: the better of two draws with replacement under
    _rank_key; the first drawn wins ties."""
    i, j = rng.integers(0, len(population), size=2)
    first, second = population[i], population[j]
    return second if _rank_key(second, threshold) < _rank_key(first, threshold) else first


def _breed(population: list[Evaluation], rng, threshold: float) -> np.ndarray:
    """One generation of len(population) children as rows c1, c2 of pair 1,
    then pair 2, and so on.

    The draws come pair by pair: two tournaments, the crossover coin, then
    one block of uniforms holding, in this order, SBX's u (only when the
    pair crosses) and the mutation u and apply draws of each child. The
    arithmetic then runs on all pairs at once. SBX runs on every pair: a
    pair that does not cross keeps u = 0.5, so beta is 1 and sbx_pair
    returns its parents' genes bit for bit.
    """
    n_pairs, d = len(population) // 2, population[0].x.size
    parents = np.empty((2, n_pairs, d))
    u_sbx = np.full((n_pairs, d), 0.5)
    u_mut = np.empty((2, n_pairs, 2, d))  # (child, pair, u | apply, gene)
    for k in range(n_pairs):
        parents[0, k] = _tournament(population, rng, threshold).x
        parents[1, k] = _tournament(population, rng, threshold).x
        crosses = rng.random() < CROSSOVER_PROB
        draws = rng.random((5 if crosses else 4) * d)
        if crosses:
            u_sbx[k], draws = draws[:d], draws[d:]
        u_mut[:, k] = draws.reshape(2, 2, d)
    genes = np.stack(sbx_pair(parents[0], parents[1], u_sbx, CROSSOVER_ETA))
    mutated = polynomial_mutation(genes, u_mut[:, :, 0], u_mut[:, :, 1] < 1.0 / d, MUTATION_ETA)
    return mutated.transpose(1, 0, 2).reshape(2 * n_pairs, d)


def run_ga(problem: Problem, config: GaConfig, seed: int) -> RunReport:
    """Generational (mu + lambda) GA over problem.space, seeded by seed;
    logs every true evaluation. The GA does not apply problem.sieve_raw.

    Generation 0 is a Latin hypercube of pop_size; each later generation
    breeds pop_size offspring and truncates the combined population under
    Deb's feasibility rule (_rank_key). Every evaluation's step_index is its
    generation. A failed evaluation stops the run (see RunReport).
    """
    root = np.random.SeedSequence(seed)
    init_ss, evo_ss = root.spawn(2)
    rng = np.random.default_rng(evo_ss)

    threshold = problem.threshold
    with RunReport(threshold) as report:
        initial = lhs_sample(problem.space, config.pop_size, init_ss)
        population = [report.evaluate(problem, x, 0) for x in initial]
        for generation in range(1, config.generations + 1):
            children = _breed(population, rng, threshold)
            offspring = [report.evaluate(problem, x, generation) for x in children]
            # stable: earlier ones win ties
            ranked = sorted(population + offspring, key=lambda e: _rank_key(e, threshold))
            population = ranked[: config.pop_size]
    return report
