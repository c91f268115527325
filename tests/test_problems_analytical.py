import numpy as np
import pytest

from curebo.problems import (
    DOC_COEFFS,
    U_COEFFS,
    analytical_problem,
)
from curebo.study import grid_oracle

PROBLEM = analytical_problem()


def test_origin_keeps_only_constant_terms():
    u, doc = PROBLEM.raw_fn([0.0, 0.0])
    assert u == pytest.approx(1.8646, abs=0.0)
    assert doc == pytest.approx(0.9902, abs=0.0)
    assert doc < 0.995  # the origin is infeasible


def test_far_corner_sums_all_coefficients():
    u, doc = PROBLEM.raw_fn([1.0, 1.0])
    # at (1, 1) every monomial equals 1, so the value is the coefficient sum
    assert u == pytest.approx(sum(U_COEFFS), rel=1e-14)
    assert doc == pytest.approx(sum(DOC_COEFFS), rel=1e-14)
    assert u == pytest.approx(2.0078, abs=1e-12)
    assert doc == pytest.approx(0.9933, abs=1e-12)


def test_out_of_box_rejected():
    with pytest.raises(ValueError):
        PROBLEM.raw_fn([1.2, 0.5])
    with pytest.raises(ValueError):
        PROBLEM.raw_fn([0.5, -0.1])


def test_naive_vs_horner_evaluation():
    def horner_u(t, T):
        c0, c1, c2, c3, c4, c5 = U_COEFFS
        return t * (c0 * t + c1 * T + c2) + T * (c3 * T + c4) + c5

    rng = np.random.default_rng(17)
    pts = rng.random((1000, 2))
    for t, T in pts:
        u, _ = PROBLEM.raw_fn([t, T])
        assert u == pytest.approx(horner_u(t, T), rel=1e-15, abs=1e-15)


def test_grid_oracle_fast_path_matches_plain_loop():
    result = grid_oracle(PROBLEM, 201)

    best_f, best_x = np.inf, None
    axis = np.linspace(0.0, 1.0, 201)
    for t in axis:
        for T in axis:
            u, doc = PROBLEM.raw_fn([t, T])
            if doc >= 0.995 and u < best_f:
                best_f, best_x = u, (t, T)
    assert result.f_min == pytest.approx(best_f, rel=0.0, abs=0.0)
    assert np.allclose(result.x_raw, best_x)


def test_feasible_grid_minimum_near_converged_value():
    result = grid_oracle(PROBLEM, 801)
    assert result.f_min == pytest.approx(1.8570, abs=5e-4)
    # the argmin sits on the t = 0 edge where the cure constraint binds
    assert result.x_raw[0] == 0.0
    assert 0.15 < result.x_raw[1] < 0.25
    assert result.g_at_min >= 0.995


def test_problem_wrapper_passes_through():
    problem = analytical_problem()
    f, g = problem(np.array([0.0, 0.0]))
    assert (f, g) == (pytest.approx(1.8646), pytest.approx(0.9902))
    assert problem.threshold == 0.995
