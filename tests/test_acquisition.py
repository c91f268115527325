import numpy as np
import pytest

from curebo.acquisition import ei_values, pf_values


def ei(mean, variance, y_min):
    return float(ei_values(np.array([mean]), np.array([variance]), y_min)[0])


def pf(mean, variance, c):
    return float(pf_values(np.array([mean]), np.array([variance]), c)[0])


def mc_expected_improvement(mean, sd, y_min, rng, draws=10 ** 6):
    """Monte-Carlo oracle for E[max(0, y_min - Y)] with Y ~ N(mean, sd^2)."""
    samples = np.maximum(0.0, y_min - rng.normal(mean, sd, size=draws))
    return samples.mean(), samples.std(ddof=1) / np.sqrt(draws)


def test_ei_at_incumbent_mean_is_half_sd_density():
    # z = 0: first term vanishes, EI = s * phi(0)
    expected = 0.5 / np.sqrt(2.0 * np.pi)
    assert ei(2.0, 0.25, 2.0) == pytest.approx(expected, rel=1e-12)
    assert ei(2.0, 0.25, 2.0) == pytest.approx(0.199471, abs=1e-6)


def test_ei_degenerate_variance():
    assert ei(1.0, 0.0, 3.0) == pytest.approx(2.0)
    assert ei(5.0, 0.0, 3.0) == 0.0


def test_ei_closed_form_matches_monte_carlo_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(8):
        mean = rng.uniform(-2.0, 2.0)
        sd = rng.uniform(0.05, 2.0)
        y_min = rng.uniform(-2.0, 2.0)
        mc, se = mc_expected_improvement(mean, sd, y_min, rng)
        closed = ei(mean, sd ** 2, y_min)
        if se == 0.0:  # no improvement mass at Monte-Carlo resolution
            assert mc == 0.0 and closed <= 1e-5
            continue
        assert abs(closed - mc) <= 3.0 * se + 1e-12


def test_ei_nonnegative_and_nondecreasing_in_sd():
    y_min = 0.0
    for mean in np.linspace(-1.5, 1.5, 7):
        previous = -1.0
        for sd in np.linspace(0.01, 2.0, 40):
            value = ei(mean, sd ** 2, y_min)
            assert value >= 0.0
            assert value >= previous - 1e-12
            previous = value


def test_pf_examples():
    assert pf(0.5, 0.04, 0.5) == pytest.approx(0.5, rel=1e-12)
    s = 0.2
    assert pf(0.5 + 1.6449 * s, s ** 2, 0.5) == pytest.approx(0.95, abs=1e-4)
    assert pf(0.9, 0.0, 0.5) == 1.0
    assert pf(0.2, 0.0, 0.5) == 0.0


def test_pf_monotone_in_mean_and_bounded():
    values = [pf(m, 0.01, 0.5) for m in np.linspace(0.0, 1.0, 21)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_constrained_ei_product_form():
    # the EI x PF product run_cbo scores with, at PF = 1, 0 and 1/2
    improvement = ei(1.0, 0.04, 1.2)
    assert improvement * pf(0.99, 0.0, 0.5) == pytest.approx(improvement, rel=1e-12)
    assert improvement * pf(0.2, 0.0, 0.5) == 0.0
    # EI = 0.2 and PF = 0.5 multiply to 0.1
    assert ei(1.0, 0.0, 1.2) * pf(0.5, 0.01, 0.5) == pytest.approx(0.1, rel=1e-9)


def test_constrained_ei_never_exceeds_ei():
    rng = np.random.default_rng(6)
    for _ in range(50):
        mean_f, var_f = rng.normal(), rng.uniform(0.0, 1.0)
        mean_g, var_g = rng.normal(0.5, 0.5), rng.uniform(0.0, 0.2)
        y_min = rng.normal()
        eic = ei(mean_f, var_f, y_min) * pf(mean_g, var_g, 0.5)
        assert eic <= ei(mean_f, var_f, y_min) + 1e-12
        assert eic >= 0.0
