"""Residual definitions, replica aggregation, and rate estimation."""

import numpy as np
import pytest

from dtalloc import (aggregate, allocation_problem, empirical_rate, kkt_solve,
                     loglinear_r2, non_convergent, quadratic_costs, residuals)


def _toy_problem():
    costs = quadratic_costs([0.5, 1.0, 1.5], [0.2, -0.1, 0.0])
    return allocation_problem(costs, [1.0, 2.0, 3.0])


def test_residuals_at_optimum_are_zero():
    prob = _toy_problem()
    kkt = kkt_solve(prob)
    r, _ = residuals(kkt.x_star, np.zeros((3, 1)), prob, kkt)
    assert r["optimality_distance"] < 1e-12
    assert r["feasibility_gap"] < 1e-12
    assert r["tracking_norm"] == 0.0
    assert r["gradient_dispersion"] < 1e-12


def test_residuals_hand_values():
    prob = _toy_problem()
    kkt = kkt_solve(prob)
    x = kkt.x_star + 1.0  # shift every entry by one
    r, _ = residuals(x, None, prob, kkt)
    assert r["optimality_distance"] == pytest.approx(np.sqrt(3.0))
    assert r["feasibility_gap"] == pytest.approx(3.0)
    assert r["tracking_norm"] == 0.0  # no tracker supplied
    # gradient shift is 2*a_i, dispersion is its deviation from the mean
    shift = 2.0 * np.array([0.5, 1.0, 1.5])
    assert r["gradient_dispersion"] == pytest.approx(
        np.linalg.norm(shift - shift.mean()))


def test_aggregate_mean_square():
    # replicas with residuals 3 and 4: sqrt((9 + 16) / 2)
    agg = aggregate(np.array([[3.0], [4.0]]))
    assert agg[0] == pytest.approx(np.sqrt(12.5))


def test_aggregate_permutation_invariant_and_passthrough():
    rng = np.random.default_rng(2)
    traces = rng.uniform(0.1, 2.0, size=(6, 50))
    agg = aggregate(traces)
    perm = rng.permutation(6)
    assert np.allclose(aggregate(traces[perm]), agg, rtol=0, atol=1e-15)
    single = traces[0]
    assert np.array_equal(aggregate(single), single)
    with pytest.raises(ValueError):
        aggregate(np.zeros((0, 5)))


def test_empirical_rate_recovers_geometric_decay():
    q_true = 0.9993
    r = 7.3 * q_true ** np.arange(25001)
    est = empirical_rate(r, k_end=25000, window=1000)
    assert est.q == pytest.approx(q_true, abs=1e-12)
    assert est.window == 1000 and not est.shrunk and not est.exact_convergence


def test_empirical_rate_windows():
    r = 2.0 * 0.99 ** np.arange(2001)
    assert empirical_rate(r, k_end=2000, window=500).q == pytest.approx(0.99, abs=1e-12)
    with pytest.raises(ValueError):
        empirical_rate(r, k_end=2001)  # past the end
    with pytest.raises(ValueError):
        empirical_rate(r, k_end=2000, window=0)


def test_empirical_rate_exact_zero_terminal():
    r = np.concatenate([0.5 ** np.arange(100), np.zeros(50)])
    est = empirical_rate(r, k_end=149, window=80)
    assert est.q == 0.0 and est.exact_convergence


def test_empirical_rate_interior_zero_shrinks_window():
    r = 0.9 ** np.arange(301)
    r[250] = 0.0  # isolated dropout inside the window
    est = empirical_rate(r, k_end=300, window=100)
    # zero sits at index 250; usable ratios run 251..300, i.e. 49 of them
    assert est.shrunk and est.window == 49
    assert est.q == pytest.approx(0.9, abs=1e-12)


def test_empirical_rate_nonzero_terminal_after_zero_is_not_exact():
    # the window's last zero sits just before k_end: no ratio is left to take
    est = empirical_rate([1.0, 0.5, 0.0, 0.25], k_end=3, window=2)
    assert np.isnan(est.q) and not est.exact_convergence
    assert est.window == 0 and est.shrunk


def test_empirical_rate_constant_trace():
    r = np.full(1001, 0.7)
    est = empirical_rate(r, k_end=1000, window=100)
    assert est.q == pytest.approx(1.0)


def test_loglinear_r2_geometric_is_one():
    r = 5.0 * 0.999 ** np.arange(30000)
    assert loglinear_r2(r) == pytest.approx(1.0, abs=1e-12)


def test_loglinear_r2_penalizes_plateau():
    # geometric start then a hard plateau: the tail is far from log-linear
    r = np.concatenate([0.99 ** np.arange(3000), np.full(3000, 0.99 ** 1500)])
    assert loglinear_r2(r) < 0.9


def test_loglinear_r2_stays_in_unit_interval_on_a_float_floor():
    # a residual that reached its float floor: the fitted tail holds two
    # adjacent floats, so ss_tot is at rounding level, and the fit's own
    # rounding read an R^2 of about -23 before the clamp
    floor = 1.4e-13
    r = np.concatenate([np.geomspace(1.0, floor, 5000), np.full(5001, floor)])
    r[-2500:] = np.nextafter(floor, 1.0)
    assert 0.0 <= loglinear_r2(r) <= 1.0


def test_non_convergent_flags_plateau():
    r = np.concatenate([0.999 ** np.arange(2000), np.full(20001, 0.5)])
    assert non_convergent(r, k_end=len(r) - 1)


def test_non_convergent_accepts_decay():
    r = 3.0 * 0.999 ** np.arange(25001)
    assert not non_convergent(r, k_end=25000)


def test_non_convergent_needs_both_conditions():
    # converged low, then flat at machine scale: not flagged (ratio tiny)
    r = np.concatenate([0.99 ** np.arange(3000), np.full(11000, 1e-12)])
    assert not non_convergent(r, k_end=len(r) - 1)
    # still high but clearly decreasing: not flagged either
    r2 = 1.0 * 0.99999 ** np.arange(12001)
    assert not non_convergent(r2, k_end=12000)
