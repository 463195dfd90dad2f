"""Residual definitions, replica aggregation, and rate estimation."""

import numpy as np
import pytest

from dtalloc import (TRACE_COLUMNS, aggregate, allocation_problem, empirical_rate,
                     kkt_solve, loglinear_r2, non_convergent, quadratic_costs,
                     residuals)
from dtalloc.metrics import residuals_for


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


def _plain_residuals(x, y, prob, kkt):
    """The residuals as plain numpy expressions, and 1'x - 1'd: the oracle
    for the bits of both residual paths."""
    dx = x - kkt.x_star
    fe = x.sum(axis=-2) - prob.total_demand
    g = prob.costs.gradient(x)
    gd = g - g.mean(axis=-2, keepdims=True)
    track = (np.zeros(x.shape[:-2]) if y is None
             else np.sqrt((y * y).sum(axis=(-2, -1))))
    return {
        "optimality_distance": np.sqrt((dx * dx).sum(axis=(-2, -1))),
        "feasibility_gap": np.sqrt((fe * fe).sum(axis=-1)),
        "tracking_norm": track,
        "gradient_dispersion": np.sqrt((gd * gd).sum(axis=(-2, -1))),
    }, fe


@pytest.mark.parametrize("tracker", [False, True])
@pytest.mark.parametrize("u", [1, 3])
@pytest.mark.parametrize("n", [1, 10, 130])
def test_fixed_shape_residuals_give_the_bits_of_residuals(n, u, tracker):
    # the engine's path: one `residuals_for` a (B, G, R, n, u) block, given
    # the gradient its step computed, on a whole block and then on a
    # block's first rows, written into the (4, B, G, R) view of a
    # replica-outermost (R, 4, B, G) block, whose first rows are strided.
    # Values over eleven decades make the summation order show in the last
    # bits; n = 130 passes numpy's 128-value pairwise-sum block
    rng = np.random.default_rng(100 * n + u)
    costs = quadratic_costs(rng.uniform(0.5, 2.0, n), rng.uniform(-1.0, 1.0, (n, u)))
    prob = allocation_problem(costs, rng.uniform(-2.0, 2.0, (n, u)))
    kkt = kkt_solve(prob)
    shape = (5, 2, 3, n, u)
    x = kkt.x_star + rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 3, shape)
    y = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 3, shape) if tracker else None
    fixed = residuals_for(shape, prob, kkt)
    for rows in (5, 2):
        block = np.full((3, len(TRACE_COLUMNS), 5, 2), np.nan)
        out = block.transpose(1, 2, 3, 0)[:, :rows]
        xs, ys = x[:rows], None if y is None else y[:rows]
        fe = fixed(xs, ys, costs.gradient(xs), out)
        got = dict(zip(TRACE_COLUMNS, out))
        ref, g = residuals(xs, ys, prob, kkt)
        plain, plain_fe = _plain_residuals(xs, ys, prob, kkt)
        assert np.isnan(block[:, :, rows:]).all()
        assert g.tobytes() == costs.gradient(xs).tobytes()
        assert fe.shape == (rows, 2, 3, u) and fe.tobytes() == plain_fe.tobytes()
        assert set(got) == set(ref) == set(plain)
        for name in plain:
            assert got[name].shape == ref[name].shape == (rows, 2, 3), name
            assert got[name].tobytes() == ref[name].tobytes(), (rows, name)
            assert ref[name].tobytes() == plain[name].tobytes(), (rows, name)


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


def test_empirical_rate_defaults_to_the_last_row():
    r = 2.0 * 0.99 ** np.arange(2001)
    assert empirical_rate(r) == empirical_rate(r, k_end=2000)
    assert empirical_rate(r).k_end == 2000


def test_empirical_rate_window_defaults_to_at_most_k_end():
    # the window defaults to min(1000, k_end): a trace of 1000 rows or fewer
    # is read over all of it, a longer one over its last 1000 steps
    est = empirical_rate(0.9 ** np.arange(101))
    assert est.q == pytest.approx(0.9, abs=1e-12)
    assert (est.k_end, est.window) == (100, 100) and not est.shrunk
    r = 2.0 * 0.99 ** np.arange(2001)
    assert empirical_rate(r) == empirical_rate(r, k_end=2000, window=1000)
    assert empirical_rate(r, k_end=600) == empirical_rate(r, k_end=600, window=600)
    # a one-row trace has no step to read: the error names k_end, not the window
    for k_end in (None, 0, -5):
        with pytest.raises(ValueError, match=r"k_end=-?\d+ outside \[1, 0\]"):
            empirical_rate(np.ones(1), k_end=k_end)


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
