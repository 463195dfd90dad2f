"""Cost model, allocation optimum, and their invariants."""

import numpy as np
import pytest

from dtalloc import (allocation_problem, global_cost, kkt_solve,
                     quadratic_costs)
from naive_reference import naive_kkt_projected_gradient

# coefficient table used by most instance-level tests
A10 = [0.0314, 0.0342, 0.0392, 0.0379, 0.0366, 0.0304, 0.0385, 0.0393, 0.0368, 0.0396]
B10 = [0.352, 0.349, 0.278, 0.331, 0.234, 0.341, 0.206, 0.255, 0.209, 0.219]
D10 = [4.646, 2.255, 3.602, 4.251, 1.418, 3.039, 2.82, 1.489, 2.444, 3.386]


def test_gradient_hand_value():
    # agent 1 of the table at x = 1: 2 * 0.0314 * 1 + 0.352
    costs = quadratic_costs(A10, B10)
    g = costs.gradient(np.ones((10, 1)))
    assert g[0, 0] == pytest.approx(0.4148, abs=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n, u = rng.integers(2, 6), rng.integers(1, 4)
        costs = quadratic_costs(rng.uniform(0.1, 2.0, n), rng.normal(size=(n, u)))
        x = rng.normal(size=(n, u))
        g = costs.gradient(x)
        h = 1e-6
        for i in range(n):
            for r in range(u):
                xp, xm = x.copy(), x.copy()
                xp[i, r] += h
                xm[i, r] -= h
                fd = (costs.evaluate(xp) - costs.evaluate(xm)) / (2 * h)
                assert g[i, r] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_gradient_broadcasts_over_batches():
    costs = quadratic_costs([0.5, 1.5], [[0.1], [0.2]])
    batch = np.random.default_rng(0).normal(size=(7, 2, 1))
    g = costs.gradient(batch)
    assert g.shape == (7, 2, 1)
    for k in range(7):
        assert np.allclose(g[k], costs.gradient(batch[k]))


def test_curvature_bounds_are_2a():
    costs = quadratic_costs(A10, B10)
    assert np.allclose(costs.eta, 2 * np.asarray(A10))
    assert np.allclose(costs.phi, 2 * np.asarray(A10))
    assert costs.eta_lo == pytest.approx(2 * 0.0304)
    assert costs.phi_hi == pytest.approx(2 * 0.0396)


def test_factory_validation():
    with pytest.raises(ValueError):
        quadratic_costs([1.0, -0.5], [0.0, 0.0])
    with pytest.raises(ValueError):
        quadratic_costs([1.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        quadratic_costs([1.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        quadratic_costs([1.0, 1.0], [np.inf, 0.0])
    with pytest.raises(ValueError, match="finite"):
        quadratic_costs([1.0, 1.0], [0.0, 0.0], c=[np.nan, 0.0])
    with pytest.raises(ValueError):
        allocation_problem(quadratic_costs([1.0, 1.0], [0.0, 0.0]), [1.0, np.inf])
    with pytest.raises(ValueError):
        allocation_problem(quadratic_costs([1.0, 1.0], [0.0, 0.0]), [1.0, 2.0, 3.0])


def test_kkt_frozen_instance():
    prob = allocation_problem(quadratic_costs(A10, B10), D10)
    kkt = kkt_solve(prob)
    assert float(kkt.mu_star[0]) == pytest.approx(0.4930588949337241, abs=1e-15)
    expect = [2.2461607473522953, 2.1061241949374874, 2.7430981496648483,
              2.137980144244381, 3.539055941717543, 2.5009686666730935,
              3.7280375965418724, 3.0287391212942, 3.859495855077774,
              3.4603395824965166]
    assert np.allclose(kkt.x_star.ravel(), expect, rtol=0, atol=1e-14)


def test_kkt_feasible_and_equalized_on_random_specs():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        costs = quadratic_costs(rng.uniform(0.05, 3.0, n), rng.normal(size=n))
        prob = allocation_problem(costs, rng.uniform(-2, 5, n))
        kkt = kkt_solve(prob)
        # allocations meet total demand exactly
        assert np.allclose(kkt.x_star.sum(axis=0), prob.total_demand,
                           rtol=0, atol=1e-9)
        # marginal costs equalize at mu*
        g = costs.gradient(kkt.x_star)
        assert np.abs(g - kkt.mu_star[None, :]).max() < 1e-9


def test_kkt_multi_resource():
    rng = np.random.default_rng(5)
    n, u = 6, 3
    costs = quadratic_costs(rng.uniform(0.2, 2.0, n), rng.normal(size=(n, u)))
    prob = allocation_problem(costs, rng.uniform(0, 4, size=(n, u)))
    kkt = kkt_solve(prob)
    assert kkt.x_star.shape == (n, u) and kkt.mu_star.shape == (u,)
    assert np.allclose(kkt.x_star.sum(axis=0), prob.total_demand)
    g = costs.gradient(kkt.x_star)
    assert np.abs(g - kkt.mu_star[None, :]).max() < 1e-9


def test_kkt_against_projected_gradient():
    rng = np.random.default_rng(17)
    for _ in range(3):
        n = int(rng.integers(3, 6))
        a = rng.uniform(0.2, 1.5, n)
        b = rng.normal(size=(n, 1))
        d = rng.uniform(0, 3, size=(n, 1))
        prob = allocation_problem(quadratic_costs(a, b), d)
        x_pg = naive_kkt_projected_gradient(a, b, d, steps=100000)
        assert np.abs(kkt_solve(prob).x_star - x_pg).max() < 1e-8


def test_kkt_optimality_against_feasible_perturbations():
    # any feasible perturbation of x* costs more
    rng = np.random.default_rng(23)
    prob = allocation_problem(quadratic_costs(A10, B10), D10)
    xs = kkt_solve(prob).x_star
    base = global_cost(prob, xs)
    for _ in range(50):
        delta = rng.normal(size=(10, 1))
        delta -= delta.mean(axis=0, keepdims=True)  # stay on the hyperplane
        assert global_cost(prob, xs + 0.1 * delta) >= base - 1e-12


def test_global_cost_value():
    costs = quadratic_costs([1.0, 2.0], [1.0, -1.0], c=[0.5, 0.0])
    prob = allocation_problem(costs, [1.0, 1.0])
    x = np.array([[1.0], [2.0]])
    # 1*1 + 1*1 + 0.5  +  2*4 - 1*2 + 0
    assert global_cost(prob, x) == pytest.approx(8.5)
