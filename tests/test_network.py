"""Random mixing-matrix model: sampling, moments, spectra."""

import dataclasses

import numpy as np
import pytest

from dtalloc import (InfeasibleNetworkError, build_model, constants,
                     expected_square_matrix, expected_weight_matrix,
                     metropolis_weights, mixing_matrix, quadratic_costs,
                     spectral_report)
from dtalloc.config import from_dict, resolve, sweep_point
from dtalloc.network import complete_edges, ring_edges
from naive_reference import naive_weight_matrix
from network_oracles import (exact_expected_square,
                             monte_carlo_expected_square, sample_batch)


def _random_model(rng, n=None):
    n = n or int(rng.integers(3, 8))
    while True:
        mask = rng.random((n, n)) < 0.6
        adj = np.triu(mask, 1)
        edges = np.argwhere(adj)
        if len(edges) == 0:
            continue
        # connected?
        reach = {0}
        frontier = [0]
        neigh = {i: set() for i in range(n)}
        for i, j in edges:
            neigh[i].add(j)
            neigh[j].add(i)
        while frontier:
            v = frontier.pop()
            for w in neigh[v] - reach:
                reach.add(w)
                frontier.append(w)
        if len(reach) == n:
            break
    deg = np.zeros(n, int)
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    w = np.array([rng.uniform(0.05, 0.95) / max(deg[i], deg[j])
                  for i, j in edges])
    theta = rng.uniform(0.05, 0.95, len(edges))
    return build_model(n, edges, w, theta)


def test_edge_arrays_match_their_loop_forms():
    for n in range(7):
        complete = [[i, j] for i in range(n) for j in range(i + 1, n)]
        # one agent has no link and two share one
        ring = ([] if n < 2 else [[0, 1]] if n == 2
                else [[i, (i + 1) % n] for i in range(n)])
        assert complete_edges(n).tolist() == complete
        assert ring_edges(n).tolist() == ring
        assert complete_edges(n).shape == (len(complete), 2)
        assert ring_edges(n).shape == (len(ring), 2)


def test_metropolis_weights_ring():
    edges = ring_edges(5)
    w = metropolis_weights(5, edges)
    assert np.allclose(w, 1.0 / 3.0)  # all degrees 2


def test_metropolis_weights_star():
    edges = np.array([[0, 1], [0, 2], [0, 3]])
    w = metropolis_weights(4, edges)
    assert np.allclose(w, 0.25)  # hub degree 3, leaves 1 -> 1/(3+1)


def test_two_outcome_example():
    # single link, weight 0.25: W is either I or the swap-averaging matrix
    model = build_model(2, [[0, 1]], [0.25], [0.5])
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(40):
        (W,), (active,) = sample_batch(model, rng, 1)
        seen.add(active.sum())
        if active[0]:
            assert np.allclose(W, [[0.75, 0.25], [0.25, 0.75]])
        else:
            assert np.allclose(W, np.eye(2))
    assert seen == {0, 1}


def test_samples_match_naive_negotiation():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        P = np.where(rng.random((n, n)) < 0.5, rng.uniform(0.01, 0.3, (n, n)), 0.0)
        P = np.triu(P, 1)
        P = P + P.T  # symmetric proposals keep this simple
        if not (P.sum(axis=1) > 0).all():
            continue
        # a link where both agents propose > 0, weighted by the smaller offer
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if P[i, j] > 0 and P[j, i] > 0]
        w = [min(P[i, j], P[j, i]) for i, j in edges]
        try:
            model = build_model(n, edges, w, 1.0)
        except ValueError:
            continue  # no link, or a row load >= 1: not a valid model
        (W,), (up,) = sample_batch(model, rng, 1)
        active = np.zeros((n, n), bool)
        for (i, j), on in zip(model.edges, up):
            active[i, j] = active[j, i] = on
        W_ref = naive_weight_matrix(P, active)
        assert np.abs(W - W_ref).max() < 1e-15


def test_sampled_matrices_are_doubly_stochastic():
    rng = np.random.default_rng(7)
    for _ in range(10):
        model = _random_model(rng)
        for _ in range(30):
            W = sample_batch(model, rng, 1)[0][0]
            assert np.abs(W - W.T).max() == 0.0
            assert np.abs(W.sum(axis=1) - 1).max() < 1e-12
            assert np.abs(W.sum(axis=0) - 1).max() < 1e-12
            assert W.diagonal().min() > 0


def test_eigenvalues_respect_gershgorin_floor():
    rng = np.random.default_rng(31)
    for _ in range(20):
        model = _random_model(rng)
        rep = spectral_report(model)
        W, _ = sample_batch(model, rng, 100)
        vals = np.linalg.eigvalsh(W)
        assert vals.min() >= rep.lambdan_floor - 1e-12
        assert vals.max() <= 1.0 + 1e-12


def test_expected_weight_matrix_closed_form():
    model = build_model(3, [[0, 1], [1, 2]], [0.3, 0.4], [0.5, 0.25])
    EW = expected_weight_matrix(model)
    expect = np.eye(3)
    for (i, j), m, th in zip(model.edges, model.weights, model.theta):
        expect[i, i] -= th * m
        expect[j, j] -= th * m
        expect[i, j] += th * m
        expect[j, i] += th * m
    assert np.allclose(EW, expect, atol=1e-15)
    # and it is the Monte-Carlo average
    mats, _ = sample_batch(model, np.random.default_rng(1), 200000)
    assert np.abs(mats.mean(axis=0) - EW).max() < 3e-3


def test_expected_square_frozen_path_instance():
    model = build_model(4, [[0, 1], [1, 2], [2, 3]], [0.3, 0.25, 0.4],
                        [1.0, 0.5, 0.2])
    EW2 = expected_square_matrix(model)
    assert np.allclose(EW2[0], [0.58, 0.3825, 0.0375, 0.0], atol=1e-15)
    assert np.allclose(EW2[1], [0.3825, 0.4675, 0.14, 0.01], atol=1e-15)
    # full enumeration agrees, here and on random graphs of up to 12 links
    rng = np.random.default_rng(12)
    models = [model]
    while len(models) < 5:
        draw = _random_model(rng)
        if draw.n_edges <= 12:
            models.append(draw)
    for m in models:
        closed = expected_square_matrix(m)
        assert np.abs(closed - exact_expected_square(m)).max() < 1e-14
    # symmetric, rows sum to 1 (product of doubly stochastic matrices)
    assert np.allclose(EW2, EW2.T) and np.allclose(EW2.sum(axis=1), 1.0)


def test_expected_square_has_the_bits_of_its_written_out_form():
    # E{W} and E{W}^2 + sum_e 2 theta_e (1 - theta_e) m_e^2 B_e, one edge at
    # a time: the off-diagonals, then each diagonal's i-ends in edge order
    # and then its j-ends.  Random graphs of 1 to 12 agents, not all
    # connected, with links that never or always fail
    rng = np.random.default_rng(2024)
    for n in (1, 1, 2, 3, 5, 8, 12, 12):
        if n == 1:
            edges = np.zeros((0, 2), int)
        else:
            edges = np.argwhere(np.triu(rng.random((n, n)) < 0.5, 1))
            if len(edges) == 0:
                edges = np.array([[0, n - 1]])
        deg = np.bincount(edges.ravel(), minlength=n)
        m = rng.uniform(0.05, 0.95, len(edges)) / np.maximum(
            deg[edges[:, 0]], deg[edges[:, 1]])
        theta = rng.choice([0.0, 1.0, 0.3, 0.8], len(edges))
        model = dataclasses.replace(build_model(n, edges, m, 1.0), theta=theta)
        EW = np.eye(n)
        for (i, j), c in zip(edges, theta * m):
            EW[i, j] += c
            EW[j, i] += c
        for ends in (edges[:, 0], edges[:, 1]):
            for i, c in zip(ends, theta * m):
                EW[i, i] -= c
        expect = EW @ EW
        corr = 2.0 * theta * (1.0 - theta) * m ** 2
        for (i, j), c in zip(edges, corr):
            expect[i, j] -= c
            expect[j, i] -= c
        for ends in (edges[:, 0], edges[:, 1]):
            for i, c in zip(ends, corr):
                expect[i, i] += c
        assert expected_weight_matrix(model).tobytes() == EW.tobytes(), n
        assert expected_square_matrix(model).tobytes() == expect.tobytes(), n


def test_expected_square_monte_carlo_mode():
    model = _random_model(np.random.default_rng(55), n=5)
    closed = expected_square_matrix(model)
    mc = monte_carlo_expected_square(model, np.random.default_rng(99), 200000)
    assert np.abs(mc - closed).max() < 5e-3


def test_spectral_report_main_instance():
    edges = complete_edges(10)
    model = build_model(10, edges, np.full(45, 2e-4), np.full(45, 0.5))
    rep = spectral_report(model)
    assert rep.lambda2_mean == pytest.approx(0.9990000000000008, abs=1e-15)
    assert rep.lambdan_mean == pytest.approx(0.999, abs=1e-12)
    assert rep.lambda2_sq == pytest.approx(0.9980012, abs=1e-12)
    assert rep.lambdan_floor == pytest.approx(0.9964, abs=1e-15)
    assert rep.connected_in_mean


def test_spectral_report_two_clique_instance():
    cl_a, cl_b = [9, 7, 2, 6, 3], [4, 8, 1, 0, 5]
    edges = []
    for cl in (cl_a, cl_b):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((min(cl[i], cl[j]), max(cl[i], cl[j])))
    edges.append((3, 4))
    w = [0.19] * 20 + [0.0015]
    model = build_model(10, edges, w, [1.0] * 21)
    rep = spectral_report(model)
    assert rep.lambda2_mean == pytest.approx(0.9994015129204782, abs=1e-14)
    assert rep.lambdan_mean == pytest.approx(0.047598487079521926, abs=1e-14)
    assert rep.lambda2_sq == pytest.approx(0.9988033840277406, abs=1e-13)
    assert rep.lambdan_floor == pytest.approx(-0.523, abs=1e-12)


def test_floor_is_clamped_above_minus_one():
    # row load close to 1 would push the bound below -1; it must clamp
    model = build_model(2, [[0, 1]], [0.999], [0.5])
    rep = spectral_report(model)
    assert rep.lambdan_floor >= -1.0 + 1e-13


def test_single_agent_conventions():
    model = build_model(1, np.zeros((0, 2), int), np.zeros(0), np.zeros(0))
    rep = spectral_report(model)
    assert rep.lambda2_mean == 0.0 and rep.lambdan_mean == 0.0
    assert rep.lambdan_floor == 1.0
    assert rep.connected_in_mean


def test_disconnected_in_mean_is_flagged_and_rejected():
    model = build_model(4, [[0, 1], [2, 3]], [0.3, 0.3], [0.9, 0.9])
    rep = spectral_report(model)
    assert not rep.connected_in_mean
    costs = quadratic_costs([1.0] * 4, [0.0] * 4)
    with pytest.raises(InfeasibleNetworkError):
        constants(costs, rep)


def test_zero_theta_is_a_sweep_point_not_a_built_model():
    with pytest.raises(ValueError, match=r"theta must lie in \(0, 1\]"):
        build_model(2, [[0, 1]], [0.3], [0.0])
    # a theta 0 sweep point is the resolved model with its theta replaced:
    # the same edge and weight arrays, and no rate constants
    res = resolve(from_dict({
        "name": "silent", "cost": {"a": [1.0, 2.0], "b": [0.1, -0.1]},
        "demand": [1.0, 1.0],
        "network": {"topology": "complete", "n": 2, "proposal": 0.3, "theta": 0.8}}))
    point = sweep_point(res, "theta", 0.0)
    assert point.model.edges is res.model.edges
    assert point.model.weights is res.model.weights
    assert np.array_equal(point.model.theta, [0.0])
    assert not point.report.connected_in_mean and point.rc is None


def test_model_validation():
    with pytest.raises(ValueError):
        build_model(3, [[0, 0]], [0.1], [0.5])          # self-loop
    with pytest.raises(ValueError):
        build_model(3, [[0, 1], [1, 0]], [0.1, 0.1], [0.5, 0.5])  # duplicate
    with pytest.raises(ValueError, match="duplicate"):   # not next to each other
        build_model(3, [[0, 1], [1, 2], [1, 0]], [0.1] * 3, [0.5] * 3)
    with pytest.raises(ValueError):
        build_model(3, [[0, 3]], [0.1], [0.5])          # out of range
    with pytest.raises(ValueError):
        build_model(3, [[0, 1]], [-0.1], [0.5])         # negative weight
    with pytest.raises(ValueError):
        build_model(3, [[0, 1]], [0.1], [1.5])          # theta > 1
    with pytest.raises(ValueError):                     # theta NaN
        build_model(3, [[0, 1]], [0.1], [np.nan])
    with pytest.raises(ValueError, match="at least one edge"):
        build_model(3, np.zeros((0, 2), int), [], [])
    with pytest.raises(ValueError):
        # row load >= 1 breaks the diagonal positivity guarantee
        build_model(3, [[0, 1], [0, 2]], [0.6, 0.6], [0.5, 0.5])


def test_negotiate_weights_zeroes_inactive_edges():
    model = build_model(3, [[0, 1], [1, 2]], [0.2, 0.3], [0.5, 0.5])
    W = mixing_matrix(model, np.where([True, False], model.weights, 0.0))
    assert W[0, 1] == pytest.approx(0.2)
    assert W[1, 2] == 0.0
    assert np.allclose(W.sum(axis=1), 1.0)
