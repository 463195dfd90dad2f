"""Iteration engine tests: a single step against hand values, the vectorized
multi-replica loop against naive message-passing replays, and the invariants
the updates are supposed to preserve (conservation, mean recursion, fixed
point, double stochasticity)."""

import numpy as np
import pytest

from dtalloc import (
    DisturbanceSpec,
    build_model,
    complete_graph,
    kkt_solve,
    quadratic_costs,
    allocation_problem,
    run,
)
from dtalloc import engine
from naive_reference import naive_dta_step, naive_weight_matrix, naive_wga_step


# ---------------------------------------------------------------- fixtures

def _pair_problem():
    """Two agents, unit curvature, demand (0, 2)."""
    costs = quadratic_costs([1.0, 1.0], [0.0, 0.0])
    return allocation_problem(costs, [0.0, 2.0])


def _pair_model():
    # single link with weight 1/2, always on -> W = [[.5,.5],[.5,.5]]
    return build_model(2, [(0, 1)], [0.5], 1.0)


def _main_problem():
    a = [0.0314, 0.0342, 0.0392, 0.0379, 0.0366,
         0.0304, 0.0385, 0.0393, 0.0368, 0.0396]
    b = [0.352, 0.349, 0.278, 0.331, 0.234,
         0.341, 0.206, 0.255, 0.209, 0.219]
    d = [4.646, 2.255, 3.602, 4.251, 1.418,
         3.039, 2.82, 1.489, 2.444, 3.386]
    return allocation_problem(quadratic_costs(a, b), d)


def _random_instance(rng, n, u=1):
    a = rng.uniform(0.5, 2.0, n)
    b = rng.uniform(-1.0, 1.0, (n, u))
    d = rng.uniform(-2.0, 2.0, (n, u))
    return allocation_problem(quadratic_costs(a, b), d)


# ---------------------------------------------------------- single steps

def test_dta_step_hand_values():
    # x(0) = (1, 0), uncoordinated stepsizes: y(0) = x(0) - d = (1, -2),
    # grad = 2 x(0) = (2, 0), (I - W) grad = (1, -1), so
    # x(1) = x(0) - alpha y(0) - beta (I - W) grad = (0.25, 1.0) and
    # y(1) = W y(0) + x(1) - x(0) = (-1.25, 0.5).
    prob = _pair_problem()
    res = run(prob, _pair_model(), algorithm="dta", alpha=[0.5, 0.25],
              beta=[0.25, 0.5], iterations=1, x0=np.array([[1.0], [0.0]]),
              record_states=True)
    assert res.states_x.shape[0] == 2
    assert np.array_equal(res.states_y[0, 0], np.array([[1.0], [-2.0]]))
    assert np.array_equal(res.states_x[1, 0], np.array([[0.25], [1.0]]))
    assert np.array_equal(res.states_y[1, 0], np.array([[-1.25], [0.5]]))


def test_run_matches_hand_step():
    prob = _pair_problem()
    model = _pair_model()
    res = run(prob, model, algorithm="dta", alpha=0.1, beta=0.1,
              iterations=1, replicas=1, seed=3, record_states=True)
    assert np.array_equal(res.states_y[0, 0], np.array([[0.0], [-2.0]]))
    assert np.array_equal(res.states_x[1, 0], np.array([[0.0], [0.2]]))
    assert np.array_equal(res.states_y[1, 0], np.array([[-1.0], [-0.8]]))


@pytest.mark.parametrize("start", [
    dict(x0=np.array([[np.inf], [0.0]])),
    dict(x0=np.array([[0.0], [np.nan]])),
    dict(y0=np.array([[0.0], [np.nan]])),
], ids=["x0-inf", "x0-nan", "y0-nan"])
def test_run_rejects_nonfinite_start(start):
    with pytest.raises(ValueError, match="finite"):
        run(_pair_problem(), _pair_model(), algorithm="dta", alpha=0.1,
            beta=0.1, iterations=1, **start)


def test_wga_step_preserves_total():
    rng = np.random.default_rng(11)
    prob = _random_instance(rng, 5, u=2)
    model = complete_graph(5)  # theta = 1: every link up in every step
    res = run(prob, model, algorithm="wga", alpha=0.3, iterations=25,
              x0=prob.demand, record_states=True)
    total0 = prob.demand.sum(axis=0)
    for xk in res.states_x[:, 0]:
        assert np.allclose(xk.sum(axis=0), total0, rtol=0, atol=1e-12)


# ------------------------------------------------- naive replay agreement

def _replay_acts(seed, replica_count, iterations, n_edges, theta):
    """Reconstruct the link-activation draws the engine consumed."""
    children = np.random.SeedSequence(seed).spawn(replica_count)
    out = []
    for child in children:
        sw, _sz = child.spawn(2)
        gw = np.random.default_rng(sw)
        out.append(gw.random((iterations, n_edges)) < theta)
    return out


def test_engine_matches_naive_message_passing():
    """Edge-kernel engine vs per-agent loops, same draws."""
    rng = np.random.default_rng(404)
    n, u, T, theta, seed = 6, 2, 40, 0.7, 99
    prob = _random_instance(rng, n, u)
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4), (0, 3)]
    w = rng.uniform(0.05, 0.12, len(edges))
    model = build_model(n, edges, w, theta)
    alpha, beta = 0.05, 0.4

    res = run(prob, model, algorithm="dta", alpha=alpha, beta=beta,
              iterations=T, replicas=1, seed=seed, record_states=True)
    acts = _replay_acts(seed, 1, T, model.n_edges, theta)[0]

    proposals = np.zeros((n, n))
    for (i, j), we in zip(model.edges, model.weights):
        proposals[i, j] = proposals[j, i] = we

    a = prob.costs.a
    b = prob.costs.b
    x_n = np.zeros((n, u))
    y_n = x_n - prob.demand
    for k in range(T):
        active = np.zeros((n, n), bool)
        for e, (i, j) in enumerate(model.edges):
            if acts[k, e]:
                active[i, j] = active[j, i] = True
        W = naive_weight_matrix(proposals, active)
        x_n, y_n = naive_dta_step(x_n, y_n, W, a, b, alpha, beta)
        assert np.allclose(res.states_x[k + 1, 0], x_n, rtol=0, atol=1e-12)
        assert np.allclose(res.states_y[k + 1, 0], y_n, rtol=0, atol=1e-12)


def test_engine_matches_naive_wga():
    rng = np.random.default_rng(405)
    n, T, theta, seed = 5, 30, 0.6, 17
    prob = _random_instance(rng, n)
    model = complete_graph(n, theta=theta)
    alpha = 0.8

    res = run(prob, model, algorithm="wga", alpha=alpha,
              iterations=T, replicas=1, seed=seed, record_states=True)
    acts = _replay_acts(seed, 1, T, model.n_edges, theta)[0]
    proposals = np.zeros((n, n))
    for (i, j), we in zip(model.edges, model.weights):
        proposals[i, j] = proposals[j, i] = we

    x_n = np.zeros((n, 1))
    for k in range(T):
        active = np.zeros((n, n), bool)
        for e, (i, j) in enumerate(model.edges):
            if acts[k, e]:
                active[i, j] = active[j, i] = True
        W = naive_weight_matrix(proposals, active)
        x_n = naive_wga_step(x_n, W, prob.costs.a, prob.costs.b, alpha)
        assert np.allclose(res.states_x[k + 1, 0], x_n, rtol=0, atol=1e-12)
    assert res.states_y is None


# ------------------------------------------------------------- invariants

def test_conservation_and_mean_recursion():
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    res = run(prob, model, algorithm="dta",
              alpha=0.0007647132835707233, beta=14309.704294513564,
              iterations=2000, replicas=4, seed=5)
    assert res.max_conservation_drift <= 1e-9
    assert res.max_mean_recursion_err <= 1e-9
    assert not res.diverged


def test_mean_recursion_not_tracked_when_inapplicable():
    prob = _pair_problem()
    model = _pair_model()
    # per-agent alphas: the scalar mean recursion does not apply
    res = run(prob, model, algorithm="dta", alpha=np.array([0.1, 0.2]),
              beta=0.1, iterations=5, replicas=1, seed=0)
    assert np.isnan(res.max_mean_recursion_err)
    # disturbance also breaks the clean recursion
    res2 = run(prob, model, algorithm="dta", alpha=0.1, beta=0.1,
               iterations=5, replicas=1, seed=0,
               disturbance=DisturbanceSpec("gaussian", m_zeta=0.1))
    assert np.isnan(res2.max_mean_recursion_err)


def test_fixed_point_is_stationary():
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    xs = kkt_solve(prob).x_star
    res = run(prob, model, algorithm="dta",
              alpha=0.0007647132835707233, beta=14309.704294513564,
              iterations=2000, replicas=2, seed=12,
              x0=xs, y0=np.zeros((10, 1)))
    assert res.traces["optimality_distance"].max() <= 1e-9
    assert res.traces["tracking_norm"].max() <= 1e-9


def test_sampled_matrices_doubly_stochastic():
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    res = run(prob, model, algorithm="dta",
              alpha=0.0007647132835707233, beta=14309.704294513564,
              iterations=500, replicas=2, seed=8, check_samples=True)
    assert res.max_double_stochastic_err <= 1e-12


def test_wga_run_conserves_feasibility():
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    res = run(prob, model, algorithm="wga", alpha=100.0,
              iterations=1000, replicas=3, seed=21, x0=prob.demand)
    assert res.traces["feasibility_gap"].max() <= 1e-9


# ------------------------------------------------- determinism / chunking

def test_same_seed_reproduces_traces():
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    kw = dict(algorithm="dta", alpha=0.0007647132835707233,
              beta=14309.704294513564, iterations=300, replicas=3, seed=77)
    r1 = run(prob, model, **kw)
    r2 = run(prob, model, **kw)
    for name in r1.traces:
        assert np.array_equal(r1.traces[name], r2.traces[name])
    r3 = run(prob, model, **{**kw, "seed": 78})
    assert not np.array_equal(r1.traces["optimality_distance"],
                              r3.traces["optimality_distance"])


def test_chunk_size_does_not_change_streams(monkeypatch):
    dist = DisturbanceSpec("laplace", m_zeta=2.0, q_zeta=0.99)
    kw = dict(algorithm="dta", iterations=149, replicas=2, seed=31,
              disturbance=dist)
    # E = 45 > n u = 10, then a single link with n u = 6 > E = 1
    pair = allocation_problem(quadratic_costs([1.0, 2.0], np.zeros((2, 3))),
                              np.ones((2, 3)))
    cases = [(_main_problem(), complete_graph(10, weight=0.0002, theta=0.5),
              dict(alpha=0.0007647132835707233, beta=14309.704294513564)),
             (pair, build_model(2, [(0, 1)], [0.3], 0.8),
              dict(alpha=0.05, beta=0.1))]
    for prob, model, plan in cases:
        r_big = run(prob, model, **plan, **kw)
        with monkeypatch.context() as m:
            # 7-step chunks: 149 steps end on a partial chunk
            width = max(model.n_edges, prob.n * prob.u)
            m.setattr(engine, "DRAW_BYTES", 8 * width * 7)
            r_odd = run(prob, model, **plan, **kw)
        for name in r_big.traces:
            assert np.array_equal(r_big.traces[name], r_odd.traces[name])
        assert np.array_equal(r_big.zeta_total, r_odd.zeta_total)


def test_uniform_vector_plan_equals_scalar_plan():
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    al, be = 0.0007647132835707233, 14309.704294513564
    r_s = run(prob, model, algorithm="dta", alpha=al, beta=be,
              iterations=200, replicas=2, seed=9)
    r_v = run(prob, model, algorithm="dta",
              alpha=np.full(10, al), beta=np.full(10, be),
              iterations=200, replicas=2, seed=9)
    for name in r_s.traces:
        assert np.array_equal(r_s.traces[name], r_v.traces[name])


# ------------------------------------------------------------ divergence

def test_divergence_sets_flag_and_pads_with_nan():
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    T = 400
    res = run(prob, model, algorithm="dta",
              alpha=0.0007647132835707233, beta=50 * 14309.704294513564,
              iterations=T, replicas=2, seed=1, record_states=True)
    assert res.diverged
    assert res.diverged_replica is not None
    assert 0 < res.diverged_at <= T
    tr = res.traces["optimality_distance"]
    assert tr.shape == (2, T + 1)
    assert np.isnan(tr[:, res.diverged_at + 1:]).all()
    assert np.isfinite(tr[:, :res.diverged_at]).all()
    for states in (res.states_x, res.states_y):
        assert np.isnan(states[res.diverged_at + 1:]).all()
        assert np.isfinite(states[:res.diverged_at]).all()


# ----------------------------------------------------------- disturbance

def test_disturbance_spec_validation():
    with pytest.raises(ValueError):
        DisturbanceSpec("pink-noise", m_zeta=1.0)
    with pytest.raises(ValueError):
        DisturbanceSpec("gaussian", m_zeta=1.0, q_zeta=1.0)
    with pytest.raises(ValueError):
        DisturbanceSpec("gaussian", m_zeta=-1.0)
    assert not DisturbanceSpec().active
    assert not DisturbanceSpec("gaussian", m_zeta=0.0).active
    assert DisturbanceSpec("impulse", m_zeta=1.0).active


def test_disturbance_scales_envelope():
    spec = DisturbanceSpec("gaussian", m_zeta=9.5, q_zeta=0.999)
    s = spec.scales(100, 10, 1)
    assert s[0] == pytest.approx(9.5 / np.sqrt(10.0), rel=1e-15)
    assert np.allclose(s[1:] / s[:-1], 0.999, rtol=1e-12)
    # impulse: zero from the cutoff index onward, untouched before it
    imp = DisturbanceSpec("impulse", m_zeta=9.5, q_zeta=0.999, cutoff=40)
    si = imp.scales(100, 10, 1)
    assert np.array_equal(si[40:], np.zeros(60))
    assert np.array_equal(si[:40], s[:40])


def test_laplace_draws_variance_matched():
    # the laplace branch is scaled so its variance matches the gaussian one
    prob = _pair_problem()
    model = _pair_model()
    spec = DisturbanceSpec("laplace", m_zeta=1.0, q_zeta=0.9999)
    seeds = np.random.SeedSequence(123).spawn(1)
    _sw, sz = seeds[0].spawn(2)
    g = np.random.default_rng(sz)
    draws = g.laplace(0.0, 1.0 / np.sqrt(2.0), 200000)
    assert draws.var() == pytest.approx(1.0, rel=0.02)
    del prob, model, spec


def test_zeta_total_tracks_injected_mass():
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    dist = DisturbanceSpec("gaussian", m_zeta=4.0, q_zeta=0.999)
    res = run(prob, model, algorithm="wga", alpha=100.0,
              iterations=800, replicas=3, seed=44, x0=prob.demand,
              disturbance=dist)
    assert res.zeta_total.shape == (3, 1)
    # gap identity: terminal feasibility gap equals the summed disturbance
    assert res.wga_drift_err <= 1e-9
    gap = res.final_x.sum(axis=1) - prob.demand.sum(axis=0)
    assert np.allclose(gap, res.zeta_total, rtol=0, atol=1e-9)


def test_wga_drift_excludes_initial_infeasibility():
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    dist = DisturbanceSpec("gaussian", m_zeta=4.0, q_zeta=0.999)
    # x0 = 0 starts 1'd away from feasibility; WGA keeps that offset
    res = run(prob, model, algorithm="wga", alpha=100.0,
              iterations=800, replicas=3, seed=44, disturbance=dist)
    assert res.traces["feasibility_gap"][0, 0] > 1.0
    assert res.wga_drift_err <= 1e-9


def test_impulse_disturbance_fixed_magnitude():
    prob = _pair_problem()
    model = _pair_model()
    dist = DisturbanceSpec("impulse", m_zeta=1.0, q_zeta=0.999, cutoff=3)
    res = run(prob, model, algorithm="dta", alpha=0.0, beta=0.0,
              iterations=6, replicas=1, seed=2, record_states=True,
              disturbance=dist)
    # alpha = beta = 0: x just integrates the impulses
    steps = np.diff(res.states_x[:, 0, :, 0], axis=0)
    scale = dist.scales(6, 2, 1)
    for k in range(6):
        assert np.allclose(np.abs(steps[k]), scale[k], rtol=0, atol=1e-15)
    assert np.all(steps[3:] == 0.0)


# -------------------------------------------------------------- plumbing

def test_run_validates_inputs():
    prob = _pair_problem()
    model = _pair_model()
    with pytest.raises(ValueError):
        run(prob, model, algorithm="sgd", alpha=0.1, beta=0.1, iterations=1)
    with pytest.raises(ValueError):
        run(prob, model, algorithm="dta", alpha=0.1, beta=None, iterations=1)
    with pytest.raises(ValueError):
        run(prob, model, algorithm="dta", alpha=None, beta=0.1, iterations=1)


def test_record_states_shapes_and_trace_columns():
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    res = run(prob, model, algorithm="dta",
              alpha=0.0007647132835707233, beta=14309.704294513564,
              iterations=50, replicas=2, seed=6, record_states=True)
    assert res.states_x.shape == (51, 2, 10, 1)
    assert res.states_y.shape == (51, 2, 10, 1)
    assert set(res.traces) == {"optimality_distance", "feasibility_gap",
                               "tracking_norm", "gradient_dispersion"}
    for tr in res.traces.values():
        assert tr.shape == (2, 51)
        assert np.isfinite(tr).all()
    agg = res.aggregate_traces()
    assert agg["optimality_distance"].shape == (51,)


def test_wga_tracking_trace_is_zero():
    prob = _pair_problem()
    model = _pair_model()
    res = run(prob, model, algorithm="wga", alpha=0.3,
              iterations=10, replicas=1, seed=0)
    assert np.all(res.traces["tracking_norm"] == 0.0)
    assert res.final_y is None
