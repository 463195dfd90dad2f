"""Iteration engine tests: a single step against hand values, the vectorized
multi-replica loop against naive message-passing replays, and the invariants
the updates are supposed to preserve (conservation, mean recursion, fixed
point)."""

import dataclasses
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtalloc import (
    TRACE_COLUMNS,
    DisturbanceSpec,
    aggregate,
    build_model,
    complete_graph,
    kkt_solve,
    quadratic_costs,
    allocation_problem,
    residuals,
    run,
)
from dtalloc import engine
from dtalloc.config import load_config, resolve, sweep_point
from naive_reference import naive_dta_step, naive_weight_matrix, naive_wga_step


EXPERIMENTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "experiments")

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


def _per_replica(res, prob):
    """Each replica's residual traces, {name: (T+1, R)}, recomputed from the
    states a `record_states` run kept."""
    return residuals(res.states_x, res.states_y, prob)


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


@pytest.mark.parametrize("start,match", [
    (dict(x0=np.array([[np.inf], [0.0]])), "finite"),
    (dict(x0=np.array([[0.0], [np.nan]])), "finite"),
    (dict(y0=np.array([[0.0], [np.nan]])), "finite"),
    (dict(x0=np.zeros(2)), r"x0 shape \(2,\), expected \(2, 1\)"),  # n without u
], ids=["x0-inf", "x0-nan", "y0-nan", "x0-shape"])
def test_run_rejects_nonfinite_start(start, match):
    with pytest.raises(ValueError, match=match):
        engine.run_points(_pair_problem(), [(_pair_model(), 0.1, 0.1)],
                          algorithm="dta", iterations=1, **start)


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
    alpha = 0.0007647132835707233
    res = run(prob, model, algorithm="dta", alpha=alpha,
              beta=14309.704294513564, iterations=2000, replicas=4, seed=5,
              record_states=True)
    assert res.max_conservation_drift <= 1e-9
    # W(k) is doubly stochastic, so the tracker mean obeys
    # ybar(k+1) = (1 - alpha) ybar(k) in every replica
    ybar = res.states_y.mean(axis=-2)                       # (T+1, R, u)
    assert np.abs(ybar[1:] - (1.0 - alpha) * ybar[:-1]).max() <= 1e-9
    assert not res.diverged


def test_fixed_point_is_stationary():
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    xs = kkt_solve(prob).x_star
    res = run(prob, model, algorithm="dta",
              alpha=0.0007647132835707233, beta=14309.704294513564,
              iterations=2000, replicas=2, seed=12,
              x0=xs, y0=np.zeros((10, 1)), record_states=True)
    per = _per_replica(res, prob)
    assert per["optimality_distance"].max() <= 1e-9
    assert per["tracking_norm"].max() <= 1e-9


def test_wga_run_conserves_feasibility():
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    res = run(prob, model, algorithm="wga", alpha=100.0,
              iterations=1000, replicas=3, seed=21, x0=prob.demand,
              record_states=True)
    assert _per_replica(res, prob)["feasibility_gap"].max() <= 1e-9


# ------------------------------------------------- determinism / blocking

def test_same_seed_reproduces_traces():
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    kw = dict(algorithm="dta", alpha=0.0007647132835707233,
              beta=14309.704294513564, iterations=300, replicas=3, seed=77,
              record_states=True)
    r1 = run(prob, model, **kw)
    r2 = run(prob, model, **kw)
    for name in r1.traces:
        assert np.array_equal(r1.traces[name], r2.traces[name])
    assert np.array_equal(r1.states_x, r2.states_x)
    assert np.array_equal(r1.states_y, r2.states_y)
    r3 = run(prob, model, **{**kw, "seed": 78})
    assert not np.array_equal(r1.traces["optimality_distance"],
                              r3.traces["optimality_distance"])


def _beta_sweep_point(value, iterations):
    """The beta_sweep.yaml run at one multiplier, as engine.run keywords."""
    res = resolve(load_config(os.path.join(EXPERIMENTS, "beta_sweep.yaml")))
    pt = sweep_point(res, "beta", value)
    return pt.problem, pt.model, dict(
        algorithm="dta", alpha=pt.alpha, beta=pt.beta, iterations=iterations,
        replicas=pt.config.engine.replicas, seed=pt.config.seed, x0=pt.x0)


def _block_cases():
    rng = np.random.default_rng(52)
    prob3 = _random_instance(rng, 6, u=3)
    gauss = DisturbanceSpec("gaussian", m_zeta=1.5, q_zeta=0.99)
    laplace = DisturbanceSpec("laplace", m_zeta=2.0, q_zeta=0.99)
    main = _main_problem()
    model10 = complete_graph(10, weight=0.0002, theta=0.5)
    pair = allocation_problem(quadratic_costs([1.0, 2.0], np.zeros((2, 3))),
                              np.ones((2, 3)))
    return {
        "dta-u3-per-agent-gauss": (prob3, complete_graph(6, theta=0.6), dict(
            algorithm="dta", alpha=np.linspace(0.02, 0.06, 6),
            beta=np.linspace(0.05, 0.15, 6), iterations=149, replicas=3,
            seed=13, disturbance=gauss)),
        "wga-gauss": (main, model10, dict(
            algorithm="wga", alpha=100.0, iterations=149, replicas=2, seed=14,
            x0=main.demand, disturbance=gauss)),
        "dta-diverging": _beta_sweep_point(1.06, 400),
        "wga-gauss-diverging": (main, model10, dict(
            algorithm="wga", alpha=1e6, iterations=149, replicas=2, seed=16,
            x0=main.demand, disturbance=gauss)),
        # the impulse switches off at step 75, mid-block for 2- and 7-row
        # blocks and the case's default ones
        "wga-impulse-cutoff": (main, model10, dict(
            algorithm="wga", alpha=100.0, iterations=149, replicas=3, seed=18,
            x0=main.demand, disturbance=DisturbanceSpec(
                "impulse", m_zeta=2.0, q_zeta=0.99, cutoff=75))),
        # E = 45 > n u = 10, then a single link with n u = 6 > E = 1
        "dta-laplace": (main, model10, dict(
            algorithm="dta", alpha=0.0007647132835707233,
            beta=14309.704294513564, iterations=149, replicas=2, seed=31,
            disturbance=laplace)),
        "dta-laplace-single-link-u3": (pair, build_model(2, [(0, 1)], [0.3], 0.8), dict(
            algorithm="dta", alpha=0.05, beta=0.1, iterations=149, replicas=2,
            seed=31, disturbance=laplace)),
    }


def _call_rows(prob, points, kw):
    """The B, steps per block, of a run_points call of `points` with `kw`,
    computed from the call's own arguments as the engine computes it."""
    S = 2 if kw.get("algorithm", "dta") == "dta" else 1
    return engine._block_rows(prob.n, prob.u, points[0][0].n_edges,
                              lanes=len(points) * kw.get("replicas", 1), S=S,
                              T=kw["iterations"])


# y's bits are checked through states_y, which holds every recorded y(k)
RESULT_FIELDS = ("final_x", "states_x", "states_y",
                 "max_conservation_drift", "zeta_total", "wga_drift_err")


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_result(ref, res, tag):
    """Every trace, state and diagnostic of `res` is bit-equal to `ref`, both
    `record_states` runs."""
    assert ref.states_x is not None and res.states_x is not None, tag
    assert set(ref.traces) == set(res.traces)
    for name in ref.traces:
        assert _same_bits(ref.traces[name], res.traces[name]), (tag, name)
    for attr in RESULT_FIELDS:
        assert _same_bits(getattr(ref, attr), getattr(res, attr)), (tag, attr)
    assert (res.diverged, res.diverged_at, res.diverged_replica) == (
        ref.diverged, ref.diverged_at, ref.diverged_replica), tag


@pytest.mark.parametrize("case", ["dta-u3-per-agent-gauss", "wga-gauss",
                                  "dta-diverging", "wga-gauss-diverging",
                                  "wga-impulse-cutoff", "dta-laplace",
                                  "dta-laplace-single-link-u3"])
def test_block_size_does_not_change_results(monkeypatch, case):
    prob, model, kw = _block_cases()[case]
    ref = run(prob, model, record_states=True, **kw)
    call = [(model, kw.get("alpha"), kw.get("beta"))]
    B = _call_rows(prob, call, kw)
    if case.endswith("diverging"):
        # mid-block for the case's default blocks and for 7-row blocks
        assert ref.diverged and ref.diverged_at % B and ref.diverged_at % 7
    if case.endswith("cutoff"):
        # WGA conserves 1'x and the impulse adds nothing from its cutoff on,
        # so from there 1'x(k) - 1'x(0) is the whole injected sum
        cutoff = kw["disturbance"].cutoff
        assert not ref.diverged and cutoff % B and cutoff % 7 and cutoff % 2
        mass = ref.states_x.sum(axis=2) - ref.states_x[0].sum(axis=1)
        assert np.abs(mass[cutoff:] - ref.zeta_total).max() < 1e-9

    # one row steps from the carry row alone; two and seven also step within
    for rows in (1, 2, 7):
        with monkeypatch.context() as m:
            m.setattr(engine, "BLOCK_ROWS", rows)
            assert _call_rows(prob, call, kw) == rows
            res = run(prob, model, record_states=True, **kw)
        _assert_same_result(ref, res, rows)


def _sweep_cases():
    """Sweeps as (problem, [(model, alpha, beta)], run_points keywords)."""
    rng = np.random.default_rng(53)
    prob3 = _random_instance(rng, 6, u=3)
    prob2 = _random_instance(rng, 6, u=2)
    gauss = DisturbanceSpec("gaussian", m_zeta=1.5, q_zeta=0.99)
    main = _main_problem()
    alpha, beta = 0.0007647132835707233, 14309.704294513564
    model10 = complete_graph(10, weight=0.0002, theta=0.5)
    res = resolve(load_config(os.path.join(EXPERIMENTS, "beta_sweep.yaml")))
    beta_pts = [sweep_point(res, "beta", v) for v in (0.5, 1.06, 1.0, 1.08, 1.04)]
    model6 = complete_graph(6, theta=0.6)
    al6, be6 = np.linspace(0.02, 0.06, 6), np.linspace(0.05, 0.15, 6)
    return {
        # 1.08, 1.06 and 1.04 diverge at steps 204, 275 and 426, mid-block,
        # each while a later point runs on
        "beta-sweep-diverging": (res.problem, [
            (p.model, p.alpha, p.beta) for p in beta_pts], dict(
            algorithm="dta", iterations=500, replicas=1, seed=res.config.seed,
            x0=res.x0)),
        "theta-sweep-with-zero": (main, [
            (build_model(10, model10.edges, model10.weights, t,
                         allow_zero_theta=True), alpha, beta)
            for t in (0.9, 0.3, 0.0)], dict(
            algorithm="dta", iterations=149, replicas=3, seed=15)),
        # points may differ in theta and the plan at once; the second one
        # diverges at step 7 while points with other thetas run on, beside
        # its masked lanes
        "mixed-theta-and-plan": (main, [
            (build_model(10, model10.edges, model10.weights, t,
                         allow_zero_theta=True), s * alpha, sb * beta)
            for t, s, sb in ((0.9, 1.0, 1.0), (0.6, 2.0, 50.0),
                             (0.3, 0.5, 1.0), (0.0, 3.0, 1.0))], dict(
            algorithm="dta", iterations=1500, replicas=3, seed=15)),
        "wga-alpha-sweep-gauss": (main, [
            (model10, a, None) for a in (50.0, 1e6, 100.0, 200.0)], dict(
            algorithm="wga", iterations=149, replicas=2, seed=16,
            x0=main.demand, disturbance=gauss)),
        "per-agent-u3": (prob3, [
            (model6, s * al6, s * be6) for s in (0.5, 40.0, 1.0, 2.0)], dict(
            algorithm="dta", iterations=149, replicas=3, seed=17,
            disturbance=gauss)),
        # the other two draw kinds, each point's lanes adding the same
        # (1, R, n, u) row of zeta(k); the second point diverges at step 16
        "laplace-u2": (prob2, [
            (model6, s * al6, s * be6) for s in (0.5, 20.0, 1.0)], dict(
            algorithm="dta", iterations=149, replicas=3, seed=21,
            disturbance=DisturbanceSpec("laplace", m_zeta=2.0, q_zeta=0.99))),
        # the impulse switches off at step 75 and the second point diverges
        # at step 22, each mid-block for 7-row blocks and the default ones
        "impulse-u2-cutoff": (prob2, [
            (model6, a, None) for a in (0.1, 2.0, 0.5)], dict(
            algorithm="wga", iterations=149, replicas=3, seed=22,
            x0=prob2.demand, disturbance=DisturbanceSpec(
                "impulse", m_zeta=2.0, q_zeta=0.99, cutoff=75))),
    }


SWEEP_CASES = ["beta-sweep-diverging", "theta-sweep-with-zero",
               "mixed-theta-and-plan", "wga-alpha-sweep-gauss", "per-agent-u3",
               "laplace-u2", "impulse-u2-cutoff"]


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_run_points_lanes_match_separate_runs(case):
    prob, points, kw = _sweep_cases()[case]
    lanes = list(engine.run_points(prob, points, record_states=True, **kw))
    assert len(lanes) == len(points)
    for idx, ((model, alpha, beta), res) in enumerate(zip(points, lanes)):
        alone = run(prob, model, alpha=alpha, beta=beta, record_states=True, **kw)
        _assert_same_result(alone, res, idx)
    if case != "theta-sweep-with-zero":
        # a point that diverges stops alone; the next point runs on
        assert any(a.diverged and not b.diverged for a, b in zip(lanes, lanes[1:]))


@pytest.mark.parametrize("rows", [1, 2])
def test_lanes_under_small_blocks_match_separate_runs(monkeypatch, rows):
    # 1.06 diverges at step 275, the first row of a 2-row block, and its
    # lanes step on unrecorded while later points run on
    prob, points, kw = _sweep_cases()["beta-sweep-diverging"]
    alone = [run(prob, model, alpha=alpha, beta=beta, record_states=True, **kw)
             for model, alpha, beta in points]
    monkeypatch.setattr(engine, "BLOCK_ROWS", rows)
    assert _call_rows(prob, points, kw) == rows
    lanes = list(engine.run_points(prob, points, record_states=True, **kw))
    assert [r.diverged_at for r in lanes] == [None, 275, None, 204, 426]
    for idx, (ref, res) in enumerate(zip(alone, lanes)):
        _assert_same_result(ref, res, (rows, idx))
    finals = [a for r in lanes for a in (r.final_x, r.states_x, r.states_y)]
    for i, a in enumerate(finals):
        for b in finals[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("case", ["laplace-u2", "impulse-u2-cutoff"])
def test_disturbed_lanes_under_small_blocks_match_separate_runs(monkeypatch, case, rows):
    # a block scales each replica's draws once into one row per step, which
    # every point's lanes add; one- and seven-row blocks must give each
    # point the bits of a separate default-block run, with the divergence
    # and the impulse cutoff mid-block for 7-row blocks and the default
    # blocks of a call of all the points
    prob, points, kw = _sweep_cases()[case]
    alone = [run(prob, model, alpha=alpha, beta=beta, record_states=True, **kw)
             for model, alpha, beta in points]
    B = _call_rows(prob, points, kw)
    steps = [r.diverged_at for r in alone]
    assert steps[0] is None and steps[2] is None and steps[1] % B and steps[1] % 7
    cutoff = kw["disturbance"].cutoff
    assert cutoff is None or (cutoff % B and cutoff % 7 and cutoff < kw["iterations"])
    monkeypatch.setattr(engine, "BLOCK_ROWS", rows)
    assert _call_rows(prob, points, kw) == rows
    lanes = engine.run_points(prob, points, record_states=True, **kw)
    for idx, (ref, res) in enumerate(zip(alone, lanes)):
        _assert_same_result(ref, res, (rows, idx))


def _tile_cases():
    """Runs as (problem, [(model, alpha, beta)], run_points keywords), each
    with an odd number of lanes, so two-lane tiles end in a one-lane tile."""
    rng = np.random.default_rng(54)
    prob2 = _random_instance(rng, 6, u=2)
    gauss = DisturbanceSpec("gaussian", m_zeta=1.5, q_zeta=0.99)
    main = _main_problem()
    alpha, beta = 0.0007647132835707233, 14309.704294513564
    model10 = complete_graph(10, weight=0.0002, theta=0.5)
    one = allocation_problem(quadratic_costs([1.0], [0.1]), [2.0])
    return {
        "dta-u2-gauss": (prob2, [(complete_graph(6, theta=0.6),
                                  np.linspace(0.02, 0.06, 6),
                                  np.linspace(0.05, 0.15, 6))], dict(
            algorithm="dta", iterations=149, replicas=5, seed=19,
            disturbance=gauss)),
        "wga-gauss": (main, [(model10, 100.0, None)], dict(
            algorithm="wga", iterations=149, replicas=3, seed=14,
            x0=main.demand, disturbance=gauss)),
        # the second point diverges mid-block; its lanes stay in the same
        # 9-lane tiles, masked, while the other two run on
        "dta-points-diverging": (main, [
            (model10, alpha, beta), (model10, 2 * alpha, 50 * beta),
            (model10, 0.5 * alpha, beta)], dict(
            algorithm="dta", iterations=150, replicas=3, seed=7)),
        # no links: the kernel has no terms to tile
        "one-agent": (one, [(complete_graph(1, theta=0.8), 1 / 3, 1.0)], dict(
            algorithm="dta", iterations=40, replicas=3, seed=3)),
        # 15 lanes, each point with its own theta: in spans of 4 lanes
        # (4, 4, 4 and a narrower 3) a replica's three lanes r, r + 5 and
        # r + 10 fall in three spans, each drawn into at its own column
        "dta-points-split": (main, [
            (complete_graph(10, weight=0.0002, theta=theta), alpha, beta)
            for theta in (0.3, 0.5, 0.8)], dict(
            algorithm="dta", iterations=150, replicas=5, seed=23,
            disturbance=gauss)),
    }


@pytest.mark.parametrize("case,width", [
    pytest.param(case, width, id=f"{case}-{width}")
    for case in ("dta-u2-gauss", "wga-gauss", "dta-points-diverging",
                 "one-agent", "dta-points-split")
    for width in (1, 2, "all-but-one")] + [
    pytest.param("dta-points-split", 4, id="dta-points-split-4")])
def test_kernel_tiles_do_not_change_results(monkeypatch, case, width):
    # each lane's terms and bincount order are the same in a tile as in the
    # one tile of all operands and lanes, and each lane's activations and
    # weights are the same in its span's blocks, so every output keeps its
    # bits.  A budget one lane below all S lanes-wide operands gives DTA one
    # full-width tile per operand, the boundary of the one-tile case
    prob, points, kw = _tile_cases()[case]
    B = _call_rows(prob, points, kw)
    ref = engine.run_points(prob, points, record_states=True, **kw)
    E, u, R = points[0][0].n_edges, prob.u, kw["replicas"]
    lanes = len(points) * R
    S = 2 if kw["algorithm"] == "dta" else 1
    budget = S * lanes - 1 if width == "all-but-one" else width
    monkeypatch.setattr(engine, "KERNEL_BYTES", budget * 32 * E * u)
    assert engine._kernel_width(E, S, u, lanes) == (min(budget, lanes) if E else S * lanes)
    if width == 4:
        # replica 0's lanes 0, 5 and 10 in three spans, the last narrower
        assert {lane // width for lane in range(0, lanes, R)} == {0, 1, 2}
        assert lanes % width == 3
    res = engine.run_points(prob, points, record_states=True, **kw)
    if case == "dta-points-diverging":
        assert [r.diverged for r in res] == [False, True, False]
        assert res[1].diverged_at % B
    for idx, (a, b) in enumerate(zip(ref, res)):
        _assert_same_result(a, b, (width, idx))


def _weight_row_cases():
    """Runs as (problem, [(model, alpha, beta)], run_points keywords) of 149
    steps, a count that no block's weight chunks divide (see the test)."""
    rng = np.random.default_rng(55)
    prob2 = _random_instance(rng, 6, u=2)
    gauss = DisturbanceSpec("gaussian", m_zeta=1.5, q_zeta=0.99)
    main = _main_problem()
    alpha, beta = 0.0007647132835707233, 14309.704294513564
    model10 = complete_graph(10, weight=0.0002, theta=0.5)
    return {
        # the second point diverges at step 12, the fourth row of an
        # 8-row chunk and the second of a 2-row one, while the others run on
        "dta-points-diverging": (main, [
            (model10, alpha, beta), (model10, 2 * alpha, 10 * beta),
            (model10, 0.5 * alpha, beta)], dict(
            algorithm="dta", iterations=149, replicas=3, seed=7)),
        "wga-gauss": (main, [(model10, 100.0, None)], dict(
            algorithm="wga", iterations=149, replicas=3, seed=14,
            x0=main.demand, disturbance=gauss)),
        "dta-u2-gauss": (prob2, [(complete_graph(6, theta=0.6),
                                  np.linspace(0.02, 0.06, 6),
                                  np.linspace(0.05, 0.15, 6))], dict(
            algorithm="dta", iterations=149, replicas=3, seed=19,
            disturbance=gauss)),
    }


@pytest.mark.parametrize("rows,chunk", [(7, 1), (17, 2)])
@pytest.mark.parametrize("case", ["dta-points-diverging", "wga-gauss",
                                  "dta-u2-gauss"])
def test_weight_rows_do_not_change_results(monkeypatch, case, rows, chunk):
    # one multiply makes the link weights of C steps, and step i of a block
    # mixes with row i % C.  Against each case's default blocks (64 rows and
    # C = 8 for the three points, 138 or 139 rows and C = 17 for the others),
    # runs with C = 1 and C = 2 must keep every bit; a step that read another
    # step's row would not.  Each block of 149 steps ends in a partial chunk
    # (149 % 64 = 21 = 2 * 8 + 5, 149 % 139 = 10 and 149 % 138 = 11 are
    # under 17, and 17-row blocks hold 8 chunks and a row)
    prob, points, kw = _weight_row_cases()[case]
    B0 = _call_rows(prob, points, kw)
    C0 = engine._weight_rows(B0)
    assert C0 > chunk and kw["iterations"] % B0 % C0
    ref = engine.run_points(prob, points, record_states=True, **kw)
    monkeypatch.setattr(engine, "BLOCK_ROWS", rows)
    B = _call_rows(prob, points, kw)
    assert (B, engine._weight_rows(B)) == (rows, chunk)
    res = engine.run_points(prob, points, record_states=True, **kw)
    if case == "dta-points-diverging":
        assert [r.diverged for r in res] == [False, True, False]
        step = res[1].diverged_at - 1             # its row in the block
        assert step % B0 % C0 and (chunk == 1 or step % B % chunk)
    for idx, (a, b) in enumerate(zip(ref, res)):
        _assert_same_result(a, b, (rows, idx))


@pytest.mark.parametrize("rows", [1, 2, 64])
@pytest.mark.parametrize("R", [1, 3, 20])
def test_traces_are_the_aggregate_of_recomputed_residuals(monkeypatch, R, rows):
    # the engine reduces each block over the replicas as it records it; the
    # whole-trace reduction of the residuals recomputed from the states,
    # replicas as the outer axis of a C-contiguous (R, T+1) array, must give
    # the same bits, also for one-row blocks and rows after a divergence
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    alpha, beta = 0.0007647132835707233, 14309.704294513564
    gauss = DisturbanceSpec("gaussian", m_zeta=4.0, q_zeta=0.99)
    kw = dict(iterations=150, replicas=R, seed=7, record_states=True)
    monkeypatch.setattr(engine, "BLOCK_ROWS", rows)
    for points, S in ((1, 2), (1, 1), (3, 2)):
        assert engine._block_rows(prob.n, prob.u, model.n_edges, lanes=points * R,
                                  S=S, T=kw["iterations"]) == rows
    results = {
        "dta": run(prob, model, algorithm="dta", alpha=alpha, beta=beta, **kw),
        "wga-gauss": run(prob, model, algorithm="wga", alpha=100.0,
                         x0=prob.demand, disturbance=gauss, **kw),
    }
    # one group of three points; the second diverges and is masked out of
    # the recording while the others run on
    group = list(engine.run_points(
        prob, [(model, alpha, beta), (model, 2 * alpha, 50 * beta),
               (model, 0.5 * alpha, beta)], algorithm="dta", **kw))
    assert [r.diverged for r in group] == [False, True, False]
    # mid-block for 2- and 64-row blocks
    assert group[1].diverged_at % 2 and group[1].diverged_at % 64
    results.update((f"group-{i}", r) for i, r in enumerate(group))
    for tag, res in results.items():
        per = _per_replica(res, prob)                           # (T+1, R) each
        for name in TRACE_COLUMNS:
            expect = aggregate(np.ascontiguousarray(per[name].T))
            assert _same_bits(res.traces[name], expect), (tag, name)


def test_engine_memory_does_not_grow_with_replica_traces():
    # n = 10, R = 20: per-replica traces would add R (T+1) 4 8 bytes, 2.24 MB
    # from T = 500 to T = 4000, where the aggregates add 112 KB.  The block's
    # draw and state buffers are the same size at both T.
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    R = 20

    def peak(T):
        tracemalloc.start()
        try:
            run(prob, model, algorithm="dta", alpha=0.0007647132835707233,
                beta=14309.704294513564, iterations=T, replicas=R, seed=5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(500)       # the first call also allocates one-off caches
    grow = peak(4000) - peak(500)
    per_replica = R * (4000 - 500) * 4 * 8
    assert grow < per_replica / 8, f"peak grew {grow} B, per-replica traces {per_replica} B"


@pytest.mark.parametrize("n,T,R,spans", [
    pytest.param(10, 200, 2000, 3, id="10-200"),
    pytest.param(10, 2000, 2000, 3, id="10-2000"),
    pytest.param(100, 200, 20, 4, id="100-200"),
    pytest.param(100, 2000, 20, 4, id="100-2000"),
    pytest.param(10, 2000, 1, 1, id="10-2000-R1"),
    pytest.param(100, 20, 140, 24, id="100-20-R140"),
])
def test_footprint_covers_the_measured_peak(n, T, R, spans):
    # the estimate that MEMORY_LIMIT gates must count what a run allocates:
    # at n = 10, R = 2000 each lane's block -- its activations, state rows
    # and `flush` temporaries -- is most of the peak; at n = 100, R = 20 the
    # mixing kernel's term buffer and slot index are.  A one-lane call at
    # n = 10 runs blocks of more than 64 rows, and 140 lanes at n = 100 run
    # 24 lane spans, each with its own activation and weight blocks
    if n == 10:
        prob = _main_problem()
        model = complete_graph(10, weight=0.0002, theta=0.5)
        alpha, beta = 0.0007647132835707233, 14309.704294513564
    else:
        prob = _random_instance(np.random.default_rng(3), n)
        model = complete_graph(n, theta=0.5)
        alpha, beta = 0.05, 0.2
    B = engine._block_rows(prob.n, prob.u, model.n_edges, lanes=R, S=2, T=T)
    assert B > 64 if R == 1 else B == (64 if n == 10 else 10)
    width = engine._kernel_width(model.n_edges, 2, prob.u, R)
    assert -(-R // min(width, R)) == spans
    need = engine._footprint(prob.n, prob.u, model.n_edges, points=1, R=R, T=T,
                             algorithm="dta", record_states=False, disturbed=False)
    tracemalloc.start()
    try:
        res = run(prob, model, algorithm="dta", alpha=alpha, beta=beta,
                  iterations=T, replicas=R, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not res.diverged
    assert need >= 0.75 * peak, f"estimated {need} B, peak {peak} B"


def test_blocks_are_no_longer_than_the_run():
    # a 3-step run at n = 10, R = 20 allocates 3-row blocks, not 64-row
    # ones: the estimate falls by more than the 64-row activations that go,
    # and the run keeps every bit of one made with 64-row blocks
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    kw = dict(algorithm="dta", alpha=0.0007647132835707233,
              beta=14309.704294513564, iterations=3, replicas=20, seed=9,
              record_states=True)
    E = model.n_edges

    def need(T):
        return engine._footprint(prob.n, prob.u, E, points=1, R=20, T=T,
                                 algorithm="dta", record_states=False,
                                 disturbed=False)

    assert engine._block_rows(prob.n, prob.u, E, lanes=20, S=2, T=3) == 3
    assert engine._block_rows(prob.n, prob.u, E, lanes=20, S=2, T=64) == 64
    assert engine._block_rows(prob.n, prob.u, E, lanes=20, S=2, T=0) == 1
    assert need(3) < need(64) - 20 * (64 - 3) * E
    ref = run(prob, model, **kw)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "_block_rows", lambda *args, **kwargs: 64)
        res = run(prob, model, **kw)
    _assert_same_result(ref, res, "64 rows")


def test_footprint_counts_the_kernel_once_per_tile():
    # at n = 100, R = 20 the kernel runs in tiles of 5 lanes per operand:
    # the estimate measured 1.00 x the `tracemalloc` peak (T = 200 and
    # 2000), where counting the kernel's terms and slot index per lane
    # reads 2.26 x, so 1.25 x separates the two
    prob, R, T = _random_instance(np.random.default_rng(3), 100), 20, 200
    model = complete_graph(100, theta=0.5)
    need = engine._footprint(prob.n, prob.u, model.n_edges, points=1, R=R, T=T,
                             algorithm="dta", record_states=False, disturbed=False)
    tracemalloc.start()
    try:
        res = run(prob, model, algorithm="dta", alpha=0.05, beta=0.2,
                  iterations=T, replicas=R, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not res.diverged
    assert need <= 1.25 * peak, f"estimated {need} B, peak {peak} B"


# (B, lane spans) of each footprint case by algorithm, points and u: one
# point's 4 lanes take the per-call term of B, and 3 points at R = 83
# (249 lanes) the per-lane one; at u = 3 those 249 lanes run as two spans,
# of 125 and 124 lanes
FOOTPRINT_SHAPES = {("dta", 1, 1): (86, 1), ("dta", 1, 3): (41, 1),
                    ("dta", 3, 1): (64, 1), ("dta", 3, 3): (34, 2),
                    ("wga", 1, 1): (119, 1), ("wga", 1, 3): (68, 1),
                    ("wga", 3, 1): (64, 1), ("wga", 3, 3): (34, 2)}


@pytest.mark.parametrize("u", [1, 3])
@pytest.mark.parametrize("record_states", [False, True], ids=["no-states", "states"])
@pytest.mark.parametrize("points", [1, 3])
@pytest.mark.parametrize("kind", ["none", "gaussian", "laplace", "impulse"])
@pytest.mark.parametrize("algorithm", ["dta", "wga"])
def test_footprint_covers_every_branch(algorithm, kind, points, record_states, u):
    # every term `_footprint` estimates -- WGA's one state, the disturbance
    # buffers, several points, recorded states and u > 1 -- stays within
    # 0.75 and 1.25 times the `tracemalloc` peak of the run it estimates
    n, T = 10, 128
    R = 4 if points == 1 else 83
    prob = _random_instance(np.random.default_rng(3), n, u)
    models = [complete_graph(n, theta=th) for th in (0.5, 0.3, 0.8)[:points]]
    call = [(m, 0.05, 0.2 if algorithm == "dta" else None) for m in models]
    dist = (None if kind == "none" else DisturbanceSpec(
        kind, m_zeta=1.0, q_zeta=0.99, cutoff=T // 2 if kind == "impulse" else None))
    E, S, lanes = models[0].n_edges, 2 if algorithm == "dta" else 1, points * R
    width = engine._kernel_width(E, S, u, lanes)
    assert (engine._block_rows(n, u, E, lanes=lanes, S=S, T=T),
            -(-lanes // min(width, lanes))) == FOOTPRINT_SHAPES[algorithm, points, u]
    need = engine._footprint(n, u, E, points=points, R=R, T=T, algorithm=algorithm,
                             record_states=record_states, disturbed=dist is not None)
    tracemalloc.start()
    try:
        results = engine.run_points(prob, call, algorithm=algorithm, iterations=T,
                                    replicas=R, seed=5, disturbance=dist,
                                    record_states=record_states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(r.diverged for r in results)
    assert 0.75 * peak <= need <= 1.25 * peak, f"estimated {need} B, peak {peak} B"


def test_run_points_requires_shared_edges_and_weights():
    prob = _main_problem()
    alpha, beta = 0.0007647132835707233, 14309.704294513564
    base = complete_graph(10, weight=0.0002, theta=0.5)
    for other in (complete_graph(10, weight=0.0003, theta=0.5),
                  build_model(10, base.edges[:-1], 0.0002, 0.5)):
        with pytest.raises(ValueError, match="share the edges and weights"):
            engine.run_points(prob, [(base, alpha, beta), (other, alpha, beta)],
                              iterations=5)
    with pytest.raises(ValueError, match="no points"):
        engine.run_points(prob, [], iterations=5)


def test_uniform_vector_plan_equals_scalar_plan():
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    al, be = 0.0007647132835707233, 14309.704294513564
    kw = dict(iterations=200, replicas=2, seed=9, record_states=True)
    r_s = run(prob, model, algorithm="dta", alpha=al, beta=be, **kw)
    r_v = run(prob, model, algorithm="dta",
              alpha=np.full(10, al), beta=np.full(10, be), **kw)
    # WGA takes its alpha as the same column
    w_s = run(prob, model, algorithm="wga", alpha=100.0, **kw)
    w_v = run(prob, model, algorithm="wga", alpha=np.full(10, 100.0), **kw)
    for ref, res in ((r_s, r_v), (w_s, w_v)):
        for name in ref.traces:
            assert np.array_equal(ref.traces[name], res.traces[name])
        assert _same_bits(ref.states_x, res.states_x)
        assert _same_bits(ref.states_y, res.states_y)


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
    assert tr.shape == (T + 1,)
    assert np.isnan(tr[res.diverged_at + 1:]).all()
    assert np.isfinite(tr[:res.diverged_at]).all()
    per = _per_replica(res, prob)["optimality_distance"]         # (T+1, R)
    assert np.isnan(per[res.diverged_at + 1:]).all()
    assert np.isfinite(per[:res.diverged_at]).all()
    for states in (res.states_x, res.states_y):
        assert np.isnan(states[res.diverged_at + 1:]).all()
        assert np.isfinite(states[:res.diverged_at]).all()


def _main_plan(algorithm):
    """main.yaml's optimal plan for DTA, or a stable WGA stepsize."""
    return ((0.0007647132835707233, 14309.704294513564) if algorithm == "dta"
            else (100.0, None))


@pytest.mark.parametrize("algorithm", ["dta", "wga"])
@pytest.mark.parametrize("scale", [1e13, 1e200], ids=["past-limit", "overflowing"])
def test_a_start_past_the_limit_diverges_at_row_0(algorithm, scale):
    # at 1e13 row 0's distance, 3.16e13, is finite and past the limit; at
    # 1e200 its squares overflow.  Either way row 0 is recorded and checked
    # like any other row, without a floating-point warning
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    alpha, beta = _main_plan(algorithm)
    x0 = np.full((10, 1), scale)
    R = 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(prob, model, algorithm=algorithm, alpha=alpha, beta=beta,
                  iterations=200, replicas=R, seed=7, x0=x0, record_states=True,
                  disturbance=DisturbanceSpec("gaussian", m_zeta=1.5, q_zeta=0.99))
    assert res.diverged and (res.diverged_at, res.diverged_replica) == (0, 0)
    # no row's conservation drift was measured (WGA has none to measure)
    assert np.isnan(res.max_conservation_drift)
    xs = np.broadcast_to(x0, (R, 10, 1))
    ys = xs - prob.demand if algorithm == "dta" else None
    with np.errstate(over="ignore", invalid="ignore"):
        start = residuals(xs, ys, prob)
        for name in TRACE_COLUMNS:
            assert _same_bits(res.traces[name][:1], aggregate(start[name][:, None])), name
            assert np.isnan(res.traces[name][1:]).all(), name
    assert _same_bits(res.final_x, xs) and not np.shares_memory(res.final_x, x0)
    assert (res.states_y is None) == (ys is None)
    assert np.all(res.zeta_total == 0.0)
    for states, start_state in ((res.states_x, xs), (res.states_y, ys)):
        if start_state is not None:
            assert _same_bits(states[0], start_state)
            assert np.isnan(states[1:]).all()


@pytest.mark.parametrize("start", ["zeros", "demand", "offset-tracker"])
def test_the_conservation_drift_covers_row_0(start):
    # 1'y(0) = 1'x(0) - 1'd holds exactly for the zeros and demand starts; a
    # tracker started 0.5 per agent above x(0) - d drifts 10 x 0.5 at row 0
    prob = _main_problem()
    alpha, beta = _main_plan("dta")
    x0 = prob.demand if start == "demand" else np.zeros((10, 1))
    y0 = x0 - prob.demand + 0.5 if start == "offset-tracker" else None
    res = run(prob, complete_graph(10, weight=0.0002, theta=0.5), alpha=alpha,
              beta=beta, iterations=0, replicas=2, x0=x0, y0=y0)
    if y0 is None:
        assert res.max_conservation_drift == 0.0
    else:
        assert res.max_conservation_drift == pytest.approx(5.0, rel=1e-12)


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


@pytest.mark.parametrize("kind", ["gaussian", "laplace", "impulse"])
def test_a_block_of_draws_is_its_rows_drawn_in_parts(kind):
    # rule 1: a block's draws do not depend on B, so one draw of m1 + m2
    # rows is a draw of m1 rows and then one of m2 from the same stream
    spec, m1, m2, n, u = DisturbanceSpec(kind, m_zeta=1.0), 37, 27, 10, 3
    whole = spec.draw(np.random.default_rng(11), (m1 + m2, n, u))
    rng = np.random.default_rng(11)
    parts = np.concatenate((spec.draw(rng, (m1, n, u)), spec.draw(rng, (m2, n, u))))
    assert whole.dtype == np.float64 and _same_bits(whole, parts)
    if kind == "impulse":
        assert set(np.unique(whole)) == {-1.0, 1.0}


def test_laplace_draws_variance_matched():
    # the laplace branch is scaled so its variance matches the gaussian one.
    # With every link silent, WGA's mixing term is zero, so each step is
    # x(k+1) = x(k) + zeta(k) and the state differences are the draws.
    n, u, T, R = 2, 5, 2000, 20
    prob = allocation_problem(quadratic_costs([1.0, 2.0], np.zeros((n, u))),
                              np.zeros((n, u)))
    silent = build_model(n, [(0, 1)], [0.5], 0.0, allow_zero_theta=True)
    spec = DisturbanceSpec("laplace", m_zeta=1.0, q_zeta=0.9999)
    res = run(prob, silent, algorithm="wga", alpha=0.3, iterations=T,
              replicas=R, seed=123, disturbance=spec, record_states=True)
    steps = np.diff(res.states_x, axis=0)                   # (T, R, n, u)
    unit = steps / spec.scales(T, n, u)[:, None, None, None]
    assert unit.size == 400000
    assert unit.var() == pytest.approx(1.0, rel=0.02)


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


def _redrawn_zeta(seed, R, T, n, u, dist):
    """Each replica's zeta(0) .. zeta(T-1) of any kind, (R, T, n, u), drawn
    afresh from the frozen stream protocol and scaled by the envelope."""
    zs = []
    for child in np.random.SeedSequence(seed).spawn(R):
        gz = np.random.default_rng(child.spawn(2)[1])
        if dist.kind == "gaussian":
            zs.append(gz.standard_normal((T, n, u)))
        elif dist.kind == "laplace":
            zs.append(gz.laplace(0.0, 1.0 / np.sqrt(2.0), (T, n, u)))
        else:
            zs.append(np.where(gz.random((T, n, u)) < 0.5, 1.0, -1.0))
    return np.stack(zs) * dist.scales(T, n, u)[:, None, None]


def _zeta_oracle(seed, R, T, n, u, dist):
    """The (T+1, R, u) running sums of zeta(k) over agents, drawn afresh
    from the frozen stream protocol: row k holds the sum of zeta(0) ..
    zeta(k-1), added in step order from zero."""
    sums = _redrawn_zeta(seed, R, T, n, u, dist).sum(axis=2).transpose(1, 0, 2)
    return np.add.accumulate(np.concatenate((np.zeros((1, R, u)), sums)))


def test_diverged_zeta_total_matches_a_redrawn_oracle():
    prob, model, kw = _block_cases()["wga-gauss-diverging"]
    res = run(prob, model, **kw)
    assert res.diverged and res.diverged_at == 6
    acc = _zeta_oracle(kw["seed"], kw["replicas"], kw["iterations"], prob.n,
                       prob.u, kw["disturbance"])
    assert _same_bits(res.zeta_total, acc[res.diverged_at])


def test_sweep_zeta_totals_match_a_redrawn_oracle():
    # the 1e6 point diverges; the others run on to the last step
    prob, points, kw = _sweep_cases()["wga-alpha-sweep-gauss"]
    results = engine.run_points(prob, points, record_states=True, **kw)
    assert [r.diverged for r in results] == [False, True, False, False]
    acc = _zeta_oracle(kw["seed"], kw["replicas"], kw["iterations"], prob.n,
                       prob.u, kw["disturbance"])
    for res in results:
        assert _same_bits(res.zeta_total, acc[res.diverged_at or -1])
        assert res.states_x.flags.c_contiguous and res.states_y is None
    totals = [r.zeta_total for r in results]
    for i, a in enumerate(totals):
        for b in totals[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("algorithm", ["dta", "wga"])
def test_zero_iterations_return_the_start(algorithm):
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    x0 = 0.5 * prob.demand
    R = 3
    res = engine.run_points(
        prob, [(model, 0.0007647132835707233, 14309.704294513564)],
        algorithm=algorithm, iterations=0, replicas=R, seed=7, x0=x0,
        record_states=True,
        disturbance=DisturbanceSpec("gaussian", m_zeta=1.5, q_zeta=0.99))[0]
    y0 = x0 - prob.demand if algorithm == "dta" else None
    xs = np.broadcast_to(x0, (R, *x0.shape))
    ys = None if y0 is None else np.broadcast_to(y0, xs.shape)
    start = residuals(xs, ys, prob)
    for name in TRACE_COLUMNS:
        assert _same_bits(res.traces[name], aggregate(start[name][:, None])), name
    assert _same_bits(res.final_x, xs) and not np.shares_memory(res.final_x, x0)
    assert not np.shares_memory(res.final_x, res.states_x)
    assert _same_bits(res.states_y, None if ys is None else ys[None])
    assert res.zeta_total.shape == (R, 1) and np.all(res.zeta_total == 0.0)
    assert res.states_x.shape == (1, R, 10, 1)
    assert _same_bits(res.states_x[0], xs)
    if algorithm == "dta":
        assert res.states_y.shape == (1, R, 10, 1)
        assert res.max_conservation_drift == 0.0
    else:
        assert res.states_y is None and res.wga_drift_err == 0.0
    assert not res.diverged


def test_wga_drift_excludes_initial_infeasibility():
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    dist = DisturbanceSpec("gaussian", m_zeta=4.0, q_zeta=0.999)
    # x0 = 0 starts 1'd away from feasibility; WGA keeps that offset
    res = run(prob, model, algorithm="wga", alpha=100.0,
              iterations=800, replicas=3, seed=44, disturbance=dist,
              record_states=True)
    assert _per_replica(res, prob)["feasibility_gap"][0, 0] > 1.0
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
    for bad in (dict(replicas=0), dict(replicas=-1), dict(replicas=2.0),
                dict(replicas=True), dict(iterations=-1),
                dict(iterations=1.5)):
        kw = {"iterations": 1, "replicas": 1, **bad}
        with pytest.raises(ValueError, match="integer >="):
            run(prob, model, algorithm="dta", alpha=0.1, beta=0.1, **kw)


def test_engine_memory_is_linear_in_links():
    # 44 850 links: a dense E x n incidence alone would take 102.6 MiB, while
    # the kernel's own buffers are O(E) (one operand's term buffer at a time,
    # 2 E 8 B = 0.7 MiB).  At one lane the per-link arrays are much of the
    # peak, so the estimate must count them too: it measured 0.99 x the peak
    prob = _random_instance(np.random.default_rng(3), 300)
    model = complete_graph(300, theta=0.5)
    need = engine._footprint(prob.n, prob.u, model.n_edges, points=1, R=1, T=3,
                             algorithm="dta", record_states=False, disturbed=False)
    tracemalloc.start()
    try:
        run(prob, model, algorithm="dta", alpha=0.01, beta=0.1,
            iterations=3, replicas=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, f"engine.run peak {peak / 2 ** 20:.1f} MiB"
    assert need >= 0.75 * peak, f"estimated {need} B, peak {peak} B"


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
        assert tr.shape == (51,)
        assert np.isfinite(tr).all()


def test_wga_tracking_trace_is_zero():
    prob = _pair_problem()
    model = _pair_model()
    res = run(prob, model, algorithm="wga", alpha=0.3,
              iterations=10, replicas=1, seed=0, record_states=True)
    assert np.all(res.traces["tracking_norm"] == 0.0)
    assert res.states_y is None


# ------------------------------------------------- randomized differential

def _unequal_fields(ref, res):
    """The names of the RunResult fields in which `res` is not bit-equal to `ref`."""
    bad = []
    for f in dataclasses.fields(engine.RunResult):
        a, b = getattr(ref, f.name), getattr(res, f.name)
        if isinstance(a, dict):
            same = a.keys() == b.keys() and all(_same_bits(a[k], b[k]) for k in a)
        else:
            same = type(a) is type(b) and _same_bits(a, b)
        if not same:
            bad.append(f.name)
    return bad


def _random_start(rng, n, u):
    """x0 for `_random_run`: the default start (None) in half the cases, else
    standard normal entries, scaled by 1e13 in one case of ten, which puts
    row 0 past DIVERGENCE_LIMIT, and by 1e200 in another, whose residual
    squares overflow."""
    draw = rng.random()
    if draw >= 0.5:
        return None
    return rng.standard_normal((n, u)) * (1e13 if draw < 0.1 else 1e200 if draw < 0.2 else 1.0)


def _naive_replay(prob, point, kw, rows):
    """Replica 0's first `rows` states of `point` as `naive_reference` steps
    them, x and y (None for WGA) as (rows, n, u) stacks: W(k) from the
    replica's link stream and zeta(k) redrawn from its disturbance stream."""
    (model, alpha, beta), n, u, dist = point, prob.n, prob.u, kw["disturbance"]
    acts = _replay_acts(kw["seed"], 1, rows - 1, model.n_edges, model.theta)[0]
    zeta = None if dist is None else _redrawn_zeta(kw["seed"], 1, rows - 1, n, u, dist)[0]
    proposals = np.zeros((n, n))
    for (i, j), we in zip(model.edges, model.weights):
        proposals[i, j] = proposals[j, i] = we
    x = np.zeros((n, u)) if kw["x0"] is None else kw["x0"]
    y = x - prob.demand
    xs, ys = [x], [y]
    for k in range(rows - 1):
        active = np.zeros((n, n), bool)
        for e, (i, j) in enumerate(model.edges):
            active[i, j] = active[j, i] = acts[k, e]
        W = naive_weight_matrix(proposals, active)
        z = None if zeta is None else zeta[k]
        if kw["algorithm"] == "dta":
            x, y = naive_dta_step(x, y, W, prob.costs.a, prob.costs.b, alpha, beta, z)
        else:
            x = naive_wga_step(x, W, prob.costs.a, prob.costs.b, alpha, z)
        xs.append(x)
        ys.append(y)
    return np.array(xs), np.array(ys) if kw["algorithm"] == "dta" else None


def _random_run(seed):
    """A run_points call as (problem, points, keywords), drawn from `seed`:
    n 1-7 agents and u 1-3 resources, a random edge subset (non-empty when
    n > 1) with weights under 1 / (max degree + 1), each point's theta
    scalar or per link and its plan shared or per agent over a 20x scale,
    whose top diverges, any disturbance kind, T 0-149 steps and R 1-4
    replicas, a start from `_random_start`, DTA or WGA.  A numpy generator
    draws them uniformly: hypothesis's own strategies lean to their simplest
    values, and drawn with them 38 of 60 examples had no disturbance and 14
    ran no step."""
    rng = np.random.default_rng(seed)
    n, u = int(rng.integers(1, 8)), int(rng.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = rng.random(len(pairs)) < rng.uniform(0.2, 1.0)
    if pairs and not keep.any():
        keep[rng.integers(len(pairs))] = True
    edges = np.array(pairs, dtype=int).reshape(-1, 2)[keep]
    degree = np.bincount(edges.ravel(), minlength=n).max()
    weights = rng.uniform(0.2, 1.0, len(edges)) / (degree + 1)
    algorithm = ("dta", "wga")[rng.integers(2)]
    points = []
    for _ in range(rng.integers(1, 4)):
        theta = rng.uniform(0.05, 1.0, len(edges) if rng.random() < 0.5 else ())
        plan = 20.0 ** rng.random() * (rng.uniform(0.5, 1.5, n) if rng.random() < 0.5 else 1.0)
        model = build_model(n, edges, weights, theta)
        # about a quarter of the points diverge, near the top of the scale
        points.append((model, 0.1 * plan, 0.3 * plan) if algorithm == "dta"
                      else (model, 0.3 * plan, None))
    kind = ("none", "gaussian", "laplace", "impulse")[rng.integers(4)]
    cutoff = int(rng.integers(0, 150)) if kind == "impulse" and rng.random() < 0.5 else None
    dist = None if kind == "none" else DisturbanceSpec(
        kind, m_zeta=rng.uniform(0.1, 5.0), q_zeta=rng.uniform(0.5, 0.999), cutoff=cutoff)
    kw = dict(algorithm=algorithm, iterations=int(rng.integers(0, 150)),
              replicas=int(rng.integers(1, 5)), seed=int(rng.integers(2 ** 16)),
              x0=_random_start(rng, n, u), disturbance=dist)
    return _random_instance(rng, n, u), points, kw


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_runs_agree_across_points_blocks_and_tiles(seed):
    # (a) each point of a run_points call is bit-equal, in every RunResult
    # field, to a run of it alone; (b) 1-, 3- and 7-row blocks, and kernel
    # tiles narrower than one tile of every operand, change no bit; (d) a
    # zeta total of any kind is the redrawn sum up to the point's last
    # recorded step; (c) at R = 1, the states agree with naive message
    # passing.  The constants are patched within each example: the
    # function-scoped monkeypatch fixture would be shared by all of them
    prob, points, kw = _random_run(seed)
    ref = engine.run_points(prob, points, record_states=True, **kw)
    for (model, alpha, beta), res in zip(points, ref):
        alone = run(prob, model, alpha=alpha, beta=beta, record_states=True, **kw)
        assert _unequal_fields(alone, res) == []
    E, u, lanes = points[0][0].n_edges, prob.u, len(points) * kw["replicas"]
    S = 2 if kw["algorithm"] == "dta" else 1
    variants = [("BLOCK_ROWS", rows) for rows in (1, 3, 7)]
    if E and S * lanes > 1:
        # a budget of 1 .. S lanes - 1 lanes' terms: two tiles or more
        variants.append(("KERNEL_BYTES", 32 * E * u * (1 + seed % (S * lanes - 1))))
    for name, value in variants:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(engine, name, value)
            if name == "KERNEL_BYTES":
                assert engine._kernel_width(E, S, u, lanes) < S * lanes
            else:
                # the forced rows, or one block when the run is shorter
                assert _call_rows(prob, points, kw) == min(value, max(1, kw["iterations"]))
            got = engine.run_points(prob, points, record_states=True, **kw)
        for a, b in zip(ref, got):
            assert _unequal_fields(a, b) == [], (name, value)
    dist, T = kw["disturbance"], kw["iterations"]
    if dist is not None:
        acc = _zeta_oracle(kw["seed"], kw["replicas"], T, prob.n, u, dist)
        for res in ref:
            assert _same_bits(res.zeta_total, acc[T if res.diverged_at is None
                                                  else res.diverged_at])
    if kw["replicas"] == 1:
        # (c) the recorded states agree with naive message passing to 1e-12
        # of each row's largest entry, over the rows before the point's stop
        for point, res in zip(points, ref):
            rows = T + 1 if res.diverged_at is None else res.diverged_at
            if not rows:
                continue
            got = [s[:rows, 0] for s in (res.states_x, res.states_y) if s is not None]
            want = [s for s in _naive_replay(prob, point, kw, rows) if s is not None]
            top = np.max([np.abs(g).max(axis=(1, 2)) for g in got], axis=0)
            for g, w in zip(got, want, strict=True):
                assert (np.abs(g - w).max(axis=(1, 2)) <= 1e-12 * top).all()
