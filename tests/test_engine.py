"""Iteration engine tests: a single step against hand values, the vectorized
multi-replica loop against naive message-passing replays, and the invariants
the updates are supposed to preserve (conservation, mean recursion, fixed
point)."""

import os
import tracemalloc

import numpy as np
import pytest

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
    return residuals(res.states_x, res.states_y, prob, kkt_solve(prob))[0]


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


# ------------------------------------------------- determinism / chunking

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


def test_chunk_size_does_not_change_streams(monkeypatch):
    dist = DisturbanceSpec("laplace", m_zeta=2.0, q_zeta=0.99)
    kw = dict(algorithm="dta", iterations=149, replicas=2, seed=31,
              disturbance=dist, record_states=True)
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
        assert np.array_equal(r_big.states_x, r_odd.states_x)
        assert np.array_equal(r_big.states_y, r_odd.states_y)
        assert np.array_equal(r_big.zeta_total, r_odd.zeta_total)


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
    main = _main_problem()
    model10 = complete_graph(10, weight=0.0002, theta=0.5)
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
    }


RESULT_FIELDS = ("final_x", "final_y", "states_x", "states_y",
                 "max_conservation_drift", "zeta_total", "wga_drift_err")


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_result(ref, res, tag):
    """Every trace, state and diagnostic of `res` is bit-equal to `ref`."""
    assert set(ref.traces) == set(res.traces)
    for name in ref.traces:
        assert _same_bits(ref.traces[name], res.traces[name]), (tag, name)
    for attr in RESULT_FIELDS:
        assert _same_bits(getattr(ref, attr), getattr(res, attr)), (tag, attr)
    assert (res.diverged, res.diverged_at, res.diverged_replica) == (
        ref.diverged, ref.diverged_at, ref.diverged_replica), tag


@pytest.mark.parametrize("case", ["dta-u3-per-agent-gauss", "wga-gauss",
                                  "dta-diverging", "wga-gauss-diverging"])
def test_block_size_does_not_change_results(monkeypatch, case):
    prob, model, kw = _block_cases()[case]
    ref = run(prob, model, record_states=True, **kw)
    if case.endswith("diverging"):
        # mid-block for the default 64-row block and for 7-row blocks
        assert ref.diverged and ref.diverged_at % 64 and ref.diverged_at % 7

    # one row steps from the carry row alone; two and seven also step within
    for rows in (1, 2, 7):
        with monkeypatch.context() as m:
            m.setattr(engine, "BLOCK_ROWS", rows)
            res = run(prob, model, record_states=True, **kw)
        _assert_same_result(ref, res, rows)


def _sweep_cases():
    """Sweeps as (problem, [(model, alpha, beta)], run_points keywords)."""
    rng = np.random.default_rng(53)
    prob3 = _random_instance(rng, 6, u=3)
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
        # diverges at step 7 while points with other thetas run on, past the
        # first 1456-step draw chunk
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
    }


SWEEP_CASES = ["beta-sweep-diverging", "theta-sweep-with-zero",
               "mixed-theta-and-plan", "wga-alpha-sweep-gauss", "per-agent-u3"]


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
    # lanes are compacted out while later points run on
    prob, points, kw = _sweep_cases()["beta-sweep-diverging"]
    alone = [run(prob, model, alpha=alpha, beta=beta, record_states=True, **kw)
             for model, alpha, beta in points]
    monkeypatch.setattr(engine, "BLOCK_ROWS", rows)
    lanes = list(engine.run_points(prob, points, record_states=True, **kw))
    assert [r.diverged_at for r in lanes] == [None, 275, None, 204, 426]
    for idx, (ref, res) in enumerate(zip(alone, lanes)):
        _assert_same_result(ref, res, (rows, idx))
    finals = [a for r in lanes for a in (r.final_x, r.final_y)]
    for i, a in enumerate(finals):
        for b in finals[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("rows", [1, 2, engine.BLOCK_ROWS])
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
    results = {
        "dta": run(prob, model, algorithm="dta", alpha=alpha, beta=beta, **kw),
        "wga-gauss": run(prob, model, algorithm="wga", alpha=100.0,
                         x0=prob.demand, disturbance=gauss, **kw),
    }
    # one group of three points; the second diverges and is compacted out
    # while the others run on
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


def test_engine_memory_does_not_grow_with_replica_traces(monkeypatch):
    # n = 10, R = 20: per-replica traces would add R (T+1) 4 8 bytes, 2.24 MB
    # from T = 500 to T = 4000, where the aggregates add 112 KB.  The draw
    # chunk is held at 250 steps, so its buffers are the same size at both T.
    prob = _main_problem()
    model = complete_graph(10, weight=0.0002, theta=0.5)
    R = 20
    monkeypatch.setattr(engine, "DRAW_BYTES", 8 * model.n_edges * 250)

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


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_trace_budget_does_not_change_results(monkeypatch, case):
    prob, points, kw = _sweep_cases()[case]
    ref = list(engine.run_points(prob, points, record_states=True, **kw))
    per_point = engine._point_bytes(
        prob.n, prob.u, points[0][0].n_edges, R=kw["replicas"],
        T=kw["iterations"], algorithm=kw["algorithm"], record_states=True)
    # one point per group, two per group, then every point in one group
    for budget in (1, 2 * per_point, 2 ** 40):
        with monkeypatch.context() as m:
            m.setattr(engine, "GROUP_BYTES", budget)
            got = list(engine.run_points(prob, points, record_states=True, **kw))
        assert len(got) == len(ref)
        for idx, (a, b) in enumerate(zip(ref, got)):
            _assert_same_result(a, b, (budget, idx))


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
    # the kernel's own buffers are O(E) (the term buffer is 2 E S 8 B = 1.4 MiB)
    prob = _random_instance(np.random.default_rng(3), 300)
    model = complete_graph(300, theta=0.5)
    tracemalloc.start()
    try:
        run(prob, model, algorithm="dta", alpha=0.01, beta=0.1,
            iterations=3, replicas=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, f"engine.run peak {peak / 2 ** 20:.1f} MiB"


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
              iterations=10, replicas=1, seed=0)
    assert np.all(res.traces["tracking_norm"] == 0.0)
    assert res.final_y is None
