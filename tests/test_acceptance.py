"""Acceptance suite: one test per shipped claim, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  These are end-to-end checks on the shipped experiment configs —
Monte-Carlo convergence measurements, stepsize-region sweeps, disturbance
resilience, algebraic invariants, and oracle cross-checks.  Unit-level
behavior lives in the other test modules.  The whole module runs 20-replica
simulations; it took 37.6 s on a 2-core Xeon VM.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from dtalloc import (
    DisturbanceSpec,
    allocation_problem,
    build_model,
    constants,
    empirical_rate,
    expected_weight_matrix,
    feasible_region_uncoordinated,
    kkt_solve,
    loglinear_r2,
    non_convergent,
    quadratic_costs,
    residuals,
    run,
    run_points,
    spectral_report,
)
from dtalloc.config import load_config, resolve, sweep_point
from naive_reference import (
    naive_dta_step,
    naive_kkt_projected_gradient,
    naive_weight_matrix,
)
from network_oracles import sample_batch

HERE = os.path.dirname(os.path.abspath(__file__))
EXPERIMENTS = os.path.join(HERE, os.pardir, "experiments")


def _cfg(name):
    return os.path.join(EXPERIMENTS, name)


def _line(name, ok, detail):
    """The one visible verdict line per criterion; printed before asserting
    so a failure still shows its measurements."""
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def _run_points(points, *, alpha=None, beta=None, algorithm=None, seed=None,
                **over):
    """Run resolved points (one config, or sweep points of one) as lanes of
    one `run_points` call: one result per point, each bit-identical to a
    separate `run`."""
    res = points[0]
    cfg = res.config
    algorithm = cfg.engine.algorithm if algorithm is None else algorithm
    kw = dict(
        algorithm=algorithm,
        iterations=cfg.engine.iterations,
        replicas=cfg.engine.replicas,
        seed=cfg.seed if seed is None else seed,
        x0=res.x0,
        disturbance=res.disturbance,
    )
    kw.update(over)
    return run_points(res.problem, [
        (p.model, p.alpha if alpha is None else alpha,
         None if algorithm == "wga" else p.beta if beta is None else beta)
        for p in points], **kw)


def _run_resolved(res, **kw):
    return _run_points([res], **kw)[0]


def _run_sweep(res, axis, values):
    return _run_points([sweep_point(res, axis, v) for v in values])


def _ratio(result):
    agg = result.traces["optimality_distance"]
    return agg, agg[-1] / agg[0]


@pytest.fixture(scope="module")
def main_run():
    res = resolve(load_config(_cfg("main.yaml")))
    t0 = time.perf_counter()
    out = _run_resolved(res)
    elapsed = time.perf_counter() - t0
    return res, out, elapsed


# ---------------------------------------------------------------------- 1

def test_ac01_linear_convergence_over_stochastic_network(main_run):
    res, out, elapsed = main_run
    agg, ratio = _ratio(out)
    r2 = loglinear_r2(agg)
    ok = (not out.diverged) and ratio <= 1e-6 and r2 >= 0.98 and elapsed <= 60.0
    _line("AC-1", ok,
          f"final/initial ms residual {ratio:.3e} (need <= 1e-06), "
          f"log-linear R^2 {r2:.6f} (need >= 0.98), "
          f"runtime {elapsed:.1f}s (budget 60s)")


# ---------------------------------------------------------------------- 2

def test_ac02_rate_monotone_in_alpha():
    res = resolve(load_config(_cfg("alpha_sweep.yaml")))
    values = res.config.sweep.values
    qs = []
    for out in _run_sweep(res, "alpha", values):
        agg = out.traces["optimality_distance"]
        qs.append(empirical_rate(agg, k_end=res.k_end, window=res.window).q)
    slack_ok = all(qs[i + 1] <= qs[i] + 1e-3 for i in range(len(qs) - 1))
    pairs = ", ".join(f"{v}x:{q:.6f}" for v, q in zip(values, qs))
    _line("AC-2", slack_ok,
          f"q_n non-increasing across alpha multipliers (1e-3 slack): {pairs}")


# ---------------------------------------------------------------------- 3

def test_ac03_beta_sweep_argmin_near_optimal():
    res = resolve(load_config(_cfg("beta_sweep.yaml")))
    values = res.config.sweep.values
    qs = {}
    for v, out in zip(values, _run_sweep(res, "beta", values)):
        if out.diverged:
            qs[v] = np.inf
            continue
        agg = out.traces["optimality_distance"]
        qs[v] = empirical_rate(agg, k_end=res.k_end, window=res.window).q
    argmin = min(qs, key=qs.get)
    nearest3 = sorted(sorted(values, key=lambda v: abs(v - 1.0))[:3])
    ok = argmin in nearest3
    finite = {v: q for v, q in qs.items() if np.isfinite(q)}
    _line("AC-3", ok,
          f"argmin multiplier {argmin} within three grid points nearest "
          f"beta_op {nearest3}; q at argmin {finite[argmin]:.6f}, "
          f"{sum(np.isinf(q) for q in qs.values())} grid points diverged")


# ---------------------------------------------------------------------- 4

def test_ac04_disturbance_resilience():
    ratios = {}
    for name in ("disturbance_gaussian", "disturbance_laplace",
                 "disturbance_impulse"):
        res = resolve(load_config(_cfg(name + ".yaml")))
        out = _run_resolved(res)
        _, ratios[res.disturbance.kind] = _ratio(out)
    ok = all(r <= 1e-4 for r in ratios.values())
    detail = ", ".join(f"{k}: {r:.3e}" for k, r in ratios.items())
    _line("AC-4", ok, f"ms residual ratio at k=25000 (need <= 1e-04): {detail}")


# ---------------------------------------------------------------------- 5

def test_ac05_wga_not_resilient():
    res = resolve(load_config(_cfg("compare.yaml")))
    out_dta = _run_resolved(res, algorithm="dta")
    out_wga = _run_resolved(res, algorithm="wga", alpha=res.wga_alpha)
    _, ratio_dta = _ratio(out_dta)
    _, ratio_wga = _ratio(out_wga)
    gap_err = out_wga.wga_drift_err
    plateau = ratio_wga / ratio_dta
    ok = gap_err <= 1e-9 and plateau >= 100.0
    _line("AC-5", ok,
          f"wga feasibility gap vs summed disturbance err {gap_err:.3e} "
          f"(need <= 1e-09); wga/dta terminal residual ratio {plateau:.3e} "
          f"(need >= 100)")


# ---------------------------------------------------------------------- 6

def test_ac06_theta_sweep_convergence_and_silent_flag():
    res = resolve(load_config(_cfg("theta_sweep.yaml")))
    thetas = (0.9, 0.1, 0.05, 0.03, 0.02, 0.01)
    *outs, out0 = _run_sweep(res, "theta", (*thetas, 0.0))
    ratios = {t: _ratio(out)[1] for t, out in zip(thetas, outs)}
    agg0, ratio0 = _ratio(out0)
    flagged = non_convergent(agg0, k_end=res.k_end)
    conv_ok = all(r <= 1e-6 for r in ratios.values())
    ok = conv_ok and flagged
    detail = ", ".join(f"{t}: {r:.1e}" for t, r in ratios.items())
    _line("AC-6", ok,
          f"ratios (need <= 1e-06): {detail}; theta=0 plateau {ratio0:.3f} "
          f"flagged non-convergent={flagged}")


# ---------------------------------------------------------------------- 7

def test_ac07_uncoordinated_plans():
    res = resolve(load_config(_cfg("uncoordinated.yaml")))
    cfg = res.config
    n = res.problem.n
    rng = np.random.default_rng(20260818)
    plans = [(rng.uniform(0.01, 0.02, n), rng.uniform(2.4, 3.0, n))
             for _ in range(20)]
    verdicts = [feasible_region_uncoordinated(res.rc, al, be) for al, be in plans]
    all_inside = all(v.feasible for v in verdicts)

    def q_of(alpha, beta):
        out = _run_resolved(res, alpha=alpha, beta=beta)
        agg = out.traces["optimality_distance"]
        est = empirical_rate(agg, k_end=res.k_end, window=res.window)
        return est.q, agg[-1] / agg[0], out.diverged

    a_all = np.concatenate([al for al, _ in plans])
    q_hi, _, _ = q_of(np.full(n, a_all.max()), np.full(n, 2.7))
    q_lo, _, _ = q_of(np.full(n, a_all.min()), np.full(n, 2.7))
    lo_band, hi_band = q_hi - 0.01, q_lo + 0.01

    qs, worst_ratio, any_div = [], 0.0, False
    for al, be in plans:
        q, rr, div = q_of(al, be)
        qs.append(q)
        worst_ratio = max(worst_ratio, rr)
        any_div = any_div or div
    in_band = all(lo_band <= q <= hi_band for q in qs)
    converged = (not any_div) and worst_ratio <= 1e-6
    ok = all_inside and converged and in_band
    _line("AC-7", ok,
          f"20/20 plans inside the per-agent region={all_inside}; all "
          f"converge (worst ratio {worst_ratio:.1e})={converged}; q_n in "
          f"[{lo_band:.4f}, {hi_band:.4f}] (measured "
          f"[{min(qs):.4f}, {max(qs):.4f}])={in_band}")


# ---------------------------------------------------------------------- 8

def _random_scan_model(rng, nmax=9):
    """Random connected weighted graph + curvature vector (property scans)."""
    nn = int(rng.integers(3, nmax))
    while True:
        mask = rng.random((nn, nn)) < 0.6
        E = [(i, j) for i in range(nn) for j in range(i + 1, nn) if mask[i, j]]
        adj = {i: set() for i in range(nn)}
        for i, j in E:
            adj[i].add(j)
            adj[j].add(i)
        seen, stack = {0}, [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) == nn and E:
            break
    deg = np.zeros(nn)
    for i, j in E:
        deg[i] += 1
        deg[j] += 1
    w = [float(rng.uniform(0.05, 0.95)) / max(deg[i], deg[j]) for i, j in E]
    th = [float(rng.uniform(0.05, 0.95)) for _ in E]
    a = rng.uniform(0.1, 3.0, nn)
    return nn, E, w, th, a


def _mixing_operator(a, W):
    """Centered gradient-mixing map (I - 11'/n) Gamma (I - W)."""
    nn = len(a)
    G = np.diag(2.0 * a)
    L = np.eye(nn) - np.full((nn, nn), 1.0 / nn)
    return L @ G @ (np.eye(nn) - W)


def test_ac08_operator_property_suites():
    # --- sandwich: K1 ||v|| <= ||T v|| <= K2 ||v|| on centered vectors,
    # constants evaluated at the realized all-links-up spectrum
    rng1 = np.random.default_rng(7)
    viol_sandwich = 0
    for _ in range(200):
        nn, E, w, th, a = _random_scan_model(rng1)
        model = build_model(nn, E, w, 1.0)
        rep = spectral_report(model)
        rc = constants(quadratic_costs(a, np.zeros((nn, 1))), rep)
        T = _mixing_operator(a, expected_weight_matrix(model))
        for _ in range(50):
            v = rng1.standard_normal(nn)
            v -= v.mean()
            r = np.linalg.norm(T @ v) / np.linalg.norm(v)
            if not (rc.k1 - 1e-12 <= r <= rc.k2 + 1e-12):
                viol_sandwich += 1

    # --- mean-square contraction: exact expected quadratic form on the
    # 1-perp subspace stays under 1 + b^2 K2^2 - 2 b K1, and a Monte-Carlo
    # estimate of E||(I - b T(k)) v||^2 agrees within 3 sigma
    rng2 = np.random.default_rng(20260818)
    kept = viol_exact = viol_mc = 0
    worst_slack = np.inf
    for idx in range(100):
        nn = int(rng2.integers(3, 10))
        while True:
            mask = rng2.random((nn, nn)) < 0.6
            E = [(i, j) for i in range(nn) for j in range(i + 1, nn)
                 if mask[i, j]]
            adj = {i: set() for i in range(nn)}
            for i, j in E:
                adj[i].add(j)
                adj[j].add(i)
            seen, stack = {0}, [0]
            while stack:
                u = stack.pop()
                for v_ in adj[u]:
                    if v_ not in seen:
                        seen.add(v_)
                        stack.append(v_)
            if len(seen) == nn and E:
                break
        deg = np.zeros(nn)
        for i, j in E:
            deg[i] += 1
            deg[j] += 1
        w = [float(rng2.uniform(0.05, 0.95)) / max(deg[i], deg[j])
             for i, j in E]
        th = [float(rng2.uniform(0.05, 0.95)) for _ in E]
        a = float(rng2.uniform(0.05, 2.0)) * rng2.uniform(0.8, 1.2, nn)

        model = build_model(nn, E, w, np.asarray(th))
        rep = spectral_report(model)
        if rep.rho_mean_gap >= 1 - 1e-9:
            continue
        kept += 1
        rc = constants(quadratic_costs(a, np.zeros((nn, 1))), rep)
        beta = float(rng2.uniform(0.1, 0.9)) * 2 * rc.k1 / rc.k2**2

        G = np.diag(2.0 * a)
        L = np.eye(nn) - np.full((nn, nn), 1.0 / nn)
        EW = expected_weight_matrix(model)
        Tbar = L @ G @ (np.eye(nn) - EW)
        Msym = np.eye(nn) - beta * (Tbar + Tbar.T)
        Msym += beta**2 * ((np.eye(nn) - EW) @ G @ L @ G @ (np.eye(nn) - EW))
        for (i, j), m, t in zip(model.edges, model.weights, model.theta):
            Be = np.zeros((nn, nn))
            Be[i, i] = Be[j, j] = m
            Be[i, j] = Be[j, i] = -m
            Msym += beta**2 * t * (1 - t) * (Be @ G @ L @ G @ Be)
        ones = np.ones((nn, 1)) / np.sqrt(nn)
        Q = np.linalg.qr(
            np.hstack([ones, rng2.standard_normal((nn, nn - 1))]))[0][:, 1:]
        lam_max = np.linalg.eigvalsh(Q.T @ Msym @ Q).max()
        bound = 1 + beta**2 * rc.k2**2 - 2 * beta * rc.k1
        worst_slack = min(worst_slack, bound - lam_max)
        if lam_max > bound + 1e-12:
            viol_exact += 1

        # Monte-Carlo check on a fixed unit vector orthogonal to 1
        v = Q[:, 0]
        S = 3000
        mc_rng = np.random.default_rng((20260818, idx))
        ei = model.edges[:, 0]
        ej = model.edges[:, 1]
        coef = model.weights * (v[ei] - v[ej])
        C = np.zeros((model.n_edges, nn))
        C[np.arange(model.n_edges), ei] = coef
        C[np.arange(model.n_edges), ej] = -coef
        acts = (mc_rng.random((S, model.n_edges)) < model.theta)
        t_s = acts.astype(float) @ C            # (I - W_s) v
        gt = 2.0 * a * t_s
        proj = gt - gt.mean(axis=1, keepdims=True)
        vals = ((v[None, :] - beta * proj) ** 2).sum(axis=1)
        sem = vals.std(ddof=1) / np.sqrt(S)
        if vals.mean() > bound + 3.0 * sem + 1e-12:
            viol_mc += 1

    # --- spectral gap of the expected-square matrix stays below one
    rng3 = np.random.default_rng(73)
    viol_gap = 0
    for _ in range(200):
        nn, E, w, th, a = _random_scan_model(rng3)
        model = build_model(nn, E, w, np.asarray(th))
        if spectral_report(model).lambda2_sq >= 1 - 1e-12:
            viol_gap += 1

    ok = (viol_sandwich == 0 and kept == 100 and viol_exact == 0
          and viol_mc == 0 and viol_gap == 0)
    _line("AC-8", ok,
          f"sandwich violations {viol_sandwich}/10000; contraction (100 "
          f"models): exact violations {viol_exact}, worst slack "
          f"{worst_slack:.3e}, MC >3-sigma violations {viol_mc}; "
          f"expected-square gap violations {viol_gap}/200")


# ---------------------------------------------------------------------- 9

def test_ac09_exact_algebraic_invariants(main_run):
    res, out, _ = main_run
    cons = out.max_conservation_drift

    # every replica's tracker mean obeys ybar(k+1) = (1 - alpha) ybar(k)
    ybar = _run_resolved(res, record_states=True).states_y.mean(axis=-2)
    mean_rec = np.abs(ybar[1:] - (1.0 - res.alpha) * ybar[:-1]).max()

    xs = kkt_solve(res.problem).x_star
    fixed = _run_resolved(res, x0=xs, y0=np.zeros_like(xs), replicas=2,
                          record_states=True)
    # each replica's residuals, recomputed from its states
    per = residuals(fixed.states_x, fixed.states_y, res.problem,
                    kkt_solve(res.problem))[0]
    fixed_drift = max(per["optimality_distance"].max(),
                      per["tracking_norm"].max())

    # every W(k) replica 0 drew, replayed from its link stream
    link_seed = np.random.SeedSequence(res.config.seed).spawn(1)[0].spawn(2)[0]
    W, _ = sample_batch(res.model, np.random.default_rng(link_seed),
                        res.config.engine.iterations)
    ds_err = max(np.abs(W.sum(axis=-1) - 1.0).max(),
                 np.abs(W.sum(axis=-2) - 1.0).max(),
                 np.abs(W - W.swapaxes(-1, -2)).max())
    self_weight = W.diagonal(axis1=-2, axis2=-1).min()

    ok = max(cons, mean_rec, fixed_drift, ds_err) <= 1e-9 and self_weight > 0
    _line("AC-9", ok,
          f"conservation drift {cons:.2e}, mean-recursion err {mean_rec:.2e}, "
          f"fixed-point drift {fixed_drift:.2e}, double-stochasticity err "
          f"{ds_err:.2e} (all need <= 1e-09), least self-weight "
          f"{self_weight:.3e} (need > 0)")


# --------------------------------------------------------------------- 10

def test_ac10_oracle_equivalence():
    # (a) vectorized edge kernel vs per-agent message passing, 1000 steps
    rng = np.random.default_rng(1000)
    n, u, T, theta, seed = 6, 2, 1000, 0.7, 314
    a = rng.uniform(0.5, 2.0, n)
    b = rng.uniform(-1.0, 1.0, (n, u))
    d = rng.uniform(-2.0, 2.0, (n, u))
    problem = allocation_problem(quadratic_costs(a, b), d)
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4), (0, 3)]
    w = rng.uniform(0.05, 0.12, len(edges))
    model = build_model(n, edges, w, theta)
    alpha, beta = 0.05, 0.4

    out = run(problem, model, algorithm="dta", alpha=alpha, beta=beta,
              iterations=T, replicas=1, seed=seed, record_states=True)
    child = np.random.SeedSequence(seed).spawn(1)[0]
    sw, _ = child.spawn(2)
    acts = np.random.default_rng(sw).random((T, model.n_edges)) < theta

    proposals = np.zeros((n, n))
    for (i, j), we in zip(model.edges, model.weights):
        proposals[i, j] = proposals[j, i] = we
    x_n = np.zeros((n, u))
    y_n = x_n - problem.demand
    worst_step = 0.0
    for k in range(T):
        active = np.zeros((n, n), bool)
        for e, (i, j) in enumerate(model.edges):
            if acts[k, e]:
                active[i, j] = active[j, i] = True
        W = naive_weight_matrix(proposals, active)
        x_n, y_n = naive_dta_step(x_n, y_n, W, a, b, alpha, beta)
        worst_step = max(worst_step,
                         np.abs(out.states_x[k + 1, 0] - x_n).max(),
                         np.abs(out.states_y[k + 1, 0] - y_n).max())
    kernels_ok = worst_step <= 1e-12

    # (b) closed-form optimum vs projected-gradient brute force, 100 specs
    worst_kkt = 0.0
    for _ in range(100):
        nn = int(rng.integers(2, 9))
        uu = int(rng.integers(1, 3))
        aa = rng.uniform(0.5, 2.0, nn)
        bb = rng.uniform(-1.0, 1.0, (nn, uu))
        dd = rng.uniform(-2.0, 2.0, (nn, uu))
        prob = allocation_problem(quadratic_costs(aa, bb), dd)
        xs = kkt_solve(prob).x_star
        x_pg = naive_kkt_projected_gradient(aa, bb, dd)
        worst_kkt = max(worst_kkt, np.abs(xs - x_pg).max())
    kkt_ok = worst_kkt <= 1e-8

    ok = kernels_ok and kkt_ok
    _line("AC-10", ok,
          f"kernel agreement over 1000 random steps {worst_step:.2e} "
          f"(need <= 1e-12); kkt vs projected gradient over 100 specs "
          f"{worst_kkt:.2e} (need <= 1e-08)")


# --------------------------------------------------------------------- 11

def test_ac11_byte_identical_reruns(tmp_path):
    cfg = _cfg("main.yaml")
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        proc = subprocess.run(
            [sys.executable, "-m", "dtalloc.cli", "run", cfg,
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    blobs = [(out / "main" / "trace.csv").read_bytes() for out in outs]
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    _line("AC-11", ok,
          f"two CLI invocations, identical seed: trace bytes equal={ok} "
          f"({len(blobs[0])} bytes)")
