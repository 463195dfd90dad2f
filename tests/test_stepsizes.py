"""Contraction constants, feasibility regions, optimizer, predicted rates.

Numeric literals in this file are regression pins computed from the closed
forms at float64 and double-checked against independent implementations.
"""

import os
import warnings

import numpy as np
import pytest

from dtalloc import (build_model, constants,
                     feasible_region_mean, feasible_region_shared,
                     feasible_region_uncoordinated, optimal_stepsizes,
                     plan_constants, predicted_rate, quadratic_costs,
                     spectral_report, wga_default_alpha)
from dtalloc.config import load_config, resolve
from dtalloc.network import complete_edges, metropolis_weights

UNCOORDINATED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "experiments", "uncoordinated.yaml")

A10 = [0.0314, 0.0342, 0.0392, 0.0379, 0.0366, 0.0304, 0.0385, 0.0393, 0.0368, 0.0396]
B10 = [0.352, 0.349, 0.278, 0.331, 0.234, 0.341, 0.206, 0.255, 0.209, 0.219]


def _main_rc():
    model = build_model(10, complete_edges(10), np.full(45, 2e-4), np.full(45, 0.5))
    return constants(quadratic_costs(A10, B10), spectral_report(model))


def _metropolis_rc(theta=0.5):
    edges = complete_edges(10)
    w = metropolis_weights(10, edges)  # 0.1 on the complete graph
    model = build_model(10, edges, w, np.full(45, theta))
    return constants(quadratic_costs(A10, B10), spectral_report(model))


def test_constants_main_instance():
    rc = _main_rc()
    assert rc.eta_lo == pytest.approx(0.0608, abs=1e-15)
    assert rc.phi_hi == pytest.approx(0.0792, abs=1e-15)
    assert rc.c1 == pytest.approx(0.9961396720220796, abs=1e-15)
    assert rc.k1 == pytest.approx(6.0565292058895426e-05, abs=1e-18)
    assert rc.k2 == pytest.approx(7.920000000006162e-05, abs=1e-18)


def test_optimal_stepsizes_main_instance():
    opt = optimal_stepsizes(_main_rc())
    assert opt.alpha == pytest.approx(0.0007647132835707233, abs=1e-18)
    assert opt.beta == pytest.approx(14309.704294513564, abs=1e-9)
    assert opt.active_branch == 0
    expect = [0.0007647132835707233, 0.6043511496702253,
              0.003199739131049567, 0.4943342012679848]
    assert np.allclose(opt.branches, expect, rtol=0, atol=1e-12)


def test_constants_metropolis_regression():
    rc = _metropolis_rc()
    assert rc.k1 == pytest.approx(0.03028264602947122, abs=1e-15)
    assert rc.k2 == pytest.approx(0.0396, abs=1e-15)
    opt = optimal_stepsizes(rc)
    assert opt.alpha == pytest.approx(0.378430246720743, abs=1e-15)
    assert opt.beta == pytest.approx(28.61940858903008, abs=1e-12)
    assert opt.active_branch == 2
    expect = [0.382356641786252, 0.45349010730660033,
              0.378430246720743, 0.4224108805099407]
    assert np.allclose(opt.branches, expect, rtol=0, atol=1e-14)


def test_shared_region_flags_at_metropolis_optimum():
    # the closed-form pair need not satisfy the (sufficient) region checks;
    # on this model the alpha bound and the coupling inequality both fail.
    rc = _metropolis_rc()
    opt = optimal_stepsizes(rc)
    v = feasible_region_shared(rc, opt.alpha, opt.beta)
    assert tuple(v.conditions.values()) == (False, True, False)
    assert not v.feasible
    assert v.alpha_max == pytest.approx(0.30384048104052974, abs=1e-14)
    assert v.beta_max == pytest.approx(38.621883008712246, abs=1e-11)


def test_mean_region_at_metropolis_optimum():
    rc = _metropolis_rc()
    opt = optimal_stepsizes(rc)
    v = feasible_region_mean(rc, opt.alpha, opt.beta)
    assert tuple(v.conditions.values()) == (True, False, True)
    assert v.s1 == pytest.approx(0.12156975327925701, abs=1e-14)
    assert v.s2 == pytest.approx(0.13332858012559368, abs=1e-14)


def test_shared_region_feasible_point():
    rc = _metropolis_rc()
    v = feasible_region_shared(rc, 0.05, 5.0)
    assert v.feasible and tuple(v.conditions.values()) == (True, True, True)
    assert v.s2 == pytest.approx(0.8581244313648738, abs=1e-14)
    assert predicted_rate(rc, 0.05, 5.0) == pytest.approx(0.95, abs=1e-12)


def test_predicted_rate_is_none_outside_region():
    rc = _metropolis_rc()
    opt = optimal_stepsizes(rc)
    assert predicted_rate(rc, opt.alpha, opt.beta) is None


def test_predicted_rate_joins_disturbance_decay():
    rc = _metropolis_rc()
    base = predicted_rate(rc, 0.05, 5.0)
    assert predicted_rate(rc, 0.05, 5.0, q_zeta=0.999) == pytest.approx(
        max(base, 0.999))
    assert predicted_rate(rc, 0.05, 5.0, q_zeta=0.5) == pytest.approx(base)


def test_feasible_grid_argmin_regression():
    # exhaustive search over the guaranteed region reproduces the pinned
    # minimizer of the rate bound
    rc = _metropolis_rc()
    model = build_model(10, complete_edges(10),
                        metropolis_weights(10, complete_edges(10)),
                        np.full(45, 0.5))
    rep = spectral_report(model)
    amax = np.sqrt(2 - rep.lambda2_sq) - 1
    bmax = 2 * rc.k1 / rc.k2 ** 2
    best = (2.0, None, None)
    for ai in range(1, 201):
        al = amax * ai / 201
        for bi in range(1, 201):
            be = bmax * bi / 201
            v = feasible_region_shared(rc, al, be)
            if v.feasible:
                r = predicted_rate(rc, al, be)
                if r < best[0]:
                    best = (r, al, be)
    assert best[0] == pytest.approx(0.9289527233387815, abs=1e-13)
    assert best[1] == pytest.approx(0.0710472766612184, abs=1e-14)
    assert best[2] == pytest.approx(8.646690225831101, abs=1e-12)


def test_optimizer_symbolic_collapse():
    # equal constants and zero spectral gaps give branch values independent
    # of K: [1, 1/3, (sqrt(5)-1)/2, (3-sqrt(5))/2], so alpha_op = 1/3 and
    # beta_op = 1/K
    from dtalloc.stepsizes import RateConstants
    for K in (1.0, 2.5):
        rc = RateConstants(n=10, eta_lo=1.0, phi_hi=1.0, c1=1.0, k1=K, k2=K,
                           lambda2_mean=0.0, lambdan_mean=0.0,
                           lambda2_sq=0.0, lambdan_floor=0.0)
        opt = optimal_stepsizes(rc)
        assert np.allclose(opt.branches,
                           [1.0, 1/3, (np.sqrt(5)-1)/2, (3-np.sqrt(5))/2],
                           rtol=0, atol=1e-15)
        assert opt.alpha == pytest.approx(1/3)
        assert opt.beta == pytest.approx(1.0 / K)


def test_homogeneous_costs_collapse_k1_to_k2():
    # equal curvatures and a single non-unit eigenvalue (n = 2) make the
    # alignment factor exact: K1 == K2
    model = build_model(2, [[0, 1]], [0.25], [0.8])
    rc = constants(quadratic_costs([1.3, 1.3], [0.0, 0.0]),
                   spectral_report(model))
    assert rc.c1 == pytest.approx(1.0, abs=1e-15)
    assert rc.k1 == pytest.approx(rc.k2, rel=1e-15)


def test_single_agent_collapse():
    model = build_model(1, np.zeros((0, 2), int), np.zeros(0), np.zeros(0))
    rc = constants(quadratic_costs([2.0], [0.0]), spectral_report(model))
    assert rc.c1 == 1.0
    assert rc.k1 == pytest.approx(rc.eta_lo)
    assert rc.k2 == pytest.approx(rc.phi_hi)
    opt = optimal_stepsizes(rc)
    assert np.isfinite(opt.alpha) and np.isfinite(opt.beta)


def _random_connected_rc(rng):
    # a path plus a random share of the other links, Metropolis weights
    # scaled down at random, random theta, curvatures over 12 decades
    n = int(rng.integers(1, 30))
    edges = complete_edges(n)
    keep = (edges[:, 1] == edges[:, 0] + 1) | (rng.random(len(edges)) < rng.random())
    edges = edges[keep]
    weights = metropolis_weights(n, edges) * rng.uniform(0.05, 1.0, len(edges))
    model = build_model(n, edges, weights, rng.uniform(0.01, 1.0, len(edges)))
    costs = quadratic_costs(10.0 ** rng.uniform(-6, 6, n), np.zeros(n))
    return constants(costs, spectral_report(model))


def test_optimizer_keeps_all_branches_on_regular_models():
    # branch 4's discriminant is at least (1 + lambdan)^2 + 4 >= 4 at the
    # paired beta (see optimal_stepsizes), on the shipped models and on
    # random connected networks alike; no RuntimeWarning fires
    rng = np.random.default_rng(20261019)
    rcs = [_main_rc(), _metropolis_rc(), _metropolis_rc(0.9)]
    rcs += [_random_connected_rc(rng) for _ in range(300)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rc in rcs:
            assert rc.k1 <= rc.k2
            ln = rc.lambdan_mean
            disc = (3.0 + ln) ** 2 - 8.0 * (1.0 + ln) * rc.k1 / (rc.k1 + rc.k2)
            assert disc >= (1.0 + ln) ** 2 + 4.0 - 1e-12
            opt = optimal_stepsizes(rc)
            assert len(opt.branches) == 4 and np.all(np.isfinite(opt.branches))


def test_wga_default_alpha_is_inverse_k2p():
    rc = _main_rc()
    assert wga_default_alpha(rc) == pytest.approx(1.0 / rc.k2, rel=1e-15)


def test_plan_constants_uniform_collapse():
    # a uniform per-agent plan reduces the generalized constants to
    # beta * K1 and beta * K2
    costs = quadratic_costs(A10, B10)
    model = build_model(10, complete_edges(10),
                        metropolis_weights(10, complete_edges(10)),
                        np.full(45, 0.9))
    rep = spectral_report(model)
    rc = constants(costs, rep)
    beta = np.full(10, 2.7)
    k1pp, k2pp = plan_constants(rc, beta)
    assert k1pp == pytest.approx(2.7 * rc.k1, rel=1e-12)
    assert k2pp == pytest.approx(2.7 * rc.k2, rel=1e-12)


def _written_out_plan_constants(rc, beta):
    # the paper's closed forms, term by term
    n, eta, phi = rc.n, rc.eta_lo, rc.phi_hi
    bl, bh = min(beta), max(beta)
    k1pp = (bl * eta * (1.0 - rc.lambda2_mean) * (bh * phi + (n - 1) * eta * bl)
            / np.sqrt(n * (bh**2 * phi**2 + (n - 1) * eta**2 * bl**2)))
    return k1pp, bh * phi * (1.0 - rc.lambdan_mean)


def test_plan_constants_match_the_written_out_formula():
    # (K1, K2) at the moduli (bl eta, bh phi) against the paper's K1''/K2'',
    # to rel 1e-14: a 10x spread of beta on 10 agents, and a single agent
    rc10 = _metropolis_rc(0.9)
    beta10 = [0.3, 2.1, 0.9, 3.0, 1.2, 0.45, 2.7, 1.5, 0.6, 1.8]
    model1 = build_model(1, np.zeros((0, 2), int), np.zeros(0), np.zeros(0))
    rc1 = constants(quadratic_costs([2.0], [0.0]), spectral_report(model1))
    for rc, beta in ((rc10, beta10), (rc1, [0.7])):
        got = plan_constants(rc, np.array(beta))
        want = _written_out_plan_constants(rc, beta)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("scale", [0.0, 1e-300, 1e300])
def test_uncoordinated_verdict_at_float_edges(scale):
    # uncoordinated.yaml's plan with beta scaled to the float range's edges:
    # no beta contracts (0 fails beta > 0; at 1e-300 the squares in K1''
    # underflow and it is inf, at 1e300 they overflow), and no RuntimeWarning,
    # which the suite turns into an error
    res = resolve(load_config(UNCOORDINATED))
    v = feasible_region_uncoordinated(res.rc, res.alpha,
                                      np.asarray(res.beta) * scale)
    assert not v.conditions["s6-contracts"]
    assert not v.feasible and np.isnan(v.s6)


def test_uncoordinated_region_box_corners():
    # all four corners of the per-agent sampling box are inside the region
    costs = quadratic_costs(A10, B10)
    model = build_model(10, complete_edges(10),
                        metropolis_weights(10, complete_edges(10)),
                        np.full(45, 0.9))
    rep = spectral_report(model)
    rc = constants(costs, rep)
    for al in (0.01, 0.02):
        for be in (2.4, 3.0):
            v = feasible_region_uncoordinated(rc, np.full(10, al), np.full(10, be))
            assert v.feasible, (al, be, v.conditions)
            assert v.coupling_lhs > v.coupling_rhs


def test_uncoordinated_region_rejects_hot_plans():
    costs = quadratic_costs(A10, B10)
    model = build_model(10, complete_edges(10),
                        metropolis_weights(10, complete_edges(10)),
                        np.full(45, 0.9))
    rep = spectral_report(model)
    rc = constants(costs, rep)
    # sum of alphas beyond 2 violates the first condition outright
    v = feasible_region_uncoordinated(rc, np.full(10, 0.21), np.full(10, 2.7))
    assert not v.feasible and not v.conditions["sum-alpha"]
    # gigantic beta breaks the s6 contraction requirement
    v2 = feasible_region_uncoordinated(rc, np.full(10, 0.015), np.full(10, 80.0))
    assert not v2.feasible and not v2.conditions["s6-contracts"]
    assert np.isnan(v2.s6)


@pytest.mark.parametrize("case", ["alpha=0", "alpha<0", "beta=0", "beta<0"])
def test_regions_reject_non_positive_stepsizes(case):
    # (0.015, 2.7) is inside all three regions; a zero or negative stepsize,
    # shared or for one agent, fails the bound of its own stepsize
    costs = quadratic_costs(A10, B10)
    model = build_model(10, complete_edges(10),
                        metropolis_weights(10, complete_edges(10)),
                        np.full(45, 0.9))
    rep = spectral_report(model)
    rc = constants(costs, rep)
    alpha, beta = 0.015, 2.7
    assert feasible_region_shared(rc, alpha, beta).feasible
    assert feasible_region_mean(rc, alpha, beta).feasible
    assert feasible_region_uncoordinated(rc, np.full(10, alpha),
                                         np.full(10, beta)).feasible
    name, sign = case[:-2], case[-2:]
    bad = 0.0 if sign == "=0" else -(alpha if name == "alpha" else beta)
    a, b = (bad, beta) if name == "alpha" else (alpha, bad)
    for verdict in (feasible_region_shared(rc, a, b), feasible_region_mean(rc, a, b)):
        assert not verdict.feasible and f"{name}-bound" in verdict.failed
    plan = {"alpha": np.full(10, alpha), "beta": np.full(10, beta)}
    plan[name][3] = bad
    v = feasible_region_uncoordinated(rc, plan["alpha"], plan["beta"])
    assert not v.feasible
    assert ("alpha-bound" if name == "alpha" else "s6-contracts") in v.failed
    assert predicted_rate(rc, a, b) is None

