"""YAML experiment configs: schema, loading, and resolution to run inputs.

A config is plain data (lists and scalars, no numpy) so that load -> save ->
load is an identity.  `resolve()` turns one into the concrete objects the
engine needs: problem, network model, spectral report, rate constants, and
the resolved stepsize plan.

Stepsize resolution, in order:
  1. source "optimal" computes (alpha, beta) from the rate constants of the
     configured network; "explicit" starts from nothing.
  2. explicit `alpha:` / `beta:` entries override their slot (either source).
  3. `alpha_scale:` / `beta_scale:` multiply the result.
Sweeps over alpha/beta multiply the resolved plan per point; a theta sweep
replaces the link-activation probability outright and keeps the plan fixed.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field, asdict

import numpy as np
import yaml

from .costs import allocation_problem, quadratic_costs
from .engine import DisturbanceSpec
from .errors import ConfigError
from .network import (build_model, complete_edges, ring_edges,
                      metropolis_weights, spectral_report)
from .stepsizes import constants, optimal_stepsizes, wga_default_alpha

SCHEMA_VERSION = 1


def _check_keys(d, allowed, where):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; "
                          f"allowed: {sorted(allowed)}")


def _require(d, key, where):
    if key not in d:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return d[key]


def _int(d, key, default, where):
    """d[key] as an integer, or None if it defaults to None; integral floats pass."""
    v = d.get(key, default)
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if v is None or (isinstance(v, int) and not isinstance(v, bool)):
        return v
    raise ConfigError(f"{where} must be an integer, got {v!r}")


def _finite(d, key, default, where, words=()):
    """d[key] unchanged, once checked to be None, one of `words`, or finite numbers."""
    v = d.get(key, default)
    if v is None or (isinstance(v, str) and v in words):
        return v
    try:
        ok = bool(np.isfinite(np.asarray(v, float)).all())
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ConfigError(f"{where} must be finite numbers, got {v!r}")
    return v


@dataclass
class CostSection:
    a: list
    b: list
    c: object = 0.0


@dataclass
class NetworkSection:
    topology: str = "complete"          # complete | ring | edges
    n: int | None = None                # required for complete/ring
    proposal: object = "metropolis"     # scalar or "metropolis"
    edges: list | None = None           # [[i, j, w], ...] for topology: edges
    theta: object = 1.0                 # scalar or per-edge list


@dataclass
class EngineSection:
    algorithm: str = "dta"              # dta | wga
    iterations: int = 1000
    replicas: int = 1
    x0: object = "zeros"                # zeros | demand | list
    chunk: int = 2048


@dataclass
class StepsizeSection:
    source: str = "optimal"             # optimal | explicit
    alpha: object = None
    beta: object = None
    alpha_scale: float = 1.0
    beta_scale: float = 1.0
    wga_alpha: object = "auto"          # auto | value


@dataclass
class RateSection:
    k_end: int | None = None            # defaults to engine.iterations
    window: int = 1000


@dataclass
class SweepSection:
    axis: str                           # alpha | beta | theta
    values: list = field(default_factory=list)


@dataclass
class ExperimentConfig:
    name: str
    cost: CostSection
    demand: list
    network: NetworkSection
    schema_version: int = SCHEMA_VERSION
    seed: int = 0
    u: int = 1
    engine: EngineSection = field(default_factory=EngineSection)
    stepsizes: StepsizeSection = field(default_factory=StepsizeSection)
    disturbance: DisturbanceSpec | None = None
    rate: RateSection = field(default_factory=RateSection)
    sweep: SweepSection | None = None


_TOP_KEYS = ("schema_version", "name", "seed", "u", "cost", "demand",
             "network", "engine", "stepsizes", "disturbance", "rate", "sweep")


def from_dict(d):
    if not isinstance(d, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(d, _TOP_KEYS, "config")
    sv = d.get("schema_version", SCHEMA_VERSION)
    if sv != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {sv!r} (expected {SCHEMA_VERSION})")

    cd = _require(d, "cost", "config")
    _check_keys(cd, ("a", "b", "c"), "cost")
    cost = CostSection(a=_require(cd, "a", "cost"), b=_require(cd, "b", "cost"),
                       c=cd.get("c", 0.0))

    nd = _require(d, "network", "config")
    _check_keys(nd, ("topology", "n", "proposal", "edges", "theta"), "network")
    network = NetworkSection(topology=nd.get("topology", "complete"),
                             n=nd.get("n"), proposal=nd.get("proposal", "metropolis"),
                             edges=nd.get("edges"), theta=nd.get("theta", 1.0))
    if network.topology not in ("complete", "ring", "edges"):
        raise ConfigError(f"network.topology must be complete|ring|edges, "
                          f"got {network.topology!r}")
    if network.topology == "edges" and not network.edges:
        raise ConfigError("network.topology 'edges' needs a network.edges list")
    if network.topology != "edges" and network.n is None:
        raise ConfigError(f"network.topology {network.topology!r} needs network.n")

    ed = d.get("engine", {})
    _check_keys(ed, ("algorithm", "iterations", "replicas", "x0", "chunk"), "engine")
    engine = EngineSection(algorithm=ed.get("algorithm", "dta"),
                           iterations=_int(ed, "iterations", 1000, "engine.iterations"),
                           replicas=_int(ed, "replicas", 1, "engine.replicas"),
                           x0=_finite(ed, "x0", "zeros", "engine.x0", ("zeros", "demand")),
                           chunk=_int(ed, "chunk", 2048, "engine.chunk"))
    if engine.algorithm not in ("dta", "wga"):
        raise ConfigError(f"engine.algorithm must be dta|wga, got {engine.algorithm!r}")
    if engine.iterations < 1 or engine.replicas < 1:
        raise ConfigError("engine.iterations and engine.replicas must be >= 1")
    if engine.chunk < 1:
        raise ConfigError(f"engine.chunk must be >= 1, got {engine.chunk}")

    sd = d.get("stepsizes", {})
    _check_keys(sd, ("source", "alpha", "beta", "alpha_scale", "beta_scale",
                     "wga_alpha"), "stepsizes")
    steps = StepsizeSection(
        source=sd.get("source", "optimal"),
        alpha=_finite(sd, "alpha", None, "stepsizes.alpha"),
        beta=_finite(sd, "beta", None, "stepsizes.beta"),
        alpha_scale=float(_finite(sd, "alpha_scale", 1.0, "stepsizes.alpha_scale")),
        beta_scale=float(_finite(sd, "beta_scale", 1.0, "stepsizes.beta_scale")),
        wga_alpha=_finite(sd, "wga_alpha", "auto", "stepsizes.wga_alpha", ("auto",)))
    if steps.source not in ("optimal", "explicit"):
        raise ConfigError(f"stepsizes.source must be optimal|explicit, got {steps.source!r}")
    if steps.source == "explicit" and engine.algorithm == "dta":
        if steps.alpha is None or steps.beta is None:
            raise ConfigError("stepsizes.source 'explicit' needs both alpha and beta")

    dist = None
    if d.get("disturbance") is not None:
        dd = d["disturbance"]
        _check_keys(dd, ("kind", "m_zeta", "q_zeta", "cutoff"), "disturbance")
        try:
            dist = DisturbanceSpec(kind=dd.get("kind", "none"),
                                   m_zeta=float(dd.get("m_zeta", 0.0)),
                                   q_zeta=float(dd.get("q_zeta", 0.999)),
                                   cutoff=dd.get("cutoff"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"disturbance: {exc}") from exc

    rd = d.get("rate", {})
    _check_keys(rd, ("k_end", "window"), "rate")
    rate = RateSection(k_end=_int(rd, "k_end", None, "rate.k_end"),
                       window=_int(rd, "window", 1000, "rate.window"))

    sweep = None
    if d.get("sweep") is not None:
        wd = d["sweep"]
        _check_keys(wd, ("axis", "values"), "sweep")
        sweep = SweepSection(axis=_require(wd, "axis", "sweep"),
                             values=list(_require(wd, "values", "sweep")))
        if sweep.axis not in ("alpha", "beta", "theta"):
            raise ConfigError(f"sweep.axis must be alpha|beta|theta, got {sweep.axis!r}")
        if not sweep.values:
            raise ConfigError("sweep.values must be non-empty")

    return ExperimentConfig(name=_require(d, "name", "config"), cost=cost,
                            demand=_require(d, "demand", "config"),
                            network=network, schema_version=sv,
                            seed=_int(d, "seed", 0, "seed"), u=_int(d, "u", 1, "u"),
                            engine=engine, stepsizes=steps, disturbance=dist,
                            rate=rate, sweep=sweep)


def to_dict(cfg):
    d = asdict(cfg)
    if d["disturbance"] is None:
        del d["disturbance"]
    if d["sweep"] is None:
        del d["sweep"]
    return d


def load_config(path):
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return from_dict(data)


def save_config(cfg, path):
    with open(path, "w") as fh:
        yaml.safe_dump(to_dict(cfg), fh, sort_keys=False)


def _build_network(net, n_agents):
    if net.topology == "edges":
        rows = []
        for item in net.edges:
            if len(item) != 3:
                raise ConfigError(f"network.edges entries are [i, j, weight]; got {item!r}")
            rows.append(item)
        arr = np.asarray(rows, float)
        edges = arr[:, :2].astype(int)
        weights = arr[:, 2]
        n = n_agents if net.n is None else int(net.n)
    else:
        n = int(net.n)
        edges = complete_edges(n) if net.topology == "complete" else ring_edges(n)
        if net.proposal == "metropolis":
            weights = metropolis_weights(n, edges)
        else:
            try:
                weights = np.full(len(edges), float(net.proposal))
            except (TypeError, ValueError):
                raise ConfigError(f"network.proposal must be a number or 'metropolis', "
                                  f"got {net.proposal!r}") from None
    if n != n_agents:
        raise ConfigError(f"network has n={n} but the cost model has {n_agents} agents")
    theta = np.asarray(net.theta, float)
    theta = np.full(len(edges), float(theta)) if theta.ndim == 0 else theta
    try:
        return build_model(n, edges, weights, theta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class ResolvedExperiment:
    """Everything a run needs, derived once from a config."""

    config: ExperimentConfig
    problem: object
    model: object
    report: object
    rc: object                       # rate constants (None if disconnected in mean)
    optimal: object                  # OptimalStepsizes or None
    alpha: object                    # resolved dta stepsize (scalar or (n,))
    beta: object
    wga_alpha: float | None
    x0: np.ndarray | None
    disturbance: DisturbanceSpec
    k_end: int
    window: int


def resolve(cfg):
    """Build run inputs from a config.

    Raises InfeasibleNetworkError if the mean network is disconnected (the
    constants are undefined there).  Stepsize feasibility is *not* enforced
    here — callers decide whether an infeasible plan is an error or a sweep
    point on the wrong side of the boundary.
    """
    a = np.asarray(cfg.cost.a, float)
    n = a.shape[0]
    c = np.broadcast_to(np.asarray(cfg.cost.c, float), (n,)).copy()
    try:
        costs = quadratic_costs(a, cfg.cost.b, c=c, u=cfg.u)
        problem = allocation_problem(costs, cfg.demand)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    model = _build_network(cfg.network, n)
    report = spectral_report(model)
    rc = constants(problem.costs, report)   # raises if disconnected in mean

    opt = None
    alpha = beta = None
    if cfg.stepsizes.source == "optimal":
        opt = optimal_stepsizes(rc)
        alpha, beta = opt.alpha, opt.beta
    if cfg.stepsizes.alpha is not None:
        alpha = cfg.stepsizes.alpha
        alpha = np.asarray(alpha, float) if np.ndim(alpha) else float(alpha)
    if cfg.stepsizes.beta is not None:
        beta = cfg.stepsizes.beta
        beta = np.asarray(beta, float) if np.ndim(beta) else float(beta)
    if alpha is not None:
        alpha = alpha * cfg.stepsizes.alpha_scale
    if beta is not None:
        beta = beta * cfg.stepsizes.beta_scale

    wga_alpha = None
    if cfg.stepsizes.wga_alpha == "auto":
        wga_alpha = wga_default_alpha(rc)
    elif cfg.stepsizes.wga_alpha is not None:
        wga_alpha = float(cfg.stepsizes.wga_alpha)

    x0 = _resolve_x0(cfg.engine.x0, problem)

    dist = cfg.disturbance if cfg.disturbance is not None else DisturbanceSpec()

    k_end = cfg.rate.k_end if cfg.rate.k_end is not None else cfg.engine.iterations
    if k_end > cfg.engine.iterations:
        raise ConfigError(f"rate.k_end={k_end} exceeds engine.iterations="
                          f"{cfg.engine.iterations}")
    if not 1 <= cfg.rate.window <= k_end:
        raise ConfigError(f"rate.window={cfg.rate.window} must lie in "
                          f"[1, rate.k_end={k_end}]")

    return ResolvedExperiment(config=cfg, problem=problem, model=model,
                              report=report, rc=rc, optimal=opt, alpha=alpha,
                              beta=beta, wga_alpha=wga_alpha, x0=x0,
                              disturbance=dist, k_end=int(k_end),
                              window=int(cfg.rate.window))


def _resolve_x0(spec, problem):
    if spec == "zeros" or spec is None:
        return None
    if spec == "demand":
        return problem.demand.copy()
    arr = np.asarray(spec, float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape != (problem.n, problem.u):
        raise ConfigError(f"engine.x0 shape {arr.shape} does not match "
                          f"({problem.n}, {problem.u})")
    return arr


def sweep_point(res, axis, value):
    """A (model, alpha, beta, wga_alpha) tuple for one sweep point.

    alpha/beta sweeps multiply the resolved plan by `value`; a theta sweep
    rebuilds the network with the activation probability set to `value`
    (theta 0 is allowed here — every link silent — so the boundary case can
    be demonstrated).
    """
    model, alpha, beta, wga = res.model, res.alpha, res.beta, res.wga_alpha
    if axis == "alpha":
        alpha = res.alpha * value
    elif axis == "beta":
        beta = res.beta * value
    elif axis == "theta":
        theta = np.full(model.n_edges, float(value))
        model = build_model(model.n, model.edges, model.weights, theta,
                            allow_zero_theta=True)
    else:
        raise ConfigError(f"sweep axis must be alpha|beta|theta, got {axis!r}")
    return model, alpha, beta, wga
