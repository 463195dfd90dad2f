"""Config parsing, validation, round-trips, and resolution semantics."""

import glob
import os

import numpy as np
import pytest
import yaml

from dtalloc.config import (
    ExperimentConfig,
    from_dict,
    load_config,
    resolve,
    sweep_point,
    to_dict,
)
from dtalloc import ConfigError, InfeasibleNetworkError

HERE = os.path.dirname(os.path.abspath(__file__))
EXPERIMENTS = os.path.join(HERE, os.pardir, "experiments")


def _minimal(**over):
    d = {
        "name": "tiny",
        "cost": {"a": [1.0, 2.0], "b": [0.1, -0.1]},
        "demand": [1.0, 1.0],
        "network": {"topology": "complete", "n": 2, "proposal": 0.3,
                    "theta": 0.8},
    }
    d.update(over)
    return d


# -------------------------------------------------------------- round trip

def test_shipped_configs_load_and_round_trip():
    paths = sorted(glob.glob(os.path.join(EXPERIMENTS, "*.yaml")))
    assert len(paths) >= 8
    for p in paths:
        cfg = load_config(p)
        assert isinstance(cfg, ExperimentConfig)
        again = from_dict(to_dict(cfg))
        assert again == cfg, os.path.basename(p)


def test_save_load_round_trip(tmp_path):
    cfg = from_dict(_minimal(
        disturbance={"kind": "impulse", "m_zeta": 2.0, "q_zeta": 0.99,
                     "cutoff": 10},
        sweep={"axis": "beta", "values": [0.5, 1.0, 1.5]},
    ))
    path = tmp_path / "roundtrip.yaml"
    path.write_text(yaml.safe_dump(to_dict(cfg), sort_keys=False))
    assert load_config(path) == cfg


def test_defaults_fill_in():
    cfg = from_dict(_minimal())
    assert cfg.schema_version == 1
    assert cfg.u == 1 and cfg.seed == 0
    assert cfg.engine.algorithm == "dta"
    assert cfg.engine.x0 == "zeros"
    assert cfg.stepsizes.source == "optimal"
    assert cfg.stepsizes.wga_alpha == "auto"
    assert cfg.disturbance is None and cfg.sweep is None
    assert cfg.rate.k_end is None


# -------------------------------------------------------------- validation

@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.update(bogus=1), "unknown key"),
    (lambda d: d["cost"].update(slope=2), "unknown key"),
    (lambda d: d.pop("name"), "missing required key"),
    (lambda d: d.pop("cost"), "missing required key"),
    (lambda d: d.pop("demand"), "missing required key"),
    (lambda d: d["cost"].pop("a"), "missing required key"),
    (lambda d: d.update(schema_version=99), "schema_version"),
    (lambda d: d["network"].update(topology="torus"), "topology"),
    (lambda d: d["network"].pop("n"), "needs network.n"),
    (lambda d: d.update(engine={"algorithm": "adam"}), "algorithm"),
    (lambda d: d.update(engine={"iterations": 0}), ">= 1"),
    (lambda d: d.update(engine={"chunk": 0}), "unknown key.*'chunk'"),
    (lambda d: d.update(engine={"chunk": -5}), "unknown key.*'chunk'"),
    (lambda d: d.update(stepsizes={"source": "guess"}), "source"),
    (lambda d: d.update(stepsizes={"source": "explicit", "alpha": 0.1}),
     "both alpha and beta"),
    (lambda d: d.update(sweep={"axis": "gamma", "values": [1]}), "axis"),
    (lambda d: d.update(sweep={"axis": "beta", "values": []}), "non-empty"),
    (lambda d: d.update(disturbance={"color": "pink"}), "unknown key"),
    (lambda d: d.update(engine={"x0": [float("inf"), 0.0]}), "engine.x0"),
    (lambda d: d.update(engine={"x0": [[0.0], [float("nan")]]}), "engine.x0"),
    (lambda d: d.update(engine={"iterations": "abc"}), "engine.iterations"),
    (lambda d: d.update(engine={"replicas": 2.5}), "engine.replicas"),
    (lambda d: d.update(disturbance={"kind": "gaussian",
                                     "m_zeta": float("nan")}), "m_zeta"),
    (lambda d: d.update(disturbance={"kind": "impulse", "m_zeta": 1.0,
                                     "cutoff": -5}), "cutoff"),
    (lambda d: d.update(disturbance={"kind": "impulse", "m_zeta": 1.0,
                                     "cutoff": 2.5}), "cutoff"),
    (lambda d: d.update(disturbance={"kind": "impulse", "m_zeta": 1.0,
                                     "cutoff": True}), "cutoff"),
    (lambda d: d.update(stepsizes={"alpha": float("inf")}), "stepsizes.alpha"),
    (lambda d: d.update(stepsizes={"beta": [0.1, float("nan")]}),
     "stepsizes.beta"),
    (lambda d: d.update(stepsizes={"wga_alpha": float("-inf")}),
     "stepsizes.wga_alpha"),
    (lambda d: d.update(stepsizes={"wga_alpha": [0.2, 0.2]}),
     "wga_alpha must be a finite number"),
    (lambda d: d.update(rate={"k_end": 2.5}), "rate.k_end"),
    (lambda d: d.update(engine=5), "engine must be a mapping"),
    (lambda d: d.update(engine=None), "engine must be a mapping"),
    (lambda d: d.update(disturbance=3), "disturbance must be a mapping"),
    (lambda d: d.update(sweep={"axis": "beta", "values": 3}), "sweep.values"),
    (lambda d: d.update(stepsizes={"alpha_scale": [1, 2]}),
     "unknown key.*'alpha_scale'"),
    (lambda d: d.update(network={"topology": "edges", "edges": [[0.5, 1, 0.2]]}),
     "network.edges index"),
    (lambda d: d["network"].update(theta=float("nan")), "network.theta"),
    (lambda d: d.update(engine={"iterations": None}),
     "engine.iterations must be an integer"),
    *[(lambda d, bad=bad: d.update(name=bad), "name must be one directory name")
      for bad in ("", ".", "..", "../../x", "/tmp/x", "a/b", "x/", "a\0b")],
    (lambda d: d.update(name=5), "name must be a string"),
])
def test_from_dict_rejects(mutate, fragment):
    d = _minimal()
    mutate(d)
    with pytest.raises(ConfigError, match=fragment):
        from_dict(d)


def test_from_dict_rejects_non_mapping():
    with pytest.raises(ConfigError):
        from_dict([1, 2, 3])


def test_edges_topology_requires_edge_list():
    d = _minimal()
    d["network"] = {"topology": "edges", "theta": 0.5}
    with pytest.raises(ConfigError, match="needs a network.edges"):
        from_dict(d)


def test_load_config_bad_yaml(tmp_path):
    p = tmp_path / "broken.yaml"
    p.write_text("name: [unclosed\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(p)
    # an integer literal past Python's int-from-string digit limit
    p.write_text("name: x\nseed: 1" + "0" * 5000 + "\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(p)


def test_resolve_rejects_bad_proposal():
    d = _minimal()
    d["network"]["proposal"] = "equal-ish"
    with pytest.raises(ConfigError, match="proposal"):
        resolve(from_dict(d))


@pytest.mark.parametrize("cost", [
    {"a": "abc", "b": [0.1, -0.1]},
    {"a": 1.0, "b": [0.1, -0.1]},
    {"a": [1.0, 2.0], "b": [0.1, -0.1], "c": "x"},
])
def test_resolve_rejects_malformed_cost_terms(cost):
    with pytest.raises(ConfigError):
        resolve(from_dict(_minimal(cost=cost)))


def test_resolve_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed"):
        resolve(from_dict(_minimal(seed=-1)))


def test_resolve_rejects_agent_count_mismatch():
    d = _minimal()
    d["network"]["n"] = 3
    with pytest.raises(ConfigError, match="agents"):
        resolve(from_dict(d))


def test_resolve_rejects_bad_edge_triplets():
    d = _minimal()
    d["network"] = {"topology": "edges", "edges": [[0, 1]], "theta": 1.0}
    with pytest.raises(ConfigError, match=r"\[i, j, weight\]"):
        resolve(from_dict(d))


def test_resolve_rejects_k_end_past_horizon():
    d = _minimal(engine={"iterations": 100}, rate={"k_end": 200})
    with pytest.raises(ConfigError, match="exceeds"):
        resolve(from_dict(d))


def test_resolve_rejects_bad_x0_shape():
    d = _minimal(engine={"x0": [1.0, 2.0, 3.0]})
    with pytest.raises(ConfigError, match="x0 shape"):
        resolve(from_dict(d))


def test_resolve_rejects_bad_disturbance_kind():
    d = _minimal(disturbance={"kind": "brown"})
    with pytest.raises(ConfigError, match="disturbance"):
        resolve(from_dict(d))


def test_resolve_flags_mean_disconnected_network():
    d = _minimal()
    d["cost"] = {"a": [1.0, 1.0, 1.0, 1.0], "b": [0.0, 0.0, 0.0, 0.0]}
    d["demand"] = [1.0, 1.0, 1.0, 1.0]
    d["network"] = {"topology": "edges", "theta": 1.0,
                    "edges": [[0, 1, 0.3], [2, 3, 0.3]]}
    with pytest.raises(InfeasibleNetworkError):
        resolve(from_dict(d))


def test_resolve_wraps_invalid_network_as_config_error():
    d = _minimal()
    d["network"]["proposal"] = 0.6  # two proposals of 0.6 -> row load >= 1
    d["network"]["n"] = 3
    d["cost"] = {"a": [1.0, 1.0, 1.0], "b": [0.0, 0.0, 0.0]}
    d["demand"] = [1.0, 1.0, 1.0]
    with pytest.raises(ConfigError):
        resolve(from_dict(d))


# -------------------------------------------------------------- resolution

def test_resolve_optimal_source_main_instance():
    cfg = load_config(os.path.join(EXPERIMENTS, "main.yaml"))
    res = resolve(cfg)
    assert res.alpha == pytest.approx(0.0007647132835707233, rel=1e-12)
    assert res.beta == pytest.approx(14309.704294513564, rel=1e-12)
    assert res.optimal is not None
    assert res.x0 is None               # zeros start
    assert res.k_end == cfg.engine.iterations == 25000
    assert res.window == 1000
    assert not res.disturbance.active
    assert res.wga_alpha == pytest.approx(1.0 / res.rc.k2, rel=1e-12)


def test_resolve_alpha_override_keeps_optimal_beta():
    cfg = load_config(os.path.join(EXPERIMENTS, "theta_sweep.yaml"))
    res = resolve(cfg)
    assert res.alpha == 0.005
    assert res.beta == pytest.approx(79.49835719175016, rel=1e-12)


def test_resolve_explicit_plan_and_vector_stepsizes():
    d = _minimal(stepsizes={"source": "explicit", "alpha": [0.01, 0.02],
                            "beta": [0.5, 0.6]})
    res = resolve(from_dict(d))
    assert np.array_equal(res.alpha, [0.01, 0.02])
    assert np.array_equal(res.beta, [0.5, 0.6])
    assert res.optimal is None


def test_resolve_x0_demand():
    d = _minimal(engine={"x0": "demand"})
    res = resolve(from_dict(d))
    assert np.array_equal(res.x0, res.problem.demand)


def test_resolve_explicit_wga_alpha():
    d = _minimal(stepsizes={"source": "optimal", "wga_alpha": 3.5})
    res = resolve(from_dict(d))
    assert res.wga_alpha == 3.5


def test_resolve_disturbance_section():
    d = _minimal(disturbance={"kind": "laplace", "m_zeta": 1.5,
                              "q_zeta": 0.95})
    res = resolve(from_dict(d))
    assert res.disturbance.kind == "laplace"
    assert res.disturbance.active
    assert res.disturbance.q_zeta == 0.95


# -------------------------------------------------------------- sweeps

def test_sweep_point_alpha_beta_multiply():
    res = resolve(from_dict(_minimal()))
    point = sweep_point(res, "alpha", 0.3)
    assert point.model is res.model
    assert point.alpha == pytest.approx(0.3 * res.alpha, rel=1e-15)
    assert point.beta == res.beta
    point2 = sweep_point(res, "beta", 1.07)
    assert point2.alpha == res.alpha
    assert point2.beta == pytest.approx(1.07 * res.beta, rel=1e-15)
    assert point.wga_alpha == res.wga_alpha


def test_sweep_point_theta_rebuilds_model():
    res = resolve(from_dict(_minimal()))
    point = sweep_point(res, "theta", 0.25)
    assert point.model is not res.model
    assert np.all(point.model.theta == 0.25)
    assert np.array_equal(point.model.edges, res.model.edges)
    assert np.array_equal(point.model.weights, res.model.weights)
    assert point.alpha == res.alpha and point.beta == res.beta
    # the all-links-silent boundary is allowed as a sweep point
    frozen = sweep_point(res, "theta", 0.0)
    assert np.all(frozen.model.theta == 0.0)


def test_sweep_point_wga_scales_wga_alpha_and_has_no_beta():
    res = resolve(from_dict(_minimal(engine={"algorithm": "wga"})))
    point = sweep_point(res, "alpha", 2.0)
    assert point.wga_alpha == pytest.approx(2.0 * res.wga_alpha, rel=1e-15)
    assert point.alpha == res.alpha and point.model is res.model
    with pytest.raises(ConfigError, match="no beta"):
        sweep_point(res, "beta", 2.0)


@pytest.mark.parametrize("axis,value", [
    ("alpha", float("nan")), ("beta", float("inf")), ("theta", float("nan")),
    ("theta", 1.5), ("theta", -0.1),
])
def test_sweep_point_rejects_bad_values(axis, value):
    res = resolve(from_dict(_minimal()))
    with pytest.raises(ConfigError, match="sweep"):
        sweep_point(res, axis, value)


def test_sweep_point_rejects_unknown_axis():
    res = resolve(from_dict(_minimal()))
    with pytest.raises(ConfigError):
        sweep_point(res, "gamma", 1.0)
