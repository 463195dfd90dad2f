"""Config parsing, validation, round-trips, and resolution semantics."""

import glob
import os
import tracemalloc

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
from dtalloc import CapacityError, ConfigError, InfeasibleNetworkError, config, engine

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
    # a cutoff on another kind was ignored, and zero agents crashed in the
    # spectral report with exit 1
    (lambda d: d.update(disturbance={"kind": "gaussian", "m_zeta": 1.0,
                                     "cutoff": 0}), "disturbance: cutoff applies"),
    (lambda d: d.update(cost={"a": [], "b": []}, demand=[],
                        network={"topology": "complete", "n": 0}),
     "at least one agent"),
    # kind none ignored m_zeta and left q_zeta unchecked
    (lambda d: d.update(disturbance={"kind": "none", "m_zeta": 4.6}),
     "disturbance: m_zeta > 0 needs a kind"),
    (lambda d: d.update(disturbance={"kind": "none", "q_zeta": 7.0}),
     "disturbance: q_zeta must lie in"),
    (lambda d: d.update(disturbance={"m_zeta": -1.0}),
     "disturbance: m_zeta must be finite"),
])
def test_from_dict_rejects(mutate, fragment):
    # resolve checks what from_dict cannot, such as the number of agents
    d = _minimal()
    mutate(d)
    with pytest.raises(ConfigError, match=fragment):
        resolve(from_dict(d))


def test_both_yaml_loaders_give_the_same_configs(monkeypatch):
    assert config.LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    paths = sorted(glob.glob(os.path.join(EXPERIMENTS, "*.yaml")))
    loaded = [to_dict(load_config(p)) for p in paths]
    monkeypatch.setattr(config, "LOADER", yaml.SafeLoader)
    assert [to_dict(load_config(p)) for p in paths] == loaded


@pytest.mark.parametrize("text", [
    "demand: &d [1.0, *d]",                      # an alias inside its collection
    "a: &a " + "[" * 20 + "]" * 20 + "\nb: " + "[" * 20 + "*a" + "]" * 20,
], ids=["cycle", "through-alias"])
def test_an_alias_cannot_nest_past_the_limit(tmp_path, text):
    p = tmp_path / "alias.yaml"
    p.write_text(text + "\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(p)
    # an alias that stays within the limit is fine
    p.write_text("name: tiny\ncost: {a: &a [1.0, 2.0], b: [0.1, -0.1]}\n"
                 "demand: *a\nnetwork: {topology: complete, n: 2}\n")
    assert load_config(p).demand == [1.0, 2.0]


def test_aliases_count_the_nodes_they_expand_to(tmp_path):
    # each level is ten copies of the one below: five levels expand to
    # 211 111 nodes, six to 2 111 111, past MAX_NODES
    def bomb(levels):
        demand = "&a0 [1.0]"
        for i in range(1, levels + 1):
            demand = f"&a{i} [{demand}" + f", *a{i - 1}" * 9 + "]"
        return ("name: tiny\ncost: {a: [1.0, 2.0], b: [0.1, -0.1]}\n"
                "network: {topology: complete, n: 2}\ndemand: " + demand + "\n")

    p = tmp_path / "alias.yaml"
    p.write_text(bomb(6))
    with pytest.raises(ConfigError, match="cannot parse.*more than 1000000 nodes"):
        load_config(p)
    p.write_text(bomb(5))
    assert np.shape(load_config(p).demand) == (10,) * 5 + (1,)


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
    with pytest.raises(ConfigError, match="cannot parse") as info:
        load_config(p)
    assert str(info.value).count(str(p)) == 1
    # an integer literal past Python's int-from-string digit limit
    p.write_text("name: x\nseed: 1" + "0" * 5000 + "\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(p)


def test_a_number_yaml_reads_as_a_string_stays_a_string(tmp_path):
    # YAML 1.1 reads 1e5, and any quoted number, as a string; the loader
    # keeps that reading, so a name spelled so is the string, and a number
    # spelled so is refused with the spelling to use
    p = tmp_path / "exp.yaml"
    text = yaml.safe_dump(_minimal(), sort_keys=False)
    p.write_text(text.replace("name: tiny\n", "name: 1e5\n"))
    assert load_config(p).name == "1e5"
    # whether the string was quoted is told by how it loads unquoted, so a
    # quoted exponent spelling is told to drop its quotes as well
    for written, value, hint in (
            ("3e-1", "3e-1", "YAML 1.1 reads '3e-1' as a string: write 3.0e-1, unquoted"),
            ('"3e-1"', "3e-1", "YAML 1.1 reads '3e-1' as a string: write 3.0e-1, unquoted"),
            ("'3.0e-1'", "3.0e-1", "'3.0e-1' is a string: write the number without quotes"),
            ("'0.3'", "0.3", "'0.3' is a string: write the number without quotes")):
        p.write_text(text.replace("proposal: 0.3\n", f"proposal: {written}\n"))
        with pytest.raises(ConfigError) as info:
            load_config(p)
        assert str(info.value) == (f"network.proposal must be a finite number, "
                                   f"got {value!r}; {hint}")
    # an integer key gets the same note, and the spelling it names passes
    p.write_text(text.replace("n: 2\n", "n: 2e0\n"))
    with pytest.raises(ConfigError) as info:
        load_config(p)
    assert str(info.value) == ("network.n must be an integer, got '2e0'; YAML 1.1 "
                               "reads '2e0' as a string: write 2.0e+0, unquoted")
    p.write_text(text.replace("n: 2\n", "n: 2.0e+0\n"))
    assert load_config(p).network.n == 2
    # a string that loads unquoted as another number gets no note: YAML 1.1
    # reads 017 as the octal 15
    p.write_text(text.replace("proposal: 0.3\n", "proposal: '017'\n"))
    with pytest.raises(ConfigError) as info:
        load_config(p)
    assert str(info.value) == "network.proposal must be a finite number, got '017'"


def test_disturbance_cutoff_is_read_as_every_integer_key_is(tmp_path):
    # an integral float passes as for engine.iterations, and an exponent
    # spelling YAML 1.1 reads as a string is refused with the spelling to use
    p = tmp_path / "exp.yaml"
    text = yaml.safe_dump(_minimal(), sort_keys=False) + (
        "disturbance: {kind: impulse, m_zeta: 1.0, cutoff: %s}\n")
    p.write_text(text % "1000.0")
    cutoff = load_config(p).disturbance.cutoff
    assert cutoff == 1000 and type(cutoff) is int
    p.write_text(text % "1e3")
    with pytest.raises(ConfigError) as info:
        load_config(p)
    assert str(info.value) == ("disturbance.cutoff must be an integer, got '1e3'; "
                               "YAML 1.1 reads '1e3' as a string: write 1.0e+3, unquoted")


# (key, its value in the YAML text, the refusal after "must be a finite number, ")
DISTURBANCE_NUMBERS = [
    ("q_zeta", "7e-4", "got '7e-4'; YAML 1.1 reads '7e-4' as a string: write 7.0e-4, unquoted"),
    ("q_zeta", "9e-1", "got '9e-1'; YAML 1.1 reads '9e-1' as a string: write 9.0e-1, unquoted"),
    ("q_zeta", "'0.5'", "got '0.5'; '0.5' is a string: write the number without quotes"),
    ("q_zeta", "1e400", "got '1e400'"),
    ("q_zeta", "[0.5]", "got [0.5]"),
    ("q_zeta", "true", "got True"),
    ("q_zeta", "null", "got None"),
    ("m_zeta", "4e0", "got '4e0'; YAML 1.1 reads '4e0' as a string: write 4.0e+0, unquoted"),
    ("m_zeta", "null", "got None"),
]


@pytest.mark.parametrize("key,value,message", DISTURBANCE_NUMBERS,
                         ids=[f"{key}={value}" for key, value, _ in DISTURBANCE_NUMBERS])
def test_disturbance_numbers_are_read_as_every_number_key_is(tmp_path, key, value, message):
    # DisturbanceSpec compared a string, list or null with a float first and
    # exited 2 with Python's TypeError text, and compared a bool as 0 or 1
    p = tmp_path / "exp.yaml"
    section = {"m_zeta": "1.0", "q_zeta": "0.9", key: value}
    p.write_text(yaml.safe_dump(_minimal(), sort_keys=False)
                 + "disturbance: {kind: gaussian, m_zeta: %(m_zeta)s, q_zeta: %(q_zeta)s}\n"
                 % section)
    with pytest.raises(ConfigError) as info:
        load_config(p)
    assert str(info.value) == f"disturbance.{key} must be a finite number, {message}"


# (a section of the minimal config, the whole refusal)
ONE_KEY_REFUSALS = [
    ({"disturbance": {"kind": "pink"}},
     "disturbance.kind must be none|gaussian|laplace|impulse, got 'pink'"),
    ({"engine": {"replicas": 0}}, "engine.replicas must be >= 1, got 0"),
    ({"engine": {"iterations": 0}}, "engine.iterations must be >= 1, got 0"),
    # a network key the topology does not read is refused by its presence
    ({"network": {"topology": "complete", "n": 2, "edges": [[0, 1, 0.5]]}},
     "network.edges does not apply to topology 'complete'"),
    ({"network": {"topology": "ring", "n": 2, "edges": None}},
     "network.edges does not apply to topology 'ring'"),
    ({"network": {"topology": "edges", "edges": [[0, 1, 0.5]], "proposal": 0.1}},
     "network.proposal does not apply to topology 'edges'"),
]


@pytest.mark.parametrize("over,message", ONE_KEY_REFUSALS,
                         ids=["kind-pink", "replicas-0", "iterations-0",
                              "edges-under-complete", "edges-null-under-ring",
                              "proposal-under-edges"])
def test_a_refusal_names_its_one_key(over, message):
    with pytest.raises(ConfigError) as info:
        from_dict(_minimal(**over))
    assert str(info.value) == message


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


def _network_doc(n, topology):
    rng = np.random.default_rng(8)
    return _minimal(cost={"a": rng.uniform(0.5, 1.0, n).tolist(), "b": [0.0] * n},
                    demand=[1.0] * n,
                    network={"topology": topology, "n": n, "theta": 0.5})


@pytest.mark.parametrize("topology", ["complete", "ring"])
def test_setup_footprint_covers_the_measured_peak(topology):
    # the estimate MEMORY_LIMIT gates before resolve builds a network: a
    # complete graph's peak is its edge arrays, a ring's the spectral
    # report's dense n x n matrices
    n = 1000
    cfg = from_dict(_network_doc(n, topology))
    E = n * (n - 1) // 2 if topology == "complete" else n
    need = engine._setup_footprint(n, E)
    tracemalloc.start()
    try:
        res = resolve(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.model.n_edges == E
    assert need >= 0.75 * peak, f"estimated {need} B, peak {peak} B"


@pytest.mark.parametrize("topology", ["complete", "ring", "edges"])
def test_resolve_refuses_a_network_past_the_memory_limit_before_building_it(topology):
    # n = 20 000: 2e8 links for a complete graph, and dense n x n matrices of
    # 3.2 GB each for any topology
    n = 20_000
    doc = _network_doc(n, topology)
    if topology == "edges":
        doc["network"] = {"topology": "edges", "theta": 0.5,
                          "edges": [[i, i + 1, 0.3] for i in range(n - 1)]}
    cfg = from_dict(doc)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="20000 agents and .* GiB limit"):
            resolve(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, f"resolve allocated {peak} B before refusing"


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
