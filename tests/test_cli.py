"""Command-line harness tests: file layout, schema lines, exit codes,
reproducibility, and the sweep/compare subcommands.  Everything runs through
`main(argv)` the way a shell invocation would, just in-process."""

import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml

import dtalloc
from dtalloc.cli import TRACE_CSV_ROWS, _write_trace_csv, main
from dtalloc.config import SCHEMA_VERSION
from dtalloc.errors import PlanWarning
from dtalloc.metrics import TRACE_COLUMNS
from fs_tree import tree

HERE = os.path.dirname(os.path.abspath(__file__))
EXPERIMENTS = os.path.join(HERE, os.pardir, "experiments")

TINY = {
    "name": "tiny",
    "seed": 7,
    "cost": {"a": [1.0, 2.0], "b": [0.1, -0.1]},
    "demand": [1.0, 1.0],
    "network": {"topology": "complete", "n": 2, "proposal": 0.3, "theta": 0.8},
    "engine": {"iterations": 200, "replicas": 2},
    "stepsizes": {"source": "explicit", "alpha": 0.05, "beta": 0.1},
    "rate": {"window": 50},
}


def _write(tmp_path, doc, fname="exp.yaml"):
    p = tmp_path / fname
    p.write_text(yaml.safe_dump(doc, sort_keys=False))
    return str(p)


def _tiny(**over):
    doc = json.loads(json.dumps(TINY))  # deep copy
    doc.update(over)
    return doc


# ------------------------------------------------------------ run basics

def test_run_writes_trace_and_summary(tmp_path):
    cfg = _write(tmp_path, _tiny())
    out = tmp_path / "results"
    assert main(["run", cfg, "--out", str(out)]) == 0
    trace = out / "tiny" / "trace.csv"
    summary = out / "tiny" / "summary.json"
    assert trace.is_file() and summary.is_file()

    lines = trace.read_text().splitlines()
    assert lines[0] == "# schema_version: 1"
    assert lines[1] == ("k,optimality_distance,feasibility_gap,"
                       "tracking_norm,gradient_dispersion")
    assert len(lines) == 2 + 200 + 1          # comment + header + T+1 rows
    first = lines[2].split(",")
    assert first[0] == "0"
    # repr round-trip: parsing the text reproduces the float exactly
    v = float(first[1])
    assert repr(v) == first[1]

    s = json.loads(summary.read_text())
    assert s["schema_version"] == 1
    assert s["name"] == "tiny"
    assert s["algorithm"] == "dta"
    assert s["final_ratio"] is not None and s["final_ratio"] < 1.0
    assert not s["diverged"]
    assert s["empirical_rate"]["q"] < 1.0


def test_out_dir_precedence(tmp_path, monkeypatch):
    cfg = _write(tmp_path, _tiny())
    envdir = tmp_path / "from-env"
    flagdir = tmp_path / "from-flag"
    monkeypatch.setenv("DTALLOC_OUT_DIR", str(envdir))
    assert main(["run", cfg]) == 0
    assert (envdir / "tiny" / "trace.csv").is_file()
    # --out beats the environment
    assert main(["run", cfg, "--out", str(flagdir)]) == 0
    assert (flagdir / "tiny" / "trace.csv").is_file()
    # default is ./runs when neither is set
    monkeypatch.delenv("DTALLOC_OUT_DIR")
    monkeypatch.chdir(tmp_path)
    assert main(["run", cfg]) == 0
    assert (tmp_path / "runs" / "tiny" / "trace.csv").is_file()


def test_rerun_is_byte_identical_and_seed_changes_it(tmp_path):
    cfg = _write(tmp_path, _tiny())
    a, b, c = (tmp_path / x for x in ("a", "b", "c"))
    assert main(["run", cfg, "--out", str(a)]) == 0
    assert main(["run", cfg, "--out", str(b)]) == 0
    ta = (a / "tiny" / "trace.csv").read_bytes()
    tb = (b / "tiny" / "trace.csv").read_bytes()
    assert ta == tb
    assert main(["run", cfg, "--out", str(c), "--seed", "999"]) == 0
    assert (c / "tiny" / "trace.csv").read_bytes() != ta


def test_infeasible_stepsizes_warn_but_run(tmp_path):
    doc = _tiny(stepsizes={"source": "optimal"})  # outside the ms region
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    with pytest.warns(PlanWarning, match="outside the guaranteed region"):
        code = main(["run", cfg, "--out", str(out)])
    assert code == 0
    assert (out / "tiny" / "trace.csv").is_file()


def test_non_positive_alpha_warns_and_has_no_rate(tmp_path, capsys):
    doc = _tiny()
    doc["stepsizes"]["alpha"] = -0.01
    cfg = _write(tmp_path, doc)
    with pytest.warns(PlanWarning, match="failing: alpha-bound"):
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert main(["bounds", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean_square_region"]["conditions"][0] is False
    assert payload["predicted_rate"] is None


def _shell(*argv, loader=None, timeout=None):
    """`dtalloc *argv` in a fresh interpreter: (exit code, stdout, stderr).

    `loader` names the yaml loader class configs are parsed with, in place
    of the default; past `timeout` seconds the run is killed and the test
    fails."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dtalloc.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    entry = ["-m", "dtalloc.cli"] if loader is None else [
        "-c", f"import sys, yaml; from dtalloc import cli, config; "
              f"config.LOADER = yaml.{loader}; sys.exit(cli.main())"]
    proc = subprocess.run([sys.executable, *entry, *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": path})
    return proc.returncode, proc.stdout, proc.stderr


DEEP = {"flow": lambda depth: "name: x\ndemand: " + "[" * depth + "]" * depth + "\n",
        "block": lambda depth: "- " * depth + "1\n"}


@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
@pytest.mark.parametrize("style", sorted(DEEP))
@pytest.mark.parametrize("depth", [2000, 100_000])
def test_a_deeply_nested_config_exits_2_in_one_line(tmp_path, depth, style, loader):
    # in a fresh interpreter, so that a crash in libyaml's composer, which
    # recurses in C, shows as its exit code
    if not hasattr(yaml, loader):
        pytest.skip("PyYAML was built without libyaml")
    cfg = tmp_path / "deep.yaml"
    cfg.write_text(DEEP[style](depth))
    code, out, err = _shell("bounds", str(cfg), loader=loader)
    assert code == 2, err[-2000:]
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err
    assert "nested deeper than 32 levels" in err


def _alias_bomb(levels):
    """The tiny config with a `demand` of `levels` nested levels, each ten
    copies of the one below (one anchor and nine aliases): about 50 bytes
    per level, expanding to 10 ** levels scalars."""
    doc = {k: v for k, v in _tiny().items() if k != "demand"}
    demand = "&a0 [1.0]"
    for i in range(1, levels + 1):
        demand = f"&a{i} [{demand}" + f", *a{i - 1}" * 9 + "]"
    return yaml.safe_dump(doc, sort_keys=False) + f"demand: {demand}\n"


@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
def test_an_alias_bomb_exits_2_in_one_line(tmp_path, loader):
    # nine levels of ten aliases in a 726-byte file expand to 10 ** 9
    # scalars: each level used to cost about 8 times the one below it, 2.5 s
    # at six levels, so nine would have run for about half an hour
    if not hasattr(yaml, loader):
        pytest.skip("PyYAML was built without libyaml")
    cfg = tmp_path / "bomb.yaml"
    cfg.write_text(_alias_bomb(9))
    code, out, err = _shell("bounds", str(cfg), loader=loader, timeout=60)
    assert code == 2, err[-2000:]
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err
    assert "more than 1000000 nodes" in err


def test_a_network_past_the_memory_limit_exits_2_before_set_up(tmp_path):
    # n = 20 000: a complete graph of 2e8 links, whose spectral report would
    # hold dense n x n matrices of 3.2 GB each
    n = 20_000
    cfg = _write(tmp_path, _tiny(
        cost={"a": [1.0] * n, "b": [0.0] * n}, demand=[1.0] * n,
        network={"topology": "complete", "n": n, "theta": 0.5}))
    code, out, err = _shell("bounds", cfg, timeout=60)
    assert code == 2, err[-2000:]
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("capacity error: 20000 agents and ") and "GiB limit" in err


@pytest.mark.parametrize("stepsizes", [
    {"alpha": 1.0e308, "beta": 1.0},
    {"alpha": 0.001, "beta": 1.0e308},
    {"alpha": [0.05, 1.0e308], "beta": [0.1, 0.1]},
    None,                               # a sweep of main.yaml's alpha by 1e308
], ids=["alpha", "beta", "per-agent-alpha", "sweep-alpha"])
def test_huge_finite_stepsize_fails_its_region_without_a_traceback(tmp_path,
                                                                  stepsizes):
    # each squared stepsize overflowed a float's ** and ended bounds, run and
    # sweep in a traceback with exit 1
    out = str(tmp_path / "o")
    if stepsizes is None:
        code, _, err = _shell("sweep", os.path.join(EXPERIMENTS, "main.yaml"),
                              "--axis", "alpha", "--values", "1e308", "--out", out)
        assert code == 4 and "Traceback" not in err, err
        assert "outside the guaranteed region (failing: alpha-bound" in err
        return
    doc = _tiny()
    doc["stepsizes"].update(stepsizes)
    cfg = _write(tmp_path, doc)
    code, stdout, err = _shell("bounds", cfg)
    assert code == 0 and "Traceback" not in err, err
    payload = json.loads(stdout)
    if np.ndim(stepsizes["alpha"]):
        assert payload["uncoordinated_region"]["feasible"] is False
    else:
        assert payload["mean_square_region"]["feasible"] is False
        assert payload["predicted_rate"] is None
    code, _, err = _shell("run", cfg, "--out", out)
    assert code in (0, 4) and "Traceback" not in err, err
    assert "outside the guaranteed region" in err


def test_feasible_explicit_plan_does_not_warn(tmp_path):
    cfg = _write(tmp_path, _tiny())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0


# ------------------------------------------------------------- exit codes

def test_exit_2_on_bad_config(tmp_path, capsys):
    doc = _tiny()
    doc["bogus"] = 1
    cfg = _write(tmp_path, doc)
    before = tree(tmp_path)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert tree(tmp_path) == before


@pytest.mark.parametrize("rate", [None, {"window": None}], ids=["no-section", "null-window"])
def test_an_unset_rate_window_covers_a_short_run(tmp_path, rate):
    # an unset window is min(1000, k_end): a 500-step run is read over 500
    doc = _tiny(engine={"iterations": 500, "replicas": 2})
    if rate is None:
        del doc["rate"]
    else:
        doc["rate"] = rate
    out = tmp_path / "o"
    assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 0
    assert len((out / "tiny" / "trace.csv").read_text().splitlines()) == 2 + 501
    est = json.loads((out / "tiny" / "summary.json").read_text())["empirical_rate"]
    assert (est["k_end"], est["window"]) == (500, 500)


@pytest.mark.parametrize("k_end", [0, -5])
def test_exit_2_before_compute_on_k_end_below_one(tmp_path, capsys, k_end):
    cfg = _write(tmp_path, _tiny(rate={"k_end": k_end}))
    before = tree(tmp_path)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"rate.k_end={k_end} must be >= 1" in err and "rate.window" not in err
    assert tree(tmp_path) == before


@pytest.mark.parametrize("window", [0, 500])
def test_exit_2_before_compute_on_window_outside_k_end(tmp_path, capsys, window):
    cfg = _write(tmp_path, _tiny(rate={"window": window}))
    before = tree(tmp_path)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "rate.window" in capsys.readouterr().err
    assert tree(tmp_path) == before


@pytest.mark.parametrize("over,fragment", [
    ({"engine": {"iterations": 200, "x0": [float("inf"), 0.0]}}, "engine.x0"),
    ({"disturbance": {"kind": "gaussian", "m_zeta": float("nan")}}, "m_zeta"),
    ({"network": {"topology": "complete", "n": 2, "proposal": 0.3,
                  "theta": float("nan")}}, "network.theta"),
    # finite, but two such weights at one agent sum to inf
    ({"cost": {"a": [1.0] * 3, "b": [0.0] * 3}, "demand": [1.0] * 3,
      "network": {"topology": "complete", "n": 3, "proposal": 1.0e308,
                  "theta": 0.5}}, "negotiated weight"),
    # integers past the float range, written out as YAML integer literals
    ({"cost": {"a": [10 ** 400, 2.0], "b": [0.1, -0.1]}}, "cost.a"),
    ({"demand": [10 ** 400, 1.0]}, "demand"),
    ({"network": {"topology": "complete", "n": 2, "proposal": 0.3,
                  "theta": 10 ** 400}}, "network.theta"),
    ({"network": {"topology": "complete", "n": 2, "proposal": 10 ** 400,
                  "theta": 0.8}}, "network.proposal"),
    ({"network": {"topology": "edges", "edges": [[0, 10 ** 400, 0.3]],
                  "theta": 0.8}}, "network.edges"),
    ({"engine": {"iterations": 200, "x0": [10 ** 400, 0.0]}}, "engine.x0"),
    ({"stepsizes": {"source": "explicit", "alpha": 10 ** 400, "beta": 0.1}},
     "stepsizes.alpha"),
])
def test_exit_2_before_compute_on_non_finite_input(tmp_path, capsys, over,
                                                   fragment):
    cfg = _write(tmp_path, _tiny(**over))  # written as YAML .inf / .nan
    before = tree(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    # a huge integer is echoed shortened, not in full
    assert fragment in err and max(map(len, err.splitlines())) < 200, err
    assert tree(tmp_path) == before


@pytest.mark.parametrize("key, written, fix", [
    ("alpha", "7e-4", "7.0e-4"),
    ("alpha", "1.5E3", "1.5e+3"),
    ("beta", "[1e-1, 2e-1]", "1.0e-1"),
])
def test_an_exponent_yaml_reads_as_a_string_exits_2_naming_the_fix(
        tmp_path, capsys, key, written, fix):
    # YAML 1.1 reads a float only with a decimal point and a signed
    # exponent, so 7e-4 loads as the string '7e-4'.  It is still refused,
    # and the message names the spelling and one that reads as its float
    value = written.strip("[]").split(",")[0]
    text = yaml.safe_dump(_tiny(), sort_keys=False)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(text.replace(f"{key}: {TINY['stepsizes'][key]}\n", f"{key}: {written}\n"))
    assert f"{key}: {written}\n" in cfg.read_text()
    before = tree(tmp_path)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"; YAML 1.1 reads {value!r} as a string: write {fix}, unquoted\n"), err
    assert err.startswith(f"config error: stepsizes.{key} must be finite numbers, got ")
    assert yaml.safe_load(f"v: {fix}")["v"] == float(value)
    assert tree(tmp_path) == before


@pytest.mark.parametrize("a", [[1.0e200, 2.0e200], [1.0e-200, 2.0e-200]],
                         ids=["huge", "tiny"])
def test_exit_2_on_a_curvature_past_the_float_range(tmp_path, capsys, a):
    # phi^2 overflowed a float's ** (huge), and K2^2 underflowed to a zero
    # divisor (tiny): each ended bounds and run in a traceback with exit 1
    cfg = _write(tmp_path, _tiny(cost={"a": a, "b": [0.1, -0.1]}))
    before = tree(tmp_path)
    for argv in (["bounds", cfg], ["run", cfg, "--out", str(tmp_path / "o")]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert "config error: cost.a" in captured.err and captured.out == ""
    assert tree(tmp_path) == before


@pytest.mark.parametrize("over,fragment", [
    # a cutoff on a gaussian run was ignored: the trace kept its bytes
    ({"disturbance": {"kind": "gaussian", "m_zeta": 1.0, "q_zeta": 0.99,
                      "cutoff": 0}}, "disturbance: cutoff applies"),
    # zero agents ended bounds and run in an IndexError with exit 1
    ({"cost": {"a": [], "b": []}, "demand": [],
      "network": {"topology": "complete", "n": 0}}, "at least one agent"),
    # kind none ran without a disturbance, ignoring m_zeta and q_zeta
    ({"disturbance": {"kind": "none", "m_zeta": 4.6, "q_zeta": 0.999}},
     "disturbance: m_zeta > 0 needs a kind"),
    ({"disturbance": {"kind": "none", "q_zeta": 7.0}}, "disturbance: q_zeta"),
    ({"u": 0}, "u must be >= 1, got 0"),
], ids=["stray-cutoff", "zero-agents", "stray-m_zeta", "none-q_zeta", "zero-u"])
def test_exit_2_on_a_stray_cutoff_or_zero_agents(tmp_path, capsys, over, fragment):
    cfg = _write(tmp_path, _tiny(**over))
    out = tmp_path / "o"
    before = tree(tmp_path)
    for argv in (["bounds", cfg], ["run", cfg, "--out", str(out)],
                 ["compare", cfg, "--out", str(out)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("config error: ") and fragment in captured.err
    assert tree(tmp_path) == before


@pytest.mark.parametrize("theta", [[0.5, 0.5], [[0.5]], []])
def test_exit_2_before_compute_on_theta_length(tmp_path, capsys, theta):
    doc = _tiny()
    doc["network"]["theta"] = theta        # the two-agent graph has one link
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    before = tree(tmp_path)
    assert main(["run", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "network.theta" in err and "each of the 1 links" in err
    assert tree(tmp_path) == before
    doc["network"]["theta"] = [0.5]
    assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 0


@pytest.mark.parametrize("argv", [["run"], ["sweep", "--axis", "beta",
                                               "--values", "0.5,1.0"], ["bounds"]])
@pytest.mark.parametrize("stepsizes", [
    {"alpha": [0.05]},                        # n = 2 agents
    {"beta": [0.1, 0.1, 0.1]},
    {"alpha": [[0.05], [0.05]]},
])
def test_exit_2_before_compute_on_stepsize_shape(tmp_path, capsys, argv,
                                                 stepsizes):
    doc = _tiny()
    doc["stepsizes"].update(stepsizes)
    cfg = _write(tmp_path, doc)
    before = tree(tmp_path)
    extra = [] if argv == ["bounds"] else ["--out", str(tmp_path / "o")]
    assert main([argv[0], cfg, *argv[1:], *extra]) == 2
    captured = capsys.readouterr()
    assert "per-agent stepsizes" in captured.err and captured.out == ""
    assert tree(tmp_path) == before


def test_run_from_the_optimum_reports_na(tmp_path, capsys):
    # x0 = demand is optimal for identical costs, so r0 = 0 and no ratio exists
    doc = _tiny(cost={"a": [1.0, 1.0, 1.0], "b": [0.0, 0.0, 0.0]},
                demand=[1.0, 1.0, 1.0],
                network={"topology": "complete", "n": 3, "proposal": 0.3,
                         "theta": 0.8},
                engine={"iterations": 200, "replicas": 2, "x0": "demand"})
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert "final ratio n/a" in capsys.readouterr().out
    s = json.loads((out / "tiny" / "summary.json").read_text())
    assert s["r0"] == 0.0 and s["final_ratio"] is None


def test_exit_2_on_missing_file(tmp_path, capsys):
    # and on any path that cannot be read as text: one line, naming it once
    latin = tmp_path / "latin.yaml"
    latin.write_bytes(b"name: caf\xe9\n")
    for path, says in ((tmp_path / "nope.yaml", "cannot read"),
                       (tmp_path, "cannot read"), (latin, "cannot parse")):
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{says} {path}:" in err, err
        assert err.count(str(path)) == 1, err


def test_exit_2_on_bad_usage(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_exit_3_on_mean_disconnected_network(tmp_path, capsys):
    doc = _tiny()
    doc["cost"] = {"a": [1.0, 1.0, 1.0, 1.0], "b": [0.0, 0.0, 0.0, 0.0]}
    doc["demand"] = [1.0, 1.0, 1.0, 1.0]
    doc["network"] = {"topology": "edges", "theta": 1.0,
                      "edges": [[0, 1, 0.3], [2, 3, 0.3]]}
    cfg = _write(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "infeasible network" in capsys.readouterr().err


def test_exit_4_on_divergence(tmp_path):
    doc = _tiny(stepsizes={"source": "explicit", "alpha": 0.2, "beta": 500.0})
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PlanWarning)
        assert main(["run", cfg, "--out", str(out)]) == 4
    s = json.loads((out / "tiny" / "summary.json").read_text())
    assert s["diverged"] and s["diverged_at"] is not None
    # NaN residuals serialize as nulls past the divergence point
    assert s["final_ratio"] is None


@pytest.mark.parametrize("algorithm", ["dta", "wga"])
def test_exit_4_at_iteration_0_when_the_start_overflows(tmp_path, capsys, algorithm):
    # the start's residual squares overflow; the suite turns a numpy
    # floating-point warning into an exception, which would escape main
    doc = _tiny(engine={"iterations": 200, "replicas": 2, "algorithm": algorithm,
                        "x0": [1e200, 1e200]})
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "diverged at iteration 0" in err and "Traceback" not in err
    s = json.loads((out / "tiny" / "summary.json").read_text())
    assert s["diverged"] and s["diverged_at"] == 0


@pytest.mark.parametrize("scale", [1e13, 1e200], ids=["past-limit", "overflowing"])
def test_a_run_diverged_at_row_0_reports_no_drift(tmp_path, scale):
    # no row's conservation drift was measured: null, not 0.0
    doc = _tiny(engine={"iterations": 200, "replicas": 2, "x0": [scale, scale]})
    out = tmp_path / "o"
    assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 4
    s = json.loads((out / "tiny" / "summary.json").read_text())
    assert s["diverged_at"] == 0 and s["max_conservation_drift"] is None


def test_a_one_agent_ring_runs_as_the_one_agent_complete_graph(tmp_path, capsys):
    # neither has a link, so both run the same steps
    traces = []
    for topology in ("ring", "complete"):
        doc = _tiny(cost={"a": [1.0], "b": [0.1]}, demand=[2.0],
                    network={"topology": topology, "n": 1, "theta": 0.8},
                    stepsizes={"source": "optimal"},
                    engine={"iterations": 40, "replicas": 2}, rate={"window": 20})
        cfg = _write(tmp_path, doc, f"{topology}.yaml")
        assert main(["bounds", cfg]) == 0
        out = tmp_path / topology
        assert main(["run", cfg, "--out", str(out)]) == 0
        assert "q_n 0.666667" in capsys.readouterr().out
        traces.append((out / "tiny" / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


@pytest.mark.parametrize("name", ["../../x", "..", "absolute", "a/b"])
def test_exit_2_when_the_name_leaves_out(tmp_path, capsys, name):
    # the name becomes the output subdirectory, so it must stay inside --out
    work = tmp_path / "a" / "b"
    work.mkdir(parents=True)
    if name == "absolute":
        name = str(tmp_path / "escaped")
    cfg = _write(work, _tiny(name=name))
    assert main(["run", cfg, "--out", str(work / "o")]) == 2
    assert "name must be one directory name" in capsys.readouterr().err
    assert tree(tmp_path) == ["a/", "a/b/", "a/b/exp.yaml"]


@pytest.mark.parametrize("case", ["out-is-a-file", "out-under-a-file",
                                  "name-too-long", "name-too-long-under-new-dirs",
                                  "name-too-long-under-new-dirs-and-dotdot"])
def test_exit_2_before_compute_when_the_output_directory_cannot_be_made(
        tmp_path, capsys, monkeypatch, case):
    # each ended in a traceback with exit 1 once the whole run had finished.
    # A name too long under --out directories that do not exist yet left
    # those directories behind: the ones made before the name failed
    def no_compute(*args, **kw):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(dtalloc.engine, "run", no_compute)
    afile = tmp_path / "afile"
    afile.write_text("")
    doc = _tiny(name="x" * 300) if case.startswith("name-too-long") else _tiny()
    cfg = _write(tmp_path, doc)
    out = str(afile / "sub" if case == "out-under-a-file" else
              afile if case == "out-is-a-file" else
              tmp_path / "o" / "p" / "q" if case.endswith("new-dirs") else
              tmp_path / "o" / "p" / ".." / "q" if case.endswith("dotdot") else
              tmp_path / "o")
    for argv in (["run", cfg], ["compare", cfg],
                 ["sweep", cfg, "--axis", "beta", "--values", "0.5,1"]):
        assert main([*argv, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("config error: cannot create output "
                                       "directory "), captured.err
        assert "Traceback" not in captured.err
        assert tree(tmp_path) == ["afile", "exp.yaml"]


HUGE = 10 ** 400


@pytest.mark.parametrize("over,fragment", [
    ({"schema_version": HUGE}, "schema_version"),
    ({"u": HUGE}, "u="),
    ({"name": "x" * 500 + "/"}, "name"),
    ({"network": {"topology": "complete", "n": HUGE, "proposal": 0.3,
                  "theta": 0.8}}, "network has n="),
    ({"network": {"topology": "complete", "n": 2, "proposal": 0.3,
                  "theta": [0.5] * 300}}, "network.theta"),
    ({"network": {"topology": "edges", "edges": [[0, 1] + [0.3] * 300],
                  "theta": 0.8}}, "network.edges"),
    ({"engine": [1] * 300}, "engine"),
    ({"stepsizes": {"source": "explicit", "alpha": [0.05] * 300, "beta": 0.1}},
     "stepsizes.alpha"),
    ({"disturbance": {"kind": "impulse", "m_zeta": 1.0, "q_zeta": 0.9,
                      "cutoff": -HUGE}}, "cutoff"),
    ({"rate": {"window": HUGE}}, "rate.window"),
    ({"sweep": {"axis": "beta", "values": [HUGE]}}, "sweep value for beta"),
    # ten curvatures whose rate constants underflow: the whole list was echoed
    ({"cost": {"a": [1e-200 * (1 + i) for i in range(10)], "b": [0.1] * 10},
      "demand": [1.0] * 10,
      "network": {"topology": "complete", "n": 10, "proposal": 0.03,
                  "theta": 0.8}}, "cost.a"),
])
def test_exit_2_echoes_a_long_value_shortened(tmp_path, capsys, over, fragment):
    # a 400-digit integer or a 300-item list was echoed in full; the huge
    # numbers of the non-finite and memory-limit tests are checked there
    cfg = _write(tmp_path, _tiny(**over))
    before = tree(tmp_path)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert err.strip() and max(map(len, err.splitlines())) < 200, err
    assert tree(tmp_path) == before


@pytest.mark.parametrize("engine_over,size", [
    ({"replicas": 1_000_000_000}, "replicas"),       # hung in SeedSequence.spawn
    ({"iterations": 1_000_000_000_000}, "steps"),    # died allocating the traces
    # past the float range, these crashed formatting the message
    ({"replicas": 10 ** 400}, "replicas"),
    ({"iterations": 10 ** 400}, "steps"),
])
def test_exit_2_before_compute_past_the_memory_limit(tmp_path, capsys,
                                                     engine_over, size):
    doc = _tiny()
    doc["engine"].update(engine_over)
    cfg = _write(tmp_path, doc)
    for argv in (["run", cfg], ["compare", cfg],
                 ["sweep", cfg, "--axis", "beta", "--values", "0.5,1"]):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "capacity error" in err and "GiB limit" in err and size in err
        assert max(map(len, err.splitlines())) < 200, err
        # the run was refused before its output directory was made
        assert tree(tmp_path) == ["exp.yaml"]


def test_main_yaml_past_the_memory_limit_leaves_no_directory(tmp_path, capsys):
    # main.yaml at 10 ** 9 replicas exited 2 but left an empty o/main/: the
    # output directory was made before the engine applied its memory check.
    # Every main.yaml run warns (its plan fails coupling); a refused command
    # warns of nothing, since all its checks come before any call runs.
    with open(os.path.join(EXPERIMENTS, "main.yaml")) as fh:
        doc = yaml.safe_load(fh)
    doc["engine"]["replicas"] = 1_000_000_000
    cfg = _write(tmp_path, doc)
    for argv in (["run", cfg], ["compare", cfg],
                 ["sweep", cfg, "--axis", "beta", "--values", "0.5,1"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert not [w for w in caught if issubclass(w.category, PlanWarning)]
        assert capsys.readouterr().err.startswith(
            "capacity error: 1000000000 replicas")
        assert tree(tmp_path) == ["exp.yaml"]


@pytest.mark.parametrize("spelled,plain", [
    # one b_i per agent goes to every resource coordinate
    ({"u": 2, "cost": {"a": [1.0, 2.0], "b": [0.1, -0.1]},
      "demand": [[1.0, 0.5], [1.0, 1.5]]},
     {"u": 2, "cost": {"a": [1.0, 2.0], "b": [[0.1, 0.1], [-0.1, -0.1]]},
      "demand": [[1.0, 0.5], [1.0, 1.5]]}),
    # an integral float runs as that integer
    ({"engine": {"iterations": 300.0, "replicas": 2}},
     {"engine": {"iterations": 300, "replicas": 2}}),
    # an explicit x0 is the array engine.run starts from, as demand's is
    ({"engine": {"iterations": 200, "replicas": 2, "x0": [1.0, 1.0]}},
     {"engine": {"iterations": 200, "replicas": 2, "x0": "demand"}}),
], ids=["flat-b", "integral-float", "x0-list"])
def test_two_spellings_of_one_config_write_the_same_trace(tmp_path, spelled,
                                                          plain):
    traces = []
    for tag, over in (("spelled", spelled), ("plain", plain)):
        cfg = _write(tmp_path, _tiny(**over), f"{tag}.yaml")
        assert main(["run", cfg, "--out", str(tmp_path / tag)]) == 0
        traces.append((tmp_path / tag / "tiny" / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_one_agent_runs_and_compares(tmp_path, capsys):
    # no links at all: DTA is x(k+1) = x(k) - alpha y(k), which meets x = d
    # at the rate 1 - alpha = 2/3 of the optimal plan
    doc = _tiny(cost={"a": [1.0], "b": [0.1]}, demand=[2.0],
                network={"topology": "complete", "n": 1, "theta": 0.8},
                stepsizes={"source": "optimal"},
                engine={"iterations": 40, "replicas": 2},
                rate={"window": 20})
    cfg = _write(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    assert "q_n 0.666667" in capsys.readouterr().out
    s = json.loads((tmp_path / "o" / "tiny" / "summary.json").read_text())
    assert s["alpha"] == pytest.approx(1 / 3)
    assert main(["compare", cfg, "--out", str(tmp_path / "o")]) == 0


# ----------------------------------------------------------------- bounds

def test_bounds_emits_parseable_json(tmp_path, capsys):
    cfg = _write(tmp_path, _tiny(stepsizes={"source": "optimal"}))
    assert main(["bounds", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    for key in ("spectral", "kkt", "constants", "optimal", "plan",
                "mean_square_region", "mean_region", "predicted_rate",
                "wga_alpha"):
        assert key in payload, key
    assert payload["optimal"]["alpha"] == payload["plan"]["alpha"]
    assert payload["spectral"]["connected_in_mean"] is True
    assert payload["constants"]["k1"] > 0.0
    # the mean-optimal pair sits outside the (conservative) mean-square
    # region on this instance, so no rate certificate exists for it
    assert payload["mean_square_region"]["feasible"] is False
    assert payload["predicted_rate"] is None


def test_bounds_certifies_feasible_explicit_plan(tmp_path, capsys):
    cfg = _write(tmp_path, _tiny())   # explicit (0.05, 0.1), inside the region
    assert main(["bounds", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "optimal" not in payload
    assert payload["mean_square_region"]["feasible"] is True
    assert 0.0 < payload["predicted_rate"] < 1.0


def test_bounds_reports_uncoordinated_region_for_vector_plans(tmp_path, capsys):
    doc = _tiny(stepsizes={"source": "explicit",
                           "alpha": [0.01, 0.02], "beta": [0.05, 0.06]})
    cfg = _write(tmp_path, doc)
    assert main(["bounds", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "uncoordinated_region" in payload
    assert set(payload["uncoordinated_region"]["conditions"]) == {
        "sum-alpha", "alpha-bound", "s6-contracts", "s4-magnitude", "coupling"}


# ----------------------------------------------------------------- sweeps

def test_run_honors_config_sweep(tmp_path):
    doc = _tiny(sweep={"axis": "alpha", "values": [0.5, 1.0]})
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert (out / "tiny" / "alpha_00.csv").is_file()
    assert (out / "tiny" / "alpha_01.csv").is_file()
    s = json.loads((out / "tiny" / "summary.json").read_text())
    assert s["axis"] == "alpha"
    assert [p["value"] for p in s["points"]] == [0.5, 1.0]
    assert all(p["empirical_rate"]["q"] < 1.0 for p in s["points"])


def test_sweep_subcommand_overrides_config_sweep(tmp_path):
    doc = _tiny(sweep={"axis": "alpha", "values": [0.5, 1.0]})
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["sweep", cfg, "--axis", "beta",
                 "--values", "0.8,1.0,1.2", "--out", str(out)]) == 0
    names = sorted(os.listdir(out / "tiny"))
    assert names == ["beta_00.csv", "beta_01.csv", "beta_02.csv",
                     "summary.json"]
    s = json.loads((out / "tiny" / "summary.json").read_text())
    assert s["axis"] == "beta"
    assert [p["value"] for p in s["points"]] == [0.8, 1.0, 1.2]


def test_sweep_rejects_bad_values(tmp_path):
    cfg = _write(tmp_path, _tiny())
    assert main(["sweep", cfg, "--axis", "beta", "--values", "a,b"]) == 2
    assert main(["sweep", cfg, "--axis", "beta", "--values", ","]) == 2
    # argparse rejects unknown axes before we ever see them
    assert main(["sweep", cfg, "--axis", "gamma", "--values", "1"]) == 2


def test_sweep_exit_4_only_when_every_point_diverges(tmp_path):
    cfg = _write(tmp_path, _tiny())
    out1 = tmp_path / "mixed"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PlanWarning)
        # beta x1 converges, beta x5000 blows up -> still exit 0
        assert main(["sweep", cfg, "--axis", "beta",
                     "--values", "1.0,5000", "--out", str(out1)]) == 0
        s = json.loads((out1 / "tiny" / "summary.json").read_text())
        assert [p["diverged"] for p in s["points"]] == [False, True]
        out2 = tmp_path / "allbad"
        assert main(["sweep", cfg, "--axis", "beta",
                     "--values", "4000,5000", "--out", str(out2)]) == 4


@pytest.mark.parametrize("argv,over,fragment", [
    (["sweep", "--axis", "theta", "--values", "0.5,1.5"], {}, "theta"),
    (["sweep", "--axis", "beta", "--values", "nan,1.0"], {}, "sweep value"),
    (["sweep", "--axis", "theta", "--values", "nan"], {}, "sweep value"),
    (["run"], {"sweep": {"axis": "beta", "values": [float("nan"), 1.0]}},
     "sweep value"),
])
def test_sweep_checks_every_point_before_compute(tmp_path, capsys, argv, over,
                                                 fragment):
    cfg = _write(tmp_path, _tiny(**over))
    before = tree(tmp_path)
    assert main([argv[0], cfg, *argv[1:], "--out", str(tmp_path / "o")]) == 2
    assert fragment in capsys.readouterr().err
    assert tree(tmp_path) == before           # no point ran, nothing written


WGA = {"algorithm": "wga", "iterations": 200, "replicas": 2}


def test_wga_alpha_sweep_scales_wga_alpha(tmp_path):
    # source explicit without a dta plan: wga needs only wga_alpha
    doc = _tiny(engine=WGA, stepsizes={"source": "explicit", "wga_alpha": 0.2})
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["sweep", cfg, "--axis", "alpha", "--values", "0.5,1.0,2.0",
                 "--out", str(out)]) == 0
    traces = [(out / "tiny" / f"alpha_{i:02d}.csv").read_bytes() for i in range(3)]
    assert len(set(traces)) == 3
    s = json.loads((out / "tiny" / "summary.json").read_text())
    assert [p["wga_alpha"] for p in s["points"]] == [0.1, 0.2, 0.4]
    assert all("alpha" not in p and "beta" not in p for p in s["points"])
    assert all(p["algorithm"] == "wga" for p in s["points"])


@pytest.mark.parametrize("argv,stepsizes,fragment", [
    (["sweep", "--axis", "beta", "--values", "0.5,1.0"], {}, "no beta"),
    (["run"], {"wga_alpha": None}, "wga_alpha"),
    (["sweep", "--axis", "alpha", "--values", "0.5,1.0"], {"wga_alpha": None},
     "wga_alpha"),
    (["compare"], {"wga_alpha": None}, "wga_alpha"),
    (["compare"], {"alpha": None, "beta": None}, "dta needs a resolved plan"),
])
def test_exit_2_before_compute_on_wga_plan_errors(tmp_path, capsys, argv,
                                                  stepsizes, fragment):
    doc = _tiny(engine=WGA)
    doc["stepsizes"].update(stepsizes)
    cfg = _write(tmp_path, doc)
    before = tree(tmp_path)
    assert main([argv[0], cfg, *argv[1:], "--out", str(tmp_path / "o")]) == 2
    assert fragment in capsys.readouterr().err
    assert tree(tmp_path) == before


def test_theta_sweep_includes_silent_network(tmp_path):
    # long horizon so the stall detector's trailing window (10^4 steps)
    # clears the initial transient at theta=0
    doc = _tiny(engine={"iterations": 11000, "replicas": 1})
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    with pytest.warns(PlanWarning, match=r"tiny\[theta=0.0\]: no region check"):
        assert main(["sweep", cfg, "--axis", "theta",
                     "--values", "0.8,0.0", "--out", str(out)]) == 0
    s = json.loads((out / "tiny" / "summary.json").read_text())
    # theta=0: no mixing ever happens, the residual plateaus above zero
    assert s["points"][0]["final_ratio"] < s["points"][1]["final_ratio"]
    assert s["points"][0]["non_convergent"] is False
    assert s["points"][1]["non_convergent"] is True


def test_theta_sweep_checks_each_point_against_its_own_constants(tmp_path):
    # the plan is tuned for theta = 0.9; at theta = 0.01 the point's own
    # constants fail the alpha bound and the coupling inequality, and at
    # theta = 0 there are none
    with open(os.path.join(EXPERIMENTS, "theta_sweep.yaml")) as fh:
        doc = yaml.safe_load(fh)
    doc["engine"].update(iterations=200, replicas=1)
    doc["rate"] = {"window": 50}
    cfg = _write(tmp_path, doc)
    with pytest.warns(PlanWarning) as caught:
        assert main(["sweep", cfg, "--axis", "theta", "--values", "0.9,0.01,0",
                     "--out", str(tmp_path / "o")]) == 0
    assert [str(w.message) for w in caught] == [
        "theta-sweep[theta=0.01]: stepsizes outside the guaranteed region "
        "(failing: alpha-bound, coupling); running anyway",
        "theta-sweep[theta=0.0]: no region check (network is not connected "
        "in mean); running anyway"]


def test_theta_sweep_point_with_constants_out_of_range_warns_once_and_runs(tmp_path):
    # connected in mean at theta = 1e-10, but K1 = eta (1 - lambda2) c1 ~ 1e-163
    # has no float square
    cfg = _write(tmp_path, _tiny(cost={"a": [1e-152, 2e-152], "b": [0.0, 0.0]}))
    out = tmp_path / "o"
    with pytest.warns(PlanWarning) as caught:
        assert main(["sweep", cfg, "--axis", "theta", "--values", "1e-10",
                     "--out", str(out)]) == 0
    assert [str(w.message) for w in caught] == [
        "tiny[theta=1e-10]: no region check (rate constants out of float "
        "range); running anyway"]
    assert (out / "tiny" / "theta_00.csv").is_file()


# ---------------------------------------------------------------- compare

@pytest.mark.parametrize("wga_alpha,code", [(500.0, 4), ("auto", 0)])
def test_compare_exit_4_only_when_both_diverge(tmp_path, wga_alpha, code):
    # dta diverges at beta 500; wga diverges too at wga_alpha 500, not at auto
    doc = _tiny(stepsizes={"source": "explicit", "alpha": 0.2, "beta": 500.0,
                           "wga_alpha": wga_alpha})
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    with pytest.warns(PlanWarning, match="outside the guaranteed region"):
        assert main(["compare", cfg, "--out", str(out)]) == code
    s = json.loads((out / "tiny" / "summary.json").read_text())
    assert s["dta"]["diverged"]
    assert s["wga"]["diverged"] is (code == 4)


def test_compare_writes_paired_traces(tmp_path):
    doc = _tiny(engine={"iterations": 400, "replicas": 3},
                disturbance={"kind": "gaussian", "m_zeta": 0.5,
                             "q_zeta": 0.995})
    doc["engine"]["x0"] = "demand"
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["compare", cfg, "--out", str(out)]) == 0
    assert (out / "tiny" / "dta.csv").is_file()
    assert (out / "tiny" / "wga.csv").is_file()
    s = json.loads((out / "tiny" / "summary.json").read_text())
    assert s["wga_gap_identity_err"] is not None
    assert s["wga_gap_identity_err"] <= 1e-9
    assert s["final_ratio_wga_over_dta"] > 1.0
    assert s["dta"]["final_ratio"] < s["wga"]["final_ratio"]


def test_compare_without_disturbance_has_no_gap_identity(tmp_path):
    cfg = _write(tmp_path, _tiny())
    out = tmp_path / "o"
    assert main(["compare", cfg, "--out", str(out)]) == 0
    s = json.loads((out / "tiny" / "summary.json").read_text())
    assert s["wga_gap_identity_err"] is None     # NaN -> null


def test_compare_reruns_are_deterministic(tmp_path):
    doc = _tiny(disturbance={"kind": "impulse", "m_zeta": 1.0,
                             "q_zeta": 0.99, "cutoff": 50})
    cfg = _write(tmp_path, doc)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["compare", cfg, "--out", str(a)]) == 0
    assert main(["compare", cfg, "--out", str(b)]) == 0
    for fname in ("dta.csv", "wga.csv"):
        assert (a / "tiny" / fname).read_bytes() == \
               (b / "tiny" / fname).read_bytes()


# ------------------------------------------------- pinned trace bytes

# An irregular graph, u = 2, per-agent stepsizes and a gaussian disturbance:
# exercises every axis of the mixing kernel's layout and both algorithms.
IRREGULAR = {
    "name": "irregular",
    "seed": 4242,
    "u": 2,
    "cost": {"a": [0.6, 1.1, 1.7, 0.9, 1.4, 0.8],
             "b": [[0.3, -0.2], [-0.5, 0.1], [0.2, 0.4],
                   [-0.1, -0.6], [0.7, 0.0], [0.0, 0.5]]},
    "demand": [[1.2, -0.4], [0.3, 0.9], [-1.1, 0.6],
               [0.8, 1.5], [-0.2, -0.9], [1.6, 0.2]],
    "network": {"topology": "edges", "theta": 0.7,
                "edges": [[0, 1, 0.11], [1, 2, 0.07], [2, 3, 0.09],
                          [3, 4, 0.12], [4, 5, 0.06], [5, 0, 0.10],
                          [1, 4, 0.08], [0, 3, 0.05]]},
    "engine": {"iterations": 1500, "replicas": 3, "x0": "demand"},
    "stepsizes": {"source": "explicit",
                  "alpha": [0.04, 0.045, 0.05, 0.055, 0.06, 0.042],
                  "beta": [0.3, 0.35, 0.4, 0.45, 0.5, 0.33],
                  "wga_alpha": 0.5},
    "disturbance": {"kind": "gaussian", "m_zeta": 0.5, "q_zeta": 0.995},
    "rate": {"window": 500},
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_trace_bytes_pinned_across_kernel_changes(tmp_path):
    """Trace CSVs must not move when the step kernels are rewritten.

    The digests were recorded with the two-pass `np.add.at` edge scatter;
    a kernel that changes any residual in its last bit fails here.
    """
    with open(os.path.join(EXPERIMENTS, "main.yaml")) as fh:
        doc = yaml.safe_load(fh)
    doc["engine"]["iterations"] = doc["rate"]["k_end"] = 2000
    out = tmp_path / "o"
    # each plan fails a region condition; the suite's error::RuntimeWarning
    # stays on, so a floating-point fault in a pinned run fails here
    with pytest.warns(PlanWarning, match="outside the guaranteed region"):
        assert main(["run", _write(tmp_path, doc, "main.yaml"),
                     "--out", str(out)]) == 0
    with pytest.warns(PlanWarning, match="outside the guaranteed region"):
        assert main(["compare", _write(tmp_path, IRREGULAR, "irregular.yaml"),
                     "--out", str(out)]) == 0
    assert _sha256(out / "main" / "trace.csv") == \
        "b3e2323b4e7e5cf8faeda5ef2af5cd333dc40aece63c4b71035a66930eebab04"
    assert _sha256(out / "irregular" / "dta.csv") == \
        "ccd2c5ea1a698b7a3e745ce0be7cdd562bb5846e7b64200cff8de3dac58449b3"
    assert _sha256(out / "irregular" / "wga.csv") == \
        "5f64bde5143ccd31f87f9f732c6fedbbc52a6be99121a3e2bf8d00e9fb6db693"


@pytest.mark.parametrize("name, digest", [
    ("disturbance_laplace",
     "5346d1e0683453828a0b239eda942fe157cb9bfbcc72b4ac26d2231eaca9faa2"),
    ("disturbance_impulse",
     "844286dfefe44f41f553eb20f44f27f7db489b9eeb61349875886781958b45cc"),
])
def test_disturbed_trace_bytes_pinned(tmp_path, name, digest):
    """Laplace and impulse disturbance draws, pinned over 2000 steps.

    The impulse's cutoff, step 1000, falls mid-run.  The digests were
    recorded while the draws were made in chunks of 1456 steps, before each
    block of steps drew its own.
    """
    with open(os.path.join(EXPERIMENTS, f"{name}.yaml")) as fh:
        doc = yaml.safe_load(fh)
    doc["engine"]["iterations"] = doc["rate"]["k_end"] = 2000
    out = tmp_path / "o"
    # the optimal plan fails the coupling condition, as main.yaml's does
    with pytest.warns(PlanWarning, match="outside the guaranteed region"):
        assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == 0
    assert _sha256(out / doc["name"] / "trace.csv") == digest


# A 60-agent complete graph (1770 links), u = 2, a per-edge theta, per-agent
# stepsizes and a gaussian disturbance: a mixing kernel laid out for small n
# only would move these bits.
WIDE_N = 60
WIDE = {
    "name": "wide",
    "seed": 6060,
    "u": 2,
    "cost": {"a": [0.5 + 0.05 * (i % 9) for i in range(WIDE_N)],
             "b": [[0.1 * (i % 5) - 0.2, 0.3 - 0.1 * (i % 7)] for i in range(WIDE_N)]},
    "demand": [[1.0 + 0.1 * (i % 11), 0.5 - 0.2 * (i % 3)] for i in range(WIDE_N)],
    "network": {"topology": "complete", "n": WIDE_N, "proposal": "metropolis",
                "theta": [0.2 + 0.1 * (k % 8) for k in range(WIDE_N * (WIDE_N - 1) // 2)]},
    "engine": {"iterations": 300, "replicas": 3, "x0": "demand"},
    "stepsizes": {"source": "explicit",
                  "alpha": [0.01 + 0.002 * (i % 6) for i in range(WIDE_N)],
                  "beta": [0.3 + 0.05 * (i % 4) for i in range(WIDE_N)],
                  "wga_alpha": 0.5},
    "disturbance": {"kind": "gaussian", "m_zeta": 0.5, "q_zeta": 0.99},
    "rate": {"window": 100},
}


def test_trace_bytes_pinned_on_a_wide_graph(tmp_path, monkeypatch):
    """DTA (two stacked operands) and WGA (one) on a wide graph, pinned.

    The digests were recorded with the incidence-GEMM gather, before the
    row-take kernel replaced it.  A relative --out keeps the summary's
    `files` paths the same on every machine.
    """
    monkeypatch.chdir(tmp_path)
    with pytest.warns(PlanWarning, match="outside the guaranteed region"):
        assert main(["compare", _write(tmp_path, WIDE, "wide.yaml"),
                     "--out", "o"]) == 0
    out = tmp_path / "o" / "wide"
    assert _sha256(out / "dta.csv") == \
        "714cbb1d801ea49479bfaa73ad8182322f1d4af0ce4425235955bc4cd2306d1f"
    assert _sha256(out / "wga.csv") == \
        "046f786ad84b610c82621402debaff27219e24d8dc4ce850c4adb6adecce6a5b"
    assert _sha256(out / "summary.json") == \
        "c506c09c81e2953185278794a8954d1e2c893bbd849cf464df2ea2313fe5e5f1"


def test_summary_bytes_pinned_across_front_end_changes(tmp_path, monkeypatch):
    """summary.json must not move when the config/CLI front end is rewritten.

    Run from a fixed working directory with a relative --out so the `files`
    paths inside each summary are the same on every machine.
    """
    with open(os.path.join(EXPERIMENTS, "main.yaml")) as fh:
        doc = yaml.safe_load(fh)
    doc["engine"]["iterations"] = doc["rate"]["k_end"] = 2000
    monkeypatch.chdir(tmp_path)
    # each run has a plan that fails a region condition (the sweep's
    # beta = 5000 point); no RuntimeWarning is switched off
    with pytest.warns(PlanWarning, match="outside the guaranteed region"):
        assert main(["run", _write(tmp_path, doc, "main.yaml"),
                     "--out", "run"]) == 0
    with pytest.warns(PlanWarning, match="outside the guaranteed region"):
        assert main(["sweep", _write(tmp_path, _tiny(), "tiny.yaml"),
                     "--axis", "beta", "--values", "0.5,1.0,5000",
                     "--out", "sweep"]) == 0
    with pytest.warns(PlanWarning, match="outside the guaranteed region"):
        assert main(["compare", _write(tmp_path, IRREGULAR, "irregular.yaml"),
                     "--out", "compare"]) == 0
    assert _sha256(tmp_path / "run" / "main" / "summary.json") == \
        "7385353578104ff38a8cc4717c6973c961f427610ba2310f9f000cc9a6d039bd"
    assert _sha256(tmp_path / "sweep" / "tiny" / "summary.json") == \
        "7f51f91d97686d38e5997a1b9fbae2d778e047f53916cf354ce3529ac58a766d"
    assert _sha256(tmp_path / "compare" / "irregular" / "summary.json") == \
        "80208e21333a2968660fc38b2d4f753cc008dbd925aefcd023e681ef6c3c0e95"


def test_a_diverged_trace_bytes_pinned(tmp_path):
    """The tiny sweep's beta = 5000 point diverges at iteration 5, so rows
    6 .. 200 of its trace hold no number; its bytes are pinned.

    The digest was recorded while every row was formatted from its own
    values' reprs.
    """
    with pytest.warns(PlanWarning, match="outside the guaranteed region"):
        assert main(["sweep", _write(tmp_path, _tiny(), "tiny.yaml"),
                     "--axis", "beta", "--values", "0.5,1.0,5000",
                     "--out", str(tmp_path / "o")]) == 0
    trace = tmp_path / "o" / "tiny" / "beta_02.csv"
    lines = trace.read_text().splitlines()
    assert len(lines) == 2 + 201 and "nan" not in lines[2 + 5]
    assert lines[2 + 6:] == [f"{k},nan,nan,nan,nan" for k in range(6, 201)]
    assert _sha256(trace) == \
        "4268580550878dbfece680395f9f741e8aaea28c2019e95ccfa95971ddaf138f"


@pytest.mark.parametrize("name, digest", [
    ("main",
     "b0f9086103d674771987263cf75b276dd59287d39dc0c26b3d5d2fb313ed0164"),
    ("uncoordinated",
     "02cd2ceeb073264bb9917f0e632138bf60c7dbd8e069e4df6c7c6d72636d0c19"),
    ("wide",
     "5e71da256e2f8cce4ae2ae895940cb9f21433e7b42b5a1cd7c52bf846b1eacac"),
])
def test_bounds_stdout_pinned(tmp_path, capsys, name, digest):
    """`dtalloc bounds` stdout, pinned: a shared optimal plan (main.yaml),
    a per-agent plan (uncoordinated.yaml), and the 60-agent WIDE config
    (per-agent plan, u = 2, per-edge theta).

    The digests were recorded before the shared and per-agent contraction
    constants were computed by one function.
    """
    if name == "wide":
        cfg = _write(tmp_path, WIDE, "wide.yaml")
    else:
        cfg = os.path.join(EXPERIMENTS, f"{name}.yaml")
    assert main(["bounds", cfg]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ------------------------------------------------- trace writer

def _oracle_csv(traces):
    """A trace CSV as written one row at a time: k and each column's repr,
    joined by commas."""
    rows = zip(*(np.asarray(traces[c], float).tolist() for c in TRACE_COLUMNS))
    lines = [f"# schema_version: {SCHEMA_VERSION}", "k," + ",".join(TRACE_COLUMNS)]
    lines += [",".join(map(repr, (k, *row))) for k, row in enumerate(rows)]
    return ("\n".join(lines) + "\n").encode()


# values whose repr takes each of its forms: signed zeros and infinities,
# the least subnormal, the largest float, and both sides of the switches to
# exponent form at 1e16 and 1e-4
SPECIALS = [np.inf, -np.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308,
            1e16, 9999999999999998.0, 1e-05, 0.0001, 0.1, 2.0]


def _writer_cases():
    rng = np.random.default_rng(28)
    rows, nan = TRACE_CSV_ROWS, np.nan
    cases = {}
    a = rng.standard_normal((2 * rows + 88, 4))
    a[300:] = nan                                   # a tail over 2 blocks
    cases["nan-tail"] = a
    a = rng.standard_normal((rows + 5, 4))
    a[7] = nan                                      # numbers after it
    a[9, 1] = a[rows + 4, :3] = nan
    cases["nan-row-then-numbers"] = a
    a = np.full((201, 4), nan)
    a[0] = [np.inf, np.inf, 2.0, np.inf]            # the overflowing start
    cases["inf-start-then-nan"] = a
    a = np.full((rows + 40, 4), nan)
    a[rows - 1] = [nan, -0.0, nan, nan]             # the last number ends a block
    cases["block-ends-at-the-last-number"] = a
    cases["specials"] = np.resize(SPECIALS + [-v for v in SPECIALS], (rows + 1, 4))
    cases["one-row"] = [[1.5, 0.0, -0.0, 1e16]]
    cases["one-nan-row"] = [[nan] * 4]
    cases["all-nan"] = np.full((rows + 1, 4), nan)
    cases["one-block"] = rng.random((rows, 4))
    # any float64 bits, with NaN rows and NaN tails of random length
    for i in range(4):
        T = int(rng.integers(1, 3 * rows))
        a = rng.integers(0, 2 ** 64, (T, 4), dtype=np.uint64).view(float).copy()
        a[rng.random(T) < 0.1] = nan
        a[int(rng.integers(0, T + 1)):] = nan
        cases[f"random-{i}"] = a
    return cases


WRITER_CASES = _writer_cases()


@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_the_trace_writer_matches_the_row_by_row_oracle(tmp_path, case):
    a = np.asarray(WRITER_CASES[case], float)
    traces = dict(zip(TRACE_COLUMNS, a.T))
    path = tmp_path / "trace.csv"
    _write_trace_csv(path, traces)
    assert path.read_bytes() == _oracle_csv(traces)
