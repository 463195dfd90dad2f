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
from dtalloc.cli import main

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
    with pytest.warns(RuntimeWarning, match="outside the guaranteed region"):
        code = main(["run", cfg, "--out", str(out)])
    assert code == 0
    assert (out / "tiny" / "trace.csv").is_file()


def test_non_positive_alpha_warns_and_has_no_rate(tmp_path, capsys):
    doc = _tiny()
    doc["stepsizes"]["alpha"] = -0.01
    cfg = _write(tmp_path, doc)
    with pytest.warns(RuntimeWarning, match="failing: alpha-bound"):
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert main(["bounds", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean_square_region"]["conditions"][0] is False
    assert payload["predicted_rate"] is None


def _shell(*argv):
    """`dtalloc *argv` in a fresh interpreter: (exit code, stdout, stderr)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dtalloc.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "dtalloc.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    return proc.returncode, proc.stdout, proc.stderr


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
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0


# ------------------------------------------------------------- exit codes

def test_exit_2_on_bad_config(tmp_path, capsys):
    doc = _tiny()
    doc["bogus"] = 1
    cfg = _write(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("window", [0, 500])
def test_exit_2_before_compute_on_window_outside_k_end(tmp_path, capsys, window):
    cfg = _write(tmp_path, _tiny(rate={"window": window}))
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert "rate.window" in capsys.readouterr().err
    assert not (out / "tiny" / "trace.csv").exists()


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
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", cfg, "--out", str(out)]) == 2
    assert fragment in capsys.readouterr().err
    assert not (out / "tiny" / "trace.csv").exists()


@pytest.mark.parametrize("a", [[1.0e200, 2.0e200], [1.0e-200, 2.0e-200]],
                         ids=["huge", "tiny"])
def test_exit_2_on_a_curvature_past_the_float_range(tmp_path, capsys, a):
    # phi^2 overflowed a float's ** (huge), and K2^2 underflowed to a zero
    # divisor (tiny): each ended bounds and run in a traceback with exit 1
    cfg = _write(tmp_path, _tiny(cost={"a": a, "b": [0.1, -0.1]}))
    out = tmp_path / "o"
    for argv in (["bounds", cfg], ["run", cfg, "--out", str(out)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert "config error: cost.a" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("theta", [[0.5, 0.5], [[0.5]], []])
def test_exit_2_before_compute_on_theta_length(tmp_path, capsys, theta):
    doc = _tiny()
    doc["network"]["theta"] = theta        # the two-agent graph has one link
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "network.theta" in err and "each of the 1 links" in err
    assert not (out / "tiny" / "trace.csv").exists()
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
    out = tmp_path / "o"
    extra = [] if argv == ["bounds"] else ["--out", str(out)]
    assert main([argv[0], cfg, *argv[1:], *extra]) == 2
    captured = capsys.readouterr()
    assert "per-agent stepsizes" in captured.err and captured.out == ""
    assert not out.exists()


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


def test_exit_2_on_missing_file(tmp_path):
    assert main(["run", str(tmp_path / "nope.yaml")]) == 2


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
        warnings.simplefilter("ignore")
        assert main(["run", cfg, "--out", str(out)]) == 4
    s = json.loads((out / "tiny" / "summary.json").read_text())
    assert s["diverged"] and s["diverged_at"] is not None
    # NaN residuals serialize as nulls past the divergence point
    assert s["final_ratio"] is None


def _files_under(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


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
    assert _files_under(tmp_path) == ["a/b/exp.yaml"]


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
    assert _files_under(tmp_path) == ["exp.yaml"]


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
        warnings.simplefilter("ignore")
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
    out = tmp_path / "o"
    assert main([argv[0], cfg, *argv[1:], "--out", str(out)]) == 2
    assert fragment in capsys.readouterr().err
    assert not out.exists()                   # no point ran, nothing written


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
])
def test_exit_2_before_compute_on_wga_plan_errors(tmp_path, capsys, argv,
                                                  stepsizes, fragment):
    doc = _tiny(engine=WGA)
    doc["stepsizes"].update(stepsizes)
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert main([argv[0], cfg, *argv[1:], "--out", str(out)]) == 2
    assert fragment in capsys.readouterr().err
    assert not out.exists()


def test_theta_sweep_includes_silent_network(tmp_path):
    # long horizon so the stall detector's trailing window (10^4 steps)
    # clears the initial transient at theta=0
    doc = _tiny(engine={"iterations": 11000, "replicas": 1})
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["sweep", cfg, "--axis", "theta",
                 "--values", "0.8,0.0", "--out", str(out)]) == 0
    s = json.loads((out / "tiny" / "summary.json").read_text())
    # theta=0: no mixing ever happens, the residual plateaus above zero
    assert s["points"][0]["final_ratio"] < s["points"][1]["final_ratio"]
    assert s["points"][0]["non_convergent"] is False
    assert s["points"][1]["non_convergent"] is True


# ---------------------------------------------------------------- compare

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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["run", _write(tmp_path, doc, "main.yaml"),
                     "--out", str(out)]) == 0
        assert main(["compare", _write(tmp_path, IRREGULAR, "irregular.yaml"),
                     "--out", str(out)]) == 0
    assert _sha256(out / "main" / "trace.csv") == \
        "b3e2323b4e7e5cf8faeda5ef2af5cd333dc40aece63c4b71035a66930eebab04"
    assert _sha256(out / "irregular" / "dta.csv") == \
        "ccd2c5ea1a698b7a3e745ce0be7cdd562bb5846e7b64200cff8de3dac58449b3"
    assert _sha256(out / "irregular" / "wga.csv") == \
        "5f64bde5143ccd31f87f9f732c6fedbbc52a6be99121a3e2bf8d00e9fb6db693"


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["run", _write(tmp_path, doc, "main.yaml"),
                     "--out", "run"]) == 0
        assert main(["sweep", _write(tmp_path, _tiny(), "tiny.yaml"),
                     "--axis", "beta", "--values", "0.5,1.0,5000",
                     "--out", "sweep"]) == 0
        assert main(["compare", _write(tmp_path, IRREGULAR, "irregular.yaml"),
                     "--out", "compare"]) == 0
    assert _sha256(tmp_path / "run" / "main" / "summary.json") == \
        "7385353578104ff38a8cc4717c6973c961f427610ba2310f9f000cc9a6d039bd"
    assert _sha256(tmp_path / "sweep" / "tiny" / "summary.json") == \
        "7f51f91d97686d38e5997a1b9fbae2d778e047f53916cf354ce3529ac58a766d"
    assert _sha256(tmp_path / "compare" / "irregular" / "summary.json") == \
        "80208e21333a2968660fc38b2d4f753cc008dbd925aefcd023e681ef6c3c0e95"
