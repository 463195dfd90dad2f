"""Config fuzzing: a malformed input exits 2 before any compute.

Each example sets one key of a small valid config (3 agents, 50 steps, 2
replicas, a 2-point sweep, a disturbance) to a value of the wrong type,
size or range, then runs `dtalloc run` in-process.  The run must exit 2,
print no traceback and make no file or directory.
"""

import contextlib
import copy
import io
import math
import os
import tempfile

import pytest
import yaml

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from dtalloc.cli import main  # noqa: E402
from fs_tree import tree  # noqa: E402

VALID = {
    "name": "fuzz",
    "seed": 3,
    "u": 1,
    "cost": {"a": [1.0, 2.0, 1.5], "b": [0.1, -0.1, 0.0], "c": 0.0},
    "demand": [1.0, 1.0, 2.0],
    "network": {"topology": "complete", "n": 3, "proposal": 0.3, "theta": 0.8},
    "engine": {"algorithm": "dta", "iterations": 50, "replicas": 2, "x0": "zeros"},
    "stepsizes": {"source": "explicit", "alpha": 0.05, "beta": 0.1,
                  "wga_alpha": 0.1},
    "disturbance": {"kind": "gaussian", "m_zeta": 0.5, "q_zeta": 0.9},
    "rate": {"k_end": 50, "window": 10},
    "sweep": {"axis": "beta", "values": [0.5, 1.0]},
}
N = 3   # agents, and links of the complete graph

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
FRACTIONS = st.floats(0.5, 1000).filter(lambda v: not v.is_integer())


def wrong_type(words=(), none_ok=False):
    """Values of another type: text other than `words`, booleans, mappings
    (with keys no section has), lists of text, and None unless it is valid."""
    kinds = [st.text(max_size=6).filter(lambda s: s not in words),
             st.booleans(),
             st.dictionaries(st.text(max_size=3).map("_".__add__), st.integers(),
                             min_size=1, max_size=2),
             st.lists(st.text(max_size=3), min_size=1, max_size=2)]
    return st.one_of(*kinds, *(() if none_ok else (st.none(),)))


def numbers(*, bad_lengths=(), low=None, high=None):
    """Numeric values out of range: lists of a length in `bad_lengths`,
    lists holding a non-finite value, and scalars below `low` or above `high`."""
    kinds = [st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k) for k in bad_lengths]
    kinds.append(st.lists(st.one_of(st.floats(0.1, 1.0), NON_FINITE),
                          min_size=N, max_size=N).filter(
        lambda v: not all(map(math.isfinite, v))))
    kinds.append(NON_FINITE)
    if low is not None:
        kinds.append(st.floats(max_value=low, allow_nan=False, allow_infinity=False))
    if high is not None:
        kinds.append(st.floats(min_value=high, allow_nan=False, allow_infinity=False))
    return st.one_of(kinds)


def integers(valid, *, low=None, high=None):
    """Integers outside [low, high] (or other than `valid`), and fractions."""
    kinds = [FRACTIONS]
    if valid is not None:
        kinds.append(st.integers(-5, 10 ** 12).filter(lambda v: v != valid))
    if low is not None:
        kinds.append(st.integers(max_value=low - 1))
    if high is not None:
        kinds.append(st.integers(min_value=high + 1, max_value=10 ** 15))
    return st.one_of(kinds)


PER_AGENT_LENGTHS = (0, 1, 2, 4, 5)
BAD = {
    "name": st.one_of(st.sampled_from(["", ".", ".."]),
                      st.text(max_size=4).map(lambda s: s + "/x"),
                      # one level up from --out: still inside the test's directory
                      st.text("abc", max_size=4).map(lambda s: "../" + s),
                      st.integers(), st.booleans(), st.none(),
                      st.lists(st.text(max_size=3), min_size=1, max_size=2)),
    "seed": st.one_of(integers(None, low=0), wrong_type()),
    "u": st.one_of(integers(1), wrong_type()),
    "schema_version": st.one_of(integers(1), wrong_type()),
    "cost": wrong_type(),
    "cost.a": st.one_of(numbers(bad_lengths=(0, 2, 4), low=0.0), wrong_type()),
    "cost.b": st.one_of(numbers(bad_lengths=(0, 2, 4)), wrong_type()),
    "cost.c": st.one_of(numbers(bad_lengths=(0, 2, 4)), wrong_type()),
    "demand": st.one_of(numbers(bad_lengths=PER_AGENT_LENGTHS), wrong_type()),
    "network": wrong_type(),
    "network.topology": wrong_type(("complete", "ring", "edges")),
    "network.n": st.one_of(integers(N), wrong_type()),
    # each agent of the 3-agent complete graph has 2 links of this weight
    "network.proposal": st.one_of(numbers(low=0.0, high=0.5),
                                  wrong_type(("metropolis",))),
    "network.theta": st.one_of(numbers(bad_lengths=PER_AGENT_LENGTHS, low=0.0,
                                       high=1.0 + 1e-9), wrong_type()),
    "engine": wrong_type(),
    "engine.algorithm": wrong_type(("dta", "wga")),
    # below k_end, or past the memory limit
    "engine.iterations": st.one_of(integers(None, low=50, high=10 ** 11),
                                   wrong_type()),
    "engine.replicas": st.one_of(integers(None, low=1, high=10 ** 6), wrong_type()),
    "engine.x0": st.one_of(numbers(bad_lengths=PER_AGENT_LENGTHS),
                           wrong_type(("zeros", "demand"), none_ok=True)),
    "stepsizes": wrong_type(),
    "stepsizes.source": wrong_type(("optimal", "explicit")),
    "stepsizes.alpha": st.one_of(numbers(bad_lengths=PER_AGENT_LENGTHS), wrong_type()),
    "stepsizes.beta": st.one_of(numbers(bad_lengths=PER_AGENT_LENGTHS), wrong_type()),
    "stepsizes.wga_alpha": st.one_of(numbers(bad_lengths=(1, 3)),
                                     wrong_type(("auto",), none_ok=True)),
    "disturbance": wrong_type(none_ok=True),
    "disturbance.kind": wrong_type(("none", "gaussian", "laplace", "impulse")),
    "disturbance.m_zeta": st.one_of(numbers(low=-1e-9), wrong_type()),
    "disturbance.q_zeta": st.one_of(numbers(low=0.0, high=1.0), wrong_type()),
    "disturbance.cutoff": st.one_of(integers(None, low=0), wrong_type(none_ok=True)),
    "rate": wrong_type(),
    # the window is 10 and the horizon 50
    "rate.k_end": st.one_of(integers(None, low=10, high=50), wrong_type(none_ok=True)),
    "rate.window": st.one_of(integers(None, low=1, high=50), wrong_type(none_ok=True)),
    "sweep": wrong_type(none_ok=True),
    "sweep.axis": wrong_type(("alpha", "beta", "theta")),
    "sweep.values": st.one_of(st.just([]), numbers(), wrong_type(),
                              st.lists(st.text(max_size=3), min_size=1, max_size=2)),
}


def _mutated(path, value):
    doc = copy.deepcopy(VALID)
    *parents, key = path.split(".")
    section = doc
    for p in parents:
        section = section[p]
    section[key] = value
    return doc


def test_the_unmutated_config_runs(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(VALID))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0


@settings(max_examples=300, deadline=None, database=None)
# numbers written as strings, which np.asarray(v, float) would read
@example(("stepsizes.alpha", "0"))
@example(("cost.a", ["1.0", "2.0", "1.5"]))
@example(("demand", ["1", "1", "2"]))
@example(("network.theta", "0.8"))
@given(st.sampled_from(sorted(BAD)).flatmap(
    lambda path: st.tuples(st.just(path), BAD[path])))
def test_a_malformed_key_exits_2_before_compute(mutation):
    path, value = mutation
    with tempfile.TemporaryDirectory() as tmp:
        work = os.path.join(tmp, "work")
        os.mkdir(work)
        cfg = os.path.join(work, "c.yaml")
        with open(cfg, "w") as fh:
            yaml.safe_dump(_mutated(path, value), fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", cfg, "--out", os.path.join(work, "o")])
        assert code == 2, (path, value, err.getvalue())
        assert "Traceback" not in err.getvalue()
        # no file and no directory made
        assert tree(tmp) == ["work/", "work/c.yaml"], (path, value)
