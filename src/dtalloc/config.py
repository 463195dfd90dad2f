"""YAML experiment configs: schema, loading, and resolution to run inputs.

A config is plain data (lists and scalars, no numpy) so that
from_dict(to_dict(cfg)) == cfg.  `resolve()` turns one into the concrete objects the
engine needs: problem, network model, spectral report, rate constants, and
the resolved stepsize plan.

Stepsize resolution, in order:
  1. source "optimal" computes (alpha, beta) from the rate constants of the
     configured network; "explicit" starts from nothing.
  2. explicit `alpha:` / `beta:` entries (a scalar, or one value per agent)
     override their slot (either source).
Sweeps over alpha/beta multiply the resolved plan of the configured
algorithm per point (wga has only `wga_alpha`), so a scaled plan is a
one-point sweep; a theta sweep replaces the link-activation probability
outright and keeps the plan fixed, checked against each point's own rate
constants.

The section dataclasses' annotations are the schema: each key is read as
its annotation says (`_reader`) -- a `Literal` is a choice of words, `int`
an integer, `float` one finite number, `Numbers` finite numbers (a scalar or
lists of them), `str` and `list` a value of that type, a dataclass a nested
section, and `X | None` lets the key be null.  `from_dict` keeps only the
rules an annotation cannot state: the schema version, the name's path rule,
the lower bounds, and the rules that tie two keys together.

`load_config` parses with libyaml when PyYAML has it, else with the
pure-Python parser, which gives the same data more slowly; either way it
first refuses a document nested more than MAX_DEPTH levels deep, or holding
more than MAX_NODES nodes once its aliases are expanded.
"""
from __future__ import annotations

import functools
import os
from reprlib import repr as _short   # a long value's repr, cut short
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from types import NoneType, UnionType
from typing import Literal, Union, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .costs import allocation_problem, quadratic_costs
from .engine import DisturbanceSpec, check_setup
from .errors import ConfigError
from .network import (build_model, complete_edges, ring_edges,
                      metropolis_weights, spectral_report)
from .stepsizes import constants, optimal_stepsizes, wga_default_alpha

SCHEMA_VERSION = 1
# the schema nests 4 levels (top, network, edges, edge); libyaml's composer
# recurses in C with no limit of its own, so a deeper document is refused
# from the parser's event stream before it is composed
MAX_DEPTH = 32
# about 50 times the nodes of an explicit n = 100 complete edge list (4950
# links of four nodes each); an alias expands to every node its anchor
# names, so ten aliases of ten aliases of ... multiply, and a document of a
# few hundred bytes could otherwise expand past any memory before a check
# sees its values
MAX_NODES = 10 ** 6
LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class Numbers:
    """Annotation marker of a key that holds finite numbers: one, or lists
    of them (`_finite`)."""


def _section(cls, d, where):
    """`cls` built from the mapping `d`, once `d` holds only `cls`'s fields
    and every field without a default, each value read as its annotation
    says; a top-level key is named alone, a section's as `where.key`."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a mapping, got {_short(d)}")
    schema = _schema(cls)
    unknown = set(d) - schema.keys()
    if unknown:
        raise ConfigError(f"unknown key(s) {_short(sorted(unknown))} in {where}; "
                          f"allowed: {sorted(schema)}")
    for name, (_, required) in schema.items():
        if required and name not in d:
            raise ConfigError(f"missing required key {name!r} in {where}")
    prefix = "" if cls is ExperimentConfig else where + "."
    values = {k: schema[k][0](v, prefix + k) for k, v in d.items()}
    try:
        return cls(**values)
    except ValueError as exc:                # DisturbanceSpec checks itself
        raise ConfigError(f"{where}: {exc}") from exc


@functools.cache
def _schema(cls):
    """Each field of `cls` by name: (its reader, whether it is required).
    The annotations are evaluated once per class."""
    hints = get_type_hints(cls)
    return {f.name: (_reader(hints[f.name]),
                     f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def _reader(hint):
    """read(v, where) for a key annotated `hint`: None where the annotation
    allows it, a word of its `Literal`, else what the reader of its one
    other type returns (`_READERS`, or a nested section for a dataclass)."""
    members = get_args(hint) if get_origin(hint) in (Union, UnionType) else (hint,)
    words = [w for m in members if get_origin(m) is Literal for w in get_args(m)]
    kind = next((m for m in members
                 if get_origin(m) is not Literal and m is not NoneType), None)
    read_kind = (functools.partial(_section, kind) if is_dataclass(kind)
                 else _READERS.get(kind))

    def read(v, where):
        if (v is None and NoneType in members) or (isinstance(v, str) and v in words):
            return v
        if read_kind is None:                # a choice of words alone
            raise ConfigError(f"{where} must be {'|'.join(words)}, got {_short(v)}")
        return read_kind(v, where)
    return read


def _plain(text):
    """What `text` loads as, written as a plain (unquoted) YAML scalar."""
    try:
        return yaml.load(text, Loader=LOADER)
    except yaml.YAMLError:
        return None


def _string_hint(v):
    """A refusal's note, "; ...", on the first string of v, at any depth of
    its lists, that reads as a finite number: how to write it so that it
    loads as one.  '' when there is none.

    YAML 1.1 reads a plain scalar as a float only with a decimal point and,
    in an exponent, a sign: 7e-4 and 7.0e4 are strings, 7.0e-4 and 7.0e+4
    floats.  A quoted number is a string too.  Which of the two happened is
    told by how the string loads unquoted: as its number, it was quoted;
    else an exponent spelling is offered that loads as the same float, with
    no quotes, since the string may have been quoted as well.  Only a string
    that `_short` shows whole gets a note, so the message stays one short line.
    """
    if isinstance(v, list):
        return next(filter(None, map(_string_hint, v)), "")
    try:
        x = float(v) if isinstance(v, str) and _short(v) == repr(v) else None
    except ValueError:
        x = None
    if x is None or not np.isfinite(x):
        return ""
    if _plain(v) == x:
        return f"; {_short(v)} is a string: write the number without quotes"
    mantissa, e, exponent = v.strip().lower().partition("e")
    fix = (mantissa + ("" if "." in mantissa else ".0") + "e"
           + ("" if exponent[:1] in ("+", "-") else "+") + exponent)
    if not e or _plain(fix) != x:
        return ""
    return f"; YAML 1.1 reads {_short(v)} as a string: write {fix}, unquoted"


def _int(v, where):
    """v as an integer; integral floats pass."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ConfigError(f"{where} must be an integer, "
                      f"got {_short(v)}{_string_hint(v)}")


def _number(v, where):
    """v unchanged, once checked to be one finite real number."""
    try:
        ok = (not isinstance(v, bool) and isinstance(v, (int, float))
              and bool(np.isfinite(float(v))))
    except OverflowError:                    # an integer past the float range
        ok = False
    if not ok:
        raise ConfigError(f"{where} must be a finite number, "
                          f"got {_short(v)}{_string_hint(v)}")
    return v


def _has(v, kinds):
    """Whether v, or an item of v at any depth of its lists, is one of `kinds`."""
    return isinstance(v, kinds) or (isinstance(v, list)
                                    and any(_has(item, kinds) for item in v))


def _finite(v, where):
    """v unchanged, once checked to be finite numbers: one, or lists of them."""
    try:
        # YAML true/false would read as 1.0/0.0, and '0' as 0.0
        ok = (not _has(v, (bool, str, bytes))
              and bool(np.isfinite(np.asarray(v, float)).all()))
    except (TypeError, ValueError, OverflowError):  # Overflow: a huge integer
        ok = False
    if not ok:
        raise ConfigError(f"{where} must be finite numbers, "
                          f"got {_short(v)}{_string_hint(v)}")
    return v


def _of_type(kind, noun):
    """The reader of a `kind` value: v unchanged, once checked to be one."""
    def read(v, where):
        if not isinstance(v, kind):
            raise ConfigError(f"{where} must be {noun}, got {_short(v)}")
        return v
    return read


# the reader of each annotation type; a list's entries are checked beside
# the key they go with: the edges in `from_dict`, a sweep's values in
# `sweep_point`
_READERS = {int: _int, float: _number, Numbers: _finite,
            str: _of_type(str, "a string"), list: _of_type(list, "a list")}


@dataclass
class CostSection:
    a: Numbers
    b: Numbers
    c: Numbers = 0.0


@dataclass
class NetworkSection:
    topology: Literal["complete", "ring", "edges"] = "complete"
    n: int | None = None                # required for complete/ring
    proposal: Literal["metropolis"] | float = "metropolis"
    edges: list | None = None           # [[i, j, w], ...] for topology: edges
    theta: Numbers = 1.0                # scalar or per-edge list


@dataclass
class EngineSection:
    algorithm: Literal["dta", "wga"] = "dta"
    iterations: int = 1000
    replicas: int = 1
    x0: Literal["zeros", "demand"] | Numbers | None = "zeros"


@dataclass
class StepsizeSection:
    source: Literal["optimal", "explicit"] = "optimal"
    alpha: Numbers | None = None        # a scalar, or one value per agent
    beta: Numbers | None = None
    wga_alpha: Literal["auto"] | float | None = "auto"


@dataclass
class RateSection:
    k_end: int | None = None            # defaults to engine.iterations
    window: int | None = None           # None: `metrics.empirical_rate`'s default


@dataclass
class SweepSection:
    axis: Literal["alpha", "beta", "theta"]
    values: list


@dataclass
class ExperimentConfig:
    name: str
    cost: CostSection
    demand: Numbers
    network: NetworkSection
    schema_version: int = SCHEMA_VERSION
    seed: int = 0
    u: int = 1
    engine: EngineSection = field(default_factory=EngineSection)
    stepsizes: StepsizeSection = field(default_factory=StepsizeSection)
    disturbance: DisturbanceSpec | None = None
    rate: RateSection = field(default_factory=RateSection)
    sweep: SweepSection | None = None


def from_dict(d):
    cfg = _section(ExperimentConfig, d, "config")
    if cfg.schema_version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {_short(cfg.schema_version)} "
                          f"(expected {SCHEMA_VERSION})")
    # the name is the output subdirectory: one path component, inside --out
    if cfg.name in ("", ".", "..") or any(
            s and s in cfg.name for s in ("/", os.sep, os.altsep, "\0")):
        raise ConfigError(f"name must be one directory name (no '/' and not "
                          f"'', '.' or '..'), got {_short(cfg.name)}")
    net, eng, steps = cfg.network, cfg.engine, cfg.stepsizes
    for where, v in (("u", cfg.u), ("engine.iterations", eng.iterations),
                     ("engine.replicas", eng.replicas)):
        if v < 1:
            raise ConfigError(f"{where} must be >= 1, got {_short(v)}")
    if net.topology == "edges":
        if not net.edges:
            raise ConfigError("network.topology 'edges' needs a network.edges list")
        for item in net.edges:
            if not (isinstance(item, list) and len(item) == 3):
                raise ConfigError(f"network.edges entries are [i, j, weight]; "
                                  f"got {_short(item)}")
            for v in item[:2]:
                _int(v, "network.edges index")
            _finite(item[2], "network.edges weight")
    elif net.n is None:
        raise ConfigError(f"network.topology {_short(net.topology)} needs network.n")
    if steps.source == "explicit" and eng.algorithm == "dta":
        if steps.alpha is None or steps.beta is None:
            raise ConfigError("stepsizes.source 'explicit' needs both alpha and beta")
    if cfg.sweep is not None and not cfg.sweep.values:
        raise ConfigError("sweep.values must be a non-empty list, got []")
    return cfg


def to_dict(cfg):
    """The config as plain data, without the optional sections it leaves out."""
    return {k: v for k, v in asdict(cfg).items() if v is not None}


def _check_depth(text):
    """Raise ConfigError if the YAML in `text` nests past MAX_DEPTH levels or
    holds more than MAX_NODES nodes, an alias counting the levels and the
    nodes it brings in, or if an alias refers to a collection that holds it."""
    open_ = []       # per open collection: [its anchor, levels it spans, nodes before it]
    named = {}       # anchor -> (levels, nodes) of the collection it names
    deepest = nodes = 0
    for event in yaml.parse(text, Loader=LOADER):
        if isinstance(event, yaml.ScalarEvent):
            nodes += 1
        elif isinstance(event, yaml.CollectionStartEvent):
            open_.append([event.anchor, 1, nodes])
            deepest = len(open_)
            nodes += 1
        # a document that is one alias has no anchor to refer to; the
        # composer refuses it
        elif isinstance(event, yaml.AliasEvent) and open_:
            if any(event.anchor == anchor for anchor, _, _ in open_):
                raise ConfigError(f"alias *{event.anchor} refers to a collection "
                                  f"that holds it")
            levels, size = named.get(event.anchor, (0, 1))   # else a scalar
            deepest = len(open_) + levels
            nodes += size
            open_[-1][1] = max(open_[-1][1], levels + 1)
        elif isinstance(event, yaml.CollectionEndEvent):
            anchor, levels, before = open_.pop()
            named[anchor] = (levels, nodes - before)
            if open_:
                open_[-1][1] = max(open_[-1][1], levels + 1)
            continue
        else:
            continue
        if deepest > MAX_DEPTH or nodes > MAX_NODES:
            mark = event.start_mark
            where = f"at line {mark.line + 1}, column {mark.column + 1}"
            raise ConfigError(f"nested deeper than {MAX_DEPTH} levels {where}"
                              if deepest > MAX_DEPTH else
                              f"more than {MAX_NODES} nodes, counting what each "
                              f"alias expands to, {where}")


def load_config(path):
    """The config in the YAML file at `path`, checked by `from_dict`."""
    try:
        with open(path) as fh:
            text = fh.read()
        _check_depth(text)
        data = yaml.load(text, Loader=LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    # ValueError: text that is not UTF-8, or an integer literal past Python's
    # digit limit (_check_depth's ConfigError is one too)
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return from_dict(data)


def _build_network(net, n_agents):
    n = n_agents if net.n is None else net.n
    # checked before any edge is built: a complete graph has n (n - 1) / 2
    if n != n_agents:
        raise ConfigError(f"network has n={_short(n)} but the cost model has {n_agents} agents")
    # set-up memory is checked from the link count alone, before any edge or
    # dense n x n matrix is built
    check_setup(n, {"complete": n * (n - 1) // 2, "ring": n,
                    "edges": len(net.edges or ())}[net.topology])
    if net.topology == "edges":
        # checked before the float conversion, which a huge index overflows
        if not all(0 <= v < n for item in net.edges for v in item[:2]):
            raise ConfigError(f"network.edges indices must lie in [0, {n})")
        arr = np.asarray(net.edges, float)
        edges = arr[:, :2].astype(int)
        weights = arr[:, 2]
    else:
        edges = complete_edges(n) if net.topology == "complete" else ring_edges(n)
        weights = metropolis_weights(n, edges) if net.proposal == "metropolis" else net.proposal
    if np.shape(net.theta) not in ((), (len(edges),)):
        raise ConfigError(f"network.theta needs one value for each of the "
                          f"{len(edges)} links, got {_short(net.theta)}")
    try:
        return build_model(n, edges, weights, net.theta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class ResolvedExperiment:
    """Everything a run needs: a config resolved once, or one sweep point of it."""

    config: ExperimentConfig
    problem: object
    model: object
    report: object
    rc: object                       # rate constants, or None (see sweep_point)
    optimal: object                  # OptimalStepsizes or None
    alpha: object                    # resolved dta stepsize (scalar or (n,))
    beta: object
    wga_alpha: float | None
    x0: np.ndarray | None
    disturbance: DisturbanceSpec
    k_end: int
    window: int | None               # None: `metrics.empirical_rate`'s default


def resolve(cfg):
    """Build run inputs from a config.

    Raises InfeasibleNetworkError if the mean network is disconnected (the
    constants are undefined there).  Stepsize feasibility is *not* enforced
    here — callers decide whether an infeasible plan is an error or a sweep
    point on the wrong side of the boundary.
    """
    if cfg.seed < 0:                      # checked here so --seed is covered too
        raise ConfigError(f"seed must be >= 0, got {_short(cfg.seed)}")
    # checked before the costs widen b to u columns
    width = np.shape(cfg.demand)[1] if np.ndim(cfg.demand) == 2 else 1
    if width != cfg.u:
        raise ConfigError(f"demand has {width} column(s), expected u={_short(cfg.u)}")
    try:
        a = np.atleast_1d(np.asarray(cfg.cost.a, float))
        c = np.broadcast_to(np.asarray(cfg.cost.c, float), a.shape).copy()
        costs = quadratic_costs(a, cfg.cost.b, c=c, u=cfg.u)
        problem = allocation_problem(costs, cfg.demand)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    model = _build_network(cfg.network, problem.n)
    report = spectral_report(model)
    rc = constants(problem.costs, report)   # raises if disconnected in mean
    if not _squares_in_range(rc):
        raise ConfigError(
            f"cost.a {_short(cfg.cost.a)} puts the rate constants out of float range: "
            f"K1={rc.k1!r}, K2={rc.k2!r}, phi={rc.phi_hi!r} need finite, "
            f"positive squares")

    steps = cfg.stepsizes
    opt = optimal_stepsizes(rc) if steps.source == "optimal" else None
    alpha = _stepsize(opt.alpha if opt else None, steps.alpha, problem.n, "alpha")
    beta = _stepsize(opt.beta if opt else None, steps.beta, problem.n, "beta")

    wga_alpha = None
    if cfg.stepsizes.wga_alpha == "auto":
        wga_alpha = wga_default_alpha(rc)
    elif cfg.stepsizes.wga_alpha is not None:
        wga_alpha = float(cfg.stepsizes.wga_alpha)

    x0 = _resolve_x0(cfg.engine.x0, problem)

    dist = cfg.disturbance if cfg.disturbance is not None else DisturbanceSpec()

    k_end = cfg.rate.k_end if cfg.rate.k_end is not None else cfg.engine.iterations
    if k_end < 1:
        raise ConfigError(f"rate.k_end={_short(k_end)} must be >= 1")
    if k_end > cfg.engine.iterations:
        raise ConfigError(f"rate.k_end={_short(k_end)} exceeds engine.iterations="
                          f"{_short(cfg.engine.iterations)}")
    if cfg.rate.window is not None and not 1 <= cfg.rate.window <= k_end:
        raise ConfigError(f"rate.window={_short(cfg.rate.window)} must lie in "
                          f"[1, rate.k_end={_short(k_end)}]")

    return ResolvedExperiment(config=cfg, problem=problem, model=model,
                              report=report, rc=rc, optimal=opt, alpha=alpha,
                              beta=beta, wga_alpha=wga_alpha, x0=x0,
                              disturbance=dist, k_end=int(k_end),
                              window=cfg.rate.window)


def _squares_in_range(rc):
    """Whether phi, K1 and K2 have finite, positive squares: the stepsize
    regions square them, and a square that over- or underflows leaves them
    undefined (a float product gives inf or 0 there, not an error)."""
    return all(0.0 < v * v < np.inf for v in (rc.phi_hi, rc.k1, rc.k2))


def _stepsize(value, override, n, slot):
    """One plan slot: `override` (a scalar or an (n,) per-agent vector) if
    given, else `value`; None when neither is given."""
    if override is None:
        return value
    if np.ndim(override) == 0:
        return float(override)
    if np.shape(override) != (n,):
        raise ConfigError(f"stepsizes.{slot}: per-agent stepsizes need one value "
                          f"for each of the {n} agents, got {_short(override)}")
    return np.asarray(override, float)


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
    """`res` at one sweep point: the same ResolvedExperiment with one input set.

    alpha/beta sweeps multiply the plan of the configured algorithm by
    `value` (for wga that is `wga_alpha`, and there is no beta to sweep); a
    theta sweep rebuilds the network with the activation probability set to
    `value`, and its spectral report and rate constants with it (theta 0 is
    allowed here — every link silent — so the boundary case can be
    demonstrated).  `rc` is None at a theta point whose network is not
    connected in mean, or whose constants `resolve` would refuse.
    """
    _number(value, f"sweep value for {axis}")
    if axis == "theta":
        model = res.model
        try:
            model = build_model(model.n, model.edges, model.weights,
                                np.full(model.n_edges, float(value)),
                                allow_zero_theta=True)
        except ValueError as exc:
            raise ConfigError(f"sweep theta={_short(value)}: {exc}") from exc
        report = spectral_report(model)
        rc = (constants(res.problem.costs, report)
              if report.connected_in_mean else None)
        if rc is not None and not _squares_in_range(rc):
            rc = None
        return replace(res, model=model, report=report, rc=rc)
    if axis not in ("alpha", "beta"):
        raise ConfigError(f"sweep axis must be alpha|beta|theta, got {axis!r}")
    if res.config.engine.algorithm == "dta":
        return replace(res, **{axis: getattr(res, axis) * value})
    if axis == "beta":
        raise ConfigError("wga has no beta stepsize to sweep")
    return replace(res, wga_alpha=None if res.wga_alpha is None
                   else res.wga_alpha * value)
