"""Command-line harness.

    dtalloc bounds  <config.yaml>                 # constants, verdicts, plan (JSON)
    dtalloc run     <config.yaml> [--out D] [--seed S]
    dtalloc compare <config.yaml> [--out D] [--seed S]
    dtalloc sweep   <config.yaml> --axis beta --values 0.5,1.0,1.5 [--out D] [--seed S]

Outputs land in --out, else $DTALLOC_OUT_DIR, else ./runs, under a
subdirectory named after the config.  Traces are CSV (one `# schema_version`
comment line, then a header, then one row per iteration including k=0);
run-level facts go to summary.json.  Residual columns are aggregated over
replicas in the mean-square sense.

Exit codes: 0 success; 2 bad config or usage, a run past the engine's
memory limit, or an output directory that cannot be created; 3 network
infeasible (disconnected in mean); 4 divergence: every engine call of the
command diverged (the one run, both halves of compare, every sweep point).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import reprlib
import sys
import warnings
from dataclasses import asdict
from itertools import chain

import numpy as np

from . import engine, metrics
from .config import SCHEMA_VERSION, load_config, resolve, sweep_point
from .costs import kkt_solve
from .errors import (CapacityError, ConfigError, InfeasibleNetworkError,
                     PlanWarning)
from .stepsizes import (PlanVerdict, feasible_region_shared, feasible_region_mean,
                        feasible_region_uncoordinated, predicted_rate)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NETWORK = 3
EXIT_DIVERGED = 4
TRACE_CSV_ROWS = 256   # rows formatted per block by _write_trace_csv


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _jsonable(obj.tolist())
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    return obj


def _fmt(v, spec):
    """`v` formatted by `spec`, or n/a when it is None or not finite."""
    return "n/a" if v is None or not np.isfinite(v) else format(v, spec)


def _out_dir(args, cfg):
    """The command's output directory, created once its engine calls are
    checked (`_execute`) and before any compute; ConfigError if it cannot be.

    The missing components are made one by one, outermost first, so a
    failure removes exactly the directories made here, while they are
    empty: a refused command leaves the tree as it found it.
    """
    path = os.path.join(args.out or os.environ.get("DTALLOC_OUT_DIR") or "runs",
                        cfg.name)
    missing, head = [], path
    while head and not os.path.isdir(head):
        missing.append(head)
        head = os.path.dirname(head)
    made = []
    try:
        for part in reversed(missing):
            if not os.path.isdir(part):     # "a/b/.." is there once "a/b" is
                os.mkdir(part)
                made.append(part)
    except OSError as exc:
        for part in reversed(made):
            with contextlib.suppress(OSError):
                os.rmdir(part)              # fails on a non-empty directory
        raise ConfigError(f"cannot create output directory {path}: "
                          f"{exc.strerror or exc}") from exc
    return path


def _write_trace_csv(path, traces):
    """Write `traces` as a trace CSV: row k is k, then each column's repr.

    Each block of TRACE_CSV_ROWS rows is formatted by one `%` call on its
    values, as Python floats, whose repr is the shortest round-trip form, so
    no whole trace is held as objects.  The rows after the last one that
    holds a number, the steps a diverged run never reached, are written as
    fixed "k,nan,..." lines: repr(nan) is 'nan', so the bytes are the same.
    """
    cols = metrics.TRACE_COLUMNS
    series = [np.asarray(traces[c], float) for c in cols]
    unfilled = np.isnan(series[0])
    for s in series[1:]:
        unfilled &= np.isnan(s)
    filled = np.flatnonzero(~unfilled)
    end = int(filled[-1]) + 1 if filled.size else 0
    rows = len(unfilled)
    line = "%d" + ",%r" * len(cols) + "\n"
    blank = "%d" + ",nan" * len(cols) + "\n"
    with open(path, "w") as fh:
        fh.write(f"# schema_version: {SCHEMA_VERSION}\n")
        fh.write("k," + ",".join(cols) + "\n")
        for k0 in range(0, end, TRACE_CSV_ROWS):
            k1 = min(k0 + TRACE_CSV_ROWS, end)
            values = zip(range(k0, k1), *(s[k0:k1].tolist() for s in series))
            fh.write(line * (k1 - k0) % tuple(chain.from_iterable(values)))
        for k0 in range(end, rows, TRACE_CSV_ROWS):
            k1 = min(k0 + TRACE_CSV_ROWS, rows)
            fh.write(blank * (k1 - k0) % tuple(range(k0, k1)))


def _write_summary(path, payload):
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _plan_verdict(res):
    """Feasibility verdict for the resolved dta plan; None without a plan or
    without rate constants."""
    alpha, beta = res.alpha, res.beta
    if alpha is None or beta is None or res.rc is None:
        return None
    if np.ndim(alpha) or np.ndim(beta):
        return feasible_region_uncoordinated(res.rc, alpha, beta)
    return feasible_region_shared(res.rc, float(alpha), float(beta))


def _plan(res, algorithm):
    """The (alpha, beta) `algorithm` runs with at `res`; ConfigError if missing."""
    if algorithm == "wga":
        if res.wga_alpha is None:
            raise ConfigError("wga needs stepsizes.wga_alpha (auto or a value)")
        return res.wga_alpha, None
    if res.alpha is None or res.beta is None:
        raise ConfigError("dta needs a resolved plan (source optimal or "
                          "explicit alpha/beta)")
    return res.alpha, res.beta


def _run_summary(res, result, path):
    opt = result.traces["optimality_distance"]
    out = {
        "name": res.config.name,
        "algorithm": result.algorithm,
        "seed": result.seed,
        "iterations": result.iterations,
        "replicas": result.replicas,
        "r0": float(opt[0]),
        "final_ratio": float(opt[-1] / opt[0]) if opt[0] > 0 else None,
        "diverged": result.diverged,
        "diverged_replica": result.diverged_replica,
        "diverged_at": result.diverged_at,
        "max_conservation_drift": result.max_conservation_drift,
        "files": {"trace": path},
    }
    if not result.diverged:
        est = metrics.empirical_rate(opt, k_end=res.k_end, window=res.window)
        out["empirical_rate"] = asdict(est)
        out["non_convergent"] = metrics.non_convergent(opt, k_end=res.k_end)
        out["loglinear_r2"] = metrics.loglinear_r2(opt)
    else:
        out["empirical_rate"] = None
        out["non_convergent"] = True
        out["loglinear_r2"] = None
    return out


def cmd_bounds(args):
    res = resolve(load_config(args.config))
    rc, rep = res.rc, res.report
    payload = {
        "name": res.config.name,
        "spectral": {**asdict(rep), "connected_in_mean": rep.connected_in_mean},
        "kkt": asdict(kkt_solve(res.problem)),
        "constants": asdict(rc),
        "wga_alpha": res.wga_alpha,
        "plan": {"alpha": res.alpha, "beta": res.beta},
    }
    if res.optimal is not None:
        payload["optimal"] = asdict(res.optimal)
    # a verdict prints whole, with `feasible`; a shared region lists its
    # conditions in order (alpha bound, beta bound, coupling)
    verdict = _plan_verdict(res)
    if isinstance(verdict, PlanVerdict):
        payload["uncoordinated_region"] = {**asdict(verdict),
                                           "feasible": verdict.feasible}
    elif verdict is not None:
        mean = feasible_region_mean(rc, res.alpha, res.beta)
        for key, v in (("mean_square_region", verdict), ("mean_region", mean)):
            payload[key] = {**asdict(v), "feasible": v.feasible,
                            "conditions": list(v.conditions.values())}
        q_zeta = res.disturbance.q_zeta if res.disturbance.active else None
        payload["predicted_rate"] = predicted_rate(rc, res.alpha, res.beta,
                                                   q_zeta=q_zeta)
    print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))
    return EXIT_OK


def _execute(args, res, calls):
    """Run a command's engine calls, (resolved point, algorithm, trace file
    name, label) tuples, yielding each (summary, result) in turn.

    Every call's plan, then every call's memory, is checked before the
    output directory is made; then each call warns, runs and writes its
    trace before the next.
    """
    plans = [_plan(point, algorithm) for point, algorithm, _, _ in calls]
    for point, algorithm, _, _ in calls:
        eng = point.config.engine
        engine.check_run(point.problem.n, point.problem.u, point.model.n_edges,
                         replicas=eng.replicas, iterations=eng.iterations,
                         algorithm=algorithm, disturbed=point.disturbance.active)
    outdir = _out_dir(args, res.config)
    for (point, algorithm, fname, label), (alpha, beta) in zip(calls, plans):
        if point.rc is None:
            why = ("network is not connected in mean"
                   if not point.report.connected_in_mean
                   else "rate constants out of float range")
            warnings.warn(f"{label}: no region check ({why}); running anyway",
                          PlanWarning, stacklevel=2)
        verdict = _plan_verdict(point) if algorithm == "dta" else None
        if verdict is not None and verdict.failed:
            warnings.warn(f"{label}: stepsizes outside the guaranteed region "
                          f"(failing: {', '.join(verdict.failed)}); running anyway",
                          PlanWarning, stacklevel=2)
        eng = point.config.engine
        result = engine.run(
            point.problem, point.model, algorithm=algorithm, alpha=alpha,
            beta=beta, iterations=eng.iterations, replicas=eng.replicas,
            seed=point.config.seed, x0=point.x0, disturbance=point.disturbance)
        path = os.path.join(outdir, fname)
        summary = _run_summary(point, result, path)
        if algorithm == "dta":
            summary["alpha"], summary["beta"] = alpha, beta
        else:
            summary["wga_alpha"] = alpha
        _write_trace_csv(path, result.traces)
        yield summary, result


def _exit_code(diverged):
    """EXIT_DIVERGED when every engine call of the command diverged."""
    return EXIT_DIVERGED if all(diverged) else EXIT_OK


def _execute_sweep(args, res, axis, values):
    cfg = res.config
    algorithm = cfg.engine.algorithm
    labels = [f"{cfg.name}[{axis}={value!r}]" for value in values]
    calls = [(sweep_point(res, axis, value), algorithm, f"{axis}_{idx:02d}.csv",
              label) for idx, (value, label) in enumerate(zip(values, labels))]
    points = []
    for (record, _), value, label in zip(_execute(args, res, calls), values, labels):
        record.update(axis=axis, value=value)
        points.append(record)
        if record["diverged"]:
            print(f"{label}: diverged at iteration {record['diverged_at']}")
        else:
            print(f"{label}: q_n {_fmt(record['empirical_rate']['q'], '.6f')}")
    outdir = os.path.dirname(record["files"]["trace"])
    diverged = [p["diverged"] for p in points]
    summary = {
        "name": cfg.name,
        "axis": axis,
        "values": list(values),
        "seed": cfg.seed,
        "algorithm": algorithm,
        "points": points,
        "n_diverged": sum(diverged),
    }
    _write_summary(os.path.join(outdir, "summary.json"), summary)
    print(f"{cfg.name}: wrote {len(values)} traces to {outdir}")
    return _exit_code(diverged)


def _resolve_args(args):
    """The config at args.config, with --seed applied, resolved."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    return resolve(cfg)


def cmd_run(args):
    res = _resolve_args(args)
    cfg = res.config
    if cfg.sweep is not None:
        return _execute_sweep(args, res, cfg.sweep.axis, cfg.sweep.values)
    calls = [(res, cfg.engine.algorithm, "trace.csv", cfg.name)]
    [(summary, result)] = _execute(args, res, calls)
    csv_path = summary["files"]["trace"]
    _write_summary(os.path.join(os.path.dirname(csv_path), "summary.json"),
                   summary)
    print(f"{cfg.name}: wrote {csv_path}")
    if result.diverged:
        print(f"{cfg.name}: diverged at iteration {result.diverged_at} "
              f"(replica {result.diverged_replica})", file=sys.stderr)
    else:
        print(f"{cfg.name}: final ratio {_fmt(summary['final_ratio'], '.3e')}, "
              f"q_n {_fmt(summary['empirical_rate']['q'], '.6f')}")
    return _exit_code([result.diverged])


def cmd_sweep(args):
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"--values must be comma-separated numbers, "
                          f"got {reprlib.repr(args.values)}") from None
    if not values:
        raise ConfigError("--values is empty")
    return _execute_sweep(args, _resolve_args(args), args.axis, values)


def cmd_compare(args):
    res = _resolve_args(args)
    cfg = res.config
    # identical seed => identical link failures and disturbances in both runs
    calls = [(res, alg, f"{alg}.csv", cfg.name) for alg in ("dta", "wga")]
    [(s_dta, r_dta), (s_wga, r_wga)] = _execute(args, res, calls)
    fin_d = s_dta["final_ratio"]
    fin_w = s_wga["final_ratio"]
    summary = {
        "name": cfg.name,
        "seed": cfg.seed,
        "dta": s_dta,
        "wga": s_wga,
        "final_ratio_wga_over_dta": (fin_w / fin_d)
            if (fin_d not in (None, 0.0) and fin_w is not None) else None,
        "wga_gap_identity_err": r_wga.wga_drift_err,
    }
    outdir = os.path.dirname(s_dta["files"]["trace"])
    _write_summary(os.path.join(outdir, "summary.json"), summary)
    print(f"{cfg.name}: dta final ratio {_fmt(fin_d, '.3e')}, "
          f"wga final ratio {_fmt(fin_w, '.3e')}")
    return _exit_code([r_dta.diverged, r_wga.diverged])


def build_parser():
    p = argparse.ArgumentParser(prog="dtalloc",
                                description="stochastic-network resource "
                                            "allocation simulations")
    sub = p.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bounds", help="print constants, optimal stepsizes, "
                                       "and feasibility verdicts as JSON")
    pb.add_argument("config")
    pb.set_defaults(func=cmd_bounds)

    # the config, output directory and seed of every command that runs
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config")
    common.add_argument("--out", default=None,
                        help="output directory (default $DTALLOC_OUT_DIR or ./runs)")
    common.add_argument("--seed", type=int, default=None)

    pr = sub.add_parser("run", parents=[common],
                        help="run the configured experiment "
                             "(including its sweep section, if any)")
    pr.set_defaults(func=cmd_run)

    pc = sub.add_parser("compare", parents=[common],
                        help="run dta and wga on identical random "
                             "streams and report both")
    pc.set_defaults(func=cmd_compare)

    ps = sub.add_parser("sweep", parents=[common],
                        help="sweep one axis, overriding any sweep "
                             "section in the config")
    ps.add_argument("--axis", required=True, choices=("alpha", "beta", "theta"))
    ps.add_argument("--values", required=True,
                    help="comma-separated numbers; alpha/beta values multiply "
                         "the resolved plan, theta values are absolute")
    ps.set_defaults(func=cmd_sweep)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleNetworkError as exc:
        print(f"infeasible network: {exc}", file=sys.stderr)
        return EXIT_NETWORK


if __name__ == "__main__":
    sys.exit(main())
