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

Exit codes: 0 success; 2 bad config or usage; 3 network infeasible
(disconnected in mean); 4 divergence (every sweep point diverged, or the
single requested run did).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import engine, metrics
from .config import SCHEMA_VERSION, load_config, resolve, sweep_point
from .costs import kkt_solve
from .errors import ConfigError, InfeasibleNetworkError, InfeasiblePlanError
from .stepsizes import (PlanVerdict, feasible_region_shared, feasible_region_mean,
                        feasible_region_uncoordinated, predicted_rate)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NETWORK = 3
EXIT_DIVERGED = 4


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if np.isfinite(f) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _fmt(v, spec):
    """`v` formatted by `spec`, or n/a when it is None or not finite."""
    return "n/a" if v is None or not np.isfinite(v) else format(v, spec)


def _out_dir(args, cfg):
    base = args.out or os.environ.get("DTALLOC_OUT_DIR") or "runs"
    return os.path.join(base, cfg.name)


def _write_trace_csv(path, agg):
    cols = metrics.TRACE_COLUMNS
    series = [np.asarray(agg[c], float) for c in cols]
    rows = len(series[0])
    with open(path, "w") as fh:
        fh.write(f"# schema_version: {SCHEMA_VERSION}\n")
        fh.write("k," + ",".join(cols) + "\n")
        for k in range(rows):
            fh.write(",".join([str(k)] + [repr(float(s[k])) for s in series]))
            fh.write("\n")


def _write_summary(path, payload):
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _plan_verdict(res):
    """Feasibility verdict for the resolved dta plan; None without one."""
    alpha, beta = res.alpha, res.beta
    if alpha is None or beta is None:
        return None
    if np.ndim(alpha) or np.ndim(beta):
        return feasible_region_uncoordinated(res.problem.costs, res.report,
                                             res.rc, alpha, beta)
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
    agg = result.aggregate_traces()
    opt = agg["optimality_distance"]
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
        out["empirical_rate"] = {"q": est.q, "k_end": est.k_end,
                                 "window": est.window, "shrunk": est.shrunk,
                                 "exact_convergence": est.exact_convergence}
        out["non_convergent"] = metrics.non_convergent(opt, k_end=res.k_end)
        out["loglinear_r2"] = metrics.loglinear_r2(opt)
    else:
        out["empirical_rate"] = None
        out["non_convergent"] = True
        out["loglinear_r2"] = None
    return out, agg


def cmd_bounds(args):
    res = resolve(load_config(args.config))
    rc, rep = res.rc, res.report
    kkt = kkt_solve(res.problem)
    payload = {
        "name": res.config.name,
        "spectral": {**asdict(rep), "connected_in_mean": rep.connected_in_mean},
        "kkt": {"x_star": kkt.x_star, "mu_star": kkt.mu_star},
        "constants": asdict(rc),
        "wga_alpha": res.wga_alpha,
        "plan": {"alpha": res.alpha, "beta": res.beta},
    }
    if res.optimal is not None:
        opt = res.optimal
        payload["optimal"] = {"alpha": opt.alpha, "beta": opt.beta,
                              "branches": list(opt.branches),
                              "active_branch": opt.active_branch,
                              "branch4_dropped": opt.branch4_dropped}
    verdict = _plan_verdict(res)
    if isinstance(verdict, PlanVerdict):
        payload["uncoordinated_region"] = {
            "feasible": verdict.feasible, "conditions": dict(verdict.conditions),
            "s4": verdict.s4, "s5": verdict.s5, "s6": verdict.s6,
            "coupling_lhs": verdict.coupling_lhs,
            "coupling_rhs": verdict.coupling_rhs,
        }
    elif verdict is not None:
        alpha, beta = verdict.alpha, verdict.beta
        mean = feasible_region_mean(rc, alpha, beta)
        for key, v in (("mean_square_region", verdict), ("mean_region", mean)):
            payload[key] = {
                "feasible": v.feasible, "conditions": list(v.conditions),
                "s1": v.s1, "s2": v.s2, "alpha_max": v.alpha_max,
                "beta_max": v.beta_max, "coupling_lhs": v.coupling_lhs,
                "coupling_rhs": v.coupling_rhs,
            }
        try:
            q_zeta = res.disturbance.q_zeta if res.disturbance.active else None
            payload["predicted_rate"] = predicted_rate(rc, alpha, beta, q_zeta=q_zeta)
        except InfeasiblePlanError:
            payload["predicted_rate"] = None
    print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))
    return EXIT_OK


def _execute_point(res, algorithm, path, label):
    """Run `algorithm` at one resolved point and write its trace to `path`.

    Returns the point's summary (with the plan that ran) and the result."""
    alpha, beta = _plan(res, algorithm)
    verdict = _plan_verdict(res) if algorithm == "dta" else None
    if verdict is not None and verdict.failed:
        warnings.warn(f"{label}: stepsizes outside the guaranteed region "
                      f"(failing: {', '.join(verdict.failed)}); running anyway",
                      RuntimeWarning, stacklevel=2)
    cfg = res.config
    result = engine.run(
        res.problem, res.model, algorithm=algorithm, alpha=alpha, beta=beta,
        iterations=cfg.engine.iterations, replicas=cfg.engine.replicas,
        seed=cfg.seed, x0=res.x0, disturbance=res.disturbance)
    summary, agg = _run_summary(res, result, path)
    if algorithm == "dta":
        summary["alpha"], summary["beta"] = alpha, beta
    else:
        summary["wga_alpha"] = alpha
    os.makedirs(os.path.dirname(path), exist_ok=True)
    _write_trace_csv(path, agg)
    return summary, result


def _execute_sweep(args, res, axis, values):
    cfg = res.config
    algorithm = cfg.engine.algorithm
    resolved = [sweep_point(res, axis, value) for value in values]
    for point in resolved:
        _plan(point, algorithm)
    outdir = _out_dir(args, cfg)
    points = []
    n_diverged = 0
    for idx, (value, point) in enumerate(zip(values, resolved)):
        label = f"{cfg.name}[{axis}={value!r}]"
        record, result = _execute_point(
            point, algorithm, os.path.join(outdir, f"{axis}_{idx:02d}.csv"), label)
        record["axis"] = axis
        record["value"] = value
        points.append(record)
        if result.diverged:
            n_diverged += 1
            print(f"{label}: diverged at iteration {result.diverged_at}")
        else:
            print(f"{label}: q_n {_fmt(record['empirical_rate']['q'], '.6f')}")
    summary = {
        "name": cfg.name,
        "axis": axis,
        "values": list(values),
        "seed": cfg.seed,
        "algorithm": algorithm,
        "points": points,
        "n_diverged": n_diverged,
    }
    _write_summary(os.path.join(outdir, "summary.json"), summary)
    print(f"{cfg.name}: wrote {len(values)} traces to {outdir}")
    return EXIT_DIVERGED if n_diverged == len(values) else EXIT_OK


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
    outdir = _out_dir(args, cfg)
    csv_path = os.path.join(outdir, "trace.csv")
    summary, result = _execute_point(res, cfg.engine.algorithm, csv_path, cfg.name)
    _write_summary(os.path.join(outdir, "summary.json"), summary)
    print(f"{cfg.name}: wrote {csv_path}")
    if result.diverged:
        print(f"{cfg.name}: diverged at iteration {result.diverged_at} "
              f"(replica {result.diverged_replica})", file=sys.stderr)
        return EXIT_DIVERGED
    print(f"{cfg.name}: final ratio {_fmt(summary['final_ratio'], '.3e')}, "
          f"q_n {_fmt(summary['empirical_rate']['q'], '.6f')}")
    return EXIT_OK


def cmd_sweep(args):
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"--values must be comma-separated numbers, "
                          f"got {args.values!r}") from None
    if not values:
        raise ConfigError("--values is empty")
    return _execute_sweep(args, _resolve_args(args), args.axis, values)


def cmd_compare(args):
    res = _resolve_args(args)
    cfg = res.config
    for algorithm in ("dta", "wga"):
        _plan(res, algorithm)
    outdir = _out_dir(args, cfg)
    # identical seed => identical link failures and disturbances in both runs
    s_dta, r_dta = _execute_point(res, "dta", os.path.join(outdir, "dta.csv"), cfg.name)
    s_wga, r_wga = _execute_point(res, "wga", os.path.join(outdir, "wga.csv"), cfg.name)
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
    _write_summary(os.path.join(outdir, "summary.json"), summary)
    print(f"{cfg.name}: dta final ratio {_fmt(fin_d, '.3e')}, "
          f"wga final ratio {_fmt(fin_w, '.3e')}")
    if r_dta.diverged and r_wga.diverged:
        return EXIT_DIVERGED
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="dtalloc",
                                description="stochastic-network resource "
                                            "allocation simulations")
    sub = p.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bounds", help="print constants, optimal stepsizes, "
                                       "and feasibility verdicts as JSON")
    pb.add_argument("config")
    pb.set_defaults(func=cmd_bounds)

    pr = sub.add_parser("run", help="run the configured experiment "
                                    "(including its sweep section, if any)")
    pr.add_argument("config")
    pr.add_argument("--out", default=None,
                    help="output directory (default $DTALLOC_OUT_DIR or ./runs)")
    pr.add_argument("--seed", type=int, default=None)
    pr.set_defaults(func=cmd_run)

    pc = sub.add_parser("compare", help="run dta and wga on identical random "
                                        "streams and report both")
    pc.add_argument("config")
    pc.add_argument("--out", default=None)
    pc.add_argument("--seed", type=int, default=None)
    pc.set_defaults(func=cmd_compare)

    ps = sub.add_parser("sweep", help="sweep one axis, overriding any sweep "
                                      "section in the config")
    ps.add_argument("config")
    ps.add_argument("--axis", required=True, choices=("alpha", "beta", "theta"))
    ps.add_argument("--values", required=True,
                    help="comma-separated numbers; alpha/beta values multiply "
                         "the resolved plan, theta values are absolute")
    ps.add_argument("--out", default=None)
    ps.add_argument("--seed", type=int, default=None)
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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleNetworkError as exc:
        print(f"infeasible network: {exc}", file=sys.stderr)
        return EXIT_NETWORK


if __name__ == "__main__":
    sys.exit(main())
