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
from .stepsizes import (feasible_region_shared, feasible_region_mean,
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


def _out_dir(args, cfg):
    base = args.out or os.environ.get("DTALLOC_OUT_DIR") or "runs"
    path = os.path.join(base, cfg.name)
    os.makedirs(path, exist_ok=True)
    return path


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


def _plan_verdict(res, alpha, beta):
    """Feasibility verdict for a resolved plan; None when not applicable."""
    if alpha is None or beta is None:
        return None
    if np.ndim(alpha) or np.ndim(beta):
        return feasible_region_uncoordinated(
            res.problem.costs, res.report, res.rc,
            np.broadcast_to(np.asarray(alpha, float), (res.problem.n,)),
            np.broadcast_to(np.asarray(beta, float), (res.problem.n,)))
    return feasible_region_shared(res.rc, float(alpha), float(beta))


def _warn_infeasible(verdict, label):
    if verdict is not None and getattr(verdict, "failed", ()):
        warnings.warn(f"{label}: stepsizes outside the guaranteed region "
                      f"(failing: {', '.join(map(str, verdict.failed))}); "
                      f"running anyway", RuntimeWarning, stacklevel=2)


def _run_once(res, *, algorithm, alpha, beta, model=None, seed=None):
    cfg = res.config
    return engine.run(
        res.problem, model if model is not None else res.model,
        algorithm=algorithm, alpha=alpha, beta=beta,
        iterations=cfg.engine.iterations, replicas=cfg.engine.replicas,
        seed=cfg.seed if seed is None else seed, x0=res.x0,
        disturbance=res.disturbance, chunk=cfg.engine.chunk)


def _run_summary(res, result, files):
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
        "files": files,
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
    cfg = load_config(args.config)
    res = resolve(cfg)
    rc, rep = res.rc, res.report
    kkt = kkt_solve(res.problem)
    payload = {
        "name": cfg.name,
        "spectral": {**asdict(rep), "connected_in_mean": rep.connected_in_mean},
        "kkt": {"x_star": kkt.x_star, "mu_star": kkt.mu_star},
        "constants": asdict(rc),
        "wga_alpha": res.wga_alpha,
    }
    if res.optimal is not None:
        opt = res.optimal
        payload["optimal"] = {"alpha": opt.alpha, "beta": opt.beta,
                              "branches": list(opt.branches),
                              "active_branch": opt.active_branch,
                              "branch4_dropped": opt.branch4_dropped}
    alpha, beta = res.alpha, res.beta
    payload["plan"] = {"alpha": alpha, "beta": beta}
    if alpha is not None and beta is not None and not (np.ndim(alpha) or np.ndim(beta)):
        sv = feasible_region_shared(rc, float(alpha), float(beta))
        mv = feasible_region_mean(rc, float(alpha), float(beta))
        for key, v in (("mean_square_region", sv), ("mean_region", mv)):
            payload[key] = {
                "feasible": v.feasible, "conditions": list(v.conditions),
                "s1": v.s1, "s2": v.s2, "alpha_max": v.alpha_max,
                "beta_max": v.beta_max, "coupling_lhs": v.coupling_lhs,
                "coupling_rhs": v.coupling_rhs,
            }
        try:
            q_zeta = res.disturbance.q_zeta if res.disturbance.active else None
            payload["predicted_rate"] = predicted_rate(rc, float(alpha), float(beta),
                                                       q_zeta=q_zeta)
        except InfeasiblePlanError:
            payload["predicted_rate"] = None
    elif alpha is not None and beta is not None:
        pv = _plan_verdict(res, alpha, beta)
        payload["uncoordinated_region"] = {
            "feasible": pv.feasible, "conditions": dict(pv.conditions),
            "s4": pv.s4, "s5": pv.s5, "s6": pv.s6,
            "coupling_lhs": pv.coupling_lhs, "coupling_rhs": pv.coupling_rhs,
        }
    print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))
    return EXIT_OK


def _execute_single(args, res):
    cfg = res.config
    outdir = _out_dir(args, cfg)
    algorithm = cfg.engine.algorithm
    if algorithm == "dta":
        _warn_infeasible(_plan_verdict(res, res.alpha, res.beta), cfg.name)
        result = _run_once(res, algorithm="dta", alpha=res.alpha, beta=res.beta)
    else:
        result = _run_once(res, algorithm="wga", alpha=res.wga_alpha, beta=None)
    csv_path = os.path.join(outdir, "trace.csv")
    summary, agg = _run_summary(res, result, files={"trace": csv_path})
    if algorithm == "dta":
        summary["alpha"] = res.alpha
        summary["beta"] = res.beta
    else:
        summary["wga_alpha"] = res.wga_alpha
    _write_trace_csv(csv_path, agg)
    _write_summary(os.path.join(outdir, "summary.json"), summary)
    print(f"{cfg.name}: wrote {csv_path}")
    if result.diverged:
        print(f"{cfg.name}: diverged at iteration {result.diverged_at} "
              f"(replica {result.diverged_replica})", file=sys.stderr)
        return EXIT_DIVERGED
    q = summary["empirical_rate"]["q"]
    print(f"{cfg.name}: final ratio {summary['final_ratio']:.3e}, "
          f"q_n {'n/a' if q is None else format(q, '.6f')}")
    return EXIT_OK


def _execute_sweep(args, res, axis, values):
    cfg = res.config
    outdir = _out_dir(args, cfg)
    points = []
    n_diverged = 0
    for idx, value in enumerate(values):
        try:
            model, alpha, beta, wga = sweep_point(res, axis, value)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        algorithm = cfg.engine.algorithm
        label = f"{cfg.name}[{axis}={value!r}]"
        if algorithm == "dta":
            _warn_infeasible(_plan_verdict(res, alpha, beta), label)
            result = _run_once(res, algorithm="dta", alpha=alpha, beta=beta,
                               model=model)
        else:
            result = _run_once(res, algorithm="wga", alpha=wga, beta=None,
                               model=model)
        csv_path = os.path.join(outdir, f"{axis}_{idx:02d}.csv")
        point, agg = _run_summary(res, result, files={"trace": csv_path})
        point["axis"] = axis
        point["value"] = value
        point["alpha"] = alpha
        point["beta"] = beta
        _write_trace_csv(csv_path, agg)
        points.append(point)
        if result.diverged:
            n_diverged += 1
            print(f"{label}: diverged at iteration {result.diverged_at}")
        else:
            q = point["empirical_rate"]["q"]
            print(f"{label}: q_n {'n/a' if q is None else format(q, '.6f')}")
    summary = {
        "name": cfg.name,
        "axis": axis,
        "values": list(values),
        "seed": cfg.seed,
        "algorithm": cfg.engine.algorithm,
        "points": points,
        "n_diverged": n_diverged,
    }
    _write_summary(os.path.join(outdir, "summary.json"), summary)
    print(f"{cfg.name}: wrote {len(values)} traces to {outdir}")
    return EXIT_DIVERGED if n_diverged == len(values) else EXIT_OK


def cmd_run(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    res = resolve(cfg)
    if cfg.sweep is not None:
        return _execute_sweep(args, res, cfg.sweep.axis, cfg.sweep.values)
    return _execute_single(args, res)


def cmd_sweep(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"--values must be comma-separated numbers, "
                          f"got {args.values!r}") from None
    if not values:
        raise ConfigError("--values is empty")
    res = resolve(cfg)
    if res.alpha is None or res.beta is None:
        if cfg.engine.algorithm == "dta" and args.axis in ("alpha", "beta"):
            raise ConfigError("cannot sweep alpha/beta: no resolved base plan")
    return _execute_sweep(args, res, args.axis, values)


def cmd_compare(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    res = resolve(cfg)
    if res.alpha is None or res.beta is None:
        raise ConfigError("compare needs a resolved dta plan (source optimal "
                          "or explicit alpha/beta)")
    if res.wga_alpha is None:
        raise ConfigError("compare needs stepsizes.wga_alpha (auto or a value)")
    outdir = _out_dir(args, cfg)
    _warn_infeasible(_plan_verdict(res, res.alpha, res.beta), cfg.name)
    # identical seed => identical link failures and disturbances in both runs
    r_dta = _run_once(res, algorithm="dta", alpha=res.alpha, beta=res.beta)
    r_wga = _run_once(res, algorithm="wga", alpha=res.wga_alpha, beta=None)
    paths = {"dta": os.path.join(outdir, "dta.csv"),
             "wga": os.path.join(outdir, "wga.csv")}
    s_dta, agg_dta = _run_summary(res, r_dta, files={"trace": paths["dta"]})
    s_wga, agg_wga = _run_summary(res, r_wga, files={"trace": paths["wga"]})
    _write_trace_csv(paths["dta"], agg_dta)
    _write_trace_csv(paths["wga"], agg_wga)
    s_dta["alpha"], s_dta["beta"] = res.alpha, res.beta
    s_wga["wga_alpha"] = res.wga_alpha
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
    print(f"{cfg.name}: dta final ratio "
          f"{'n/a' if fin_d is None else format(fin_d, '.3e')}, wga final ratio "
          f"{'n/a' if fin_w is None else format(fin_w, '.3e')}")
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
