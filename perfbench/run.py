"""dtalloc benchmark: one closed-loop CLI workload per run.

    python3 perfbench/run.py --workload ref-dta --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both modes

Each workload calls `dtalloc.cli.main` in-process, one invocation at a time,
on a config generated from --seed, for --seconds seconds.  Every invocation's
outputs are checked (see workloads.py); failures count in `failed`.

--trace 0 reports the end-to-end metrics (tracing off).  --trace 1 alternates
untraced and traced invocations, reports the per-layer figures from spans
recorded around each module's public functions (spans.py), the tracing
overhead, computed buffer sizes and a micro-grid of timed `engine.run` calls.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Spans are written to .perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 21

# (replicas, agents, steps) of the micro-grid; steps keep each call near 0.1 s
GRID = ((1, 10, 1000), (20, 10, 500), (140, 10, 200),
        (1, 100, 200), (20, 100, 30), (140, 100, 6))
GRID_REPEATS = 3

# Host-speed calibration.  Co-tenants of a shared VM slow it by ±20-40 %
# for minutes at a time, which no amount of repetition inside one run
# averages away.  Fixed work independent of dtalloc is timed next to every
# measurement, and times are reported at a reference speed: measured time
# x reference time / calibration time nearby.  Each invocation is scaled by
# a kernel of the engine's kind of work (per-edge gather/scatter) timed just
# before and just after it; the kernel mixes small-array dispatch (n = 10)
# and large-array arithmetic (n = 100), which co-tenants slow differently.
# Set-up, mostly pure-Python YAML parsing, is scaled by parsing a fixed YAML
# document.  Reference times are typical of the 2-core Xeon VM used.
CALIBRATION = ((10, 20, 4000), (100, 20, 60))     # (agents, replicas, steps)
CALIBRATION_REF_S = 0.5    # s, about 0.25 s for each of the two parts
PARSE_REF_S = 0.003

END_TO_END = {"wall_s": "s", "replica_steps_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MiB"}
PER_LAYER = {
    "engine.run_s": "s", "engine.us_per_replica_step": "us",
    "engine.calls": "count", "engine.replica_steps": "count",
    "engine.useful_step_ratio": "ratio",
    "cli.write_trace_s": "s", "cli.write_trace_bytes": "bytes",
    "cli.write_summary_s": "s", "cli.self_s": "s",
    "config.load_s": "s", "config.resolve_s": "s", "config.sweep_point_s": "s",
    "network.spectral_report_s": "s", "stepsizes.s": "s",
    "costs.kkt_solve_s": "s", "metrics.s": "s", "trace.overhead_s": "s",
    "engine.act_buffer_mb": "MiB-computed", "engine.trace_mb": "MiB-computed",
    **{f"engine.step_us.R{r}_n{n}": "us" for r, n, _ in GRID},
    "engine.step_us.R20_n10_wga": "us", "engine.step_us.R20_n10_gauss": "us",
    "network.spectral_report_ms.n100": "ms",
}


def pin_blas():
    """Pin BLAS threads and put the package on the path; before numpy loads.

    The process is also pinned to one CPU, so that the calibration kernel
    runs on the same CPU, and beside the same co-tenants, as the invocation
    it scales.
    """
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def env_record(seed):
    """What the numbers depend on besides the code."""
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = "unknown"
    try:
        # stop git from searching above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "commit": commit,
        "seed": seed,
    }


def calibrate():
    """Seconds the fixed calibration kernel takes on this host, now."""
    import numpy as np
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    for n, replicas, steps in CALIBRATION:
        ei, ej = np.triu_indices(n, 1)
        rows = np.arange(replicas)[:, None]
        x = np.linspace(0.0, 1.0, replicas * n).reshape(replicas, n, 1)
        for _ in range(steps):
            w = (1e-4 * (rng.random((replicas, ei.size)) < 0.5))[:, :, None]
            t = w * (x[:, ei] - x[:, ej])
            out = np.zeros_like(x)
            np.add.at(out, (rows, ei[None]), t)
            np.add.at(out, (rows, ej[None]), -t)
            x = x - 0.1 * out
    return time.perf_counter() - t0


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Bench:
    """One workload at one seed, with its generated config on disk."""

    def __init__(self, workload, seed, fast, reference):
        import yaml

        from workloads import DEFAULT_SEED, instance
        self.workload = workload
        self.fast = fast
        self.cfg = workload.config(seed, fast)
        self.reference = reference
        if seed == DEFAULT_SEED or workload.deterministic:
            self.q_band = None          # recorded references apply
        else:
            # the bands were measured at full size; --fast only checks invariants
            self.q_band = math.inf if fast else workload.q_band
        self.work = ROOT / ".perfbench" / f"{workload.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config_path = str(self.work / "config.yaml")
        with open(self.config_path, "w") as fh:
            yaml.safe_dump(self.cfg, fh, sort_keys=False)
        self.out_dir = str(self.work / "out")
        self.parse_text = yaml.safe_dump(instance("calibration", DEFAULT_SEED, 1))
        self.raw = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def time_setup(self):
        """(load_config + resolve, fixed YAML parse) times, interleaved."""
        import yaml

        from dtalloc.config import load_config, resolve
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            resolve(load_config(self.config_path))
            t1 = time.perf_counter()
            yaml.safe_load(self.parse_text)
            times.append((t1 - t0, time.perf_counter() - t1))
        return times

    def invoke(self, tracer=None):
        """One checked CLI invocation: (wall seconds, simulated replica-steps)."""
        from dtalloc import cli
        from workloads import check_outputs, replica_steps
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = self.workload.argv(self.config_path, self.out_dir)
        sink = io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with tracer if tracer is not None else contextlib.nullcontext():
                t0 = time.perf_counter()
                code = cli.main(argv)
                wall = time.perf_counter() - t0
        self.attempted += 1
        fails = check_outputs(self.workload, self.cfg, self.out_dir, code,
                              self.reference, self.q_band)
        self.failed += bool(fails)
        self.failures += [f"invocation {self.attempted}: {f}" for f in fails]
        try:
            with open(os.path.join(self.out_dir, self.cfg["name"], "summary.json")) as fh:
                steps = replica_steps(self.workload, json.load(fh))
        except (OSError, ValueError, KeyError):
            steps = 0
        return wall, steps

    def end_to_end(self, seconds):
        # set-up is timed between invocations too, so that its median spans
        # the same stretch of host load as the invocations
        setup = self.time_setup()
        calib = [calibrate()]
        walls, scaled, rates, rss = [], [], [], None
        start = time.perf_counter()
        while True:
            wall, steps = self.invoke()
            if rss is None:
                rss = peak_rss_mib()     # this fresh process, workload run once
            setup += self.time_setup()
            calib.append(calibrate())
            walls.append(wall)
            scaled.append(wall * CALIBRATION_REF_S / ((calib[-2] + calib[-1]) / 2))
            rates.append(steps / scaled[-1])
            # go on only if the next invocation should end within half an
            # invocation of --seconds
            if time.perf_counter() - start + median(walls) / 2 > seconds:
                break
        self.raw = {"wall_s": median(walls), "setup_s": median(t for t, _ in setup),
                    "calibration_s": median(calib),
                    "parse_calibration_s": median(c for _, c in setup)}
        return {"wall_s": median(scaled), "replica_steps_per_s": median(rates),
                "setup_s": median(t * PARSE_REF_S / c for t, c in setup),
                "peak_rss_mb": rss}

    def per_layer(self, seconds):
        from spans import Tracer, check_coverage, layer_metrics, required_spans
        required = required_spans(sweeps="sweep" in self.cfg)
        plain, traced, layers, spans = [], [], [], []
        start = time.perf_counter()
        while True:
            plain.append(self.invoke()[0])
            tracer = Tracer()
            traced.append(self.invoke(tracer)[0])
            check_coverage(tracer.spans, required)
            layers.append(layer_metrics(tracer.spans))
            spans.append([s.as_dict() for s in tracer.spans])
            elapsed = time.perf_counter() - start
            if elapsed * (len(plain) + 1) / len(plain) > seconds:
                break
        out = {k: median([m[k] for m in layers]) for k in layers[0]}
        out["trace.overhead_s"] = median(traced) - median(plain)
        out.update(computed_buffers(self.cfg))
        out.update(micro_grid(self.fast))
        return out, spans


def computed_buffers(cfg):
    """Sizes the engine allocates per call, from the config (not measured)."""
    eng = cfg["engine"]
    net = cfg["network"]
    n = net["n"]
    links = len(net["edges"]) if net["topology"] == "edges" else n * (n - 1) // 2
    steps, replicas = eng["iterations"], eng["replicas"]
    chunk = min(eng.get("chunk", 2048), steps)
    return {"engine.act_buffer_mb": replicas * chunk * links / 2**20,
            "engine.trace_mb": replicas * (steps + 1) * 4 * 8 / 2**20}


def micro_grid(fast=False):
    """Timed `engine.run` calls over the replica x agent grid, in µs/step."""
    from dtalloc import engine
    from dtalloc.config import from_dict, resolve
    from dtalloc.network import spectral_report
    from workloads import DEFAULT_SEED, WORKLOADS, instance

    def step_us(res, steps, replicas, algorithm="dta", disturbance=None):
        alpha = res.alpha if algorithm == "dta" else res.wga_alpha
        if fast:
            steps = max(2, steps // 20)
        times = []
        for _ in range(1 if fast else GRID_REPEATS):
            t0 = time.perf_counter()
            engine.run(res.problem, res.model, algorithm=algorithm, alpha=alpha,
                       beta=res.beta if algorithm == "dta" else None,
                       iterations=steps, replicas=replicas, seed=DEFAULT_SEED,
                       x0=res.x0, disturbance=disturbance)
            times.append(time.perf_counter() - t0)
        return 1e6 * median(times) / steps

    out = {}
    resolved = {}
    for replicas, n, steps in GRID:
        if n not in resolved:
            resolved[n] = resolve(from_dict(instance("grid", DEFAULT_SEED, 100, n=n)))
        out[f"engine.step_us.R{replicas}_n{n}"] = step_us(resolved[n], steps, replicas)
    ref = resolve(from_dict(WORKLOADS["compare-disturbed"].config(DEFAULT_SEED, fast=True)))
    out["engine.step_us.R20_n10_wga"] = step_us(ref, 500, 20, algorithm="wga")
    out["engine.step_us.R20_n10_gauss"] = step_us(ref, 500, 20,
                                                  disturbance=ref.disturbance)
    times = []
    for _ in range(21):
        t0 = time.perf_counter()
        spectral_report(resolved[100].model)
        times.append(time.perf_counter() - t0)
    out["network.spectral_report_ms.n100"] = 1e3 * median(times)
    return out


def run_one(args):
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    with open(args.reference) as fh:
        reference = json.load(fh)["fast" if args.fast else "full"][workload.name]
    env = env_record(args.seed)
    print("env: " + json.dumps(env, sort_keys=True))
    bench = Bench(workload, args.seed, args.fast, reference)
    try:
        if args.trace:
            values, spans = bench.per_layer(args.seconds)
            units = PER_LAYER
            out = ROOT / ".perfbench" / f"spans-{workload.name}-{args.seed}.json"
            with open(out, "w") as fh:
                json.dump({"env": env, "workload": workload.name,
                           "invocations": spans}, fh)
            print(f"spans: {out}")
        else:
            values = bench.end_to_end(args.seconds)
            units = END_TO_END
    finally:
        bench.close()
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    for msg in bench.failures:
        print(f"check failed: {msg}", file=sys.stderr)
    failed = bench.failed
    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{bench.attempted} invocations, failed_frac={failed / bench.attempted:.3g}")
    for name, unit in units.items():
        print(f"  {name:<36} {values[name]:>14.6g} {unit}")
    for name, value in bench.raw.items():
        print(f"  {'unscaled ' + name:<36} {value:>14.6g} s")
    result = {"correct": failed == 0, "attempted": bench.attempted,
              "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload, end-to-end then traced, each in a fresh process."""
    from workloads import WORKLOADS
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--reference", str(args.reference)]
            if args.fast:
                cmd.append("--fast")
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                status = proc.returncode or 1
                total["correct"] = False
                continue
            res = json.loads(lines[-1])
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for k, v in res["metrics"].items():
                total["metrics"][f"{name}/{k}"] = v
            status = max(status, proc.returncode)
    print(json.dumps(total))
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="ref-dta | compare-disturbed | sweep-beta | wide-n100 | all")
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the shipped configs' seed)")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fast", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--reference", default=str(HERE / "reference.json"))
    args = p.parse_args(argv)
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "dtalloc" / "__init__.py").is_file():
        print(f"error: no dtalloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_blas()
    from workloads import DEFAULT_SEED, WORKLOADS
    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from "
                f"{', '.join(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
