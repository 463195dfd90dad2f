"""Record reference.json: every workload's outputs at the default seed.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are trusted; the benchmark then holds
later commits to these values within tolerances that scale with r0.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run


def main():
    run.pin_blas()
    from dtalloc import cli
    from workloads import DEFAULT_SEED, WORKLOADS, record_reference
    out = {"seed": DEFAULT_SEED, "full": {}, "fast": {}}
    for mode in ("full", "fast"):
        for name, workload in WORKLOADS.items():
            bench = run.Bench(workload, DEFAULT_SEED, mode == "fast", reference={})
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(workload.argv(bench.config_path, bench.out_dir))
                if code != workload.exit_code:
                    sys.exit(f"{name}: exit code {code}, expected {workload.exit_code}")
                out[mode][name] = record_reference(workload, bench.cfg, bench.out_dir)
            finally:
                bench.close()
            print(f"recorded {mode} {name}", flush=True)
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
