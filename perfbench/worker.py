"""One benchmark process: set up a workload, then run verified passes over it.

`run.py` starts this script in a fresh interpreter for each measurement, so
no module or disk state carries over between runs.  Usage:

    python3 perfbench/worker.py --workload reduce3d --seed 1 --work DIR
        [--setup-only] [--budget SECONDS | --passes N] [--trace]

The result, a JSON object, goes to DIR/result.json.  The set-up clock starts
before any import but `time`, and stops once every config is loaded.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# workload -> [(config file, overrides)]; every scenario also gets the seed.
WORKLOADS = {
    # Criterion 6 on its own 128x48x48 grid, shortened to t_final = 0.1:
    # 416 confined 3d steps.  Shorter breaks max_err_ratio <= 0.6.
    "reduce3d": [
        ("reduction_sweep.ini", ["reduce3d.t_final=0.1"]),
        ("reduction_control.ini", ["reduce3d.t_final=0.1",
                                   "reduce3d.eps_list=0.4 0.2"]),
    ],
    # Criterion 7 as shipped.
    "count": [
        ("counting_pair.ini", []),
        ("counting_triplet.ini", []),
    ],
    # The seven small shipped scenarios; snapshots on for the I/O path.
    "line_chain": [
        ("barrier_scattering.ini", []),
        ("shell_sweep.ini", []),
        ("shell_profile.ini", []),
        ("harmonic_trap.ini", []),
        ("gpe_plane_wave.ini", []),
        ("gpe_convergence.ini", []),
        ("gpe_packet.ini", ["evolve1d.snapshots=true",
                            "evolve1d.sample_stride=10"]),
    ],
}


def reference_misses(name: str, metrics: dict, reference: dict) -> list[str]:
    """Metrics of scenario `name` outside their recorded value +- tolerance."""
    misses = []
    for key, ref in reference.get(name, {}).items():
        value = metrics.get(key)
        tol = ref["atol"] + ref["rtol"] * abs(ref["value"])
        if value is None or not abs(float(value) - ref["value"]) <= tol:
            misses.append(f"{name}.{key} = {value!r}, reference "
                          f"{ref['value']!r} +- {tol:.3g}")
    return misses


def artifact_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def environment(seed: int) -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "seed": seed}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import quasi1d
    from quasi1d import harness

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(quasi1d)
        tracer.trace_id = "setup"
    t_load = time.perf_counter()
    configs = [harness.load_config(ROOT / "configs" / name,
                                   overrides + [f"scenario.seed={args.seed}"])
               for name, overrides in WORKLOADS[args.workload]]
    now = time.perf_counter()
    result = {"setup_s": now - START, "phase_s": {"setup": now - t_load}}
    if args.setup_only:
        (args.work / "result.json").write_text(json.dumps(result))
        return 0

    reference = json.loads((HERE / "reference.json").read_text())["physics"]
    pass_s, files, sizes, failures = [], [], [], []
    while True:
        index = len(pass_s)
        pass_dir = args.work / "out" / f"pass{index}"
        if tracer is not None:
            tracer.trace_id = f"pass{index}"
        t0 = time.perf_counter()
        for cfg in configs:
            try:
                res = harness.run_scenario(cfg, pass_dir)
            except Exception:  # a failed scenario is counted, not fatal
                failures.append(f"{cfg.name} raised:\n{traceback.format_exc()}")
                continue
            reasons = reference_misses(cfg.name, res.metrics, reference)
            if not res.ok:
                bad = [row["metric"] for row in res.assertions if not row["passed"]]
                reasons.insert(0, f"{cfg.name}: in-config assertions failed: {bad}")
            if reasons:
                failures.append("; ".join(reasons))
        pass_s.append(time.perf_counter() - t0)
        n_files, n_bytes = artifact_size(pass_dir)
        files.append(n_files)
        sizes.append(n_bytes)
        shutil.rmtree(pass_dir, ignore_errors=True)
        if args.passes:
            if len(pass_s) >= args.passes:
                break
        elif sum(pass_s) + statistics.median(pass_s) > args.budget:
            break

    result.update({
        "pass_s": pass_s,
        "attempted": len(pass_s) * len(configs),
        "failed": len(failures),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifact_files": files,
        "artifact_bytes": sizes,
        "environment": environment(args.seed),
    })
    if tracer is not None:
        result["phase_s"].update({f"pass{i}": s for i, s in enumerate(pass_s)})
        result["spans"] = tracer.spans
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
