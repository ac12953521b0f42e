"""quasi1d benchmark: verified scenario passes, timed end to end or traced by layer.

    python3 perfbench/run.py --workload {reduce3d,count,line_chain}
        --seed N --seconds S --trace {0,1}

Run it from anywhere inside a source checkout; it needs `src/quasi1d` and
`configs/` beside `perfbench/`.  Every measurement runs in a fresh worker
process (`worker.py`) with its own temporary work directory under
`.perfbench_work/` in the checkout, removed afterwards.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the median pass
time, the median set-up time over several fresh processes and the peak RSS
of the process that ran the passes.  --trace 1 runs the passes once untraced
and once with every public library function wrapped (tracing.py), and
reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

from tracing import layer_totals  # noqa: E402
from worker import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 8           # set-up-only processes, besides the pass process
DEADLINE_S = 170.0         # whole run, all workers included


class WorkerFailed(RuntimeError):
    pass


def run_worker(args: list[str], work: Path, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its result.json."""
    work.mkdir()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               QUASI1D_OUTPUT_ROOT=str(work / "out"))
    env.pop("PYTHONPATH", None)  # quasi1d comes from this checkout's src/ only
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--work", str(work)]
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker exceeded the {DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise WorkerFailed(f"worker exited with code {code}: {' '.join(cmd)}")
    return json.loads((work / "result.json").read_text())


def per_layer(names: list[str], untraced: dict, traced: dict) -> tuple[dict, list]:
    """Per-layer metric values and the exact counts that drifted between passes.

    Values cover the set-up once plus one pass: time is the set-up's plus the
    mean over passes, and counts are the set-up's plus one pass's, which must
    be the same in every pass.
    """
    totals = layer_totals(traced["spans"])
    setup = totals.get("setup", {})
    passes = [totals.get(f"pass{i}", {}) for i in range(len(traced["pass_s"]))]
    drift = []

    def field(fn: str, key: str) -> float:
        values = [p.get(fn, {}).get(key, 0) for p in passes]
        exact = key not in ("total_s", "self_s")
        if exact and len(set(values)) > 1 and f"{fn}.{key}: {values}" not in drift:
            drift.append(f"{fn}.{key}: {values}")
        mean = values[0] if exact else sum(values) / len(values)
        return setup.get(fn, {}).get(key, 0) + mean

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def untraced_s() -> float:
        phases = traced["phase_s"]
        gap = [phases[p] - totals.get(p, {}).get("", {}).get("total_s", 0.0)
               for p in phases]
        return gap[0] + sum(gap[1:]) / len(passes)

    e3, e1 = "confined3d.evolve_3d", "gpe1d.evolve_1d"
    derived = {
        "confined3d.steps": lambda: field(e3, "steps"),
        "confined3d.ms_per_step": lambda: ratio(1e3 * field(e3, "total_s"),
                                                field(e3, "steps")),
        "confined3d.cell_steps_per_s": lambda: ratio(field(e3, "cell_steps"),
                                                     field(e3, "total_s")),
        "gpe1d.steps": lambda: field(e1, "steps"),
        "gpe1d.us_per_step": lambda: ratio(1e6 * field(e1, "total_s"),
                                           field(e1, "steps")),
        "harness.artifact_files": lambda: traced["artifact_files"][0],
        "harness.artifact_bytes": lambda: statistics.mean(traced["artifact_bytes"]),
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": lambda: (statistics.median(traced["pass_s"])
                                     - statistics.median(untraced["pass_s"])),
    }
    out = {}
    for name in names:
        fn, _, what = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]()
        elif what in ("self_s", "calls"):
            out[name] = field(fn, what)
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return out, drift


def count_drift(workload: str, values: dict) -> list[str]:
    """Exact counts that differ from the ones recorded in reference.json."""
    recorded = json.loads((HERE / "reference.json").read_text())["counts"][workload]
    return [f"{name} = {values[name]!r}, recorded {want!r}"
            for name, want in recorded.items() if values[name] != want]


def measure(args, bench: dict, scratch: Path, deadline: float) -> dict:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if not args.trace:
        def probe(i: int) -> float:
            return run_worker(common + ["--setup-only"], scratch / f"setup{i}",
                              deadline)["setup_s"]

        # Probes before and after the passes, so that set-up time samples
        # more than one stretch of the machine's speed.
        setups = [probe(i) for i in range(SETUP_PROBES // 2)]
        main = run_worker(common + ["--budget", str(args.seconds)],
                          scratch / "passes", deadline)
        setups += [main["setup_s"]] + [probe(i) for i in
                                       range(SETUP_PROBES // 2, SETUP_PROBES)]
        values = {"wall_s": statistics.median(main["pass_s"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": main["peak_rss_mb"]}
        notes = [f"wall_s: median of {len(main['pass_s'])} pass(es)",
                 f"setup_s: median of {len(setups)} fresh processes"]
        runs, drift = [main], []
        names = [m["name"] for m in bench["end_to_end"]]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    else:
        untraced = run_worker(common + ["--budget", str(args.seconds / 2)],
                              scratch / "untraced", deadline)
        traced = run_worker(common + ["--trace", "--passes",
                                      str(len(untraced["pass_s"]))],
                            scratch / "traced", deadline)
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values, drift = per_layer(names, untraced, traced)
        notes = [f"{len(traced['pass_s'])} traced and untraced pass(es); "
                 f"{len(traced['spans'])} spans"]
        for line in count_drift(args.workload, values):
            notes.append(f"count differs from reference.json: {line}")
        runs = [untraced, traced]
    return {"values": values, "names": names, "units": units, "notes": notes,
            "drift": drift, "runs": runs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/quasi1d/harness.py", "configs", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a quasi1d checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        got = measure(args, bench, scratch, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it

    runs = got["runs"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"environment: {json.dumps(runs[0]['environment'])}")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}: {'; '.join(got['notes'])}")
    for name in got["names"]:
        print(f"  {name:40s} {got['values'][name]:>16.6g} {got['units'][name]}")
    print(f"  {'fail_ratio':40s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} scenario executions)")
    for run in runs:
        for failure in run["failures"]:
            print(f"FAILED: {failure}")
    drift = got["drift"] + [f"harness.artifact_files: {r['artifact_files']}"
                            for r in runs if len(set(r["artifact_files"])) > 1]
    for line in drift:
        print(f"NONDETERMINISTIC count between passes: {line}")
    correct = failed == 0 and not drift
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": got["values"][name], "unit": got["units"][name]}
                    for name in got["names"]}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
