"""In-memory span tracing of quasi1d's public functions, from outside the package.

`Tracer.install` wraps every public function a library module defines and
rebinds every module-level name that refers to it, in every quasi1d module.
`confined3d` imports `evolve_1d`, `ground_state_2d` and `rescale_mode` with
`from ... import`, so rebinding only the defining module would miss those
calls.  Spans stay in a list until the run ends; `layer_totals` turns them
into calls, inclusive and self time per function and phase, where self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import time

# Modules whose public functions are layers of the benchmark.
LAYER_MODULES = ("scattering", "transverse", "gpe1d", "confined3d", "manybody",
                 "harness", "snapshots")


def _evolve_3d_work(traj) -> dict:
    grid = traj.final.grid
    steps = traj.times.size - 1
    return {"steps": steps, "cell_steps": steps * grid.n_x * grid.n_y ** 2}


def _evolve_1d_work(traj) -> dict:
    return {"steps": traj.times.size - 1}


# Work counts read off a function's return value, keyed by qualified name.
WORK = {"confined3d.evolve_3d": _evolve_3d_work,
        "gpe1d.evolve_1d": _evolve_1d_work}


class Tracer:
    """Records one span per call of a wrapped function.

    A span is [span_id, parent_id, trace_id, name, start, end, work]; all
    spans recorded while `trace_id` holds one value belong to one phase of
    the run (the set-up, or one pass over the workload's scenarios).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.trace_id: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, self.trace_id,
                    name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[6] = work(result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the layer functions of `package` and rebind every alias."""
        modules = [m for m in vars(package).values() if inspect.ismodule(m)
                   and m.__name__.startswith(package.__name__ + ".")]
        wrapped = {}
        for short in LAYER_MODULES:
            module = vars(package)[short]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])


def layer_totals(spans: list) -> dict:
    """{trace_id: {name: {calls, total_s, self_s, <work>...}}} plus top-level time.

    The top-level time of a phase, under the name "", is the summed duration
    of its spans that have no parent.
    """
    child_s: dict[int, float] = {}
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child_s[parent] = child_s.get(parent, 0.0) + (end - start)
    out: dict[str, dict] = {}
    for span_id, parent, trace_id, name, start, end, work in spans:
        phase = out.setdefault(trace_id, {"": {"total_s": 0.0}})
        dur = end - start
        row = phase.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_s.get(span_id, 0.0)
        for key, value in (work or {}).items():
            row[key] = row.get(key, 0) + value
        if parent is None:
            phase[""]["total_s"] += dur
    return out
