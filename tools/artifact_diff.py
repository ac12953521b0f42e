"""Compare the artifacts that two checkouts write from their configs, and
hold the heaviest configs to a peak-RSS cap.

    python3 tools/artifact_diff.py OLD_TREE NEW_TREE
    python3 tools/artifact_diff.py . .      # two fresh runs of one tree

Runs every `configs/*.ini` of each tree through that tree's own
`src/quasi1d` (`harness.load_config` and `harness.run_scenario`, one fresh
process per config) into a temporary root.  Each run prints the config's
path on stderr with its process's exit code and peak RSS and, if
`PEAK_RSS_CAPS_MB` caps it, the cap.  Then prints one block per artifact
path on stdout, sorted: `identical` when the two files hold the same bytes,
and otherwise the largest relative and absolute move of each CSV column or
JSON key whose values moved.  A value that is not a number, a changed
header or row count, a key or file on one side only and a file that is
neither CSV nor JSON are reported as such.  A config that raises, or whose
peak RSS is above its cap on either run, is named on stderr, and the tree's
other configs still run.  Exits 0 when every config ran under its cap and
every artifact is identical and 1 otherwise, so that an identical config
and seed giving other bytes fails.

Sums through a threaded BLAS can move in their last bits with its thread
count, so compare trees on one machine with one thread count.  The counting
runs hold numpy's bundled OpenBLAS on one thread, so theirs do not.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# peak RSS caps in MB, by config stem, held on each tree's run
PEAK_RSS_CAPS_MB = {"counting_confined": 160, "reduction_sweep": 56,
                    "counting_pair": 50, "counting_triplet": 51}

RUN_CONFIG = """\
import sys
from quasi1d.harness import load_config, run_scenario
try:
    run_scenario(load_config(sys.argv[1]), sys.argv[2])
except Exception as exc:
    print(f"{sys.argv[1]}: {type(exc).__name__}: {exc}", file=sys.stderr)
    sys.exit(1)
"""


def run_configs(tree: Path, root: Path) -> int:
    """Every config of `tree`, each run by that tree's code in a process of
    its own, into `root`; 0 when each ran under its cap, else 1, each config
    that raised or went over its cap named on stderr."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    failed = 0
    for path in sorted(tree.joinpath("configs").glob("*.ini")):
        path = path.resolve()
        child = subprocess.Popen([sys.executable, "-c", RUN_CONFIG, str(path),
                                  str(root)], cwd=tree, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        # wait4 reaped the child, so Popen must not wait for it again
        child.returncode = code = os.waitstatus_to_exitcode(status)
        peak_mb = usage.ru_maxrss / 1024
        cap_mb = PEAK_RSS_CAPS_MB.get(path.stem)
        over = cap_mb is not None and peak_mb > cap_mb
        print(f"{path}: exit {code}, peak RSS {peak_mb:.1f} MB"
              + ("" if cap_mb is None else f" (cap {cap_mb} MB)"), file=sys.stderr)
        if over:
            print(f"{path}: peak RSS {peak_mb:.1f} MB above its {cap_mb} MB cap",
                  file=sys.stderr)
        failed = failed or code != 0 or over
    return int(failed)


def _number(value) -> float | None:
    """A CSV cell or JSON leaf as a float, or None if it is not a number."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _json_leaves(value, key: str = "") -> dict:
    """Each scalar of a JSON document under its dotted, indexed key."""
    if isinstance(value, dict):
        items = [(f"{key}.{k}" if key else k, v) for k, v in value.items()]
    elif isinstance(value, list):
        items = [(f"{key}[{i}]", v) for i, v in enumerate(value)]
    else:
        return {key: value}
    return {leaf: v for k, item in items for leaf, v in _json_leaves(item, k).items()}


def _moves(pairs) -> list[str]:
    """Largest relative and absolute move per name over (name, old, new)."""
    moved: dict[str, list[float]] = {}
    notes = []
    for name, old, new in pairs:
        if old == new:
            continue
        a, b = _number(old), _number(new)
        if a is None or b is None:
            notes.append(f"  {name}: {old!r} -> {new!r}")
            continue
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        absolute = abs(b - a)
        relative = absolute / abs(a) if a else math.inf
        worst = moved.setdefault(name, [0.0, 0.0])
        worst[0] = max(worst[0], relative)
        worst[1] = max(worst[1], absolute)
    return [f"  {name}: rel {rel:.2e}  abs {ab:.2e}"
            for name, (rel, ab) in moved.items()] + notes


def _csv_moves(old: Path, new: Path) -> list[str]:
    old_rows, new_rows = (list(csv.reader(path.read_text(encoding="utf-8")
                                          .splitlines())) for path in (old, new))
    if not old_rows or not new_rows or old_rows[0] != new_rows[0]:
        return ["  header differs"]
    if len(old_rows) != len(new_rows):
        return [f"  rows: {len(old_rows) - 1} -> {len(new_rows) - 1}"]
    header = old_rows[0]
    return _moves((column, a, b) for old_row, new_row in zip(old_rows[1:], new_rows[1:])
                  for column, a, b in zip(header, old_row, new_row))


def _json_moves(old: Path, new: Path) -> list[str]:
    leaves = [_json_leaves(json.loads(path.read_text(encoding="utf-8")))
              for path in (old, new)]
    only = [f"  {key}: only in {side}" for side, mine, other in
            (("old", leaves[0], leaves[1]), ("new", leaves[1], leaves[0]))
            for key in mine if key not in other]
    return _moves((key, value, leaves[1][key]) for key, value in leaves[0].items()
                  if key in leaves[1]) + only


def compare_roots(old_root: Path, new_root: Path) -> list[str]:
    """The report for two artifact roots, one line or block per file."""
    names = sorted({path.relative_to(root).as_posix()
                    for root in (old_root, new_root)
                    for path in root.rglob("*") if path.is_file()})
    lines = []
    for name in names:
        old, new = old_root / name, new_root / name
        if not (old.is_file() and new.is_file()):
            lines.append(f"{name}: only in {'new' if new.is_file() else 'old'}")
        elif old.read_bytes() == new.read_bytes():
            lines.append(f"{name}: identical")
        else:
            compare = {".csv": _csv_moves, ".json": _json_moves}.get(old.suffix)
            moves = compare(old, new) if compare else ["  bytes differ"]
            lines.extend([f"{name}:", *(moves or ["  same values"])])
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/artifact_diff.py OLD_TREE NEW_TREE",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        roots = [Path(tmp) / "old", Path(tmp) / "new"]
        failed = [run_configs(Path(tree).resolve(), root)
                  for tree, root in zip(argv, roots)]
        lines = compare_roots(*roots)
    print("\n".join(lines))
    return 0 if not any(failed) and all(line.endswith(": identical")
                                        for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
