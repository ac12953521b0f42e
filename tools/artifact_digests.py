"""Print a sha256 digest of every artifact the shipped configs write.

Runs each `configs/*.ini` (or each config named on the command line) through
`harness.load_config` and `harness.run_scenario` into a temporary root, then
prints one `sha256 relative/path` line per file written, sorted by path.
An identical config and seed must give byte-identical artifacts, so two runs
of one checkout, or runs of two checkouts whose numbers should agree, diff
empty:

    python3 tools/artifact_digests.py > before.txt
    python3 tools/artifact_digests.py > after.txt
    diff before.txt after.txt

The counting artifacts move in their last bits with the BLAS thread count,
so compare runs made on one machine with one thread count.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from quasi1d.harness import load_config, run_scenario  # noqa: E402


def artifact_digests(configs: list[Path]) -> list[str]:
    """Run every config into one temporary root; digest what it holds."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for path in configs:
            run_scenario(load_config(path), root)
        return [f"{hashlib.sha256(path.read_bytes()).hexdigest()} "
                f"{path.relative_to(root).as_posix()}"
                for path in sorted(root.rglob("*")) if path.is_file()]


def main(argv: list[str]) -> int:
    configs = [Path(arg) for arg in argv] or sorted((ROOT / "configs").glob("*.ini"))
    print("\n".join(artifact_digests(configs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
