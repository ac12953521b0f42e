"""Run one config through the CLI and hold its peak resident set size to a cap.

    python3 tools/peak_rss.py CONFIG CAP_MB [--set SECTION.KEY=VALUE ...]

Reads the scenario kind from CONFIG's `[scenario]` section and runs
`python -m quasi1d.cli KIND CONFIG [--set ...]` in a child process on this
tree's `src/quasi1d`, which writes its artifacts where the CLI puts them
($QUASI1D_OUTPUT_ROOT or ./quasi1d_out).  Then prints the peak RSS of this
process's children, which is the CLI's.  Exits with the CLI's code when
that is not 0, with 1 when the peak is above CAP_MB, and with 0 otherwise.
"""

from __future__ import annotations

import argparse
import configparser
import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/peak_rss.py",
        description="run a config through the CLI under a peak-RSS cap")
    parser.add_argument("config")
    parser.add_argument("cap_mb", type=float, metavar="CAP_MB")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE")
    args = parser.parse_args(argv)
    scenario = configparser.ConfigParser(interpolation=None)
    scenario.read(args.config, encoding="utf-8")
    kind = scenario.get("scenario", "kind", fallback="").strip()
    command = [sys.executable, "-m", "quasi1d.cli", kind, args.config]
    for override in args.overrides:
        command += ["--set", override]
    code = subprocess.call(command, env=dict(os.environ, PYTHONPATH=str(SRC)))
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS of {' '.join(command[3:])}: {peak_mb:.1f} MB "
          f"(cap {args.cap_mb:g} MB)")
    if code != 0:
        return code
    if peak_mb > args.cap_mb:
        print(f"peak RSS above {args.cap_mb:g} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
