"""Command line front end.

One subcommand per scenario kind plus `validate`.  A scenario's values come
from its INI file and from `--set section.key=value`, which overrides one
key; the harness alone knows the keys.  `scatter` and `trap` also run
without a file, from `--set` alone, named `<kind>-cli` unless an override
names them.
Exit codes: 0 all runs succeeded and every in-config assertion passed,
1 assertion or runtime failure, 2 configuration errors.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import sys
from concurrent.futures import ProcessPoolExecutor

from .errors import ConfigError
from .harness import (SCENARIO_KINDS, ScenarioConfig, apply_overrides,
                      from_mapping, load_config, run_scenario)


def _add_set(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="SECTION.KEY=VALUE",
                   help="override a config value (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasi1d",
        description="Scattering, confinement and counting scenarios for the "
                    "quasi one-dimensional Bose gas.")
    sub = parser.add_subparsers(dest="command", required=True)

    descriptions = {
        "scatter": "zero-energy scattering and shell-correction construction",
        "trap": "transverse confinement ground state and coupling",
        "evolve1d": "effective 1d Gross-Pitaevskii dynamics",
        "reduce3d": "dimensional-reduction sweep of the confined 3d model",
        "count": "many-body counting inequalities on dense tensors",
    }
    for kind in SCENARIO_KINDS:
        p = sub.add_parser(kind, help=descriptions[kind])
        p.add_argument("configs", nargs="*", metavar="CONFIG",
                       help="scenario INI files")
        _add_set(p)
        p.add_argument("--output", default=None,
                       help="artifact root (default: $QUASI1D_OUTPUT_ROOT or "
                            "./quasi1d_out)")
        p.add_argument("--jobs", type=int, default=1,
                       help="run independent scenarios in parallel")

    pv = sub.add_parser("validate", help="validate configs without running; "
                                         "report admissibility sections")
    pv.add_argument("configs", nargs="+", metavar="CONFIG")
    _add_set(pv)
    return parser


def _load(kind: str, path: str | None, overrides: list) -> ScenarioConfig:
    """The config at `path`, or from `overrides` alone when `path` is None;
    either must be of the subcommand's kind."""
    if path is None:
        parser = configparser.ConfigParser(interpolation=None)
        apply_overrides(parser, overrides)
        values = {name: dict(parser[name]) for name in parser.sections()}
        cfg = from_mapping(kind, values, name=f"{kind}-cli")
    else:
        cfg = load_config(path, overrides)
    if cfg.kind != kind:
        raise ConfigError(f"{cfg.path}: kind = {cfg.kind} does not match the "
                          f"{kind} subcommand")
    return cfg


def _run_one(kind: str, path: str | None, overrides: list,
             root: str | None) -> tuple:
    cfg = _load(kind, path, overrides)
    result = run_scenario(cfg, root)
    return cfg.name, result.ok, result.assertions, str(result.summary_path)


def _report_all(outcomes) -> int:
    """Print each run's verdict as it arrives; 0 if every run passed, else 1."""
    all_ok = True
    for name, ok, assertions, summary_path in outcomes:
        checked = len(assertions)
        passed = sum(1 for a in assertions if a["passed"])
        suffix = f" ({passed}/{checked} assertions)" if checked else ""
        print(f"{name}: {'PASS' if ok else 'FAIL'}{suffix} -> {summary_path}")
        for row in assertions:
            if not row["passed"]:
                note = row.get("note")
                detail = note if note else f"value {row['value']!r}"
                print(f"  assert {row['metric']} {row['op']} "
                      f"{row['threshold']}: {detail}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def _cmd_run(args: argparse.Namespace, kind: str) -> int:
    paths = args.configs
    if not paths:
        if kind not in ("scatter", "trap"):
            print(f"error: {kind} needs at least one config file",
                  file=sys.stderr)
            return 2
        paths = [None]
    run = functools.partial(_run_one, kind, overrides=args.overrides,
                            root=args.output)
    jobs = max(1, args.jobs)
    if jobs == 1 or len(paths) == 1:
        return _report_all(map(run, paths))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return _report_all(pool.map(run, paths))


def _cmd_validate(args: argparse.Namespace) -> int:
    for path in args.configs:
        cfg = load_config(path, args.overrides)
        print(f"{path}: OK (kind = {cfg.kind}, name = {cfg.name})")
        report = cfg.admissibility
        if report is not None:
            products = ", ".join(f"{p:.6g}" for p in report.products)
            verdict = "admissible" if report.admissible else "NOT admissible"
            print(f"  N * eps^{report.delta:g}: {products} -> {verdict}")
            if report.window is not None:
                wok = "ok" if report.window["ok"] else "VIOLATED"
                print(f"  window {report.window['statement']}: {wok}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_run(args, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surfaced with context, nonzero
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
