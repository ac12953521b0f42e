"""Command line front end.

One subcommand per scenario kind plus `validate`.  Scenarios normally come
from INI files; `scatter` and `trap` can also be driven purely by flags.
Exit codes: 0 all runs succeeded and every in-config assertion passed,
1 assertion or runtime failure, 2 configuration errors.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from concurrent.futures import ProcessPoolExecutor

from .errors import ConfigError
from .harness import (SCENARIO_KINDS, apply_overrides, from_mapping,
                      load_config, run_scenario)

_SCATTER_FLAGS = [
    ("--potential", str, "potential", "square_barrier, smooth_bump, zero or "
                                      "file:<csv>"),
    ("--height", float, "height", "potential height V0"),
    ("--radius", float, "radius", "support radius of the unscaled profile"),
    ("--mu", float, "mu", "interaction range scale"),
    ("--epsilon", float, "epsilon", "confinement scale (with --n-particles)"),
    ("--n-particles", float, "n_particles", "particle number (with --epsilon)"),
    ("--beta-tilde", float, "beta_tilde", "shell exponent in (1/3, 1)"),
    ("--ode-tol", float, "ode_tol", "radial integration tolerance"),
    ("--bisect-tol", float, "bisect_tol", "tangency bisection tolerance"),
]

_TRAP_FLAGS = [
    ("--potential", str, "potential", "harmonic[:c], shifted:c or "
                                      "well:depth,radius"),
    ("--extent", float, "extent", "transverse box edge length"),
    ("--n", int, "n", "grid points per transverse axis"),
    ("--epsilon", float, "epsilon", "also report the rescaled mode"),
]


def _add_common(p: argparse.ArgumentParser, with_configs: bool = True) -> None:
    if with_configs:
        p.add_argument("configs", nargs="*", metavar="CONFIG",
                       help="scenario INI files")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="SECTION.KEY=VALUE",
                   help="override a config value (repeatable)")
    p.add_argument("--output", default=None,
                   help="artifact root (default: $QUASI1D_OUTPUT_ROOT or "
                        "./quasi1d_out)")
    p.add_argument("--jobs", type=int, default=1,
                   help="run independent scenarios in parallel")
    p.add_argument("--name", default=None, help="scenario name for flag-only "
                                                "runs")
    p.add_argument("--seed", type=int, default=None, help="seed override")


def _add_sugar(p: argparse.ArgumentParser, flags) -> None:
    for flag, typ, _dest, help_text in flags:
        p.add_argument(flag, type=typ, default=None, help=help_text,
                       dest=flag.lstrip("-").replace("-", "_"))


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
        _add_common(p)
        if kind == "scatter":
            _add_sugar(p, _SCATTER_FLAGS)
            p.add_argument("--radial-table", action="store_true",
                           help="emit the radial CSV table")
        elif kind == "trap":
            _add_sugar(p, _TRAP_FLAGS)
            p.add_argument("--chi-slice", action="store_true",
                           help="emit a central slice of the mode as CSV")

    pv = sub.add_parser("validate", help="validate configs without running; "
                                         "report admissibility sections")
    pv.add_argument("configs", nargs="+", metavar="CONFIG")
    pv.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="SECTION.KEY=VALUE")
    return parser


def _sugar_overrides(args: argparse.Namespace, kind: str) -> list:
    flags = {"scatter": _SCATTER_FLAGS, "trap": _TRAP_FLAGS}.get(kind, [])
    overrides = []
    for flag, _typ, dest, _help in flags:
        value = getattr(args, flag.lstrip("-").replace("-", "_"), None)
        if value is not None:
            overrides.append(f"{kind}.{dest}={value}")
    if kind == "scatter" and getattr(args, "radial_table", False):
        overrides.append("scatter.radial_table=true")
    if kind == "trap" and getattr(args, "chi_slice", False):
        overrides.append("trap.chi_slice=true")
    if args.seed is not None:
        overrides.append(f"scenario.seed={args.seed}")
    return overrides


def _run_one(path: str, overrides: list, kind: str, root: str | None) -> tuple:
    cfg = load_config(path, overrides)
    if cfg.kind != kind:
        raise ConfigError(f"{path}: kind = {cfg.kind} does not match the "
                          f"{kind} subcommand")
    result = run_scenario(cfg, root)
    return cfg.name, result.ok, result.assertions, str(result.summary_path)


def _report(name: str, ok: bool, assertions: list, summary_path: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    checked = len(assertions)
    passed = sum(1 for a in assertions if a["passed"])
    suffix = f" ({passed}/{checked} assertions)" if checked else ""
    print(f"{name}: {verdict}{suffix} -> {summary_path}")
    for row in assertions:
        if not row["passed"]:
            note = row.get("note")
            detail = note if note else f"value {row['value']!r}"
            print(f"  assert {row['metric']} {row['op']} {row['threshold']}: "
                  f"{detail}")


def _cmd_run(args: argparse.Namespace, kind: str) -> int:
    overrides = list(args.overrides) + _sugar_overrides(args, kind)
    if not args.configs:
        if kind not in ("scatter", "trap"):
            print(f"error: {kind} needs at least one config file",
                  file=sys.stderr)
            return 2
        flags = configparser.ConfigParser(interpolation=None)
        apply_overrides(flags, overrides)
        values = {name: dict(flags[name]) for name in flags.sections()}
        cfg = from_mapping(kind, values, name=args.name or f"{kind}-cli")
        result = run_scenario(cfg, args.output)
        _report(cfg.name, result.ok, result.assertions,
                str(result.summary_path))
        return 0 if result.ok else 1

    all_ok = True
    jobs = max(1, args.jobs)
    if jobs == 1 or len(args.configs) == 1:
        for path in args.configs:
            name, ok, assertions, summary = _run_one(path, overrides, kind,
                                                     args.output)
            _report(name, ok, assertions, summary)
            all_ok = all_ok and ok
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_one, path, overrides, kind,
                                   args.output) for path in args.configs]
            for future in futures:
                name, ok, assertions, summary = future.result()
                _report(name, ok, assertions, summary)
                all_ok = all_ok and ok
    return 0 if all_ok else 1


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
