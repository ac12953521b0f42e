"""Scenario orchestration: INI configs in, JSON/CSV/snapshot artifacts out.

A scenario file is flat key-value INI with one section per concern:

    [scenario]      kind (scatter|trap|evolve1d|reduce3d|count), name, seed
    [<kind>]        the physical and numerical parameters of that kind
    [admissibility] optional (N, eps) sequence report
    [assert]        optional postconditions, `metric = <op> <threshold>`

Every run writes a summary.json carrying the metrics, the assertion verdicts
and a reproducibility block (config hash, seed, library versions), plus CSV
tables with unit-annotated headers.  Identical config and seed give byte
identical outputs; nothing time- or host-dependent is emitted.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import math
import operator
import os
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import confined3d, gpe1d, manybody, scattering, snapshots, transverse
from .errors import ConfigError

SCENARIO_KINDS = ("scatter", "trap", "evolve1d", "reduce3d", "count")

XI_WINDOW = "(0, 1/2)"
BETA_WINDOW = "(1/3, 1)"
DELTA_WINDOW = "(0, 2/5)"

__all__ = ["ScenarioConfig", "ScenarioResult", "AdmissibilityReport",
           "load_config", "validate_config", "run_scenario",
           "validate_admissibility", "output_root", "SCENARIO_KINDS"]


# ---------------------------------------------------------------------------
# config loading


def output_root(override: str | None = None) -> Path:
    """Artifact root: explicit argument, then QUASI1D_OUTPUT_ROOT, then cwd."""
    if override:
        return Path(override)
    return Path(os.environ.get("QUASI1D_OUTPUT_ROOT", "quasi1d_out"))


@dataclass(eq=False)
class ScenarioConfig:
    kind: str
    name: str
    seed: int
    path: str
    text: str
    parser: configparser.ConfigParser

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()

    def section(self, name: str) -> "_Section":
        return _Section(self, name)

    def has_section(self, name: str) -> bool:
        return self.parser.has_section(name)


class _Section:
    """Typed accessors over one INI section with file:line diagnostics."""

    def __init__(self, cfg: ScenarioConfig, name: str) -> None:
        self.cfg = cfg
        self.name = name

    def _where(self, key: str) -> str:
        line = _locate_key(self.cfg.text, self.name, key)
        at = f"{self.cfg.path}:{line}" if line else self.cfg.path
        return f"{at} [{self.name}] {key}"

    def fail(self, key: str, why: str) -> ConfigError:
        return ConfigError(f"{self._where(key)}: {why}")

    def raw(self, key: str, default: str | None = None) -> str | None:
        if self.cfg.parser.has_option(self.name, key):
            return self.cfg.parser.get(self.name, key).strip()
        return default

    def require(self, key: str) -> str:
        value = self.raw(key)
        if value is None or value == "":
            raise self.fail(key, "required key is missing")
        return value

    def get_float(self, key: str, default: float | None = None) -> float | None:
        value = self.raw(key)
        if value is None or value == "":
            return default
        try:
            number = float(value)
        except ValueError:
            raise self.fail(key, f"not a number: {value!r}") from None
        if not math.isfinite(number):
            raise self.fail(key, f"not a finite number: {value!r}")
        return number

    def get_int(self, key: str, default: int | None = None) -> int | None:
        value = self.raw(key)
        if value is None or value == "":
            return default
        try:
            return int(value)
        except ValueError:
            raise self.fail(key, f"not an integer: {value!r}") from None

    def get_bool(self, key: str, default: bool = False) -> bool:
        value = self.raw(key)
        if value is None or value == "":
            return default
        lowered = value.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise self.fail(key, f"not a boolean: {value!r}")

    def get_floats(self, key: str, default: list | None = None) -> list | None:
        value = self.raw(key)
        if value is None or value == "":
            return default
        return self.numbers(key, value)

    def numbers(self, key: str, text: str) -> list[float]:
        """Finite numbers separated by commas or blanks, read from `text`."""
        try:
            numbers = [float(p) for p in text.replace(",", " ").split()]
        except ValueError:
            raise self.fail(key, f"not a number list: {text!r}") from None
        if not all(math.isfinite(number) for number in numbers):
            raise self.fail(key, f"not a finite number list: {text!r}")
        return numbers


def _locate_key(text: str, section: str, key: str) -> int | None:
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
        elif current == section and "=" in stripped:
            if stripped.split("=", 1)[0].strip() == key:
                return lineno
    return None


def _serialize_parser(parser: configparser.ConfigParser) -> str:
    """Canonical INI text; the reproducibility hash is taken over this."""
    lines = []
    for section in parser.sections():
        lines.append(f"[{section}]")
        for key, val in parser.items(section):
            lines.append(f"{key} = {val}")
        lines.append("")
    return "\n".join(lines)


def apply_overrides(parser: configparser.ConfigParser, overrides) -> None:
    """Apply 'section.key=value' strings onto a parsed config."""
    for item in overrides or ():
        head, sep, value = item.partition("=")
        if not sep or "." not in head:
            raise ConfigError(f"override must read section.key=value: {item!r}")
        section, _, key = head.strip().partition(".")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key.strip(), value.strip())


def _finish_config(parser: configparser.ConfigParser, path: str,
                   fallback_name: str) -> ScenarioConfig:
    if not parser.has_section("scenario"):
        raise ConfigError(f"{path}: missing [scenario] section")
    cfg = ScenarioConfig(kind="", name="", seed=0, path=path,
                         text=_serialize_parser(parser), parser=parser)
    scen = cfg.section("scenario")
    kind = scen.require("kind")
    if kind not in SCENARIO_KINDS:
        raise scen.fail("kind", f"unknown kind {kind!r}; "
                                f"expected one of {', '.join(SCENARIO_KINDS)}")
    cfg.kind = kind
    cfg.name = scen.raw("name") or fallback_name
    cfg.seed = scen.get_int("seed", 0)
    validate_config(cfg)
    return cfg


def load_config(path: str | Path, overrides=None) -> ScenarioConfig:
    """Parse and statically validate a scenario file.

    ``overrides`` are 'section.key=value' strings layered on top of the file;
    the reproducibility hash covers the effective (post-override) config.
    """
    p = Path(path)
    try:
        raw = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(raw, source=str(p))
    except configparser.Error as exc:
        # configparser errors already carry line-level context
        raise ConfigError(f"config parse failure: {exc}") from exc
    apply_overrides(parser, overrides)
    cfg = _finish_config(parser, str(p), p.stem)
    if overrides:
        return cfg
    # keep the raw text for line-accurate diagnostics when unmodified
    cfg.text = raw
    return cfg


def from_mapping(kind: str, values: dict, name: str = "adhoc",
                 seed: int = 0) -> ScenarioConfig:
    """Build a config from flag-style key/value pairs (CLI without a file).

    The effective INI text is synthesized so the reproducibility hash is as
    well-defined as for file-based runs.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.add_section("scenario")
    parser.set("scenario", "kind", kind)
    parser.set("scenario", "name", name)
    parser.set("scenario", "seed", str(seed))
    for section, mapping in values.items():
        if not parser.has_section(section):
            parser.add_section(section)
        for key, val in mapping.items():
            parser.set(section, key, str(val))
    return _finish_config(parser, "<flags>", name)


# ---------------------------------------------------------------------------
# static validation


def _check_window(sec: _Section, key: str, value: float, lo: float, hi: float,
                  window: str) -> None:
    if not lo < value < hi:
        raise sec.fail(key, f"{value} outside the admissible window {window}")


def validate_config(cfg: ScenarioConfig) -> None:
    """Static checks: required sections, parameter windows, consistency."""
    if cfg.kind and not cfg.has_section(cfg.kind):
        raise ConfigError(f"{cfg.path}: missing [{cfg.kind}] section for "
                          f"kind = {cfg.kind}")
    sec = cfg.section(cfg.kind)
    if cfg.kind == "scatter":
        _validate_scatter(sec)
    elif cfg.kind == "trap":
        _validate_trap(sec)
    elif cfg.kind == "evolve1d":
        _validate_evolve1d(sec)
    elif cfg.kind == "reduce3d":
        _validate_reduce3d(sec)
    elif cfg.kind == "count":
        _validate_count(sec)
    if cfg.has_section("admissibility"):
        _validate_admissibility_section(cfg.section("admissibility"))
    if cfg.has_section("assert"):
        for key, value in cfg.parser.items("assert"):
            _parse_assertion(cfg.section("assert"), key, value)


def _resolve_mu(sec: _Section) -> float:
    """mu directly, or epsilon^2 / n_particles; both given must agree."""
    mu = sec.get_float("mu")
    eps = sec.get_float("epsilon")
    n = sec.get_float("n_particles")
    if eps is not None and n is not None:
        derived = eps * eps / n
        if mu is not None and not math.isclose(mu, derived, rel_tol=1e-9):
            raise sec.fail("mu", f"mu = {mu} inconsistent with "
                                 f"epsilon^2 / n_particles = {derived}")
        mu = derived
    if mu is None:
        raise sec.fail("mu", "mu (or the epsilon, n_particles pair) required")
    if mu <= 0:
        raise sec.fail("mu", "mu must be positive")
    return mu


def _validate_scatter(sec: _Section) -> None:
    mu_list = sec.get_floats("mu_list")
    if mu_list is None:
        _resolve_mu(sec)
    elif any(mu <= 0 for mu in mu_list):
        raise sec.fail("mu_list", "every mu in the sweep must be positive")
    _parse_radial_potential(sec)
    beta = sec.get_float("beta_tilde")
    if beta is not None:
        _check_window(sec, "beta_tilde", beta, 1.0 / 3.0, 1.0, BETA_WINDOW)
    elif mu_list is not None:
        raise sec.fail("mu_list", "a mu sweep needs beta_tilde")


def _validate_trap(sec: _Section) -> None:
    _parse_v_perp(sec.raw("potential", "harmonic"), sec)
    _grid_size(sec, "n", 128, least=16)
    if sec.get_float("extent", 16.0) <= 0:
        raise sec.fail("extent", "extent must be positive")
    eps = sec.get_float("epsilon")
    if eps is not None and eps <= 0:
        raise sec.fail("epsilon", "epsilon must be positive")


def _validate_evolve1d(sec: _Section) -> None:
    length = sec.get_float("length", 16.0)
    if length <= 0:
        raise sec.fail("length", "length must be positive")
    if sec.get_float("t_final") is None or sec.get_float("t_final") <= 0:
        raise sec.fail("t_final", "positive t_final required")
    if sec.get_float("dt") is None or sec.get_float("dt") <= 0:
        raise sec.fail("dt", "positive dt required")
    _resolve_coupling(sec)
    _parse_v_par(sec.raw("v_par", "none"), length, sec)
    _parse_initial(sec, gpe1d.Grid1D(length, _grid_size(sec, "n", 256)))


def _validate_reduce3d(sec: _Section) -> None:
    eps_list = sec.get_floats("eps_list")
    if not eps_list:
        raise sec.fail("eps_list", "at least one epsilon required")
    if any(e <= 0 for e in eps_list) or any(
            b <= a for a, b in zip(eps_list[1:], eps_list[:-1])):
        raise sec.fail("eps_list", "epsilons must be positive and strictly "
                                   "decreasing")
    if sec.get_float("a", 0.0) < 0:
        raise sec.fail("a", "scattering length must be non-negative")
    if sec.get_float("t_final") is None or sec.get_float("t_final") <= 0:
        raise sec.fail("t_final", "positive t_final required")
    if sec.get_float("dt_ref") is None or sec.get_float("dt_ref") <= 0:
        raise sec.fail("dt_ref", "positive dt_ref required")
    length = sec.get_float("length_x", 16.0)
    _parse_v_par(sec.raw("v_par", "none"), length, sec)
    for key, default in (("n_x", 128), ("n_y", 48), ("mode_n", 96)):
        _grid_size(sec, key, default)


def _grid_size(sec: _Section, key: str, default: int, least: int = 4) -> int:
    n = sec.get_int(key, default)
    if n < least or n % 2:
        raise sec.fail(key, f"grid size must be even and at least {least}")
    return n


def _validate_count(sec: _Section) -> None:
    n = sec.get_int("n_particles")
    if n is None or not 2 <= n <= manybody.MAX_PARTICLES:
        raise sec.fail("n_particles",
                       f"n_particles must be 2..{manybody.MAX_PARTICLES}")
    xi = sec.get_float("xi")
    if xi is None:
        raise sec.fail("xi", "xi required")
    _check_window(sec, "xi", xi, 0.0, 0.5, XI_WINDOW)
    if sec.get_int("samples", 100) < 1:
        raise sec.fail("samples", "at least one sample required")
    grid_kind = sec.raw("grid", "line")
    if grid_kind not in ("line", "confined"):
        raise sec.fail("grid", f"unknown grid kind {grid_kind!r}")
    beta = sec.get_float("beta_tilde")
    if beta is not None:
        _check_window(sec, "beta_tilde", beta, 1.0 / 3.0, 1.0, BETA_WINDOW)
    # the runner reads these only after the output directory exists
    for key in ("length", "b", "epsilon", "extent", "pair_height", "pair_mu",
                "quad_height", "quad_mu", "quad_beta_tilde", "quad_length"):
        sec.get_float(key)
    _parse_v_par(sec.raw("v_par", "none"), sec.get_float("length", 2.0 * math.pi),
                 sec)


def _validate_admissibility_section(sec: _Section) -> None:
    delta = sec.get_float("delta")
    if delta is None:
        raise sec.fail("delta", "delta required")
    _check_window(sec, "delta", delta, 0.0, 0.4, DELTA_WINDOW)
    n_values = sec.get_floats("n_values")
    eps_values = sec.get_floats("eps_values")
    if not n_values or not eps_values:
        raise sec.fail("n_values", "n_values and eps_values required")
    if len(n_values) != len(eps_values):
        raise sec.fail("eps_values", "n_values and eps_values lengths differ")
    d = sec.get_float("d")
    beta = sec.get_float("beta_tilde")
    if (d is None) != (beta is None):
        raise sec.fail("d", "d and beta_tilde must be given together")


# ---------------------------------------------------------------------------
# mini-spec parsers shared by scenario kinds


def _parse_radial_potential(sec: _Section) -> scattering.RadialPotential:
    spec = sec.raw("potential", "square_barrier")
    name, _, rest = spec.partition(":")
    height = sec.get_float("height", 10.0)
    radius = sec.get_float("radius", 1.0)
    if name == "square_barrier":
        return scattering.square_barrier(height, radius)
    if name == "smooth_bump":
        return scattering.smooth_bump(height, radius)
    if name == "zero":
        return scattering.zero_potential()
    if name == "file":
        try:
            table = np.loadtxt(rest, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise sec.fail("potential", f"cannot read {rest}: {exc}") from None
        if table.shape[1] != 2:
            raise sec.fail("potential", f"{rest}: expected two CSV columns "
                                        f"(r, w)")
        return scattering.tabulated_potential(table[:, 0], table[:, 1])
    raise sec.fail("potential", f"unknown potential {spec!r}")


def _parse_v_perp(spec: str, sec: _Section) -> Callable:
    name, _, rest = spec.partition(":")
    params = sec.numbers("potential", rest)
    if name == "harmonic":
        c = params[0] if params else 1.0
        return lambda y1, y2: c * (y1**2 + y2**2)
    if name == "shifted":
        c = params[0] if params else 0.0
        return lambda y1, y2: y1**2 + y2**2 + c
    if name == "well":
        if len(params) != 2:
            raise sec.fail("potential", f"well spec needs depth,radius: {spec!r}")
        depth, radius = params
        # smooth edge: a hard indicator rings under the spectral operator
        width = 0.25 * radius
        return lambda y1, y2: depth * 0.5 * (
            1.0 + np.tanh((np.sqrt(y1**2 + y2**2) - radius) / width))
    raise sec.fail("potential", f"unknown transverse potential {spec!r}")


def _parse_v_par(spec: str | None, length: float, sec: _Section) -> Callable | None:
    if spec in (None, "", "none"):
        return None
    name, _, rest = spec.partition(":")
    params = sec.numbers("v_par", rest)
    if name == "harmonic":
        c = params[0] if params else 1.0
        return lambda t, x: c * x**2
    if name == "cosine":
        amp = params[0] if params else 1.0
        mode = params[1] if len(params) > 1 else 1.0
        q = 2.0 * math.pi * mode / length
        return lambda t, x: amp * np.cos(q * x)
    raise sec.fail("v_par", f"unknown axial potential {spec!r}")


def _parse_initial(sec: _Section, grid: gpe1d.Grid1D) -> gpe1d.Field:
    spec = sec.raw("initial", "gaussian")
    name, _, rest = spec.partition(":")
    params = sec.numbers("initial", rest)
    if name == "gaussian":
        sigma = params[0] if params else 1.0
        x0 = params[1] if len(params) > 1 else 0.0
        k0 = params[2] if len(params) > 2 else 0.0
        return gpe1d.gaussian_packet(grid, sigma=sigma, x0=x0, k0=k0)
    if name == "plane":
        mode = int(params[0]) if params else 1
        return gpe1d.plane_wave(grid, mode)
    if name == "constant":
        values = np.full(grid.n, 1.0 / math.sqrt(grid.length), dtype=complex)
        return gpe1d.Field(grid, values, 0.0)
    raise sec.fail("initial", f"unknown initial state {spec!r}")


def _resolve_coupling(sec: _Section) -> float:
    b = sec.get_float("b")
    a = sec.get_float("a")
    quartic = sec.get_float("quartic")
    if b is not None:
        if a is not None:
            raise sec.fail("b", "give either b or the a, quartic pair")
        return b
    if a is not None:
        if quartic is None:
            raise sec.fail("quartic", "quartic required alongside a")
        if a < 0:
            raise sec.fail("a", "scattering length must be non-negative")
        return 8.0 * math.pi * a * quartic
    return 0.0


# ---------------------------------------------------------------------------
# admissibility


@dataclass(frozen=True, eq=False)
class AdmissibilityReport:
    delta: float
    n_values: tuple
    eps_values: tuple
    products: tuple          # N * eps^delta per pair
    strictly_decreasing: bool
    admissible: bool
    window: dict | None      # optional 5/6 < d < beta_tilde < 2/(2+delta)

    def as_dict(self) -> dict:
        return {"delta": self.delta, "n_values": list(self.n_values),
                "eps_values": list(self.eps_values),
                "products": list(self.products),
                "strictly_decreasing": self.strictly_decreasing,
                "admissible": self.admissible, "window": self.window}


def validate_admissibility(sequence, delta: float, d: float | None = None,
                           beta_tilde: float | None = None) -> AdmissibilityReport:
    """Report whether N eps^delta decreases toward zero along the sequence.

    ``sequence`` is an iterable of (N, eps) pairs, strictly increasing in N
    and decreasing in eps.  Optionally checks the interpolation window
    5/6 < d < beta_tilde < 2/(2 + delta) for user-chosen exponents.
    """
    pairs = [(float(n), float(e)) for n, e in sequence]
    if not pairs:
        raise ConfigError("admissibility sequence is empty")
    if not 0.0 < delta < 0.4:
        raise ConfigError(f"delta = {delta} outside the admissible window "
                          f"{DELTA_WINDOW}")
    ns = [p[0] for p in pairs]
    eps = [p[1] for p in pairs]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError("sequence must be strictly increasing in N")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ConfigError("sequence must be strictly decreasing in eps")
    products = tuple(n * e**delta for n, e in pairs)
    decreasing = all(b < a for a, b in zip(products, products[1:]))
    window = None
    if d is not None and beta_tilde is not None:
        upper = 2.0 / (2.0 + delta)
        window = {"d": d, "beta_tilde": beta_tilde, "upper": upper,
                  "ok": 5.0 / 6.0 < d < beta_tilde < upper,
                  "statement": f"5/6 < d < beta_tilde < {upper:.6f}"}
    return AdmissibilityReport(delta=delta, n_values=tuple(ns),
                               eps_values=tuple(eps), products=products,
                               strictly_decreasing=decreasing,
                               admissible=decreasing, window=window)


def _admissibility_from_config(cfg: ScenarioConfig) -> AdmissibilityReport:
    sec = cfg.section("admissibility")
    n_values = sec.get_floats("n_values")
    eps_values = sec.get_floats("eps_values")
    return validate_admissibility(list(zip(n_values, eps_values)),
                                  sec.get_float("delta"),
                                  d=sec.get_float("d"),
                                  beta_tilde=sec.get_float("beta_tilde"))


# ---------------------------------------------------------------------------
# assertions


_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq, "!=": operator.ne}


def _parse_threshold(sec: _Section, key: str, token: str) -> float:
    raw = token.lower()
    if raw in ("true", "yes"):
        return 1.0
    if raw in ("false", "no"):
        return 0.0
    try:
        threshold = float(token)
    except ValueError:
        raise sec.fail(key, f"threshold is not a number: {token!r}") from None
    if not math.isfinite(threshold):
        raise sec.fail(key, f"threshold is not a finite number: {token!r}")
    return threshold


def _parse_assertion(sec: _Section, key: str, value: str) -> tuple:
    parts = value.split()
    if len(parts) == 3 and parts[0] == "~":
        target = _parse_threshold(sec, key, parts[1])
        tol = _parse_threshold(sec, key, parts[2])
        if tol < 0:
            raise sec.fail(key, "approx tolerance must be non-negative")
        return "~", target, tol
    if len(parts) != 2 or parts[0] not in _OPS:
        raise sec.fail(key, f"assertion must read '<op> <threshold>' or "
                            f"'~ <target> <tol>' with op in {sorted(_OPS)}: "
                            f"got {value!r}")
    return parts[0], _parse_threshold(sec, key, parts[1]), None


def _evaluate_assertions(cfg: ScenarioConfig, metrics: dict) -> list:
    rows = []
    if cfg.has_section("assert"):
        sec = cfg.section("assert")
        for key, value in cfg.parser.items("assert"):
            op, threshold, tol = _parse_assertion(sec, key, value)
            row = {"metric": key, "op": op, "threshold": threshold}
            if tol is not None:
                row["tol"] = tol
            if key not in metrics:
                rows.append({**row, "value": None, "passed": False,
                             "note": "unknown metric"})
                continue
            actual = metrics[key]
            if math.isnan(actual):
                passed = False          # NaN fails every comparison, != too
            elif op == "~":
                passed = abs(actual - threshold) <= tol
            else:
                passed = bool(_OPS[op](actual, threshold))
            rows.append({**row, "value": actual, "passed": passed})
    return rows


# ---------------------------------------------------------------------------
# artifact helpers


def _write_csv(path: Path, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                # canonical shortest repr; independent of numpy scalar types
                cells.append(repr(float(cell)))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _versions() -> dict:
    from . import __version__
    return {"quasi1d": __version__, "numpy": np.__version__,
            "python": platform.python_version()}


def _to_jsonable(value):
    """Plain JSON values, recursively; non-finite floats become null."""
    if isinstance(value, dict):
        return {k: _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


# ---------------------------------------------------------------------------
# runners


def _barrier_closed_form(w: scattering.RadialPotential) -> float | None:
    if w.name != "square_barrier":
        return None
    if w.sup_bound == 0.0:
        return 0.0
    k = math.sqrt(0.5 * w.sup_bound)
    return w.radius - math.tanh(k * w.radius) / k


def _scatter_metrics(w: scattering.RadialPotential, mu: float,
                     beta: float | None, ode_tol: float,
                     bisect_tol: float) -> tuple:
    sol = scattering.solve_zero_energy(w, mu, tol=ode_tol)
    metrics = {"mu": mu, "a": sol.a, "a_mu": sol.a_mu,
               "identity_residual": sol.identity_residual,
               "ode_steps": float(sol.steps)}
    closed = _barrier_closed_form(w)
    if closed is not None:
        metrics["closed_form_err"] = abs(sol.a - closed)
    if beta is None:
        return sol, None, metrics
    corr = scattering.build_correction(sol, beta, bisect_tol=bisect_tol)
    neutral = scattering.neutrality_residual(corr)
    coupling = scattering.shell_coupling(corr)
    target = corr.kappa * 8.0 * math.pi * sol.a
    gdiag = scattering.g_norm_diagnostics(corr)
    r0 = corr.inner_radius
    upper = r0 / (r0 - mu * sol.a) if r0 > mu * sol.a else math.inf
    metrics.update({
        "beta_tilde": beta,
        "kappa": corr.kappa,
        "kappa_window_ok": 1.0 if 1.0 < corr.kappa < upper else 0.0,
        "outer_radius": corr.outer_radius,
        "r_over_mu_beta": corr.outer_radius / r0,
        "kappa_excess_ratio": (corr.kappa - 1.0) / mu ** (1.0 - beta),
        "kappa_upper": upper,
        "tangency_value_residual": corr.tangency_value_residual,
        "tangency_slope_residual": corr.tangency_slope_residual,
        "neutrality_rel": abs(neutral) / (8.0 * math.pi * sol.a_mu)
                          if sol.a_mu > 0 else abs(neutral),
        "coupling_rel_err": abs(coupling - target) / abs(target)
                            if target else 0.0,
        "g_l2_norm": gdiag.l2_norm,
        "g_l2_ratio": gdiag.l2_norm / mu ** (1.0 + beta / 2.0),
        "g_sup_ok": 1.0 if gdiag.sup_ok else 0.0,
    })
    return sol, corr, metrics


def _run_scatter(cfg: ScenarioConfig, out_dir: Path) -> tuple:
    sec = cfg.section("scatter")
    w = _parse_radial_potential(sec)
    ode_tol = sec.get_float("ode_tol", 1e-10)
    bisect_tol = sec.get_float("bisect_tol", 1e-12)
    beta = sec.get_float("beta_tilde")
    mu_list = sec.get_floats("mu_list")
    artifacts = []
    extra = {}

    if mu_list is not None:
        if beta is None:
            raise sec.fail("mu_list", "a mu sweep needs beta_tilde")
        per_mu = [_scatter_metrics(w, mu, beta, ode_tol, bisect_tol)[2]
                  for mu in mu_list]
        ratios = [m["r_over_mu_beta"] for m in per_mu]
        mean_ratio = sum(ratios) / len(ratios)
        metrics = {
            "sweep_size": float(len(per_mu)),
            "a": per_mu[0]["a"],
            "scaling_spread": max(m["a"] for m in per_mu)
                              - min(m["a"] for m in per_mu),
            "identity_residual_max": max(m["identity_residual"]
                                         for m in per_mu),
            "kappa_window_ok": min(m["kappa_window_ok"] for m in per_mu),
            "r_ratio_spread": (max(ratios) - min(ratios)) / mean_ratio,
            "kappa_excess_max": max(m["kappa_excess_ratio"] for m in per_mu),
            "tangency_value_max": max(m["tangency_value_residual"]
                                      for m in per_mu),
            "tangency_slope_max": max(m["tangency_slope_residual"]
                                      for m in per_mu),
            "neutrality_rel_max": max(m["neutrality_rel"] for m in per_mu),
            "coupling_rel_max": max(m["coupling_rel_err"] for m in per_mu),
            "g_l2_ratio_max": max(m["g_l2_ratio"] for m in per_mu),
            "g_sup_ok": min(m["g_sup_ok"] for m in per_mu),
        }
        if "closed_form_err" in per_mu[0]:
            metrics["closed_form_err"] = max(m["closed_form_err"]
                                             for m in per_mu)
        _write_csv(out_dir / "sweep.csv",
                   ["mu [length]", "kappa [1]", "outer_radius [length]",
                    "r_over_mu_beta [1]", "kappa_excess_ratio [1]",
                    "neutrality_rel [1]", "coupling_rel_err [1]",
                    "g_l2_ratio [1]"],
                   [(m["mu"], m["kappa"], m["outer_radius"],
                     m["r_over_mu_beta"], m["kappa_excess_ratio"],
                     m["neutrality_rel"], m["coupling_rel_err"],
                     m["g_l2_ratio"]) for m in per_mu])
        artifacts.append("sweep.csv")
        extra["per_mu"] = per_mu
        return metrics, extra, artifacts

    mu = _resolve_mu(sec)
    sol, corr, metrics = _scatter_metrics(w, mu, beta, ode_tol, bisect_tol)
    if corr is not None and sec.get_bool("radial_table", False):
        rr = np.linspace(0.0, 1.05 * corr.outer_radius, 513)
        f_vals = corr.f(rr)
        u_vals = corr.u_potential(rr)
        w_vals = w.scaled(rr, mu)
        _write_csv(out_dir / "radial_table.csv",
                   ["r [length]", "f [1]", "g [1]",
                    "w_mu [1/length^2]", "u [1/length^2]"],
                   [(float(r), float(fv), float(1.0 - fv), float(wv),
                     float(uv))
                    for r, fv, wv, uv in zip(rr, f_vals, w_vals, u_vals)])
        artifacts.append("radial_table.csv")
    return metrics, extra, artifacts


def _run_trap(cfg: ScenarioConfig, out_dir: Path) -> tuple:
    sec = cfg.section("trap")
    v_perp = _parse_v_perp(sec.raw("potential", "harmonic"), sec)
    mode = transverse.ground_state_2d(v_perp,
                                      extent=sec.get_float("extent", 16.0),
                                      n=sec.get_int("n", 128),
                                      tol=sec.get_float("tol", 1e-13))
    metrics = {"e0": mode.E0, "quartic": mode.quartic,
               "b_per_a": 8.0 * math.pi * mode.quartic}
    artifacts = []
    eps = sec.get_float("epsilon")
    if eps is not None:
        scaled = transverse.rescale_mode(mode, eps)
        metrics["e0_scaled"] = scaled.E0
        metrics["quartic_identity_err"] = abs(
            eps**2 * scaled.quartic - mode.quartic)
    if sec.get_bool("chi_slice", False):
        axis = mode.axis()
        mid = mode.n // 2
        _write_csv(out_dir / "chi_slice.csv",
                   ["y [length]", "chi [1/length]"],
                   [(float(y), float(c))
                    for y, c in zip(axis, mode.chi[:, mid])])
        artifacts.append("chi_slice.csv")
    return metrics, {}, artifacts


def _run_evolve1d(cfg: ScenarioConfig, out_dir: Path) -> tuple:
    sec = cfg.section("evolve1d")
    grid = gpe1d.Grid1D(sec.get_float("length", 16.0), sec.get_int("n", 256))
    phi0 = _parse_initial(sec, grid)
    v_par = _parse_v_par(sec.raw("v_par", "none"), grid.length, sec)
    b = _resolve_coupling(sec)
    stride = sec.get_int("sample_stride", 0)
    traj = gpe1d.evolve_1d(phi0, sec.get_float("t_final"), sec.get_float("dt"),
                           v_par=v_par, b=b, sample_stride=stride)
    steps = float(len(traj.times) - 1)
    metrics = {"b": b, "steps": steps,
               "final_time": traj.times[-1],
               "norm_drift": traj.max_norm_drift(),
               "norm_drift_per_step": traj.max_norm_drift() / max(steps, 1.0),
               "energy_drift": traj.max_energy_drift()}
    initial_spec = sec.raw("initial", "gaussian")
    if initial_spec.startswith("plane") and v_par is None:
        params = sec.numbers("initial", initial_spec.partition(":")[2])
        mode_idx = int(params[0]) if params else 1
        k0 = 2.0 * math.pi * mode_idx / grid.length
        omega = k0**2 + b / grid.length
        exact = phi0.values * np.exp(-1j * omega * traj.times[-1])
        metrics["plane_phase_err"] = float(
            np.max(np.abs(traj.final.values - exact)))
    if sec.get_bool("convergence", False):
        # global error halves twice per dt halving for the symmetric split
        dt0 = sec.get_float("dt")
        t_final = sec.get_float("t_final")
        finals = [gpe1d.evolve_1d(phi0, t_final, dt0 / den,
                                  v_par=v_par, b=b).final.values
                  for den in (1.0, 2.0, 16.0)]
        scale = math.sqrt(grid.dx)
        err_coarse = float(np.linalg.norm(finals[0] - finals[2])) * scale
        err_fine = float(np.linalg.norm(finals[1] - finals[2])) * scale
        metrics["halving_ratio"] = err_coarse / err_fine if err_fine else 0.0
    rows = [(t, n, e) for t, n, e in zip(traj.times, traj.norms,
                                         traj.energies)]
    _write_csv(out_dir / "timeseries.csv",
               ["t [time]", "norm [1]", "energy [energy]"], rows)
    artifacts = ["timeseries.csv"]
    if sec.get_bool("snapshots", False):
        for idx, sample in enumerate(traj.samples):
            name = f"snap_{idx:05d}.bin"
            snapshots.write_snapshot(out_dir / name, sample.values,
                                     (grid.dx,), sample.time)
            artifacts.append(name)
    return metrics, {}, artifacts


def _run_reduce3d(cfg: ScenarioConfig, out_dir: Path) -> tuple:
    sec = cfg.section("reduce3d")
    eps_list = sec.get_floats("eps_list")
    length_x = sec.get_float("length_x", 16.0)
    scenario = confined3d.ReductionScenario(
        a=sec.get_float("a", 0.0),
        v_perp=transverse.harmonic_profile,
        v_par_1d=_parse_v_par(sec.raw("v_par", "none"), length_x, sec),
        t_final=sec.get_float("t_final"),
        dt_ref=sec.get_float("dt_ref"),
        eps_ref=sec.get_float("eps_ref", eps_list[0]),
        length_x=length_x,
        n_x=sec.get_int("n_x", 128),
        base_extent_y=sec.get_float("base_extent_y", 13.0),
        n_y=sec.get_int("n_y", 48),
        mode_n=sec.get_int("mode_n", 96),
        phi0_sigma=sec.get_float("phi0_sigma", 1.0),
        phi0_k0=sec.get_float("phi0_k0", 0.0))
    table = confined3d.reduction_sweep(scenario, eps_list)
    rows = [(row.epsilon, row.err_l2, row.orthogonal_mass, row.energy_drift,
             row.steps) for row in table.rows]
    _write_csv(out_dir / "reduction.csv",
               ["epsilon [1]", "err_l2 [1]", "orthogonal_mass [1]",
                "energy_drift [energy]", "steps [1]"], rows)
    ratios = table.err_ratios()
    metrics = {"monotone_err": 1.0 if table.monotone_err else 0.0,
               "monotone_orth": 1.0 if table.monotone_orth else 0.0,
               "err_first": table.rows[0].err_l2,
               "err_last": table.rows[-1].err_l2,
               "orth_last": table.rows[-1].orthogonal_mass,
               "max_err_ratio": max(ratios) if ratios else 0.0,
               "max_energy_drift": max(r.energy_drift for r in table.rows)}
    detail = {"energy_stride": confined3d.ENERGY_STRIDE,
              "rows": [dataclasses.asdict(row) for row in table.rows]}
    return metrics, detail, ["reduction.csv"]


def _run_count(cfg: ScenarioConfig, out_dir: Path) -> tuple:
    sec = cfg.section("count")
    n = sec.get_int("n_particles")
    xi = sec.get_float("xi")
    samples = sec.get_int("samples", 100)
    table = manybody.WeightTable.build(n, xi)

    grid_kind = sec.raw("grid", "line")
    v_par = None
    mode = None
    if grid_kind == "line":
        grid = gpe1d.Grid1D(sec.get_float("length", 2.0 * math.pi),
                            sec.get_int("dim", 32))
        v_par = _parse_v_par(sec.raw("v_par", "none"), grid.length, sec)
        pair, pair_mu = _parse_pair(sec)
        b_eff = sec.get_float("b", 0.0)
        ham = manybody.line_hamiltonian(grid, v_par, pair, b_eff,
                                        pair_range=pair_mu)
    else:
        grid = gpe1d.Grid1D(sec.get_float("length", 2.0 * math.pi),
                            sec.get_int("dim", 16))
        eps = sec.get_float("epsilon", 0.5)
        base = transverse.ground_state_2d(
            transverse.harmonic_profile,
            extent=sec.get_float("extent", 12.0),
            n=sec.get_int("n_y", 12), boundary_tol=1e-3)
        mode = transverse.rescale_mode(base, eps)
        pair, pair_mu = _parse_pair(sec)
        b_eff = sec.get_float("b", 0.0)
        ham = manybody.confined_hamiltonian(grid, mode,
                                            transverse.harmonic_profile,
                                            v_par, pair, b_eff,
                                            pair_range=pair_mu)
    phi = gpe1d.ground_state_1d(grid, v_par=v_par, b=ham.b_effective) \
        if (v_par is not None or ham.b_effective) else gpe1d.Field(
            grid, np.full(grid.n, 1.0 / math.sqrt(grid.length),
                          dtype=complex), 0.0)
    orbital = manybody.orbital_from_fields(phi, mode)
    e_phi = gpe1d.energy_1d(phi, v_par, ham.b_effective)

    rng = np.random.default_rng(cfg.seed)
    rows = []
    completeness_max = 0.0
    orthogonality_max = 0.0
    all_pass = True
    slack = 1e-9
    for idx in range(samples):
        psi = manybody.random_symmetric_state(n, ham.dim, rng)
        comps = manybody.projector_components(psi, orbital)
        resid = psi.tensor - sum(comps)
        completeness_max = max(completeness_max,
                               float(np.linalg.norm(resid.ravel())))
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                orthogonality_max = max(orthogonality_max,
                                        abs(complex(np.vdot(comps[i],
                                                            comps[j]))))
        counting = float(sum(table.m[k] * np.vdot(comps[k], comps[k]).real
                             for k in range(n + 1)))
        gap = abs(manybody.energy_per_particle(psi, ham) - e_phi)
        alpha = counting + gap
        gamma = manybody.rdm(psi, 1)
        dist = manybody.trace_norm_vs_pure(gamma, orbital)
        rhs_fwd = math.sqrt(8.0 * alpha)
        rhs_rev = gap + math.sqrt(dist) + 0.5 * n ** (-xi)
        ok = dist <= rhs_fwd + slack and alpha <= rhs_rev + slack
        all_pass = all_pass and ok
        rows.append((idx, alpha, dist, dist, rhs_fwd, alpha, rhs_rev,
                     int(ok)))
    _write_csv(out_dir / "samples.csv",
               ["sample [1]", "alpha [1]", "trace_dist [1]",
                "bound_lhs [1]", "bound_rhs [1]",
                "reverse_lhs [1]", "reverse_rhs [1]", "passed [bool]"], rows)

    product = manybody.product_state_mb(orbital, n)
    product_alpha = manybody.expectation_weighted(product, table.m, orbital)
    metrics = {"samples": float(samples),
               "all_pass": 1.0 if all_pass else 0.0,
               "completeness_max": completeness_max,
               "orthogonality_max": orthogonality_max,
               "product_alpha_err": abs(product_alpha - 0.5 * n ** (-xi)),
               "weight_bounds_ok": 1.0 if _weight_bounds_hold() else 0.0}

    quad = _quad_form_check(sec, cfg.seed)
    if quad is not None:
        metrics["quad_form_min"] = quad
    return metrics, {}, ["samples.csv"]


def _parse_pair(sec: _Section) -> tuple:
    height = sec.get_float("pair_height")
    pair_mu = sec.get_float("pair_mu")
    if height is None or pair_mu is None:
        return None, None
    w = scattering.smooth_bump(height)
    return (lambda dist: w.scaled(dist, pair_mu)), pair_mu


def _weight_bounds_hold() -> bool:
    for big_n in (10, 100, 1000):
        for xi in (0.05, 0.1, 0.2):
            report = manybody.WeightTable.build(big_n, xi).bounds_report()
            if not (report["first_ok"] and report["second_ok"]):
                return False
    return True


def _quad_form_check(sec: _Section, seed: int) -> float | None:
    """Smallest sampled value of the compensated pair quadratic form."""
    height = sec.get_float("quad_height")
    if height is None:
        return None
    mu = sec.get_float("quad_mu", 0.64)
    beta = sec.get_float("quad_beta_tilde", 0.9)
    length = sec.get_float("quad_length", 1.8)
    n_side = sec.get_int("quad_n", 12)
    n_samples = sec.get_int("quad_samples", 10)
    w = scattering.smooth_bump(height)
    sol = scattering.solve_zero_energy(w, mu)
    corr = scattering.build_correction(sol, beta)
    ham = manybody.box_hamiltonian(length, n_side,
                                   pair_potential=lambda d: w.scaled(d, mu),
                                   pair_range=mu)
    rng = np.random.default_rng(seed + 1)
    worst = math.inf
    for _ in range(n_samples):
        # no name holds the state, so the last one is freed before the next
        # dim^2 tensor is drawn
        worst = min(worst, manybody.pair_indicator_form(
            manybody.random_symmetric_state(2, ham.dim, rng), ham, corr))
    flat = manybody.product_state_mb(np.ones(ham.dim), 2)
    return min(worst, manybody.pair_indicator_form(flat, ham, corr))


_RUNNERS = {"scatter": _run_scatter, "trap": _run_trap,
            "evolve1d": _run_evolve1d, "reduce3d": _run_reduce3d,
            "count": _run_count}


# ---------------------------------------------------------------------------
# orchestration


@dataclass(eq=False)
class ScenarioResult:
    ok: bool
    metrics: dict
    assertions: list
    out_dir: Path
    summary_path: Path
    admissibility: AdmissibilityReport | None = None


def run_scenario(cfg: ScenarioConfig, root: str | Path | None = None) -> ScenarioResult:
    """Execute one validated config and write its artifact set."""
    validate_config(cfg)
    out_dir = output_root(str(root) if root is not None else None) / cfg.name
    out_dir.mkdir(parents=True, exist_ok=True)

    metrics, extra, artifacts = _RUNNERS[cfg.kind](cfg, out_dir)

    admissibility = None
    if cfg.has_section("admissibility"):
        admissibility = _admissibility_from_config(cfg)
        metrics["admissible"] = 1.0 if admissibility.admissible else 0.0
        if admissibility.window is not None:
            metrics["window_ok"] = 1.0 if admissibility.window["ok"] else 0.0

    assertion_rows = _evaluate_assertions(cfg, metrics)
    ok = all(row["passed"] for row in assertion_rows)

    summary = {
        "scenario": cfg.kind,
        "name": cfg.name,
        "metrics": metrics,
        "artifacts": artifacts,
        "assertions": assertion_rows,
        "all_assertions_passed": ok,
        "reproducibility": {"config_sha256": cfg.sha256, "seed": cfg.seed,
                            "versions": _versions()},
    }
    if extra:
        summary["detail"] = extra
    if admissibility is not None:
        summary["admissibility"] = admissibility.as_dict()
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(_to_jsonable(summary), indent=2,
                                       sort_keys=True, allow_nan=False) + "\n",
                            encoding="utf-8")
    return ScenarioResult(ok=ok, metrics=metrics, assertions=assertion_rows,
                          out_dir=out_dir, summary_path=summary_path,
                          admissibility=admissibility)
