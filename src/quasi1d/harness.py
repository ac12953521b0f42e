"""Scenario orchestration: INI configs in, JSON/CSV/snapshot artifacts out.

A scenario file is flat key-value INI with one section per concern:

    [scenario]      kind (scatter|trap|evolve1d|reduce3d|count), name, seed
    [<kind>]        the physical and numerical parameters of that kind
    [admissibility] optional (N, eps) sequence report
    [assert]        optional postconditions, `metric = <op> <threshold>`

Loading parses every section once into frozen typed specs, all a run reads,
so every key is checked before any artifact is written.  A section's keys
are its spec's fields, and other keys and sections are errors; [assert] keys
are free metric names.  Diagnostics cite the file's own line, even under
--set; a key that only --set supplies is cited as `<file>:--set`.

Every run writes a summary.json carrying the metrics, the assertion verdicts
and a reproducibility block (config hash, seed, library versions), plus CSV
tables with unit-annotated headers.  Identical config and seed give byte
identical outputs; nothing time- or host-dependent is emitted.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
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
from .errors import ConfigError, DomainError, GridTooSmallError, ResolutionError

SCENARIO_KINDS = ("scatter", "trap", "evolve1d", "reduce3d", "count")

XI_WINDOW = "(0, 1/2)"
BETA_WINDOW = "(1/3, 1)"
DELTA_WINDOW = "(0, 2/5)"

__all__ = ["ScenarioConfig", "ScenarioResult", "AdmissibilityReport",
           "load_config", "validate_config", "run_scenario",
           "output_root", "SCENARIO_KINDS"]


# ---------------------------------------------------------------------------
# config loading


def output_root(override: str | None = None) -> Path:
    """Artifact root: explicit argument, then QUASI1D_OUTPUT_ROOT, then cwd."""
    if override:
        return Path(override)
    return Path(os.environ.get("QUASI1D_OUTPUT_ROOT", "quasi1d_out"))


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """A scenario parsed at load: everything a run reads, already typed."""

    kind: str
    name: str
    seed: int
    path: str
    sha256: str                   # of the effective config, canonically written
    spec: object                  # ScatterSpec, TrapSpec, ... by kind
    admissibility: AdmissibilityReport | None
    assertions: tuple             # (metric, op, threshold, tol) per row


@dataclass(eq=False)
class _Section:
    """Typed accessors over one INI section with file:line diagnostics."""

    parser: configparser.ConfigParser
    path: str
    source: str | None            # the file's own text; None without a file
    name: str

    def fail(self, key: str, why: str) -> ConfigError:
        """Error citing the key's file line, or --set for an override's key."""
        at = self.path
        if self.source is not None:
            line = _locate_key(self.source, self.name, key)
            if line:
                at += f":{line}"
            elif self.parser.has_option(self.name, key):
                at += ":--set"
        return ConfigError(f"{at} [{self.name}] {key}: {why}")

    def read(self, spec: type, omit: tuple = ()) -> dict:
        """Each field of the dataclass `spec` from the key of its name; no
        other key may appear.  Absent or empty keys read as the field default
        (or None); float, int, bool and tuple[float, ...] fields are typed."""
        if not self.parser.has_section(self.name):
            raise ConfigError(f"{self.path}: missing [{self.name}] section")
        fields = [f for f in dataclasses.fields(spec) if f.name not in omit]
        known = {f.name for f in fields}
        for key in self.parser.options(self.name):
            if key not in known:
                raise self.fail(key, "unknown key; expected one of "
                                     + ", ".join(sorted(known)))
        convert = {"float": self._float, "int": self._int, "bool": self._bool,
                   "tuple[float, ...]": self.numbers}
        values = {}
        for f in fields:
            text = self.parser.get(self.name, f.name, fallback="").strip()
            kind = f.type.removesuffix(" | None")
            if not text:
                values[f.name] = (None if f.default is dataclasses.MISSING
                                  else f.default)
            elif kind in convert:
                values[f.name] = convert[kind](f.name, text)
            else:
                values[f.name] = text
        return values

    def _float(self, key: str, text: str) -> float:
        try:
            number = float(text)
        except ValueError:
            raise self.fail(key, f"not a number: {text!r}") from None
        if not math.isfinite(number):
            raise self.fail(key, f"not a finite number: {text!r}")
        return number

    def _int(self, key: str, text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise self.fail(key, f"not an integer: {text!r}") from None

    def _bool(self, key: str, text: str) -> bool:
        if text.lower() not in self.parser.BOOLEAN_STATES:
            raise self.fail(key, f"not a boolean: {text!r}")
        return self.parser.BOOLEAN_STATES[text.lower()]

    def numbers(self, key: str, text: str) -> tuple[float, ...]:
        """Finite numbers separated by commas or blanks, read from `text`."""
        try:
            numbers = tuple(float(p) for p in text.replace(",", " ").split())
        except ValueError:
            raise self.fail(key, f"not a number list: {text!r}") from None
        if not all(math.isfinite(number) for number in numbers):
            raise self.fail(key, f"not a finite number list: {text!r}")
        return numbers

    def mini_spec(self, key: str, text: str, what: str,
                  table: dict[str, tuple]) -> tuple:
        """`name[:numbers]` with `name` a key of `table`, which lists the
        name's numbers as (label, default, rule) triples: at most that many
        numbers, the missing ones taken from their defaults (a default of
        None makes the number required), each passing its rule, a (test,
        what the number must be) pair, or None for any finite number."""
        name, _, rest = text.partition(":")
        if name not in table:
            raise self.fail(key, f"unknown {what} {text!r}")
        numbers = self.numbers(key, rest)
        slots = table[name]
        if len(numbers) > len(slots):
            raise self.fail(key, f"too many numbers for {name} (at most "
                                 f"{len(slots)}): {text!r}")
        values = (*numbers, *(default for _, default, _ in slots[len(numbers):]))
        if None in values:
            labels = ",".join(label for label, _, _ in slots)
            raise self.fail(key, f"{name} needs {labels}: {text!r}")
        for (label, _, rule), value in zip(slots, values):
            if rule and not rule[0](value):
                raise self.fail(key, f"{name} {label} must be {rule[1]}: "
                                     f"{text!r}")
        return (name, *values)


def _locate_key(text: str, section: str, key: str) -> int | None:
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
        elif current == section:
            option = configparser.ConfigParser.OPTCRE.match(stripped)
            if option and option.group("option").strip().lower() == key:
                return lineno
    return None


def _serialize_parser(parser: configparser.ConfigParser) -> str:
    """Canonical INI text, without comments or layout; the reproducibility
    hash is taken over this."""
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


def load_config(path: str | Path, overrides=None) -> ScenarioConfig:
    """Parse and statically validate a scenario file.

    ``overrides`` are 'section.key=value' strings layered on top of the file;
    the reproducibility hash covers the effective (post-override) config, so
    an override that restates a file value keeps it.
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
    return validate_config(parser, str(p), source=raw, name=p.stem)


def from_mapping(kind: str, values: dict, name: str = "adhoc") -> ScenarioConfig:
    """Build a config from {section: {key: value}} without a file (the CLI's
    runs from --set alone); `values` may override the kind and name."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict({"scenario": {"kind": kind, "name": name}})
    parser.read_dict(values)
    return validate_config(parser, "<flags>", name=name)


@dataclass(init=False, repr=False, eq=False)
class _Header:
    """The keys of [scenario]; only the fields are read, nothing is built."""

    kind: str
    name: str | None = None       # default: validate_config's name
    seed: int = 0


def validate_config(parser: configparser.ConfigParser, path: str,
                    source: str | None = None,
                    name: str = "adhoc") -> ScenarioConfig:
    """Parse every section into its typed value; the only check a config gets.

    The reproducibility hash is taken over the parser's canonical text,
    ``source`` (the file's own text) gives diagnostics their lines and
    ``name`` is the default scenario name."""
    section = functools.partial(_Section, parser, path, source)
    scen = section("scenario")
    header = scen.read(_Header)
    kind = header["kind"]
    if kind not in SCENARIO_KINDS:
        raise scen.fail("kind", f"unknown kind {kind!r}; "
                                f"expected one of {', '.join(SCENARIO_KINDS)}")
    if header["seed"] < 0:      # numpy's generators take none
        raise scen.fail("seed", "seed must be a non-negative integer")
    for title in parser.sections():
        if title not in ("scenario", kind, "admissibility", "assert"):
            raise ConfigError(f"{path}: unknown section [{title}]")
    spec = {"scatter": _parse_scatter, "trap": _parse_trap,
            "evolve1d": _parse_evolve1d, "reduce3d": _parse_reduce3d,
            "count": _parse_count}[kind](section(kind))
    admissibility = (_parse_admissibility(section("admissibility"))
                     if parser.has_section("admissibility") else None)
    assertions = (_parse_assertions(section("assert"))
                  if parser.has_section("assert") else ())
    digest = hashlib.sha256(_serialize_parser(parser).encode("utf-8")).hexdigest()
    return ScenarioConfig(kind=kind, name=header["name"] or name,
                          seed=header["seed"], path=path, sha256=digest, spec=spec,
                          admissibility=admissibility, assertions=assertions)


# ---------------------------------------------------------------------------
# specs: one frozen dataclass per kind, whose fields are the section's keys


def _check_window(sec: _Section, key: str, value: float | None, lo: float,
                  hi: float, window: str) -> None:
    if value is not None and not lo < value < hi:
        raise sec.fail(key, f"{value} outside the admissible window {window}")


def _positive(sec: _Section, v: dict, *keys: str) -> None:
    for key in keys:
        if v[key] is None or v[key] <= 0:
            raise sec.fail(key, f"positive {key} required")


def _unused(sec: _Section, why: str, *keys: str) -> None:
    """A key the run would ignore, for the reason `why`, is an error."""
    for key in keys:
        if sec.parser.get(sec.name, key, fallback="").strip():
            raise sec.fail(key, f"ignored: {why}")


def _axes(sec: _Section, v: dict, n_key: str,
          *lengths: tuple[str, float]) -> list[gpe1d.Grid1D]:
    """The Grid1D axes of v[n_key] points a run builds, one per (key, length)
    pair.  A refusal is cited at `n_key` if it comes at unit spacing, on an
    axis of length n, else at the key that set or shrank that axis."""
    axes = []
    for key, length in ((n_key, v[n_key]), *lengths):
        try:
            axes.append(gpe1d.Grid1D(length, v[n_key]))
        except DomainError as exc:
            raise sec.fail(key, str(exc)) from None
    return axes[1:]


@dataclass(frozen=True, eq=False)
class ScatterSpec:
    """[scatter]; potential: square_barrier[:height,radius],
    smooth_bump[:height,radius], zero or file:<csv>."""

    potential: scattering.RadialPotential
    mu: tuple[float, ...]         # epsilon^2 / N of the paper, one or more
    beta_tilde: float | None = None


def _parse_scatter(sec: _Section) -> ScatterSpec:
    v = sec.read(ScatterSpec)
    if not v["mu"] or any(mu <= 0 for mu in v["mu"]):
        raise sec.fail("mu", "positive mu required")
    v["potential"] = _parse_radial_potential(sec, v["potential"]
                                             or "square_barrier")
    _check_window(sec, "beta_tilde", v["beta_tilde"], 1.0 / 3.0, 1.0,
                  BETA_WINDOW)
    return ScatterSpec(**v)


@dataclass(frozen=True, eq=False)
class TrapSpec:
    """[trap]; potential: harmonic[:c], shifted:c or well:depth,radius."""

    potential: Callable
    n: int = 128
    extent: float = 16.0
    epsilon: float | None = None


def _parse_trap(sec: _Section) -> TrapSpec:
    v = sec.read(TrapSpec)
    v["potential"] = _parse_v_perp(v["potential"] or "harmonic", sec)
    if v["n"] < 16:
        raise sec.fail("n", "the trap's plane needs n >= 16")
    scaled = () if v["epsilon"] is None else (("epsilon", v["extent"] * v["epsilon"]),)
    axis, *_ = _axes(sec, v, "n", ("extent", v["extent"]), *scaled)
    eps2 = 1.0 if v["epsilon"] is None else v["epsilon"] * v["epsilon"]
    if not np.finfo(float).tiny <= eps2 <= np.finfo(float).max:
        raise sec.fail("epsilon", f"eps^2 = {eps2:g} leaves the normal float range, "
                       f"in which E0 / eps^2 and the rescaled quartic are formed")
    plane = gpe1d.ProductGrid((axis, axis))
    _resolved_potential(sec, "potential", plane,
                        lambda: v["potential"](*plane.mesh()))
    return TrapSpec(**v)


@dataclass(frozen=True, eq=False)
class Evolve1dSpec:
    """[evolve1d]: the line's grid, initial state, coupling and steps."""

    t_final: float
    dt: float
    initial: tuple  # gaussian[:sigma,x0,k0] (default), plane[:mode], constant
    line: gpe1d.Grid1D            # Grid1D(length, n), built at load; no key
    length: float = 16.0
    n: int = 256
    b: float = 0.0                # 8 pi a int |chi|^4 of the paper
    v_par: Callable | None = None
    sample_stride: int = 0
    convergence: bool = False
    snapshots: bool = False


def _parse_evolve1d(sec: _Section) -> Evolve1dSpec:
    v = sec.read(Evolve1dSpec, omit=("line",))
    _positive(sec, v, "t_final", "dt")
    if v["snapshots"] and v["sample_stride"] < 1:
        raise sec.fail("snapshots", "snapshots need sample_stride >= 1")
    if not v["snapshots"]:
        _unused(sec, "samples are read only to write snapshots",
                "sample_stride")
    v["v_par"] = _parse_v_par(v["v_par"], v["length"], sec)
    line, = _axes(sec, v, "n", ("length", v["length"]))
    v["initial"] = _parse_initial(sec, v["initial"] or "gaussian", v["n"],
                                  v["length"])
    return Evolve1dSpec(line=line, **v)


def _parse_reduce3d(sec: _Section) -> confined3d.ReductionScenario:
    """A reduction scenario with the harmonic v_perp, which has no key."""
    v = sec.read(confined3d.ReductionScenario, omit=("v_perp",))
    eps_list = v["eps_list"]
    if not eps_list:
        raise sec.fail("eps_list", "at least one epsilon required")
    if any(b <= a for a, b in zip(eps_list[1:], eps_list[:-1])):
        raise sec.fail("eps_list", "epsilons must be strictly decreasing")
    if v["a"] < 0:
        raise sec.fail("a", "scattering length must be non-negative")
    _positive(sec, v, "t_final", "dt_ref", "phi0_sigma")
    v["v_par"] = _parse_v_par(v["v_par"], v["length_x"], sec)
    _axes(sec, v, "n_x", ("length_x", v["length_x"]))
    # the trap's plane, solved once, and each epsilon's rescaled plane and box
    _axes(sec, v, "n_y", ("base_extent_y", v["base_extent_y"]),
          *[("eps_list", v["base_extent_y"] * eps) for eps in eps_list])
    for eps in eps_list:
        try:
            confined3d.make_grid(v["length_x"], v["n_x"], v["base_extent_y"],
                                 v["n_y"], eps)
        except GridTooSmallError as exc:
            raise sec.fail("base_extent_y", f"{exc}, so base_extent_y must be "
                                            f"at most n_y / 2 = {v['n_y'] / 2:g}") from None
    return confined3d.ReductionScenario(v_perp=transverse.harmonic_profile, **v)


# The largest counting state the loader admits, in bytes: d^N complex
# entries of 16 bytes, with d = dim on the line and dim * n_y^2 confined.
# The largest shipped state, counting_confined.ini's 2304^2 entries, takes
# 85 MB.  2^28 bytes (268 MB) is N = 3 on the shipped 256-point counting
# line, and 3.2 times that state as headroom.
_MAX_STATE_BYTES = 2**28


@dataclass(frozen=True, eq=False)
class CountSpec:
    """[count]: the counting run and its one-particle grid.  quad_height,
    when given, switches on the pair-form check and sets the bump's
    strength; the check's other settings are the _QUAD_* constants."""

    n_particles: int
    xi: float
    line: gpe1d.Grid1D            # Grid1D(length, dim), built at load; no key
    samples: int = 100
    grid: str = "line"            # line or confined
    length: float = 2.0 * math.pi
    dim: int | None = None        # 32 on the line, 16 confined
    n_y: int = 12                 # confined only, as extent and epsilon
    extent: float = 12.0
    epsilon: float = 0.5
    b: float = 0.0
    v_par: Callable | None = None     # line only
    pair_height: float | None = None
    pair_mu: float | None = None
    quad_height: float | None = None  # given: sample the pair quadratic form


def _parse_count(sec: _Section) -> CountSpec:
    v = sec.read(CountSpec, omit=("line",))
    if not 2 <= (v["n_particles"] or 0) <= manybody.MAX_PARTICLES:
        raise sec.fail("n_particles",
                       f"n_particles must be 2..{manybody.MAX_PARTICLES}")
    if v["xi"] is None:
        raise sec.fail("xi", "xi required")
    _check_window(sec, "xi", v["xi"], 0.0, 0.5, XI_WINDOW)
    if v["samples"] < 1:
        raise sec.fail("samples", "at least one sample required")
    if v["grid"] not in ("line", "confined"):
        raise sec.fail("grid", f"unknown grid kind {v['grid']!r}")
    if v["grid"] == "line":
        _unused(sec, "the transverse grid applies on grid = confined only",
                "n_y", "extent", "epsilon")
    if v["dim"] is None:
        v["dim"] = 32 if v["grid"] == "line" else 16
    line, = _axes(sec, v, "dim", ("length", v["length"]))
    axes = [line]       # the one-particle grid's: the line, the rescaled plane's
    if v["grid"] == "confined":     # the trap's plane, then its rescaled one
        axes.append(_axes(sec, v, "n_y", ("extent", v["extent"]),
                          ("epsilon", v["extent"] * v["epsilon"]))[1])
    d = v["dim"] * (v["n_y"] ** 2 if v["grid"] == "confined" else 1)
    state_bytes = 16 * d ** v["n_particles"]
    if state_bytes > _MAX_STATE_BYTES:
        key = "dim" if 16 * d**2 > _MAX_STATE_BYTES else "n_particles"
        raise sec.fail(key, f"a {v['n_particles']}-particle state on {d} sites "
                            f"takes {state_bytes / 1e6:,.0f} MB, above the "
                            f"{_MAX_STATE_BYTES / 1e6:.0f} MB a counting run "
                            f"may hold")
    if v["b"] < 0:      # a flat ground-state seed would be the flat saddle
        raise sec.fail("b", "the condensate's coupling b must be non-negative")
    for key in ("pair_height", "quad_height"):
        if v[key] is not None and not _HEIGHT[0](v[key]):
            raise sec.fail(key, f"a bump height must be {_HEIGHT[1]}")
    if (v["pair_height"] is None) != (v["pair_mu"] is None):
        raise sec.fail("pair_mu" if v["pair_height"] is None else "pair_height",
                       "give both pair_height and pair_mu or neither")
    if v["pair_mu"] is not None:
        try:
            manybody.check_pair_range(v["pair_mu"], axes)
        except ResolutionError as exc:
            raise sec.fail("pair_mu", str(exc)) from None
    v["v_par"] = _parse_v_par(v["v_par"], v["length"], sec)
    if v["v_par"] is not None:
        if v["grid"] == "confined":
            raise sec.fail("v_par", "an axial potential applies on grid = line "
                                    "only")
        _resolved_potential(sec, "v_par", line, lambda: v["v_par"](0.0, line.x))
    return CountSpec(line=line, **v)


def _resolved_potential(sec: _Section, key: str,
                        grid: gpe1d.Grid1D | gpe1d.ProductGrid,
                        evaluate: Callable[[], np.ndarray]) -> None:
    """The potential under `key`, evaluated on the run's `grid`, must be
    finite and at most the grid's largest k^2 there (sum over the axes of
    (pi n / L)^2).  The ground state's LOBPCG preconditions by the kinetic
    part alone, so its step count grows with max|V| / max k^2; harmonic:1e4
    on the trap grid (1000 times the bound) and cosine:1e9,1 on the
    counting line (6e4 times) stall.  Below the bound, the line's ground
    state converges for every harmonic and every cosine whose mode divides
    the point count, at any b in [0, 200] (test_line_ground_state_property).
    A deep cosine whose mode does not divide the point count can still
    stall at b = 0: its wells sample the grid unequally, so no symmetry
    keeps the flat seed off their nearly degenerate lowest states."""
    with np.errstate(over="ignore", invalid="ignore"):
        peak = float(np.max(np.abs(evaluate())))
    bound = float(np.max(grid.k_squared()))
    if not peak <= bound:
        raise sec.fail(key, f"potential reaches |V| = {peak:g} on the grid, "
                            f"beyond its largest k^2 = {bound:g}; refine the "
                            f"grid or weaken the potential")


# ---------------------------------------------------------------------------
# mini-spec parsers shared by scenario kinds

# mini-spec rules: (test, what a number that fails it must be)
_POSITIVE = (lambda x: x > 0, "positive")
_INTEGER = (lambda x: x == int(x), "an integer")
# a repulsive bump's height, and the support radius scattering.py admits
_HEIGHT = (lambda x: x >= 0, "non-negative")
_RADIUS = (lambda x: 0 < x <= 1, "in (0, 1]")


def _within(lo: float, hi: float, integer: bool = False) -> tuple:
    """The rule lo <= x <= hi, for integers x only if `integer`."""
    return (lambda x: lo <= x <= hi and (not integer or x == int(x)),
            f"{'an integer' if integer else 'a number'} in [{lo:g}, {hi:g}]")


def _parse_radial_potential(sec: _Section,
                            spec: str) -> scattering.RadialPotential:
    name, _, rest = spec.partition(":")
    if name == "file":
        try:
            table = np.loadtxt(rest, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise sec.fail("potential", f"cannot read {rest}: {exc}") from None
        if table.shape[1] != 2:
            raise sec.fail("potential", f"{rest}: expected two CSV columns "
                                        f"(r, w)")
        try:
            return scattering.tabulated_potential(table[:, 0], table[:, 1])
        except DomainError as exc:
            raise sec.fail("potential", f"{rest}: {exc}") from None
    shape = (("height", 10.0, _HEIGHT), ("radius", 1.0, _RADIUS))
    name, *params = sec.mini_spec("potential", spec, "potential", {
        "square_barrier": shape, "smooth_bump": shape, "zero": ()})
    return {"square_barrier": scattering.square_barrier,
            "smooth_bump": scattering.smooth_bump,
            "zero": scattering.zero_potential}[name](*params)


def _parse_v_perp(spec: str, sec: _Section) -> Callable:
    name, *params = sec.mini_spec("potential", spec, "transverse potential", {
        "harmonic": (("strength", 1.0, _POSITIVE),),
        "shifted": (("shift", 0.0, None),),
        "well": (("depth", None, _POSITIVE), ("radius", None, _POSITIVE))})
    if name == "harmonic":
        c = params[0]
        return lambda y1, y2: c * (y1**2 + y2**2)
    if name == "shifted":
        c = params[0]
        return lambda y1, y2: y1**2 + y2**2 + c
    depth, radius = params
    # smooth edge: a hard indicator rings under the spectral operator
    width = 0.25 * radius
    return lambda y1, y2: depth * 0.5 * (
        1.0 + np.tanh((np.sqrt(y1**2 + y2**2) - radius) / width))


def _parse_v_par(spec: str | None, length: float, sec: _Section) -> Callable | None:
    if spec in (None, "", "none"):
        return None
    # a harmonic strength takes any sign: c < 0 is an inverted trap
    name, *params = sec.mini_spec("v_par", spec, "axial potential", {
        "harmonic": (("strength", 1.0, None),),
        "cosine": (("amplitude", 1.0, None), ("mode", 1.0, _INTEGER))})
    if name == "harmonic":
        c = params[0]
        return lambda t, x: c * x**2
    amp, mode = params
    q = 2.0 * math.pi * mode / length
    return lambda t, x: amp * np.cos(q * x)


def _parse_initial(sec: _Section, spec: str, n: int, length: float) -> tuple:
    """The initial state on the line of n points over `length`.  A Gaussian
    is no narrower than a cell nor wider than the box and centred inside
    it; a Gaussian's boost and a plane wave stay within the grid's Nyquist
    mode n/2, beyond which they alias."""
    nyquist = math.pi * n / length
    name, *params = sec.mini_spec("initial", spec, "initial state", {
        "gaussian": (("width", 1.0, _within(length / n, length)),
                     ("centre", 0.0, _within(-0.5 * length, 0.5 * length)),
                     ("boost", 0.0, _within(-nyquist, nyquist))),
        "plane": (("mode", 1, _within(-(n // 2), n // 2, integer=True)),),
        "constant": ()})
    if name == "plane":
        return name, int(params[0])
    return (name, *params)


# ---------------------------------------------------------------------------
# admissibility


@dataclass(frozen=True, eq=False)
class AdmissibilityReport:
    delta: float
    n_values: tuple
    eps_values: tuple
    products: tuple          # N * eps^delta per pair
    admissible: bool         # the products strictly decrease
    window: dict | None      # optional 5/6 < d < beta_tilde < 2/(2+delta)


@dataclass(init=False, repr=False, eq=False)
class _AdmissibilityKeys:
    """The keys of [admissibility], as _Header."""

    delta: float
    n_values: tuple[float, ...] = ()
    eps_values: tuple[float, ...] = ()
    d: float | None = None
    beta_tilde: float | None = None


def _parse_admissibility(sec: _Section) -> AdmissibilityReport:
    """Whether N eps^delta decreases along the (N, eps) sequence, and with
    d and beta_tilde whether 5/6 < d < beta_tilde < 2/(2 + delta); each
    malformed key is a ConfigError of its own, a failing verdict is not."""
    v = sec.read(_AdmissibilityKeys)
    delta, ns, eps = v["delta"], v["n_values"], v["eps_values"]
    if delta is None:
        raise sec.fail("delta", "delta required")
    _check_window(sec, "delta", delta, 0.0, 0.4, DELTA_WINDOW)
    if len(ns) != len(eps):
        raise sec.fail("eps_values", "n_values and eps_values lengths differ")
    if (v["d"] is None) != (v["beta_tilde"] is None):
        raise sec.fail("d", "d and beta_tilde must be given together")
    if not ns:
        raise sec.fail("n_values", "admissibility sequence is empty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise sec.fail("n_values", "sequence must be strictly increasing in N")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise sec.fail("eps_values", "sequence must be strictly decreasing in eps")
    products = tuple(n * e**delta for n, e in zip(ns, eps))
    decreasing = all(b < a for a, b in zip(products, products[1:]))
    window = None
    if v["d"] is not None:
        upper = 2.0 / (2.0 + delta)
        window = {"d": v["d"], "beta_tilde": v["beta_tilde"], "upper": upper,
                  "ok": 5.0 / 6.0 < v["d"] < v["beta_tilde"] < upper,
                  "statement": f"5/6 < d < beta_tilde < {upper:.6f}"}
    return AdmissibilityReport(delta=delta, n_values=ns, eps_values=eps,
                               products=products, admissible=decreasing,
                               window=window)


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


def _parse_assertions(sec: _Section) -> tuple:
    """(metric, op, threshold, tol) per key; the keys are free metric names."""
    rows = []
    for key, value in sec.parser.items(sec.name):
        parts = value.split()
        if len(parts) == 3 and parts[0] == "~":
            target, tol = (_parse_threshold(sec, key, p) for p in parts[1:])
            if tol < 0:
                raise sec.fail(key, "approx tolerance must be non-negative")
            rows.append((key, "~", target, tol))
        elif len(parts) == 2 and parts[0] in _OPS:
            rows.append((key, parts[0], _parse_threshold(sec, key, parts[1]),
                         None))
        else:
            raise sec.fail(key, f"assertion must read '<op> <threshold>' or "
                                f"'~ <target> <tol>' with op in {sorted(_OPS)}: "
                                f"got {value!r}")
    return tuple(rows)


def _evaluate_assertions(assertions: tuple, metrics: dict) -> list:
    rows = []
    for key, op, threshold, tol in assertions:
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


def _scatter_metrics(spec: ScatterSpec, mu: float) -> tuple:
    w, beta = spec.potential, spec.beta_tilde
    sol = scattering.solve_zero_energy(w, mu)
    metrics = {"mu": mu, "a": sol.a, "a_mu": sol.a_mu,
               "identity_residual": sol.identity_residual,
               "ode_steps": float(sol.steps)}
    closed = _barrier_closed_form(w)
    if closed is not None:
        metrics["closed_form_err"] = abs(sol.a - closed)
    if beta is None:
        return None, metrics
    corr = scattering.build_correction(sol, beta)
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
    return corr, metrics


def _run_scatter(cfg: ScenarioConfig, out_dir: Path) -> tuple:
    """Per-mu metrics under detail.per_mu and their aggregates; a spread
    over one mu compares nothing, so it is NaN and fails any assertion."""
    spec = cfg.spec
    runs = [_scatter_metrics(spec, mu) for mu in spec.mu]
    per_mu = [m for _, m in runs]

    def spread(values):
        return max(values) - min(values) if len(values) > 1 else math.nan

    metrics = {"sweep_size": float(len(per_mu)),
               "a": per_mu[0]["a"],
               "scaling_spread": spread([m["a"] for m in per_mu]),
               "identity_residual_max": max(m["identity_residual"]
                                            for m in per_mu)}
    if "closed_form_err" in per_mu[0]:
        metrics["closed_form_err"] = max(m["closed_form_err"] for m in per_mu)
    artifacts = []
    if spec.beta_tilde is not None:
        ratios = [m["r_over_mu_beta"] for m in per_mu]
        metrics.update({
            "kappa_window_ok": min(m["kappa_window_ok"] for m in per_mu),
            "r_ratio_spread": spread(ratios) / (sum(ratios) / len(ratios)),
            "kappa_excess_max": max(m["kappa_excess_ratio"] for m in per_mu),
            "tangency_value_max": max(m["tangency_value_residual"]
                                      for m in per_mu),
            "tangency_slope_max": max(m["tangency_slope_residual"]
                                      for m in per_mu),
            "neutrality_rel_max": max(m["neutrality_rel"] for m in per_mu),
            "coupling_rel_max": max(m["coupling_rel_err"] for m in per_mu),
            "g_l2_ratio_max": max(m["g_l2_ratio"] for m in per_mu),
            "g_sup_ok": min(m["g_sup_ok"] for m in per_mu),
        })
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
        if len(runs) == 1:
            corr = runs[0][0]
            rr = np.linspace(0.0, 1.05 * corr.outer_radius, 513)
            f_vals = corr.f(rr)
            u_vals = corr.u_potential(rr)
            w_vals = spec.potential.scaled(rr, spec.mu[0])
            _write_csv(out_dir / "radial_table.csv",
                       ["r [length]", "f [1]", "g [1]",
                        "w_mu [1/length^2]", "u [1/length^2]"],
                       [(float(r), float(fv), float(1.0 - fv), float(wv),
                         float(uv))
                        for r, fv, wv, uv in zip(rr, f_vals, w_vals, u_vals)])
            artifacts.append("radial_table.csv")
    return metrics, {"per_mu": per_mu}, artifacts


def _run_trap(cfg: ScenarioConfig, out_dir: Path) -> tuple:
    spec = cfg.spec
    mode = transverse.ground_state_2d(spec.potential, extent=spec.extent,
                                      n=spec.n)
    metrics = {"e0": mode.E0, "quartic": mode.quartic,
               "b_per_a": 8.0 * math.pi * mode.quartic}
    if spec.epsilon is not None:
        scaled = transverse.rescale_mode(mode, spec.epsilon)
        metrics["e0_scaled"] = scaled.E0
        metrics["quartic_identity_err"] = abs(
            spec.epsilon**2 * scaled.quartic - mode.quartic)
    mid = mode.y.n // 2
    _write_csv(out_dir / "chi_slice.csv", ["y [length]", "chi [1/length]"],
               [(float(y), float(c)) for y, c in zip(mode.y.x,
                                                     mode.chi[:, mid])])
    return metrics, {}, ["chi_slice.csv"]


def _run_evolve1d(cfg: ScenarioConfig, out_dir: Path) -> tuple:
    spec = cfg.spec
    grid = spec.line
    name, *params = spec.initial
    phi0 = {"gaussian": gpe1d.gaussian_packet, "plane": gpe1d.plane_wave,
            "constant": lambda grid: gpe1d.plane_wave(grid, 0)}[name](grid, *params)
    traj = gpe1d.evolve_1d(phi0, spec.t_final, spec.dt, v_par=spec.v_par,
                           b=spec.b, sample_stride=spec.sample_stride)
    steps = float(len(traj.times) - 1)
    metrics = {"b": spec.b, "steps": steps,
               "final_time": traj.times[-1],
               "norm_drift": traj.max_norm_drift(),
               "norm_drift_per_step": traj.max_norm_drift() / max(steps, 1.0),
               "energy_drift": traj.max_energy_drift()}
    if name == "plane" and spec.v_par is None:
        k0 = 2.0 * math.pi * params[0] / grid.length
        omega = k0**2 + spec.b / grid.length
        exact = phi0.values * np.exp(-1j * omega * traj.times[-1])
        metrics["plane_phase_err"] = float(
            np.max(np.abs(traj.final.values - exact)))
    if spec.convergence:
        # global error halves twice per dt halving for the symmetric split;
        # the dt run is traj, and of the dt/2 and dt/16 runs only the final
        # field is read, so they record no energy between their ends
        finals = [traj.final.values] + [
            gpe1d._strang_loop(phi0, spec.t_final, spec.dt / den, 0.0, spec.v_par,
                               spec.b, int(den * (steps + 1))).final.values
            for den in (2.0, 16.0)]
        scale = math.sqrt(grid.dx)
        err_coarse = float(np.linalg.norm(finals[0] - finals[2])) * scale
        err_fine = float(np.linalg.norm(finals[1] - finals[2])) * scale
        # with no error at dt/2 the ratio measures nothing: NaN, which
        # fails any assertion
        metrics["halving_ratio"] = err_coarse / err_fine if err_fine else math.nan
    rows = [(t, n, e) for t, n, e in zip(traj.times, traj.norms,
                                         traj.energies)]
    _write_csv(out_dir / "timeseries.csv",
               ["t [time]", "norm [1]", "energy [energy]"], rows)
    artifacts = ["timeseries.csv"]
    if spec.snapshots:
        for idx, sample in enumerate(traj.samples):
            name = f"snap_{idx:05d}.bin"
            snapshots.write_snapshot(out_dir / name, sample.values,
                                     (grid.dx,), sample.time)
            artifacts.append(name)
    return metrics, {}, artifacts


def _run_reduce3d(cfg: ScenarioConfig, out_dir: Path) -> tuple:
    table = confined3d.reduction_sweep(cfg.spec)
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
               "max_err_ratio": max(ratios, default=math.nan),
               "max_energy_drift": max(r.energy_drift for r in table.rows)}
    if not ratios:      # one eps compares nothing: null, and fails any assertion
        metrics["monotone_err"] = metrics["monotone_orth"] = math.nan
    detail = {"energy_stride": confined3d.ENERGY_STRIDE,
              "rows": [dataclasses.asdict(row) for row in table.rows]}
    return metrics, detail, ["reduction.csv"]


def _run_count(cfg: ScenarioConfig, out_dir: Path) -> tuple:
    spec = cfg.spec
    n, xi, samples = spec.n_particles, spec.xi, spec.samples
    table = manybody.WeightTable.build(n, xi)

    grid = spec.line
    pair = pair_mu = None
    if spec.pair_height is not None:        # pair_mu is given with it
        w, pair_mu = scattering.smooth_bump(spec.pair_height), spec.pair_mu
        pair = lambda dist: w.scaled(dist, pair_mu)  # noqa: E731
    mode = None
    v_par = spec.v_par
    if spec.grid == "line":
        ham = manybody.line_hamiltonian(grid, v_par, pair, pair_range=pair_mu)
    else:
        base = transverse.ground_state_2d(
            transverse.harmonic_profile, extent=spec.extent, n=spec.n_y,
            boundary_tol=1e-3)
        mode = transverse.rescale_mode(base, spec.epsilon)
        ham = manybody.confined_hamiltonian(grid, mode,
                                            transverse.harmonic_profile,
                                            v_par, pair, pair_range=pair_mu)
    phi = gpe1d.ground_state_1d(grid, v_par=v_par, b=spec.b)
    orbital = manybody.orbital_from_fields(phi, mode)
    e_phi = gpe1d.energy_1d(phi, v_par, spec.b)

    rng = np.random.default_rng(cfg.seed)
    rows = []
    completeness_max = 0.0
    orthogonality_max = 0.0
    all_pass = True
    draws = manybody.random_symmetric_states(n, ham.dim, rng, samples)
    for idx in range(samples):
        check = manybody.counting_sample(next(draws), orbital, table, ham,
                                         e_phi)
        completeness_max = max(completeness_max, check.completeness)
        orthogonality_max = max(orthogonality_max, check.orthogonality)
        all_pass = all_pass and check.passed
        rows.append((idx, check.alpha, check.trace_dist, check.bound_rhs,
                     check.reverse_rhs, int(check.passed)))
    _write_csv(out_dir / "samples.csv",
               ["sample [1]", "alpha [1]", "trace_dist [1]", "bound_rhs [1]",
                "reverse_rhs [1]", "passed [bool]"], rows)

    draws.close()       # frees the draw buffers before the product state
    with manybody._OneBlasThread():     # the BLAS sum order of the samples
        product = manybody.product_state_mb(orbital, n)
        product_alpha = manybody.expectation_weighted(product, table.m, orbital)
    metrics = {"samples": float(samples),
               "all_pass": 1.0 if all_pass else 0.0,
               "completeness_max": completeness_max,
               "orthogonality_max": orthogonality_max,
               "product_alpha_err": abs(product_alpha - 0.5 * n ** (-xi)),
               "weight_bounds_ok": 1.0 if _weight_bounds_hold() else 0.0}

    quad = _quad_form_check(spec, cfg.seed)
    if quad is not None:
        metrics["quad_form_min"] = quad
    return metrics, {}, ["samples.csv"]


def _weight_bounds_hold() -> bool:
    for big_n in (10, 100, 1000):
        for xi in (0.05, 0.1, 0.2):
            report = manybody.WeightTable.build(big_n, xi).bounds_report()
            if not (report["first_ok"] and report["second_ok"]):
                return False
    return True


# The pair-form check's fixed setting: range mu and beta_tilde of the shell
# correction, the cube's side and points per axis, and the random pair
# states drawn.  The spacing is 1.8 / 12 = 0.15, so the range 0.64 spans the
# 4 points that manybody.check_pair_range asks for; 0.9 lies in (1/3, 1).
_QUAD_MU = 0.64
_QUAD_BETA_TILDE = 0.9
_QUAD_LENGTH = 1.8
_QUAD_N = 12
_QUAD_SAMPLES = 10


def _quad_form_check(spec: CountSpec, seed: int) -> float | None:
    """Smallest sampled value of the compensated pair quadratic form, for
    the bump of height quad_height; None when that is not given."""
    if spec.quad_height is None:
        return None
    mu = _QUAD_MU
    w = scattering.smooth_bump(spec.quad_height)
    sol = scattering.solve_zero_energy(w, mu)
    corr = scattering.build_correction(sol, _QUAD_BETA_TILDE)
    ham = manybody.box_hamiltonian(_QUAD_LENGTH, _QUAD_N,
                                   pair_potential=lambda d: w.scaled(d, mu),
                                   pair_range=mu)
    rng = np.random.default_rng(seed + 1)
    worst = min(manybody.random_pair_form(ham, corr, rng)
                for _ in range(_QUAD_SAMPLES))
    # the flat product phi (x) phi is the K = 0 sector with constant h
    form, norm = manybody.relative_pair_form(np.ones((1, ham.dim)), ham, corr)
    return min(worst, form / norm)


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


def run_scenario(cfg: ScenarioConfig, root: str | Path | None = None) -> ScenarioResult:
    """Execute one loaded config and write its artifact set."""
    out_dir = output_root(str(root) if root is not None else None) / cfg.name
    out_dir.mkdir(parents=True, exist_ok=True)

    metrics, extra, artifacts = _RUNNERS[cfg.kind](cfg, out_dir)

    admissibility = cfg.admissibility
    if admissibility is not None:
        metrics["admissible"] = 1.0 if admissibility.admissible else 0.0
        if admissibility.window is not None:
            metrics["window_ok"] = 1.0 if admissibility.window["ok"] else 0.0

    assertion_rows = _evaluate_assertions(cfg.assertions, metrics)
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
        summary["admissibility"] = dataclasses.asdict(admissibility)
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(_to_jsonable(summary), indent=2,
                                       sort_keys=True, allow_nan=False) + "\n",
                            encoding="utf-8")
    return ScenarioResult(ok=ok, metrics=metrics, assertions=assertion_rows,
                          out_dir=out_dir, summary_path=summary_path)
