"""Scenario harness: configs, assertions, artifacts, CLI exit codes."""

import ast
import json
import math
import shlex
from pathlib import Path

import hypothesis
import numpy as np
import pytest

from quasi1d import cli, gpe1d, harness, manybody, snapshots, transverse
from quasi1d.errors import ConfigError, InterfaceError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

def write_ini(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


SCATTER_INI = """\
[scenario]
kind = scatter
name = cli-barrier

[scatter]
mu = 0.001
potential = square_barrier:10
"""

ADMISSIBILITY_INI = """\
[scenario]
kind = count
name = adm

[count]
n_particles = 2
xi = 0.1
samples = 1
dim = 8

[admissibility]
delta = 0.2
n_values = 8 9 10 11 12
eps_values = 0.00390625 0.001953125 0.0009765625 0.00048828125 0.000244140625
d = 0.85
beta_tilde = 0.88
"""


# ---------------------------------------------------------------------------
# admissibility


def test_admissible_sequence():
    pairs = [(n, 2.0 ** -n) for n in range(8, 13)]
    report = harness.validate_admissibility(pairs, 0.2)
    assert report.admissible and report.strictly_decreasing
    assert len(report.products) == 5
    assert all(b < a for a, b in zip(report.products, report.products[1:]))


def test_inadmissible_sequence_is_reported_not_raised():
    # N eps^delta = n^0.1 creeps upward: valid input, failing verdict
    pairs = [(n, n ** -3.0) for n in range(2, 8)]
    report = harness.validate_admissibility(pairs, 0.3)
    assert not report.admissible


def test_admissibility_guards():
    pairs = [(2, 0.5), (3, 0.25)]
    for delta in (0.0, 0.4, 0.5, -0.1):
        with pytest.raises(ConfigError):
            harness.validate_admissibility(pairs, delta)
    with pytest.raises(ConfigError):
        harness.validate_admissibility([], 0.2)
    with pytest.raises(ConfigError):
        harness.validate_admissibility([(3, 0.5), (2, 0.25)], 0.2)
    with pytest.raises(ConfigError):
        harness.validate_admissibility([(2, 0.25), (3, 0.25)], 0.2)


def test_admissibility_window():
    pairs = [(2, 0.5), (3, 0.25)]
    report = harness.validate_admissibility(pairs, 0.2, d=0.85, beta_tilde=0.88)
    assert report.window["ok"]
    assert report.window["upper"] == pytest.approx(2.0 / 2.2)
    report = harness.validate_admissibility(pairs, 0.2, d=0.8, beta_tilde=0.88)
    assert not report.window["ok"]
    report = harness.validate_admissibility(pairs, 0.2, d=0.85, beta_tilde=0.95)
    assert not report.window["ok"]
    assert harness.validate_admissibility(pairs, 0.2).window is None


# ---------------------------------------------------------------------------
# config loading


def test_missing_scenario_section(tmp_path):
    path = write_ini(tmp_path, "[scatter]\nmu = 0.001\n")
    with pytest.raises(ConfigError, match="scenario"):
        harness.load_config(path)


def test_unknown_kind(tmp_path):
    path = write_ini(tmp_path, "[scenario]\nkind = wizardry\n")
    with pytest.raises(ConfigError, match="wizardry"):
        harness.load_config(path)


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        harness.load_config(tmp_path / "nope.ini")


def test_mu_is_required_and_positive(tmp_path):
    # mu = epsilon^2 / N has one key, which takes one or more values; the
    # pair that spelt it is unknown
    assert harness.from_mapping("scatter", {"scatter": {"mu": 0.125}}).spec.mu \
        == (0.125,)
    assert harness.from_mapping("scatter", {"scatter": {
        "mu": "1e-3 1e-4"}}).spec.mu == (1e-3, 1e-4)
    for mu in ("", "0", "-0.1", "1e-3 0"):
        with pytest.raises(ConfigError, match=r"\[scatter\] mu: positive mu "
                                              r"required"):
            harness.from_mapping("scatter", {"scatter": {"mu": mu}})
    path = write_ini(tmp_path, "[scenario]\nkind = scatter\n"
                               "[scatter]\nepsilon = 0.5\nn_particles = 2\n")
    with pytest.raises(ConfigError, match=r"scenario\.ini:4 \[scatter\] "
                                          r"epsilon: unknown key"):
        harness.load_config(path)


def test_parameter_windows(tmp_path):
    path = write_ini(tmp_path, "[scenario]\nkind = count\n"
                               "[count]\nn_particles = 2\nxi = 0.7\n")
    with pytest.raises(ConfigError, match=r"\(0, 1/2\)"):
        harness.load_config(path)
    path = write_ini(tmp_path, "[scenario]\nkind = scatter\n"
                               "[scatter]\nmu = 0.001\nbeta_tilde = 0.2\n",
                     name="beta.ini")
    with pytest.raises(ConfigError, match=r"\(1/3, 1\)"):
        harness.load_config(path)


def test_override_grammar(tmp_path):
    path = write_ini(tmp_path, SCATTER_INI)
    with pytest.raises(ConfigError, match="section.key=value"):
        harness.load_config(path, ["oops"])
    with pytest.raises(ConfigError, match="section.key=value"):
        harness.load_config(path, ["mu=0.002"])
    cfg = harness.load_config(path, ["scatter.potential=square_barrier:12"])
    assert cfg.spec.potential.sup_bound == 12.0


def test_config_hash_tracks_effective_values(tmp_path):
    path = write_ini(tmp_path, SCATTER_INI)
    base = harness.load_config(path).sha256
    assert harness.load_config(path).sha256 == base
    bumped = harness.load_config(
        path, ["scatter.potential=square_barrier:12"]).sha256
    assert bumped != base
    assert harness.load_config(
        path, ["scatter.potential=square_barrier:12"]).sha256 == bumped


def test_section_diagnostics_carry_file_and_line(tmp_path):
    path = write_ini(tmp_path, SCATTER_INI)
    # lines are the file's own under --set; a key only --set gives has none
    with pytest.raises(ConfigError, match=r"scenario\.ini:7 \[scatter\] "
                                          r"potential: not a number"):
        harness.load_config(path, ["scatter.potential=square_barrier:abc"])
    with pytest.raises(ConfigError, match=r"scenario\.ini:--set \[scatter\] "
                                          r"beta_tilde: not a number"):
        harness.load_config(path, ["scatter.beta_tilde=abc"])
    with pytest.raises(ConfigError, match=r"^<flags> \[scatter\] potential: "):
        harness.from_mapping("scatter", {"scatter": {
            "mu": 0.001, "potential": "square_barrier:abc"}})


def test_unknown_keys_are_config_errors(tmp_path, capsys):
    path = write_ini(tmp_path, SCATTER_INI + "hieght = 12\n")
    with pytest.raises(ConfigError, match=r"scenario\.ini:8 \[scatter\] hieght: "
                                          r"unknown key"):
        harness.load_config(path)
    path = write_ini(tmp_path, SCATTER_INI, name="good.ini")
    adm = write_ini(tmp_path, ADMISSIBILITY_INI, name="adm.ini")
    for config, override in ((path, "scenario.nmae=x"),
                             (adm, "admissibility.detla=0.1")):
        code = cli.main(["validate", config, "--set", override])
        assert code == 2, override
        section, _, key = override.partition("=")[0].partition(".")
        assert f".ini:--set [{section}] {key}: unknown key" in \
            capsys.readouterr().err
    # a misspelled section would drop its keys, assertions included
    for override in ("asert.a=< 0", "scater.mu=abc"):
        section = override.partition(".")[0]
        with pytest.raises(ConfigError, match=rf"good\.ini: unknown section "
                                              rf"\[{section}\]"):
            harness.load_config(path, [override])
    # [assert] keys are metric names, reported as unknown metrics at run time
    assert harness.load_config(path, ["assert.bogus=> 0"]).assertions == (
        ("bogus", ">", 0.0, None),)


def test_non_finite_numbers_are_config_errors(tmp_path):
    path = write_ini(tmp_path, SCATTER_INI)
    for bad in ("nan", "inf", "-inf", "Infinity"):
        with pytest.raises(ConfigError, match=r"\[scatter\] beta_tilde: not a "
                                              r"finite number"):
            harness.load_config(path, [f"scatter.beta_tilde={bad}"])
        with pytest.raises(ConfigError, match=r"\[scatter\] potential: not a "
                                              r"finite number list"):
            harness.load_config(path, [f"scatter.potential=smooth_bump:{bad}"])
    with pytest.raises(ConfigError, match=r"\[scatter\] mu: not a finite "
                                          r"number list"):
        harness.load_config(path, ["scatter.mu=1e-3 nan 1e-4"])
    for threshold in ("< nan", "> inf", "~ 0 inf", "~ nan 1"):
        with pytest.raises(ConfigError, match="threshold is not a finite"):
            harness.load_config(path, [f"assert.a={threshold}"])


# ---------------------------------------------------------------------------
# potentials and couplings through the mini-spec grammar


def test_transverse_potential_specs():
    cfg = harness.from_mapping("trap", {"trap": {"potential": "well:8,2"}})
    assert cfg.kind == "trap"
    with pytest.raises(ConfigError, match="depth,radius"):
        harness.from_mapping("trap", {"trap": {"potential": "well:8"}})
    with pytest.raises(ConfigError, match="unknown transverse"):
        harness.from_mapping("trap", {"trap": {"potential": "weird"}})


def test_radial_potential_specs(tmp_path):
    with pytest.raises(ConfigError, match="unknown potential"):
        harness.from_mapping("scatter", {"scatter": {"mu": 0.001,
                                                     "potential": "spikes"}})
    table = tmp_path / "w.csv"
    table.write_text("0.0,10.0\n0.5,10.0\n1.0,0.0\n", encoding="utf-8")
    cfg = harness.from_mapping("scatter", {"scatter": {
        "mu": 0.001, "potential": f"file:{table}"}})
    assert cfg.kind == "scatter"
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,10.0,1.0\n0.5,10.0,1.0\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="two CSV columns"):
        harness.from_mapping("scatter", {"scatter": {
            "mu": 0.001, "potential": f"file:{bad}"}})


def test_coupling_resolution(tmp_path):
    # b = 8 pi a int |chi|^4 has one key, which defaults to 0
    base = {"length": 16.0, "n": 32, "t_final": 0.01, "dt": 0.01}
    assert harness.from_mapping("evolve1d", {"evolve1d": base}).spec.b == 0.0
    cfg = harness.from_mapping("evolve1d", {"evolve1d": {**base, "b": 2.0}})
    result = harness.run_scenario(cfg, tmp_path)
    assert result.metrics["b"] == 2.0


# ---------------------------------------------------------------------------
# assertions


def test_assertion_operators(tmp_path):
    cfg = harness.from_mapping("evolve1d", {
        "evolve1d": {"length": 16.0, "n": 32, "t_final": 0.01, "dt": 0.01,
                     "b": 0.0, "initial": "plane:1"},
        "assert": {"steps": "== 1", "b": "<= 0", "final_time": "> 0",
                   "norm_drift": "< 1e-12", "energy_drift": "!= 1",
                   "bogus": ">= 0"}})
    # the bogus key exercises the unknown-metric path
    result = harness.run_scenario(cfg, tmp_path)
    rows = {row["metric"]: row for row in result.assertions}
    assert not result.ok
    assert rows["bogus"]["passed"] is False
    assert rows["bogus"]["note"] == "unknown metric"
    for key in ("steps", "b", "final_time", "norm_drift", "energy_drift"):
        assert rows[key]["passed"], key
    assert "plane_phase_err" in result.metrics


def test_assertion_approx_and_booleans(tmp_path):
    cfg = harness.from_mapping("evolve1d", {
        "evolve1d": {"length": 16.0, "n": 32, "t_final": 0.01, "dt": 0.01,
                     "b": 0.0, "initial": "plane:1"},
        "assert": {"plane_phase_err": "~ 0 1e-6", "steps": "== true"}})
    result = harness.run_scenario(cfg, tmp_path)
    assert result.ok


def test_nan_metric_fails_every_assertion(tmp_path, monkeypatch):
    ops = {"lt": "< 1", "le": "<= 1", "gt": "> 1", "ge": ">= 1",
           "eq": "== 1", "ne": "!= 1", "approx": "~ 1 1e300"}
    cfg = harness.from_mapping("evolve1d", {
        "evolve1d": {"length": 16.0, "n": 32, "t_final": 0.01, "dt": 0.01},
        "assert": {**ops, "big": "> 0", "finite": "== 2"}})
    metrics = {key: math.nan for key in ops}
    metrics.update({"big": math.inf, "finite": np.float64(2.0)})
    detail = {"rows": [{"err": math.nan, "drift": -math.inf, "n": 3}],
              "scale": np.float64(math.inf)}
    monkeypatch.setitem(harness._RUNNERS, "evolve1d",
                        lambda cfg, out_dir: (dict(metrics), detail, []))
    result = harness.run_scenario(cfg, tmp_path)
    rows = {row["metric"]: row for row in result.assertions}
    assert not result.ok
    for key in ops:
        assert rows[key]["passed"] is False, key
    assert rows["big"]["passed"] and rows["finite"]["passed"]

    def reject(token):
        raise AssertionError(f"summary.json is not strict JSON: {token}")

    summary = json.loads(result.summary_path.read_text(encoding="utf-8"),
                         parse_constant=reject)
    assert all(summary["metrics"][key] is None for key in ops)
    assert summary["metrics"]["big"] is None
    assert summary["metrics"]["finite"] == 2.0
    assert all(summary["assertions"][i]["value"] is None
               for i, row in enumerate(summary["assertions"])
               if row["metric"] in ops)
    assert summary["detail"] == {"rows": [{"err": None, "drift": None,
                                           "n": 3}], "scale": None}


def test_assertion_grammar_property():
    st = hypothesis.strategies

    def parse(text):
        return harness.from_mapping("trap", {"trap": {},
                                             "assert": {"m": text}}).assertions

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(op=st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
                      t=st.floats(allow_nan=False, allow_infinity=False),
                      tol=st.floats(min_value=0.0, allow_infinity=False),
                      text=st.text())
    def check(op, t, tol, text):
        assert parse(f"{op} {t!r}") == (("m", op, t, None),)
        assert parse(f"~ {t!r} {tol!r}") == (("m", "~", t, tol),)
        try:
            parse(text)
        except ConfigError as exc:
            assert "[assert] m: " in str(exc)

    check()


def test_assertion_grammar_errors():
    flat = {"length": 16.0, "n": 32, "t_final": 0.01, "dt": 0.01}
    with pytest.raises(ConfigError, match="assertion must read"):
        harness.from_mapping("evolve1d", {"evolve1d": flat,
                                          "assert": {"steps": "approx 1"}})
    with pytest.raises(ConfigError, match="not a number"):
        harness.from_mapping("evolve1d", {"evolve1d": flat,
                                          "assert": {"steps": "< one"}})
    with pytest.raises(ConfigError, match="non-negative"):
        harness.from_mapping("evolve1d", {"evolve1d": flat,
                                          "assert": {"steps": "~ 1 -0.1"}})


# ---------------------------------------------------------------------------
# runs: determinism and artifacts


def count_config(seed):
    return harness.from_mapping("count", {"scenario": {"seed": seed}, "count": {
        "n_particles": 2, "xi": 0.1, "samples": 5, "dim": 8, "length": 8.0}})


def test_runs_are_byte_identical(tmp_path):
    cfg = count_config(3)
    first = harness.run_scenario(cfg, tmp_path / "one")
    second = harness.run_scenario(count_config(3), tmp_path / "two")
    again = harness.run_scenario(cfg, tmp_path / "again")
    for other in (second, again):
        assert first.summary_path.read_bytes() == \
            other.summary_path.read_bytes()
        assert (first.out_dir / "samples.csv").read_bytes() == \
            (other.out_dir / "samples.csv").read_bytes()
    other_seed = harness.run_scenario(count_config(4), tmp_path / "three")
    assert (first.out_dir / "samples.csv").read_bytes() != \
        (other_seed.out_dir / "samples.csv").read_bytes()


def test_config_is_parsed_once(tmp_path, monkeypatch):
    calls = []
    parse = harness.validate_config

    def counted(*args, **kwargs):
        calls.append(args[1])
        return parse(*args, **kwargs)

    monkeypatch.setattr(harness, "validate_config", counted)
    cfg = harness.load_config(write_ini(tmp_path, SCATTER_INI))
    harness.run_scenario(cfg, tmp_path)
    harness.run_scenario(count_config(0), tmp_path)
    assert calls == [cfg.path, "<flags>"]


def test_summary_layout_and_csv_units(tmp_path):
    cfg = harness.from_mapping("evolve1d", {"evolve1d": {
        "length": 16.0, "n": 32, "t_final": 0.02, "dt": 0.01, "b": 0.0,
        "convergence": "true"}})
    result = harness.run_scenario(cfg, tmp_path)
    summary = json.loads(result.summary_path.read_text(encoding="utf-8"))
    assert summary["scenario"] == "evolve1d"
    assert summary["artifacts"] == ["timeseries.csv"]
    repro = summary["reproducibility"]
    assert repro["config_sha256"] == cfg.sha256
    assert set(repro["versions"]) == {"quasi1d", "numpy", "python"}
    assert "halving_ratio" in summary["metrics"]
    header = (result.out_dir / "timeseries.csv").read_text().splitlines()[0]
    assert header == "t [time],norm [1],energy [energy]"


def test_admissibility_flows_into_metrics(tmp_path):
    path = write_ini(tmp_path, ADMISSIBILITY_INI)
    result = harness.run_scenario(harness.load_config(path), tmp_path)
    assert result.metrics["admissible"] == 1.0
    assert result.metrics["window_ok"] == 1.0
    summary = json.loads(result.summary_path.read_text(encoding="utf-8"))
    assert summary["admissibility"]["strictly_decreasing"]


def test_output_root_resolution(tmp_path, monkeypatch):
    assert harness.output_root("explicit") == harness.Path("explicit")
    monkeypatch.setenv("QUASI1D_OUTPUT_ROOT", str(tmp_path / "env_root"))
    assert harness.output_root() == tmp_path / "env_root"
    result = harness.run_scenario(count_config(0))
    assert result.summary_path.is_relative_to(tmp_path / "env_root")
    monkeypatch.delenv("QUASI1D_OUTPUT_ROOT")
    assert harness.output_root() == harness.Path("quasi1d_out")


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_roundtrip_1d(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    path = tmp_path / "snap.bin"
    snapshots.write_snapshot(path, values, (0.125,), 0.75)
    snap = snapshots.read_snapshot(path)
    assert snap.dims == (16,)
    assert snap.spacings == (0.125,)
    assert snap.time == 0.75
    assert np.array_equal(snap.values, values)


def test_snapshot_roundtrip_3d(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
    path = tmp_path / "snap3.bin"
    snapshots.write_snapshot(path, values, (0.1, 0.2, 0.2), 1.5)
    snap = snapshots.read_snapshot(path)
    assert snap.dims == (4, 6, 6)
    assert snap.spacings == (0.1, 0.2, 0.2)
    assert np.array_equal(snap.values, values)


def test_snapshot_roundtrip_property(tmp_path):
    st = hypothesis.strategies
    path = tmp_path / "snap.bin"

    def bits(x):
        return np.asarray(x, dtype=float).view(np.uint64)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        shape=st.lists(st.integers(1, 5), min_size=1, max_size=3),
        spacing=st.floats(min_value=1e-300, max_value=1e300),
        time=st.floats(allow_nan=False, allow_infinity=False),
        data=st.data())
    def check(shape, spacing, time, data):
        size = 2 * math.prod(shape)
        parts = data.draw(st.lists(st.floats(), min_size=size, max_size=size))
        values = np.array(parts, dtype=float).view(complex).reshape(shape)
        spacings = tuple(spacing * (1 + i) for i in range(len(shape)))
        snapshots.write_snapshot(path, values, spacings, time)
        snap = snapshots.read_snapshot(path)
        assert snap.dims == tuple(shape)
        assert np.array_equal(bits(snap.spacings), bits(spacings))
        assert bits(snap.time) == bits(time)
        assert snap.values.dtype == complex
        assert np.array_equal(bits(snap.values.view(float)), bits(values.view(float)))

    check()


def test_snapshot_error_paths(tmp_path):
    with pytest.raises(InterfaceError, match="one spacing per"):
        snapshots.write_snapshot(tmp_path / "x.bin", np.zeros((4, 4), complex),
                                 (0.1,), 0.0)
    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXX 1 4 0.5 0.0\n" + b"\0" * 64)
    with pytest.raises(InterfaceError, match="not a GPR1"):
        snapshots.read_snapshot(bad_magic)
    short_header = tmp_path / "tokens.bin"
    short_header.write_bytes(b"GPR1 1 4 0.5\n" + b"\0" * 64)
    with pytest.raises(InterfaceError, match="malformed"):
        snapshots.read_snapshot(short_header)
    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(b"GPR1 1 4 0.5 0.0\n" + b"\0" * 32)
    with pytest.raises(InterfaceError, match="truncated"):
        snapshots.read_snapshot(truncated)
    no_newline = tmp_path / "eof.bin"
    no_newline.write_bytes(b"GPR1 1 4 0.5 0.0")
    with pytest.raises(InterfaceError, match="before header newline"):
        snapshots.read_snapshot(no_newline)
    runaway = tmp_path / "runaway.bin"
    runaway.write_bytes(b"GPR1 " + b"9" * 5000)
    with pytest.raises(InterfaceError, match="too long"):
        snapshots.read_snapshot(runaway)


def test_snapshot_dataclass_guards():
    with pytest.raises(InterfaceError):
        snapshots.Snapshot((4,), (0.1, 0.2), 0.0, np.zeros(4, complex))
    with pytest.raises(InterfaceError):
        snapshots.Snapshot((4,), (0.1,), 0.0, np.zeros(5, complex))


# ---------------------------------------------------------------------------
# command line


def test_cli_flag_only_scatter(tmp_path, capsys):
    code = cli.main(["scatter", "--set", "scatter.mu=0.001",
                     "--set", "scatter.potential=square_barrier:10",
                     "--output", str(tmp_path),
                     "--set", "scenario.name=flagrun"])
    assert code == 0
    out = capsys.readouterr().out
    assert "flagrun: PASS" in out
    summary = json.loads((tmp_path / "flagrun" / "summary.json")
                         .read_text(encoding="utf-8"))
    assert summary["metrics"]["a"] > 0.5


def test_inverted_axial_trap_is_accepted():
    # v_par = harmonic:c takes any sign; c < 0 is an inverted trap
    config = str(CONFIG_DIR / "gpe_packet.ini")
    assert cli.main(["validate", config, "--set",
                     "evolve1d.v_par=harmonic:-1"]) == 0


def test_cli_flag_only_needs_file_for_other_kinds(capsys):
    assert cli.main(["evolve1d"]) == 2
    assert "config file" in capsys.readouterr().err


def test_cli_config_run_and_assertion_failure(tmp_path, capsys):
    path = write_ini(tmp_path, SCATTER_INI)
    assert cli.main(["scatter", path, "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    code = cli.main(["scatter", path, "--set", "assert.a=< 0",
                     "--output", str(tmp_path)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_kind_mismatch(tmp_path, capsys):
    # a file or the overrides alone: either of another kind exits 2 before
    # any output exists
    path = write_ini(tmp_path, SCATTER_INI)
    assert cli.main(["trap", path, "--output", str(tmp_path)]) == 2
    assert "kind = scatter does not match the trap subcommand" in \
        capsys.readouterr().err
    assert not (tmp_path / "cli-barrier").exists()
    assert cli.main(["scatter", "--set", "scenario.kind=trap",
                     "--set", "trap.n=32", "--set", "trap.extent=12",
                     "--output", str(tmp_path)]) == 2
    assert "<flags>: kind = trap does not match the scatter subcommand" in \
        capsys.readouterr().err
    assert not (tmp_path / "scatter-cli").exists()


def test_cli_bad_override(tmp_path, capsys):
    path = write_ini(tmp_path, SCATTER_INI)
    assert cli.main(["scatter", path, "--set", "oops",
                     "--output", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    # runs without a file read overrides with the same grammar and keys
    for override in ("oops", "scenario.seed=abc", "scenario.nmae=x"):
        assert cli.main(["scatter", "--set", "scatter.mu=0.001", "--set",
                         override, "--output", str(tmp_path)]) == 2, override
        assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "scatter-cli").exists()
    # --jobs below 1 is an argparse usage error, before any run
    for jobs in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scatter", path, "--jobs", jobs, "--output", str(tmp_path)])
        assert exc.value.code == 2
        assert "argument --jobs: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "cli-barrier").exists()


def test_cli_validate(tmp_path, capsys):
    path = write_ini(tmp_path, ADMISSIBILITY_INI)
    assert cli.main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "OK (kind = count" in out
    assert "-> admissible" in out
    assert "window" in out and "ok" in out
    bad = write_ini(tmp_path, ADMISSIBILITY_INI.replace("delta = 0.2",
                                                        "delta = 0.5"),
                    name="bad_delta.ini")
    assert cli.main(["validate", bad]) == 2


def test_cli_non_finite_override_exits_2(tmp_path, capsys):
    config = str(CONFIG_DIR / "counting_triplet.ini")
    for override, key in (("count.b=inf", "b"), ("count.length=nan", "length")):
        code = cli.main(["count", config, "--set", override,
                         "--output", str(tmp_path)])
        assert code == 2, override
        err = capsys.readouterr().err
        assert "counting_triplet.ini:" in err
        assert f"[count] {key}: not a finite number" in err
    assert not (tmp_path / "counting_triplet").exists()


@pytest.mark.parametrize("config, pair_mu, spacing", [
    ("counting_pair", "0.05", "0.0245437"),      # the line, 2 pi / 256
    ("counting_confined", "1.9", "0.5"),         # the transverse axis, 6 / 12
])
def test_unresolved_pair_range_is_config_error(tmp_path, capsys, config,
                                               pair_mu, spacing):
    # the range must span 4 points of the grid's coarsest axis, as the
    # Hamiltonian requires; the loader refuses it before any output exists
    path = str(CONFIG_DIR / f"{config}.ini")
    overrides = ["--set", "count.pair_height=5", "--set", f"count.pair_mu={pair_mu}"]
    code = cli.main(["count", path, *overrides, "--output", str(tmp_path)])
    assert code == 2
    assert (f"{path}:--set [count] pair_mu: pair interaction range {pair_mu} "
            f"spans fewer than 4 grid points at spacing {spacing}") in \
        capsys.readouterr().err
    assert not (tmp_path / config).exists()
    wide = 4.0 * float(spacing) + 0.01
    assert cli.main(["validate", path, "--set", "count.pair_height=5",
                     "--set", f"count.pair_mu={wide}"]) == 0


def test_axial_potential_on_confined_count_is_config_error(capsys):
    # the confined counting run has no axial potential; the key is refused
    config = str(CONFIG_DIR / "counting_confined.ini")
    code = cli.main(["validate", config, "--set", "count.v_par=harmonic:5"])
    assert code == 2
    assert (f"{config}:--set [count] v_par: an axial potential applies on "
            f"grid = line only") in capsys.readouterr().err
    assert cli.main(["validate", config, "--set", "count.v_par=none"]) == 0


# the keys that spelt mu, b and the reduce3d step a second time
SECOND_SPELLINGS = [("scatter", "epsilon"), ("scatter", "n_particles"),
                    ("evolve1d", "a"), ("evolve1d", "quartic"),
                    ("reduce3d", "eps_ref"), ("reduce3d", "mode_n")]
# the keys of the pair-form check's settings, now constants of the harness
PAIR_FORM_KEYS = ["quad_mu", "quad_beta_tilde", "quad_length", "quad_n",
                  "quad_samples"]
# the keys folded into [scatter] mu and potential, and the artifact switches
FOLDED_KEYS = [("scatter", "mu_list"), ("scatter", "height"),
               ("scatter", "radius"), ("scatter", "radial_table"),
               ("trap", "chi_slice")]
UNKNOWN_KEYS = (SECOND_SPELLINGS + FOLDED_KEYS
                + [("count", key) for key in PAIR_FORM_KEYS])


@pytest.mark.parametrize("config, override", [
    ("harmonic_trap", "trap.potential=harmonic:abc"),
    ("gpe_packet", "evolve1d.initial=gaussian:x"),
    ("gpe_packet", "evolve1d.v_par=cosine:zz"),
    ("gpe_packet", "evolve1d.v_par=cosine:1,2,3"),
    ("gpe_packet", "evolve1d.v_par=harmonic:1,2"),
    ("gpe_packet", "evolve1d.v_par=cosine:1,2.5"),
    ("counting_pair", "count.v_par=harmonic:1,2"),
    ("barrier_scattering", "scatter.potential=file:{tmp}/missing.csv"),
    ("gpe_packet", "evolve1d.n=7"),
    ("reduction_sweep", "reduce3d.n_x=7"),
    ("reduction_sweep", "reduce3d.n_y=2"),
    ("gpe_packet", "evolve1d.snapshots=maybe"),
    ("gpe_convergence", "evolve1d.convergence=maybe"),
    ("gpe_packet", "evolve1d.sample_stride=abc"),
    ("harmonic_trap", "trap.extent=nan"),
    ("harmonic_trap", "trap.tol=1e-12"),
    ("shell_profile", "scatter.potential=square_barrier:1,2"),
    ("shell_profile", "scatter.potential=zero:3"),
    ("barrier_scattering", "scatter.potential=square_barrier:10,2"),
    ("barrier_scattering", "scatter.potential=square_barrier:-1"),
    ("barrier_scattering", "scatter.potential=smooth_bump:1,0"),
    ("barrier_scattering", "scatter.potential=zero:1"),
    ("barrier_scattering", "scatter.ode_tol=1e-10"),
    ("barrier_scattering", "scatter.bisect_tol=1e-12"),
    ("counting_triplet", "count.dim=abc"),
    ("counting_triplet", "count.dim=7"),
    ("counting_pair", "count.beta_tilde=0.9"),
    ("counting_pair", "count.pair_height=5"),
    ("counting_pair", "count.pair_mu=0.5"),
    ("counting_pair", "count.quad_height=-1"),
    ("counting_pair", "count.pair_height=-1"),
    ("counting_confined", "count.n_y=abc"),
    ("reduction_sweep", "reduce3d.phi0_sigma=abc"),
    ("gpe_packet", "evolve1d.dt=abc"),
    ("gpe_packet", "evolve1d.dtt=0.01"),
    ("reduction_sweep", "reduce3d.potential=shifted:0.7"),
    ("reduction_sweep", "reduce3d.length_x=-1"),
    ("reduction_sweep", "reduce3d.base_extent_y=0"),
    ("counting_pair", "count.length=-1"),
    ("counting_confined", "count.extent=-1"),
    ("counting_confined", "count.epsilon=-2"),
    ("gpe_packet", "evolve1d.initial=plane:1.5"),
    ("gpe_packet", "evolve1d.initial=plane:2,3"),
    ("gpe_packet", "evolve1d.initial=gaussian:0"),
    ("gpe_packet", "evolve1d.initial=gaussian:-1"),
    ("gpe_packet", "evolve1d.initial=gaussian:1,0,0,9"),
    ("gpe_packet", "evolve1d.initial=gaussian:1e300"),
    ("gpe_packet", "evolve1d.initial=gaussian:1e-200"),
    ("gpe_packet", "evolve1d.initial=plane:1e300"),
    ("gpe_packet", "evolve1d.initial=gaussian:1,1e10"),
    ("gpe_packet", "evolve1d.initial=gaussian:1,0,1e300"),
    ("gpe_packet", "evolve1d.initial=constant:5"),
    ("reduction_sweep", "reduce3d.phi0_sigma=0"),
    ("harmonic_trap", "trap.potential=well:8,0"),
    ("harmonic_trap", "trap.potential=well:0,2"),
    ("harmonic_trap", "trap.potential=well:-8,2"),
    ("harmonic_trap", "trap.potential=well:8,-2"),
    ("harmonic_trap", "trap.potential=harmonic:0"),
    ("harmonic_trap", "trap.potential=harmonic:-1"),
    ("harmonic_trap", "trap.potential=harmonic:1,2"),
    ("harmonic_trap", "trap.potential=harmonic:1e300"),
    ("counting_pair", "count.v_par=harmonic:1e300"),
    ("counting_pair", "count.v_par=cosine:1e300,1"),
    ("harmonic_trap", "trap.potential=harmonic:1e4"),
    ("counting_pair", "count.v_par=cosine:1e9,1"),
    ("counting_pair", "count.b=-1000"),
    # keys the run would ignore
    ("gpe_packet", "evolve1d.snapshots=true"),
    ("gpe_packet", "evolve1d.sample_stride=10"),
    ("counting_triplet", "count.n_y=12"),
    ("counting_triplet", "count.extent=12"),
    ("counting_pair", "count.epsilon=0.5"),
    # second spellings of mu, b and the reduce3d step: unknown keys
    ("shell_sweep", "scatter.epsilon=0.1"),
    ("shell_sweep", "scatter.n_particles=4"),
    ("barrier_scattering", "scatter.n_particles=2"),
    ("gpe_packet", "evolve1d.a=0.5"),
    ("gpe_packet", "evolve1d.quartic=0.1"),
    ("reduction_sweep", "reduce3d.mode_n=5"),
    ("reduction_sweep", "reduce3d.eps_ref=-1"),
    # the second mu key, the barrier's shape keys and the artifact
    # switches: unknown keys
    ("shell_sweep", "scatter.mu_list=1e-3 1e-4"),
    ("barrier_scattering", "scatter.height=10"),
    ("barrier_scattering", "scatter.radius=abc"),
    ("shell_sweep", "scatter.radial_table=true"),
    ("barrier_scattering", "scatter.radial_table=true"),
    ("shell_profile", "scatter.radial_table=maybe"),
    ("harmonic_trap", "trap.chi_slice=maybe"),
    # the pair-form check's settings, now constants: unknown keys
    ("counting_pair", "count.quad_n=abc"),
    ("counting_pair", "count.quad_n=2"),
    ("counting_pair", "count.quad_n=13"),
    ("counting_pair", "count.quad_length=-1"),
    ("counting_pair", "count.quad_mu=0"),
    ("counting_pair", "count.quad_beta_tilde=2"),
    ("counting_pair", "count.quad_samples=0"),
    ("counting_pair", "count.quad_mu=0.1"),
    ("counting_triplet", "count.quad_mu=0.64"),
    ("counting_triplet", "count.quad_beta_tilde=0.9"),
    ("counting_triplet", "count.quad_length=1.8"),
    ("counting_confined", "count.quad_n=12"),
    ("counting_confined", "count.quad_samples=10"),
])
def test_cli_malformed_input_exits_2(tmp_path, capsys, config, override):
    section, _, key = override.partition("=")[0].partition(".")
    path = CONFIG_DIR / f"{config}.ini"
    code = cli.main([section, str(path), "--set", override.format(tmp=tmp_path),
                     "--output", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert _config_error_at(path, section, key) in err
    if (section, key) in UNKNOWN_KEYS:
        assert f"{key}: unknown key" in err
    assert not (tmp_path / config).exists()


def test_pair_form_settings_are_constants(tmp_path, capsys):
    # the check's range resolves on its box and beta_tilde is admissible;
    # a file line that sets any of the five exits 2 as unknown, as --set does
    # (test_cli_malformed_input_exits_2)
    manybody.check_pair_range(harness._QUAD_MU, [
        gpe1d.Grid1D(harness._QUAD_LENGTH, harness._QUAD_N)])
    assert 1.0 / 3.0 < harness._QUAD_BETA_TILDE < 1.0
    text = (CONFIG_DIR / "counting_pair.ini").read_text(encoding="utf-8")
    for key in PAIR_FORM_KEYS:
        path = tmp_path / f"{key}.ini"
        path.write_text(text.replace("[count]\n", f"[count]\n{key} = 1\n"),
                        encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 2
        assert f"{_config_error_at(path, 'count', key)}unknown key" in \
            capsys.readouterr().err


def test_one_eps_reduction_fails_its_trend_assertions(tmp_path, capsys):
    # one eps compares nothing: the ratio and both trends are null and fail
    path = CONFIG_DIR / "reduction_sweep.ini"
    code = cli.main(["reduce3d", str(path), "--output", str(tmp_path),
                     "--set", "reduce3d.eps_list=0.4",
                     "--set", "reduce3d.t_final=0.05",
                     "--set", "reduce3d.n_x=32", "--set", "reduce3d.n_y=32"])
    assert code == 1
    assert "FAIL (1/4 assertions)" in capsys.readouterr().out
    summary = json.loads((tmp_path / "reduction_sweep" / "summary.json")
                         .read_text(encoding="utf-8"))
    trends = ("max_err_ratio", "monotone_err", "monotone_orth")
    assert all(summary["metrics"][key] is None for key in trends)
    assert {row["metric"]: row["passed"] for row in summary["assertions"]} == \
        {"monotone_err": False, "monotone_orth": False,
         "max_err_ratio": False, "err_last": True}


def test_scatter_potential_defaults_and_tables(tmp_path):
    # a bare shape takes height 10 and radius 1, to the bit; a table whose
    # potential scattering.py refuses is a config error, not a failed run
    a = {potential: harness.run_scenario(harness.from_mapping("scatter", {
        "scenario": {"name": f"w{i}"}, "scatter": {
            "mu": 0.001, "potential": potential}}), tmp_path).metrics["a"]
         for i, potential in enumerate(("square_barrier", "square_barrier:10,1",
                                        "smooth_bump", "smooth_bump:10,1"))}
    assert np.float64(a["square_barrier"]).tobytes() == \
        np.float64(a["square_barrier:10,1"]).tobytes()
    assert np.float64(a["smooth_bump"]).tobytes() == \
        np.float64(a["smooth_bump:10,1"]).tobytes()
    for rows, why in (("0.0,1.0\n0.5,-1.0\n", "must be non-negative"),
                      ("0.0,1.0\n2.0,0.0\n", "support radius")):
        table = tmp_path / "w.csv"
        table.write_text(rows, encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"^<flags> \[scatter\] "
                                              rf"potential: .*{why}"):
            harness.from_mapping("scatter", {"scatter": {
                "mu": 0.001, "potential": f"file:{table}"}})


def test_one_mu_scatter_fails_its_spread_assertions(tmp_path, capsys):
    # one mu compares nothing: both spreads are null and fail, while the
    # per-mu values sit under detail.per_mu
    path = CONFIG_DIR / "shell_sweep.ini"
    code = cli.main(["scatter", str(path), "--output", str(tmp_path),
                     "--set", "scatter.mu=1e-4"])
    assert code == 1
    assert "FAIL (9/11 assertions)" in capsys.readouterr().out
    summary = json.loads((tmp_path / "shell_sweep" / "summary.json")
                         .read_text(encoding="utf-8"))
    assert summary["metrics"]["scaling_spread"] is None
    assert summary["metrics"]["r_ratio_spread"] is None
    assert {row["metric"] for row in summary["assertions"]
            if not row["passed"]} == {"scaling_spread", "r_ratio_spread"}
    assert [row["mu"] for row in summary["detail"]["per_mu"]] == [1e-4]
    assert summary["artifacts"] == ["sweep.csv", "radial_table.csv"]


def test_multi_mu_scatter_needs_no_beta_tilde(tmp_path):
    # without beta_tilde a sweep reports the scattering length's spread
    # over mu and writes no table
    cfg = harness.load_config(CONFIG_DIR / "barrier_scattering.ini",
                              ["scatter.mu=1e-3 1e-4 1e-5"])
    result = harness.run_scenario(cfg, tmp_path)
    assert result.ok
    assert result.metrics["sweep_size"] == 3.0
    assert 0.0 <= result.metrics["scaling_spread"] < 1e-8
    assert "r_ratio_spread" not in result.metrics
    summary = json.loads(result.summary_path.read_text(encoding="utf-8"))
    assert summary["artifacts"] == []
    assert len(summary["detail"]["per_mu"]) == 3


def test_benchmark_workloads_load():
    # perfbench/worker.py's WORKLOADS, read from its source without running
    # it: each (config, overrides) pair must pass the loader
    source = (CONFIG_DIR.parent / "perfbench" / "worker.py").read_text(
        encoding="utf-8")
    workloads = next(
        ast.literal_eval(node.value) for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets] == ["WORKLOADS"])
    assert workloads
    for runs in workloads.values():
        for name, overrides in runs:
            harness.load_config(CONFIG_DIR / name,
                                overrides + ["scenario.seed=1"])


def test_readme_commands_load():
    # each `quasi1d ...` example of README's "Command line" section,
    # continued lines joined, loads through the CLI's loader without
    # running and is of its subcommand's kind
    text = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    commands = [shlex.split(line)[1:]
                for line in section.replace("\\\n", " ").splitlines()
                if line.startswith("quasi1d ")]
    assert len(commands) >= 9
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        for path in [str(CONFIG_DIR.parent / p) for p in args.configs] or [None]:
            if args.command == "validate":
                harness.load_config(path, args.overrides)
            else:
                assert cli._load(args.command, path, args.overrides).kind \
                    == args.command, argv


@pytest.mark.parametrize("config, override", [
    ("harmonic_trap", "trap.potential=harmonic:9.8"),
    ("harmonic_trap", "trap.potential=well:1260,2"),
    ("counting_pair", "count.v_par=harmonic:-1600"),
    ("counting_pair", "count.v_par=cosine:16000,1"),
])
def test_potentials_below_the_load_bound_reach_their_ground_state(config, override):
    # just below the grid's largest k^2 (1263 on the trap's plane, 16384 on
    # the counting line) the loader admits the potential and the ground
    # state converges; harmonic:1e4 and cosine:1e9,1, which stall, exit 2
    # (test_cli_malformed_input_exits_2)
    cfg = harness.load_config(CONFIG_DIR / f"{config}.ini", [override])
    spec = cfg.spec
    if cfg.kind == "trap":
        transverse.ground_state_2d(spec.potential, extent=spec.extent, n=spec.n)
    else:
        gpe1d.ground_state_1d(gpe1d.Grid1D(spec.length, spec.dim), spec.v_par,
                              spec.b)


def _config_error_at(path, section, key):
    # the key's line inside [section] of the file itself, or --set when only
    # the override has it
    line, current = "--set", None
    for i, text in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        text = text.strip()
        if text.startswith("[") and text.endswith("]"):
            current = text[1:-1].strip()
        elif current == section and text.partition("=")[0].strip() == key:
            line = str(i)
            break
    return f"config error: {path}:{line} [{section}] {key}: "


def _within(lo, hi, integer=False):
    return lambda x: lo <= x <= hi and (not integer or x == int(x))


ANY = _within(-math.inf, math.inf)
INTEGER = _within(-math.inf, math.inf, integer=True)
TRAP_R2 = 128.0          # |y|^2 at the corner of the trap's 16-wide plane
LINE_X2 = math.pi**2     # x^2 at the end of the counting line, 2 pi long
# a radial bump's height and support radius
SHAPE = [(10.0, lambda h: h >= 0), (1.0, lambda r: 0 < r <= 1)]


def _well_peak(depth, radius):
    # the smooth well at the plane's corner, its largest value
    return depth * 0.5 * (1.0 + math.tanh((math.sqrt(TRAP_R2) - radius)
                                          / (0.25 * radius)))


# every `name:numbers` key: the config that holds it, the largest |V| the
# loader admits on its grid (None: no load bound), and for each name its
# numbers as (default, rule) pairs, a default of None marking a required
# number, with the peak |V| on the grid (None where no bound applies)
MINI_SPECS = [
    ("harmonic_trap", "trap.potential", 2.0 * (128 * math.pi / 16.0) ** 2, {
        "harmonic": ([(1.0, lambda c: c > 0)], lambda c: c * TRAP_R2),
        "shifted": ([(0.0, ANY)], lambda c: max(abs(c), abs(TRAP_R2 + c))),
        "well": ([(None, lambda d: d > 0), (None, lambda r: r > 0)], _well_peak)}),
    ("gpe_packet", "evolve1d.v_par", None, {
        "harmonic": ([(1.0, ANY)], None),
        "cosine": ([(1.0, ANY), (1.0, INTEGER)], None)}),
    ("counting_pair", "count.v_par", 128.0**2, {
        "harmonic": ([(1.0, ANY)], lambda c: abs(c) * LINE_X2),
        "cosine": ([(1.0, ANY), (1.0, INTEGER)], lambda a, mode: abs(a))}),
    ("gpe_packet", "evolve1d.initial", None, {
        "gaussian": ([(1.0, _within(1.0 / 16.0, 16.0)), (0.0, _within(-8.0, 8.0)),
                      (0.0, _within(-16.0 * math.pi, 16.0 * math.pi))], None),
        "plane": ([(1.0, _within(-128, 128, integer=True))], None),
        "constant": ([], None)}),
    ("barrier_scattering", "scatter.potential", None, {
        "square_barrier": (SHAPE, None), "smooth_bump": (SHAPE, None),
        "zero": ([], None)}),
]


def _mini_spec_verdict(bound, slots, peak, numbers) -> int:
    # the exit code the table implies: 0 when the numbers fill the slots
    # (defaults after them), each passes its rule and the peak stays within
    # the bound; 2 otherwise
    if len(numbers) > len(slots) or not all(map(math.isfinite, numbers)):
        return 2
    values = [*numbers, *(default for default, _ in slots[len(numbers):])]
    if None in values or not all(rule(x) for (_, rule), x in zip(slots, values)):
        return 2
    return 0 if peak is None or peak(*values) <= bound else 2


def test_mini_spec_grammar_property(capsys):
    # validate accepts a `name:numbers` value exactly when MINI_SPECS does,
    # and otherwise names its file, line and key
    st = hypothesis.strategies
    number = st.one_of(st.integers(-300, 300), st.floats(-50.0, 50.0),
                       st.sampled_from([0.0, math.nan, math.inf, -math.inf,
                                        1e300, -1e300]))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(target=st.sampled_from(MINI_SPECS), data=st.data())
    def check(target, data):
        config, option, bound, table = target
        name = data.draw(st.sampled_from(sorted(table)))
        numbers = data.draw(st.lists(number, max_size=4))
        value = name + (":" + ",".join(map(str, numbers)) if numbers else "")
        path = CONFIG_DIR / f"{config}.ini"
        capsys.readouterr()
        code = cli.main(["validate", str(path), "--set", f"{option}={value}"])
        section, _, key = option.partition(".")
        err = capsys.readouterr().err
        assert code == _mini_spec_verdict(bound, *table[name], numbers), (value, err)
        if code == 2:
            assert _config_error_at(path, section, key) in err

    check()


def test_cli_jobs_runs_configs_in_worker_processes(tmp_path, capsys):
    # --jobs 2 runs each config in a process pool; the summaries are the
    # serial run's bytes, and a config error raised in a worker exits 2
    names = ("gpe_packet", "gpe_plane_wave")
    configs = [str(CONFIG_DIR / f"{name}.ini") for name in names]
    assert cli.main(["evolve1d", *configs, "--output", str(tmp_path / "serial")]) == 0
    assert cli.main(["evolve1d", *configs, "--jobs", "2",
                     "--output", str(tmp_path / "pool")]) == 0
    for name in names:
        assert (tmp_path / "pool" / name / "summary.json").read_bytes() == \
            (tmp_path / "serial" / name / "summary.json").read_bytes()
    bad = (CONFIG_DIR / "gpe_packet.ini").read_text(encoding="utf-8") \
        .replace("n = 256", "n = 7")
    bad_path = write_ini(tmp_path, bad, "bad.ini")
    capsys.readouterr()
    code = cli.main(["evolve1d", configs[1], bad_path, "--jobs", "2",
                     "--output", str(tmp_path / "mixed")])
    assert code == 2
    assert f"config error: {bad_path}:10 [evolve1d] n: " in capsys.readouterr().err
def test_cli_seed_override(tmp_path):
    path = write_ini(tmp_path, SCATTER_INI)
    assert cli.main(["scatter", path, "--output", str(tmp_path / "s1"),
                     "--set", "scenario.seed=9"]) == 0
    summary = json.loads((tmp_path / "s1" / "cli-barrier" / "summary.json")
                         .read_text(encoding="utf-8"))
    assert summary["reproducibility"]["seed"] == 9
