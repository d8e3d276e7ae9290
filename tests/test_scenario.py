import csv
import dataclasses
import io
import json
import os

import numpy as np
import pytest

from hartree_lab import scenario as scn
from hartree_lab.cli import _parse_potential_arg, main as cli_main
from hartree_lab.evolve import BOUNDARY_WARNING
from hartree_lab.exponents import ab_exponents
from hartree_lab.grid import RadialGrid, load_field_csv, save_field_csv
from hartree_lab.potentials import PotentialSpec
from hartree_lab.scenario import (ConfigError, Scenario, parse_document,
                                  parse_scenario, run_scenario, sweep)

MINIMAL = """
[model]
p = 3.0
gamma = 2.0

[grid]
r_max = 24.0
n = 383

[initial]
kind = gaussian
amplitude = 0.5
width = 1.0
"""

SCATTER = """
[model]
p = 3.0
gamma = 2.0

[grid]
r_max = 24.0
n = 383

[initial]
kind = ground_state
c = 0.5

[evolve]
dt = 2e-3
t_end = 6.0
sample_every = 50
sponge = on
sponge_start = 15.0

[diagnostics]
requests = conservation, thresholds, monitor
monitor_R = 6.0
monitor_eps = 0.6
"""


SPONGE_ON = MINIMAL + "[evolve]\nsponge = on\nsponge_start = 15\n"

# initial data from a field file; {path} is one of the files that
# field_files() writes
FROM_FILE = MINIMAL.replace("kind = gaussian", "kind = file\npath = {path}")


def field_files(tmp_path):
    """A good field file on the MINIMAL grid, two bad copies of it, an
    all-zero file and a finite file whose mass overflows."""
    grid = RadialGrid(24.0, 383)
    buf, zero, huge = io.StringIO(), io.StringIO(), io.StringIO()
    save_field_csv(grid.field_from(lambda r: np.exp(-r**2)), buf)
    save_field_csv(grid.field_from(np.zeros_like), zero)
    save_field_csv(grid.field_from(lambda r: 1e200 * np.exp(-r**2)), huge)
    rows = buf.getvalue().splitlines(keepends=True)
    files = {"good": rows, "nan": rows[:11] + ["1.0,nan,0.0\n"] + rows[12:],
             "short": rows[:-1], "zero": zero.getvalue().splitlines(keepends=True),
             "huge": huge.getvalue().splitlines(keepends=True)}
    for name, text in files.items():
        (tmp_path / f"{name}.csv").write_text("".join(text))
    return {name: tmp_path / f"{name}.csv" for name in files}


def test_parse_minimal_defaults():
    s = parse_scenario(MINIMAL)
    assert s.model.p == 3.0
    assert s.grid_n == 383
    assert s.potential.kind == "zero"
    assert s.dt == 1e-3
    # a parsed scenario is immutable: a changed field must pass the checks again
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.dt = -1.0


def test_parse_rejects_small_p():
    with pytest.raises(ConfigError, match="p >= 2"):
        parse_scenario(MINIMAL.replace("p = 3.0", "p = 1.5"))


def test_parse_rejects_unknown_key():
    for text in (MINIMAL.replace("amplitude = 0.5", "amplitud = 0.5"),
                 # the splitting has one ordering, so there is no scheme to choose
                 MINIMAL + "[evolve]\nscheme = strang\n"):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_scenario(text)


def test_parse_rejects_duplicate_key():
    bad = MINIMAL.replace("p = 3.0", "p = 3.0\np = 2.5")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_scenario(bad)


def test_parse_error_carries_line():
    try:
        parse_document("[model]\np = 3.0\np = 2.5\n")
    except ConfigError as e:
        assert e.line == 3
    else:
        raise AssertionError("expected ConfigError")


def test_parse_rejects_unknown_section():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_document("[modle]\np = 3.0\n")


@pytest.mark.parametrize("key, line, bad", [
    ("monitor_expect", "[diagnostics]\nmonitor_expect = {}\n", "maybe"),
    ("weight", "[diagnostics]\nweight = {}\n", "cubic"),
])
def test_parse_rejects_bad_choice(key, line, bad):
    # rejected while parsing, before any kernel or ground state is built
    with pytest.raises(ConfigError, match=key):
        parse_scenario(MINIMAL + line.format(bad))
    # the valid spellings still parse
    good = {"monitor_expect": "fail", "weight": "truncated"}[key]
    assert getattr(parse_scenario(MINIMAL + line.format(good)), key) == good


@pytest.mark.parametrize("text, line", [
    pytest.param(MINIMAL + "[evolve]\ndt = on\n", 15, id="dt-on"),  # on/off is not a number
    pytest.param(MINIMAL.replace("n = 383", "n = 383.5"), 8, id="n-fraction"),
    pytest.param(MINIMAL + "[evolve]\nsample_every = 2.5\n", 15, id="sample_every-fraction"),
    pytest.param(MINIMAL + "[evolve]\ndt = -1e-3\n", None, id="dt-negative"),
    pytest.param(MINIMAL + "[diagnostics]\nmorawetz_R = 10, abc\n", 15, id="morawetz_R-text"),
    # a truncated weight needs weight_R in (0, r_max)
    pytest.param(MINIMAL + "[diagnostics]\nweight = truncated\nweight_R = 50\n", None,
                 id="weight_R-beyond-r_max"),
    # a negative Morawetz radius would run to a negative bound_shape
    pytest.param(MINIMAL + "[diagnostics]\nrequests = morawetz\nmorawetz_R = -5\n", None,
                 id="morawetz_R-negative"),
    # a negative power zeroes the field, 0^0 = 1 damps the whole domain,
    # and a negative strength amplifies
    pytest.param(SPONGE_ON + "sponge_power = -1\n", None, id="sponge_power-negative"),
    pytest.param(SPONGE_ON + "sponge_power = 0\n", None, id="sponge_power-zero"),
    pytest.param(SPONGE_ON + "sponge_strength = -50\n", None, id="sponge_strength-negative"),
    # width 0 gives a zero field; -1 would run as +1
    pytest.param(MINIMAL.replace("width = 1.0", "width = 0"), None, id="initial_width-zero"),
    pytest.param(MINIMAL.replace("width = 1.0", "width = -1"), None,
                 id="initial_width-negative"),
    # eps^2 = 0 can never be crossed
    pytest.param(MINIMAL + "[diagnostics]\nrequests = monitor\nmonitor_eps = 0\n", None,
                 id="monitor_eps-zero"),
    pytest.param(FROM_FILE.format(path="{nan}"), None, id="file-nan"),
    pytest.param(FROM_FILE.format(path="{short}"), None, id="file-truncated"),
    # zero initial data: every relative drift divides by M(0) = 0
    pytest.param(MINIMAL.replace("amplitude = 0.5", "amplitude = 0"), None,
                 id="initial_amplitude-zero"),
    pytest.param(MINIMAL.replace("kind = gaussian", "kind = ground_state\nc = 0"), None,
                 id="initial_c-zero"),
    pytest.param(FROM_FILE.format(path="{zero}"), None, id="file-zero"),
    # finite data whose mass M(0) overflows
    pytest.param(MINIMAL.replace("amplitude = 0.5", "amplitude = 1e200"), None,
                 id="initial_amplitude-mass-overflow"),
    pytest.param(FROM_FILE.format(path="{huge}"), None, id="file-mass-overflow"),
    # no step runs, so one sample at t = 0 reaches the verdicts, which need two
    pytest.param(MINIMAL + "[evolve]\nt_end = 0.0\n", None, id="t_end-zero"),
    pytest.param(MINIMAL + "[evolve]\nt_end = 0.0004\ndt = 1e-3\n"
                 "[diagnostics]\nrequests = morawetz\nmorawetz_R = 10\n", None,
                 id="t_end-under-half-step"),
    # radii that print the same under :g would name two columns alike;
    # the monitor's radius joins the ball radii
    pytest.param(MINIMAL + "[diagnostics]\nball_radii = 5, 5.0000001\n", None,
                 id="ball_radii-same-label"),
    pytest.param(MINIMAL + "[diagnostics]\nrequests = monitor\nmonitor_R = 5.0000001\n"
                 "ball_radii = 5\n", None, id="monitor_R-same-label-as-ball"),
    pytest.param(MINIMAL + "[diagnostics]\nrequests = morawetz\nmorawetz_R = 10, 10.0000001\n",
                 None, id="morawetz_R-same-label"),
])
def test_parse_rejects_before_build(monkeypatch, tmp_path, text, line):
    def forbidden(*args, **kwargs):
        raise AssertionError("built while parsing")

    monkeypatch.setattr(scn, "build_kernel", forbidden)
    monkeypatch.setattr(scn, "solve_ground_state", forbidden)
    with pytest.raises(ConfigError) as err:
        parse_scenario(text.format(**field_files(tmp_path)))
    assert err.value.line == line


def test_file_initial_data(tmp_path):
    files = field_files(tmp_path)
    with pytest.raises(ConfigError, match="non-finite field value on line 12"):
        parse_scenario(FROM_FILE.format(path=files["nan"]))
    s = parse_scenario(FROM_FILE.format(path=files["good"]) + "[evolve]\nt_end = 0.01\n")
    run_scenario(s, out_dir=str(tmp_path), tag="file")
    csv = (tmp_path / "file_diagnostics.csv").read_text().splitlines()
    M0 = float(csv[3].split(",")[1])
    assert M0 == pytest.approx(np.pi**1.5 / 2**1.5, rel=1e-6)  # int e^(-2 r^2) dx


def test_every_field_is_one_key():
    keys = [scn._field(sec, key) for sec, keys in scn.SECTIONS.items() for key in keys]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(Scenario))
    assert set(parse_scenario(MINIMAL).resolved()) == set(scn.SECTIONS)


def test_boundary_warning_in_summary(tmp_path):
    # a narrow packet reaches the wall by t = 1 with the sponge off
    narrow = MINIMAL.replace("width = 1.0", "width = 0.3") + \
        "\n[evolve]\nt_end = 1.0\nsample_every = 100\n"
    with pytest.warns(UserWarning, match="boundary amplitude"):
        run_scenario(parse_scenario(narrow), out_dir=str(tmp_path), tag="hit")
    summary = json.loads((tmp_path / "hit_summary.json").read_text())
    assert summary["warnings"] == [BOUNDARY_WARNING]
    quiet = MINIMAL + "\n[evolve]\nt_end = 0.5\nsample_every = 100\n"
    run_scenario(parse_scenario(quiet), out_dir=str(tmp_path), tag="quiet")
    summary = json.loads((tmp_path / "quiet_summary.json").read_text())
    assert summary["warnings"] == []


def test_run_scenario_scattering(tmp_path):
    s = parse_scenario(SCATTER)
    rep = run_scenario(s, out_dir=str(tmp_path), tag="scatter")
    assert rep.exit_code == 0
    assert rep.verdicts["thresholds"]["pass"]
    assert rep.verdicts["monitor"]["pass"]
    assert (tmp_path / "scatter_summary.json").exists()
    csv = (tmp_path / "scatter_diagnostics.csv").read_text().splitlines()
    assert csv[0].startswith("# hartree-lab-diagnostics")
    header = csv[2].split(",")
    assert header[:10] == ["t", "M", "E", "E0", "P", "grad_sq", "lambda_sq",
                           "z", "zp", "zpp"]


def test_diagnostics_header_pinned(tmp_path):
    # the monitor's radius joins the ball radii in sorted order, and an exact
    # repeat among the Morawetz radii is one column
    text = (SCATTER.replace("t_end = 6.0", "t_end = 0.1")
            .replace("requests = conservation, thresholds, monitor",
                     "requests = conservation, monitor, morawetz")
            .replace("monitor_R = 6.0", "monitor_R = 10\nball_radii = 12, 5\n"
                     "morawetz_R = 12, 6, 6"))
    run_scenario(parse_scenario(text), out_dir=str(tmp_path), tag="h")
    rows = list(csv.reader((tmp_path / "h_diagnostics.csv").read_text().splitlines()[2:]))
    assert rows[0] == ["t", "M", "E", "E0", "P", "grad_sq", "lambda_sq", "z", "zp", "zpp",
                       "mass_in_ball_5", "mass_in_ball_10", "mass_in_ball_12",
                       "exported_mass", "threshold_track", "lr_norm_rbar",
                       "eta_mass_5", "eta_mass_10", "eta_mass_12", "p_chi_6", "p_chi_12"]
    assert len(rows) > 2
    assert all(len(row) == 21 for row in rows)


def test_run_scenario_deterministic(tmp_path):
    s = parse_scenario(SCATTER)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_scenario(s, out_dir=str(d1), tag="x")
    run_scenario(s, out_dir=str(d2), tag="x")
    assert (d1 / "x_diagnostics.csv").read_bytes() == (d2 / "x_diagnostics.csv").read_bytes()
    j1 = (d1 / "x_summary.json").read_bytes()
    j2 = (d2 / "x_summary.json").read_bytes()
    assert j1 == j2


def test_store_fields_writes_final_without_snapshots(tmp_path, monkeypatch):
    # the field file is the trajectory's final field; evolve keeps no
    # per-sample snapshot list for it
    trajs, evolve = [], scn.evolve

    def capture(*args):
        trajs.append(evolve(*args))
        return trajs[-1]

    monkeypatch.setattr(scn, "evolve", capture)
    run_scenario(parse_scenario(MINIMAL + "\n[evolve]\nt_end = 0.1\nstore_fields = on\n"),
                 out_dir=str(tmp_path), tag="f")
    monkeypatch.undo()
    (traj,) = trajs
    assert traj.fields is None
    saved = load_field_csv(str(tmp_path / "f_final_field.csv"))
    assert np.array_equal(saved.values, traj.final.values)


def test_conservation_verdict_not_vacuous(tmp_path):
    # a sponge starting at r = 0.5 absorbs mass before the second sample, so
    # only t = 0 is pre-export: no drift is measured and nothing may pass
    s = parse_scenario(SCATTER.replace("t_end = 6.0", "t_end = 0.2")
                       .replace("sponge_start = 15.0", "sponge_start = 0.5")
                       .replace("requests = conservation, thresholds, monitor",
                                "requests = conservation"))
    rep = run_scenario(s, out_dir=str(tmp_path), tag="v")
    cons = rep.verdicts["conservation"]
    assert cons["samples_pre_export"] == 1
    assert cons["available"] is False and cons["pass"] is False
    assert np.isnan(cons["mass_drift"]) and np.isnan(cons["energy_drift"])
    assert rep.exit_code == 1 and rep.failures == ["conservation"]
    # strict JSON: the unmeasured drifts are written as null, not as NaN
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    summary = json.loads((tmp_path / "v_summary.json").read_text(), parse_constant=reject)
    assert summary["verdicts"]["conservation"]["available"] is False
    assert summary["verdicts"]["conservation"]["mass_drift"] is None
    assert summary["pass"] is False


def test_soliton_negative_control_expectation(tmp_path):
    # the soliton never evacuates: monitor crossing fails; with
    # monitor_expect = fail the run exits 0
    text = SCATTER.replace("c = 0.5", "c = 1.0") \
                  .replace("monitor_eps = 0.6", "monitor_eps = 0.05") \
                  .replace("requests = conservation, thresholds, monitor",
                           "requests = conservation, monitor") \
                  .replace("t_end = 6.0", "t_end = 1.0")
    s = parse_scenario(text)
    rep = run_scenario(s, out_dir=str(tmp_path), tag="sol")
    assert not rep.verdicts["monitor"]["crossed"]
    assert rep.exit_code == 1
    rep2 = run_scenario(dataclasses.replace(s, monitor_expect="fail"),
                        out_dir=str(tmp_path), tag="sol2")
    assert rep2.verdicts["monitor"]["pass"]
    assert rep2.exit_code == 0


def test_sweep_threshold_column(tmp_path):
    s = parse_scenario(SCATTER.replace("t_end = 6.0", "t_end = 0.1")
                       .replace("requests = conservation, thresholds, monitor",
                                "requests = conservation, thresholds"))
    values = [0.3, 0.5, 0.8]
    rep = sweep(s, "c", values, out_dir=str(tmp_path))
    assert rep["pass"]
    A, B, sigma = ab_exponents(s.model)
    p = s.model.p
    rows = rep["rows"]
    # the t=0 track value scales exactly as c^(2p+2sigma) * P(Q)M(Q)^sigma
    base = None
    for row, c in zip(rows, values):
        track0 = row["threshold_track_initial"]
        scale = c ** (2 * p + 2 * sigma)
        if base is None:
            base = track0 / scale
        assert track0 / scale == pytest.approx(base, rel=1e-12)


def test_sweep_csv_reads_back(tmp_path):
    s = parse_scenario(SCATTER.replace("t_end = 6.0", "t_end = 0.1")
                       .replace("requests = conservation, thresholds, monitor",
                                "requests = thresholds, monitor"))
    # R = 30 lies beyond r_max = 24: a ConfigError whose message holds a comma
    values = [8.0, 30.0, 4.0, 12.0]
    rep = sweep(s, "R", values, out_dir=str(tmp_path))
    with open(rep["csv"], newline="") as fh:
        header, *rows = csv.reader(line for line in fh if not line.startswith("#"))
    assert all(len(row) == len(header) for row in rows)
    assert [float(row[header.index("value")]) for row in rows] == values
    error = header.index("error")
    assert "," in rep["rows"][1]["error"]
    for row, returned in zip(rows, rep["rows"]):
        assert row[error] == returned.get("error", "")
        if not row[error]:
            for name, cell in zip(header, row):
                if name.startswith("threshold_"):
                    float(cell)


def test_sweep_empty(tmp_path):
    s = parse_scenario(MINIMAL)
    rep = sweep(s, "c", [], out_dir=str(tmp_path))
    assert rep["pass"]
    assert os.path.exists(rep["csv"])


@pytest.mark.parametrize("values", [[0.5, 0.5], [1.0000001, 1.0000002]])
def test_sweep_rejects_colliding_tags(tmp_path, monkeypatch, values):
    def forbidden(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(scn, "run_scenario", forbidden)
    s = parse_scenario(MINIMAL)
    with pytest.raises(ValueError, match="share output tags"):
        sweep(s, "c", values, out_dir=str(tmp_path / "sw"))
    assert not (tmp_path / "sw").exists()


def test_sweep_isolates_failures(tmp_path):
    s = parse_scenario(SCATTER.replace("t_end = 6.0", "t_end = 0.1")
                       .replace("requests = conservation, thresholds, monitor",
                                "requests = conservation"))
    rep = sweep(s, "p", [3.0, 1.5], out_dir=str(tmp_path))
    # p = 1.5 violates p >= 2: that run errors, the sibling still completes
    errs = [r for r in rep["rows"] if r.get("error")]
    good = [r for r in rep["rows"] if not r.get("error")]
    assert len(errs) == 1 and len(good) == 1


def test_sweep_rejects_fractional_grid_size(tmp_path):
    rep = sweep(parse_scenario(MINIMAL), "n", [383.5], out_dir=str(tmp_path))
    assert not rep["pass"]
    assert "integer" in rep["rows"][0]["error"]


def test_cli_exponents_json(capsys):
    rc = cli_main(["exponents", "--p", "3", "--gamma", "2", "--json"])
    out = capsys.readouterr().out

    def reject(name):
        raise AssertionError(f"non-JSON constant {name}")

    payload = json.loads(out, parse_constant=reject)
    assert rc == 0
    assert payload["all_pass"]
    assert payload["exponents"]["s_c"] == pytest.approx(0.5, abs=2e-3)
    # k is infinite at (3, 2): written as null, like every other JSON output
    assert payload["exponents"]["k"] is None


@pytest.mark.parametrize("argv, msg", [
    pytest.param(["exponents", "--p", "3", "--gamma", "3.5"], "gamma in (0,3) required",
                 id="exponents-gamma"),
    pytest.param(["exponents", "--p", "2", "--gamma", "2"], "not intercritical",
                 id="exponents-mass-critical"),
    pytest.param(["ground-state", "--p", "3", "--gamma", "3.5"], "gamma in (0,3) required",
                 id="ground-state-gamma"),
    pytest.param(["ground-state", "--p", "2", "--gamma", "2"], "not intercritical",
                 id="ground-state-mass-critical"),
    # a bad grid or tolerance, rejected before anything is built, and a failed solve
    pytest.param(["ground-state", "--p", "3", "--gamma", "2", "--n", "16"], "n=16 too small",
                 id="ground-state-coarse-grid"),
    pytest.param(["ground-state", "--p", "3", "--gamma", "2", "--n", "0"], "n >= 1",
                 id="ground-state-empty-grid"),
    pytest.param(["ground-state", "--p", "3", "--gamma", "2", "--r-max", "nan"], "finite r_max",
                 id="ground-state-nan-radius"),
    pytest.param(["ground-state", "--p", "3", "--gamma", "2", "--tol", "0"], "--tol 0",
                 id="ground-state-zero-tol"),
    pytest.param(["ground-state", "--p", "3", "--gamma", "2", "--r-max", "2"],
                 "ground state: no convergence", id="ground-state-small-domain"),
    # a solve that converges on a grid too coarse for it fails certification
    pytest.param(["ground-state", "--p", "3.5", "--gamma", "1", "--r-max", "30", "--n", "1023"],
                 "ground state: Pohozaev defects too large", id="ground-state-uncertified"),
    # an eps too large for the scattering pairs at (p, gamma)
    pytest.param(["exponents", "--p", "2.05", "--gamma", "1.1", "--eps", "0.05"],
                 "--eps 0.05 at --p 2.05 --gamma 1.1: theta", id="exponents-large-eps"),
    pytest.param(["kato", "--potential", "gaussian:amplitude=1", "--n", "16"], "n=16 too small",
                 id="kato-coarse-grid"),
])
def test_cli_bad_model_is_one_line(tmp_path, capsys, argv, msg):
    with pytest.raises(SystemExit) as exc:
        cli_main(["--output-dir", str(tmp_path / "out"), *argv])
    # a string code exits with status 1 and prints the string alone
    assert isinstance(exc.value.code, str)
    assert msg in exc.value.code and "\n" not in exc.value.code
    assert capsys.readouterr().err == ""
    assert not (tmp_path / "out").exists()


def test_cli_kato(capsys):
    rc = cli_main(["kato", "--potential", "gaussian:amplitude=-1,width=1",
                   "--n", "511", "--r-max", "24"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert not out["nonneg"]
    assert out["negative_part_below_4pi"]
    # an unset amplitude is the command line's 1, not PotentialSpec's 0
    assert _parse_potential_arg("gaussian:width=2") == PotentialSpec("gaussian", 1.0, 2.0)


@pytest.mark.parametrize("spec, word", [
    ("gaussian:amplitdue=-3,width=1", "amplitdue"),
    ("table:amplitude=1", "table"),
])
def test_cli_kato_rejects_unknown_potential(spec, word):
    with pytest.raises(SystemExit, match=word):
        cli_main(["kato", "--potential", spec, "--n", "511", "--r-max", "24"])


def test_cli_evolve_and_sweep(tmp_path, capsys):
    cfg = tmp_path / "scatter.ini"
    cfg.write_text(SCATTER.replace("t_end = 6.0", "t_end = 0.2")
                   .replace("requests = conservation, thresholds, monitor",
                            "requests = conservation, thresholds"))
    rc = cli_main(["--output-dir", str(tmp_path / "out"),
                   "evolve", "--config", str(cfg)])
    capsys.readouterr()
    assert rc == 0
    rc = cli_main(["--output-dir", str(tmp_path / "sw"),
                   "sweep", "--config", str(cfg), "--axis", "dt",
                   "--values", "2e-3,1e-3"])
    capsys.readouterr()
    assert rc == 0


@pytest.mark.parametrize("cmd, extra", [
    ("evolve", []),
    ("sweep", ["--axis", "c", "--values", "0.5"]),
])
def test_cli_config_error_is_one_line(tmp_path, capsys, cmd, extra):
    bad = tmp_path / "bad.ini"
    bad.write_text(MINIMAL + "[evolve]\ndt = on\n")
    with pytest.raises(SystemExit) as exc:
        cli_main(["--output-dir", str(tmp_path / "out"), cmd, "--config", str(bad), *extra])
    # a string code exits with status 1 and prints the string alone
    assert isinstance(exc.value.code, str)
    assert exc.value.code.startswith(f"{bad}: key 'dt' expects")
    assert "\n" not in exc.value.code
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("cmd, extra", [
    ("evolve", []),
    ("sweep", ["--axis", "c", "--values", "0.5"]),
])
def test_cli_missing_config_is_one_line(tmp_path, capsys, cmd, extra):
    with pytest.raises(SystemExit) as exc:
        cli_main(["--output-dir", str(tmp_path / "out"), cmd,
                  "--config", "/nonexistent.ini", *extra])
    assert exc.value.code == "/nonexistent.ini: No such file or directory"
    assert capsys.readouterr().err == ""
    assert not (tmp_path / "out").exists()


def test_cli_blowup_is_one_line(tmp_path):
    # finite data of finite mass whose |u|^p overflows in the first phase substep
    cfg = tmp_path / "huge.ini"
    cfg.write_text(MINIMAL.replace("amplitude = 0.5", "amplitude = 1e110"))
    with pytest.raises(SystemExit) as exc, \
            pytest.warns(RuntimeWarning, match="overflow|invalid value"):
        cli_main(["--output-dir", str(tmp_path / "out"), "evolve", "--config", str(cfg)])
    assert exc.value.code == "evolve: non-finite field detected at t = 0.001"


def test_cli_sweep_rejects_fractional_n(tmp_path):
    cfg = tmp_path / "minimal.ini"
    cfg.write_text(MINIMAL)
    with pytest.raises(SystemExit, match="383.5"):
        cli_main(["--output-dir", str(tmp_path / "sw"), "sweep", "--config", str(cfg),
                  "--axis", "n", "--values", "383.5"])
    assert not (tmp_path / "sw").exists()


def test_morawetz_verdict_identity_defects(tmp_path):
    text = SCATTER.replace("t_end = 6.0", "t_end = 1.0") \
                  .replace("requests = conservation, thresholds, monitor",
                           "requests = morawetz") + "morawetz_R = 6.0\n"
    s = parse_scenario(text)
    rep = run_scenario(s, out_dir=str(tmp_path), tag="m")
    d = rep.verdicts["morawetz"]["identity_defects"]
    assert d["available"]
    # defect is second order in the sampling step with an O(1)-to-O(10) C
    assert d["dz_minus_zp"] <= 100 * d["sample_spacing"] ** 2
    assert d["dzp_minus_zpp"] <= 1000 * d["sample_spacing"] ** 2
