import csv
import dataclasses
import json
import math
import os

import numpy as np
import pytest

from hartree_lab import scenario as scn
from hartree_lab.cli import main as cli_main
from hartree_lab.evolve import BOUNDARY_WARNING
from hartree_lab.exponents import ModelParams, ab_exponents, identity_report, scattering_pairs
from hartree_lab.grid import RadialField, RadialGrid, load_field_csv, save_field_csv
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

[diagnostics]
requests = conservation, thresholds, monitor
monitor_R = 6.0
monitor_eps = 0.6
"""


# a gaussian of width 4 on the SCATTER grid: its tail beyond 5 r_max/8 = 15
# meets the sponge from the first step
WIDE = "kind = gaussian\namplitude = 0.5\nwidth = 4"

# initial data from a field file; {path} is one of the files that
# field_files() writes
FROM_FILE = MINIMAL.replace("kind = gaussian", "kind = file\npath = {path}")


def field_files(tmp_path):
    """A good field file on the MINIMAL grid, four bad copies of it (a nan
    value, a row short, a row over, its rows reversed), an all-zero file
    and a finite file whose mass overflows."""
    grid = RadialGrid(24.0, 383)
    gauss = np.exp(-grid.nodes**2)
    for name, values in (("good", gauss), ("zero", 0 * gauss), ("huge", 1e200 * gauss)):
        save_field_csv(RadialField(grid, values), tmp_path / f"{name}.csv")
    rows = (tmp_path / "good.csv").read_text().splitlines(keepends=True)
    nan_row = rows[11].split(",")[0] + ",nan,0.0\n"  # on its own node
    for name, text in (("nan", rows[:11] + [nan_row] + rows[12:]), ("short", rows[:-1]),
                       ("long", rows + rows[-1:]), ("reversed", rows[:2] + rows[:1:-1])):
        (tmp_path / f"{name}.csv").write_text("".join(text))
    return {name: tmp_path / f"{name}.csv"
            for name in ("good", "nan", "short", "long", "reversed", "zero", "huge")}


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
                 MINIMAL + "[evolve]\nscheme = strang\n",
                 # no run reads the scattering-pair perturbation eps
                 MINIMAL.replace("gamma = 2.0", "gamma = 2.0\neps = 1e-3"),
                 # the sponge has one profile: it is on or off
                 *(MINIMAL + f"[evolve]\nsponge = on\n{key} = 4\n"
                   for key in ("sponge_start", "sponge_strength", "sponge_power")),
                 # the monitor passes when it crosses; no key flips that
                 MINIMAL + "[diagnostics]\nmonitor_expect = fail\n",
                 # the ball columns are the monitor's, at monitor_R
                 MINIMAL + "[diagnostics]\nball_radii = 5\n"):
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
    ("weight", "[diagnostics]\nweight = {}\n", "cubic"),
])
def test_parse_rejects_bad_choice(key, line, bad):
    # rejected while parsing, before any kernel or ground state is built
    with pytest.raises(ConfigError, match=key):
        parse_scenario(MINIMAL + line.format(bad))
    # the valid spellings still parse
    good = {"weight": "truncated"}[key]
    assert getattr(parse_scenario(MINIMAL + line.format(good)), key) == good


@pytest.mark.parametrize("text, line", [
    pytest.param(MINIMAL + "[evolve]\ndt = on\n", 15, id="dt-on"),  # on/off is not a number
    pytest.param(MINIMAL.replace("n = 383", "n = 383.5"), 8, id="n-fraction"),
    pytest.param(MINIMAL.replace("p = 3.0", "p = inf"), 3, id="p-inf"),
    pytest.param(MINIMAL + "[evolve]\ndt = nan\n", 15, id="dt-nan"),
    # the document's own grammar
    pytest.param(MINIMAL + "[evolve\n", 14, id="unterminated-section"),
    pytest.param(MINIMAL + "[model]\n", 14, id="duplicate-section"),
    pytest.param(MINIMAL + "[evolve]\ndt\n", 15, id="line-without-equals"),
    pytest.param("p = 3.0\n" + MINIMAL, 1, id="key-outside-section"),
    pytest.param(MINIMAL.replace("gamma = 2.0\n", ""), None, id="model-without-gamma"),
    pytest.param(MINIMAL + "[evolve]\nsample_every = 0\n", None, id="sample_every-zero"),
    pytest.param(MINIMAL + "[evolve]\nsample_every = 2.5\n", 15, id="sample_every-fraction"),
    pytest.param(MINIMAL + "[evolve]\ndt = -1e-3\n", None, id="dt-negative"),
    pytest.param(MINIMAL + "[diagnostics]\nmorawetz_R = 10, abc\n", 15, id="morawetz_R-text"),
    # a truncated weight needs weight_R in (0, r_max)
    pytest.param(MINIMAL + "[diagnostics]\nweight = truncated\nweight_R = 50\n", None,
                 id="weight_R-beyond-r_max"),
    # a negative Morawetz radius would run to a negative bound_shape
    pytest.param(MINIMAL + "[diagnostics]\nrequests = morawetz\nmorawetz_R = -5\n", None,
                 id="morawetz_R-negative"),
    # width 0 gives a zero field; -1 would run as +1
    pytest.param(MINIMAL.replace("width = 1.0", "width = 0"), None, id="initial_width-zero"),
    pytest.param(MINIMAL.replace("width = 1.0", "width = -1"), None,
                 id="initial_width-negative"),
    # eps^2 = 0 can never be crossed
    pytest.param(MINIMAL + "[diagnostics]\nrequests = monitor\nmonitor_eps = 0\n", None,
                 id="monitor_eps-zero"),
    pytest.param(FROM_FILE.format(path="{nan}"), None, id="file-nan"),
    pytest.param(FROM_FILE.format(path="{short}"), None, id="file-truncated"),
    pytest.param(FROM_FILE.format(path="{long}"), None, id="file-extra-rows"),
    # every row on the grid, but each at another node's radius
    pytest.param(FROM_FILE.format(path="{reversed}"), None, id="file-rows-reversed"),
    pytest.param(FROM_FILE.format(path="{good}.missing"), None, id="file-missing"),
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
    # 10.5 steps of dt: the run would stop at t = 0.1 and its verdicts read 0.105
    pytest.param(MINIMAL + "[evolve]\nt_end = 0.105\ndt = 0.01\n", None,
                 id="t_end-not-whole-steps"),
    # radii that print the same under :g would name two columns alike
    pytest.param(MINIMAL + "[diagnostics]\nrequests = morawetz\nmorawetz_R = 10, 10.0000001\n",
                 None, id="morawetz_R-same-label"),
    # a cutoff radius at most 2 dr = 0.125 lacks a node on its plateau or
    # on its ramp: every ball mass, flux and localized energy on it reads 0
    # or near it
    pytest.param(MINIMAL + "[diagnostics]\nrequests = monitor\nmonitor_R = 0.01\n", None,
                 id="monitor_R-empty-cutoff"),
    pytest.param(MINIMAL + "[diagnostics]\nrequests = thresholds\ncoercivity_R = 0.01\n", None,
                 id="coercivity_R-empty-cutoff"),
    pytest.param(MINIMAL + "[diagnostics]\nrequests = morawetz\nmorawetz_R = 10, 0.125\n", None,
                 id="morawetz_R-at-two-dr"),
    # a run that needs Q needs an intercritical (p, gamma)
    pytest.param(MINIMAL.replace("p = 3.0", "p = 2.0") + "[diagnostics]\nrequests = thresholds\n",
                 None, id="thresholds-not-intercritical"),
    pytest.param(MINIMAL.replace("p = 3.0", "p = 2.0").replace("kind = gaussian",
                                                               "kind = ground_state"),
                 None, id="ground_state-not-intercritical"),
    # a run that requests nothing would check nothing and pass
    pytest.param(MINIMAL + "[diagnostics]\nrequests =\n", None, id="requests-empty"),
])
def test_parse_rejects_before_build(monkeypatch, tmp_path, text, line):
    def forbidden(*args, **kwargs):
        raise AssertionError("built while parsing")

    monkeypatch.setattr(scn, "build_kernel", forbidden)
    monkeypatch.setattr(scn, "solve_ground_state", forbidden)
    with pytest.raises(ConfigError) as err:
        parse_scenario(text.format(**field_files(tmp_path)))
    assert err.value.line == line


def test_parse_checks_only_what_the_run_reads():
    # 2 dr = 0.125 on the MINIMAL grid; just above it a cutoff holds one
    # node on its plateau and one on its ramp
    s = parse_scenario(MINIMAL + "[diagnostics]\nrequests = monitor\nmonitor_R = 0.13\n")
    assert s.monitor_R == 0.13
    with pytest.raises(ConfigError, match=r"monitor_R = 0.125 outside \(2 dr, r_max\] = "
                                          r"\(0.125, 24\]"):
        parse_scenario(MINIMAL + "[diagnostics]\nrequests = monitor\nmonitor_R = 0.125\n")
    # a radius no request reads, and a (p, gamma) off the intercritical
    # range in a run that never solves for Q, parse
    assert parse_scenario(MINIMAL + "[diagnostics]\nmonitor_R = 0.01\n").monitor_R == 0.01
    assert not parse_scenario(MINIMAL.replace("p = 3.0", "p = 2.0")).needs_ground_state


def test_file_initial_data(tmp_path, monkeypatch):
    files = field_files(tmp_path)
    with pytest.raises(ConfigError, match="non-finite field value on line 12"):
        parse_scenario(FROM_FILE.format(path=files["nan"]))
    # each row sits on its own node, and the file holds the n rows it declares
    with pytest.raises(ConfigError, match=r"^initial data file .*: r = 23\.9375 on line 3 "
                                          r"is not the grid node 0\.0625$"):
        parse_scenario(FROM_FILE.format(path=files["reversed"]))
    with pytest.raises(ConfigError, match="field file has 384 rows, its header says 383$"):
        parse_scenario(FROM_FILE.format(path=files["long"]))
    # the run starts from the field checked at parse: the file is read once,
    # and rewriting it after the parse does not change the run
    reads, load = [], scn.load_field_csv
    monkeypatch.setattr(scn, "load_field_csv", lambda *a: reads.append(a) or load(*a))
    s = parse_scenario(FROM_FILE.format(path=files["good"]) + "[evolve]\nt_end = 0.01\n")
    files["good"].write_text(files["zero"].read_text())
    run_scenario(s, out_dir=str(tmp_path), tag="file")
    assert len(reads) == 1
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
    assert rep["pass"]
    assert rep["verdicts"]["thresholds"]["pass"]
    assert rep["verdicts"]["thresholds"]["theorem_applies"]
    assert rep["verdicts"]["coercivity_final"]["theorem_applies"]
    assert rep["verdicts"]["monitor"]["pass"]
    assert (tmp_path / "scatter_summary.json").exists()
    csv = (tmp_path / "scatter_diagnostics.csv").read_text().splitlines()
    assert csv[0].startswith("# hartree-lab-diagnostics")
    header = csv[2].split(",")
    assert header[:10] == ["t", "M", "E", "E0", "P", "grad_sq", "lambda_sq",
                           "z", "zp", "zpp"]


def test_threshold_verdict_needs_theorem_hypotheses(tmp_path, capsys):
    # an attractive well: every threshold condition holds, but V < 0 breaks
    # the theorem's hypotheses, so the threshold verdict cannot pass
    text = (SCATTER.replace("n = 383", "n = 1023").replace("c = 0.5", "c = 0.3")
            .replace("t_end = 6.0", "t_end = 0.2")
            + "\n[potential]\nkind = gaussian\namplitude = -4.0\nwidth = 1.0\n")
    rep = run_scenario(parse_scenario(text), out_dir=str(tmp_path), tag="well")
    th = rep["verdicts"]["thresholds"]
    assert th["mass_energy_condition"] and th["grad_mass_condition"]
    assert th["sup_grad_mass_below"] and th["track_below_threshold"]
    assert th["theorem_applies"] is False and th["pass"] is False
    assert rep["verdicts"]["coercivity_final"]["theorem_applies"] is False
    assert rep["pass"] is False and "thresholds" in rep["failures"]
    # the summary's hypotheses block is the record `hartree-lab kato` prints
    summary = json.loads((tmp_path / "well_summary.json").read_text())
    assert summary["format_version"] == 9
    cfg = tmp_path / "well.ini"
    cfg.write_text(text)
    assert cli_main(["kato", "--config", str(cfg)]) == 0
    assert summary["hypotheses"] == json.loads(capsys.readouterr().out)
    assert not summary["hypotheses"]["theorem_hypotheses_pass"]
    assert not set(summary["hypotheses"]["checks"]) & set(summary["hypotheses"])


def test_diagnostics_header_pinned(tmp_path):
    # the ball and flux columns are the monitor's, at monitor_R; the Morawetz
    # radii are sorted, and an exact repeat among them is one column
    text = (SCATTER.replace("t_end = 6.0", "t_end = 0.1")
            .replace("requests = conservation, thresholds, monitor",
                     "requests = conservation, monitor, morawetz")
            .replace("monitor_R = 6.0", "monitor_R = 10\nmorawetz_R = 12, 6, 6"))
    run_scenario(parse_scenario(text), out_dir=str(tmp_path), tag="h")
    rows = list(csv.reader((tmp_path / "h_diagnostics.csv").read_text().splitlines()[2:]))
    assert rows[0] == ["t", "M", "E", "E0", "P", "grad_sq", "lambda_sq", "z", "zp", "zpp",
                       "mass_in_ball_10", "exported_mass", "threshold_track",
                       "eta_flux_10", "p_chi_6", "p_chi_12"]
    assert len(rows) > 2
    assert all(len(row) == 16 for row in rows)
    # without the monitor there is no ball column
    run_scenario(parse_scenario(text.replace("conservation, monitor, morawetz",
                                             "conservation, morawetz")),
                 out_dir=str(tmp_path), tag="m")
    header = (tmp_path / "m_diagnostics.csv").read_text().splitlines()[2].split(",")
    assert header == [*rows[0][:10], "exported_mass", "threshold_track", "p_chi_6", "p_chi_12"]


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
    saved = load_field_csv(tmp_path / "f_final_field.csv", traj.final.grid)
    assert np.array_equal(saved.values, traj.final.values)


def test_conservation_verdict_not_vacuous(tmp_path):
    # the sponge absorbs mass of the wide packet before the second sample,
    # so only t = 0 is pre-export: no drift is measured and nothing may pass
    s = parse_scenario(SCATTER.replace("t_end = 6.0", "t_end = 0.2")
                       .replace("kind = ground_state\nc = 0.5", WIDE)
                       .replace("requests = conservation, thresholds, monitor",
                                "requests = conservation"))
    rep = run_scenario(s, out_dir=str(tmp_path), tag="v")
    cons = rep["verdicts"]["conservation"]
    assert cons["samples_pre_export"] == 1
    assert cons["available"] is False and cons["pass"] is False
    assert np.isnan(cons["mass_drift"]) and np.isnan(cons["energy_drift"])
    assert rep["pass"] is False and rep["failures"] == ["conservation"]
    # strict JSON: the unmeasured drifts are written as null, not as NaN
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    summary = json.loads((tmp_path / "v_summary.json").read_text(), parse_constant=reject)
    assert summary["verdicts"]["conservation"]["available"] is False
    assert summary["verdicts"]["conservation"]["mass_drift"] is None
    assert summary["pass"] is False


def test_run_scenario_returns_its_summary(tmp_path):
    # a wide packet in the sponge leaves the conservation drifts unmeasured
    # (NaN), which the JSON writes as null; everything else reads back as
    # returned
    s = parse_scenario(SCATTER.replace("t_end = 6.0", "t_end = 0.2")
                       .replace("kind = ground_state\nc = 0.5", WIDE))
    summary = run_scenario(s, out_dir=str(tmp_path), tag="r")

    def nan_as_none(x):
        if isinstance(x, dict):
            return {k: nan_as_none(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [nan_as_none(v) for v in x]
        return None if isinstance(x, float) and math.isnan(x) else x

    assert math.isnan(summary["verdicts"]["conservation"]["mass_drift"])
    assert nan_as_none(summary) == json.loads((tmp_path / "r_summary.json").read_text())
    assert set(summary["verdicts"]) == {"conservation", "thresholds", "coercivity_final",
                                        "monitor"}


def test_soliton_negative_control_expectation(tmp_path):
    # the soliton never evacuates: the monitor does not cross, so it fails
    text = SCATTER.replace("c = 0.5", "c = 1.0") \
                  .replace("monitor_eps = 0.6", "monitor_eps = 0.05") \
                  .replace("requests = conservation, thresholds, monitor",
                           "requests = conservation, monitor") \
                  .replace("t_end = 6.0", "t_end = 1.0")
    s = parse_scenario(text)
    rep = run_scenario(s, out_dir=str(tmp_path), tag="sol")
    assert rep["verdicts"]["monitor"]["crossed"] is False
    assert rep["verdicts"]["monitor"]["rate_bound_pass"]
    assert rep["verdicts"]["monitor"]["pass"] is False
    assert rep["pass"] is False and rep["failures"] == ["monitor"]


def test_monitor_flux_bound_fails_a_crossed_run(tmp_path, monkeypatch):
    # a flux above its Cauchy-Schwarz bound fails the verdict, however low
    # the ball mass falls
    def broken_bound(*args):
        return {"crossed": True, "rate_bound_pass": False}

    monkeypatch.setattr(scn, "scattering_monitor", broken_bound)
    text = (SCATTER.replace("t_end = 6.0", "t_end = 0.1")
            .replace("requests = conservation, thresholds, monitor",
                     "requests = conservation, monitor"))
    rep = run_scenario(parse_scenario(text), out_dir=str(tmp_path), tag="flux")
    assert rep["verdicts"]["monitor"]["pass"] is False
    assert "monitor" in rep["failures"]


@pytest.mark.parametrize("requests", ["conservation, monitor", "conservation, morawetz"])
def test_gaussian_run_without_thresholds_skips_the_solve(tmp_path, monkeypatch, requests):
    # the monitor reads no Q, and the Morawetz average only B of (p, gamma)
    def forbidden(*args, **kwargs):
        raise AssertionError("solved for Q")

    monkeypatch.setattr(scn, "solve_ground_state", forbidden)
    text = (MINIMAL + "\n[evolve]\ndt = 1e-2\nt_end = 0.5\nsample_every = 5\n"
            f"\n[diagnostics]\nrequests = {requests}\nmorawetz_R = 6\n")
    s = parse_scenario(text)
    assert not s.needs_ground_state
    rep = run_scenario(s, out_dir=str(tmp_path), tag="g")
    assert rep["thresholds"] == {} and rep["verdicts"]["conservation"]["pass"]
    assert set(rep["verdicts"]) == {"conservation", requests.split(", ")[1]}
    # B is defined only on the intercritical range, so a Morawetz run still
    # needs it there
    if "morawetz" in requests:
        with pytest.raises(ConfigError, match="not intercritical"):
            parse_scenario(text.replace("p = 3.0", "p = 2.0"))


def test_sweep_threshold_column(tmp_path):
    s = parse_scenario(SCATTER.replace("t_end = 6.0", "t_end = 0.1")
                       .replace("requests = conservation, thresholds, monitor",
                                "requests = conservation, thresholds"))
    values = [0.3, 0.5, 0.8]
    # c = 1e110 overflows in the first step: a collapsed run, not an error;
    # its threshold track is NaN from t = 0, where P overflows, so it has no sup
    with pytest.warns(RuntimeWarning, match="overflow|invalid value") as caught:
        rep = sweep(s, "c", values + [1e110], out_dir=str(tmp_path))
    assert not [w for w in caught if "All-NaN slice" in str(w.message)]
    *rows, huge = rep["rows"]
    assert [row["exit_code"] for row in rows] == [0, 0, 0]
    assert huge["exit_code"] == 1 and "error" not in huge
    assert np.isnan(huge["threshold_sup_track"])
    summary = json.loads((tmp_path / "c_1e+110" / "c_1e+110_summary.json").read_text())
    assert summary["thresholds"]["sup_track"] is None
    assert summary["verdicts"]["thresholds"]["track_below_threshold"] is False
    assert not rep["pass"]
    A, B, sigma = ab_exponents(s.model)
    p = s.model.p
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
    rep = sweep(s, "dt", [], out_dir=str(tmp_path))
    assert rep["pass"]
    assert os.path.exists(rep["csv"])


@pytest.mark.parametrize("values", [[0.5, 0.5], [1.0000001, 1.0000002]])
def test_sweep_rejects_colliding_tags(tmp_path, monkeypatch, values):
    def forbidden(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(scn, "run_scenario", forbidden)
    s = parse_scenario(MINIMAL)
    with pytest.raises(ValueError, match="share output tags"):
        sweep(s, "gamma", values, out_dir=str(tmp_path / "sw"))
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("text, axis", [
    pytest.param(MINIMAL, "c", id="c-gaussian-data"),
    pytest.param(MINIMAL.replace("kind = gaussian", "kind = ground_state"), "R",
                 id="R-without-monitor"),
])
def test_sweep_rejects_an_axis_the_scenario_does_not_read(tmp_path, monkeypatch, text, axis):
    # c scales only ground_state data and R is only the monitor's radius:
    # elsewhere every run of the sweep would be the same run
    def forbidden(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(scn, "run_scenario", forbidden)
    with pytest.raises(ValueError, match=f"axis {axis} sets .*, which this scenario does not "
                                         "read"):
        sweep(parse_scenario(text), axis, [0.3, 0.5], out_dir=str(tmp_path / "sw"))
    assert not (tmp_path / "sw").exists()


def test_sweep_rejects_unknown_axis(tmp_path):
    with pytest.raises(ValueError, match="axis must be one of"):
        sweep(parse_scenario(MINIMAL), "x", [0.5], out_dir=str(tmp_path / "sw"))
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


# a scenario document of the model alone, for the subcommands that read
# only [model] (and [grid])
MODEL = "[model]\np = {p}\ngamma = {gamma}\n"


def test_cli_exponents_json(tmp_path, capsys):
    cfg = tmp_path / "model.ini"
    cfg.write_text(MODEL.format(p=3, gamma=2))
    rc = cli_main(["exponents", "--config", str(cfg)])
    out = capsys.readouterr().out

    def reject(name):
        raise AssertionError(f"non-JSON constant {name}")

    payload = json.loads(out, parse_constant=reject)
    assert rc == 0
    assert payload["all_pass"]
    assert payload["exponents"]["s_c"] == pytest.approx(0.5, abs=2e-3)
    # k is infinite at (3, 2): written as null, like every other JSON output
    assert payload["exponents"]["k"] is None


@pytest.mark.parametrize("p, gamma, eps", [(3.0, 2.0, 0.0), (2.4, 2.0, 1e-3), (4.75, 2.0, 1e-3)])
def test_cli_exponents_prints_the_records(tmp_path, capsys, p, gamma, eps):
    # `exponents` prints scattering_pairs and identity_report as they are
    cfg = tmp_path / "model.ini"
    cfg.write_text(MODEL.format(p=p, gamma=gamma))
    rc = cli_main(["exponents", "--config", str(cfg), "--eps", str(eps)])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    params = ModelParams(p, gamma)
    pairs = scattering_pairs(params, eps)
    assert set(payload["exponents"]) == set(pairs)
    for name, value in pairs.items():
        assert payload["exponents"][name] == (None if value == math.inf else value), name
    assert payload["identities"] == identity_report(params, eps)


@pytest.mark.parametrize("cmd, text, extra, msg", [
    pytest.param("exponents", MODEL.format(p=3, gamma=3.5), [], "gamma in (0,3) required",
                 id="exponents-gamma"),
    pytest.param("exponents", MODEL.format(p=2, gamma=2), [],
                 "p = 2.0, gamma = 2.0 outside (5+gamma)/3 < p < 3+gamma: not intercritical",
                 id="exponents-mass-critical"),
    pytest.param("ground-state", MODEL.format(p=3, gamma=3.5), [], "gamma in (0,3) required",
                 id="ground-state-gamma"),
    pytest.param("ground-state", MODEL.format(p=2, gamma=2), [],
                 "p = 2.0, gamma = 2.0 outside (5+gamma)/3 < p < 3+gamma: not intercritical",
                 id="ground-state-mass-critical"),
    # p = (5 + gamma)/3 up to rounding, where s_c rounds to 2.2e-16 > 0: the
    # range test is intercritical's, the one the solve reads
    pytest.param("ground-state", MODEL.format(p=2.0003380031131868, gamma=1.0010140093395599)
                 + "[grid]\nr_max = 20\nn = 511\n", [], "not intercritical",
                 id="ground-state-boundary"),
    # a bad grid, rejected at parse, and a failed solve
    pytest.param("ground-state", MODEL.format(p=3, gamma=2) + "[grid]\nn = 16\n", [],
                 "n=16 too small", id="ground-state-coarse-grid"),
    pytest.param("ground-state", MODEL.format(p=3, gamma=2) + "[grid]\nn = 0\n", [],
                 "n >= 1", id="ground-state-empty-grid"),
    pytest.param("ground-state", MODEL.format(p=3, gamma=2) + "[grid]\nr_max = nan\n", [],
                 "key 'r_max' expects a finite number", id="ground-state-nan-radius"),
    # the solve converges on the ball r <= 2, but Q there has not decayed
    pytest.param("ground-state", MODEL.format(p=3, gamma=2) + "[grid]\nr_max = 2\nn = 3071\n",
                 [], "ground state: Q has not decayed", id="ground-state-small-domain"),
    # a solve that converges on a grid too coarse for it fails certification
    pytest.param("ground-state", MODEL.format(p=3.5, gamma=1)
                 + "[grid]\nr_max = 30\nn = 1023\n", [],
                 "ground state: Pohozaev defects too large", id="ground-state-uncertified"),
    # an eps too large for the scattering pairs at (p, gamma)
    pytest.param("exponents", MODEL.format(p=2.05, gamma=1.1), ["--eps", "0.05"],
                 "--eps 0.05 at p = 2.05, gamma = 1.1: theta", id="exponents-large-eps"),
    # an eps outside [0, 1/10), rejected by the pairs that read it
    pytest.param("exponents", MODEL.format(p=3, gamma=2), ["--eps", "0.2"],
                 "--eps 0.2 at p = 3, gamma = 2: epsilon in [0, 1/10) required",
                 id="exponents-eps-out-of-range"),
])
def test_cli_bad_model_is_one_line(tmp_path, capsys, cmd, text, extra, msg):
    cfg = tmp_path / "model.ini"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli_main(["--output-dir", str(tmp_path / "out"), cmd, "--config", str(cfg), *extra])
    # a string code exits with status 1 and prints the string alone
    assert isinstance(exc.value.code, str)
    assert msg in exc.value.code and "\n" not in exc.value.code
    assert capsys.readouterr().err == ""
    assert not (tmp_path / "out").exists()


def test_cli_ground_state_takes_no_eps(tmp_path, capsys):
    # the solve never reads eps: only `exponents` takes --eps
    cfg = tmp_path / "model.ini"
    cfg.write_text(MODEL.format(p=3, gamma=2))
    with pytest.raises(SystemExit) as exc:
        cli_main(["--output-dir", str(tmp_path / "out"), "ground-state", "--config", str(cfg),
                  "--eps", "0.01"])
    assert exc.value.code == 2  # argparse's usage error
    assert "unrecognized arguments: --eps 0.01" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, usage", [
    ([], "[-h] [--output-dir OUTPUT_DIR] {exponents,kato,ground-state,evolve,sweep} ..."),
    (["exponents"], "exponents [-h] --config CONFIG [--eps EPS]"),
    (["kato"], "kato [-h] --config CONFIG"),
    (["ground-state"], "ground-state [-h] --config CONFIG"),
    (["evolve"], "evolve [-h] --config CONFIG [--tag TAG]"),
    (["sweep"], "sweep [-h] --config CONFIG --axis {c,p,gamma,R,dt,n} --values VALUES"),
])
def test_cli_usage_pinned(capsys, monkeypatch, argv, usage):
    # every option of every subcommand: a new or lost one shows here
    monkeypatch.setenv("COLUMNS", "200")  # one usage line, unwrapped
    with pytest.raises(SystemExit) as exc:
        cli_main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == f"usage: hartree-lab {usage}"


def test_cli_ground_state_fine_grid(tmp_path, capsys):
    # dr = 2e-3 certifies: the residual is read off the sine coefficients
    cfg = tmp_path / "fine.ini"
    cfg.write_text(MODEL.format(p=3, gamma=2) + "[grid]\nr_max = 32\nn = 16383\n")
    out = tmp_path / "out"
    rc = cli_main(["--output-dir", str(out), "ground-state", "--config", str(cfg)])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0 and payload["residual"] <= 1e-9
    assert payload["threshold_functions"]["pass"]
    assert (out / "ground_state.csv").exists()


def test_cli_ground_state_is_the_runs(tmp_path, capsys):
    # ground-state solves Q for the scenario's model on its grid, as the run
    # does: its thresholds are the run's, bit for bit
    cfg = tmp_path / "scatter.ini"
    cfg.write_text(SCATTER)
    assert cli_main(["--output-dir", str(tmp_path / "gs"), "ground-state",
                     "--config", str(cfg)]) == 0
    printed = json.loads(capsys.readouterr().out)["thresholds"]
    summary = run_scenario(parse_scenario(SCATTER), out_dir=str(tmp_path / "run"))
    run = {k: v for k, v in summary["thresholds"].items()
           if k not in ("sup_track", "track_initial")}
    assert printed and set(printed) == set(run)
    for name, value in run.items():
        assert printed[name] == value and type(printed[name]) is float, name


def test_cli_kato(tmp_path, capsys):
    cfg = tmp_path / "well.ini"
    cfg.write_text(MINIMAL + "[potential]\nkind = gaussian\namplitude = -1\nwidth = 1\n")
    rc = cli_main(["kato", "--config", str(cfg)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert not out["checks"]["nonneg"]
    assert out["checks"]["negative_part_below_4pi"]


def test_cli_kato_slow_softpower_fails(tmp_path, capsys):
    # V = 1/(1+r) lies outside L^{3/2} and the Kato class
    cfg = tmp_path / "slow.ini"
    cfg.write_text(MINIMAL + "[potential]\nkind = softpower\namplitude = 1\npower = 1\n"
                   "core = 1\n")
    rc = cli_main(["kato", "--config", str(cfg)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["checks"]["nonneg"] and out["checks"]["x_grad_V_nonpositive"]
    assert out["checks"]["decays"] is False
    assert out["theorem_hypotheses_pass"] is False


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


DT_ON = MINIMAL + "[evolve]\ndt = on\n"


@pytest.mark.parametrize("cmd, extra, text, msg", [
    pytest.param("evolve", [], DT_ON, "key 'dt' expects", id="evolve-extra0"),
    pytest.param("sweep", ["--axis", "c", "--values", "0.5"], DT_ON, "key 'dt' expects",
                 id="sweep-extra1"),
    # the run scales Q, which exists only on the intercritical range
    pytest.param("evolve", [], SCATTER.replace("p = 3.0", "p = 2.0"),
                 "p = 2, gamma = 2 is not intercritical", id="evolve-not-intercritical"),
    # kato audits the potential of a scenario that parses
    pytest.param("kato", [], MINIMAL.replace("n = 383", "n = 16"),
                 "quadrature weights deviate from ball volume by >1% (n=16 too small)",
                 id="kato-coarse-grid"),
    pytest.param("kato", [], MINIMAL + "[potential]\nkind = gaussian\namplitdue = -3\n",
                 "unknown key 'amplitdue' in [potential]", id="kato-unknown-key"),
    pytest.param("kato", [], MINIMAL + "[potential]\nkind = table\n",
                 "table kind needs radii and values", id="kato-table-without-values"),
    pytest.param("evolve", [], MINIMAL + "[diagnostics]\nrequests =\n",
                 "requests must list one or more of conservation, morawetz, monitor, thresholds",
                 id="evolve-empty-requests"),
])
def test_cli_config_error_is_one_line(tmp_path, capsys, cmd, extra, text, msg):
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli_main(["--output-dir", str(tmp_path / "out"), cmd, "--config", str(bad), *extra])
    # a string code exits with status 1 and prints the string alone
    assert isinstance(exc.value.code, str)
    assert exc.value.code.startswith(f"{bad}: {msg}")
    assert "\n" not in exc.value.code
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("cmd, extra", [
    ("evolve", []),
    ("sweep", ["--axis", "c", "--values", "0.5"]),
    ("kato", []),
    ("ground-state", []),
    ("exponents", []),
])
def test_cli_missing_config_is_one_line(tmp_path, capsys, cmd, extra):
    with pytest.raises(SystemExit) as exc:
        cli_main(["--output-dir", str(tmp_path / "out"), cmd,
                  "--config", "/nonexistent.ini", *extra])
    assert exc.value.code == "/nonexistent.ini: No such file or directory"
    assert capsys.readouterr().err == ""
    assert not (tmp_path / "out").exists()


def test_cli_collapse_is_a_failing_verdict(tmp_path, capsys):
    # finite data of finite mass whose |u|^p overflows in the first phase
    # substep: the run ends on the first sample after it, t = 50 dt
    cfg = tmp_path / "huge.ini"
    cfg.write_text(MINIMAL.replace("amplitude = 0.5", "amplitude = 1e110"))
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning, match="overflow|invalid value"):
        rc = cli_main(["--output-dir", str(out), "evolve", "--config", str(cfg)])
    assert rc == 1
    assert "collapse" in json.loads(capsys.readouterr().out)["failures"]
    with open(out / "run_diagnostics.csv") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    s = parse_scenario(cfg.read_text())
    assert float(rows[-1]["t"]) == 50 * s.dt and len(rows) == 2
    assert not np.isfinite(float(rows[-1]["M"]))
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["format_version"] == 9
    assert summary["verdicts"]["collapse"] == {"collapse_time": 50 * s.dt, "pass": False}
    # E is NaN from t = 0: no sample is in the pre-export window, so no drift is measured
    cons = summary["verdicts"]["conservation"]
    assert cons["available"] is False and cons["samples_pre_export"] == 0
    assert cons["pass"] is False


def test_cli_overflowing_ground_state_is_one_line(tmp_path, capsys, monkeypatch):
    # the parser cannot check the mass of c Q before the solve; the run
    # refuses it before any step, and writes nothing
    cfg = tmp_path / "huge.ini"
    cfg.write_text(MINIMAL.replace("kind = gaussian", "kind = ground_state\nc = 1e200"))
    monkeypatch.setattr(scn, "evolve", lambda *a: pytest.fail("evolve ran"))
    with pytest.raises(SystemExit) as exc:
        cli_main(["--output-dir", str(tmp_path / "out"), "evolve", "--config", str(cfg)])
    assert exc.value.code == f"{cfg}: mass M(0) = inf is not in (0, inf)"
    assert capsys.readouterr().out == ""
    assert list((tmp_path / "out").iterdir()) == []


def test_cli_sweep_rejects_fractional_n(tmp_path):
    cfg = tmp_path / "minimal.ini"
    cfg.write_text(MINIMAL)
    with pytest.raises(SystemExit, match="383.5"):
        cli_main(["--output-dir", str(tmp_path / "sw"), "sweep", "--config", str(cfg),
                  "--axis", "n", "--values", "383.5"])
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("axis, values, msg", [
    pytest.param("c", "0.3,0.5", "--axis c --values 0.3,0.5: axis c sets initial_c, which "
                 "this scenario does not read", id="axis-not-read"),
    pytest.param("dt", "1e-3,0.001", "--axis dt --values 1e-3,0.001: sweep values "
                 "[0.001, 0.001] share output tags", id="colliding-tags"),
])
def test_cli_sweep_rejects_before_any_run(tmp_path, capsys, axis, values, msg):
    cfg = tmp_path / "minimal.ini"
    cfg.write_text(MINIMAL)
    with pytest.raises(SystemExit) as exc:
        cli_main(["--output-dir", str(tmp_path / "sw"), "sweep", "--config", str(cfg),
                  "--axis", axis, "--values", values])
    assert isinstance(exc.value.code, str)
    assert exc.value.code.startswith(msg) and "\n" not in exc.value.code
    assert capsys.readouterr().err == ""
    assert not (tmp_path / "sw").exists()


def test_morawetz_verdict_identity_defects(tmp_path):
    text = SCATTER.replace("t_end = 6.0", "t_end = 1.0") \
                  .replace("requests = conservation, thresholds, monitor",
                           "requests = morawetz") + "morawetz_R = 6.0\n"
    s = parse_scenario(text)
    rep = run_scenario(s, out_dir=str(tmp_path), tag="m")
    d = rep["verdicts"]["morawetz"]["identity_defects"]
    assert d["available"]
    # defect is second order in the sampling step with an O(1)-to-O(10) C
    assert d["dz_minus_zp"] <= 100 * d["sample_spacing"] ** 2
    assert d["dzp_minus_zpp"] <= 1000 * d["sample_spacing"] ** 2


def test_identity_defects_second_order_on_short_last_interval(tmp_path):
    # t_end is not a multiple of the sample spacing 0.1, so the last
    # interval is short; the derivative stays second order there
    def defects(t_end):
        text = SCATTER.replace("t_end = 6.0", f"t_end = {t_end}") \
                      .replace("requests = conservation, thresholds, monitor",
                               "requests = morawetz") + "morawetz_R = 6.0\n"
        rep = run_scenario(parse_scenario(text), out_dir=str(tmp_path), tag=f"t{t_end}")
        return rep["verdicts"]["morawetz"]["identity_defects"]

    even = defects(1.0)
    for t_end in (1.002, 1.05):
        d = defects(t_end)
        assert d["sample_spacing"] == even["sample_spacing"]
        assert d["C_dz"] <= 2 * even["C_dz"], t_end
        assert d["C_dzp"] <= 2 * even["C_dzp"], t_end
