import dataclasses
import json
import os

import numpy as np
import pytest

from hartree_lab import scenario as scn
from hartree_lab.cli import _parse_potential_arg, main as cli_main
from hartree_lab.evolve import BOUNDARY_WARNING
from hartree_lab.exponents import ab_exponents
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


def test_parse_minimal_defaults():
    s = parse_scenario(MINIMAL)
    assert s.model.p == 3.0
    assert s.grid_n == 383
    assert s.potential.is_zero()
    assert s.dt == 1e-3 and s.scheme == "strang"


def test_parse_rejects_small_p():
    with pytest.raises(ConfigError, match="p >= 2"):
        parse_scenario(MINIMAL.replace("p = 3.0", "p = 1.5"))


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_scenario(MINIMAL.replace("amplitude = 0.5", "amplitud = 0.5"))


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
    ("scheme", "[evolve]\nscheme = {}\n", "leapfrog"),
    ("monitor_expect", "[diagnostics]\nmonitor_expect = {}\n", "maybe"),
    ("weight", "[diagnostics]\nweight = {}\n", "cubic"),
])
def test_parse_rejects_bad_choice(key, line, bad):
    # rejected while parsing, before any kernel or ground state is built
    with pytest.raises(ConfigError, match=key):
        parse_scenario(MINIMAL + line.format(bad))
    # the valid spellings still parse
    good = {"scheme": "lie", "monitor_expect": "fail", "weight": "truncated"}[key]
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
])
def test_parse_rejects_before_build(monkeypatch, text, line):
    def forbidden(*args, **kwargs):
        raise AssertionError("built while parsing")

    monkeypatch.setattr(scn, "build_kernel", forbidden)
    monkeypatch.setattr(scn, "solve_ground_state", forbidden)
    with pytest.raises(ConfigError) as err:
        parse_scenario(text)
    assert err.value.line == line


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


def test_run_scenario_deterministic(tmp_path):
    s = parse_scenario(SCATTER)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_scenario(s, out_dir=str(d1), tag="x")
    run_scenario(s, out_dir=str(d2), tag="x")
    assert (d1 / "x_diagnostics.csv").read_bytes() == (d2 / "x_diagnostics.csv").read_bytes()
    j1 = (d1 / "x_summary.json").read_bytes()
    j2 = (d2 / "x_summary.json").read_bytes()
    assert j1 == j2


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
    summary = json.loads((tmp_path / "v_summary.json").read_text())
    assert summary["verdicts"]["conservation"]["available"] is False
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
    s.monitor_expect = "fail"
    rep2 = run_scenario(s, out_dir=str(tmp_path), tag="sol2")
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


def test_cli_exponents_json(capsys):
    rc = cli_main(["exponents", "--p", "3", "--gamma", "2", "--json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert rc == 0
    assert payload["all_pass"]
    assert payload["exponents"]["s_c"] == pytest.approx(0.5, abs=2e-3)


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
