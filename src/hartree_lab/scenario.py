"""Scenario configuration, orchestration, sweeps, and bit-stable output.

The config grammar is a flat INI-like document:

    [model]
    p = 3.0
    gamma = 2.0
    # eps = 1e-3

    [grid]
    r_max = 40.0
    n = 2047

    [potential]
    kind = gaussian
    amplitude = 0.2
    width = 2.0

    [initial]
    kind = ground_state
    c = 0.5

    [evolve]
    dt = 1e-3
    t_end = 30.0
    sponge = on

    [diagnostics]
    requests = conservation, monitor, thresholds
    monitor_R = 10.0
    monitor_eps = 0.3

Unknown keys and duplicate keys are errors (no silent defaults for
misspellings).  Outputs are a diagnostics CSV plus a JSON summary, both
carrying a format version and the fully resolved scenario; identical
documents produce byte-identical outputs.
"""

import json
import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dfield

import numpy as np

from .evolve import (BOUNDARY_WARNING, SCHEMES, EvolveConfig, SpongeConfig,
                     conservation_report, evolve)
from .exponents import ModelParams, ab_exponents
from .grid import RadialGrid, load_field_csv, save_field_csv
from .groundstate import solve_ground_state
from .morawetz import (build_weight, coercivity_check, morawetz_average,
                       quadratic_weight, scattering_monitor)
from .potentials import (PotentialSpec, gaussian_potential,
                         softpower_potential, zero_potential)
from .riesz import build_kernel

OUTPUT_FORMAT_VERSION = 1


class ConfigError(ValueError):
    def __init__(self, msg, line=None, col=None):
        loc = f" (line {line}" + (f", col {col})" if col is not None else ")") if line else ""
        super().__init__(msg + loc)
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# grammar

_SCHEMA = {
    "model": {"p": float, "gamma": float, "eps": float},
    "grid": {"r_max": float, "n": int},
    "potential": {"kind": str, "amplitude": float, "width": float,
                  "power": float, "core": float},
    "initial": {"kind": str, "c": float, "amplitude": float, "width": float,
                "path": str},
    "evolve": {"dt": float, "t_end": float, "sample_every": int, "scheme": str,
               "sponge": bool, "sponge_start": float, "sponge_strength": float,
               "sponge_power": float, "store_fields": bool},
    "diagnostics": {"requests": list, "morawetz_R": list, "monitor_R": float,
                    "monitor_eps": float, "monitor_expect": str,
                    "weight": str, "weight_R": float, "ball_radii": list,
                    "coercivity_R": float},
}


def _parse_scalar(tok, line):
    t = tok.strip()
    if t.lower() in ("on", "true", "yes"):
        return True
    if t.lower() in ("off", "false", "no"):
        return False
    try:
        if "." in t or "e" in t.lower() or "inf" in t.lower():
            return float(t)
        return int(t)
    except ValueError:
        return t


def parse_document(text):
    """Raw parse: {section: {key: value}} with duplicate detection."""
    sections = {}
    cur = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("unterminated section header", ln, line.index("[") + 1)
            name = stripped[1:-1].strip()
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", ln)
            if name not in _SCHEMA:
                raise ConfigError(f"unknown section [{name}]", ln)
            sections[name] = {}
            cur = name
            continue
        if "=" not in stripped:
            raise ConfigError("expected key = value", ln, 1)
        if cur is None:
            raise ConfigError("key outside of any section", ln, 1)
        key, _, val = stripped.partition("=")
        key = key.strip()
        col = line.index("=") + 1
        if key in sections[cur]:
            raise ConfigError(f"duplicate key {key!r} in [{cur}]", ln, col)
        if key not in _SCHEMA[cur]:
            raise ConfigError(f"unknown key {key!r} in [{cur}]", ln, col)
        want = _SCHEMA[cur][key]
        if want is list:
            parsed = [_parse_scalar(x, ln) for x in val.split(",") if x.strip()]
        else:
            parsed = _parse_scalar(val, ln)
            if want is float and isinstance(parsed, int):
                parsed = float(parsed)
            if want is bool and not isinstance(parsed, bool):
                raise ConfigError(f"key {key!r} expects on/off", ln, col)
            if want in (int, float) and not isinstance(parsed, (int, float)):
                raise ConfigError(f"key {key!r} expects a number, got {parsed!r}", ln, col)
        sections[cur][key] = parsed
    return sections


@dataclass
class Scenario:
    model: ModelParams
    grid_r_max: float = 40.0
    grid_n: int = 2047
    potential: PotentialSpec = dfield(default_factory=zero_potential)
    initial_kind: str = "gaussian"       # ground_state | gaussian | file
    initial_c: float = 1.0
    initial_amplitude: float = 1.0
    initial_width: float = 1.0
    initial_path: str = ""
    dt: float = 1e-3
    t_end: float = 5.0
    sample_every: int = 50
    scheme: str = "strang"
    sponge: SpongeConfig = dfield(default_factory=SpongeConfig)
    store_fields: bool = False
    requests: tuple = ("conservation",)
    morawetz_R: tuple = ()
    monitor_R: float = 10.0
    monitor_eps: float = 0.3
    monitor_expect: str = "pass"
    weight: str = "quadratic"
    weight_R: float = 10.0
    ball_radii: tuple = ()
    coercivity_R: float = 10.0

    def resolved(self):
        """Plain-dict form embedded in outputs for provenance."""
        pot = {"kind": self.potential.kind}
        if self.potential.kind == "gaussian":
            pot.update(amplitude=self.potential.amplitude, width=self.potential.width)
        elif self.potential.kind == "softpower":
            pot.update(amplitude=self.potential.amplitude,
                       power=self.potential.power, core=self.potential.core)
        return {
            "model": {"p": self.model.p, "gamma": self.model.gamma,
                      "eps": self.model.epsilon},
            "grid": {"r_max": self.grid_r_max, "n": self.grid_n},
            "potential": pot,
            "initial": {"kind": self.initial_kind, "c": self.initial_c,
                        "amplitude": self.initial_amplitude,
                        "width": self.initial_width, "path": self.initial_path},
            "evolve": {"dt": self.dt, "t_end": self.t_end,
                       "sample_every": self.sample_every, "scheme": self.scheme,
                       "sponge": self.sponge.enabled,
                       "sponge_start": self.sponge.start,
                       "sponge_strength": self.sponge.strength,
                       "sponge_power": self.sponge.power},
            "diagnostics": {"requests": list(self.requests),
                            "morawetz_R": list(self.morawetz_R),
                            "monitor_R": self.monitor_R,
                            "monitor_eps": self.monitor_eps,
                            "monitor_expect": self.monitor_expect,
                            "weight": self.weight, "weight_R": self.weight_R,
                            "ball_radii": list(self.ball_radii),
                            "coercivity_R": self.coercivity_R},
        }


def parse_scenario(text) -> Scenario:
    doc = parse_document(text)
    if "model" not in doc:
        raise ConfigError("missing required section [model]")
    m = doc["model"]
    if "p" not in m or "gamma" not in m:
        raise ConfigError("[model] requires p and gamma")
    if m["p"] < 2:
        raise ConfigError(f"p >= 2 required, got p = {m['p']}")
    try:
        model = ModelParams(m["p"], m["gamma"], m.get("eps", 1e-3))
    except ValueError as e:
        raise ConfigError(str(e))
    s = Scenario(model=model)
    if "grid" in doc:
        s.grid_r_max = float(doc["grid"].get("r_max", s.grid_r_max))
        s.grid_n = int(doc["grid"].get("n", s.grid_n))
    if "potential" in doc:
        podoc = dict(doc["potential"])
        kind = podoc.pop("kind", "zero")
        if kind == "zero":
            s.potential = zero_potential()
        elif kind == "gaussian":
            s.potential = gaussian_potential(podoc.get("amplitude", 0.0),
                                             podoc.get("width", 1.0))
        elif kind == "softpower":
            s.potential = softpower_potential(podoc.get("amplitude", 0.0),
                                              podoc.get("power", 2.0),
                                              podoc.get("core", 1.0))
        else:
            raise ConfigError(f"unknown potential kind {kind!r}")
    if "initial" in doc:
        idoc = doc["initial"]
        s.initial_kind = idoc.get("kind", "gaussian")
        if s.initial_kind not in ("ground_state", "gaussian", "file"):
            raise ConfigError(f"unknown initial kind {s.initial_kind!r}")
        s.initial_c = float(idoc.get("c", 1.0))
        s.initial_amplitude = float(idoc.get("amplitude", 1.0))
        s.initial_width = float(idoc.get("width", 1.0))
        s.initial_path = idoc.get("path", "")
        if s.initial_kind == "file" and not os.path.exists(s.initial_path):
            raise ConfigError(f"initial data file not found: {s.initial_path}")
    if "evolve" in doc:
        e = doc["evolve"]
        s.dt = float(e.get("dt", s.dt))
        s.t_end = float(e.get("t_end", s.t_end))
        s.sample_every = int(e.get("sample_every", s.sample_every))
        s.scheme = e.get("scheme", s.scheme)
        if s.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {', '.join(SCHEMES)}, got {s.scheme!r}")
        s.sponge = SpongeConfig(
            enabled=bool(e.get("sponge", False)),
            start=float(e.get("sponge_start", 25.0)),
            strength=float(e.get("sponge_strength", 5.0)),
            power=float(e.get("sponge_power", 4.0)),
        )
        s.store_fields = bool(e.get("store_fields", False))
    if "diagnostics" in doc:
        d = doc["diagnostics"]
        s.requests = tuple(d.get("requests", ["conservation"]))
        for req in s.requests:
            if req not in ("conservation", "morawetz", "monitor", "thresholds"):
                raise ConfigError(f"unknown diagnostic request {req!r}")
        s.morawetz_R = tuple(float(x) for x in d.get("morawetz_R", []))
        s.monitor_R = float(d.get("monitor_R", 10.0))
        s.monitor_eps = float(d.get("monitor_eps", 0.3))
        s.monitor_expect = d.get("monitor_expect", "pass")
        if s.monitor_expect not in ("pass", "fail"):
            raise ConfigError(f"monitor_expect must be pass or fail, got {s.monitor_expect!r}")
        s.weight = d.get("weight", "quadratic")
        if s.weight not in ("quadratic", "truncated"):
            raise ConfigError(f"weight must be quadratic or truncated, got {s.weight!r}")
        s.weight_R = float(d.get("weight_R", 10.0))
        s.ball_radii = tuple(float(x) for x in d.get("ball_radii", []))
        s.coercivity_R = float(d.get("coercivity_R", 10.0))
    if s.sponge.enabled and not s.sponge.start < s.grid_r_max:
        raise ConfigError("sponge start radius must be below r_max")
    return s


# ---------------------------------------------------------------------------
# runner
#
# Ground states are immutable after construction, so sweep runs sharing a
# (params, grid) pair reuse them; the least recently used beyond
# GS_CACHE_SIZE are dropped.  Kernels take milliseconds and O(n) memory to
# build, so every run builds its own.

GS_CACHE_SIZE = 4
_cache_lock = threading.Lock()
_gs_cache = OrderedDict()


def _shared_ground_state(model, grid, kern):
    key = (model.p, model.gamma, model.epsilon, grid.n, float(grid.r_max))
    with _cache_lock:
        gs = _gs_cache.get(key)
    if gs is None:
        gs = solve_ground_state(model, grid, kern)
    with _cache_lock:
        gs = _gs_cache.setdefault(key, gs)
        _gs_cache.move_to_end(key)
        while len(_gs_cache) > GS_CACHE_SIZE:
            _gs_cache.popitem(last=False)
    return gs


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_diagnostics_csv(path, series, scenario_dict):
    cols = ["t", "M", "E", "E0", "P", "grad_sq", "lambda_sq", "z", "zp", "zpp"]
    extra_ball = sorted(series.mass_in_ball)
    for R in extra_ball:
        cols.append(f"mass_in_ball_{R:g}")
    cols.append("exported_mass")
    cols.append("threshold_track")
    cols.append("lr_norm_rbar")
    for R in extra_ball:
        cols.append(f"eta_mass_{R:g}")
    for R in sorted(series.p_chi):
        cols.append(f"p_chi_{R:g}")
    with open(path, "w") as fh:
        fh.write(f"# hartree-lab-diagnostics,{OUTPUT_FORMAT_VERSION}\n")
        fh.write("# scenario: " + json.dumps(scenario_dict, sort_keys=True) + "\n")
        fh.write(",".join(cols) + "\n")
        arrays = [series.t, series.M, series.E, series.E0, series.P,
                  series.grad_sq, series.lambda_sq, series.z, series.zp,
                  series.zpp]
        arrays += [series.mass_in_ball[R] for R in extra_ball]
        arrays += [series.exported_mass, series.threshold_track, series.lr_norm_rbar]
        arrays += [series.eta_mass[R] for R in extra_ball]
        arrays += [series.p_chi[R] for R in sorted(series.p_chi)]
        for row in zip(*arrays):
            fh.write(",".join(_fmt(float(x)) for x in row) + "\n")


def _identity_defects(series):
    """Defect norms of the d/dt z = z' and d/dt z' = z'' chain on the
    sampled series, with the constants C = defect / dt_sample^2."""
    t = series.t
    if len(t) < 3 or np.any(~np.isfinite(series.zpp)):
        return {"available": False}
    dts = float(np.max(np.diff(t)))
    dz = (series.z[2:] - series.z[:-2]) / (t[2:] - t[:-2])
    dzp = (series.zp[2:] - series.zp[:-2]) / (t[2:] - t[:-2])
    d1 = float(np.max(np.abs(dz - series.zp[1:-1])))
    d2 = float(np.max(np.abs(dzp - series.zpp[1:-1])))
    return {"available": True, "sample_spacing": dts,
            "dz_minus_zp": d1, "dzp_minus_zpp": d2,
            "C_dz": d1 / dts**2, "C_dzp": d2 / dts**2}


@dataclass
class ExitReport:
    verdicts: dict
    thresholds: dict
    exit_code: int
    out_dir: str
    failures: list


def run_scenario(s: Scenario, out_dir="./out", tag="run") -> ExitReport:
    os.makedirs(out_dir, exist_ok=True)
    grid = RadialGrid(s.grid_r_max, s.grid_n)
    kern = build_kernel(s.model.gamma, grid)

    needs_gs = (s.initial_kind == "ground_state"
                or "thresholds" in s.requests or "morawetz" in s.requests
                or "monitor" in s.requests)
    gs = _shared_ground_state(s.model, grid, kern) if needs_gs else None

    if s.initial_kind == "ground_state":
        u0 = s.initial_c * gs.Q
    elif s.initial_kind == "gaussian":
        u0 = grid.field_from(
            lambda r: s.initial_amplitude * np.exp(-((r / s.initial_width) ** 2) / 2))
    else:
        u0 = load_field_csv(s.initial_path, grid)

    weights = []
    if s.weight == "quadratic":
        weights.append(quadratic_weight(grid))
    else:
        weights.append(build_weight(s.weight_R, grid))
    ball = set(s.ball_radii)
    if "monitor" in s.requests:
        ball.add(s.monitor_R)
    ball = tuple(sorted(ball))
    chi_radii = tuple(s.morawetz_R) if "morawetz" in s.requests else ()

    cfg = EvolveConfig(dt=s.dt, t_end=s.t_end, sample_every=s.sample_every,
                       scheme=s.scheme, sponge=s.sponge,
                       store_fields=s.store_fields, weights=tuple(weights),
                       ball_radii=ball, chi_radii=chi_radii)
    traj = evolve(u0, s.potential, kern, s.model, cfg)
    series = traj.diagnostics

    verdicts = {}
    failures = []
    thresholds = {}
    if gs is not None:
        A, B, sigma_c = ab_exponents(s.model)
        thresholds = {
            "PQ_MQ_sigma": gs.thresholds["PQ_MQ_sigma"],
            "ME_threshold": gs.thresholds["ME_threshold"],
            "grad_mass_threshold": gs.thresholds["grad_mass_threshold"],
            "sup_track": float(np.nanmax(series.threshold_track)),
            "track_initial": float(series.threshold_track[0]),
        }
    if "conservation" in s.requests:
        rep = conservation_report(traj)
        available = rep["samples_pre_export"] >= 2
        ok = available and rep["mass_drift"] <= 1e-10 and rep["energy_drift"] <= 1e-4
        verdicts["conservation"] = {
            "available": available,
            "samples_pre_export": rep["samples_pre_export"],
            "mass_drift": rep["mass_drift"],
            "energy_drift": rep["energy_drift"],
            "mass_budget_drift": rep["mass_budget_drift"],
            "pass": bool(ok),
        }
    if "thresholds" in s.requests:
        lam0 = float(series.lambda_sq[0])
        m0 = float(series.M[0])
        E_init = float(series.E[0])
        cond1 = m0**sigma_c * E_init < thresholds["ME_threshold"]
        cond2 = np.sqrt(m0) ** sigma_c * np.sqrt(lam0) < thresholds["grad_mass_threshold"]
        sup_lam = float(np.max(np.sqrt(series.M) ** sigma_c * np.sqrt(series.lambda_sq)))
        cond_sup = sup_lam < thresholds["grad_mass_threshold"]
        track_ok = thresholds["sup_track"] < thresholds["PQ_MQ_sigma"]
        verdicts["thresholds"] = {
            "mass_energy_condition": bool(cond1),
            "grad_mass_condition": bool(cond2),
            "sup_grad_mass_below": bool(cond_sup),
            "track_below_threshold": bool(track_ok),
            "pass": bool(cond1 and cond2 and cond_sup and track_ok),
        }
        cc = coercivity_check(traj.final, gs, s.coercivity_R, kern=kern)
        verdicts["coercivity_final"] = {k: v for k, v in cc.items()}
    if "monitor" in s.requests:
        mon = scattering_monitor(series, s.monitor_R, s.monitor_eps)
        want = s.monitor_expect == "pass"
        got = mon["crossed"] and mon["rate_bound_pass"]
        verdicts["monitor"] = dict(mon)
        verdicts["monitor"]["expected"] = s.monitor_expect
        verdicts["monitor"]["pass"] = bool(got == want)
    if "morawetz" in s.requests:
        rep = {}
        for R in s.morawetz_R:
            rep[f"R{R:g}"] = morawetz_average(series, gs, R, s.t_end)
        rep["identity_defects"] = _identity_defects(series)
        verdicts["morawetz"] = rep

    for name, v in verdicts.items():
        if isinstance(v, dict) and v.get("pass") is False:
            failures.append(name)

    scn = s.resolved()
    csv_path = os.path.join(out_dir, f"{tag}_diagnostics.csv")
    write_diagnostics_csv(csv_path, series, scn)
    if s.store_fields and traj.fields:
        save_field_csv(traj.fields[-1], os.path.join(out_dir, f"{tag}_final_field.csv"))
    summary = {
        "format_version": OUTPUT_FORMAT_VERSION,
        "scenario": scn,
        "thresholds": thresholds,
        "verdicts": verdicts,
        "warnings": [BOUNDARY_WARNING] if traj.boundary_warning else [],
        "series_file": os.path.basename(csv_path),
        "failures": failures,
        "pass": not failures,
    }
    with open(os.path.join(out_dir, f"{tag}_summary.json"), "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2, default=float)
        fh.write("\n")
    return ExitReport(verdicts=verdicts, thresholds=thresholds,
                      exit_code=0 if not failures else 1,
                      out_dir=out_dir, failures=failures)


# ---------------------------------------------------------------------------
# sweeps

SWEEP_AXES = ("c", "p", "gamma", "R", "dt", "n")


def _apply_axis(s: Scenario, axis, value):
    import copy
    s2 = copy.deepcopy(s)
    if axis == "c":
        s2.initial_c = float(value)
    elif axis == "p":
        s2.model = ModelParams(float(value), s.model.gamma, s.model.epsilon)
    elif axis == "gamma":
        s2.model = ModelParams(s.model.p, float(value), s.model.epsilon)
    elif axis == "R":
        s2.monitor_R = float(value)
    elif axis == "dt":
        s2.dt = float(value)
    elif axis == "n":
        s2.grid_n = int(value)
    else:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    return s2


def sweep(s: Scenario, axis, values, out_dir="./out"):
    """Run independent scenarios concurrently; per-run failures isolated.

    Each run writes under its tag; values whose tags collide (duplicates,
    or floats equal to 6 significant digits) are rejected before any run.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    values = list(values)
    tags = [f"{axis}_{v:g}" if isinstance(v, float) else f"{axis}_{v}" for v in values]
    if len(set(tags)) < len(tags):
        raise ValueError(f"sweep values {values} share output tags {tags}")
    os.makedirs(out_dir, exist_ok=True)
    max_workers = int(os.environ.get("HARTREE_LAB_THREADS", "0")) or min(4, os.cpu_count() or 1)

    def one(value, tag):
        try:
            rep = run_scenario(_apply_axis(s, axis, value),
                               out_dir=os.path.join(out_dir, tag), tag=tag)
            return value, rep, None
        except Exception as exc:  # isolated: a failing run never kills siblings
            return value, None, repr(exc)

    results = []
    with ThreadPoolExecutor(max_workers=max_workers) as ex:
        for res in ex.map(one, values, tags):
            results.append(res)

    rows = []
    for value, rep, err in results:
        if err is not None:
            rows.append({"axis": axis, "value": value, "error": err})
            continue
        row = {"axis": axis, "value": value, "exit_code": rep.exit_code}
        row.update({f"threshold_{k}": v for k, v in rep.thresholds.items()})
        cons = rep.verdicts.get("conservation", {})
        row.update({f"conservation_{k}": v for k, v in cons.items() if k != "pass"})
        rows.append(row)
    # aggregate CSV with a stable column order
    cols = []
    for row in rows:
        for k in row:
            if k not in cols:
                cols.append(k)
    agg = os.path.join(out_dir, f"sweep_{axis}.csv")
    with open(agg, "w") as fh:
        fh.write(f"# hartree-lab-sweep,{OUTPUT_FORMAT_VERSION}\n")
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(c, "")) for c in cols) + "\n")
    ok = all(r.get("error") is None and r.get("exit_code", 1) == 0 for r in rows) if rows else True
    return {"rows": rows, "csv": agg, "pass": ok}
