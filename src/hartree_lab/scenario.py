"""Scenario configuration, orchestration, sweeps, and bit-stable output.

The config grammar is a flat INI-like document:

    [model]
    p = 3.0
    gamma = 2.0

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

Each key is one field of `Scenario`: its annotation is the key's type and
its default the key's default.  Unknown keys, duplicate keys, mistyped
values and out-of-range values are errors raised while parsing, before
anything is built (no silent defaults for misspellings).  Outputs are a
diagnostics CSV plus a JSON summary, both carrying a format version and
the fully resolved scenario; identical documents produce byte-identical
outputs.  A collapsed run writes both, with a failing ``collapse`` verdict;
a verdict that reads a non-finite sample fails or says ``available: false``.
"""

import csv
import json
import math
import os
from dataclasses import dataclass, fields, replace
from typing import get_args, get_origin

import numpy as np

from .evolve import (BOUNDARY_WARNING, EvolveConfig, column_labels, conservation_report,
                     evolve)
from .exponents import ModelParams, ab_exponents
from .grid import RadialField, RadialGrid, l2_norm_sq, load_field_csv, save_field_csv
from .groundstate import solve_ground_state
from .morawetz import coercivity_check, morawetz_average, scattering_monitor
from .potentials import PotentialSpec, audit_hypotheses
from .riesz import build_kernel

OUTPUT_FORMAT_VERSION = 9


class ConfigError(ValueError):
    def __init__(self, msg, line=None, col=None):
        loc = f" (line {line}" + (f", col {col})" if col is not None else ")") if line else ""
        super().__init__(msg + loc)
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# keys: section -> key names; a key's field is the key itself, prefixed
# with the section name for the sections whose key names overlap

SECTIONS = {
    "model": ("p", "gamma"),
    "grid": ("r_max", "n"),
    "potential": ("kind", "amplitude", "width", "power", "core"),
    "initial": ("kind", "c", "amplitude", "width", "path"),
    "evolve": ("dt", "t_end", "sample_every", "sponge", "store_fields"),
    "diagnostics": ("requests", "morawetz_R", "monitor_R", "monitor_eps",
                    "weight", "weight_R", "coercivity_R"),
}
_PREFIXED = ("grid", "potential", "initial")

CHOICES = {
    "initial_kind": ("ground_state", "gaussian", "file"),
    "requests": ("conservation", "morawetz", "monitor", "thresholds"),
    "weight": ("quadratic", "truncated"),
}


def _field(section, key):
    return f"{section}_{key}" if section in _PREFIXED else key


def _checked_mass(u0):
    """u0, whose mass M(0) must lie in (0, inf): every relative drift divides by it."""
    with np.errstate(over="ignore"):
        M0 = l2_norm_sq(u0)
    if not 0 < M0 < math.inf:
        raise ConfigError(f"mass M(0) = {M0:g} is not in (0, inf)")
    return u0


@dataclass(frozen=True)
class Scenario:
    p: float
    gamma: float
    grid_r_max: float = 40.0
    grid_n: int = 2047
    potential_kind: str = "zero"
    potential_amplitude: float = 0.0
    potential_width: float = 1.0
    potential_power: float = 2.0
    potential_core: float = 1.0
    initial_kind: str = "gaussian"
    initial_c: float = 1.0
    initial_amplitude: float = 1.0
    initial_width: float = 1.0
    initial_path: str = ""
    dt: float = EvolveConfig.dt
    t_end: float = EvolveConfig.t_end
    sample_every: int = EvolveConfig.sample_every
    sponge: bool = False
    store_fields: bool = False
    requests: tuple[str, ...] = ("conservation",)
    morawetz_R: tuple[float, ...] = ()
    monitor_R: float = 10.0
    monitor_eps: float = 0.3
    weight: str = "quadratic"
    weight_R: float = 10.0
    coercivity_R: float = 10.0

    def __post_init__(self):
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            for v in value if isinstance(value, tuple) else (value,):
                if v not in allowed:
                    raise ConfigError(f"{name} must be one of {', '.join(allowed)}, got {v!r}")
        if not self.requests:  # a run that checks nothing would pass vacuously
            raise ConfigError("requests must list one or more of "
                              + ", ".join(CHOICES["requests"]))
        try:
            # the model, potential, evolve and grid types check their own fields
            self.model, self.potential
            cfg = self.evolve_config
            grid = self.grid
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.t_end == 0:  # evolve would sample t = 0 alone
            raise ConfigError("t_end = 0 runs no step")
        req = self.requests
        # Q exists, and B of ab_exponents is defined, only on the intercritical range
        if (self.needs_ground_state or "morawetz" in req) and not self.model.intercritical:
            raise ConfigError(f"p = {self.p:g}, gamma = {self.gamma:g} is not intercritical, "
                              "and the run needs the ground state or B")
        # a cutoff of radius R resolves its plateau r <= R/2 and its ramp
        # (R/2, R) only when each holds a node, R > 2 dr; a smaller one reads
        # masses and fluxes of 0 or near it, which pass vacuously
        two_dr = 2 * grid.dr
        radii_read = (  # (key, radii the run reads)
            ("monitor_R", (self.monitor_R,) if "monitor" in req else ()),
            ("morawetz_R", self.morawetz_R if "morawetz" in req else ()),
            ("coercivity_R", (self.coercivity_R,) if "thresholds" in req else ()))
        for name, radii in radii_read:
            for R in radii:
                if not two_dr < R <= self.grid_r_max:
                    raise ConfigError(f"{name} = {R:g} outside (2 dr, r_max] = "
                                      f"({two_dr:g}, {self.grid_r_max:g}]")
        if self.weight == "truncated" and not 0 < self.weight_R < self.grid_r_max:
            raise ConfigError(f"weight_R = {self.weight_R:g} outside (0, r_max) = "
                              f"(0, {self.grid_r_max:g})")
        # columns and verdict keys name a radius by f"{R:g}"; the run merges exact repeats
        labels = column_labels(cfg)
        for label in labels:
            if labels.count(label) > 1:
                raise ConfigError(f"two radii share the diagnostics column {label}")
        if "monitor" in req and not self.monitor_eps > 0:
            raise ConfigError(f"monitor_eps = {self.monitor_eps:g} must be > 0")
        if self.initial_kind == "gaussian" and not self.initial_width > 0:
            raise ConfigError(f"initial_width = {self.initial_width:g} must be > 0")
        if self.initial_kind == "ground_state":
            if self.initial_c == 0:
                raise ConfigError("initial_c = 0 gives zero initial data")
        else:  # c Q needs the solve: initial_field checks its mass at run time
            where = ("initial data" if self.initial_kind == "gaussian"
                     else f"initial data file {self.initial_path}")
            try:  # built once, here: bad data fails before anything else is,
                # and the run starts from the data that was checked
                u0 = (RadialField(grid, self.initial_amplitude
                                  * np.exp(-((grid.nodes / self.initial_width) ** 2) / 2))
                      if self.initial_kind == "gaussian"
                      else load_field_csv(self.initial_path, grid))
                object.__setattr__(self, "_u0", _checked_mass(u0))
            except OSError as exc:
                raise ConfigError(f"{where}: {exc.strerror or exc}") from None
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None

    def initial_field(self, gs=None):
        """u(0), of mass M(0) in (0, inf): c gs.Q for ground_state data, else
        the field built and checked at parse time."""
        if self.initial_kind == "ground_state":
            return _checked_mass(self.initial_c * gs.Q)
        return self._u0

    @property
    def needs_ground_state(self):
        """Whether the run solves for Q: for ground_state data or a thresholds request."""
        return self.initial_kind == "ground_state" or "thresholds" in self.requests

    @property
    def model(self):
        return ModelParams(self.p, self.gamma)

    @property
    def grid(self):
        return RadialGrid(self.grid_r_max, self.grid_n)

    @property
    def potential(self):
        return PotentialSpec(self.potential_kind, amplitude=self.potential_amplitude,
                             width=self.potential_width, power=self.potential_power,
                             core=self.potential_core)

    @property
    def evolve_config(self):
        """Everything of the EvolveConfig but the per-sample field snapshots
        (``store_fields`` writes ``traj.final``)."""
        return EvolveConfig(
            dt=self.dt, t_end=self.t_end, sample_every=self.sample_every,
            sponge=self.sponge,
            weight_R=self.weight_R if self.weight == "truncated" else None,
            ball_radii=(self.monitor_R,) if "monitor" in self.requests else (),
            chi_radii=tuple(sorted(set(self.morawetz_R if "morawetz" in self.requests else ()))))

    def resolved(self):
        """Plain-dict form embedded in outputs for provenance: every key."""
        return {sec: {key: getattr(self, _field(sec, key)) for key in keys}
                for sec, keys in SECTIONS.items()}


# ---------------------------------------------------------------------------
# grammar

_TYPES = {f.name: f.type for f in fields(Scenario)}
_EXPECTS = {bool: "on/off", int: "an integer", float: "a finite number"}
_BOOLS = {"on": True, "true": True, "yes": True, "off": False, "false": False, "no": False}


def _scalar(want, tok):
    t = tok.strip()
    if want is bool:
        return _BOOLS[t.lower()]
    value = want(t)
    if want is float and not math.isfinite(value):
        raise ValueError(t)
    return value


def parse_document(text):
    """Raw parse: {section: {key: typed value}} with duplicate detection."""
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
            if name not in SECTIONS:
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
        if key not in SECTIONS[cur]:
            raise ConfigError(f"unknown key {key!r} in [{cur}]", ln, col)
        # a tuple annotation reads a comma-separated list of its item type
        want = _TYPES[_field(cur, key)]
        listed = get_origin(want) is tuple
        item = get_args(want)[0] if listed else want
        try:
            sections[cur][key] = (tuple(_scalar(item, x) for x in val.split(",") if x.strip())
                                  if listed else _scalar(item, val))
        except (KeyError, ValueError):
            raise ConfigError(f"key {key!r} expects {_EXPECTS[item]}, got {val.strip()!r}",
                              ln, col) from None
    return sections


def parse_scenario(text) -> Scenario:
    doc = parse_document(text)
    model = doc.get("model", {})
    if "p" not in model or "gamma" not in model:
        raise ConfigError("[model] requires p and gamma")
    return Scenario(**{_field(sec, key): value
                       for sec, keys in doc.items() for key, value in keys.items()})


# ---------------------------------------------------------------------------
# runner

def _finite(x):
    """x with every non-finite float, at any depth, replaced by None."""
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(v) for v in x]
    if isinstance(x, (float, np.floating)) and not math.isfinite(x):
        return None
    return x


def strict_json(obj):
    """obj as indented JSON text with sorted keys.  RFC 8259 has no NaN or
    Infinity, so a non-finite float is written as null."""
    return json.dumps(_finite(obj), sort_keys=True, indent=2, default=float,
                      allow_nan=False)


def write_diagnostics_csv(path, series, scenario_dict):
    """The series as a CSV: its labels are the header, one row per sample."""
    with open(path, "w") as fh:
        fh.write(f"# hartree-lab-diagnostics,{OUTPUT_FORMAT_VERSION}\n")
        fh.write("# scenario: " + json.dumps(scenario_dict, sort_keys=True) + "\n")
        fh.write(",".join(series) + "\n")
        for row in np.stack(list(series.values()), axis=1).tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def _identity_defects(series):
    """Defect norms of the d/dt z = z' and d/dt z' = z'' chain on the
    sampled series, with the constants C = defect / dt_sample^2.

    d/dt is the three-point form, second order also where the spacing
    changes (a last interval cut short by t_end)."""
    t, z, zp, zpp = (series[k] for k in ("t", "z", "zp", "zpp"))
    if len(t) < 3 or np.any(~np.isfinite(zpp)):
        return {"available": False}
    h = np.diff(t)
    hm, hp = h[:-1], h[1:]

    def ddt(f):
        return (hm**2 * f[2:] - hp**2 * f[:-2] + (hp**2 - hm**2) * f[1:-1]) \
            / (hp * hm * (hp + hm))

    dts = float(np.max(h))
    dz, dzp = ddt(z), ddt(zp)
    d1 = float(np.max(np.abs(dz - zp[1:-1])))
    d2 = float(np.max(np.abs(dzp - zpp[1:-1])))
    return {"available": True, "sample_spacing": dts,
            "dz_minus_zp": d1, "dzp_minus_zpp": d2,
            "C_dz": d1 / dts**2, "C_dzp": d2 / dts**2}


def run_scenario(s: Scenario, out_dir="./out", tag="run") -> dict:
    """Run the scenario, write its diagnostics CSV and ``<tag>_summary.json``,
    and return the summary (non-finite floats as they are; the JSON writes
    them as null)."""
    os.makedirs(out_dir, exist_ok=True)
    grid = s.grid
    kern = build_kernel(s.gamma, grid)

    gs = solve_ground_state(s.model, grid, kern) if s.needs_ground_state else None

    traj = evolve(s.initial_field(gs), s.potential, kern, s.model, s.evolve_config)
    series = traj.diagnostics
    # the theorem's hypotheses on V: the threshold verdict passes only where they hold
    hypotheses = audit_hypotheses(s.potential, grid)
    applies = hypotheses["theorem_hypotheses_pass"]

    verdicts = {}
    if traj.collapse_time is not None:
        verdicts["collapse"] = {"collapse_time": traj.collapse_time, "pass": False}
    thresholds = {}
    if gs is not None:
        thresholds = {**gs.thresholds,
                      "sup_track": float(np.max(series["threshold_track"])),
                      "track_initial": float(series["threshold_track"][0])}
    if "conservation" in s.requests:
        rep = conservation_report(traj)
        available = rep["samples_pre_export"] >= 2
        verdicts["conservation"] = {
            "available": available, **rep,
            "pass": available and rep["mass_drift"] <= 1e-10 and rep["energy_drift"] <= 1e-4}
    if "thresholds" in s.requests:
        sigma_c = ab_exponents(s.model)[2]
        M, lam = series["M"], series["lambda_sq"]
        m0, lam0 = float(M[0]), float(lam[0])
        cond1 = m0**sigma_c * float(series["E"][0]) < thresholds["ME_threshold"]
        cond2 = np.sqrt(m0) ** sigma_c * np.sqrt(lam0) < thresholds["grad_mass_threshold"]
        sup_lam = float(np.max(np.sqrt(M) ** sigma_c * np.sqrt(lam)))
        cond_sup = sup_lam < thresholds["grad_mass_threshold"]
        track_ok = thresholds["sup_track"] < thresholds["PQ_MQ_sigma"]
        verdicts["thresholds"] = {
            "mass_energy_condition": bool(cond1),
            "grad_mass_condition": bool(cond2),
            "sup_grad_mass_below": bool(cond_sup),
            "track_below_threshold": bool(track_ok),
            "theorem_applies": applies,
            "pass": bool(cond1 and cond2 and cond_sup and track_ok and applies),
        }
        verdicts["coercivity_final"] = {
            **coercivity_check(traj.final, gs, s.coercivity_R, kern=kern),
            "theorem_applies": applies}
    if "monitor" in s.requests:
        mon = scattering_monitor(series, s.monitor_R, s.monitor_eps)
        verdicts["monitor"] = {**mon, "pass": mon["rate_bound_pass"] and mon["crossed"]}
    if "morawetz" in s.requests:
        verdicts["morawetz"] = {f"R{R:g}": morawetz_average(series, s.model, R, s.t_end)
                                for R in s.morawetz_R}
        verdicts["morawetz"]["identity_defects"] = _identity_defects(series)
    failures = [name for name, v in verdicts.items() if v.get("pass") is False]

    scn = s.resolved()
    csv_path = os.path.join(out_dir, f"{tag}_diagnostics.csv")
    write_diagnostics_csv(csv_path, series, scn)
    if s.store_fields:
        save_field_csv(traj.final, os.path.join(out_dir, f"{tag}_final_field.csv"))
    summary = {
        "format_version": OUTPUT_FORMAT_VERSION,
        "scenario": scn,
        "thresholds": thresholds,
        "hypotheses": hypotheses,
        "verdicts": verdicts,
        "warnings": [BOUNDARY_WARNING] if traj.boundary_warning else [],
        "series_file": os.path.basename(csv_path),
        "failures": failures,
        "pass": not failures,
    }
    with open(os.path.join(out_dir, f"{tag}_summary.json"), "w") as fh:
        fh.write(strict_json(summary) + "\n")
    return summary

# ---------------------------------------------------------------------------
# sweeps

SWEEP_AXES = {"c": "initial_c", "p": "p", "gamma": "gamma", "R": "monitor_R",
              "dt": "dt", "n": "grid_n"}


def sweep(s: Scenario, axis, values, out_dir="./out"):
    """Run the scenarios one after another, in the order of values.

    A failing run becomes a row with its error, and the runs after it
    still run.  Each run writes under its tag; values whose tags collide
    (duplicates, or floats equal to 6 significant digits) are rejected
    before any run, and so is an axis whose key the scenario does not
    read, whose runs would all be one run.  A swept value passes the same
    checks as a parsed one.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {tuple(SWEEP_AXES)}")
    reads = {"c": s.initial_kind == "ground_state", "R": "monitor" in s.requests}
    if not reads.get(axis, True):
        raise ValueError(f"axis {axis} sets {SWEEP_AXES[axis]}, which this scenario does not "
                         "read (c needs initial kind = ground_state, R a monitor request)")
    values = list(values)
    tags = [f"{axis}_{v:g}" if isinstance(v, float) else f"{axis}_{v}" for v in values]
    if len(set(tags)) < len(tags):
        raise ValueError(f"sweep values {values} share output tags {tags}")
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for value, tag in zip(values, tags):
        try:
            summary = run_scenario(replace(s, **{SWEEP_AXES[axis]: value}),
                                   out_dir=os.path.join(out_dir, tag), tag=tag)
            cons = summary["verdicts"].get("conservation", {})
            rows.append({"axis": axis, "value": value, "exit_code": 0 if summary["pass"] else 1,
                         **{f"threshold_{k}": v for k, v in summary["thresholds"].items()},
                         **{f"conservation_{k}": v for k, v in cons.items() if k != "pass"}})
        except Exception as exc:  # isolated: the runs after it still run
            rows.append({"axis": axis, "value": value, "error": repr(exc)})
    # columns in first-seen order; csv quotes a field that holds a comma
    cols = list(dict.fromkeys(k for row in rows for k in row))
    agg = os.path.join(out_dir, f"sweep_{axis}.csv")
    with open(agg, "w", newline="") as fh:
        fh.write(f"# hartree-lab-sweep,{OUTPUT_FORMAT_VERSION}\n")
        writer = csv.DictWriter(fh, cols, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return {"rows": rows, "csv": agg, "pass": all(r.get("exit_code") == 0 for r in rows)}
