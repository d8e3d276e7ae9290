"""Correctness gates behind pass_ratio, applied to every run's outputs.

Standard library only, so the parent process stays small (its resident
set would otherwise be inherited by the children's ru_maxrss).
"""

import json
import math

# the pre-export window rule of evolve.conservation_report
PRE_EXPORT_REL = 1e-12
# conservation_report passes vacuously on a single sample
MIN_PRE_EXPORT_SAMPLES = 2
# Bound on the identity-chain constants C = defect / dt_sample^2 of
# d/dt z = z' and d/dt z' = z'' (centred differences, so C stays O(1)
# while the chain is consistent).  Measured on virial-sampling at the
# ends of the seeded range: C_dz = 0.12 / 8.3 and C_dzp = 1.5 / 171 at
# c = 0.3 / 0.8.  The bound leaves a factor of about six for later
# numerics; a chain off by O(dt) or worse has C >= 1/dt_sample = 1000.
IDENTITY_C_BOUND = {"C_dz": 50.0, "C_dzp": 1000.0}


def read_csv(text):
    """(header, rows of floats) of a diagnostics CSV; '#' lines skipped."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    header = lines[0].split(",")
    return header, [[float(x) for x in ln.split(",")] for ln in lines[1:]]


def check_outputs(workload, csv_text, summary_text):
    """Failure reasons for one run's CSV and summary JSON ([] = pass).

    The scattering monitor is recorded by the caller but not gated: at
    the benchmark's short t_end the R = 10 ball still holds about half
    the mass, far above eps^2 = 0.09, so the monitor reports "not
    crossed" on every correct run.  Only the t = 30 physics runs cross.
    """
    failures = []
    try:
        header, rows = read_csv(csv_text)
        summary = json.loads(summary_text)
    except ValueError as exc:
        return [f"unreadable output: {exc}"]

    want = workload.expected_samples()
    if len(rows) != want:
        failures.append(f"csv rows {len(rows)} != expected samples {want}")
    if any(len(r) != len(header) for r in rows):
        failures.append("csv row width differs from header")
    if any(not math.isfinite(x) for r in rows for x in r):
        failures.append("non-finite value in csv")

    if "exported_mass" in header and "M" in header and rows:
        ie, im = header.index("exported_mass"), header.index("M")
        floor = PRE_EXPORT_REL * max(rows[0][im], 1e-300)
        pre = sum(1 for r in rows if r[ie] <= floor)
        if pre < MIN_PRE_EXPORT_SAMPLES:
            failures.append(f"{pre} pre-export samples < {MIN_PRE_EXPORT_SAMPLES}")
    else:
        failures.append("csv lacks M or exported_mass")

    verdicts = summary.get("verdicts", {})
    required = ["conservation"]
    if workload.scatter:
        required += ["thresholds", "coercivity_final"]
    for name in required:
        if verdicts.get(name, {}).get("pass") is not True:
            failures.append(f"{name} verdict not passed")

    if "morawetz" in workload.requests:
        ident = verdicts.get("morawetz", {}).get("identity_defects", {})
        if ident.get("available") is not True:
            failures.append("identity defects unavailable")
        else:
            for key, bound in IDENTITY_C_BOUND.items():
                val = ident.get(key)
                if not isinstance(val, (int, float)) or not val <= bound:
                    failures.append(f"identity {key} = {val} above {bound}")
    return failures


def monitor_record(summary_text):
    """The ungated scattering-monitor verdict, for the run record."""
    try:
        mon = json.loads(summary_text).get("verdicts", {}).get("monitor")
    except ValueError:
        return None
    if not mon:
        return None
    return {"pass": mon.get("pass"), "crossed": mon.get("crossed"),
            "min_mass_in_ball": mon.get("min_mass_in_ball")}
