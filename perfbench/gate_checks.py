"""Check that every correctness gate of the benchmark fires.

    python3 perfbench/gate_checks.py

Run from the repository root.  Runs one short scenario per workload kind
in a fresh interpreter, checks that its real outputs pass every gate,
then breaks a copy of them in one way per gate and checks that the gate
reports it.  Exits 1 if a gate stays silent or the real outputs fail.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import gates
import run
from workloads import WORKLOADS, scenario_text

SHORT_T_END = {"scatter-newton": 0.4, "virial-sampling": 0.02}


def rows_edit(csv_text, fn):
    """Apply fn(header, rows) to the data rows of a diagnostics CSV."""
    lines = csv_text.splitlines(keepends=True)
    start = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    header = lines[start].rstrip("\n").split(",")
    rows = [ln.rstrip("\n").split(",") for ln in lines[start + 1:]]
    rows = fn(header, rows)
    return "".join(lines[:start + 1]) + "".join(",".join(r) + "\n" for r in rows)


def set_col(name, value, from_row=0):
    def fn(header, rows):
        i = header.index(name)
        for r in rows[from_row:]:
            r[i] = value
        return rows
    return fn


def verdict_edit(path, value):
    def fn(summary_text):
        s = json.loads(summary_text)
        node = s["verdicts"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return json.dumps(s)
    return fn


def output_cases(workload):
    """(name, csv edit, summary edit) that must each make a gate fire."""
    keep = (lambda t: t)
    cases = [
        ("missing csv row", lambda t: rows_edit(t, lambda h, r: r[:-1]), keep),
        ("extra csv row", lambda t: rows_edit(t, lambda h, r: r + [r[-1]]), keep),
        ("non-finite value", lambda t: rows_edit(t, set_col("E", "nan", 1)), keep),
        ("one pre-export sample",
         lambda t: rows_edit(t, set_col("exported_mass", "1e-3", 1)), keep),
        ("conservation failed", keep, verdict_edit(("conservation", "pass"), False)),
    ]
    if workload.scatter:
        cases += [
            ("thresholds failed", keep, verdict_edit(("thresholds", "pass"), False)),
            ("coercivity failed", keep,
             verdict_edit(("coercivity_final", "pass"), False)),
        ]
    else:
        cases += [
            ("identity defects unavailable", keep,
             verdict_edit(("morawetz", "identity_defects"), {"available": False})),
            ("identity defect above bound", keep,
             verdict_edit(("morawetz", "identity_defects", "C_dzp"),
                          2 * gates.IDENTITY_C_BOUND["C_dzp"])),
        ]
    return cases


def main():
    problems = []
    shutil.rmtree(run.WORK, ignore_errors=True)
    try:
        for name, t_end in SHORT_T_END.items():
            workload = dataclasses.replace(WORKLOADS[name], t_end=t_end)
            d = run.WORK / name
            d.mkdir(parents=True)
            (d / "scenario.ini").write_text(scenario_text(workload, 0))
            subprocess.run([sys.executable, str(run.HERE / "child.py"),
                            str(d / "scenario.ini"), str(d / "out"),
                            str(d / "result.json"), "0"],
                           cwd=run.ROOT, check=True, capture_output=True)
            rec = run.collect(workload, d)
            if rec["failures"]:
                problems.append(f"{name}: real outputs fail: {rec['failures']}")
                continue
            csv_text = (d / "out" / "bench_diagnostics.csv").read_text()
            summary_text = (d / "out" / "bench_summary.json").read_text()
            for case, edit_csv, edit_summary in output_cases(workload):
                fired = gates.check_outputs(workload, edit_csv(csv_text),
                                            edit_summary(summary_text))
                print(f"{name}: {case}: {fired}")
                if not fired:
                    problems.append(f"{name}: gate silent on {case}")

            (d / "out" / "bench_summary.json").unlink()
            fired = run.collect(workload, d)["failures"]
            print(f"{name}: missing summary: {fired}")
            if not fired:
                problems.append(f"{name}: gate silent on a missing output file")

        bad = run.run_once(WORKLOADS["scatter-newton"], "[model]\np = 1.0\ngamma = 2.0\n",
                           False, 1)
        print(f"run raises: {bad['failures']}")
        if not bad["failures"]:
            problems.append("gate silent on a run that raises")

        recs = [{"digest": "a", "failures": []}, {"digest": "b", "failures": []}]
        run.check_repeats(recs)
        print(f"repeat differs: {recs[1]['failures']}")
        if not recs[1]["failures"] or recs[0]["failures"]:
            problems.append("gate silent on repeats that differ")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)

    for p in problems:
        print("PROBLEM:", p)
    print("all gates fire" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
