"""hartree-lab benchmark: scenario workloads, each run in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload seed draws the scenario's
inputs (see workloads.py); the package sees only the scenario text.
One closed-loop client runs one scenario at a time, each in a fresh
interpreter started the way ``hartree-lab evolve`` starts, so every run
pays the cold kernel build and ground-state solve a CLI user pays (the
in-process caches of hartree_lab.scenario would otherwise make every
repeat a cache hit).  Runs repeat until S seconds have passed; the
metrics are medians over them.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced runs and reports the per-layer metrics
of the traced ones, plus the tracing overhead (traced total_s over
untraced total_s).  Every run's outputs go through the correctness
gates in gates.py; repeats must also produce byte-identical CSV and
summary JSON.  The last line of stdout is the result object; the line
before it is the run record (inputs, environment, per-run details).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gates
from workloads import WORKLOADS, draw_inputs, scenario_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
MIN_RUNS = 4
RUN_TIMEOUT_S = 120
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_once(workload, text, trace, index):
    """One scenario in a fresh interpreter, gated; returns its record."""
    d = WORK / f"run{index:03d}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    ini = d / "scenario.ini"
    ini.write_text(text)
    rec = {"trace": trace, "failures": []}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(ini), str(d / "out"),
             str(d / "result.json"), "1" if trace else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rec["failures"].append(f"timed out after {RUN_TIMEOUT_S} s")
        return rec
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        rec["failures"].append(f"exit code {proc.returncode}: {tail[0]}")
        return rec
    rec.update(collect(workload, d))
    shutil.rmtree(d, ignore_errors=True)
    return rec


def collect(workload, d):
    """Timings and gate verdicts from a finished run's directory."""
    res = d / "result.json"
    csv_path = d / "out" / "bench_diagnostics.csv"
    summary_path = d / "out" / "bench_summary.json"
    missing = [p.name for p in (res, csv_path, summary_path) if not p.exists()]
    if missing:
        return {"failures": [f"missing output {', '.join(missing)}"]}
    rec = json.loads(res.read_text())
    csv_bytes, summary_bytes = csv_path.read_bytes(), summary_path.read_bytes()
    rec["csv_bytes"] = len(csv_bytes)
    rec["digest"] = hashlib.sha256(csv_bytes + b"\0" + summary_bytes).hexdigest()
    rec["monitor"] = gates.monitor_record(summary_bytes.decode())
    rec["failures"] = gates.check_outputs(workload, csv_bytes.decode(),
                                          summary_bytes.decode())
    return rec


def check_repeats(records):
    """Repeats of one scenario must give byte-identical outputs."""
    digests = [r["digest"] for r in records if "digest" in r]
    for r in records:
        if "digest" in r and r["digest"] != digests[0]:
            r["failures"].append("outputs differ from the first repeat")


def warm_up():
    """Import the package once so every timed run finds compiled bytecode."""
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, 'src'); import hartree_lab"],
                   cwd=ROOT, check=True, capture_output=True, timeout=RUN_TIMEOUT_S)


def git_sha():
    """HEAD from .git inside the checkout only; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def median_of(records, key):
    vals = [r[key] for r in records if key in r]
    return statistics.median(vals) if vals else None


def end_to_end(records):
    timed = [r for r in records if "total_s" in r]
    failed = sum(1 for r in records if r["failures"])
    return {
        "setup_s": median_of(timed, "setup_s"),
        "evolve_s_per_t": statistics.median(r["evolve_s"] / r["t_end"] for r in timed)
        if timed else None,
        "total_s": median_of(timed, "total_s"),
        "peak_rss_mb": median_of(timed, "peak_rss_mb"),
        "pass_ratio": (len(records) - failed) / len(records),
    }


def per_layer(records):
    traced = [r for r in records if r["trace"] and "layers" in r]
    plain = [r for r in records if not r["trace"] and "total_s" in r]
    if not traced or not plain:
        return {}
    out = {k: statistics.median(r["layers"][k] for r in traced)
           for k in traced[0]["layers"]}
    out["scenario.csv_bytes"] = statistics.median(r["csv_bytes"] for r in traced)
    out["trace.overhead"] = (statistics.median(r["total_s"] for r in traced)
                             / statistics.median(r["total_s"] for r in plain))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "hartree_lab" / "__init__.py").is_file():
        print("hartree_lab sources not found under src/; run from the repository root",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    text = scenario_text(workload, args.seed)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        warm_up()
        records = []
        deadline = time.perf_counter() + args.seconds
        # trace mode alternates untraced and traced runs and ends on a pair
        while (len(records) < MIN_RUNS or time.perf_counter() < deadline
               or (args.trace and len(records) % 2)):
            trace = bool(args.trace and len(records) % 2)
            records.append(run_once(workload, text, trace, len(records)))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    check_repeats(records)

    if args.trace:
        values, section = per_layer(records), "per_layer"
    else:
        values, section = end_to_end(records), "end_to_end"
    metrics = {}
    for m in spec[section]:
        if values.get(m["name"]) is None:
            print(f"no value for metric {m['name']}; run failures:", file=sys.stderr)
            for r in records:
                print(r["failures"], file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    failed = sum(1 for r in records if r["failures"])
    meta = next((r["meta"] for r in records if "meta" in r), {})
    record = {
        "workload": workload.name, "seed": args.seed,
        "inputs": draw_inputs(workload, args.seed), "t_end": workload.t_end,
        "git_sha": git_sha(), "src_lines": src_lines(), "cpu_count": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}, **meta,
        "runs": [{k: r.get(k) for k in ("trace", "setup_s", "evolve_s", "total_s",
                                        "peak_rss_mb", "import_s", "monitor",
                                        "failures", "missing_targets")}
                 for r in records],
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
