"""Run one scenario in this (fresh) interpreter, the way ``hartree-lab
evolve`` runs it, and write the timings as JSON.

    python3 perfbench/child.py SCENARIO_INI OUT_DIR RESULT_JSON TRACE(0|1)

Untraced, the only instrumentation is a timestamp at entry to and exit
from the one evolve() call that run_scenario() makes.  Traced, spans are
recorded around the package's public names (see tracing.py).
"""

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    scenario_path, out_dir, result_path, trace = argv
    text = Path(scenario_path).read_text()
    sys.path.insert(0, str(ROOT / "src"))
    if trace == "1":
        from tracing import Tracer, layer_metrics

    t_start = time.perf_counter()
    import hartree_lab
    from hartree_lab import scenario as scn
    t_imported = time.perf_counter()

    tracer = None
    missing = []
    if trace == "1":
        tracer = Tracer()
        missing = tracer.install()

    marks = {}
    inner_evolve = scn.evolve

    def timed_evolve(*args, **kwargs):
        marks["enter"] = time.perf_counter()
        try:
            return inner_evolve(*args, **kwargs)
        finally:
            marks["exit"] = time.perf_counter()

    scn.evolve = timed_evolve

    t_parse = time.perf_counter()
    s = scn.parse_scenario(text)
    scn.run_scenario(s, out_dir=out_dir, tag="bench")
    t_done = time.perf_counter()

    result = {
        "setup_s": marks["enter"] - t_parse,
        "evolve_s": marks["exit"] - marks["enter"],
        "t_end": s.t_end,
        "total_s": t_done - t_start,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": t_imported - t_start,
        "meta": _metadata(hartree_lab),
    }
    if tracer is not None:
        layers = layer_metrics(tracer.spans)
        layers["cli.import_s"] = result["import_s"]
        result["layers"] = layers
        result["missing_targets"] = missing
    tmp = result_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh, sort_keys=True)
    os.replace(tmp, result_path)


def _metadata(pkg):
    import numpy
    import scipy
    meta = {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "hartree_lab": getattr(pkg, "__version__", "unknown")}
    accel = sys.modules.get("hartree_lab.accel")
    if accel is not None and hasattr(accel, "backend"):
        meta["accel_backend"] = accel.backend()
    return meta


if __name__ == "__main__":
    main(sys.argv[1:])
