"""The benchmark's gates on each workload's outputs, run in-process: a
renamed diagnostics column or verdict key fails here before the benchmark
refuses it."""

import sys
from pathlib import Path

import pytest

from hartree_lab.scenario import parse_scenario, run_scenario

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import gates  # standard library only, like workloads
from workloads import WORKLOADS, scenario_text


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_gates(tmp_path, name):
    w = WORKLOADS[name]
    run_scenario(parse_scenario(scenario_text(w, 1)), out_dir=str(tmp_path), tag="bench")
    csv_text = (tmp_path / "bench_diagnostics.csv").read_text()
    summary = (tmp_path / "bench_summary.json").read_text()
    assert gates.check_outputs(w, csv_text, summary) == []
    mon = gates.monitor_record(summary)
    if name.startswith("scatter-"):
        assert mon is not None
        assert all(mon[key] is not None for key in ("pass", "crossed", "min_mass_in_ball"))
    else:
        assert mon is None
