"""The README's command-line examples run against the README's scenario
document, so an example that no longer matches the CLI fails here."""

import json
import re
import shlex
from pathlib import Path

import pytest

from hartree_lab import scenario as scn
from hartree_lab.cli import main as cli_main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


# every `hartree-lab ...` line of the README's shell blocks
COMMANDS = [line for block in _blocks("sh") for line in block.splitlines()
            if line.startswith("hartree-lab ")]


def test_readme_has_one_scenario_and_every_subcommand():
    assert len(_blocks("ini")) == 1
    subcommands = {shlex.split(line)[1] for line in COMMANDS}
    assert {"exponents", "kato", "ground-state"} <= subcommands


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(tmp_path, monkeypatch, capsys, line):
    (tmp_path / "scenario.ini").write_text(_blocks("ini")[0])
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line)[1:]
    if {"evolve", "sweep"} & set(argv):
        # the example runs evolve to t = 30, about 10 s per run: stand in for
        # the run, so the example's options and the sweep's checks still run
        monkeypatch.setattr(scn, "run_scenario", lambda s, out_dir, tag: {
            "pass": True, "verdicts": {}, "failures": [], "thresholds": {}})
    assert cli_main(argv) == 0
    json.loads(capsys.readouterr().out)
