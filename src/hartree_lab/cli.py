"""Command-line interface: exponents, kato, ground-state, evolve, sweep.

Every subcommand reads one scenario document, named by ``--config``:
``main`` parses it once and hands it to the command as ``args.scenario``."""

import argparse
import os
import sys

from . import scenario as scn
from .exponents import ab_exponents, identity_report, scattering_pairs
from .grid import save_field_csv
from .groundstate import (GroundStateError, pohozaev_check, solve_ground_state,
                          threshold_functions)
from .potentials import audit_hypotheses
from .riesz import build_kernel


def _intercritical(s):
    """s.model, on whose range Q and the pairs exist; else a ConfigError naming it."""
    try:
        ab_exponents(s.model)
    except ValueError as exc:
        raise scn.ConfigError(str(exc)) from None
    return s.model


def cmd_exponents(args):
    s = args.scenario
    params = _intercritical(s)
    try:  # the pairs need eps in [0, 1/10) and small enough at (p, gamma)
        es = scattering_pairs(params, args.eps)
    except ValueError as exc:
        raise SystemExit(f"--eps {args.eps:g} at p = {s.p:g}, gamma = {s.gamma:g}: "
                         f"{exc}") from None
    rep = identity_report(params, args.eps)
    payload = {"params": {"p": s.p, "gamma": s.gamma, "eps": args.eps},
               "exponents": es,
               "identities": rep,
               "all_pass": all(v["pass"] for v in rep.values())}
    print(scn.strict_json(payload))
    return 0 if payload["all_pass"] else 1


def cmd_ground_state(args):
    # the run's Q: the scenario's model and grid, certified as a run certifies it
    s = args.scenario
    grid = s.grid
    gs = solve_ground_state(_intercritical(s), grid, build_kernel(s.gamma, grid))
    os.makedirs(args.output_dir, exist_ok=True)
    field_path = os.path.join(args.output_dir, "ground_state.csv")
    save_field_csv(gs.Q, field_path)
    payload = {
        "residual": gs.residual,
        "iterations": gs.iterations,
        "mass": gs.mass,
        "grad_norm_sq": gs.grad_norm_sq,
        "P": gs.P,
        "E0": gs.E0,
        "C_op": gs.C_op,
        "thresholds": gs.thresholds,
        "pohozaev": pohozaev_check(gs),
        "threshold_functions": threshold_functions(gs),
        "field_file": field_path,
    }
    text = scn.strict_json(payload)
    with open(os.path.join(args.output_dir, "ground_state.json"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def cmd_kato(args):
    s = args.scenario
    print(scn.strict_json(audit_hypotheses(s.potential, s.grid)))
    return 0


def cmd_evolve(args):
    summary = scn.run_scenario(args.scenario, out_dir=args.output_dir, tag=args.tag)
    print(scn.strict_json({"verdicts": summary["verdicts"], "failures": summary["failures"]}))
    return 0 if summary["pass"] else 1


def cmd_sweep(args):
    cast = int if args.axis == "n" else float
    try:  # a value that is no number, or one of sweep's checks before any run
        values = [cast(x) for x in args.values.split(",")]
        rep = scn.sweep(args.scenario, args.axis, values, out_dir=args.output_dir)
    except ValueError as exc:
        raise SystemExit(f"--axis {args.axis} --values {args.values}: {exc}") from None
    print(scn.strict_json({"csv": rep["csv"], "pass": rep["pass"]}))
    return 0 if rep["pass"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(prog="hartree-lab",
                                 description="Radial generalized-Hartree laboratory")
    ap.add_argument("--output-dir", default="./out")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="scenario document")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(name, fn, what):
        p = sub.add_parser(name, parents=[config], help=what)
        p.set_defaults(fn=fn)
        return p

    exponents = command("exponents", cmd_exponents, "exponent set and identity checks")
    exponents.add_argument("--eps", type=float, default=1e-3)
    command("kato", cmd_kato, "audit a scenario's potential against the hypotheses")
    command("ground-state", cmd_ground_state, "solve and certify a scenario's ground state")
    evolve = command("evolve", cmd_evolve, "run a scenario")
    evolve.add_argument("--tag", default="run")
    sweep = command("sweep", cmd_sweep, "parameter sweep over a scenario template")
    sweep.add_argument("--axis", required=True, choices=scn.SWEEP_AXES)
    sweep.add_argument("--values", required=True, help="comma-separated values")

    args = ap.parse_args(argv)
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        raise SystemExit(f"{args.config}: {exc.strerror or exc}") from None
    try:
        args.scenario = scn.parse_scenario(text)
        return args.fn(args)
    except GroundStateError as exc:
        raise SystemExit(f"ground state: {exc}") from None
    except scn.ConfigError as exc:  # at parse time, or for c Q once Q is solved
        raise SystemExit(f"{args.config}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
