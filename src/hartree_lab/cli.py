"""Command-line interface: exponents, kato, ground-state, evolve, sweep."""

import argparse
import os
import sys

from . import scenario as scn
from .exponents import ModelParams, ab_exponents, identity_report, scattering_pairs
from .grid import RadialGrid, save_field_csv
from .groundstate import (GroundStateError, pohozaev_check, solve_ground_state,
                          threshold_functions)
from .potentials import audit_hypotheses
from .riesz import build_kernel


def _model_params(args):
    """Intercritical ModelParams of --p and --gamma; else exit with one line."""
    try:
        params = ModelParams(args.p, args.gamma)
        ab_exponents(params)
        return params
    except ValueError as exc:
        raise SystemExit(f"--p {args.p:g} --gamma {args.gamma:g}: {exc}") from None


def _grid(args):
    """RadialGrid of --r-max and --n; else exit with one line."""
    try:
        return RadialGrid(args.r_max, args.n)
    except ValueError as exc:
        raise SystemExit(f"--r-max {args.r_max:g} --n {args.n}: {exc}") from None


def cmd_exponents(args):
    params = _model_params(args)
    try:  # the pairs need eps in [0, 1/10) and small enough at (p, gamma)
        es = scattering_pairs(params, args.eps)
    except ValueError as exc:
        raise SystemExit(f"--eps {args.eps:g} at --p {args.p:g} --gamma {args.gamma:g}: "
                         f"{exc}") from None
    rep = identity_report(params, args.eps)
    payload = {"params": {"p": args.p, "gamma": args.gamma, "eps": args.eps},
               "exponents": es,
               "identities": rep,
               "all_pass": all(v["pass"] for v in rep.values())}
    print(scn.strict_json(payload))
    return 0 if payload["all_pass"] else 1


def cmd_ground_state(args):
    params = _model_params(args)
    if not args.tol > 0:
        raise SystemExit(f"--tol {args.tol:g}: a positive residual tolerance required")
    grid = _grid(args)
    kern = build_kernel(args.gamma, grid)
    gs = solve_ground_state(params, grid, kern, tol=args.tol)
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


def _load_scenario(path):
    try:
        with open(path) as fh:
            return scn.parse_scenario(fh.read())
    except OSError as exc:
        raise SystemExit(f"{path}: {exc.strerror or exc}") from None


def cmd_kato(args):
    s = _load_scenario(args.config)
    print(scn.strict_json(audit_hypotheses(s.potential, RadialGrid(s.grid_r_max, s.grid_n))))
    return 0


def cmd_evolve(args):
    s = _load_scenario(args.config)
    summary = scn.run_scenario(s, out_dir=args.output_dir, tag=args.tag)
    print(scn.strict_json({"verdicts": summary["verdicts"], "failures": summary["failures"]}))
    return 0 if summary["pass"] else 1


def cmd_sweep(args):
    s = _load_scenario(args.config)
    cast = int if args.axis == "n" else float
    try:
        values = [cast(x) for x in args.values.split(",")]
    except ValueError as exc:
        raise SystemExit(f"--values: {exc}") from None
    rep = scn.sweep(s, args.axis, values, out_dir=args.output_dir)
    print(scn.strict_json({"csv": rep["csv"], "pass": rep["pass"]}))
    return 0 if rep["pass"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(prog="hartree-lab",
                                 description="Radial generalized-Hartree laboratory")
    ap.add_argument("--output-dir", default="./out")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p1 = sub.add_parser("exponents", help="exponent set and identity checks")
    p1.add_argument("--p", type=float, required=True)
    p1.add_argument("--gamma", type=float, required=True)
    p1.add_argument("--eps", type=float, default=1e-3)
    p1.set_defaults(fn=cmd_exponents)

    p2 = sub.add_parser("kato", help="audit a scenario's potential against the hypotheses")
    p2.add_argument("--config", required=True)
    p2.set_defaults(fn=cmd_kato)

    p3 = sub.add_parser("ground-state", help="solve the ground state")
    p3.add_argument("--p", type=float, required=True)
    p3.add_argument("--gamma", type=float, required=True)
    p3.add_argument("--tol", type=float, default=1e-9)
    p3.add_argument("--r-max", type=float, default=32.0)
    p3.add_argument("--n", type=int, default=3071)
    p3.set_defaults(fn=cmd_ground_state)

    p4 = sub.add_parser("evolve", help="run a scenario")
    p4.add_argument("--config", required=True)
    p4.add_argument("--tag", default="run")
    p4.set_defaults(fn=cmd_evolve)

    p5 = sub.add_parser("sweep", help="parameter sweep over a scenario template")
    p5.add_argument("--config", required=True)
    p5.add_argument("--axis", required=True, choices=scn.SWEEP_AXES)
    p5.add_argument("--values", required=True, help="comma-separated values")
    p5.set_defaults(fn=cmd_sweep)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except GroundStateError as exc:
        raise SystemExit(f"ground state: {exc}") from None
    except scn.ConfigError as exc:  # at parse time, or for c Q once Q is solved
        raise SystemExit(f"{args.config}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
