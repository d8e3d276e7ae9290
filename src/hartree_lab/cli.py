"""Command-line interface: exponents, kato, ground-state, evolve, morawetz, sweep."""

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import scenario as scn
from .exponents import ModelParams, identity_report, scattering_pairs
from .grid import RadialGrid, save_field_csv
from .groundstate import pohozaev_check, solve_ground_state, threshold_functions
from .potentials import PotentialSpec, audit_hypotheses
from .riesz import build_kernel


def _parse_potential_arg(text):
    """Mini-grammar 'kind:key=val,key=val', e.g. 'gaussian:amplitude=0.2,width=2'.

    An unset amplitude is 1; other unset keys take PotentialSpec's defaults.
    """
    kind, _, rest = text.partition(":")
    if kind == "table":
        raise SystemExit("potential kind 'table' has no command-line form")
    kv = {}
    for part in rest.split(","):
        if part.strip():
            k, _, v = part.partition("=")
            kv[k.strip()] = v
    for k in kv:
        if k not in ("amplitude", "width", "power", "core"):
            raise SystemExit(f"unknown potential key {k!r}")
    try:
        return PotentialSpec(kind, **{"amplitude": 1.0, **{k: float(v) for k, v in kv.items()}})
    except ValueError as exc:
        raise SystemExit(f"bad potential {text!r}: {exc}")


def cmd_exponents(args):
    params = ModelParams(args.p, args.gamma, args.eps)
    es = scattering_pairs(params)
    rep = identity_report(params)
    payload = {"params": {"p": args.p, "gamma": args.gamma, "eps": args.eps},
               "exponents": {k: (v if np.isfinite(v) else "inf")
                             for k, v in es.as_dict().items()},
               "identities": rep,
               "all_pass": all(v["pass"] for v in rep.values())}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=float))
    else:
        for k, v in sorted(es.as_dict().items()):
            print(f"{k:28s} {v}")
        for k, v in rep.items():
            print(f"{k:28s} defect={v['defect']:.3e} {'PASS' if v['pass'] else 'FAIL'}")
    return 0 if payload["all_pass"] else 1


def cmd_kato(args):
    V = _parse_potential_arg(args.potential)
    grid = RadialGrid(args.r_max, args.n)
    audit = audit_hypotheses(V, grid)
    payload = {
        "kato_norm": audit.kato_norm,
        "kato_norm_negative_part": audit.kato_norm_negative_part,
        "kato_max_probe": audit.kato_max_probe,
        "l32_norm": audit.l32_norm,
        "nonneg": audit.nonneg,
        "x_grad_V_nonpositive": audit.radial_derivative_sign,
        "x_grad_V_lr_norms": {str(k): v for k, v in audit.x_grad_V_lr_norms.items()},
        "negative_part_below_4pi": audit.negative_part_below_4pi,
        "checks": audit.checks,
        "theorem_hypotheses_pass": audit.theorem_hypotheses_pass(),
    }
    print(json.dumps(payload, indent=2, sort_keys=True, default=float))
    return 0


def cmd_ground_state(args):
    params = ModelParams(args.p, args.gamma, args.eps)
    grid = RadialGrid(args.r_max, args.n)
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
    out = os.path.join(args.output_dir, "ground_state.json")
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    print(json.dumps(payload, indent=2, sort_keys=True, default=float))
    return 0


def _load_scenario(path):
    with open(path) as fh:
        return scn.parse_scenario(fh.read())


def cmd_evolve(args):
    s = _load_scenario(args.config)
    rep = scn.run_scenario(s, out_dir=args.output_dir, tag=args.tag)
    print(json.dumps({"verdicts": rep.verdicts, "failures": rep.failures},
                     indent=2, sort_keys=True, default=float))
    return rep.exit_code


def cmd_morawetz(args):
    s = _load_scenario(args.config)
    requests = s.requests if "morawetz" in s.requests else s.requests + ("morawetz",)
    s = replace(s, requests=requests, morawetz_R=s.morawetz_R or (10.0,))
    rep = scn.run_scenario(s, out_dir=args.output_dir, tag=args.tag)
    print(json.dumps({"verdicts": rep.verdicts, "failures": rep.failures},
                     indent=2, sort_keys=True, default=float))
    return rep.exit_code


def cmd_sweep(args):
    s = _load_scenario(args.config)
    values = [float(x) for x in args.values.split(",")]
    if args.axis == "n":
        values = [int(v) for v in values]
    rep = scn.sweep(s, args.axis, values, out_dir=args.output_dir)
    print(json.dumps({"csv": rep["csv"], "pass": rep["pass"]}, indent=2))
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
    p1.add_argument("--json", action="store_true")
    p1.set_defaults(fn=cmd_exponents)

    p2 = sub.add_parser("kato", help="potential hypothesis audit")
    p2.add_argument("--potential", required=True,
                    help="kind:key=val,... e.g. gaussian:amplitude=-1,width=1")
    p2.add_argument("--r-max", type=float, default=40.0)
    p2.add_argument("--n", type=int, default=2047)
    p2.set_defaults(fn=cmd_kato)

    p3 = sub.add_parser("ground-state", help="solve the ground state")
    p3.add_argument("--p", type=float, required=True)
    p3.add_argument("--gamma", type=float, required=True)
    p3.add_argument("--eps", type=float, default=1e-3)
    p3.add_argument("--tol", type=float, default=1e-9)
    p3.add_argument("--r-max", type=float, default=32.0)
    p3.add_argument("--n", type=int, default=3071)
    p3.set_defaults(fn=cmd_ground_state)

    p4 = sub.add_parser("evolve", help="run a scenario")
    p4.add_argument("--config", required=True)
    p4.add_argument("--tag", default="run")
    p4.set_defaults(fn=cmd_evolve)

    p5 = sub.add_parser("morawetz", help="run a scenario with Morawetz averages")
    p5.add_argument("--config", required=True)
    p5.add_argument("--tag", default="morawetz")
    p5.set_defaults(fn=cmd_morawetz)

    p6 = sub.add_parser("sweep", help="parameter sweep over a scenario template")
    p6.add_argument("--config", required=True)
    p6.add_argument("--axis", required=True, choices=scn.SWEEP_AXES)
    p6.add_argument("--values", required=True, help="comma-separated values")
    p6.set_defaults(fn=cmd_sweep)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
