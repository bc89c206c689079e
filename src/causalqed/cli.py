"""Batch command-line front end.

Subcommands: split, vacuum-pol, self-energy, adiabatic-sweep,
fock-check, wick-expand.  Structured results go to JSON, series to CSV
(floats at 17 significant digits, so identical configs give
byte-identical outputs).  Exit codes: 0 success, 2 validation failure,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .adiabatic import ScalingFamily, gaussian_profile, sweep
from .distributions import CausalDistribution, descriptor_from_json, scaling_degree_estimate
from .fock import commutator_check, uniform_grid
from .induction import LatticeToy, OrderData, extend_series
from .qed2 import build_self_energy, build_vacuum_polarization, check_on_shell
from .splitting import (SplitInputError, SplitSpec, ambiguity_dimension,
                        reconstruction_residual, split, toy_causal)
from .wick import scalar_vertex

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

DEFAULTS = {
    "m": 1.0,
    "mu_over_m": 0.1,
    "eps_start": 2.0 ** -3,
    "eps_stop": 2.0 ** -14,
    "eps_steps": 12,
    "grid_modes": 6,
    "cutoff": 3,
    "order_cap": 5,
    "grid_modes_cap": 8,
    "cutoff_cap": 4,
    "s_grid": {"start": -10.0, "stop": 3.5, "points": 28},
}

_TOYS = {
    "sgn-exp": lambda: (toy_causal(0), -1),
    "sgn-exp-d3": lambda: (toy_causal(3), 2),
    "lattice-k2": lambda: (
        CausalDistribution(eval_fn=lambda E: LatticeToy().commutator_hat(E, 2),
                           omega=-2, support_tag="causal"),
        -2,
    ),
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _outdir(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _split_input(args):
    """(distribution, omega) named by --toy or by the --config file."""
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
    toy_name = args.toy or cfg.get("toy")
    if toy_name:
        if toy_name not in _TOYS:
            raise ValueError(f"unknown toy distribution {toy_name!r}")
        return _TOYS[toy_name]()
    if cfg.get("descriptor"):
        d = descriptor_from_json(json.dumps(cfg["descriptor"]))
        return d, d.omega
    raise ValueError("config must name a toy or supply a descriptor")


def cmd_split(args) -> int:
    try:
        d, omega = _split_input(args)
    except (OSError, TypeError, ValueError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out = _outdir(args)
    constants = [c for c in (args.c0, args.c1, args.c2) if c is not None]
    need = ambiguity_dimension(omega)
    if omega >= 0 and len(constants) < need:
        print(f"omega={omega} requires {need} normalization constants", file=sys.stderr)
        return EXIT_VALIDATION
    if omega < 0 and constants:
        print("warning: normalization constants ignored (unique split below order 0)",
              file=sys.stderr)
        constants = []
    try:
        spec = SplitSpec(omega=omega, normalization=tuple(constants[:max(need, 0)]))
        result = split(d, spec)
    except SplitInputError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        Es = np.linspace(-6.0, 6.0, 25)
        rows = []
        for E in Es:
            dv = complex(d.eval_fn(E))
            rv = complex(result.retarded.eval_fn(E))
            av = complex(result.advanced.eval_fn(E))
            rows.append((E, dv.real, dv.imag, rv.real, rv.imag, av.real, av.imag))
        _write_csv(os.path.join(out, "split.csv"),
                   ["E", "d_re", "d_im", "ret_re", "ret_im", "adv_re", "adv_im"], rows)
        omega_est = scaling_degree_estimate(
            lambda p: d.eval_fn(float(np.asarray(p).reshape(-1)[0])),
            [1.0, 0.0, 0.0, 0.0])
        _write_json(os.path.join(out, "split_report.json"), {
            "omega": omega,
            "omega_estimate": omega_est,
            "ambiguity_dimension": need,
            "reconstruction_residual": reconstruction_residual(d, result, Es),
        })
    except (ArithmeticError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _green_from_args(args, which: str):
    m = args.m if args.m is not None else DEFAULTS["m"]
    if args.normalization == "custom":
        consts = (args.c0 or 0.0, args.c1 or 0.0)
    else:
        consts = "on-shell"
    if which == "vacuum-pol":
        return build_vacuum_polarization(m, normalization=consts)
    mu = args.mu if args.mu is not None else m * DEFAULTS["mu_over_m"]
    return build_self_energy(m, photon_mass=mu, normalization=consts)


def cmd_green(args) -> int:
    out = _outdir(args)
    try:
        green = _green_from_args(args, args.command)
    except ValueError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    try:
        g = DEFAULTS["s_grid"]
        stop = min(g["stop"], 0.95 * green.threshold)
        ss = np.linspace(g["start"], stop, g["points"])
        rows = []
        if args.command == "vacuum-pol":
            for s in ss:
                v = complex(green.scalar_part(s))
                rows.append((s, v.real, v.imag))
            _write_csv(os.path.join(out, "vacuum_pol.csv"), ["p2", "re", "im"], rows)
        else:
            for s in ss:
                va = complex(green.a(s))
                vb = complex(green.b(s))
                rows.append((s, va.real, va.imag, vb.real, vb.imag))
            _write_csv(os.path.join(out, "self_energy.csv"),
                       ["p2", "a_re", "a_im", "b_re", "b_im"], rows)
        report = check_on_shell(green, tol=args.tol)
        _write_json(os.path.join(out, f"{args.command.replace('-', '_')}_report.json"), report)
    except (ArithmeticError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _schedule(args):
    start = args.eps_start if args.eps_start is not None else DEFAULTS["eps_start"]
    stop = args.eps_stop if args.eps_stop is not None else DEFAULTS["eps_stop"]
    steps = args.eps_steps if args.eps_steps is not None else DEFAULTS["eps_steps"]
    if not (start > stop > 0) or steps < 1:
        raise ValueError("schedule must satisfy eps_start > eps_stop > 0, steps >= 1")
    return tuple(np.geomspace(start, stop, steps))


def cmd_sweep(args) -> int:
    out = _outdir(args)
    try:
        sched = _schedule(args)
        family = gaussian_profile()
        family = ScalingFamily(g_hat=family.g_hat, alpha0=family.alpha0,
                               epsilon_schedule=sched)
    except ValueError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    xi = lambda pvec: float(np.exp(-float(np.dot(pvec, pvec))))
    phi = lambda p4: float(np.exp(-float(np.dot(p4, p4))))
    channel = args.channel
    try:
        green = None if channel == "massless_charge" else _green_from_args(
            args, "vacuum-pol" if channel.startswith("Pi") else "self-energy")
    except ValueError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    try:
        if green is None:
            result = sweep(channel, None, xi, phi, family,
                           constants=(args.c0 or 0.0, args.c1 or 0.0))
        else:
            result = sweep(channel, green, xi, phi, family)
    except (ArithmeticError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    rows = [(e, v.real, v.imag, abs(v)) for e, v in zip(result.epsilons, result.values)]
    _write_csv(os.path.join(out, "sweep.csv"), ["eps", "re", "im", "abs"], rows)
    _write_json(os.path.join(out, "sweep_verdict.json"), {
        "channel": channel,
        "verdict": result.verdict,
        "fitted_exponent": result.fitted_exponent,
        "limit_estimate": None if result.limit_estimate is None else
            [result.limit_estimate.real, result.limit_estimate.imag],
    })
    return EXIT_OK


def cmd_fock_check(args) -> int:
    out = _outdir(args)
    modes = args.grid_modes if args.grid_modes is not None else DEFAULTS["grid_modes"]
    cutoff = args.cutoff if args.cutoff is not None else DEFAULTS["cutoff"]
    if not (1 <= modes <= DEFAULTS["grid_modes_cap"] and 1 <= cutoff <= DEFAULTS["cutoff_cap"]):
        print("grid size and cutoff must lie between 1 and the configured caps",
              file=sys.stderr)
        return EXIT_VALIDATION
    report = {}
    try:
        for stat in ("bose", "fermi"):
            report[stat] = commutator_check(uniform_grid(modes, statistic=stat), cutoff=cutoff)
            if not np.isfinite(report[stat]):
                raise ArithmeticError(f"non-finite {stat} deviation")
    except (ArithmeticError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _write_json(os.path.join(out, "fock_check.json"), {
        "grid_modes": modes, "cutoff": cutoff,
        "max_deviation": report,
    })
    return EXIT_OK


def cmd_wick_expand(args) -> int:
    out = _outdir(args)
    order = args.order if args.order is not None else 2
    if order < 1:
        print("order must be >= 1", file=sys.stderr)
        return EXIT_VALIDATION
    if order > DEFAULTS["order_cap"]:
        print(f"order {order} exceeds the symbolic cap {DEFAULTS['order_cap']}",
              file=sys.stderr)
        return EXIT_VALIDATION
    power = 3 if order <= 3 else 1
    data = OrderData(S={1: scalar_vertex("x1", power=power).scaled(1j)})
    try:
        extend_series(data, order)
    except (ArithmeticError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    with open(os.path.join(out, f"wick_order{order}.json"), "w") as fh:
        fh.write(data.S[order].to_json())
        fh.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="causalqed",
        description="Causal perturbation theory batch runs.  Defaults: "
                    + json.dumps(DEFAULTS, sort_keys=True))
    sub = p.add_subparsers(dest="command")

    # each subcommand registers only the options its cmd_* reads
    def subcommand(name, func, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--out", help="output directory (default .)")
        sp.set_defaults(func=func)
        return sp

    def green_options(sp, photon_mass):
        sp.add_argument("--m", type=float, help="charged-field mass")
        if photon_mass:
            sp.add_argument("--mu", type=float, help="photon-mass regulator")
        sp.add_argument("--normalization", choices=["on-shell", "custom"],
                        default="on-shell")
        sp.add_argument("--c0", type=float)
        sp.add_argument("--c1", type=float)

    sp = subcommand("split", cmd_split, "split a causal toy distribution")
    sp.add_argument("--config", help="JSON configuration file")
    sp.add_argument("--toy", choices=sorted(_TOYS))
    for flag in ("--c0", "--c1", "--c2"):
        sp.add_argument(flag, type=float)

    for name in ("vacuum-pol", "self-energy"):
        sp = subcommand(name, cmd_green, f"build the {name} Green function")
        green_options(sp, photon_mass=name == "self-energy")
        sp.add_argument("--tol", type=float, default=1e-8)

    sp = subcommand("adiabatic-sweep", cmd_sweep, "run an adiabatic-limit sweep")
    green_options(sp, photon_mass=True)
    sp.add_argument("--channel", default="Sigma_into_psi",
                    choices=["Sigma_into_psi", "Pi_into_A", "Pi_into_current",
                             "massless_charge"])
    sp.add_argument("--eps-start", type=float)
    sp.add_argument("--eps-stop", type=float)
    sp.add_argument("--eps-steps", type=int)

    sp = subcommand("fock-check", cmd_fock_check, "grid ladder-operator CCR/CAR check")
    sp.add_argument("--grid-modes", type=int)
    sp.add_argument("--cutoff", type=int)

    sp = subcommand("wick-expand", cmd_wick_expand, "canonical JSON of the order-n kernel")
    sp.add_argument("--order", type=int)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_VALIDATION
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
