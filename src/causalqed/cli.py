"""Batch command-line front end.

Subcommands: split, vacuum-pol, self-energy, adiabatic-sweep,
fock-check, wick-expand.  Structured results go to JSON, series to CSV
(floats at 17 significant digits, so identical configs give
byte-identical outputs).  Each cmd_* returns its files as {name: text}
and raises on failure; main alone writes them (creating --out at the
first write) and maps each outcome to an exit code: 0 success,
2 validation failure (an unusable input or --out), 3 numeric failure
(ArithmeticError or ValueError while computing).  The parser holds the
defaults from DEFAULTS, which --help prints; it is built once per process
and names each subcommand's cmd_* function, which main looks up when it
runs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

import numpy as np

from .adiabatic import CHANNELS, SWEEP_MIN_STEPS, ScalingFamily, gaussian_profile, sweep
from .distributions import CausalDistribution, scaling_degree_estimate
from .fock import commutator_check, uniform_grid
from .induction import LatticeToy, OrderData, extend_series
from .qed2 import build_self_energy, build_vacuum_polarization, check_on_shell
from .splitting import (SplitSpec, ambiguity_dimension, reconstruction_residual, split,
                        toy_causal)
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
    "order": 2,
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


class _InvalidInput(Exception):
    """An input the run cannot use; main reports it with exit code 2."""


@contextlib.contextmanager
def _input_errors():
    """Re-raise errors from reading or building inputs, or writing --out, as _InvalidInput."""
    try:
        yield
    except (OSError, TypeError, ValueError) as exc:
        raise _InvalidInput(exc) from exc


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv(header, rows) -> str:
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write(out: str, files: dict) -> None:
    """Create the output directory and write each {name: text} entry into it."""
    os.makedirs(out, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(out, name), "w") as fh:
            fh.write(text)


def _split_input(args):
    """(distribution, omega) of the toy named by --toy."""
    if not args.toy:
        raise ValueError("--toy must name a toy distribution")
    if args.toy not in _TOYS:
        raise ValueError(f"unknown toy distribution {args.toy!r}")
    return _TOYS[args.toy]()


def cmd_split(args) -> dict:
    constants = [c for c in (args.c0, args.c1, args.c2) if c is not None]
    with _input_errors():
        d, omega = _split_input(args)
        need = ambiguity_dimension(omega)
        if omega >= 0 and len(constants) < need:
            raise _InvalidInput(f"omega={omega} requires {need} normalization constants")
        if omega < 0 and constants:
            print("warning: normalization constants ignored (unique split below order 0)",
                  file=sys.stderr)
            constants = []
        spec = SplitSpec(omega=omega, normalization=tuple(constants[:max(need, 0)]))
        result = split(d, spec)
    Es = np.linspace(-6.0, 6.0, 25)
    dv, rv, av = (np.asarray(f(Es), dtype=complex)
                  for f in (d.eval_fn, result.retarded.eval_fn, result.advanced.eval_fn))
    rows = zip(Es, dv.real, dv.imag, rv.real, rv.imag, av.real, av.imag)
    omega_est = scaling_degree_estimate(d.eval_fn)
    return {
        "split.csv": _csv(["E", "d_re", "d_im", "ret_re", "ret_im", "adv_re", "adv_im"], rows),
        "split_report.json": _json({
            "omega": omega,
            "omega_estimate": omega_est,
            "ambiguity_dimension": need,
            "reconstruction_residual": reconstruction_residual(d, result, Es),
        }),
    }


def _green_from_args(args, which: str):
    if args.normalization == "custom":
        consts = (args.c0, args.c1)
    else:
        consts = "on-shell"
    if which == "vacuum-pol":
        return build_vacuum_polarization(args.m, normalization=consts)
    mu = args.mu if args.mu is not None else args.m * DEFAULTS["mu_over_m"]
    return build_self_energy(args.m, photon_mass=mu, normalization=consts)


def cmd_green(args) -> dict:
    with _input_errors():
        green = _green_from_args(args, args.command)
    g = DEFAULTS["s_grid"]
    stop = min(g["stop"], 0.95 * green.threshold)
    ss = np.linspace(g["start"], stop, g["points"])
    rows = []
    if args.command == "vacuum-pol":
        header = ["p2", "re", "im"]
        for s in ss:
            v = complex(green.scalar_part(s))
            rows.append((s, v.real, v.imag))
    else:
        header = ["p2", "a_re", "a_im", "b_re", "b_im"]
        for s in ss:
            va = complex(green.a(s))
            vb = complex(green.b(s))
            rows.append((s, va.real, va.imag, vb.real, vb.imag))
    name = args.command.replace("-", "_")
    report = check_on_shell(green, tol=args.tol)
    return {f"{name}.csv": _csv(header, rows), f"{name}_report.json": _json(report)}


def cmd_sweep(args) -> dict:
    channel = args.channel
    with _input_errors():
        if not args.eps_start > args.eps_stop:
            raise _InvalidInput("schedule must satisfy eps_start > eps_stop")
        if args.eps_steps < SWEEP_MIN_STEPS:
            raise _InvalidInput(f"a sweep needs at least {SWEEP_MIN_STEPS} eps steps to classify")
        if args.mu is not None and channel != "Sigma_into_psi":
            raise _InvalidInput(f"--mu applies to Sigma_into_psi only, not {channel}")
        sched = tuple(np.geomspace(args.eps_start, args.eps_stop, args.eps_steps))
        family = ScalingFamily(g_hat=gaussian_profile().g_hat, epsilon_schedule=sched)
        green = None if channel == "massless_charge" else _green_from_args(
            args, "vacuum-pol" if channel.startswith("Pi") else "self-energy")
    xi = lambda pvec: float(np.exp(-float(np.dot(pvec, pvec))))
    phi = lambda p4: float(np.exp(-float(np.dot(p4, p4))))
    result = sweep(channel, green, xi, phi, family, constants=(args.c0, args.c1))
    rows = [(e, v.real, v.imag, abs(v)) for e, v in zip(result.epsilons, result.values)]
    return {
        "sweep.csv": _csv(["eps", "re", "im", "abs"], rows),
        "sweep_verdict.json": _json({
            "channel": channel,
            "verdict": result.verdict,
            "fitted_exponent": result.fitted_exponent,
            "limit_estimate": None if result.limit_estimate is None else
                [result.limit_estimate.real, result.limit_estimate.imag],
        }),
    }


def cmd_fock_check(args) -> dict:
    modes, cutoff = args.grid_modes, args.cutoff
    if not (1 <= modes <= DEFAULTS["grid_modes_cap"] and 1 <= cutoff <= DEFAULTS["cutoff_cap"]):
        raise _InvalidInput("grid size and cutoff must lie between 1 and the configured caps")
    report = {}
    for stat in ("bose", "fermi"):
        report[stat] = commutator_check(uniform_grid(modes, statistic=stat), cutoff=cutoff)
        if not np.isfinite(report[stat]):
            raise ArithmeticError(f"non-finite {stat} deviation")
    return {"fock_check.json": _json({
        "grid_modes": modes, "cutoff": cutoff,
        "max_deviation": report,
    })}


def cmd_wick_expand(args) -> dict:
    order = args.order
    if order < 1:
        raise _InvalidInput("order must be >= 1")
    if order > DEFAULTS["order_cap"]:
        raise _InvalidInput(f"order {order} exceeds the symbolic cap {DEFAULTS['order_cap']}")
    power = 3 if order <= 3 else 1
    data = OrderData(S={1: scalar_vertex("x1", power=power).scaled(1j)})
    extend_series(data, order)
    return {f"wick_order{order}.json": data.S[order].to_json() + "\n"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, one per process.  It holds no function and no mutable
    table: each subcommand names its cmd_* function, and --toy is checked by
    _split_input, so a patched cmd_* or toy table takes effect."""
    p = argparse.ArgumentParser(
        prog="causalqed",
        description="Causal perturbation theory batch runs.  Defaults: "
                    + json.dumps(DEFAULTS, sort_keys=True))
    sub = p.add_subparsers(dest="command")

    # each subcommand registers only the options its cmd_* reads
    def subcommand(name, handler, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--out", default=".", help="output directory (default .)")
        sp.set_defaults(handler=handler)
        return sp

    def green_options(sp, photon_mass):
        sp.add_argument("--m", type=float, default=DEFAULTS["m"], help="charged-field mass")
        if photon_mass:
            sp.add_argument("--mu", type=float, help="photon-mass regulator (default m mu_over_m)")
        sp.add_argument("--normalization", choices=["on-shell", "custom"],
                        default="on-shell")
        sp.add_argument("--c0", type=float, default=0.0)
        sp.add_argument("--c1", type=float, default=0.0)

    sp = subcommand("split", "cmd_split", "split a causal toy distribution")
    sp.add_argument("--toy", help="built-in toy: " + ", ".join(sorted(_TOYS)))
    for flag in ("--c0", "--c1", "--c2"):
        sp.add_argument(flag, type=float)

    for name in ("vacuum-pol", "self-energy"):
        sp = subcommand(name, "cmd_green", f"build the {name} Green function")
        green_options(sp, photon_mass=name == "self-energy")
        sp.add_argument("--tol", type=float, default=1e-8)

    sp = subcommand("adiabatic-sweep", "cmd_sweep", "run an adiabatic-limit sweep")
    green_options(sp, photon_mass=True)
    sp.add_argument("--channel", default="Sigma_into_psi", choices=CHANNELS)
    sp.add_argument("--eps-start", type=float, default=DEFAULTS["eps_start"])
    sp.add_argument("--eps-stop", type=float, default=DEFAULTS["eps_stop"])
    sp.add_argument("--eps-steps", type=int, default=DEFAULTS["eps_steps"])

    sp = subcommand("fock-check", "cmd_fock_check", "grid ladder-operator CCR/CAR check")
    sp.add_argument("--grid-modes", type=int, default=DEFAULTS["grid_modes"])
    sp.add_argument("--cutoff", type=int, default=DEFAULTS["cutoff"])

    sp = subcommand("wick-expand", "cmd_wick_expand", "canonical JSON of the order-n kernel")
    sp.add_argument("--order", type=int, default=DEFAULTS["order"])
    return p


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv) -> list:
    """Write '--c0 -7.4e-05' as '--c0=-7.4e-05'.  argparse takes a token that
    starts with '-' for an option flag unless it reads like -12 or -1.5, so
    a negative float in scientific notation, or -inf, would stop the parse."""
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and token.startswith("-") and _is_float(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    """Run one subcommand; the only place an outcome becomes an exit code."""
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    if not getattr(args, "handler", None):
        parser.print_help()
        return EXIT_VALIDATION
    try:
        files = globals()[args.handler](args)  # the module attribute, patched or not
        with _input_errors():
            _write(args.out, files)
    except _InvalidInput as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ArithmeticError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
