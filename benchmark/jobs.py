"""Seeded job kinds of the three workloads and their oracle checks.

A job is one seeded task plus its checks.  Each kind draws its inputs
from its own random stream, so the same seed gives the same jobs; the
library receives only the generated values.  Library calls go through
module attributes (`qed2.build_self_energy(...)`) so that the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import shutil

import numpy as np

from causalqed import adiabatic, cli, distributions, fock, induction, qed2, splitting, wick

import oracles

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "spec.json")) as _fh:
    SPEC = json.load(_fh)

# Checks whose failure is a known defect of the program: they still fail
# their job and count in `failed`, but do not mark the run incorrect.
KNOWN_DEFECTS = SPEC["known_defects"]


class Checks:
    """Run-wide record of check outcomes, digits of margin and self-check samples."""

    def __init__(self):
        self.digits_min = math.inf
        self.samples = {}        # check name -> (got, want, rtol, atol) of a passing check
        self.byte_sample = None
        self.by_name = {}        # check name -> [passed, failed]
        self.references = {}     # (power, order) -> first normalized series kernel seen

    def record(self, name, ok):
        entry = self.by_name.setdefault(name, [0, 0])
        entry[0 if ok else 1] += 1


def close_ratio(got, want, rtol, atol) -> float:
    """max |got - want| / (atol + rtol |want|) over elements; <= 1 passes."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return math.inf
    tol = atol + rtol * np.abs(want)
    return float(np.max(np.abs(got - want) / tol)) if got.size else 0.0


class JobContext:
    def __init__(self, checks: Checks, workdir: str, tracer=None):
        self.checks = checks
        self.workdir = workdir
        self.tracer = tracer
        self.references = checks.references
        self.failures = []
        self._dirs = 0

    def oracle(self):
        return self.tracer.span("oracle") if self.tracer else contextlib.nullcontext()

    def close(self, name, got, want, rtol, atol):
        ratio = close_ratio(got, want, rtol, atol)
        ok = ratio <= 1.0
        self.checks.record(name, ok)
        if ok:
            if ratio > 0:
                self.checks.digits_min = min(self.checks.digits_min, -math.log10(ratio))
            self.checks.samples.setdefault(name, (np.asarray(got, dtype=complex),
                                                  np.asarray(want, dtype=complex), rtol, atol))
        else:
            self.failures.append(f"{name}: {ratio:.3g} x tolerance")

    def true(self, name, cond, detail=""):
        self.checks.record(name, bool(cond))
        if not cond:
            self.failures.append(f"{name}: {detail}")

    def same(self, name, a, b):
        self.true(name, a == b, "outputs differ")
        if self.checks.byte_sample is None and a == b and a:
            self.checks.byte_sample = a

    def fresh_dir(self):
        self._dirs += 1
        path = os.path.join(self.workdir, f"out{self._dirs}")
        shutil.rmtree(path, ignore_errors=True)
        return path


_WEYL = [math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)]


class Draw:
    """Inputs of the i-th job of a kind.  `spread` walks one Weyl sequence per
    parameter, rotated by a seeded shift, so the jobs of a pass cover each
    range evenly and cost the same from seed to seed; `rng` draws freely."""

    def __init__(self, rng, shifts, i):
        self.rng, self.shifts, self.i, self._k = rng, shifts, i, 0

    def spread(self, lo, hi):
        k = self._k
        self._k += 1
        return lo + (hi - lo) * float((self.shifts[k] + self.i * _WEYL[k]) % 1.0)

    def sign(self):
        return float(self.rng.choice([-1.0, 1.0]))

    def seed(self):
        return int(self.rng.integers(0, 2 ** 31))


def _read_outputs(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _csv_rows(data: bytes):
    lines = data.decode().strip().splitlines()[1:]
    return np.array([[float(x) for x in line.split(",")] for line in lines])


def _cli(ctx, argv):
    """Run one subcommand twice in-process; both must exit 0 with identical files."""
    outputs = []
    for _ in range(2):
        out = ctx.fresh_dir()
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv) + ["--out", out])
        ctx.true("cli.exit_ok", code == 0, f"{argv[0]} exited {code}")
        outputs.append(_read_outputs(out) if code == 0 else {})
    with ctx.oracle():
        ctx.same("cli.identical", outputs[0], outputs[1])
    return outputs[0]


def _cli_rejects(ctx, argv):
    out = ctx.fresh_dir()
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv) + ["--out", out])
    ctx.true("cli.validation_exit_2", code == 2, f"{argv} exited {code}")


# -- green_curves -------------------------------------------------------------

PI_RTOL, PI_ATOL = 1e-9, 1e-12
SIGMA_RTOL, SIGMA_ATOL = 1e-9, 1e-11


def vp_curve_params(d):
    m = d.spread(0.5, 2.0)
    return {"m": m, "s": [d.spread(-10.0, 3.9) * m * m for _ in range(3)],
            "s_rho": d.spread(4.5, 100.0) * m * m}


def vp_curve(p, ctx):
    m = p["m"]
    vp = qed2.build_vacuum_polarization(m)
    values = [complex(vp.scalar_part(s)) for s in p["s"]]
    rho = vp.rho(p["s_rho"])
    with ctx.oracle():
        ctx.close("vp_curve.Pi", values, [oracles.pi_closed(m, s) for s in p["s"]],
                  PI_RTOL, PI_ATOL)
        ctx.close("vp.rho", rho, oracles.pi_rho(m, p["s_rho"]), 1e-12, 1e-15)


def vp_cut_params(d):
    m = d.spread(0.5, 2.0)
    z = complex(d.spread(-5.0, 25.0), d.spread(0.5, 3.0)) * m * m
    return {"m": m, "s": [d.spread(4.2, 25.0) * m * m], "z": [z.real, z.imag]}


def vp_cut(p, ctx):
    m = p["m"]
    z = complex(*p["z"])
    vp = qed2.build_vacuum_polarization(m)
    on_cut = [complex(vp.scalar_part(s)) for s in p["s"]]
    at_z = complex(vp.scalar_part(z))
    with ctx.oracle():
        want = [oracles.pi_closed(m, s) for s in p["s"]]
        ctx.close("vp_cut.Im_is_rho", [v.imag for v in on_cut],
                  [oracles.pi_rho(m, s) for s in p["s"]], PI_RTOL, PI_ATOL)
        ctx.close("vp_cut.Pi_complex", at_z, oracles.pi_closed(m, z), PI_RTOL, PI_ATOL)
        ctx.close("vp_cut.Pi_real", [v.real for v in on_cut], [w.real for w in want],
                  PI_RTOL, PI_ATOL)


def se_curve_params(d):
    m = d.spread(0.5, 2.0)
    mu = m * d.spread(0.05, 0.2)
    thr = (m + mu) ** 2
    return {"m": m, "mu": mu, "s": [d.spread(-10.0 * m * m, 0.95 * thr) for _ in range(5)]}


def se_curve(p, ctx):
    m, mu = p["m"], p["mu"]
    se = qed2.build_self_energy(m, photon_mass=mu)
    a = [complex(se.a(s)) for s in p["s"]]
    b = [complex(se.b(s)) for s in p["s"]]
    report = qed2.check_on_shell(se)
    with ctx.oracle():
        consts = oracles.sigma_constants(m, mu)
        ctx.close("se.constants", se.constants, consts, SIGMA_RTOL, SIGMA_ATOL)
        want = [oracles.sigma_ab(m, mu, s, consts) for s in p["s"]]
        ctx.close("se_curve.a", a, [w[0] for w in want], SIGMA_RTOL, SIGMA_ATOL)
        ctx.close("se_curve.b", b, [w[1] for w in want], SIGMA_RTOL, SIGMA_ATOL)
        ctx.true("se.on_shell", report["all_pass"], str(report["conditions"]))


SPLIT_RTOL, SPLIT_ATOL = 1e-8, 1e-10


def split_toy_params(d):
    return {"E": [d.spread(-6.0, 6.0) for _ in range(4)],
            "c": [d.spread(-1.0, 1.0) for _ in range(3)]}


def _lattice_causal(k):
    toy = induction.LatticeToy()
    return distributions.CausalDistribution(eval_fn=lambda E: toy.commutator_hat(E, k),
                                            omega=-2, support_tag="causal")


def split_toy(p, ctx):
    Es, c = p["E"], p["c"]
    cases = [
        ("sgn_exp", splitting.toy_causal(0), splitting.SplitSpec(omega=-1),
         lambda E: oracles.toy_retarded(0, E), lambda E: oracles.toy_causal(0, E)),
        ("sgn_exp_d3", splitting.toy_causal(3), splitting.SplitSpec(omega=2, normalization=c),
         lambda E: oracles.toy_retarded(3, E) + c[0] + c[1] * E + c[2] * E * E,
         lambda E: oracles.toy_causal(3, E)),
        ("lattice_k2", _lattice_causal(2), splitting.SplitSpec(omega=-2),
         lambda E: oracles.lattice_retarded(E, 2), lambda E: oracles.lattice_causal(E, 2)),
    ]
    for name, d, spec, ret_exact, d_exact in cases:
        result = splitting.split(d, spec)
        ret = [complex(result.retarded.eval_fn(E)) for E in Es]
        adv = [complex(result.advanced.eval_fn(E)) for E in Es]
        with ctx.oracle():
            want = [ret_exact(E) for E in Es]
            ctx.close(f"split.{name}.ret", ret, want, SPLIT_RTOL, SPLIT_ATOL)
            ctx.close(f"split.{name}.adv", adv, [w - d_exact(E) for w, E in zip(want, Es)],
                      SPLIT_RTOL, SPLIT_ATOL)


def lattice_support_params(d):
    # the window_smear cost grows with t0, and a pass holds a single such job
    return {"t0": d.spread(1.8, 2.2), "sigma": 0.1}


def _window_oracle(t0, sigma, k=2, omega0=1.0, gamma=0.3):
    """int theta(t) D_k(t) chi(t) dt for a window on t > 0, by Gauss-Legendre in t."""
    x, w = np.polynomial.legendre.leggauss(80)
    ts = t0 + 10.0 * sigma * x
    dk = (np.exp(-1j * k * omega0 * ts - k * gamma * ts)
          - np.exp(1j * k * omega0 * ts - k * gamma * ts)) / (2.0 * omega0) ** k
    return complex(np.sum(10.0 * sigma * w * dk * np.exp(-0.5 * ((ts - t0) / sigma) ** 2)))


def lattice_support(p, ctx):
    t0, sigma = p["t0"], p["sigma"]
    result = splitting.split(_lattice_causal(2), splitting.SplitSpec(omega=-2))
    forbidden = induction.window_smear(result.retarded.eval_fn, -t0, sigma)
    allowed = induction.window_smear(result.retarded.eval_fn, t0, sigma)
    with ctx.oracle():
        ctx.close("lattice.allowed", allowed, _window_oracle(t0, sigma), 1e-8, 1e-12)
        ctx.close("lattice.forbidden", forbidden, 0.0, 0.0, 1e-8 * abs(allowed))


def _fmt(x):
    return repr(float(x))


def cli_green_params(d):
    # vacuum-pol and self-energy cost about the same, so either one keeps the pass cost
    m = d.spread(0.5, 2.0)
    return {"command": str(d.rng.choice(["vacuum-pol", "self-energy"])), "m": m,
            "mu": m * d.spread(0.05, 0.2)}


def cli_green(p, ctx):
    m, mu = p["m"], p["mu"]
    if p["command"] == "vacuum-pol":
        out = _cli(ctx, ["vacuum-pol", "--m", _fmt(m)])
    else:
        out = _cli(ctx, ["self-energy", "--m", _fmt(m), "--mu", _fmt(mu)])
    _cli_rejects(ctx, ["vacuum-pol", "--m", "0"])
    if not out:
        return
    with ctx.oracle():
        if p["command"] == "vacuum-pol":
            rows = _csv_rows(out["vacuum_pol.csv"])
            ctx.close("cli.vacuum_pol.csv", rows[:, 1] + 1j * rows[:, 2],
                      [oracles.pi_closed(m, s) for s in rows[:, 0]], PI_RTOL, PI_ATOL)
            ctx.true("cli.vacuum_pol.report", json.loads(out["vacuum_pol_report.json"])["all_pass"])
        else:
            rows = _csv_rows(out["self_energy.csv"])
            consts = oracles.sigma_constants(m, mu)
            want = np.array([oracles.sigma_ab(m, mu, s, consts) for s in rows[:, 0]])
            ctx.close("cli.self_energy.a", rows[:, 1] + 1j * rows[:, 2], want[:, 0],
                      SIGMA_RTOL, SIGMA_ATOL)
            ctx.close("cli.self_energy.b", rows[:, 3] + 1j * rows[:, 4], want[:, 1],
                      SIGMA_RTOL, SIGMA_ATOL)
            ctx.true("cli.self_energy.report", json.loads(out["self_energy_report.json"])["all_pass"])


_CLI_TOYS = ("sgn-exp", "sgn-exp-d3", "lattice-k2")


def cli_split_params(d):
    return {"toy": _CLI_TOYS[d.i % 3], "c": [d.spread(-1.0, 1.0) for _ in range(3)]}


def cli_split(p, ctx):
    toy, c = p["toy"], p["c"]
    argv = ["split", "--toy", toy]
    if toy == "sgn-exp-d3":
        argv += ["--c0", _fmt(c[0]), "--c1", _fmt(c[1]), "--c2", _fmt(c[2])]
    out = _cli(ctx, argv)
    _cli_rejects(ctx, ["vacuum-pol", "--m", "0"])
    if out:
        with ctx.oracle():
            rows = _csv_rows(out["split.csv"])
            Es = rows[:, 0]
            if toy == "sgn-exp":
                want = [oracles.toy_retarded(0, E) for E in Es]
            elif toy == "sgn-exp-d3":
                want = [oracles.toy_retarded(3, E) + c[0] + c[1] * E + c[2] * E * E for E in Es]
            else:
                want = [oracles.lattice_retarded(E, 2) for E in Es]
            ctx.close("cli.split.ret", rows[:, 3] + 1j * rows[:, 4], want, SPLIT_RTOL, SPLIT_ATOL)
            report = json.loads(out["split_report.json"])
            ctx.true("cli.split.reconstruction", report["reconstruction_residual"] <= 1e-8)


# -- adiabatic_sweeps -------------------------------------------------------------

_SWEEP_CASES = [(ch, off) for off in (False, True)
                for ch in ("Sigma_into_psi", "Pi_into_A", "Pi_into_current")]
SWEEP_RTOL, SWEEP_ATOL = 1e-8, 1e-12


def _profile(d, i):
    if i % 2 == 0:
        return {"profile": "gaussian", "alpha0": d.spread(0.5, 2.0),
                "width": d.spread(0.5, 2.0)}
    return {"profile": "bump", "alpha0": d.spread(0.5, 2.0),
            "width": d.spread(0.5, 2.0), "shape": d.spread(0.2, 1.0)}


def _family(p):
    if p["profile"] == "gaussian":
        return adiabatic.gaussian_profile(alpha0=p["alpha0"], width=p["width"])
    return adiabatic.bump_profile(alpha0=p["alpha0"], width=p["width"], shape=p["shape"])


def _offset(d):
    return d.sign() * d.spread(0.05, 0.5)


def sweep_params(d):
    channel, off = _SWEEP_CASES[d.i % len(_SWEEP_CASES)]
    m = d.spread(0.5, 2.0)
    p = {"channel": channel, "off_shell": off, "m": m, "mu": m * d.spread(0.05, 0.2),
         "xi_width": d.spread(0.5, 2.0), "phi_width": d.spread(0.5, 2.0),
         "offsets": [_offset(d), _offset(d)]}
    p.update(_profile(d, d.i // len(_SWEEP_CASES)))
    return p


def _gaussian(width):
    return lambda v: math.exp(-width * float(np.dot(v, v)))


def _channel_oracle(channel, m, mu, constants):
    """(kappa, regular) of a channel for a Green function with these constants."""
    if channel == "Sigma_into_psi":
        s = m * m * (1.0 - 1.0 / 16.0)
        a, b = oracles.sigma_ab(m, mu, s, constants)
        return constants[0] + m * constants[1], a + m * b
    s = -m * m
    value = constants[0] + constants[1] * s + oracles.pi_closed(m, s)
    if channel == "Pi_into_A":
        return constants[0], value
    return constants[1], value / s


def sweep(p, ctx):
    channel, m, mu = p["channel"], p["m"], p["mu"]
    family = _family(p)
    xi, phi = _gaussian(p["xi_width"]), _gaussian(p["phi_width"])
    d0, d1 = p["offsets"] if p["off_shell"] else (0.0, 0.0)
    if channel == "Sigma_into_psi":
        green = qed2.build_self_energy(m, photon_mass=mu)
        if p["off_shell"]:
            green = qed2.SelfEnergy(m, mu, (green.constants[0] + d0, green.constants[1] + d1))
    else:
        norm = (d0, d1) if p["off_shell"] else "on-shell"
        green = qed2.build_vacuum_polarization(m, normalization=norm)
    result = adiabatic.sweep(channel, green, xi, phi, family)
    with ctx.oracle():
        if channel == "Sigma_into_psi":
            c0, c1 = oracles.sigma_constants(m, mu)
            constants = (c0 + d0, c1 + d1)
        else:
            constants = (d0, d1)
        kappa, regular = _channel_oracle(channel, m, mu, constants)
        plain, over_e = oracles.shell_overlap(m, p["xi_width"], p["phi_width"])
        want = oracles.sweep_values(kappa, regular, plain, over_e, result.epsilons)
        ctx.close("sweep.values", result.values, want, SWEEP_RTOL, SWEEP_ATOL)
        if p["off_shell"]:
            ctx.true("sweep.diverged", result.verdict == "diverged", result.verdict)
            ctx.true("sweep.exponent", abs(result.fitted_exponent + 1.0) <= 0.15,
                     str(result.fitted_exponent))
        else:
            ctx.true("sweep.converged", result.verdict == "converged", result.verdict)
            if result.limit_estimate is not None:
                ctx.close("sweep.limit", result.limit_estimate, regular * plain,
                          SWEEP_RTOL, SWEEP_ATOL)


def massless_params(d):
    p = {"c": [d.spread(-5.0, 5.0), d.spread(-5.0, 5.0)],
         "xi_width": d.spread(0.5, 2.0), "phi_width": d.spread(0.5, 2.0)}
    p.update(_profile(d, d.i))
    return p


def massless(p, ctx):
    c = tuple(p["c"])
    result = adiabatic.sweep("massless_charge", None, _gaussian(p["xi_width"]),
                             _gaussian(p["phi_width"]), _family(p), constants=c)
    with ctx.oracle():
        plain, _ = oracles.shell_overlap(0.0, p["xi_width"], p["phi_width"])
        want = [plain * (oracles.massless_standoff(e) + c[0] - c[1]) for e in result.epsilons]
        ctx.close("massless.values", result.values, want, SWEEP_RTOL, SWEEP_ATOL)
        ctx.true("massless.diverged", result.verdict == "diverged", result.verdict)


def weak_limit_params(d):
    p = {"m": d.spread(1.0, 1.5), "tuned": d.i % 2 == 0, "c0": d.sign() * d.spread(0.1, 1.0)}
    p.update(_profile(d, d.i // 2))
    return p


def weak_limit(p, ctx):
    constants = (0.0, 0.0, 0.0) if p["tuned"] else (p["c0"], 0.0, 0.0)
    result = adiabatic.weak_limit_vacuum(2, _family(p), constants=constants, m=p["m"])
    with ctx.oracle():
        values = np.abs(np.array(result.values))
        eps = np.array(result.epsilons)
        if p["tuned"]:
            # the s^3 kernel leaves values ~ eps^2 that vanish in the limit
            ctx.true("weak.converged", result.verdict == "converged", result.verdict)
            ctx.true("weak.vanishes", values[-1] <= 1e-6 * values[0])
            ctx.close("weak.exponent", result.fitted_exponent, 2.0, 0.0, 0.05)
        else:
            # a constant C0 survives as C0 eps^-4 times the profile overlap
            ctx.true("weak.diverged", result.verdict == "diverged", result.verdict)
            scaled = values * eps ** 4
            ctx.close("weak.eps4_plateau", scaled[-1], scaled[-2], 1e-6, 0.0)


_CLI_CHANNELS = ("Sigma_into_psi", "Pi_into_A", "Pi_into_current", "massless_charge")


def cli_sweep_params(d):
    m = d.spread(0.5, 2.0)
    return {"channel": _CLI_CHANNELS[d.i % 4], "custom": d.i % 2 == 1, "m": m,
            "c": [_offset(d), _offset(d)]}


def cli_sweep(p, ctx):
    channel, m = p["channel"], p["m"]
    argv = ["adiabatic-sweep", "--channel", channel, "--m", _fmt(m)]
    custom = p["custom"] or channel == "massless_charge"
    c0, c1 = p["c"] if custom else (0.0, 0.0)
    if custom:
        argv += ["--normalization", "custom", "--c0", _fmt(c0), "--c1", _fmt(c1)]
    out = _cli(ctx, argv)
    _cli_rejects(ctx, ["adiabatic-sweep", "--channel", "Pi_into_A", "--m", "0"])
    if not out:
        return
    with ctx.oracle():
        rows = _csv_rows(out["sweep.csv"])
        verdict = json.loads(out["sweep_verdict.json"])["verdict"]
        eps = rows[:, 0]
        values = rows[:, 1] + 1j * rows[:, 2]
        if channel == "massless_charge":
            plain, _ = oracles.shell_overlap(0.0, 1.0, 1.0)
            want = [plain * (oracles.massless_standoff(e) + c0 - c1) for e in eps]
            diverges = True
        else:
            mu = m * 0.1  # the CLI default photon mass
            if channel == "Sigma_into_psi" and not custom:
                constants = oracles.sigma_constants(m, mu)
            else:
                constants = (c0, c1)
            kappa, regular = _channel_oracle(channel, m, mu, constants)
            plain, over_e = oracles.shell_overlap(m, 1.0, 1.0)
            want = oracles.sweep_values(kappa, regular, plain, over_e, eps)
            diverges = custom
        ctx.close("cli.sweep.values", values, want, SWEEP_RTOL, SWEEP_ATOL)
        ctx.true("cli.sweep.verdict", verdict == ("diverged" if diverges else "converged"), verdict)


# -- algebra ----------------------------------------------------------------------

WICK_RTOL = 1e-12


def _poly_dict(P):
    return {(m.factors, m.legs): complex(m.coeff) for m in P.terms}


def _dict_close(ctx, name, a, b, rtol=WICK_RTOL):
    """Coefficients agree on the union of terms; a term missing on one side
    counts as zero, so floating cancellation residue is judged by size."""
    keys = list(a.keys() | b.keys())
    scale = max([abs(v) for v in b.values()] + [1e-300])
    ctx.close(name, [a.get(k, 0.0) for k in keys], [b.get(k, 0.0) for k in keys],
              rtol, rtol * scale)


_FERMI_FIELDS = ("psi", "psibar")
_PAIR_NAMES = {("scalar", "scalar"): "D+", ("photon", "photon"): "D0+",
               ("psi", "psibar"): "S+", ("psibar", "psi"): "Sbar+"}
_PARTNER = {"scalar": "scalar", "photon": "photon", "psi": "psibar", "psibar": "psi"}


def _normal_ordered(terms):
    """Merge (coeff, factors, legs) terms into canonical form: legs stably sorted,
    creation before annihilation, with the sign of the fermionic transpositions."""
    out = {}
    for coeff, factors, legs in terms:
        legs = list(legs)
        sign = 1
        for i in range(1, len(legs)):  # insertion sort, counting fermi-fermi swaps
            j = i
            while j > 0 and legs[j].sort_key() < legs[j - 1].sort_key():
                if legs[j].field in _FERMI_FIELDS and legs[j - 1].field in _FERMI_FIELDS:
                    sign = -sign
                legs[j - 1], legs[j] = legs[j], legs[j - 1]
                j -= 1
        if any(a == b and a.field in _FERMI_FIELDS for a, b in zip(legs, legs[1:])):
            continue
        key = (tuple(sorted(factors)), tuple(legs))
        out[key] = out.get(key, 0.0) + sign * coeff
    return {k: v for k, v in out.items() if v != 0}


def _top_sector_oracle(n, power, c):
    """(i c)^n :V(x1)..V(xn): for V = phi^power / power!, expanded into legs."""
    terms = []
    for n_cre in itertools.product(range(power + 1), repeat=n):
        legs, coeff = [], (1j * c) ** n
        for k, nc in enumerate(n_cre, start=1):
            legs += [wick.FieldLeg("scalar", wick.CREATION, f"x{k}")] * nc
            legs += [wick.FieldLeg("scalar", wick.ANNIHILATION, f"x{k}")] * (power - nc)
            coeff *= math.comb(power, nc) / math.factorial(power)
        terms.append((coeff, (), legs))
    return _normal_ordered(terms)


def _coupling(d):
    return [d.spread(0.5, 2.0), d.spread(0.0, 2.0 * math.pi)]


def _check_series(ctx, terms, n, power, c, references):
    """Top-leg sector, leg parity and homogeneity of the order-n kernel
    given as {(factors, legs): coeff}."""
    top_legs = n * power
    top = {k: v for k, v in terms.items() if len(k[1]) == top_legs}
    _dict_close(ctx, "series.top_sector", top, _top_sector_oracle(n, power, c))
    ctx.true("series.leg_parity", all((len(legs) - top_legs) % 2 == 0 for _, legs in terms))
    normalized = {k: v / c ** n for k, v in terms.items()}
    _dict_close(ctx, "series.homogeneous", normalized,
                references.setdefault((power, n), normalized), rtol=1e-9)


def extend_linear_params(d):
    return {"order": 4 + d.i % 2, "coupling": _coupling(d)}


def extend_cubic_params(d):
    return {"order": 3, "coupling": _coupling(d)}


def _extend(power):
    def run(p, ctx):
        c = p["coupling"][0] * complex(math.cos(p["coupling"][1]), math.sin(p["coupling"][1]))
        data = induction.OrderData(S={1: wick.scalar_vertex("x1", power=power).scaled(1j * c)})
        induction.extend_series(data, p["order"])  # raises SeriesError if routes disagree
        with ctx.oracle():
            _check_series(ctx, _poly_dict(data.S[p["order"]]), p["order"], power, c,
                          ctx.references)

    return run


_TRIPLES = (
    (("qed", 0), ("qed", 0), ("scalar", 2)),
    (("scalar", 3), ("scalar", 1), ("scalar", 2)),
    (("qed", 0), ("scalar", 1), ("qed", 0)),
)


def assoc_params(d):
    return {"triple": d.i % len(_TRIPLES),
            "coeffs": [[float(x) for x in d.rng.normal(size=2)] for _ in range(3)]}


def _brute_force_product(A, B):
    """Contractions enumerated by subset and permutation, each sign found by
    bubbling the partner leg adjacent with signed transpositions."""
    out = []
    for ma in A.terms:
        for mb in B.terms:
            legs = list(ma.legs) + list(mb.legs)
            n_a = len(ma.legs)
            ann = [i for i in range(n_a) if legs[i].character == wick.ANNIHILATION]
            cre = [j for j in range(n_a, len(legs)) if legs[j].character == wick.CREATION]
            for r in range(min(len(ann), len(cre)) + 1):
                for asub in itertools.combinations(ann, r):
                    for bperm in itertools.permutations(cre, r):
                        pairs = list(zip(asub, bperm))
                        if any(_PARTNER[legs[i].field] != legs[j].field for i, j in pairs):
                            continue
                        sign = 1
                        work = list(range(len(legs)))
                        factors = list(ma.factors) + list(mb.factors)
                        for i, j in pairs:
                            pos_i, pos_j = work.index(i), work.index(j)
                            while pos_j > pos_i + 1:
                                if (legs[work[pos_j]].field in _FERMI_FIELDS
                                        and legs[work[pos_j - 1]].field in _FERMI_FIELDS):
                                    sign = -sign
                                work[pos_j - 1], work[pos_j] = work[pos_j], work[pos_j - 1]
                                pos_j -= 1
                            factors.append(wick.Factor(
                                "pair", _PAIR_NAMES[(legs[i].field, legs[j].field)],
                                (legs[i].slot, legs[j].slot, legs[i].index, legs[j].index)))
                            del work[pos_i:pos_i + 2]
                        out.append((sign * ma.coeff * mb.coeff, factors,
                                    [legs[k] for k in work]))
    return _normal_ordered(out)


def _vertex(kind, power, slot):
    return wick.qed_vertex(slot) if kind == "qed" else wick.scalar_vertex(slot, power=power)


def assoc(p, ctx):
    polys = [_vertex(kind, power, slot).scaled(complex(*coef))
             for (kind, power), slot, coef in zip(_TRIPLES[p["triple"]], "xyz", p["coeffs"])]
    A, B, C = polys
    AB = wick.operator_product(A, B)
    left = wick.operator_product(AB, C)
    right = wick.operator_product(A, wick.operator_product(B, C))
    with ctx.oracle():
        _dict_close(ctx, "assoc.left_right", _poly_dict(left), _poly_dict(right))
        _dict_close(ctx, "assoc.wick_theorem", _poly_dict(AB), _brute_force_product(A, B))


_CCR_GRIDS = ((4, 2, "bose"), (5, 3, "fermi"), (6, 3, "bose"), (7, 4, "fermi"),
              (8, 4, "bose"), (6, 4, "fermi"), (8, 3, "bose"), (5, 4, "bose"))


def ccr_params(d):
    modes, cutoff, stat = _CCR_GRIDS[d.i % len(_CCR_GRIDS)]
    return {"modes": modes, "cutoff": cutoff, "statistic": stat, "pmax": d.spread(0.5, 2.0),
            "probe": [int(d.rng.integers(0, modes)) for _ in range(4)], "seed": d.seed()}


def ccr(p, ctx):
    grid = fock.uniform_grid(p["modes"], statistic=p["statistic"], pmax=p["pmax"])
    worst = fock.commutator_check(grid, cutoff=p["cutoff"])
    configs = fock._basis_configs(grid, p["cutoff"] - 1)
    rng = np.random.default_rng(p["seed"])
    probes = []
    for mode in p["probe"]:
        config = configs[int(rng.integers(0, len(configs)))]
        state = fock.FockGridState(grid, p["cutoff"], {config: 1.0 + 0.0j})
        probes.append((config, mode, fock.apply_creation(mode, state),
                       fock.apply_annihilation(mode, state)))
    with ctx.oracle():
        scale = 1.0 / float(np.min(grid.weights))
        ctx.close("ccr.deviation", worst, 0.0, 0.0, 1e-12 * max(scale, 1.0))
        fermi = p["statistic"] == "fermi"
        for config, mode, up, down in probes:
            for create, st in ((True, up), (False, down)):
                new = list(config)
                new[mode] += 1 if create else -1
                want = oracles.ladder_amplitude(config, mode, grid.weights, fermi, create)
                got = st.amplitudes.get(tuple(new), 0.0) if new[mode] >= 0 else 0.0
                ctx.close("ccr.ladder_amplitude", got, want, 1e-14, 1e-14)


_ETA_SHAPES = ((1, 1), (2, 2), (1, 2), (2, 1), (0, 2), (2, 0), (0, 1), (1, 0))


def eta_params(d):
    l, m = _ETA_SHAPES[d.i % len(_ETA_SHAPES)]
    return {"l": l, "m": m, "modes": 5 + (d.i // len(_ETA_SHAPES)) % 2,
            "statistic": ("bose", "fermi")[d.i % 2], "seed": d.seed()}


def _random_state(rng, grid, cutoff, max_total=2):
    configs = fock._basis_configs(grid, max_total)
    return fock.FockGridState(grid, cutoff, {c: complex(*rng.normal(size=2)) for c in configs})


def eta(p, ctx):
    rng = np.random.default_rng(p["seed"])
    grid = fock.uniform_grid(p["modes"], statistic=p["statistic"])
    l, m, nm = p["l"], p["m"], p["modes"]
    shape = (nm,) * (l + m)
    kernel = fock.DiscreteKernel(l, m, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    phi = _random_state(rng, grid, 5)
    psi = _random_state(rng, grid, 5)
    via_eta = fock.xi_matrix_element(kernel, phi, psi)
    direct = fock.grid_inner(phi, fock.apply_kernel(kernel, psi))
    number = fock.DiscreteKernel(1, 1, np.diag(1.0 / grid.weights))
    n_eta = fock.xi_matrix_element(number, phi, psi)
    with ctx.oracle():
        ctx.close("eta.route", via_eta, direct, 1e-10, 1e-10 * max(abs(direct), 1.0))
        ctx.close("eta.number_operator", n_eta,
                  oracles.number_expectation(phi.amplitudes, psi.amplitudes), 1e-10, 1e-10)


_POL_SHAPES = (((1, 1), (1, 1)), ((1, 2), (2, 1)), ((2, 1), (1, 2)), ((2, 2), (2, 2)))


def pol_params(d):
    return {"shapes": d.i % len(_POL_SHAPES), "pmax": d.spread(0.5, 2.0), "seed": d.seed()}


def pol(p, ctx):
    rng = np.random.default_rng(p["seed"])
    grid = fock.uniform_grid(4, statistic="bose", pmax=p["pmax"])
    (al, am), (bl, bm) = _POL_SHAPES[p["shapes"]]
    A = fock.DiscreteKernel(al, am, rng.normal(size=(4,) * (al + am))
                            + 1j * rng.normal(size=(4,) * (al + am)))
    B = fock.DiscreteKernel(bl, bm, rng.normal(size=(4,) * (bl + bm))
                            + 1j * rng.normal(size=(4,) * (bl + bm)))
    terms = adiabatic.product_of_limits(A, B, grid)
    with ctx.oracle():
        want = oracles.product_of_limits_terms(A.values, al, am, B.values, bl, bm, grid.weights)
        ctx.true("pol.term_count", len(terms) == len(want), f"{len(terms)} vs {len(want)}")
        for got, ref in zip(terms, want):
            ctx.close("pol.term", got.values, ref, 1e-12, 1e-12)


_FOCK_CLI = ((4, 2), (6, 3), (8, 4), (5, 3), (7, 4), (8, 2))


def cli_fock_params(d):
    modes, cutoff = _FOCK_CLI[d.i % len(_FOCK_CLI)]
    return {"modes": modes, "cutoff": cutoff}


def cli_fock(p, ctx):
    out = _cli(ctx, ["fock-check", "--grid-modes", str(p["modes"]), "--cutoff", str(p["cutoff"])])
    _cli_rejects(ctx, ["fock-check", "--grid-modes", "9"])
    if out:
        with ctx.oracle():
            report = json.loads(out["fock_check.json"])
            for stat in ("bose", "fermi"):
                ctx.close("cli.fock.deviation", report["max_deviation"][stat], 0.0, 0.0,
                          1e-12 * p["modes"])


_WICK_ORDERS = (2, 4, 1, 4)


def cli_wick_params(d):
    return {"order": _WICK_ORDERS[d.i % len(_WICK_ORDERS)]}


def cli_wick(p, ctx):
    n = p["order"]
    out = _cli(ctx, ["wick-expand", "--order", str(n)])
    _cli_rejects(ctx, ["wick-expand", "--order", "6"])
    if out:
        with ctx.oracle():
            terms = {}
            for row in json.loads(out[f"wick_order{n}.json"])["terms"]:
                factors = tuple(wick.Factor(k, name, tuple(a)) for k, name, a in row["factors"])
                legs = tuple(wick.FieldLeg(*leg) for leg in row["legs"])
                terms[(factors, legs)] = complex(*row["coeff"])
            _check_series(ctx, terms, n, 3 if n <= 3 else 1, 1.0, ctx.references)


# -- workloads ----------------------------------------------------------------------

class Kind:
    def __init__(self, params, run):
        self.params = params
        self.run = run


KINDS = {
    "vp_curve": Kind(vp_curve_params, vp_curve),
    "vp_cut": Kind(vp_cut_params, vp_cut),
    "se_curve": Kind(se_curve_params, se_curve),
    "split_toy": Kind(split_toy_params, split_toy),
    "lattice_support": Kind(lattice_support_params, lattice_support),
    "cli_green_function": Kind(cli_green_params, cli_green),
    "cli_split": Kind(cli_split_params, cli_split),
    "sweep": Kind(sweep_params, sweep),
    "massless_charge": Kind(massless_params, massless),
    "weak_limit": Kind(weak_limit_params, weak_limit),
    "cli_adiabatic_sweep": Kind(cli_sweep_params, cli_sweep),
    "extend_linear": Kind(extend_linear_params, _extend(1)),
    "extend_cubic": Kind(extend_cubic_params, _extend(3)),
    "operator_product": Kind(assoc_params, assoc),
    "commutator_check": Kind(ccr_params, ccr),
    "eta_route": Kind(eta_params, eta),
    "product_of_limits": Kind(pol_params, pol),
    "cli_fock_check": Kind(cli_fock_params, cli_fock),
    "cli_wick_expand": Kind(cli_wick_params, cli_wick),
}

# jobs of each kind in one pass; a pass takes a little less than
# run_seconds at the seed
WORKLOADS = {name: w["jobs_per_pass"] for name, w in SPEC["workloads"].items()}


def make_pass(workload: str, seed: int, pass_index: int):
    """One pass: every kind's jobs, interleaved so that each prefix keeps the mix."""
    kinds = WORKLOADS[workload]
    slots = []
    for k_idx, (kind, count) in enumerate(kinds.items()):
        rng = np.random.default_rng([seed, pass_index, k_idx])
        shifts = rng.random(len(_WEYL))
        phase = (k_idx + 0.5) / len(kinds)
        for i in range(count):
            slots.append(((i + phase) / count, k_idx, kind, KINDS[kind].params(Draw(rng, shifts, i))))
    slots.sort(key=lambda s: (s[0], s[1]))
    return [(kind, params) for _, _, kind, params in slots]
