import json
import math

import pytest

from causalqed import cli
from causalqed.adiabatic import CHANNELS
from causalqed.cli import main
from causalqed.wick import WickPolynomial


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def test_split_toy_negative_order(tmp_path):
    assert run(tmp_path, "split", "--toy", "sgn-exp") == 0
    report = json.loads((tmp_path / "split_report.json").read_text())
    assert report["omega"] == -1
    assert report["ambiguity_dimension"] == 0
    assert report["reconstruction_residual"] <= 1e-10
    header = (tmp_path / "split.csv").read_text().splitlines()[0]
    assert header == "E,d_re,d_im,ret_re,ret_im,adv_re,adv_im"


def test_split_missing_constants_is_validation_error(tmp_path):
    assert run(tmp_path, "split", "--toy", "sgn-exp-d3") == 2


def test_split_with_constants(tmp_path):
    assert run(tmp_path, "split", "--toy", "sgn-exp-d3",
               "--c0", "0", "--c1", "0", "--c2", "0") == 0
    report = json.loads((tmp_path / "split_report.json").read_text())
    assert report["ambiguity_dimension"] == 3


def test_split_ignores_constants_below_order_zero(tmp_path, capsys):
    assert run(tmp_path, "split", "--toy", "sgn-exp", "--c0", "5") == 0
    assert "ignored" in capsys.readouterr().err


def test_split_unknown_toy_and_empty_config(tmp_path):
    assert run(tmp_path, "split", "--toy", "no-such-toy") == 2
    assert run(tmp_path, "split", "--toy", "") == 2
    assert run(tmp_path, "split") == 2  # no toy
    assert list(tmp_path.iterdir()) == []


def test_split_non_convergent_toy_is_numeric_failure(tmp_path, monkeypatch, capsys):
    from causalqed import cli
    from causalqed.distributions import CausalDistribution

    # a kink at E = 0: its rational-basis table does not converge
    kink = CausalDistribution(eval_fn=lambda E: 1j * (1.0 + abs(E)) / (1.0 + E * E),
                              omega=-1, support_tag="causal")
    monkeypatch.setitem(cli._TOYS, "kink", lambda: (kink, -1))
    assert run(tmp_path, "split", "--toy", "kink") == 3
    assert "rational-basis table not converged at N = 4096: estimate" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["vacuum-pol", "--config", "missing.json"],
    ["vacuum-pol", "--mu", "0.1"],
    ["vacuum-pol", "--c2", "1"],
    ["split", "--toy", "sgn-exp", "--m", "2"],
    ["adiabatic-sweep", "--tol", "1e-6"],
    ["fock-check", "--m", "2"],
    ["wick-expand", "--normalization", "custom"],
    ["split", "--toy", "sgn-exp", "--config", "cfg.json"],
])
def test_ignored_options_are_rejected(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv)
    assert exc.value.code == 2


def test_vacuum_pol_run_and_massless_rejection(tmp_path):
    assert run(tmp_path, "vacuum-pol", "--m", "1.0") == 0
    report = json.loads((tmp_path / "vacuum_pol_report.json").read_text())
    assert report["all_pass"]
    rows = (tmp_path / "vacuum_pol.csv").read_text().splitlines()
    assert rows[0] == "p2,re,im"
    assert len(rows) > 10
    assert run(tmp_path, "vacuum-pol", "--m", "0") == 2


def test_self_energy_run(tmp_path):
    assert run(tmp_path, "self-energy", "--m", "1.0") == 0
    report = json.loads((tmp_path / "self_energy_report.json").read_text())
    assert report["all_pass"]
    assert run(tmp_path, "self-energy", "--m", "0") == 2


def test_self_energy_without_photon_mass(tmp_path):
    # on-shell needs a positive photon mass: a validation failure
    assert run(tmp_path, "self-energy", "--m", "1", "--mu", "0") == 2
    # custom constants build, but the shell check diverges: a numeric failure
    assert run(tmp_path, "self-energy", "--m", "1", "--mu", "0",
               "--normalization", "custom", "--c0", "0", "--c1", "0") == 3
    # the sweep rejects the same Green-function input as a validation failure
    assert run(tmp_path, "adiabatic-sweep", "--channel", "Sigma_into_psi",
               "--mu", "0", "--eps-steps", "3") == 2


def test_non_finite_mass_is_validation_error(tmp_path):
    assert run(tmp_path, "self-energy", "--m", "inf") == 2
    assert run(tmp_path, "adiabatic-sweep", "--m", "inf", "--eps-steps", "3") == 2
    assert run(tmp_path, "vacuum-pol", "--m", "nan") == 2
    assert run(tmp_path, "self-energy", "--m", "1", "--mu", "nan") == 2


def test_shell_constants_at_the_threshold_are_numeric_failure(tmp_path):
    # (1 + 1e-300)^2 rounds to 1: the shell point is the threshold point
    assert run(tmp_path, "self-energy", "--m", "1", "--mu", "1e-300") == 3
    assert run(tmp_path, "adiabatic-sweep", "--m", "1", "--mu", "1e-300",
               "--eps-steps", "3") == 3


def test_sweep_on_shell_and_off_shell(tmp_path):
    assert run(tmp_path, "adiabatic-sweep", "--channel", "Sigma_into_psi",
               "--eps-steps", "8") == 0
    verdict = json.loads((tmp_path / "sweep_verdict.json").read_text())
    assert verdict["verdict"] == "converged"
    assert run(tmp_path, "adiabatic-sweep", "--channel", "Sigma_into_psi",
               "--normalization", "custom", "--c0", "0.5", "--c1", "0.0",
               "--eps-steps", "8") == 0
    verdict = json.loads((tmp_path / "sweep_verdict.json").read_text())
    assert verdict["verdict"] == "diverged"


def test_sweep_exponent_with_nearly_cancelling_constants(tmp_path):
    # kappa = c0 + m c1 = 2e-4 or 2e-6: the finite part dominates |value|
    # along the schedule (at 2e-6 log|value| has slope -0.009), but the
    # divergence is still 1/eps
    for c1, tol in (("-0.4998", 1e-9), ("-0.499998", 1e-6)):
        assert run(tmp_path, "adiabatic-sweep", "--channel", "Sigma_into_psi",
                   "--normalization", "custom", "--c0", "0.5", "--c1", c1) == 0
        verdict = json.loads((tmp_path / "sweep_verdict.json").read_text())
        assert verdict["verdict"] == "diverged"
        assert verdict["fitted_exponent"] == pytest.approx(-1.0, abs=tol)


def test_sweep_channels_are_the_library_channels(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_sweep", lambda args: seen.append(args.channel) or {})
    for channel in CHANNELS:
        assert run(tmp_path, "adiabatic-sweep", "--channel", channel) == 0
    assert seen == list(CHANNELS)
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "adiabatic-sweep", "--channel", "Sigma")
    assert exc.value.code == 2
    # the parser holds the library's tuple, not a copy of it
    (subcommands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    (option,) = [a for a in subcommands.choices["adiabatic-sweep"]._actions
                 if a.dest == "channel"]
    assert option.choices is CHANNELS


@pytest.mark.parametrize("channel", ["Pi_into_A", "Pi_into_current", "massless_charge"])
def test_photon_mass_outside_the_self_energy_channel_is_validation_error(
        tmp_path, capsys, channel):
    # only Sigma_into_psi builds a self-energy, the one Green function with a photon mass
    assert run(tmp_path, "adiabatic-sweep", "--channel", channel, "--mu", "0.1") == 2
    assert f"--mu applies to Sigma_into_psi only, not {channel}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert run(tmp_path, "adiabatic-sweep", "--channel", "Sigma_into_psi", "--mu", "0.1",
               "--eps-steps", "3") == 0


def test_sweep_schedule_validation(tmp_path):
    assert run(tmp_path, "adiabatic-sweep", "--eps-start", "1e-6",
               "--eps-stop", "1e-3") == 2


@pytest.mark.parametrize("steps", ["1", "2"])
def test_sweep_too_short_to_classify_is_validation_error(tmp_path, capsys, steps):
    # a two-point schedule has no slope to fit; its verdict would carry a NaN exponent
    assert run(tmp_path, "adiabatic-sweep", "--eps-steps", steps) == 2
    assert "at least 3 eps steps" in capsys.readouterr().err
    assert not (tmp_path / "sweep_verdict.json").exists()


def test_json_reports_refuse_non_finite_values(tmp_path, monkeypatch):
    # NaN is not JSON (RFC 8259): a report that would carry one is a numeric failure
    monkeypatch.setattr(cli, "check_on_shell", lambda green, tol: {"residual": math.nan})
    assert run(tmp_path, "vacuum-pol", "--m", "1") == 3
    assert not (tmp_path / "vacuum_pol_report.json").exists()


def test_fock_check(tmp_path):
    assert run(tmp_path, "fock-check", "--grid-modes", "4", "--cutoff", "3") == 0
    report = json.loads((tmp_path / "fock_check.json").read_text())
    assert report["max_deviation"]["bose"] <= 1e-12
    assert report["max_deviation"]["fermi"] <= 1e-12
    assert run(tmp_path, "fock-check", "--grid-modes", "50") == 2


def test_fock_check_rejects_empty_grid_and_cutoff(tmp_path):
    for flag, value in (("--grid-modes", "0"), ("--grid-modes", "-2"),
                        ("--cutoff", "0"), ("--cutoff", "-1")):
        assert run(tmp_path, "fock-check", flag, value) == 2
    assert not (tmp_path / "fock_check.json").exists()


@pytest.mark.parametrize("failure", [ArithmeticError("table"), ValueError("grid"),
                                     math.nan, math.inf])
def test_fock_check_numeric_failure(tmp_path, monkeypatch, capsys, failure):
    def check(grid, cutoff):
        if isinstance(failure, Exception):
            raise failure
        return failure

    monkeypatch.setattr(cli, "commutator_check", check)
    assert run(tmp_path, "fock-check", "--grid-modes", "4", "--cutoff", "3") == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not (tmp_path / "fock_check.json").exists()


def test_wick_expand_and_cap(tmp_path):
    assert run(tmp_path, "wick-expand", "--order", "2") == 0
    poly = WickPolynomial.from_json((tmp_path / "wick_order2.json").read_text())
    assert len(poly) > 0
    assert run(tmp_path, "wick-expand", "--order", "6") == 2
    assert run(tmp_path, "wick-expand", "--order", "0") == 2


def test_outputs_are_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["split", "--toy", "sgn-exp", "--out", str(d)]) == 0
        assert main(["fock-check", "--out", str(d)]) == 0
    for name in ("split.csv", "split_report.json", "fock_check.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_no_subcommand_prints_help():
    assert main([]) == 2


# (subcommand, its cmd_* function, a float option it reads, the argparse dest)
_FLOAT_OPTIONS = [
    ("split", "cmd_split", "--c0", "c0"),
    ("split", "cmd_split", "--c1", "c1"),
    ("split", "cmd_split", "--c2", "c2"),
    ("vacuum-pol", "cmd_green", "--m", "m"),
    ("vacuum-pol", "cmd_green", "--c0", "c0"),
    ("vacuum-pol", "cmd_green", "--c1", "c1"),
    ("vacuum-pol", "cmd_green", "--tol", "tol"),
    ("self-energy", "cmd_green", "--mu", "mu"),
    ("adiabatic-sweep", "cmd_sweep", "--m", "m"),
    ("adiabatic-sweep", "cmd_sweep", "--mu", "mu"),
    ("adiabatic-sweep", "cmd_sweep", "--c0", "c0"),
    ("adiabatic-sweep", "cmd_sweep", "--c1", "c1"),
    ("adiabatic-sweep", "cmd_sweep", "--eps-start", "eps_start"),
    ("adiabatic-sweep", "cmd_sweep", "--eps-stop", "eps_stop"),
]


@pytest.mark.parametrize("command, handler, flag, dest", _FLOAT_OPTIONS)
def test_float_options_take_every_float_repr(tmp_path, monkeypatch, command, handler, flag, dest):
    # argparse alone reads '-7.40791508777594e-05' and '-inf' as option flags
    seen = []
    monkeypatch.setattr(cli, handler, lambda args: seen.append(args) or {})
    values = (-7.40791508777594e-05, -1e-300, -2.5e+300, -math.inf, math.inf, -0.0, 0.375)
    for value in values:
        assert run(tmp_path, command, flag, repr(value)) == 0
        assert main([command, f"{flag}={value!r}", "--out", str(tmp_path)]) == 0
    got = [getattr(args, dest) for args in seen]
    assert got == [v for v in values for _ in range(2)]
    assert run(tmp_path, command, flag, "nan") == 0
    assert math.isnan(getattr(seen[-1], dest))


def test_main_dispatches_through_the_module_attribute(tmp_path, monkeypatch):
    # the parser is built once per process, so it must not hold cmd_split itself
    main(["split", "--toy", "sgn-exp", "--out", str(tmp_path / "warm")])
    calls = []
    monkeypatch.setattr(cli, "cmd_split", lambda args: calls.append(args.toy) or {"x.txt": "x\n"})
    assert run(tmp_path, "split", "--toy", "sgn-exp") == 0
    assert calls == ["sgn-exp"]
    assert (tmp_path / "x.txt").read_text() == "x\n"
    assert cli.build_parser() is cli.build_parser()


def test_unknown_toy_is_validation_error(tmp_path, capsys):
    assert run(tmp_path, "split", "--toy", "nosuch") == 2
    assert "unknown toy distribution 'nosuch'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# argv shapes the benchmark jobs run through main in-process
def test_massless_sweep_accepts_mass_and_custom_constants(tmp_path):
    assert run(tmp_path, "adiabatic-sweep", "--channel", "massless_charge", "--m", "1.5",
               "--normalization", "custom", "--c0", ".3", "--c1", ".1") == 0


@pytest.mark.parametrize("argv", [
    ["vacuum-pol", "--m", "0"],
    ["adiabatic-sweep", "--channel", "Pi_into_A", "--m", "0"],
    ["fock-check", "--grid-modes", "9"],
    ["wick-expand", "--order", "6"],
])
def test_benchmark_rejections_are_validation_failures(tmp_path, argv):
    assert run(tmp_path, *argv) == 2


def _files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("argv", [
    ["split", "--toy", "sgn-exp-d3", "--c0", "0.25", "--c1", "-0.5", "--c2", "0.125"],
    ["vacuum-pol", "--m", "1.25"],
    ["self-energy", "--m", "1.25", "--mu", "0.1"],
    ["adiabatic-sweep", "--channel", "Pi_into_current", "--m", "0.75",
     "--normalization", "custom", "--c0", "0.2", "--c1", "-0.1"],
    ["fock-check", "--grid-modes", "4", "--cutoff", "3"],
    ["wick-expand", "--order", "2"],
])
def test_same_process_reruns_write_identical_file_sets(tmp_path, argv):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(d1, *argv) == 0
    assert run(d2, *argv) == 0
    assert _files(d1) and _files(d1) == _files(d2)


@pytest.mark.parametrize("target, argv", [
    ("check_on_shell", ["vacuum-pol", "--m", "1"]),
    ("check_on_shell", ["self-energy", "--m", "1"]),
    ("sweep", ["adiabatic-sweep", "--eps-steps", "3"]),
    ("extend_series", ["wick-expand", "--order", "2"]),
])
def test_injected_numeric_failure_exits_3(tmp_path, monkeypatch, capsys, target, argv):
    def fail(*args, **kwargs):
        raise ArithmeticError("injected")

    monkeypatch.setattr(cli, target, fail)
    assert run(tmp_path, *argv) == 3
    assert "numeric failure: injected" in capsys.readouterr().err


def test_unusable_out_is_validation_failure(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("keep\n")
    assert main(["fock-check", "--out", str(blocker)]) == 2
    assert main(["vacuum-pol", "--out", str(blocker / "x")]) == 2
    assert capsys.readouterr().err.count("validation failure") == 2
    assert blocker.read_text() == "keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
