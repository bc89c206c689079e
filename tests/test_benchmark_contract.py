"""The benchmark's contract with the library, as a test.

`benchmark/tracer.py` wraps library names, some of them private, when it
installs, and `benchmark/jobs.py` calls the library in fixed shapes.  These
tests run the first job of each kind of every workload, traced, the way
`benchmark/worker.py --trace 1` runs them, so a change that breaks a name or
a shape the benchmark relies on fails here as well.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "benchmark"))

import jobs  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402


def _first_job_of_each_kind(workload):
    first = {}
    for kind, params in jobs.make_pass(workload, 1, 0):
        first.setdefault(kind, params)
    return first


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_first_job_of_each_kind_runs_traced(workload, tmp_path):
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    assert all(getattr(owner, attr) is original for owner, attr, original, _ in patches)
    checks, results = jobs.Checks(), []
    try:
        for kind, params in _first_job_of_each_kind(workload).items():
            tracing.apply(patches, True)
            results.append(worker.run_job(kind, params, checks, str(tmp_path), tracer))
            tracing.apply(patches, False)
    finally:
        tracing.apply(patches, False)
    assert all(getattr(owner, attr) is original for owner, attr, original, _ in patches)
    assert [r["kind"] for r in results] == list(_first_job_of_each_kind(workload))
    assert {r["kind"]: r["failures"] for r in results if r["failures"]} == {}
    assert tracing.accounting(tracer)["sum_matches"]


def test_cli_split_job_with_a_negative_constant_in_scientific_notation(tmp_path):
    # pass 67 of seed 34 passes --c0 -7.40791508777594e-05, which argparse
    # alone takes for an option flag; the SystemExit would end the worker
    replay = [params for kind, params in jobs.make_pass("green_curves", 34, 67)
              if kind == "cli_split" and "e-" in repr(params["c"][0])]
    assert [p["c"][0] for p in replay] == [-7.40791508777594e-05]
    result = worker.run_job("cli_split", replay[0], jobs.Checks(), str(tmp_path))
    assert result["failures"] == []


@pytest.mark.parametrize("seed, pass_index", [(2, 178), (6, 159)])
def test_off_shell_sweep_with_nearly_cancelling_offsets(seed, pass_index, tmp_path):
    # an off-shell Sigma_into_psi sweep whose offsets nearly cancel in
    # kappa = c0 + m c1: the finite part dominates |value|, and the fitted
    # exponent must still be that of the 1/eps divergence
    results = [worker.run_job(kind, params, jobs.Checks(), str(tmp_path))
               for kind, params in jobs.make_pass("adiabatic_sweeps", seed, pass_index)
               if kind == "sweep"]
    assert results
    assert [f for r in results for f in r["failures"]] == []
