"""One workload in one fresh process.

    python3 benchmark/worker.py --probe
    python3 benchmark/worker.py --workload W --seed N --seconds S --trace 0|1 --workdir DIR

The process prints "ready" once its imports are done (the parent times
set-up up to that line), then builds its jobs from the seed and runs
them, and prints one JSON object as its last line.

Job times are divided by the host slowdown measured just before and
after each job (hostspeed.py).  --trace 0 runs pass 0 of the job list,
then further whole passes with fresh inputs while another pass of the
mean length still ends within --seconds.  A pass takes a little less
than run_seconds at the seed, so such a run is one pass; a faster
program runs more.  --trace 1 runs pass 0 under the tracer, so its work
counts repeat exactly for one seed; each job of its first third also
runs untraced just before, and the ratio of the two timings is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARD_STOP_S = 140.0

import numpy as np  # noqa: E402

import causalqed  # noqa: E402
import hostspeed  # noqa: E402
import jobs  # noqa: E402
import tracer as tracing  # noqa: E402


def tail_percentile(pass_size: int) -> int:
    """Highest whole percentile with at least ten jobs of one pass beyond it."""
    return math.floor(100 * (pass_size - 10) / pass_size)


def nearest_rank_index(n: int, pct) -> int:
    """0-based index of the nearest-rank percentile among n sorted values."""
    return max(0, math.ceil(pct / 100 * n) - 1)


def run_job(kind, params, checks, workdir, tracer=None):
    ctx = jobs.JobContext(checks, workdir, tracer)
    start = time.perf_counter()
    if tracer:
        tracer.enter(f"job.{kind}")
    try:
        jobs.KINDS[kind].run(params, ctx)
    except Exception as exc:  # a job that raises is a failed job, not a harness failure
        ctx.failures.append(f"exception: {type(exc).__name__}: {exc}")
        checks.record("job.raises", False)
        traceback.print_exc(file=sys.stderr)
    finally:
        if tracer:
            tracer.job_wall_s += tracer.exit()
    return {"kind": kind, "s": time.perf_counter() - start, "failures": ctx.failures}


def self_check(checks) -> dict:
    """Each oracle must reject its value moved by 10x its tolerance, and the
    byte comparison must see a flipped byte."""
    rejected, missed = 0, []
    for name, (got, want, rtol, atol) in checks.samples.items():
        moved = want + 10.0 * (atol + rtol * np.abs(want))
        if jobs.close_ratio(got, want, rtol, atol) <= 1.0 < jobs.close_ratio(moved, want, rtol, atol):
            rejected += 1
        else:
            missed.append(name)
    bytes_ok = False
    if checks.byte_sample:
        name, data = next(iter(checks.byte_sample.items()))
        flipped = dict(checks.byte_sample)
        flipped[name] = bytes([data[0] ^ 1]) + data[1:]
        bytes_ok = flipped != checks.byte_sample
    return {"oracles_rejecting": rejected, "oracles_missed": missed, "bytes_detected": bytes_ok,
            "ok": not missed and rejected > 0 and bytes_ok}


def summarize(results):
    unexpected = [f for r in results for f in r["failures"]
                  if f.split(":")[0] not in jobs.KNOWN_DEFECTS]
    by_kind = {}
    for r in results:
        entry = by_kind.setdefault(r["kind"], {"jobs": 0, "failed": 0, "times": []})
        entry["jobs"] += 1
        entry["failed"] += bool(r["failures"])
        entry["times"].append(r["s"])
    kinds = {k: {"jobs": v["jobs"], "failed": v["failed"], "median_s": statistics.median(v["times"])}
             for k, v in by_kind.items()}
    return unexpected, kinds


def write_trace(tracer, quad_by_parent, args) -> str:
    """Spans (id, name, start, end, parent) and per-span aggregates, for inspection."""
    path = os.path.join(ROOT, ".bench_trace", f"{args.workload}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    aggregates = {name: {"calls": tracer.calls[name], "total_s": tracer.total_s[name],
                         "self_s": tracer.self_s[name]} for name in sorted(tracer.calls)}
    with open(path, "w") as fh:
        json.dump({"spans_recorded": tracer.next_id, "spans": tracer.spans,
                   "aggregates": aggregates, "quad_by_parent": quad_by_parent}, fh)
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload", choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--workdir")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src", "causalqed")
    if os.path.dirname(os.path.abspath(causalqed.__file__)) != src:
        print(f"causalqed imported from {causalqed.__file__}, not from {src}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    if args.probe:
        return 0

    first_pass = jobs.make_pass(args.workload, args.seed, 0)
    pct = jobs.SPEC["workloads"][args.workload]["tail_percentile"]
    if pct != tail_percentile(len(first_pass)):
        print(f"spec.json records p{pct}, a pass of {len(first_pass)} jobs gives "
              f"p{tail_percentile(len(first_pass))}", file=sys.stderr)
        return 3
    checks = jobs.Checks()
    os.makedirs(args.workdir, exist_ok=True)
    out = {"pass_size": len(first_pass), "tail_percentile": pct}

    if args.trace == 0:
        results, wall, queue, pass_index = [], 0.0, first_pass, 0
        slowdown = hostspeed.slowdown()
        while True:
            start = time.perf_counter()
            for kind, params in queue:
                job = run_job(kind, params, checks, args.workdir)
                after = hostspeed.slowdown()
                job["slowdown"] = 0.5 * (slowdown + after)
                slowdown = after
                results.append(job)
                if wall + time.perf_counter() - start > HARD_STOP_S:
                    break
            wall += time.perf_counter() - start
            pass_index += 1
            # whole passes only, so every run has the same mix of job kinds
            if wall >= HARD_STOP_S or wall + wall / pass_index > args.seconds:
                break
            queue = jobs.make_pass(args.workload, args.seed, pass_index)
        raw = [r["s"] for r in results]
        adjusted = [r["s"] / r["slowdown"] for r in results]
        for r, t in zip(results, adjusted):
            r["s"] = t
        tail = nearest_rank_index(len(results), out["tail_percentile"])
        ranked = sorted(results, key=lambda r: r["s"])
        out["neighbours"] = {label: [r["kind"] for r in ranked[max(0, i - 2):i + 3]]
                             for label, i in (("p50", len(ranked) // 2), ("tail", tail))}
        out["metrics"] = {
            "jobs_per_s": len(results) / sum(adjusted),
            "job_s_p50": statistics.median(adjusted),
            "job_s_tail": sorted(adjusted)[tail],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        out["unadjusted"] = {"jobs_per_s": len(results) / sum(raw), "job_s_p50": statistics.median(raw),
                             "job_s_tail": sorted(raw)[tail],
                             "slowdown_median": statistics.median(r["slowdown"] for r in results)}
        out["wall_s"] = wall
        out["passes"] = pass_index
        accounted_ok = True
    else:
        # the first third runs untraced and traced in turn, so that both
        # timings of a job see the same machine; the traced runs are pass 0
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        k = math.ceil(len(first_pass) / 3)
        results, plain = [], 0.0
        for i, (kind, params) in enumerate(first_pass):
            if i < k:
                plain += run_job(kind, params, jobs.Checks(), args.workdir)["s"]
            tracing.apply(patches, True)
            results.append(run_job(kind, params, checks, args.workdir, tracer))
            tracing.apply(patches, False)
        traced = sum(r["s"] for r in results[:k])
        metrics = tracing.layer_metrics(tracer)
        acct = tracing.accounting(tracer)
        metrics["oracle.digits_min"] = checks.digits_min if math.isfinite(checks.digits_min) else 17.0
        metrics["oracle.failed_frac"] = sum(bool(r["failures"]) for r in results) / len(results)
        metrics["trace.overhead_frac"] = traced / plain - 1.0
        metrics["trace.accounted_frac"] = acct["accounted_frac"]
        out["metrics"] = metrics
        out["accounting"] = acct
        out["quad_by_parent"] = {layer: {"calls": v[0], "warnings": v[1], "abserr_max": v[2]}
                                 for layer, v in sorted(tracer.quad_by_parent.items())}
        out["trace_file"] = write_trace(tracer, out["quad_by_parent"], args)
        accounted_ok = acct["sum_matches"]

    unexpected, kinds = summarize(results)
    check = self_check(checks)
    out.update({
        "attempted": len(results),
        "failed": sum(bool(r["failures"]) for r in results),
        "unexpected_failures": unexpected[:20],
        "kinds": kinds,
        "self_check": check,
        "checks": checks.by_name,
        "correct": check["ok"] and not unexpected and accounted_ok,
    })
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
