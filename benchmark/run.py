"""causalqed benchmark entry point.

    python3 benchmark/run.py --workload green_curves --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
./src.  Each workload runs in one fresh single-threaded worker process.
Set-up time is measured on five fresh processes that only import, two
before the worker and three after it, and reported as their median.
Times are adjusted for host speed (see hostspeed.py).  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Workloads and metrics are described in
benchmark/spec.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5
DEADLINE_S = 170.0


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker_env():
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    return env


class WorkerError(RuntimeError):
    pass


def start_worker(args, deadline):
    """Start a worker; return (process, seconds until it printed 'ready')."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().strip()
    ready = time.perf_counter() - start
    if line != "ready":
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker did not start (exit {proc.poll()})")
    if time.perf_counter() > deadline:
        raise WorkerError("deadline passed during set-up")
    return proc, ready


def finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker exceeded the deadline")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}")
    return out


def probe(procs, deadline):
    """(set-up seconds, host slowdown around it) of one fresh process that only imports."""
    before = hostspeed.slowdown()
    proc, ready = start_worker(["--probe"], deadline)
    procs.append(proc)
    finish(proc, deadline)
    return ready, 0.5 * (before + hostspeed.slowdown())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = load_benchmark()
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "causalqed", "__init__.py")):
        print(f"no causalqed sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    procs = []
    probes = SETUP_PROBES if args.trace == 0 else 0  # set-up is reported with --trace 0 only
    try:
        setup = [probe(procs, deadline) for _ in range(probes // 2)]
        proc, _ = start_worker(
            ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", workdir], deadline)
        procs.append(proc)
        result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
        setup += [probe(procs, deadline) for _ in range(probes - probes // 2)]
    except (WorkerError, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = dict(result["metrics"])
    if args.trace == 0:
        metrics["setup_s"] = statistics.median(ready / slowdown for ready, slowdown in setup)
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {result['attempted']}  failed {result['failed']}  "
          f"pass size {result['pass_size']}  tail percentile p{result['tail_percentile']}"
          + (f"  passes {result['passes']}  wall {result['wall_s']:.2f} s" if not args.trace else ""))
    for kind, info in sorted(result["kinds"].items()):
        print(f"  {kind:22s} jobs {info['jobs']:4d}  failed {info['failed']:3d}  "
              f"median {info['median_s']:.4f} s")
    if not args.trace:
        print(f"  kinds ranked around p50: {result['neighbours']['p50']}; "
              f"around the tail: {result['neighbours']['tail']}")
        print(f"  unadjusted for host speed: {json.dumps(result['unadjusted'])}; "
              f"set-up {json.dumps([round(ready, 4) for ready, _ in setup])} s "
              f"at slowdowns {json.dumps([round(s, 3) for _, s in setup])}")
    failing = {name: n[1] for name, n in sorted(result["checks"].items()) if n[1]}
    print(f"  failed checks: {json.dumps(failing)}")
    for line in result["unexpected_failures"]:
        print(f"  unexpected failure: {line}")
    print(f"  self-check {json.dumps(result['self_check'])}")
    if args.trace:
        print(f"  accounting {json.dumps(result['accounting'])}")
        print(f"  quad by enclosing layer {json.dumps(result['quad_by_parent'])}")
        print(f"  spans written to {result['trace_file']}")
    for name in units:
        print(f"  {name:32s} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
