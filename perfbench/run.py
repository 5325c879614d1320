#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload ckpt|kv-serve|cluster-store|all \
        --seed N --seconds S --trace 0|1

Run from the repository root; ``all`` runs the three workloads in turn.  The workload runs in its own process
(``perfbench.worker``) with BLAS held to one thread; its outputs are
checked against the program's pure-Python reference in a further
process.  For untraced runs the set-up is also timed in several fresh
processes and the median reported.  The last stdout line is the result
JSON; the line before it (``perfbench-record ...``) is the run record.
Exit status: 0 correct, 1 output mismatch or failed run, 2 no program.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("ckpt", "kv-serve", "cluster-store")
#: Extra set-up-only processes per untraced run (plus the run's own).
SETUP_PROBES = 4
BLAS_THREADS = "1"
#: Whole run must stay under the 180 s limit; a cold kernel build is
#: allowed longer.
WORKER_TIMEOUT_S = 150.0
BUILD_TIMEOUT_S = 600.0


def _env() -> dict:
    env = dict(os.environ)
    env.pop("LLM265_PURE_PYTHON", None)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def _last_json(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("worker printed nothing")
    return json.loads(lines[-1])


def _python(args, env, timeout):
    proc = subprocess.run(
        [sys.executable] + args, cwd=ROOT, env=env, timeout=timeout,
        stdout=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:3])} exited {proc.returncode}")
    return _last_json(proc.stdout)


def _build_kernels(env) -> dict:
    """Build the native kernels (first run in a checkout), untimed."""
    code = (
        "import json; from repro.codec.entropy import native; "
        "print(json.dumps(native.kernel_status()))"
    )
    return _python(["-c", code], env, BUILD_TIMEOUT_S)


def _git_rev() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _metrics(names, values: dict) -> dict:
    out = {}
    for name, (unit, _) in names.items():
        value = values[name]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not a finite number: {value!r}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the program's source (src/repro) is not in this checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        return _run_one(args)
    status = 0
    for workload in WORKLOADS:
        args.workload = workload
        status = max(status, _run_one(args))
    return status


def _run_one(args) -> int:
    env = _env()
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    common = ["-m", "perfbench.worker", "--workload", args.workload,
              "--seed", str(args.seed), "--workdir", workdir]
    try:
        _build_kernels(env)
        out = _python(common + ["--phase", "run", "--seconds", str(args.seconds),
                                "--trace", str(args.trace)], env, WORKER_TIMEOUT_S)
        setup_samples = [out["setup_s"]]
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup_samples.append(_python(common + ["--phase", "setup"], env, 60)["setup_s"])
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {args.workload} run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))  # only if no other run uses it
        except OSError:
            pass

    kernels = out["kernels"]
    not_ready = {k: v for k, v in kernels.items() if v != "ready"}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": out["python"],
        "numpy": out["numpy"],
        "platform": platform.platform(),
        "blas_threads": BLAS_THREADS,
        "kernels": kernels,
        "kernels_flag": "ok" if not not_ready else f"NOT READY {not_ready}",
        "git_rev": _git_rev(),
        "setup_samples_s": setup_samples,
        "host_steal_share": out["host_steal_share"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "mismatches": out["mismatches"],
        "detail": out["record"],
        "at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if not_ready:
        print(f"perfbench: WARNING kernels not ready, measured without them: {not_ready}",
              file=sys.stderr)

    try:
        if args.trace:
            values = dict(out["metrics"])
            record["not_exercised"] = sorted(n for n in PER_LAYER if n not in values)
            for name in record["not_exercised"]:
                values[name] = 0.0
            metrics = _metrics(PER_LAYER, values)
        else:
            values = dict(out["metrics"])
            values["setup_s"] = statistics.median(setup_samples)
            values["peak_rss_mb"] = out["peak_rss_mb"]
            metrics = _metrics(END_TO_END, values)
    except (KeyError, RuntimeError) as exc:
        print(f"perfbench: incomplete metrics: {exc}", file=sys.stderr)
        return 1

    correct = bool(out["correct"])
    print("perfbench-record " + json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))
    if not correct:
        print(f"perfbench: OUTPUT MISMATCH ({out['mismatch_count']}): {out['mismatches']}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
