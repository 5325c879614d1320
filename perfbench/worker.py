"""One workload in one process: ``python3 -m perfbench.worker``.

``--phase run`` times its own set-up, runs the workload, verifies the
outputs and prints one JSON line.  ``--phase setup`` only times the
set-up (imports, kernel load, construction, store open and preload),
so the orchestrator can take a median over several processes.  Input
generation is not part of the set-up time.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # before any import that set-up pays for

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

WORKLOADS = {
    "ckpt": "perfbench.ckpt",
    "kv-serve": "perfbench.kvserve",
    "cluster-store": "perfbench.cluster",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--phase", choices=("run", "setup"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    module = importlib.import_module(WORKLOADS[args.workload])
    for name in module.PROGRAM_MODULES:
        importlib.import_module(name)
    from repro.codec.entropy import native

    kernels = native.kernel_status()  # loads (or, if stale, builds) the kernels
    imported = time.perf_counter()
    data = module.make_inputs(args.seed)  # input generation is not set-up
    t1 = time.perf_counter()
    state = module.setup(args.workdir, data)
    setup_s = (imported - _T0) + (time.perf_counter() - t1)
    # Scaled to the reference host speed like the run's timings.
    from perfbench.hostspeed import HostSpeed

    speed = HostSpeed()
    speed.sample(25)
    setup_s *= speed.factor
    if args.phase == "setup":
        _close(module, state)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cpu_before = _host_cpu_ticks()
    try:
        outcome = module.run(state, data, args.seconds, bool(args.trace), args.workdir)
    finally:
        _close(module, state)
    cpu_after = _host_cpu_ticks()
    import numpy

    from perfbench.common import peak_rss_mb

    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "metrics": outcome.metrics,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "correct": outcome.correct,
        "mismatches": outcome.mismatches,
        "mismatch_count": outcome.mismatch_count,
        "record": outcome.record,
        "kernels": kernels,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "host_steal_share": _steal_share(cpu_before, cpu_after),
    }))
    return 0


def _host_cpu_ticks():
    """The machine's aggregate CPU tick counters (Linux), or None."""
    try:
        with open("/proc/stat") as handle:
            return [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def _steal_share(before, after):
    """Share of the machine's CPU time stolen by the hypervisor during the
    run; a run measured while it is high reads slow."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total else 0.0


def _close(module, state) -> None:
    close = getattr(module, "teardown", None)
    if close is not None:
        close(state)


if __name__ == "__main__":
    sys.exit(main())
