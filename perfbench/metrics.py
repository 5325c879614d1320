"""The benchmark's metric table: name -> (unit, better).

``BENCHMARK.json`` lists the same names; a test keeps the two in step.
End-to-end metrics come from untraced runs, per-layer ones from traced
runs.  See ``README.md`` for what each means on each workload.
"""

from __future__ import annotations

from typing import Dict, Tuple

END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "encode_mb_s": ("MB/s", "higher"),
    "decode_mb_s": ("MB/s", "higher"),
    "nmse": ("ratio", "lower"),
    "bits_per_value": ("bits", "lower"),
    "p50_ms": ("ms", "lower"),
    "ops_s": ("1/s", "higher"),
    "put_p50_ms": ("ms", "lower"),
    "get_p50_ms": ("ms", "lower"),
    "ok_share": ("ratio", "higher"),
}

_KERNELS = ("write", "cost", "cost_fused", "refs", "scan")

PER_LAYER: Dict[str, Tuple[str, str]] = {
    "tensor.encoder_calls_per_tensor": ("count", "lower"),
    "tensor.self_s": ("s", "lower"),
    "tensor.container_s": ("s", "lower"),
    "encoder.self_s": ("s", "lower"),
    **{
        name: spec
        for kernel in _KERNELS
        for name, spec in (
            (f"entropy.{kernel}.calls_per_mb", ("1/MB", "lower")),
            (f"entropy.{kernel}.busy_s", ("s", "lower")),
        )
    },
    "decoder.self_s": ("s", "lower"),
    "service.self_s": ("s", "lower"),
    "broker.wait_s": ("s", "lower"),
    "broker.shed": ("count", "lower"),
    "ladder.downshift_share": ("ratio", "lower"),
    "supervisor.hop_s": ("s", "lower"),
    "supervisor.retries": ("count", "lower"),
    "router.dispatch_s": ("s", "lower"),
    "router.hedges_per_decode": ("ratio", "lower"),
    "router.hedge_win_share": ("ratio", "higher"),
    "shard.self_s": ("s", "lower"),
    "store.put_s": ("s", "lower"),
    "store.get_s": ("s", "lower"),
    "store.fsyncs_per_put": ("count", "lower"),
    "store.bytes_per_user_byte": ("ratio", "lower"),
    "loadgen.lag_p99_ms": ("ms", "lower"),
    # Figures of the untraced segment of a traced run that did not repeat
    # within a tenth run to run: too few samples beyond the 99th
    # percentile, and kv-serve's overload goodput is bimodal on the seed.
    "p99_ms": ("ms", "lower"),
    "put_p99_ms": ("ms", "lower"),
    "get_p99_ms": ("ms", "lower"),
    "goodput_rps": ("1/s", "higher"),
    "proc.cpu_util": ("ratio", "higher"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}
