"""Wrappers around each layer's public functions, and the per-layer metrics.

The traced run installs these wrappers in the benchmark process only;
the untraced run never does, so its timings carry no tracing cost.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import os
import threading
from typing import Dict, List, Tuple

from perfbench.tracing import Span, Tracer, coverage, self_time

#: (span name, module, class, method).  The span name's first dotted
#: component is the layer it is attributed to.
SPAN_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("tensor.encode", "repro.tensor.codec", "TensorCodec", "encode"),
    ("tensor.decode", "repro.tensor.codec", "TensorCodec", "decode_with_report"),
    ("container.to_bytes", "repro.tensor.codec", "CompressedTensor", "to_bytes"),
    ("container.from_bytes", "repro.tensor.codec", "CompressedTensor", "from_bytes"),
    ("encoder.encode", "repro.codec.encoder", "FrameEncoder", "encode"),
    ("decoder.decode", "repro.codec.decoder", "FrameDecoder", "decode"),
    ("service.encode", "repro.serving.service", "CodecService", "encode"),
    ("service.decode", "repro.serving.service", "CodecService", "decode"),
    ("broker.acquire", "repro.serving.broker", "RequestBroker", "acquire"),
    ("supervisor.run", "repro.serving.supervisor", "Supervisor", "run"),
    ("router.put", "repro.cluster.router", "ClusterRouter", "put"),
    ("router.get", "repro.cluster.router", "ClusterRouter", "get"),
    ("router.decode", "repro.cluster.router", "ClusterRouter", "decode"),
    ("shard.put", "repro.cluster.shard", "ClusterShard", "put"),
    ("shard.get", "repro.cluster.shard", "ClusterShard", "get"),
    ("shard.decode", "repro.cluster.shard", "ClusterShard", "decode"),
    ("store.put", "repro.cluster.store", "ShardStore", "put"),
    ("store.get", "repro.cluster.store", "ShardStore", "get"),
)

#: Native entropy kernels (Python<->C crossings), recorded as leaves.
KERNELS: Tuple[str, ...] = ("write", "cost", "cost_fused", "refs", "scan")
NATIVE_MODULE = "repro.codec.entropy.native"

#: Bytes of fp32 tensor data a codec call handles: the encode input, the
#: decode output (``decode_with_report`` returns ``(tensor, report)``).
_CODEC_SIZERS = {
    "tensor.encode": lambda args, result: int(args[1].nbytes),
    "tensor.decode": lambda args, result: int(result[0].nbytes),
}

#: Root spans the workloads open around each operation they issue.
ROOT = "op."


class Instrumentation:
    """Installs and removes the wrappers; records into one :class:`Tracer`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: List[str] = []
        #: fp32 bytes into ``TensorCodec.encode`` plus out of its decode.
        self.codec_bytes = 0
        self._bytes_lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, name: str, func):
        tracer = self.tracer
        sizer = _CODEC_SIZERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = func(*args, **kwargs)
            if sizer is not None:
                size = sizer(args, result)
                with self._bytes_lock:
                    self.codec_bytes += size
            return result

        return wrapper

    def _leaf_wrapper(self, name: str, func):
        tracer = self.tracer
        clock = tracer.clock

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                tracer.leaf(name, clock() - start)

        return wrapper

    def install(self) -> None:
        for name, module_name, cls_name, method in SPAN_TARGETS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            raw = cls.__dict__.get(method) if cls is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{cls_name}.{method}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._span_wrapper(name, raw.__func__))
            else:
                wrapped = self._span_wrapper(name, raw)
            self._patch(cls, method, wrapped)

        native = importlib.import_module(NATIVE_MODULE)
        for kernel in KERNELS:
            func = native.__dict__.get(kernel)
            if func is None:
                self.missing.append(f"{NATIVE_MODULE}.{kernel}")
                continue
            self._patch(native, kernel, self._leaf_wrapper(f"entropy.{kernel}", func))
        self._patch(os, "fsync", self._leaf_wrapper("fsync", os.fsync))

        tracer = self.tracer
        submit = concurrent.futures.ThreadPoolExecutor.submit

        @functools.wraps(submit)
        def traced_submit(pool, fn, /, *args, **kwargs):
            parent = tracer.current()
            if parent is None:
                return submit(pool, fn, *args, **kwargs)

            def run(*a, **k):
                with tracer.inherit(parent):
                    return fn(*a, **k)

            return submit(pool, run, *args, **kwargs)

        self._patch(concurrent.futures.ThreadPoolExecutor, "submit", traced_submit)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _by_layer(spans: List[Span], layer: str) -> List[Span]:
    prefix = layer + "."
    return [s for s in spans if s.name.startswith(prefix)]


def layer_metrics(
    inst: Instrumentation,
    user_put_bytes: int = 0,
    store_bytes_written: int = 0,
) -> Dict[str, float]:
    """Per-layer figures from one traced segment.

    ``calls_per_mb`` is per MB (1e6 bytes) of fp32 tensor data through
    ``TensorCodec`` encode and decode calls.  Only spans under a
    workload's root operation count.
    """
    tracer = inst.tracer
    codec_mb = inst.codec_bytes / 1e6
    tracer.link()
    spans = tracer.rooted(ROOT)

    def self_sum(layer: str) -> float:
        return sum((self_time(s) for s in _by_layer(spans, layer)), 0.0)

    def dur_sum(name: str) -> float:
        return sum((s.duration for s in spans if s.name == name), 0.0)

    def count(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    store_puts = count("store.put")
    tensor_encodes = count("tensor.encode")
    metrics: Dict[str, float] = {
        "tensor.encoder_calls_per_tensor": (
            count("encoder.encode") / tensor_encodes if tensor_encodes else 0.0
        ),
        "tensor.self_s": self_sum("tensor"),
        "tensor.container_s": dur_sum("container.to_bytes") + dur_sum("container.from_bytes"),
        "encoder.self_s": self_sum("encoder"),
        "decoder.self_s": self_sum("decoder"),
        "service.self_s": self_sum("service"),
        "broker.wait_s": dur_sum("broker.acquire"),
        "supervisor.hop_s": self_sum("supervisor"),
        "router.dispatch_s": self_sum("router"),
        "shard.self_s": self_sum("shard"),
        "store.put_s": dur_sum("store.put"),
        "store.get_s": dur_sum("store.get"),
        "store.fsyncs_per_put": (
            tracer.leaf_calls.get("fsync", 0) / store_puts if store_puts else 0.0
        ),
        "store.bytes_per_user_byte": (
            store_bytes_written / user_put_bytes if user_put_bytes else 0.0
        ),
        "trace.coverage": coverage(tracer, ROOT),
    }
    for kernel in KERNELS:
        name = f"entropy.{kernel}"
        calls = tracer.leaf_calls.get(name, 0)
        metrics[f"{name}.calls_per_mb"] = calls / codec_mb if codec_mb else 0.0
        metrics[f"{name}.busy_s"] = tracer.leaf_busy.get(name, 0.0)
    return metrics
