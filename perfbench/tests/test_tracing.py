import concurrent.futures
import threading

import pytest

from perfbench.layers import Instrumentation, layer_metrics
from perfbench.tracing import Span, Tracer, coverage, covered, self_time


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_merges_overlaps_and_clips():
    assert covered((0, 10), []) == 0
    assert covered((0, 10), [(1, 3), (2, 5), (7, 8)]) == 5
    assert covered((0, 10), [(-5, 2), (9, 20)]) == 3
    assert covered((0, 10), [(11, 12)]) == 0


def _span(name, start, end, parent=None, leaf=0.0):
    span = Span(name, parent)
    span.start, span.end, span.leaf_s = start, end, leaf
    if parent is not None:
        parent.children.append(span)
    return span


def test_self_time_subtracts_union_of_children_and_leaves():
    root = _span("op.x", 0, 10)
    _span("a.one", 1, 4, root)
    _span("a.two", 3, 6, root)  # overlaps the first: union is 5
    root.leaf_s = 1.0
    assert self_time(root) == pytest.approx(10 - 5 - 1)
    hedge = _span("b.late", 8, 14, root)  # outlives the parent: clipped
    assert self_time(root) == pytest.approx(10 - 7 - 1)
    assert self_time(hedge) == 6


def test_nested_spans_and_coverage():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("op.encode"):
        clock.now = 1.0
        with tracer.span("tensor.encode"):
            clock.now = 2.0
            with tracer.span("encoder.encode"):
                clock.now = 5.0
                tracer.leaf("entropy.write", 2.0)
            clock.now = 6.0
        clock.now = 8.0
    tracer.link()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["encoder.encode"].parent is by_name["tensor.encode"]
    assert self_time(by_name["encoder.encode"]) == pytest.approx(1.0)
    assert self_time(by_name["tensor.encode"]) == pytest.approx(2.0)
    # Layers explain 5 of the root's 8 seconds (tensor 2 + encoder 1 + leaf 2).
    assert coverage(tracer, "op.") == pytest.approx(5 / 8)
    assert tracer.leaf_calls["entropy.write"] == 1


def test_pool_work_inherits_the_submitting_span():
    tracer = Tracer()
    inst = Instrumentation(tracer)
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=1)
    inst.install()
    try:
        with tracer.span("op.request"):
            seen = pool.submit(lambda: tracer.current()).result()
            with tracer.span("service.decode") as inner:
                nested = pool.submit(lambda: tracer.current()).result()
    finally:
        inst.uninstall()
        pool.shutdown()
    assert seen.name == "op.request"
    assert nested is inner
    assert tracer.current() is None


def test_install_restores_every_target():
    import os

    from repro.codec.entropy import native
    from repro.tensor.codec import CompressedTensor, TensorCodec

    before = (TensorCodec.__dict__["encode"], CompressedTensor.__dict__["from_bytes"],
              native.write, os.fsync, concurrent.futures.ThreadPoolExecutor.submit)
    inst = Instrumentation(Tracer())
    inst.install()
    assert TensorCodec.__dict__["encode"] is not before[0]
    assert isinstance(CompressedTensor.__dict__["from_bytes"], classmethod)
    inst.uninstall()
    after = (TensorCodec.__dict__["encode"], CompressedTensor.__dict__["from_bytes"],
             native.write, os.fsync, concurrent.futures.ThreadPoolExecutor.submit)
    assert after == before
    assert inst.missing == []


def test_layer_metrics_on_a_real_codec_call():
    import numpy as np

    from repro.tensor.codec import TensorCodec

    codec = TensorCodec(tile=32)
    tensor = np.random.default_rng(0).normal(size=(16, 32)).astype(np.float32)
    tracer = Tracer()
    inst = Instrumentation(tracer)
    inst.install()
    try:
        with tracer.span("op.encode"):
            blob = codec.encode(tensor, qp=26.0)
        with tracer.span("op.decode"):
            codec.decode(blob)
    finally:
        inst.uninstall()
    metrics = layer_metrics(inst)
    assert metrics["tensor.encoder_calls_per_tensor"] == 1.0
    assert inst.codec_bytes == 2 * tensor.nbytes
    assert metrics["encoder.self_s"] > 0 and metrics["decoder.self_s"] > 0
    assert 0.5 < metrics["trace.coverage"] <= 1.0 + 1e-9


def test_leaf_updates_from_many_threads_are_not_lost():
    tracer = Tracer()
    with tracer.span("op.x") as root:
        def work():
            with tracer.inherit(root):
                for _ in range(1000):
                    tracer.leaf("fsync", 0.001)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    assert tracer.leaf_calls["fsync"] == 4000
    assert root.leaf_s == pytest.approx(4.0)
