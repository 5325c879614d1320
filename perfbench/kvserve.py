"""kv-serve: KV-block serving through one ``CodecService``.

About 80 % of requests decode blobs pre-encoded at set-up and 20 % are
fixed-QP encodes of small KV/activation-like tensors.  Load is an open
loop from two client threads at fixed, evenly spaced rates: ``steady``
below the seed's capacity and, in traced runs, ``overload`` at about
twice it.  Each request is timed from when it was due and is sent with
the rest of a fixed latency limit as its deadline.  Small decode-heavy
requests make per-request overhead (broker, ladder, supervisor hop,
container parse) a large share of the time; the overload phase is where
shedding and rung choice decide goodput.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from perfbench import inputs
from perfbench.common import (
    MB, UNTRACED_DIAGNOSTICS, Op, Outcome, Segment, mb_per_s, ms_quantile, ok_share,
    squared_error,
)
from perfbench.hostspeed import HostSpeed
from perfbench.layers import Instrumentation, layer_metrics
from perfbench.stats import quantile
from perfbench.tracing import Tracer
from perfbench.verify import Checker, ReferenceJobs, array_digest, bytes_digest, observe

#: On a 2-CPU host the seed serves 80-100 evenly spaced requests/s from
#: two callers and collapses at 160.  The rates are fixed so every commit
#: sees the same load.
STEADY_RPS = 30.0
OVERLOAD_RPS = 160.0
#: Share of a schedule spent in the steady phase.
STEADY_SHARE = 0.5
#: Latency limit from due time; also the request's deadline budget.
LIMIT_S = 0.5
CLIENTS = 2
#: A client probes the host only when its next request is due later
#: than this, so the probe does not delay it.
PROBE_SLACK_S = 0.005
QP = 26.0
#: Program modules whose import the set-up time includes.
PROGRAM_MODULES = ("repro.serving.service",)
DECODE_SHARE = 0.8
DECODE_POOL = 48
ENCODE_POOL = 24


@dataclass
class Inputs:
    decode_tensors: List[np.ndarray]
    encode_tensors: List[np.ndarray]
    seed: int
    blobs: List[bytes]


@dataclass
class Request:
    due: float
    phase: str
    kind: str  # "decode" / "encode"
    item: int


@dataclass
class Result:
    request: Request
    lag_s: float  # send time minus due time
    latency_s: float  # completion minus due time
    ok: bool
    degraded: bool
    rung: str
    error: str
    digest: str = ""
    sse: float = 0.0
    energy: float = 0.0
    nbytes: int = 0


def make_inputs(seed: int) -> Inputs:
    """Seeded tensors plus the decode blobs, pre-encoded at the service's
    tile size with the top rung's search (input generation, not set-up)."""
    from repro.serving.service import ServiceConfig
    from repro.tensor.codec import TensorCodec

    decode_tensors = inputs.kv_blocks(seed, "kv-decode", DECODE_POOL)
    codec = TensorCodec(tile=ServiceConfig().tile, rd_search="turbo")
    return Inputs(
        decode_tensors=decode_tensors,
        encode_tensors=inputs.kv_blocks(seed, "kv-encode", ENCODE_POOL),
        seed=seed,
        blobs=[codec.encode(t, qp=QP).to_bytes() for t in decode_tensors],
    )


def setup(workdir: str, data: Inputs):
    from repro.serving.service import CodecService, ServiceConfig

    return CodecService(ServiceConfig())


def schedule(seed: int, seconds: float, segment: str, overload: bool = True) -> List[Request]:
    """Requests of one segment (``overload=False``: all of it steady).
    Every block of five has one encode, and pool items are drawn in
    seeded permutations, so each phase carries the same mix of kinds
    and shapes whatever the seed."""
    rng = inputs.rng_for(seed, f"kv-schedule-{segment}")
    steady = seconds * STEADY_SHARE if overload else seconds
    arrivals = inputs.arrivals(
        (("steady", STEADY_RPS, steady), ("overload", OVERLOAD_RPS, seconds - steady))
    )
    block = round(1 / (1 - DECODE_SHARE))
    encode_at = [int(rng.integers(block)) for _ in range(len(arrivals) // block + 1)]
    pools = {"decode": (DECODE_POOL, []), "encode": (ENCODE_POOL, [])}
    requests = []
    for index, (due, phase) in enumerate(arrivals):
        kind = "encode" if index % block == encode_at[index // block] else "decode"
        size, queue = pools[kind]
        if not queue:
            queue.extend(rng.permutation(size).tolist())
        requests.append(Request(due, phase, kind, queue.pop()))
    return requests


def _drive(service, data: Inputs, requests: List[Request], tracer: Optional[Tracer],
           speed: Optional[HostSpeed] = None) -> List[Result]:
    """Play the schedule from ``CLIENTS`` threads.  A client with time to
    spare before its next request probes the host with ``speed`` when no
    request is in flight."""
    results: List[Optional[Result]] = [None] * len(requests)
    order = itertools.count()
    start = time.perf_counter() + 0.05
    in_flight = [0]
    lock = threading.Lock()

    def call(req: Request, budget: float):
        if req.kind == "decode":
            return service.decode(data.blobs[req.item], deadline_s=budget)
        return service.encode(data.encode_tensors[req.item], qp=QP, deadline_s=budget)

    def client() -> None:
        while True:
            index = next(order)
            if index >= len(requests):
                return
            req = requests[index]
            due = start + req.due
            wait = due - time.perf_counter()
            if speed is not None and wait > PROBE_SLACK_S and not in_flight[0]:
                speed.sample()
                wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            budget = max(0.0, LIMIT_S - (sent - due))
            with lock:
                in_flight[0] += 1
            try:
                if tracer is not None:
                    with tracer.span(f"op.{req.kind}"):
                        response = call(req, budget)
                else:
                    response = call(req, budget)
            finally:
                with lock:
                    in_flight[0] -= 1
            done = time.perf_counter()
            results[index] = _result(req, data, sent - due, done - due, response)

    threads = [threading.Thread(target=client, name=f"kv-client-{i}") for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [r for r in results if r is not None]


def _result(req: Request, data: Inputs, lag: float, latency: float, response) -> Result:
    result = Result(
        req, lag, latency, bool(response.ok), bool(response.degraded),
        response.rung, response.error_type,
    )
    if not response.ok:
        return result
    if req.kind == "decode":
        result.digest = array_digest(response.value)
        result.sse, result.energy = squared_error(data.decode_tensors[req.item], response.value)
    else:
        blob = response.value.to_bytes()
        result.digest = bytes_digest(blob)
        result.nbytes = len(blob)
    return result


def _ops(results: List[Result], data: Inputs, speed: float) -> List[Op]:
    ops = []
    for r in results:
        tensor = (data.decode_tensors if r.request.kind == "decode" else data.encode_tensors)[r.request.item]
        kind = "get" if r.request.kind == "decode" else "put"
        good = r.ok and not r.degraded and r.latency_s <= LIMIT_S
        ops.append(Op(kind, speed * r.latency_s, r.ok and not r.degraded, tensor.nbytes / MB, good,
                      r.request.phase))
    return ops


def _end_to_end(results: List[Result], data: Inputs, speed: float) -> Dict[str, float]:
    """Latencies and MB/s scaled by the host ``speed`` factor; the
    request rates are set by the schedule and stay as measured."""
    ops = _ops(results, data, speed)
    steady = [op for op in ops if op.phase == "steady"]
    puts = [op for op in steady if op.kind == "put"]
    gets = [op for op in steady if op.kind == "get"]
    steady_results = [r for r in results if r.request.phase == "steady"]
    steady_wall = max(r.request.due + r.latency_s for r in steady_results) - min(
        r.request.due for r in steady_results
    )
    overload = [op for op in ops if op.phase == "overload"]
    overload_s = len(overload) / OVERLOAD_RPS
    decoded = [r for r in results if r.request.phase == "steady" and r.ok and r.request.kind == "decode"]
    encoded = [r for r in results if r.request.phase == "steady" and r.ok and r.request.kind == "encode"]
    values = sum(data.encode_tensors[r.request.item].size for r in encoded)
    energy = sum(r.energy for r in decoded)
    return {
        "encode_mb_s": mb_per_s(puts),
        "decode_mb_s": mb_per_s(gets),
        "p50_ms": ms_quantile(steady, 0.5),
        "p99_ms": ms_quantile(steady, 0.99),
        "put_p50_ms": ms_quantile(puts, 0.5),
        "put_p99_ms": ms_quantile(puts, 0.99),
        "get_p50_ms": ms_quantile(gets, 0.5),
        "get_p99_ms": ms_quantile(gets, 0.99),
        "ops_s": sum(1 for op in steady if op.ok) / steady_wall,
        "goodput_rps": (
            sum(1 for op in overload if op.good) / overload_s if overload else 0.0
        ),
        "ok_share": ok_share(steady),
        "nmse": sum(r.sse for r in decoded) / energy if energy else 0.0,
        "bits_per_value": sum(8 * r.nbytes for r in encoded) / values if values else 0.0,
    }


def _verify(service, data: Inputs, results: List[Result], workdir: str, check: Checker) -> None:
    rungs = {rung.name: rung for rung in service.ladder.rungs}
    decodes: Dict[str, set] = {}
    encodes: Dict[str, set] = {}
    jobs = ReferenceJobs(os.path.join(workdir, "reference"))
    wanted = set()
    for r in results:
        if not r.ok:
            continue
        check.expect(not r.degraded, f"kv decode {r.request.item}: degraded on a clean blob")
        if r.request.kind == "decode":
            observe(decodes, f"d{r.request.item}", r.digest)
            wanted.add(("d", r.request.item, ""))
        else:
            check.expect(r.rung in rungs, f"kv encode: unknown rung {r.rung!r}")
            observe(encodes, f"e{r.request.item}/{r.rung}", r.digest)
            wanted.add(("e", r.request.item, r.rung))
    tile = service.config.tile
    for kind, item, rung in sorted(wanted):
        if kind == "d":
            jobs.decode(f"d{item}", data.blobs[item], tile=tile)
        elif rung in rungs:
            jobs.encode(f"e{item}/{rung}", data.encode_tensors[item], tile=tile,
                        qp=QP, rd_search=rungs[rung].rd_search)
    reference = jobs.run()
    check.digests(decodes, reference, "kv decode")
    check.digests(encodes, reference, "kv encode")


def _layer_extras(service, results: List[Result], before: Dict[str, int]) -> Dict[str, float]:
    top = service.ladder.rungs[0].name
    placed = [r for r in results if r.rung]  # reached a rung, whatever the outcome
    return {
        "ladder.downshift_share": (
            sum(1 for r in placed if r.rung != top) / len(placed) if placed else 0.0
        ),
        "broker.shed": float(service.broker.stats()["shed"] - before["shed"]),
        "supervisor.retries": float(service.supervisor.stats()["retries"] - before["retries"]),
        "loadgen.lag_p99_ms": 1e3 * quantile([r.lag_s for r in results], 0.99),
    }


def _phase_record(results: List[Result], top: str) -> Dict[str, object]:
    record: Dict[str, object] = {}
    for phase in ("steady", "overload"):
        rs = [r for r in results if r.request.phase == phase]
        if not rs:
            continue
        placed = [r for r in rs if r.rung]
        record[phase] = {
            "requests": len(rs),
            "ok": sum(1 for r in rs if r.ok),
            "errors": sorted({r.error for r in rs if r.error}),
            "downshift_share": (
                sum(1 for r in placed if r.rung != top) / len(placed) if placed else 0.0
            ),
            "lag_p99_ms": 1e3 * quantile([r.lag_s for r in rs], 0.99),
        }
    return record


def run(service, data: Inputs, seconds: float, trace: bool, workdir: str) -> Outcome:
    check = Checker()
    top = service.ladder.rungs[0].name
    record: Dict[str, object] = {}
    speed = HostSpeed()
    if not trace:
        # Overload goodput is bimodal on the seed (it either holds or
        # collapses), so untraced runs measure the steady phase only and
        # the two-phase schedule runs in traced runs.
        results = _drive(service, data, schedule(data.seed, seconds, "main", overload=False), None,
                         speed)
        metrics = _end_to_end(results, data, speed.factor)
        record.update(_phase_record(results, top))
        all_results = results
        measured = results
    else:
        half = seconds / 2.0
        with Segment() as untraced:
            plain = _drive(service, data, schedule(data.seed, half, "main"), None, speed)
        tracer = Tracer()
        inst = Instrumentation(tracer)
        before = {
            "shed": service.broker.stats()["shed"],
            "retries": service.supervisor.stats()["retries"],
        }
        inst.install()
        try:
            with Segment() as traced:
                traced_results = _drive(service, data, schedule(data.seed, half, "traced"), tracer)
        finally:
            inst.uninstall()
        record["instrumentation_missing"] = inst.missing
        metrics = layer_metrics(inst)
        metrics.update(_layer_extras(service, traced_results, before))
        metrics["proc.cpu_util"] = untraced.cpu_util
        untraced_cost = untraced.cpu_s / max(1, len(plain))
        traced_cost = traced.cpu_s / max(1, len(traced_results))
        metrics["trace.overhead"] = traced_cost / untraced_cost - 1.0
        tails = _end_to_end(plain, data, speed.factor)
        metrics.update({name: tails[name] for name in UNTRACED_DIAGNOSTICS})
        record.update(_phase_record(traced_results, top))
        all_results = plain + traced_results
        measured = plain
    record["host_speed"] = speed.factor
    _verify(service, data, all_results, workdir, check)
    steady = [r for r in measured if r.request.phase == "steady"]
    return Outcome(
        metrics=metrics,
        attempted=len(steady),
        failed=sum(1 for r in steady if not r.ok or r.degraded),
        mismatches=check.mismatches,
        mismatch_count=check.count,
        record=record,
    )
