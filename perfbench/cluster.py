"""cluster-store: a durable compressed-tensor store behind ``ClusterRouter``.

Four in-process shards, R = 2, full write quorum and fsync on, in a
fresh store directory per run.  Two clients run a closed loop of about
30 % ``put`` of pre-encoded blobs, 50 % ``get`` and 20 % ``router.decode``
(the hedged path).  Keys are partitioned by client, so every ``get`` has
one expected value.  The store journal/fsync and router dispatch do most
of the work and the codec little; writes next to reads expose a change
that speeds one op type at the other's cost.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from perfbench import inputs
from perfbench.common import (
    MB, UNTRACED_DIAGNOSTICS, Op, Outcome, Segment, fastest, ms_quantile, ok_share,
    squared_error,
)
from perfbench.hostspeed import HostSpeed
from perfbench.layers import Instrumentation, layer_metrics
from perfbench.stats import quantile
from perfbench.tracing import Tracer
from perfbench.verify import Checker, ReferenceJobs, array_digest, observe

CLIENTS = 2
KEYS_PER_CLIENT = 32
PUT_POOL = 24  # distinct payloads per client; pools never overlap
DECODE_POOL = 32
QP = 26.0
PUT_SHARE, GET_SHARE = 0.3, 0.5  # the rest decode
BLOCK = 10  # ops per client per round
#: End-to-end timings come from the fastest quarter of the rounds.
FAST_SHARE = 0.25
#: Latency limit for goodput (ok ops within it).
LIMIT_S = 0.25
#: Rounds in each segment of a traced run.  Fixed, so the store's
#: count ratios repeat exactly for a seed.
TRACE_ROUNDS = 200
PROGRAM_MODULES = ("repro.cluster.router",)


@dataclass
class Inputs:
    seed: int
    put_tensors: List[List[np.ndarray]]  # [client][item]
    put_blobs: List[List[bytes]]
    decode_tensors: List[np.ndarray]
    decode_blobs: List[bytes]


def _key(client: int, index: int) -> str:
    return f"c{client}-k{index:03d}"


def make_inputs(seed: int) -> Inputs:
    from repro.cluster.router import ClusterConfig
    from repro.tensor.codec import TensorCodec

    codec = TensorCodec(tile=ClusterConfig().tile, rd_search="turbo")
    put_tensors = [inputs.kv_blocks(seed, f"put-{c}", PUT_POOL) for c in range(CLIENTS)]
    decode_tensors = inputs.kv_blocks(seed, "cluster-decode", DECODE_POOL)
    return Inputs(
        seed=seed,
        put_tensors=put_tensors,
        put_blobs=[[codec.encode(t, qp=QP).to_bytes() for t in ts] for ts in put_tensors],
        decode_tensors=decode_tensors,
        decode_blobs=[codec.encode(t, qp=QP).to_bytes() for t in decode_tensors],
    )


class State:
    def __init__(self, router, root: str) -> None:
        self.router = router
        self.root = root
        #: Values a get of each key may return: the last acknowledged
        #: put, plus any later put whose outcome is unknown.
        self.acceptable: Dict[str, List[bytes]] = {}


def setup(workdir: str, data: Inputs) -> State:
    """Router with durable shards in a fresh directory, then preload."""
    from repro.cluster.router import ClusterConfig, ClusterRouter

    root = os.path.join(workdir, f"store-{os.getpid()}-{time.monotonic_ns()}")
    router = ClusterRouter(ClusterConfig(store_root=root, store_fsync=True))
    state = State(router, root)
    for client in range(CLIENTS):
        for index in range(KEYS_PER_CLIENT):
            blob = data.put_blobs[client][index % PUT_POOL]
            key = _key(client, index)
            response = router.put(blob, key)
            if not response.ok:
                raise RuntimeError(f"preload put {key} failed: {response.error!r}")
            state.acceptable[key] = [blob]
    return state


def teardown(state: State) -> None:
    state.router.close()
    shutil.rmtree(state.root, ignore_errors=True)


@dataclass
class Result:
    kind: str
    latency_s: float
    ok: bool
    mb: float
    degraded: bool = False
    rung: str = ""
    item: int = -1
    digest: str = ""
    sse: float = 0.0
    energy: float = 0.0
    put_bytes: int = 0
    round: int = -1


def _client_ops(seed: int, client: int):
    """Endless seeded op sequence of one client: (kind, key index, item).

    Ops come in blocks of ``BLOCK`` (three puts, five gets, two decodes)
    in seeded order, so every round carries the same mix.
    """
    rng = inputs.rng_for(seed, f"cluster-ops-{client}")
    block = ["put"] * round(BLOCK * PUT_SHARE) + ["get"] * round(BLOCK * GET_SHARE)
    block += ["decode"] * (BLOCK - len(block))
    while True:
        for kind in rng.permutation(block):
            key = int(rng.integers(KEYS_PER_CLIENT))
            if kind == "put":
                yield "put", key, int(rng.integers(PUT_POOL))
            elif kind == "get":
                yield "get", key, 0
            else:
                yield "decode", key, int(rng.integers(DECODE_POOL))


def _drive(state: State, data: Inputs, sequences, check: Checker, stop_at: Optional[float],
           rounds: Optional[int], tracer: Optional[Tracer],
           speed: Optional[HostSpeed] = None) -> Tuple[List[Result], List[float]]:
    """Run lockstep rounds until ``stop_at`` or ``rounds``.

    In a round each client issues one block of ``BLOCK`` ops, one after
    another; the round ends when both clients have finished theirs.
    Every round therefore carries the same mix and amount of work.
    Between rounds, while both clients wait, ``speed`` probes the host
    (outside the round durations).
    Returns the results (tagged with their round) and the round
    durations.
    """
    router = state.router
    lock = threading.Lock()
    collected: List[List[Result]] = [[] for _ in range(CLIENTS)]
    starts, ends = [time.perf_counter()], []  # of each round
    stop = [False]
    errors: List[BaseException] = []

    def end_round() -> None:  # runs once per round, while both clients wait
        now = time.perf_counter()
        ends.append(now)
        stop[0] = ((rounds is not None and len(ends) >= rounds)
                   or (stop_at is not None and now >= stop_at))
        if speed is not None:
            speed.sample()
        starts.append(time.perf_counter())

    barrier = threading.Barrier(CLIENTS, action=end_round)

    def call(client: int, kind: str, key: str, item: int):
        if kind == "put":
            return router.put(data.put_blobs[client][item], key)
        if kind == "get":
            return router.get(key)
        return router.decode(data.decode_blobs[item], f"t{item:03d}")

    def client_loop(client: int) -> None:
        out = collected[client]
        sequence = sequences[client]
        try:
            while not stop[0]:
                for _ in range(BLOCK):
                    kind, key_index, item = next(sequence)
                    key = _key(client, key_index)
                    t0 = time.perf_counter()
                    if tracer is not None:
                        with tracer.span(f"op.{kind}"):
                            response = call(client, kind, key, item)
                    else:
                        response = call(client, kind, key, item)
                    result = _result(state, data, client, kind, key, item,
                                     time.perf_counter() - t0, response, check, lock)
                    result.round = len(ends)
                    out.append(result)
                barrier.wait()
        except threading.BrokenBarrierError:
            pass  # the other client failed; its error is reported
        except BaseException as exc:
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=client_loop, args=(c,), name=f"store-client-{c}")
               for c in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [r for per in collected for r in per], [b - a for a, b in zip(starts, ends)]


def _result(state, data, client, kind, key, item, latency, response, check, lock) -> Result:
    if kind == "put":
        blob = data.put_blobs[client][item]
        mb = data.put_tensors[client][item].nbytes / MB
        with lock:
            if response.ok:
                state.acceptable[key] = [blob]
            else:
                state.acceptable[key].append(blob)
        return Result(kind, latency, bool(response.ok), mb, item=item,
                      put_bytes=len(blob) if response.ok else 0)
    if kind == "get":
        with lock:
            allowed = list(state.acceptable[key])
        if response.ok:
            check.expect(
                any(response.value == blob for blob in allowed),
                f"cluster get {key}: not the last acknowledged value",
            )
        return Result(kind, latency, bool(response.ok), 0.0)
    result = Result(kind, latency, bool(response.ok), data.decode_tensors[item].nbytes / MB,
                    degraded=bool(response.degraded), rung=response.rung, item=item)
    if response.ok:
        result.digest = array_digest(response.value)
        result.sse, result.energy = squared_error(data.decode_tensors[item], response.value)
    return result


def _store_bytes(root: str) -> int:
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(directory, name))
            except OSError:
                pass
    return total


def _ops(results: List[Result], speed: float) -> List[Op]:
    return [
        Op(r.kind, speed * r.latency_s, r.ok and not r.degraded, r.mb,
           r.ok and not r.degraded and r.latency_s <= LIMIT_S)
        for r in results
    ]


def _median_mb_s(ops: List[Op]) -> float:
    """fp32 MB/s of the median ok op.  A sum of latencies would follow
    the few ops that waited longest for the interpreter lock."""
    return quantile([op.mb / op.latency_s for op in ops if op.ok and op.latency_s > 0], 0.5)


def _end_to_end(data: Inputs, results: List[Result], durations: List[float],
                speed: float) -> Dict[str, float]:
    """Timings from the fastest quarter of the rounds; counts, quality
    and the tail diagnostics from every op.  Times are scaled by the
    host ``speed`` factor."""
    fast = set(fastest(durations, FAST_SHARE))
    timed = _ops([r for r in results if r.round in fast], speed)
    ops = _ops(results, speed)
    puts = [op for op in timed if op.kind == "put"]
    gets = [op for op in timed if op.kind == "get"]
    decoded = [r for r in results if r.kind == "decode" and r.ok]
    energy = sum(r.energy for r in decoded)
    stored = [r for r in results if r.kind == "put" and r.ok]
    return {
        "encode_mb_s": _median_mb_s(puts),
        "decode_mb_s": _median_mb_s([op for op in timed if op.kind == "decode"]),
        "p50_ms": ms_quantile(timed, 0.5),
        "put_p50_ms": ms_quantile(puts, 0.5),
        "get_p50_ms": ms_quantile(gets, 0.5),
        "ops_s": sum(1 for op in timed if op.ok) / (speed * sum(durations[i] for i in fast)),
        "p99_ms": ms_quantile(ops, 0.99),
        "put_p99_ms": ms_quantile([op for op in ops if op.kind == "put"], 0.99),
        "get_p99_ms": ms_quantile([op for op in ops if op.kind == "get"], 0.99),
        "goodput_rps": sum(1 for op in ops if op.good) / (speed * sum(durations)),
        "ok_share": ok_share(ops),
        "nmse": sum(r.sse for r in decoded) / energy if energy else 0.0,
        "bits_per_value": _stored_bpv(stored),
    }


def _stored_bpv(stored: List[Result]) -> float:
    """Bits per fp32 value of the blobs acknowledged by puts."""
    bits = sum(8 * r.put_bytes for r in stored)
    values = sum(r.mb * MB / 4 for r in stored)
    return bits / values if values else 0.0


def _verify(data: Inputs, results: List[Result], workdir: str, check: Checker) -> None:
    decodes: Dict[str, Set[str]] = {}
    for r in results:
        if r.kind == "decode" and r.ok:
            check.expect(not r.degraded, f"cluster decode {r.item}: degraded on a clean blob")
            observe(decodes, f"d{r.item}", r.digest)
    jobs = ReferenceJobs(os.path.join(workdir, "reference"))
    for job_id in sorted(decodes):
        item = int(job_id[1:])
        jobs.decode(job_id, data.decode_blobs[item], tile=32)
    check.digests(decodes, jobs.run(), "cluster decode")


def run(state: State, data: Inputs, seconds: float, trace: bool, workdir: str) -> Outcome:
    check = Checker()
    sequences = [_client_ops(data.seed, c) for c in range(CLIENTS)]
    record: Dict[str, object] = {}
    speed = HostSpeed()
    if not trace:
        results, durations = _drive(state, data, sequences, check,
                                    time.perf_counter() + seconds, None, None, speed)
        metrics = _end_to_end(data, results, durations, speed.factor)
        record["rounds"] = len(durations)
        measured = results
        all_results = results
    else:
        with Segment() as untraced:
            plain, durations = _drive(state, data, sequences, check, None, TRACE_ROUNDS, None,
                                      speed)
        tracer = Tracer()
        inst = Instrumentation(tracer)
        before = state.router.stats()["router"]
        disk_before = _store_bytes(state.root)
        inst.install()
        try:
            with Segment() as traced:
                traced_results, _ = _drive(state, data, sequences, check, None, TRACE_ROUNDS,
                                           tracer)
        finally:
            inst.uninstall()
        after = state.router.stats()["router"]
        record["instrumentation_missing"] = inst.missing
        user_bytes = sum(r.put_bytes for r in traced_results)
        metrics = layer_metrics(inst, user_bytes, _store_bytes(state.root) - disk_before)
        hedges = after["hedges"] - before["hedges"]
        decodes = [r for r in traced_results if r.kind == "decode"]
        placed = [r for r in decodes if r.rung]
        top = state.router.shard(state.router.shard_ids[0]).service.ladder.rungs[0].name
        metrics.update({
            "router.hedges_per_decode": hedges / len(decodes) if decodes else 0.0,
            "router.hedge_win_share": (
                (after["hedge_wins"] - before["hedge_wins"]) / hedges if hedges else 0.0
            ),
            "ladder.downshift_share": (
                sum(1 for r in placed if r.rung != top) / len(placed) if placed else 0.0
            ),
            "proc.cpu_util": untraced.cpu_util,
            "trace.overhead": traced.wall_s / untraced.wall_s - 1.0,
        })
        tails = _end_to_end(data, plain, durations, speed.factor)
        metrics.update({name: tails[name] for name in UNTRACED_DIAGNOSTICS})
        measured = plain
        all_results = plain + traced_results
    record["host_speed"] = speed.factor
    _verify(data, all_results, workdir, check)
    return Outcome(
        metrics=metrics,
        attempted=len(measured),
        failed=sum(1 for r in measured if not r.ok or r.degraded),
        mismatches=check.mismatches,
        mismatch_count=check.count,
        record=record,
    )
