"""Counts a later change may claim as counts must repeat exactly for a seed."""

import os
import shutil
import subprocess
import sys

from perfbench import ckpt, cluster

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _ckpt_trace(workdir, seed):
    matrices = ckpt.make_inputs(seed)[:2]
    codec = ckpt.setup(str(workdir), matrices)
    return ckpt.run(codec, matrices, 0.0, True, str(workdir))


def test_ckpt_counts_and_bytes_repeat(tmp_path):
    a = _ckpt_trace(tmp_path / "a", 7)
    b = _ckpt_trace(tmp_path / "b", 7)
    assert a.correct and b.correct, (a.mismatches, b.mismatches)
    exact = [k for k in a.metrics if k.endswith(".calls_per_mb")]
    exact.append("tensor.encoder_calls_per_tensor")
    assert {k: a.metrics[k] for k in exact} == {k: b.metrics[k] for k in exact}
    assert a.metrics["tensor.encoder_calls_per_tensor"] > 1  # rate control iterates
    for key in ("nmse", "bits_per_value", "encoded_bytes"):
        assert a.record[key] == b.record[key]


def _cluster_trace(workdir, seed, monkeypatch):
    monkeypatch.setattr(cluster, "TRACE_ROUNDS", 12)
    data = cluster.make_inputs(seed)
    state = cluster.setup(str(workdir), data)
    try:
        return cluster.run(state, data, 0.0, True, str(workdir))
    finally:
        cluster.teardown(state)


def test_cluster_store_counts_repeat(tmp_path, monkeypatch):
    a = _cluster_trace(tmp_path / "a", 3, monkeypatch)
    b = _cluster_trace(tmp_path / "b", 3, monkeypatch)
    assert a.correct and b.correct, (a.mismatches, b.mismatches)
    for key in ("store.fsyncs_per_put", "store.bytes_per_user_byte"):
        assert a.metrics[key] == b.metrics[key]
        assert a.metrics[key] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ckpt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
