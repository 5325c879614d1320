"""Output verification: digests, reference jobs and the comparisons.

Reference outputs come from a separate process running the program's
pure-Python paths (``LLM265_PURE_PYTHON=1``, ``decode="legacy"``,
``encode="python"``), so a fast path that drifts from the reference is
caught.  Everything here runs outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
from typing import Dict, List, Mapping, Set

import numpy as np

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def array_digest(array: np.ndarray) -> str:
    """Digest of an array's dtype, shape and exact bytes."""
    array = np.ascontiguousarray(array)
    h = hashlib.sha256()
    h.update(f"{array.dtype.str}{array.shape}".encode())
    h.update(array.tobytes())
    return h.hexdigest()


def bytes_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Collects mismatches (from any thread); a run with any is not correct."""

    def __init__(self, limit: int = 20) -> None:
        self.mismatches: List[str] = []
        self.count = 0
        self._limit = limit
        self._lock = threading.Lock()

    def fail(self, message: str) -> None:
        with self._lock:
            self.count += 1
            if len(self.mismatches) < self._limit:
                self.mismatches.append(message)

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)

    def digests(
        self,
        observed: Mapping[str, Set[str]],
        reference: Mapping[str, str],
        what: str,
    ) -> None:
        """Every digest observed for a job must equal the reference's."""
        for job_id, seen in observed.items():
            want = reference.get(job_id)
            if want is None:
                self.fail(f"{what} {job_id}: no reference output")
                continue
            for digest in seen:
                if digest != want:
                    self.fail(f"{what} {job_id}: output differs from reference")

    @property
    def ok(self) -> bool:
        return self.count == 0


class ReferenceJobs:
    """Reference encode/decode jobs, written to a directory for the
    reference process (plain ``.npy``/``.bin`` files and one JSON index)."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.jobs: List[dict] = []

    def decode(self, job_id: str, blob: bytes, tile: int) -> None:
        path = os.path.join(self.directory, f"{len(self.jobs)}.bin")
        with open(path, "wb") as handle:
            handle.write(blob)
        self.jobs.append({"id": job_id, "kind": "decode", "blob": path, "tile": tile})

    def encode(
        self, job_id: str, tensor: np.ndarray, tile: int, qp: float, rd_search: str
    ) -> None:
        path = os.path.join(self.directory, f"{len(self.jobs)}.npy")
        np.save(path, tensor, allow_pickle=False)
        self.jobs.append({
            "id": job_id, "kind": "encode", "tensor": path, "tile": tile,
            "qp": qp, "rd_search": rd_search,
        })

    def run(self, timeout_s: float = 120.0) -> Dict[str, str]:
        """Run every job in the pure-Python reference process; ``{id: digest}``."""
        index = os.path.join(self.directory, "jobs.json")
        out = os.path.join(self.directory, "results.json")
        with open(index, "w") as handle:
            json.dump(self.jobs, handle)
        child_env = dict(os.environ)
        child_env["LLM265_PURE_PYTHON"] = "1"
        child_env["PYTHONPATH"] = os.pathsep.join((os.path.join(_ROOT, "src"), _ROOT))
        subprocess.run(
            [sys.executable, "-m", "perfbench.reference", index, out],
            env=child_env, check=True, timeout=timeout_s,
        )
        with open(out) as handle:
            return json.load(handle)


def observe(table: Dict[str, Set[str]], job_id: str, digest: str) -> None:
    table.setdefault(job_id, set()).add(digest)

