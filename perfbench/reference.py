"""Reference process: pure-Python encode/decode of the verification jobs.

Usage: ``LLM265_PURE_PYTHON=1 python3 -m perfbench.reference jobs.json results.json``.
Exits 3 if any native kernel is active, so a reference can never be
produced by the code it is meant to check.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from perfbench.verify import array_digest, bytes_digest


def main(argv) -> int:
    index, out = argv[1], argv[2]
    from repro.codec.entropy import native
    from repro.tensor.codec import CompressedTensor, TensorCodec

    status = native.kernel_status()
    if any(state != "pure-python" for state in status.values()):
        print(f"reference: native kernels active: {status}", file=sys.stderr)
        return 3
    with open(index) as handle:
        jobs = json.load(handle)
    codecs = {}
    results = {}
    for job in jobs:
        if job["kind"] == "decode":
            key = ("decode", job["tile"])
            if key not in codecs:
                codecs[key] = TensorCodec(tile=job["tile"], decode="legacy", encode="python")
            with open(job["blob"], "rb") as handle:
                blob = handle.read()
            restored = codecs[key].decode(CompressedTensor.from_bytes(blob))
            results[job["id"]] = array_digest(restored)
        else:
            key = ("encode", job["tile"], job["rd_search"])
            if key not in codecs:
                codecs[key] = TensorCodec(
                    tile=job["tile"], rd_search=job["rd_search"], encode="python"
                )
            tensor = np.load(job["tensor"], allow_pickle=False)
            blob = codecs[key].encode(tensor, qp=job["qp"]).to_bytes()
            results[job["id"]] = bytes_digest(blob)
    with open(out, "w") as handle:
        json.dump(results, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
