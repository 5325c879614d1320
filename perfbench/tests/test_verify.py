import numpy as np
import pytest

from perfbench.verify import Checker, ReferenceJobs, array_digest, bytes_digest, observe


def test_array_digest_sees_dtype_shape_and_bits():
    a = np.arange(12, dtype=np.float32).reshape(3, 4)
    assert array_digest(a) == array_digest(a.copy())
    assert array_digest(a) != array_digest(a.reshape(4, 3))
    assert array_digest(a) != array_digest(a.astype(np.float64))
    b = a.copy()
    b.view(np.uint32)[0, 0] ^= 1  # one flipped mantissa bit
    assert array_digest(a) != array_digest(b)


def test_checker_flags_any_differing_output():
    check = Checker()
    observed = {}
    observe(observed, "d1", "aa")
    observe(observed, "d2", "bb")
    observe(observed, "d2", "cc")  # a second, different output for d2
    check.digests(observed, {"d1": "aa", "d2": "bb"}, "decode")
    assert not check.ok and check.count == 1
    check.digests({"d3": {"x"}}, {}, "decode")  # no reference at all
    assert check.count == 2


def test_checker_keeps_count_past_its_message_limit():
    check = Checker(limit=2)
    for i in range(5):
        check.expect(False, f"m{i}")
    check.expect(True, "fine")
    assert check.count == 5 and check.mismatches == ["m0", "m1"]


def test_reference_process_matches_fast_path_and_catches_a_wrong_answer(tmp_path):
    from repro.tensor.codec import CompressedTensor, TensorCodec

    tensor = np.random.default_rng(1).normal(size=(16, 32)).astype(np.float32)
    codec = TensorCodec(tile=32, rd_search="turbo")
    compressed = codec.encode(tensor, qp=26.0)
    blob = compressed.to_bytes()
    jobs = ReferenceJobs(str(tmp_path))
    jobs.decode("d0", blob, tile=32)
    jobs.encode("e0/turbo", tensor, tile=32, qp=26.0, rd_search="turbo")
    reference = jobs.run()
    restored = codec.decode(CompressedTensor.from_bytes(blob))

    check = Checker()
    check.digests({"d0": {array_digest(restored)}}, reference, "decode")
    check.digests({"e0/turbo": {bytes_digest(blob)}}, reference, "encode")
    assert check.ok, check.mismatches

    wrong = restored.copy()
    wrong[0, 0] += 1e-3
    check.digests({"d0": {array_digest(wrong)}}, reference, "decode")
    assert check.count == 1


@pytest.mark.parametrize("value,ok", [(b"new", True), (b"old", False)])
def test_cluster_get_accepts_only_the_last_acknowledged_value(value, ok):
    from perfbench import cluster

    class Response:
        def __init__(self, value):
            self.ok, self.value = True, value

    class State:
        acceptable = {"c0-k000": [b"old"]}

    import threading

    state, check, lock = State(), Checker(), threading.Lock()
    data = type("D", (), {"put_blobs": [[b"new"]], "put_tensors": [[np.zeros(4, np.float32)]]})
    cluster._result(state, data, 0, "put", "c0-k000", 0, 0.001, Response(None), check, lock)
    cluster._result(state, data, 0, "get", "c0-k000", 0, 0.001, Response(value), check, lock)
    assert check.ok is ok
