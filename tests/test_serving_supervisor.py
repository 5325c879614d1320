"""Supervision tests: crash detection, hang detection, pool restart,
re-dispatch, and seeded backoff determinism."""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.parallel import BrokenPoolError, ParallelConfig, WorkerTimeoutError
from repro.resilience.deadline import Deadline, DeadlineExceeded
from repro.resilience.faults import RetryPolicy
import repro.serving.supervisor as supervisor_module
from repro.serving.supervisor import RetriesExhausted, Supervisor, WorkerCrashed

FAST_RETRY = RetryPolicy(max_retries=3, backoff_base_s=0.001)


def _sup(**kwargs):
    kwargs.setdefault("retry", FAST_RETRY)
    return Supervisor(**kwargs)


class FlakyWork:
    """Fails ``failures`` times, then succeeds."""

    def __init__(self, failures, exc=RuntimeError("transient")):
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def __call__(self, deadline):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return "done"


class TestRun:
    def test_success_first_try(self):
        result, attempts = _sup().run(lambda deadline: 42)
        assert (result, attempts) == (42, 1)

    def test_transient_failure_retried(self):
        work = FlakyWork(failures=2)
        result, attempts = _sup().run(work)
        assert result == "done"
        assert attempts == 3

    def test_simulated_crash_is_retryable(self):
        work = FlakyWork(failures=1, exc=WorkerCrashed("boom"))
        result, attempts = _sup().run(work)
        assert result == "done"
        assert attempts == 2

    def test_worker_crashed_is_broken_pool_error(self):
        # Simulated and real crashes must take the same recovery paths.
        assert issubclass(WorkerCrashed, BrokenPoolError)

    def test_persistent_failure_exhausts_retries(self):
        work = FlakyWork(failures=99)
        supervisor = _sup()
        with pytest.raises(RetriesExhausted) as err:
            supervisor.run(work)
        assert err.value.attempts == FAST_RETRY.max_retries + 1
        assert isinstance(err.value.last_error, RuntimeError)

    def test_non_retryable_propagates_immediately(self):
        work = FlakyWork(failures=99, exc=ValueError("bad input"))
        with pytest.raises(ValueError, match="bad input"):
            _sup().run(work)
        assert work.calls == 1

    def test_hang_detected_by_attempt_timeout(self):
        calls = []

        def hangs_once(deadline):
            calls.append(time.monotonic())
            if len(calls) == 1:
                time.sleep(1.0)  # the supervisor must not wait this long
            return "recovered"

        started = time.perf_counter()
        result, attempts = _sup().run(hangs_once, attempt_timeout_s=0.1)
        assert result == "recovered"
        assert attempts == 2
        assert time.perf_counter() - started < 1.0

    def test_abandoned_attempt_gets_expiring_child_deadline(self):
        seen = []

        def work(deadline):
            seen.append(deadline)
            if len(seen) == 1:
                time.sleep(0.3)
            return "ok"

        deadline = Deadline.after(10.0)
        _sup().run(work, attempt_timeout_s=0.1, deadline=deadline)
        # The abandoned first attempt held a child deadline that expired
        # with the attempt timeout, not the 10s request budget.
        assert seen[0].expired()
        assert not deadline.expired()

    def test_request_deadline_bounds_everything(self):
        def always_hangs(deadline):
            time.sleep(0.2)
            raise RuntimeError("never succeeds")

        with pytest.raises((DeadlineExceeded, RetriesExhausted)):
            _sup().run(
                always_hangs, attempt_timeout_s=0.05,
                deadline=Deadline.after(0.15),
            )

    def test_result_after_request_deadline_is_late(self, monkeypatch):
        # A waiter that wakes only once the work is done -- as when the
        # worker holds the GIL through the whole attempt -- receives a
        # finished future after the deadline has passed.  The
        # supervisor's clock must still call that a missed deadline.
        monkeypatch.setattr(supervisor_module, "effective_timeout",
                            lambda deadline, timeout_s: None)

        def sleeps_past_deadline(deadline):
            time.sleep(0.05)
            return "done"

        with pytest.raises(DeadlineExceeded):
            _sup().run(sleeps_past_deadline, attempt_timeout_s=1.0,
                       deadline=Deadline.after(0.01))

    def test_result_inside_request_deadline_is_returned(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "effective_timeout",
                            lambda deadline, timeout_s: None)
        result = _sup().run(lambda deadline: "done", attempt_timeout_s=1.0,
                            deadline=Deadline.after(10.0))
        assert result == ("done", 1)

    def test_backoff_schedule_is_seeded(self):
        def schedule(seed):
            sleeps = []
            supervisor = Supervisor(
                retry=FAST_RETRY, seed=seed, sleep=sleeps.append
            )
            with pytest.raises(RetriesExhausted):
                supervisor.run(FlakyWork(failures=99))
            return sleeps

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)


def _kill_while_flagged(args):
    """SIGKILL the worker for item 13 while the flag file exists.

    The flag path rides inside the item (not the environment) so the
    behaviour is identical whether the shared process pool was forked
    before or after the test started.
    """
    item, flag = args
    if item == 13 and flag and os.path.exists(flag):
        os.remove(flag)  # next dispatch round survives
        os.kill(os.getpid(), signal.SIGKILL)
    return item * item


class TestMap:
    def test_ordered_results(self):
        config = ParallelConfig(workers=2, executor="thread")
        result = _sup().map(lambda x: x + 1, range(20), config)
        assert result == list(range(1, 21))

    def test_real_worker_kill_restart_and_redispatch(self, tmp_path):
        flag = tmp_path / "kill-once"
        flag.write_text("armed")
        supervisor = _sup()
        config = ParallelConfig(workers=2, executor="process")
        items = [(x, str(flag)) for x in range(24)]
        result = supervisor.map(_kill_while_flagged, items, config, label="kill")
        assert result == [x * x for x in range(24)]
        assert supervisor.restarts >= 1
        assert not flag.exists()

    def test_hung_worker_redispatch(self):
        state = {"armed": True}

        def slow_once(item):
            if item == 3 and state.pop("armed", False):
                time.sleep(1.0)
            return -item

        supervisor = _sup()
        config = ParallelConfig(workers=2, executor="thread")
        started = time.perf_counter()
        result = supervisor.map(
            slow_once, range(8), config, label="hang", timeout_s=0.1
        )
        assert result == [-x for x in range(8)]
        assert time.perf_counter() - started < 5.0
        assert supervisor.timeouts >= 1

    def test_item_exception_propagates(self):
        def bad(item):
            if item == 2:
                raise ValueError("item 2 is cursed")
            return item

        config = ParallelConfig(workers=2, executor="thread")
        with pytest.raises(ValueError, match="cursed"):
            _sup().map(bad, range(6), config)

    def test_exhaustion_raises_typed_error(self):
        def always_slow(item):
            time.sleep(0.5)
            return item

        supervisor = Supervisor(retry=RetryPolicy(max_retries=1,
                                                  backoff_base_s=0.001))
        config = ParallelConfig(workers=2, executor="thread")
        with pytest.raises(RetriesExhausted) as err:
            supervisor.map(always_slow, range(4), config, timeout_s=0.05)
        assert isinstance(err.value.last_error, WorkerTimeoutError)
