import os
import signal
import threading

import pytest

from kglm import workers


def test_first_runs_on_the_pool_thread_second_on_the_caller():
    names = workers.run_pair(lambda: threading.current_thread().name, lambda: threading.current_thread().name)
    assert names[0].startswith("kglm-worker") and names[1] == threading.current_thread().name


def test_halves_cover_the_rows_first_half_takes_the_odd_row():
    assert workers.split_rows(lambda rows: (rows.start, rows.stop), 3, 10) == ((3, 7), (7, 10))
    assert workers.split_rows(lambda rows: (rows.start, rows.stop), 5, 6) == ((5, 6), (6, 6))


def test_both_finish_before_an_error_is_raised():
    done = threading.Event()

    def slow():
        done.wait(0.2)
        done.set()

    def fail():
        raise KeyError("second")

    with pytest.raises(KeyError, match="second"):
        workers.run_pair(slow, fail)
    assert done.is_set()


def test_worker_may_not_submit_to_the_pool():
    # the pool's one thread would wait on itself
    with pytest.raises(RuntimeError, match="from a worker"):
        workers.run_pair(lambda: workers.run_pair(int, int), int)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_gets_a_pool_thread_of_its_own():
    workers.run_pair(int, int)  # the parent's pool thread is running
    pid = os.fork()
    if pid == 0:
        signal.alarm(20)  # a child without a pool thread would wait forever
        code = 1
        try:
            code = 0 if workers.run_pair(lambda: 1, lambda: 2) == (1, 2) else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
