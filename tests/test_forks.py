import multiprocessing
import os
import re
import signal
import subprocess
import sys

import numpy as np
import pytest

import rydmis.forks as forks
from rydmis import RydmisError

CHILD = re.compile(r"child process, peak RSS [0-9.]+ MiB")


def _in_child() -> bool:
    return multiprocessing.parent_process() is not None


def _held_until(ready):
    """A job 0 that holds this process until another job sets ``ready``."""
    def job():
        assert ready.wait(60), "no job set the event"
        return _in_child()
    return job


def _setting(ready, then=_in_child):
    def job():
        ready.set()
        return then()
    return job


@pytest.fixture
def forked(monkeypatch):
    monkeypatch.setattr(forks, "_may_fork", lambda: True)
    yield
    assert multiprocessing.active_children() == []


def test_results_come_back_in_job_order_and_the_same_forked_or_serial(monkeypatch):
    def job(seed):
        a = np.random.default_rng(seed).standard_normal((40, 40))
        return np.linalg.eigvalsh(a + a.T)

    jobs = [lambda seed=seed: job(seed) for seed in range(7)]
    results = {}
    for fork in (False, True):
        monkeypatch.setattr(forks, "_may_fork", lambda: fork)
        results[fork] = forks.share(jobs)
        assert multiprocessing.active_children() == []
    assert [where for _, where in results[False]] == ["this process"] * len(jobs)
    assert results[True][0][1] == "this process" and CHILD.fullmatch(results[True][1][1])
    for seed, ((serial, _), (forked, _)) in enumerate(zip(results[False], results[True])):
        assert np.array_equal(serial, job(seed))
        assert np.array_equal(serial, forked)


def test_the_child_takes_more_jobs_while_job_0_holds_this_process(forked):
    ready = multiprocessing.get_context("fork").Event()
    jobs = [_held_until(ready), _in_child, _in_child, _setting(ready)]
    results = forks.share(jobs)
    assert results[0] == (False, "this process")
    for in_child, where in results[1:]:
        assert in_child and CHILD.fullmatch(where)


def test_every_job_runs_once_in_one_of_the_two_processes(forked):
    runs = forks.shared((500,))

    def job(k):
        runs[k] += 1
        return k

    results = forks.share([lambda k=k: job(k) for k in range(runs.size)])
    assert [k for k, _ in results] == list(range(runs.size))
    assert np.array_equal(runs, np.ones(runs.size))
    assert {where.split(",")[0] for _, where in results} == {"this process", "child process"}


def test_a_job_that_raises_in_the_child_after_its_first_reaches_the_caller(forked):
    ready = multiprocessing.get_context("fork").Event()

    def fail():
        raise ValueError(f"job 2 failed in the child: {_in_child()}")

    with pytest.raises(ValueError, match="job 2 failed in the child: True"):
        forks.share([_held_until(ready), _in_child, _setting(ready, fail)])


def test_a_child_that_exits_mid_list_raises(forked):
    ready = multiprocessing.get_context("fork").Event()

    def hung(signum, frame):
        raise TimeoutError("share still waits for a child that has exited")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(RydmisError, match="exited with code 3"):
            forks.share([_held_until(ready), _in_child, _setting(ready, lambda: os._exit(3)),
                         _in_child])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


_POLICY = """
import os, sys
if sys.argv[1] == "numpy first":
    import numpy
import rydmis.forks
print(os.environ.get("OPENBLAS_NUM_THREADS"), os.environ.get("OMP_NUM_THREADS"),
      rydmis.forks._may_fork())
"""


@pytest.mark.parametrize("case", ["default", "OMP_NUM_THREADS=2", "numpy first"])
def test_importing_rydmis_puts_blas_on_one_thread_unless_told_otherwise(case):
    # without the BLAS variables this process may have set when it imported rydmis
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    if case == "OMP_NUM_THREADS=2":
        env["OMP_NUM_THREADS"] = "2"
    out = subprocess.run([sys.executable, "-c", _POLICY, case], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    if case == "default":
        assert out == ["1", "None", str(len(os.sched_getaffinity(0)) >= 2)]
    else:
        assert out == ["None", "2" if case == "OMP_NUM_THREADS=2" else "None", "False"]
