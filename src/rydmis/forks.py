"""The package's one fork, ``share``, and the one rule that decides it.

``share(jobs)`` runs independent jobs in two processes: this one starts
job 0 and a child forked from it (so the caller's objects and caches are
shared, not pickled) job 1, and each then takes the next unstarted job
from a counter the two share.  The child sends back its results and
peak RSS, or the exception a job raised.  Where ``_may_fork`` says no,
every job runs here in order; the bits are the same either way.
``dynamics.evolve_all`` passes every main run, then every check run (so
one drive's check run goes to the child), and ``spectrum.scan_gap`` its
even and odd sample chains (the odd one goes to the child).

``rydmis/__init__.py`` puts BLAS on one thread before numpy loads, so
the rule says yes in every CLI run; a library caller that imports numpy
first, or sets a BLAS thread count above one, forks nothing.  Each job
counts its own matvecs, since a child's are not in this process's
counter.  A job may write into ``shared`` arrays instead of replying.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
import resource
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import RydmisError

R = TypeVar("R")


def _may_fork() -> bool:
    """Whether ``share`` forks: only where each process gets a core of its own.

    That needs one thread in this process: a multi-threaded BLAS starts
    its workers when it loads, and two processes whose BLAS waits on
    workers the other keeps off the cores run slower than one.  One
    thread also means no lock is held by a thread the child lacks.  This
    process must not be a worker itself, and two CPUs must be usable.
    """
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:  # no procfs: the thread count is unknown
        return False
    return (threads == 1 and multiprocessing.parent_process() is None
            and len(os.sched_getaffinity(0)) >= 2)


def _run_from(first: int, jobs: Sequence[Callable[[], R]], taken) -> dict[int, R]:
    """{k: jobs[k]()} for k = first, then each k the shared counter hands out."""
    done, k = {}, first
    while k < len(jobs):
        done[k] = jobs[k]()
        with taken.get_lock():
            k = taken.value
            taken.value += 1
    return done


def _reply(conn, jobs: Sequence[Callable[[], R]], taken) -> None:
    """The child's work: sends {job: result} and ru_maxrss (KiB), or an exception."""
    try:
        reply = (_run_from(1, jobs, taken), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception as exc:  # the parent re-raises it
        reply = exc
    conn.send(reply)
    conn.close()


def share(jobs: Sequence[Callable[[], R]]) -> list[tuple[R, str]]:
    """Each job's result and where it ran (``this process`` or ``child
    process, peak RSS X MiB``), in job order.

    A child that exits without replying raises RydmisError, and a job's
    exception in the child is re-raised here.  The child is always
    joined, and terminated first when a job here raises.
    """
    if len(jobs) < 2 or not _may_fork():
        return [(job(), "this process") for job in jobs]
    ctx = multiprocessing.get_context("fork")
    taken = ctx.Value("l", 2)  # the next unstarted job
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_reply, args=(send, jobs, taken))
    child.start()
    send.close()  # the child's copy is then the only one: its exit gives EOFError
    try:
        here = _run_from(0, jobs, taken)
        reply = recv.recv()
    except EOFError:
        child.join()
        raise RydmisError(f"a forked process exited with code {child.exitcode} "
                          "before it replied") from None
    except BaseException:
        child.terminate()
        raise
    finally:
        child.join()
        child.close()
        recv.close()
    if isinstance(reply, BaseException):
        raise reply
    there, rss_kib = reply
    where = f"child process, peak RSS {rss_kib / 1024.0:.1f} MiB"
    return [(here[k], "this process") if k in here else (there[k], where)
            for k in range(len(jobs))]


def shared(shape: tuple[int, ...]) -> np.ndarray:
    """A zero-filled float64 array in an anonymous shared mapping: what a
    forked job of ``share`` writes into it, this process reads."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=float).reshape(shape)
