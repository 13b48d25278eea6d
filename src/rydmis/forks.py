"""The package's one fork, ``beside``, and the one rule that decides it.

``beside(main, side)`` runs a side job in one child process, started
with the fork start method (so the caller's objects and their caches
are shared, not pickled), while this process runs the main job; the
child sends back the side job's result and its peak RSS, or its
exception.  It forks only where ``_may_fork`` says each process gets a
core of its own; elsewhere the side job runs after the main one in this
process.  The bits are the same either way.

Two users fork:

- ``dynamics.evolve_all`` (which ``evolve`` goes through) splits each
  drive's main run and convergence-check run between this process and
  the child;
- ``spectrum.scan_gap`` solves its odd-sample warm-start chain beside
  the even one.

A forked child's memory is not in this process's ``ru_maxrss``, and its
matvecs are not in this process's counter: ``beside`` reports the
child's peak RSS, and each side job counts its own matvecs.  A side job
may also write its results into arrays of ``shared``, which this process
then reads in place, instead of sending them back.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
import resource
from typing import Callable, TypeVar

import numpy as np

from .errors import RydmisError

A = TypeVar("A")
B = TypeVar("B")


def _may_fork() -> bool:
    """Whether ``beside`` forks its side job.

    Only where each process gets a core of its own: this process runs one
    thread, it is not itself a worker process (a caller that runs the
    package in worker processes of its own already fills the cores with
    them), and at least two CPUs are usable.  A multi-threaded BLAS
    starts its worker threads when it loads, so one thread also means
    BLAS on one thread: two processes whose BLAS waits on workers that
    the other keeps off the cores make the pair slower than running it
    serially.  With one thread at the fork, no lock can be held by a
    thread the child does not have, so the child cannot deadlock on one
    and leave this process waiting for its reply.
    """
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:  # no procfs: the thread count is unknown
        return False
    return (threads == 1 and multiprocessing.parent_process() is None
            and len(os.sched_getaffinity(0)) >= 2)


def _reply(conn, side: Callable[[], B]) -> None:
    """The forked child's work: sends side()'s result and ru_maxrss (KiB) on
    ``conn``, or the exception it raised."""
    try:
        reply = (side(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception as exc:  # the parent re-raises it
        reply = exc
    conn.send(reply)
    conn.close()


def beside(main: Callable[[], A], side: Callable[[], B]) -> tuple[A, B, str]:
    """main() in this process and side() beside it in a forked child, where
    ``_may_fork`` allows it; elsewhere side() after main() here.

    Returns both results and where side() ran: ``this process`` or
    ``child process, peak RSS X MiB``.  A child that exits without
    replying raises RydmisError; one whose side() raised has its
    exception re-raised here.  The child is always joined, and
    terminated first when main() raises.
    """
    if not _may_fork():
        return main(), side(), "this process"
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_reply, args=(send, side))
    child.start()
    send.close()  # the child's copy is then the only one: its exit gives EOFError
    try:
        result = main()
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
    side_result, rss_kib = reply
    return result, side_result, f"child process, peak RSS {rss_kib / 1024.0:.1f} MiB"


def shared(shape: tuple[int, ...]) -> np.ndarray:
    """A zero-filled float64 array in an anonymous shared mapping: what a
    forked side job of ``beside`` writes into it, this process reads."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=float).reshape(shape)
