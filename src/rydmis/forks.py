"""Every fork of the package, and the one rule that decides it.

One rule, ``_may_fork``, decides every fork: this process runs one
thread, so BLAS runs on one, it is not a pool's worker, and two CPUs or
more are usable.  There ``beside`` runs a side job in one child process,
started with the fork start method (so the caller's objects and their
caches are shared, not pickled), while this process runs the main job;
the child sends back the side job's result and its peak RSS, or its
exception.  There ``pool_map`` also maps a function over a forked pool,
with at most one worker per usable CPU.  Elsewhere everything runs
serially in this process: a multi-threaded BLAS in two processes on the
same cores makes the pair slower than one process.  The bits are the
same either way.

Three users fork:

- ``dynamics.evolve`` makes its convergence check's run beside the main
  run;
- ``dynamics.evolve_all`` maps its drives over a pool, whose workers
  make their check runs in-process;
- ``spectrum.scan_gap`` solves its odd-sample warm-start chain beside
  the even one.

A forked child's memory is not in this process's ``ru_maxrss``, and its
matvecs are not in this process's counter: ``beside`` reports the
child's peak RSS, and each side job counts its own matvecs.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

from .errors import RydmisError

A = TypeVar("A")
B = TypeVar("B")


def _may_fork() -> bool:
    """Whether ``beside`` forks its side job and ``pool_map`` a pool.

    Only where each process gets a core of its own: this process runs one
    thread, it is not itself a worker process (a pool's workers already
    fill the cores), and at least two CPUs are usable.  A multi-threaded
    BLAS starts its worker threads when it loads, so one thread also
    means BLAS on one thread: two processes whose BLAS waits on workers
    that the other keeps off the cores make the pair slower than running
    it serially.  With one thread at the fork, no lock can be held by a
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
        result = main()
        return result, side(), "this process"
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


def pool_map(fn: Callable[[A], B], items: Sequence[A]) -> list[B]:
    """``[fn(x) for x in items]``, over a forked pool where ``_may_fork`` allows it
    and there are two items or more, with at most one worker per usable CPU.

    A worker that exits before it replies raises RydmisError.
    """
    if len(items) < 2 or not _may_fork():
        return [fn(x) for x in items]
    try:
        with ProcessPoolExecutor(min(len(items), len(os.sched_getaffinity(0))),
                                 multiprocessing.get_context("fork")) as pool:
            return list(pool.map(fn, items))
    except BrokenExecutor:
        raise RydmisError("a worker process exited before it replied") from None
