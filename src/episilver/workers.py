"""One ordered map over worker processes, for ingest (a task per file),
which needs only the standard library. The workers are forked."""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

from .errors import ConfigError


def ordered_map(fn: Callable, tasks: Sequence, processes: int) -> Iterator:
    """``map(fn, tasks)``, computed by min(processes, len(tasks)) worker
    processes, yielding the results in task order as they come.

    A count below 1 raises ConfigError here, before anything runs. With
    one process or one task the work runs in this process, a task at a
    time, and no pool starts. Otherwise the pool starts at the first
    ``next()``, and it shuts down, its workers joined, when the iterator
    is exhausted, raises or is closed. Workers are forked, not started as
    fresh interpreters, so a caller needs no ``if __name__ == "__main__":``
    guard. A fork copies only the calling thread, so fn should need only
    the standard library when the parent may have started BLAS threads.
    fn, the tasks and the results must pickle, and an exception raised by
    fn reaches the caller as itself.
    """
    if processes < 1:
        raise ConfigError(f"threads must be >= 1, got {processes}")
    n = min(processes, len(tasks))
    if n <= 1:
        return map(fn, tasks)
    return _pooled_map(fn, tasks, n)


def _pooled_map(fn: Callable, tasks: Sequence, processes: int) -> Iterator:
    # Imported here, so that a run that starts no pool does not pay for them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        processes, mp_context=multiprocessing.get_context("fork"))
    try:
        yield from pool.map(fn, tasks)
    finally:
        pool.shutdown(cancel_futures=True)
