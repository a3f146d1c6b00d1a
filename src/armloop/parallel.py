"""Forked workers: a job cut into shares runs its first share in this
process and each later one in a forked worker, which pickles its result up
a pipe; results are all that the pipe carries.

`armloop run` sends its chunks of trials this way, and `armloop loop` its
candidates. A worker's ArmloopError reaches the caller with its code; a
worker that ends without sending its result is a WorkerError naming what it
held. Every worker is reaped when its `with Workers()` block ends, and each
leaves by os._exit, running nothing of the caller's.
"""

from __future__ import annotations

import os
import pickle
import sys

from .errors import ArmloopError, WorkerError


def cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


class Workers:
    """The forked workers of one job, in the order of their shares."""

    def __init__(self):
        self._forked: list = []  # (pid, read end, what the worker holds)

    def __enter__(self) -> "Workers":
        return self

    def __exit__(self, *_) -> None:
        for _, pipe, _ in self._forked:
            pipe.close()
        for pid, _, _ in self._forked:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass  # reaped by results()

    def fork(self, holds: str, work) -> None:
        """Start a worker that pickles (error, what work() gives) up its
        pipe; `holds` names its part of the job. The worker closes the read
        ends of the earlier workers, so that none of them waits on a reader
        that is gone."""
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                for _, pipe, _ in self._forked:
                    pipe.close()
                try:
                    sent = None, work()
                except ArmloopError as exc:  # sent as its (code, message), with no result
                    sent = (exc.code, str(exc)), None
                with open(write_fd, "wb") as pipe:
                    pickle.dump(sent, pipe, pickle.HIGHEST_PROTOCOL)
                status = 0
            except BrokenPipeError:
                pass  # the parent stopped reading: it has an error of its own to report
            except Exception:
                sys.excepthook(*sys.exc_info())
            finally:
                os._exit(status)
        os.close(write_fd)
        self._forked.append((pid, open(read_fd, "rb"), holds))

    def results(self):
        """Each worker's result in fork order. A worker's ArmloopError is
        re-raised with its code, and its exit without a result is a
        WorkerError naming what it held."""
        for pid, pipe, holds in self._forked:
            try:
                error, result = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise WorkerError(f"{holds}: their worker process exited with status {status} "
                                  "before sending them") from None
            if error is not None:
                raise WorkerError(error[1], code=error[0])
            yield result
