"""Keep every process the benchmark starts inside the run's lifetime.

The program starts processes the benchmark does not own directly: the
pool workers it forks, and the ``multiprocessing`` resource tracker
that any shared-memory segment created in this process launches and
never waits for.  A run must end with all of them gone:

* :func:`stop_resource_tracker` closes the tracker's pipe and waits
  for it to exit, so it does not outlive the run;
* :func:`guard_children` turns SIGTERM into a normal exit, so every
  ``finally`` (pool close, server stop) still runs, and makes each
  forked child die with its parent should the run be killed outright.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
import signal
import sys

_PR_SET_PDEATHSIG = 1
_LIBC = None


def _load_libc() -> None:
    global _LIBC
    if _LIBC is None and sys.platform.startswith("linux"):
        try:
            _LIBC = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6")
        except OSError:
            pass


def die_with_parent() -> None:
    """Ask the kernel to SIGKILL this process when the thread that
    started it exits (Linux only; a no-op elsewhere).  Usable as a
    ``preexec_fn``: libc is loaded before any fork, by
    :func:`guard_children`."""
    if _LIBC is not None:
        _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)


def _exit_on_signal(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


_FORKING_PID = 0


def _block_sigterm() -> None:
    global _FORKING_PID
    _FORKING_PID = os.getpid()
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})


def _unblock_sigterm() -> None:
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})


def _after_fork_in_child() -> None:
    # A forked worker gets the default SIGTERM back (its pool stops it
    # with terminate()) before a SIGTERM held over the fork is let in,
    # and dies with the benchmark.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    die_with_parent()
    if os.getppid() != _FORKING_PID:  # the parent died before prctl
        os.kill(os.getpid(), signal.SIGKILL)
    _unblock_sigterm()


def guard_children() -> None:
    """Clean up on SIGTERM and tie every forked child to this process."""
    _load_libc()
    signal.signal(signal.SIGTERM, _exit_on_signal)
    os.register_at_fork(
        before=_block_sigterm,
        after_in_parent=_unblock_sigterm,
        after_in_child=_after_fork_in_child,
    )


def stop_resource_tracker() -> int | None:
    """Stop the ``multiprocessing`` resource tracker if this process
    started one, and wait for it to exit.  Returns its pid, or ``None``
    if none was running.  Call it once no forked worker (which shares
    the tracker's pipe) is alive, else the wait lasts until they end."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    if pid is None or tracker._fd is None:
        return None
    # Closing the tracker's end of its pipe is what makes it exit.
    os.close(tracker._fd)
    tracker._fd = None
    os.waitpid(pid, 0)
    tracker._pid = None
    return pid
