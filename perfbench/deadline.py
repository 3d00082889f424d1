"""Per-operation deadline inside the single benchmark process.

A real-time interval timer (``signal.setitimer``) interrupts an operation
that overruns; the overrun is reported as a failed operation and the
closed loop goes on with the next input.
"""

from __future__ import annotations

import signal
import time

OK, DEADLINE, ERROR = "ok", "deadline", "error"


class DeadlineExceeded(BaseException):
    """Raised inside the running operation when its deadline passes.

    A BaseException, so that ``except Exception`` in the code under test
    cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


class OpTimer:
    """Times one operation at a time, each under the same deadline.

    Use as a context manager: it installs the alarm handler on entry and
    restores the previous one on exit.
    """

    def __init__(self, limit_s: float):
        self.limit_s = limit_s
        self._previous = None

    def __enter__(self) -> "OpTimer":
        self._previous = signal.signal(signal.SIGALRM, _on_alarm)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def run(self, fn, *args):
        """(outcome, result, seconds); outcome is OK, DEADLINE or ERROR, and
        on ERROR the result is the exception raised."""
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.limit_s)
        try:
            result = fn(*args)
            outcome = OK
        except DeadlineExceeded:
            result, outcome = None, DEADLINE
        except Exception as exc:  # the operation failed; the loop goes on
            result, outcome = exc, ERROR
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return outcome, result, time.perf_counter() - start
