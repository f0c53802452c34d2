"""Cooperative cancellation: deadlines and cancel tokens.

A statement cannot be interrupted pre-emptively — execution is ordinary
Python — so the executors *poll*: the row engine wraps every compiled
operator and checks between rows (strided, so the steady-state cost is
one integer decrement per row), the batch engine checks at every morsel
boundary, and the variable-length expand checks per walk step (its
frontier can grow combinatorially before the operator yields a single
row).  When a check fires, :class:`~repro.exceptions.QueryTimeout` or
:class:`~repro.exceptions.QueryCancelled` propagates; the executors
catch the interruption, roll the statement's write transaction back
atomically, and re-raise — an interrupted write is as if it never ran.

The checks are compiled into an armed read's pipeline, which is parked
and taken again like any other: each run re-arms the compiled object
with its own deadline and token (:meth:`Cancellation.arm`, which also
restarts the stride), and the release after it disarms it, so a parked
pipeline holds no token and an earlier run's deadline is never the one
checked.
"""

from __future__ import annotations

from time import monotonic

from repro.exceptions import QueryCancelled, QueryTimeout

#: Rows between two deadline reads on the row engine's strided checks.
#: 64 keeps worst-case overshoot small (sub-millisecond for any operator
#: that isn't itself stuck) while making the per-row cost negligible.
CHECK_STRIDE = 64


class CancelToken:
    """A caller-held handle that cancels a running statement."""

    __slots__ = ("_cancelled",)

    def __init__(self):
        self._cancelled = False

    def cancel(self):
        self._cancelled = True

    @property
    def cancelled(self):
        return self._cancelled


class Cancellation:
    """One statement's interruption state: deadline and/or token."""

    __slots__ = ("deadline", "token", "_countdown")

    def __init__(self, deadline=None, token=None):
        self.arm(deadline, token)

    def arm(self, deadline=None, token=None):
        """Bind to one statement (no arguments disarm); restart the stride."""
        self.deadline = deadline  # monotonic() timestamp or None
        self.token = token
        self._countdown = CHECK_STRIDE

    @classmethod
    def build(cls, timeout=None, deadline=None, token=None):
        """Combine run() arguments; None when nothing can interrupt.

        ``timeout`` is seconds from now; ``deadline`` an absolute
        :func:`time.monotonic` timestamp.  Both given: the earlier wins.
        """
        if timeout is not None:
            timed = monotonic() + timeout
            deadline = timed if deadline is None else min(deadline, timed)
        if deadline is None and token is None:
            return None
        return cls(deadline, token)

    def poll(self):
        """Raise if the deadline passed or the token fired (direct check)."""
        token = self.token
        if token is not None and token._cancelled:
            raise QueryCancelled("query cancelled")
        deadline = self.deadline
        if deadline is not None and monotonic() > deadline:
            raise QueryTimeout("query exceeded its time limit")

    def check(self):
        """Strided :meth:`poll` — amortised for per-row call sites."""
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = CHECK_STRIDE
            self.poll()
