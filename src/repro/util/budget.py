"""The machine-wide in-flight byte budget (paper, Section 4.4).

The paper copies one row block column at a time so a restart's footprint
stays at data + one copy window.  When several copies run at once — a
machine's leaves restarting together, a legacy replay fanned over a pool
— the combined in-flight bytes are capped by one :class:`FootprintBudget`
shared by all of them, so the machine's peak stays at

    data + budgeted in-flight copy windows + metadata

rather than growing by one window per concurrent copy.
"""

from __future__ import annotations

import threading


class FootprintBudget:
    """A byte budget shared by every copy in flight on one machine.

    ``acquire(n)`` blocks until ``n`` more in-flight bytes fit under the
    limit.  One special case keeps progress guaranteed: a request larger
    than the whole budget (a single table bigger than the cap) is
    admitted when nothing else is in flight — it runs alone, which is the
    tightest bound any scheduler could give it.  Without that rule a
    machine whose largest table exceeds the budget would deadlock.

    Admission is FIFO, by ticket.  ``release`` wakes every waiter, so
    without an ordering an oversized request (which needs the budget
    empty) could lose the race to freshly-arrived small requests forever
    — each small admission keeps the budget non-empty and the oversized
    waiter starves.  With tickets, once the oversized request is at the
    head of the line nothing can be admitted past it, so the budget
    drains and it runs.
    """

    def __init__(self, limit_bytes: int) -> None:
        if limit_bytes <= 0:
            raise ValueError(f"budget must be positive, got {limit_bytes}")
        self.limit_bytes = int(limit_bytes)
        self._cond = threading.Condition()
        self._in_flight = 0
        self._next_ticket = 0
        self._now_serving = 0
        self._abandoned: set[int] = set()
        self._peak = 0
        self.blocked_acquires = 0

    def _admissible(self, nbytes: int) -> bool:
        if self._in_flight + nbytes <= self.limit_bytes:
            return True
        # Oversized request: admit only into an empty budget.
        return self._in_flight == 0

    def _served(self, ticket: int, nbytes: int) -> bool:
        return self._now_serving == ticket and self._admissible(nbytes)

    def _advance(self) -> None:
        """Skip tickets whose holders gave up waiting (exception in wait)."""
        while self._now_serving in self._abandoned:
            self._abandoned.discard(self._now_serving)
            self._now_serving += 1

    def acquire(self, nbytes: int) -> None:
        """Block until ``nbytes`` of in-flight copy space is available
        and every earlier acquire has been admitted."""
        if nbytes < 0:
            raise ValueError(f"cannot acquire a negative size ({nbytes})")
        with self._cond:
            ticket = self._next_ticket
            self._next_ticket += 1
            if not self._served(ticket, nbytes):
                self.blocked_acquires += 1
                try:
                    while not self._served(ticket, nbytes):
                        self._cond.wait()
                except BaseException:
                    self._abandoned.add(ticket)
                    self._advance()
                    self._cond.notify_all()
                    raise
            self._now_serving = ticket + 1
            self._advance()
            self._in_flight += nbytes
            if self._in_flight > self._peak:
                self._peak = self._in_flight
            # The next ticket may be admissible right away (small request
            # behind a small admission); wake the line to check.
            self._cond.notify_all()

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the budget, waking blocked acquirers."""
        with self._cond:
            if nbytes < 0 or nbytes > self._in_flight:
                raise ValueError(
                    f"releasing {nbytes} bytes with {self._in_flight} in flight"
                )
            self._in_flight -= nbytes
            self._cond.notify_all()

    @property
    def in_flight(self) -> int:
        with self._cond:
            return self._in_flight

    @property
    def peak_in_flight(self) -> int:
        with self._cond:
            return self._peak

    def __repr__(self) -> str:
        with self._cond:
            return (
                f"FootprintBudget(limit={self.limit_bytes}, "
                f"in_flight={self._in_flight}, peak={self._peak})"
            )
