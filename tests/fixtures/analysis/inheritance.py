"""Inheritance fixture — a base owns the lock, subclasses share it.

``Driver`` creates the lock and calls ``_hook`` only while holding it,
so every override of ``_hook`` is lock-held code.  ``Source`` keeps the
discipline in its hook but reads the base's shared ``pending`` outside
the lock in ``peek`` (RL302) and sleeps in the lock-held hook (RL702).
``QuietSource`` overrides the hook cleanly: no findings.
"""

import threading
import time


class Driver:
    def __init__(self):
        self._lock = threading.RLock()
        self.pending = []

    def step(self, item):
        with self._lock:
            self.pending.append(item)
            self._hook()

    def _hook(self):
        pass


class Source(Driver):
    def _hook(self):
        self.pending.pop()  # runs under Driver._lock: clean
        time.sleep(0.01)  # RL702: blocking while the base's lock is held

    def peek(self):
        return len(self.pending)  # RL302: base-class shared state, no lock


class QuietSource(Driver):
    def _hook(self):
        if self.pending:
            self.pending.clear()
