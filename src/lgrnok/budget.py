"""The time budget: one Deadline per run, armed by `arm`, which every long
loop looks up through `armed` when it starts and polls.

It sits apart from the polytope engine so that the lattice-path walk can
poll it without importing the engine.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from contextlib import contextmanager


class TimeBudgetExceeded(RuntimeError):
    pass


# Steps of a long loop (index sets, antichains, order ideals) between two
# polls of a Deadline.
POLL_EVERY = 1024


class Deadline:
    """A time budget that starts when it is made; with no seconds it never
    expires."""

    def __init__(self, seconds: float | None = None):
        self.expires = None if seconds is None else time.monotonic() + seconds
        self.steps = 0

    def check(self):
        if self.expires is not None and time.monotonic() > self.expires:
            raise TimeBudgetExceeded("computation exceeded its time budget")

    def tick(self):
        """One step of a long loop: the deadline is polled at the first
        step and then every POLL_EVERY steps, counted over all the loops
        that tick it."""
        if not self.steps % POLL_EVERY:
            self.check()
        self.steps += 1


_armed = Deadline()


def armed() -> Deadline:
    """The deadline `arm` set for the run, or one that never expires."""
    return _armed


@contextmanager
def arm(limit: Deadline) -> Iterator[Deadline]:
    """Arms `limit` in the with block, then restores the deadline before it."""
    global _armed
    previous, _armed = _armed, limit
    try:
        yield limit
    finally:
        _armed = previous


def polled(items: Iterable) -> Iterator:
    """The items, with the armed deadline polled before the first and then
    every POLL_EVERY items."""
    check = armed().check
    for count, item in enumerate(items):
        if not count % POLL_EVERY:
            check()
        yield item
