"""The time budget: a Deadline armed once per run and polled by every long
loop, which raises TimeBudgetExceeded once it has expired.

It sits apart from the polytope engine so that the lattice-path walk can
poll it without importing the engine.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator
from functools import wraps


class TimeBudgetExceeded(RuntimeError):
    pass


# Steps of a long loop (index sets, antichains, order ideals) between two
# polls of a Deadline.
POLL_EVERY = 1024


class Deadline:
    """A time budget armed once, when it is made, and polled by the engine;
    with no seconds it never expires."""

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


def polled(items: Iterable, deadline: Deadline) -> Iterator:
    """The items, with the deadline polled before the first and then every
    POLL_EVERY items."""
    for count, item in enumerate(items):
        if not count % POLL_EVERY:
            deadline.check()
        yield item


def cached_per_n(build: Callable) -> Callable:
    """functools.cache for a table build(n, deadline) that polls the
    deadline: the result is kept per n alone, so every caller shares it
    whichever deadline built it, and a build that ran out of budget keeps
    nothing.  `cache_clear` empties it, as for functools.cache."""
    built: dict = {}

    @wraps(build)
    def cached(n: int, deadline: Deadline = Deadline()):
        if n not in built:
            built[n] = build(n, deadline)
        return built[n]

    cached.cache_clear = built.clear
    return cached
