import pytest

from lgrnok import valuation
from lgrnok.budget import POLL_EVERY, Deadline, TimeBudgetExceeded, cached_per_n, polled


class CountingDeadline(Deadline):
    polls = 0

    def check(self):
        self.polls += 1


def test_tick_counts_over_the_run_and_polled_over_its_loop():
    deadline = CountingDeadline()
    for _ in range(POLL_EVERY + 1):  # steps 0 and POLL_EVERY poll
        deadline.tick()
    assert deadline.polls == 2
    assert list(polled(range(POLL_EVERY + 1), deadline)) == list(range(POLL_EVERY + 1))
    assert deadline.polls == 4  # its own first item and its POLL_EVERY-th
    for _ in range(POLL_EVERY - 1):  # steps POLL_EVERY + 1 .. 2 POLL_EVERY - 1
        deadline.tick()
    assert deadline.polls == 4
    deadline.tick()
    assert deadline.polls == 5


def test_a_table_cached_per_n_is_shared_and_kept_only_when_built():
    built = []

    @cached_per_n
    def table(n, deadline):
        built.append(n)
        deadline.check()
        return [n]

    with pytest.raises(TimeBudgetExceeded):
        table(3, Deadline(-1))
    assert table(3) == [3]
    assert table(3, Deadline(-1)) is table(3)  # built once, whichever deadline asks
    assert built == [3, 3]
    table.cache_clear()
    table(3)
    assert built == [3, 3, 3]


def test_the_coordinate_system_polls_as_it_is_built():
    valuation.coordinate_system.cache_clear()
    with pytest.raises(TimeBudgetExceeded):
        valuation.coordinate_system(4, Deadline(-1))
    assert len(valuation.coordinate_system(4)) == 10
