import pytest

from lgrnok import plabic, valuation
from lgrnok.budget import POLL_EVERY, Deadline, TimeBudgetExceeded, arm, armed, polled


class CountingDeadline(Deadline):
    polls = 0

    def check(self):
        self.polls += 1


def test_tick_counts_over_the_run_and_polled_over_its_loop():
    with arm(CountingDeadline()) as deadline:
        for _ in range(POLL_EVERY + 1):  # steps 0 and POLL_EVERY poll
            deadline.tick()
        assert deadline.polls == 2
        assert list(polled(range(POLL_EVERY + 1))) == list(range(POLL_EVERY + 1))
        assert deadline.polls == 4  # its own first item and its POLL_EVERY-th
        for _ in range(POLL_EVERY - 1):  # steps POLL_EVERY + 1 .. 2 POLL_EVERY - 1
            deadline.tick()
        assert deadline.polls == 4
        deadline.tick()
        assert deadline.polls == 5


def test_arm_restores_the_deadline_before_it_however_its_block_ends():
    unarmed = armed()
    assert unarmed.expires is None
    outer, inner = Deadline(60), Deadline(-1)
    with arm(outer):
        with pytest.raises(TimeBudgetExceeded):
            with arm(inner):
                assert armed() is inner
                armed().check()
        assert armed() is outer
    assert armed() is unarmed


def test_a_table_whose_build_ran_out_of_budget_keeps_nothing():
    plabic.build_corect_graph.cache_clear()
    with arm(Deadline(-1)), pytest.raises(TimeBudgetExceeded):
        plabic.build_corect_graph(4)
    assert plabic.build_corect_graph.cache_info().currsize == 0
    G = plabic.build_corect_graph(4)
    with arm(Deadline(-1)):
        assert plabic.build_corect_graph(4) is G  # built once, shared whatever is armed


def test_the_coordinate_system_polls_as_it_is_built():
    valuation.coordinate_system.cache_clear()
    with arm(Deadline(-1)), pytest.raises(TimeBudgetExceeded):
        valuation.coordinate_system(4)
    assert len(valuation.coordinate_system(4)) == 10
