from lgrnok.budget import POLL_EVERY, Deadline, polled


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
