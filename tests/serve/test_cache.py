"""Single-flight coalescing: leaders compute, followers wait."""

import threading

import pytest

from repro.exec.flight import SingleFlight


class TestSingleFlight:
    def test_first_caller_leads(self):
        flight = SingleFlight()
        assert flight.begin("k") is True
        assert flight.inflight_now == 1

    def test_duplicate_becomes_follower_and_gets_the_outcome(self):
        flight = SingleFlight()
        got = []
        assert flight.begin("k") is True
        assert flight.begin("k", follower=got.append) is False
        assert flight.begin("k", follower=got.append) is False
        assert got == []  # followers wait for the leader
        assert flight.settle("k", outcome=42) == 2
        assert got == [42, 42]
        assert flight.inflight_now == 0

    def test_follower_required_for_duplicates(self):
        flight = SingleFlight()
        flight.begin("k")
        with pytest.raises(ValueError, match="in flight"):
            flight.begin("k")

    def test_key_is_free_again_after_settle(self):
        flight = SingleFlight()
        flight.begin("k")
        flight.settle("k", outcome=None)
        assert flight.begin("k") is True  # a new leader, not a follower

    def test_distinct_keys_do_not_coalesce(self):
        flight = SingleFlight()
        assert flight.begin("a") is True
        assert flight.begin("b") is True
        assert flight.inflight_now == 2

    def test_abandon_returns_orphans_without_invoking(self):
        flight = SingleFlight()
        got = []
        flight.begin("k")
        flight.begin("k", follower=got.append)
        orphans = flight.abandon("k")
        assert len(orphans) == 1
        assert got == []  # the caller decides what to feed them
        assert flight.inflight_now == 0

    def test_counters(self):
        flight = SingleFlight()
        flight.begin("k")
        flight.begin("k", follower=lambda _: None)
        flight.settle("k", outcome=1)
        stats = flight.stats()
        assert stats == {"coalesced": 1, "resolved": 1, "inflight_now": 0}

    def test_thread_race_elects_exactly_one_leader(self):
        flight = SingleFlight()
        leaders = []
        outcomes = []
        barrier = threading.Barrier(8)

        def contender():
            barrier.wait()
            if flight.begin("k", follower=outcomes.append):
                leaders.append(True)

        threads = [threading.Thread(target=contender) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(leaders) == 1
        flight.settle("k", outcome="done")
        assert outcomes == ["done"] * 7
