"""Tests for the prediction queues (§4.2): pointers, resync, throttling."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prediction_queue import (
    INACTIVE,
    LATE,
    READY,
    PredictionQueue,
    PredictionQueueFile,
)


class TestSlotLifecycle:
    def test_consume_empty_is_inactive(self):
        queue = PredictionQueue(4)
        category, value = queue.consume(cycle=100)
        assert category == INACTIVE and value is None

    def test_allocate_fill_consume_ready(self):
        queue = PredictionQueue(4)
        slot = queue.allocate()
        queue.fill(slot, True, available_cycle=50)
        category, value = queue.consume(cycle=100)
        assert category == READY and value is True

    def test_unfilled_slot_is_late(self):
        queue = PredictionQueue(4)
        queue.allocate()
        category, value = queue.consume(cycle=100)
        assert category == LATE and value is None

    def test_not_yet_available_is_late_but_carries_value(self):
        """§4.2: a slot consumed before its value is available is late,
        yet carries the value its chain computed."""
        queue = PredictionQueue(4)
        slot = queue.allocate()
        queue.fill(slot, False, available_cycle=200)
        category, value = queue.consume(cycle=100)
        assert category == LATE and value is False

    def test_capacity_limit(self):
        queue = PredictionQueue(2)
        assert queue.allocate() >= 0
        assert queue.allocate() >= 0
        assert queue.allocate() == -1

    def test_retire_frees_capacity(self):
        queue = PredictionQueue(2)
        for _ in range(2):
            slot = queue.allocate()
            queue.fill(slot, True, 0)
        queue.consume(10)
        queue.retire_one()
        assert queue.allocate() >= 0

    def test_fifo_order(self):
        queue = PredictionQueue(4)
        first = queue.allocate()
        second = queue.allocate()
        queue.fill(first, True, 0)
        queue.fill(second, False, 0)
        assert queue.consume(10) == (READY, True)
        assert queue.consume(10) == (READY, False)

    def test_fill_after_flush_is_harmless(self):
        queue = PredictionQueue(4)
        slot = queue.allocate()
        queue.flush_unconsumed()
        queue.fill(slot, True, 0)  # chain finished after the flush
        assert queue.consume(10)[0] == INACTIVE


class TestRecovery:
    def test_flush_unconsumed_drops_future_only(self):
        queue = PredictionQueue(8)
        for _ in range(3):
            slot = queue.allocate()
            queue.fill(slot, True, 0)
        queue.consume(10)
        dropped = queue.flush_unconsumed()
        assert dropped == 2
        assert queue.push_ptr == queue.fetch_ptr
        # the consumed slot is still live for retirement
        queue.retire_one()
        assert queue.retire_ptr == 1


class TestThrottle:
    def test_throttles_after_losses(self):
        queue = PredictionQueue(4)
        assert not queue.throttled
        queue.update_throttle(dce_correct=False, tage_correct=True)
        assert queue.throttled

    def test_recovers_after_wins(self):
        queue = PredictionQueue(4)
        queue.update_throttle(False, True)
        queue.update_throttle(False, True)
        queue.update_throttle(True, False)
        queue.update_throttle(True, False)
        assert not queue.throttled

    def test_both_correct_no_change(self):
        queue = PredictionQueue(4)
        queue.update_throttle(True, True)
        queue.update_throttle(False, False)
        assert queue.throttle == 0

    def test_saturation_bounds(self):
        queue = PredictionQueue(4)
        for _ in range(10):
            queue.update_throttle(False, True)
        assert queue.throttle == PredictionQueue.THROTTLE_MIN
        for _ in range(10):
            queue.update_throttle(True, False)
        assert queue.throttle == PredictionQueue.THROTTLE_MAX

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_throttle_always_in_range(self, updates):
        queue = PredictionQueue(4)
        for dce_correct, tage_correct in updates:
            queue.update_throttle(dce_correct, tage_correct)
            assert PredictionQueue.THROTTLE_MIN <= queue.throttle \
                <= PredictionQueue.THROTTLE_MAX


class TestQueueFile:
    def test_assignment_and_lookup(self):
        queues = PredictionQueueFile(num_queues=2, entries_per_queue=4)
        first = queues.get_or_assign(0x10)
        assert queues.get(0x10) is first

    def test_capacity_with_idle_reassignment(self):
        queues = PredictionQueueFile(num_queues=2, entries_per_queue=4)
        queues.get_or_assign(0x10)
        queues.get_or_assign(0x20)
        # both idle: a third branch steals the LRU queue
        assert queues.get_or_assign(0x30) is not None
        assert queues.get(0x10) is None

    def test_busy_queues_not_stolen(self):
        queues = PredictionQueueFile(num_queues=1, entries_per_queue=4)
        queue = queues.get_or_assign(0x10)
        queue.allocate()  # outstanding entry
        assert queues.get_or_assign(0x20) is None
        assert queues.get(0x10) is queue

    @given(st.lists(st.integers(min_value=0, max_value=40), min_size=1,
                    max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_never_exceeds_queue_budget(self, pcs):
        queues = PredictionQueueFile(num_queues=4, entries_per_queue=4)
        for pc in pcs:
            queues.get_or_assign(pc)
            assert len(queues._queues) <= 4

    def test_queue_invariant_fetch_between_retire_and_push(self):
        queue = PredictionQueue(8)
        for _ in range(5):
            slot = queue.allocate()
            queue.fill(slot, True, 0)
        for _ in range(3):
            queue.consume(0)
        queue.retire_one()
        assert queue.retire_ptr <= queue.fetch_ptr <= queue.push_ptr
