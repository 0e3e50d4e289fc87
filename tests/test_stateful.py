"""Model-based (stateful) property tests for the bookkeeping structures.

A reference model shadows each structure through random operation
sequences; hypothesis shrinks any divergence to a minimal reproduction.
"""

from collections import OrderedDict, deque

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core.chain import TERMINATED_SELF, WILDCARD, DependenceChain
from repro.core.chain_cache import ChainCache
from repro.core.prediction_queue import INACTIVE, LATE, READY, PredictionQueue
from repro.isa import uop as U
from repro.isa.uop import Uop


class PredictionQueueMachine(RuleBasedStateMachine):
    """The queue against a plain-list model of allocate/fill/consume/retire
    and the divergence flush."""

    CAPACITY = 6

    def __init__(self):
        super().__init__()
        self.queue = PredictionQueue(self.CAPACITY)
        self.model = deque()        # entries: dict(value, avail)
        self.model_base = 0         # slot index of model[0] (= retire_ptr)
        self.model_fetch = 0        # absolute fetch pointer
        self.model_push = 0
        self.cycle = 0

    def _occupancy(self):
        return self.model_push - self.model_base

    @rule()
    def advance_time(self):
        self.cycle += 7

    @rule(value=st.booleans(), delay=st.integers(min_value=0, max_value=30))
    def allocate_and_fill(self, value, delay):
        slot = self.queue.allocate()
        if self._occupancy() >= self.CAPACITY:
            assert slot == -1
            return
        assert slot == self.model_push
        self.model.append({"value": value, "avail": self.cycle + delay})
        self.model_push += 1
        self.queue.fill(slot, value, self.cycle + delay)

    @rule()
    def allocate_unfilled(self):
        slot = self.queue.allocate()
        if self._occupancy() >= self.CAPACITY:
            assert slot == -1
            return
        self.model.append({"value": None, "avail": None})
        self.model_push += 1

    @rule()
    def consume(self):
        category, value = self.queue.consume(self.cycle)
        if self.model_fetch >= self.model_push:
            assert category == INACTIVE and value is None
            return
        entry = self.model[self.model_fetch - self.model_base]
        self.model_fetch += 1
        if entry["value"] is None or entry["avail"] > self.cycle:
            assert category == LATE
            assert value == entry["value"]
        else:
            assert category == READY and value == entry["value"]

    @rule()
    def retire(self):
        self.queue.retire_one()
        if self.model_base < self.model_fetch:
            self.model.popleft()
            self.model_base += 1

    @rule()
    def flush(self):
        dropped = self.queue.flush_unconsumed()
        expected = self.model_push - self.model_fetch
        assert dropped == expected
        for _ in range(expected):
            self.model.pop()
        self.model_push = self.model_fetch

    @invariant()
    def pointers_ordered(self):
        assert self.queue.retire_ptr <= self.queue.fetch_ptr \
            <= self.queue.push_ptr
        assert self.queue.retire_ptr == self.model_base
        assert self.queue.fetch_ptr == self.model_fetch
        assert self.queue.push_ptr == self.model_push

    @invariant()
    def occupancy_bounded(self):
        assert 0 <= self.queue.occupancy() <= self.CAPACITY


PredictionQueueMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestPredictionQueueModel = PredictionQueueMachine.TestCase


def _chain(branch_pc, tag):
    branch = Uop(U.BR, cond=U.EQ, target=0)
    branch.pc = branch_pc
    return DependenceChain(
        branch_pc=branch_pc, branch_uop=branch, tag=tag,
        exec_uops=[branch], timed_flags=[True], live_ins=(), live_outs=(),
        pair_map={}, terminated_by=TERMINATED_SELF)


class ChainCacheMachine(RuleBasedStateMachine):
    """The LRU chain cache against an OrderedDict reference."""

    CAPACITY = 4

    def __init__(self):
        super().__init__()
        self.cache = ChainCache(self.CAPACITY)
        self.model = OrderedDict()

    @rule(branch=st.integers(min_value=0, max_value=6),
          trigger=st.integers(min_value=0, max_value=6),
          outcome=st.sampled_from([0, 1, WILDCARD]))
    def install(self, branch, trigger, outcome):
        chain = _chain(branch, (trigger, outcome))
        key = chain.key()
        self.cache.install(chain)
        if key in self.model:
            del self.model[key]
        elif len(self.model) >= self.CAPACITY:
            self.model.popitem(last=False)
        self.model[key] = chain

    @rule(trigger=st.integers(min_value=0, max_value=6),
          outcome=st.booleans())
    def match(self, trigger, outcome):
        got = {chain.key() for chain in self.cache.matching(trigger, outcome)}
        bit = 1 if outcome else 0
        expected = []  # in model iteration order, matching the cache's scan
        for (branch, (tag_pc, tag_outcome)), chain in list(
                self.model.items()):
            if tag_pc == trigger and tag_outcome in (bit, WILDCARD):
                expected.append(chain.key())
        assert got == set(expected)
        # LRU refresh in the model, in the same scan order as the cache
        for key in expected:
            chain = self.model.pop(key)
            self.model[key] = chain

    @rule(branch=st.integers(min_value=0, max_value=6))
    def remove(self, branch):
        removed = self.cache.remove_for_branch(branch)
        victims = [key for key in self.model if key[0] == branch]
        assert removed == len(victims)
        for key in victims:
            del self.model[key]

    @invariant()
    def same_contents(self):
        assert {c.key() for c in self.cache.chains()} == set(self.model)

    @invariant()
    def capacity_respected(self):
        assert len(self.cache) <= self.CAPACITY


ChainCacheMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None)
TestChainCacheModel = ChainCacheMachine.TestCase
