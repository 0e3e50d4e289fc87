"""Tests for the dependence chain cache (§4.2)."""

import random
from collections import OrderedDict

import pytest

from repro.core.chain import TERMINATED_SELF, WILDCARD, DependenceChain
from repro.core.chain_cache import ChainCache
from repro.isa import uop as U
from repro.isa.uop import Uop


def make_chain(branch_pc, tag):
    branch = Uop(U.BR, cond=U.EQ, target=0)
    branch.pc = branch_pc
    return DependenceChain(
        branch_pc=branch_pc,
        branch_uop=branch,
        tag=tag,
        exec_uops=[branch],
        timed_flags=[True],
        live_ins=(),
        live_outs=(),
        pair_map={},
        terminated_by=TERMINATED_SELF,
    )


class TestInstallAndMatch:
    def test_wildcard_matches_both_outcomes(self):
        cache = ChainCache(8)
        cache.install(make_chain(0x10, (0x10, WILDCARD)))
        assert len(cache.matching(0x10, True)) == 1
        assert len(cache.matching(0x10, False)) == 1

    def test_exact_tag_matches_one_outcome(self):
        cache = ChainCache(8)
        cache.install(make_chain(0x20, (0x10, 0)))  # trigger: 0x10 not-taken
        assert len(cache.matching(0x10, False)) == 1
        assert cache.matching(0x10, True) == []

    def test_multiple_chains_per_trigger(self):
        cache = ChainCache(8)
        cache.install(make_chain(0x10, (0x10, WILDCARD)))
        cache.install(make_chain(0x20, (0x10, 0)))
        matched = cache.matching(0x10, False)
        assert {chain.branch_pc for chain in matched} == {0x10, 0x20}

    def test_reinstall_replaces(self):
        cache = ChainCache(8)
        cache.install(make_chain(0x10, (0x10, WILDCARD)))
        cache.install(make_chain(0x10, (0x10, WILDCARD)))
        assert len(cache) == 1

    def test_hit_miss_stats(self):
        cache = ChainCache(8)
        cache.install(make_chain(0x10, (0x10, WILDCARD)))
        cache.matching(0x10, True)
        cache.matching(0x99, True)
        assert cache.hits == 1 and cache.misses == 1


class TestLru:
    def test_eviction_order(self):
        cache = ChainCache(2)
        cache.install(make_chain(0x10, (0x10, WILDCARD)))
        cache.install(make_chain(0x20, (0x20, WILDCARD)))
        cache.matching(0x10, True)  # touch 0x10
        cache.install(make_chain(0x30, (0x30, WILDCARD)))
        assert cache.matching(0x20, True) == []  # 0x20 evicted
        assert len(cache.matching(0x10, True)) == 1
        assert cache.evictions == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ChainCache(0)


class TestQueries:
    def test_covered_branches(self):
        cache = ChainCache(8)
        cache.install(make_chain(0x10, (0x10, WILDCARD)))
        cache.install(make_chain(0x20, (0x10, 1)))
        assert cache.covered_branches() == {0x10, 0x20}

    def test_remove_for_branch(self):
        cache = ChainCache(8)
        cache.install(make_chain(0x20, (0x10, 1)))
        cache.install(make_chain(0x20, (0x20, WILDCARD)))
        cache.install(make_chain(0x30, (0x30, WILDCARD)))
        removed = cache.remove_for_branch(0x20)
        assert removed == 2
        assert cache.covered_branches() == {0x30}


class LinearChainCache:
    """The linear-scan cache the trigger index replaced (reference)."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._chains = OrderedDict()
        self.installs = self.evictions = self.hits = self.misses = 0

    def install(self, chain):
        key = chain.key()
        if key in self._chains:
            del self._chains[key]
        elif len(self._chains) >= self.capacity:
            self._chains.popitem(last=False)
            self.evictions += 1
        self._chains[key] = chain
        self.installs += 1

    def remove_for_branch(self, branch_pc):
        victims = [key for key in self._chains if key[0] == branch_pc]
        for key in victims:
            del self._chains[key]
        return len(victims)

    def matching(self, trigger_pc, outcome):
        outcome_bit = 1 if outcome else 0
        matched = []
        for key in list(self._chains):
            _, (tag_pc, tag_outcome) = key
            if tag_pc == trigger_pc and tag_outcome in (outcome_bit, WILDCARD):
                chain = self._chains.pop(key)
                self._chains[key] = chain
                matched.append(chain)
        if matched:
            self.hits += 1
        else:
            self.misses += 1
        return matched


@pytest.mark.parametrize("seed", range(6))
def test_trigger_index_matches_a_linear_scan(seed):
    rng = random.Random(seed)
    capacity = rng.choice((1, 3, 8, 32))
    cache, reference = ChainCache(capacity), LinearChainCache(capacity)
    pcs = range(0x10, 0x10 + rng.choice((3, 6, 12)))
    for _ in range(3000):
        roll = rng.random()
        if roll < 0.35:
            chain = make_chain(rng.choice(pcs),
                               (rng.choice(pcs), rng.choice((0, 1, WILDCARD))))
            cache.install(chain)
            reference.install(chain)
        elif roll < 0.9:
            trigger, outcome = rng.choice(pcs), rng.random() < 0.5
            assert cache.matching(trigger, outcome) == \
                reference.matching(trigger, outcome)
        elif roll < 0.95:
            branch = rng.choice(pcs)
            assert cache.remove_for_branch(branch) == \
                reference.remove_for_branch(branch)
        else:
            trigger, bit = rng.choice(pcs), rng.randrange(2)
            assert cache.tagged_length(trigger, bit) == sum(
                chain.length for chain in reference._chains.values()
                if chain.tag == (trigger, bit))
        assert list(cache._chains.items()) == list(reference._chains.items())
        for pc in pcs:
            assert cache.covers(pc) == any(key[0] == pc
                                           for key in reference._chains)
        assert (cache.installs, cache.evictions, cache.hits, cache.misses) \
            == (reference.installs, reference.evictions, reference.hits,
                reference.misses)
