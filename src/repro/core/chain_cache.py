"""Dependence Chain Cache (§4.2): LRU-managed store of installed chains.

Chains are identified by ``(branch_pc, tag)`` and looked up by trigger
events: a resolving branch ``<pc, outcome>`` initiates every cached chain
whose tag is ``<pc, outcome>`` or ``<pc, *>``.

Besides the LRU order over all chains, the cache keeps each trigger PC's
chains in the same relative LRU order, so a lookup visits only the chains
of its trigger instead of scanning the whole cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List

from repro.core.chain import WILDCARD, DependenceChain


class ChainCache:
    """LRU cache of dependence chains (32 entries in Mini, 1024 in Big)."""

    def __init__(self, capacity: int = 32):
        if capacity < 1:
            raise ValueError("chain cache needs at least one entry")
        self.capacity = capacity
        self._chains: OrderedDict = OrderedDict()  # key -> chain
        #: trigger pc -> {key: chain}, in the LRU order of ``_chains``
        self._by_trigger: Dict[int, OrderedDict] = {}
        #: predicted branch pc -> number of its installed chains
        self._per_branch: Dict[int, int] = {}
        self.installs = 0
        self.evictions = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._chains)

    def install(self, chain: DependenceChain) -> None:
        """Install (or refresh) a chain, evicting LRU if needed."""
        key = chain.key()
        if key in self._chains:
            self._forget(key)
        elif len(self._chains) >= self.capacity:
            self._forget(next(iter(self._chains)))
            self.evictions += 1
        self._chains[key] = chain
        self._by_trigger.setdefault(key[1][0], OrderedDict())[key] = chain
        self._per_branch[key[0]] = self._per_branch.get(key[0], 0) + 1
        self.installs += 1

    def _forget(self, key) -> None:
        del self._chains[key]
        trigger_pc = key[1][0]
        bucket = self._by_trigger[trigger_pc]
        del bucket[key]
        if not bucket:
            del self._by_trigger[trigger_pc]
        remaining = self._per_branch[key[0]] - 1
        if remaining:
            self._per_branch[key[0]] = remaining
        else:
            del self._per_branch[key[0]]

    def remove_for_branch(self, branch_pc: int) -> int:
        """Drop every chain predicting ``branch_pc`` (re-extraction path)."""
        victims = [key for key in self._chains if key[0] == branch_pc]
        for key in victims:
            self._forget(key)
        return len(victims)

    def matching(self, trigger_pc: int, outcome: bool
                 ) -> List[DependenceChain]:
        """Chains initiated by the trigger ``<trigger_pc, outcome>``.

        Matches exact-outcome tags and wildcard tags, in LRU order; touching
        a chain refreshes its LRU position.
        """
        bucket = self._by_trigger.get(trigger_pc)
        if not bucket:
            self.misses += 1
            return []
        outcome_bit = 1 if outcome else 0
        found = [(key, chain) for key, chain in bucket.items()
                 if key[1][1] == outcome_bit or key[1][1] == WILDCARD]
        if not found:
            self.misses += 1
            return []
        chains = self._chains
        for key, _ in found:
            bucket.move_to_end(key)  # LRU refresh
            chains.move_to_end(key)
        self.hits += 1
        return [chain for _, chain in found]

    def tagged_length(self, trigger_pc: int, outcome_bit: int) -> int:
        """Total length of the chains tagged exactly ``<trigger_pc,
        outcome_bit>`` (no LRU refresh)."""
        bucket = self._by_trigger.get(trigger_pc)
        if not bucket:
            return 0
        return sum(chain.length for key, chain in bucket.items()
                   if key[1][1] == outcome_bit)

    def chains(self) -> List[DependenceChain]:
        return list(self._chains.values())

    def covers(self, branch_pc: int) -> bool:
        """Whether at least one installed chain predicts ``branch_pc``."""
        return branch_pc in self._per_branch

    def covered_branches(self) -> set:
        """PCs of branches with at least one installed chain."""
        return {key[0] for key in self._chains}

    def reachable_from(self, trigger_pc: int) -> set:
        """Branch PCs whose chains are (transitively) initiated by a
        resolution of ``trigger_pc`` — the lineage cluster rooted there.

        Used by synchronization: resyncing a branch restarts exactly the
        chains that its outcome feeds, leaving unrelated lineages (and their
        queued predictions) untouched.
        """
        edges = {}
        for branch_pc, (tag_pc, _) in self._chains:
            edges.setdefault(tag_pc, set()).add(branch_pc)
        reached = set()
        frontier = [trigger_pc]
        while frontier:
            node = frontier.pop()
            for successor in edges.get(node, ()):
                if successor not in reached:
                    reached.add(successor)
                    frontier.append(successor)
        return reached
