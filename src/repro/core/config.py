"""Branch Runahead configuration (paper Table 2).

Three presets:

* ``core_only()`` — 9KB: shares reservation stations, physical registers,
  and functional units with the core (no private instruction window).
* ``mini()`` — 17KB: 32-entry chain cache, 64 local RF/RS pairs,
  16x256-entry prediction queues, 64-entry HBT, 512-entry CEB.
* ``big()`` — unlimited: every structure scaled to 1024+ entries to expose
  the technique's ceiling.

The presets are registered in :data:`UARCH_CONFIGS`; new BR sizings added
with :func:`register_uarch_config` become addressable everywhere a preset
name is accepted (``spec:`` variant tokens, ``repro run --config``,
``repro list``).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.registry import Registry

#: name -> factory returning a fresh BranchRunaheadConfig.
UARCH_CONFIGS = Registry("BR config")


def register_uarch_config(name: str, **meta: Any) -> Callable[..., Any]:
    """Decorator registering a Branch Runahead configuration factory."""
    return UARCH_CONFIGS.register(name, **meta)


#: Chain initiation modes (§4.1).
NON_SPECULATIVE = "non-speculative"
INDEPENDENT_EARLY = "independent-early"
PREDICTIVE = "predictive"

INITIATION_MODES = (NON_SPECULATIVE, INDEPENDENT_EARLY, PREDICTIVE)


class BranchRunaheadConfig:
    """All Branch Runahead sizing/behaviour knobs."""

    def __init__(self,
                 name: str = "mini",
                 chain_cache_entries: int = 32,
                 window_slots: int = 64,
                 dce_alus: int = 2,
                 share_core_alus: bool = False,
                 prediction_queues: int = 16,
                 prediction_queue_entries: int = 256,
                 hbt_entries: int = 64,
                 ceb_entries: int = 512,
                 max_chain_length: int = 16,
                 initiation_mode: str = PREDICTIVE,
                 sync_latency: int = 4,
                 wpb_entries: int = 128,
                 wpb_ways: int = 4,
                 max_merge_distance: int = 100,
                 misp_counter_max: int = 31,
                 misp_decay_amount: int = 15,
                 misp_decay_period: int = 1000,
                 bias_ratio: float = 0.85,
                 random_extract_chance: float = 0.01,
                 runahead_limit: int = 8,
                 dce_in_order: bool = False,
                 enable_affector_guard: bool = True,
                 max_chain_loads: int = 0):
        if initiation_mode not in INITIATION_MODES:
            raise ValueError(f"unknown initiation mode {initiation_mode!r}")
        self.name = name
        self.chain_cache_entries = chain_cache_entries
        #: Concurrent dynamic chain instances (local RF + local RS pairs).
        self.window_slots = window_slots
        self.dce_alus = dce_alus
        #: Core-Only model: execute chain uops on the core's ALU pool.
        self.share_core_alus = share_core_alus
        self.prediction_queues = prediction_queues
        self.prediction_queue_entries = prediction_queue_entries
        self.hbt_entries = hbt_entries
        self.ceb_entries = ceb_entries
        self.max_chain_length = max_chain_length
        self.initiation_mode = initiation_mode
        #: Cycles to copy live-ins from the core PRF on a synchronization.
        self.sync_latency = sync_latency
        self.wpb_entries = wpb_entries
        self.wpb_ways = wpb_ways
        self.max_merge_distance = max_merge_distance
        # HBT misprediction counter calibration (§4.3 footnotes)
        self.misp_counter_max = misp_counter_max
        self.misp_decay_amount = misp_decay_amount
        self.misp_decay_period = misp_decay_period
        #: Direction-ratio above which a branch counts as highly biased.
        self.bias_ratio = bias_ratio
        #: Probability a retired HBT-resident branch triggers extraction even
        #: without a saturated counter (§4.3 footnote 10: 1%).
        self.random_extract_chance = random_extract_chance
        #: Simulation-tractability cap on how many unconsumed predictions a
        #: chain lineage produces ahead of the core.  The hardware bound is
        #: the prediction-queue capacity itself; capping eager production
        #: below it bounds wasted work after divergences without affecting
        #: timeliness (a chain a few instances ahead is already "on time").
        self.runahead_limit = runahead_limit
        #: Ablation (§4.2): schedule chain uops strictly in order inside the
        #: DCE instead of dataflow (out-of-order) scheduling.  The paper
        #: rejected in-order scheduling because it "was not able to expose
        #: enough Memory Level Parallelism".
        self.dce_in_order = dce_in_order
        #: Ablation (§4.4): disable merge-point prediction and poison-based
        #: affector detection, so chains can only self-terminate.
        self.enable_affector_guard = enable_affector_guard
        #: Related-work comparison (§6, Gupta et al. [14]): restrict chains
        #: to at most this many load uops (0 = unrestricted).  Their
        #: re-steering scheme targets only chains with a single load.
        self.max_chain_loads = max_chain_loads

    def storage_kb(self) -> float:
        """Approximate added storage, mirroring Table 2's accounting."""
        chain_cache = self.chain_cache_entries * 16 * 4  # 16 uops x 4B
        prf = self.window_slots * 8 * 8                  # 8 regs x 8B
        rsv = self.window_slots * 32 * 2                 # 16 uops x ~4B tags
        if self.share_core_alus:
            prf = 0
            rsv = 0
        queues = self.prediction_queues * self.prediction_queue_entries
        hbt = self.hbt_entries * 16
        ceb = self.ceb_entries * 4
        return (chain_cache + prf + rsv + queues + hbt + ceb) / 1024.0


@register_uarch_config("core-only", storage="9KB")
def core_only(**overrides) -> BranchRunaheadConfig:
    """Core-Only (9KB): window shared with the core."""
    params = dict(
        name="core-only",
        window_slots=4,
        share_core_alus=True,
        prediction_queue_entries=256,
        ceb_entries=512,
        hbt_entries=64,
    )
    params.update(overrides)
    return BranchRunaheadConfig(**params)


@register_uarch_config("mini", storage="17KB")
def mini(**overrides) -> BranchRunaheadConfig:
    """Mini (17KB): the paper's recommended configuration."""
    params = dict(name="mini")
    params.update(overrides)
    return BranchRunaheadConfig(**params)


@register_uarch_config("big", storage="unlimited")
def big(**overrides) -> BranchRunaheadConfig:
    """Big (unlimited): ceiling study."""
    params = dict(
        name="big",
        chain_cache_entries=1024,
        window_slots=1024,
        prediction_queues=1024,
        prediction_queue_entries=1024,
        hbt_entries=1024,
        ceb_entries=2048,
        runahead_limit=16,
    )
    params.update(overrides)
    return BranchRunaheadConfig(**params)
