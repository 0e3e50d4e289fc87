"""Shared committed-trace cache.

The committed dynamic-uop stream of a region is a pure function of
``(program, start_instruction, total_instructions)`` — the timing
configuration, the predictor, and Branch Runahead never change what the
program *does*, only how long it takes.  The experiment matrix therefore
re-runs the exact same functional emulation once per variant; this module
memoizes it so each region is emulated once and *replayed* for every other
variant.

Replay must be indistinguishable from live emulation to every consumer.
The subtle part is memory: in a live run the machine's memory evolves
lazily — the store of record ``i`` is applied at the moment record ``i`` is
produced — and Branch Runahead reads that memory mid-stream (DCE chain
loads, shadow wrong-path walks through an
:class:`~repro.emulator.memory.OverlayMemory`).  A replay therefore snapshots
the pre-region memory image at record time and re-applies each ST record to
its own replica as it yields, so any consumer reading
``machine.memory`` between two records sees bit-identical state in live and
replayed runs.  ``tests/test_trace_cache.py`` pins this invariant by
comparing full ``SimulationResult.to_dict()`` payloads.

The cache is LRU-bounded (``capacity`` regions, default 32) and keyed by
program *identity*: entries hold a strong reference to their
program, which both keeps ``id(program)`` valid and means a rebuilt Program
object (whose uops were re-placed) can never alias a stale entry.

**Disk persistence.**  With a ``disk_dir``, entries additionally spill to
disk so spawn-start multiprocessing workers and repeat CLI invocations
start warm.  The cache itself reads no environment: a session passes its
``RunConfig.trace_cache_dir``, which :func:`~repro.config.resolve_config`
layers from ``REPRO_TRACE_CACHE_DIR``, so only sessions built from the
resolved config (``Session()``, the CLI's) follow it.  Identity keys do not
survive a process boundary, so on-disk entries are keyed by a *content*
fingerprint: the sha256 over the program's name, every static uop's
architectural fields, and the initial memory image (memoized per Program
object).  Each file carries a magic/version header and a payload digest;
a truncated, corrupted, or version-mismatched file is a clean miss (the
offender is deleted best-effort), never a crash.  Writes go through a
same-directory temp file and ``os.replace`` so concurrent workers spilling
the same region can never expose a half-written entry.

**Baseline prediction columns.**  The baseline predictor sees only the
committed branch stream and Branch Runahead never reads or trains it, so
its predictions on a region are as timing-independent as the stream.
:meth:`TraceCache.bind_baseline` records them once per region and
predictor signature as a column of one byte per conditional branch, held
on the entry in memory only: columns are evicted with their entry and
never spilled, so the on-disk formats are unchanged.

**Wrong-path walks.**  The merge-point predictor's wrong-path walk at a
mispredicted branch reads only the committed registers and memory at that
branch, so within a region it is a pure function of the branch's ``seq``
whichever configuration mispredicted it.  :meth:`TraceCache.bind_wrong_paths`
hands a run the region's walks recorded so far
(:class:`~repro.emulator.shadow.WalkPrefix` per ``seq``) under the
prediction-column rules: memory only, evicted with the entry, never
spilled, stored by the run that records them.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.emulator.dispatch import ensure_compiled
from repro.emulator.machine import Machine
from repro.emulator.memory import Memory, wrap64
from repro.emulator.shadow import WalkPrefix
from repro.emulator.trace import DynamicUop
from repro.isa import uop as U
from repro.isa.program import Program
from repro.isa.registers import CC
from repro.predictors.base import BranchPredictor
from repro.predictors.tage_batch import stream_signature
from repro.sim.branch_events import (
    EVENT_FORMAT_VERSION,
    EVENT_MAGIC,
    BranchColumns,
    extract_columns,
    pack_columns,
    unpack_columns,
)

#: Default LRU capacity (regions, not uops), the one a session uses.  A
#: full benchmark suite sweep touches one region per benchmark.
DEFAULT_CAPACITY = 32

#: On-disk format version; bumped whenever the payload layout changes.
#: The version participates in both the filename and the header, so old
#: files are simply never found (and would be rejected if renamed).
FORMAT_VERSION = 1

_MAGIC = b"RPTC"
_HEADER_LEN = len(_MAGIC) + 2 + 32  # magic + u16 version + payload sha256


def write_framed(path: str, payload: bytes, magic: bytes,
                 version: int) -> None:
    """Atomically write one framed blob: magic + u16 version + sha256 + body.

    The frame is the shared on-disk contract of the trace cache's
    ``.trace`` entries and ``.events`` sidecars and the sweep
    :class:`~repro.sched.store.ResultStore` — a reader can
    always tell truncation, version skew, and bit rot apart from a valid
    entry before touching the pickle inside.  Writes go through a
    same-directory temp file and ``os.replace`` so concurrent writers of
    the same key can never expose a half-written file.
    """
    header = (magic + version.to_bytes(2, "little")
              + hashlib.sha256(payload).digest())
    temp_path = f"{path}.tmp.{os.getpid()}"
    with open(temp_path, "wb") as handle:
        handle.write(header)
        handle.write(payload)
    os.replace(temp_path, path)  # atomic: readers never see partials


def read_framed(blob: bytes, magic: bytes, version: int) -> bytes:
    """Validate a framed blob and return its payload bytes.

    Raises ``ValueError`` on a bad magic, a truncated header, a version
    mismatch, or a payload whose sha256 does not match the header —
    callers turn any of those into a counted clean miss.
    """
    header_len = len(magic) + 2 + 32
    if len(blob) < header_len or not blob.startswith(magic):
        raise ValueError("bad magic or truncated header")
    found = int.from_bytes(blob[len(magic):len(magic) + 2], "little")
    if found != version:
        raise ValueError(f"format version {found}")
    payload = blob[header_len:]
    if hashlib.sha256(payload).digest() != blob[len(magic) + 2:header_len]:
        raise ValueError("payload digest mismatch")
    return payload


def program_fingerprint(program: Program) -> str:
    """Content sha256 of a program, memoized on the Program object.

    Covers the name, every uop's architectural fields, and the initial
    memory image — everything that determines the committed stream of a
    region.  Two separately built but identical programs (e.g. the same
    benchmark rebuilt in another process) fingerprint equal.
    """
    cached = getattr(program, "_content_fingerprint", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(program.name.encode())
    for op in program.uops:
        digest.update(repr((op.opcode, op.dst, op.srcs, op.imm, op.base,
                            op.index, op.scale, op.disp, op.cond,
                            op.target)).encode())
    _hash_memory(digest, program.initial_memory)
    fingerprint = digest.hexdigest()
    program._content_fingerprint = fingerprint
    return fingerprint


def _hash_memory(digest, memory: Dict[int, int]) -> None:
    """Feed a memory image to ``digest`` in address order.

    The addresses and the values go in as two little-endian int64
    arrays, the values as the machine holds them (``wrap64``).  An
    address outside int64 makes the image hash as the ``repr`` of its
    sorted items instead.
    """
    count = len(memory)
    try:
        addresses = np.fromiter(memory, dtype=np.int64, count=count)
    except OverflowError:
        digest.update(repr(sorted(memory.items())).encode())
        return
    try:
        values = np.fromiter(memory.values(), dtype=np.int64, count=count)
    except OverflowError:
        values = np.fromiter(map(wrap64, memory.values()), dtype=np.int64,
                             count=count)
    order = np.argsort(addresses, kind="stable")
    digest.update(addresses[order].astype("<i8").tobytes())
    digest.update(values[order].astype("<i8").tobytes())


class TraceEntry:
    """One recorded region: its records plus enough state to replay them."""

    __slots__ = ("program", "start", "total", "records", "pre_memory",
                 "start_regs", "start_pc", "start_seq",
                 "final_pc", "final_seq", "halted", "branch_columns",
                 "prediction_columns", "wrong_paths")

    def __init__(self, program: Program, start: int, total: int,
                 records: List[DynamicUop], pre_memory: Memory,
                 start_regs: List[int], start_pc: int, start_seq: int,
                 final_pc: int, final_seq: int, halted: bool):
        self.program = program
        self.start = start
        self.total = total
        self.records = records
        self.pre_memory = pre_memory
        self.start_regs = start_regs
        self.start_pc = start_pc
        self.start_seq = start_seq
        self.final_pc = final_pc
        self.final_seq = final_seq
        self.halted = halted
        #: Lazily extracted :class:`~repro.sim.branch_events.BranchColumns`
        #: for the region (the MPKI-only replay path's working set); None
        #: until :meth:`TraceCache.branch_columns` extracts or loads them.
        self.branch_columns = None
        #: Baseline prediction columns, one byte per conditional branch in
        #: region order, keyed by predictor signature (see
        #: :meth:`TraceCache.bind_baseline`).  Memory only: never spilled.
        self.prediction_columns: Dict[tuple, bytes] = {}
        #: Recorded wrong-path walks by mispredicted branch ``seq`` (see
        #: :meth:`TraceCache.bind_wrong_paths`).  Memory only: never
        #: spilled.
        self.wrong_paths: Dict[int, WalkPrefix] = {}


class ReplayMachine:
    """Drop-in :class:`~repro.emulator.machine.Machine` for a cached region.

    Exposes the attributes the simulator and Branch Runahead consume —
    ``program``, ``memory``, ``regs``, ``pc``, ``seq``, ``halted`` — and a
    :meth:`stream` that yields the recorded records while applying each
    record's architectural side effect (register writeback or store) to
    this machine's private replica state, keeping ``memory``/``regs``/
    ``pc``/``seq`` exactly in step with what a live machine would contain
    at the same point of consumption.
    """

    def __init__(self, entry: TraceEntry):
        self._entry = entry
        self.program = entry.program
        #: Private replica: replays are independent, so a half-consumed
        #: replay can never leak state into the next one.
        self.memory = entry.pre_memory.copy()
        self.regs: List[int] = list(entry.start_regs)
        self.pc = entry.start_pc
        self.seq = entry.start_seq
        self.halted = False

    def stream(self, max_instructions: int) -> Iterator[DynamicUop]:
        """Yield the recorded region (at most ``max_instructions`` records).

        The entry was recorded for exactly this region length, so the limit
        only matters defensively; records keep their original ``seq``.
        """
        entry = self._entry
        records = entry.records
        if max_instructions < len(records):
            records = records[:max_instructions]
        memory_write = self.memory.write
        regs = self.regs
        # applied *before* each yield, exactly when the live machine's
        # execute closure would have applied it
        for record in records:
            op = record.uop
            opcode = op.opcode
            if opcode <= U.CMPI:
                if opcode >= U.CMP:
                    regs[CC] = record.dst_value
                else:
                    regs[op.dst] = record.dst_value
            elif opcode == U.LD:
                regs[op.dst] = record.dst_value
            elif opcode == U.ST:
                memory_write(record.addr, record.value)
            self.pc = record.next_pc
            self.seq = record.seq + 1
            yield record
        if len(records) == len(entry.records):
            # fully replayed: mirror the live machine's terminal flags
            self.pc = entry.final_pc
            self.seq = entry.final_seq
            self.halted = entry.halted

    def fast_forward(self, count: int) -> int:
        raise RuntimeError(
            "ReplayMachine regions already include their fast-forward; "
            "request the replay with the same start_instruction instead")


class TraceCache:
    """LRU cache of committed-region traces, shared across variants.

    Thread-compatible but not thread-safe; in the parallel experiment
    runner each worker process owns its own instance (a fork inherits the
    parent's warm entries for free).  ``capacity`` and ``disk_dir`` are
    taken as given — ``disk_dir=None`` means memory only, whatever the
    environment says.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 disk_dir: Optional[str] = None):
        if capacity < 1:
            raise ValueError("trace cache capacity must be positive")
        self.capacity = capacity
        self.disk_dir = disk_dir
        self._entries: "OrderedDict[Tuple[int, int, int], TraceEntry]" = \
            OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.spills = 0
        self.spill_errors = 0
        self.corrupt_entries = 0
        self.event_disk_hits = 0
        self.event_spills = 0
        self.prediction_hits = 0
        self.prediction_misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def replay(self, program: Program, start: int,
               total: int) -> Optional[ReplayMachine]:
        """Return a replay machine for the region, or None on a miss."""
        entry = self.lookup(program, start, total)
        return ReplayMachine(entry) if entry is not None else None

    def lookup(self, program: Program, start: int, total: int,
               count: bool = True) -> Optional[TraceEntry]:
        """Raw entry lookup (memory, then disk) without a ReplayMachine.

        The MPKI-only replay path reads ``entry.records`` directly — it
        needs no memory replica.  ``count=False`` suppresses the hit/miss
        counters for internal re-lookups right after a record, so cache
        effectiveness numbers keep meaning "work avoided".
        """
        key = (id(program), start, total)
        entry = self._entries.get(key)
        if entry is None or entry.program is not program:
            if self.disk_dir is not None:
                entry = self._load_from_disk(program, start, total)
                if entry is not None:
                    if count:
                        self.disk_hits += 1
                        self.hits += 1
                    self._store(entry, spill=False)
                    return entry
                if count:
                    self.disk_misses += 1
            if count:
                self.misses += 1
            return None
        self._entries.move_to_end(key)
        if count:
            self.hits += 1
        return entry

    def branch_columns(self, program: Program, start: int, total: int,
                       count: bool = True) -> Optional[BranchColumns]:
        """Columnar branch events for a region, or None on a full miss.

        Resolution order, cheapest first: a memory entry's memoized
        columns (extracted once from its records); the on-disk ``.events``
        sidecar (never touches pickle), read again on each lookup; finally
        the full on-disk ``.trace`` entry, from which columns are extracted
        and a sidecar spilled for the next process.  A miss means the region
        was never recorded — the caller emulates through :meth:`record` and
        re-asks with ``count=False``.
        """
        key = (id(program), start, total)
        entry = self._entries.get(key)
        if entry is not None and entry.program is program:
            self._entries.move_to_end(key)
            columns = entry.branch_columns
            if columns is None:
                columns = extract_columns(entry.records)
                entry.branch_columns = columns
                self._spill_events(program, start, total, columns)
            if count:
                self.hits += 1
            return columns
        if self.disk_dir is not None:
            columns = self._load_events(program, start, total)
            if columns is not None:
                if count:
                    self.hits += 1
                    self.event_disk_hits += 1
                return columns
            entry = self._load_from_disk(program, start, total)
            if entry is not None:
                if count:
                    self.hits += 1
                    self.disk_hits += 1
                self._store(entry, spill=False)
                columns = extract_columns(entry.records)
                entry.branch_columns = columns
                self._spill_events(program, start, total, columns)
                return columns
            if count:
                self.disk_misses += 1
        if count:
            self.misses += 1
        return None

    def bind_baseline(self, program: Program, start: int, total: int,
                      predictor: BranchPredictor
                      ) -> Tuple[Union[bytes, Callable[[int, bool], bool]],
                                 Optional[Callable[[], None]]]:
        """Bind the baseline predictor for one run of a region.

        Returns ``(baseline, finish)``, ``baseline`` being what
        :class:`~repro.uarch.core.CoreModel` takes as its baseline.  When
        the region's entry holds a prediction column for the predictor's
        :func:`~repro.predictors.tage_batch.stream_signature`, it is that
        column (``bytes``, which the core reads in region order), the
        predictor is never touched and stays untrained, and ``finish`` is
        None.  Otherwise it is ``baseline(pc, taken)``, which the core
        calls once per conditional branch: the predictor's ``observe``.
        For a predictor that has a signature it also records each
        prediction, and ``finish()``, called once the run has consumed the
        whole region, stores the column on the region's entry.
        """
        key = (id(program), start, total)
        entry = self._entries.get(key)
        if entry is not None and entry.program is not program:
            entry = None
        signature = stream_signature(predictor)
        column = None
        if entry is not None and signature is not None:
            column = entry.prediction_columns.get(signature)
        if column is not None:
            self.prediction_hits += 1
            return column, None
        self.prediction_misses += 1
        observe = predictor.observe
        if signature is None:
            return observe, None
        recorded = bytearray()
        append = recorded.append

        def record(pc: int, taken: bool) -> bool:
            prediction = observe(pc, taken)
            append(prediction)
            return prediction

        def finish() -> None:
            # a recording run stores its entry only when the stream ends
            done = self._entries.get(key)
            if done is not None and done.program is program:
                done.prediction_columns[signature] = bytes(recorded)

        return record, finish

    def bind_wrong_paths(self, program: Program, start: int, total: int
                         ) -> Tuple[Dict[int, WalkPrefix],
                                    Optional[Callable[[], None]]]:
        """Bind the wrong-path walk memo for one run of a region.

        Returns ``(memo, finish)``: ``memo`` maps a mispredicted branch's
        ``seq`` to the prefix of its wrong-path walk recorded so far, and
        the run adds and extends prefixes in it as it walks.  When the
        region's entry is in memory, ``memo`` is the entry's own and
        ``finish`` is None.  Otherwise the run is recording the region, and
        ``finish()``, called once the run has consumed the whole region,
        stores ``memo`` on the entry the recording created.
        """
        key = (id(program), start, total)
        entry = self._entries.get(key)
        if entry is not None and entry.program is program:
            return entry.wrong_paths, None
        memo: Dict[int, WalkPrefix] = {}

        def finish() -> None:
            done = self._entries.get(key)
            if done is not None and done.program is program:
                done.wrong_paths = memo

        return memo, finish

    def record(self, machine: Machine, start: int, total: int,
               source: Iterator[DynamicUop]) -> Iterator[DynamicUop]:
        """Wrap a live stream so the region is cached once it completes.

        Must be called *after* any fast-forward, so the memory snapshot and
        start registers capture the region entry state.  If the consumer
        abandons the stream early nothing is stored.
        """
        program = machine.program
        pre_memory = machine.memory.copy()
        start_regs = list(machine.regs)
        start_pc = machine.pc
        start_seq = machine.seq

        def recording() -> Iterator[DynamicUop]:
            records: List[DynamicUop] = []
            append = records.append
            for record in source:
                append(record)
                yield record
            self._store(TraceEntry(
                program, start, total, records, pre_memory,
                start_regs, start_pc, start_seq,
                machine.pc, machine.seq, machine.halted))

        return recording()

    def _store(self, entry: TraceEntry, spill: bool = True) -> None:
        key = (id(entry.program), entry.start, entry.total)
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = entry
        while len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
        if spill and self.disk_dir is not None:
            self._spill_to_disk(entry)

    # -- disk persistence -------------------------------------------------

    def _disk_path(self, program: Program, start: int, total: int) -> str:
        key = (f"{program_fingerprint(program)}:{start}:{total}"
               f":v{FORMAT_VERSION}")
        name = hashlib.sha256(key.encode()).hexdigest()
        return os.path.join(self.disk_dir, f"{name}.trace")

    def _spill_to_disk(self, entry: TraceEntry) -> None:
        """Serialize an entry; failures only count, never propagate."""
        path = self._disk_path(entry.program, entry.start, entry.total)

        def encode() -> bytes:
            return pickle.dumps({
                "fingerprint": program_fingerprint(entry.program),
                "start": entry.start,
                "total": entry.total,
                "records": [(r.pc, r.seq, r.next_pc, r.taken, r.addr,
                             r.value, r.dst_value) for r in entry.records],
                "pre_memory": dict(entry.pre_memory._words),
                "start_regs": list(entry.start_regs),
                "start_pc": entry.start_pc,
                "start_seq": entry.start_seq,
                "final_pc": entry.final_pc,
                "final_seq": entry.final_seq,
                "halted": entry.halted,
            }, protocol=pickle.HIGHEST_PROTOCOL)

        if self._write_file(path, encode, _MAGIC, FORMAT_VERSION):
            self.spills += 1

    def _events_path(self, program: Program, start: int, total: int) -> str:
        key = (f"{program_fingerprint(program)}:{start}:{total}"
               f":events:v{EVENT_FORMAT_VERSION}")
        name = hashlib.sha256(key.encode()).hexdigest()
        return os.path.join(self.disk_dir, f"{name}.events")

    def _spill_events(self, program: Program, start: int, total: int,
                      columns: BranchColumns) -> None:
        """Write the ``.events`` sidecar; failures count, never propagate."""
        if self.disk_dir is None:
            return
        path = self._events_path(program, start, total)
        if self._write_file(
                path, lambda: pack_columns(columns,
                                           program_fingerprint(program)),
                EVENT_MAGIC, EVENT_FORMAT_VERSION):
            self.event_spills += 1

    def _write_file(self, path: str, encode: Callable[[], bytes],
                    magic: bytes, version: int) -> bool:
        """Frame and write ``encode()`` unless ``path`` exists already.

        True when this call wrote the file; an ``OSError`` counts a spill
        error and is never raised.
        """
        try:
            if os.path.exists(path):
                return False  # another worker (or a prior run) spilled it
            os.makedirs(self.disk_dir, exist_ok=True)
            write_framed(path, encode(), magic, version)
            return True
        except OSError:
            self.spill_errors += 1
            return False

    def _load_events(self, program: Program, start: int,
                     total: int) -> Optional[BranchColumns]:
        """Read a sidecar; any damage is a clean miss, not a crash."""
        return self._read_file(
            self._events_path(program, start, total),
            EVENT_MAGIC, EVENT_FORMAT_VERSION,
            lambda payload: unpack_columns(payload,
                                           program_fingerprint(program)))

    def _load_from_disk(self, program: Program, start: int,
                        total: int) -> Optional[TraceEntry]:
        """Deserialize an entry; any damage is a clean miss, not a crash.

        The entry's records reach a consumer that may never build a
        :class:`Machine` for the program — Branch Runahead's wrong-path
        walks run their uops' closures — so the load binds them.
        """

        def decode(payload: bytes) -> TraceEntry:
            data = pickle.loads(payload)
            if (data["fingerprint"] != program_fingerprint(program)
                    or data["start"] != start or data["total"] != total):
                raise ValueError("key mismatch")
            uops = ensure_compiled(program).uops
            records = [DynamicUop(uops[pc], seq, next_pc, taken, addr,
                                  value, dst_value)
                       for pc, seq, next_pc, taken, addr, value, dst_value
                       in data["records"]]
            pre_memory = Memory()
            pre_memory._words = dict(data["pre_memory"])
            return TraceEntry(program, start, total, records, pre_memory,
                              list(data["start_regs"]), data["start_pc"],
                              data["start_seq"], data["final_pc"],
                              data["final_seq"], data["halted"])

        return self._read_file(self._disk_path(program, start, total),
                               _MAGIC, FORMAT_VERSION, decode)

    def _read_file(self, path: str, magic: bytes, version: int,
                   decode: Callable[[bytes], object]):
        """``decode`` one framed file's payload; None when absent.

        Any damage — a bad frame, or ``decode`` raising — is a counted
        corrupt entry: the file is deleted best-effort so the next run
        respills it, and the caller sees a clean miss.
        """
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        try:
            return decode(read_framed(blob, magic, version))
        except Exception:
            self.corrupt_entries += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def clear(self) -> None:
        self._entries.clear()

    def register_into(self, scope) -> None:
        """Publish cache effectiveness counters (``host.trace_cache.*``)."""
        scope.counter("hits").set(self.hits)
        scope.counter("misses").set(self.misses)
        scope.counter("evictions").set(self.evictions)
        scope.gauge("entries").set(len(self._entries))
        scope.counter("prediction_hits").set(self.prediction_hits)
        scope.counter("prediction_misses").set(self.prediction_misses)
        if self.disk_dir is not None:
            scope.counter("disk_hits").set(self.disk_hits)
            scope.counter("disk_misses").set(self.disk_misses)
            scope.counter("spills").set(self.spills)
            scope.counter("spill_errors").set(self.spill_errors)
            scope.counter("corrupt_entries").set(self.corrupt_entries)
            scope.counter("event_disk_hits").set(self.event_disk_hits)
            scope.counter("event_spills").set(self.event_spills)
