"""The compiled simulation kernel: table-driven dispatch, no coroutines.

The generator kernel runs each (host, thread) application stream and every
cache-stack I/O path as a chain of nested generators; every resume
traverses the whole ``yield from`` delegation chain and every subroutine
return raises ``StopIteration``.  With compiled traces the *data* path
is already columnar (PR 5/7), so that per-request software overhead is
the replay bottleneck — exactly the framing of the host-stack survey in
PAPERS.md.

This module flattens the per-thread state machines (issue → RAM/flash
lookup → net → filer queue/service → fill/writeback) into table-driven
dispatch: each concurrent activity is a :class:`_Task` holding an
explicit stack of *frames* (small lists whose slot 0 is an integer
state code), and one closure per host executes frames in a single
``while`` loop branching on those codes.  No generators, no ``Process``
objects, no heap entries for straight-line service delays — a delay
that the generator kernel would fast-forward is fast-forwarded *inside*
the dispatch loop, and only genuinely concurrent waits (wire queueing,
filer contention, syncer periods, delayed flushes) touch the event
heap — syncer periods once per period, not once per host.

Bit-identicality contract (the drift gates enforce it):

* Every heap push in the generator kernel corresponds to exactly one heap
  push here, at the same simulated time, in the same order, so ties
  break identically.  The one exception is the periodic syncers: the
  generator kernel's same-period syncers wake as one contiguous run, which
  a single cohort task replays (see :func:`_syncer_cohorts`), so heap
  entries keep their relative order but not their sequence numbers.
* Every stateful call (store lookups, RNG draws, packet charges,
  directory notifications, admission/cleaning hooks, metric records)
  happens at the same simulated instant in the same order as the
  generator code in :mod:`repro.core.host` / :mod:`repro.core.machine`.
  Each state below is a transcription of a specific suspension point
  of those generators; when editing one side, edit the other.

Interoperation: background machinery that stays generator-based — the
cleaning controllers' loops, invalidation-traffic packets — runs
unchanged as ``Process`` objects on the same heap; ``_Task`` exposes
the same ``_resume_soon`` wakeup surface, so completions and resources
treat both alike.

Eligibility is conservative (see :func:`kernel_eligible`); ineligible
configurations fall back to the generator kernel, which remains the
reference implementation.
"""

from __future__ import annotations

import gc
import os
from heapq import heappop, heappush

from repro.cache.block import Medium
from repro.cache.policy import LRUPolicy
from repro.core.architectures import Architecture
from repro.core.metrics import LatencyStat
from repro.core.policies import PolicyKind
from repro.net.packet import Packet

#: Histogram geometry of :class:`LatencyStat`, bound once so the fused
#: issuer loop can inline ``record`` (same closed-form bucket index).
_LS_BASE = LatencyStat._BUCKET_BASE_NS
_LS_LAST = LatencyStat._N_BUCKETS - 1

#: Set to ``0`` to force the object (generator) kernel even when the
#: compiled kernel is eligible.
COMPILE_KERNEL_ENV = "REPRO_COMPILE_KERNEL"

_FALSEY = ("0", "false", "no", "off")

_PKT_REQUEST = Packet.request()
_PKT_DATA = Packet.data_block()
_PKT_ACK = Packet.ack()

_RAM = Medium.RAM
_FLASH = Medium.FLASH

_SYNC = PolicyKind.SYNC
_ASYNC = PolicyKind.ASYNC
_DELAYED = PolicyKind.DELAYED
_TRICKLE = PolicyKind.TRICKLE


class _Task:
    """One concurrent activity in the compiled kernel.

    The twin of :class:`repro.engine.simulation.Process`: lives in the
    same ``(time, seq)`` heap, blocks on the same ``Completion``
    objects, and obeys the same wakeup discipline — ``_resume_soon``
    is byte-for-byte the Process version, which is what lets resources
    and completions resume a task without knowing what it is.  Instead
    of a generator, it carries an explicit frame stack; ``execute`` is
    the owning host's dispatch closure.
    """

    __slots__ = ("sim", "frames", "ret", "execute", "_blocked")

    def __init__(self, sim, execute) -> None:
        self.sim = sim
        self.frames = []
        self.ret = None
        self.execute = execute
        self._blocked = False

    def _resume_soon(self, value) -> None:
        """Schedule this task to resume at the current simulated time."""
        if self._blocked:
            self._blocked = False
            self.sim.blocked_processes -= 1
        sim = self.sim
        sim._seq += 1
        heappush(sim._heap, (sim.now, sim._seq, self, value))


# --- state codes -----------------------------------------------------
#
# One integer per suspension point / continuation of the generators in
# host.py and machine.py.  Grouped by frame type; the dispatch chains
# below test the hot issuer states first.

# Issuer (one frame per application thread; slots:
#  [0]=state [1]=warmup iter (None once drained) [2]=measured iter
#  [3]=op [4]=start [5]=nblocks [6]=block index [7]=request start
#  [8]=block start [9]=measured flag [10]=current block [11]=medium)
ISS_ISSUE = 0
ISS_BLOCK_DONE = 1
ISS_NEXT_ROW = 2
ISS_W_AFTER_IR = 3
ISS_RHIT_AFTER_PROMOTE = 4
ISS_RFHIT_AFTER_DEV = 5
ISS_RMISS_AFTER_FR = 6
ISS_RMISS_AFTER_IF = 7
ISS_RNOFLASH_AFTER_FR = 8
ISS_W_HIT_AFTER_DEV = 9
ISS_W_AFTER_INSTALL = 10

#: Generic "pop the frame and return None to the caller" continuation.
RET_NONE = 11

# Filer round trip (_filer_read/_filer_write; slots:
#  [1]=up packet [2]=service fn [3]=down packet [4]=wire [5]=wire time)
NET_ENTER = 12
NET_ACQ_UP = 13
NET_REL_UP = 14
NET_AFTER_SERVICE = 15
NET_ACQ_DOWN = 16
NET_REL_DOWN = 17

# _install_ram (slots: [1]=block [2]=dirty [3]=victim block)
IR_ENTER = 18
IR_EVICT = 19
IR_AFTER_WB = 20

# _install_flash (slots: [1]=block [2]=dirty)
IF_ENTER = 21
IF_AFTER_ROOM = 22
IF_AFTER_WRITE = 23

# _make_flash_room (slots: [1]=incoming block [2]=victim entry)
MFR_LOOP = 24
MFR_AFTER_FW = 25
MFR_AFTER_RAMWB = 26

# _write_into_flash (slots: [1]=block)
WIF_ENTER = 27
WIF_AFTER_IF = 28

# lookaside _writeback_ram_data (slots: [1]=block)
WBR_ENTER = 29
WBR_LA_AFTER_FW = 30

# _flush_ram_block / _flush_flash_block (slots: [1]=block)
FRB_ENTER = 31
FF_ENTER = 32

# _after (slots: [1]=delay)
AF_SLEEP = 33
AF_DONE = 34

# unified _install (slots: [1]=block [2]=dirty [3]=victim entry
#  [4]=medium)
UIN_ENTER = 35
UIN_EVICT = 36
UIN_AFTER_FW = 37
UIN_AFTER_WRITE = 38

# unified _flush_block (slots: [1]=block)
UFB_ENTER = 39


class _HostExecutor:
    """Per-host handle: the dispatch closure plus spawn helpers."""

    __slots__ = ("execute", "spawn", "spawn_issuer", "start_syncers")

    def __init__(self, execute, spawn, spawn_issuer, start_syncers) -> None:
        self.execute = execute
        self.spawn = spawn
        self.spawn_issuer = spawn_issuer
        self.start_syncers = start_syncers


def kernel_eligible(system) -> bool:
    """Whether the compiled kernel replays this system bit-identically.

    Conservative: anything the flattened states do not transcribe —
    observability hooks, restart/recovery (a time-varying
    ``flash_online_at``), latency timelines, channel-limited flash
    devices (generator queueing), the exclusive/migration architecture
    — falls back to the generator kernel.
    """
    if os.environ.get(COMPILE_KERNEL_ENV, "").strip().lower() in _FALSEY:
        return False
    if system.obs is not None:
        return False
    if system.restart is not None:
        return False
    if system._timeline_bucket_ns is not None:
        return False
    if system.config.architecture not in (
        Architecture.NAIVE,
        Architecture.LOOKASIDE,
        Architecture.UNIFIED,
    ):
        return False
    directory_timing = system.config.timing.directory
    if directory_timing.lookup_ns or directory_timing.invalidate_ns:
        # Modeled directory latency inserts stalls on the write path
        # that the flattened state tables do not transcribe.
        return False
    for device in system.flash_devices:
        if device is not None and not device.unlimited_parallelism:
            return False
    return True


def replay_compiled_kernel(system, trace) -> None:
    """Compiled-kernel twin of ``System.replay`` (keep in
    sync): same warmup accounting, bit-identical results — but the
    application threads and cache-stack I/O paths run as table-driven
    tasks instead of generators.  Issuers and cleaning controllers are
    spawned in the same order; syncers that the generator kernel would
    spawn back to back with one period share one cohort task, which
    wakes them in that order (see :func:`_syncer_cohorts`)."""
    plan = trace.issuer_plan()
    system._blocks_until_measurement = trace.warmup_blocks()
    if system._blocks_until_measurement == 0:
        system._begin_measurement()
    system._active_threads = len(plan)
    executors = {}

    def executor_for(host_id):
        ctx = executors.get(host_id)
        if ctx is None:
            stack = system.hosts[host_id]
            if system.config.architecture is Architecture.UNIFIED:
                ctx = _unified_executor(system, stack)
            else:
                ctx = _layered_executor(
                    system,
                    stack,
                    naive=system.config.architecture is Architecture.NAIVE,
                )
            executors[host_id] = ctx
        return ctx

    for host_id, _thread_id, warmup_rows, measured_rows in plan:
        if host_id >= system.n_hosts:
            raise ValueError(
                "trace references host %d but the system has %d hosts"
                % (host_id, system.n_hosts)
            )
        executor_for(host_id).spawn_issuer(warmup_rows, measured_rows)
    join_syncer = _syncer_cohorts(system)
    for host in system.hosts:
        host.keep_running = lambda: system._active_threads > 0
        executor_for(host.host_id).start_syncers(join_syncer)
    sim = system.sim
    heap = sim._heap
    # Same rationale as System.replay: the run's allocations
    # are acyclic, so pause the cycle collector for the duration.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    sim._running = True
    try:
        # The mixed dispatch loop: tasks execute through their host's
        # closure; generator processes (cleaning controllers,
        # invalidation packets) step exactly as the generator kernel's
        # bounded-run path would.  Heap tuples never compare beyond the
        # sequence number, so the two kinds coexist in one heap.
        while heap:
            when, _seq, entry, value = heappop(heap)
            sim.now = when
            if entry.__class__ is _Task:
                entry.execute(entry, value)
            else:
                entry._step(value)
    finally:
        sim._running = False
        if gc_was_enabled:
            gc.enable()
    if system.invariants is not None:
        system.invariants.final()


def _syncer_cohorts(system):
    """Return ``join(period_ns, dirty, tick)``, which adds one periodic
    syncer to a cohort task.  A cohort wakes once per period for all its
    members, visits them in join order and calls ``tick`` (spawn one
    round's flushes) only for a member whose ``dirty`` set is non-empty.

    Exact (docs/ARCHITECTURE.md §3): syncers the generator kernel spawns
    back to back at one instant with one period wake as one contiguous
    run, which the cohort replays from the first member's heap place.
    So a member joins the open cohort only if it has the same period,
    starts at the same instant and nothing was spawned since
    (``sim._seq`` unchanged, so an interleaved cleaning controller
    splits it); otherwise it opens a new cohort.
    """
    sim = system.sim
    heap = sim._heap
    cohort = None  # (period_ns, start time, sim._seq after spawn, members)

    def spawn_cohort(period_ns, members):
        armed = False  # the first dispatch is the loop head: no round yet

        def execute(task, _value):
            nonlocal armed
            while True:
                if armed:
                    for dirty, tick in members:
                        if dirty:
                            tick()
                armed = True
                if system._active_threads <= 0:  # every host's keep_running
                    return
                when = sim.now + period_ns
                if when > sim.now and (not heap or when < heap[0][0]):
                    sim.now = when
                    continue
                sim._seq += 1
                heappush(heap, (when, sim._seq, task, None))
                return

        sim._seq += 1
        heappush(heap, (sim.now, sim._seq, _Task(sim, execute), None))

    def join(period_ns, dirty, tick):
        nonlocal cohort
        if cohort is None or cohort[:3] != (period_ns, sim.now, sim._seq):
            members = []
            spawn_cohort(period_ns, members)
            cohort = (period_ns, sim.now, sim._seq, members)
        cohort[3].append((dirty, tick))

    return join


def _layered_executor(system, stack, naive) -> _HostExecutor:
    """Build the dispatch closure for one naive/lookaside host.

    Every loop-invariant attribute is hoisted into the closure; each
    ``elif`` arm below transcribes one suspension point of the
    generators in :mod:`repro.core.host` (the comments name them).
    """
    sim = system.sim
    heap = sim._heap
    ram = stack.ram
    flash = stack.flash
    device = stack.flash_device
    charge = stack.segment.charge
    read_service = stack.filer.read_service_ns
    write_service = stack.filer.write_service_ns
    on_block_write = stack.directory.on_block_write
    note_present = stack._note_present
    note_maybe_gone = stack._note_maybe_gone
    host_id = stack.host_id
    admission = stack._admission
    cleaning = stack._cleaning
    has_ram = stack._has_ram
    ram_read_ns = stack._ram_read_ns
    ram_write_ns = stack._ram_write_ns
    config = stack.config
    ram_policy = config.ram_policy
    flash_policy = config.flash_policy
    ram_kind = ram_policy.kind
    flash_kind = flash_policy.kind
    ram_delay = ram_policy.flush_delay_ns if ram_kind is _DELAYED else 0
    flash_delay = flash_policy.flush_delay_ns if flash_kind is _DELAYED else 0
    if device is not None:
        dev_read = device.read_service_ns
        dev_write = device.write_service_ns
        trim = device.trim_block
    else:
        dev_read = dev_write = trim = None

    fleet = system.metrics
    host_m = system.host_metrics[host_id]
    fleet_read = fleet.read_latency.record
    fleet_write = fleet.write_latency.record
    host_read = host_m.read_latency.record
    host_write = host_m.write_latency.record
    req_read = fleet.read_request_latency.record
    req_write = fleet.write_request_latency.record
    record_completed = system._record_completed
    check_invariants = system.invariants is not None

    # Fused-loop bindings: the hot issuer arm reads these internals
    # directly instead of calling ``BlockStore.get``/``mark_dirty`` and
    # ``LatencyStat.record``.  All are construction-stable objects —
    # the entry dict, the stats counters, the dirty set and each
    # latency collector (histogram list included) reset in place at the
    # measurement boundary and are never replaced mid-run.
    if has_ram:
        ram_entries = ram._entries
        ram_stats = ram.stats
        ram_touch = ram._touch
        ram_dirty_add = ram._dirty.add
    else:
        ram_entries = ram_stats = ram_touch = ram_dirty_add = None
    ram_stepped = (
        ram_kind is _SYNC or ram_kind is _ASYNC or ram_kind is _DELAYED
    )
    fleet_rl = fleet.read_latency
    fleet_wl = fleet.write_latency
    host_rl = host_m.read_latency
    host_wl = host_m.write_latency
    req_rl = fleet.read_request_latency
    req_wl = fleet.write_request_latency
    directory = stack.directory
    dir_shards = directory._shards
    dir_shard_mask = directory._shard_mask
    # Accumulated measured-write counts flush into shard 0; only the
    # merged totals (summing properties) are signature-visible.
    dir_shard0 = dir_shards[0]
    writer_bit = 1 << host_id
    # Inline the LRU touch only while the store's ``_touch`` is still
    # the bare policy method — a ref ledger rebinds it at setup time,
    # and non-LRU policies keep the generic call.
    ram_lru_order = ram_lru_pop = None
    if (
        has_ram
        and type(ram._policy) is LRUPolicy
        and ram._touch == ram._policy.touch
    ):
        ram_lru_order = ram._policy._order
        ram_lru_pop = ram_lru_order.pop

    def _fr_frame():
        return [NET_ENTER, _PKT_REQUEST, read_service, _PKT_DATA, None, 0]

    def _fw_frame():
        return [NET_ENTER, _PKT_DATA, write_service, _PKT_ACK, None, 0]

    if naive:
        # NaiveStack._writeback_ram_data: into flash when present.
        def wbr_frame(block):
            if flash is not None:
                return [WIF_ENTER, block]
            return _fw_frame()
    else:
        # LookasideStack._writeback_ram_data: filer first, then flash.
        def wbr_frame(block):
            return [WBR_ENTER, block]

    def spawn(frames):
        # Twin of Simulator.spawn: one sequence number, scheduled now.
        task = _Task(sim, execute)
        task.frames = frames
        sim._seq += 1
        heappush(heap, (sim.now, sim._seq, task, None))

    def spawn_issuer(warmup_rows, measured_rows):
        spawn(
            [[
                ISS_NEXT_ROW, iter(warmup_rows), iter(measured_rows),
                0, 0, 0, 0, 0, 0, False, 0, None,
            ]]
        )

    def start_syncer(join, policy, store, flush_state):
        # One round of LayeredStack._syncer_loop is one ``tick``.
        period_ns = policy.period_ns
        trickle = policy.kind is _TRICKLE

        def tick():
            dirty = store.dirty_blocks()
            if trickle:
                spacing = period_ns // len(dirty)
                for index, blk in enumerate(dirty):
                    spawn([[flush_state, blk], [AF_SLEEP, index * spacing]])
            else:
                for blk in dirty:
                    spawn([[flush_state, blk]])

        join(period_ns, store._dirty, tick)

    def start_syncers(join):
        # Twin of LayeredStack.start_syncers (same order).
        if ram_policy.has_syncer and has_ram:
            start_syncer(join, ram_policy, ram, FRB_ENTER)
        if cleaning is not None:
            cleaning.start()
            return
        if flash_policy.has_syncer and flash is not None:
            start_syncer(join, flash_policy, flash, FF_ENTER)

    def execute(
        task,
        _value,
        # Default-argument binding: every state code and hot helper
        # becomes a LOAD_FAST local inside the dispatch chain instead
        # of a global lookup per comparison.  Callers pass only
        # (task, value); the defaults are never overridden.
        ISS_ISSUE=ISS_ISSUE,
        ISS_BLOCK_DONE=ISS_BLOCK_DONE,
        ISS_NEXT_ROW=ISS_NEXT_ROW,
        ISS_W_AFTER_IR=ISS_W_AFTER_IR,
        ISS_RHIT_AFTER_PROMOTE=ISS_RHIT_AFTER_PROMOTE,
        ISS_RFHIT_AFTER_DEV=ISS_RFHIT_AFTER_DEV,
        ISS_RMISS_AFTER_FR=ISS_RMISS_AFTER_FR,
        ISS_RMISS_AFTER_IF=ISS_RMISS_AFTER_IF,
        ISS_RNOFLASH_AFTER_FR=ISS_RNOFLASH_AFTER_FR,
        ISS_W_HIT_AFTER_DEV=ISS_W_HIT_AFTER_DEV,
        ISS_W_AFTER_INSTALL=ISS_W_AFTER_INSTALL,
        RET_NONE=RET_NONE,
        NET_ENTER=NET_ENTER,
        NET_ACQ_UP=NET_ACQ_UP,
        NET_REL_UP=NET_REL_UP,
        NET_AFTER_SERVICE=NET_AFTER_SERVICE,
        NET_ACQ_DOWN=NET_ACQ_DOWN,
        NET_REL_DOWN=NET_REL_DOWN,
        IR_ENTER=IR_ENTER,
        IR_EVICT=IR_EVICT,
        IR_AFTER_WB=IR_AFTER_WB,
        IF_ENTER=IF_ENTER,
        IF_AFTER_ROOM=IF_AFTER_ROOM,
        IF_AFTER_WRITE=IF_AFTER_WRITE,
        MFR_LOOP=MFR_LOOP,
        MFR_AFTER_FW=MFR_AFTER_FW,
        MFR_AFTER_RAMWB=MFR_AFTER_RAMWB,
        WIF_ENTER=WIF_ENTER,
        WIF_AFTER_IF=WIF_AFTER_IF,
        WBR_ENTER=WBR_ENTER,
        WBR_LA_AFTER_FW=WBR_LA_AFTER_FW,
        FRB_ENTER=FRB_ENTER,
        FF_ENTER=FF_ENTER,
        AF_SLEEP=AF_SLEEP,
        AF_DONE=AF_DONE,
        UIN_ENTER=UIN_ENTER,
        UIN_EVICT=UIN_EVICT,
        UIN_AFTER_FW=UIN_AFTER_FW,
        UIN_AFTER_WRITE=UIN_AFTER_WRITE,
        UFB_ENTER=UFB_ENTER,
        _RAM=_RAM,
        _FLASH=_FLASH,
        _SYNC=_SYNC,
        _ASYNC=_ASYNC,
        _DELAYED=_DELAYED,
        heappush=heappush,
        ram_entries=ram_entries,
        ram_stats=ram_stats,
        ram_touch=ram_touch,
        ram_dirty_add=ram_dirty_add,
        ram_stepped=ram_stepped,
        fleet_rl=fleet_rl,
        fleet_wl=fleet_wl,
        host_rl=host_rl,
        host_wl=host_wl,
        req_rl=req_rl,
        req_wl=req_wl,
        LS_BASE=_LS_BASE,
        LS_BASE1=_LS_BASE - 1,
        LS_LAST=_LS_LAST,
        dir_shards=dir_shards,
        dir_shard_mask=dir_shard_mask,
        dir_shard0=dir_shard0,
        writer_bit=writer_bit,
        ram_lru_order=ram_lru_order,
        ram_lru_pop=ram_lru_pop,
    ):
        frames = task.frames
        while True:
            f = frames[-1]
            s = f[0]
            # ---- issuer --------------------------------------------
            if s < 2:  # ISS_ISSUE (0) / ISS_BLOCK_DONE (1), fused
                # Fused straight-line loop: consecutive RAM-resident
                # blocks run entirely inside this arm.  Frame slots
                # stay in locals; ``sim.now`` lives in ``now`` and is
                # written back only when a non-inlined call could
                # observe it or the arm exits; the store hit path, the
                # LRU touch and the directory write check are inlined;
                # and per-block metric records collapse into run-length
                # accumulators (consecutive hit blocks share one
                # constant latency per mode), flushed once on exit.
                # Accumulated state is commutative integer arithmetic
                # on objects no other task reads mid-run, so flushed
                # totals are bit-identical to per-block updates; every
                # order-sensitive effect (RNG draws, store mutations,
                # the measurement boundary) happens at the same instant
                # in the same order as the generic arms this replaces.
                write = f[3]
                nb = f[5]
                idx = f[6]
                block_start = f[8]
                measured = f[9]
                blk = f[10]
                now = sim.now
                # No other task runs between this arm's suspensions,
                # so the earliest pending event is a loop invariant —
                # refreshed only after calls that may schedule work.
                horizon = heap[0][0] if heap else None
                ar_lat = aw_lat = -1          # run-length latency accs
                ar_n = aw_n = 0
                acc_lk = acc_ht = acc_ms = 0  # ram store counters
                acc_dw = 0                    # directory write counter
                # Exit protocol: set one action and break; the tail
                # flushes every accumulator exactly once, then acts.
                bail_push = -1
                bail_frame = None
                bail_ret = False
                skip_issue = s  # resumed after a delay: bookkeep first
                while True:
                    if skip_issue:
                        skip_issue = 0
                    elif write:
                        # write_block: directory first, then RAM tier.
                        # on_block_write inlined — the measured-write
                        # counter accumulates and the no-remote-copy
                        # case short-circuits; remote copies take the
                        # real call (which may schedule invalidation
                        # traffic, hence the horizon refresh).
                        holders = dir_shards[blk & dir_shard_mask].holders.get(blk)
                        if not holders or holders == writer_bit:
                            if measured:
                                acc_dw += 1
                        else:
                            if acc_dw:
                                dir_shard0.block_writes += acc_dw
                                acc_dw = 0
                            sim.now = now
                            on_block_write(host_id, blk, measured)
                            horizon = heap[0][0] if heap else None
                        if not has_ram:
                            sim.now = now
                            f[6] = idx
                            f[8] = block_start
                            f[10] = blk
                            f[0] = ISS_BLOCK_DONE
                            if flash is not None:
                                bail_frame = [WIF_ENTER, blk]
                            else:
                                bail_frame = _fw_frame()
                            break
                        existing = ram_entries.get(blk)
                        if existing is None:
                            sim.now = now
                            f[6] = idx
                            f[8] = block_start
                            f[10] = blk
                            f[0] = ISS_W_AFTER_IR
                            bail_frame = [IR_ENTER, blk, True, 0]
                            break
                        # _install_ram refresh hit: ram.get(blk) then
                        # ram.mark_dirty(blk), inlined.
                        acc_lk += 1
                        acc_ht += 1
                        if ram_lru_pop is None:
                            ram_touch(blk)
                        else:
                            ram_lru_order[blk] = ram_lru_pop(blk)
                        existing.dirty = True
                        ram_dirty_add(blk)
                        when = now + ram_write_ns
                        if ram_stepped:
                            # sync/async/delayed policies take the
                            # ISS_W_AFTER_IR arm after the delay.
                            f[6] = idx
                            f[8] = block_start
                            f[10] = blk
                            f[0] = ISS_W_AFTER_IR
                            if when > now and (
                                horizon is None or when < horizon
                            ):
                                sim.now = when
                                break
                            sim.now = now
                            bail_push = when
                            break
                        if when > now and (horizon is None or when < horizon):
                            now = when
                        else:
                            sim.now = now
                            f[6] = idx
                            f[8] = block_start
                            f[10] = blk
                            f[0] = ISS_BLOCK_DONE
                            bail_push = when
                            break
                    else:
                        # read_block down to the first suspension.
                        entry = None
                        if has_ram:
                            acc_lk += 1
                            entry = ram_entries.get(blk)
                        if entry is None:
                            if has_ram:
                                acc_ms += 1
                            sim.now = now
                            f[6] = idx
                            f[8] = block_start
                            f[10] = blk
                            if flash is not None and (
                                now >= stack.flash_online_at
                            ):
                                fentry = flash.get(blk)
                                if fentry is not None:
                                    f[0] = ISS_RFHIT_AFTER_DEV
                                    when = now + dev_read(blk)
                                    if when > now and (
                                        horizon is None or when < horizon
                                    ):
                                        sim.now = when
                                        break
                                    bail_push = when
                                    break
                                f[0] = ISS_RMISS_AFTER_FR
                                bail_frame = _fr_frame()
                                break
                            f[0] = ISS_RNOFLASH_AFTER_FR
                            bail_frame = _fr_frame()
                            break
                        acc_ht += 1
                        if ram_lru_pop is None:
                            ram_touch(blk)
                        else:
                            ram_lru_order[blk] = ram_lru_pop(blk)
                        if admission is not None:
                            sim.now = now
                            if (
                                admission.promote_on_hit(ram.ref_count(blk))
                                and flash is not None
                                and now >= stack.flash_online_at
                                and flash.peek(blk) is None
                            ):
                                f[6] = idx
                                f[8] = block_start
                                f[10] = blk
                                f[0] = ISS_RHIT_AFTER_PROMOTE
                                bail_frame = [IF_ENTER, blk, False]
                                break
                        # Pure RAM hit: the replay fast path.
                        when = now + ram_read_ns
                        if when > now and (horizon is None or when < horizon):
                            now = when
                        else:
                            sim.now = now
                            f[6] = idx
                            f[8] = block_start
                            f[10] = blk
                            f[0] = ISS_BLOCK_DONE
                            bail_push = when
                            break
                    # -- block bookkeeping (was ISS_BLOCK_DONE) ------
                    if measured:
                        lat = now - block_start
                        if write:
                            if lat == aw_lat:
                                aw_n += 1
                            else:
                                if aw_n:
                                    q = (aw_lat + LS_BASE1) // LS_BASE
                                    i = (q - 1).bit_length() if q > 1 else 0
                                    if i > LS_LAST:
                                        i = LS_LAST
                                    st = fleet_wl
                                    st.count += aw_n
                                    st.total_ns += aw_lat * aw_n
                                    mn = st.min_ns
                                    if mn is None or aw_lat < mn:
                                        st.min_ns = aw_lat
                                    if aw_lat > st.max_ns:
                                        st.max_ns = aw_lat
                                    st._buckets[i] += aw_n
                                    sk = st.sketch
                                    if sk is not None:
                                        for _r in range(aw_n):
                                            sk.record(aw_lat)
                                    fleet.blocks_written += aw_n
                                    st = host_wl
                                    st.count += aw_n
                                    st.total_ns += aw_lat * aw_n
                                    mn = st.min_ns
                                    if mn is None or aw_lat < mn:
                                        st.min_ns = aw_lat
                                    if aw_lat > st.max_ns:
                                        st.max_ns = aw_lat
                                    st._buckets[i] += aw_n
                                    sk = st.sketch
                                    if sk is not None:
                                        for _r in range(aw_n):
                                            sk.record(aw_lat)
                                    host_m.blocks_written += aw_n
                                    aw_n = 0
                                aw_lat = lat
                                aw_n = 1
                        else:
                            if lat == ar_lat:
                                ar_n += 1
                            else:
                                if ar_n:
                                    q = (ar_lat + LS_BASE1) // LS_BASE
                                    i = (q - 1).bit_length() if q > 1 else 0
                                    if i > LS_LAST:
                                        i = LS_LAST
                                    st = fleet_rl
                                    st.count += ar_n
                                    st.total_ns += ar_lat * ar_n
                                    mn = st.min_ns
                                    if mn is None or ar_lat < mn:
                                        st.min_ns = ar_lat
                                    if ar_lat > st.max_ns:
                                        st.max_ns = ar_lat
                                    st._buckets[i] += ar_n
                                    sk = st.sketch
                                    if sk is not None:
                                        for _r in range(ar_n):
                                            sk.record(ar_lat)
                                    fleet.blocks_read += ar_n
                                    st = host_rl
                                    st.count += ar_n
                                    st.total_ns += ar_lat * ar_n
                                    mn = st.min_ns
                                    if mn is None or ar_lat < mn:
                                        st.min_ns = ar_lat
                                    if ar_lat > st.max_ns:
                                        st.max_ns = ar_lat
                                    st._buckets[i] += ar_n
                                    sk = st.sketch
                                    if sk is not None:
                                        for _r in range(ar_n):
                                            sk.record(ar_lat)
                                    host_m.blocks_read += ar_n
                                    ar_n = 0
                                ar_lat = lat
                                ar_n = 1
                    idx += 1
                    if idx < nb:
                        blk += 1
                        block_start = now
                        continue
                    # -- request bookkeeping + next row --------------
                    if measured:
                        lat = now - f[7]
                        st = req_wl if write else req_rl
                        st.count += 1
                        st.total_ns += lat
                        mn = st.min_ns
                        if mn is None or lat < mn:
                            st.min_ns = lat
                        if lat > st.max_ns:
                            st.max_ns = lat
                        q = (lat + LS_BASE1) // LS_BASE
                        i = (q - 1).bit_length() if q > 1 else 0
                        if i > LS_LAST:
                            i = LS_LAST
                        st._buckets[i] += 1
                        if st.sketch is not None:
                            st.sketch.record(lat)
                    if check_invariants or system._measurement_started_at is None:
                        # Flush the store counters before the
                        # measurement boundary can reset them in place.
                        if acc_lk:
                            ram_stats.lookups += acc_lk
                            acc_lk = 0
                        if acc_ht:
                            ram_stats.hits += acc_ht
                            acc_ht = 0
                        if acc_ms:
                            ram_stats.misses += acc_ms
                            acc_ms = 0
                        sim.now = now
                        record_completed(nb)
                        horizon = heap[0][0] if heap else None
                    it = f[1]
                    if it is not None:
                        row = next(it, None)
                        if row is None:
                            f[1] = None
                            f[9] = measured = True
                            row = next(f[2], None)
                    else:
                        row = next(f[2], None)
                    if row is None:
                        sim.now = now
                        system._active_threads -= 1
                        frames.pop()
                        if frames:
                            break
                        bail_ret = True
                        break
                    write, start, nb = row
                    f[3] = write
                    f[4] = start
                    f[5] = nb
                    idx = 0
                    blk = start
                    f[7] = now
                    block_start = now
                # -- fused-loop exit: flush once, then act -----------
                if ar_n:
                    q = (ar_lat + LS_BASE1) // LS_BASE
                    i = (q - 1).bit_length() if q > 1 else 0
                    if i > LS_LAST:
                        i = LS_LAST
                    st = fleet_rl
                    st.count += ar_n
                    st.total_ns += ar_lat * ar_n
                    mn = st.min_ns
                    if mn is None or ar_lat < mn:
                        st.min_ns = ar_lat
                    if ar_lat > st.max_ns:
                        st.max_ns = ar_lat
                    st._buckets[i] += ar_n
                    sk = st.sketch
                    if sk is not None:
                        for _r in range(ar_n):
                            sk.record(ar_lat)
                    fleet.blocks_read += ar_n
                    st = host_rl
                    st.count += ar_n
                    st.total_ns += ar_lat * ar_n
                    mn = st.min_ns
                    if mn is None or ar_lat < mn:
                        st.min_ns = ar_lat
                    if ar_lat > st.max_ns:
                        st.max_ns = ar_lat
                    st._buckets[i] += ar_n
                    sk = st.sketch
                    if sk is not None:
                        for _r in range(ar_n):
                            sk.record(ar_lat)
                    host_m.blocks_read += ar_n
                    ar_n = 0
                if aw_n:
                    q = (aw_lat + LS_BASE1) // LS_BASE
                    i = (q - 1).bit_length() if q > 1 else 0
                    if i > LS_LAST:
                        i = LS_LAST
                    st = fleet_wl
                    st.count += aw_n
                    st.total_ns += aw_lat * aw_n
                    mn = st.min_ns
                    if mn is None or aw_lat < mn:
                        st.min_ns = aw_lat
                    if aw_lat > st.max_ns:
                        st.max_ns = aw_lat
                    st._buckets[i] += aw_n
                    sk = st.sketch
                    if sk is not None:
                        for _r in range(aw_n):
                            sk.record(aw_lat)
                    fleet.blocks_written += aw_n
                    st = host_wl
                    st.count += aw_n
                    st.total_ns += aw_lat * aw_n
                    mn = st.min_ns
                    if mn is None or aw_lat < mn:
                        st.min_ns = aw_lat
                    if aw_lat > st.max_ns:
                        st.max_ns = aw_lat
                    st._buckets[i] += aw_n
                    sk = st.sketch
                    if sk is not None:
                        for _r in range(aw_n):
                            sk.record(aw_lat)
                    host_m.blocks_written += aw_n
                    aw_n = 0
                if acc_lk:
                    ram_stats.lookups += acc_lk
                if acc_ht:
                    ram_stats.hits += acc_ht
                if acc_ms:
                    ram_stats.misses += acc_ms
                if acc_dw:
                    dir_shard0.block_writes += acc_dw
                if bail_push >= 0:
                    sim._seq += 1
                    heappush(heap, (bail_push, sim._seq, task, None))
                    return
                if bail_frame is not None:
                    frames.append(bail_frame)
                elif bail_ret:
                    return
                continue
            elif s == ISS_NEXT_ROW:
                it = f[1]
                if it is not None:
                    row = next(it, None)
                    if row is None:
                        f[1] = None
                        f[9] = True
                        row = next(f[2], None)
                else:
                    row = next(f[2], None)
                if row is None:
                    system._active_threads -= 1
                    frames.pop()
                    if frames:
                        continue
                    return
                f[3], f[4], f[5] = row
                f[6] = 0
                f[10] = f[4]
                now = sim.now
                f[7] = now
                f[8] = now
                f[0] = ISS_ISSUE
                continue
            elif s == ISS_W_AFTER_IR:
                # write_block's policy step after the RAM install.
                blk = f[10]
                f[0] = ISS_BLOCK_DONE
                if ram_kind is _SYNC:
                    frames.append([FRB_ENTER, blk])
                elif ram_kind is _ASYNC:
                    spawn([[FRB_ENTER, blk]])
                elif ram_kind is _DELAYED:
                    spawn([[FRB_ENTER, blk], [AF_SLEEP, ram_delay]])
                continue
            elif s == RET_NONE:
                frames.pop()
                task.ret = None
                if frames:
                    continue
                return
            elif s == ISS_RHIT_AFTER_PROMOTE:
                f[0] = ISS_BLOCK_DONE
                when = sim.now + ram_read_ns
                if when > sim.now and (not heap or when < heap[0][0]):
                    sim.now = when
                    continue
                sim._seq += 1
                heappush(heap, (when, sim._seq, task, None))
                return
            elif s == ISS_RFHIT_AFTER_DEV:
                f[0] = ISS_BLOCK_DONE
                frames.append([IR_ENTER, f[10], False, 0])
                continue
            elif s == ISS_RMISS_AFTER_FR:
                f[0] = ISS_RMISS_AFTER_IF
                frames.append([IF_ENTER, f[10], False])
                continue
            elif s == ISS_RMISS_AFTER_IF:
                f[0] = ISS_BLOCK_DONE
                frames.append([IR_ENTER, f[10], False, 0])
                continue
            elif s == ISS_RNOFLASH_AFTER_FR:
                f[0] = ISS_BLOCK_DONE
                frames.append([IR_ENTER, f[10], False, 0])
                continue
            # ---- filer round trip ----------------------------------
            elif s == NET_ENTER:
                wire, wire_time = charge(f[1], "up")
                f[4] = wire
                f[5] = wire_time
                if wire.try_acquire():
                    f[0] = NET_REL_UP
                    when = sim.now + wire_time
                    if when > sim.now and (not heap or when < heap[0][0]):
                        sim.now = when
                        continue
                    sim._seq += 1
                    heappush(heap, (when, sim._seq, task, None))
                    return
                f[0] = NET_ACQ_UP
                grant = wire.acquire()
                task._blocked = True
                sim.blocked_processes += 1
                grant._waiters.append(task)
                return
            elif s == NET_ACQ_UP:
                f[0] = NET_REL_UP
                when = sim.now + f[5]
                if when > sim.now and (not heap or when < heap[0][0]):
                    sim.now = when
                    continue
                sim._seq += 1
                heappush(heap, (when, sim._seq, task, None))
                return
            elif s == NET_REL_UP:
                f[4].release()
                f[0] = NET_AFTER_SERVICE
                when = sim.now + f[2]()  # filer service (RNG draw here)
                if when > sim.now and (not heap or when < heap[0][0]):
                    sim.now = when
                    continue
                sim._seq += 1
                heappush(heap, (when, sim._seq, task, None))
                return
            elif s == NET_AFTER_SERVICE:
                wire, wire_time = charge(f[3], "down")
                f[4] = wire
                f[5] = wire_time
                if wire.try_acquire():
                    f[0] = NET_REL_DOWN
                    when = sim.now + wire_time
                    if when > sim.now and (not heap or when < heap[0][0]):
                        sim.now = when
                        continue
                    sim._seq += 1
                    heappush(heap, (when, sim._seq, task, None))
                    return
                f[0] = NET_ACQ_DOWN
                grant = wire.acquire()
                task._blocked = True
                sim.blocked_processes += 1
                grant._waiters.append(task)
                return
            elif s == NET_ACQ_DOWN:
                f[0] = NET_REL_DOWN
                when = sim.now + f[5]
                if when > sim.now and (not heap or when < heap[0][0]):
                    sim.now = when
                    continue
                sim._seq += 1
                heappush(heap, (when, sim._seq, task, None))
                return
            elif s == NET_REL_DOWN:
                f[4].release()
                frames.pop()
                task.ret = None
                if frames:
                    continue
                return
            # ---- _install_ram --------------------------------------
            elif s == IR_ENTER:
                if not has_ram:
                    frames.pop()
                    task.ret = None
                    if frames:
                        continue
                    return
                blk = f[1]
                existing = ram.peek(blk)
                if existing is not None:
                    ram.get(blk)
                    if f[2]:
                        ram.mark_dirty(blk)
                    f[0] = RET_NONE
                    when = sim.now + ram_write_ns
                    if when > sim.now and (not heap or when < heap[0][0]):
                        sim.now = when
                        continue
                    sim._seq += 1
                    heappush(heap, (when, sim._seq, task, None))
                    return
                f[0] = IR_EVICT
                continue
            elif s == IR_EVICT:
                # One eviction step per dispatch (the generator's
                # ``while ram.is_full()`` loop head).
                blk = f[1]
                if ram.is_full():
                    victim = ram.pop_victim()
                    if victim is not None:
                        if flash is not None:
                            flash.unpin(victim.block)
                        if victim.dirty:
                            f[3] = victim.block
                            f[0] = IR_AFTER_WB
                            frames.append(wbr_frame(victim.block))
                            continue
                        note_maybe_gone(victim.block)
                        if ram.peek(blk) is None:
                            continue
                        if f[2]:
                            ram.mark_dirty(blk)
                        f[0] = RET_NONE
                        when = sim.now + ram_write_ns
                        if when > sim.now and (not heap or when < heap[0][0]):
                            sim.now = when
                            continue
                        sim._seq += 1
                        heappush(heap, (when, sim._seq, task, None))
                        return
                ram.put(blk, _RAM, dirty=f[2])
                if flash is not None:
                    flash.pin(blk)
                note_present(blk)
                f[0] = RET_NONE
                when = sim.now + ram_write_ns
                if when > sim.now and (not heap or when < heap[0][0]):
                    sim.now = when
                    continue
                sim._seq += 1
                heappush(heap, (when, sim._seq, task, None))
                return
            elif s == IR_AFTER_WB:
                note_maybe_gone(f[3])
                blk = f[1]
                if ram.peek(blk) is None:
                    f[0] = IR_EVICT
                    continue
                if f[2]:
                    ram.mark_dirty(blk)
                f[0] = RET_NONE
                when = sim.now + ram_write_ns
                if when > sim.now and (not heap or when < heap[0][0]):
                    sim.now = when
                    continue
                sim._seq += 1
                heappush(heap, (when, sim._seq, task, None))
                return
            # ---- _install_flash ------------------------------------
            elif s == IF_ENTER:
                blk = f[1]
                if flash is None or sim.now < stack.flash_online_at:
                    frames.pop()
                    task.ret = True
                    if frames:
                        continue
                    return
                existing = flash.peek(blk)
                if existing is None:
                    if admission is not None and not admission.admit_fill(
                        blk, ram.ref_count(blk), sim.now
                    ):
                        frames.pop()
                        task.ret = False
                        if frames:
                            continue
                        return
                    f[0] = IF_AFTER_ROOM
                    frames.append([MFR_LOOP, blk, None])
                    continue
                flash.get(blk)  # touch
                if admission is not None:
                    admission.note_update(sim.now)
                f[0] = IF_AFTER_WRITE
                when = sim.now + dev_write(blk)
                if when > sim.now and (not heap or when < heap[0][0]):
                    sim.now = when
                    continue
                sim._seq += 1
                heappush(heap, (when, sim._seq, task, None))
                return
            elif s == IF_AFTER_ROOM:
                blk = f[1]
                if flash.peek(blk) is None:
                    flash.put(blk, _FLASH, dirty=False, pinned=blk in ram)
                    note_present(blk)
                f[0] = IF_AFTER_WRITE
                when = sim.now + dev_write(blk)
                if when > sim.now and (not heap or when < heap[0][0]):
                    sim.now = when
                    continue
                sim._seq += 1
                heappush(heap, (when, sim._seq, task, None))
                return
            elif s == IF_AFTER_WRITE:
                blk = f[1]
                if flash.peek(blk) is None:
                    trim(blk)
                elif f[2]:
                    flash.mark_dirty(blk)
                    if cleaning is not None:
                        cleaning.note_dirtied(blk, sim.now)
                frames.pop()
                task.ret = True
                if frames:
                    continue
                return
            # ---- _make_flash_room ----------------------------------
            elif s == MFR_LOOP:
                if flash.is_full():
                    victim = flash.pop_victim()
                    if victim is not None:
                        trim(victim.block)
                        if victim.dirty:
                            f[2] = victim
                            f[0] = MFR_AFTER_FW
                            frames.append(_fw_frame())
                            continue
                        if victim.pinned:
                            ram_copy = ram.remove(victim.block)
                            if ram_copy is not None and ram_copy.dirty:
                                f[2] = victim
                                f[0] = MFR_AFTER_RAMWB
                                frames.append(wbr_frame(victim.block))
                                continue
                        note_maybe_gone(victim.block)
                        if flash.peek(f[1]) is None:
                            continue
                frames.pop()
                task.ret = None
                if frames:
                    continue
                return
            elif s == MFR_AFTER_FW:
                victim = f[2]
                if victim.pinned:
                    ram_copy = ram.remove(victim.block)
                    if ram_copy is not None and ram_copy.dirty:
                        f[0] = MFR_AFTER_RAMWB
                        frames.append(wbr_frame(victim.block))
                        continue
                note_maybe_gone(victim.block)
                if flash.peek(f[1]) is not None:
                    frames.pop()
                    task.ret = None
                    if frames:
                        continue
                    return
                f[0] = MFR_LOOP
                continue
            elif s == MFR_AFTER_RAMWB:
                note_maybe_gone(f[2].block)
                if flash.peek(f[1]) is not None:
                    frames.pop()
                    task.ret = None
                    if frames:
                        continue
                    return
                f[0] = MFR_LOOP
                continue
            # ---- _write_into_flash ---------------------------------
            elif s == WIF_ENTER:
                if flash is not None and sim.now < stack.flash_online_at:
                    frames[-1] = _fw_frame()
                    continue
                f[0] = WIF_AFTER_IF
                frames.append([IF_ENTER, f[1], True])
                continue
            elif s == WIF_AFTER_IF:
                if not task.ret:
                    frames[-1] = _fw_frame()
                    continue
                blk = f[1]
                if flash_kind is _SYNC:
                    frames[-1] = [FF_ENTER, blk]
                    continue
                if flash_kind is _ASYNC:
                    spawn([[FF_ENTER, blk]])
                elif flash_kind is _DELAYED:
                    spawn([[FF_ENTER, blk], [AF_SLEEP, flash_delay]])
                frames.pop()
                task.ret = None
                if frames:
                    continue
                return
            # ---- lookaside _writeback_ram_data ---------------------
            elif s == WBR_ENTER:
                f[0] = WBR_LA_AFTER_FW
                frames.append(_fw_frame())
                continue
            elif s == WBR_LA_AFTER_FW:
                if flash is not None:
                    frames[-1] = [IF_ENTER, f[1], False]
                    continue
                frames.pop()
                task.ret = None
                if frames:
                    continue
                return
            # ---- flushes -------------------------------------------
            elif s == FRB_ENTER:
                blk = f[1]
                entry = ram.peek(blk)
                if entry is None or not entry.dirty:
                    frames.pop()
                    task.ret = None
                    if frames:
                        continue
                    return
                ram.mark_clean(blk)
                frames[-1] = wbr_frame(blk)
                continue
            elif s == FF_ENTER:
                if sim.now < stack.flash_online_at:
                    frames.pop()
                    task.ret = None
                    if frames:
                        continue
                    return
                blk = f[1]
                entry = flash.peek(blk)
                if entry is None or not entry.dirty:
                    frames.pop()
                    task.ret = None
                    if frames:
                        continue
                    return
                flash.mark_clean(blk)
                frames[-1] = _fw_frame()
                continue
            # ---- delayed flushes -----------------------------------
            elif s == AF_SLEEP:
                f[0] = AF_DONE
                delay = f[1]
                if delay > 0:
                    when = sim.now + delay
                    if when > sim.now and (not heap or when < heap[0][0]):
                        sim.now = when
                        continue
                    sim._seq += 1
                    heappush(heap, (when, sim._seq, task, None))
                    return
                sim._seq += 1
                heappush(heap, (sim.now, sim._seq, task, None))
                return
            elif s == AF_DONE:
                frames.pop()
                task.ret = None
                continue
            else:  # pragma: no cover - state table corruption
                raise AssertionError("unknown layered state %r" % s)

    return _HostExecutor(execute, spawn, spawn_issuer, start_syncers)


def _unified_executor(system, stack) -> _HostExecutor:
    """Build the dispatch closure for one unified-architecture host."""
    sim = system.sim
    heap = sim._heap
    cache = stack.cache
    device = stack.flash_device
    charge = stack.segment.charge
    read_service = stack.filer.read_service_ns
    write_service = stack.filer.write_service_ns
    directory = stack.directory
    on_block_write = directory.on_block_write
    note_copy = directory.note_copy
    note_drop = directory.note_drop
    host_id = stack.host_id
    ram_read_ns = stack._ram_read_ns
    ram_write_ns = stack._ram_write_ns
    allocate_medium = stack._allocate_medium
    release_medium = stack._release_medium
    config = stack.config
    ram_policy = config.ram_policy
    flash_policy = config.flash_policy
    ram_kind = ram_policy.kind
    flash_kind = flash_policy.kind
    ram_delay = ram_policy.flush_delay_ns if ram_kind is _DELAYED else 0
    flash_delay = flash_policy.flush_delay_ns if flash_kind is _DELAYED else 0
    if device is not None:
        dev_read = device.read_service_ns
        dev_write = device.write_service_ns
        trim = device.trim_block
    else:
        dev_read = dev_write = trim = None

    fleet = system.metrics
    host_m = system.host_metrics[host_id]
    fleet_read = fleet.read_latency.record
    fleet_write = fleet.write_latency.record
    host_read = host_m.read_latency.record
    host_write = host_m.write_latency.record
    req_read = fleet.read_request_latency.record
    req_write = fleet.write_request_latency.record
    record_completed = system._record_completed
    check_invariants = system.invariants is not None

    def _fr_frame():
        return [NET_ENTER, _PKT_REQUEST, read_service, _PKT_DATA, None, 0]

    def _fw_frame():
        return [NET_ENTER, _PKT_DATA, write_service, _PKT_ACK, None, 0]

    def spawn(frames):
        task = _Task(sim, execute)
        task.frames = frames
        sim._seq += 1
        heappush(heap, (sim.now, sim._seq, task, None))

    def spawn_issuer(warmup_rows, measured_rows):
        spawn(
            [[
                ISS_NEXT_ROW, iter(warmup_rows), iter(measured_rows),
                0, 0, 0, 0, 0, 0, False, 0, None,
            ]]
        )

    def start_syncer(join, policy, medium):
        # One round of UnifiedStack._syncer_loop is one ``tick``.
        period_ns = policy.period_ns
        trickle = policy.kind is _TRICKLE

        def tick():
            dirty = [
                blk
                for blk in cache.dirty_blocks()
                if (entry := cache.peek(blk)) is not None
                and entry.medium is medium
            ]
            if dirty:
                spacing = period_ns // len(dirty) if trickle else 0
                for index, blk in enumerate(dirty):
                    spawn([[UFB_ENTER, blk], [AF_SLEEP, index * spacing]])

        join(period_ns, cache._dirty, tick)

    def start_syncers(join):
        # Twin of UnifiedStack.start_syncers (same order).
        if ram_policy.has_syncer:
            start_syncer(join, ram_policy, _RAM)
        if flash_policy.has_syncer:
            start_syncer(join, flash_policy, _FLASH)

    def _policy_step(f, frames, blk, medium):
        """write_block's policy dispatch; returns True if a sync flush
        frame was pushed (the caller just continues either way)."""
        f[0] = ISS_BLOCK_DONE
        if medium is _RAM:
            kind = ram_kind
            delay = ram_delay
        else:
            kind = flash_kind
            delay = flash_delay
        if kind is _SYNC:
            frames.append([UFB_ENTER, blk])
        elif kind is _ASYNC:
            spawn([[UFB_ENTER, blk]])
        elif kind is _DELAYED:
            spawn([[UFB_ENTER, blk], [AF_SLEEP, delay]])

    def execute(
        task,
        _value,
        # Default-argument binding: every state code and hot helper
        # becomes a LOAD_FAST local inside the dispatch chain instead
        # of a global lookup per comparison.  Callers pass only
        # (task, value); the defaults are never overridden.
        ISS_ISSUE=ISS_ISSUE,
        ISS_BLOCK_DONE=ISS_BLOCK_DONE,
        ISS_NEXT_ROW=ISS_NEXT_ROW,
        ISS_W_AFTER_IR=ISS_W_AFTER_IR,
        ISS_RHIT_AFTER_PROMOTE=ISS_RHIT_AFTER_PROMOTE,
        ISS_RFHIT_AFTER_DEV=ISS_RFHIT_AFTER_DEV,
        ISS_RMISS_AFTER_FR=ISS_RMISS_AFTER_FR,
        ISS_RMISS_AFTER_IF=ISS_RMISS_AFTER_IF,
        ISS_RNOFLASH_AFTER_FR=ISS_RNOFLASH_AFTER_FR,
        ISS_W_HIT_AFTER_DEV=ISS_W_HIT_AFTER_DEV,
        ISS_W_AFTER_INSTALL=ISS_W_AFTER_INSTALL,
        RET_NONE=RET_NONE,
        NET_ENTER=NET_ENTER,
        NET_ACQ_UP=NET_ACQ_UP,
        NET_REL_UP=NET_REL_UP,
        NET_AFTER_SERVICE=NET_AFTER_SERVICE,
        NET_ACQ_DOWN=NET_ACQ_DOWN,
        NET_REL_DOWN=NET_REL_DOWN,
        IR_ENTER=IR_ENTER,
        IR_EVICT=IR_EVICT,
        IR_AFTER_WB=IR_AFTER_WB,
        IF_ENTER=IF_ENTER,
        IF_AFTER_ROOM=IF_AFTER_ROOM,
        IF_AFTER_WRITE=IF_AFTER_WRITE,
        MFR_LOOP=MFR_LOOP,
        MFR_AFTER_FW=MFR_AFTER_FW,
        MFR_AFTER_RAMWB=MFR_AFTER_RAMWB,
        WIF_ENTER=WIF_ENTER,
        WIF_AFTER_IF=WIF_AFTER_IF,
        WBR_ENTER=WBR_ENTER,
        WBR_LA_AFTER_FW=WBR_LA_AFTER_FW,
        FRB_ENTER=FRB_ENTER,
        FF_ENTER=FF_ENTER,
        AF_SLEEP=AF_SLEEP,
        AF_DONE=AF_DONE,
        UIN_ENTER=UIN_ENTER,
        UIN_EVICT=UIN_EVICT,
        UIN_AFTER_FW=UIN_AFTER_FW,
        UIN_AFTER_WRITE=UIN_AFTER_WRITE,
        UFB_ENTER=UFB_ENTER,
        _RAM=_RAM,
        _FLASH=_FLASH,
        _SYNC=_SYNC,
        _ASYNC=_ASYNC,
        _DELAYED=_DELAYED,
        heappush=heappush,
    ):
        frames = task.frames
        while True:
            f = frames[-1]
            s = f[0]
            if s == ISS_ISSUE:
                blk = f[10]
                if f[3]:
                    # UnifiedStack.write_block
                    on_block_write(host_id, blk, f[9])
                    entry = cache.get(blk)
                    if entry is not None:
                        cache.mark_dirty(blk)
                        medium = entry.medium
                        f[11] = medium
                        f[0] = ISS_W_HIT_AFTER_DEV
                        if medium is _RAM:
                            when = sim.now + ram_write_ns
                        else:
                            when = sim.now + dev_write(blk)
                        if when > sim.now and (not heap or when < heap[0][0]):
                            sim.now = when
                            continue
                        sim._seq += 1
                        heappush(heap, (when, sim._seq, task, None))
                        return
                    f[0] = ISS_W_AFTER_INSTALL
                    frames.append([UIN_ENTER, blk, True, None, None])
                    continue
                # UnifiedStack.read_block
                entry = cache.get(blk)
                if entry is not None:
                    f[0] = ISS_BLOCK_DONE
                    if entry.medium is _RAM:
                        when = sim.now + ram_read_ns
                    else:
                        when = sim.now + dev_read(blk)
                    if when > sim.now and (not heap or when < heap[0][0]):
                        sim.now = when
                        continue
                    sim._seq += 1
                    heappush(heap, (when, sim._seq, task, None))
                    return
                f[0] = ISS_RMISS_AFTER_FR
                frames.append(_fr_frame())
                continue
            elif s == ISS_BLOCK_DONE:
                now = sim.now
                if f[9]:
                    latency = now - f[8]
                    if f[3]:
                        fleet_write(latency)
                        fleet.blocks_written += 1
                        host_write(latency)
                        host_m.blocks_written += 1
                    else:
                        fleet_read(latency)
                        fleet.blocks_read += 1
                        host_read(latency)
                        host_m.blocks_read += 1
                idx = f[6] + 1
                if idx < f[5]:
                    f[6] = idx
                    f[10] += 1
                    f[8] = now
                    f[0] = ISS_ISSUE
                    continue
                if f[9]:
                    if f[3]:
                        req_write(now - f[7])
                    else:
                        req_read(now - f[7])
                if check_invariants or system._measurement_started_at is None:
                    record_completed(f[5])
                f[0] = ISS_NEXT_ROW
                continue
            elif s == ISS_NEXT_ROW:
                it = f[1]
                if it is not None:
                    row = next(it, None)
                    if row is None:
                        f[1] = None
                        f[9] = True
                        row = next(f[2], None)
                else:
                    row = next(f[2], None)
                if row is None:
                    system._active_threads -= 1
                    frames.pop()
                    if frames:
                        continue
                    return
                f[3], f[4], f[5] = row
                f[6] = 0
                f[10] = f[4]
                now = sim.now
                f[7] = now
                f[8] = now
                f[0] = ISS_ISSUE
                continue
            elif s == RET_NONE:
                frames.pop()
                task.ret = None
                if frames:
                    continue
                return
            elif s == ISS_RMISS_AFTER_FR:
                f[0] = ISS_BLOCK_DONE
                frames.append([UIN_ENTER, f[10], False, None, None])
                continue
            elif s == ISS_W_HIT_AFTER_DEV:
                blk = f[10]
                # _reclaim_if_gone
                if f[11] is _FLASH and cache.peek(blk) is None:
                    trim(blk)
                _policy_step(f, frames, blk, f[11])
                continue
            elif s == ISS_W_AFTER_INSTALL:
                medium = task.ret
                blk = f[10]
                if medium is None:
                    # Zero-capacity cache: write straight through.
                    f[0] = ISS_BLOCK_DONE
                    frames.append(_fw_frame())
                    continue
                _policy_step(f, frames, blk, medium)
                continue
            # ---- filer round trip (same states as layered) ---------
            elif s == NET_ENTER:
                wire, wire_time = charge(f[1], "up")
                f[4] = wire
                f[5] = wire_time
                if wire.try_acquire():
                    f[0] = NET_REL_UP
                    when = sim.now + wire_time
                    if when > sim.now and (not heap or when < heap[0][0]):
                        sim.now = when
                        continue
                    sim._seq += 1
                    heappush(heap, (when, sim._seq, task, None))
                    return
                f[0] = NET_ACQ_UP
                grant = wire.acquire()
                task._blocked = True
                sim.blocked_processes += 1
                grant._waiters.append(task)
                return
            elif s == NET_ACQ_UP:
                f[0] = NET_REL_UP
                when = sim.now + f[5]
                if when > sim.now and (not heap or when < heap[0][0]):
                    sim.now = when
                    continue
                sim._seq += 1
                heappush(heap, (when, sim._seq, task, None))
                return
            elif s == NET_REL_UP:
                f[4].release()
                f[0] = NET_AFTER_SERVICE
                when = sim.now + f[2]()
                if when > sim.now and (not heap or when < heap[0][0]):
                    sim.now = when
                    continue
                sim._seq += 1
                heappush(heap, (when, sim._seq, task, None))
                return
            elif s == NET_AFTER_SERVICE:
                wire, wire_time = charge(f[3], "down")
                f[4] = wire
                f[5] = wire_time
                if wire.try_acquire():
                    f[0] = NET_REL_DOWN
                    when = sim.now + wire_time
                    if when > sim.now and (not heap or when < heap[0][0]):
                        sim.now = when
                        continue
                    sim._seq += 1
                    heappush(heap, (when, sim._seq, task, None))
                    return
                f[0] = NET_ACQ_DOWN
                grant = wire.acquire()
                task._blocked = True
                sim.blocked_processes += 1
                grant._waiters.append(task)
                return
            elif s == NET_ACQ_DOWN:
                f[0] = NET_REL_DOWN
                when = sim.now + f[5]
                if when > sim.now and (not heap or when < heap[0][0]):
                    sim.now = when
                    continue
                sim._seq += 1
                heappush(heap, (when, sim._seq, task, None))
                return
            elif s == NET_REL_DOWN:
                f[4].release()
                frames.pop()
                task.ret = None
                if frames:
                    continue
                return
            # ---- _install ------------------------------------------
            elif s == UIN_ENTER:
                if cache.capacity_blocks == 0:
                    frames.pop()
                    task.ret = None
                    if frames:
                        continue
                    return
                blk = f[1]
                existing = cache.peek(blk)
                if existing is None:
                    f[0] = UIN_EVICT
                    continue
                if f[2]:
                    cache.mark_dirty(blk)
                f[4] = existing.medium
                f[0] = UIN_AFTER_WRITE
                if existing.medium is _RAM:
                    when = sim.now + ram_write_ns
                else:
                    when = sim.now + dev_write(blk)
                if when > sim.now and (not heap or when < heap[0][0]):
                    sim.now = when
                    continue
                sim._seq += 1
                heappush(heap, (when, sim._seq, task, None))
                return
            elif s == UIN_EVICT:
                blk = f[1]
                if cache.is_full():
                    victim = cache.pop_victim()
                    if victim is not None:
                        release_medium(victim.medium)
                        if victim.medium is _FLASH:
                            trim(victim.block)
                        if victim.dirty:
                            f[3] = victim
                            f[0] = UIN_AFTER_FW
                            frames.append(_fw_frame())
                            continue
                        if victim.block not in cache:
                            note_drop(host_id, victim.block)
                        existing = cache.peek(blk)
                        if existing is None:
                            continue
                        if f[2]:
                            cache.mark_dirty(blk)
                        f[4] = existing.medium
                        f[0] = UIN_AFTER_WRITE
                        if existing.medium is _RAM:
                            when = sim.now + ram_write_ns
                        else:
                            when = sim.now + dev_write(blk)
                        if when > sim.now and (not heap or when < heap[0][0]):
                            sim.now = when
                            continue
                        sim._seq += 1
                        heappush(heap, (when, sim._seq, task, None))
                        return
                medium = allocate_medium()  # RNG draw, same point
                cache.put(blk, medium, dirty=f[2])
                note_copy(host_id, blk)
                f[4] = medium
                f[0] = UIN_AFTER_WRITE
                if medium is _RAM:
                    when = sim.now + ram_write_ns
                else:
                    when = sim.now + dev_write(blk)
                if when > sim.now and (not heap or when < heap[0][0]):
                    sim.now = when
                    continue
                sim._seq += 1
                heappush(heap, (when, sim._seq, task, None))
                return
            elif s == UIN_AFTER_FW:
                victim = f[3]
                if victim.block not in cache:
                    note_drop(host_id, victim.block)
                blk = f[1]
                existing = cache.peek(blk)
                if existing is None:
                    f[0] = UIN_EVICT
                    continue
                if f[2]:
                    cache.mark_dirty(blk)
                f[4] = existing.medium
                f[0] = UIN_AFTER_WRITE
                if existing.medium is _RAM:
                    when = sim.now + ram_write_ns
                else:
                    when = sim.now + dev_write(blk)
                if when > sim.now and (not heap or when < heap[0][0]):
                    sim.now = when
                    continue
                sim._seq += 1
                heappush(heap, (when, sim._seq, task, None))
                return
            elif s == UIN_AFTER_WRITE:
                medium = f[4]
                blk = f[1]
                if medium is _FLASH and cache.peek(blk) is None:
                    trim(blk)
                frames.pop()
                task.ret = medium
                if frames:
                    continue
                return
            # ---- _flush_block --------------------------------------
            elif s == UFB_ENTER:
                blk = f[1]
                entry = cache.peek(blk)
                if entry is None or not entry.dirty:
                    frames.pop()
                    task.ret = None
                    if frames:
                        continue
                    return
                cache.mark_clean(blk)
                frames[-1] = _fw_frame()
                continue
            # ---- delayed flushes -----------------------------------
            elif s == AF_SLEEP:
                f[0] = AF_DONE
                delay = f[1]
                if delay > 0:
                    when = sim.now + delay
                    if when > sim.now and (not heap or when < heap[0][0]):
                        sim.now = when
                        continue
                    sim._seq += 1
                    heappush(heap, (when, sim._seq, task, None))
                    return
                sim._seq += 1
                heappush(heap, (sim.now, sim._seq, task, None))
                return
            elif s == AF_DONE:
                frames.pop()
                task.ret = None
                continue
            else:  # pragma: no cover - state table corruption
                raise AssertionError("unknown unified state %r" % s)

    return _HostExecutor(execute, spawn, spawn_issuer, start_syncers)
