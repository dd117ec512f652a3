"""Array-backed asynchronous event engine for large-scale gossip runs.

:class:`FastEventEngine` executes the same asynchronous model as
:class:`~repro.simulation.event_engine.EventEngine` -- per-node periodic
timers at random phases, per-message latency and loss, passive replies on
delivery -- over the shared flat-array protocol kernel
(:class:`~repro.simulation.arrayviews.FlatArrayEngine`) instead of one
``GossipNode`` object per peer and one ``(float, counter, object)`` tuple
per scheduled event.  The paper's cycle-based findings only become
credible at scale if they survive this regime; the object-per-node event
engine tops out around 10^3 nodes, this engine sustains 10^4..10^5.

Execution model
---------------

Time is kept in exact integer *ticks*, ``ticks_per_period`` per gossip
period, on a :class:`~repro.simulation.scheduler.TickScheduler` -- a
binary heap of packed integers (tick, FIFO sequence number, event word)
with no per-event allocation.  The event word encodes a kind (timer /
request delivery / reply delivery) and either a node id or a *message
slot*: in-flight payloads live in a pooled flat buffer of ``c + 1``
descriptor slots per message (ids + hop counts + source/destination),
recycled through a free-list, so even the messages in flight allocate
nothing on the hot path.

Latency and loss are sampled per message from the same
:class:`~repro.simulation.network.LatencyModel` /
:class:`~repro.simulation.network.LossModel` objects the reference event
engine uses; float delays are mapped to ticks by one monotone
multiplication.

Equivalence with ``EventEngine``
--------------------------------

The engine consumes the RNG call-for-call like the reference event
engine (phase ``uniform`` per join, one ``_randbelow`` per ``rand`` peer
selection, loss before latency per message, merge-truncation draws
inside the kernel) and orders events exactly like the float scheduler up
to tick quantization: the tick map is monotone, and at the default
resolution of 2^40 ticks per period two distinct float event times
practically never collide into one tick.  For matched seeds the overlays
are therefore *byte-identical* to ``EventEngine``'s, which
``tests/simulation/test_fast_event_differential.py`` pins across
protocols, latency/loss models and churn.

Execution backends
------------------

The dispatch loop has two interchangeable implementations, and both
produce byte-identical results:

- the whole-slice C loop (``fc_event_run`` in
  :mod:`~repro.simulation._fastcore`), which runs whenever the C core is
  loaded, the RNG is a plain ``random.Random``, descriptor validation is
  off and the latency and loss models are built-in ones (``NoLoss`` /
  ``BernoulliLoss``; ``ConstantLatency`` / ``UniformLatency`` /
  ``ExponentialLatency``).  The heap, the message pool and the Mersenne
  Twister state stay in C between cycle boundaries; observers run in
  Python at every boundary with the RNG state handed back.  Partitions
  are data the C loop reads (see
  :meth:`~repro.simulation.arrayviews.FlatArrayEngine.set_partition`),
  so partitioned runs stay on it;
- the pure-Python loop over the kernel primitives, which runs in every
  other case: no C compiler (or ``REPRO_NO_ACCEL``), a custom latency or
  loss model, a custom RNG, or validated descriptors.  It also finishes
  a slice in which a boundary observer swapped in a model the C loop
  cannot express.

An installed :class:`~repro.adversary.harness.FastEventAdversary`
supplies its own Python loop instead of either.

Differences from the cycle engines
----------------------------------

- ``run(cycles)`` advances simulated time by ``cycles`` gossip periods;
  on average every node initiates once per period, and observers fire at
  period boundaries, so metrics are directly comparable.
- There is no per-cycle activation permutation: interleaving emerges
  from the timer phases.
- ``lockstep_phases=True`` starts every timer at phase zero (and skips
  the per-join phase draw), which reproduces cycle-engine-like rounds;
  with zero latency and no loss the degree distributions match the
  cycle engines statistically (a property test pins this).
"""

from __future__ import annotations

import random
from array import array
from heapq import heapify, heappop, heappush
from itertools import compress
from typing import Optional

from repro.core.config import ProtocolConfig
from repro.core.descriptor import Address
from repro.core.errors import ConfigurationError, SimulationError
from repro.core.policies import PeerSelection
from repro.simulation._fastcore import Accelerator
from repro.simulation.arrayviews import FlatArrayEngine, group_cut
from repro.simulation.base import NodeFactory
from repro.simulation.network import (
    BernoulliLoss,
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    LossModel,
    NoLoss,
    UniformLatency,
)
from repro.simulation.scheduler import TickScheduler

__all__ = ["FastEventEngine", "DEFAULT_TICKS_PER_PERIOD"]

DEFAULT_TICKS_PER_PERIOD = 1 << 40
"""Default tick resolution: fine enough that distinct float event times
of the reference engine essentially never share a tick (which is what
makes the differential byte-identity achievable), coarse enough that a
300-period run stays far below the scheduler's packing headroom."""

# Event word layout (TickScheduler data): kind << 26 | index.
_KIND_SHIFT = 26
_IDX_MASK = (1 << _KIND_SHIFT) - 1
_DATA_BITS = _KIND_SHIFT + 2
_TIMER = 0 << _KIND_SHIFT      # index = node id
_REQUEST = 1 << _KIND_SHIFT    # index = message slot
_REPLY = 2 << _KIND_SHIFT      # index = message slot


class FastEventEngine(FlatArrayEngine):
    """Asynchronous timer-and-message executor over flat array storage.

    Parameters
    ----------
    config, seed, rng:
        As in :class:`~repro.simulation.base.BaseEngine`.  Custom
        ``node_factory`` protocols are not supported (use
        :class:`~repro.simulation.event_engine.EventEngine`).
    period:
        Gossip period ``T``: simulated time between a node's activations.
    latency:
        Per-message delay model (default: constant ``period / 10``).
    loss:
        Per-message drop model (default: no loss).
    accelerate:
        As in :class:`~repro.simulation.fast.FastCycleEngine`.
    accelerator:
        An explicit (e.g. *private*) C-core instance -- see
        :class:`~repro.simulation.arrayviews.FlatArrayEngine`.  With a
        private instance per engine, several engines can run their C
        event loops concurrently from different threads: ``fc_event_run``
        executes without the GIL (ctypes releases it for the duration of
        the call) and touches only its own library's globals.
    ticks_per_period:
        Integer tick resolution of the scheduler (see module docstring).
    lockstep_phases:
        Start every timer at phase zero instead of a uniformly random
        phase (and consume no phase draw), producing cycle-like lockstep
        rounds.  Diverges from ``EventEngine``'s RNG stream; meant for
        controlled experiments, not differential runs.

    Example
    -------
    >>> from repro import FastEventEngine, newscast
    >>> from repro.simulation.network import UniformLatency, BernoulliLoss
    >>> from repro.simulation.scenarios import random_bootstrap
    >>> engine = FastEventEngine(
    ...     newscast(view_size=10), seed=1,
    ...     latency=UniformLatency(0.05, 0.2), loss=BernoulliLoss(0.01),
    ... )
    >>> random_bootstrap(engine, n_nodes=100)
    >>> engine.run(cycles=20)
    >>> engine.cycle
    20
    """

    shuffle_each_cycle: bool = False
    """No per-cycle permutation exists in the asynchronous model; node
    interleaving emerges from the timer phases."""

    adversary = None
    """An installed :class:`~repro.adversary.harness.FastEventAdversary`,
    or ``None``.  While installed it supplies the event-dispatch loop
    (pure Python, RNG-parity with ``EventEngine`` + wrapped nodes) for
    the whole run -- the attack window may open at any cycle boundary,
    so the honest C slice cannot be trusted across boundaries."""

    def __init__(
        self,
        config: Optional[ProtocolConfig] = None,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
        node_factory: Optional[NodeFactory] = None,
        period: float = 1.0,
        latency: Optional[LatencyModel] = None,
        loss: Optional[LossModel] = None,
        omniscient_peer_selection: bool = True,
        accelerate: Optional[bool] = None,
        accelerator: Optional[Accelerator] = None,
        ticks_per_period: int = DEFAULT_TICKS_PER_PERIOD,
        lockstep_phases: bool = False,
    ) -> None:
        super().__init__(
            config=config,
            seed=seed,
            rng=rng,
            node_factory=node_factory,
            omniscient_peer_selection=omniscient_peer_selection,
            accelerate=accelerate,
            accelerator=accelerator,
        )
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        if int(ticks_per_period) < 1:
            raise ConfigurationError(
                f"ticks_per_period must be >= 1, got {ticks_per_period}"
            )
        self.period = period
        self.latency = latency if latency is not None else ConstantLatency(period / 10)
        self.loss = loss if loss is not None else NoLoss()
        self.ticks_per_period = int(ticks_per_period)
        self.lockstep_phases = lockstep_phases
        self._tick_scale = self.ticks_per_period / period
        self._sched = TickScheduler(data_bits=_DATA_BITS)
        self._boundary_index = 0  # boundary k sits at exactly k * ticks_per_period
        self.messages_sent = 0
        self.messages_lost = 0
        # message slot pool: c + 1 descriptor slots per in-flight payload.
        self._slot_stride = self.config.view_size + 1
        self._zero_slot = bytes(8 * self._slot_stride)
        self._m_ids = array("q")
        self._m_hops = array("q")
        self._m_len = array("q")
        self._m_src = array("q")
        self._m_dst = array("q")
        self._free_slots: list = []
        # slots in [0, _pool_fresh) are in circulation (free or in flight);
        # [_pool_fresh, len(_m_len)) are preallocated untouched headroom
        # for the whole-slice C loop.
        self._pool_fresh = 0
        # MT19937 state scratch for the accelerated path
        self._rstate = array("q", bytes(8 * 625))

    # -- clocks ------------------------------------------------------------

    @property
    def now_tick(self) -> int:
        """Current simulated time in scheduler ticks."""
        return self._sched.now_tick

    @property
    def now(self) -> float:
        """Current simulated time in the same units as ``period``."""
        return self._sched.now_tick / self.ticks_per_period * self.period

    # -- population hooks --------------------------------------------------

    def _on_node_added(self, address: Address) -> None:
        node_id = self._id_of[address]
        if node_id > _IDX_MASK:
            raise ConfigurationError(
                f"population exceeds {_IDX_MASK + 1} distinct addresses "
                "(event word capacity)"
            )
        if self.lockstep_phases:
            phase = 0
        else:
            # Random initial phase desynchronizes the node activations;
            # same draw as the reference event engine.
            phase = int(
                self.rng.uniform(0.0, self.period) * self._tick_scale
            )
        self._sched.push(self._sched.now_tick + phase, _TIMER | node_id)

    # -- message slot pool -------------------------------------------------

    def _new_slot(self) -> int:
        """Take a never-used slot (the free-list was empty), growing the
        pool by one when no preallocated headroom is left."""
        slot = self._pool_fresh
        if slot < len(self._m_len):
            self._pool_fresh = slot + 1
            return slot
        if slot > _IDX_MASK:
            raise ConfigurationError(
                f"more than {_IDX_MASK + 1} messages in flight "
                "(event word capacity)"
            )
        self._grow_pool(1)
        self._pool_fresh = slot + 1
        return slot

    def _grow_pool(self, slots: int) -> None:
        """Append up to ``slots`` untouched headroom slots to the pool.

        Growth is clamped to the event word's 26-bit slot capacity; once
        the pool is exhausted this raises the same clean
        :class:`~repro.core.errors.ConfigurationError` the per-slot path
        does -- the C loop's bulk-growth requests must never mint slot
        indices whose bits would bleed into the event kind field.
        """
        capacity = _IDX_MASK + 1
        available = capacity - len(self._m_len)
        if available <= 0:
            raise ConfigurationError(
                f"more than {capacity} messages in flight "
                "(event word capacity)"
            )
        slots = min(slots, available)
        zero = bytes(8 * slots)
        self._m_len.frombytes(zero)
        self._m_src.frombytes(zero)
        self._m_dst.frombytes(zero)
        self._m_ids.frombytes(self._zero_slot * slots)
        self._m_hops.frombytes(self._zero_slot * slots)

    def _event_setup(self, accel: Accelerator) -> None:
        """Register the message pool buffers with the C core."""
        pointer = Accelerator.pointer
        accel.event_setup(
            pointer(self._m_ids.buffer_info()[0]),
            pointer(self._m_hops.buffer_info()[0]),
            pointer(self._m_len.buffer_info()[0]),
            pointer(self._m_src.buffer_info()[0]),
            pointer(self._m_dst.buffer_info()[0]),
        )

    # -- execution ---------------------------------------------------------

    def run(self, cycles: int) -> None:
        """Advance time by ``cycles`` gossip periods."""
        self.run_ticks(cycles * self.ticks_per_period)

    def run_cycle(self) -> None:
        """Advance time by one gossip period."""
        self.run_ticks(self.ticks_per_period)

    def run_time(self, duration: float) -> None:
        """Advance simulated time by ``duration`` (same units as ``period``).

        The tick conversion uses the exact float expression
        ``round(duration / period * ticks_per_period)`` -- the same one
        ``EventEngine.run_time`` applies to its integer time grid -- so
        chained ``run_time`` calls accumulate identically on both
        engines (a pre-rounded reciprocal can differ by one tick).
        """
        self.run_ticks(
            round(duration / self.period * self.ticks_per_period)
        )

    def run_ticks(self, duration_ticks: int) -> None:
        """Advance simulated time by ``duration_ticks`` scheduler ticks."""
        if duration_ticks < 0:
            raise ConfigurationError(
                f"cannot run a negative duration: {duration_ticks}"
            )
        sched = self._sched
        end = sched.now_tick + int(duration_ticks)
        while True:
            # Skip the dispatch machinery (and, on the whole-slice C
            # path, a full heap migration round-trip) when no pending
            # event can fire within this slice.
            next_tick = sched.peek_tick()
            if next_tick is None or next_tick > end:
                pass
            elif (adversary := self.adversary) is not None:
                adversary.run_events(self, end)
            elif (
                (accel := self._accel) is not None
                and not self.config.validate_descriptors
                and type(self.rng) is random.Random
                and (codes := self._c_model_codes()) is not None
            ):
                # The whole dispatch loop (heap included) runs natively
                # in C.  It bails out early if a boundary observer swaps
                # in a model it cannot express; the Python loop then
                # finishes the slice.
                if not self._run_events_c_full(accel, end, codes):
                    self._run_events_python(end)
            else:
                self._run_events_python(end)
            # No events left at or before `end`.  Trailing boundaries are
            # fired one at a time, re-entering the dispatch loop after
            # each: observers may *create* work (the growing scenario
            # adds nodes whose timers must fire within this same run),
            # exactly like the reference engine's run_time.
            next_boundary = (self._boundary_index + 1) * self.ticks_per_period
            if next_boundary <= end:
                self._fire_boundaries(next_boundary)
                continue
            break
        sched.now_tick = end

    def _c_model_codes(self):
        """Loss/latency parameters for the all-C loop, or ``None``.

        Only the built-in model classes are expressible: the C side
        reproduces their exact ``random.Random`` float expressions (see
        ``fc_event_run``), so results stay byte-identical with the
        Python loop.  Custom models run on the Python loop.
        """
        loss = self.loss
        if type(loss) is NoLoss:
            loss_code, loss_p = 0, 0.0
        elif type(loss) is BernoulliLoss:
            loss_code, loss_p = 1, loss.probability
        else:
            return None
        latency = self.latency
        if type(latency) is ConstantLatency:
            lat = (0, int(latency.delay * self._tick_scale), 0.0, 0.0)
        elif type(latency) is UniformLatency:
            lat = (1, 0, latency.low, latency.high - latency.low)
        elif type(latency) is ExponentialLatency:
            # ExponentialLatency.sample calls expovariate(1.0 / mean).
            lat = (2, 0, 1.0 / latency.mean, 0.0)
        else:
            return None
        return (loss_code, loss_p) + lat

    def _specialized_models(self):
        """Constant-fold the built-in loss/latency models for the hot loop.

        Returns ``(no_loss, bernoulli_p, constant_delay_ticks, uniform)``:
        draw-free models are skipped entirely (``NoLoss`` consumes no RNG,
        ``ConstantLatency`` folds to one precomputed tick count) and the
        two stochastic built-ins reduce to a single ``random()`` draw
        inlined at the call site with exactly the float expression
        ``random.Random`` would evaluate, so the RNG stream is unchanged.
        Anything else (``None`` markers) goes through the generic
        ``drops``/``sample`` calls.
        """
        loss = self.loss
        no_loss = type(loss) is NoLoss
        bernoulli_p = (
            loss.probability if type(loss) is BernoulliLoss else None
        )
        latency = self.latency
        constant_delay = (
            int(latency.delay * self._tick_scale)
            if type(latency) is ConstantLatency
            else None
        )
        uniform = (
            (latency.low, latency.high - latency.low)
            if type(latency) is UniformLatency
            else None
        )
        return no_loss, bernoulli_p, constant_delay, uniform

    def _hot_bindings(self, tick_shift: int):
        """Hot-loop bindings derived from observable engine state.

        Everything returned here is state the reference event engine
        reads per send and that boundary observers may legitimately swap
        mid-run (models can be replaced): both interpreter loops bind it
        at slice start AND re-bind through this one helper after every
        cycle boundary, so they cannot drift apart on re-binding
        semantics.  Returns ``(latency_sample, loss_drops, no_loss,
        bernoulli_p, constant_delay, uniform, constant_delay_key)``.
        """
        no_loss, bernoulli_p, constant_delay, uniform = (
            self._specialized_models()
        )
        return (
            self.latency.sample,
            self.loss.drops,
            no_loss,
            bernoulli_p,
            constant_delay,
            uniform,
            constant_delay << tick_shift
            if constant_delay is not None
            else None,
        )

    def _fire_boundaries(self, up_to_tick: int) -> None:
        # Boundary k is the exact integer product k * ticks_per_period.
        ticks_per_period = self.ticks_per_period
        while (self._boundary_index + 1) * ticks_per_period <= up_to_tick:
            self._boundary_index += 1
            self.cycle += 1
            self._notify_after_cycle()
            self._notify_before_cycle()

    # -- the pure-Python event loop ----------------------------------------

    def _run_events_python(self, end: int) -> None:
        """Dispatch all events up to ``end``, kernel primitives in Python.

        Mirrors ``EventEngine.run_time`` decision for decision and draw
        for draw -- see the module docstring for the equivalence
        argument.  Counters are accumulated locally and flushed before
        every cycle boundary so observers see up-to-date totals.
        """
        sched = self._sched
        heap = sched._heap
        tick_shift = sched._tick_shift
        seq_shift = sched._seq_shift
        data_mask = sched._data_mask
        seq = sched._seq
        config = self.config
        c = config.view_size
        stride = self._slot_stride
        ticks_per_period = self.ticks_per_period
        tick_scale = self._tick_scale
        rng = self.rng
        randrange = rng.randrange
        merge_into = self._merge_into
        vids = self._vids
        vhops = self._vhops
        vlen = self._vlen
        row_of = self._row_of
        alive = self._alive
        group = self._group
        m_ids = self._m_ids
        m_hops = self._m_hops
        m_len = self._m_len
        m_src = self._m_src
        m_dst = self._m_dst
        free_slots = self._free_slots
        push_proto = config.push
        pull = config.pull
        peer_sel = config.peer_selection
        ps_rand = peer_sel is PeerSelection.RAND
        ps_head = peer_sel is PeerSelection.HEAD
        omniscient = self.omniscient_peer_selection
        validating = config.validate_descriptors
        if validating:
            from repro.defenses.validation import sanitize_indexed
        inc = (1).__add__
        alive_at = alive.__getitem__
        rand = rng.random
        (
            latency_sample,
            loss_drops,
            no_loss,
            bernoulli_p,
            constant_delay,
            uniform,
            constant_delay_key,
        ) = self._hot_bindings(tick_shift)
        free_pop = free_slots.pop
        free_append = free_slots.append
        completed = 0
        failed = 0
        sent = 0
        lost = 0
        next_boundary = (self._boundary_index + 1) * ticks_per_period
        # Control flow compares raw packed keys, not unpacked ticks: for
        # any threshold tick T, key < T << shift  <=>  tick < T, because
        # the low (seq | data) bits are always below 1 << shift.
        end_key = ((end + 1) << tick_shift) - 1
        boundary_key = next_boundary << tick_shift
        period_key = ticks_per_period << tick_shift
        tick_mask = ~((1 << tick_shift) - 1)  # key & tick_mask strips seq/data
        last_key = None

        try:
            while heap:
                key = heap[0]
                if key > end_key:
                    break
                if key >= boundary_key:
                    # flush counters and hand control to the observers; they
                    # may draw from the RNG, crash/add nodes and push timers.
                    self.completed_exchanges += completed
                    self.failed_exchanges += failed
                    self.messages_sent += sent
                    self.messages_lost += lost
                    completed = failed = sent = lost = 0
                    sched._seq = seq
                    if last_key is not None:
                        sched.now_tick = last_key >> tick_shift
                    self._fire_boundaries(key >> tick_shift)
                    next_boundary = (self._boundary_index + 1) * ticks_per_period
                    boundary_key = next_boundary << tick_shift
                    seq = sched._seq
                    group = self._group
                    (
                        latency_sample,
                        loss_drops,
                        no_loss,
                        bernoulli_p,
                        constant_delay,
                        uniform,
                        constant_delay_key,
                    ) = self._hot_bindings(tick_shift)
                    continue  # re-peek: observers may have pushed events
                key = heappop(heap)
                last_key = key
                data = key & data_mask

                if data < _REQUEST:  # timer; data is the bare node id
                    i = data
                    if not alive[i]:
                        continue  # crashed: the timer dies with the node
                    row = row_of[i]
                    base = row * c
                    ln = vlen[row]
                    row_end = base + ln
                    p = -1
                    if ln:
                        # active thread, first half: age view, select peer.
                        aged = array("q", map(inc, vhops[base:row_end]))
                        vhops[base:row_end] = aged
                        if not omniscient:
                            if ps_rand:
                                p = vids[base + randrange(ln)]
                            elif ps_head:
                                p = vids[base]
                            else:
                                p = vids[row_end - 1]
                        elif self._maybe_dead_refs:
                            vslice = vids[base:row_end]
                            cand = list(compress(vslice, map(alive_at, vslice)))
                            if cand:
                                if ps_rand:
                                    p = cand[randrange(len(cand))]
                                elif ps_head:
                                    p = cand[0]
                                else:
                                    p = cand[-1]
                        else:
                            if ps_rand:
                                p = vids[base + randrange(ln)]
                            elif ps_head:
                                p = vids[base]
                            else:
                                p = vids[row_end - 1]
                    base_key = key & tick_mask
                    if p >= 0:
                        sent += 1
                        if group is not None and group_cut(group, i, p):
                            lost += 1
                        elif no_loss or (
                            rand() >= bernoulli_p
                            if bernoulli_p is not None
                            else not loss_drops(rng)
                        ):
                            if constant_delay is not None:
                                delay_key = constant_delay_key
                            elif uniform is not None:
                                delay_key = int(
                                    (uniform[0] + uniform[1] * rand())
                                    * tick_scale
                                ) << tick_shift
                            else:
                                delay = latency_sample(rng)
                                if delay < 0:
                                    # same guard EventEngine gets from
                                    # EventScheduler.schedule
                                    raise SimulationError(
                                        "cannot schedule into the past: "
                                        f"{delay}"
                                    )
                                delay_key = (
                                    int(delay * tick_scale) << tick_shift
                                )
                            slot = free_pop() if free_slots else self._new_slot()
                            off = slot * stride
                            if push_proto:
                                m_ids[off] = i
                                m_hops[off] = 1
                                m_ids[off + 1:off + 1 + ln] = vids[base:row_end]
                                m_hops[off + 1:off + 1 + ln] = array(
                                    "q", map(inc, vhops[base:row_end])
                                )
                                m_len[slot] = ln + 1
                            else:
                                m_len[slot] = 0
                            m_src[slot] = i
                            m_dst[slot] = p
                            heappush(
                                heap,
                                base_key
                                + delay_key
                                + ((seq << seq_shift) | _REQUEST | slot),
                            )
                            seq += 1
                        else:
                            lost += 1
                    # the timer survives even when no exchange started
                    heappush(
                        heap,
                        base_key + period_key + ((seq << seq_shift) | data),
                    )
                    seq += 1

                elif data < _REPLY:  # request delivery (the passive thread)
                    slot = data & _IDX_MASK
                    dst = m_dst[slot]
                    if not alive[dst]:
                        failed += 1
                        free_append(slot)
                        continue
                    src = m_src[slot]
                    n = m_len[slot]
                    off = slot * stride
                    rslot = -1
                    if pull:
                        # the reply snapshot precedes the merge (Figure 1).
                        rslot = free_pop() if free_slots else self._new_slot()
                        roff = rslot * stride
                        row = row_of[dst]
                        base = row * c
                        ln = vlen[row]
                        m_ids[roff] = dst
                        m_hops[roff] = 1
                        m_ids[roff + 1:roff + 1 + ln] = vids[base:base + ln]
                        m_hops[roff + 1:roff + 1 + ln] = array(
                            "q", map(inc, vhops[base:base + ln])
                        )
                        m_len[rslot] = ln + 1
                        m_src[rslot] = dst
                        m_dst[rslot] = src
                    if n:
                        if validating:
                            r_ids, r_hops = sanitize_indexed(
                                m_ids[off:off + n].tolist(),
                                m_hops[off:off + n].tolist(),
                                dst,
                                src,
                                c,
                            )
                            if r_ids:
                                merge_into(dst, r_ids, r_hops)
                        else:
                            merge_into(
                                dst,
                                m_ids[off:off + n].tolist(),
                                m_hops[off:off + n].tolist(),
                            )
                    completed += 1
                    free_append(slot)
                    if rslot >= 0:
                        sent += 1
                        if group is not None and group_cut(group, dst, src):
                            lost += 1
                            free_append(rslot)
                        elif no_loss or (
                            rand() >= bernoulli_p
                            if bernoulli_p is not None
                            else not loss_drops(rng)
                        ):
                            if constant_delay is not None:
                                delay_key = constant_delay_key
                            elif uniform is not None:
                                delay_key = int(
                                    (uniform[0] + uniform[1] * rand())
                                    * tick_scale
                                ) << tick_shift
                            else:
                                delay = latency_sample(rng)
                                if delay < 0:
                                    # same guard EventEngine gets from
                                    # EventScheduler.schedule
                                    raise SimulationError(
                                        "cannot schedule into the past: "
                                        f"{delay}"
                                    )
                                delay_key = (
                                    int(delay * tick_scale) << tick_shift
                                )
                            heappush(
                                heap,
                                (key & tick_mask)
                                + delay_key
                                + ((seq << seq_shift) | _REPLY | rslot),
                            )
                            seq += 1
                        else:
                            lost += 1
                            free_append(rslot)

                else:  # reply delivery (second half of the active thread)
                    slot = data & _IDX_MASK
                    dst = m_dst[slot]
                    if not alive[dst]:
                        failed += 1
                        free_append(slot)
                        continue
                    n = m_len[slot]
                    off = slot * stride
                    if validating:
                        r_ids, r_hops = sanitize_indexed(
                            m_ids[off:off + n].tolist(),
                            m_hops[off:off + n].tolist(),
                            dst,
                            m_src[slot],
                            c,
                        )
                        if r_ids:
                            merge_into(dst, r_ids, r_hops)
                    else:
                        merge_into(
                            dst,
                            m_ids[off:off + n].tolist(),
                            m_hops[off:off + n].tolist(),
                        )
                    free_append(slot)

        finally:
            # flush even when an observer raises mid-slice, so a caller
            # that catches and resumes sees consistent counters and
            # scheduler state (the C loop guards the same way).
            self.completed_exchanges += completed
            self.failed_exchanges += failed
            self.messages_sent += sent
            self.messages_lost += lost
            # monotonic guard: if an observer raised mid-boundary after
            # pushing events, the scheduler's counter is already ahead of
            # this local -- never roll it back, or later pushes would mint
            # duplicate (tick, seq) keys and break FIFO ordering.
            if seq > sched._seq:
                sched._seq = seq
            if last_key is not None:
                sched.now_tick = last_key >> tick_shift

    # -- the whole-slice C event loop --------------------------------------

    _HEAP_HEADROOM = 4096
    _POOL_HEADROOM = 4096

    def _run_events_c_full(self, accel: Accelerator, end: int, codes) -> bool:
        """Dispatch events up to ``end`` natively in C.

        The pending-event heap is migrated from the Python packed-int
        representation into three parallel ``int64`` arrays (a positional
        copy: the heap property is preserved under the order-isomorphic
        key mapping, and (tick, seq) keys are unique, so the pop order is
        identical), then ``fc_event_run`` pops, dispatches and pushes
        without touching the interpreter until a cycle boundary, the end
        of the slice, or a capacity limit.  Observers run in Python at
        every boundary with the RNG state and all bookkeeping handed
        back, exactly like the Python loop.

        Returns ``True`` when the slice completed, ``False`` when a
        boundary observer swapped in a latency or loss model other than
        the one the loop was entered with -- all state is handed back
        consistently and the caller finishes the slice on the Python
        loop, which honors the change.
        """
        loss_code, loss_p, lat_code, const_delay, lat_a, lat_b = codes
        sched = self._sched
        heap = sched._heap
        tick_shift = sched._tick_shift
        seq_shift = sched._seq_shift
        data_mask = sched._data_mask
        seq_mask = (1 << TickScheduler.SEQ_BITS) - 1
        ticks_per_period = self.ticks_per_period
        tick_scale = self._tick_scale
        rng = self.rng
        pointer = Accelerator.pointer

        # heap migration: positional copy into (tick, seq, data) arrays.
        n = len(heap)
        heap_cap = n + self._HEAP_HEADROOM
        ht = array("q", [key >> tick_shift for key in heap])
        hs = array("q", [(key >> seq_shift) & seq_mask for key in heap])
        hd = array("q", [key & data_mask for key in heap])
        pad = bytes(8 * self._HEAP_HEADROOM)
        ht.frombytes(pad)
        hs.frombytes(pad)
        hd.frombytes(pad)
        heap.clear()
        hlen = array("q", (n,))
        # message pool: ensure untouched headroom for C-side allocation.
        if len(self._m_len) - self._pool_fresh < self._POOL_HEADROOM:
            self._grow_pool(
                self._pool_fresh + self._POOL_HEADROOM - len(self._m_len)
            )
        pool_cap = len(self._m_len)
        free_slots = self._free_slots
        flist = array("q", free_slots)
        flist.frombytes(bytes(8 * (pool_cap - len(flist))))
        flen = array("q", (len(free_slots),))
        free_slots.clear()
        fresh = array("q", (self._pool_fresh,))
        seq_io = array("q", (sched._seq,))
        now_io = array("q", (sched.now_tick,))
        counters = array("q", (0, 0, 0, 0))
        top_tick = array("q", (0,))
        state = self._rstate
        state_ptr = pointer(state.buffer_info()[0])

        self._accel_setup(accel)
        self._event_setup(accel)
        version, internal, gauss = rng.getstate()
        state[:] = array("q", internal)
        accel.load_state(state_ptr)
        resident = True
        try:
            while True:
                boundary = (self._boundary_index + 1) * ticks_per_period
                reason = accel.event_run(
                    end,
                    boundary,
                    pointer(ht.buffer_info()[0]),
                    pointer(hs.buffer_info()[0]),
                    pointer(hd.buffer_info()[0]),
                    pointer(hlen.buffer_info()[0]),
                    heap_cap,
                    pointer(flist.buffer_info()[0]),
                    pointer(flen.buffer_info()[0]),
                    pointer(fresh.buffer_info()[0]),
                    pool_cap,
                    pointer(seq_io.buffer_info()[0]),
                    pointer(now_io.buffer_info()[0]),
                    loss_code,
                    loss_p,
                    lat_code,
                    const_delay,
                    lat_a,
                    lat_b,
                    tick_scale,
                    ticks_per_period,
                    pointer(counters.buffer_info()[0]),
                    pointer(top_tick.buffer_info()[0]),
                )
                if reason == 0 or reason == 4:  # end of slice / empty heap
                    break
                if reason == 1:  # cycle boundary: observers run in Python
                    self.completed_exchanges += counters[0]
                    self.failed_exchanges += counters[1]
                    self.messages_sent += counters[2]
                    self.messages_lost += counters[3]
                    counters[0] = counters[1] = counters[2] = counters[3] = 0
                    sched._seq = seq_io[0]
                    sched.now_tick = now_io[0]
                    accel.store_state(state_ptr)
                    rng.setstate((version, tuple(state), gauss))
                    resident = False
                    self._fire_boundaries(top_tick[0])
                    seq_io[0] = sched._seq
                    version, internal, gauss = rng.getstate()
                    state[:] = array("q", internal)
                    # observers may have grown buffers: re-register, then
                    # drain their pushes into the C-side heap.
                    self._accel_setup(accel)
                    self._event_setup(accel)
                    if heap:
                        while hlen[0] + len(heap) > heap_cap:
                            ht.frombytes(pad)
                            hs.frombytes(pad)
                            hd.frombytes(pad)
                            heap_cap += self._HEAP_HEADROOM
                        hlen_ptr = pointer(hlen.buffer_info()[0])
                        for key in heap:
                            accel.heap_push(
                                key >> tick_shift,
                                (key >> seq_shift) & seq_mask,
                                key & data_mask,
                                pointer(ht.buffer_info()[0]),
                                pointer(hs.buffer_info()[0]),
                                pointer(hd.buffer_info()[0]),
                                hlen_ptr,
                            )
                        heap.clear()
                    accel.load_state(state_ptr)
                    resident = True
                    if self._c_model_codes() != codes:
                        # an observer swapped the latency/loss models:
                        # hand the rest of the slice to the Python loop.
                        return False
                elif reason == 2:  # heap arrays full: grow and re-enter
                    ht.frombytes(pad)
                    hs.frombytes(pad)
                    hd.frombytes(pad)
                    heap_cap += self._HEAP_HEADROOM
                elif reason == 3:  # message pool full: grow and re-enter
                    self._grow_pool(self._POOL_HEADROOM)
                    pool_cap = len(self._m_len)
                    flist.frombytes(bytes(8 * self._POOL_HEADROOM))
                    self._event_setup(accel)
                else:  # pragma: no cover - unknown reason code
                    raise RuntimeError(f"fc_event_run returned {reason}")
        finally:
            if resident:
                accel.store_state(state_ptr)
                rng.setstate((version, tuple(state), gauss))
            self.completed_exchanges += counters[0]
            self.failed_exchanges += counters[1]
            self.messages_sent += counters[2]
            self.messages_lost += counters[3]
            # monotonic guard: if an observer raised mid-boundary after
            # pushing events, the scheduler's counter is already ahead of
            # this local -- never roll it back, or later pushes would mint
            # duplicate (tick, seq) keys and break FIFO ordering.
            if seq_io[0] > sched._seq:
                sched._seq = seq_io[0]
            sched.now_tick = now_io[0]
            self._pool_fresh = fresh[0]
            self._free_slots[:] = flist[: flen[0]].tolist()
            # repack the C heap (and any undrained Python pushes) into the
            # canonical packed-int representation.
            packed = [
                (ht[i] << tick_shift) | (hs[i] << seq_shift) | hd[i]
                for i in range(hlen[0])
            ]
            if heap:  # exception during an observer: merge, restore order
                packed.extend(heap)
                heapify(packed)
            heap[:] = packed
        return True
