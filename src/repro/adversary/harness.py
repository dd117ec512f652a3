"""Attacker placement and per-engine attack installation.

:func:`install_adversary` binds a compiled scenario's
:class:`~repro.workloads.spec.AdversarySpec` to its engine:

- attacker/victim placement is resolved against the bootstrap population
  -- explicit spec indices, or a seeded sample of ``fraction * n`` nodes
  drawn from a *private* ``Random(placement_seed)`` so the placement is
  identical on every engine and run seed and never perturbs the shared
  protocol RNG;
- on :class:`~repro.simulation.engine.CycleEngine`,
  :class:`~repro.simulation.event_engine.EventEngine` and
  :class:`~repro.net.engine.LiveEngine`, attacker nodes are wrapped in
  :class:`~repro.adversary.behaviors.AdversarialNode` (on the live
  engine the wrapper is installed into the daemon too, so both the
  active task and the datagram receive path go through it; the event
  engine resolves every timer/request/reply through its node table, so
  wrapping the table entry covers all three dispatch paths);
- on :class:`~repro.simulation.fast.FastCycleEngine`, a
  :class:`FastAdversary` replaces the cycle loop while the attack window
  is active, replicating ``_run_cycle_python`` draw for draw with the
  attack branches inlined -- the fast family has no per-node objects to
  wrap;
- on :class:`~repro.simulation.fast_event.FastEventEngine`, a
  :class:`FastEventAdversary` supplies the event-dispatch loop for the
  whole run (the window can open at any cycle boundary), replicating
  ``_run_events_python`` draw for draw with the same attack branches.

:class:`NetworkInterceptor` (via :func:`intercept_network`) is the
wire-level alternative for the live layer: it hooks
:meth:`~repro.net.transport.LoopbackNetwork.deliver` and rewrites or
drops attacker-sent *datagrams* (decode, forge, re-encode in the same
wire version), demonstrating that the attacks need no cooperation from
the node software at all.  The engine installers use node wrapping
because it preserves cross-engine byte-identity; the interceptor is for
transport-focused tests and demos.
"""

from __future__ import annotations

import dataclasses
import random
from array import array
from heapq import heappop, heappush
from itertools import compress
from struct import error as struct_error
from typing import List, Tuple

from repro.adversary.behaviors import AdversarialNode, AdversaryState
from repro.core.codec import CodecError, decode_frame, encode_message
from repro.core.descriptor import Address, NodeDescriptor
from repro.core.errors import ConfigurationError, SimulationError
from repro.core.policies import PeerSelection
from repro.net.daemon import _ENVELOPE, _KIND_REPLY
from repro.net.engine import LiveEngine
from repro.net.transport import LoopbackNetwork
from repro.simulation.arrayviews import group_cut
from repro.simulation.engine import CycleEngine
from repro.simulation.event_engine import EventEngine
from repro.simulation.fast import FastCycleEngine
from repro.simulation.fast_event import (
    _IDX_MASK,
    _REPLY,
    _REQUEST,
    FastEventEngine,
)
from repro.simulation.trace import Observer
from repro.workloads.spec import AdversarySpec

__all__ = [
    "ADVERSARY_ENGINE_NAMES",
    "AdversaryHandle",
    "AttackWindow",
    "FastAdversary",
    "FastEventAdversary",
    "NetworkInterceptor",
    "install_adversary",
    "intercept_network",
    "place_attackers",
]

ADVERSARY_ENGINE_NAMES = frozenset(
    {"cycle", "fast", "live", "event", "fast-event"}
)
"""Registry engines adversarial scenarios can run on: the cycle-model
family plus the event-driven family (the sharded engine has no attack
installation)."""


def place_attackers(
    spec: AdversarySpec, addresses: List[Address]
) -> Tuple[Tuple[Address, ...], Tuple[Address, ...]]:
    """Resolve ``(attackers, victims)`` over the bootstrap population.

    Spec indices index into ``addresses`` (the bootstrap creation
    order).  A ``fraction`` placement samples ``round(fraction * n)``
    non-victim nodes from ``Random(placement_seed)`` -- deterministic,
    engine-independent, and independent of the run seed.
    """
    n = len(addresses)

    def resolve(indices, field: str) -> Tuple[Address, ...]:
        resolved = []
        for index in indices:
            if not 0 <= index < n:
                raise ConfigurationError(
                    f"adversary.{field} index {index} is out of range for "
                    f"a bootstrap population of {n} nodes"
                )
            resolved.append(addresses[index])
        return tuple(resolved)

    victims = resolve(spec.victims, "victims")
    if spec.attackers:
        return resolve(spec.attackers, "attackers"), victims
    count = int(round(spec.fraction * n))
    if count == 0:
        return (), victims
    victim_set = set(victims)
    eligible = [a for a in addresses if a not in victim_set]
    if count > len(eligible):
        raise ConfigurationError(
            f"adversary.fraction {spec.fraction} asks for {count} "
            f"attackers but only {len(eligible)} non-victim nodes exist"
        )
    placement = random.Random(spec.placement_seed)
    return tuple(placement.sample(eligible, count)), victims


class AttackWindow(Observer):
    """Flips the shared :attr:`AdversaryState.active` flag per cycle.

    The attack is live for cycles ``start_cycle <= cycle < stop_cycle``
    (open-ended when ``stop_cycle`` is ``None``)."""

    def __init__(self, state: AdversaryState) -> None:
        self._state = state

    def before_cycle(self, engine) -> None:
        spec = self._state.spec
        cycle = engine.cycle
        self._state.active = cycle >= spec.start_cycle and (
            spec.stop_cycle is None or cycle < spec.stop_cycle
        )


@dataclasses.dataclass(frozen=True)
class AdversaryHandle:
    """What :func:`install_adversary` resolved: placement plus state."""

    spec: AdversarySpec
    attackers: Tuple[Address, ...]
    victims: Tuple[Address, ...]
    state: AdversaryState


def _view_capacity(engine) -> int:
    """The engine's view capacity (generic config or first node's view)."""
    config = getattr(engine, "config", None)
    if config is not None:
        return config.view_size
    for node in engine.nodes():
        return node.view.capacity
    raise ConfigurationError(
        "cannot determine the view capacity of an empty engine"
    )


def install_adversary(runtime) -> AdversaryHandle:
    """Place the attackers of ``runtime.spec.adversary`` and arm them.

    Called by :func:`~repro.workloads.runtime.compile_scenario` right
    after the bootstrap.  A placement that resolves to zero attackers
    (``fraction=0``) installs nothing at all, so the run stays
    byte-identical to the same spec without an adversary block.
    """
    spec = runtime.spec.adversary
    engine = runtime.engine
    addresses = runtime.bootstrap_addresses
    attackers, victims = place_attackers(spec, addresses)
    state = AdversaryState(
        spec,
        attackers,
        victims,
        rng=engine.rng,
        is_alive=engine.is_alive,
        view_size=_view_capacity(engine),
    )
    handle = AdversaryHandle(
        spec=spec, attackers=attackers, victims=victims, state=state
    )
    if not attackers:
        return handle
    engine.add_observer(AttackWindow(state))
    # The event engines fire their first before_cycle at boundary 1, so
    # the window flag for cycle 0 must be primed here; on the cycle
    # engines the observer overwrites it with the same value at cycle 0.
    state.active = spec.start_cycle <= 0 and (
        spec.stop_cycle is None or 0 < spec.stop_cycle
    )
    if isinstance(engine, FastCycleEngine):
        engine.adversary = FastAdversary(engine, state)
    elif isinstance(engine, FastEventEngine):
        engine.adversary = FastEventAdversary(engine, state)
    elif isinstance(engine, LiveEngine):
        for address in attackers:
            wrapper = AdversarialNode(engine._nodes[address], state)
            engine._nodes[address] = wrapper
            # Both paths must see the wrapper: the engine's gossip round
            # reads daemon.node (active thread) and so does the
            # datagram receive callback (passive thread).
            engine.daemon(address).node = wrapper
    elif isinstance(engine, (CycleEngine, EventEngine)):
        # Both object engines resolve every dispatch (cycle iteration;
        # timer/request/reply delivery) through the node table, so
        # swapping the table entry covers all paths.
        for address in attackers:
            engine._nodes[address] = AdversarialNode(
                engine._nodes[address], state
            )
    else:
        raise ConfigurationError(
            f"adversarial scenarios run on the "
            f"{sorted(ADVERSARY_ENGINE_NAMES)} engines; "
            f"got {type(engine).__name__}"
        )
    return handle


class FastAdversary:
    """The adversarial cycle loop for :class:`FastCycleEngine`.

    :meth:`run_cycle` is ``FastCycleEngine._run_cycle_python`` with the
    attack branches inlined.  Parity rules (each mirrors what
    :class:`AdversarialNode` does on the object engines):

    - honest peer selection always runs first (same draws), the eclipse
      retarget is one *extra* ``randrange`` only when live victims exist;
    - a poisoned or tampered buffer arrives with every hop count 1 (sent
      as 0, incremented once by the receiver), so its merge consumes
      exactly the draws the reference merge consumes;
    - a dropping responder skips both merges but still counts the
      exchange completed; a dropping initiator sends an empty request
      (merging an empty buffer is a draw-free no-op on the reference
      engine) and discards the reply.
    """

    __slots__ = (
        "_state",
        "_attacker_ids",
        "_victim_ids",
        "_victim_id_set",
        "_adverts",
    )

    def __init__(self, engine: FastCycleEngine, state: AdversaryState) -> None:
        self._state = state
        id_of = engine._id_of
        attacker_ids = [id_of[a] for a in state.attackers]
        self._attacker_ids = frozenset(attacker_ids)
        self._victim_ids = tuple(id_of[v] for v in state.victims)
        self._victim_id_set = frozenset(self._victim_ids)
        cap = state.view_size + 1
        self._adverts = {
            i: tuple([i] + [b for b in attacker_ids if b != i])[:cap]
            for i in attacker_ids
        }

    @property
    def active(self) -> bool:
        """Whether the attack window is currently open."""
        return self._state.active

    def run_cycle(self, engine: FastCycleEngine) -> None:
        """One full cycle with the attack branches live."""
        kind = self._state.spec.kind
        poisoning = kind in ("hub", "eclipse")
        eclipsing = kind == "eclipse"
        tampering = kind == "tamper"
        dropping = kind == "drop"
        attackers = self._attacker_ids
        victim_ids = self._victim_ids
        victim_set = self._victim_id_set
        adverts = self._adverts

        rng = engine.rng
        config = engine.config
        c = config.view_size
        vids = engine._vids
        vhops = engine._vhops
        vlen = engine._vlen
        row_of = engine._row_of
        alive = engine._alive
        push = config.push
        pull = config.pull
        peer_sel = config.peer_selection
        ps_rand = peer_sel is PeerSelection.RAND
        ps_head = peer_sel is PeerSelection.HEAD
        filter_dead = (
            engine.omniscient_peer_selection and engine._maybe_dead_refs
        )
        check_dead = not engine.omniscient_peer_selection
        group = engine._group
        randrange = rng.randrange
        merge_into = engine._merge_into
        inc = (1).__add__
        alive_at = alive.__getitem__
        completed = 0
        failed = 0

        order = list(engine._live)
        if engine.shuffle_each_cycle:
            rng.shuffle(order)
        for i in order:
            if not alive[i]:
                continue  # crashed by an observer mid-cycle
            row = row_of[i]
            base = row * c
            ln = vlen[row]
            end = base + ln
            if not ln:
                continue  # empty view: nothing to gossip with
            aged = array("q", map(inc, vhops[base:end]))
            vhops[base:end] = aged
            i_atk = i in attackers
            if filter_dead:
                vslice = vids[base:end]
                cand = list(compress(vslice, map(alive_at, vslice)))
                if not cand:
                    continue
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
                    p = vids[end - 1]
            if i_atk and eclipsing:
                # The extra retarget draw AdversarialNode.begin_exchange
                # takes, at the same point in the draw order.
                live_victims = [v for v in victim_ids if alive[v]]
                if live_victims:
                    p = live_victims[randrange(len(live_victims))]
            # Hoisted from the non-omniscient selection branch above:
            # check_dead is False whenever filter_dead can be True, and
            # a retargeted victim is live by construction.
            if check_dead and not alive[p]:
                failed += 1
                continue
            if group is not None and group_cut(group, i, p):
                failed += 1
                continue
            p_atk = p in attackers
            if i_atk and poisoning:
                rq_ids = list(adverts[i])
                rq_hops = [1] * len(rq_ids)
            elif i_atk and dropping:
                rq_ids = []
                rq_hops = []
            elif push:
                rq_ids = [i]
                rq_ids += vids[base:end]
                if i_atk and tampering:
                    rq_hops = [1] * len(rq_ids)
                else:
                    rq_hops = [1]
                    rq_hops += map(inc, aged)
            else:
                rq_ids = []
                rq_hops = []
            if pull:
                if p_atk and dropping:
                    # Request swallowed, empty reply merged (a no-op):
                    # neither side changes, the exchange completes.
                    completed += 1
                    continue
                if p_atk and poisoning and (
                    not eclipsing or i in victim_set
                ):
                    rp_ids = list(adverts[p])
                    rp_hops = [1] * len(rp_ids)
                else:
                    prow = row_of[p]
                    pbase = prow * c
                    pend = pbase + vlen[prow]
                    rp_ids = [p]
                    rp_ids += vids[pbase:pend]
                    if p_atk and tampering:
                        rp_hops = [1] * len(rp_ids)
                    else:
                        rp_hops = [1]
                        rp_hops += map(inc, vhops[pbase:pend])
                if rq_ids:
                    merge_into(p, rq_ids, rq_hops)
                if not (i_atk and dropping):
                    merge_into(i, rp_ids, rp_hops)
            else:
                if p_atk and dropping:
                    completed += 1
                    continue
                merge_into(p, rq_ids, rq_hops)
            completed += 1
        engine.completed_exchanges += completed
        engine.failed_exchanges += failed


class FastEventAdversary:
    """The adversarial event-dispatch loop for :class:`FastEventEngine`.

    :meth:`run_events` is ``FastEventEngine._run_events_python`` with the
    attack branches inlined.  Unlike :class:`FastAdversary` (whose cycle
    loop only runs while the window is open) this loop carries the whole
    run: the window may open at any cycle boundary and an accelerated
    slice cannot pause mid-slice to check the flag, so
    :attr:`AdversaryState.active` is read per event and outside the
    window every branch reduces to the honest loop draw for draw.

    Parity rules (each mirrors what :class:`AdversarialNode` does on the
    reference :class:`~repro.simulation.event_engine.EventEngine`):

    - honest view aging and peer selection always run first (same
      draws); the eclipse retarget is one *extra* ``randrange`` only
      when an exchange started and live victims exist;
    - a poisoned or tampered buffer is stored with every hop count 1
      (sent as 0, incremented once on arrival), so its merge consumes
      exactly the draws the reference merge consumes;
    - a dropping initiator sends an empty request through the normal
      loss/latency draws and discards the reply unmerged; a dropping
      responder still sends the empty reply (the wrapper returns ``[]``,
      which the reference engine ships like any reply) but skips the
      request merge entirely -- no merge draws on either engine.
    """

    __slots__ = (
        "_state",
        "_attacker_ids",
        "_victim_ids",
        "_victim_id_set",
        "_advert_ids",
        "_advert_hops",
        "_ones",
    )

    def __init__(self, engine: FastEventEngine, state: AdversaryState) -> None:
        self._state = state
        id_of = engine._id_of
        attacker_ids = [id_of[a] for a in state.attackers]
        self._attacker_ids = frozenset(attacker_ids)
        self._victim_ids = tuple(id_of[v] for v in state.victims)
        self._victim_id_set = frozenset(self._victim_ids)
        cap = engine._slot_stride  # view_size + 1, the poison payload cap
        self._advert_ids = {
            i: array("q", ([i] + [b for b in attacker_ids if b != i])[:cap])
            for i in attacker_ids
        }
        self._advert_hops = {
            i: array("q", [1] * len(ids))
            for i, ids in self._advert_ids.items()
        }
        self._ones = array("q", [1] * cap)

    @property
    def active(self) -> bool:
        """Whether the attack window is currently open."""
        return self._state.active

    def run_events(self, engine: FastEventEngine, end: int) -> None:
        """Dispatch all events up to ``end`` with the attack branches live."""
        state = self._state
        kind = state.spec.kind
        poisoning = kind in ("hub", "eclipse")
        eclipsing = kind == "eclipse"
        tampering = kind == "tamper"
        dropping = kind == "drop"
        attackers = self._attacker_ids
        victim_ids = self._victim_ids
        victim_set = self._victim_id_set
        advert_ids = self._advert_ids
        advert_hops = self._advert_hops
        ones = self._ones

        sched = engine._sched
        heap = sched._heap
        tick_shift = sched._tick_shift
        seq_shift = sched._seq_shift
        data_mask = sched._data_mask
        seq = sched._seq
        config = engine.config
        c = config.view_size
        stride = engine._slot_stride
        ticks_per_period = engine.ticks_per_period
        tick_scale = engine._tick_scale
        rng = engine.rng
        randrange = rng.randrange
        merge_into = engine._merge_into
        vids = engine._vids
        vhops = engine._vhops
        vlen = engine._vlen
        row_of = engine._row_of
        alive = engine._alive
        group = engine._group
        m_ids = engine._m_ids
        m_hops = engine._m_hops
        m_len = engine._m_len
        m_src = engine._m_src
        m_dst = engine._m_dst
        free_slots = engine._free_slots
        new_slot = engine._new_slot
        push_proto = config.push
        pull = config.pull
        peer_sel = config.peer_selection
        ps_rand = peer_sel is PeerSelection.RAND
        ps_head = peer_sel is PeerSelection.HEAD
        omniscient = engine.omniscient_peer_selection
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
        ) = engine._hot_bindings(tick_shift)
        free_pop = free_slots.pop
        free_append = free_slots.append
        completed = 0
        failed = 0
        sent = 0
        lost = 0
        next_boundary = (engine._boundary_index + 1) * ticks_per_period
        end_key = ((end + 1) << tick_shift) - 1
        boundary_key = next_boundary << tick_shift
        period_key = ticks_per_period << tick_shift
        tick_mask = ~((1 << tick_shift) - 1)
        last_key = None

        try:
            while heap:
                key = heap[0]
                if key > end_key:
                    break
                if key >= boundary_key:
                    # flush counters and hand control to the observers
                    # (AttackWindow among them: the window flag can flip
                    # here, which is why it is re-read on every event).
                    engine.completed_exchanges += completed
                    engine.failed_exchanges += failed
                    engine.messages_sent += sent
                    engine.messages_lost += lost
                    completed = failed = sent = lost = 0
                    sched._seq = seq
                    if last_key is not None:
                        sched.now_tick = last_key >> tick_shift
                    engine._fire_boundaries(key >> tick_shift)
                    next_boundary = (
                        engine._boundary_index + 1
                    ) * ticks_per_period
                    boundary_key = next_boundary << tick_shift
                    seq = sched._seq
                    group = engine._group
                    (
                        latency_sample,
                        loss_drops,
                        no_loss,
                        bernoulli_p,
                        constant_delay,
                        uniform,
                        constant_delay_key,
                    ) = engine._hot_bindings(tick_shift)
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
                        aged = array("q", map(inc, vhops[base:row_end]))
                        vhops[base:row_end] = aged
                        if not omniscient:
                            if ps_rand:
                                p = vids[base + randrange(ln)]
                            elif ps_head:
                                p = vids[base]
                            else:
                                p = vids[row_end - 1]
                        elif engine._maybe_dead_refs:
                            vslice = vids[base:row_end]
                            cand = list(
                                compress(vslice, map(alive_at, vslice))
                            )
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
                    i_atk = p >= 0 and state.active and i in attackers
                    if i_atk and eclipsing:
                        # The extra retarget draw AdversarialNode takes,
                        # at the same point in the draw order.
                        live_victims = [v for v in victim_ids if alive[v]]
                        if live_victims:
                            p = live_victims[randrange(len(live_victims))]
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
                                    raise SimulationError(
                                        "cannot schedule into the past: "
                                        f"{delay}"
                                    )
                                delay_key = (
                                    int(delay * tick_scale) << tick_shift
                                )
                            slot = (
                                free_pop() if free_slots else new_slot()
                            )
                            off = slot * stride
                            if i_atk and poisoning:
                                adv = advert_ids[i]
                                na = len(adv)
                                m_ids[off:off + na] = adv
                                m_hops[off:off + na] = advert_hops[i]
                                m_len[slot] = na
                            elif i_atk and dropping:
                                m_len[slot] = 0
                            elif push_proto:
                                m_ids[off] = i
                                m_ids[off + 1:off + 1 + ln] = vids[
                                    base:row_end
                                ]
                                if i_atk and tampering:
                                    m_hops[off:off + 1 + ln] = ones[
                                        :ln + 1
                                    ]
                                else:
                                    m_hops[off] = 1
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
                    heappush(
                        heap,
                        base_key + period_key + ((seq << seq_shift) | data),
                    )
                    seq += 1

                elif data < _REPLY:  # request delivery (passive thread)
                    slot = data & _IDX_MASK
                    dst = m_dst[slot]
                    if not alive[dst]:
                        failed += 1
                        free_append(slot)
                        continue
                    src = m_src[slot]
                    n = m_len[slot]
                    off = slot * stride
                    dst_atk = state.active and dst in attackers
                    rslot = -1
                    if dst_atk and dropping:
                        # The wrapper never calls the inner node: the
                        # request is swallowed unmerged (no merge draws)
                        # and an empty reply goes out like any other.
                        if pull:
                            rslot = (
                                free_pop() if free_slots else new_slot()
                            )
                            m_len[rslot] = 0
                            m_src[rslot] = dst
                            m_dst[rslot] = src
                    else:
                        if pull:
                            # the reply snapshot precedes the merge.
                            rslot = (
                                free_pop() if free_slots else new_slot()
                            )
                            roff = rslot * stride
                            if dst_atk and poisoning and (
                                not eclipsing or src in victim_set
                            ):
                                adv = advert_ids[dst]
                                na = len(adv)
                                m_ids[roff:roff + na] = adv
                                m_hops[roff:roff + na] = advert_hops[dst]
                                m_len[rslot] = na
                            else:
                                row = row_of[dst]
                                base = row * c
                                ln = vlen[row]
                                m_ids[roff] = dst
                                m_ids[roff + 1:roff + 1 + ln] = vids[
                                    base:base + ln
                                ]
                                if dst_atk and tampering:
                                    m_hops[roff:roff + 1 + ln] = ones[
                                        :ln + 1
                                    ]
                                else:
                                    m_hops[roff] = 1
                                    m_hops[
                                        roff + 1:roff + 1 + ln
                                    ] = array(
                                        "q",
                                        map(inc, vhops[base:base + ln]),
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
                    if dropping and state.active and dst in attackers:
                        # a dropping initiator discards the reply unmerged
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
            # scheduler state (the honest paths guard the same way).
            engine.completed_exchanges += completed
            engine.failed_exchanges += failed
            engine.messages_sent += sent
            engine.messages_lost += lost
            if seq > sched._seq:
                sched._seq = seq
            if last_key is not None:
                sched.now_tick = last_key >> tick_shift


class NetworkInterceptor:
    """A man-in-the-middle on a :class:`LoopbackNetwork`.

    Rewrites (or swallows) datagrams *sent by attackers* while the
    attack window is active: the codec frame is decoded, forged
    according to the spec kind, and re-encoded in the wire version it
    arrived in; unparsable data passes through untouched.  Install via
    :func:`intercept_network`, remove with :meth:`uninstall`.
    """

    def __init__(self, network: LoopbackNetwork, state: AdversaryState) -> None:
        self.network = network
        self.state = state
        self.forwarded = 0
        self.rewritten = 0
        self.dropped = 0
        self._original = network.deliver
        network.deliver = self.deliver  # type: ignore[method-assign]

    def uninstall(self) -> None:
        """Restore the network's own ``deliver`` (idempotent)."""
        try:
            del self.network.deliver  # type: ignore[attr-defined]
        except AttributeError:
            pass

    def deliver(
        self, sender: Address, destination: Address, data: bytes
    ) -> None:
        state = self.state
        if not state.active or sender not in state.attacker_set:
            self.forwarded += 1
            return self._original(sender, destination, data)
        kind = state.spec.kind
        if kind == "drop":
            self.dropped += 1
            return None
        try:
            kind_byte, exchange_id = _ENVELOPE.unpack_from(data, 0)
            version, payload = decode_frame(bytes(data[_ENVELOPE.size:]))
        except (CodecError, struct_error):
            # Not a gossip frame (or truncated): forward untouched.
            self.forwarded += 1
            return self._original(sender, destination, data)
        if kind == "tamper":
            payload = [NodeDescriptor(d.address, 0) for d in payload]
        elif kind == "hub":
            payload = state.poison_payload(sender)
        else:  # eclipse: only replies to victims are forged
            if kind_byte != _KIND_REPLY or destination not in state.victim_set:
                self.forwarded += 1
                return self._original(sender, destination, data)
            payload = state.poison_payload(sender)
        self.rewritten += 1
        frame = _ENVELOPE.pack(kind_byte, exchange_id) + encode_message(
            payload, version=version
        )
        return self._original(sender, destination, frame)


def intercept_network(
    network: LoopbackNetwork, state: AdversaryState
) -> NetworkInterceptor:
    """Install a :class:`NetworkInterceptor` on ``network``."""
    return NetworkInterceptor(network, state)
