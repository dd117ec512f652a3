"""Array-backed fast cycle engine for 100k+ node populations.

:class:`FastCycleEngine` executes exactly the same protocol as
:class:`~repro.simulation.engine.CycleEngine` -- the paper's Figure 1
active/passive threads under the PeerSim-style synchronous cycle model --
but runs it over the shared flat-array protocol kernel
(:class:`~repro.simulation.arrayviews.FlatArrayEngine`) instead of one
``GossipNode`` + ``PartialView`` + ``NodeDescriptor`` object per peer.
The kernel owns the storage layout, the churn bookkeeping and the
merge/truncate pipeline (see the :mod:`~repro.simulation.arrayviews`
module docstring for the layout and the Figure 1 mapping); this module
adds only the synchronous execution model.  The asynchronous counterpart,
:class:`~repro.simulation.fast_event.FastEventEngine`, drives the same
kernel from a discrete-event scheduler -- the two engines share every
exchange primitive and therefore cannot drift apart.

At 100,000 nodes with ``c = 30`` the whole overlay state is two ~24 MB C
buffers instead of several million Python objects, and one exchange is
pure index manipulation over reusable scratch buffers.

Execution backends
------------------

Because the kernel arrays are plain C ``int64`` memory, the cycle loop
itself has two interchangeable implementations:

- an optional C core (:mod:`repro.simulation._fastcore`), compiled once
  with the system C compiler, that runs entire cycles natively -- orders
  of magnitude faster than the reference engine;
- a pure-Python fallback used when no compiler is available (or
  ``REPRO_NO_ACCEL`` is set), still several times leaner than the
  object-per-node engine.

Determinism and RNG parity
--------------------------

Both backends reproduce the reference engine's random-number consumption
*exactly*.  The Python path draws through operations whose draw count
depends only on sizes (``randrange(n)`` instead of ``choice(seq)``,
``sample(range(n), k)`` instead of ``sample(list, k)``), in the order the
reference engine draws.  The C path goes further and reimplements
CPython's MT19937 primitives bit-for-bit, taking over the generator state
for the duration of a cycle and handing it back afterwards (see
``_fastcore``).  Given the same seed and call sequence, ``views()`` is
therefore *byte-identical* across ``CycleEngine`` and both
``FastCycleEngine`` backends, cycle by cycle, including under churn --
the differential suite in
``tests/simulation/test_fast_engine_differential.py`` pins this.

When to prefer which engine
---------------------------

- ``CycleEngine`` -- small populations, custom node factories (Cyclon,
  SCAMP, second-view extensions), or when per-node instrumentation of the
  ``GossipNode`` state machine is needed.
- ``FastCycleEngine`` -- large populations (10^4 .. 10^5+ nodes) running
  the built-in generic protocol; identical results, far faster and a
  fraction of the memory (see ``benchmarks/bench_fast_engine.py`` for the
  measured speedup table, summarized in ``ROADMAP.md``).
- ``EventEngine`` / ``FastEventEngine`` -- asynchronous message timing
  studies (the latter is the large-scale array-backed version).
"""

from __future__ import annotations

import random
from array import array
from itertools import compress

from repro.core.policies import PeerSelection
from repro.simulation._fastcore import Accelerator
from repro.simulation.arrayviews import (
    FastNode,
    FastViewProxy,
    FlatArrayEngine,
    group_cut,
)

__all__ = ["FastCycleEngine", "FastNode", "FastViewProxy"]


class FastCycleEngine(FlatArrayEngine):
    """Cycle-driven executor over the flat-array kernel (module docstring).

    Example
    -------
    >>> from repro import FastCycleEngine, newscast
    >>> from repro.simulation.scenarios import random_bootstrap
    >>> engine = FastCycleEngine(newscast(view_size=10), seed=1)
    >>> random_bootstrap(engine, n_nodes=100)
    >>> engine.run(cycles=20)
    >>> engine.cycle
    20
    """

    shuffle_each_cycle: bool = True
    """Same contract as ``CycleEngine.shuffle_each_cycle``."""

    adversary = None
    """An installed :class:`~repro.adversary.harness.FastAdversary`, or
    ``None``.  While its attack window is active it supplies the cycle
    loop (pure Python, RNG-parity with the adversarial object engines);
    outside the window the honest C/Python paths run unchanged."""

    # -- execution ---------------------------------------------------------

    def run_cycle(self) -> None:
        """Execute one full cycle: every live node initiates once.

        Mirrors ``CycleEngine.run_cycle`` operation for operation; see the
        module docstring for the RNG-parity argument.
        """
        self._notify_before_cycle()
        adversary = self.adversary
        if adversary is not None and adversary.active:
            adversary.run_cycle(self)
        elif (
            self._accel is not None
            and not self.config.validate_descriptors
            and type(self.rng) is random.Random
        ):
            self._run_cycle_c(self._accel)
        else:
            self._run_cycle_python()
        self.cycle += 1
        self._notify_after_cycle()

    def run(self, cycles: int) -> None:
        """Execute ``cycles`` consecutive cycles."""
        for _ in range(cycles):
            self.run_cycle()

    def _run_cycle_c(self, accel: Accelerator) -> None:
        """One cycle through the compiled core.

        The C side takes over the Mersenne Twister state for the duration
        of the cycle (same draws, same order as the reference engine) and
        hands it back through ``setstate`` afterwards.
        """
        rng = self.rng
        order = array("q", self._live)
        state_before = rng.getstate()
        state = array("q", state_before[1])
        out = array("q", (0, 0))
        pointer = Accelerator.pointer
        self._accel_setup(accel)
        accel.run_cycle(
            pointer(order.buffer_info()[0]),
            len(order),
            pointer(state.buffer_info()[0]),
            pointer(out.buffer_info()[0]),
        )
        rng.setstate((state_before[0], tuple(state), state_before[2]))
        self.completed_exchanges += out[0]
        self.failed_exchanges += out[1]

    def _run_cycle_python(self) -> None:
        """One cycle through the pure-Python fallback path."""
        rng = self.rng
        config = self.config
        c = config.view_size
        vids = self._vids
        vhops = self._vhops
        vlen = self._vlen
        row_of = self._row_of
        alive = self._alive
        push = config.push
        pull = config.pull
        peer_sel = config.peer_selection
        ps_rand = peer_sel is PeerSelection.RAND
        ps_head = peer_sel is PeerSelection.HEAD
        filter_dead = self.omniscient_peer_selection and self._maybe_dead_refs
        check_dead = not self.omniscient_peer_selection
        group = self._group
        randrange = rng.randrange
        merge_into = self._merge_into
        validating = config.validate_descriptors
        if validating:
            from repro.defenses.validation import sanitize_indexed
        inc = (1).__add__  # C-level h + 1 for map()
        alive_at = alive.__getitem__
        completed = 0
        failed = 0

        order = list(self._live)
        if self.shuffle_each_cycle:
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
            # active thread, first half: age view, select peer.
            aged = array("q", map(inc, vhops[base:end]))
            vhops[base:end] = aged
            if filter_dead:
                # Dead descriptors may exist: restrict selection to live
                # entries, like the reference liveness predicate does.
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
                # Either every view entry is provably alive (same choice,
                # same single draw) or selection is non-omniscient.
                if ps_rand:
                    p = vids[base + randrange(ln)]
                elif ps_head:
                    p = vids[base]
                else:
                    p = vids[end - 1]
                if check_dead and not alive[p]:
                    # Message to a dead address: silently lost.
                    failed += 1
                    continue
            if group is not None and group_cut(group, i, p):
                failed += 1
                continue
            # request payload = merge(view, {(me, 0)}) with the receiver's
            # increaseHopCount already applied (own descriptor 0 -> 1).
            if push:
                rq_ids = [i]
                rq_ids += vids[base:end]
                rq_hops = [1]
                rq_hops += map(inc, aged)
            else:
                rq_ids = []
                rq_hops = []
            if pull:
                # passive thread: the reply snapshot precedes the merge.
                prow = row_of[p]
                pbase = prow * c
                pend = pbase + vlen[prow]
                rp_ids = [p]
                rp_ids += vids[pbase:pend]
                rp_hops = [1]
                rp_hops += map(inc, vhops[pbase:pend])
                if validating:
                    rq_ids, rq_hops = sanitize_indexed(
                        rq_ids, rq_hops, p, i, c
                    )
                    rp_ids, rp_hops = sanitize_indexed(
                        rp_ids, rp_hops, i, p, c
                    )
                if rq_ids:
                    merge_into(p, rq_ids, rq_hops)
                # active thread, second half: merge the pulled view.
                if rp_ids:
                    merge_into(i, rp_ids, rp_hops)
            else:
                if validating:
                    rq_ids, rq_hops = sanitize_indexed(
                        rq_ids, rq_hops, p, i, c
                    )
                if rq_ids:
                    merge_into(p, rq_ids, rq_hops)
            completed += 1
        self.completed_exchanges += completed
        self.failed_exchanges += failed
