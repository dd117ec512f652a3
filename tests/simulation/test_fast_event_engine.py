"""Unit and property tests for the array-backed fast event engine.

The differential suite pins ``FastEventEngine`` to ``EventEngine``'s
behavior byte for byte; these tests cover the engine-specific surface
directly -- construction knobs, the tick clock, message accounting,
churn interaction with timers, lockstep phases -- plus a property test
that the asynchronous engine with zero latency, no loss and lockstep
phases reproduces the cycle engines' degree distributions.
"""

import random

import pytest

from repro.core.config import ProtocolConfig, newscast
from repro.core.errors import ConfigurationError, SimulationError
from repro.graph.metrics import average_degree
from repro.graph.snapshot import GraphSnapshot
from repro.simulation._fastcore import load_accelerator
from repro.simulation.engine import CycleEngine
from repro.simulation.fast_event import FastEventEngine
from repro.simulation.network import (
    BernoulliLoss,
    ConstantLatency,
    LatencyModel,
)
from repro.simulation.scenarios import random_bootstrap
from repro.simulation.trace import Observer

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

HAVE_ACCEL = load_accelerator() is not None


def make_engine(label="(rand,head,pushpull)", c=5, seed=0, **kwargs):
    return FastEventEngine(
        ProtocolConfig.from_label(label, c), seed=seed, **kwargs
    )


class TestConstruction:
    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            make_engine(period=0)

    def test_rejects_node_factory(self):
        with pytest.raises(ConfigurationError):
            FastEventEngine(newscast(5), node_factory=lambda a, r: None)

    def test_rejects_zero_resolution(self):
        with pytest.raises(ConfigurationError):
            make_engine(ticks_per_period=0)

    def test_default_latency_scales_with_period(self):
        engine = make_engine(period=10.0)
        assert engine.latency.delay == pytest.approx(1.0)

    def test_clock_starts_at_zero(self):
        engine = make_engine()
        assert engine.now == 0.0
        assert engine.now_tick == 0

    def test_accelerate_false_disables_backend(self):
        assert not make_engine(accelerate=False).accelerated

    def test_rejects_negative_durations(self):
        # both engines, both entry points: rewinding the clock would
        # violate the monotone-clock contract.
        from repro.simulation.event_engine import EventEngine

        with pytest.raises(ConfigurationError):
            make_engine().run_ticks(-1)
        with pytest.raises(ConfigurationError):
            make_engine().run(-1)
        with pytest.raises(ConfigurationError):
            EventEngine(newscast(5), seed=0).run_time(-1.0)
        with pytest.raises(ConfigurationError):
            EventEngine(newscast(5), seed=0).run(-1)

    def test_chained_run_time_cycle_parity_with_event_engine(self):
        # Awkward (non-binary) period and duration: both engines must
        # quantize chained run_time calls with the same float expression,
        # or their cycle counters straddle boundaries differently.
        from repro.simulation.event_engine import EventEngine

        period = 0.7439183
        counts = []
        for cls in (EventEngine, FastEventEngine):
            engine = cls(newscast(5), seed=2, period=period)
            random_bootstrap(engine, 8)
            for _ in range(37):
                engine.run_time(0.1402471)
            counts.append(engine.cycle)
        assert counts[0] == counts[1]

    def test_message_pool_capacity_exhaustion_raises(self, monkeypatch):
        # Shrink the event word's slot capacity so exhaustion is testable:
        # both the per-slot path and the bulk C-growth path must raise the
        # clean error instead of minting indices that bleed into the kind
        # bits.
        import repro.simulation.fast_event as fast_event_module

        monkeypatch.setattr(fast_event_module, "_IDX_MASK", 7)
        engine = make_engine()
        for _ in range(8):
            engine._new_slot()
        with pytest.raises(ConfigurationError):
            engine._new_slot()
        with pytest.raises(ConfigurationError):
            engine._grow_pool(4)


class TestExecution:
    def test_run_advances_time_and_cycles(self):
        engine = make_engine()
        random_bootstrap(engine, 10)
        engine.run(5)
        assert engine.now == pytest.approx(5.0)
        assert engine.now_tick == 5 * engine.ticks_per_period
        assert engine.cycle == 5

    def test_run_time_accepts_fractional_durations(self):
        engine = make_engine()
        random_bootstrap(engine, 5)
        engine.run_time(2.5)
        assert engine.now == pytest.approx(2.5)
        assert engine.cycle == 2

    def test_exchanges_complete_with_latency(self):
        engine = make_engine(latency=ConstantLatency(0.05))
        random_bootstrap(engine, 10)
        engine.run(3)
        assert engine.completed_exchanges > 0

    def test_total_loss_prevents_all_exchanges(self):
        engine = make_engine(loss=BernoulliLoss(1.0))
        random_bootstrap(engine, 10)
        engine.run(3)
        assert engine.completed_exchanges == 0
        assert engine.messages_lost == engine.messages_sent
        assert engine.messages_sent > 0

    def test_partial_loss_still_converges(self):
        engine = make_engine(c=5, loss=BernoulliLoss(0.3), seed=1)
        engine.add_node("hub")
        engine.add_nodes(15, contacts=["hub"])
        engine.run(20)
        sizes = [len(n.view) for n in engine.nodes()]
        assert min(sizes) >= 3

    def test_crashed_node_timer_dies(self):
        engine = make_engine()
        random_bootstrap(engine, 5)
        victim = engine.addresses()[0]
        engine.remove_node(victim)
        engine.run(3)
        assert victim not in engine

    def test_messages_to_crashed_nodes_fail(self):
        engine = make_engine(
            "(rand,head,push)", omniscient_peer_selection=False
        )
        engine.add_node("a", contacts=["ghost"])
        engine.run(2)
        assert engine.failed_exchanges > 0

    @pytest.mark.parametrize("accelerate", [False, None])
    def test_partition_blocks_messages(self, accelerate):
        engine = make_engine(accelerate=accelerate)
        engine.add_node("a", contacts=["b"])
        engine.add_node("b", contacts=["a"])
        engine.set_partition({"a": 0, "b": 1})  # one group per node
        engine.run(3)
        assert engine.completed_exchanges == 0
        assert engine.messages_lost > 0

    def test_negative_custom_latency_raises(self):
        # EventEngine fails loudly via EventScheduler.schedule's guard; a
        # buggy custom model must not silently schedule into the past
        # here either.
        class Broken(LatencyModel):
            def sample(self, rng):
                return -0.3

        engine = make_engine(latency=Broken())
        random_bootstrap(engine, 10)
        with pytest.raises(SimulationError):
            engine.run(2)

    def test_observers_fire_once_per_period(self):
        ticks = []

        class Ticker(Observer):
            def after_cycle(self, engine):
                ticks.append(engine.cycle)

        engine = make_engine()
        random_bootstrap(engine, 5)
        engine.add_observer(Ticker())
        engine.run(4)
        assert ticks == [1, 2, 3, 4]

    def test_observer_churn_mid_run(self):
        # joins and crashes injected at boundaries keep the engine
        # consistent: crashed timers die, joined nodes start gossiping.
        class ChurnObserver(Observer):
            def before_cycle(self, engine):
                if engine.cycle == 2:
                    engine.crash_random_nodes(3)
                if engine.cycle == 4:
                    engine.add_nodes(5, contacts=engine.addresses()[:2])

        engine = make_engine(seed=3)
        engine.add_observer(ChurnObserver())
        random_bootstrap(engine, 12)
        engine.run(8)
        assert len(engine) == 14
        assert engine.completed_exchanges > 0

    def test_deterministic_given_seed(self):
        def fingerprint(seed):
            engine = make_engine(seed=seed)
            random_bootstrap(engine, 15)
            engine.run(5)
            return {
                a: tuple((d.address, d.hop_count) for d in view)
                for a, view in engine.views().items()
            }

        assert fingerprint(3) == fingerprint(3)
        assert fingerprint(3) != fingerprint(4)

    def test_incremental_runs_match_one_shot(self):
        # run(1) x N must equal run(N): slice boundaries (heap migration,
        # RNG handoff, pool bookkeeping) are invisible to results.
        def fingerprint(step):
            engine = make_engine(seed=9, loss=BernoulliLoss(0.05))
            random_bootstrap(engine, 20)
            if step:
                for _ in range(8):
                    engine.run_cycle()
            else:
                engine.run(8)
            return (
                {
                    a: tuple((d.address, d.hop_count) for d in view)
                    for a, view in engine.views().items()
                },
                engine.completed_exchanges,
                engine.messages_lost,
                engine.rng.getstate(),
            )

        assert fingerprint(True) == fingerprint(False)


class TestLockstepPhases:
    def test_every_node_initiates_exactly_once_per_cycle(self):
        engine = make_engine(
            lockstep_phases=True, latency=ConstantLatency(0.0)
        )
        random_bootstrap(engine, 25)
        engine.run(10)
        # one request per node per period, none lost, none failed; phase-0
        # timers fire at tick 0 AND at the inclusive end of the run
        # (events at exactly `end` are processed, like EventEngine), so a
        # 10-period run sees 11 lockstep rounds.
        assert engine.completed_exchanges == 25 * 11
        assert engine.failed_exchanges == 0

    def test_lockstep_consumes_no_phase_draws(self):
        # Identical RNG state after population build: the phase uniform
        # draws are skipped entirely in lockstep mode.
        reference = random.Random(5)
        engine = make_engine(seed=5, lockstep_phases=True)
        engine.add_nodes(10)
        assert engine.rng.getstate() == reference.getstate()


def _cycle_mean_degree(label, c, n, cycles, seed):
    engine = CycleEngine(ProtocolConfig.from_label(label, c), seed=seed)
    random_bootstrap(engine, n)
    engine.run(cycles)
    return average_degree(GraphSnapshot.from_engine(engine))


def _lockstep_mean_degree(label, c, n, cycles, seed):
    engine = FastEventEngine(
        ProtocolConfig.from_label(label, c),
        seed=seed,
        latency=ConstantLatency(0.0),
        lockstep_phases=True,
    )
    random_bootstrap(engine, n)
    engine.run(cycles)
    return average_degree(GraphSnapshot.from_engine(engine))


def check_lockstep_matches_cycle_engine(label, seed):
    """Zero latency + no loss + lockstep phases => the asynchronous
    engine converges to the same degree regime as the cycle model."""
    c, n, cycles = 8, 120, 30
    cycle_deg = _cycle_mean_degree(label, c, n, cycles, seed)
    event_deg = _lockstep_mean_degree(label, c, n, cycles, seed)
    assert event_deg == pytest.approx(cycle_deg, rel=0.2)


PROPERTY_LABELS = [
    "(rand,head,pushpull)",
    "(rand,rand,pushpull)",
    "(rand,rand,push)",
]

if HAVE_HYPOTHESIS:

    @settings(max_examples=8, deadline=None)
    @given(
        label=st.sampled_from(PROPERTY_LABELS),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_lockstep_reproduces_cycle_degree_distribution(label, seed):
        check_lockstep_matches_cycle_engine(label, seed)

else:  # pragma: no cover - minimal installs

    @pytest.mark.parametrize("label", PROPERTY_LABELS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lockstep_reproduces_cycle_degree_distribution(label, seed):
        check_lockstep_matches_cycle_engine(label, seed)
