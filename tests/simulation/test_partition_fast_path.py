"""Partitions stay on the accelerated paths.

A partition is data (one group id per interned id) that the C core and
the shard workers read directly, so installing one must not push any
array engine onto its pure-Python loop.  Each test replaces the slow path
with one that raises, spies on the fast path, then runs through a whole
partition window.
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.simulation._fastcore import load_accelerator
from repro.simulation.churn import TemporaryPartition
from repro.simulation.fast import FastCycleEngine
from repro.simulation.fast_event import FastEventEngine
from repro.simulation.scenarios import random_bootstrap
from repro.simulation.sharded import ShardedCycleEngine

pytestmark = pytest.mark.skipif(
    load_accelerator() is None, reason="no C compiler available"
)

CONFIG = ProtocolConfig.from_label("(rand,head,pushpull)", 6)


def _forbid(monkeypatch, cls, name):
    def slow_path(*args, **kwargs):
        raise AssertionError(f"{cls.__name__}.{name} ran during a partition")

    monkeypatch.setattr(cls, name, slow_path)


def _spy(monkeypatch, cls, name):
    """Record the return value of every call to ``cls.name``."""
    results = []
    original = getattr(cls, name)

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(cls, name, spy)
    return results


def _run_partition_window(engine):
    random_bootstrap(engine, 60)
    partition = TemporaryPartition(start_cycle=2, end_cycle=6, n_groups=3)
    engine.add_observer(partition)
    engine.run(4)
    assert partition.active
    failed = engine.failed_exchanges + getattr(engine, "messages_lost", 0)
    engine.run(4)
    assert not partition.active
    return failed


def test_fast_partition_runs_on_the_c_core(monkeypatch):
    _forbid(monkeypatch, FastCycleEngine, "_run_cycle_python")
    cycles = _spy(monkeypatch, FastCycleEngine, "_run_cycle_c")
    engine = FastCycleEngine(CONFIG, seed=5, accelerate=True)
    assert _run_partition_window(engine) > 0  # the cut dropped traffic
    assert len(cycles) == 8


def test_fast_event_partition_runs_on_the_whole_slice_c_loop(monkeypatch):
    _forbid(monkeypatch, FastEventEngine, "_run_events_python")
    slices = _spy(monkeypatch, FastEventEngine, "_run_events_c_full")
    engine = FastEventEngine(CONFIG, seed=5, accelerate=True)
    assert _run_partition_window(engine) > 0
    # every slice ran to its end in C: no bail-out when the partition
    # was installed or healed at a boundary.
    assert slices and all(slices)


def test_sharded_partition_runs_on_the_workers(monkeypatch):
    _forbid(monkeypatch, ShardedCycleEngine, "_run_round_serial_py")
    _forbid(monkeypatch, ShardedCycleEngine, "_run_round_serial_c")
    rounds = _spy(monkeypatch, ShardedCycleEngine, "_run_round_parallel")
    engine = ShardedCycleEngine(CONFIG, seed=5, accelerate=True, shards=2)
    try:
        assert _run_partition_window(engine) > 0
    finally:
        engine.close()
    assert len(rounds) == 8
