"""Integration tests for the paper's partition trade-off (Section 8).

"The only scenario when head view selection is not desirable is temporary
network partitioning.  In that case, with head view selection all
partitions will forget about each other very quickly and so quick
self-repair becomes a disadvantage."  (paper, Discussion)

These tests split a converged overlay in two for a while, heal the
network, and check who can find the other side again.
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.extensions.second_view import CombinedOverlay
from repro.graph.components import num_components
from repro.graph.snapshot import GraphSnapshot
from repro.simulation.churn import TemporaryPartition
from repro.simulation.engine import CycleEngine
from repro.simulation.fast import FastCycleEngine
from repro.simulation.scenarios import random_bootstrap

N, C = 200, 10
PRE_CYCLES = 20
PARTITION_CYCLES = 20
POST_CYCLES = 15


def run_partition_episode(label, seed=0, engine_cls=CycleEngine):
    """Converge, partition in two, heal; return (cross_links, components)."""
    engine = engine_cls(ProtocolConfig.from_label(label, C), seed=seed)
    random_bootstrap(engine, N)
    engine.run(PRE_CYCLES)
    partition = TemporaryPartition(
        start_cycle=PRE_CYCLES,
        end_cycle=PRE_CYCLES + PARTITION_CYCLES,
        n_groups=2,
    )
    engine.add_observer(partition)
    engine.run(PARTITION_CYCLES)
    cross_links = 0
    for address, view in engine.views().items():
        own_group = partition.groups.get(address)
        for descriptor in view:
            other_group = partition.groups.get(descriptor.address)
            if other_group is not None and other_group != own_group:
                cross_links += 1
    engine.run(POST_CYCLES)
    components = num_components(GraphSnapshot.from_engine(engine))
    return cross_links, components


@pytest.mark.parametrize(
    "engine_cls", [CycleEngine, FastCycleEngine], ids=["cycle", "fast"]
)
class TestPartitionMemory:
    def test_head_selection_forgets_the_other_side(self, engine_cls):
        cross_links, components = run_partition_episode(
            "(rand,head,pushpull)", engine_cls=engine_cls
        )
        # Quick self-healing purged almost all cross-partition entries...
        assert cross_links < 0.05 * N * C
        # ...so after the network heals, the overlay stays fractured.
        assert components > 1

    def test_rand_selection_remembers_and_reconnects(self, engine_cls):
        cross_links, components = run_partition_episode(
            "(rand,rand,pushpull)", engine_cls=engine_cls
        )
        # rand view selection retains a large share of cross entries...
        assert cross_links > 0.2 * N * C
        # ...and the overlay reunites once the network heals.
        assert components == 1

    def test_memory_gap_is_large(self, engine_cls):
        head_links, _ = run_partition_episode(
            "(rand,head,pushpull)", seed=1, engine_cls=engine_cls
        )
        rand_links, _ = run_partition_episode(
            "(rand,rand,pushpull)", seed=1, engine_cls=engine_cls
        )
        assert rand_links > 10 * head_links


class TestCombinedServiceSurvivesPartition:
    def test_second_view_reconnects_where_head_alone_fails(self):
        # The paper's Section 10 remedy: pair the fast-healing head
        # instance with a rand instance; the rand views retain the
        # cross-partition links, so the combined overlay reunites.  The
        # partition is installed explicitly on BOTH instance engines (the
        # TemporaryPartition observer is per-engine).
        overlay = CombinedOverlay(
            [
                ProtocolConfig.from_label("(rand,head,pushpull)", C),
                ProtocolConfig.from_label("(rand,rand,pushpull)", C),
            ],
            seed=2,
        )
        hub = overlay.add_node()
        for _ in range(N - 1):
            overlay.add_node(contacts=[hub])
        overlay.run(PRE_CYCLES)

        groups = {
            address: index % 2
            for index, address in enumerate(overlay.addresses())
        }
        for engine in overlay.engines:
            engine.set_partition(groups)
        overlay.run(PARTITION_CYCLES)
        for engine in overlay.engines:
            engine.set_partition(None)
        overlay.run(POST_CYCLES)

        # The head instance alone fractured; the union did not.
        head_only = GraphSnapshot.from_engine(overlay.engines[0])
        combined = GraphSnapshot.from_views(overlay.views())
        assert num_components(head_only) > 1
        assert num_components(combined) == 1
