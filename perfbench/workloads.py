"""The four benchmark workloads and the one cell runner they share.

A *cell* is one whole study run as a user of ``repro.workloads`` pays for
it: engine build + bootstrap + scenario compile (set-up), the gossip run,
measurement extraction and the final overlay digest.  Every workload is
a function of the seed alone; the program only ever sees the generated
:class:`~repro.workloads.ScenarioSpec`, protocol and engine settings.

Workload sizes are chosen so one cell takes about one second on a 2-core
2 GHz machine: a run then repeats the cell often enough for a steady
median within its time budget.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import NetworkConfig, ProtocolConfig
from repro.experiments.common import SCALES
from repro.simulation.trace import Observer
from repro.workloads import (
    AdversarySpec,
    CatastrophicFailure,
    ContinuousChurn,
    Heal,
    Partition,
    ScenarioSpec,
    prepare_run,
)
from repro.workloads.plan import MEASUREMENTS

clock = time.perf_counter

VIEW_SIZE = 30
GETPEER_NODES = 32
"""Services the closed-loop ``get_peer`` caller visits after each cycle."""
GETPEER_DRAWS = 64
"""Draws per visited service."""
LIVE_AUTH_KEY = b"perfbench-live-wire-hmac-key"


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: what it runs and why (see BENCHMARK.json)."""

    name: str
    engine: str
    label: str
    n_nodes: int
    cycles: int
    spec: Callable[[int, int, int], ScenarioSpec]
    """``spec(seed, n_nodes, cycles)`` -- the generated scenario."""
    measurements: Tuple[str, ...] = ()
    metrics_every: int = 5
    engine_kwargs: Callable[[], Dict[str, Any]] = dict

    def scale(self):
        """The inline scale preset the measurements read their knobs from."""
        return dataclasses.replace(
            SCALES["default"],
            name=f"bench-{self.name}",
            n_nodes=self.n_nodes,
            view_size=VIEW_SIZE,
            cycles=self.cycles,
            default_engine=self.engine,
            metrics_every=self.metrics_every,
        )


def _steady_churn(seed: int, n: int, cycles: int) -> ScenarioSpec:
    per_cycle = max(1, n // 200)  # 0.5 % of the population per cycle
    return ScenarioSpec(
        name="steady-churn",
        bootstrap="random",
        cycles=cycles,
        events=(
            ContinuousChurn(joins_per_cycle=per_cycle, leaves_per_cycle=per_cycle),
            CatastrophicFailure(at_cycle=cycles // 2, fraction=0.5),
        ),
    )


def _paper_measured(seed: int, n: int, cycles: int) -> ScenarioSpec:
    return ScenarioSpec(name="paper-measured", bootstrap="random", cycles=cycles)


def _hostile_async(seed: int, n: int, cycles: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="hostile-async",
        bootstrap="random",
        cycles=cycles,
        latency=0.1,
        loss=0.01,
        events=(Partition(at_cycle=cycles // 3), Heal(at_cycle=2 * cycles // 3)),
        adversary=AdversarySpec(kind="hub", fraction=0.01, placement_seed=seed),
    )


def _live_wire(seed: int, n: int, cycles: int) -> ScenarioSpec:
    per_cycle = max(1, n // 1000)  # light churn: 0.1 % per cycle
    return ScenarioSpec(
        name="live-wire",
        bootstrap="random",
        cycles=cycles,
        events=(
            ContinuousChurn(joins_per_cycle=per_cycle, leaves_per_cycle=per_cycle),
        ),
    )


def _live_network() -> Dict[str, Any]:
    return {
        "network": NetworkConfig(
            cycle_seconds=0.05,
            jitter=0.0,
            request_timeout=0.2,
            auth_key=LIVE_AUTH_KEY,
        )
    }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="steady-churn",
            engine="fast",
            label="(rand,head,pushpull)",
            n_nodes=10_000,
            cycles=10,
            spec=_steady_churn,
        ),
        Workload(
            name="paper-measured",
            engine="fast",
            label="(rand,head,pushpull)",
            n_nodes=1_000,
            cycles=10,
            spec=_paper_measured,
            measurements=(
                "metrics",
                "degree-trace",
                "dead-links",
                "components",
                "degrees",
            ),
        ),
        Workload(
            name="hostile-async",
            engine="fast-event",
            label="(rand,head,pushpull);v",
            n_nodes=2_000,
            cycles=6,
            spec=_hostile_async,
        ),
        Workload(
            name="live-wire",
            engine="live",
            label="(rand,head,pushpull)",
            n_nodes=1_000,
            cycles=3,
            spec=_live_wire,
            engine_kwargs=_live_network,
        ),
    )
}


# -- observers the benchmark attaches ------------------------------------------


class CycleMarker(Observer):
    """Stamps the traced run's spans with the cycle they ran in."""

    def __init__(self, tracer) -> None:
        self._tracer = tracer

    def before_cycle(self, engine) -> None:
        self._tracer.cycle = engine.cycle


class GetPeerCaller(Observer):
    """A closed-loop single application caller of ``getPeer()``.

    After every cycle it visits ``GETPEER_NODES`` live nodes, chosen by its
    own seeded RNG, and draws ``GETPEER_DRAWS`` peers from each node's
    service, one call after the other.  Draws consume the engine RNG, so
    its state is restored afterwards: the caller leaves the overlay, and
    so the digest, exactly as an uninstrumented run would.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self.bad: List[Tuple[Any, Any]] = []

    def after_cycle(self, engine) -> None:
        addresses = engine.addresses()
        if not addresses:
            return
        visited = [self._rng.choice(addresses) for _ in range(GETPEER_NODES)]
        services = [engine.service(address) for address in visited]
        state = engine.rng.getstate()
        peers = [
            service.get_peer() for service in services for _ in range(GETPEER_DRAWS)
        ]
        engine.rng.setstate(state)
        for index, peer in enumerate(peers):
            owner = visited[index // GETPEER_DRAWS]
            if peer is None or peer == owner:
                self.bad.append((owner, peer))


# -- one cell ------------------------------------------------------------------------


@dataclasses.dataclass
class CellResult:
    setup_s: float
    run_s: float
    extract_s: float
    cell_s: float
    digest: str
    completed: int
    failed: int
    lost: int
    final_nodes: int
    getpeer_bad: List[Tuple[Any, Any]]
    measurements: Dict[str, Any]
    runtime: Any

    def identity(self) -> Dict[str, Any]:
        """What must repeat exactly for a given workload and seed."""
        return {
            "digest": self.digest,
            "completed": self.completed,
            "failed": self.failed,
            "lost": self.lost,
            "final_nodes": self.final_nodes,
        }


def _prepare(workload: Workload, seed: int, engine: Optional[str] = None):
    """``prepare_run`` for one cell: engine build, bootstrap, scenario compile."""
    name = engine or workload.engine
    return prepare_run(
        workload.spec(seed, workload.n_nodes, workload.cycles),
        ProtocolConfig.from_label(workload.label, view_size=VIEW_SIZE),
        scale=workload.scale(),
        seed=seed,
        engine=name,
        **(workload.engine_kwargs() if name == workload.engine else {}),
    )


def run_cell(
    workload: Workload,
    seed: int,
    engine: Optional[str] = None,
    tracer=None,
    on_engine: Optional[Callable[[Any], None]] = None,
) -> CellResult:
    """Run one whole cell of ``workload`` and time its phases.

    ``engine`` overrides the workload's engine (the cross-engine check);
    ``on_engine`` sees the engine after set-up, before the run (tracing
    instruments it there).
    """
    caller = GetPeerCaller(seed)
    started = clock()
    runtime = _prepare(workload, seed, engine)
    setup_done = clock()
    instance = runtime.engine
    scale = workload.scale()
    extractors = {
        m: MEASUREMENTS[m].setup(runtime, scale) for m in workload.measurements
    }
    instance.add_observer(caller)
    if tracer is not None:
        instance.add_observer(CycleMarker(tracer))
    if on_engine is not None:
        on_engine(instance)
    run_started = clock()
    runtime.run_to_end()
    run_done = clock()
    measurements = {m: extract() for m, extract in extractors.items()}
    extract_done = clock()
    digest = runtime.views_digest()
    finished = clock()
    return CellResult(
        setup_s=setup_done - started,
        run_s=run_done - run_started,
        extract_s=extract_done - run_done,
        cell_s=finished - started,
        digest=digest,
        completed=instance.completed_exchanges,
        failed=instance.failed_exchanges,
        lost=getattr(instance, "messages_lost", 0),
        final_nodes=len(instance),
        getpeer_bad=caller.bad,
        measurements=measurements,
        runtime=runtime,
    )


def setup_only(workload: Workload, seed: int) -> float:
    """Seconds ``prepare_run`` takes for one cell, alone."""
    started = clock()
    runtime = _prepare(workload, seed)
    elapsed = clock() - started
    _close(runtime.engine)
    return elapsed


def _close(engine) -> None:
    """Release what an engine holds (the live engine's event loop)."""
    close = getattr(engine, "close", None)
    if close is not None:
        close()


def close_cell(cell: CellResult) -> None:
    """Release the cell's engine and drop the reference to it."""
    _close(cell.runtime.engine)
    cell.runtime = None


# -- correctness ----------------------------------------------------------------------


def view_invariant_errors(views, view_size: int) -> List[str]:
    """Violations of the view invariants every engine must keep.

    No self entry, no duplicate entry, at most ``view_size`` entries and
    no negative hop count.
    """
    errors = []
    for address, entries in views.items():
        seen = set()
        if len(entries) > view_size:
            errors.append(f"{address!r}: {len(entries)} entries > {view_size}")
        for descriptor in entries:
            if descriptor.address == address:
                errors.append(f"{address!r}: self entry")
            if descriptor.address in seen:
                errors.append(f"{address!r}: duplicate {descriptor.address!r}")
            if descriptor.hop_count < 0:
                errors.append(f"{address!r}: hop count {descriptor.hop_count}")
            seen.add(descriptor.address)
        if len(errors) > 20:
            break
    return errors


def measurement_errors(workload: Workload, cell: CellResult) -> List[str]:
    """Sanity of the study outputs ``paper-measured`` extracts."""
    m = cell.measurements
    errors = []
    if "components" in m and sum(m["components"]) != cell.final_nodes:
        errors.append(
            f"component sizes sum to {sum(m['components'])}, "
            f"not {cell.final_nodes} nodes"
        )
    if "degrees" in m and not 0 < m["degrees"]["mean"] <= 2 * VIEW_SIZE:
        errors.append(f"mean degree {m['degrees']['mean']} out of range")
    if "degree-trace" in m and len(m["degree-trace"]["cycles"]) != workload.cycles:
        errors.append("degree trace does not cover every cycle")
    if "dead-links" in m and any(m["dead-links"]["dead_links"]):
        errors.append("dead links without any crash")
    if "metrics" in m:
        expected = workload.cycles // workload.metrics_every
        if len(m["metrics"]["cycles"]) != expected:
            errors.append(
                f"{len(m['metrics']['cycles'])} metric records, not {expected}"
            )
    return errors
