"""Per-layer instrumentation for the traced run, and the metrics it yields.

:func:`instrument` patches the public functions of each layer where their
callers look them up; :func:`layer_metrics` turns one traced cell's spans
into the ``per_layer`` metrics of BENCHMARK.json.  ``LAYER_MAP`` records
which end-to-end metric each per-layer metric should move, on which
workload, so a later change can say which layer it moved.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from perfbench.tracing import (
    END,
    NAME,
    START,
    TooFewSamples,
    Tracer,
    child_wall,
    percentile,
    totals,
)

OBSERVER_SPANS = frozenset(
    {
        "churn.before_cycle",
        "churn.failure",
        "churn.partition",
        "adversary.window",
        "trace.degree_tracer",
        "trace.metrics_recorder",
        "trace.dead_link_census",
        "bench.getpeer",
    }
)
"""Spans of observers the engines call around each cycle."""

# name: (unit, better, layer, [(end-to-end metric, workload), ...])
LAYER_MAP: Dict[str, tuple] = {
    "simulation.kernel_ms_per_cycle": (
        "ms", "lower", "repro.simulation",
        [("exchanges_per_s", "steady-churn"), ("cell_s", "steady-churn")],
    ),
    "simulation.event_loop_ms_per_cycle": (
        "ms", "lower", "repro.simulation.fast_event",
        [("cell_s", "hostile-async")],
    ),
    "simulation.views_s": (
        "s", "lower", "repro.simulation",
        [("cell_s", "paper-measured"), ("cell_s", "steady-churn")],
    ),
    "simulation.views_calls": (
        "count", "lower", "repro.simulation",
        [("cell_s", "paper-measured"), ("cell_s", "steady-churn")],
    ),
    "simulation.exchanges_completed": (
        "count", "higher", "repro.simulation",
        [("exchanges_per_s", "steady-churn")],
    ),
    "simulation.exchanges_failed": (
        "count", "lower", "repro.simulation",
        [("exchange_ok_share", "steady-churn")],
    ),
    "churn.before_cycle_s": (
        "s", "lower", "repro.simulation.churn",
        [("cell_s", "steady-churn")],
    ),
    "churn.joins": (
        "count", "higher", "repro.simulation.churn",
        [("cell_s", "steady-churn")],
    ),
    "churn.leaves": (
        "count", "higher", "repro.simulation.churn",
        [("cell_s", "steady-churn")],
    ),
    "churn.us_per_join": (
        "us", "lower", "repro.simulation.churn",
        [("cell_s", "steady-churn")],
    ),
    "trace.degree_tracer_s": (
        "s", "lower", "repro.simulation.trace",
        [("cell_s", "paper-measured")],
    ),
    "trace.metrics_recorder_s": (
        "s", "lower", "repro.simulation.trace",
        [("cell_s", "paper-measured")],
    ),
    "trace.dead_link_census_s": (
        "s", "lower", "repro.simulation.trace",
        [("cell_s", "paper-measured")],
    ),
    "graph.snapshots": (
        "count", "lower", "repro.graph",
        [("cell_s", "paper-measured")],
    ),
    "graph.from_views_s": (
        "s", "lower", "repro.graph",
        [("cell_s", "paper-measured")],
    ),
    "graph.clustering_s": (
        "s", "lower", "repro.graph",
        [("cell_s", "paper-measured")],
    ),
    "graph.path_length_s": (
        "s", "lower", "repro.graph",
        [("cell_s", "paper-measured")],
    ),
    "graph.components_s": (
        "s", "lower", "repro.graph",
        [("cell_s", "paper-measured")],
    ),
    "workloads.views_digest_s": (
        "s", "lower", "repro.workloads",
        [
            ("cell_s", "steady-churn"),
            ("cell_s", "paper-measured"),
            ("cell_s", "hostile-async"),
            ("cell_s", "live-wire"),
        ],
    ),
    "workloads.extract_s": (
        "s", "lower", "repro.workloads",
        [("cell_s", "paper-measured")],
    ),
    "defenses.sanitize_calls": (
        "count", "lower", "repro.defenses",
        [("cell_s", "hostile-async")],
    ),
    "defenses.sanitize_s": (
        "s", "lower", "repro.defenses",
        [("cell_s", "hostile-async")],
    ),
    "defenses.descriptors_in": (
        "count", "lower", "repro.defenses",
        [("cell_s", "hostile-async")],
    ),
    "defenses.descriptors_kept": (
        "count", "higher", "repro.defenses",
        [("cell_s", "hostile-async")],
    ),
    "adversary.loop_s": (
        "s", "lower", "repro.adversary",
        [("cell_s", "hostile-async")],
    ),
    "adversary.run_events_calls": (
        "count", "lower", "repro.adversary",
        [("cell_s", "hostile-async")],
    ),
    "codec.encode_calls": (
        "count", "lower", "repro.core.codec",
        [("exchange_ms_p50", "live-wire"), ("exchanges_per_s", "live-wire")],
    ),
    "codec.encode_s": (
        "s", "lower", "repro.core.codec",
        [("exchange_ms_p50", "live-wire"), ("exchanges_per_s", "live-wire")],
    ),
    "codec.decode_calls": (
        "count", "lower", "repro.core.codec",
        [("exchange_ms_p50", "live-wire"), ("exchanges_per_s", "live-wire")],
    ),
    "codec.decode_s": (
        "s", "lower", "repro.core.codec",
        [("exchange_ms_p50", "live-wire"), ("exchanges_per_s", "live-wire")],
    ),
    "codec.sign_s": (
        "s", "lower", "repro.core.codec",
        [("exchange_ms_p50", "live-wire"), ("exchanges_per_s", "live-wire")],
    ),
    "codec.verify_s": (
        "s", "lower", "repro.core.codec",
        [("exchange_ms_p50", "live-wire"), ("exchanges_per_s", "live-wire")],
    ),
    "codec.bytes_out": (
        "bytes", "lower", "repro.core.codec",
        [("exchange_ms_p50", "live-wire"), ("exchanges_per_s", "live-wire")],
    ),
    "transport.sends": (
        "count", "lower", "repro.net.transport",
        [("exchange_ms_p50", "live-wire")],
    ),
    "transport.send_s": (
        "s", "lower", "repro.net.transport",
        [("exchange_ms_p50", "live-wire")],
    ),
    "daemon.exchange_ms_p99": (
        "ms", "lower", "repro.net.daemon",
        [("exchange_ms_p50", "live-wire")],
    ),
    "daemon.exchange_samples": (
        "count", "higher", "repro.net.daemon",
        [("exchange_ms_p50", "live-wire")],
    ),
    "daemon.timeouts": (
        "count", "lower", "repro.net.daemon",
        [("exchange_ok_share", "live-wire")],
    ),
    "daemon.merge_s": (
        "s", "lower", "repro.net.daemon",
        [("exchange_ms_p50", "live-wire")],
    ),
    "net.engine.round_overhead_s": (
        "s", "lower", "repro.net.engine",
        [("exchanges_per_s", "live-wire")],
    ),
    "service.get_peer_calls": (
        "count", "higher", "repro.core.service",
        [("cell_s", "live-wire")],
    ),
    "service.get_peer_ns": (
        "ns", "lower", "repro.core.service",
        [("cell_s", "live-wire")],
    ),
    "bench.tracing_overhead": (
        "ratio", "lower", "perfbench",
        [],
    ),
}


def _count_descriptors(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("defenses.descriptors_in", len(args[0]))
    tracer.add("defenses.descriptors_kept", len(result[0]))


def _count_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("codec.bytes_out", len(result))


def _count_timeout(tracer: Tracer, args: tuple, result: Any) -> None:
    if not result:
        tracer.add("daemon.timeouts")


def instrument(tracer: Tracer) -> None:
    """Patch every layer's public entry points for one traced cell."""
    import repro.core.codec as codec
    import repro.core.protocol as protocol
    import repro.defenses.validation as validation
    import repro.graph.components as components
    import repro.graph.metrics as graph_metrics
    import repro.net.daemon as daemon
    import repro.workloads.runtime as runtime
    from perfbench.workloads import GetPeerCaller
    from repro.adversary.harness import AttackWindow, FastEventAdversary
    from repro.core.service import PeerSamplingService
    from repro.graph.snapshot import GraphSnapshot
    from repro.net.transport import LoopbackTransport
    from repro.simulation import churn, trace

    patch = tracer.patch
    # observers, wrapped through their cycle hooks
    patch(churn.ContinuousChurn, "before_cycle", "churn.before_cycle")
    patch(runtime.FailureHandle, "before_cycle", "churn.failure")
    patch(churn.TemporaryPartition, "before_cycle", "churn.partition")
    patch(AttackWindow, "before_cycle", "adversary.window")
    patch(trace.DegreeTracer, "after_cycle", "trace.degree_tracer")
    patch(trace.MetricsRecorder, "after_cycle", "trace.metrics_recorder")
    patch(trace.DeadLinkCensus, "after_cycle", "trace.dead_link_census")
    patch(GetPeerCaller, "after_cycle", "bench.getpeer")
    # graph layer (looked up at call time from their modules)
    patch(GraphSnapshot, "from_views", "graph.from_views")
    patch(graph_metrics, "clustering_coefficient", "graph.clustering")
    patch(graph_metrics, "average_path_length", "graph.path_length")
    patch(components, "component_sizes", "graph.components")
    # workloads: ScenarioRuntime.views_digest calls the module function
    patch(runtime, "views_digest", "workloads.views_digest")
    # defences: the flat engines import sanitize_indexed at call time
    patch(validation, "sanitize_indexed", "defenses.sanitize", _count_descriptors)
    patch(FastEventAdversary, "run_events", "adversary.run_events")
    # codec: the signed wire's inner calls resolve through the codec
    # module, the daemon's calls through the names it imported; bytes
    # count the frames the daemon ships
    signed_encode = codec.encode_signed_message
    patch(codec, "encode_message", "codec.encode")
    patch(codec, "decode_frame", "codec.decode")
    patch(codec, "encode_signed_message", "codec.encode_signed")
    patch(codec, "decode_signed_frame", "codec.decode_signed")
    tracer.install(
        daemon,
        "encode_signed_message",
        tracer.wrap(signed_encode, "codec.encode_signed", _count_bytes),
    )
    tracer.install(daemon, "decode_signed_frame", codec.decode_signed_frame)
    # transport, daemon, service
    patch(LoopbackTransport, "send", "transport.send")
    patch(daemon.GossipDaemon, "initiate", "daemon.initiate", _count_timeout)
    patch(protocol.GossipNode, "handle_response", "daemon.merge")
    patch(PeerSamplingService, "get_peer", "service.get_peer")


def instrument_engine(tracer: Tracer, engine: Any) -> None:
    """Patch one engine instance: its run loop and ``views()``."""
    stepper = "run_time" if callable(getattr(engine, "run_time", None)) else "run_cycle"
    tracer.patch(engine, stepper, f"simulation.{stepper}")
    tracer.patch(engine, "views", "simulation.views")


def layer_metrics(
    spans: Sequence[Sequence], counts: Dict[str, float], cell: Any, cycles: int
) -> Dict[str, float]:
    """Every ``LAYER_MAP`` metric except the tracing overhead, for one cell."""
    t = totals(spans)

    def wall(name: str) -> float:
        return t.get(name, {}).get("wall", 0.0)

    def own(name: str) -> float:
        return t.get(name, {}).get("self", 0.0)

    def calls(name: str) -> int:
        return int(t.get(name, {}).get("calls", 0))

    is_event = "simulation.run_time" in t
    stepper = "simulation.run_time" if is_event else "simulation.run_cycle"
    observers = child_wall(spans, stepper, OBSERVER_SPANS | {"simulation.views"})
    adversary = child_wall(spans, stepper, {"adversary.run_events"})
    initiates = child_wall(spans, stepper, {"daemon.initiate"})
    kernel = wall(stepper) - observers - adversary
    is_live = calls("daemon.initiate") > 0
    exchange_ms = [
        (s[END] - s[START]) * 1e3 for s in spans if s[NAME] == "daemon.initiate"
    ]
    try:
        p99, _ = percentile(exchange_ms, 99)
    except TooFewSamples:
        p99 = 0.0
    churn_joins, churn_leaves = _churn_totals(cell.runtime)
    get_peer_calls = calls("service.get_peer")
    return {
        "simulation.kernel_ms_per_cycle": kernel / cycles * 1e3,
        "simulation.event_loop_ms_per_cycle": (
            (wall(stepper) - observers) / cycles * 1e3 if is_event else 0.0
        ),
        "simulation.views_s": wall("simulation.views"),
        "simulation.views_calls": calls("simulation.views"),
        "simulation.exchanges_completed": cell.completed,
        "simulation.exchanges_failed": cell.failed,
        "churn.before_cycle_s": wall("churn.before_cycle"),
        "churn.joins": churn_joins,
        "churn.leaves": churn_leaves,
        "churn.us_per_join": (
            wall("churn.before_cycle") / churn_joins * 1e6 if churn_joins else 0.0
        ),
        "trace.degree_tracer_s": wall("trace.degree_tracer"),
        "trace.metrics_recorder_s": wall("trace.metrics_recorder"),
        "trace.dead_link_census_s": wall("trace.dead_link_census"),
        "graph.snapshots": calls("graph.from_views"),
        "graph.from_views_s": wall("graph.from_views"),
        "graph.clustering_s": wall("graph.clustering"),
        "graph.path_length_s": wall("graph.path_length"),
        "graph.components_s": wall("graph.components"),
        "workloads.views_digest_s": wall("workloads.views_digest"),
        "workloads.extract_s": cell.extract_s,
        "defenses.sanitize_calls": calls("defenses.sanitize"),
        "defenses.sanitize_s": wall("defenses.sanitize"),
        "defenses.descriptors_in": counts.get("defenses.descriptors_in", 0),
        "defenses.descriptors_kept": counts.get("defenses.descriptors_kept", 0),
        "adversary.loop_s": own("adversary.run_events"),
        "adversary.run_events_calls": calls("adversary.run_events"),
        "codec.encode_calls": calls("codec.encode"),
        "codec.encode_s": wall("codec.encode"),
        "codec.decode_calls": calls("codec.decode"),
        "codec.decode_s": wall("codec.decode"),
        "codec.sign_s": own("codec.encode_signed"),
        "codec.verify_s": own("codec.decode_signed"),
        "codec.bytes_out": counts.get("codec.bytes_out", 0),
        "transport.sends": calls("transport.send"),
        "transport.send_s": wall("transport.send"),
        "daemon.exchange_ms_p99": p99,
        "daemon.exchange_samples": len(exchange_ms),
        "daemon.timeouts": counts.get("daemon.timeouts", 0),
        "daemon.merge_s": wall("daemon.merge"),
        "net.engine.round_overhead_s": (
            wall(stepper) - observers - initiates if is_live else 0.0
        ),
        "service.get_peer_calls": get_peer_calls,
        "service.get_peer_ns": (
            wall("service.get_peer") / get_peer_calls * 1e9 if get_peer_calls else 0.0
        ),
    }


def _churn_totals(runtime: Any) -> List[int]:
    from repro.simulation.churn import ContinuousChurn

    joins = leaves = 0
    for handle in runtime.handles:
        if isinstance(handle, ContinuousChurn):
            joins += handle.total_joined
            leaves += handle.total_left
    return [joins, leaves]
