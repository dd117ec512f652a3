"""The repository benchmark: one workload per process, metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steady-churn --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats the workload's cell for ``--seconds`` seconds and
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates
untraced and traced cells and reports the per-layer metrics, writing the
recorded spans to ``.bench_build/traces/``.  The last line of standard
output is the result object; everything else goes before it or to
standard error.

The run is single-process and single-threaded.  The C core compiles into
``.bench_build/`` on first use and is loaded before anything is timed; a
run without it fails, because the pure-Python fallback would read as a
twenty-fold regression.

Every end-to-end time is reported at a fixed reference machine speed.  A
shared virtual machine runs the same code 1.3-1.7x slower or faster in
phases lasting seconds, which would swamp any change to the program.  So
each cell is bracketed by a fixed pure-Python calibration loop that runs
no program code, ``CALIBRATION_ROUNDS`` rounds before it and as many
after, and the cell's times are multiplied by
``REFERENCE_CALIBRATION_S / calibration time``: what the cell would take
on a machine where one round takes the reference time.  The raw medians
go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import sys
import tempfile
import time
from array import array
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
DEFAULT_SEED = 1
SETUPS_PER_CELL = 2
"""Set-up-only repetitions next to each timed cell, on top of its own."""
MIN_CELLS = 3
CALIBRATION_ROUNDS = 2
"""Calibration rounds on each side of a cell; one round takes ~40 ms."""
CALIBRATION_LOADS = 40_000
CALIBRATION_TABLE_ENTRIES = 1 << 20
CALIBRATION_NODES = 400
CALIBRATION_VIEW = 8
CALIBRATION_CYCLES = 4
REFERENCE_CALIBRATION_S = 0.04
"""Seconds one calibration round takes at the reference machine speed."""
_calibration_table = None


def calibration_s() -> float:
    """Wall seconds of one round of a fixed loop that touches no program code.

    A round makes loads scattered over an 8 MiB table, then gossips a toy
    overlay of sets and lists in pure Python, so it slows down and speeds
    up with the machine the way both the C kernels and the Python layers
    of the workloads do.  The table is allocated once, outside the timed
    part: page faults on fresh memory vary far more than the workloads.
    """
    global _calibration_table
    if _calibration_table is None:
        _calibration_table = array("q", bytes(8 * CALIBRATION_TABLE_ENTRIES))
    table = _calibration_table
    started = time.perf_counter()
    mask = CALIBRATION_TABLE_ENTRIES - 1
    x = j = 0
    for i in range(CALIBRATION_LOADS):
        j = (j * 1103515245 + 12345) & mask
        x = (x + table[j] + i * i) % 1000003
    rng = random.Random(0)
    n, c = CALIBRATION_NODES, CALIBRATION_VIEW
    views = [[rng.randrange(n) for _ in range(c)] for _ in range(n)]
    for _ in range(CALIBRATION_CYCLES):
        for p in range(n):
            q = rng.choice(views[p])
            pool = views[p] + views[q]
            merged = sorted(set(pool) - {p})
            rng.shuffle(merged)
            views[p] = merged[:c]
            views[q] = sorted(set(pool) - {q})[:c]
    return time.perf_counter() - started


def _prepare_environment() -> None:
    """Keep every file the run writes inside the checkout, one thread each."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["XDG_CACHE_HOME"] = os.path.join(BUILD, "cache")
    os.environ.pop("REPRO_NO_ACCEL", None)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    tempfile.tempdir = tmp
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)


def _fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def provenance() -> dict:
    """Machine and kernel-backend facts every result is read against."""
    import numpy

    from repro.simulation import _fastcore

    accelerator = _fastcore.load_accelerator()
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "c_core_loaded": accelerator is not None,
        "c_core_cache_file": os.path.basename(_fastcore._cache_path()),
    }


class Checks:
    """Correctness checks; each is one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list = []

    def check(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.errors.append(f"{what}: {problems}")

    @property
    def failed(self) -> int:
        return len(self.errors)


def gate_identity(checks: Checks, what: str, got: dict, expected: dict) -> None:
    """Fail ``what`` unless every expected key reads the same in ``got``."""
    diff = {
        key: (got.get(key), value)
        for key, value in expected.items()
        if got.get(key) != value
    }
    checks.check(what, diff)


def _load_expected(workload: str) -> dict:
    with open(os.path.join(ROOT, "perfbench", "expected.json")) as handle:
        return json.load(handle)[workload]


def _live_exchange_timer():
    """Time each ``GossipDaemon.initiate`` await; returns the sample list."""
    from repro.net.daemon import GossipDaemon

    samples: list = []
    original = GossipDaemon.initiate
    clock = time.perf_counter

    async def timed(self, exchange):
        started = clock()
        result = await original(self, exchange)
        samples.append(clock() - started)
        return result

    GossipDaemon.initiate = timed
    return samples


def run(args) -> dict:
    from perfbench import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    seed = args.seed
    checks = Checks()

    def check_cell(cell, reference) -> None:
        gate_identity(checks, "repeat identity", cell.identity(), reference)
        checks.check("getPeer draws", cell.getpeer_bad[:5])

    # Warm-up cell: lazy imports and caches fill here.  It sets the
    # reference every later cell of this run must repeat exactly.
    first = wl.run_cell(workload, seed)
    reference = first.identity()
    if seed == DEFAULT_SEED:
        gate_identity(checks, "pinned digest", reference, _load_expected(workload.name))
    checks.check(
        "view invariants",
        wl.view_invariant_errors(first.runtime.engine.views(), wl.VIEW_SIZE)[:5],
    )
    checks.check("measurements", wl.measurement_errors(workload, first))
    checks.check("getPeer draws", first.getpeer_bad[:5])
    if workload.engine == "live":
        # the wire stack must build the very overlay the fast engine builds
        fast = wl.run_cell(workload, seed, engine="fast")
        gate_identity(checks, "live == fast", fast.identity(), reference)
        wl.close_cell(fast)
    wl.close_cell(first)
    if args.trace:
        return _traced(args, workload, seed, checks, check_cell, reference)

    live_samples = _live_exchange_timer() if workload.engine == "live" else None
    cells, raw_cells, calibrations = [], [], []
    cell_s, setup_s, rates, exchange_s = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(cells) < MIN_CELLS or time.perf_counter() < deadline:
        before = sum(calibration_s() for _ in range(CALIBRATION_ROUNDS))
        setups = [wl.setup_only(workload, seed) for _ in range(SETUPS_PER_CELL)]
        gc.collect()
        cell = wl.run_cell(workload, seed)
        after = sum(calibration_s() for _ in range(CALIBRATION_ROUNDS))
        check_cell(cell, reference)
        calibrations.append((before + after) / (2 * CALIBRATION_ROUNDS))
        speed = REFERENCE_CALIBRATION_S / calibrations[-1]
        if live_samples is not None:
            # round trips timed around each initiate await
            samples = list(live_samples)
            live_samples.clear()
        else:
            # the simulators' C loops run whole cycles natively, so the
            # sample is the cell's gossip-run wall per completed exchange
            samples = [cell.run_s / cell.completed]
        exchange_s.extend(x * speed for x in samples)
        setup_s.extend(x * speed for x in setups + [cell.setup_s])
        cell_s.append(cell.cell_s * speed)
        rates.append(cell.completed / (cell.run_s * speed))
        raw_cells.append(cell.cell_s)
        wl.close_cell(cell)
        cells.append(cell)
    ok = cells[0]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "cell_s": (median(cell_s), "s"),
        "setup_s": (median(setup_s), "s"),
        "exchanges_per_s": (median(rates), "1/s"),
        "exchange_ok_share": (
            ok.completed / (ok.completed + ok.failed + ok.lost),
            "share",
        ),
        "exchange_ms_p50": (median(exchange_s) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(
        f"cells: {len(cells)}, set-ups: {len(setup_s)}, exchange samples: "
        f"{len(exchange_s)}; raw cell_s median {median(raw_cells):.4f}, "
        f"calibration median {median(calibrations):.5f} s",
        file=sys.stderr,
    )
    return _result(checks, metrics)


def _traced(args, workload, seed, checks, check_cell, reference) -> dict:
    from perfbench import layers
    from perfbench import workloads as wl
    from perfbench.tracing import Tracer, write_spans

    tracer = Tracer()
    per_cell = []
    plain, traced = [], []
    dumps = []
    deadline = time.perf_counter() + args.seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        gc.collect()
        cell = wl.run_cell(workload, seed)
        check_cell(cell, reference)
        plain.append(cell.cell_s)
        wl.close_cell(cell)
        gc.collect()
        tracer.reset()
        layers.instrument(tracer)
        try:
            cell = wl.run_cell(
                workload,
                seed,
                tracer=tracer,
                on_engine=lambda engine: layers.instrument_engine(tracer, engine),
            )
        finally:
            tracer.restore()
        check_cell(cell, reference)
        traced.append(cell.cell_s)
        per_cell.append(
            layers.layer_metrics(tracer.spans, tracer.counts, cell, workload.cycles)
        )
        dumps.append(tracer.spans)
        wl.close_cell(cell)
    metrics = {
        name: (median([values[name] for values in per_cell]), spec[0])
        for name, spec in layers.LAYER_MAP.items()
        if name != "bench.tracing_overhead"
    }
    metrics["bench.tracing_overhead"] = (median(traced) / median(plain), "ratio")
    out_dir = os.path.join(BUILD, "traces")
    os.makedirs(out_dir, exist_ok=True)
    write_spans(
        os.path.join(out_dir, f"{workload.name}-seed{seed}.json.gz"),
        {"workload": workload.name, "seed": seed},
        dumps,
    )
    print(f"traced cells: {len(traced)}", file=sys.stderr)
    return _result(checks, metrics)


def _result(checks: Checks, metrics: dict) -> dict:
    for error in checks.errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        _fail(f"no program source under {os.path.join(ROOT, 'src')}", 2)
    _prepare_environment()
    try:
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        _fail(f"cannot import the program: {exc}", 2)
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", 2)
    facts = provenance()
    if not facts["c_core_loaded"]:
        _fail("the C core did not load; refusing to measure the Python fallback", 3)
    print(json.dumps({"provenance": facts}))
    result = run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
