"""The two stream workloads: ``stream-window`` and ``stream-sticky``.

Both feed an adaptive-EWH band join (beta = 1, J = 16) from a
:class:`DriftingZipfSource` over 2000 values whose skew shifts from
z = 0.1 to z = 0.9 three quarters of the way through the measured batches.
Per-batch cost differs between the two regimes, so a shift at the midpoint
would put the median latency between two modes, where it jumps from run
to run.  The join condition and window come from a SQL spec compiled by
``compile_sql``.

* ``stream-window`` keeps a ``batches:8`` window on the simulated backend,
  so every batch routes, counts, evicts and compacts.
* ``stream-sticky`` keeps a ``batches:64`` window on
  ``StickyWorkerBackend`` (shared memory and worker IPC) and checkpoints
  every 200 batches.

Each batch's output is checked against a partition-free windowed
reference computed in set-up.

The warm-up batch builds the initial partitioning and belongs to set-up;
the measured batches are then offered open-loop at the workload's period.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (
    MACHINES,
    Outcome,
    histogram_layers,
    peak_rss_mb,
    quantile,
    span_seconds,
)
from loadgen import LoadRun, drive
from repro import BAND_JOIN_WEIGHTS, DriftingZipfSource, StreamingJoinEngine
from repro.obs.trace import NULL_TRACER, Tracer
from repro.query import compile_sql
from repro.streaming import IncrementalHistogram, StickyWorkerBackend
from repro.streaming.shm import SEGMENT_PREFIX

#: Setups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 2
NUM_VALUES = 2000
Z_INITIAL = 0.1
Z_FINAL = 0.9
#: Share of the measured batches drawn before the skew shift.
SHIFT_AT = 0.75
SHM_DIR = Path("/dev/shm")


@dataclass(frozen=True)
class StreamWorkload:
    """Sizes, offered period and SQL spec of one stream workload."""

    tuples_per_batch: int
    period_s: float
    sql: str
    sticky: bool
    checkpoint_every: int | None


WORKLOADS = {
    "stream-window": StreamWorkload(
        tuples_per_batch=1000,
        period_s=0.020,
        sql="SELECT COUNT(*) FROM r1 JOIN r2 ON ABS(r1.key - r2.key) <= 1 "
        "WINDOW 'batches:8'",
        sticky=False,
        checkpoint_every=None,
    ),
    "stream-sticky": StreamWorkload(
        tuples_per_batch=500,
        period_s=0.048,
        sql="SELECT COUNT(*) FROM r1 JOIN r2 ON ABS(r1.key - r2.key) <= 1 "
        "WINDOW 'batches:64'",
        sticky=True,
        checkpoint_every=200,
    ),
}


class _BuildLog:
    """Tracer and built histograms shared by every copy of a histogram.

    Checkpoints deep-copy the engine's histogram; the log stays shared, so
    a copy neither duplicates the trace nor records into a detached one.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.histograms = []

    def __deepcopy__(self, memo) -> "_BuildLog":
        return self


class TimedIncrementalHistogram(IncrementalHistogram):
    """An :class:`IncrementalHistogram` that spans and keeps every build."""

    def __init__(self, num_machines: int, weight_fn, log: _BuildLog) -> None:
        super().__init__(num_machines, weight_fn)
        self.log = log

    def build_partitioning(self, condition, rng):
        with self.log.tracer.span("streaming.incremental.build", category="bench"):
            partitioning = super().build_partitioning(condition, rng)
        self.log.histograms.append(partitioning.histogram)
        return partitioning


def windowed_reference(batches, beta: float, window_batches: int) -> list[int]:
    """Per-batch output of the ``batches:W`` windowed band join.

    The same semantics as the engine's windowed join, computed with no
    partitioning and none of the program's join kernels: a pair is counted
    at the later tuple's arrival batch when the earlier tuple is still
    live, and live state is the last ``W`` batches before the current one.
    New R1 arrivals meet live and new R2 tuples; new R2 arrivals meet live
    R1 tuples.  The warm-up batch builds the initial partitioning, so it
    counts its own pairs the same way.

    Keys must be integral (the drifting-Zipf source draws from an integer
    domain), so each side is a histogram over the key domain and a band
    count is a dot product with the other side's band-summed histogram.
    """
    keys = [k for b in batches for k in (b.keys1, b.keys2)]
    if any(not np.array_equal(k, np.round(k)) for k in keys):
        raise ValueError("the windowed reference needs integral keys")
    width = int(np.floor(beta))
    low = min(float(k.min()) for k in keys) - width
    bins = int(max(float(k.max()) for k in keys) - low) + width + 1

    def histogram(side: np.ndarray) -> np.ndarray:
        return np.bincount((side - low).astype(np.int64), minlength=bins)

    def band(counts: np.ndarray) -> np.ndarray:
        # band[v] = sum of counts[v - width .. v + width]
        prefix = np.concatenate([[0], np.cumsum(counts)])
        index = np.arange(bins)
        return prefix[np.minimum(index + width + 1, bins)] - prefix[
            np.maximum(index - width, 0)
        ]

    live1 = np.zeros(bins, dtype=np.int64)
    live2 = np.zeros(bins, dtype=np.int64)
    window: list[tuple[np.ndarray, np.ndarray]] = []
    deltas = []
    for batch in batches:
        new1, new2 = histogram(batch.keys1), histogram(batch.keys2)
        deltas.append(int(new1 @ band(live2 + new2) + band(live1) @ new2))
        live1 += new1
        live2 += new2
        window.append((new1, new2))
        if len(window) > window_batches:
            old1, old2 = window.pop(0)
            live1 -= old1
            live2 -= old2
    return deltas


@dataclass
class StreamSetup:
    """Everything built before the measured batches start."""

    batches: list
    references: list[int]
    engine: StreamingJoinEngine
    backend: "StickyWorkerBackend | None"
    log: "_BuildLog | None"

    def close(self) -> None:
        """Release the engine's backend and any injected worker pool."""
        self.engine.close()
        if self.backend is not None:
            self.backend.close()


def set_up(workload: StreamWorkload, seed: int, measured: int, tracer) -> StreamSetup:
    """Generate the input, compile the spec, start the engine, warm it up."""
    with tracer.span("workloads.generate", category="bench"):
        source = DriftingZipfSource(
            num_batches=1 + measured,
            tuples_per_batch=workload.tuples_per_batch,
            num_values=NUM_VALUES,
            z_initial=Z_INITIAL,
            z_final=Z_FINAL,
            shift_at_batch=1 + int(SHIFT_AT * measured),
            seed=seed,
        )
        batches = list(source.batches())
    with tracer.span("query.compile", category="bench"):
        plan = compile_sql(workload.sql)
    with tracer.span("joins.local.reference_count", category="bench"):
        references = windowed_reference(
            batches, plan.condition.beta, plan.window.batches
        )
    backend = StickyWorkerBackend(max_workers=1) if workload.sticky else None
    log = None if tracer is NULL_TRACER else _BuildLog(tracer)
    histogram = (
        None
        if log is None
        else TimedIncrementalHistogram(MACHINES, BAND_JOIN_WEIGHTS, log)
    )
    engine = StreamingJoinEngine(
        MACHINES,
        plan.condition,
        BAND_JOIN_WEIGHTS,
        backend=backend,
        window=plan.window,
        histogram=histogram,
        seed=seed,
        tracer=tracer,
    )
    setup = StreamSetup(batches, references, engine, backend, log)
    try:
        engine.start()
        with tracer.span("streaming.engine.process_batch", category="bench"):
            engine.process_batch(batches[0])
    except BaseException:
        setup.close()
        raise
    return setup


@dataclass
class StreamRun:
    """One measured stream: load timings, the engine's result, any error."""

    load: LoadRun
    result: object = None
    checkpoints: list = field(default_factory=list)
    error: "Exception | None" = None


def measure(setup: StreamSetup, workload: StreamWorkload, tracer,
            keep_checkpoints: bool = False) -> StreamRun:
    """Offer the measured batches open-loop, then finish and close."""
    engine = setup.engine
    run = StreamRun(LoadRun(workload.period_s))
    every = workload.checkpoint_every

    def process(batch) -> None:
        with tracer.span("streaming.engine.process_batch", category="bench"):
            engine.process_batch(batch)
        if every and batch.index % every == 0:
            with tracer.span("streaming.checkpoint", category="bench"):
                checkpoint = engine.checkpoint()
            if keep_checkpoints:
                run.checkpoints.append(checkpoint)

    try:
        drive(setup.batches[1:], run.load, process)
        run.result = engine.finish()
    except Exception as error:  # e.g. WorkerCrashError: the run failed
        run.error = error
    finally:
        setup.close()
    return run


def check(run: StreamRun, setup: StreamSetup, outcome: Outcome) -> None:
    """Count every batch as attempted and decide which failed."""
    total = len(setup.batches)
    outcome.attempted += total
    if run.error is not None:
        outcome.failed += total - len(run.load.latencies)
        outcome.notes.append(f"the stream raised {run.error!r}")
        return
    wrong = sum(
        batch.output_delta != setup.references[batch.batch_index]
        for batch in run.result.batches
    )
    if wrong:
        outcome.failed += wrong
        outcome.notes.append(f"{wrong} batches differ from the reference")


def deterministic_of(run: StreamRun) -> dict[str, object]:
    """Values of a finished stream that repeat exactly for a given seed."""
    if run.result is None:
        return {"error": repr(run.error)}
    result = run.result
    return {
        "max_machine_load": result.max_machine_load,
        "repartitions": result.num_repartitions,
        "migrated_tuples": result.total_migrated,
        "evicted_tuples": result.total_evicted,
        "resident_bytes_max": result.peak_resident_bytes,
        "bytes_shm": result.total_bytes_shm or 0,
        "output_tuples": result.total_output,
    }


def steady_capacity(result, load: LoadRun, tuples_per_batch: int) -> float:
    """Tuples per second inside the calls for batches that did not repartition.

    A drift rebuild stalls its batch for up to a second, and how many
    rebuilds a stream makes depends on its data, so a capacity over every
    batch moved by a quarter from seed to seed.  Rebuild time shows in
    ``setup_s`` (the initial build) and in the traced run's
    ``streaming.incremental.build_s`` and ``loadgen.latency_p99_ms``.
    """
    steady = [
        seconds
        for seconds, batch in zip(load.services, result.batches[1:])
        if not batch.repartitioned
    ]
    return 2 * tuples_per_batch * len(steady) / sum(steady)


def shm_segments() -> set[str]:
    """Names of the sticky backend's shared-memory segments present now."""
    if not SHM_DIR.is_dir():
        return set()
    return {path.name for path in SHM_DIR.glob(f"{SEGMENT_PREFIX}-*")}


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Run one stream workload; with ``trace`` also a traced pass."""
    workload = WORKLOADS[name]
    measured = max(1, round(seconds / workload.period_s))
    outcome = Outcome()
    segments_before = shm_segments()

    setup_times = []
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        setup = set_up(workload, seed, measured, NULL_TRACER)
        setup_times.append(time.perf_counter() - start)
        if repeat + 1 < SETUP_REPEATS:
            setup.close()
            del setup
            gc.collect()
    untraced = measure(setup, workload, NULL_TRACER, keep_checkpoints=trace)
    check(untraced, setup, outcome)
    outcome.deterministic = deterministic_of(untraced)
    load = untraced.load
    outcome.notes.append(
        f"J={MACHINES} tuples/batch/side={workload.tuples_per_batch} "
        f"period={workload.period_s * 1000:g} ms batches={measured} "
        f"late_ms_max={1000 * max(load.lateness, default=0.0):.3f}"
    )
    if not trace:
        if untraced.result is not None:
            outcome.metrics = {
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": peak_rss_mb(),
                "capacity_tuples_per_s": steady_capacity(
                    untraced.result, load, workload.tuples_per_batch
                ),
                "latency_p50_ms": 1000.0 * statistics.median(load.latencies),
                "model_cost": untraced.result.max_machine_load,
            }
    else:
        checkpoint_bytes = sum(len(cp.to_bytes()) for cp in untraced.checkpoints)
        untraced.checkpoints.clear()
        outcome.tracer = Tracer()
        traced_setup = set_up(workload, seed, measured, outcome.tracer)
        traced = measure(traced_setup, workload, outcome.tracer)
        check(traced, traced_setup, outcome)
        if deterministic_of(traced) != outcome.deterministic:
            outcome.failed += 1
            outcome.notes.append("traced and untraced runs differ")
        if traced.result is not None:
            outcome.layers = layers(
                untraced, traced, traced_setup.log, outcome.tracer
            )
            outcome.layers["streaming.checkpoint.bytes"] = checkpoint_bytes

    leaked = shm_segments() - segments_before
    if leaked:
        outcome.failed += 1
        outcome.notes.append(f"leaked shared-memory segments: {sorted(leaked)}")
    return outcome


def layers(untraced: StreamRun, traced: StreamRun, log: _BuildLog,
           tracer) -> dict[str, float]:
    """Per-layer metrics: spans of the traced run, counts of its result."""
    totals, selfs = span_seconds(tracer.spans)
    result = traced.result
    values = histogram_layers(log.histograms)
    values.update(
        {
            "streaming.incremental.build_s": totals.get(
                "streaming.incremental.build", 0.0
            ),
            "streaming.incremental.builds": len(log.histograms),
            "streaming.engine.process_batch_s": totals[
                "streaming.engine.process_batch"
            ],
            "streaming.engine.batch_self_s": selfs["batch"],
            "streaming.engine.repartitions": result.num_repartitions,
            "streaming.engine.wait_ms_p99": 1000.0
            * quantile(untraced.load.waits, 0.99),
            "streaming.engine.resident_bytes_max": result.peak_resident_bytes,
            "streaming.migration.migrated_tuples": result.total_migrated,
            "streaming.backends.join_s": result.join_seconds,
            "streaming.backends.bytes_shm": result.total_bytes_shm or 0,
            "streaming.backends.bytes_pickled": result.total_bytes_pickled or 0,
            "streaming.checkpoint.checkpoint_s": totals.get(
                "streaming.checkpoint", 0.0
            ),
            "streaming.window.evicted_tuples": result.total_evicted,
            "workloads.generate_s": selfs["workloads.generate"],
            "query.compile_s": selfs["query.compile"],
            "joins.local.reference_count_s": selfs.get(
                "joins.local.reference_count", 0.0
            ),
            "obs.trace.overhead_frac": traced.load.busy / untraced.load.busy - 1.0,
            "loadgen.late_ms_max": 1000.0 * max(untraced.load.lateness, default=0.0),
            "loadgen.latency_p99_ms": 1000.0 * quantile(untraced.load.latencies, 0.99),
        }
    )
    for stage in ("route", "incremental_count", "evict", "compact",
                  "drift_decide", "migrate"):
        values[f"streaming.engine.{stage}_s"] = selfs.get(stage, 0.0)
    return values
