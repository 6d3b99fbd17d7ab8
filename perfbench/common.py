"""Shared pieces of the benchmark: the metric catalogue, results, spans.

The benchmark times each layer from outside, around the calls into that
layer's public functions, and reads the engine's own stage spans from a
:class:`repro.obs.trace.Tracer` passed as ``tracer=``.  Nothing here adds a
span inside the program.
"""

from __future__ import annotations

import multiprocessing
import resource
from dataclasses import dataclass, field

import numpy as np

from repro.obs.trace import ENGINE_TID

#: Number of machines ``J`` of every workload.
MACHINES = 16

#: Per-layer metrics and their units, in report order.  Every workload
#: reports all of them; a layer the workload bypasses reads 0.
PER_LAYER_UNITS = {
    "core.histogram.sampling_s": "s",
    "core.histogram.coarsening_s": "s",
    "core.histogram.regionalization_s": "s",
    "core.regionalization.search_steps": "count",
    "core.coarsening.iterations": "count",
    "core.histogram.ms_cells": "cells",
    "core.histogram.mc_cells": "cells",
    "core.histogram.est_over_actual": "ratio",
    "sampling.parallel_stream_sample.d2equi_shipped": "tuples",
    "sampling.parallel_stream_sample.sample_pairs": "pairs",
    "partitioning.ewh.build_s": "s",
    "engine.cluster.execute_s": "s",
    "engine.cluster.network_tuples": "tuples",
    "engine.cluster.replication_factor": "ratio",
    "streaming.incremental.build_s": "s",
    "streaming.incremental.builds": "count",
    "streaming.engine.process_batch_s": "s",
    "streaming.engine.route_s": "s",
    "streaming.engine.incremental_count_s": "s",
    "streaming.engine.evict_s": "s",
    "streaming.engine.compact_s": "s",
    "streaming.engine.batch_self_s": "s",
    "streaming.engine.drift_decide_s": "s",
    "streaming.engine.migrate_s": "s",
    "streaming.engine.repartitions": "count",
    "streaming.engine.wait_ms_p99": "ms",
    "streaming.engine.resident_bytes_max": "bytes",
    "streaming.migration.migrated_tuples": "tuples",
    "streaming.backends.join_s": "s",
    "streaming.backends.bytes_shm": "bytes",
    "streaming.backends.bytes_pickled": "bytes",
    "streaming.checkpoint.checkpoint_s": "s",
    "streaming.checkpoint.bytes": "bytes",
    "streaming.window.evicted_tuples": "tuples",
    "workloads.generate_s": "s",
    "query.compile_s": "s",
    "joins.local.reference_count_s": "s",
    "obs.trace.overhead_frac": "ratio",
    "loadgen.late_ms_max": "ms",
    "loadgen.latency_p99_ms": "ms",
}

#: End-to-end metrics and their units.  Each workload gives them the
#: meaning its own operation has; ``README.md`` spells that out.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "capacity_tuples_per_s": "tuples/s",
    "latency_p50_ms": "ms",
    "model_cost": "cost",
}


@dataclass
class Outcome:
    """What one invocation measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    #: Values that must repeat exactly for a given seed.
    deterministic: dict[str, object] = field(default_factory=dict)
    #: Human-readable lines printed ahead of the result line.
    notes: list[str] = field(default_factory=list)
    #: The traced run's :class:`repro.obs.trace.Tracer`, if one was made.
    tracer: object = None


def stop_helper_processes() -> None:
    """Stop every process this one started and wait until each has ended.

    Beyond its workers, which its ``close()`` joins, the sticky backend
    starts two helpers of ``multiprocessing``: the forkserver its workers
    fork from and the resource tracker of its shared memory.  Left alone
    they outlive this process for a moment.  The forkserver holds the
    tracker's pipe, so it stops first.
    """
    from multiprocessing import forkserver, resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values, q: float) -> float:
    """The ``q`` quantile of ``values`` by linear interpolation."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def span_seconds(spans) -> "tuple[dict[str, float], dict[str, float]]":
    """Total and self seconds per span name.

    A span's self time is its duration minus its direct children's.  Spans
    arrive in finish order, so a span's children are the spans one level
    deeper that finished since the previous span at its own level.  Worker
    spans stitched onto other tracks overlap in time and are left out.
    """
    totals: dict[str, float] = {}
    selfs: dict[str, float] = {}
    child_time: dict[int, float] = {}
    for span in spans:
        if span.tid != ENGINE_TID:
            continue
        children = child_time.pop(span.depth + 1, 0.0)
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
        selfs[span.name] = selfs.get(span.name, 0.0) + max(
            span.duration - children, 0.0
        )
        child_time[span.depth] = child_time.get(span.depth, 0.0) + span.duration
    return totals, selfs


def histogram_layers(histograms) -> dict[str, float]:
    """Core, sampling and histogram-stage metrics summed over EWH builds."""
    layers = {
        "core.histogram.sampling_s": 0.0,
        "core.histogram.coarsening_s": 0.0,
        "core.histogram.regionalization_s": 0.0,
        "core.regionalization.search_steps": 0,
        "core.coarsening.iterations": 0,
        "core.histogram.ms_cells": 0,
        "core.histogram.mc_cells": 0,
        "sampling.parallel_stream_sample.d2equi_shipped": 0,
        "sampling.parallel_stream_sample.sample_pairs": 0,
    }
    for histogram in histograms:
        for stage in ("sampling", "coarsening", "regionalization"):
            layers[f"core.histogram.{stage}_s"] += histogram.stage_seconds[stage]
        layers["core.regionalization.search_steps"] += (
            histogram.regionalization.search_steps
        )
        layers["core.coarsening.iterations"] += histogram.coarsening.iterations
        ms_rows, ms_cols = histogram.sample_matrix.size
        layers["core.histogram.ms_cells"] += ms_rows * ms_cols
        mc_rows, mc_cols = histogram.coarsening.grid.shape
        layers["core.histogram.mc_cells"] += mc_rows * mc_cols
        stats = histogram.sampling_stats
        layers["sampling.parallel_stream_sample.d2equi_shipped"] += sum(
            stats.d2equi_entries_shipped
        )
        layers["sampling.parallel_stream_sample.sample_pairs"] += sum(
            stats.sample_pairs_produced
        )
    return layers
