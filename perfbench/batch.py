"""The ``batch-tableiv`` workload: CSIO joins over the paper's Table IV joins.

A closed loop with one caller runs whole rotations for ``--seconds`` over
five joins at their default sizes (B_ICD, B_CB-1, B_CB-3, B_CB-16 and BE_OCD), J = 16.  Each
join is one operation: :meth:`CSIOOperator.build_partitioning` (which calls
``build_ewh_partitioning``) followed by
:meth:`CSIOOperator.execute_and_report` (which calls
``run_partitioned_join``), checked against a ``count_join_output``
reference computed before timing starts.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from common import (
    MACHINES,
    Outcome,
    histogram_layers,
    peak_rss_mb,
    span_seconds,
)
from repro import CSIOOperator
from repro.joins.local import count_join_output
from repro.obs.trace import NULL_TRACER, Tracer
from repro.workloads.definitions import make_bcb, make_beocd, make_bicd

#: Setups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 9


@dataclass
class JoinRecord:
    """What one CSIO join left behind: its time, checks and layer figures.

    The partitioning itself is dropped at once, so the benchmark holds no
    sample matrices between joins and peak memory stays the program's.
    """

    name: str
    seconds: float
    error: Exception | None = None
    correct: bool = False
    total_cost: float = 0.0
    #: Values that repeat exactly for a given seed.
    signature: tuple = ()
    layers: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether the join ran and produced the reference count."""
        return self.error is None and self.correct


def generate(seed: int):
    """The five joins, drawn from the workload seed as Table IV seeds them."""
    return [
        make_bicd(seed=seed),
        make_bcb(beta=1, seed=seed + 1),
        make_bcb(beta=3, seed=seed + 3),
        make_bcb(beta=16, seed=seed + 16),
        make_beocd(seed=seed),
    ]


def setup(seed: int, tracer):
    """Generate the joins and their reference output counts."""
    with tracer.span("workloads.generate", category="bench"):
        joins = generate(seed)
        for join in joins:
            join.keys1 = np.asarray(join.keys1, dtype=np.float64)
            join.keys2 = np.asarray(join.keys2, dtype=np.float64)
    with tracer.span("joins.local.reference_count", category="bench"):
        references = [
            count_join_output(join.keys1, join.keys2, join.condition)
            for join in joins
        ]
    return joins, references


def run_join(join, reference: int, seed: int, position: int, tracer) -> JoinRecord:
    """One CSIO join, timed from outside around the two operator halves."""
    operator = CSIOOperator(MACHINES)
    rng = np.random.default_rng([seed, position])
    start = time.perf_counter()
    try:
        with tracer.span("partitioning.ewh.build", category="bench"):
            partitioning, stats_cost, build_seconds = operator.build_partitioning(
                join.keys1, join.keys2, join.condition, join.weight_fn, rng
            )
        with tracer.span("engine.cluster.execute", category="bench"):
            report = operator.execute_and_report(
                partitioning, stats_cost, build_seconds, join.keys1,
                join.keys2, join.condition, join.weight_fn, rng, reference,
            )
    except Exception as error:  # a raising join is a failed operation
        return JoinRecord(join.name, time.perf_counter() - start, error=error)
    seconds = time.perf_counter() - start
    histogram = partitioning.histogram
    layers = histogram_layers([histogram])
    layers["core.histogram.est_over_actual"] = (
        report.estimated_max_weight / report.max_region_weight
    )
    layers["engine.cluster.network_tuples"] = report.network_tuples
    layers["engine.cluster.replication_factor"] = report.replication_factor
    return JoinRecord(
        join.name,
        seconds,
        correct=report.output_correct,
        total_cost=report.total_cost,
        signature=(
            report.total_cost,
            report.total_output,
            histogram.regionalization.search_steps,
            histogram.coarsening.iterations,
            histogram.sample_matrix.size,
            histogram.coarsening.grid.shape,
        ),
        layers=layers,
    )


def run_rotations(joins, references, seed: int, seconds: float, tracer):
    """Run whole rotations until ``seconds`` have passed."""
    rotations: list[list[JoinRecord]] = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        rotations.append(
            [
                run_join(join, reference, seed, position, tracer)
                for position, (join, reference) in enumerate(
                    zip(joins, references)
                )
            ]
        )
    return rotations


def check(rotations, expected: "list[tuple] | None", outcome: Outcome) -> list:
    """Count and check every join; return the first rotation's signature.

    Every rotation, and the traced run when ``expected`` is given, must
    repeat the first rotation's costs and counts exactly.
    """
    signature = [record.signature or repr(record.error) for record in rotations[0]]
    expected = expected or signature
    for records in rotations:
        for record in records:
            outcome.attempted += 1
            if not record.ok:
                outcome.failed += 1
                outcome.notes.append(
                    f"{record.name} failed: {record.error or 'wrong output'}"
                )
        if [r.signature or repr(r.error) for r in records] != expected:
            outcome.failed += 1
            outcome.notes.append("costs or counts differ between rotations")
    return signature


def busy(rotations) -> float:
    """Seconds spent inside join calls, per rotation."""
    return sum(r.seconds for records in rotations for r in records) / len(rotations)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    """Run the workload; with ``trace`` also a traced pass for the layers."""
    outcome = Outcome()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        joins, references = setup(seed, NULL_TRACER)
        setup_times.append(time.perf_counter() - start)

    rotations = run_rotations(joins, references, seed, seconds, NULL_TRACER)
    signature = check(rotations, None, outcome)
    outcome.deterministic = {
        join.name: values for join, values in zip(joins, signature)
    }
    if not trace:
        outcome.metrics = end_to_end(rotations, joins, setup_times)
        outcome.notes.append(
            f"rotations {len(rotations)}; join s: "
            + ", ".join(f"{r.name} {r.seconds:.3f}" for r in rotations[0])
        )
        return outcome

    outcome.tracer = Tracer()
    joins, references = setup(seed, outcome.tracer)
    traced = run_rotations(joins, references, seed, seconds, outcome.tracer)
    check(traced, signature, outcome)
    outcome.layers = layers(traced, outcome.tracer, busy(rotations))
    return outcome


def end_to_end(rotations, joins, setup_times) -> dict[str, float]:
    """End-to-end metrics of the untraced run."""
    per_join = [
        statistics.median(records[position].seconds for records in rotations)
        for position in range(len(joins))
    ]
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "capacity_tuples_per_s": sum(j.num_input_tuples for j in joins)
        / busy(rotations),
        "latency_p50_ms": 1000.0 * statistics.median(per_join),
        "model_cost": sum(r.total_cost for r in rotations[0]),
    }


def layers(rotations, tracer, untraced_busy: float) -> dict[str, float]:
    """Per-layer metrics of the traced run: times per rotation, counts of one."""
    count = len(rotations)
    first = [r for r in rotations[0] if r.error is None]
    if not first:
        return {}
    result = {
        name: sum(r.layers[name] for r in first) for name in first[0].layers
    }
    for name in ("core.histogram.est_over_actual",
                 "engine.cluster.replication_factor"):
        result[name] = statistics.mean(r.layers[name] for r in first)
    for stage in ("sampling", "coarsening", "regionalization"):
        name = f"core.histogram.{stage}_s"
        result[name] = sum(
            r.layers[name] for records in rotations for r in records if r.error is None
        ) / count
    _, selfs = span_seconds(tracer.spans)
    result["partitioning.ewh.build_s"] = selfs["partitioning.ewh.build"] / count
    result["engine.cluster.execute_s"] = selfs["engine.cluster.execute"] / count
    result["workloads.generate_s"] = selfs["workloads.generate"]
    result["joins.local.reference_count_s"] = selfs["joins.local.reference_count"]
    result["obs.trace.overhead_frac"] = busy(rotations) / untraced_busy - 1.0
    return result
