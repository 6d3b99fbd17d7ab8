"""Pluggable execution backends for the streaming join engine.

The engine decides *what* to join each micro-batch — the per-machine region
state under the current partitioning — and an :class:`ExecutionBackend`
decides *how* those per-region joins actually run:

* :class:`SimulatedBackend` counts each region's join output in the engine's
  own process (the original simulator loop, extracted).  Cost-model load is
  the quantity of interest; wall timings are recorded but reflect a single
  core.
* :class:`MultiprocessBackend` ships the busy regions to a persistent
  ``ProcessPoolExecutor`` — the same worker-pool machinery as the batch
  :func:`~repro.engine.executor.run_join_multiprocess` — so the incremental
  joins of one batch run in parallel OS processes and the metrics carry
  *real* per-region wall-clock timings.  The pool is created once and reused
  across every batch of the stream, amortising process start-up.
* :class:`StickyWorkerBackend` goes one step further: each worker process
  *owns* its machines' :class:`~repro.streaming.incremental.SortedRegionState`
  resident across batches, and the engine ships only the per-batch delta —
  new-arrival index/key arrays over a :class:`~repro.streaming.shm.ShmArena`
  shared-memory segment plus tiny pickled control messages for evictions,
  trim points and migration moves.  Steady-state ``bytes_pickled`` collapses
  to the control messages alone (the ``shm KB`` column meters the
  shared-memory payload instead).

Every backend also hands the engine the per-stream join state, through one
protocol (:class:`RegionState`): :meth:`ExecutionBackend.bind` returns an
object that counts each batch's arrivals against the resident state, evicts,
rebases, installs migrated state, resizes, reports its arrival indices and
drains its byte accounting.  Stateless backends inherit
:class:`InProcessRegionState` -- sorted per-machine state in the engine's
process, each batch's 2J delta counts dispatched as one :meth:`join_regions`
call -- while the sticky backend implements the same calls over its workers.
Both run the one delta fold :func:`fold_arrivals`.

Every backend receives identical per-region key arrays and counts output with
the same exact kernel, so the cost-model numbers, incremental output deltas
and migration plans of a run are backend-independent; only the measured
timings differ.  ``tests/test_backends.py`` locks that equivalence down.

Process-spawning backends pin an explicit multiprocessing start method
(forkserver where available, else spawn) instead of the platform default:
``fork`` — the Linux default up to Python 3.11 — forks whatever threads the
parent has already started, which can deadlock a
``StreamingPipeline(mode="thread")`` whose producer thread holds a lock at
fork time.

Select a backend by passing it to :class:`StreamingJoinEngine` (default:
simulated) or by name through :func:`make_backend`::

    with make_backend("multiprocess", max_workers=4) as backend:
        engine = StreamingJoinEngine(8, condition, weights, backend=backend)
        result = engine.run(source)
"""

from __future__ import annotations

import abc
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.engine.executor import (
    broadcast_conditions,
    join_assigned_regions,
    pickled_nbytes,
)
from repro.joins.conditions import JoinCondition
from repro.joins.local import count_join_output
from repro.obs.clock import perf_counter
from repro.streaming.incremental import SortedRegionState, remove_sorted
from repro.streaming.shm import ShmArena, ShmReader

__all__ = [
    "RegionJoinResult",
    "RegionState",
    "InProcessRegionState",
    "fold_arrivals",
    "ExecutionBackend",
    "SimulatedBackend",
    "MultiprocessBackend",
    "StickyWorkerBackend",
    "SlowConsumerBackend",
    "WorkerCrashError",
    "default_mp_context",
    "make_backend",
]


class WorkerCrashError(RuntimeError):
    """A backend worker process died (or its channel broke) mid-command.

    Raised promptly -- the engine never hangs on a dead worker's pipe --
    with the worker identity and exit code in the message where known.
    The run that hit it is unrecoverable in place (the dead worker's
    resident state is gone); restore from the last
    :class:`~repro.streaming.checkpoint.StreamCheckpoint` onto a fresh
    backend instead, which is exactly what
    :func:`~repro.streaming.checkpoint.run_resilient` automates.
    """


def default_mp_context() -> multiprocessing.context.BaseContext:
    """The start method process-spawning backends pin: forkserver, else spawn.

    Never ``fork``: forking a process that already runs threads (a
    ``StreamingPipeline(mode="thread")`` producer, a tracing exporter)
    duplicates whatever locks those threads hold and can deadlock the child
    — the classic Linux ≤3.11 default-start-method bug this choice fixes.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "forkserver" if "forkserver" in methods else "spawn"
    )


def _resolve_mp_context(
    mp_context: "multiprocessing.context.BaseContext | str | None",
) -> multiprocessing.context.BaseContext:
    """Normalise an ``mp_context`` argument (name, context or ``None``)."""
    if mp_context is None:
        return default_mp_context()
    if isinstance(mp_context, str):
        return multiprocessing.get_context(mp_context)
    return mp_context


@dataclass
class RegionJoinResult:
    """Output counts and timings of executing one batch's per-region joins.

    Attributes
    ----------
    per_machine_output:
        Exact join output counted for each machine's region state.
    per_machine_seconds:
        Wall-clock seconds spent joining each region (worker time under the
        multiprocess backend, in-process time under the simulated one).
    wall_seconds:
        End-to-end time of the whole execution, including scheduling.
    bytes_pickled, bytes_unpickled:
        Bytes the execution shipped through a serialization channel --
        tasks out, results back over the multiprocess backend's
        ``ProcessPoolExecutor`` pickle channel.  ``None`` (not ``0``) for
        backends with no such channel: the in-process simulated backend
        moves no bytes at all, and reporting renders the column as ``-``
        rather than claiming a measured zero.
    bytes_shm:
        Array payload bytes the execution moved through a shared-memory
        segment instead of the pickle channel (the sticky backend's
        :class:`~repro.streaming.shm.ShmArena` transport).  ``None`` for
        backends without a shared-memory channel.
    worker_pids:
        OS pid of the process that joined each machine's region (``-1``
        for machines that were never dispatched), or ``None`` for
        in-process backends.  A tracer uses these to stitch per-worker
        child spans under the dispatching batch's span.
    """

    per_machine_output: np.ndarray
    per_machine_seconds: np.ndarray
    wall_seconds: float
    bytes_pickled: "int | None" = None
    bytes_unpickled: "int | None" = None
    bytes_shm: "int | None" = None
    worker_pids: "np.ndarray | None" = None

    @property
    def total_output(self) -> int:
        """Total output tuples across machines."""
        return int(self.per_machine_output.sum())


def _accumulate_bytes(total: "int | None", measured: "int | None") -> "int | None":
    """Fold one measured byte count into a running total.

    ``None`` means "not measured" on both sides -- a total only becomes a
    number once some execution went through a profiling serialization
    channel, so simulated batches keep ``None`` (rendered ``-`` in the
    streaming tables) rather than a misleading ``0``.
    """
    if measured is None:
        return total
    return (0 if total is None else total) + measured


def _count_regions(
    region_keys: "list[tuple[np.ndarray, np.ndarray]]",
    conditions: "list[JoinCondition]",
    keys2_sorted: bool,
) -> "tuple[np.ndarray, np.ndarray]":
    """Count each non-empty region's join output in this process.

    Returns the per-region outputs and join seconds; a region with an empty
    side produces nothing and is neither counted nor timed.
    """
    outputs = np.zeros(len(region_keys), dtype=np.int64)
    seconds = np.zeros(len(region_keys))
    for task, (keys1, keys2) in enumerate(region_keys):
        if len(keys1) == 0 or len(keys2) == 0:
            continue
        started = perf_counter()
        outputs[task] = count_join_output(
            keys1, keys2, conditions[task], keys2_sorted=keys2_sorted
        )
        seconds[task] = perf_counter() - started
    return outputs, seconds


def fold_arrivals(
    state1: SortedRegionState,
    state2: SortedRegionState,
    new_index1: np.ndarray,
    new_keys1: np.ndarray,
    new_index2: np.ndarray,
    new_keys2: np.ndarray,
) -> "list[tuple[np.ndarray, np.ndarray]]":
    """Fold one machine's arrivals into its sorted state; return the delta tasks.

    A batch's output delta on a machine decomposes exactly as
    ``C(new1, state2 + new2) + C(state1, new2)``.  The first task searches
    the (just-updated) sorted R2 state per new R1 key under the join
    condition; the second searches the *pre-insert* sorted R1 state per new
    R2 key under the transposed condition.  Both second arrays are sorted,
    so each count is ``O(new log state)``.  Both sides are inserted before
    returning; the pre-insert R1 keys stay valid because
    :meth:`SortedRegionState.insert` never mutates its arrays in place.
    """
    old_keys1 = state1.keys
    state2.insert(new_index2, new_keys2)
    state1.insert(new_index1, new_keys1)
    return [(new_keys1, state2.keys), (new_keys2, old_keys1)]


class RegionState(Protocol):
    """The per-stream join state a backend hands the engine on ``bind``.

    One object per stream holds every machine's resident region state (two
    :class:`SortedRegionState` sides per machine, wherever they live) and
    answers the engine's calls in engine coordinates -- arrival indices
    into the engine's (compacted) key histories.
    """

    def count_batch(
        self,
        new1: "list[np.ndarray]",
        new2: "list[np.ndarray]",
        history1: np.ndarray,
        history2: np.ndarray,
    ) -> RegionJoinResult:
        """Fold per-machine arrivals into the state; count each machine's delta."""

    def evict_state(self, expired1: np.ndarray, expired2: np.ndarray) -> int:
        """Drop expired arrival indices everywhere; return entries dropped."""

    def rebase_state(self, trim1: int, trim2: int) -> None:
        """Shift every resident arrival index down after history compaction."""

    def install_state(
        self,
        assignments1: "list[np.ndarray]",
        assignments2: "list[np.ndarray]",
        history1: np.ndarray,
        history2: np.ndarray,
    ) -> None:
        """Replace every machine's state with complete per-machine assignments."""

    def resize(self, num_machines: int) -> None:
        """Adopt a new machine count; an :meth:`install_state` must follow."""

    def state_indices(self) -> "tuple[list[np.ndarray], list[np.ndarray]]":
        """Per-machine resident arrival indices of each side (not copies)."""

    def drain_channel_bytes(
        self,
    ) -> "tuple[int | None, int | None, int | None]":
        """Bytes moved since the last drain: (pickled, unpickled, shm)."""


class InProcessRegionState:
    """Region state kept in the engine's process -- every stateless backend's.

    Each machine's two sides are :class:`SortedRegionState` lists here; a
    batch's count folds the arrivals in with :func:`fold_arrivals` and ships
    the resulting 2J delta tasks to the backend as one :meth:`join_regions`
    call (a single pool round-trip under the multiprocess backend).  The
    object belongs to one stream, so the backend that made it stays free to
    serve other engines.
    """

    def __init__(
        self,
        backend: "ExecutionBackend",
        num_machines: int,
        condition: JoinCondition,
        transposed: JoinCondition,
    ) -> None:
        self.backend = backend
        self.condition = condition
        self.transposed = transposed
        self.resize(num_machines)
        self._pickled: "int | None" = None
        self._unpickled: "int | None" = None

    def count_batch(
        self,
        new1: "list[np.ndarray]",
        new2: "list[np.ndarray]",
        history1: np.ndarray,
        history2: np.ndarray,
    ) -> RegionJoinResult:
        """Fold the arrivals in and count every machine's delta in one dispatch.

        The returned result is per machine (the two tasks' outputs and
        seconds summed); a machine's worker pid is whichever process ran its
        first dispatched task.
        """
        tasks: "list[tuple[np.ndarray, np.ndarray]]" = []
        for machine, (state1, state2) in enumerate(zip(self.state1, self.state2)):
            index1, index2 = new1[machine], new2[machine]
            tasks += fold_arrivals(
                state1, state2, index1, history1[index1], index2, history2[index2]
            )
        J = len(self.state1)
        execution = self.backend.join_regions(
            tasks, [self.condition, self.transposed] * J, keys2_sorted=True
        )
        self._pickled = _accumulate_bytes(self._pickled, execution.bytes_pickled)
        self._unpickled = _accumulate_bytes(
            self._unpickled, execution.bytes_unpickled
        )
        pids = execution.worker_pids
        if pids is not None:
            pids = np.where(pids[0::2] >= 0, pids[0::2], pids[1::2])
        return RegionJoinResult(
            per_machine_output=execution.per_machine_output.reshape(J, 2).sum(axis=1),
            per_machine_seconds=execution.per_machine_seconds.reshape(J, 2).sum(
                axis=1
            ),
            wall_seconds=execution.wall_seconds,
            worker_pids=pids,
        )

    def evict_state(self, expired1: np.ndarray, expired2: np.ndarray) -> int:
        """Drop the expired indices from every machine; return entries dropped."""
        return sum(state.evict(expired1) for state in self.state1) + sum(
            state.evict(expired2) for state in self.state2
        )

    def rebase_state(self, trim1: int, trim2: int) -> None:
        """Shift every machine's arrival indices by the per-side trims."""
        for state in self.state1:
            state.rebase(trim1)
        for state in self.state2:
            state.rebase(trim2)

    def install_state(
        self,
        assignments1: "list[np.ndarray]",
        assignments2: "list[np.ndarray]",
        history1: np.ndarray,
        history2: np.ndarray,
    ) -> None:
        """Rebuild every machine's sorted state from its assigned indices."""
        self.state1 = [
            SortedRegionState.from_indices(indices, history1)
            for indices in assignments1
        ]
        self.state2 = [
            SortedRegionState.from_indices(indices, history2)
            for indices in assignments2
        ]

    def resize(self, num_machines: int) -> None:
        """Start ``num_machines`` empty machines (an install fills them)."""
        self.state1 = [SortedRegionState() for _ in range(num_machines)]
        self.state2 = [SortedRegionState() for _ in range(num_machines)]

    def state_indices(self) -> "tuple[list[np.ndarray], list[np.ndarray]]":
        """Each machine's arrival indices per side, in key order."""
        return (
            [state.index for state in self.state1],
            [state.index for state in self.state2],
        )

    def drain_channel_bytes(
        self,
    ) -> "tuple[int | None, int | None, int | None]":
        """Pickle-channel bytes of the counts since the last drain; no shm."""
        drained = (self._pickled, self._unpickled, None)
        self._pickled = self._unpickled = None
        return drained


class ExecutionBackend(abc.ABC):
    """How the per-region joins of a micro-batch are executed.

    Backends are resources: :class:`MultiprocessBackend` owns a worker pool,
    so every backend supports ``close()`` and the context-manager protocol.
    A backend may be shared by several engines (e.g. to reuse one pool across
    the schemes of a comparison); an engine only closes a backend it created
    itself.

    ``close()`` is idempotent and final: calling :meth:`join_regions` on a
    closed backend raises ``RuntimeError`` instead of silently resurrecting
    whatever resource the backend owned (a resurrected worker pool has no
    remaining owner to shut it down -- a leak, not a convenience).
    """

    #: Reporting name recorded on the run result.
    name: str = "backend"

    #: Which clock domain the backend's reported timings live in:
    #: ``"real"`` for measured wall-clock seconds, ``"simulated"`` for
    #: modeled ones (see ``docs/observability.md`` on clock domains).
    clock_domain: str = "real"

    #: Set by :meth:`close`; class-level default so subclasses need no
    #: ``__init__`` chaining.
    _closed: bool = False

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called on this backend."""
        return self._closed

    def _ensure_open(self) -> None:
        """Raise ``RuntimeError`` if the backend has been closed."""
        if self._closed:
            raise RuntimeError(
                f"{type(self).__name__} has been closed; create a fresh "
                "backend instead of reusing a closed one"
            )

    @abc.abstractmethod
    def join_regions(
        self,
        region_keys: list[tuple[np.ndarray, np.ndarray]],
        condition: "JoinCondition | list[JoinCondition]",
        keys2_sorted: bool = False,
    ) -> RegionJoinResult:
        """Join each machine's (R1, R2) region state; count exact output.

        ``region_keys[m]`` is machine ``m``'s currently held key arrays.
        Regions with an empty side produce no output and must not be charged
        any work.  ``condition`` is shared by every region, or a list with
        one condition per region (the engine's incremental counting mixes
        the original and transposed orientations in one dispatch).
        ``keys2_sorted`` promises every pair's second array is already
        sorted ascending so the per-task sort can be skipped -- the engine's
        incremental counting relies on this to stay ``O(new log state)`` per
        batch.
        """

    def bind(
        self,
        num_machines: int,
        condition: JoinCondition,
        transposed: JoinCondition,
    ) -> RegionState:
        """Hand the engine a fresh per-stream :class:`RegionState`.

        The base class keeps the state in the engine's process
        (:class:`InProcessRegionState`) and counts through this backend's
        :meth:`join_regions`; every call returns a new object, so one
        stateless backend can serve any number of engines.  A backend that
        keeps state elsewhere overrides ``bind`` together with every
        state call.
        """
        self._ensure_open()
        return InProcessRegionState(self, num_machines, condition, transposed)

    def close(self) -> None:
        """Release any resources held by the backend (idempotent, final)."""
        self._closed = True

    def __enter__(self) -> "ExecutionBackend":
        """Enter a with-block; the backend closes itself on exit."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close the backend when the with-block ends."""
        self.close()


class SimulatedBackend(ExecutionBackend):
    """Count every region's join in-process (the simulator's original loop)."""

    name = "simulated"

    def join_regions(
        self,
        region_keys: list[tuple[np.ndarray, np.ndarray]],
        condition: "JoinCondition | list[JoinCondition]",
        keys2_sorted: bool = False,
    ) -> RegionJoinResult:
        """Count each non-empty region's join output in the calling process."""
        self._ensure_open()
        start = perf_counter()
        outputs, seconds = _count_regions(
            region_keys,
            broadcast_conditions(condition, len(region_keys)),
            keys2_sorted,
        )
        return RegionJoinResult(
            per_machine_output=outputs,
            per_machine_seconds=seconds,
            wall_seconds=perf_counter() - start,
        )


class MultiprocessBackend(ExecutionBackend):
    """Run each batch's busy regions on a persistent OS-process worker pool.

    Parameters
    ----------
    max_workers:
        Upper bound on concurrent worker processes (defaults to the pool's
        own default, usually the CPU count).
    profile_serialization:
        Measure, per execution, the bytes the task payloads ship through
        the pool's pickle channel and the bytes the results ship back
        (``True`` by default).  This is the ``bytes_pickled`` /
        ``bytes_unpickled`` metric on
        :class:`~repro.streaming.metrics.BatchMetrics` -- the quantity the
        :class:`StickyWorkerBackend` drives to ~0.  The measurement costs
        one extra serialization pass over each payload; disable it for
        timing-critical sweeps.
    mp_context:
        Multiprocessing context (or start-method name) for the worker pool.
        Defaults to :func:`default_mp_context` -- forkserver where
        available, else spawn -- never the platform default: ``fork``
        inherits the parent's threads mid-flight and can deadlock under a
        threaded :class:`~repro.streaming.pipeline.StreamingPipeline`.

    The pool is created lazily on the first batch and kept alive for the
    lifetime of the backend, so a stream of many small batches pays process
    start-up once, not per batch.  ``close()`` shuts the pool down for good:
    a later ``join_regions`` call raises ``RuntimeError`` rather than
    silently starting a fresh pool that no caller would ever shut down.
    """

    name = "multiprocess"

    def __init__(
        self,
        max_workers: int | None = None,
        profile_serialization: bool = True,
        mp_context: "multiprocessing.context.BaseContext | str | None" = None,
    ) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers
        self.profile_serialization = profile_serialization
        self._mp_context = _resolve_mp_context(mp_context)
        self._pool: ProcessPoolExecutor | None = None

    @property
    def start_method(self) -> str:
        """Start method of the pinned multiprocessing context."""
        return self._mp_context.get_start_method()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=self._mp_context
            )
        return self._pool

    def join_regions(
        self,
        region_keys: list[tuple[np.ndarray, np.ndarray]],
        condition: "JoinCondition | list[JoinCondition]",
        keys2_sorted: bool = False,
    ) -> RegionJoinResult:
        """Ship each non-empty region to the worker pool and count there.

        A worker process dying mid-batch breaks the whole pool; the broken
        executor is discarded (a later call lazily starts a fresh one) and
        the failure surfaces as :class:`WorkerCrashError` so callers can
        restore from a checkpoint instead of unpicking executor internals.
        """
        self._ensure_open()
        try:
            execution = join_assigned_regions(
                self._ensure_pool(),
                region_keys,
                condition,
                keys2_sorted=keys2_sorted,
                profile_serialization=self.profile_serialization,
            )
        except BrokenProcessPool as error:
            self._pool.shutdown(wait=False)
            self._pool = None
            raise WorkerCrashError(
                "multiprocess worker pool broke mid-batch (a worker process "
                f"died: {error}); the pool was discarded -- restore the run "
                "from its last checkpoint"
            ) from error
        return RegionJoinResult(
            per_machine_output=execution.per_machine_output,
            per_machine_seconds=execution.per_machine_seconds,
            wall_seconds=execution.wall_seconds,
            bytes_pickled=(
                execution.bytes_pickled if self.profile_serialization else None
            ),
            bytes_unpickled=(
                execution.bytes_unpickled if self.profile_serialization else None
            ),
            worker_pids=execution.worker_pids,
        )

    def close(self) -> None:
        """Shut the worker pool down; idempotent, and final (see the base)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        super().close()


def _merge_sorted(held: np.ndarray, incoming: np.ndarray) -> np.ndarray:
    """Merge new arrival indices into a sorted ownership mirror."""
    incoming = np.sort(np.asarray(incoming, dtype=np.int64))
    if len(incoming) == 0:
        return held
    if len(held) == 0:
        return incoming
    return np.insert(held, np.searchsorted(held, incoming), incoming)


class _StickyWorkerState:
    """One sticky worker's resident state and command handlers.

    The worker process owns the :class:`SortedRegionState` pair of every
    machine assigned to it and mutates it in place batch after batch --
    exactly the folds the engine's in-process incremental counter performs,
    in the same order, so the counted deltas are bit-identical to the
    simulated backend's.  The handlers live on this (in-process testable)
    class; :func:`_sticky_worker_main` is only the recv/dispatch/send loop
    around it.

    Every array handler input is a zero-copy view into the engine's shared
    segment; :class:`SortedRegionState` copies on insert/rebuild, so no view
    survives past its command.
    """

    def __init__(self, machines: "tuple[int, ...]") -> None:
        self.machines = machines
        self.state1 = {machine: SortedRegionState() for machine in machines}
        self.state2 = {machine: SortedRegionState() for machine in machines}
        #: The stream's (condition, transposed) pair, set by :meth:`init`.
        self.conditions: "list[JoinCondition]" = []

    def init(self, condition: JoinCondition, transposed: JoinCondition):
        """Adopt the stream's conditions; reply with this worker's pid."""
        self.conditions = [condition, transposed]
        return ("ok", os.getpid())

    def count(self, arrays: "list[np.ndarray]"):
        """Fold one batch's deltas into the resident state and count.

        ``arrays`` is the batch's machine-major layout -- four arrays per
        machine: R1 arrival indices, R1 keys, R2 arrival indices, R2 keys.
        Per owned machine this is the in-process engine's exact delta fold
        (:func:`fold_arrivals`), counted with the same kernel
        :class:`SimulatedBackend` uses -- empty sides are skipped and not
        timed.
        """
        tasks: "list[tuple[np.ndarray, np.ndarray]]" = []
        for machine in self.machines:
            idx1, keys1, idx2, keys2 = arrays[4 * machine : 4 * machine + 4]
            tasks += fold_arrivals(
                self.state1[machine], self.state2[machine], idx1, keys1, idx2, keys2
            )
        outputs, seconds = _count_regions(
            tasks, self.conditions * len(self.machines), True
        )
        return (
            "counted",
            [
                (machine, int(outputs[2 * i]), int(outputs[2 * i + 1]),
                 float(seconds[2 * i]), float(seconds[2 * i + 1]))
                for i, machine in enumerate(self.machines)
            ],
        )

    def evict(self, arrays: "list[np.ndarray]"):
        """Drop expired arrival indices from every owned machine's state.

        ``arrays`` is the per-side expired index pair; the reply carries
        how many state entries this worker actually held and dropped, so
        the engine can check its ownership mirror against reality.
        """
        expired1, expired2 = arrays
        dropped = 0
        for machine in self.machines:
            dropped += self.state1[machine].evict(expired1)
            dropped += self.state2[machine].evict(expired2)
        return ("evicted", dropped)

    def rebase(self, trim1: int, trim2: int):
        """Shift every resident arrival index below the engine's trim points."""
        for machine in self.machines:
            self.state1[machine].rebase(trim1)
            self.state2[machine].rebase(trim2)
        return ("rebased",)

    def resize(self, machines: "tuple[int, ...]"):
        """Adopt a new owned-machine set, discarding all resident state.

        A fleet resize reassigns machine ownership wholesale, so the worker
        starts from empty state for its new machines; the engine follows up
        with an :meth:`install` carrying every machine's complete
        post-resize state (the migration plan's new assignments).  The
        reply repeats the worker's pid so the engine can rebuild its
        machine-to-pid map for the new fleet.
        """
        self.machines = tuple(machines)
        self.state1 = {machine: SortedRegionState() for machine in self.machines}
        self.state2 = {machine: SortedRegionState() for machine in self.machines}
        return ("resized", os.getpid())

    def install(self, arrays: "list[np.ndarray]"):
        """Replace every owned machine's state with migrated assignments.

        Same machine-major layout as :meth:`count`, but the index/key pairs
        are each machine's *complete* post-migration state (the migration
        plan's new assignments, keys gathered engine-side).  The rebuild is
        the same stable key-sort :meth:`SortedRegionState.from_indices`
        performs, so post-migration worker state is bit-identical to the
        in-process engine's.
        """
        for machine in self.machines:
            idx1, keys1, idx2, keys2 = arrays[4 * machine : 4 * machine + 4]
            self.state1[machine] = SortedRegionState.from_pairs(idx1, keys1)
            self.state2[machine] = SortedRegionState.from_pairs(idx2, keys2)
        return ("installed",)

    def handle(self, command: tuple, reader: ShmReader):
        """Dispatch one control-channel command tuple to its handler."""
        op = command[0]
        if op == "count":
            return self.count(reader.arrays(command[1]))
        if op == "evict":
            return self.evict(reader.arrays(command[1]))
        if op == "rebase":
            return self.rebase(command[1], command[2])
        if op == "install":
            return self.install(reader.arrays(command[1]))
        if op == "resize":
            return self.resize(command[1])
        if op == "init":
            return self.init(command[1], command[2])
        raise ValueError(f"unknown sticky-worker command {op!r}")


def _sticky_worker_main(channel, machines: "tuple[int, ...]") -> None:
    """Entry point of one sticky worker process: recv, handle, reply.

    Runs until a ``close`` command or the engine's end of the pipe
    disappears.  Failures inside a handler are shipped back as an
    ``("error", message)`` reply instead of killing the worker silently --
    the backend raises them engine-side.  The shared-memory reader only
    ever unmaps; the engine's arena owns every segment.
    """
    worker = _StickyWorkerState(machines)
    reader = ShmReader()
    try:
        while True:
            try:
                command = channel.recv()
            except EOFError:
                break
            if command[0] == "close":
                channel.send(("closed",))
                break
            try:
                reply = worker.handle(command, reader)
            except Exception as error:
                channel.send(("error", f"{type(error).__name__}: {error}"))
            else:
                channel.send(reply)
    finally:
        reader.close()
        channel.close()


class StickyWorkerBackend(ExecutionBackend):
    """Resident per-worker join state over shared memory (zero-copy deltas).

    The multiprocess pool backend re-pickles every region's *full* key
    arrays through its executor channel on every batch; for a persistent
    streaming join that serialization tax dominates the join itself.  This
    backend keeps the state where the work is: each of ``max_workers``
    long-lived processes owns the :class:`SortedRegionState` pair of the
    machines assigned to it (machine ``m`` lives on worker ``m % W``),
    resident across batches.  Per batch the engine ships only the *delta*
    -- each machine's new-arrival index/key arrays, written once into a
    :class:`~repro.streaming.shm.ShmArena` shared-memory segment -- plus a
    tiny pickled control message per worker.  Evictions, history-compaction
    trim points and migration moves travel the same way: control messages
    with any array payload in shared memory, never through pickle.

    The backend is its own :class:`RegionState`: :meth:`bind` returns the
    backend itself, and every state call (``count_batch`` /
    ``evict_state`` / ``rebase_state`` / ``install_state`` / ``resize``)
    becomes a worker command.  A per-machine arrival-index mirror answers
    :meth:`state_indices` (migration planning, checkpoints and resident
    accounting) with no state readback, and every eviction checks that the
    workers dropped exactly what the mirror expected.  Counted outputs are
    bit-identical to :class:`SimulatedBackend` -- the workers run the same
    :func:`fold_arrivals` on the exact same arrays.

    Parameters
    ----------
    max_workers:
        Worker process count (capped at the machine count on ``bind``);
        defaults to the CPU count.
    profile_serialization:
        Meter the control channel's pickled bytes per command
        (``bytes_pickled`` / ``bytes_unpickled``).  The shared-memory
        payload (``bytes_shm``) is always metered -- it is known exactly
        from the arena write, costing nothing.
    mp_context:
        Multiprocessing context or start-method name; defaults to
        :func:`default_mp_context` (forkserver/spawn, never fork).

    A sticky backend is bound to *one* stream: its workers' state survives
    across batches, so re-binding (a second engine run) or any use after
    ``close()`` raises ``RuntimeError`` instead of silently mixing two
    streams' state.  ``close()`` shuts the workers down and unlinks the
    shared segment -- the test suite asserts nothing is left in
    ``/dev/shm``.
    """

    name = "sticky"

    def __init__(
        self,
        max_workers: int | None = None,
        profile_serialization: bool = True,
        mp_context: "multiprocessing.context.BaseContext | str | None" = None,
    ) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers
        self.profile_serialization = profile_serialization
        self._mp_context = _resolve_mp_context(mp_context)
        self._arena: "ShmArena | None" = None
        self._channels: list = []
        self._processes: list = []
        self._num_machines: "int | None" = None
        self._machine_pids: "np.ndarray | None" = None
        # The engine-side mirror of every machine's resident arrival
        # indices, kept sorted per machine.
        self._held1: "list[np.ndarray]" = []
        self._held2: "list[np.ndarray]" = []
        self._bytes_pickled = 0
        self._bytes_unpickled = 0
        self._bytes_shm = 0
        self._commands_since_drain = False

    @property
    def start_method(self) -> str:
        """Start method of the pinned multiprocessing context."""
        return self._mp_context.get_start_method()

    @property
    def bound(self) -> bool:
        """Whether :meth:`bind` has attached this backend to a stream."""
        return self._num_machines is not None

    def _ensure_bound(self) -> None:
        """Raise unless the backend is open and bound to a stream."""
        self._ensure_open()
        if not self.bound:
            raise RuntimeError(
                "StickyWorkerBackend is not bound to a stream yet; the "
                "engine calls bind() at the start of its run"
            )

    def bind(
        self,
        num_machines: int,
        condition: JoinCondition,
        transposed: JoinCondition,
    ) -> "StickyWorkerBackend":
        """Start the workers, assign machine ownership, return ``self``.

        Machine ``m`` is owned by worker ``m % W`` for the whole run.  A
        sticky backend binds exactly once: the workers' resident state *is*
        the stream's state, so a second ``bind`` (an engine restart onto
        the same backend) raises ``RuntimeError`` -- restarting a stream
        needs a fresh backend, never a silent adoption of stale state.
        """
        self._ensure_open()
        if self.bound:
            raise RuntimeError(
                "StickyWorkerBackend is already bound to a stream and its "
                "workers hold that stream's resident state; create a fresh "
                "backend per run instead of re-binding this one"
            )
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        workers = min(
            self.max_workers or os.cpu_count() or 1, num_machines
        )
        self._num_machines = num_machines
        self._arena = ShmArena()
        for worker in range(workers):
            engine_end, worker_end = self._mp_context.Pipe()
            machines = tuple(range(worker, num_machines, workers))
            process = self._mp_context.Process(
                target=_sticky_worker_main,
                args=(worker_end, machines),
                daemon=True,
                name=f"sticky-worker-{worker}",
            )
            process.start()
            worker_end.close()
            self._channels.append(engine_end)
            self._processes.append(process)
        pids = np.zeros(num_machines, dtype=np.int64)
        replies = self._broadcast(("init", condition, transposed))
        for worker, reply in enumerate(replies):
            pids[worker::workers] = reply[1]
        self._machine_pids = pids
        self._reset_mirror(num_machines)
        return self

    def _reset_mirror(self, num_machines: int) -> None:
        """Empty ownership mirrors for ``num_machines`` machines."""
        empty = np.empty(0, dtype=np.int64)
        self._held1 = [empty] * num_machines
        self._held2 = [empty] * num_machines

    def _crashed(self, worker: int, cause: "BaseException | None" = None):
        """Build the :class:`WorkerCrashError` for a dead worker's channel."""
        process = self._processes[worker]
        error = WorkerCrashError(
            f"sticky worker {worker} (pid {process.pid}) died with exit code "
            f"{process.exitcode} before replying; its resident join state is "
            "lost -- restore the run from its last checkpoint onto a fresh "
            "backend"
        )
        if cause is not None:
            error.__cause__ = cause
        return error

    def _send(self, worker: int, command: tuple) -> None:
        """Send one command to one worker; a broken pipe means it crashed."""
        try:
            self._channels[worker].send(command)
        except (BrokenPipeError, OSError) as error:
            raise self._crashed(worker, error) from error

    def _recv(self, worker: int):
        """Receive one reply, polling so a dead worker can never hang us.

        The engine's copy of the worker end of each pipe is closed right
        after the worker starts, so a worker death *eventually* surfaces as
        ``EOFError`` on ``recv`` -- but a blocking ``recv`` still hangs if
        the pipe breaks in ways that never deliver the EOF.  Polling with a
        liveness check bounds the wait: once the process is dead, one grace
        poll collects any reply it managed to send before exiting, then the
        crash is raised.
        """
        channel = self._channels[worker]
        process = self._processes[worker]
        while True:
            try:
                if channel.poll(0.05):
                    reply = channel.recv()
                    break
            except (EOFError, BrokenPipeError, OSError) as error:
                raise self._crashed(worker, error) from error
            if not process.is_alive():
                try:
                    if channel.poll(0.2):
                        reply = channel.recv()
                        break
                except (EOFError, BrokenPipeError, OSError):
                    pass
                raise self._crashed(worker)
        if self.profile_serialization:
            self._bytes_unpickled += pickled_nbytes(reply)
        if reply[0] == "error":
            raise RuntimeError(f"sticky worker failed: {reply[1]}")
        return reply

    def _broadcast(self, command: tuple) -> list:
        """Send one command to every worker; gather (and check) the replies.

        The command is pickled per worker by the pipe itself; profiling
        measures the payload once and charges it per worker.  Replies are
        collected synchronously -- the arena's segment is only reused after
        every worker has consumed the previous message, which this barrier
        guarantees.  A worker dying mid-command surfaces as
        :class:`WorkerCrashError`, never a hang (see :meth:`_recv`).
        """
        self._commands_since_drain = True
        if self.profile_serialization:
            self._bytes_pickled += pickled_nbytes(command) * len(self._channels)
        for worker in range(len(self._channels)):
            self._send(worker, command)
        return [self._recv(worker) for worker in range(len(self._channels))]

    def _write(self, arrays: "list[np.ndarray]"):
        """Write an array payload into the shared arena; meter its bytes."""
        message = self._arena.write(arrays)
        self._bytes_shm += message.payload_bytes
        return message

    @staticmethod
    def _state_layout(
        indices1: "list[np.ndarray]",
        indices2: "list[np.ndarray]",
        history1: np.ndarray,
        history2: np.ndarray,
    ) -> "list[np.ndarray]":
        """Machine-major array layout: (idx1, keys1, idx2, keys2) per machine."""
        arrays: "list[np.ndarray]" = []
        for idx1, idx2 in zip(indices1, indices2):
            idx1 = np.asarray(idx1, dtype=np.int64)
            idx2 = np.asarray(idx2, dtype=np.int64)
            arrays += [idx1, history1[idx1], idx2, history2[idx2]]
        return arrays

    def count_batch(
        self,
        new1: "list[np.ndarray]",
        new2: "list[np.ndarray]",
        history1: np.ndarray,
        history2: np.ndarray,
    ) -> RegionJoinResult:
        """Ship one batch's per-machine deltas; fold and count worker-side.

        ``new1`` / ``new2`` are the engine's per-machine arrival-index
        arrays; the keys are gathered here and written with the indices to
        the shared arena as one machine-major message.  Workers reply with
        per-machine output counts and join timings; the byte accounting
        accrues on the backend and is drained per batch by the engine
        (:meth:`drain_channel_bytes`), covering every command of the batch,
        not just the count.  The ownership mirror takes in the new indices.
        """
        self._ensure_bound()
        start = perf_counter()
        message = self._write(
            self._state_layout(new1, new2, history1, history2)
        )
        outputs = np.zeros(self._num_machines, dtype=np.int64)
        seconds = np.zeros(self._num_machines)
        for reply in self._broadcast(("count", message)):
            for machine, out_a, out_b, sec_a, sec_b in reply[1]:
                outputs[machine] = out_a + out_b
                seconds[machine] = sec_a + sec_b
        for machine in range(self._num_machines):
            self._held1[machine] = _merge_sorted(self._held1[machine], new1[machine])
            self._held2[machine] = _merge_sorted(self._held2[machine], new2[machine])
        return RegionJoinResult(
            per_machine_output=outputs,
            per_machine_seconds=seconds,
            wall_seconds=perf_counter() - start,
            worker_pids=self._machine_pids.copy(),
        )

    def evict_state(
        self, expired1: np.ndarray, expired2: np.ndarray
    ) -> int:
        """Drop expired arrival indices worker-side; return entries dropped.

        The mirror is trimmed first and predicts how many entries the
        workers must drop; a different worker count raises
        ``RuntimeError`` -- the mirror *is* the engine's claim about worker
        state, and a divergence means migration planning would move state
        that does not exist.
        """
        self._ensure_bound()
        expected = 0
        for held, expired in ((self._held1, expired1), (self._held2, expired2)):
            if len(expired) == 0:
                continue
            for machine, indices in enumerate(held):
                kept = remove_sorted(indices, expired)
                expected += len(indices) - len(kept)
                held[machine] = kept
        message = self._write(
            [
                np.asarray(expired1, dtype=np.int64),
                np.asarray(expired2, dtype=np.int64),
            ]
        )
        dropped = sum(reply[1] for reply in self._broadcast(("evict", message)))
        if dropped != expected:
            raise RuntimeError(
                f"sticky workers dropped {dropped} state entries but the "
                f"engine's ownership mirror expected {expected}; "
                "worker-resident state has diverged from the engine"
            )
        return dropped

    def rebase_state(self, trim1: int, trim2: int) -> None:
        """Rebase every worker's arrival indices after history compaction."""
        self._ensure_bound()
        self._held1 = [held - trim1 for held in self._held1]
        self._held2 = [held - trim2 for held in self._held2]
        self._broadcast(("rebase", int(trim1), int(trim2)))

    def install_state(
        self,
        assignments1: "list[np.ndarray]",
        assignments2: "list[np.ndarray]",
        history1: np.ndarray,
        history2: np.ndarray,
    ) -> None:
        """Move migrated state between workers through shared memory.

        ``assignments*`` are complete per-machine arrival-index arrays (a
        migration plan's new assignments, or a checkpoint's state); they
        become the sorted ownership mirror, and each worker rebuilds its
        owned machines' state from the mirror's shared message, so state
        never crosses the pickle channel even when it changes owners.
        """
        self._ensure_bound()
        self._held1 = [np.sort(np.asarray(a, dtype=np.int64)) for a in assignments1]
        self._held2 = [np.sort(np.asarray(a, dtype=np.int64)) for a in assignments2]
        message = self._write(
            self._state_layout(self._held1, self._held2, history1, history2)
        )
        self._broadcast(("install", message))

    def resize(self, num_machines: int) -> None:
        """Reassign machine ownership across the workers for a new fleet size.

        The worker process count is fixed at :meth:`bind`; a resize only
        redistributes machine ownership (machine ``m`` moves to worker
        ``m % W`` of the *new* numbering) and resets every worker to empty
        state for its new machines.  The engine must follow up with
        :meth:`install_state` carrying the complete post-resize state from
        its migration plan -- a resize without a reinstall would silently
        drop all resident state.
        """
        self._ensure_bound()
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        workers = len(self._channels)
        self._commands_since_drain = True
        for worker in range(workers):
            command = ("resize", tuple(range(worker, num_machines, workers)))
            if self.profile_serialization:
                self._bytes_pickled += pickled_nbytes(command)
            self._send(worker, command)
        pids = np.zeros(num_machines, dtype=np.int64)
        for worker in range(workers):
            reply = self._recv(worker)
            pids[worker::workers] = reply[1]
        self._num_machines = num_machines
        self._machine_pids = pids
        self._reset_mirror(num_machines)

    def state_indices(self) -> "tuple[list[np.ndarray], list[np.ndarray]]":
        """The ownership mirror: each machine's resident indices, sorted."""
        return self._held1, self._held2

    def drain_channel_bytes(
        self,
    ) -> "tuple[int | None, int | None, int | None]":
        """Byte accounting since the last drain: (pickled, unpickled, shm).

        The engine calls this once per batch; the totals cover every
        command the batch issued (count, evict, rebase, install).  All
        three are ``None`` when no command ran since the last drain, and
        the pickle totals are ``None`` when profiling is disabled -- the
        shared-memory payload is always measured.
        """
        if not self._commands_since_drain:
            return (None, None, None)
        self._commands_since_drain = False
        pickled, unpickled, shm = (
            self._bytes_pickled,
            self._bytes_unpickled,
            self._bytes_shm,
        )
        self._bytes_pickled = self._bytes_unpickled = self._bytes_shm = 0
        if not self.profile_serialization:
            return (None, None, shm)
        return (pickled, unpickled, shm)

    def join_regions(
        self,
        region_keys: list[tuple[np.ndarray, np.ndarray]],
        condition: "JoinCondition | list[JoinCondition]",
        keys2_sorted: bool = False,
    ) -> RegionJoinResult:
        """Refuse stateless dispatch: sticky workers own their state.

        Shipping full region arrays through this entry point is exactly the
        serialization tax this backend exists to remove, so it raises
        instead -- the engine drives the state calls of the object
        :meth:`bind` returns; a decorator that counts through
        ``join_regions`` (e.g. ``SlowConsumerBackend``) cannot be used
        around a sticky backend.
        """
        self._ensure_open()
        raise RuntimeError(
            "StickyWorkerBackend owns its workers' join state and does not "
            "accept stateless join_regions dispatch; the engine must drive "
            "the state-ownership protocol (bind/count_batch/...)"
        )

    def close(self) -> None:
        """Stop the workers and unlink the shared segment (idempotent, final)."""
        for channel in self._channels:
            try:
                channel.send(("close",))
                channel.recv()
            except (OSError, EOFError, BrokenPipeError):
                pass
            channel.close()
        self._channels = []
        for process in self._processes:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - hung-worker backstop
                process.terminate()
                process.join(timeout=10)
        self._processes = []
        if self._arena is not None:
            self._arena.close()
            self._arena = None
        super().close()


class SlowConsumerBackend(ExecutionBackend):
    """Decorate a backend with a deterministic per-batch slowdown.

    Backpressure only matters when the consumer cannot keep up, so the
    pipeline tests and benchmarks need a consumer whose slowness is a
    *parameter*, not an accident of the host machine.  This wrapper adds
    ``seconds_per_call + seconds_per_tuple * probe_tuples`` to every
    execution (``probe_tuples`` counts each task's first-side keys -- the
    batch's new arrivals under the engine's incremental counting).

    By default the delay is **virtual**: it is added to the reported
    ``wall_seconds`` without stalling anything, so simulated-clock tests
    stay instant and exact.  Pass ``sleep=time.sleep`` to really stall the
    calling thread, which is what the real-thread pipeline smoke test uses
    to provoke genuine queue growth.

    Counting results are the inner backend's, untouched: the decorator
    slows the consumer down, it never changes what the consumer computes.
    """

    def __init__(
        self,
        inner: ExecutionBackend,
        seconds_per_call: float = 0.0,
        seconds_per_tuple: float = 0.0,
        sleep=None,
    ) -> None:
        if seconds_per_call < 0 or seconds_per_tuple < 0:
            raise ValueError("slowdown seconds must be non-negative")
        self.inner = inner
        self.seconds_per_call = seconds_per_call
        self.seconds_per_tuple = seconds_per_tuple
        self._sleep = sleep
        self.name = f"slow({inner.name})"
        # A virtual delay makes the reported wall time a *model*, not a
        # measurement; a real sleep keeps the inner backend's domain.
        self.clock_domain = (
            inner.clock_domain if sleep is not None else "simulated"
        )

    def join_regions(
        self,
        region_keys: list[tuple[np.ndarray, np.ndarray]],
        condition: "JoinCondition | list[JoinCondition]",
        keys2_sorted: bool = False,
    ) -> RegionJoinResult:
        """Run the inner backend, slowed by the configured delay."""
        self._ensure_open()
        delay = self.seconds_per_call + self.seconds_per_tuple * sum(
            len(keys1) for keys1, _ in region_keys
        )
        if self._sleep is not None and delay > 0:
            self._sleep(delay)
        result = self.inner.join_regions(
            region_keys, condition, keys2_sorted=keys2_sorted
        )
        return RegionJoinResult(
            per_machine_output=result.per_machine_output,
            per_machine_seconds=result.per_machine_seconds,
            wall_seconds=result.wall_seconds + delay,
            bytes_pickled=result.bytes_pickled,
            bytes_unpickled=result.bytes_unpickled,
            worker_pids=result.worker_pids,
        )

    def close(self) -> None:
        """Close the wrapped backend along with the decorator."""
        self.inner.close()
        super().close()


_BACKENDS: dict[str, type[ExecutionBackend]] = {
    SimulatedBackend.name: SimulatedBackend,
    MultiprocessBackend.name: MultiprocessBackend,
    StickyWorkerBackend.name: StickyWorkerBackend,
}


def make_backend(name: str, **kwargs: object) -> ExecutionBackend:
    """Instantiate an execution backend by its reporting name.

    ``make_backend("simulated")`` or ``make_backend("multiprocess",
    max_workers=4)``; unknown names raise ``ValueError`` listing the
    available backends.
    """
    try:
        backend_cls = _BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS))
        raise ValueError(f"unknown backend {name!r} (available: {known})") from None
    return backend_cls(**kwargs)  # type: ignore[arg-type]
