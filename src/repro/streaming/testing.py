"""Test helpers for the streaming suites: equivalence, references and faults.

Several suites pin the same contract -- two engine runs over the same seeded
stream must be *behaviourally bit-identical* -- from different angles:
history compaction versus the never-trim reference, incremental counting
versus the full recount, one execution backend versus another, and a
kill-and-restore run versus the run that never stopped.  Keeping the
comparison in one place (:func:`assert_equivalent_runs`) means a metric
added to the contract tightens every suite at once instead of silently
weakening whichever copy was not updated.

Wall-clock quantities (``wall_seconds``, ``join_seconds``,
``per_machine_join_seconds``) are deliberately excluded: they measure the
machine, not the behaviour.

Two of those references live here, where the engine never reaches them:
:class:`RecountBackend` re-counts every full region each batch and
differences the totals (the pre-incremental loop and its cost profile), and
:class:`NeverTrimWindow` wraps a window policy so history compaction never
trims (the pre-compaction bookkeeping).

The fault-injection decorators make worker crashes deterministic without
killing real processes: :class:`CrashingBackend` raises
:class:`~repro.streaming.backends.WorkerCrashError` at a chosen work call
(and stays dead, like a real lost fleet), :class:`FlakyBackend` fails a
fixed number of calls and then recovers (a transient fault).  Both wrap any
:class:`~repro.streaming.backends.ExecutionBackend` -- simulated for fast
deterministic tests, sticky/multiprocess for end-to-end ones -- and wrap
the region state their inner backend binds, so faults reach count, evict,
rebase and install on every backend and the engine cannot tell them from
the real thing until the fault fires.  ``tests/conftest.py`` and
``benchmarks/conftest.py`` re-export the factory fixtures
(:func:`crashing_backend`, :func:`flaky_backend`) so every suite can inject
faults without owning backend cleanup.
"""

from __future__ import annotations

import numpy as np

from repro.joins.conditions import JoinCondition
from repro.streaming.backends import (
    ExecutionBackend,
    RegionJoinResult,
    RegionState,
    SimulatedBackend,
    WorkerCrashError,
)
from repro.streaming.incremental import SortedRegionState
from repro.streaming.metrics import StreamRunResult
from repro.streaming.window import WindowPolicy

__all__ = [
    "assert_equivalent_runs",
    "CrashingBackend",
    "FlakyBackend",
    "NeverTrimWindow",
    "RecountBackend",
]


def assert_equivalent_runs(
    actual: StreamRunResult, reference: StreamRunResult
) -> None:
    """Assert two runs are behaviourally bit-identical, batch by batch.

    Compares totals (output, cumulative load) and, per batch: the output
    delta (cluster-wide and per machine), per-machine loads, eviction
    counts and bytes freed, resident state, migration volume, rebuild
    charges, repartitioning decisions and the adopted migration plans
    (per-machine arrivals, departures and the region-to-machine mapping).
    Memory-footprint metrics (``resident_history_tuples``,
    ``resident_bytes``) are *not* compared -- they are exactly what history
    compaction is allowed to change -- and neither are wall-clock timings.
    """
    assert actual.num_batches == reference.num_batches
    assert actual.total_output == reference.total_output
    assert actual.num_machines == reference.num_machines
    np.testing.assert_array_equal(
        actual.cumulative_load, reference.cumulative_load
    )
    for act, ref in zip(actual.batches, reference.batches):
        assert act.batch_index == ref.batch_index
        assert act.output_delta == ref.output_delta
        assert act.tuples_evicted == ref.tuples_evicted
        assert act.bytes_freed == ref.bytes_freed
        assert act.resident_tuples == ref.resident_tuples
        assert act.migrated_tuples == ref.migrated_tuples
        assert act.repartitioned == ref.repartitioned
        assert act.resized_from == ref.resized_from
        assert act.rebuild_cost == ref.rebuild_cost
        np.testing.assert_array_equal(
            act.per_machine_load, ref.per_machine_load
        )
        if ref.per_machine_output_delta is None:
            assert act.per_machine_output_delta is None
        else:
            np.testing.assert_array_equal(
                act.per_machine_output_delta, ref.per_machine_output_delta
            )
        assert (act.migration_plan is None) == (ref.migration_plan is None)
        if ref.migration_plan is not None:
            np.testing.assert_array_equal(
                act.migration_plan.per_machine_arrivals,
                ref.migration_plan.per_machine_arrivals,
            )
            np.testing.assert_array_equal(
                act.migration_plan.per_machine_departures,
                ref.migration_plan.per_machine_departures,
            )
            np.testing.assert_array_equal(
                act.migration_plan.region_to_machine,
                ref.migration_plan.region_to_machine,
            )
            assert act.migration_plan.mode == ref.migration_plan.mode


class _RecountState:
    """Full-recount region state: the pre-incremental engine's counting loop.

    Each batch inserts the arrivals into every machine's sorted state,
    re-counts every full region through the backend's ``join_regions`` --
    without ``keys2_sorted``, so every region is sorted from scratch like
    the legacy loop -- and differences the totals against the previous
    batch's.  An install re-counts the new layout to reset that baseline.
    Differencing full recounts cannot account for evicted state, so
    eviction and rebasing (windowed runs) are refused.
    """

    def __init__(self, backend: ExecutionBackend, num_machines: int,
                 condition: JoinCondition) -> None:
        self.backend = backend
        self.condition = condition
        self.resize(num_machines)

    def _recount(self) -> RegionJoinResult:
        """Count every machine's full region; return the execution."""
        return self.backend.join_regions(
            [(s1.keys, s2.keys) for s1, s2 in zip(self.state1, self.state2)],
            self.condition,
        )

    def count_batch(self, new1, new2, history1, history2) -> RegionJoinResult:
        """Insert the arrivals, recount every region, difference the totals."""
        for machine, (state1, state2) in enumerate(zip(self.state1, self.state2)):
            state1.insert(new1[machine], history1[new1[machine]])
            state2.insert(new2[machine], history2[new2[machine]])
        execution = self._recount()
        totals = execution.per_machine_output
        deltas, self.totals = totals - self.totals, totals
        return RegionJoinResult(
            per_machine_output=deltas,
            per_machine_seconds=execution.per_machine_seconds,
            wall_seconds=execution.wall_seconds,
            worker_pids=execution.worker_pids,
        )

    @staticmethod
    def _refusal() -> ValueError:
        return ValueError(
            "the recount reference differences full per-region recounts and "
            "cannot account for evicted state; windowed runs need the "
            "engine's incremental counting"
        )

    def evict_state(self, expired1, expired2) -> int:
        """Refuse: eviction would break the differenced totals."""
        raise self._refusal()

    def rebase_state(self, trim1: int, trim2: int) -> None:
        """Refuse: compaction only follows an eviction."""
        raise self._refusal()

    def install_state(self, assignments1, assignments2, history1, history2) -> None:
        """Rebuild every machine's state and recount it as the new baseline."""
        self.state1 = [SortedRegionState.from_indices(a, history1) for a in assignments1]
        self.state2 = [SortedRegionState.from_indices(a, history2) for a in assignments2]
        self.totals = self._recount().per_machine_output

    def resize(self, num_machines: int) -> None:
        """Start ``num_machines`` empty machines (an install fills them)."""
        self.state1 = [SortedRegionState() for _ in range(num_machines)]
        self.state2 = [SortedRegionState() for _ in range(num_machines)]
        self.totals = np.zeros(num_machines, dtype=np.int64)

    def state_indices(self):
        """Each machine's arrival indices per side."""
        return [s.index for s in self.state1], [s.index for s in self.state2]

    def drain_channel_bytes(self):
        """Nothing is metered: the reference runs in process."""
        return (None, None, None)


class RecountBackend(SimulatedBackend):
    """The simulated backend counting by full per-region recounts.

    The reference the engine's incremental counting is pinned against
    (bit-identical deltas, loads and migration plans) and the speedup
    baseline it is measured against: ``O(state log state)`` per batch
    instead of ``O(new log state)``.  It reports as ``simulated`` -- it is
    the simulated backend, counting the old way.  Unbounded windows only.
    """

    def bind(self, num_machines, condition, transposed) -> RegionState:
        """Hand out full-recount state (the transposed condition is unused)."""
        self._ensure_open()
        return _RecountState(self, num_machines, condition)


class NeverTrimWindow(WindowPolicy):
    """Wrap a window policy so history compaction never trims anything.

    Liveness, evictions and the reporting name are the inner policy's; only
    :meth:`trim_point` always answers 0, which keeps the whole run's key
    history, live-set coordinates and batch starts -- the pre-compaction
    engine's bookkeeping.  Compaction is pure bookkeeping, so runs under the
    wrapper are bit-identical to runs under the inner policy in everything
    but the memory footprint.
    """

    def __init__(self, inner: WindowPolicy) -> None:
        self.inner = inner
        self.name = inner.name
        self.is_unbounded = inner.is_unbounded

    def evictions(self, live, batch_starts, total_arrived, rng):
        """The inner policy's evictions."""
        return self.inner.evictions(live, batch_starts, total_arrived, rng)

    def trim_point(self, live, total_arrived) -> int:
        """Never trim."""
        return 0


#: Work operations a fault can be scoped to.  ``bind``, ``resize`` and
#: ``drain_channel_bytes`` are deliberately not fault points: they are
#: engine-side bookkeeping commands whose failure modes the crash tests for
#: real backends already cover.
FAULT_OPS = ("join", "count", "evict", "rebase", "install")


class _ForwardingState:
    """The inner backend's region state, with the wrapper's fault hook."""

    def __init__(self, backend: "_ForwardingBackend", inner: RegionState) -> None:
        self.backend = backend
        self.inner = inner

    def _before(self, op: str) -> None:
        self.backend._ensure_open()
        self.backend._before(op)

    def count_batch(self, new1, new2, history1, history2) -> RegionJoinResult:
        """Forward a batch count, faults permitting."""
        self._before("count")
        return self.inner.count_batch(new1, new2, history1, history2)

    def evict_state(self, expired1, expired2) -> int:
        """Forward an eviction, faults permitting."""
        self._before("evict")
        return self.inner.evict_state(expired1, expired2)

    def rebase_state(self, trim1: int, trim2: int) -> None:
        """Forward an index rebase, faults permitting."""
        self._before("rebase")
        self.inner.rebase_state(trim1, trim2)

    def install_state(self, assignments1, assignments2, history1, history2) -> None:
        """Forward a state install, faults permitting."""
        self._before("install")
        self.inner.install_state(assignments1, assignments2, history1, history2)

    def resize(self, num_machines: int) -> None:
        """Forward a fleet resize (never a fault point)."""
        self.backend._ensure_open()
        self.inner.resize(num_machines)

    def state_indices(self):
        """Forward the resident-index query."""
        return self.inner.state_indices()

    def drain_channel_bytes(self):
        """Forward the per-batch byte accounting drain."""
        return self.inner.drain_channel_bytes()


class _ForwardingBackend(ExecutionBackend):
    """Transparent decorator over any backend and the state it binds.

    Subclasses inject faults by overriding :meth:`_before`, which runs ahead
    of every *work* call (the operations in :data:`FAULT_OPS`).  Everything
    else -- identity, clock domain, the inner backend's own region state,
    byte accounting -- is forwarded verbatim, so the engine drives the
    wrapped backend exactly as it would drive the inner one.
    """

    #: Prefix composed into ``name`` (e.g. ``crashing(simulated)``).
    wrapper_name = "forwarding"

    def __init__(self, inner: ExecutionBackend) -> None:
        self.inner = inner
        #: Work calls observed so far (faulting and forwarded alike).
        self.calls = 0

    @property
    def name(self) -> str:  # type: ignore[override]
        """Reporting name: the wrapper composed over the inner backend's."""
        return f"{self.wrapper_name}({self.inner.name})"

    @property
    def clock_domain(self) -> str:  # type: ignore[override]
        """The inner backend's clock domain, forwarded."""
        return self.inner.clock_domain

    def _before(self, op: str) -> None:
        """Fault hook; called before each work call with its operation name."""

    def join_regions(
        self, region_keys, condition, keys2_sorted: bool = False
    ) -> RegionJoinResult:
        """Forward a stateless region join, faults permitting."""
        self._ensure_open()
        self._before("join")
        return self.inner.join_regions(
            region_keys, condition, keys2_sorted=keys2_sorted
        )

    def bind(self, num_machines, condition, transposed) -> RegionState:
        """Wrap the inner backend's region state (binding is never a fault point)."""
        self._ensure_open()
        return _ForwardingState(
            self, self.inner.bind(num_machines, condition, transposed)
        )

    def close(self) -> None:
        """Close the wrapper and the wrapped backend."""
        super().close()
        self.inner.close()


class CrashingBackend(_ForwardingBackend):
    """Inject a permanent worker crash at a chosen work call.

    The ``crash_at_call``-th matching work call (1-based; see
    :data:`FAULT_OPS`) raises
    :class:`~repro.streaming.backends.WorkerCrashError`, and -- like a real
    fleet whose resident state died with its processes -- every later work
    call keeps raising.  ``crash_on`` restricts which operations count and
    can fault (e.g. ``("install",)`` crashes *during a migration*);
    ``None`` counts every work call.  ``crash_at_call=None`` never
    crashes, making the wrapper a pure pass-through control.
    """

    wrapper_name = "crashing"

    def __init__(
        self,
        inner: ExecutionBackend,
        crash_at_call: "int | None" = None,
        crash_on: "tuple[str, ...] | None" = None,
    ) -> None:
        super().__init__(inner)
        if crash_at_call is not None and crash_at_call <= 0:
            raise ValueError("crash_at_call must be positive (1-based)")
        if crash_on is not None:
            unknown = set(crash_on) - set(FAULT_OPS)
            if unknown:
                raise ValueError(
                    f"unknown crash_on operations {sorted(unknown)!r} "
                    f"(expected a subset of {FAULT_OPS})"
                )
        self.crash_at_call = crash_at_call
        self.crash_on = tuple(crash_on) if crash_on is not None else None
        #: Set once the injected crash has fired; the backend stays dead.
        self.crashed = False

    def _before(self, op: str) -> None:
        """Raise the injected crash at (and after) the configured call."""
        if self.crashed:
            raise WorkerCrashError(
                f"injected crash: backend already dead (work call {op!r} "
                "after the crash) -- restore the run from its last "
                "checkpoint onto a fresh backend"
            )
        if self.crash_on is not None and op not in self.crash_on:
            return
        self.calls += 1
        if self.crash_at_call is not None and self.calls >= self.crash_at_call:
            self.crashed = True
            raise WorkerCrashError(
                f"injected crash at work call {self.calls} ({op!r}); the "
                "backend stays dead -- restore the run from its last "
                "checkpoint onto a fresh backend"
            )


class FlakyBackend(_ForwardingBackend):
    """Inject ``failures`` transient faults, then behave normally.

    The first ``failures`` work calls raise
    :class:`~repro.streaming.backends.WorkerCrashError`; every call after
    that is forwarded -- the model of a worker that died and was replaced,
    where retrying the whole run (or resuming it) succeeds.  The instance
    keeps its recovery across engines, so a driver that restarts on the
    *same* backend object observes fail-then-succeed.
    """

    wrapper_name = "flaky"

    def __init__(self, inner: ExecutionBackend, failures: int = 1) -> None:
        super().__init__(inner)
        if failures < 0:
            raise ValueError("failures must be non-negative")
        #: Remaining work calls that will fault; decremented per fault.
        self.failures_remaining = failures

    def _before(self, op: str) -> None:
        """Fault while the failure budget lasts, then forward forever."""
        self.calls += 1
        if self.failures_remaining > 0:
            self.failures_remaining -= 1
            raise WorkerCrashError(
                f"injected transient fault at work call {self.calls} "
                f"({op!r}); {self.failures_remaining} more will fail"
            )


try:  # pragma: no cover - exercised via the test suites' conftests
    import pytest
except ImportError:  # pragma: no cover - pytest is a test-only dependency
    pytest = None

if pytest is not None:
    __all__ += ["crashing_backend", "flaky_backend"]

    @pytest.fixture
    def crashing_backend():
        """Factory fixture: build :class:`CrashingBackend` wrappers.

        Call the factory with the same arguments as the class (``inner``
        defaults to a fresh :class:`SimulatedBackend`); every backend it
        built is closed at teardown, so tests do not own cleanup even when
        the injected crash aborts them mid-run.
        """
        created = []

        def factory(inner=None, **kwargs):
            backend = CrashingBackend(
                inner if inner is not None else SimulatedBackend(), **kwargs
            )
            created.append(backend)
            return backend

        yield factory
        for backend in created:
            backend.close()

    @pytest.fixture
    def flaky_backend():
        """Factory fixture: build :class:`FlakyBackend` wrappers.

        Same shape as :func:`crashing_backend`: call with the class's
        arguments, teardown closes everything the factory built.
        """
        created = []

        def factory(inner=None, **kwargs):
            backend = FlakyBackend(
                inner if inner is not None else SimulatedBackend(), **kwargs
            )
            created.append(backend)
            return backend

        yield factory
        for backend in created:
            backend.close()
