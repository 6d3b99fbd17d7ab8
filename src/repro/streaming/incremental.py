"""Incremental maintenance of streaming state: histogram samples and join state.

Two kinds of state are maintained incrementally across micro-batches, and
both live here:

* the equi-weight histogram's **sample state** (:class:`DecayedReservoir`,
  :class:`IncrementalHistogram`), so the partitioning can be rebuilt online
  at a cost proportional to the reservoir capacity instead of the stream
  length; and
* each machine's **retained join state** (:class:`SortedRegionState`), kept
  sorted by join key so the engine can count a batch's incremental output
  with ``O(new log state)`` binary searches instead of re-sorting and
  re-scanning the whole region every batch (``O(state log state)``).

The batch pipeline samples both relations from scratch every time it builds
the histogram.  Over an unbounded stream that is impossible -- the input can
no longer be rescanned -- so the streaming subsystem keeps the *sample* state
alive across micro-batches and rebuilds the histogram from it on demand:

* Each side feeds a :class:`DecayedReservoir`, an Efraimidis--Spirakis
  weighted reservoir whose item weights grow geometrically with the batch
  index.  Algebraically this is time-biased sampling: an item that arrived
  ``a`` batches ago is retained with probability proportional to
  ``decay ** a``, so the reservoir tracks the *recent* key distribution and
  forgets stale phases at a configurable half-life.  Priorities are kept in
  log space (``ln(u) / w``) so the geometric weights never overflow or lose
  float resolution.
* Rebuilding runs the ordinary 3-stage pipeline
  (:func:`~repro.core.histogram.build_equi_weight_histogram`) over the two
  reservoir snapshots.  The cost is proportional to the reservoir capacity,
  not to the stream length -- the whole point of maintaining the state
  incrementally.

The rebuilt histogram routes *real* keys correctly because the outermost
region boundaries are opened to +-infinity, and its predicted region-weight
imbalance (a scale-free ratio) is what the drift detector compares against
the live load imbalance.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.core.histogram import (
    EWHConfig,
    EquiWeightHistogram,
    build_equi_weight_histogram,
)
from repro.core.weights import WeightFunction
from repro.joins.conditions import JoinCondition
from repro.partitioning.ewh import EWHPartitioning
from repro.streaming.source import MicroBatch

__all__ = [
    "DecayedReservoir",
    "IncrementalHistogram",
    "SortedRegionState",
    "remove_sorted",
]


def remove_sorted(live: np.ndarray, expired: np.ndarray) -> np.ndarray:
    """Drop every element of ``expired`` (sorted, non-empty) from sorted ``live``.

    ``O(live log expired)`` membership via ``searchsorted`` -- cheaper than
    ``np.isin``, which re-sorts both arrays, and this runs on every windowed
    batch (the engine's live sets, the sticky backend's ownership mirror).
    """
    positions = np.searchsorted(expired, live)
    positions[positions == len(expired)] = len(expired) - 1
    return live[expired[positions] != live]


class SortedRegionState:
    """One machine's retained join state on one side, kept sorted by key.

    The engine's incremental counting needs, per batch and per machine, the
    number of joinable pairs between the batch's few arrivals and the
    machine's (much larger) retained state.  Keeping the state sorted by
    join key turns that into ``O(new log state)`` binary searches: arrivals
    are merged in with :func:`numpy.searchsorted` + :func:`numpy.insert`,
    and expired tuples are dropped with one vectorised mask -- no per-batch
    re-sort of the full region ever happens.

    The ``(index, keys)`` pair is also the unit of state portability:
    checkpoints (:class:`~repro.streaming.checkpoint.StreamCheckpoint`)
    capture it verbatim, migrations and restores rebuild it with
    :meth:`from_indices` / :meth:`from_pairs`, and because the key-sort is
    stable, rebuilding from arrival-index-sorted inputs reproduces the
    original ordering exactly -- the foundation of the kill-and-restore ==
    uninterrupted-run guarantee.

    Attributes
    ----------
    keys:
        The retained join keys, ascending.  The dtype follows the stream's
        key arrays: integer keys are retained as integers (int64 keys
        above 2**53 must not round through float64), floats as float64.
    index:
        Arrival indices, parallel to ``keys`` (``keys[i]`` is the key of
        history tuple ``index[i]``).  Unique within a machine: a machine
        holds one region, and a region routes each tuple at most once.
        Under history compaction these are *engine coordinates* -- the
        global arrival index minus the tuples already trimmed from the
        history (:meth:`rebase`); without compaction the two coincide.
    """

    __slots__ = ("keys", "index")

    #: Resident bytes per retained tuple (float64 key + int64 arrival index).
    BYTES_PER_TUPLE = 16

    def __init__(
        self, index: np.ndarray | None = None, keys: np.ndarray | None = None
    ) -> None:
        self.index = (
            np.empty(0, dtype=np.int64) if index is None else np.asarray(index)
        )
        self.keys = (
            np.empty(0, dtype=np.float64) if keys is None else np.asarray(keys)
        )

    @classmethod
    def from_indices(
        cls, indices: np.ndarray, history: np.ndarray
    ) -> "SortedRegionState":
        """Build sorted state for ``indices`` looked up in the key history.

        The history's dtype carries over, so integer-keyed streams keep
        exact integer state across migrations.
        """
        indices = np.asarray(indices, dtype=np.int64)
        return cls.from_pairs(indices, np.asarray(history)[indices])

    @classmethod
    def from_pairs(
        cls, indices: np.ndarray, keys: np.ndarray
    ) -> "SortedRegionState":
        """Build sorted state from parallel arrival-index / key arrays.

        Same stable key-sort as :meth:`from_indices`, for callers that have
        already gathered the keys -- a sticky worker rebuilding migrated
        state from a shared-memory message holds ``(indices, keys)`` pairs
        but no key history.  Both inputs are copied (the pairs may be views
        into a transient shared segment).
        """
        indices = np.asarray(indices, dtype=np.int64)
        keys = np.asarray(keys)
        order = np.argsort(keys, kind="stable")
        return cls(index=indices[order], keys=keys[order])

    def __len__(self) -> int:
        """Number of retained tuples."""
        return len(self.index)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the retained state (keys + arrival indices)."""
        return len(self.index) * self.BYTES_PER_TUPLE

    def insert(self, new_indices: np.ndarray, new_keys: np.ndarray) -> None:
        """Merge a batch's arrivals into the sorted state.

        ``O(new log state)`` searches plus one ``O(state + new)`` array
        merge; the keys stay sorted so the next batch's counting can binary
        search them directly.  The first insert into empty state adopts the
        arrivals' dtype (exact integers stay integers); a later dtype
        mismatch promotes the state, so a mixed int/float stream never
        truncates a float key into an integer slot.
        """
        if len(new_indices) == 0:
            return
        new_indices = np.asarray(new_indices, dtype=np.int64)
        new_keys = np.asarray(new_keys)
        order = np.argsort(new_keys, kind="stable")
        new_keys = new_keys[order]
        new_indices = new_indices[order]
        if len(self.keys) == 0:
            self.keys = new_keys
            self.index = new_indices
            return
        if self.keys.dtype != new_keys.dtype:
            target = np.promote_types(self.keys.dtype, new_keys.dtype)
            self.keys = self.keys.astype(target)
            new_keys = new_keys.astype(target)
        positions = np.searchsorted(self.keys, new_keys)
        self.keys = np.insert(self.keys, positions, new_keys)
        self.index = np.insert(self.index, positions, new_indices)

    def rebase(self, shift: int) -> None:
        """Shift every arrival index down by ``shift`` (history compaction).

        The engine calls this after trimming ``shift`` expired tuples off
        the front of the side's key history, so ``index`` keeps addressing
        the same keys in the compacted array.  Every retained index must be
        ``>= shift`` (compaction only trims below the window's safe trim
        point, and eviction has already dropped anything older).
        """
        if shift:
            self.index = self.index - shift

    def evict(self, expired: np.ndarray) -> int:
        """Drop the given global arrival indices; return how many were held.

        ``expired`` is the window policy's eviction set for the side; only
        the tuples this machine actually holds are dropped (and counted).
        """
        if len(self.index) == 0 or len(expired) == 0:
            return 0
        keep = ~np.isin(self.index, expired, assume_unique=True)
        dropped = int(len(keep) - keep.sum())
        if dropped:
            self.index = self.index[keep]
            self.keys = self.keys[keep]
        return dropped


class DecayedReservoir:
    """A bounded weighted reservoir that favours recent arrivals.

    Entries are ``(priority_key, counter, key)`` triples in a min-heap of
    bounded size.  The Efraimidis--Spirakis priority of an item offered in
    batch ``b`` with weight ``w = decay ** -b`` is ``u ** (1/w)``; comparing
    those directly (or their logs ``ln(u) * decay**b``) underflows once
    ``decay**b`` hits the float floor, which would silently freeze the sample
    on long streams.  Only the *order* matters, so the heap stores the
    doubly-logarithmic rebasing

        priority_key = -ln(-ln(u)) + b * ln(1/decay)

    which is strictly increasing in the original priority and grows only
    linearly with the batch index.  The retained set is exactly the weighted
    sample without replacement.
    """

    def __init__(self, capacity: int, decay: float = 1.0) -> None:
        if capacity <= 0:
            raise ValueError("reservoir capacity must be positive")
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.capacity = capacity
        self.decay = decay
        self._log_inv_decay = -math.log(decay)
        self._heap: list[tuple[float, int, float]] = []
        self._counter = 0
        self.tuples_seen = 0

    def __len__(self) -> int:
        """Number of keys currently held in the reservoir."""
        return len(self._heap)

    def add_batch(
        self, keys: np.ndarray, batch_index: int, rng: np.random.Generator
    ) -> None:
        """Offer one micro-batch of keys, all weighted by the batch's age."""
        keys = np.asarray(keys, dtype=np.float64)  # repro: ignore[KEY001]  # reservoir samples feed float EWH boundaries, not join state
        self.tuples_seen += len(keys)
        if len(keys) == 0:
            return
        with np.errstate(divide="ignore"):
            # -ln(-ln u): u -> 0 gives -inf (never sampled), u -> 1 gives +inf.
            priorities = -np.log(-np.log(rng.random(len(keys))))
        priorities += batch_index * self._log_inv_decay
        if len(self._heap) >= self.capacity:
            # Entries below the current minimum can never enter (the heap
            # minimum only rises), so drop them vectorised before the
            # per-entry heap loop.
            mask = priorities > self._heap[0][0]
            keys, priorities = keys[mask], priorities[mask]
        for key, priority in zip(keys, priorities):
            entry = (float(priority), self._counter, float(key))  # repro: ignore[KEY001]  # heap entry over the sampled float key
            self._counter += 1
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, entry)
            elif entry[0] > self._heap[0][0]:
                heapq.heapreplace(self._heap, entry)

    def keys(self) -> np.ndarray:
        """Snapshot of the sampled keys (unordered)."""
        return np.array([entry[2] for entry in self._heap], dtype=np.float64)


class IncrementalHistogram:
    """EWH sample state maintained across micro-batches.

    Parameters
    ----------
    num_machines:
        ``J`` -- the number of regions the rebuilt histogram targets.
    weight_fn:
        The cost model used by coarsening and regionalization.
    capacity:
        Per-side reservoir capacity (the rebuild cost scales with it).
    decay:
        Per-batch retention factor of old samples; 1.0 keeps the whole
        history uniformly, 0.8 halves an old batch's influence roughly every
        three batches.
    config:
        Histogram configuration used by rebuilds.  The sample-matrix size is
        derived from the reservoir size, so the streaming default caps it
        lower than the batch default.
    """

    def __init__(
        self,
        num_machines: int,
        weight_fn: WeightFunction,
        capacity: int = 2048,
        decay: float = 0.8,
        config: EWHConfig | None = None,
    ) -> None:
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        self.num_machines = num_machines
        self.weight_fn = weight_fn
        self.config = config or EWHConfig(max_sample_matrix_size=256)
        self.reservoir1 = DecayedReservoir(capacity, decay)
        self.reservoir2 = DecayedReservoir(capacity, decay)
        self.batches_observed = 0
        self.rebuilds = 0
        self.last_histogram: EquiWeightHistogram | None = None
        self._predicted_imbalance = 1.0

    @property
    def tuples_seen(self) -> int:
        """Total stream tuples observed (both sides)."""
        return self.reservoir1.tuples_seen + self.reservoir2.tuples_seen

    @property
    def sample_tuples(self) -> int:
        """Tuples currently held in the two reservoirs."""
        return len(self.reservoir1) + len(self.reservoir2)

    def observe(self, batch: MicroBatch, rng: np.random.Generator) -> None:
        """Fold one micro-batch into the maintained sample state.

        The decay exponent is the histogram's own observation counter, not
        the source's ``MicroBatch.index``: recency is measured in batches
        *observed*, so any strictly increasing source numbering samples
        identically (and a policy that stops observing does not inflate the
        next observation's weight).
        """
        self.reservoir1.add_batch(batch.keys1, self.batches_observed, rng)
        self.reservoir2.add_batch(batch.keys2, self.batches_observed, rng)
        self.batches_observed += 1

    def can_build(self) -> bool:
        """Whether both sides have sample mass to build from."""
        return len(self.reservoir1) > 0 and len(self.reservoir2) > 0

    def build_partitioning(
        self, condition: JoinCondition, rng: np.random.Generator
    ) -> EWHPartitioning:
        """Rebuild the EWH partitioning from the current sample state.

        Runs sampling/coarsening/regionalization over the reservoir
        snapshots; cost is ``O(capacity)`` work regardless of how long the
        stream has run.
        """
        if not self.can_build():
            raise ValueError(
                "cannot build a histogram before both sides have been observed"
            )
        histogram = build_equi_weight_histogram(
            self.reservoir1.keys(),
            self.reservoir2.keys(),
            condition,
            self.num_machines,
            self.weight_fn,
            config=self.config,
            rng=rng,
        )
        self.last_histogram = histogram
        self.rebuilds += 1
        # Freeze the predicted imbalance at build time: the ratio of the
        # estimated maximum region weight to the no-replication lower bound
        # over the sample the histogram was actually built from.
        lower = self.weight_fn.lower_bound_optimum(
            self.sample_tuples, histogram.total_output, self.num_machines
        )
        if lower > 0 and math.isfinite(lower):
            self._predicted_imbalance = max(
                1.0, histogram.estimated_max_weight / lower
            )
        else:
            self._predicted_imbalance = 1.0
        return EWHPartitioning(histogram)

    def predicted_imbalance(self) -> float:
        """The last build's predicted max/mean region-weight ratio.

        The ratio is scale-free, so it transfers from sample space to the
        live stream: it is the imbalance the histogram *expects* the cluster
        to exhibit if the key distribution has not drifted.  Computed against
        the no-replication lower bound at build time, it is slightly
        conservative (the denominator ignores replicated input), which biases
        the drift detector towards fewer, more certain triggers.
        """
        return self._predicted_imbalance
