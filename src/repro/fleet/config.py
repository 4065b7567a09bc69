"""Public configuration objects for fleet streaming passes.

:meth:`~repro.fleet.engine.FleetEngine.watch_fleet` accreted a long
tail of keyword arguments as the watch grew (window and drift
parameters in PR 2, execution-backend selection in PR 4, the elastic
rebalance surface in PR 5).  :class:`WatchConfig` consolidates them
into one frozen, reusable value object: build a config once, derive
variants with :meth:`WatchConfig.replace`, and pass it to
``watch_fleet(samples, config)``.  The legacy keyword form has been
retired; ``watch_fleet`` accepts config objects only.

:class:`CheckpointConfig` is the durability half: attach one to
``WatchConfig(checkpoint=...)`` and the watch persists every shard's
live state to a :class:`~repro.store.FleetStore` at drained tick
boundaries, from which ``watch_fleet(resume_from=store)`` continues a
killed run byte-identically.

This is the *public* half of the watch configuration.  The internal
:class:`~repro.fleet.backends.ShardAssessmentConfig` is what shards
and worker processes receive: it additionally carries the engine and
resolved library defaults, and is deliberately not part of the stable
API surface.
"""

from __future__ import annotations

import dataclasses
from dataclasses import InitVar, dataclass
from typing import TYPE_CHECKING, Callable

from ..faults import FaultPlan
from ..streaming.live import warn_profile_mode
from ..telemetry.streaming import DEFAULT_STREAM_WINDOW
from ..telemetry.timeseries import DEFAULT_SAMPLE_INTERVAL_MINUTES
from .rebalance import RebalanceEvent, RebalancePolicy

if TYPE_CHECKING:  # circular-import-free typing only
    from ..store import FleetStore
    from .backends import FleetBackend

__all__ = ["CheckpointConfig", "SupervisionConfig", "WatchConfig"]

#: Ticks between checkpoints when a :class:`CheckpointConfig` does not
#: say otherwise.  At the default watch tick (64 samples per shard, on
#: the serial and the process pools alike) this checkpoints a serial
#: watch every 4,096 samples -- frequent
#: enough that a crash loses seconds of stream, rare enough that the
#: measured throughput cost stays under the 10% budget gated in
#: ``bench_streaming.py``.
DEFAULT_CHECKPOINT_EVERY_TICKS = 64

#: Default per-tick deadline before the supervisor declares a shard
#: hung and restarts it.  Generous -- a tick is at most a few thousand
#: assessments -- so only a genuinely wedged worker trips it; a false
#: positive costs a replay, never correctness.
DEFAULT_TICK_DEADLINE_S = 120.0

#: Ticks between in-parent recovery snapshots when no durable
#: checkpoint truncates the replay buffer instead.  Matches the
#: checkpoint cadence: the replay buffer is bounded by this many ticks
#: of feed.
DEFAULT_SNAPSHOT_EVERY_TICKS = 64


@dataclass(frozen=True)
class SupervisionConfig:
    """How a watch survives worker failure.

    Attached via ``WatchConfig(supervision=...)``; ``None`` there means
    these defaults.  The supervisor detects dead or
    deadline-overrunning shard workers, spawns replacements, restores
    their customers from the last durable checkpoint (or in-parent
    snapshot) and replays the un-checkpointed feed suffix -- output
    stays byte-identical to an uninterrupted run.  Repeated failures
    back off exponentially; past ``max_restarts`` the shard is
    quarantined instead of restarted.

    Attributes:
        max_restarts: Restarts one shard may consume over a watch
            before it is quarantined (its resident customers emit one
            error update each and further samples are dropped).
        backoff_base_s: First-restart backoff sleep; doubles per
            restart of the same shard.  Zero disables the sleep
            (tests).
        backoff_cap_s: Upper bound on the backoff sleep.
        tick_deadline_s: Seconds a submitted tick may remain
            unanswered before the shard is declared hung and
            restarted; ``None`` disables deadlines (death detection
            only).
        snapshot_every_ticks: In-parent recovery-snapshot cadence used
            when no :class:`CheckpointConfig` store is attached.  Also
            the bound on the replay buffer: at most this many ticks of
            feed are ever held for replay.
        probation_ticks: Fully drained ticks a quarantined shard sits
            out before re-entering service on probation: its restart
            budget resets and fresh feed routes to a new worker again.
            Customers quarantined while the shard was down stay
            quarantined -- their streams have a hole, so silently
            resuming them would break the byte-identity contract.
            ``None`` (the default) keeps quarantine permanent.
        faults: A :class:`~repro.faults.FaultPlan` to inject
            deterministic failures, or ``None`` (production) for no
            injection.
    """

    max_restarts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    tick_deadline_s: float | None = DEFAULT_TICK_DEADLINE_S
    snapshot_every_ticks: int = DEFAULT_SNAPSHOT_EVERY_TICKS
    probation_ticks: int | None = None
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts!r}")
        if self.backoff_base_s < 0:
            raise ValueError(f"backoff_base_s must be >= 0, got {self.backoff_base_s!r}")
        if self.backoff_cap_s < self.backoff_base_s:
            raise ValueError(
                f"backoff_cap_s must be >= backoff_base_s, got {self.backoff_cap_s!r}"
            )
        if self.tick_deadline_s is not None and self.tick_deadline_s <= 0:
            raise ValueError(
                f"tick_deadline_s must be positive or None, got {self.tick_deadline_s!r}"
            )
        if self.snapshot_every_ticks < 1:
            raise ValueError(
                f"snapshot_every_ticks must be >= 1, got {self.snapshot_every_ticks!r}"
            )
        if self.probation_ticks is not None and self.probation_ticks < 1:
            raise ValueError(
                f"probation_ticks must be >= 1 or None, got {self.probation_ticks!r}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ValueError(f"faults must be a FaultPlan or None, got {self.faults!r}")

    def backoff_delay(self, n_restart: int) -> float:
        """Capped exponential backoff before the ``n_restart``-th restart."""
        if n_restart <= 0 or self.backoff_base_s == 0.0:
            return 0.0
        return min(self.backoff_cap_s, self.backoff_base_s * (2 ** (n_restart - 1)))

    def replace(self, **changes) -> "SupervisionConfig":
        """A copy of this config with the given fields replaced."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class CheckpointConfig:
    """How a watch persists its state to a durable store.

    Attributes:
        store: The :class:`~repro.store.FleetStore` receiving
            checkpoints, event history, and evicted customer state.
        every_ticks: Checkpoint cadence in fully drained ticks.  A
            tick is ``tick_samples`` samples per shard (64 by default,
            serial or process), so the cadence in samples scales with
            the tick size and the shard count.
        max_resident: Cap on resident (in-process) customers.  After
            each checkpoint the least-recently-seen customers beyond
            the cap are evicted to the store and transparently
            restored if they show up in the feed again; None keeps
            everything resident.

    Each checkpoint writes only customers whose state may have moved
    since the previous one (routed a sample, was quarantined, migrated
    or readmitted).  The store keeps every other customer's
    last-written row, so a resume still sees the whole fleet; on a
    mostly-idle fleet the per-checkpoint write shrinks to the active
    minority.
    """

    store: "FleetStore"
    every_ticks: int = DEFAULT_CHECKPOINT_EVERY_TICKS
    max_resident: int | None = None

    def __post_init__(self) -> None:
        from ..store import FleetStore as _FleetStore

        if not isinstance(self.store, _FleetStore):
            raise ValueError(f"store must be a FleetStore, got {self.store!r}")
        if self.every_ticks < 1:
            raise ValueError(f"every_ticks must be >= 1, got {self.every_ticks!r}")
        if self.max_resident is not None and self.max_resident < 1:
            raise ValueError(f"max_resident must be >= 1, got {self.max_resident!r}")

    def replace(self, **changes) -> "CheckpointConfig":
        """A copy of this config with the given fields replaced."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class WatchConfig:
    """Everything a fleet watch can be asked to do, as one value.

    Every field mirrors a former ``watch_fleet`` keyword argument and
    keeps its default, so ``WatchConfig()`` reproduces a bare
    ``watch_fleet(samples)`` call exactly.

    Attributes:
        window: Sliding assessment window per customer, in samples.
        interval_minutes: Sampling cadence of the feed.
        drift_threshold: Probability divergence that triggers a
            re-assessment (library default when None).
        min_refresh_samples: Warm-up samples before a customer's first
            recommendation (library default when None).
        refreshes_only: Yield only refresh events (the default) or
            every observed sample.
        backend: Execution backend for the watch (``serial`` or
            ``process``); None defers to the owning
            :class:`~repro.fleet.engine.FleetEngine`.
        max_workers: Worker count for the watch; None defers to the
            owning engine.
        rebalance: A :class:`~repro.fleet.rebalance.RebalancePolicy`
            consulted at tick boundaries, or None for a static watch.
        on_rebalance: Callback observing each executed
            :class:`~repro.fleet.rebalance.RebalanceEvent`.
        tick_samples: Samples per shard per streaming tick, the unit
            a shard folds as arrays: each wave of the tick (one sample
            per customer) is ingested as one block, and the refreshes
            that come due in it share one curve pass and one batched
            profile per deployment.  None means the library default
            (64, for the serial and the process backends alike); the
            stream is byte-identical at every size, and a sample's
            update waits for its tick, so ``tick_samples=1`` answers
            every sample as it arrives.
        checkpoint: A :class:`CheckpointConfig` that persists shard
            state to a durable store at tick boundaries, or None for a
            memory-only watch.
        supervision: A :class:`SupervisionConfig` tuning worker
            failure detection and recovery; None means the defaults
            (supervision is always on -- a dead process worker is
            restored and replayed rather than aborting the watch).

    The process backend sends each tick to its worker as a pickled
    sample list and gets result columns back, both over its worker
    queues (:mod:`repro.fleet.arena`); state handoffs cross the same
    queues as plain pickles.

    Every refresh profiles the window it holds.  ``profile_mode="exact"``
    (here and in :meth:`replace`) is accepted for one release behind a
    ``DeprecationWarning``; any other mode raises ``ValueError``.
    """

    window: int = DEFAULT_STREAM_WINDOW
    interval_minutes: float = DEFAULT_SAMPLE_INTERVAL_MINUTES
    drift_threshold: float | None = None
    min_refresh_samples: int | None = None
    refreshes_only: bool = True
    backend: "FleetBackend | None" = None
    max_workers: int | None = None
    rebalance: RebalancePolicy | None = None
    on_rebalance: Callable[[RebalanceEvent], None] | None = None
    tick_samples: int | None = None
    checkpoint: CheckpointConfig | None = None
    supervision: SupervisionConfig | None = None
    profile_mode: InitVar[str | None] = None

    def __post_init__(self, profile_mode: str | None) -> None:
        if profile_mode is not None:
            warn_profile_mode(profile_mode, stacklevel=4)
        # Engine-independent validation happens here so a bad config
        # fails where it is built; engine-dependent checks (backend
        # name, window vs. warm-up) stay in ``watch_fleet``, which has
        # the engine in hand.
        if self.rebalance is not None and not isinstance(self.rebalance, RebalancePolicy):
            raise ValueError(
                f"rebalance must be a RebalancePolicy or None, got {self.rebalance!r}"
            )
        if self.on_rebalance is not None and not callable(self.on_rebalance):
            raise ValueError(f"on_rebalance must be callable, got {self.on_rebalance!r}")
        if self.tick_samples is not None and self.tick_samples <= 0:
            raise ValueError(f"tick_samples must be positive, got {self.tick_samples!r}")
        if self.checkpoint is not None and not isinstance(self.checkpoint, CheckpointConfig):
            raise ValueError(
                f"checkpoint must be a CheckpointConfig or None, got {self.checkpoint!r}"
            )
        if self.supervision is not None and not isinstance(self.supervision, SupervisionConfig):
            raise ValueError(
                f"supervision must be a SupervisionConfig or None, got {self.supervision!r}"
            )

    def replace(self, **changes) -> "WatchConfig":
        """A copy of this config with the given fields replaced."""
        profile_mode = changes.pop("profile_mode", None)
        if profile_mode is not None:
            warn_profile_mode(profile_mode, stacklevel=3)
        return dataclasses.replace(self, **changes)

    @classmethod
    def field_names(cls) -> frozenset[str]:
        """The accepted configuration keys (the legacy kwarg names)."""
        return frozenset(field.name for field in dataclasses.fields(cls))
