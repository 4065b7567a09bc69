"""Configuration for the online serving tier."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..fleet.config import WatchConfig

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one :class:`~repro.serve.service.RecommendationService`.

    The sibling of :class:`~repro.fleet.config.WatchConfig` for the
    online tier; both are frozen value objects meant to be built once
    and varied with ``replace``.

    Attributes:
        n_shards: Observe-path shards.  Each shard owns its customers'
            live assessment state (sticky routing over the same
            consistent-hash ring the fleet watch uses) behind its own
            admission lane and degraded mode; every shard runs on the
            event loop, so per-customer state never needs a lock.
        max_batch: The most requests one microbatch flush takes, for
            both endpoints.
        queue_limit: Per-lane admission bound on requests queued or in
            flight; beyond it requests are rejected with a retry-after.
        slo_ms: Admission latency budget.  A request whose estimated
            queue delay (queued work times the lane's observed
            seconds-per-request) exceeds this is rejected instead of
            queued -- the shed-early half of the SLO story.
        replay_limit: Per-shard bound on observe samples buffered
            while that shard is degraded (its state failed and is
            awaiting :meth:`~repro.serve.service.RecommendationService.restore_shard`).
            Buffered samples replay through the rebuilt shard; beyond
            the bound observes are rejected with a retry-after.
        watch: Per-customer live-assessment parameters for the observe
            path (window, cadence, drift threshold, warm-up,
            ``profile_mode``).  Execution fields (``backend``,
            ``max_workers``, the rebalance surface) and
            ``refreshes_only`` are ignored: the service is its own
            execution substrate, and every observe call answers with
            that sample's outcome.
        host: Bind address for :func:`repro.serve.http.serve`.
        port: Bind port; 0 picks a free one.

    Batches form while a lane is busy and no request waits out a
    coalescing deadline (:class:`~repro.serve.microbatch.MicroBatcher`),
    so there is no delay to configure: ``max_delay_ms`` raises
    ``TypeError``.
    """

    n_shards: int = 2
    max_batch: int = 32
    queue_limit: int = 256
    slo_ms: float = 250.0
    replay_limit: int = 1024
    watch: WatchConfig = field(default_factory=WatchConfig)
    host: str = "127.0.0.1"
    port: int = 0

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards!r}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch!r}")
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit!r}")
        if self.slo_ms <= 0:
            raise ValueError(f"slo_ms must be positive, got {self.slo_ms!r}")
        if self.replay_limit < 1:
            raise ValueError(f"replay_limit must be >= 1, got {self.replay_limit!r}")
        if not isinstance(self.watch, WatchConfig):
            raise ValueError(f"watch must be a WatchConfig, got {self.watch!r}")

    def replace(self, **changes) -> "ServeConfig":
        """A copy of this config with the given fields replaced."""
        return dataclasses.replace(self, **changes)
