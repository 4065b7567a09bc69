"""Fleet-scale batch recommendation engine.

Scales the single-workload :class:`~repro.core.engine.DopplerEngine`
to whole customer populations: thousands of traces go in, one batched
pass shards them into chunks, runs each chunk through the columnar
curve kernel in the parent, memoizes price-performance curve
construction behind an LRU cache, and streams per-customer results
back as an iterator so peak memory stays flat in the fleet size.  The
streaming pass (:meth:`FleetEngine.watch_fleet`) runs on an execution
backend (:mod:`repro.fleet.backends`: serial, or persistent worker
processes): customers' live state shards across stateful workers with
sticky routing by customer id.

Determinism contract: a fleet pass is a pure function of the fitted
engine and the input traces (or the feed, for a watch).  The process
watch preserves feed order and uses no randomness, so its results are
bit-identical to the serial backend's -- the property the scale
benchmarks assert.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from ..catalog.models import DeploymentType
from ..core.engine import DopplerEngine
from ..core.matching import GroupObservation, GroupScoreModel
from ..core.profiler import GroupKey
from ..core.types import CloudCustomerRecord, DopplerRecommendation
from ..streaming.drift import DEFAULT_DRIFT_THRESHOLD
from ..streaming.live import DEFAULT_MIN_REFRESH_SAMPLES
from ..telemetry.counters import PerfDimension
from ..telemetry.trace import PerformanceTrace
from .backends import (
    FleetBackend,
    ShardAssessmentConfig,
    WatchSupervisionStats,
    make_backend,
)
from .cache import (
    DEFAULT_CACHE_SIZE,
    CurveCache,
    CurveCacheStats,
    curve_cache_key,
)
from .config import WatchConfig
from .rebalance import WatchRebalanceStats
from .report import FleetSummary, summarize_fleet
from .sharding import auto_chunk_size, shard

if TYPE_CHECKING:  # imported lazily at run time to avoid a cycle
    from ..store import FleetStore
    from ..streaming.live import LiveUpdate

__all__ = [
    "FleetBackend",
    "FleetCustomer",
    "FleetEngine",
    "FleetFitReport",
    "FleetLiveUpdate",
    "FleetRecommendation",
    "FleetSample",
    "WatchConfig",
]

#: Chunk size when the fleet's length is unknown (pure streaming).
_STREAMING_CHUNK_SIZE = 32


@dataclass(frozen=True)
class FleetCustomer:
    """One customer in a fleet recommendation pass.

    Attributes:
        customer_id: Stable identifier used in results and reports.
        trace: The customer's performance history.
        deployment: Target deployment type.
        file_sizes_gib: Optional explicit MI data-file layout.
        current_sku_name: The SKU the customer runs on today, if any;
            when present the pass also produces a right-sizing
            (over-provisioning) verdict.
    """

    customer_id: str
    trace: PerformanceTrace
    deployment: DeploymentType
    file_sizes_gib: tuple[float, ...] | None = None
    current_sku_name: str | None = None

    def __post_init__(self) -> None:
        # Accept any sequence (the engine-level APIs take list[float])
        # but store a tuple: cache keys built from this field must be
        # hashable.
        if self.file_sizes_gib is not None and not isinstance(self.file_sizes_gib, tuple):
            object.__setattr__(self, "file_sizes_gib", tuple(self.file_sizes_gib))

    @classmethod
    def from_record(
        cls, record: CloudCustomerRecord, customer_id: str | None = None
    ) -> "FleetCustomer":
        """Adapt a migrated-customer training record for assessment."""
        return cls(
            customer_id=customer_id or record.trace.entity_id,
            trace=record.trace,
            deployment=record.deployment,
            current_sku_name=record.chosen_sku_name,
        )


@dataclass(frozen=True)
class FleetRecommendation:
    """Per-customer outcome of a fleet pass.

    Attributes:
        customer_id: The assessed customer.
        recommendation: The Doppler recommendation, or None when the
            assessment failed.
        over_provisioned: Right-sizing verdict against
            ``current_sku_name`` (None when no current SKU was given
            or the assessment failed).
        error: Failure message when ``recommendation`` is None.
        stale: True when the recommendation was answered from the
            durable store's last known value because the customer's
            live shard is restarting (degraded-mode serving); the
            verdict may lag the feed.
        retry_after_s: Suggested wait before asking again, set only on
            stale answers.
    """

    customer_id: str
    recommendation: DopplerRecommendation | None
    over_provisioned: bool | None = None
    error: str | None = None
    stale: bool = False
    retry_after_s: float | None = None

    @property
    def ok(self) -> bool:
        return self.recommendation is not None


@dataclass(frozen=True)
class FleetSample:
    """One telemetry sample of one customer in a fleet-wide stream.

    The streaming counterpart of :class:`FleetCustomer`: instead of a
    complete trace, each event carries one aligned counter reading.

    Attributes:
        customer_id: Stable identifier; samples with the same id feed
            the same live assessment.
        values: Counter values by dimension for this sample.
        deployment: Target deployment type (fixed per customer; the
            first sample's value wins).
    """

    customer_id: str
    values: Mapping[PerfDimension, float]
    deployment: DeploymentType = DeploymentType.SQL_DB


@dataclass(frozen=True)
class FleetLiveUpdate:
    """One customer's live-assessment outcome within a fleet watch.

    Attributes:
        customer_id: The customer whose assessment moved.
        update: The underlying per-sample outcome, or None when the
            customer's live assessment failed.
        error: Failure message when ``update`` is None; the customer
            is quarantined from the rest of the watch -- unless
            ``deferred`` is set, in which case nothing is wrong with
            the customer and the sample will still be assessed.
        deferred: True when the sample was buffered instead of
            assessed because its shard is restarting (degraded-mode
            serving); it replays once the shard heals.
    """

    customer_id: str
    update: "LiveUpdate | None"
    error: str | None = None
    deferred: bool = False

    @property
    def ok(self) -> bool:
        return self.update is not None

    @property
    def recommendation(self) -> DopplerRecommendation | None:
        return self.update.recommendation if self.update is not None else None


@dataclass(frozen=True)
class FleetFitReport:
    """Outcome of fitting group models over a fleet of records.

    Attributes:
        n_records: Records submitted.
        n_observations: Usable training observations per deployment
            short name (settled, SKU on curve, not excluded).
        fitted_deployments: Deployments that received a group model.
        n_unbuildable: Records skipped because no catalog SKU could
            accommodate their workload (curve construction failed).
    """

    n_records: int
    n_observations: dict[str, int] = field(default_factory=dict)
    fitted_deployments: tuple[str, ...] = ()
    n_unbuildable: int = 0


class _FleetRunner:
    """Batch execution state: the engine plus its curve cache.

    Every batch pass runs its chunks through the one runner its
    :class:`FleetEngine` holds in the parent, so one cache serves every
    fit, recommend and serving batch of that engine.

    With ``columnar`` enabled (the default) each shard runs as a
    chunk, layer by layer: one cache key-batch probe over memoized
    trace fingerprints, one per-deployment capacity matrix and shared
    chunks of the bitset violation kernel for every cache-missing
    customer
    (:meth:`~repro.core.ppm.PricePerformanceModeler.build_curves_batch`),
    one batched profiling call per deployment, then a vectorised
    selection per customer.  Results are byte-identical to the
    per-customer path -- the property the fleet-scale benchmark
    asserts.
    """

    def __init__(
        self, engine: DopplerEngine, cache: CurveCache, columnar: bool = True
    ) -> None:
        self.engine = engine
        self.cache = cache
        self.columnar = columnar
        self._catalog_signature = engine.ppm.catalog_signature

    def build_curve(
        self,
        trace: PerformanceTrace,
        deployment: DeploymentType,
        file_sizes_gib: tuple[float, ...] | None = None,
    ):
        key = curve_cache_key(
            trace, deployment.value, file_sizes_gib, self._catalog_signature
        )
        sizes = list(file_sizes_gib) if file_sizes_gib else None
        return self.cache.get_or_build(
            key,
            lambda: self.engine.ppm.build_curve(trace, deployment, file_sizes_gib=sizes),
        )

    def build_curves(
        self,
        specs: list[tuple[PerformanceTrace, DeploymentType, tuple[float, ...] | None]],
    ) -> list:
        """Memoized columnar curve construction for one shard.

        One batched cache probe for the whole shard, one columnar
        build per deployment for the distinct missing keys, one
        batched install.  Returns, aligned with ``specs``, either the
        curve or the exception the serial path would have raised for
        that customer.
        """
        keys = [
            curve_cache_key(trace, deployment.value, sizes, self._catalog_signature)
            for trace, deployment, sizes in specs
        ]
        outcomes: dict = self.cache.get_many(keys)
        occurrences = Counter(keys)
        missing_by_deployment: dict[DeploymentType, dict] = {}
        for key, (trace, deployment, sizes) in zip(keys, specs):
            if key not in outcomes:
                missing_by_deployment.setdefault(deployment, {}).setdefault(
                    key, (trace, sizes)
                )
        for deployment, missing in missing_by_deployment.items():
            built = self.engine.ppm.build_curves_batch(
                [trace for trace, _ in missing.values()],
                deployment,
                [sizes for _, sizes in missing.values()],
            )
            curves = {
                key: outcome
                for key, outcome in zip(missing, built)
                if not isinstance(outcome, Exception)
            }
            self.cache.install_many(curves)
            outcomes.update(zip(missing, built))
            # Settle duplicate occurrences of batch-missed keys now
            # the outcome is known: served-from-build = hit, shared
            # failure = the re-miss a serial loop pays.
            extra_hits = extra_misses = 0
            for key in missing:
                duplicates = occurrences[key] - 1
                if not duplicates:
                    continue
                if key in curves:
                    extra_hits += duplicates
                else:
                    extra_misses += duplicates
            if extra_hits or extra_misses:
                self.cache.adjust_counters(hits=extra_hits, misses=extra_misses)
        return [outcomes[key] for key in keys]

    def fit_chunk(
        self, chunk: list[CloudCustomerRecord], exclude_over_provisioned: bool
    ) -> tuple[list[tuple[str, GroupKey, float]], int]:
        """Training observations for one shard of records.

        Delegates the per-record protocol to
        :meth:`DopplerEngine.training_observation` (with a memoized
        curve), with one deviation: a record whose curve cannot be
        built (storage misfit) is skipped and counted instead of
        raising -- at fleet scale one pathological record must not
        abort the whole training pass.  Returns
        ``(deployment value, group key, throttling)`` triples plus the
        skipped-record count.
        """
        settled = [record for record in chunk if record.is_settled]
        if not self.columnar:
            observations: list[tuple[str, GroupKey, float]] = []
            n_unbuildable = 0
            for record in settled:
                try:
                    curve = self.build_curve(record.trace, record.deployment)
                except ValueError:
                    n_unbuildable += 1
                    continue  # no SKU fits the workload; nothing to learn
                observation = self.engine.training_observation(
                    record,
                    exclude_over_provisioned=exclude_over_provisioned,
                    curve=curve,
                )
                if observation is not None:
                    observations.append(
                        (
                            record.deployment.value,
                            observation.group_key,
                            observation.throttling_probability,
                        )
                    )
            return observations, n_unbuildable
        curves = self.build_curves(
            [(record.trace, record.deployment, None) for record in settled]
        )
        # Columnar aggregation tail: replicate training_observation's
        # per-record gate sequence (settled -> curve -> chosen SKU on
        # curve -> over-provisioning exclusion -> profile) but defer
        # the expensive profiling of the survivors to one batched
        # summarizer pass per deployment.  Observation order equals
        # the per-record loop's, so the downstream group-score fit is
        # byte-identical.
        n_unbuildable = 0
        survivors: list[tuple[CloudCustomerRecord, object]] = []
        for record, curve in zip(settled, curves):
            if isinstance(curve, ValueError):
                n_unbuildable += 1
                continue  # no SKU fits the workload; nothing to learn
            if isinstance(curve, Exception):
                raise curve  # same propagation as the per-record path
            try:
                point = curve.point_for(record.chosen_sku_name)
            except KeyError:
                continue  # chosen SKU not a candidate (e.g. storage misfit)
            if exclude_over_provisioned and DopplerEngine.is_over_provisioned_on(
                curve, point.sku.name
            ):
                continue
            survivors.append((record, point))
        profiles = self.engine.profile_many(
            [(record.deployment, record.trace) for record, _ in survivors]
        )
        observations = []
        for (record, point), profile in zip(survivors, profiles):
            if isinstance(profile, Exception):
                raise profile  # the first failing record, as the per-record path
            observations.append(
                (record.deployment.value, profile.group_key, point.throttling_probability)
            )
        return observations, n_unbuildable

    def recommend_chunk(self, chunk: list[FleetCustomer]) -> list[FleetRecommendation]:
        """Recommendations for one chunk, in chunk order.

        Columnar: one batched curve build (:meth:`build_curves`), one
        :meth:`~repro.core.profiler.CustomerProfiler.profile_batch`
        per deployment over the customers whose curve built
        (:meth:`~repro.core.engine.DopplerEngine.profile_many`), then
        per-customer selection on the prebuilt curve and profile.  A failed curve or profile stays
        with its customer and surfaces as an error result with the
        text and precedence the per-customer path produces (a curve
        error wins over a profile error).
        """
        if not self.columnar:
            return [self.recommend_one(customer) for customer in chunk]
        curves = self.build_curves(
            [
                (customer.trace, customer.deployment, customer.file_sizes_gib)
                for customer in chunk
            ]
        )
        built = [
            index for index, curve in enumerate(curves) if not isinstance(curve, Exception)
        ]
        profiles: list = [None] * len(chunk)
        for index, profile in zip(
            built,
            self.engine.profile_many(
                [(chunk[index].deployment, chunk[index].trace) for index in built]
            ),
        ):
            profiles[index] = profile
        return [
            self._finish_recommendation(customer, curve, profile)
            for customer, curve, profile in zip(chunk, curves, profiles)
        ]

    def recommend_one(self, customer: FleetCustomer) -> FleetRecommendation:
        try:
            curve = self.build_curve(
                customer.trace, customer.deployment, customer.file_sizes_gib
            )
        except Exception as exc:  # noqa: BLE001 - one bad trace must not kill the fleet
            curve = exc
        return self._finish_recommendation(customer, curve)

    def _finish_recommendation(
        self, customer: FleetCustomer, curve, profile=None
    ) -> FleetRecommendation:
        """Selection + right-sizing on a built curve (or stored failure).

        Shared tail of the columnar and per-customer paths, so both
        produce identical result bytes -- including the
        ``TypeName: message`` error formatting of the containment
        contract.  ``profile`` is the columnar path's batched profile
        (or the exception profiling raised), checked after the curve;
        None lets :meth:`DopplerEngine.recommend` profile the trace.
        """
        try:
            if isinstance(curve, Exception):
                raise curve
            if isinstance(profile, Exception):
                raise profile
            sizes = list(customer.file_sizes_gib) if customer.file_sizes_gib else None
            recommendation = self.engine.recommend(
                customer.trace,
                customer.deployment,
                file_sizes_gib=sizes,
                curve=curve,
                profile=profile,
            )
            over: bool | None = None
            if customer.current_sku_name is not None:
                over = DopplerEngine.is_over_provisioned_on(curve, customer.current_sku_name)
            return FleetRecommendation(
                customer_id=customer.customer_id,
                recommendation=recommendation,
                over_provisioned=over,
            )
        except Exception as exc:  # noqa: BLE001 - one bad trace must not kill the fleet
            return FleetRecommendation(
                customer_id=customer.customer_id,
                recommendation=None,
                error=f"{type(exc).__name__}: {exc}",
            )


@dataclass
class FleetEngine:
    """Batched, memoized front end over a Doppler engine.

    Typical use::

        fleet = FleetEngine(engine=DopplerEngine(catalog=SkuCatalog.default()))
        fleet.fit_fleet(records)                 # batched training pass
        for result in fleet.recommend_fleet(customers):   # streaming
            ...
        summary = fleet.summary_report(customers)

    Batch passes (:meth:`fit_fleet`, :meth:`recommend_fleet`,
    :meth:`recommend_batch`) always run their chunks in the parent,
    whatever ``backend`` says; ``backend`` and ``max_workers`` only set
    a watch's default.

    Attributes:
        engine: The wrapped single-workload engine; fleet fitting
            installs group models into it, so it stays usable for
            one-off assessments afterwards.
        backend: Default watch backend: ``serial`` (every shard in the
            parent) or ``process`` (persistent worker processes).
        max_workers: Default watch worker count; defaults to the
            machine's CPU count.
        chunk_size: Customers per batch chunk; defaults to an
            automatic size.
        cache_size: LRU capacity of the batch curve cache.
        columnar: Drive every chunk through the columnar batch kernel
            (one capacity-matrix build, one cache key-batch and one
            profiling call per deployment per chunk) instead of the
            per-customer loop.  Results are
            byte-identical either way; the flag exists so benchmarks
            and regression tests can compare the two paths.
    """

    engine: DopplerEngine
    backend: FleetBackend = "process"
    max_workers: int | None = None
    chunk_size: int | None = None
    cache_size: int = DEFAULT_CACHE_SIZE
    columnar: bool = True

    def __post_init__(self) -> None:
        make_backend(self.backend, self.max_workers)  # validate both up front
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {self.chunk_size!r}")
        if self.cache_size <= 0:
            raise ValueError(f"cache_size must be positive, got {self.cache_size!r}")
        self._runner = _FleetRunner(self.engine, CurveCache(self.cache_size), self.columnar)
        self._last_rebalance_stats: WatchRebalanceStats | None = None
        self._last_supervision_stats: WatchSupervisionStats | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def fit_fleet(
        self,
        records: Iterable[CloudCustomerRecord],
        exclude_over_provisioned: bool = True,
    ) -> FleetFitReport:
        """Learn group throttling targets from a fleet of records.

        The per-record work (curve + profile) runs chunk by chunk
        through the columnar kernel, then observations are averaged
        per negotiability group.  Produces the same group models as
        :meth:`DopplerEngine.fit` over the same records -- group
        averages are order-insensitive, so chunking does not change
        the fit -- with one deviation: a record whose curve cannot be
        built (storage misfit) is skipped and counted in
        ``n_unbuildable`` where the single-workload ``fit`` would
        raise.

        Returns:
            A :class:`FleetFitReport`; the fitted models are installed
            into :attr:`engine` as a side effect.
        """
        records = list(records)
        by_deployment: dict[DeploymentType, list[GroupObservation]] = {
            deployment: [] for deployment in DeploymentType
        }
        n_unbuildable = 0
        chunk_size = self.chunk_size or auto_chunk_size(len(records), 1)
        for chunk in shard(records, chunk_size):
            triples, n_skipped = self._runner.fit_chunk(chunk, exclude_over_provisioned)
            n_unbuildable += n_skipped
            for deployment_value, group_key, throttling in triples:
                by_deployment[DeploymentType(deployment_value)].append(
                    GroupObservation(
                        group_key=group_key, throttling_probability=throttling
                    )
                )
        fitted: list[str] = []
        counts: dict[str, int] = {}
        for deployment, observations in by_deployment.items():
            counts[deployment.short_name] = len(observations)
            if observations:
                self.engine.install_group_model(
                    deployment, GroupScoreModel.fit(observations)
                )
                fitted.append(deployment.short_name)
        return FleetFitReport(
            n_records=len(records),
            n_observations=counts,
            fitted_deployments=tuple(sorted(fitted)),
            n_unbuildable=n_unbuildable,
        )

    def recommend_fleet(
        self, customers: Iterable[FleetCustomer]
    ) -> Iterator[FleetRecommendation]:
        """Recommend over a fleet, streaming results in input order.

        Lazy end to end: customers are pulled from the iterable one
        chunk at a time, and a chunk is assessed only when its first
        result is asked for, so memory stays flat for arbitrarily
        large fleets.  Per-customer failures surface as error results,
        never as exceptions.
        """
        if self.chunk_size is not None:
            chunk_size = self.chunk_size
        elif isinstance(customers, (list, tuple)):
            chunk_size = auto_chunk_size(len(customers), 1)
        else:
            chunk_size = _STREAMING_CHUNK_SIZE  # length unknown: fixed chunks
        for chunk in shard(customers, chunk_size):
            yield from self._runner.recommend_chunk(chunk)

    def recommend_batch(
        self, customers: Iterable[FleetCustomer]
    ) -> list[FleetRecommendation]:
        """Recommend one bounded batch synchronously in the parent.

        The low-latency sibling of :meth:`recommend_fleet`, built for
        online microbatching (:mod:`repro.serve`): the whole batch
        runs as a single columnar chunk through the parent's runner --
        one batched cache probe, one violation-kernel pass per
        deployment -- with no sharding and no iterator protocol
        between caller and results.  Shares the fleet's batch curve
        cache, and produces byte-identical results to
        :meth:`recommend_fleet` over the same customers (both end in
        the same ``_finish_recommendation`` tail).
        """
        return self._runner.recommend_chunk(list(customers))

    def summary_report(self, customers: Iterable[FleetCustomer]) -> FleetSummary:
        """Run a fleet pass and fold it straight into a summary.

        Constant memory in the fleet size: results are consumed as
        they stream out and never accumulated.
        """
        return summarize_fleet(self.recommend_fleet(customers))

    def watch_fleet(
        self,
        samples: Iterable[FleetSample],
        config: WatchConfig | None = None,
        *,
        resume_from: "FleetStore | None" = None,
        **retired_kwargs,
    ) -> Iterator[FleetLiveUpdate]:
        """Streaming pass: live assessments over a fleet-wide feed.

        The online counterpart of :meth:`recommend_fleet`: samples
        arrive interleaved across customers, each customer gets a
        :class:`~repro.streaming.live.LiveRecommender` on first sight,
        and a :class:`FleetLiveUpdate` is yielded whenever a
        customer's recommendation refreshes (every sample when
        ``refreshes_only`` is False).

        The feed runs on the fleet's default watch backend
        (overridable per watch).  Under the process backend,
        customers' live state shards across stateful workers with
        sticky routing over a consistent-hash
        :class:`~repro.fleet.sharding.ShardRing`: every sample of one
        customer reaches the one worker owning that customer's
        assessment, workers process their samples in feed order, and
        the parent reassembles emissions into feed order -- so the
        update sequence, including failure ordering, is byte-identical
        to the serial backend's.

        With a ``rebalance`` policy the watch is *elastic*: the parent
        tracks per-shard load and lets the policy migrate customers
        between workers (drain, ``snapshot_state`` on the source,
        re-route on the ring, ``restore_state`` on the target) or
        resize the pool mid-watch.  The ring's minimal-movement
        property keeps resize migrations to ~1/n of the population,
        and the reorder buffer keeps the update stream byte-identical
        to the serial backend's across any migration schedule.
        :meth:`watch_rebalance_stats` accounts for what happened.

        Live assessments build their refresh curves from their
        incremental window counts, so a watch neither reads nor fills
        the batch pass's curve cache.

        Per-customer failures follow the fleet containment contract:
        a customer whose assessment raises (e.g. no SKU holds their
        storage footprint) surfaces once as an error update and is
        quarantined on its shard; the stream keeps serving everyone
        else.  Under the process backend each tick's samples are
        pickled in the parent, so a sample whose values cannot be
        pickled (a lambda, say) is not a per-customer failure: it
        raises from :meth:`~repro.fleet.arena.TickPlane.pack_tick`
        and ends the watch.  A value that pickles but is not a
        number still fails only its customer, as on serial.

        With ``config.checkpoint`` set, shard state persists to a
        :class:`~repro.store.FleetStore` at the configured tick
        cadence, and ``resume_from=store`` continues a killed watch
        from its latest checkpoint: ring topology, quarantine and live
        state are rebuilt, the consumed feed prefix is skipped, and
        the resumed stream is byte-identical to what the uninterrupted
        run would have emitted from that point (the caller replays the
        same feed).

        Args:
            samples: The fleet-wide telemetry feed, in arrival order.
            config: A :class:`~repro.fleet.config.WatchConfig`
                bundling the watch parameters (window, drift
                thresholds, backend selection, the elastic rebalance
                surface, checkpointing).  ``None`` means all defaults.
            resume_from: A :class:`~repro.store.FleetStore` holding a
                checkpoint to resume from; raises if the store has
                none.
        """
        if retired_kwargs:
            raise TypeError(
                "watch_fleet() got unexpected keyword arguments: "
                + ", ".join(repr(name) for name in sorted(retired_kwargs))
                + "; the legacy per-watch keyword form has been removed -- "
                "pass config=WatchConfig(...) instead"
            )
        config = self._validate_watch_config(config)
        if resume_from is not None:
            from ..store import FleetStore as _FleetStore

            if not isinstance(resume_from, _FleetStore):
                raise ValueError(
                    f"resume_from must be a FleetStore, got {resume_from!r}"
                )
        # Validate selection and configuration eagerly (this is a
        # plain function returning a generator, so a bad backend name
        # or window fails at the call site, not at first iteration).
        backend_obj = make_backend(
            config.backend if config.backend is not None else self.backend,
            config.max_workers if config.max_workers is not None else self.max_workers,
        )
        return self._run_watch(
            backend_obj,
            self._shard_config(config),
            samples,
            config.rebalance,
            config.on_rebalance,
            config.tick_samples,
            config.checkpoint,
            resume_from,
            config.supervision,
        )

    def _shard_config(
        self,
        config: WatchConfig,
        refreshes_only: bool | None = None,
    ) -> ShardAssessmentConfig:
        """Resolve a public config into the internal per-shard form.

        Library defaults for the drift threshold and warm-up length
        are filled in here; constructing the
        :class:`~repro.fleet.backends.ShardAssessmentConfig` also runs
        the assessment-parameter validation (window vs. warm-up), so
        both the watch and the serving tier fail fast on a bad config.
        ``refreshes_only`` overrides the config's flag when given (the
        serving tier forces it off: every observe call needs an
        answer).
        """
        drift_threshold = config.drift_threshold
        if drift_threshold is None:
            drift_threshold = DEFAULT_DRIFT_THRESHOLD
        min_refresh_samples = config.min_refresh_samples
        if min_refresh_samples is None:
            min_refresh_samples = DEFAULT_MIN_REFRESH_SAMPLES
        return ShardAssessmentConfig(
            engine=self.engine,
            window=config.window,
            interval_minutes=config.interval_minutes,
            drift_threshold=drift_threshold,
            min_refresh_samples=min_refresh_samples,
            refreshes_only=(
                config.refreshes_only if refreshes_only is None else refreshes_only
            ),
        )

    @staticmethod
    def _validate_watch_config(config: WatchConfig | None) -> WatchConfig:
        """Default and type-check a watch config.

        The legacy keyword shim that used to live here (one-cycle
        ``DeprecationWarning`` grace period) has been retired; the
        config object is the only spelling.
        """
        if config is None:
            return WatchConfig()
        if not isinstance(config, WatchConfig):
            raise ValueError(f"config must be a WatchConfig, got {config!r}")
        return config

    def _run_watch(
        self,
        backend_obj,
        config,
        samples,
        policy=None,
        on_rebalance=None,
        tick_samples=None,
        checkpoint=None,
        resume_from=None,
        supervision=None,
    ) -> Iterator[FleetLiveUpdate]:
        try:
            yield from backend_obj.watch(
                config,
                samples,
                policy,
                on_rebalance,
                tick_samples,
                checkpoint,
                resume_from,
                supervision,
            )
        finally:
            self._last_rebalance_stats = backend_obj.watch_rebalance_stats()
            self._last_supervision_stats = backend_obj.watch_supervision_stats()

    def cache_stats(self) -> CurveCacheStats:
        """Batch curve-cache counters (every batch pass runs in the parent)."""
        return self._runner.cache.stats()

    def watch_cache_stats(self) -> CurveCacheStats | None:
        """Deprecated: watches no longer keep a curve cache.

        Live refreshes build their curves from the incremental window
        counts, so there is nothing to count.  Returns all-zero
        counters once a watch has finished and None before, as the
        watch-scoped cache did, for one release.
        """
        warnings.warn(
            "FleetEngine.watch_cache_stats() is deprecated: watches no longer "
            "keep a curve cache, so its counters are always zero",
            DeprecationWarning,
            stacklevel=2,
        )
        if self._last_rebalance_stats is None:
            return None
        return CurveCacheStats(hits=0, misses=0, evictions=0, size=0)

    def watch_supervision_stats(self) -> WatchSupervisionStats | None:
        """Self-healing account of the last finished watch.

        Worker restarts, deadline kills, forced stops, replayed ticks
        and shard quarantines
        (:class:`~repro.fleet.backends.WatchSupervisionStats`).  A
        healthy watch reports all-zero counters.  None until a watch
        has finished.
        """
        return self._last_supervision_stats

    def watch_rebalance_stats(self) -> WatchRebalanceStats | None:
        """Rebalancing account of the last finished watch.

        Covers every watch, elastic or static: decision and migration
        counters, executed :class:`~repro.fleet.rebalance.RebalanceEvent`
        entries, and the per-shard sample totals the decisions were
        based on.  None until a watch has finished; a static watch
        reports zero decisions with its routing load intact.
        """
        return self._last_rebalance_stats
