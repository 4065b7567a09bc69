"""Live SKU recommendation over continuously arriving telemetry.

:class:`LiveRecommender` turns the one-shot Doppler assessment into a
service loop.  Per sample it does only cheap work: the sample is
parsed once into a row (:func:`~repro.telemetry.streaming.parse_sample`),
written as one column of the builder's ``(n_dims, window)`` ring, and
folded into the incremental estimate with one vector compare against
the transposed capacity matrix -- O(n_skus * n_dims).  It re-runs the
full pipeline (curve construction, profiling, group-matched
selection) only when the incremental estimates have drifted from the
ones the current recommendation was built on.  A refresh builds its
curve from those same estimates -- the estimator's window counts
divided by the window length, bit-for-bit the batch statistic -- so it
never re-scans the window for throttling; it only fits the candidates
to the window's storage footprint and assembles the curve, against
capacities memoized once per engine and deployment.  In ``exact``
profile mode the refresh's window snapshot is one checked matrix copy
and its profile one summarizer broadcast over the snapshot's rows
(:meth:`~repro.core.profiler.CustomerProfiler.profile_batch`).

:meth:`LiveRecommender.observe` is :meth:`~LiveRecommender.ingest`
(append, vector update, drift check), then a refresh when one came
due.  A fleet watch shard splits the two: it ingests a whole tick of
samples in feed order and runs the refreshes that came due together
(:meth:`LiveRecommender.refresh_many`), so every window of the tick is
profiled in one ``profile_batch`` call per deployment, with the same
bytes as refreshing each stream alone.

The result is a recommendation stream whose freshness is bounded by
the drift threshold while per-sample cost stays flat in the window
length -- the property `benchmarks/bench_streaming.py` quantifies
against rebuild-per-sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

from ..catalog.models import DeploymentType
from ..core.engine import DopplerEngine
from ..core.incremental import IncrementalThrottlingEstimator
from ..core.ppm import gp_iops_overrides
from ..core.throttling import EmpiricalThrottlingEstimator
from ..core.types import DopplerRecommendation
from ..telemetry.counters import DB_DIMENSIONS, MI_DIMENSIONS, PerfDimension
from ..telemetry.streaming import (
    DEFAULT_STREAM_WINDOW,
    StreamingSeriesStats,
    StreamingTraceBuilder,
)
from ..telemetry.timeseries import DEFAULT_SAMPLE_INTERVAL_MINUTES
from ..telemetry.trace import PerformanceTrace
from .drift import DEFAULT_DRIFT_THRESHOLD, DriftDetector, DriftReport

__all__ = [
    "DEFAULT_MIN_REFRESH_SAMPLES",
    "LiveAssessmentState",
    "LiveRecommender",
    "LiveUpdate",
    "unflatten_state",
]

#: Samples required before the first recommendation is issued -- two
#: hours at the DMA cadence, enough for the profiler's summary
#: statistics to mean anything.
DEFAULT_MIN_REFRESH_SAMPLES = 12


@dataclass(frozen=True)
class LiveUpdate:
    """Outcome of observing one telemetry sample.

    Attributes:
        n_seen: Samples the stream has delivered so far.
        n_window: Samples currently inside the assessment window.
        refreshed: Whether this sample triggered a full re-assessment.
        drift: The drift check that made the call (None while warming
            up or on the very first assessment).
        recommendation: The current recommendation -- fresh when
            ``refreshed``, otherwise the still-valid previous one;
            None during warm-up.
    """

    n_seen: int
    n_window: int
    refreshed: bool
    drift: DriftReport | None
    recommendation: DopplerRecommendation | None

    @property
    def has_recommendation(self) -> bool:
        return self.recommendation is not None


@dataclass(frozen=True)
class LiveAssessmentState:
    """Picklable snapshot of one live assessment's mutable state.

    The unit of every state boundary -- worker migrations, supervisor
    restores, checkpoints and resumes -- which it crosses as a plain
    pickle.  It holds everything one customer's assessment has
    accumulated that cannot be derived -- the window's samples,
    per-SKU violation counts, the drift rebase point, streaming
    profile stats, the recommendation in force -- *without* the engine
    it runs against.  A receiving worker constructs an identically
    configured :class:`LiveRecommender` around its own engine and
    calls :meth:`LiveRecommender.restore_state`; the restored loop
    continues the stream exactly where the source left off.

    Derivable state stays out: the estimator's violation ring is
    rebuilt on restore from the window samples and the capacity
    matrix (the counts check the rebuild), and the recommendation's
    curve pickles its candidate SKUs by catalog reference.  Reading a
    snapshot therefore needs an engine over the same catalog in the
    reading process.

    The sharded fleet watch does not ship state in steady operation
    (sticky routing keeps each customer on one worker for a watch's
    lifetime; workers build state in place on first sight) -- this is
    the migration primitive for moving an assessment between
    processes: checkpointing, replaying, or the dynamic rebalancing
    the ROADMAP tracks.

    Attributes:
        deployment_value: Target deployment (restore-compatibility
            check).
        window: Assessment window length (check).
        dimensions: Ingested counter dimensions, in ring order (check).
        profile_mode: Profiling strategy (check; streaming profile
            stats only exist in ``streaming`` mode).
        entity_id: The assessed customer.
        builder: :meth:`~repro.telemetry.streaming.StreamingTraceBuilder.state_dict`.
        estimator: :meth:`~repro.core.incremental.IncrementalThrottlingEstimator.state_dict`.
        detector: :meth:`~repro.streaming.drift.DriftDetector.state_dict`.
        profile_stats: Per-dimension
            :meth:`~repro.telemetry.streaming.StreamingSeriesStats.state_dict`
            snapshots (empty in ``exact`` mode).
        recommendation: The recommendation in force, if any.
        n_refreshes: Full re-assessments performed so far.
        epoch: Migration epoch of the source recommender at snapshot
            time.  Each restore bumps the receiving recommender past
            the snapshot's epoch, so a snapshot from an earlier hop of
            a migration chain can never silently overwrite later
            state (:meth:`LiveRecommender.restore_state` rejects it).
    """

    deployment_value: str
    window: int
    dimensions: tuple[PerfDimension, ...]
    profile_mode: str
    entity_id: str
    builder: dict
    estimator: dict
    detector: dict
    profile_stats: tuple[tuple[PerfDimension, dict], ...]
    recommendation: DopplerRecommendation | None
    n_refreshes: int
    epoch: int = 0


class LiveRecommender:
    """Online assessment loop around a fitted :class:`DopplerEngine`.

    Typical use::

        live = LiveRecommender(engine, DeploymentType.SQL_DB, window=1008)
        for sample in telemetry_feed:          # {dimension: value}
            update = live.observe(sample)
            if update.refreshed:
                publish(update.recommendation)

    Attributes:
        engine: The wrapped engine (fit it first for profile-matched
            selections; cold-start heuristics apply otherwise).
        deployment: Target deployment type.
        builder: The sliding-window trace ingester.
        estimator: The incremental throttling estimator driving drift
            detection and, with the paper's empirical estimator, each
            refresh's curve.  It tracks every candidate of the
            deployment against the engine's memoized capacity matrix.
            For MI targets each refresh folds the planned file layout's
            GP IOPS limit into the estimator's capacities when the
            layout changed (one window replay per change), so drift
            detection and the two-step MI procedure agree on
            capacities between refreshes.
        detector: The drift detector gating refreshes.
        min_refresh_samples: Warm-up length before the first
            recommendation.
        profile_mode: ``exact`` re-profiles the window snapshot on
            every refresh (the batch path's summarizers, O(window));
            ``streaming`` profiles from per-dimension
            :class:`~repro.telemetry.streaming.StreamingSeriesStats`
            maintained in O(1) per sample -- exact for the AUC
            summarizers, within the quantile sketch's documented rank
            error for thresholding.  Requires a summarizer with
            ``supports_streaming``.
    """

    def __init__(
        self,
        engine: DopplerEngine,
        deployment: DeploymentType,
        window: int = DEFAULT_STREAM_WINDOW,
        interval_minutes: float = DEFAULT_SAMPLE_INTERVAL_MINUTES,
        dimensions: tuple[PerfDimension, ...] | None = None,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
        min_refresh_samples: int = DEFAULT_MIN_REFRESH_SAMPLES,
        entity_id: str = "live",
        profile_mode: Literal["exact", "streaming"] = "exact",
    ) -> None:
        self.validate_config(window, min_refresh_samples, profile_mode, engine.summarizer)
        curve_dimensions = (
            DB_DIMENSIONS if deployment is DeploymentType.SQL_DB else MI_DIMENSIONS
        )
        dimensions = tuple(dimensions) if dimensions is not None else curve_dimensions
        self.engine = engine
        self.deployment = deployment
        self.min_refresh_samples = min_refresh_samples
        self.builder = StreamingTraceBuilder(
            dimensions=dimensions,
            window=window,
            interval_minutes=interval_minutes,
            entity_id=entity_id,
        )
        # Curve construction filters candidates per snapshot (storage
        # fit, MI tiers); the estimator tracks the full deployment
        # candidate set so drift covers every SKU a refresh could rank.
        ppm = engine.ppm
        candidates = ppm.candidates(deployment)
        self.estimator = IncrementalThrottlingEstimator(
            list(candidates),
            dimensions,
            window=window,
            capacities=ppm.capacity_matrix_for(deployment, dimensions),
        )
        self._candidates = candidates
        self._sku_names = tuple(sku.name for sku in candidates)
        # The window counts are the curve's statistic only when the
        # engine estimates empirically over the same dimensions; any
        # other estimator, or a tracked dimension the curve leaves
        # out, makes a refresh re-scan the window through build_curve.
        self._curve_from_counts = isinstance(
            ppm.estimator, EmpiricalThrottlingEstimator
        ) and set(dimensions) <= set(curve_dimensions)
        self.detector = DriftDetector(threshold=drift_threshold)
        self._recommendation: DopplerRecommendation | None = None
        self._n_refreshes = 0
        self._state_epoch = 0
        # The window's snapshot and exact profile (or the error raised
        # profiling it) staged by refresh_many for the next refresh;
        # every ingested sample drops it.
        self._staged: tuple[PerformanceTrace, object] | None = None
        self.profile_mode = profile_mode
        self._profile_columns: tuple[tuple[int, StreamingSeriesStats], ...] = ()
        self._profile_stats: dict[PerfDimension, StreamingSeriesStats] = {}
        if profile_mode == "streaming":
            profiled = engine.profiler_for(deployment).dimensions
            self._profile_stats = {
                dim: StreamingSeriesStats(window=window)
                for dim in profiled
                if dim in dimensions
            }
            self._profile_columns = tuple(
                (dimensions.index(dim), stats)
                for dim, stats in self._profile_stats.items()
            )

    @staticmethod
    def validate_config(
        window: int,
        min_refresh_samples: int,
        profile_mode: str,
        summarizer=None,
    ) -> None:
        """Validate live-assessment parameters; the single source of truth.

        Shared between the constructor and fleet-watch configuration
        (:class:`~repro.fleet.backends.ShardAssessmentConfig`), so a
        misconfigured sharded watch fails at the call site with
        exactly the message a direct construction would raise.

        Args:
            window: Sliding assessment window, in samples.
            min_refresh_samples: Warm-up length before the first
                recommendation.
            profile_mode: ``exact`` or ``streaming``.
            summarizer: When given and ``profile_mode`` is
                ``streaming``, must advertise ``supports_streaming``.

        Raises:
            ValueError: On any violated constraint.
        """
        if min_refresh_samples < 1:
            raise ValueError(
                f"min_refresh_samples must be >= 1, got {min_refresh_samples!r}"
            )
        if profile_mode not in ("exact", "streaming"):
            raise ValueError(f"unknown profile mode {profile_mode!r}")
        if window < min_refresh_samples:
            # The warm-up gate compares against n_window, which never
            # exceeds the window: a smaller window would wait forever.
            raise ValueError(
                f"window ({window}) must be >= min_refresh_samples "
                f"({min_refresh_samples}), or no recommendation is ever issued"
            )
        if (
            profile_mode == "streaming"
            and summarizer is not None
            and not getattr(summarizer, "supports_streaming", False)
        ):
            raise ValueError(
                f"summarizer {summarizer.name!r} has no streaming "
                "evaluation; use profile_mode='exact'"
            )

    # ------------------------------------------------------------------
    # The service loop
    # ------------------------------------------------------------------
    def observe(self, sample: Mapping[PerfDimension, float]) -> LiveUpdate:
        """Ingest one sample; refresh the recommendation if it drifted.

        :meth:`ingest`, then :meth:`refresh` when one came due, then
        the update.  Per-sample cost is O(n_skus * n_dims) unless a
        refresh fires.
        """
        due, drift = self.ingest(sample)
        if due:
            self.refresh()
        return self.current_update(refreshed=due, drift=drift)

    def ingest(
        self, sample: Mapping[PerfDimension, float]
    ) -> tuple[bool, DriftReport | None]:
        """The first half of :meth:`observe`: append, vector update, drift check.

        Returns ``(due, drift)``: whether a refresh is due now, and the
        drift check that decided it (None while warming up and for the
        first assessment).  The caller runs :meth:`refresh` when one is
        due -- at once, as :meth:`observe` does, or later, as a watch
        shard does at the end of its tick (:meth:`refresh_many`), so
        long as this stream ingests nothing in between.
        """
        # The builder validates the sample once; the estimator takes
        # the parsed row directly (same dimension tuple by construction).
        row = self.builder.append(sample)
        self._staged = None
        self.estimator.update_vector(row)
        for column, stats in self._profile_columns:
            stats.update(row[column])
        if self.builder.n_window < self.min_refresh_samples:
            return False, None
        if self._recommendation is None:
            return True, None
        drift = self.detector.check_vector(self.estimator.probabilities())
        return drift.drifted, drift

    @staticmethod
    def refresh_many(recommenders: "Sequence[LiveRecommender]") -> list:
        """Refresh several streams together, with one profiling pass.

        Each recommender's :meth:`refresh` runs as it would alone,
        except that every ``exact``-mode window is snapshotted and
        profiled up front in one
        :meth:`~repro.core.engine.DopplerEngine.profile_many` call per
        engine (one ``profile_batch`` per deployment), which profiles
        byte-identically to one trace at a time.  A failure stays with
        its own stream: the result, aligned with ``recommenders``,
        holds each one's new recommendation or the exception its
        refresh raised -- a curve error still wins over a profile
        error, as in :meth:`refresh`.
        """
        by_engine: dict[int, list[tuple[LiveRecommender, PerformanceTrace]]] = {}
        for live in recommenders:
            if live.profile_mode != "exact":
                continue  # streaming mode profiles from its window stats
            try:
                trace = live.builder.snapshot()
            except Exception:  # noqa: BLE001 - its refresh raises it again
                continue
            by_engine.setdefault(id(live.engine), []).append((live, trace))
        for group in by_engine.values():
            profiles = group[0][0].engine.profile_many(
                [(live.deployment, trace) for live, trace in group]
            )
            for (live, trace), profile in zip(group, profiles):
                live._staged = (trace, profile)
        outcomes: list = []
        for live in recommenders:
            try:
                outcomes.append(live.refresh())
            except Exception as exc:  # noqa: BLE001 - stays with its own stream
                outcomes.append(exc)
        return outcomes

    def refresh(self) -> DopplerRecommendation:
        """Run the full assessment on the current window, now.

        The curve comes from the incremental estimates -- the same
        ``counts / n_window`` statistic a batch build computes, so the
        curve equals ``engine.ppm.build_curve(builder.snapshot(),
        deployment)`` point for point without re-scanning the window
        (which only happens for a non-empirical engine estimator or a
        tracked dimension outside the deployment's curve dimensions).
        Rebases drift detection on those estimates, so subsequent
        drift means "the world moved since this recommendation".  For
        MI targets the refresh first folds the planned file layout's
        GP IOPS limit into the incremental estimator whenever the
        layout changed (MI streaming parity: drift detection and the
        curve see the same capacities, at the cost of one window
        replay per layout change).  Under :meth:`refresh_many` the
        window's snapshot and exact profile (or the error profiling
        raised) come staged from the batched profiling pass.
        """
        staged, self._staged = self._staged, None
        trace, profile = staged if staged is not None else (self.builder.snapshot(), None)
        ppm = self.engine.ppm
        mi_plan = None
        if self.deployment is DeploymentType.SQL_MI:
            # Plan Step-1 storage once per refresh: the override sync
            # and the curve build below share the same plan.
            mi_plan = ppm.plan_mi_storage(trace)
            self._sync_mi_overrides(trace, mi_plan)
        probabilities = self.estimator.probabilities()
        if self._curve_from_counts:
            curve = ppm.build_curve_from_probabilities(
                trace, self.deployment, probabilities, mi_plan=mi_plan
            )
        else:
            curve = ppm.build_curve(trace, self.deployment, mi_plan=mi_plan)
        if isinstance(profile, Exception):
            raise profile
        if self.profile_mode == "streaming":
            profile = self.engine.profiler_for(self.deployment).profile_streaming(
                self._profile_stats, entity_id=self.builder.entity_id
            )
        self._recommendation = self.engine.recommend(
            trace, self.deployment, curve=curve, profile=profile
        )
        self.detector.rebase_vector(self._sku_names, probabilities)
        self._n_refreshes += 1
        return self._recommendation

    def _sync_mi_overrides(self, trace, plan) -> None:
        """Fold the current MI file layout's IOPS cap into the estimator."""
        overrides = gp_iops_overrides(self._candidates, plan)
        if overrides != (self.estimator.iops_overrides or {}):
            self.estimator.rebase_capacity(overrides or None, trace)

    # ------------------------------------------------------------------
    # Snapshot / restore (worker handoff)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> LiveAssessmentState:
        """Freeze the assessment's mutable state for handoff.

        Everything the loop has accumulated, deep-copied and
        picklable, *without* the engine (workers bring their own).
        The whole recommender object also pickles directly, but that
        ships a private copy of the engine with every customer;
        snapshot/restore is the cheap per-customer handoff.
        """
        return LiveAssessmentState(
            deployment_value=self.deployment.value,
            window=self.builder.window,
            dimensions=self.builder.dimensions,
            profile_mode=self.profile_mode,
            entity_id=self.builder.entity_id,
            builder=self.builder.state_dict(),
            estimator=self.estimator.state_dict(),
            detector=self.detector.state_dict(),
            profile_stats=tuple(
                (dim, stats.state_dict()) for dim, stats in self._profile_stats.items()
            ),
            recommendation=self._recommendation,
            n_refreshes=self._n_refreshes,
            epoch=self._state_epoch,
        )

    def restore_state(self, state: LiveAssessmentState) -> None:
        """Adopt a :meth:`snapshot_state` snapshot; the inverse operation.

        The receiving recommender must be constructed with the same
        deployment, window, dimensions and profile mode as the source
        (the snapshot carries them for verification); the engine is
        this instance's own.

        Restores are additionally *epoch-guarded* for migration
        safety: each restore leaves this recommender one epoch past
        the snapshot it adopted, so replaying a snapshot taken before
        this state's last hop (a stale handoff in a migration chain)
        is rejected instead of silently rolling the stream back.

        Raises:
            ValueError: If the snapshot's configuration does not match
                this recommender's, or the snapshot's epoch is older
                than state already restored here.
        """
        mismatches = [
            f"{label}: snapshot {theirs!r} != recommender {ours!r}"
            for label, theirs, ours in (
                ("deployment", state.deployment_value, self.deployment.value),
                ("window", state.window, self.builder.window),
                ("dimensions", state.dimensions, self.builder.dimensions),
                ("profile_mode", state.profile_mode, self.profile_mode),
            )
            if theirs != ours
        ]
        if mismatches:
            raise ValueError(
                "live state snapshot is not restorable here -- "
                + "; ".join(mismatches)
            )
        if state.epoch < self._state_epoch:
            raise ValueError(
                f"stale live state snapshot: epoch {state.epoch} precedes this "
                f"recommender's epoch {self._state_epoch}; the assessment has "
                "already moved on past that handoff"
            )
        self.builder.load_state(state.builder)
        self.builder.entity_id = state.entity_id
        self._staged = None
        # Snapshots carry no violation ring: the estimator rebuilds it
        # from the window the builder now holds, so the builder goes first.
        self.estimator.load_state(
            state.estimator, self.builder.snapshot() if self.builder.n_seen else None
        )
        self.detector.load_state(state.detector)
        if self.profile_mode == "streaming":
            snapshot_stats = dict(state.profile_stats)
            if set(snapshot_stats) != set(self._profile_stats):
                raise ValueError(
                    "live state snapshot profiles "
                    f"{sorted(dim.name for dim in snapshot_stats)}; this "
                    "recommender profiles "
                    f"{sorted(dim.name for dim in self._profile_stats)}"
                )
            for dim, stats in self._profile_stats.items():
                stats.load_state(snapshot_stats[dim])
        self._recommendation = state.recommendation
        self._n_refreshes = state.n_refreshes
        self._state_epoch = state.epoch + 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def recommendation(self) -> DopplerRecommendation | None:
        """The recommendation currently in force, if any."""
        return self._recommendation

    @property
    def n_refreshes(self) -> int:
        """Full re-assessments performed so far."""
        return self._n_refreshes

    @property
    def state_epoch(self) -> int:
        """Migration epoch: restores adopted by this recommender so far."""
        return self._state_epoch

    def current_update(self, refreshed: bool, drift: DriftReport | None) -> LiveUpdate:
        """The :class:`LiveUpdate` reporting this stream as it stands now."""
        return LiveUpdate(
            n_seen=self.builder.n_seen,
            n_window=self.builder.n_window,
            refreshed=refreshed,
            drift=drift,
            recommendation=self._recommendation,
        )


# ----------------------------------------------------------------------
# Reading array-framed (DSF1) store blobs
# ----------------------------------------------------------------------
def unflatten_state(skeleton: dict, arrays: list) -> LiveAssessmentState:
    """Rebuild a :class:`LiveAssessmentState` from a ``DSF1`` skeleton.

    Reads the array-framed store blobs that
    :func:`~repro.store.persistence.encode_state` wrote before it
    wrote plain pickles: a pickled ``(skeleton, arrays)`` pair whose
    skeleton references its numpy payloads by index.  Nothing writes
    the format any more; :func:`~repro.store.persistence.decode_state`
    calls this for the blobs stores already hold, in both the layout
    that carries the estimator's violation ring and the ring-free one.
    Every array is copied out, so the rebuilt state owns its buffers.
    """
    return LiveAssessmentState(
        deployment_value=skeleton["deployment_value"],
        window=skeleton["window"],
        dimensions=skeleton["dimensions"],
        profile_mode=skeleton["profile_mode"],
        entity_id=skeleton["entity_id"],
        builder=StreamingTraceBuilder.state_from_arrays(skeleton["builder"], arrays),
        estimator=IncrementalThrottlingEstimator.state_from_arrays(
            skeleton["estimator"], arrays
        ),
        detector=DriftDetector.state_from_arrays(skeleton["detector"], arrays),
        profile_stats=tuple(
            (dim, StreamingSeriesStats.state_from_arrays(stats_skeleton, arrays))
            for dim, stats_skeleton in skeleton["profile_stats"]
        ),
        recommendation=skeleton["recommendation"],
        n_refreshes=skeleton["n_refreshes"],
        epoch=skeleton["epoch"],
    )
