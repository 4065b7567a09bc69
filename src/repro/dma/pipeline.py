"""SKU Recommendation Pipeline: the DMA-facing orchestration layer.

The third module the paper built for DMA integration (Section 4):
"runs the Doppler Engine to build customized price-performance curves
and recommend the optimal SKU based on customer usage profiling.
This pipeline depends on the performance counter input, the customer
profiling results and relevant SKUs from the data preprocessing
module."

:class:`AssessmentPipeline` glues preprocessing, the engine and the
dashboard together and also exposes the baseline strategy side-by-side
(the DMA recommendation engine ships both, Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from typing import Iterable, Iterator, Mapping

from ..catalog.catalog import SkuCatalog
from ..catalog.models import DeploymentType, SkuSpec
from ..core.baseline import BaselineStrategy
from ..core.engine import DopplerEngine
from ..core.types import DopplerRecommendation
from ..fleet.engine import (
    FleetBackend,
    FleetCustomer,
    FleetEngine,
    FleetLiveUpdate,
    FleetRecommendation,
    FleetSample,
    WatchConfig,
)
from ..fleet.report import FleetSummary, summarize_fleet
from ..streaming.live import LiveRecommender, LiveUpdate
from ..telemetry.counters import PerfDimension
from ..telemetry.streaming import DEFAULT_STREAM_WINDOW
from ..telemetry.timeseries import DEFAULT_SAMPLE_INTERVAL_MINUTES
from ..telemetry.trace import PerformanceTrace
from .dashboard import render_dashboard
from .preprocess import DataPreprocessor, PreprocessReport

__all__ = [
    "AssessmentResult",
    "AssessmentPipeline",
    "FleetAssessmentResult",
]


def _short_window_warning(window_days: float) -> str:
    """The reliability warning both assessment paths attach."""
    return (
        f"WARNING: only {window_days:.1f} days of data; "
        "collect at least 7 days for a reliable recommendation"
    )


@dataclass(frozen=True)
class AssessmentResult:
    """Everything one DMA assessment produces.

    Attributes:
        preprocess: Preprocessing report (window validation, cleanup).
        doppler: The elastic-strategy recommendation.
        baseline_sku: The naive baseline's pick, or None when it fails
            (its documented failure mode).
        dashboard: Rendered resource-use dashboard text.
    """

    preprocess: PreprocessReport
    doppler: DopplerRecommendation
    baseline_sku: SkuSpec | None
    dashboard: str

    @property
    def strategies_agree(self) -> bool:
        return (
            self.baseline_sku is not None
            and self.baseline_sku.name == self.doppler.sku.name
        )


@dataclass(frozen=True)
class FleetAssessmentResult:
    """Outcome of one fleet-stage run of the DMA pipeline.

    Attributes:
        summary: Campaign-level aggregate (per-tier counts,
            over-provisioning rate, projected cost).
        results: Per-customer outcomes, in submission order.
            Recommendations for short-window customers carry the same
            reliability WARNING note the single-customer path adds.
        short_window_ids: Customers whose preprocessed window fell
            short of the 7-day reliability guideline.
    """

    summary: FleetSummary
    results: tuple[FleetRecommendation, ...]
    short_window_ids: tuple[str, ...] = ()

    @property
    def n_window_insufficient(self) -> int:
        return len(self.short_window_ids)

    def render(self) -> str:
        lines = [self.summary.render()]
        if self.n_window_insufficient:
            lines.append(
                f"Short assessment windows (< 7 days): {self.n_window_insufficient}"
            )
        return "\n".join(lines)


@dataclass
class AssessmentPipeline:
    """End-to-end DMA assessment: raw counters in, recommendation out.

    Attributes:
        engine: The Doppler engine (fit it with migrated-customer data
            before use for profile-matched selections).
        preprocessor: Raw-counter preprocessing stage.
        baseline: The legacy baseline strategy, run alongside Doppler.
    """

    engine: DopplerEngine
    preprocessor: DataPreprocessor = field(default_factory=DataPreprocessor)
    baseline: BaselineStrategy = field(default_factory=BaselineStrategy)

    @classmethod
    def with_default_catalog(cls) -> "AssessmentPipeline":
        """Pipeline over the generated default SKU catalog (cold start)."""
        return cls(engine=DopplerEngine(catalog=SkuCatalog.default()))

    @property
    def catalog(self) -> SkuCatalog:
        return self.engine.catalog

    def assess(
        self,
        raw_traces: list[PerformanceTrace],
        deployment: DeploymentType,
        entity_id: str = "assessment",
        file_sizes_gib: list[float] | None = None,
        with_confidence: bool = False,
        rng: int | np.random.Generator | None = None,
    ) -> AssessmentResult:
        """Run one full assessment.

        Args:
            raw_traces: Collector output (file/database level; a
                single trace is used as-is).
            deployment: Target deployment type.
            entity_id: Name of the assessed entity.
            file_sizes_gib: Optional explicit MI file layout.
            with_confidence: Also compute the bootstrap confidence.
            rng: Seed or generator for the bootstrap.
        """
        report = self.preprocessor.preprocess(raw_traces, entity_id=entity_id)
        recommendation = self.engine.recommend(
            report.trace,
            deployment,
            file_sizes_gib=file_sizes_gib,
            with_confidence=with_confidence,
            rng=rng,
        )
        if not report.window_sufficient:
            recommendation = replace(
                recommendation,
                notes=recommendation.notes
                + (_short_window_warning(report.window_days),),
            )
        baseline_sku = self.baseline.recommend(report.trace, deployment, self.catalog)
        dashboard = render_dashboard(report.trace, recommendation)
        return AssessmentResult(
            preprocess=report,
            doppler=recommendation,
            baseline_sku=baseline_sku,
            dashboard=dashboard,
        )

    def assess_fleet(
        self,
        customers: Iterable[FleetCustomer],
        backend: FleetBackend = "serial",
        max_workers: int | None = None,
        chunk_size: int | None = None,
    ) -> FleetAssessmentResult:
        """Run the fleet stage: preprocess and assess a population.

        Each customer's raw trace goes through the standard
        preprocessing module, then the whole cleaned population runs
        through one batched :class:`~repro.fleet.engine.FleetEngine`
        pass over this pipeline's engine.

        Args:
            customers: The fleet to assess (any iterable; consumed
                lazily through the preprocessing step).
            backend: Fleet execution backend; ``serial`` by default so
                DMA-embedded runs stay single-process unless asked.
            max_workers: Pool size for parallel backends.
            chunk_size: Customers per shard (automatic when omitted).
        """
        short_windows: dict[str, float] = {}

        def preprocessed() -> Iterable[FleetCustomer]:
            for customer in customers:
                report = self.preprocessor.preprocess(
                    [customer.trace], entity_id=customer.customer_id
                )
                if not report.window_sufficient:
                    short_windows[customer.customer_id] = report.window_days
                yield FleetCustomer(
                    customer_id=customer.customer_id,
                    trace=report.trace,
                    deployment=customer.deployment,
                    file_sizes_gib=customer.file_sizes_gib,
                    current_sku_name=customer.current_sku_name,
                )

        fleet_engine = FleetEngine(
            engine=self.engine,
            backend=backend,
            max_workers=max_workers,
            chunk_size=chunk_size,
        )
        raw_results = tuple(fleet_engine.recommend_fleet(preprocessed()))
        results = tuple(
            self._flag_short_window(result, short_windows) for result in raw_results
        )
        return FleetAssessmentResult(
            summary=summarize_fleet(results),
            results=results,
            short_window_ids=tuple(short_windows),
        )

    def live_recommender(
        self,
        deployment: DeploymentType,
        entity_id: str = "stream",
        window: int = DEFAULT_STREAM_WINDOW,
        interval_minutes: float = DEFAULT_SAMPLE_INTERVAL_MINUTES,
        **kwargs,
    ) -> LiveRecommender:
        """A live assessment loop bound to this pipeline's engine.

        The streaming stage of the DMA pipeline: where :meth:`assess`
        takes a complete collector output, the returned recommender
        ingests one counter sample at a time and re-assesses only on
        drift.  Extra keyword arguments pass through to
        :class:`~repro.streaming.live.LiveRecommender` (drift
        threshold, warm-up length, dimensions, profile mode).
        """
        return LiveRecommender(
            self.engine,
            deployment,
            window=window,
            interval_minutes=interval_minutes,
            entity_id=entity_id,
            **kwargs,
        )

    def watch(
        self,
        samples: Iterable[Mapping[PerfDimension, float]],
        deployment: DeploymentType,
        entity_id: str = "stream",
        **kwargs,
    ) -> Iterator[LiveUpdate]:
        """Stream one entity's telemetry; yield each refreshed verdict.

        Convenience generator over :meth:`live_recommender`: feeds the
        sample stream through a live assessment and yields an update
        whenever the recommendation refreshes.  Note the raw-counter
        preprocessing module does not apply sample-wise -- gap repair
        presumes a complete window -- so the feed is ingested as-is.
        """
        recommender = self.live_recommender(deployment, entity_id=entity_id, **kwargs)
        for sample in samples:
            update = recommender.observe(sample)
            if update.refreshed:
                yield update

    def watch_fleet(
        self,
        samples: Iterable[FleetSample],
        config: WatchConfig | None = None,
        *,
        resume_from=None,
        **retired_kwargs,
    ) -> Iterator[FleetLiveUpdate]:
        """Fleet-wide streaming stage: one feed, thousands of customers.

        The streaming counterpart of :meth:`assess_fleet`: interleaved
        :class:`~repro.fleet.engine.FleetSample` events fan out over
        the selected execution backend with sticky per-customer
        routing over the consistent-hash shard ring, and refresh
        events stream back in feed order.  The whole watch surface
        (window, drift threshold, warm-up length, ``refreshes_only``,
        ``profile_mode``, backend selection, the elastic
        ``rebalance`` / ``on_rebalance`` / ``tick_samples`` knobs, and
        durable checkpointing) rides in one
        :class:`~repro.fleet.config.WatchConfig`.

        Args:
            samples: The fleet-wide telemetry feed, in arrival order.
            config: Watch parameters; with ``config.backend`` unset
                the watch runs ``serial`` so DMA-embedded runs stay
                single-process unless asked (same policy as
                :meth:`assess_fleet`).
            resume_from: A :class:`~repro.store.FleetStore` holding a
                checkpoint to resume from.
        """
        if retired_kwargs:
            raise TypeError(
                "watch_fleet() got unexpected keyword arguments: "
                + ", ".join(repr(name) for name in sorted(retired_kwargs))
                + "; the legacy per-watch keyword form has been removed -- "
                "pass config=WatchConfig(...) instead"
            )
        config = FleetEngine._validate_watch_config(config)
        fleet_engine = FleetEngine(
            engine=self.engine,
            backend=config.backend if config.backend is not None else "serial",
            max_workers=config.max_workers,
        )
        return fleet_engine.watch_fleet(samples, config=config, resume_from=resume_from)

    @staticmethod
    def _flag_short_window(
        result: FleetRecommendation, short_windows: dict[str, float]
    ) -> FleetRecommendation:
        """Annotate a short-window customer's recommendation.

        Attaches the same reliability WARNING (including the measured
        window length) the single-customer :meth:`assess` path uses,
        so per-customer fleet results remain individually trustworthy.
        """
        if result.customer_id not in short_windows or result.recommendation is None:
            return result
        recommendation = replace(
            result.recommendation,
            notes=result.recommendation.notes
            + (_short_window_warning(short_windows[result.customer_id]),),
        )
        return replace(result, recommendation=recommendation)
