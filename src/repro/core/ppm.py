"""Price-Performance Modeler (PPM) -- paper Section 3.2 and Figure 3.

The PPM is the first of Doppler's two modules.  It takes three inputs
-- the customer's performance counters, the SKU catalog and the
billing interface (already folded into each SKU's price) -- and
produces the price-performance curve.

For SQL DB targets it evaluates the full six-dimension throttling
probability directly.  For SQL MI it first runs the two-step
storage-tier procedure: plan the premium-disk file layout from the
data size, verify the layout covers 100 % of storage and >= 95 % of
the IOPS/throughput demand (else restrict the candidate set to
Business Critical), then build the instance-level curve with the
layout's summed IOPS as the GP IOPS limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..catalog.catalog import SkuCatalog, catalog_signature
from ..catalog.models import DeploymentType, ServiceTier, SkuSpec
from ..catalog.storage import IOPS_THROUGHPUT_COVERAGE, FileLayout, plan_file_layout
from ..telemetry.counters import DB_DIMENSIONS, MI_DIMENSIONS, PerfDimension
from ..telemetry.trace import PerformanceTrace
from .curve import PricePerformanceCurve, intern_candidates
from .throttling import (
    EmpiricalThrottlingEstimator,
    ThrottlingEstimator,
    _CapacityLevels,
    capacity_matrix,
    demand_matrix,
)

__all__ = ["PricePerformanceModeler", "MiStoragePlan", "gp_iops_overrides"]


def gp_iops_overrides(
    skus: Sequence[SkuSpec], plan: "MiStoragePlan"
) -> dict[str, float]:
    """Step-2 IOPS overrides: GP SKUs inherit the layout's summed limit.

    The MI override policy (paper Section 3.2 Step 2) keyed by SKU
    name, the form the live recommender's incremental estimator keeps
    in its state.  Curve builders apply the same rule as a column
    write over the GP-tier rows
    (:meth:`_DeploymentCurveState.caps_with_gp_iops`), and the
    columnar batch as the kernel's per-trace threshold row
    (:meth:`_DeploymentCurveState.levels_for`); the parity contract
    requires all three to see identical capacities.
    """
    return {
        sku.name: plan.layout.total_iops
        for sku in skus
        if sku.tier is ServiceTier.GENERAL_PURPOSE
    }


def _no_storage_fit_message(footprint: float) -> str:
    """Shared error text for the storage-fit failure.

    One definition for the serial and columnar paths: fleet error
    results embed this string, and the determinism contract requires
    both paths to produce identical bytes.
    """
    return f"no candidate SKU can hold {footprint:.0f} GB of data"


class _DeploymentCurveState:
    """Precomputed per-deployment inputs of every curve builder.

    Built once per modeler and deployment: the candidate SKUs in
    catalog (price) order plus the vectorized per-SKU attributes the
    builders share -- storage limits for the per-customer fit mask,
    the tier masks for MI IOPS overrides and the Business-Critical
    restriction, and memos of capacity matrices and of the violation
    kernel's capacity levels per dimension tuple.

    Args:
        skus: The deployment's candidates in catalog (price) order.
        step2_gp_iops: Whether GP SKUs inherit the customer's Step-2
            file-layout IOPS limit (SQL MI) instead of their catalog
            IOPS.
    """

    def __init__(self, skus: Sequence[SkuSpec], step2_gp_iops: bool = False) -> None:
        self.skus: tuple[SkuSpec, ...] = tuple(skus)
        self.step2_gp_iops = step2_gp_iops
        self.monthly_prices = np.array([sku.monthly_price for sku in self.skus])
        self.max_data_size_gb = np.array(
            [sku.limits.max_data_size_gb for sku in self.skus]
        )
        self.gp_mask = np.array(
            [sku.tier is ServiceTier.GENERAL_PURPOSE for sku in self.skus]
        )
        self.bc_mask = np.array(
            [sku.tier is ServiceTier.BUSINESS_CRITICAL for sku in self.skus]
        )
        self._caps_by_dims: dict[tuple[PerfDimension, ...], np.ndarray] = {}
        self._levels_by_dims: dict[tuple[PerfDimension, ...], _CapacityLevels] = {}

    def caps_for(self, dimensions: tuple[PerfDimension, ...]) -> np.ndarray:
        """Capacity matrix over all candidates, memoized per dim tuple.

        The one place a capacity matrix is built from the catalog:
        every curve build, live estimator and restore reads this memo.
        """
        caps = self._caps_by_dims.get(dimensions)
        if caps is None:
            caps = capacity_matrix(list(self.skus), dimensions)
            caps.flags.writeable = False
            self._caps_by_dims[dimensions] = caps
        return caps

    def caps_with_gp_iops(
        self, dimensions: tuple[PerfDimension, ...], gp_iops: float | None
    ) -> np.ndarray:
        """:meth:`caps_for` with the MI Step-2 GP IOPS limit applied.

        The override is a column write on a copy of the memoized
        matrix (paper Section 3.2 Step 2: GP SKUs inherit the planned
        file layout's summed IOPS); ``None`` means no override.
        """
        caps = self.caps_for(dimensions)
        if gp_iops is None or PerfDimension.IOPS not in dimensions:
            return caps
        caps = caps.copy()
        caps[self.gp_mask, dimensions.index(PerfDimension.IOPS)] = float(gp_iops)
        return caps

    def levels_for(self, dimensions: tuple[PerfDimension, ...]) -> _CapacityLevels:
        """The violation kernel's levels over :meth:`caps_for`, memoized.

        Built once per dimension tuple, so no columnar chunk re-sorts
        the catalog's capacities.  For SQL MI with an IOPS column the
        GP SKUs' IOPS capacity is the levels' threshold row: each
        customer's kernel call passes its Step-2 limit
        (``plan.layout.total_iops``) as its threshold, and the counts
        equal those over :meth:`caps_with_gp_iops` with that limit.
        """
        levels = self._levels_by_dims.get(dimensions)
        if levels is None:
            caps = self.caps_for(dimensions)
            if self.step2_gp_iops and PerfDimension.IOPS in dimensions:
                levels = _CapacityLevels(
                    caps, self.gp_mask, dimensions.index(PerfDimension.IOPS)
                )
            else:
                levels = _CapacityLevels(caps)
            self._levels_by_dims[dimensions] = levels
        return levels


#: Quantile summarizing the IOPS/throughput demand checked in Step 1.
_STEP1_DEMAND_QUANTILE = 0.99

#: Assumed IO transfer size for converting IOPS into MiB/s when the
#: workload trace has no native throughput counter (8 KiB SQL pages).
_IO_TRANSFER_KIB = 8.0


@dataclass(frozen=True)
class MiStoragePlan:
    """Outcome of the MI Step-1 storage-tier determination.

    Attributes:
        layout: The planned premium-disk file layout.
        gp_allowed: Whether GP SKUs stay in the candidate set (the
            layout covered >= 95 % of IOPS and throughput demand).
        required_iops: IOPS demand checked against the layout.
        required_throughput_mibps: Throughput demand checked.
    """

    layout: FileLayout
    gp_allowed: bool
    required_iops: float
    required_throughput_mibps: float


@dataclass(frozen=True)
class PricePerformanceModeler:
    """Builds price-performance curves from counters and a catalog.

    Each deployment's candidate tuple is interned under the content
    key (catalog signature, deployment) when the modeler is built and
    when it is unpickled, so the curves it builds pickle their
    candidates by reference and any process holding a modeler over
    the same catalog -- fork or spawn workers, a resume -- resolves
    them (:class:`~repro.core.curve.PricePerformanceCurve`).

    Attributes:
        catalog: All candidate SKUs (both deployments; filtered per
            call).
        estimator: Joint throttling-probability estimator; defaults to
            the paper's non-parametric production estimator.
    """

    catalog: SkuCatalog
    estimator: ThrottlingEstimator = field(default_factory=EmpiricalThrottlingEstimator)

    def __post_init__(self) -> None:
        self._intern_candidates()

    def _intern_candidates(self) -> None:
        """Intern every deployment's candidate tuple under its content key."""
        signature = catalog_signature(self.catalog)
        object.__setattr__(self, "_signature", signature)
        object.__setattr__(
            self,
            "_candidates",
            {
                deployment: intern_candidates(
                    (signature, deployment.value),
                    self.catalog.for_deployment(deployment).skus,
                )
                for deployment in DeploymentType
            },
        )

    @property
    def catalog_signature(self) -> str:
        """:func:`~repro.catalog.catalog_signature` of :attr:`catalog`."""
        return self._signature

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def build_curve(
        self,
        trace: PerformanceTrace,
        deployment: DeploymentType,
        file_sizes_gib: list[float] | None = None,
        mi_plan: "MiStoragePlan | None" = None,
    ) -> PricePerformanceCurve:
        """Produce the price-performance curve for one workload.

        Args:
            trace: Customer performance history.  DB curves use up to
                six dimensions, MI curves four (paper Section 3.2);
                dimensions absent from the trace are skipped.
            deployment: Target deployment type.
            file_sizes_gib: Explicit MI data-file sizes; default is a
                single file holding the observed data size.
            mi_plan: Optional precomputed Step-1 storage plan for this
                exact trace/file layout (callers that already planned
                -- e.g. the live recommender's MI override sync --
                pass it to avoid planning twice).  Ignored for DB.

        Returns:
            The monotone price-performance curve over every catalog
            SKU of the deployment that can hold the data.

        Raises:
            ValueError: If no SKU can accommodate the workload's
                storage footprint.
        """
        dims = self._curve_dimensions(trace, deployment)
        plan = None
        if deployment is DeploymentType.SQL_MI:
            plan = mi_plan if mi_plan is not None else self.plan_mi_storage(trace, file_sizes_gib)
        state = self._deployment_state(deployment)
        gp_iops = plan.layout.total_iops if plan is not None else None
        if isinstance(self.estimator, EmpiricalThrottlingEstimator):
            # Count every candidate over the deployment's memoized
            # kernel levels, as the columnar batch does, then keep the
            # fitted ones: per-SKU counts do not depend on the subset.
            def probabilities_of(fitted: np.ndarray) -> np.ndarray:
                return self.estimator.probabilities_batch_from_caps(
                    [demand_matrix(trace, dims)],
                    state.levels_for(dims),
                    None if gp_iops is None else [gp_iops],
                )[0][fitted]

        else:
            caps = state.caps_with_gp_iops(dims, gp_iops)

            def probabilities_of(fitted: np.ndarray) -> np.ndarray:
                return self.estimator.probabilities_from_caps(
                    demand_matrix(trace, dims), caps[fitted]
                )

        return self._fitted_curve(state, trace, plan, probabilities_of)

    def build_curve_from_probabilities(
        self,
        trace: PerformanceTrace,
        deployment: DeploymentType,
        probabilities: np.ndarray,
        mi_plan: "MiStoragePlan | None" = None,
    ) -> PricePerformanceCurve:
        """The curve of a trace whose probabilities are already known.

        The live refresh path: an incremental estimator over the
        deployment's :meth:`candidates` holds every candidate's
        throttling probability for the current window, so only the
        storage fit, the MI tier restriction and curve assembly remain
        -- exactly the steps :meth:`build_curve` runs after its
        estimate, so both return the same curve for the same
        probabilities.

        Args:
            trace: The assessed window (storage footprint, entity id,
                and the MI Step-1 plan when ``mi_plan`` is omitted).
            deployment: Target deployment type.
            probabilities: Throttling probability per candidate,
                aligned with :meth:`candidates`.
            mi_plan: Optional precomputed Step-1 plan for ``trace``.

        Raises:
            ValueError: If no SKU can accommodate the workload's
                storage footprint.
        """
        plan = None
        if deployment is DeploymentType.SQL_MI:
            plan = mi_plan if mi_plan is not None else self.plan_mi_storage(trace)
        return self._fitted_curve(
            self._deployment_state(deployment),
            trace,
            plan,
            lambda fitted: probabilities[fitted],
        )

    def build_curves_from_probabilities(
        self,
        traces: Sequence[PerformanceTrace],
        deployment: DeploymentType,
        probabilities: np.ndarray,
        mi_plans: "Sequence[MiStoragePlan | None]",
    ) -> list[PricePerformanceCurve | Exception]:
        """:meth:`build_curve_from_probabilities` for many windows in one pass.

        The live refresh path: row ``i`` of the
        ``(n_traces, n_candidates)`` ``probabilities`` holds every
        candidate's probability for ``traces[i]`` -- its window counts
        over the window length, so each lies in ``[0, 1]``.  The
        storage fit is one mask over the block, the assembly one
        masked running max
        (:meth:`~repro.core.curve.PricePerformanceCurve.from_price_ordered_rows`),
        and each curve takes its own row's slices, so every curve
        equals the one :meth:`build_curve_from_probabilities` builds
        for its trace from the same probabilities.

        Args:
            traces: The assessed windows.
            deployment: Target deployment type, shared by the block.
            probabilities: Throttling probability per trace and
                candidate, aligned with :meth:`candidates`.
            mi_plans: The Step-1 plan of each trace (None outside
                SQL MI).

        Returns:
            One entry per trace: its curve, or the ``ValueError``
            :meth:`build_curve_from_probabilities` raises for it.
        """
        state = self._deployment_state(deployment)
        footprints = [self._storage_footprint(trace) for trace in traces]
        mask = state.max_data_size_gb >= np.array(footprints, dtype=float)[:, None]
        results: list = [None] * len(traces)
        fitted: list[int] = []
        for index, (footprint, plan) in enumerate(zip(footprints, mi_plans)):
            try:
                self._restrict_fit(state, mask[index], footprint, plan)
            except ValueError as exc:
                results[index] = exc
                continue
            fitted.append(index)
        if fitted:
            rows = slice(None) if len(fitted) == len(traces) else fitted
            curves = PricePerformanceCurve.from_price_ordered_rows(
                state.skus,
                state.monthly_prices,
                probabilities[rows],
                mask[rows],
                [traces[index].entity_id for index in fitted],
            )
            for index, curve in zip(fitted, curves):
                results[index] = curve
        return results

    def build_curves_batch(
        self,
        traces: Sequence[PerformanceTrace],
        deployment: DeploymentType,
        file_sizes_gib: Sequence[Sequence[float] | None] | None = None,
    ) -> list[PricePerformanceCurve | Exception]:
        """Columnar batch counterpart of :meth:`build_curve`.

        Evaluates a whole fleet shard as stacked NumPy operations: the
        per-deployment capacity matrix and the kernel's capacity
        levels are built once per dimension tuple (memoized on the
        modeler), customers are grouped by their evaluated dimension
        tuple alone, each group's demand rows flow through one call
        of the bitset violation kernel (for MI, each customer's
        planned file-layout IOPS limit rides along as its GP SKUs'
        threshold, :meth:`_DeploymentCurveState.levels_for`), and the
        per-customer storage fit reduces to a vectorized mask over
        precomputed SKU storage limits.

        The results are byte-identical to calling :meth:`build_curve`
        per trace -- same probabilities (per-SKU estimates are
        independent of the candidate subset), same candidate order
        (catalog price order), same error types and messages in the
        same precedence.  Estimators without a columnar kernel (KDE,
        copula) transparently fall back to the serial path per trace.

        Args:
            traces: One trace per customer.
            deployment: Target deployment type, shared by the batch.
            file_sizes_gib: Optional per-customer MI file layouts,
                aligned with ``traces``.

        Returns:
            One entry per trace, aligned with the input: the built
            curve, or the exception :meth:`build_curve` would have
            raised for that trace (exceptions are returned, not
            raised, so one pathological customer cannot abort a fleet
            shard).
        """
        n_traces = len(traces)
        sizes_per_trace: Sequence[Sequence[float] | None]
        if file_sizes_gib is None:
            sizes_per_trace = [None] * n_traces
        elif len(file_sizes_gib) != n_traces:
            raise ValueError(
                f"expected {n_traces} file-size entries, got {len(file_sizes_gib)}"
            )
        else:
            sizes_per_trace = file_sizes_gib

        if not isinstance(self.estimator, EmpiricalThrottlingEstimator):
            return [
                self._build_one_guarded(trace, deployment, sizes)
                for trace, sizes in zip(traces, sizes_per_trace)
            ]

        results: list[PricePerformanceCurve | Exception | None] = [None] * n_traces
        state = self._deployment_state(deployment)
        plans: list[MiStoragePlan | None] = [None] * n_traces
        is_mi = deployment is DeploymentType.SQL_MI
        io_demands = self._io_demands(traces) if is_mi else []
        groups: dict[tuple[PerfDimension, ...], list[int]] = {}
        for index, trace in enumerate(traces):
            try:
                dims = self._curve_dimensions(trace, deployment)
                if is_mi:
                    sizes = sizes_per_trace[index]
                    plans[index] = self._storage_plan(
                        trace, list(sizes) if sizes else None, io_demands[index]
                    )
                groups.setdefault(dims, []).append(index)
            except Exception as exc:  # noqa: BLE001 - per-customer containment
                results[index] = exc

        for dims, indices in groups.items():
            thresholds = None
            if is_mi:
                thresholds = [plans[i].layout.total_iops for i in indices]
            probabilities = self.estimator.probabilities_batch_from_caps(
                [traces[i].demand_matrix(dims) for i in indices],
                state.levels_for(dims),
                thresholds,
            )
            for row, index in zip(probabilities, indices):
                try:
                    results[index] = self._fitted_curve(
                        state, traces[index], plans[index], row.__getitem__
                    )
                except Exception as exc:  # noqa: BLE001 - per-customer containment
                    results[index] = exc
        return results  # type: ignore[return-value]

    def _build_one_guarded(
        self,
        trace: PerformanceTrace,
        deployment: DeploymentType,
        sizes: Sequence[float] | None,
    ) -> PricePerformanceCurve | Exception:
        try:
            return self.build_curve(
                trace, deployment, file_sizes_gib=list(sizes) if sizes else None
            )
        except Exception as exc:  # noqa: BLE001 - per-customer containment
            return exc

    # ------------------------------------------------------------------
    # Candidate and capacity accessors
    # ------------------------------------------------------------------
    def candidates(self, deployment: DeploymentType) -> tuple[SkuSpec, ...]:
        """The deployment's candidate SKUs in catalog (price) order.

        The row order of :meth:`capacity_matrix_for` and of the
        probabilities :meth:`build_curve_from_probabilities` takes.
        """
        return self._deployment_state(deployment).skus

    def capacity_matrix_for(
        self, deployment: DeploymentType, dimensions: tuple[PerfDimension, ...]
    ) -> np.ndarray:
        """The memoized candidate capacity matrix for a dimension tuple.

        Public accessor over the columnar state's memo (read-only, no
        IOPS overrides), used by live estimators as their base
        capacities.
        """
        return self._deployment_state(deployment).caps_for(dimensions)

    def _deployment_state(self, deployment: DeploymentType) -> _DeploymentCurveState:
        """Columnar candidate state, memoized per deployment.

        Lazily attached to the (frozen) modeler; dropped on pickling
        so worker processes rebuild it locally instead of shipping
        redundant capacity matrices and levels.
        """
        cache = self.__dict__.get("_columnar_state")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_columnar_state", cache)
        state = cache.get(deployment)
        if state is None:
            state = _DeploymentCurveState(
                self._candidates[deployment], deployment is DeploymentType.SQL_MI
            )
            cache[deployment] = state
        return state

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for derived in ("_columnar_state", "_candidates", "_signature"):
            state.pop(derived, None)
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self._intern_candidates()

    def plan_mi_storage(
        self,
        trace: PerformanceTrace,
        file_sizes_gib: list[float] | None = None,
    ) -> MiStoragePlan:
        """Run MI Step 1: storage-tier planning and the 95 % filter."""
        return self._storage_plan(trace, file_sizes_gib, self._io_demands([trace])[0])

    def _storage_plan(
        self,
        trace: PerformanceTrace,
        file_sizes_gib: list[float] | None,
        io_demand: tuple[float, float],
    ) -> MiStoragePlan:
        """Step 1 given the trace's ``(IOPS, MiB/s)`` demand (:meth:`_io_demands`)."""
        data_size = self._storage_footprint(trace)
        sizes = file_sizes_gib if file_sizes_gib else [data_size]
        layout = plan_file_layout(sizes)
        required_iops, required_throughput = io_demand
        gp_allowed = layout.covers(
            required_iops, required_throughput, coverage=IOPS_THROUGHPUT_COVERAGE
        )
        return MiStoragePlan(
            layout=layout,
            gp_allowed=gp_allowed,
            required_iops=required_iops,
            required_throughput_mibps=required_throughput,
        )

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _curve_dimensions(
        trace: PerformanceTrace, deployment: DeploymentType
    ) -> tuple[PerfDimension, ...]:
        """The deployment's curve dimensions present in the trace.

        DB curves use up to six dimensions, MI curves four (paper
        Section 3.2).
        """
        base = DB_DIMENSIONS if deployment is DeploymentType.SQL_DB else MI_DIMENSIONS
        dims = tuple(dim for dim in base if dim in trace)
        if not dims:
            raise ValueError(
                f"trace has none of the {deployment.short_name} performance dimensions"
            )
        return dims

    def _fitted_curve(
        self,
        state: _DeploymentCurveState,
        trace: PerformanceTrace,
        plan: MiStoragePlan | None,
        probabilities_of: Callable[[np.ndarray], np.ndarray],
    ) -> PricePerformanceCurve:
        """Fit the candidates to the trace, then assemble its curve.

        The one assembly path of every curve builder (single trace,
        columnar batch, live refresh): keep the candidates that hold
        the data at 100 % (storage is never negotiable), restrict MI to
        Business Critical when the Step-1 layout misses the IOPS
        coverage, and assemble the survivors -- already in catalog
        (price) order -- with the probabilities ``probabilities_of``
        returns for their candidate indices.
        """
        footprint = self._storage_footprint(trace)
        mask = state.max_data_size_gb >= footprint
        self._restrict_fit(state, mask, footprint, plan)
        fitted = np.flatnonzero(mask)
        return PricePerformanceCurve.from_price_ordered(
            state.skus,
            state.monthly_prices,
            probabilities_of(fitted),
            entity_id=trace.entity_id,
            index=fitted,
        )

    @staticmethod
    def _restrict_fit(
        state: _DeploymentCurveState,
        mask: np.ndarray,
        footprint: float,
        plan: MiStoragePlan | None,
    ) -> None:
        """Narrow a storage-fit mask to the candidates a curve may hold.

        ``mask`` (``max_data_size_gb >= footprint``, written in place)
        loses the non-Business-Critical SKUs when the MI Step-1 layout
        misses the IOPS coverage.

        Raises:
            ValueError: If no candidate holds the data, or none of the
                Business Critical ones does.
        """
        if not mask.any():
            raise ValueError(_no_storage_fit_message(footprint))
        if plan is not None and not plan.gp_allowed:
            mask &= state.bc_mask
            if not mask.any():
                raise ValueError("no MI SKU satisfies the storage requirement")

    @staticmethod
    def _storage_footprint(trace: PerformanceTrace) -> float:
        if PerfDimension.STORAGE in trace:
            return trace[PerfDimension.STORAGE].max()
        return 1.0

    @staticmethod
    def _io_demands(traces: Sequence[PerformanceTrace]) -> list[tuple[float, float]]:
        """(IOPS, MiB/s) demand per trace, summarized at a high quantile.

        The IOPS series of equally long traces stack into one matrix
        and take one quantile call per length: each row's quantile is
        the one the row alone gets, bit for bit (the same partition
        and interpolation per row).  A trace without IOPS demands
        nothing.
        """
        demands = [(0.0, 0.0)] * len(traces)
        by_length: dict[int, list[int]] = {}
        for index, trace in enumerate(traces):
            if PerfDimension.IOPS in trace:
                by_length.setdefault(trace.n_samples, []).append(index)
        for indices in by_length.values():
            stacked = np.stack([traces[i][PerfDimension.IOPS].values for i in indices])
            quantiles = np.quantile(stacked, _STEP1_DEMAND_QUANTILE, axis=1)
            for index, iops in zip(indices, quantiles.tolist()):
                demands[index] = (iops, iops * _IO_TRANSFER_KIB / 1024.0)
        return demands
