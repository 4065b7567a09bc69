"""The columnar tick against an oracle that shares none of its code.

``_WatchShard.process`` folds each tick across its customers as arrays
(one block ingest per wave, one curve pass per wave's refreshes), and
a one-sample wave takes the same one-row ingest as
``LiveRecommender.observe``, so ``observe`` can no longer serve as the
reference.  The oracle here
re-derives every sample's outcome from the window alone: the drift is
:meth:`~repro.streaming.drift.DriftDetector.check_vector` over the
batch :class:`~repro.core.throttling.EmpiricalThrottlingEstimator`
probabilities of the window, a refresh is
``engine.recommend(window, deployment)``, and a faulty sample fails
with :func:`~repro.telemetry.streaming.parse_sample`'s error.  Hypothesis
draws DB and MI feeds with non-finite values, missing dimensions,
windows shorter than a tick and data growth that moves the MI file
layout mid-tick, and each feed runs at tick sizes 1, 7 and 64.

Ingest has two paths -- the block primitives of a wave and the one-row
ones of a lone sample -- so each block primitive is also checked
directly against its row twin.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.catalog import DeploymentType
from repro.core.curve import PricePerformanceCurve
from repro.core.incremental import IncrementalThrottlingEstimator
from repro.core.ppm import gp_iops_overrides
from repro.core.throttling import EmpiricalThrottlingEstimator, apply_iops_overrides
from repro.fleet import FleetSample
from repro.fleet.backends import ShardAssessmentConfig, _WatchShard
from repro.store import CustomerStateRecord
from repro.streaming import LiveRecommender
from repro.streaming.drift import DEFAULT_DRIFT_THRESHOLD, DriftDetector
from repro.telemetry import PerfDimension
from repro.telemetry.counters import DB_DIMENSIONS, MI_DIMENSIONS
from repro.telemetry.streaming import StreamingTraceBuilder, parse_sample, parse_samples

from .test_tick_refresh import db_sample, fitted_engine, mi_sample, update_line

DB = DeploymentType.SQL_DB
MI = DeploymentType.SQL_MI

#: MI customers that track their data size join from restored state
#: (a watch builds new customers over the curve dimensions only).
MI_WITH_STORAGE = MI_DIMENSIONS + (PerfDimension.STORAGE,)
KINDS = {
    "db": (DB, DB_DIMENSIONS),
    "mi": (MI, MI_DIMENSIONS),
    "mi-storage": (MI, MI_WITH_STORAGE),
}

#: One-sample ticks (the serving shape), ticks that split a customer's
#: samples unevenly, and the default tick (longer than any window here).
TICK_SIZES = (1, 7, 64)


@st.composite
def fault(draw, n_samples: int, n_dims: int):
    """Nothing, or one faulty sample: non-finite, missing, or both."""
    kinds = [None, "nan", "inf", "missing", "nan-then-missing", "missing-then-nan"]
    kind = draw(st.sampled_from(kinds))
    if kind is None:
        return None
    first = draw(st.integers(0, n_dims - 2))
    second = draw(st.integers(first + 1, n_dims - 1))
    return draw(st.integers(0, n_samples - 1)), kind, first, second


@st.composite
def feeds(draw):
    """``(window, min_refresh, streams, merge order)`` of a small fleet."""
    window = draw(st.integers(3, 12))
    min_refresh = draw(st.integers(1, window))
    streams = []
    for index in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(sorted(KINDS)))
        dims = KINDS[kind][1]
        n_samples = draw(st.integers(1, 24))
        streams.append(
            {
                "id": f"{kind}-{index}",
                "kind": kind,
                "seed": draw(st.integers(0, 2**16)),
                "scales": draw(st.lists(st.sampled_from([0.5, 1.0, 4.0]), min_size=1, max_size=3)),
                "growth": draw(st.sampled_from([0.0, 24.0, 60.0])),
                "n_samples": n_samples,
                "fault": draw(fault(n_samples, len(dims))),
            }
        )
    slots = [index for index, stream in enumerate(streams) for _ in range(stream["n_samples"])]
    return window, min_refresh, streams, draw(st.permutations(slots))


def stream_samples(stream) -> list[dict]:
    """One customer's samples: shifting regimes, data growing by ``growth``."""
    rng = np.random.default_rng(stream["seed"])
    scales = stream["scales"]
    samples = []
    for k in range(stream["n_samples"]):
        scale = scales[k * len(scales) // stream["n_samples"]]
        storage = 100.0 + stream["growth"] * k
        if stream["kind"] == "db":
            samples.append(db_sample(rng, scale, storage))
        else:
            samples.append(mi_sample(rng, 300.0 * scale, storage))
    if stream["fault"] is not None:
        at, kind, first, second = stream["fault"]
        dims = KINDS[stream["kind"]][1]
        sample = samples[at]
        if kind in ("nan", "nan-then-missing"):
            sample[dims[first]] = float("nan")
        if kind == "inf":
            sample[dims[first]] = float("inf")
        if kind == "missing":
            del sample[dims[first]]
        if kind == "nan-then-missing":
            del sample[dims[second]]
        if kind == "missing-then-nan":
            del sample[dims[first]]
            sample[dims[second]] = float("nan")
    return samples


def build_feed(streams, order) -> list[FleetSample]:
    samples = [stream_samples(stream) for stream in streams]
    cursor = [0] * len(streams)
    feed = []
    for index in order:
        stream = streams[index]
        feed.append(
            FleetSample(stream["id"], samples[index][cursor[index]], KINDS[stream["kind"]][0])
        )
        cursor[index] += 1
    return feed


def watch_lines(engine, feed, streams, window, min_refresh, tick) -> list[str]:
    """Every emission of one shard fed ``tick`` samples at a time."""
    shard = _WatchShard(
        ShardAssessmentConfig(
            engine=engine,
            window=window,
            interval_minutes=10.0,
            drift_threshold=DEFAULT_DRIFT_THRESHOLD,
            min_refresh_samples=min_refresh,
            refreshes_only=False,
        )
    )
    shard.restore_records(
        CustomerStateRecord(
            stream["id"],
            LiveRecommender(
                engine,
                MI,
                window=window,
                dimensions=MI_WITH_STORAGE,
                min_refresh_samples=min_refresh,
                entity_id=stream["id"],
            ).snapshot_state(),
        )
        for stream in streams
        if stream["kind"] == "mi-storage"
    )
    batch = list(enumerate(feed))
    emitted = []
    for start in range(0, len(batch), tick):
        emitted.extend(shard.process(batch[start : start + tick])[0])
    emitted.sort(key=lambda pair: pair[0])
    return [
        f"{seq}|{item.customer_id}|ERROR|{item.error}"
        if item.update is None
        else f"{seq}|{update_line(item.customer_id, item.update)}"
        for seq, item in emitted
    ]


class _OracleUpdate:
    """The fields ``update_line`` reads, as the oracle derives them."""

    def __init__(self, n_seen, n_window, refreshed, drift, recommendation) -> None:
        self.n_seen = n_seen
        self.n_window = n_window
        self.refreshed = refreshed
        self.drift = drift
        self.recommendation = recommendation


def oracle_lines(engine, feed, streams, window, min_refresh) -> list[str]:
    """Every emission, from the window alone, one sample at a time."""
    kinds = {stream["id"]: stream["kind"] for stream in streams}
    estimator = EmpiricalThrottlingEstimator()
    state: dict[str, dict] = {}
    quarantined: set[str] = set()
    lines = []
    for seq, sample in enumerate(feed):
        customer_id = sample.customer_id
        if customer_id in quarantined:
            continue
        deployment, dims = KINDS[kinds[customer_id]]
        if customer_id not in state:
            candidates = engine.ppm.candidates(deployment)
            state[customer_id] = {
                "builder": StreamingTraceBuilder(dims, window=window, entity_id=customer_id),
                "candidates": candidates,
                "base": engine.ppm.capacity_matrix_for(deployment, dims),
                "overrides": None,
                "detector": DriftDetector(),
                "recommendation": None,
            }
        own = state[customer_id]
        try:
            parse_sample(sample.values, dims)
        except Exception as exc:  # noqa: BLE001 - the watch's containment
            quarantined.add(customer_id)
            lines.append(f"{seq}|{customer_id}|ERROR|{type(exc).__name__}: {exc}")
            continue
        builder = own["builder"]
        builder.append(sample.values)

        def probabilities(trace):
            caps = apply_iops_overrides(own["base"], own["candidates"], dims, own["overrides"])
            return estimator.probabilities_from_caps(trace.demand_matrix(dims), caps)

        drift = None
        if builder.n_window < min_refresh:
            refreshed = False
        elif own["recommendation"] is None:
            refreshed = True
        else:
            drift = own["detector"].check_vector(probabilities(builder.snapshot()))
            refreshed = drift.drifted
        if refreshed:
            trace = builder.snapshot()
            try:
                own["recommendation"] = engine.recommend(trace, deployment)
            except Exception as exc:  # noqa: BLE001 - the watch's containment
                quarantined.add(customer_id)
                lines.append(f"{seq}|{customer_id}|ERROR|{type(exc).__name__}: {exc}")
                continue
            if deployment is MI:
                plan = engine.ppm.plan_mi_storage(trace)
                own["overrides"] = gp_iops_overrides(own["candidates"], plan)
            own["detector"].rebase_vector(
                [sku.name for sku in own["candidates"]], probabilities(trace)
            )
        update = _OracleUpdate(
            builder.n_seen, builder.n_window, refreshed, drift, own["recommendation"]
        )
        lines.append(f"{seq}|{update_line(customer_id, update)}")
    return lines


class TestColumnarTickOracle:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(feeds())
    def test_every_tick_size_matches_the_window_oracle(self, default_catalog, drawn):
        window, min_refresh, streams, order = drawn
        engine = fitted_engine(default_catalog)
        feed = build_feed(streams, order)
        expected = oracle_lines(engine, feed, streams, window, min_refresh)
        for tick in TICK_SIZES:
            got = watch_lines(engine, feed, streams, window, min_refresh, tick)
            assert got == expected, tick

    def test_the_drawn_feeds_reach_every_case(self, default_catalog):
        """A hand-built feed with the faults the strategy draws: the
        oracle reports each error with ``parse_sample``'s text (the
        first fault in dimension order wins), the MI layout moves
        between refreshes, and every tick size agrees."""
        engine = fitted_engine(default_catalog)

        def stream(customer_id, kind, seed, n_samples, growth=0.0, fault=None):
            return {
                "id": customer_id, "kind": kind, "seed": seed, "scales": [1.0, 4.0],
                "growth": growth, "n_samples": n_samples, "fault": fault,
            }

        streams = [
            stream("db-0", "db", 1, 20),
            stream("mi-storage-1", "mi-storage", 2, 20, growth=24.0),
            stream("db-2", "db", 3, 10, fault=(6, "nan-then-missing", 0, 2)),
            stream("mi-3", "mi", 4, 10, fault=(5, "missing-then-nan", 1, 3)),
            stream("db-4", "db", 5, 10, fault=(4, "inf", 4, 5)),
        ]
        order = [i for k in range(20) for i, s in enumerate(streams) if k < s["n_samples"]]
        feed = build_feed(streams, order)
        expected = oracle_lines(engine, feed, streams, 6, 3)
        errors = {
            line.split("|")[1]: line.split("|", 3)[3] for line in expected if "|ERROR|" in line
        }
        assert sorted(errors) == ["db-2", "db-4", "mi-3"]
        assert errors["db-2"] == "ValueError: non-finite CPU sample: nan"
        assert errors["db-4"] == "ValueError: non-finite LOG_RATE sample: inf"
        assert errors["mi-3"].startswith("KeyError") and "MEMORY" in errors["mi-3"]
        live = LiveRecommender(
            engine, MI, window=6, dimensions=MI_WITH_STORAGE, min_refresh_samples=3
        )
        caps = set()
        for sample in feed:
            if sample.customer_id == "mi-storage-1" and live.observe(sample.values).refreshed:
                caps.add(tuple(sorted(set((live.estimator.iops_overrides or {}).values()))))
        assert len(caps - {()}) >= 2
        for tick in TICK_SIZES:
            assert watch_lines(engine, feed, streams, 6, 3, tick) == expected, tick


def error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


#: A drawn sample: a value for every DB dimension (any float,
#: non-finite and overflowing ones included), then the positions of
#: the dimensions it misses.
DRAWN_SAMPLES = st.tuples(
    st.lists(st.floats(), min_size=len(DB_DIMENSIONS), max_size=len(DB_DIMENSIONS)),
    st.lists(st.integers(0, len(DB_DIMENSIONS) - 1), max_size=2),
)


class TestBlockPrimitivesMatchTheirRowTwins:
    """Each block primitive of a wave against the one-row primitive of a
    lone sample: the two ingest paths must agree element for element."""

    @pytest.mark.filterwarnings("error")  # an overflowing value warns in neither
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(DRAWN_SAMPLES, min_size=1, max_size=6))
    @example([([1.7e308] * len(DB_DIMENSIONS), [])] * 2)  # finite, but the sum overflows
    def test_parse_samples_matches_parse_sample(self, drawn):
        samples = [
            {
                dim: value
                for position, (dim, value) in enumerate(zip(DB_DIMENSIONS, values))
                if position not in missing
            }
            for values, missing in drawn
        ]
        block, parsed, failures = parse_samples(samples, DB_DIMENSIONS)
        rows, errors = [], {}
        for index, sample in enumerate(samples):
            try:
                rows.append((index, parse_sample(sample, DB_DIMENSIONS)))
            except (KeyError, ValueError) as exc:
                errors[index] = error_text(exc)
        assert parsed == [index for index, _ in rows]
        assert block.shape == (len(rows), len(DB_DIMENSIONS))
        for got, (_, expected) in zip(block, rows):
            assert got.tobytes() == expected.tobytes()
        assert {index: error_text(exc) for index, exc in failures.items()} == errors

    def test_append_row_matches_append(self):
        rng = np.random.default_rng(4)
        block = StreamingTraceBuilder(DB_DIMENSIONS, window=3)
        rows = StreamingTraceBuilder(DB_DIMENSIONS, window=3)
        for _ in range(7):
            sample = db_sample(rng, 1.0, 100.0)
            rows.append(sample)
            parsed, _, _ = parse_samples([sample], DB_DIMENSIONS)
            block.append_row(parsed[0])
            assert block.n_seen == rows.n_seen
            assert block.snapshot().demand_matrix(DB_DIMENSIONS).tobytes() == (
                rows.snapshot().demand_matrix(DB_DIMENSIONS).tobytes()
            )

    def test_update_rows_and_probabilities_rows_match_the_row_forms(self, default_catalog):
        """Two capacity matrices in one block (an MI layout override),
        latency columns, wrapping rings and unequal window fill."""
        ppm = fitted_engine(default_catalog).ppm
        skus = list(ppm.candidates(MI))
        base = ppm.capacity_matrix_for(MI, MI_DIMENSIONS)
        overrides = [None, {skus[0].name: 40.0, skus[3].name: 900.0}, None]

        def estimators():
            return [
                IncrementalThrottlingEstimator(
                    skus, MI_DIMENSIONS, window=4, iops_overrides=ov, capacities=base
                )
                for ov in overrides
            ]

        block, rows = estimators(), estimators()
        assert len({id(estimator._caps) for estimator in block}) == 2
        rng = np.random.default_rng(5)
        fills = set()
        for step in range(9):
            # The last stream joins late, so windows fill unequally.
            live = block if step >= 3 else block[:2]
            twins = rows if step >= 3 else rows[:2]
            samples = [mi_sample(rng, 300.0 * 4.0 ** (step % 3), 100.0) for _ in live]
            parsed, _, _ = parse_samples(samples, MI_DIMENSIONS)
            IncrementalThrottlingEstimator.update_rows(live, parsed)
            for estimator, row in zip(twins, parsed):
                estimator.update_vector(row)
            for got, expected in zip(live, twins):
                assert got.n_seen == expected.n_seen
                assert got._counts.tobytes() == expected._counts.tobytes()
                assert got._ring.tobytes() == expected._ring.tobytes()
            stacked = IncrementalThrottlingEstimator.probabilities_rows(live)
            for got, expected in zip(stacked, twins):
                assert got.tobytes() == expected.probabilities().tobytes()
            fills.add(len({estimator.n_window for estimator in live}))
        assert fills == {1, 2}  # equal and unequal window fill both ran

    def test_check_rows_matches_check_vector(self):
        names = ("a", "b", "c", "d")
        baselines = [
            None,  # no baseline yet: no divergence
            np.array([0.1, 0.5, 0.5, 0.2]),
            np.array([0.3, 0.3, 0.3, 0.3]),  # ties: the first argmax wins
            np.array([0.1, 0.2]),  # another width: check_vector's ValueError
            np.array([0.0, 0.0, 1.0, 1.0]),
        ]
        detectors = []
        for baseline in baselines:
            detector = DriftDetector()
            if baseline is not None:
                detector.rebase_vector(names[: len(baseline)], baseline)
            detectors.append(detector)
        values = np.array(
            [
                [0.0, 0.0, 0.0, 0.0],
                [0.1, 0.25, 0.75, 0.2],
                [0.5, 0.1, 0.5, 0.3],
                [0.1, 0.2, 0.3, 0.4],
                [0.0, 0.0, 1.0, 1.0],
            ]
        )
        reports = DriftDetector.check_rows(detectors, values)
        for detector, row, got in zip(detectors, values, reports):
            try:
                expected = detector.check_vector(row)
            except ValueError as exc:
                assert isinstance(got, ValueError) and str(got) == str(exc)
            else:
                assert got == expected
        assert [report.worst_sku for report in reports if not isinstance(report, Exception)] == [
            None, "b", "a", "a"
        ]

    def test_block_curves_match_one_curve_at_a_time(self, default_catalog):
        """Every fit case: all SKUs, a storage-restricted set, the MI
        Business Critical restriction, and no SKU at all."""
        ppm = fitted_engine(default_catalog).ppm
        rng = np.random.default_rng(6)
        cases = {
            DB: (DB_DIMENSIONS, [lambda s: db_sample(rng, 1.0, s)], [100.0, 3000.0, 1e9]),
            MI: (
                MI_WITH_STORAGE,
                [lambda s, iops=iops: mi_sample(rng, iops, s) for iops in (300.0, 3e4)],
                [100.0, 6000.0, 20000.0],
            ),
        }
        for deployment, (dims, makers, storages) in cases.items():
            traces = []
            for index, (make, storage) in enumerate(
                (make, storage) for make in makers for storage in storages
            ):
                builder = StreamingTraceBuilder(dims, window=4, entity_id=f"c{index}")
                for _ in range(4):
                    builder.append(make(storage))
                traces.append(builder.snapshot())
            plans = [
                ppm.plan_mi_storage(trace) if deployment is MI else None for trace in traces
            ]
            n_skus = len(ppm.candidates(deployment))
            probabilities = rng.integers(0, 5, size=(len(traces), n_skus)) / 4
            built = ppm.build_curves_from_probabilities(
                traces, deployment, probabilities, plans
            )
            for trace, row, plan, got in zip(traces, probabilities, plans, built):
                try:
                    expected = ppm.build_curve_from_probabilities(
                        trace, deployment, row, mi_plan=plan
                    )
                except ValueError as exc:
                    assert isinstance(got, ValueError) and str(got) == str(exc)
                    continue
                assert isinstance(got, PricePerformanceCurve)
                assert got.entity_id == expected.entity_id
                assert got.points == expected.points
            assert any(isinstance(got, ValueError) for got in built)
            # A lone trace runs the same block pass.
            alone = ppm.build_curves_from_probabilities(
                traces[:1], deployment, probabilities[:1], plans[:1]
            )[0]
            assert alone.points == built[0].points
