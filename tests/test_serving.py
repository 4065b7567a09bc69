"""Online serving tier: microbatching, admission control, identity, HTTP.

The load-bearing contract is the serving identity gate: a
recommendation served through the asyncio tier -- microbatched into
``recommend_batch`` on the event loop -- must be byte-identical to the
same customer's result from a direct ``recommend_fleet`` pass, and an
observe stream answered by the service must match the watch path's
update stream sample for sample.  Everything else (backpressure,
flush triggers, the HTTP front end) protects the tail latency of that
same machinery under load.

No pytest-asyncio in the environment: coroutine scenarios run under
``asyncio.run`` inside plain sync tests.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import numpy as np
import pytest

import repro
from repro.catalog import DeploymentType
from repro.core import DopplerEngine
from repro.fleet import (
    FleetCustomer,
    FleetEngine,
    FleetLiveUpdate,
    FleetSample,
    WatchConfig,
)
from repro.serve import (
    AdmissionError,
    BatchStats,
    LatencyRecorder,
    MicroBatcher,
    RecommendationService,
    ServeConfig,
    serve,
)
from repro.serve.http import _handle_one
from repro.serve.loadgen import open_loop
from repro.serve.service import _Lane
from repro.store import FleetStore
from repro.telemetry.serialize import trace_to_dict

from .conftest import full_trace
from .test_fleet_backends import canonical_updates, interleaved_feed, live_samples

#: Watch parameters small enough that refreshes happen within a short
#: test feed; shared by every service in this module.
WATCH = WatchConfig(window=16, min_refresh_samples=8)

#: A service configuration that never rejects: the correctness tests
#: want identity, not backpressure.
WIDE_OPEN = ServeConfig(
    n_shards=1,
    max_batch=8,
    queue_limit=4096,
    slo_ms=60_000.0,
    watch=WATCH,
)


def make_fleet(small_catalog) -> FleetEngine:
    return FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")


def make_customers(n: int) -> list[FleetCustomer]:
    return [
        FleetCustomer(
            customer_id=f"serve-{index:02d}",
            trace=full_trace(
                cpu_level=0.8 + 0.3 * index, entity_id=f"serve-{index:02d}", rng=index
            ),
            deployment=DeploymentType.SQL_DB,
        )
        for index in range(n)
    ]


def canonical_recommendations(results) -> str:
    """Byte-comparable projection of recommendation results."""
    lines = []
    for result in results:
        recommendation = result.recommendation
        if recommendation is None:
            lines.append(f"{result.customer_id}|ERROR|{result.error}")
            continue
        lines.append(
            f"{result.customer_id}|{recommendation.sku.name}"
            f"|{recommendation.monthly_price!r}|{recommendation.expected_throttling!r}"
            f"|{recommendation.target_probability!r}|{recommendation.strategy}"
            f"|{result.over_provisioned}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# ServeConfig
# ----------------------------------------------------------------------
class TestServeConfig:
    def test_defaults_are_valid_and_replace_works(self):
        config = ServeConfig()
        assert config.n_shards == 2
        varied = config.replace(n_shards=4, slo_ms=100.0)
        assert (varied.n_shards, varied.slo_ms) == (4, 100.0)
        assert config.n_shards == 2  # frozen original untouched

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("n_shards", 0, "n_shards must be >= 1"),
            ("max_batch", 0, "max_batch must be >= 1"),
            ("queue_limit", 0, "queue_limit must be >= 1"),
            ("slo_ms", 0.0, "slo_ms must be positive"),
            ("watch", "fast", "watch must be a WatchConfig"),
        ],
    )
    def test_validation(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ServeConfig(**{field: value})

    def test_bad_watch_parameters_fail_at_service_construction(self, small_catalog):
        config = ServeConfig(watch=WatchConfig(window=4, min_refresh_samples=64))
        with pytest.raises(ValueError, match="window"):
            RecommendationService(make_fleet(small_catalog), config)

    def test_service_rejects_non_config(self, small_catalog):
        with pytest.raises(ValueError, match="ServeConfig"):
            RecommendationService(make_fleet(small_catalog), {"n_shards": 2})

    def test_max_delay_ms_raises_type_error(self):
        """The coalescing deadline is gone: construction and ``replace``
        both reject the retired keyword, as ``zero_copy=`` is rejected."""
        with pytest.raises(TypeError, match="max_delay_ms"):
            ServeConfig(max_delay_ms=5.0)
        with pytest.raises(TypeError, match="max_delay_ms"):
            WIDE_OPEN.replace(n_shards=2, max_delay_ms=-1.0)


# ----------------------------------------------------------------------
# MicroBatcher
# ----------------------------------------------------------------------
def _forbid_timers(monkeypatch) -> None:
    """Make timeout waits and the running loop's timers raise."""

    def no_timer(*args, **kwargs):
        raise AssertionError("the batcher asked for a timer")

    monkeypatch.setattr(asyncio, "wait_for", no_timer)
    monkeypatch.setattr(asyncio.get_running_loop(), "call_at", no_timer)


async def _settle(awaitables, rounds: int = 10) -> list:
    """Results of ``awaitables``, which must finish within ``rounds``
    loop iterations (a task stuck on a timer never would)."""
    tasks = [asyncio.ensure_future(awaitable) for awaitable in awaitables]
    for _ in range(rounds):
        await asyncio.sleep(0)
    assert all(task.done() for task in tasks)
    return [task.result() for task in tasks]


class TestMicroBatcher:
    def test_size_trigger_flushes_full_batches(self):
        batches: list[list[int]] = []

        async def flush(items):
            batches.append(list(items))
            return [item * 2 for item in items]

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=4)
            batcher.start()
            results = await asyncio.gather(*(batcher.submit(i) for i in range(8)))
            await batcher.stop()
            return results

        results = asyncio.run(scenario())
        assert results == [i * 2 for i in range(8)]
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_partial_batch_dispatches_without_a_timer(self, monkeypatch):
        """A lone submission (and a short queue) dispatches at once: the
        batcher never waits on a timeout or schedules a timer."""

        async def flush(items):
            return list(items)

        async def scenario():
            _forbid_timers(monkeypatch)
            batcher = MicroBatcher(flush, max_batch=100)
            batcher.start()
            assert await _settle([batcher.submit("lone")]) == ["lone"]
            results = await _settle([batcher.submit(i) for i in range(3)])
            await batcher.stop()
            return results, batcher.stats

        results, stats = asyncio.run(scenario())
        assert results == [0, 1, 2]
        assert stats.n_flushes == 2
        assert stats.n_deadline_flushes == 2
        assert stats.n_size_flushes == 0
        assert stats.max_batch == 3

    def test_items_queued_during_a_flush_form_the_next_batch(self, monkeypatch):
        """Batch while busy: what arrives while a flush awaits waits for
        it, then dispatches in order, at most ``max_batch`` at a time,
        with no timer in between."""
        batches: list[list] = []
        entered = asyncio.Event()
        release = asyncio.Event()

        async def flush(items):
            batches.append(list(items))
            if len(batches) == 1:
                entered.set()
                await release.wait()
            return list(items)

        async def scenario():
            _forbid_timers(monkeypatch)
            batcher = MicroBatcher(flush, max_batch=4)
            batcher.start()
            first = asyncio.ensure_future(batcher.submit("first"))
            for _ in range(5):
                await asyncio.sleep(0)
            assert entered.is_set()
            rest = [asyncio.ensure_future(batcher.submit(i)) for i in range(6)]
            for _ in range(5):
                await asyncio.sleep(0)
            assert batches == [["first"]]  # nobody overtakes a running flush
            assert batcher.depth == 6
            release.set()
            results = await _settle([first, *rest])
            await batcher.stop()
            return results

        assert asyncio.run(scenario()) == ["first", 0, 1, 2, 3, 4, 5]
        assert batches == [["first"], [0, 1, 2, 3], [4, 5]]

    def test_deep_queue_drains_in_order_and_yields_between_batches(self):
        batches: list[list[int]] = []
        ticks_at_flush: list[int] = []
        ticks = 0

        async def ticker():
            nonlocal ticks
            while True:
                ticks += 1
                await asyncio.sleep(0)

        async def flush(items):
            batches.append(list(items))
            ticks_at_flush.append(ticks)
            return list(items)

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=3)
            batcher.start()
            other_lane = asyncio.ensure_future(ticker())
            results = await asyncio.gather(*(batcher.submit(i) for i in range(10)))
            other_lane.cancel()
            await batcher.stop()
            return results

        assert asyncio.run(scenario()) == list(range(10))
        assert batches == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
        # Another task ran between every two back-to-back batches.
        assert all(
            later > earlier
            for earlier, later in zip(ticks_at_flush, ticks_at_flush[1:])
        )

    def test_stats_split_full_vs_partial(self, monkeypatch):
        """One full batch of ``max_batch``, then the 2-item remainder
        at once."""

        async def flush(items):
            return list(items)

        async def scenario():
            _forbid_timers(monkeypatch)
            batcher = MicroBatcher(flush, max_batch=4)
            batcher.start()
            await _settle([batcher.submit(i) for i in range(6)])
            await batcher.stop()
            return batcher.stats

        stats = asyncio.run(scenario())
        assert stats.n_size_flushes == 1
        assert stats.n_deadline_flushes == 1
        assert stats.n_flushes == 2
        assert stats.n_items == 6
        assert stats.mean_batch == pytest.approx(3.0)

    def test_flush_error_fails_batch_not_loop(self):
        async def flush(items):
            if "boom" in items:
                raise ValueError("flush exploded")
            return list(items)

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=2)
            batcher.start()
            failed = await asyncio.gather(
                batcher.submit("boom"), batcher.submit("rider"), return_exceptions=True
            )
            survivor = await batcher.submit("ok")
            await batcher.stop()
            return failed, survivor

        failed, survivor = asyncio.run(scenario())
        assert all(isinstance(outcome, ValueError) for outcome in failed)
        assert survivor == "ok"

    def test_misaligned_flush_is_an_error(self):
        async def flush(items):
            return []

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=1)
            batcher.start()
            try:
                with pytest.raises(RuntimeError, match="flush returned 0 results"):
                    await batcher.submit("x")
            finally:
                await batcher.stop()

        asyncio.run(scenario())

    def test_submit_requires_running_batcher(self):
        async def flush(items):
            return list(items)

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=2)
            with pytest.raises(RuntimeError, match="not running"):
                await batcher.submit("early")
            batcher.start()
            await batcher.stop()
            with pytest.raises(RuntimeError, match="not running"):
                await batcher.submit("late")

        asyncio.run(scenario())

    def test_parameter_validation(self):
        async def flush(items):
            return list(items)

        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(flush, max_batch=0)

    def test_max_delay_raises_type_error(self):
        async def flush(items):
            return list(items)

        with pytest.raises(TypeError, match="max_delay"):
            MicroBatcher(flush, 4, max_delay=0.5)
        with pytest.raises(TypeError):
            MicroBatcher(flush, 4, 0.5)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_latency_recorder_reports_ms_percentiles(self):
        recorder = LatencyRecorder()
        for index in range(1, 201):
            recorder.record(index / 1000.0)  # 1ms .. 200ms
        summary = recorder.summary()
        assert summary["count"] == 200
        assert summary["max_ms"] == pytest.approx(200.0)
        assert summary["mean_ms"] == pytest.approx(100.5)
        assert summary["p50_ms"] == pytest.approx(100.0, rel=0.05)
        assert summary["p99_ms"] == pytest.approx(198.0, rel=0.05)

    def test_empty_recorder_is_all_zeros(self):
        summary = LatencyRecorder().summary()
        assert summary == {
            "count": 0,
            "mean_ms": 0.0,
            "max_ms": 0.0,
            "p50_ms": 0.0,
            "p95_ms": 0.0,
            "p99_ms": 0.0,
        }

    def test_batch_stats_accounting(self):
        stats = BatchStats()
        stats.record(4, full=True)
        stats.record(2, full=False)
        assert stats.summary() == {
            "n_flushes": 2,
            "n_items": 6,
            "n_size_flushes": 1,
            "n_deadline_flushes": 1,
            "mean_batch": 3.0,
            "max_batch": 4,
        }


# ----------------------------------------------------------------------
# Open-loop load driver
# ----------------------------------------------------------------------
class TestOpenLoop:
    @staticmethod
    def drive(schedule, submit):
        """Run ``open_loop``; return its report, when it started, and
        the loop time each task it created was created at."""

        async def scenario():
            loop = asyncio.get_running_loop()
            created: list[float] = []
            factory = loop.get_task_factory()

            def recording_factory(loop, coro, **kwargs):
                created.append(loop.time())
                if factory is None:
                    return asyncio.Task(coro, loop=loop, **kwargs)
                return factory(loop, coro, **kwargs)

            loop.set_task_factory(recording_factory)
            started = loop.time()
            report = await open_loop(submit, schedule)
            loop.set_task_factory(factory)
            return report, started, created

        return asyncio.run(scenario())

    def test_no_request_is_created_before_its_offset(self):
        schedule = [0.0, 0.03, 0.06, 0.09, 0.12]

        async def submit():
            return None

        report, started, created = self.drive(schedule, submit)
        assert report.n_requests == report.n_ok == len(schedule)
        assert len(created) == len(schedule)
        for offset, at in zip(schedule, created):
            assert at - started >= offset - 1e-3

    def test_overdue_requests_are_created_at_once_in_order(self):
        """A submit that blocks the loop leaves the rest overdue: they
        dispatch back to back, in schedule order, without re-throttling."""
        schedule = [0.0, 0.01, 0.02, 0.03]
        calls: list[int] = []

        async def submit():
            calls.append(len(calls))
            if len(calls) == 1:
                time.sleep(0.1)  # hold the loop past every later offset

        report, started, created = self.drive(schedule, submit)
        assert report.n_ok == len(schedule)
        assert calls == [0, 1, 2, 3]
        assert created == sorted(created)
        # The three overdue tasks are created together, right after the block.
        assert created[-1] - created[1] < 0.05


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestLaneAdmission:
    def make_lane(self, **overrides) -> _Lane:
        async def flush(items):
            return list(items)

        config = ServeConfig(queue_limit=2, slo_ms=100.0, watch=WATCH, **overrides)
        return _Lane("observe[0]", MicroBatcher(flush, 4), config)

    def test_queue_bound_rejects_with_lane_name(self):
        lane = self.make_lane()
        lane.admit()
        lane.admit()
        with pytest.raises(AdmissionError, match=r"observe\[0\] saturated \(queue full\)"):
            lane.admit()
        assert lane.inflight == 2  # the rejected request never counted
        assert lane.max_inflight == 2
        assert lane.n_rejected == 1

    def test_slo_budget_rejects_with_retry_after(self):
        lane = self.make_lane()
        lane.ewma_s_per_item = 0.5  # 500ms/request measured, 100ms budget
        with pytest.raises(AdmissionError, match="SLO budget exceeded") as excinfo:
            lane.admit()
        assert excinfo.value.lane == "observe[0]"
        assert excinfo.value.retry_after_s == pytest.approx(0.5)

    def test_cold_lane_admits_until_queue_bound(self):
        # With no latency estimate yet the SLO term cannot reject.
        lane = self.make_lane()
        lane.admit()
        lane.release()
        assert lane.inflight == 0

    def test_ewma_warms_then_smooths(self):
        lane = self.make_lane()
        lane.observe_flush(busy_seconds=0.4, batch_size=4)  # first: direct set
        assert lane.ewma_s_per_item == pytest.approx(0.1)
        lane.observe_flush(busy_seconds=1.2, batch_size=4)  # then: EWMA fold
        assert lane.ewma_s_per_item == pytest.approx(0.1 + 0.2 * (0.3 - 0.1))
        lane.observe_flush(busy_seconds=9.9, batch_size=0)  # degenerate: ignored
        assert lane.ewma_s_per_item == pytest.approx(0.14)


# ----------------------------------------------------------------------
# The service: identity, quarantine, backpressure
# ----------------------------------------------------------------------
class TestServiceIdentity:
    def test_served_recommendations_match_direct_fleet_pass(self, small_catalog):
        fleet = make_fleet(small_catalog)
        customers = make_customers(6)

        async def scenario():
            async with RecommendationService(fleet, WIDE_OPEN) as service:
                return await asyncio.gather(
                    *(service.recommend(customer) for customer in customers)
                )

        served = asyncio.run(scenario())
        direct = list(fleet.recommend_fleet(customers))
        assert canonical_recommendations(served) == canonical_recommendations(direct)
        assert canonical_recommendations(served)  # non-degenerate

    def test_served_observe_stream_matches_watch(self, small_catalog):
        feed = interleaved_feed(4, 12, seed=7)
        served_fleet = make_fleet(small_catalog)

        async def scenario():
            config = WIDE_OPEN.replace(n_shards=2)
            async with RecommendationService(served_fleet, config) as service:
                updates = []
                for sample in feed:
                    updates.append(await service.observe(sample))
                return updates

        served = asyncio.run(scenario())
        direct = list(
            make_fleet(small_catalog).watch_fleet(
                feed, config=WATCH.replace(refreshes_only=False)
            )
        )
        assert canonical_updates(served) == canonical_updates(direct)
        assert len(served) == len(feed)

    def test_quarantined_customer_answers_with_error(self, small_catalog):
        # The poisoned customer fails at its first refresh (sample 8,
        # min_refresh_samples), so feed enough samples to get there
        # plus a post-quarantine tail.
        feed = interleaved_feed(3, 12, seed=3, poison=("cust-1",))
        fleet = make_fleet(small_catalog)

        async def scenario():
            async with RecommendationService(fleet, WIDE_OPEN) as service:
                updates = []
                for sample in feed:
                    updates.append(await service.observe(sample))
                stats = service.stats()
                return updates, stats

        served, stats = asyncio.run(scenario())
        poisoned = [update for update in served if update.customer_id == "cust-1"]
        assert len(poisoned) == 12  # every sample answered, none dropped
        first_error = next(
            index for index, update in enumerate(poisoned) if update.update is None
        )
        assert poisoned[first_error].error  # the real assessment failure
        assert poisoned[first_error].error != "customer is quarantined"
        assert first_error < 11  # failed before the feed ran out
        for update in poisoned[first_error + 1 :]:
            assert update.update is None
            assert update.error == "customer is quarantined"
        assert stats["observe"]["shards"][0]["n_quarantined"] == 1
        # The direct watch stream is the served stream minus the
        # quarantine fillers (the watch drops quarantined samples).
        direct = list(
            make_fleet(small_catalog).watch_fleet(
                feed, config=WATCH.replace(refreshes_only=False)
            )
        )
        answered = [
            update for update in served if update.error != "customer is quarantined"
        ]
        assert canonical_updates(answered) == canonical_updates(direct)

    def test_endpoints_require_started_service(self, small_catalog):
        service = RecommendationService(make_fleet(small_catalog), WIDE_OPEN)

        async def scenario():
            with pytest.raises(RuntimeError, match="not running"):
                await service.observe(interleaved_feed(1, 1, seed=0)[0])
            with pytest.raises(RuntimeError, match="not running"):
                await service.recommend(make_customers(1)[0])

        asyncio.run(scenario())


class TestBackpressure:
    def test_saturated_lane_rejects_and_recovers(self, small_catalog):
        config = ServeConfig(
            n_shards=1,
            max_batch=4,
            queue_limit=2,
            slo_ms=60_000.0,
            watch=WATCH,
        )
        feed = interleaved_feed(1, 8, seed=11)
        fleet = make_fleet(small_catalog)

        async def scenario():
            async with RecommendationService(fleet, config) as service:
                tasks = [
                    asyncio.get_running_loop().create_task(service.observe(sample))
                    for sample in feed
                ]
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                stats = service.stats()
                # The lane drains after the burst: admission recovers.
                recovered = await service.observe(feed[0])
                return outcomes, stats, recovered

        outcomes, stats, recovered = asyncio.run(scenario())
        rejected = [o for o in outcomes if isinstance(o, AdmissionError)]
        answered = [o for o in outcomes if isinstance(o, FleetLiveUpdate)]
        assert len(rejected) + len(answered) == len(feed)
        assert len(answered) >= 2  # the admitted window was served
        assert rejected  # the burst overflowed a 2-deep lane
        for error in rejected:
            assert error.lane == "observe[0]"
            assert error.retry_after_s >= 0.0
            assert "queue full" in str(error)
        assert stats["observe"]["n_rejected"] == len(rejected)
        assert stats["observe"]["latency"]["count"] == len(answered)
        assert isinstance(recovered, FleetLiveUpdate)


# ----------------------------------------------------------------------
# Execution: everything on the event loop
# ----------------------------------------------------------------------
class TestNoThreads:
    def test_service_starts_no_thread(self, small_catalog, tmp_path, monkeypatch):
        """Every serving path runs on the loop thread: start, observe,
        recommend, checkpoint, eviction and store readmission, a
        degraded shard's restore, an HTTP round trip and stop."""

        def no_thread(thread):
            raise AssertionError(f"the service started thread {thread.name!r}")

        store = FleetStore(str(tmp_path / "threads.db"))
        config = WIDE_OPEN.replace(watch=WatchConfig(window=8, min_refresh_samples=4))
        rng = np.random.default_rng(4)
        alpha, beta = (
            [FleetSample(customer_id=name, values=v) for v in live_samples(8, rng)]
            for name in ("alpha", "beta")
        )
        monkeypatch.setattr(threading.Thread, "start", no_thread)

        async def scenario():
            service = RecommendationService(make_fleet(small_catalog), config, store=store)
            async with service:
                for sample in alpha[:5] + beta[:5]:
                    assert (await service.observe(sample)).ok
                assert (await service.recommend(make_customers(1)[0])).ok
                await service.checkpoint()
                assert await service.evict_cold(1) == 1  # alpha goes cold
                readmitted = await service.observe(alpha[5])
                assert readmitted.ok and readmitted.update.n_seen == 6

                def boom(batch):
                    raise RuntimeError("injected shard failure")

                service._shards[0].process = boom
                assert (await service.observe(beta[5])).deferred
                assert await service.restore_shard(0) == 1
                assert (await service.observe(beta[6])).ok

                server = await serve(service, port=0)
                port = server.sockets[0].getsockname()[1]
                try:
                    status, _, document = await _http_request(
                        port, "POST", "/observe", OBSERVE_BODY
                    )
                finally:
                    server.close()
                    await server.wait_closed()
                assert status == 200 and document["ok"] is True
                return service.stats()

        stats = asyncio.run(scenario())
        store.close()
        assert stats["durability"]["n_evictions"] == 1
        assert stats["degraded"]["n_shard_restores"] == 1


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------
async def _http_request(port: int, method: str, path: str, body: dict | None = None):
    """One HTTP/1.1 exchange against localhost; returns (status, headers, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode("utf-8") if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head_raw, _, body_raw = raw.partition(b"\r\n\r\n")
    lines = head_raw.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(body_raw) if body_raw else {}


OBSERVE_BODY = {
    "customer_id": "http-cust",
    "values": {
        "CPU": 1.5,
        "MEMORY": 6.0,
        "IOPS": 200.0,
        "IO_LATENCY": 6.0,
        "LOG_RATE": 2.0,
        "STORAGE": 120.0,
    },
}


class TestHttpFrontEnd:
    def run_server(self, small_catalog, scenario):
        fleet = make_fleet(small_catalog)

        async def body():
            async with RecommendationService(fleet, WIDE_OPEN) as service:
                server = await serve(service, port=0)
                port = server.sockets[0].getsockname()[1]
                try:
                    return await scenario(port)
                finally:
                    server.close()
                    await server.wait_closed()

        return asyncio.run(body())

    def test_observe_and_stats_round_trip(self, small_catalog):
        async def scenario(port):
            observed = await _http_request(port, "POST", "/observe", OBSERVE_BODY)
            stats = await _http_request(port, "GET", "/stats")
            return observed, stats

        observed, stats = self.run_server(small_catalog, scenario)
        status, _, document = observed
        assert status == 200
        assert document["customer_id"] == "http-cust"
        assert document["ok"] is True
        assert document["n_seen"] == 1
        status, _, body = stats
        assert status == 200
        assert body["running"] is True
        assert body["observe"]["latency"]["count"] == 1

    def test_recommend_round_trip(self, small_catalog):
        request = {
            "customer_id": "http-rec",
            "trace": trace_to_dict(full_trace(entity_id="http-rec")),
        }

        async def scenario(port):
            return await _http_request(port, "POST", "/recommend", request)

        status, _, document = self.run_server(small_catalog, scenario)
        assert status == 200
        assert document["ok"] is True
        assert document["recommendation"]["sku"]
        assert document["recommendation"]["monthly_price"] > 0

    def test_malformed_requests_answer_4xx(self, small_catalog):
        async def scenario(port):
            return (
                await _http_request(port, "POST", "/observe", {"customer_id": "x"}),
                await _http_request(
                    port,
                    "POST",
                    "/observe",
                    {"customer_id": "x", "values": {"WARP": 9.0}},
                ),
                await _http_request(port, "GET", "/nowhere"),
            )

        missing, unknown_dim, lost = self.run_server(small_catalog, scenario)
        assert missing[0] == 400
        assert "customer_id" in missing[2]["error"]
        assert unknown_dim[0] == 400
        assert "WARP" in unknown_dim[2]["error"]
        assert lost[0] == 404

    def test_admission_rejection_maps_to_429_with_retry_after(self):
        class SaturatedService:
            async def observe(self, sample):
                raise AdmissionError("observe[0]", 0.25, "queue full")

        async def scenario():
            return await _handle_one(
                SaturatedService(),
                "POST",
                "/observe",
                json.dumps(OBSERVE_BODY).encode("utf-8"),
            )

        raw = asyncio.run(scenario())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 429 Too Many Requests")
        assert b"Retry-After: 0.250" in head
        document = json.loads(body)
        assert document["lane"] == "observe[0]"
        assert document["retry_after_s"] == pytest.approx(0.25)


# ----------------------------------------------------------------------
# WatchConfig shim parity
# ----------------------------------------------------------------------
class TestWatchConfigShim:
    def test_legacy_kwargs_are_a_type_error_pointing_at_watch_config(
        self, small_catalog
    ):
        fleet = make_fleet(small_catalog)
        with pytest.raises(TypeError, match=r"pass config=WatchConfig\(\.\.\.\) instead"):
            fleet.watch_fleet([], window=16, min_refresh_samples=8)

    def test_legacy_kwargs_rejected_even_alongside_config(self, small_catalog):
        fleet = make_fleet(small_catalog)
        with pytest.raises(TypeError, match="'window'"):
            fleet.watch_fleet([], config=WatchConfig(), window=16)

    def test_legacy_kwargs_raise_without_consuming_the_feed(self, small_catalog):
        def poisoned():
            raise AssertionError("feed must not be consumed on a rejected call")
            yield  # pragma: no cover

        fleet = make_fleet(small_catalog)
        with pytest.raises(TypeError, match="legacy per-watch keyword form"):
            fleet.watch_fleet(poisoned(), window=16)

    def test_unknown_kwarg_is_a_type_error(self, small_catalog):
        fleet = make_fleet(small_catalog)
        with pytest.raises(
            TypeError, match="unexpected keyword arguments: 'cadence'"
        ):
            fleet.watch_fleet([], cadence=5)

    def test_non_config_object_rejected(self, small_catalog):
        fleet = make_fleet(small_catalog)
        with pytest.raises(ValueError, match="must be a WatchConfig"):
            fleet.watch_fleet([], config={"window": 16})

    def test_watch_config_field_names_cover_legacy_surface(self):
        names = WatchConfig.field_names()
        for legacy in (
            "window",
            "backend",
            "max_workers",
            "refreshes_only",
            "rebalance",
            "on_rebalance",
            "tick_samples",
            "profile_mode",
        ):
            assert legacy in names


# ----------------------------------------------------------------------
# Public facade
# ----------------------------------------------------------------------
class TestPublicFacade:
    def test_serving_tier_exported_at_top_level(self):
        assert repro.RecommendationService is RecommendationService
        assert repro.ServeConfig is ServeConfig
        assert repro.AdmissionError is AdmissionError
        assert repro.WatchConfig is WatchConfig
        for name in (
            "RecommendationService",
            "ServeConfig",
            "AdmissionError",
            "WatchConfig",
            "serve",
        ):
            assert name in repro.__all__

    def test_serve_package_all_is_importable(self):
        import repro.serve as serve_pkg

        for name in serve_pkg.__all__:
            assert hasattr(serve_pkg, name)
