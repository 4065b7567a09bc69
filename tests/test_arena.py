"""Shared-memory data plane of the process watch.

The arena lifecycle (:mod:`repro.fleet.arena`): every segment the
parent publishes is unlinked exactly once -- on normal drain, on an
abandoned watch, and after a SIGKILL'd worker -- so ``/dev/shm`` ends
every watch exactly as it started.  The tick plane is how the process
watch always runs: the retired ``FleetEngine(kernel=...,
zero_copy=...)`` arguments are rejected, so no pass can be routed
around it.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.catalog import DeploymentType, SkuCatalog
from repro.core import DopplerEngine
from repro.fleet import FleetEngine
from repro.fleet.arena import (
    ArenaRegistry,
    ArrayDescriptor,
    leaked_segments,
)


@pytest.fixture(scope="module")
def module_catalog() -> SkuCatalog:
    return SkuCatalog.default()


# ----------------------------------------------------------------------
# Registry + descriptors
# ----------------------------------------------------------------------
class TestArenaRegistry:
    def test_release_unlinks_once(self):
        registry = ArenaRegistry()
        kept = registry.create(64)
        segment = registry.create(64)
        assert segment.name in leaked_segments()
        registry.release(segment.name)  # closed and unlinked
        assert segment.name not in leaked_segments()
        assert registry.get(segment.name) is None
        registry.release(segment.name)  # released already; no raise
        assert kept.name in leaked_segments()  # other segments untouched
        assert len(registry) == 1
        registry.close_all()

    def test_release_after_close_all_is_a_noop(self):
        registry = ArenaRegistry()
        segment = registry.create(64)
        registry.close_all()
        assert segment.name not in leaked_segments()
        registry.release(segment.name)  # force-released already; no raise

    def test_close_all_unlinks_everything(self):
        registry = ArenaRegistry()
        names = [registry.create(32).name for _ in range(3)]
        registry.close_all()
        live = leaked_segments()
        assert all(name not in live for name in names)

    def test_descriptor_round_trip_preserves_bytes(self):
        registry = ArenaRegistry()
        try:
            values = np.arange(24, dtype=np.float64).reshape(4, 6) * np.pi
            segment = registry.create(8 + values.nbytes)
            descriptor = ArrayDescriptor(segment.name, 8, (4, 6))
            assert descriptor.nbytes == values.nbytes
            descriptor.view(segment.buf)[:] = values
            # A descriptor is what crosses the queue: pickle it, attach
            # fresh, and the view must be byte-identical to the source.
            reloaded = pickle.loads(pickle.dumps(descriptor))
            from multiprocessing import shared_memory

            attached = shared_memory.SharedMemory(name=reloaded.segment)
            try:
                assert reloaded.view(attached.buf).tobytes() == values.tobytes()
            finally:
                attached.close()
        finally:
            registry.close_all()


# ----------------------------------------------------------------------
# Retired knobs
# ----------------------------------------------------------------------
class TestRetiredKnobs:
    """``kernel`` and ``zero_copy`` are gone: passing either is a TypeError."""

    @pytest.mark.parametrize("kernel", ["numba", "auto", "numpy"])
    def test_kernel_argument_is_rejected(self, kernel, module_catalog):
        with pytest.raises(TypeError, match="kernel"):
            FleetEngine(
                engine=DopplerEngine(catalog=module_catalog),
                backend="serial",
                kernel=kernel,
            )

    def test_zero_copy_argument_is_rejected(self, module_catalog):
        with pytest.raises(TypeError, match="zero_copy"):
            FleetEngine(
                engine=DopplerEngine(catalog=module_catalog),
                backend="process",
                max_workers=2,
                zero_copy=False,
            )


# ----------------------------------------------------------------------
# Streaming tick plane
# ----------------------------------------------------------------------
class TestTickPlane:
    """Unit contracts of the watch's double-buffered ring arenas."""

    def make_batch(self):
        from repro.fleet import FleetSample
        from repro.telemetry import PerfDimension

        return [
            (
                7,
                FleetSample(
                    customer_id="cust-a",
                    values={
                        PerfDimension.CPU: 1.5,
                        PerfDimension.STORAGE: 120.0,
                    },
                ),
            ),
            (
                9,
                FleetSample(
                    customer_id="cust-b",
                    values={PerfDimension.MEMORY: 8.25},
                    deployment=DeploymentType.SQL_MI,
                ),
            ),
            # Irregular row: a non-float value must travel verbatim so
            # worker-side validation raises exactly what serial would.
            (
                11,
                FleetSample(
                    customer_id="cust-c",
                    values={PerfDimension.CPU: "not-a-number"},
                ),
            ),
        ]

    def test_tick_frame_round_trip_preserves_batch(self):
        from repro.fleet.arena import TickPlane, unpack_tick

        plane = TickPlane()
        try:
            batch = self.make_batch()
            frame = plane.pack_tick(0, 0, batch)
            rebuilt = unpack_tick(frame)
            assert [seq for seq, _ in rebuilt] == [seq for seq, _ in batch]
            for (_, original), (_, copy) in zip(batch, rebuilt):
                assert copy.customer_id == original.customer_id
                assert copy.deployment == original.deployment
                assert copy.values == original.values
        finally:
            plane.close()
        assert leaked_segments() == []

    def test_slots_are_reused_across_ticks_not_recreated(self):
        from repro.fleet.arena import TickPlane

        plane = TickPlane()
        try:
            batch = self.make_batch()
            first = plane.pack_tick(0, 0, batch)
            # Same parity two ticks later: same segment, new generation.
            third = plane.pack_tick(0, 2, batch)
            assert third.segment == first.segment
            assert third.generation != first.generation
            # Opposite parity lives in the sibling buffer.
            second = plane.pack_tick(0, 1, batch)
            assert second.segment != first.segment
        finally:
            plane.close()

    def test_generation_tag_stops_a_slow_reader_on_recycled_slot(self):
        from repro.fleet.arena import TickPlane, unpack_tick

        plane = TickPlane()
        try:
            batch = self.make_batch()
            stale = plane.pack_tick(0, 0, batch)
            plane.pack_tick(0, 2, batch)  # recycles the parity-0 slot
            with pytest.raises(RuntimeError, match="recycled"):
                unpack_tick(stale)
        finally:
            plane.close()

    def test_result_columns_round_trip_and_memoized_recommendation(self):
        from repro.fleet import FleetLiveUpdate
        from repro.fleet.arena import TickPlane, write_result_columns
        from repro.streaming.drift import DriftReport
        from repro.streaming.live import LiveUpdate

        plane = TickPlane()
        try:
            batch = self.make_batch()[:2]
            recommendation = object()  # identity is what crosses ticks
            shipped: dict = {}

            def emissions_for(frame):
                return [
                    (
                        7,
                        FleetLiveUpdate(
                            customer_id="cust-a",
                            update=LiveUpdate(
                                n_seen=12,
                                n_window=12,
                                refreshed=True,
                                drift=DriftReport(
                                    max_divergence=0.25,
                                    worst_sku="GP_S_Gen5_2",
                                    threshold=0.1,
                                ),
                                recommendation=recommendation,
                            ),
                        ),
                    ),
                    (
                        9,
                        FleetLiveUpdate(
                            customer_id="cust-b",
                            update=None,
                            error="ValueError: boom",
                        ),
                    ),
                ]

            frame = plane.pack_tick(0, 0, batch)
            reply = write_result_columns(frame, emissions_for(frame), shipped)
            decoded = dict(plane.read_results(reply))
            update = decoded[7].update
            assert update.n_seen == 12 and update.refreshed
            assert update.drift.worst_sku == "GP_S_Gen5_2"
            assert update.recommendation is recommendation
            assert decoded[9].error == "ValueError: boom"
            assert decoded[9].update is None
            # Second tick: the unchanged recommendation crosses as a
            # token and resolves from the parent's memo by identity.
            frame2 = plane.pack_tick(0, 1, batch)
            reply2 = write_result_columns(frame2, emissions_for(frame2), shipped)
            assert reply2.sidecar[0][3] == 1  # token, not the object
            decoded2 = dict(plane.read_results(reply2))
            assert decoded2[7].update.recommendation is recommendation
        finally:
            plane.close()

    def test_read_results_of_a_dropped_shard_is_stale(self):
        from repro.fleet import FleetLiveUpdate
        from repro.fleet.arena import TickPlane, write_result_columns

        plane = TickPlane()
        try:
            batch = self.make_batch()[:1]
            frame = plane.pack_tick(3, 0, batch)
            reply = write_result_columns(
                frame,
                [(7, FleetLiveUpdate(customer_id="cust-a", update=None, error="x"))],
                {},
            )
            plane.drop_shard(3)
            assert plane.read_results(reply) is None
        finally:
            plane.close()
