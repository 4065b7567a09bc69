"""Tick plane of the process watch (:mod:`repro.fleet.arena`).

Ticks cross the worker queues as pickled sample lists and replies as
pickled result columns, with unchanged recommendations resolved from
the parent's memo.  The plane is how the process watch always runs:
the retired ``FleetEngine(kernel=..., zero_copy=...)`` arguments are
rejected, so no pass can be routed around it.
"""

from __future__ import annotations

import pickle

import pytest

from repro.catalog import SkuCatalog
from repro.core import DopplerEngine
from repro.fleet import FleetEngine


@pytest.fixture(scope="module")
def module_catalog() -> SkuCatalog:
    return SkuCatalog.default()


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
    """Unit contracts of the watch's reply columns and recommendation memo."""

    def test_result_columns_round_trip_and_memoized_recommendation(self):
        from repro.fleet import FleetLiveUpdate
        from repro.fleet.arena import TickPlane, write_result_columns
        from repro.streaming.drift import DriftReport
        from repro.streaming.live import LiveUpdate

        plane = TickPlane()
        recommendation = {"sku": "GP_Gen5_2"}  # stands in for a recommendation
        shipped: dict = {}
        emissions = [
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

        def cross(reply):
            # Replies reach the parent through the result queue's pickle.
            return pickle.loads(pickle.dumps(reply))

        decoded = dict(plane.read_results(cross(write_result_columns(emissions, shipped))))
        update = decoded[7].update
        assert update.n_seen == 12 and update.refreshed
        assert update.drift.worst_sku == "GP_S_Gen5_2"
        assert update.drift.max_divergence == 0.25
        assert update.recommendation == recommendation
        assert decoded[9].error == "ValueError: boom"
        assert decoded[9].update is None
        # Second tick: the unchanged recommendation crosses as a
        # token and resolves from the parent's memo by identity.
        reply2 = cross(write_result_columns(emissions, shipped))
        assert reply2.sidecar[0][3] == 1  # token, not the object
        decoded2 = dict(plane.read_results(reply2))
        assert decoded2[7].update.recommendation is update.recommendation
