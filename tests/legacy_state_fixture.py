"""Writes a live-assessment state blob in the earlier stored format.

``tests/data/live_state_w24_legacy.bin`` is the ``encode_state`` blob
of one SQL DB customer after 40 samples at window 24, as stored before
snapshots stopped persisting derivable state: its estimator state
carries the violation ring, and its recommendation's curve pickles
the deployment's 276 candidate SKUs by value.  The compatibility test
in ``tests/test_store.py`` decodes it, restores it and continues the
stream.  The blob was written by commit 1884422, the last one with the
earlier format, so regenerate it only with that code::

    mkdir -p /tmp/repro-1884422
    git archive 1884422 src | tar -x -C /tmp/repro-1884422
    PYTHONPATH=/tmp/repro-1884422/src python tests/legacy_state_fixture.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.catalog import DeploymentType, SkuCatalog
from repro.core import DopplerEngine
from repro.store import encode_state
from repro.streaming import LiveRecommender
from repro.telemetry import PerfDimension

FIXTURE = Path(__file__).resolve().parent / "data" / "live_state_w24_legacy.bin"
WINDOW = 24
#: Samples observed before the snapshot: past the window, so the ring
#: has wrapped.
N_HEAD = 40


def fixture_feed() -> list[dict[PerfDimension, float]]:
    """64 six-dimension DB samples whose load steps up at sample 32."""
    rng = np.random.default_rng(2024)
    samples = []
    for index in range(64):
        scale = 1.0 if index < 32 else 3.0
        samples.append(
            {
                PerfDimension.CPU: float(scale * abs(rng.normal(2.0, 0.6))),
                PerfDimension.MEMORY: float(scale * abs(rng.normal(8.0, 2.0))),
                PerfDimension.IOPS: float(scale * abs(rng.normal(500.0, 150.0))),
                PerfDimension.IO_LATENCY: float(abs(rng.normal(6.0, 1.0)) + 0.5),
                PerfDimension.LOG_RATE: float(scale * abs(rng.normal(3.0, 1.0))),
                PerfDimension.STORAGE: 150.0,
            }
        )
    return samples


def fixture_recommender(engine: DopplerEngine) -> LiveRecommender:
    return LiveRecommender(
        engine,
        DeploymentType.SQL_DB,
        window=WINDOW,
        min_refresh_samples=8,
        entity_id="legacy-cust",
    )


def main() -> None:
    live = fixture_recommender(DopplerEngine(catalog=SkuCatalog.default()))
    for sample in fixture_feed()[:N_HEAD]:
        live.observe(sample)
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_bytes(encode_state(live.snapshot_state()))
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size:,} bytes)")


if __name__ == "__main__":
    main()
