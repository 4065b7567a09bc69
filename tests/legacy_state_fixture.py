"""Writes live-assessment state blobs in earlier stored formats.

Each fixture is the ``encode_state`` blob of one SQL DB customer after
40 samples at window 24.  The compatibility tests in
``tests/test_store.py`` decode each one, restore it and continue the
stream.

* ``tests/data/live_state_w24_legacy.bin`` (``legacy``): an array-framed
  (``DSF1``) blob as stored before snapshots stopped persisting
  derivable state: its estimator state carries the violation ring, and
  its recommendation's curve pickles the deployment's 276 candidate
  SKUs by value.  Written by commit 1884422, the last one with that
  format.
* ``tests/data/live_state_w24_dsf1_exact.bin`` (``exact``): the
  ring-free ``DSF1`` blob stored after that and before blobs became
  plain pickles.  No violation ring, and the curve pickles its
  candidates by catalog reference.  Written by commit fb15a56, the
  last one with that format.
* ``tests/data/live_state_w24_dsf1_streaming.bin``: the same format,
  written by commit fb15a56 in the streaming profile mode (the blob
  carries the sliding profile stats and quantile sketches that mode
  kept).
* ``tests/data/live_state_w24_pickle_streaming.bin``: a plain pickle
  written in the streaming profile mode by commit 54b9a98, the last
  one with that mode.

This script regenerates only the two exact-mode fixtures, each with
the code that wrote it::

    mkdir -p /tmp/repro-1884422 /tmp/repro-fb15a56
    git archive 1884422 src | tar -x -C /tmp/repro-1884422
    git archive fb15a56 src | tar -x -C /tmp/repro-fb15a56
    PYTHONPATH=/tmp/repro-1884422/src python tests/legacy_state_fixture.py legacy
    PYTHONPATH=/tmp/repro-fb15a56/src python tests/legacy_state_fixture.py exact

The streaming-mode fixtures need this script as of commit 54b9a98,
whose ``fixture_recommender`` still passed ``profile_mode``.  From a
``git archive 54b9a98 src tests`` checkout, the ``DSF1`` one is
``PYTHONPATH=/tmp/repro-fb15a56/src python tests/legacy_state_fixture.py
streaming``, and the plain pickle is that checkout's own
``encode_state`` of ``fixture_recommender(engine, "streaming")`` after
``fixture_feed()[:N_HEAD]``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro.catalog import DeploymentType, SkuCatalog
from repro.core import DopplerEngine
from repro.store import encode_state
from repro.streaming import LiveRecommender
from repro.telemetry import PerfDimension

DATA = Path(__file__).resolve().parent / "data"
FIXTURE = DATA / "live_state_w24_legacy.bin"
#: The ring-free ``DSF1`` fixture, written in exact profile mode.
RING_FREE_FIXTURE = DATA / "live_state_w24_dsf1_exact.bin"
#: Blobs written in the removed streaming profile mode, by format.
STREAMING_FIXTURES = {
    "dsf1": DATA / "live_state_w24_dsf1_streaming.bin",
    "pickle": DATA / "live_state_w24_pickle_streaming.bin",
}
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


def main(argv: list[str]) -> None:
    paths = {"legacy": FIXTURE, "exact": RING_FREE_FIXTURE}
    names = argv or ["legacy"]
    unknown = sorted(set(names) - set(paths))
    if unknown:
        raise SystemExit(f"unknown fixture {unknown}; choose from {sorted(paths)}")
    engine = DopplerEngine(catalog=SkuCatalog.default())
    for name in names:
        live = fixture_recommender(engine)
        for sample in fixture_feed()[:N_HEAD]:
            live.observe(sample)
        path = paths[name]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(encode_state(live.snapshot_state()))
        print(f"wrote {path} ({path.stat().st_size:,} bytes)")


if __name__ == "__main__":
    main(sys.argv[1:])
