"""Unit tests for price-performance curves."""

import copyreg
import pickle

import numpy as np
import pytest

from repro.catalog import DeploymentType
from repro.core import CurvePoint, CurveShape, PricePerformanceCurve
from repro.core.ppm import PricePerformanceModeler

from .conftest import full_trace, make_sku


def curve_from(probs, vcores=(2, 4, 8, 16)):
    skus = [make_sku(v) for v in vcores]
    return PricePerformanceCurve.from_probabilities(skus, np.asarray(probs, dtype=float))


class TestConstruction:
    def test_sorted_by_price(self):
        skus = [make_sku(8), make_sku(2), make_sku(4)]
        curve = PricePerformanceCurve.from_probabilities(skus, np.array([0.0, 0.5, 0.2]))
        assert [p.sku.vcores for p in curve] == [2, 4, 8]

    def test_monotone_enforcement(self):
        """A pricier SKU never scores below a cheaper one (paper Section 3.2)."""
        curve = curve_from([0.2, 0.5, 0.1, 0.0])
        scores = curve.scores()
        assert np.all(np.diff(scores) >= 0)
        # The dominated point is lifted to the cheaper point's score.
        assert curve.points[1].score == pytest.approx(0.8)
        # Raw probabilities preserved for inspection.
        assert curve.points[1].throttling_probability == pytest.approx(0.5)

    def test_probability_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="probabilities"):
            PricePerformanceCurve.from_probabilities([make_sku(2)], np.array([0.1, 0.2]))

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="0, 1"):
            curve_from([0.0, 1.5, 0.0, 0.0])

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            PricePerformanceCurve(points=())

    def test_unsorted_points_rejected(self):
        good = curve_from([0.5, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="sorted"):
            PricePerformanceCurve(points=tuple(reversed(good.points)))

    def test_non_monotone_points_rejected(self):
        points = list(curve_from([0.5, 0.2, 0.0, 0.0]).points)
        points[1] = points[1]._replace(score=0.1)
        with pytest.raises(ValueError, match="monotone"):
            PricePerformanceCurve(points=tuple(points))

    def test_points_constructor_round_trips(self):
        curve = curve_from([0.5, 0.7, 0.0, 0.0])
        rebuilt = PricePerformanceCurve(points=curve.points, entity_id=curve.entity_id)
        assert rebuilt == curve
        assert rebuilt.points == curve.points


def per_point_construction(skus, probabilities):
    """Points as curves built them before they were array-backed."""
    probabilities = np.asarray(probabilities, dtype=float)
    prices = np.array([sku.monthly_price for sku in skus])
    vcores = np.array([sku.vcores for sku in skus])
    order = np.lexsort((vcores, prices))
    raw = np.clip(probabilities[order], 0.0, 1.0)
    scores = np.maximum.accumulate(1.0 - raw)
    return tuple(
        CurvePoint(
            sku=skus[index],
            monthly_price=float(prices[index]),
            throttling_probability=float(raw[rank]),
            score=float(scores[rank]),
        )
        for rank, index in enumerate(order)
    )


class TestArrayBacked:
    SKUS = [make_sku(v) for v in (8, 2, 16, 4, 32)]
    PROBS = [0.1, 0.6, 0.0, 0.7, 1.0 + 1e-10]

    def curve(self, entity_id="unnamed"):
        return PricePerformanceCurve.from_probabilities(
            self.SKUS, np.array(self.PROBS), entity_id=entity_id
        )

    def test_points_equal_per_point_construction(self):
        curve = self.curve()
        expected = per_point_construction(self.SKUS, self.PROBS)
        assert curve.points == expected
        assert tuple(curve) == expected
        assert tuple(curve.point_at(rank) for rank in range(len(curve))) == expected
        assert curve.point_at(-1) == expected[-1]
        assert curve.points is not curve.points  # built per access, not cached

    def test_price_ordered_assembly_matches_sorting_constructor(self):
        ordered = sorted(self.SKUS, key=lambda sku: (sku.monthly_price, sku.vcores))
        prices = [sku.monthly_price for sku in ordered]
        probs = np.array([0.6, 0.7, 0.1, 0.0, 0.3])
        full = PricePerformanceCurve.from_price_ordered(ordered, prices, probs, "e")
        assert full == PricePerformanceCurve.from_probabilities(ordered, probs, "e")
        index = [0, 2, 3]
        subset = PricePerformanceCurve.from_price_ordered(
            ordered, prices, probs[index], "e", index=index
        )
        expected = PricePerformanceCurve.from_probabilities(
            [ordered[i] for i in index], probs[index], "e"
        )
        assert subset == expected
        assert [point.sku for point in subset] == [ordered[i] for i in index]

    def test_point_fields_are_python_floats(self, small_catalog):
        """Digests format values with ``!r``; numpy 2 reprs np.float64 apart."""
        modeled = PricePerformanceModeler(small_catalog).build_curve(
            full_trace(n=100, cpu_level=3.0), DeploymentType.SQL_DB
        )
        for curve in (self.curve(), modeled):
            points = [
                *curve.points,
                curve.point_at(0),
                curve.point_for(curve.point_at(1).sku.name),
                curve.cheapest_at_least(0.0),
            ]
            for point in points:
                for value in point[1:]:
                    assert type(value) is float
                    assert "np." not in repr(value)

    def test_stored_arrays_are_read_only(self):
        curve = self.curve()
        for array in (curve.scores(), curve.prices()):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.5
        with pytest.raises(AttributeError):
            curve.entity_id = "other"

    def test_pickle_round_trip_keeps_value_and_read_only_arrays(self):
        curve = self.curve("pickled")
        clone = pickle.loads(pickle.dumps(curve))
        assert clone == curve
        assert hash(clone) == hash(curve)
        assert clone.points == curve.points
        assert clone.entity_id == "pickled"
        assert not clone.scores().flags.writeable
        assert not clone.prices().flags.writeable

    def test_equality_is_by_value(self):
        curve = self.curve()
        twin = self.curve()
        assert curve == twin and curve is not twin
        assert hash(curve) == hash(twin)
        assert curve != self.curve("other")
        probs = list(self.PROBS)
        probs[0] = 0.2
        assert curve != PricePerformanceCurve.from_probabilities(self.SKUS, np.array(probs))
        assert curve != curve.points

    def test_points_pickle_of_earlier_curves_restores(self):
        """Checkpoints pickled before curves were array-backed hold points.

        The earlier frozen dataclass pickled as a bare instance plus its
        field dict, which unpickling hands to ``__setstate__``.
        """
        curve = self.curve()
        state = {"points": curve.points, "entity_id": "legacy"}

        class EarlierCurve:
            def __reduce__(self):
                return (copyreg._reconstructor, (PricePerformanceCurve, object, None), state)

        restored = pickle.loads(pickle.dumps(EarlierCurve()))
        assert type(restored) is PricePerformanceCurve
        assert restored == PricePerformanceCurve(curve.points, entity_id="legacy")
        assert not restored.scores().flags.writeable


class TestPicklingByReference:
    """Modeler curves pickle their candidates by catalog key, others by value."""

    @staticmethod
    def by_reference(blob: bytes) -> bool:
        return b"_from_reference" in blob and b"_from_fields" not in blob

    def test_modeler_curves_pickle_the_catalog_key(self, small_catalog):
        ppm = PricePerformanceModeler(small_catalog)
        curve = ppm.build_curve(full_trace(n=100, cpu_level=3.0), DeploymentType.SQL_DB)
        blob = pickle.dumps(curve)
        assert self.by_reference(blob)
        assert ppm.catalog_signature.encode() in blob
        assert b"SkuSpec" not in blob
        clone = pickle.loads(blob)
        assert clone == curve
        assert clone._candidates is ppm.candidates(DeploymentType.SQL_DB)
        assert not clone.scores().flags.writeable

    def test_modelers_over_equal_catalogs_share_one_tuple(self, small_catalog):
        from repro.catalog import SkuCatalog

        first = PricePerformanceModeler(small_catalog)
        copied = SkuCatalog.from_skus(pickle.loads(pickle.dumps(small_catalog.skus)))
        second = PricePerformanceModeler(copied)
        unpickled = pickle.loads(pickle.dumps(first))
        for deployment in DeploymentType:
            shared = first.candidates(deployment)
            assert second.candidates(deployment) is shared
            assert unpickled.candidates(deployment) is shared

    def test_catalogs_differing_in_any_field_get_distinct_keys(self, small_catalog):
        import dataclasses

        from repro.catalog import HardwareGeneration, SkuCatalog, catalog_signature

        base = catalog_signature(small_catalog)
        first, *rest = small_catalog.skus
        variants = [
            dataclasses.replace(first, price_per_hour=first.price_per_hour + 0.01),
            dataclasses.replace(first, hardware=HardwareGeneration.PREMIUM_SERIES),
            dataclasses.replace(
                first, limits=first.limits.with_iops(first.limits.max_data_iops + 1)
            ),
            dataclasses.replace(
                first,
                limits=dataclasses.replace(
                    first.limits, min_io_latency_ms=first.limits.min_io_latency_ms + 1
                ),
            ),
        ]
        signatures = {
            catalog_signature(SkuCatalog.from_skus([variant, *rest]))
            for variant in variants
        }
        assert base not in signatures and len(signatures) == len(variants)

    def test_point_curves_round_trip_by_value(self):
        curve = curve_from([0.3, 0.1, 0.0, 0.0])
        explicit = PricePerformanceCurve(curve.points, entity_id="explicit")
        for value in (curve, explicit):
            blob = pickle.dumps(value)
            assert b"_from_fields" in blob and b"_from_reference" not in blob
            assert pickle.loads(blob) == value

    def test_ad_hoc_skus_over_catalog_specs_round_trip_by_value(self, small_catalog):
        ppm = PricePerformanceModeler(small_catalog)
        skus = list(ppm.candidates(DeploymentType.SQL_DB))  # a new sequence
        curve = PricePerformanceCurve.from_probabilities(skus, np.linspace(0.5, 0.0, len(skus)))
        blob = pickle.dumps(curve)
        assert b"_from_fields" in blob and b"_from_reference" not in blob
        assert pickle.loads(blob) == curve

    def test_unknown_key_raises_lookup_error_naming_it(self):
        curve = curve_from([0.2, 0.0, 0.0, 0.0])
        fields = (curve._index, curve._prices, curve._raw, curve._scores, "x")
        key = ("0" * 32, "SQL_DB")
        with pytest.raises(LookupError, match="0" * 32):
            PricePerformanceCurve._from_reference(key, *fields)

    def test_fresh_interpreter_resolves_after_unpickling_an_engine(self, tmp_path):
        """Unpickling an engine interns its catalog in a new process.

        Before the engine arrives, the by-reference curve cannot
        resolve; after it, the curve equals the sender's.
        """
        import subprocess
        import sys
        from pathlib import Path

        from repro.catalog import SkuCatalog
        from repro.core import DopplerEngine

        engine = DopplerEngine(catalog=SkuCatalog.default())
        curve = engine.ppm.build_curve(
            full_trace(n=100, cpu_level=3.0), DeploymentType.SQL_DB
        )
        (tmp_path / "engine.pkl").write_bytes(pickle.dumps(engine))
        (tmp_path / "curve.pkl").write_bytes(pickle.dumps(curve))
        (tmp_path / "points.pkl").write_bytes(pickle.dumps((curve.points, curve.entity_id)))
        script = (
            "import pickle, sys\n"
            "from pathlib import Path\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "folder = Path(sys.argv[2])\n"
            "try:\n"
            "    pickle.loads((folder / 'curve.pkl').read_bytes())\n"
            "except LookupError:\n"
            "    pass\n"
            "else:\n"
            "    sys.exit('resolved without an engine')\n"
            "pickle.loads((folder / 'engine.pkl').read_bytes())\n"
            "curve = pickle.loads((folder / 'curve.pkl').read_bytes())\n"
            "points, entity_id = pickle.loads((folder / 'points.pkl').read_bytes())\n"
            "assert curve.points == points and curve.entity_id == entity_id\n"
            "print('resolved', len(curve))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        result = subprocess.run(
            [sys.executable, "-c", script, src, str(tmp_path)],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == f"resolved {len(curve)}"


class TestShapes:
    def test_flat(self):
        assert curve_from([0.0, 0.0, 0.0, 0.0]).shape() is CurveShape.FLAT

    def test_simple(self):
        assert curve_from([1.0, 1.0, 0.0, 0.0]).shape() is CurveShape.SIMPLE

    def test_complex(self):
        assert curve_from([0.6, 0.3, 0.1, 0.0]).shape() is CurveShape.COMPLEX

    def test_all_throttled_is_complex_not_simple(self):
        # A bifurcation needs a 100 % side to be a "clear choice".
        assert curve_from([1.0, 1.0, 1.0, 1.0]).shape() is not CurveShape.FLAT


class TestSelection:
    def test_cheapest_full_performance(self):
        curve = curve_from([0.6, 0.2, 0.0, 0.0])
        point = curve.cheapest_full_performance()
        assert point.sku.vcores == 8

    def test_cheapest_full_performance_none(self):
        assert curve_from([0.5, 0.4, 0.3, 0.2]).cheapest_full_performance() is None

    def test_cheapest_at_least(self):
        curve = curve_from([0.6, 0.2, 0.1, 0.0])
        assert curve.cheapest_at_least(0.75).sku.vcores == 4
        assert curve.cheapest_at_least(0.95).sku.vcores == 16

    def test_position_and_lookup(self):
        curve = curve_from([0.0, 0.0, 0.0, 0.0])
        name = curve.points[2].sku.name
        assert curve.position_of(name) == 2
        assert curve.point_for(name).sku.name == name

    def test_missing_sku_raises(self):
        curve = curve_from([0.0, 0.0, 0.0, 0.0])
        with pytest.raises(KeyError):
            curve.position_of("nope")
        with pytest.raises(KeyError):
            curve.point_for("nope")

    def test_render_ascii_smoke(self):
        text = curve_from([0.6, 0.2, 0.1, 0.0]).render_ascii(width=30, height=8)
        assert "o" in text
        assert "$" in text

    def test_scores_and_prices_aligned(self):
        curve = curve_from([0.5, 0.0, 0.0, 0.0])
        assert curve.scores().shape == curve.prices().shape == (4,)
