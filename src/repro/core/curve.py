"""Price-performance curves (paper Section 3.2, Figures 4, 5, 8).

A price-performance curve relates the monthly price of every relevant
SKU to its *score* -- one minus the throttling probability -- giving
the customer a personalized rank of cloud targets.  The paper enforces
monotonicity "so that customers cannot select SKUs that are more
expensive and less performant", and classifies curves into three
typical shapes (Section 5.1): *flat* (every SKU already satisfies the
workload), *simple* (a clean 0 %/100 % bifurcation) and *complex* (a
genuine ranking across many throttling levels).
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Sequence

import numpy as np

from ..catalog.models import SkuSpec

__all__ = ["CurvePoint", "CurveShape", "PricePerformanceCurve", "intern_candidates"]

#: Scores within this tolerance of the extremes count as exactly 0/1
#: for shape classification.
_SHAPE_TOLERANCE = 0.005

#: Candidate tuples curves pickle by reference, by content key.  The
#: table is module-level because unpickling has no caller to hand a
#: context through; it is content-addressed and insert-only, so
#: concurrent builders agree on one tuple per key and no caller sees
#: another's entries except as equal values.
_INTERNED: dict[tuple[str, str], tuple[SkuSpec, ...]] = {}
#: The key of each interned tuple, by identity.  Interned tuples live
#: for the process, so their ids are never reused.
_KEY_OF: dict[int, tuple[str, str]] = {}


def intern_candidates(
    key: tuple[str, str], candidates: Sequence[SkuSpec]
) -> tuple[SkuSpec, ...]:
    """The one candidate tuple of ``key``, interning ``candidates`` first.

    Curves whose candidates are an interned tuple pickle the key
    instead of the SKUs (:class:`PricePerformanceCurve`), so the key
    must identify the content: the modeler uses its catalog's
    :func:`~repro.catalog.catalog_signature` plus the deployment.  The
    first tuple interned under a key wins; later callers get it back.
    """
    if not candidates:
        return ()
    interned = _INTERNED.setdefault(key, tuple(candidates))
    _KEY_OF[id(interned)] = key
    return interned


class CurveShape(enum.Enum):
    """The three typical price-performance curve shapes (Section 5.1)."""

    FLAT = "flat"
    SIMPLE = "simple"
    COMPLEX = "complex"


class CurvePoint(NamedTuple):
    """One SKU's position on a price-performance curve.

    A curve stores arrays, not points: a point is built on demand when
    it is read (:meth:`PricePerformanceCurve.point_at`, iteration), so
    a fleet pass pays for one point per customer -- the selected SKU --
    rather than one per candidate.  The numeric fields are plain Python
    floats.

    Attributes:
        sku: The cloud target.
        monthly_price: Monthly subscription cost (x axis).
        throttling_probability: Raw estimated ``P_n(SKU_i)``.
        score: Monotonicity-adjusted performance score ``1 - P``
            (y axis).  May exceed ``1 - throttling_probability`` when
            the running-max adjustment lifted a point dominated by a
            cheaper, better SKU.
    """

    sku: SkuSpec
    monthly_price: float
    throttling_probability: float
    score: float


class PricePerformanceCurve:
    """A monotone price-performance ranking of candidate SKUs.

    Array-backed: the curve holds a candidate tuple -- for curves the
    modeler builds, the deployment's candidate tuple, shared by every
    curve of that deployment -- plus read-only arrays aligned by price
    rank: each point's index into the candidates, its monthly price,
    its raw throttling probability and its monotone score.  Points are
    built on demand and never cached.  Curves are immutable values
    (cached curves are shared between customers): two curves are equal
    when their points and entity ids are.

    Pickling: a curve over an interned candidate tuple
    (:func:`intern_candidates` -- every modeler-built curve) pickles
    the tuple's content key with its arrays, not the SKUs; unpickling
    resolves the key against the receiving process's table, which any
    :class:`~repro.core.ppm.PricePerformanceModeler` over the same
    catalog fills when it is built or unpickled.  An unknown key
    raises :class:`LookupError`.  Every other curve -- explicit
    points, :meth:`from_probabilities` over ad-hoc SKUs -- pickles its
    SKUs by value.

    Attributes:
        entity_id: The assessed workload's identifier.
    """

    __slots__ = ("_candidates", "_index", "_prices", "_raw", "_scores", "entity_id")

    def __init__(self, points: Sequence[CurvePoint], entity_id: str = "unnamed") -> None:
        """A curve over explicit points.

        Args:
            points: Curve points sorted by monthly price ascending,
                with a monotone non-decreasing ``score``.
            entity_id: Workload identifier for reports.

        Raises:
            ValueError: If ``points`` is empty, unsorted by price or
                not monotone in score.
        """
        points = tuple(points)
        if not points:
            raise ValueError("a price-performance curve needs at least one point")
        prices = np.array([point.monthly_price for point in points], dtype=float)
        if np.any(prices[1:] < prices[:-1]):
            raise ValueError("curve points must be sorted by price ascending")
        scores = np.array([point.score for point in points], dtype=float)
        if np.any(scores[1:] < scores[:-1] - 1e-12):
            raise ValueError("curve scores must be monotone non-decreasing")
        self._adopt(
            tuple(point.sku for point in points),
            np.arange(len(points)),
            prices,
            np.array([point.throttling_probability for point in points], dtype=float),
            scores,
            entity_id,
        )

    @classmethod
    def from_probabilities(
        cls,
        skus: Sequence[SkuSpec],
        probabilities: np.ndarray,
        entity_id: str = "unnamed",
    ) -> "PricePerformanceCurve":
        """Build a curve from raw throttling probabilities.

        SKUs are sorted by price and the score is made monotone with a
        running maximum of ``1 - P`` (the paper's monotonicity
        enforcement): a SKU can never be ranked below a cheaper SKU
        that throttles less.

        Args:
            skus: Candidate SKUs in any order.
            probabilities: ``P_n(SKU_i)`` aligned with ``skus``.
            entity_id: Workload identifier for reports.
        """
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.shape != (len(skus),):
            raise ValueError(
                f"expected {len(skus)} probabilities, got shape {probabilities.shape}"
            )
        prices = np.array([sku.monthly_price for sku in skus], dtype=float)
        vcores = np.array([sku.vcores for sku in skus])
        # Stable (price, vcores) ordering; lexsort keys are applied
        # last-key-primary and each pass is stable, so ties preserve
        # input order exactly like sorted() with a key tuple.
        order = np.lexsort((vcores, prices))
        return cls._assemble(
            tuple(skus), order, prices[order], probabilities[order], entity_id
        )

    @classmethod
    def from_price_ordered(
        cls,
        candidates: Sequence[SkuSpec],
        monthly_prices: Sequence[float],
        probabilities: np.ndarray,
        entity_id: str = "unnamed",
        index: Sequence[int] | None = None,
    ) -> "PricePerformanceCurve":
        """Trusted fast constructor for already-price-ordered SKUs.

        The curve builders' assembly path: the caller guarantees
        ``candidates`` are sorted by (monthly price, vCores) -- catalog
        order is -- and supplies their precomputed monthly prices, so
        the sort and the per-SKU price lookups of
        :meth:`from_probabilities` disappear.  Produces bit-identical
        curves to :meth:`from_probabilities` for such input (same clip,
        same running max) and skips re-validating the ordering the
        caller established; misuse with unsorted SKUs is on the caller.

        Args:
            candidates: Price-ordered SKUs; kept by reference, so
                curves over one deployment share its candidate tuple.
            monthly_prices: Prices aligned with ``candidates``.
            probabilities: ``P_n(SKU_i)`` aligned with the curve's
                SKUs (``index`` order).
            entity_id: Workload identifier for reports.
            index: Ascending positions of the curve's SKUs in
                ``candidates``; all of them when omitted.
        """
        if index is None:
            index = np.arange(len(candidates))
        else:
            index = np.array(index, dtype=np.intp)
        return cls._assemble(
            candidates,
            index,
            np.asarray(monthly_prices, dtype=float)[index],
            np.asarray(probabilities, dtype=float),
            entity_id,
        )

    @classmethod
    def from_price_ordered_rows(
        cls,
        candidates: Sequence[SkuSpec],
        monthly_prices: Sequence[float],
        probabilities: np.ndarray,
        mask: np.ndarray,
        entity_ids: Sequence[str],
    ) -> "list[PricePerformanceCurve]":
        """:meth:`from_price_ordered` for many curves over one candidate tuple.

        Row ``i`` of ``probabilities`` holds a probability in
        ``[0, 1]`` for every candidate, and row ``i`` of the boolean
        ``mask`` picks curve ``i``'s SKUs (its ``index``, at least
        one).  The running max of ``1 - P`` runs once over the whole
        block -- candidates outside a row's mask held at ``-inf``, so
        each running max sees only its own SKUs -- and each curve then
        takes its row's slices, bit-identical to
        :meth:`from_price_ordered` over them (whose clip leaves
        in-range values as they are).  Curves align with
        ``entity_ids``.
        """
        prices = np.asarray(monthly_prices, dtype=float)
        scores = np.maximum.accumulate(
            np.where(mask, 1.0 - probabilities, -np.inf), axis=1
        )
        curves = []
        for row, row_scores, row_mask, entity_id in zip(
            probabilities, scores, mask, entity_ids
        ):
            index = row_mask.nonzero()[0]
            curves.append(
                cls._from_fields(
                    candidates,
                    index,
                    prices[index],
                    row[index],
                    row_scores[index],
                    entity_id,
                )
            )
        return curves

    @classmethod
    def _assemble(
        cls,
        candidates: Sequence[SkuSpec],
        index: np.ndarray,
        prices: np.ndarray,
        probabilities: np.ndarray,
        entity_id: str,
    ) -> "PricePerformanceCurve":
        """The one-curve assembly: clip, then a running max of ``1 - P``."""
        if probabilities.size and (
            probabilities.min() < -1e-9 or probabilities.max() > 1.0 + 1e-9
        ):
            raise ValueError("throttling probabilities must lie in [0, 1]")
        if not len(index):
            raise ValueError("a price-performance curve needs at least one point")
        raw = np.clip(probabilities, 0.0, 1.0)
        return cls._from_fields(
            candidates, index, prices, raw, np.maximum.accumulate(1.0 - raw), entity_id
        )

    @classmethod
    def _from_fields(
        cls, candidates, index, prices, raw, scores, entity_id
    ) -> "PricePerformanceCurve":
        """A curve over trusted fields; also the unpickling constructor."""
        curve = object.__new__(cls)
        curve._adopt(candidates, index, prices, raw, scores, entity_id)
        return curve

    def _adopt(self, candidates, index, prices, raw, scores, entity_id) -> None:
        """Set the fields, freezing the arrays the curve now owns."""
        for name, value in (
            ("_candidates", candidates),
            ("_index", index),
            ("_prices", prices),
            ("_raw", raw),
            ("_scores", scores),
            ("entity_id", entity_id),
        ):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PricePerformanceCurve):
            return NotImplemented
        return self.entity_id == other.entity_id and self.points == other.points

    def __hash__(self) -> int:
        return hash((self.points, self.entity_id))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(points={self.points!r}, entity_id={self.entity_id!r})"

    @classmethod
    def _from_reference(
        cls, key, index, prices, raw, scores, entity_id
    ) -> "PricePerformanceCurve":
        """The unpickling constructor of curves pickled by reference.

        Stored blobs name this constructor by its import path
        (``repro.core.curve.PricePerformanceCurve._from_reference``),
        as they name :meth:`_from_fields`: both are part of the stored
        format and must keep their names and signatures.

        Raises:
            LookupError: If no candidate tuple is interned under
                ``key`` in this process.
        """
        candidates = _INTERNED.get(key)
        if candidates is None:
            raise LookupError(
                f"no candidate set is interned under {key!r}; build a "
                "PricePerformanceModeler over the same catalog before "
                "unpickling curves that reference it"
            )
        return cls._from_fields(candidates, index, prices, raw, scores, entity_id)

    def __reduce__(self):
        fields = (self._index, self._prices, self._raw, self._scores, self.entity_id)
        key = _KEY_OF.get(id(self._candidates))
        if key is not None:
            return (type(self)._from_reference, (key, *fields))
        return (type(self)._from_fields, (self._candidates, *fields))

    def __setstate__(self, state: dict) -> None:
        """Adopt a pickle of the earlier points-backed curve.

        Checkpoints stored before curves were array-backed pickled the
        dataclass fields ``points`` and ``entity_id``.
        """
        legacy = PricePerformanceCurve(state["points"], state["entity_id"])
        for name in self.__slots__:
            object.__setattr__(self, name, getattr(legacy, name))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def points(self) -> tuple[CurvePoint, ...]:
        """Every point, cheapest first, built on each access."""
        candidates = self._candidates
        return tuple(
            CurvePoint(candidates[position], price, probability, score)
            for position, price, probability, score in zip(
                self._index.tolist(),
                self._prices.tolist(),
                self._raw.tolist(),
                self._scores.tolist(),
            )
        )

    def point_at(self, rank: int) -> CurvePoint:
        """The point at a price rank (0 = cheapest, -1 = priciest).

        Raises:
            IndexError: If ``rank`` is outside the curve.
        """
        return CurvePoint(
            self._candidates[self._index[rank]],
            float(self._prices[rank]),
            float(self._raw[rank]),
            float(self._scores[rank]),
        )

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self):
        return iter(self.points)

    def scores(self) -> np.ndarray:
        """Monotone scores by price rank (read-only)."""
        return self._scores

    def prices(self) -> np.ndarray:
        """Monthly prices by price rank (read-only)."""
        return self._prices

    def point_for(self, sku_name: str) -> CurvePoint:
        """The curve point of a given SKU.

        Raises:
            KeyError: If the SKU is not on this curve.
        """
        return self.point_at(self.position_of(sku_name))

    def position_of(self, sku_name: str) -> int:
        """Rank of a SKU on the curve (0 = cheapest).

        Raises:
            KeyError: If the SKU is not on this curve.
        """
        candidates = self._candidates
        for rank, position in enumerate(self._index.tolist()):
            if candidates[position].name == sku_name:
                return rank
        raise KeyError(sku_name)

    def shape(self) -> CurveShape:
        """Classify into flat / simple / complex (paper Section 5.1)."""
        scores = self._scores
        all_full = np.all(scores >= 1.0 - _SHAPE_TOLERANCE)
        if all_full:
            return CurveShape.FLAT
        at_extremes = np.all(
            (scores >= 1.0 - _SHAPE_TOLERANCE) | (scores <= _SHAPE_TOLERANCE)
        )
        if at_extremes and scores.max() >= 1.0 - _SHAPE_TOLERANCE:
            return CurveShape.SIMPLE
        return CurveShape.COMPLEX

    # ------------------------------------------------------------------
    # Selection helpers
    # ------------------------------------------------------------------
    def cheapest_full_performance(self) -> CurvePoint | None:
        """Cheapest point with (near-)zero throttling, or None."""
        return self.cheapest_at_least(1.0 - _SHAPE_TOLERANCE)

    def cheapest_at_least(self, score: float) -> CurvePoint | None:
        """Cheapest point whose score reaches ``score``, or None."""
        reached = np.flatnonzero(self._scores >= score)
        return self.point_at(int(reached[0])) if reached.size else None

    def render_ascii(self, width: int = 60, height: int = 12) -> str:
        """Plain-text rendering for the resource-use dashboard."""
        prices = self._prices
        scores = self._scores
        lo, hi = prices.min(), prices.max()
        span = hi - lo if hi > lo else 1.0
        grid = [[" "] * width for _ in range(height)]
        for price, score in zip(prices, scores):
            x = int((price - lo) / span * (width - 1))
            y = int((1.0 - score) * (height - 1))
            grid[y][x] = "o"
        lines = ["1.0 |" + "".join(grid[0])]
        lines += ["    |" + "".join(row) for row in grid[1:-1]]
        lines.append("0.0 |" + "".join(grid[-1]))
        lines.append("    +" + "-" * width)
        lines.append(f"     ${lo:,.0f}/mo{' ' * max(1, width - 20)}${hi:,.0f}/mo")
        return "\n".join(lines)

