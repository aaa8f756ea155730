"""Closed integer intervals and interval sets.

The interval encoding of a partial order (Agrawal, Borgida and Jagadish,
SIGMOD 1989, as used in Section II-B of the paper) associates each DAG node
with one ``[minpost, post]`` interval from a spanning tree and, after
propagation (Section III-B), with a *set* of intervals.  TSS's t-preference
check reduces to containment tests between such interval sets.

Intervals here are closed ranges over positive integers (postorder numbers).
:class:`IntervalSet` keeps its members normalized: sorted, non-overlapping and
non-adjacent, which makes containment checks and merging cheap and gives a
canonical representation (two interval sets cover the same integers iff they
are equal).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.exceptions import PartialOrderError


@dataclass(frozen=True, order=True, slots=True)
class Interval:
    """A closed integer interval ``[low, high]`` with ``low <= high``."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise PartialOrderError(f"invalid interval [{self.low}, {self.high}]")

    def __contains__(self, point: int) -> bool:
        return self.low <= point <= self.high

    def contains(self, other: "Interval") -> bool:
        """True iff ``other`` lies fully inside (or coincides with) this interval."""
        return self.low <= other.low and other.high <= self.high

    def overlaps(self, other: "Interval") -> bool:
        """True iff the two intervals share at least one integer."""
        return self.low <= other.high and other.low <= self.high

    def adjacent(self, other: "Interval") -> bool:
        """True iff the intervals touch without overlapping (e.g. [1,2] and [3,4])."""
        return self.high + 1 == other.low or other.high + 1 == self.low

    def merge(self, other: "Interval") -> "Interval":
        """Union of two overlapping or adjacent intervals."""
        if not (self.overlaps(other) or self.adjacent(other)):
            raise PartialOrderError(f"cannot merge disjoint intervals {self} and {other}")
        return Interval(min(self.low, other.low), max(self.high, other.high))

    def width(self) -> int:
        """Number of integers covered."""
        return self.high - self.low + 1

    def __str__(self) -> str:
        return f"[{self.low},{self.high}]"


class IntervalSet:
    """A canonical set of disjoint, non-adjacent, sorted closed intervals.

    The constructor accepts any iterable of :class:`Interval` (or ``(low,
    high)`` tuples) and normalizes them by merging overlaps and adjacencies.
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[Interval | tuple[int, int]] = ()) -> None:
        parsed = [iv if isinstance(iv, Interval) else Interval(*iv) for iv in intervals]
        self._intervals: tuple[Interval, ...] = tuple(_normalize(parsed))

    # ------------------------------------------------------------------ #
    # Collection protocol
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:
        return "IntervalSet(" + ", ".join(str(iv) for iv in self._intervals) + ")"

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return self._intervals

    # ------------------------------------------------------------------ #
    # Set-like operations
    # ------------------------------------------------------------------ #
    def union(self, other: "IntervalSet | Iterable[Interval]") -> "IntervalSet":
        return IntervalSet([*self._intervals, *other])

    def add(self, interval: Interval | tuple[int, int]) -> "IntervalSet":
        return IntervalSet([*self._intervals, interval])

    def contains_point(self, point: int) -> bool:
        """Binary search for membership of a single integer."""
        lo, hi = 0, len(self._intervals) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            interval = self._intervals[mid]
            if point < interval.low:
                hi = mid - 1
            elif point > interval.high:
                lo = mid + 1
            else:
                return True
        return False

    def contains_interval(self, other: Interval) -> bool:
        """True iff some member interval fully contains ``other``."""
        lo, hi = 0, len(self._intervals) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            interval = self._intervals[mid]
            if other.low < interval.low:
                hi = mid - 1
            elif other.low > interval.high:
                lo = mid + 1
            else:
                return other.high <= interval.high
        return False

    def covers(self, other: "IntervalSet") -> bool:
        """True iff every interval of ``other`` is contained in some interval here.

        This is exactly the paper's t-preference test (Definition 1) between
        the interval sets of two PO values.
        """
        return all(self.contains_interval(iv) for iv in other)

    def bounding_interval(self) -> Interval:
        """The minimum bounding interval (MBI) covering the whole set.

        ``A.covers(B)`` implies ``A.bounding_interval().contains(
        B.bounding_interval())`` — the cheap necessary condition the batched
        t-dominance kernels test before the exact containment matrix.
        """
        if not self._intervals:
            raise PartialOrderError("an empty interval set has no bounding interval")
        return Interval(self._intervals[0].low, self._intervals[-1].high)

    def points(self) -> list[int]:
        """Materialize every covered integer (small domains only; used in tests)."""
        return [p for iv in self._intervals for p in range(iv.low, iv.high + 1)]

    def total_width(self) -> int:
        return sum(iv.width() for iv in self._intervals)

    @classmethod
    def from_points(cls, points: Iterable[int]) -> "IntervalSet":
        """Build the canonical interval set covering exactly ``points``."""
        ordered = sorted(set(points))
        intervals: list[Interval] = []
        start: int | None = None
        previous: int | None = None
        for point in ordered:
            if start is None:
                start = previous = point
            elif point == previous + 1:  # type: ignore[operator]
                previous = point
            else:
                intervals.append(Interval(start, previous))  # type: ignore[arg-type]
                start = previous = point
        if start is not None:
            intervals.append(Interval(start, previous))  # type: ignore[arg-type]
        return cls(intervals)


def _normalize(intervals: list[Interval]) -> list[Interval]:
    """Sort and merge overlapping/adjacent intervals into canonical form."""
    if not intervals:
        return []
    ordered = sorted(intervals, key=lambda iv: (iv.low, iv.high))
    merged: list[Interval] = [ordered[0]]
    for interval in ordered[1:]:
        last = merged[-1]
        if interval.overlaps(last) or interval.adjacent(last):
            merged[-1] = last.merge(interval)
        else:
            merged.append(interval)
    return merged
