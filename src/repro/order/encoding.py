"""The TSS domain encoding: topological ordinal + exact interval set per value.

:class:`DomainEncoding` bundles everything the TSS framework (Section III-B)
attaches to a partially ordered domain:

* ``A_TO`` — the totally ordered integer domain obtained by topologically
  sorting the DAG; a value's ``ordinal`` is its 1-based position.  Because the
  sort respects every DAG edge, visiting points in ``A_TO`` order guarantees
  the *precedence* property.
* ``intervals`` — the exact interval set of every value (spanning tree
  ``[minpost, post]`` labels plus propagation along non-tree edges), which
  makes the t-preference check *exact*: no false hits, no false misses.
* ``closure`` — the same reachability as one int bitset per topological
  code, the form the dominance kernels test against.

The same object also exposes the pieces needed by the Chan et al. baselines:
the single spanning-tree interval of each value (their incomplete mapping to
``I1 x I2``) and the strata information (completely/partially covered values
and uncovered levels).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass
from functools import cached_property

from repro.exceptions import UnknownValueError
from repro.order.dag import PartialOrderDAG
from repro.order.intervals import Interval, IntervalSet
from repro.order.propagation import propagate_intervals
from repro.order.spanning_tree import SpanningTree, extract_spanning_tree
from repro.order.toposort import ordinal_map, topological_sort
from repro.order.uncovered import uncovered_levels

Value = Hashable


@dataclass(frozen=True)
class DomainEncoding:
    """All per-value information TSS derives from a partially ordered domain."""

    dag: PartialOrderDAG
    order: tuple[Value, ...]
    tree: SpanningTree

    # ------------------------------------------------------------------ #
    # Topological (A_TO) side — precedence
    # ------------------------------------------------------------------ #
    @cached_property
    def ordinals(self) -> dict[Value, int]:
        """1-based ordinal of every value in the topological sort (its A_TO value)."""
        return ordinal_map(self.order)

    def ordinal(self, value: Value) -> int:
        try:
            return self.ordinals[value]
        except KeyError as exc:
            raise UnknownValueError(value) from exc

    def value_at(self, ordinal: int) -> Value:
        """Inverse of :meth:`ordinal` (1-based)."""
        if not 1 <= ordinal <= len(self.order):
            raise UnknownValueError(ordinal)
        return self.order[ordinal - 1]

    @property
    def cardinality(self) -> int:
        """Size of the domain (equals ``|A_TO|`` and ``|I1| = |I2|``)."""
        return len(self.order)

    @cached_property
    def closure(self) -> tuple[int, ...]:
        """Preferred-or-equal closure per topological code, as int bitsets.

        Bit ``j`` of ``closure[i]`` is set iff ``order[i]`` is preferred over
        or equal to ``order[j]`` (DAG reachability).  A value's successors
        come later in the topological order, so one reverse sweep ORs their
        finished rows; only codes ``>= i`` are ever set in row ``i``.
        """
        codes = {value: code for code, value in enumerate(self.order)}
        rows = [0] * len(self.order)
        for code in range(len(self.order) - 1, -1, -1):
            bits = 1 << code
            for successor in self.dag.successors(self.order[code]):
                bits |= rows[codes[successor]]
            rows[code] = bits
        return tuple(rows)

    # ------------------------------------------------------------------ #
    # Interval (I1 x I2) side — exactness
    # ------------------------------------------------------------------ #
    @cached_property
    def intervals(self) -> dict[Value, IntervalSet]:
        """Exact interval set of every value (tree intervals + propagation)."""
        return propagate_intervals(self.tree)

    def interval_set(self, value: Value) -> IntervalSet:
        try:
            return self.intervals[value]
        except KeyError as exc:
            raise UnknownValueError(value) from exc

    def tree_interval(self, value: Value) -> Interval:
        """The single spanning-tree ``[minpost, post]`` interval (baseline mapping)."""
        return self.tree.interval(value)

    def post_of(self, value: Value) -> int:
        """The value's postorder number in the spanning tree.

        ``x`` is t-preferred over (or equal to) ``y`` exactly when
        ``post_of(y)`` is covered by ``interval_set(x)`` — the cheap membership
        form of the t-preference check used on the algorithms' hot paths.
        """
        try:
            return self.tree.post[value]
        except KeyError as exc:
            raise UnknownValueError(value) from exc

    # ------------------------------------------------------------------ #
    # Preference checks
    # ------------------------------------------------------------------ #
    def t_prefers(self, better: Value, worse: Value) -> bool:
        """Exact strict preference via interval containment (Definition 1).

        Equivalent to DAG reachability: ``better`` is t-preferred over
        ``worse`` iff every interval of ``worse`` is contained in some
        interval of ``better`` (and the values differ).
        """
        if better == worse:
            return False
        return self.interval_set(better).covers(self.interval_set(worse))

    def t_prefers_or_equal(self, better: Value, worse: Value) -> bool:
        return better == worse or self.t_prefers(better, worse)

    def m_prefers(self, better: Value, worse: Value) -> bool:
        """Spanning-tree-only preference (the baselines' inexact relation)."""
        return self.tree.tree_prefers(better, worse)

    # ------------------------------------------------------------------ #
    # Range helpers (used for R-tree MBBs over the A_TO axis)
    # ------------------------------------------------------------------ #
    def values_in_range(self, low_ordinal: int, high_ordinal: int) -> list[Value]:
        """Domain values whose ordinal lies in ``[low_ordinal, high_ordinal]``."""
        low = max(1, low_ordinal)
        high = min(self.cardinality, high_ordinal)
        return [self.order[i - 1] for i in range(low, high + 1)]

    def range_interval_set(self, low_ordinal: int, high_ordinal: int) -> IntervalSet:
        """Merged interval set of all values in an ``A_TO`` ordinal range.

        A point t-dominates an MBB on the PO dimension only if its interval
        set covers this merged set (i.e. it is preferred over *every* value
        the MBB may contain).
        """
        pieces: list[Interval] = []
        for value in self.values_in_range(low_ordinal, high_ordinal):
            pieces.extend(self.interval_set(value).intervals)
        return IntervalSet(pieces)

    # ------------------------------------------------------------------ #
    # Strata information for the SDC / SDC+ baselines
    # ------------------------------------------------------------------ #
    @cached_property
    def uncovered(self) -> dict[Value, int]:
        """Uncovered level of every value (0 = completely covered)."""
        return uncovered_levels(self.tree)

    def is_completely_covered(self, value: Value) -> bool:
        return self.uncovered[value] == 0

    @cached_property
    def max_uncovered_level(self) -> int:
        return max(self.uncovered.values(), default=0)


def encode_domain(
    dag: PartialOrderDAG,
    *,
    strategy: str = "kahn",
    parent_choice: str | Callable[[Value, tuple[Value, ...]], Value] = "first",
) -> DomainEncoding:
    """Build the :class:`DomainEncoding` of a partially ordered domain.

    Parameters
    ----------
    dag:
        The Hasse diagram / preference DAG of the domain.
    strategy:
        Topological sort strategy (see :func:`repro.order.toposort.topological_sort`).
    parent_choice:
        Spanning-tree parent selection (see
        :func:`repro.order.spanning_tree.extract_spanning_tree`).
    """
    order = tuple(topological_sort(dag, strategy=strategy))
    tree = extract_spanning_tree(dag, parent_choice=parent_choice)
    return DomainEncoding(dag=dag, order=order, tree=tree)


def encode_domains(
    dags: Iterable[PartialOrderDAG],
    *,
    strategy: str = "kahn",
    parent_choice: str | Callable[[Value, tuple[Value, ...]], Value] = "first",
) -> list[DomainEncoding]:
    """Encode several PO domains with the same settings (one per PO attribute)."""
    return [encode_domain(dag, strategy=strategy, parent_choice=parent_choice) for dag in dags]
