"""An independent skyline oracle: checks a returned skyline in two directions.

The oracle shares no code with the program's dominance kernels.  It reads the
preference relation of each PO attribute from
:meth:`PartialOrderDAG.descendants` (the transitive closure) and compares TO
values with plain numpy broadcasting.

Dominance (the paper's, and ``repro.skyline.dominance.dominates_records``):
``s`` dominates ``r`` when ``s`` is no worse on every TO attribute (smaller is
better), equal or preferred on every PO attribute, and strictly better on at
least one attribute.

:meth:`SkylineOracle.check` accepts a returned id set ``S`` over the live rows
``R`` exactly when ``S == SKY(R)``:

* every returned id is a live row, listed once;
* (a) no returned row is dominated by a live row;
* (b) every other live row is dominated by some returned row.

Check (a) is run as "no returned row is dominated by another returned row".
Given (b), the two are equivalent: if a live row dominated ``s``, some skyline
row ``m`` would dominate ``s`` (dominance is a strict partial order on a
finite set), and ``m`` is returned because (b) cannot hold for a skyline row.
That keeps the cost at O(|S|·|S| + |S|·|R|) pair tests, and check (b) drops
every row as soon as one returned row dominates it.  It tests the strongest
returned rows first, in blocks that double in size, so a few small blocks
shed most of ``R``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

#: Upper bound on the pair matrix one dominance block builds (elements).
PAIR_BLOCK = 1 << 22


def closure_matrix(dag, values: Sequence) -> np.ndarray:
    """``M[i, j]`` is True iff ``values[i]`` is preferred or equal to ``values[j]``."""
    index = {value: i for i, value in enumerate(values)}
    matrix = np.eye(len(values), dtype=bool)
    for i, value in enumerate(values):
        worse = [index[other] for other in dag.descendants(value)]
        matrix[i, worse] = True
    return matrix


def dominance_block(
    s_to: np.ndarray,
    s_codes: np.ndarray,
    r_to_t: np.ndarray,
    r_codes_t: np.ndarray,
    closures: Sequence[np.ndarray],
) -> np.ndarray:
    """``D[i, j]``: does row ``i`` of S dominate row ``j`` of R?

    ``r_to_t``/``r_codes_t`` are R's columns as rows (one contiguous row
    per attribute); ``closures`` are reflexive closure matrices.
    """
    shape = (len(s_to), r_to_t.shape[1])
    weak = np.ones(shape, dtype=bool)
    strict = np.zeros(shape, dtype=bool)
    scratch = np.empty(shape, dtype=bool)
    for t in range(s_to.shape[1]):
        s_col = s_to[:, t][:, None]
        np.less_equal(s_col, r_to_t[t], out=scratch)
        weak &= scratch
        np.less(s_col, r_to_t[t], out=scratch)
        strict |= scratch
    for a, closure in enumerate(closures):
        weak &= np.take(closure[s_codes[:, a]], r_codes_t[a], axis=1)
        np.not_equal(s_codes[:, a][:, None], r_codes_t[a], out=scratch)
        strict |= scratch
    weak &= strict
    return weak


def encode_rows(schema, rows) -> tuple[np.ndarray, np.ndarray]:
    """Canonical TO values and PO value indexes (into ``dag.values``) of rows."""
    to_pos = list(schema.total_order_positions)
    po_pos = list(schema.partial_order_positions)
    signs = np.array(
        [1.0 if schema.attributes[p].best == "min" else -1.0 for p in to_pos]
    )
    to = np.array([[row[p] for p in to_pos] for row in rows], dtype=np.float64)
    to = to.reshape(len(rows), len(to_pos)) * signs
    codes = np.empty((len(rows), len(po_pos)), dtype=np.intp)
    for a, p in enumerate(po_pos):
        index = {value: i for i, value in enumerate(schema.attributes[p].dag.values)}
        codes[:, a] = [index[row[p]] for row in rows]
    return to, codes


class SkylineOracle:
    """Two-sided skyline checks over one fixed row universe.

    ``to_values`` is an ``(n, t)`` array of canonical TO values (smaller is
    better), ``codes`` an ``(n, p)`` array of PO value indexes into
    ``domains[a]``, and ``ids`` the ``n`` stable record ids the program
    reports.  Rows may later be masked out (deleted) per check.
    """

    def __init__(self, to_values, codes, ids, domains: Sequence[Sequence]) -> None:
        self.to = np.asarray(to_values, dtype=np.float64).reshape(len(ids), -1)
        self.codes = np.asarray(codes, dtype=np.intp).reshape(len(ids), -1)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.domains = [list(domain) for domain in domains]
        if self.codes.shape[1] != len(self.domains):
            raise ValueError("one domain per PO column is required")
        order = np.argsort(self.ids, kind="stable")
        self._sorted_ids = self.ids[order]
        self._sorted_pos = order
        # Strong rows first: a small TO rank sum dominates many rows, so
        # check (b) sheds most of R in its first blocks.
        if self.to.shape[1]:
            ranks = np.argsort(np.argsort(self.to, axis=0), axis=0).sum(axis=1)
        else:
            ranks = np.zeros(len(self.ids), dtype=np.int64)
        self._strength = ranks

    def closures(self, dags: Sequence) -> list[np.ndarray]:
        """Closure matrices of one query's DAGs, in this oracle's code order."""
        return [closure_matrix(dag, domain) for dag, domain in zip(dags, self.domains)]

    def positions_of(self, ids: Sequence[int]) -> np.ndarray:
        """Row positions of ``ids``; raises ``KeyError`` for an unknown id."""
        ids = np.asarray(list(ids), dtype=np.int64)
        where = np.searchsorted(self._sorted_ids, ids)
        where = np.minimum(where, len(self._sorted_ids) - 1)
        found = self._sorted_ids[where] == ids if len(ids) else np.ones(0, bool)
        if not found.all():
            raise KeyError(int(ids[~found][0]))
        return self._sorted_pos[where]

    def _dominated(self, s_pos, r_pos, closures) -> np.ndarray:
        """Per row of ``r_pos``: dominated by some row of ``s_pos``?"""
        alive = np.ones(len(r_pos), dtype=bool)
        if not len(s_pos) or not len(r_pos):
            return ~alive
        s_pos = s_pos[np.argsort(self._strength[s_pos], kind="stable")]
        start, step = 0, 8
        while start < len(s_pos) and alive.any():
            rest = r_pos[alive]
            step = max(1, min(2 * step, PAIR_BLOCK // len(rest)))
            block = s_pos[start : start + step]
            start += step
            hit = dominance_block(
                self.to[block],
                self.codes[block],
                self.to[rest].T.copy(),
                self.codes[rest].T.copy(),
                closures,
            ).any(axis=0)
            alive_idx = np.flatnonzero(alive)
            alive[alive_idx[hit]] = False
        return ~alive

    def check(self, returned_ids, closures, live=None) -> str | None:
        """``None`` when ``returned_ids`` is exactly the skyline, else a reason.

        ``live`` is an optional boolean mask over the oracle's rows (all rows
        when omitted).
        """
        live = np.ones(len(self.ids), dtype=bool) if live is None else np.asarray(live, bool)
        returned = list(returned_ids)
        if len(set(returned)) != len(returned):
            return "returned ids contain duplicates"
        try:
            s_pos = self.positions_of(returned)
        except KeyError as error:
            return f"returned id {error.args[0]} is not a known row"
        if len(s_pos) and not live[s_pos].all():
            return f"returned id {int(self.ids[s_pos[~live[s_pos]][0]])} is not live"
        in_s = np.zeros(len(self.ids), dtype=bool)
        in_s[s_pos] = True
        # (a) no returned row is dominated (see the module docstring).
        dominated = self._dominated(s_pos, s_pos, closures)
        if dominated.any():
            return f"returned id {int(self.ids[s_pos[dominated][0]])} is dominated"
        # (b) every other live row is dominated by a returned row.
        others = np.flatnonzero(live & ~in_s)
        covered = self._dominated(s_pos, others, closures)
        if not covered.all():
            return f"live id {int(self.ids[others[~covered][0]])} is missing from the skyline"
        return None

    def skyline_ids(self, closures, live=None) -> list[int]:
        """The skyline by exhaustive pair tests (for small inputs and tests)."""
        live = np.ones(len(self.ids), dtype=bool) if live is None else np.asarray(live, bool)
        rows = np.flatnonzero(live)
        dominated = self._dominated(rows, rows, closures)
        return sorted(int(i) for i in self.ids[rows[~dominated]])
