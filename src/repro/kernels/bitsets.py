"""Bitset-packed dominance closures for partially ordered domains.

A :class:`~repro.kernels.tables.PreferenceTable` holds the relation "value
``i`` is preferred over or equal to value ``j``" as one int bitset per code
(``closure[i]``, bit ``j``).  For the compiled hot loops the same rows split
into ``uint64`` words: a t-dominance test over ``d`` PO attributes is then
``d`` shift-AND-compare word operations on a structure that stays
cache-resident even for large domains, and the packed rows feed the JIT
kernel as one contiguous ``(attribute, code, word)`` array
(:func:`packed_word_cube`), its only consumer.  The NumPy stores use
:func:`closure_matrix` (record dominance) and the reach-end tables
(t-dominance) instead.

Everything here is cut straight from the tables' closure ints — no
per-pair flag loop — and cached on the tables' ``scratch`` dict, so every
store built over the same tables shares it.  The module itself is
dependency-free; the NumPy packings are produced by helpers whose imports
stay function-scope (pure-Python checkouts import this module cleanly).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.kernels.tables import PreferenceTable, RecordTables, TDominanceTables

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: Bits per packed word (the rows are ``uint64`` words).
WORD_BITS = 64

_WORD_MASK = (1 << WORD_BITS) - 1


@dataclass(frozen=True)
class DominanceBitset:
    """The dominance closure of one PO domain as packed ``uint64`` rows."""

    cardinality: int
    #: Words per row — ``ceil(cardinality / 64)``, at least one.
    num_words: int
    #: ``rows[i][w]`` — word ``w`` of value ``i``'s preferred-or-equal row.
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def from_table(cls, table: PreferenceTable) -> "DominanceBitset":
        """Split one table's closure ints into 64-bit words."""
        num_words = max(1, (table.cardinality + WORD_BITS - 1) // WORD_BITS)
        rows = tuple(
            tuple((row >> (WORD_BITS * word)) & _WORD_MASK for word in range(num_words))
            for row in table.closure
        )
        return cls(cardinality=table.cardinality, num_words=num_words, rows=rows)

    def test(self, better: int, worse: int) -> bool:
        """Is ``better`` preferred-or-equal to ``worse``?  One shift-AND."""
        return bool((self.rows[better][worse >> 6] >> (worse & 63)) & 1)


def dominance_bitsets(
    tables: RecordTables | TDominanceTables,
) -> tuple[DominanceBitset, ...]:
    """Per-attribute bitsets of one tables object (cached on ``scratch``)."""
    cached = tables.scratch.get("bitsets")
    if cached is None:
        cached = tuple(
            DominanceBitset.from_table(table) for table in tables.attributes
        )
        tables.scratch["bitsets"] = cached
    return cached


def closure_matrix(closure: Sequence[int], width: int) -> "np.ndarray":
    """``(len(closure), width)`` boolean matrix of closure ints (NumPy)."""
    import numpy as np

    row_bytes = max(1, (width + 7) // 8)
    raw = b"".join(row.to_bytes(row_bytes, "little") for row in closure)
    bits = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(len(closure), row_bytes),
        axis=1,
        count=width,
        bitorder="little",
    )
    return bits.astype(bool)


def attribute_word_arrays(
    tables: RecordTables | TDominanceTables,
) -> "list[np.ndarray]":
    """Per-attribute ``(cardinality, num_words)`` uint64 arrays.

    The rows :func:`packed_word_cube` stacks for the JIT kernel; cached on
    ``scratch`` like the boolean preference matrices, and requires NumPy.
    """
    cached = tables.scratch.get("numpy_bitset_rows")
    if cached is None:
        import numpy as np

        cached = [
            np.array(bitset.rows, dtype=np.uint64).reshape(
                bitset.cardinality, bitset.num_words
            )
            for bitset in dominance_bitsets(tables)
        ]
        tables.scratch["numpy_bitset_rows"] = cached
    return cached


def packed_word_cube(tables: RecordTables | TDominanceTables) -> "np.ndarray":
    """All attributes' bitsets as one ``(num_po, max_card, max_words)`` cube.

    Shorter domains are zero-padded (a zero word never reports preference),
    giving the JIT kernels a single contiguous uint64 array to close over.
    """
    cached = tables.scratch.get("numpy_bitset_cube")
    if cached is None:
        import numpy as np

        arrays = attribute_word_arrays(tables)
        max_card = max((len(words) for words in arrays), default=0)
        max_words = max((words.shape[1] for words in arrays), default=1)
        cube = np.zeros((len(arrays), max(1, max_card), max_words), dtype=np.uint64)
        for attribute, words in enumerate(arrays):
            cube[attribute, : words.shape[0], : words.shape[1]] = words
        cached = cube
        tables.scratch["numpy_bitset_cube"] = cached
    return cached
