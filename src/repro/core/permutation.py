"""The permutation engine — paper Algorithm 1.

Given the stack allocations of a function (size + alignment each), this
module generates the table of all possible frame layouts: row *p* holds,
for each allocation, its byte index from the start of the unified stack
frame under the *p*-th lexical-order permutation, with alignment padding
inserted exactly as the ALIGN procedure prescribes.  The inter-object
padding that alignment forces under different orders is itself a source
of entropy, as the paper notes (§III-D).

Two engineering policies around the paper's algorithm:

* **Row shuffle** — after generation, rows are permuted (with a
  compile-time seed) "to avoid the lexical correlation between any two
  consecutive rows" (§III-D).
* **Factorial cap** — ``n!`` explodes past a handful of allocations; the
  paper's SPEC builds clearly bound the table size.  When ``n!`` exceeds
  ``max_rows`` we emit ``max_rows`` *distinct* permutations sampled
  uniformly (seeded, Fisher-Yates), preserving per-row layout computation
  verbatim.  The trade-off is benchmarked by the ablation suite.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

from repro.core.allocations import StackAllocation

DEFAULT_MAX_ROWS = 1024


def align_index(index: int, alignment: int) -> int:
    """ALIGN from Algorithm 1: round ``index`` up to ``alignment``."""
    if index % alignment == 0:
        return index
    return (index // alignment + 1) * alignment


def nth_lexical_permutation(n: int, p_index: int) -> List[int]:
    """The ``p_index``-th permutation of ``range(n)`` in lexical order.

    This is the factorial-number-system decoding the inner loop of
    Algorithm 1 performs with ``temp / curr_fact`` and ``temp % curr_fact``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    remaining = list(range(n))
    temp = p_index
    order: List[int] = []
    for position in range(n):
        fact = math.factorial(n - position - 1)
        element = temp // fact
        temp = temp % fact
        order.append(remaining.pop(element))
    return order


def layout_for_order(
    allocations: Sequence[StackAllocation], order: Sequence[int]
) -> Tuple[List[int], int]:
    """Compute per-allocation frame indices for one placement order.

    ``order[k]`` is the allocation placed k-th from the frame start.
    Returns ``(indexes, total)`` where ``indexes[i]`` is the byte offset of
    allocation ``i`` and ``total`` is the frame bytes this order needs.
    """
    indexes = [0] * len(allocations)
    cursor = 0
    for allocation_id in order:
        allocation = allocations[allocation_id]
        align = allocation.align
        cursor = -(-cursor // align) * align  # align_index, inlined
        indexes[allocation_id] = cursor
        cursor += allocation.size
    return indexes, cursor


class PermutationTable:
    """All generated layouts for one combination of allocations.

    ``rows[r][i]`` is the frame offset of allocation ``i`` in layout ``r``,
    and ``orders[r]`` the placement order behind it (allocation indices
    from the frame start).  ``total_size`` is the maximum frame size over
    all rows — the single static allocation size the instrumented
    function reserves, so any row fits.
    """

    def __init__(
        self,
        shapes: Tuple[Tuple[int, int], ...],
        rows: List[Tuple[int, ...]],
        total_size: int,
        exhaustive: bool,
        orders: Sequence[Tuple[int, ...]] = (),
    ):
        self.shapes = shapes
        self.rows = rows
        self.total_size = total_size
        self.exhaustive = exhaustive
        self.orders = list(orders)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def slot_count(self) -> int:
        return len(self.shapes)

    def entropy_bits(self) -> float:
        """log2 of the number of distinct layouts an attacker must guess."""
        distinct = len(set(self.rows))
        return math.log2(distinct) if distinct else 0.0

    def __repr__(self) -> str:
        return (
            f"PermutationTable({self.slot_count} slots, {self.row_count} rows, "
            f"total {self.total_size}B)"
        )


def generate_table(
    allocations: Sequence[StackAllocation],
    max_rows: int = DEFAULT_MAX_ROWS,
    seed: int = 0,
) -> PermutationTable:
    """PERMUTE from Algorithm 1 (plus row shuffle and the factorial cap)."""
    n = len(allocations)
    if n == 0:
        return PermutationTable((), [], 0, exhaustive=True)
    if max_rows < 1:
        raise ValueError("max_rows must be at least 1")
    total_permutations = math.factorial(n)
    shapes = tuple(a.shape() for a in allocations)
    rng = random.Random((seed << 16) ^ n ^ hash(shapes))
    rows: List[Tuple[int, ...]] = []
    orders: List[Tuple[int, ...]] = []
    total_size = 0
    if total_permutations <= max_rows:
        for p_index in range(total_permutations):
            order = nth_lexical_permutation(n, p_index)
            indexes, frame_size = layout_for_order(allocations, order)
            rows.append(tuple(indexes))
            orders.append(tuple(order))
            total_size = max(total_size, frame_size)
        exhaustive = True
        # Shuffle rows (each with its order) to break lexical adjacency
        # between consecutive rows.
        dealt = list(zip(rows, orders))
        _shuffle(dealt, rng.getrandbits)
        rows = [row for row, _ in dealt]
        orders = [order for _, order in dealt]
    else:
        seen = set()
        identity = list(range(n))
        getrandbits = rng.getrandbits
        while len(rows) < max_rows:
            order = identity[:]
            _shuffle(order, getrandbits)
            key = tuple(order)
            if key in seen:
                continue
            seen.add(key)
            indexes, frame_size = layout_for_order(allocations, order)
            rows.append(tuple(indexes))
            orders.append(key)
            total_size = max(total_size, frame_size)
        exhaustive = False
    return PermutationTable(shapes, rows, total_size, exhaustive, orders)


def _shuffle(items: list, getrandbits) -> None:
    """``random.Random.shuffle`` with its draws inlined.

    CPython's shuffle is Fisher-Yates over ``_randbelow``, which draws
    ``getrandbits(bound.bit_length())`` until the value is below
    ``bound``.  Doing the same here deals the same permutation from the
    same stream (pinned against ``random.shuffle`` by the tests) without
    two Python calls per element.
    """
    for i in range(len(items) - 1, 0, -1):
        bound = i + 1
        bits = bound.bit_length()
        j = getrandbits(bits)
        while j >= bound:
            j = getrandbits(bits)
        items[i], items[j] = items[j], items[i]


def round_rows_to_power_of_two(rows: List[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """P-BOX power-of-2 optimization (§III-E).

    Duplicates rows (wrap-around) until the count is the next power of
    two, so index selection becomes ``rand & (rows - 1)`` instead of a
    modulo — the optimization's point is replacing the division in the
    prologue.
    """
    count = len(rows)
    if count == 0:
        return list(rows)
    target = 1
    while target < count:
        target <<= 1
    extended = list(rows)
    cursor = 0
    while len(extended) < target:
        extended.append(rows[cursor % count])
        cursor += 1
    return extended
