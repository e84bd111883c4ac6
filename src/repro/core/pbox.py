"""The P-BOX: read-only permutation tables shared across functions.

The P-BOX (paper §III-C/E) holds, for every *combination* of stack
allocations appearing in the program, the table of precomputed layouts.
It is embedded in the read-only data section of the hardened binary and
indexed at each function invocation by a freshly generated random number.

Sharing machinery (§III-E):

* combinations are canonicalized (allocations sorted descending by
  (size, align)), so ``f1(int, double)`` and ``f2(double, int)`` resolve
  to the same table ("Rearranging Stack Allocations"),
* with round-up sharing, a combination may piggyback on the table of a
  combination that has one extra, smallest allocation, trading frame
  padding for P-BOX bytes ("Rounding up Allocations").

Each function receives a :class:`PBoxEntry` recording which table it uses
and how its allocas (in program order) map onto the table's canonical
columns.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.allocations import StackAllocation
from repro.core.config import SmokestackConfig
from repro.core.permutation import (
    PermutationTable,
    generate_table,
    round_rows_to_power_of_two,
)
from repro.ir.values import GlobalVariable
from repro.minic import types as ct

#: Canonical combination: tuple of (size, align), sorted descending.
Combo = Tuple[Tuple[int, int], ...]


def canonicalize(
    allocations: Sequence[StackAllocation],
) -> Tuple[Combo, List[int]]:
    """Sort allocations into canonical order.

    Returns ``(combo, column_map)`` where ``column_map[i]`` is the
    canonical column of the function's i-th allocation.  The descending
    sort puts the *smallest* shape last, which is what round-up sharing
    relies on (the donor combination extends the borrower by one trailing
    smallest element).
    """
    order = sorted(
        range(len(allocations)),
        key=lambda i: (-allocations[i].size, -allocations[i].align, i),
    )
    combo = tuple(allocations[i].shape() for i in order)
    column_map = [0] * len(allocations)
    for column, original_index in enumerate(order):
        column_map[original_index] = column
    return combo, column_map


class PBoxTable:
    """One serialized table: rows of u32 frame offsets, one per column."""

    def __init__(self, table_id: int, combo: Combo, permutations: PermutationTable,
                 pow2: bool):
        self.table_id = table_id
        self.combo = combo
        self.permutations = permutations
        rows = permutations.rows
        if pow2:
            rows = round_rows_to_power_of_two(rows)
        self.rows: List[Tuple[int, ...]] = rows
        self.pow2 = pow2
        self.global_name = f"__ss_pbox_{table_id}"

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def slot_count(self) -> int:
        return len(self.combo)

    @property
    def total_size(self) -> int:
        return self.permutations.total_size

    def size_bytes(self) -> int:
        return self.row_count * self.slot_count * 4

    def serialize(self) -> bytes:
        out = bytearray()
        for row in self.rows:
            for offset in row:
                out.extend(offset.to_bytes(4, "little"))
        return bytes(out)

    def as_global(self) -> GlobalVariable:
        element_count = self.row_count * self.slot_count
        return GlobalVariable(
            self.global_name,
            ct.ArrayType(ct.UINT, max(1, element_count)),
            self.serialize(),
            readonly=True,
            align=4,
        )

    def __repr__(self) -> str:
        return (
            f"PBoxTable(#{self.table_id}, {self.slot_count} slots x "
            f"{self.row_count} rows, {self.size_bytes()} bytes)"
        )


class PBoxEntry:
    """Binding of one function to its table."""

    def __init__(
        self,
        function_name: str,
        table: PBoxTable,
        column_map: List[int],
        shared: bool,
        rounded_up: bool,
    ):
        self.function_name = function_name
        self.table = table
        self.column_map = column_map
        self.shared = shared
        self.rounded_up = rounded_up

    @property
    def total_size(self) -> int:
        return self.table.total_size

    def __repr__(self) -> str:
        flags = []
        if self.shared:
            flags.append("shared")
        if self.rounded_up:
            flags.append("rounded-up")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return f"PBoxEntry({self.function_name!r} -> {self.table.global_name}{suffix})"


class PBox:
    """The whole program's permutation box."""

    def __init__(self, config: Optional[SmokestackConfig] = None):
        self.config = config or SmokestackConfig()
        self.config.validate()
        self.tables: List[PBoxTable] = []
        self.entries: Dict[str, PBoxEntry] = {}
        self._by_combo: Dict[Combo, PBoxTable] = {}

    # -- construction ---------------------------------------------------------------

    def add_function(
        self, function_name: str, allocations: Sequence[StackAllocation]
    ) -> PBoxEntry:
        """Assign (or create) a table for a function's allocations."""
        if function_name in self.entries:
            raise ValueError(f"function '{function_name}' already in P-BOX")
        combo, column_map = canonicalize(allocations)
        if not self.config.share_tables:
            # Without sharing, every function gets a private table, keyed
            # uniquely so identical combos do NOT coalesce.
            table = self._create_table(combo, unique_tag=function_name)
            entry = PBoxEntry(function_name, table, column_map, False, False)
            self.entries[function_name] = entry
            return entry
        table = self._by_combo.get(combo)
        shared = table is not None
        rounded_up = False
        if table is None and self.config.round_up_sharing:
            donor = self._find_round_up_donor(combo)
            if donor is not None:
                table = donor
                shared = True
                rounded_up = True
        if table is None:
            table = self._create_table(combo)
            self._by_combo[combo] = table
        entry = PBoxEntry(function_name, table, column_map, shared, rounded_up)
        self.entries[function_name] = entry
        return entry

    def _find_round_up_donor(self, combo: Combo) -> Optional[PBoxTable]:
        """A table whose combo is ``combo`` plus one extra trailing element.

        Canonical order is descending, so the extra element of the donor is
        its smallest allocation; the borrower's columns 0..n-1 then line up
        one-to-one with the donor's.
        """
        for candidate_combo, table in self._by_combo.items():
            if len(candidate_combo) == len(combo) + 1 and candidate_combo[:-1] == combo:
                return table
        return None

    def _create_table(self, combo: Combo, unique_tag: str = "") -> PBoxTable:
        allocations = [
            StackAllocation(f"slot{i}", size, align, index=i)
            for i, (size, align) in enumerate(combo)
        ]
        # crc32, not hash(): str hashes are salted per process, and a
        # config must harden to the same P-BOX bytes in every process.
        tag = zlib.crc32(unique_tag.encode()) & 0xFFFF
        seed = self.config.compile_seed ^ tag
        permutations = generate_table(
            allocations, max_rows=self.config.max_table_rows, seed=seed
        )
        table = PBoxTable(
            len(self.tables), combo, permutations, pow2=self.config.pow2_tables
        )
        self.tables.append(table)
        return table

    # -- accounting --------------------------------------------------------------------

    def size_bytes(self) -> int:
        """Total read-only bytes the P-BOX adds to the binary image."""
        return sum(table.size_bytes() for table in self.tables)

    def entry_for(self, function_name: str) -> PBoxEntry:
        return self.entries[function_name]

    def globals(self) -> List[GlobalVariable]:
        return [table.as_global() for table in self.tables]

    def stats(self) -> Dict[str, object]:
        return {
            "tables": len(self.tables),
            "functions": len(self.entries),
            "bytes": self.size_bytes(),
            "shared_entries": sum(1 for e in self.entries.values() if e.shared),
            "rounded_up_entries": sum(
                1 for e in self.entries.values() if e.rounded_up
            ),
        }

    def __repr__(self) -> str:
        return (
            f"PBox({len(self.tables)} tables, {len(self.entries)} functions, "
            f"{self.size_bytes()} bytes)"
        )
