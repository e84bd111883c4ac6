"""P-BOX tests: canonicalization, sharing optimizations, serialization."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.allocations import StackAllocation
from repro.core.config import SmokestackConfig
from repro.core.pbox import PBox, canonicalize


def allocs(*shapes):
    return [
        StackAllocation(f"v{i}", size, align, index=i)
        for i, (size, align) in enumerate(shapes)
    ]


class TestCanonicalize:
    def test_descending_by_size(self):
        combo, column_map = canonicalize(allocs((4, 4), (8, 8)))
        assert combo == ((8, 8), (4, 4))
        assert column_map == [1, 0]

    def test_same_multiset_same_combo(self):
        combo_a, _ = canonicalize(allocs((4, 4), (8, 8), (1, 1)))
        combo_b, _ = canonicalize(allocs((1, 1), (4, 4), (8, 8)))
        assert combo_a == combo_b

    def test_column_map_is_bijection(self):
        _, column_map = canonicalize(allocs((4, 4), (4, 4), (8, 8), (1, 1)))
        assert sorted(column_map) == [0, 1, 2, 3]

    def test_ties_broken_stably(self):
        combo, column_map = canonicalize(allocs((4, 4), (4, 4)))
        assert combo == ((4, 4), (4, 4))
        assert column_map == [0, 1]


class TestSharing:
    def test_same_combination_shares_table(self):
        # §III-E "Rearranging Stack Allocations": f1(int, double) and
        # f2(double, int) use one table.
        pbox = PBox(SmokestackConfig())
        entry1 = pbox.add_function("f1", allocs((4, 4), (8, 8)))
        entry2 = pbox.add_function("f2", allocs((8, 8), (4, 4)))
        assert entry1.table is entry2.table
        assert entry2.shared
        assert len(pbox.tables) == 1

    def test_different_combination_gets_new_table(self):
        pbox = PBox(SmokestackConfig())
        entry1 = pbox.add_function("f1", allocs((4, 4), (8, 8)))
        entry2 = pbox.add_function("f2", allocs((4, 4), (16, 8)))
        assert entry1.table is not entry2.table

    def test_round_up_sharing(self):
        # §III-E "Rounding up Allocations": f1(double, double, int) and
        # f2(double, double) share the bigger table.
        pbox = PBox(SmokestackConfig())
        big = pbox.add_function("f1", allocs((8, 8), (8, 8), (4, 4)))
        small = pbox.add_function("f2", allocs((8, 8), (8, 8)))
        assert small.table is big.table
        assert small.rounded_up
        # f2's two allocations map onto the donor's first two columns.
        assert sorted(small.column_map) == [0, 1]

    def test_round_up_uses_bigger_frame(self):
        pbox = PBox(SmokestackConfig())
        big = pbox.add_function("f1", allocs((8, 8), (8, 8), (4, 4)))
        small = pbox.add_function("f2", allocs((8, 8), (8, 8)))
        assert small.total_size == big.total_size  # extra padding for f2

    def test_round_up_disabled(self):
        pbox = PBox(SmokestackConfig(round_up_sharing=False))
        pbox.add_function("f1", allocs((8, 8), (8, 8), (4, 4)))
        small = pbox.add_function("f2", allocs((8, 8), (8, 8)))
        assert not small.rounded_up
        assert len(pbox.tables) == 2

    def test_sharing_disabled_gives_private_tables(self):
        pbox = PBox(SmokestackConfig(share_tables=False))
        entry1 = pbox.add_function("f1", allocs((4, 4), (8, 8)))
        entry2 = pbox.add_function("f2", allocs((8, 8), (4, 4)))
        assert entry1.table is not entry2.table

    def test_private_table_bytes_do_not_depend_on_hash_seed(self):
        # A private table's seed comes from the function name; str
        # hashes are salted per process, so it must not use hash().
        script = (
            "from repro.core.allocations import StackAllocation\n"
            "from repro.core.config import SmokestackConfig\n"
            "from repro.core.pbox import PBox\n"
            "pbox = PBox(SmokestackConfig(share_tables=False))\n"
            "entry = pbox.add_function('parse_header', [\n"
            "    StackAllocation(f'v{i}', size, size, index=i)\n"
            "    for i, size in enumerate((8, 4, 2, 1, 16))])\n"
            "print(entry.table.serialize().hex())\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        tables = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            tables.append(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=env, capture_output=True, text=True, check=True,
                ).stdout
            )
        assert tables[0] and tables[0] == tables[1]

    def test_sharing_reduces_bytes(self):
        shared = PBox(SmokestackConfig())
        private = PBox(SmokestackConfig(share_tables=False))
        for box in (shared, private):
            box.add_function("f1", allocs((4, 4), (8, 8), (1, 1)))
            box.add_function("f2", allocs((1, 1), (8, 8), (4, 4)))
            box.add_function("f3", allocs((8, 8), (1, 1), (4, 4)))
        assert shared.size_bytes() < private.size_bytes()

    def test_duplicate_function_rejected(self):
        pbox = PBox(SmokestackConfig())
        pbox.add_function("f", allocs((4, 4)))
        with pytest.raises(ValueError):
            pbox.add_function("f", allocs((4, 4)))

    def test_stats(self):
        pbox = PBox(SmokestackConfig())
        pbox.add_function("f1", allocs((4, 4), (8, 8)))
        pbox.add_function("f2", allocs((8, 8), (4, 4)))
        stats = pbox.stats()
        assert stats["functions"] == 2
        assert stats["tables"] == 1
        assert stats["shared_entries"] == 1


class TestTables:
    def test_pow2_row_count(self):
        pbox = PBox(SmokestackConfig(pow2_tables=True))
        entry = pbox.add_function("f", allocs((4, 4), (8, 8), (1, 1)))
        assert entry.table.row_count == 8  # 3! = 6 -> 8

    def test_non_pow2_row_count(self):
        pbox = PBox(SmokestackConfig(pow2_tables=False))
        entry = pbox.add_function("f", allocs((4, 4), (8, 8), (1, 1)))
        assert entry.table.row_count == 6

    def test_serialization_shape(self):
        pbox = PBox(SmokestackConfig())
        entry = pbox.add_function("f", allocs((4, 4), (8, 8)))
        table = entry.table
        data = table.serialize()
        assert len(data) == table.row_count * table.slot_count * 4
        first_row = [
            int.from_bytes(data[i * 4 : i * 4 + 4], "little")
            for i in range(table.slot_count)
        ]
        assert tuple(first_row) == table.rows[0]

    def test_as_global_is_readonly(self):
        pbox = PBox(SmokestackConfig())
        entry = pbox.add_function("f", allocs((4, 4),))
        variable = entry.table.as_global()
        assert variable.readonly
        assert variable.name.startswith("__ss_pbox_")

    def test_size_bytes_matches_serialization(self):
        pbox = PBox(SmokestackConfig())
        pbox.add_function("f", allocs((4, 4), (8, 8), (2, 2)))
        assert pbox.size_bytes() == sum(
            len(t.serialize()) for t in pbox.tables
        )

    def test_row_offsets_respect_canonical_shapes(self):
        pbox = PBox(SmokestackConfig())
        entry = pbox.add_function("f", allocs((1, 1), (8, 8), (4, 4)))
        table = entry.table
        for row in table.rows:
            for column, (size, align) in enumerate(table.combo):
                assert row[column] % align == 0
                assert row[column] + size <= table.total_size

    def test_max_rows_respected(self):
        pbox = PBox(SmokestackConfig(max_table_rows=16, pow2_tables=False))
        entry = pbox.add_function("f", allocs(*[(8, 8)] * 6))  # 720 perms
        assert entry.table.row_count == 16
