"""Permutation engine tests (paper Algorithm 1), including properties."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocations import StackAllocation
from repro.core.permutation import (
    align_index,
    generate_table,
    layout_for_order,
    nth_lexical_permutation,
    round_rows_to_power_of_two,
)


def allocs(*shapes):
    return [
        StackAllocation(f"v{i}", size, align, index=i)
        for i, (size, align) in enumerate(shapes)
    ]


class TestAlignIndex:
    @pytest.mark.parametrize(
        "index, alignment, expected",
        [(0, 8, 0), (1, 8, 8), (8, 8, 8), (12, 8, 16), (5, 1, 5), (17, 4, 20)],
    )
    def test_values(self, index, alignment, expected):
        assert align_index(index, alignment) == expected


class TestLexicalPermutation:
    def test_first_permutation_is_identity(self):
        assert nth_lexical_permutation(4, 0) == [0, 1, 2, 3]

    def test_last_permutation_is_reverse(self):
        assert nth_lexical_permutation(4, math.factorial(4) - 1) == [3, 2, 1, 0]

    def test_all_permutations_distinct(self):
        n = 5
        seen = {
            tuple(nth_lexical_permutation(n, i))
            for i in range(math.factorial(n))
        }
        assert len(seen) == math.factorial(n)

    def test_lexical_ordering(self):
        perms = [nth_lexical_permutation(3, i) for i in range(6)]
        assert perms == sorted(perms)


class TestLayoutForOrder:
    def test_identity_order_packs_sequentially(self):
        allocations = allocs((8, 8), (4, 4), (1, 1))
        indexes, total = layout_for_order(allocations, [0, 1, 2])
        assert indexes == [0, 8, 12]
        assert total == 13

    def test_alignment_padding_inserted(self):
        allocations = allocs((1, 1), (8, 8))
        indexes, total = layout_for_order(allocations, [0, 1])
        assert indexes == [0, 8]  # 7 bytes of padding after the char
        assert total == 16

    def test_reverse_order_changes_offsets(self):
        allocations = allocs((1, 1), (8, 8))
        indexes, total = layout_for_order(allocations, [1, 0])
        assert indexes == [8, 0]
        assert total == 9

    def test_no_overlap_in_any_order(self):
        allocations = allocs((8, 8), (3, 1), (4, 4), (16, 8))
        import itertools

        for order in itertools.permutations(range(4)):
            indexes, total = layout_for_order(allocations, list(order))
            spans = sorted(
                (indexes[i], indexes[i] + allocations[i].size)
                for i in range(4)
            )
            for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
                assert a_end <= b_start
            assert max(end for _, end in spans) <= total


class TestGenerateTable:
    def test_exhaustive_for_small_n(self):
        table = generate_table(allocs((4, 4), (8, 8), (1, 1)))
        assert table.exhaustive
        assert table.row_count == 6
        assert len(set(table.rows)) == 6

    def test_total_size_fits_every_row(self):
        allocations = allocs((1, 1), (8, 8), (2, 2), (16, 16))
        table = generate_table(allocations)
        for row in table.rows:
            end = max(
                offset + allocation.size
                for offset, allocation in zip(row, allocations)
            )
            assert end <= table.total_size

    def test_factorial_cap_samples_distinct_rows(self):
        allocations = allocs(*[(8, 8)] * 8)  # 8! = 40320 > cap
        table = generate_table(allocations, max_rows=64)
        assert not table.exhaustive
        assert table.row_count == 64
        assert len(set(table.rows)) == 64

    def test_rows_alignment_respected(self):
        allocations = allocs((1, 1), (8, 8), (4, 4))
        table = generate_table(allocations)
        for row in table.rows:
            for offset, allocation in zip(row, allocations):
                assert offset % allocation.align == 0

    def test_deterministic_per_seed(self):
        allocations = allocs((4, 4), (8, 8), (1, 1), (2, 2))
        a = generate_table(allocations, seed=9)
        b = generate_table(allocations, seed=9)
        c = generate_table(allocations, seed=10)
        assert a.rows == b.rows
        assert a.rows != c.rows  # different shuffle

    def test_empty_allocation_list(self):
        table = generate_table([])
        assert table.row_count == 0
        assert table.total_size == 0

    def test_entropy_bits(self):
        table = generate_table(allocs((4, 4), (8, 8), (1, 1)))
        assert table.entropy_bits() == pytest.approx(math.log2(6))

    def test_alignment_pads_add_entropy(self):
        # With mixed alignments, distinct orders can produce distinct
        # total sizes — the "extra source of entropy" of §III-D.
        allocations = allocs((1, 1), (8, 8), (2, 2))
        totals = set()
        for order_index in range(6):
            order = nth_lexical_permutation(3, order_index)
            _, total = layout_for_order(allocations, order)
            totals.add(total)
        assert len(totals) > 1


class TestPow2Rounding:
    def test_rounds_up_to_power_of_two(self):
        rows = [(i,) for i in range(6)]
        extended = round_rows_to_power_of_two(rows)
        assert len(extended) == 8
        assert extended[:6] == rows
        assert extended[6] == rows[0] and extended[7] == rows[1]

    def test_exact_power_unchanged(self):
        rows = [(i,) for i in range(8)]
        assert round_rows_to_power_of_two(rows) == rows

    def test_empty_ok(self):
        assert round_rows_to_power_of_two([]) == []


# -- property-based --------------------------------------------------------------

shape_strategy = st.tuples(
    st.integers(min_value=1, max_value=64),
    st.sampled_from([1, 2, 4, 8, 16]),
)


@given(st.lists(shape_strategy, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_property_every_row_is_valid_layout(shapes):
    allocations = allocs(*shapes)
    table = generate_table(allocations, max_rows=128)
    for row in table.rows:
        # aligned
        for offset, allocation in zip(row, allocations):
            assert offset % allocation.align == 0
        # non-overlapping
        spans = sorted(
            (row[i], row[i] + allocations[i].size)
            for i in range(len(allocations))
        )
        for (_, a_end), (b_start, _) in zip(spans, spans[1:]):
            assert a_end <= b_start
        # inside the unified frame
        assert max(end for _, end in spans) <= table.total_size


@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=5039),
)
@settings(max_examples=80, deadline=None)
def test_property_lexical_permutation_is_permutation(n, index):
    index = index % math.factorial(n)
    order = nth_lexical_permutation(n, index)
    assert sorted(order) == list(range(n))


def test_inlined_shuffle_deals_like_random_shuffle():
    """generate_table's shuffle draws exactly as random.shuffle does, so
    every table is the one the library shuffle would deal."""
    import random

    from repro.core.permutation import _shuffle

    for seed in range(64):
        for n in (0, 1, 2, 5, 9, 17, 33):
            expected, actual = list(range(n)), list(range(n))
            reference, inlined = random.Random(seed), random.Random(seed)
            reference.shuffle(expected)
            _shuffle(actual, inlined.getrandbits)
            assert actual == expected
            assert inlined.getrandbits(32) == reference.getrandbits(32)
