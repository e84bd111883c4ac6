"""Static (compile-time) stack layout permutation.

Models the stack randomization of Giuffrida et al. (USENIX Sec '12) as
the paper characterizes it in §II-B: the order of a function's stack
allocations is permuted *once, at compile time*.  Every run of the binary
— and every restart after a crash — therefore exhibits the same permuted
layout, which is the weakness §II-C exploits: a single memory disclosure
(or a brute-force search across restarts) recovers the layout for good.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.analysis.reach import (
    FrameLayout,
    LayoutColumns,
    allocation_slots,
    height_below,
    layout_columns,
    slot_offsets,
)
from repro.core.permutation import generate_table
from repro.core.pipeline import compile_source
from repro.defenses.base import Defense, ProgramBuild, reference_layouts_of
from repro.ir.instructions import Alloca, Instruction
from repro.ir.module import Function, Module
from repro.synth.facts import FunctionFacts


def permute_function_allocas(function: Function, rng: random.Random) -> List[str]:
    """Shuffle the order of the static allocas (hence their frame slots).

    The VM assigns frame addresses in alloca program order, so reordering
    the alloca instructions *is* the layout permutation.  Allocas are
    collected across all blocks, shuffled, and re-emitted at the top of
    the entry block (hoisting them is semantics-preserving for static
    allocas and matches how a compiler pass would do it).

    Returns the permuted order of variable names (for diagnostics).
    """
    static: List[Alloca] = function.static_allocas()
    if len(static) < 2:
        return [a.var_name for a in static]
    target = list(static)
    rng.shuffle(target)
    static_set = set(static)
    # Remove the originals...
    for block in function.blocks:
        block.instructions = [
            inst for inst in block.instructions if inst not in static_set
        ]
    # ...and re-insert in permuted order at the entry top.
    entry = function.entry
    for position, alloca in enumerate(target):
        alloca.block = entry
        entry.instructions.insert(position, alloca)
    return [a.var_name for a in target]


def permute_module(module: Module, seed: int) -> Dict[str, List[str]]:
    rng = random.Random(seed ^ 0x57A71C)
    permuted: Dict[str, List[str]] = {}
    for function in module.functions.values():
        permuted[function.name] = permute_function_allocas(function, rng)
    return permuted


class StaticPermutation(Defense):
    """Compile-time permutation of each function's stack layout."""

    name = "static-permute"
    randomization_time = "compile"
    family = "sampled"
    cost_rank = 6

    def build(self, source: str, instance_seed: int = 0) -> ProgramBuild:
        reference_module = compile_source(source)
        layouts = reference_layouts_of(reference_module)
        module = compile_source(source)
        module.metadata["static_permutation"] = permute_module(
            module, instance_seed
        )
        return ProgramBuild(self.name, module, layouts)

    @classmethod
    def layouts(
        cls, facts: FunctionFacts, *, samples: int = 64, seed: int = 0
    ) -> List[FrameLayout]:
        """Sampled permutations of the declaration order."""
        allocations = list(facts.descriptor.allocations)
        if len(allocations) < 2:
            return [facts.layout()]
        names = facts.allocation_names
        return [
            FrameLayout(
                facts.function.name,
                allocation_slots(
                    [allocations[i] for i in placed], canary=False, names=names
                ),
                has_canary=False,
            )
            for placed in _placements(allocations, samples, seed)
        ]

    @classmethod
    def columns(
        cls, facts: FunctionFacts, *, samples: int = 64, seed: int = 0
    ) -> LayoutColumns:
        """The same permutations, read by column."""
        allocations = list(facts.descriptor.allocations)
        if len(allocations) < 2:
            return layout_columns([facts.layout()])
        columns: List[List[int]] = [[] for _ in allocations]
        heights = []
        for placed in _placements(allocations, samples, seed):
            los = slot_offsets(
                [allocations[i] for i in placed], canary=False
            )
            for index, lo in zip(placed, los):
                columns[index].append(lo)
            heights.append(height_below(los[-1], canary=False))
        names = facts.allocation_names
        return LayoutColumns(
            {
                names[id(allocation)]: tuple(column)
                for allocation, column in zip(allocations, columns)
            },
            tuple(heights),
        )


def _placements(
    allocations, samples: int, seed: int
) -> List[Tuple[int, ...]]:
    """Allocation indices in frame order (first = just below the cookie)
    for each sampled row of the permutation table: the row's placement
    order, reversed (the table grows up from the frame base, the frame
    down from the cookie)."""
    table = generate_table(allocations, max_rows=samples, seed=seed)
    return [order[::-1] for order in table.orders]
