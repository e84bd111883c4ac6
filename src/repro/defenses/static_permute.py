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
from typing import Dict, List, Optional

from repro.analysis.reach import FrameLayout, allocation_slots
from repro.core.permutation import generate_table
from repro.core.pipeline import compile_source
from repro.defenses.base import Defense, ProgramBuild, reference_layouts_of
from repro.ir.instructions import Alloca, Instruction
from repro.ir.module import Function, Module
from repro.synth.facts import FunctionFacts
from repro.vm.interpreter import Machine


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

        def factory(**kwargs) -> Machine:
            return Machine(module, **kwargs)

        return ProgramBuild(self.name, module, factory, layouts)

    @classmethod
    def layouts(
        cls,
        function: Function,
        *,
        samples: int = 64,
        seed: int = 0,
        module: Optional[Module] = None,
        facts: Optional[FunctionFacts] = None,
    ) -> List[FrameLayout]:
        """Sampled permutations of the declaration order."""
        facts = facts or FunctionFacts(function, module)
        allocations = list(facts.descriptor.allocations)
        if len(allocations) < 2:
            return [facts.layout()]
        names = facts.allocation_names
        table = generate_table(allocations, max_rows=samples, seed=seed)
        layouts = []
        for row in table.rows:
            order = sorted(range(len(allocations)), key=row.__getitem__)
            ordered = [allocations[i] for i in reversed(order)]
            layouts.append(
                FrameLayout(
                    function.name,
                    allocation_slots(ordered, canary=False, names=names),
                    has_canary=False,
                )
            )
        return layouts
