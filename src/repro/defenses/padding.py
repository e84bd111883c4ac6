"""Random padding at function entry (Forrest et al., HotOS '97).

The transformation the paper describes in §II-B: for every stack frame
larger than 16 bytes (the heuristic for "contains a buffer"), insert one
of 8 possible paddings — 8, 16, ..., 64 bytes — chosen randomly *at
compile time*.  The padding shifts the whole frame relative to its caller
but leaves intra-frame distances intact, and because the choice is baked
into the binary it is identical on every run and every restart.

The attacker's reference binary does not reveal the deployed instance's
padding (that is the scheme's diversity argument), so
``layout_oracle`` reports the unpadded reference layout; the attack suite
then shows both bypasses the paper names: memory disclosure and
brute-force over the 8 possibilities (§II-C).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.analysis.reach import FrameLayout, allocation_slots
from repro.core.allocations import (
    FrameDescriptor,
    StackAllocation,
    discover_function,
)
from repro.core.pipeline import compile_source
from repro.defenses.base import Defense, ProgramBuild, reference_layouts_of
from repro.ir.instructions import Alloca
from repro.ir.module import Function, Module
from repro.minic import types as ct
from repro.synth.facts import FunctionFacts
from repro.synth.layouts import GapModel, gap_model

#: The 8 possible paddings of the original scheme.
PAD_CHOICES = tuple(range(8, 72, 8))
#: Frames at or below this size are considered buffer-free and unpadded.
MIN_FRAME_SIZE = 16

PAD_SLOT_NAME = "__forrest_pad"


def pads_frame(descriptor: FrameDescriptor) -> bool:
    """Whether the scheme pads this frame (it exceeds 16 bytes)."""
    return descriptor.total_unpermuted_size() > MIN_FRAME_SIZE


def apply_function_padding(function: Function, pad_bytes: int) -> bool:
    """Insert a ``pad_bytes`` dummy allocation at the top of the frame.

    Returns False when the frame is too small to qualify.  The dummy is
    the *first* allocation, i.e. the highest-addressed local, displacing
    every local (and the buffer-to-caller distance) by the pad size.
    """
    if not pads_frame(discover_function(function)):
        return False
    pad = Alloca(
        ct.ArrayType(ct.CHAR, pad_bytes),
        align=8,
        var_name=PAD_SLOT_NAME,
    )
    pad.name = function.next_value_name("pad")
    entry = function.entry
    pad.block = entry
    entry.instructions.insert(0, pad)
    return True


def apply_module_padding(module: Module, seed: int) -> Dict[str, int]:
    """Pad every qualifying function; returns function -> pad bytes."""
    rng = random.Random(seed ^ 0xF0447E57)
    applied: Dict[str, int] = {}
    for function in module.functions.values():
        pad_bytes = rng.choice(PAD_CHOICES)
        if apply_function_padding(function, pad_bytes):
            applied[function.name] = pad_bytes
    return applied


class ForrestPadding(Defense):
    """Compile-time random padding before large frames."""

    name = "padding"
    randomization_time = "compile"
    family = "enumerated"
    cost_rank = 4

    def build(self, source: str, instance_seed: int = 0) -> ProgramBuild:
        # The attacker's reference layout comes from the unpadded build.
        reference_module = compile_source(source)
        layouts = reference_layouts_of(reference_module)
        module = compile_source(source)
        applied = apply_module_padding(module, instance_seed)
        module.metadata["forrest_padding"] = applied
        return ProgramBuild(self.name, module, layouts)

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
        """One layout per pad choice; unpadded frames keep the baseline."""
        facts = facts or FunctionFacts(function, module)
        if not pads_frame(facts.descriptor):
            return [facts.layout()]
        return padded_layouts(function, facts.descriptor)

    @classmethod
    def gap_models(
        cls,
        victim: Function,
        caller: Optional[Function],
        buffer: str,
        module: Optional[Module] = None,
    ) -> List[GapModel]:
        """One hypothesis per distinct gap signature (§II-C brute force).

        The caller's pad mostly cancels (its frame grows as its slots
        sink) but 16-byte frame alignment leaves a residue, so enumerate
        both pads and deduplicate on the positions that matter.
        """
        callers = [None] if caller is None else padded_layouts(caller)
        models: List[GapModel] = []
        seen = set()
        for victim_layout in padded_layouts(victim):
            for caller_layout in callers:
                model = gap_model(victim_layout, caller_layout, buffer)
                signature = [model.cookie_gap]
                if model.caller is not None:
                    signature.extend(
                        slot.lo + model.caller_height - model.buffer_lo
                        for slot in model.caller.slots
                    )
                key = tuple(signature)
                if key not in seen:
                    seen.add(key)
                    models.append(model)
        return models


def padded_layouts(
    function: Function, descriptor: Optional[FrameDescriptor] = None
) -> List[FrameLayout]:
    """The reference layout under each pad choice (``PAD_CHOICES``
    order), the pad as the first allocation; a frame the scheme leaves
    unpadded keeps its baseline layout under every choice."""
    descriptor = descriptor or discover_function(function)
    allocations = list(descriptor.allocations)
    padded = pads_frame(descriptor)
    layouts = []
    for pad in PAD_CHOICES:
        pad_slot = [StackAllocation(PAD_SLOT_NAME, pad, 8)] if padded else []
        layouts.append(
            FrameLayout(
                function.name,
                allocation_slots(pad_slot + allocations, canary=False),
                has_canary=False,
            )
        )
    return layouts
