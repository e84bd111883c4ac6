"""Payload-coordinate geometry for the concretizer.

The planner emits *symbolic* writes ("caller slot ``gate``"); turning
them into payload byte offsets requires a concrete two-frame layout,
which depends on the deployed defense.  Each registered defense's
``gap_models`` method picks the hypotheses (the reference layout, the
canary variant, one per Forrest pad signature, or the cleanstack
region-local view); this module only turns layouts into positions.

All positions are *payload coordinates*: byte 0 is the overflow
buffer's first byte, increasing toward the frame top and onward into
the caller's frame.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

from repro.analysis import reach

if TYPE_CHECKING:  # facts imports the geometry this module builds on
    from repro.synth.facts import FunctionFacts


class GapModel(NamedTuple):
    """Payload-coordinate positions for one (defense, hypothesis) pair."""

    victim: reach.FrameLayout
    caller: Optional[reach.FrameLayout]
    caller_height: int
    buffer_lo: int
    has_canary: bool

    def victim_gap(self, slot: str) -> int:
        return self.victim.slot(slot).lo - self.buffer_lo

    def caller_gap(self, slot: str) -> int:
        if self.caller is None:
            raise KeyError("channel has no caller frame")
        return self.caller.slot(slot).lo + self.caller_height - self.buffer_lo

    def gap(self, frame: str, slot: str) -> int:
        return self.victim_gap(slot) if frame == "victim" else self.caller_gap(slot)

    @property
    def cookie_gap(self) -> int:
        return -8 - self.buffer_lo

    def victim_slots_between(self, lo: int, hi: int) -> List[Tuple[str, int, int]]:
        """Named victim slots overlapping payload range [lo, hi)."""
        out = []
        for slot in self.victim.slots:
            if slot.synthetic:
                continue
            gap = slot.lo - self.buffer_lo
            if gap < hi and gap + slot.size > lo:
                out.append((slot.name, gap, slot.size))
        return out


def gap_model(
    victim: reach.FrameLayout,
    caller: Optional[reach.FrameLayout],
    buffer: str,
) -> GapModel:
    """Positions for ``victim``'s frame stacked below ``caller``'s."""
    height = 0 if caller is None else reach.frame_height(caller)
    return GapModel(
        victim, caller, height, victim.slot(buffer).lo, victim.has_canary
    )


def cleanstack_gap_model(
    victim: FunctionFacts,
    caller: Optional[FunctionFacts],
    buffer: str,
) -> GapModel:
    """Region-local gap model for the taint-partitioned dual stack.

    If the buffer was relocated to the unclean stack, the reachable
    world is the unclean region: the victim's unclean slots (offsets
    relative to the region top), stacked directly below the caller's
    unclean slice — contiguous, because the unclean-stack pointer
    descends per frame just like the main one.  Otherwise the buffer
    lives on the thinned main stack and the model is the partition-aware
    main layout.  Either way, a planned write whose target sits in the
    *other* region has no coordinate here and fails to build — which is
    the defense's guarantee expressed in payload coordinates.
    """
    v_main, v_unsafe = reach.cleanstack_region_slots(victim, victim.partition)
    buffer_unsafe = any(slot.name == buffer for slot in v_unsafe)
    v_slots = v_unsafe if buffer_unsafe else v_main
    victim_layout = reach.FrameLayout(
        victim.function.name, v_slots, has_canary=False
    )
    caller_layout = None
    height = 0
    if caller is not None:
        c_main, c_unsafe = reach.cleanstack_region_slots(
            caller, caller.partition
        )
        c_slots = c_unsafe if buffer_unsafe else c_main
        caller_layout = reach.FrameLayout(
            caller.function.name, c_slots, has_canary=False
        )
        if buffer_unsafe:
            # Unclean slices carry no cookie/canary band; the region
            # height is just the slots' 16-aligned extent.
            lows = [slot.lo for slot in c_slots]
            height = -reach._align_down(min(lows), 16) if lows else 0
        else:
            height = reach.frame_height(caller_layout)
    return GapModel(
        victim_layout,
        caller_layout,
        height,
        victim_layout.slot(buffer).lo,
        False,
    )
