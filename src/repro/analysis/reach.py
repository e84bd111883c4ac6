"""Stack-layout overflow-reach analysis (symbolic, no execution).

For every ``alloca``'d buffer this module answers the question the DOP
attacker asks first: *which sibling slots does a linear overflow from
this buffer corrupt?* — under the baseline layout and under each
registered defense's family of layouts.

The frame model mirrors :meth:`repro.vm.interpreter.Machine._push_frame`
byte for byte, in frame-top-relative coordinates (frame top = 0, slots
at negative offsets, the return cookie at ``[-8, 0)``, the optional
canary directly below it).  An overflow writes *toward higher
addresses*: ``length`` bytes from the buffer's base corrupt every slot
overlapping ``[buffer.lo, buffer.lo + length)``, then the cookie, then
the caller's frame.

Defenses are modelled by the *set of layouts* they can deploy; each
registered defense's ``layouts`` method assembles its family from the
geometry here:

====================  ===========================================
``none`` / ``aslr``   one layout (ASLR shifts the base, not the
                      intra-frame distances)
``canary``            one layout, canary slot below the cookie
``padding``           8 layouts — one per Forrest pad choice
``static-permute``    sampled permutations of the declaration order
``cleanstack``        clean slots fixed in place; unclean slots
                      relocated as a block to the unclean stack at a
                      sampled load-time displacement
``shadowstack``       one layout — return-address isolation moves the
                      metadata band, not the data slots
``smokestack``        the function's own permutation-table rows
                      inside the unified frame (plus fnid slot)
====================  ===========================================

Every builder here takes the function's
:class:`~repro.synth.facts.FunctionFacts`: the frame descriptor, slot
names, declaration-order layout and cleanstack partition are its
fields, computed once and shared with the defenses, the exploit prover
and the ``analyze`` driver.  Only :func:`cleanstack_layouts` also takes
a partition, since the VM cross-check anchors it to a deployed build's.

``certain`` facts hold in *every* layout of the family (what a blind,
single-shot DOP exploit can rely on); ``possible`` facts hold in at
least one (what a brute-forcing attacker can eventually hit).  The
paper's claim, restated in these terms: Smokestack shrinks ``certain``
to (near) nothing while prior schemes leave it intact.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.allocations import FrameDescriptor, StackAllocation
from repro.core.config import SmokestackConfig
from repro.core.instrument import FNID_SLOT_NAME
from repro.core.permutation import generate_table

if TYPE_CHECKING:  # the fact bundle is built over this module's geometry
    from repro.analysis.partition import FramePartition
    from repro.synth.facts import FunctionFacts

COOKIE = "<return-cookie>"
CANARY = "<canary>"
CALLER = "<caller-frame>"


def _align_down(value: int, alignment: int) -> int:
    return value & ~(alignment - 1)


class Slot(NamedTuple):
    """One stack object in one concrete layout."""

    name: str
    lo: int  # frame-top-relative byte offset of the slot's lowest byte
    size: int

    @property
    def hi(self) -> int:
        return self.lo + self.size

    @property
    def synthetic(self) -> bool:
        return self.name.startswith("__")


class FrameLayout(NamedTuple):
    """One concrete frame layout in frame-top-relative coordinates."""

    function: str
    slots: Tuple[Slot, ...]
    has_canary: bool

    def slot(self, name: str) -> Slot:
        for slot in self.slots:
            if slot.name == name:
                return slot
        raise KeyError(f"no slot '{name}' in frame of '{self.function}'")

    def named_slots(self) -> Tuple[Slot, ...]:
        return tuple(s for s in self.slots if not s.synthetic)


class ReachSet(NamedTuple):
    """What one overflow corrupts in one concrete layout."""

    corrupted: FrozenSet[str]  # non-synthetic sibling slot names
    cookie: bool
    canary: bool
    escapes: bool  # writes past the frame top into the caller


class BufferReach(NamedTuple):
    """Reach summary of one buffer under one defense's layout family."""

    function: str
    buffer: str
    defense: str
    certain: FrozenSet[str]  # corrupted in every layout
    possible: FrozenSet[str]  # corrupted in at least one layout
    cookie_certain: bool
    layouts: int


def unique_slot_names(
    allocations: Sequence[StackAllocation],
) -> Dict[int, str]:
    """id(allocation) -> unique slot name.

    Source scopes let the same variable name appear twice in a frame
    (``for (int i...)`` twice); slot names must stay unique so reach
    sets and layout diffs can be keyed by name.  Later duplicates get a
    stable ``@N`` suffix based on *descriptor* (declaration) order, so
    the same allocation keeps the same name across permuted layouts.
    """
    counts: Dict[str, int] = {}
    names: Dict[int, str] = {}
    for allocation in allocations:
        counts[allocation.name] = counts.get(allocation.name, 0) + 1
        occurrence = counts[allocation.name]
        names[id(allocation)] = (
            allocation.name
            if occurrence == 1
            else f"{allocation.name}@{occurrence}"
        )
    return names


def allocation_slots(
    allocations: Sequence[StackAllocation],
    *,
    canary: bool,
    names: Optional[Dict[int, str]] = None,
) -> Tuple[Slot, ...]:
    """Lay ``allocations`` out in the given order, exactly as the VM does.

    The cursor starts below the 8-byte return cookie (and the canary, if
    present) and moves down: ``cursor -= size; align_down(cursor, align)``.
    Frame-top-relative offsets equal absolute ones for alignments up to
    the 16-byte frame-top alignment, so the model is exact.  ``names``
    (from :func:`unique_slot_names`, usually over the declaration order)
    overrides the per-slot display names.
    """
    if names is None:
        names = unique_slot_names(allocations)
    return tuple(
        Slot(names[id(allocation)], lo, allocation.size)
        for allocation, lo in zip(
            allocations, slot_offsets(allocations, canary=canary)
        )
    )


def slot_offsets(
    allocations: Sequence[StackAllocation], *, canary: bool
) -> List[int]:
    """The ``lo`` of each of ``allocations`` laid out in the given order
    (the arithmetic of :func:`allocation_slots`, without the slots).
    Offsets strictly decrease, so the last is the frame's lowest."""
    cursor = -16 if canary else -8
    out: List[int] = []
    for allocation in allocations:
        cursor = (cursor - allocation.size) & -allocation.align
        out.append(cursor)
    return out


class LayoutColumns(NamedTuple):
    """A layout family read by column: every slot's ``lo`` in each member
    (only slots present in every member) and each member's
    :func:`frame_height` — all the exploit prover's gap arithmetic reads."""

    los: Dict[str, Tuple[int, ...]]
    heights: Tuple[int, ...]


def layout_columns(layouts: Sequence[FrameLayout]) -> LayoutColumns:
    """The :class:`LayoutColumns` of a family of frame layouts."""
    los: Dict[str, List[int]] = {}
    for layout in layouts:
        for slot in layout.slots:
            los.setdefault(slot.name, []).append(slot.lo)
    return LayoutColumns(
        {
            name: tuple(column)
            for name, column in los.items()
            if len(column) == len(layouts)
        },
        tuple(frame_height(layout) for layout in layouts),
    )


def overflow_reach(
    layout: FrameLayout, buffer: str, length: int
) -> ReachSet:
    """Corruption of a ``length``-byte linear overflow from ``buffer``."""
    base = layout.slot(buffer)
    end = base.lo + length
    corrupted = frozenset(
        slot.name
        for slot in layout.slots
        if slot.name != buffer
        and not slot.synthetic
        and slot.lo < end
        and slot.hi > base.lo
    )
    canary_hit = layout.has_canary and end > -16
    return ReachSet(
        corrupted=corrupted,
        cookie=end > -8,
        canary=canary_hit,
        escapes=end > 0,
    )


def intra_frame_reach(layout: FrameLayout, buffer: str) -> ReachSet:
    """Reach of the longest overflow that stays inside this frame."""
    base = layout.slot(buffer)
    return overflow_reach(layout, buffer, -base.lo)


def frame_height(layout: FrameLayout) -> int:
    """Bytes from the frame base (16-aligned) to the frame top."""
    return height_below(
        min((slot.lo for slot in layout.slots), default=0),
        canary=layout.has_canary,
    )


def height_below(lowest: int, *, canary: bool) -> int:
    """:func:`frame_height` of a frame whose lowest slot starts at
    ``lowest`` (0 for a frame without slots)."""
    return -_align_down(min(lowest, -16 if canary else -8), 16)


def stacked_layout(
    caller: FunctionFacts,
    victim: FunctionFacts,
    *,
    canary: bool = False,
    prefix: Optional[str] = None,
) -> FrameLayout:
    """Two-frame layout: ``victim``'s frame directly below ``caller``'s.

    The VM pushes the callee's frame at the caller's frame base (both
    16-aligned), so in victim-frame-top coordinates the caller's slots
    sit at ``slot.lo + height(caller frame)``.  This is the layout an
    *inter-frame* overflow weaponizes — the librelp and ProFTPD attacks
    corrupt the caller's locals this way — and caller slots are
    prefixed (``"<caller>:"`` by default) so the combined name space
    stays unambiguous.  The victim's return cookie still sits at
    ``[-8, 0)``; the caller's own cookie is not modelled (corrupting it
    only matters after the caller returns).
    """
    caller_frame = caller.layout(canary)
    victim_frame = victim.layout(canary)
    height = frame_height(caller_frame)
    tag = prefix if prefix is not None else f"{caller.function.name}:"
    slots = victim_frame.slots + tuple(
        Slot(tag + slot.name, slot.lo + height, slot.size)
        for slot in caller_frame.slots
    )
    return FrameLayout(victim.function.name, slots, has_canary=canary)


def cleanstack_region_slots(
    facts: FunctionFacts, partition: FramePartition
) -> Tuple[Tuple[Slot, ...], Tuple[Slot, ...]]:
    """The two halves of a cleanstack frame, each in its own coordinates.

    Clean slots are laid out exactly as the VM's main-stack cursor does
    (frame top = 0, first slot below the return cookie, unclean indices
    skipped); unclean slots are laid out by the unclean-stack cursor
    relative to *its* region top (= 0, no cookie/canary band — metadata
    never moves to the unclean stack).  ``partition`` is the analyses'
    :attr:`FunctionFacts.partition`, or a deployed build's.
    """
    statics = facts.function.static_allocas()
    unclean_allocas = {
        statics[index]
        for index in partition.unclean_indices
        if index < len(statics)
    }
    names = facts.allocation_names
    main_slots: List[Slot] = []
    unsafe_slots: List[Slot] = []
    cursor = -8
    u_cursor = 0
    for allocation in facts.descriptor.allocations:
        relocated = (
            allocation.alloca is not None
            and allocation.alloca in unclean_allocas
        )
        if relocated:
            u_cursor -= allocation.size
            u_cursor = _align_down(u_cursor, allocation.align)
            unsafe_slots.append(
                Slot(names[id(allocation)], u_cursor, allocation.size)
            )
        else:
            cursor -= allocation.size
            cursor = _align_down(cursor, allocation.align)
            main_slots.append(
                Slot(names[id(allocation)], cursor, allocation.size)
            )
    return tuple(main_slots), tuple(unsafe_slots)


def cleanstack_layouts(
    facts: FunctionFacts,
    partition: FramePartition,
    *,
    samples: int = 64,
    seed: int = 0,
    deltas: Optional[Sequence[int]] = None,
) -> List[FrameLayout]:
    """Taint-partitioned dual-stack layouts.

    One layout per sampled displacement ``delta`` of the unclean region:
    clean slots keep their exact main-stack offsets in every member,
    while each unclean slot sits at ``u_lo + delta`` (``u_lo`` relative
    to the unclean-region top).  The sampled deltas stand in for the
    load-time draw — any byte-distance fact that survives the whole
    family is delta-invariant, i.e. purely intra-region, which is the
    defense's guarantee.  Pass an explicit ``deltas`` (e.g. one observed
    from a VM probe) to anchor the family for byte-exact cross-checking.
    """
    name = facts.function.name
    main_slots, unsafe_slots = cleanstack_region_slots(facts, partition)
    if not unsafe_slots:
        # Fully clean frame: single exact layout, nothing relocated.
        return [FrameLayout(name, main_slots, has_canary=False)]
    if deltas is None:
        deltas = _cleanstack_deltas(samples, seed)
    layouts = []
    for delta in deltas:
        slots = main_slots + tuple(
            Slot(slot.name, slot.lo + delta, slot.size)
            for slot in unsafe_slots
        )
        layouts.append(FrameLayout(name, slots, has_canary=False))
    return layouts


@lru_cache(maxsize=None)
def _cleanstack_deltas(samples: int, seed: int) -> Tuple[int, ...]:
    """The sampled unclean-region displacements, ascending (the same
    for every frame, so drawn once per ``(samples, seed)``)."""
    rng = random.Random(seed ^ 0xC1EA)
    count = max(1, min(8, samples))
    picked = set()
    while len(picked) < count:
        picked.add(-rng.randrange(16 * 1024, 64 * 1024, 16))
    return tuple(sorted(picked))


def smokestack_layouts(
    facts: FunctionFacts, *, samples: int = 64, seed: int = 0
) -> List[FrameLayout]:
    """Per-invocation layouts: permutation-table rows in the unified frame.

    Row offsets grow *upward* from the unified frame's base (the
    instrumentation GEPs ``frame + offset``), so a larger row offset is a
    higher address.  The fnid slot participates in the permutation just
    as the real pass arranges (it replaces the stack protector).
    """
    if not facts.descriptor.allocations:
        return [facts.layout()]
    allocations, names, rows, frame_lo = _smokestack_rows(
        facts.descriptor, samples, seed
    )
    return [
        FrameLayout(
            facts.function.name,
            tuple(
                Slot(names[id(allocation)], frame_lo + offset, allocation.size)
                for allocation, offset in zip(allocations, row)
            ),
            has_canary=False,
        )
        for row in rows
    ]


def smokestack_columns(
    facts: FunctionFacts, *, samples: int = 64, seed: int = 0
) -> LayoutColumns:
    """:func:`smokestack_layouts` by column, read off the table rows."""
    if not facts.descriptor.allocations:
        return layout_columns([facts.layout()])
    allocations, names, rows, frame_lo = _smokestack_rows(
        facts.descriptor, samples, seed
    )
    return LayoutColumns(
        {
            names[id(allocation)]: tuple(frame_lo + row[index] for row in rows)
            for index, allocation in enumerate(allocations)
        },
        tuple(
            height_below(frame_lo + min(row), canary=False) for row in rows
        ),
    )


def _smokestack_rows(descriptor: FrameDescriptor, samples: int, seed: int):
    """(allocations incl. the fnid slot, slot names, table rows, the
    unified frame's lo) of a frame with at least one allocation."""
    allocations = list(descriptor.allocations)
    config = SmokestackConfig()
    if config.fnid_checks:
        allocations.append(
            StackAllocation(FNID_SLOT_NAME, 8, 8, index=len(allocations))
        )
    names = unique_slot_names(allocations)
    table = generate_table(allocations, max_rows=samples, seed=seed)
    # The unified frame: one 16-aligned char array below the cookie.
    frame_lo = _align_down(-8 - table.total_size, 16)
    return allocations, names, table.rows, frame_lo


def reach_under_defense(
    facts: FunctionFacts,
    buffer: str,
    defense,
    *,
    samples: int = 64,
    seed: int = 0,
) -> BufferReach:
    """certain/possible intra-frame reach of ``buffer`` under ``defense``,
    a registered :class:`~repro.defenses.base.Defense` (its ``name`` and
    ``layouts`` are all this reads)."""
    layouts = defense.layouts(facts, samples=samples, seed=seed)
    certain: Optional[FrozenSet[str]] = None
    possible: FrozenSet[str] = frozenset()
    cookie_certain = True
    for layout in layouts:
        reach = intra_frame_reach(layout, buffer)
        certain = (
            reach.corrupted if certain is None else certain & reach.corrupted
        )
        possible = possible | reach.corrupted
        cookie_certain = cookie_certain and reach.cookie
    return BufferReach(
        function=facts.function.name,
        buffer=buffer,
        defense=defense.name,
        certain=certain or frozenset(),
        possible=possible,
        cookie_certain=cookie_certain,
        layouts=len(layouts),
    )
