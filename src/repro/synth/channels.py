"""Overflow-channel discovery: how attacker bytes reach a stack buffer.

A *channel* is the planner's write primitive: a recipe that turns crafted
input chunks into an out-of-bounds linear write from some stack buffer.
Each recognized channel records its *style* (which input protocol drives
it), its per-strike byte budget, whether payload bytes must avoid NUL,
the disclosure echo (if the program re-emits the buffer region), and the
gadget *dispatcher* that lets strikes repeat:

==================  ====================================================
``direct``          ``input_read(buf, K)`` with ``K`` past the buffer
                    end, or ``input_read_unbounded(buf)``
``staged-memcpy``   length header + staging buffer + ``memcpy_`` into
                    the stack buffer (the Wireshark shape)
``staged-strcpy``   length header + ``sstrncpy_`` whose negative count
                    degenerates to an unbounded string copy (ProFTPD)
``cursor``          ``i += snprintf_sim(buf + i, SZ - i, staged)`` —
                    the cursor overshoots, later writes land past the
                    buffer surgically (librelp)
``copy-loop``       ``buf[i] = src[i]`` with an attacker-controlled
                    bound (vulnerable_logger)
==================  ====================================================

Dispatchers: ``internal`` (the channel call sits in a loop of the victim
function — the frame persists across strikes), ``external`` (the victim
is called in a caller's loop — each strike is a fresh invocation, the
caller's frame persists), ``single`` (one invocation, one strike).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.taintflow import pointer_root
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Cast,
    CondBr,
    ElemPtr,
    Instruction,
    Load,
    Store,
)
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Argument, Constant, Value
from repro.synth.facts import CallerSite, ProgramFacts

#: Cap for "unbounded" primitives: far past any frame this repo builds.
UNBOUNDED_LIMIT = 65536


def strip_casts(value: Value) -> Value:
    while isinstance(value, Cast):
        value = value.value
    return value


def const_int(value: Value) -> Optional[int]:
    value = strip_casts(value)
    if isinstance(value, Constant) and isinstance(value.value, int):
        return value.value
    return None


@dataclass
class EchoSite:
    """``output_bytes(buf, length)`` with length past the buffer end."""

    call: Call
    length: int


@dataclass
class OverflowChannel:
    """One recognized write primitive."""

    function: Function          # victim: the function holding the buffer
    buffer: str                 # slot name of the overflowed buffer
    buffer_size: int
    style: str                  # direct | staged-memcpy | staged-strcpy | cursor | copy-loop
    write_limit: int            # max payload bytes (from buffer base) per strike
    nul_free: bool              # interior NULs impossible (string copies)
    chunk_limit: int            # per-input-chunk cap (cursor jump budget)
    echo: Optional[EchoSite]
    dispatcher: str             # internal | external | single
    caller: Optional[CallerSite]
    counter_slot: Optional[str] = None  # copy-loop: the index slot
    bound_slot: Optional[str] = None    # copy-loop: the bound's spill slot

    def describe(self) -> str:
        where = f"{self.function.name}.{self.buffer}[{self.buffer_size}]"
        return (
            f"{self.style} overflow of {where}, limit {self.write_limit}, "
            f"dispatcher {self.dispatcher}"
            + (f" via {self.caller.function.name}" if self.caller else "")
        )


def _buffer_slot(
    facts: ProgramFacts, function: Function, pointer: Value
) -> Optional[Tuple[str, int]]:
    """(slot name, size) when ``pointer`` roots at a local array buffer."""
    root = pointer_root(pointer)
    if not isinstance(root, Alloca):
        return None
    slot = facts.slot_of(function, root)
    if slot is None or slot not in facts.buffers(function):
        return None
    return slot, root.static_size()


def _scalar_slot(
    facts: ProgramFacts, function: Function, pointer: Value
) -> Optional[str]:
    root = strip_casts(pointer)
    if isinstance(root, Alloca):
        return facts.slot_of(function, root)
    return None


def _loaded_slot(
    facts: ProgramFacts, function: Function, value: Value
) -> Optional[str]:
    value = strip_casts(value)
    if isinstance(value, Load):
        return _scalar_slot(facts, function, value.pointer)
    return None


def _spill_root(value: Value) -> Optional[object]:
    """Pointer identity, following one load of a pointer spill slot.

    The frontend spills pointer parameters to allocas, so two uses of
    the same staging pointer appear as ``load(alloca(p))`` — the spill
    slot is the identity ``pointer_root`` alone cannot see.
    """
    root = pointer_root(value)
    if root is not None:
        return root
    value = strip_casts(value)
    if isinstance(value, Load):
        inner = strip_casts(value.pointer)
        if isinstance(inner, Alloca):
            return ("spill", id(inner))
    return None


def _same_root(a: Value, b: Value) -> bool:
    ra, rb = _spill_root(a), _spill_root(b)
    return ra is not None and ra == rb


def _find_echo(
    facts: ProgramFacts, function: Function, buffer_alloca: Alloca, size: int
) -> Optional[EchoSite]:
    """An ``output_bytes`` of the buffer region longer than the buffer."""
    init_values = facts.initial_values(function)
    for inst in function.instructions():
        if not isinstance(inst, Call) or inst.callee_name() != "output_bytes":
            continue
        root = pointer_root(inst.args[0])
        if root is not buffer_alloca:
            continue
        length = const_int(inst.args[1])
        if length is None:
            # length from a slot whose pre-input constant is known
            slot = _loaded_slot(facts, function, inst.args[1])
            if slot is not None:
                init = init_values.get(slot)
                if init is not None and init.kind == "const":
                    length = init.value
        if length is not None and length > size:
            return EchoSite(inst, length)
    return None


def _caller_loop_site(
    facts: ProgramFacts, function: Function
) -> Optional[CallerSite]:
    """A call site of ``function`` sitting inside a loop of its caller."""
    for site in facts.callers(function.name):
        if site.call.block in facts.of(site.function).loop_blocks:
            return site
    return None


def _dispatcher_of(
    facts: ProgramFacts, function: Function, site: Instruction
) -> Tuple[str, Optional[CallerSite]]:
    if site.block in facts.of(function).loop_blocks:
        return "internal", None
    caller = _caller_loop_site(facts, function)
    if caller is not None:
        return "external", caller
    single = facts.callers(function.name)
    return "single", single[0] if single else None


def _header_slots(facts: ProgramFacts, function: Function) -> Dict[str, Call]:
    """Scalar slots filled by an 8-byte ``input_read`` (length headers)."""
    headers: Dict[str, Call] = {}
    for inst in function.instructions():
        if isinstance(inst, Call) and inst.callee_name() == "input_read":
            if const_int(inst.args[1]) == 8:
                slot = _scalar_slot(facts, function, inst.args[0])
                if slot is not None:
                    headers[slot] = inst
    return headers


def _staging_limit(function: Function, pointer: Value) -> Optional[int]:
    """Chunk cap of the ``input_read`` that fills this staging pointer."""
    for inst in function.instructions():
        if isinstance(inst, Call) and inst.callee_name() == "input_read":
            if _same_root(inst.args[0], pointer):
                return const_int(inst.args[1])
    return None


def _copy_loop_limit(
    facts: ProgramFacts, function: Function, bound: Value
) -> Optional[int]:
    """Resolve a copy loop's bound to the caller's input chunk cap.

    The vulnerable_logger shape: the bound loads a slot spilled from an
    int parameter, and every caller passes an ``input_read`` result
    (directly or via a slot) whose limit constant caps the copy.
    """
    slot = _loaded_slot(facts, function, bound)
    if slot is None:
        return None
    alloca = facts.alloca_of(function, slot)
    if alloca is None:
        return None
    param_index: Optional[int] = None
    for inst in function.instructions():
        if isinstance(inst, Store) and strip_casts(inst.pointer) is alloca:
            value = strip_casts(inst.value)
            if isinstance(value, Argument):
                param_index = value.index
            else:
                return None
    if param_index is None:
        return None
    limits: List[int] = []
    for site in facts.callers(function.name):
        if param_index >= len(site.call.args):
            return None
        arg = strip_casts(site.call.args[param_index])
        if isinstance(arg, Load):
            got_slot = _scalar_slot(facts, site.function, arg.pointer)
            if got_slot is None:
                return None
            arg = None
            for inst in site.function.instructions():
                if isinstance(inst, Store):
                    slot_name = _scalar_slot(facts, site.function, inst.pointer)
                    if slot_name == got_slot:
                        arg = strip_casts(inst.value)
        if isinstance(arg, Call) and arg.callee_name() == "input_read":
            limit = const_int(arg.args[1])
            if limit is not None:
                limits.append(limit)
                continue
        return None
    return max(limits) if limits else None


def discover_channels(facts: ProgramFacts) -> List[OverflowChannel]:
    """All overflow channels of the program, best (longest reach) first."""
    channels: List[OverflowChannel] = []
    for function in facts.functions():
        channels.extend(_function_channels(facts, function))
    channels.sort(key=lambda c: c.write_limit, reverse=True)
    return channels


def _function_channels(
    facts: ProgramFacts, function: Function
) -> List[OverflowChannel]:
    channels: List[OverflowChannel] = []
    headers = _header_slots(facts, function)

    def buffer_of(pointer: Value):
        hit = _buffer_slot(facts, function, pointer)
        if hit is None:
            return None, None, None
        slot, size = hit
        alloca = facts.alloca_of(function, slot)
        return slot, size, alloca

    for inst in function.instructions():
        if not isinstance(inst, Call):
            continue
        callee = inst.callee_name()

        if callee in ("input_read", "input_read_unbounded"):
            slot, size, alloca = buffer_of(inst.args[0])
            if slot is None:
                continue
            limit = (
                UNBOUNDED_LIMIT
                if callee == "input_read_unbounded"
                else const_int(inst.args[1])
            )
            if limit is None or limit <= size:
                continue
            dispatcher, caller = _dispatcher_of(facts, function, inst)
            channels.append(
                OverflowChannel(
                    function,
                    slot,
                    size,
                    "direct",
                    limit,
                    nul_free=False,
                    chunk_limit=limit,
                    echo=_find_echo(facts, function, alloca, size),
                    dispatcher=dispatcher,
                    caller=caller,
                )
            )

        elif callee in ("memcpy_", "sstrncpy_"):
            slot, size, alloca = buffer_of(inst.args[0])
            if slot is None:
                continue
            count_slot = _loaded_slot(facts, function, inst.args[2])
            if count_slot is None or count_slot not in headers:
                continue
            staging = _staging_limit(function, inst.args[1])
            if staging is None or staging <= size:
                continue
            dispatcher, caller = _dispatcher_of(facts, function, inst)
            strcpy = callee == "sstrncpy_"
            channels.append(
                OverflowChannel(
                    function,
                    slot,
                    size,
                    "staged-strcpy" if strcpy else "staged-memcpy",
                    # sstrncpy_ with a negative count copies to the NUL:
                    # the staging chunk (minus its terminator) is the cap.
                    staging - 1 if strcpy else staging,
                    nul_free=strcpy,
                    chunk_limit=staging,
                    echo=_find_echo(facts, function, alloca, size),
                    dispatcher=dispatcher,
                    caller=caller,
                )
            )

        elif callee == "snprintf_sim":
            destination = strip_casts(inst.args[0])
            if not isinstance(destination, ElemPtr):
                continue
            slot, size, alloca = buffer_of(destination.base)
            if slot is None:
                continue
            cursor_slot = _loaded_slot(facts, function, destination.index)
            if cursor_slot is None:
                continue
            staging = _staging_limit(function, inst.args[2])
            if staging is None:
                continue
            # The SAN loop is internal to the victim, but the cursor
            # resets per invocation: strikes repeat per *connection*,
            # i.e. through the caller's loop.
            caller = _caller_loop_site(facts, function)
            if caller is not None:
                dispatcher = "external"
            else:
                sites = facts.callers(function.name)
                dispatcher, caller = "single", sites[0] if sites else None
            channels.append(
                OverflowChannel(
                    function,
                    slot,
                    size,
                    "cursor",
                    # one jump SAN advances the cursor at most chunk bytes
                    staging,
                    nul_free=True,
                    chunk_limit=staging,
                    echo=_find_echo(facts, function, alloca, size),
                    dispatcher=dispatcher,
                    caller=caller,
                )
            )

    # copy loops: buf[i] = src[i] with an attacker-controlled bound
    loops = facts.of(function).loop_blocks
    seen_buffers = {c.buffer for c in channels}
    for inst in function.instructions():
        if not isinstance(inst, Store) or inst.block not in loops:
            continue
        pointer = strip_casts(inst.pointer)
        if not isinstance(pointer, ElemPtr):
            continue
        hit = _buffer_slot(facts, function, pointer.base)
        if hit is None or hit[0] in seen_buffers:
            continue
        slot, size = hit
        value = strip_casts(inst.value)
        if not isinstance(value, Load):
            continue
        source_root = pointer_root(value.pointer)
        if isinstance(source_root, Alloca):
            # copying from another local is not an input channel
            if facts.slot_of(function, source_root) is not None:
                continue
        bound = _copy_loop_bound(function, inst.block, loops)
        if bound is None:
            continue
        limit = _copy_loop_limit(facts, function, bound)
        if limit is None or limit <= size:
            continue
        counter_slot = _loaded_slot(facts, function, pointer.index)
        bound_slot = _loaded_slot(facts, function, bound)
        dispatcher, caller = _dispatcher_of(facts, function, inst)
        if dispatcher == "internal":
            # the copy loop itself is the loop; strikes cannot repeat
            caller_site = _caller_loop_site(facts, function)
            if caller_site is not None:
                dispatcher, caller = "external", caller_site
            else:
                sites = facts.callers(function.name)
                dispatcher, caller = "single", sites[0] if sites else None
        alloca = facts.alloca_of(function, slot)
        channels.append(
            OverflowChannel(
                function,
                slot,
                size,
                "copy-loop",
                limit,
                nul_free=False,
                chunk_limit=limit,
                echo=_find_echo(facts, function, alloca, size),
                dispatcher=dispatcher,
                caller=caller,
                counter_slot=counter_slot,
                bound_slot=bound_slot,
            )
        )
    return channels


def _copy_loop_bound(
    function: Function, body_block: BasicBlock, loops: Set[BasicBlock]
) -> Optional[Value]:
    """The upper bound of the loop containing ``body_block``.

    Looks for the loop's exit compare ``i < bound`` and returns the
    ``bound`` operand.
    """
    for block in function.blocks:
        if block not in loops:
            continue
        terminator = block.terminator()
        if not isinstance(terminator, CondBr):
            continue
        exits = [
            t
            for t in (terminator.true_target, terminator.false_target)
            if t not in loops
        ]
        if not exits:
            continue
        cond = strip_casts(terminator.cond)
        # frontend normalizes to cmp[ne](cmp[op](a, b), 0)
        from repro.ir.instructions import Cmp

        if isinstance(cond, Cmp) and cond.op == "ne":
            inner = strip_casts(cond.lhs)
            if isinstance(inner, Cmp) and inner.op in ("slt", "sle", "ult", "ule"):
                return inner.rhs
    return None
