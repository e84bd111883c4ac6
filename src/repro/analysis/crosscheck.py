"""Static-vs-dynamic overflow-reach cross-check (the analyzer's oracle).

:mod:`repro.analysis.reach` *predicts* which sibling slots a linear
overflow corrupts; this module *executes* the overflow and diffs memory.
For every buffer the checker:

1. pushes a real frame with :meth:`Machine.push_probe_frame` (the
   authoritative layout — the same ``_push_frame`` the program runs on),
2. fills every static slot and the return cookie with a sentinel
   pattern,
3. writes an overflow pattern of the probed length from the buffer's
   base address,
4. reads every slot back: a slot is *observed corrupted* iff any of its
   bytes changed,
5. compares the observed set (and cookie hit) against the static
   prediction — exact equality, both directions, so the check catches
   missed corruption (false negatives, the dangerous kind) *and*
   over-claiming.

Writes past the frame top would leave the probe frame (and, at the top
of the stack, the segment), so the concrete write is capped there; the
*escapes-the-frame* prediction is exactly "the cap engaged", which the
checker verifies arithmetically.  Slot offsets themselves are also
compared (model vs. ``alloca_addresses``), so a layout-model drift
fails loudly even for lengths that corrupt nothing.

Wired into the fuzz harness as the ``reach`` oracle, every campaign
re-validates the analyzer against the VM on fresh random programs.
"""

from __future__ import annotations

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

from repro.analysis.reach import FrameLayout, overflow_reach
from repro.core.allocations import FrameDescriptor
from repro.ir.module import Function
from repro.vm.interpreter import Machine

if TYPE_CHECKING:
    from repro.synth.facts import FunctionFacts, ProgramFacts

SENTINEL = 0xAA
OVERFLOW_BYTE = 0x55


class CrosscheckResult(NamedTuple):
    """One executed overflow vs. its static prediction."""

    function: str
    buffer: str
    length: int  # bytes actually written
    predicted: FrozenSet[str]
    observed: FrozenSet[str]
    cookie_predicted: bool
    cookie_observed: bool
    layout_match: bool  # model offsets == VM alloca addresses

    @property
    def ok(self) -> bool:
        return (
            self.predicted == self.observed
            and self.cookie_predicted == self.cookie_observed
            and self.layout_match
        )

    def describe(self) -> str:
        if self.ok:
            return (
                f"{self.function}/{self.buffer}+{self.length}: ok "
                f"({len(self.observed)} slots, cookie={self.cookie_observed})"
            )
        parts = [f"{self.function}/{self.buffer}+{self.length}: MISMATCH"]
        missed = self.observed - self.predicted
        over = self.predicted - self.observed
        if missed:
            parts.append(f"missed={sorted(missed)}")
        if over:
            parts.append(f"overclaimed={sorted(over)}")
        if self.cookie_predicted != self.cookie_observed:
            parts.append(
                f"cookie predicted={self.cookie_predicted} "
                f"observed={self.cookie_observed}"
            )
        if not self.layout_match:
            parts.append("layout-model drift (offsets differ from VM)")
        return " ".join(parts)


def probe_lengths(layout: FrameLayout, buffer: str) -> List[int]:
    """Overflow lengths worth probing for one buffer.

    One byte over the end, a short stride past it, up to each further
    slot boundary above the buffer, and the full distance to the frame
    top (which crosses the cookie).
    """
    base = layout.slot(buffer)
    lengths = {base.size + 1, base.size + 17, -base.lo}
    for slot in layout.slots:
        if slot.lo > base.lo:
            lengths.add(slot.lo - base.lo + 1)
    return sorted(length for length in lengths if length > 0)


def crosscheck_function(
    machine: Machine, facts: FunctionFacts, *, canary: bool = False
) -> List[CrosscheckResult]:
    """Execute deliberate overflows for every buffer of the function
    ``facts`` describes on ``machine`` (a stack protector iff
    ``canary``), against its declaration-order layout."""
    if not facts.descriptor.allocations:
        return []
    return _probe_function(machine, facts, facts.layout(canary))


def _buffers(descriptor: FrameDescriptor, names: Dict[int, str]) -> List[str]:
    """Slot names of the overflowable (array, source-level) allocations,
    in declaration order."""
    return [
        names[id(allocation)]
        for allocation in descriptor.allocations
        if allocation.alloca is not None
        and allocation.alloca.allocated_type.is_array()
        and not allocation.name.startswith("__")
    ]


def _probe_function(
    machine: Machine, facts: FunctionFacts, layout: FrameLayout
) -> List[CrosscheckResult]:
    """Every buffer of the function ``facts`` describes at every
    :func:`probe_lengths` length, executed on ``machine`` and compared
    with ``layout``."""
    descriptor = facts.descriptor
    names = facts.allocation_names
    return [
        _probe_once(
            machine, facts.function, descriptor, names, layout, buffer, length
        )
        for buffer in _buffers(descriptor, names)
        for length in probe_lengths(layout, buffer)
    ]


def crosscheck_module(
    program: ProgramFacts, *, canary: bool = False
) -> List[CrosscheckResult]:
    """Cross-check every function of a (non-instrumented) program."""
    machine = Machine(program.module, stack_protector=canary)
    results: List[CrosscheckResult] = []
    for function in program.functions():
        results.extend(
            crosscheck_function(machine, program.of(function), canary=canary)
        )
    return results


def _slot_addresses(
    frame, descriptor: FrameDescriptor, names: Dict[int, str]
) -> Dict[str, Tuple[int, int]]:
    """slot name -> (address, size) in a pushed probe frame."""
    return {
        names[id(allocation)]: (
            frame.alloca_addresses[allocation.alloca],
            allocation.size,
        )
        for allocation in descriptor.allocations
    }


def _overflow(
    memory,
    frame,
    addresses: Dict[str, Tuple[int, int]],
    buffer: str,
    length: Optional[int],
) -> Tuple[int, FrozenSet[str]]:
    """Fill every slot with the sentinel, write ``length`` overflow bytes
    from ``buffer``'s base (capped at the frame top; ``None`` writes up
    to it) and read the slots back.

    Returns the bytes written and the other source-level slots that
    lost their sentinel.
    """
    for address, size in addresses.values():
        memory.write_bytes(address, bytes([SENTINEL]) * size)
    base_address, _ = addresses[buffer]
    writable = frame.frame_top - base_address
    concrete = writable if length is None else min(length, writable)
    if concrete <= 0:
        return concrete, frozenset()
    memory.write_bytes(base_address, bytes([OVERFLOW_BYTE]) * concrete)
    corrupted = frozenset(
        name
        for name, (address, size) in addresses.items()
        if name != buffer
        and not name.startswith("__")
        and memory.read_bytes(address, size) != bytes([SENTINEL]) * size
    )
    return concrete, corrupted


def _probe_once(
    machine: Machine,
    function: Function,
    descriptor: FrameDescriptor,
    names: Dict[int, str],
    layout: FrameLayout,
    buffer: str,
    length: int,
) -> CrosscheckResult:
    """One overflow of ``length`` bytes from ``buffer`` in a probe frame
    of ``function`` (whose frame ``descriptor`` and slot ``names`` the
    caller read from its fact bundle)."""
    frame = machine.push_probe_frame(function.name)
    memory = machine.memory
    try:
        addresses = _slot_addresses(frame, descriptor, names)
        # Model-vs-VM layout agreement: every slot's predicted offset must
        # equal the concrete address _push_frame chose.
        layout_match = True
        for name, (address, _) in addresses.items():
            if layout.slot(name).lo != address - frame.frame_top:
                layout_match = False
        cookie_before = memory.read_bytes(frame.ret_slot, 8)
        canary_before = (
            memory.read_bytes(frame.canary_addr, 8)
            if frame.canary_addr is not None
            else None
        )
        concrete, observed = _overflow(
            memory, frame, addresses, buffer, length
        )
        cookie_observed = memory.read_bytes(frame.ret_slot, 8) != cookie_before
        prediction = overflow_reach(layout, buffer, concrete)
        # The capped tail (length > concrete) is the escape case; the
        # model must agree that those bytes leave the frame.
        escape_consistent = (length > concrete) == (
            overflow_reach(layout, buffer, length).escapes
        )
        if canary_before is not None:
            canary_observed = (
                memory.read_bytes(frame.canary_addr, 8) != canary_before
            )
            escape_consistent = escape_consistent and (
                canary_observed == prediction.canary
            )
        return CrosscheckResult(
            function=function.name,
            buffer=buffer,
            length=concrete,
            predicted=prediction.corrupted,
            observed=observed,
            cookie_predicted=prediction.cookie,
            cookie_observed=cookie_observed,
            layout_match=layout_match and escape_consistent,
        )
    finally:
        machine.pop_probe_frame()


def failing(results: Sequence[CrosscheckResult]) -> List[CrosscheckResult]:
    return [result for result in results if not result.ok]


def crosscheck_dualstack(
    program: ProgramFacts, *, offsets: Sequence[int] = (0, 4096, 65520)
) -> List[CrosscheckResult]:
    """Byte-exactness probes for the dual-stack layout families.

    *Shadowstack* deploys the baseline data layout on a machine whose
    metadata band is isolated — the standard probes must agree unchanged.
    *Cleanstack* is probed at several load-time displacements of the
    unclean region: for each, one probe push observes the deployed
    region distance (``frame.unsafe_top - frame.frame_top``), the model
    family is anchored to exactly that delta via
    ``cleanstack_layouts(..., deltas=[delta])``, and the ordinary
    sentinel/overflow machinery then checks every slot offset and reach
    set against the VM, byte for byte.  The model is anchored to the
    deployed build's (seeded) partition, not the analyses' own.
    """
    from repro.analysis.partition import machine_partition, partition_module
    from repro.analysis.reach import cleanstack_layouts

    module = program.module
    results: List[CrosscheckResult] = []

    shadow_machine = Machine(module, shadow_stack=True)
    for function in program.functions():
        results.extend(
            crosscheck_function(shadow_machine, program.of(function))
        )

    partitions = partition_module(module)
    unclean = machine_partition(partitions)
    for offset in offsets:
        machine = Machine(
            module, clean_partition=unclean, unsafe_stack_offset=offset
        )
        for name, function in module.functions.items():
            facts = program.of(function)
            if not facts.descriptor.allocations:
                continue
            part = partitions[name]
            deltas = None
            if part.unclean_indices:
                frame = machine.push_probe_frame(name)
                deltas = [frame.unsafe_top - frame.frame_top]
                machine.pop_probe_frame()
            layout = cleanstack_layouts(facts, part, deltas=deltas)[0]
            results.extend(_probe_function(machine, facts, layout))
    return results


# ---------------------------------------------------------------------------
# Safety-proof probes: execute the maximal feasible write per buffer and
# verify no PROVEN_SAFE sibling loses its sentinel.
# ---------------------------------------------------------------------------


class SafetyProbe(NamedTuple):
    """One executed maximal-feasible overflow vs. the safety verdicts."""

    function: str
    buffer: str
    length: int  # bytes actually written (feasible bound, frame-capped)
    corrupted: FrozenSet[str]
    proven_hit: FrozenSet[str]  # PROVEN_SAFE slots among the corrupted

    @property
    def ok(self) -> bool:
        return not self.proven_hit

    def describe(self) -> str:
        status = "ok" if self.ok else "UNSOUND"
        extra = (
            "" if self.ok else f" proven slots corrupted={sorted(self.proven_hit)}"
        )
        return (
            f"{self.function}/{self.buffer}+{self.length}: {status} "
            f"({len(self.corrupted)} slots corrupted){extra}"
        )


def crosscheck_safety(program: ProgramFacts) -> List[SafetyProbe]:
    """Execute each buffer's statically-feasible maximal write (per
    ``program.safety``) and check that every slot the bytes actually
    reach is non-PROVEN_SAFE.

    This is the dynamic half of the soundness gate: the static prover
    claims a write bound per buffer; here the bound is driven through a
    real VM frame.  A PROVEN_SAFE buffer's bound never exceeds its size,
    so its probe must corrupt nothing; a breached buffer's probe may
    corrupt siblings — but only siblings the prover demoted.
    """
    from repro.analysis.safety import PROVEN_SAFE

    machine = Machine(program.module, stack_protector=False)
    results: List[SafetyProbe] = []
    for name, safety in program.safety.functions.items():
        facts = program.of(program.function(name))
        descriptor = facts.descriptor
        if not descriptor.allocations or descriptor.vla_allocas:
            continue  # VLA frames are all-UNKNOWN; nothing to validate
        names = facts.allocation_names
        proven = {
            s.slot for s in safety.slots if s.verdict == PROVEN_SAFE
        }
        for buffer in _buffers(descriptor, names):
            record = safety.slot(buffer)
            bound = record.write_bound if record is not None else None
            if bound == 0:
                continue  # nothing ever writes to this buffer
            frame = machine.push_probe_frame(name)
            try:
                concrete, corrupted = _overflow(
                    machine.memory,
                    frame,
                    _slot_addresses(frame, descriptor, names),
                    buffer,
                    bound,
                )
            finally:
                machine.pop_probe_frame()
            if concrete > 0:
                results.append(
                    SafetyProbe(
                        name,
                        buffer,
                        concrete,
                        corrupted,
                        frozenset(corrupted & proven),
                    )
                )
    return results
