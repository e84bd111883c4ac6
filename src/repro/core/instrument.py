"""The Smokestack instrumentation pass (paper §III-D.1/2, §IV-B).

For every function with automatic variables the pass:

1. inserts a single *unified* stack allocation sized for the worst-case
   permutation of the function's objects,
2. inserts a call to the randomness runtime (``__ss_rand``) and selects a
   row of the function's P-BOX table with it (mask when the table was
   rounded to a power of two, modulo otherwise),
3. replaces every original ``alloca`` with a GEP slice into the unified
   allocation at the offset the chosen row dictates,
4. stores the XOR-masked function identifier into its own permuted slot
   and re-checks it before every return (``__ss_fail`` aborts on
   mismatch),
5. precedes every variable-length allocation with a random-sized dummy
   allocation so VLAs are randomized too.

The pass mutates the module in place and records what it did in each
function's ``metadata['smokestack']``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.allocations import StackAllocation, discover_function
from repro.core.config import SmokestackConfig
from repro.core.fnid import function_identifier
from repro.core.pbox import PBox, PBoxEntry
from repro.errors import IRError
from repro.ir.builder import IRBuilder
from repro.ir.instructions import Alloca, BinOp, Call, Instruction, Ret
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import Constant, GlobalVariable, Value
from repro.minic import types as ct
from repro.rng.sources import PSEUDO_STATE_GLOBAL

#: VLA dummy padding is rand & VLA_PAD_MASK bytes (0..248, 8-aligned).
VLA_PAD_MASK = 0xF8

#: Name of the fnid pseudo-allocation appended to each permuted frame.
FNID_SLOT_NAME = "__ss_fnid"


class InstrumentationRecord:
    """What the pass did to one function (stored in function metadata)."""

    def __init__(
        self,
        function_name: str,
        entry: Optional[PBoxEntry],
        identifier: Optional[int],
        frame_size: int,
        permuted_slots: int,
        vla_sites: int,
    ):
        self.function_name = function_name
        self.entry = entry
        self.identifier = identifier
        self.frame_size = frame_size
        self.permuted_slots = permuted_slots
        self.vla_sites = vla_sites

    def __repr__(self) -> str:
        return (
            f"InstrumentationRecord({self.function_name!r}, "
            f"{self.permuted_slots} slots, frame {self.frame_size}B, "
            f"{self.vla_sites} VLAs)"
        )


def instrument_module(
    module: Module, config: Optional[SmokestackConfig] = None
) -> PBox:
    """Apply Smokestack to every eligible function of ``module`` in place.

    Returns the program's :class:`PBox`; its tables are added to the
    module as read-only globals, and the memory-backed PRNG state global
    (used only by the 'pseudo' scheme) is added as writable data.
    """
    config = config or SmokestackConfig()
    config.validate()
    pbox = PBox(config)
    skipped: List[str] = []
    proven = frozenset()
    if config.selective:
        # Imported lazily: analysis builds on core, not the other way
        # around, and only selective mode needs the prover.
        from repro.synth.facts import ProgramFacts

        report = ProgramFacts(module=module).safety
        proven = frozenset(report.proven_functions())
    for function in module.functions.values():
        if function.name in proven:
            skipped.append(function.name)
            continue
        _instrument_function(function, module, pbox, config)
    # Table globals were added on demand as instructions referenced them;
    # nothing further to install here.
    if PSEUDO_STATE_GLOBAL not in module.globals:
        module.add_global(GlobalVariable(PSEUDO_STATE_GLOBAL, ct.ULONG))
    module.metadata["smokestack"] = {
        "config": config,
        "pbox": pbox,
        "selective_skipped": skipped,
    }
    # In-place rewrite: machines already bound to this module must drop
    # their identity-keyed caches (alloca layouts, predecoded blocks).
    module.bump_version()
    return pbox


def is_instrumented(module: Module) -> bool:
    return "smokestack" in module.metadata


def _instrument_function(
    function: Function, module: Module, pbox: PBox, config: SmokestackConfig
) -> None:
    descriptor = discover_function(function)
    has_static = descriptor.count > 0
    has_vla = bool(descriptor.vla_allocas)
    if not has_static and not has_vla:
        return  # no automatic variables: nothing to randomize (paper §IV-B)

    allocations = list(descriptor.allocations)
    use_fnid = config.fnid_checks
    if use_fnid:
        allocations.append(
            StackAllocation(FNID_SLOT_NAME, 8, 8, index=len(allocations))
        )

    entry: Optional[PBoxEntry] = None
    replacement: Dict[Alloca, Value] = {}
    identifier: Optional[int] = None
    rand_value: Optional[Value] = None
    fnid_ptr: Optional[Value] = None

    if allocations:
        entry = pbox.add_function(function.name, allocations)
        table = entry.table
        pbox_global = _table_global(module, pbox, table.global_name)

        old_entry = function.entry
        prologue = function.new_block("ss.prologue")
        function.blocks.remove(prologue)
        function.blocks.insert(0, prologue)
        builder = IRBuilder(function, prologue)

        frame = builder.alloca(
            ct.ArrayType(ct.CHAR, max(1, entry.total_size)),
            align=16,
            var_name="__ss_frame",
        )
        rand_value = builder.call("__ss_rand", [], ct.LONG)
        rows = table.row_count
        if table.pow2 and rows & (rows - 1) == 0:
            row = builder.and_(rand_value, Constant(ct.LONG, rows - 1))
        else:
            row = builder.binop("urem", rand_value, Constant(ct.LONG, rows))
        stride = Constant(ct.LONG, table.slot_count)
        row_base = builder.mul(row, stride)

        slices: List[Value] = []
        for index, allocation in enumerate(allocations):
            column = entry.column_map[index]
            flat = builder.add(row_base, Constant(ct.LONG, column))
            cell_ptr = builder.elem_ptr(pbox_global, flat)
            offset_u32 = builder.load(cell_ptr)
            offset = builder.convert(offset_u32, ct.LONG)
            slice_char = builder.elem_ptr(frame, offset)
            slices.append(slice_char)

        for index, allocation in enumerate(descriptor.allocations):
            original = allocation.alloca
            assert original is not None
            typed = builder.convert(
                slices[index], ct.PointerType(original.allocated_type)
            )
            typed.name = function.next_value_name(original.var_name or "slice")
            replacement[original] = typed

        if use_fnid:
            identifier = function_identifier(function.name)
            fnid_ptr = builder.convert(slices[-1], ct.PointerType(ct.LONG))
            masked = builder.xor(rand_value, Constant(ct.LONG, identifier))
            builder.store(masked, fnid_ptr)

        builder.br(old_entry)
        for inst in prologue.instructions:
            inst.synthetic = True  # cost model: instrumentation discount

        _replace_alloca_uses(function, replacement, skip_block=prologue)
        _remove_static_allocas(function, replacement)

    if has_vla and config.vla_padding:
        _pad_vlas(function, descriptor.vla_allocas)

    if use_fnid and fnid_ptr is not None and rand_value is not None:
        _insert_epilogue_checks(function, fnid_ptr, rand_value, identifier)

    function.metadata["smokestack"] = InstrumentationRecord(
        function.name,
        entry,
        identifier,
        entry.total_size if entry else 0,
        len(allocations),
        len(descriptor.vla_allocas),
    )


def _table_global(module: Module, pbox: PBox, global_name: str) -> GlobalVariable:
    """The P-BOX table global (added to the module at the end of the pass,
    but instructions need the GlobalVariable object now)."""
    if global_name in module.globals:
        return module.globals[global_name]
    for table in pbox.tables:
        if table.global_name == global_name:
            variable = table.as_global()
            module.add_global(variable)
            return variable
    raise IRError(f"P-BOX has no table global '{global_name}'")


def _replace_alloca_uses(
    function: Function, replacement: Dict[Alloca, Value], skip_block: BasicBlock
) -> None:
    for block in function.blocks:
        if block is skip_block:
            continue
        for inst in block.instructions:
            for position, operand in enumerate(inst.operands):
                if isinstance(operand, Alloca) and operand in replacement:
                    inst.operands[position] = replacement[operand]


def _remove_static_allocas(
    function: Function, replacement: Dict[Alloca, Value]
) -> None:
    for block in function.blocks:
        block.instructions = [
            inst
            for inst in block.instructions
            if not (isinstance(inst, Alloca) and inst in replacement)
        ]


def _pad_vlas(function: Function, vla_allocas: List[Alloca]) -> None:
    """Insert ``__ss_rand``-sized dummy allocas before each VLA (§III-D.1)."""
    targets = set(vla_allocas)
    for block in function.blocks:
        if not targets.intersection(block.instructions):
            continue
        rebuilt: List[Instruction] = []
        for inst in block.instructions:
            if isinstance(inst, Alloca) and inst in targets:
                rand_call = Call("__ss_rand", [], ct.LONG)
                rand_call.name = function.next_value_name("vlarand")
                mask = Constant(ct.LONG, VLA_PAD_MASK)
                pad = BinOp("and", rand_call, mask)
                pad.name = function.next_value_name("vlapad")
                dummy = Alloca(
                    ct.CHAR, count=pad, align=16, var_name="__ss_vlapad"
                )
                dummy.name = function.next_value_name("vladummy")
                for new_inst in (rand_call, pad, dummy):
                    new_inst.block = block
                    new_inst.synthetic = True
                    rebuilt.append(new_inst)
            rebuilt.append(inst)
        block.instructions = rebuilt


def _insert_epilogue_checks(
    function: Function,
    fnid_ptr: Value,
    rand_value: Value,
    identifier: int,
) -> None:
    """Rewrite every return: load/unmask/compare the identifier first."""
    fail_block = function.new_block("ss.fail")
    fail_builder = IRBuilder(function, fail_block)
    fail_builder.call("__ss_fail", [Constant(ct.LONG, identifier)], ct.VOID)
    fail_builder.unreachable()
    for inst in fail_block.instructions:
        inst.synthetic = True

    for block in list(function.blocks):
        if block is fail_block:
            continue
        terminator = block.terminator()
        if not isinstance(terminator, Ret):
            continue
        block.instructions.pop()  # detach the Ret
        builder = IRBuilder(function, block)
        stored = builder.load(fnid_ptr)
        unmasked = builder.xor(stored, rand_value)
        ok = builder.cmp("eq", unmasked, Constant(ct.LONG, identifier))
        ret_block = function.new_block("ss.ret")
        check = builder.cond_br(ok, ret_block, fail_block)
        for inst in (stored, unmasked, ok, check):
            inst.synthetic = True
        ret_block.append(terminator)
