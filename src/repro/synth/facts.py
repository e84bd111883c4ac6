"""Attacker-knowledge fact base for the attack compiler.

``ProgramFacts`` bundles everything the planner consults about a victim
program, derived purely from the *reference* (unhardened) module — the
attacker's own copy of the binary, per the paper's threat model.  Facts
are symbolic: global values are referenced by name and resolved to
concrete addresses only at concretization time against the deployed
build's image, so the same plan works across ASLR-relocated instances.

The gadget census comes from
:func:`repro.analysis.taintflow.collect_gadget_sinks` run under the
flow-insensitive corruption-model predicate — the same walk behind both
``analyze`` sink reporting and ``gadgets.py``, so the planner cannot see
gadgets the analyses would miss (or vice versa).
"""

from __future__ import annotations

from functools import cached_property
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Set,
)

from repro.analysis import reach
from repro.analysis.intervals import IntervalAnalysis
from repro.analysis.taintflow import (
    INPUT_BUILTINS,
    SinkHit,
    TaintAnalysis,
    TaintFlowAnalysis,
    attacker_param_indices,
    collect_gadget_sinks,
    input_deriving_functions,
)
from repro.core.allocations import FrameDescriptor, discover_function
from repro.core.pipeline import compile_source
from repro.ir.instructions import Alloca, Call, Cast, ElemPtr, FieldPtr, Store
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import Constant, GlobalVariable
from repro.opt.cfg import DominatorTree, predecessors, reachable_blocks, successors

if TYPE_CHECKING:  # channels imports this module
    from repro.synth.channels import OverflowChannel


class NeedleLocation(NamedTuple):
    """Where a byte string lives in the loaded image (symbolically)."""

    global_name: str
    offset: int  # byte offset of the needle inside the global's image


class InitValue(NamedTuple):
    """A slot's pre-input value, provable from entry-dominating stores.

    ``kind`` is ``"const"`` (``value`` is the integer) or
    ``"global-addr"`` (``value`` is the global's name; the concretizer
    resolves it against the deployed image).
    """

    kind: str
    value: object


class CallerSite(NamedTuple):
    function: Function
    call: Call


class FunctionFacts:
    """IR-derived facts about one function, each built on first use.

    The one source of per-function facts: the frame descriptor, slot
    names, buffers and declaration-order layout, the interval analysis,
    the seeded input taint, the corruption-model taint, the cleanstack
    partition and the CFG facts.  One instance serves the synth planner,
    every (defense, mode) planner of the exploit prover, every defense's
    layout family and every ``analyze`` pass (reach, lint, exposure,
    safety, crosscheck).  :meth:`ProgramFacts.of` hands them out for its
    module, whose module-wide facts (input-deriving functions, attacker
    parameters) they read, and drops them all when ``Module.version``
    moves; a bare instance (``program=None``) analyses its function
    alone, as if no other function existed.
    """

    def __init__(self, function: Function, program: Optional[ProgramFacts] = None):
        self.function = function
        self.program = program
        self._layouts: Dict[bool, reach.FrameLayout] = {}
        self._guards: Dict[BasicBlock, object] = {}
        #: (id(value), id(site)) -> planner expression (see ProgramFacts.expr)
        self.exprs: Dict[tuple, object] = {}

    # ---------------------------------------------------------------- CFG

    @cached_property
    def dominators(self) -> DominatorTree:
        return DominatorTree(self.function)

    @cached_property
    def reachable(self) -> Set[BasicBlock]:
        return reachable_blocks(self.function)

    @cached_property
    def loop_blocks(self) -> Set[BasicBlock]:
        """Blocks inside any natural loop."""
        reachable = self.reachable
        tree = self.dominators
        preds = predecessors(self.function)
        inside: Set[BasicBlock] = set()
        for block in self.function.blocks:
            if block not in reachable:
                continue
            for successor in successors(block):
                if not tree.dominates(successor, block):
                    continue
                body = {successor, block}
                work = [block]
                while work:
                    node = work.pop()
                    for pred in preds.get(node, ()):
                        if pred not in body:
                            body.add(pred)
                            if pred is not successor:
                                work.append(pred)
                inside |= body
        return inside

    def guards(self, site_block: BasicBlock):
        """:func:`repro.synth.planner.guards_for` of ``site_block``."""
        if site_block not in self._guards:
            from repro.synth.planner import guards_for

            self._guards[site_block] = guards_for(self, site_block)
        return self._guards[site_block]

    @cached_property
    def calls(self) -> List[Call]:
        """The call instructions, in program order."""
        return [inst for inst in self.function.instructions() if isinstance(inst, Call)]

    @cached_property
    def intervals(self) -> IntervalAnalysis:
        return IntervalAnalysis(self.function)

    # ------------------------------------------------------------- frame

    @cached_property
    def descriptor(self) -> FrameDescriptor:
        return discover_function(self.function)

    @cached_property
    def allocation_names(self) -> Dict[int, str]:
        """id(StackAllocation) -> unique slot name (reach's discipline)."""
        return reach.unique_slot_names(self.descriptor.allocations)

    @cached_property
    def slot_names(self) -> Dict[int, str]:
        """id(Alloca) -> unique slot name."""
        names = self.allocation_names
        return {
            id(allocation.alloca): names[id(allocation)]
            for allocation in self.descriptor.allocations
            if allocation.alloca is not None
        }

    @cached_property
    def buffers(self) -> List[str]:
        """Source-named array locals — the overflowable objects — by slot
        name, in declaration order."""
        names = self.allocation_names
        return [
            names[id(allocation)]
            for allocation in self.descriptor.allocations
            if allocation.alloca is not None
            and allocation.alloca.var_name
            and not allocation.alloca.var_name.startswith("__")
            and allocation.alloca.allocated_type.is_array()
        ]

    def layout(self, canary: bool = False) -> reach.FrameLayout:
        """The declaration-order layout — what the attacker's static
        analysis of the reference binary sees."""
        layout = self._layouts.get(canary)
        if layout is None:
            layout = reach.FrameLayout(
                self.function.name,
                reach.allocation_slots(
                    self.descriptor.allocations,
                    canary=canary,
                    names=self.allocation_names,
                ),
                has_canary=canary,
            )
            self._layouts[canary] = layout
        return layout

    @cached_property
    def partition(self):
        """The cleanstack partition the analyses model: the module's
        input-deriving callees are sources, parameters are not seeded
        (a deployed build's ``partition_module`` seeds them)."""
        from repro.analysis.partition import partition_function

        return partition_function(self.function, self._input_deriving)

    # ------------------------------------------------------------- taint

    @property
    def _input_deriving(self) -> AbstractSet[str]:
        program = self.program
        return frozenset() if program is None else program.input_deriving

    @cached_property
    def input_taint(self) -> TaintFlowAnalysis:
        """The seeded input-taint analysis (sinks, lint, exposure,
        safety): input-deriving callees are sources and the parameters
        :attr:`ProgramFacts.attacker_params` marks are seeded."""
        program = self.program
        params = (
            () if program is None else program.attacker_params[self.function.name]
        )
        return TaintFlowAnalysis(self.function, self._input_deriving, params)

    @cached_property
    def taint(self) -> TaintAnalysis:
        """The corruption-model taint (gadget census, planner)."""
        return TaintAnalysis(self.function)

    @cached_property
    def sinks(self) -> List[SinkHit]:
        """Corruption-model gadget census (the shared walk)."""
        taint = self.taint
        return collect_gadget_sinks(
            self.function, lambda value, _inst: taint.is_controlled(value)
        )

    @cached_property
    def initial_values(self) -> Dict[str, InitValue]:
        """See :meth:`ProgramFacts.initial_values`."""
        function = self.function
        values: Dict[str, InitValue] = {}
        input_blocks = [
            inst.block for inst in self.calls if inst.callee_name() in INPUT_BUILTINS
        ]
        reachable = self.reachable
        tree = self.dominators
        names = self.slot_names
        for block in function.blocks:
            if block not in reachable:
                continue
            if input_blocks and not all(
                tree.dominates(block, target) for target in input_blocks
            ):
                continue
            for inst in block.instructions:
                if not isinstance(inst, Store):
                    continue
                if not isinstance(inst.pointer, Alloca):
                    continue
                slot = names.get(id(inst.pointer))
                if slot is None:
                    continue
                value = inst.value
                while isinstance(value, Cast):
                    value = value.value
                if isinstance(value, Constant) and isinstance(value.value, int):
                    values[slot] = InitValue("const", value.value)
                elif isinstance(value, GlobalVariable):
                    values[slot] = InitValue("global-addr", value.name)
                else:
                    # An unknown value kills any earlier claim.
                    values.pop(slot, None)
        return values

    @cached_property
    def escaped_slots(self) -> Set[str]:
        """See :meth:`ProgramFacts.escaped_slots`."""
        names = self.slot_names
        escaped: Set[str] = set()

        def walk(value, depth=0):
            if depth > 16:
                return
            if isinstance(value, Alloca):
                slot = names.get(id(value))
                if slot is not None:
                    escaped.add(slot)
            elif isinstance(value, Cast):
                walk(value.value, depth + 1)
            elif isinstance(value, (ElemPtr, FieldPtr)):
                walk(value.base, depth + 1)

        for inst in self.calls:
            for arg in inst.args:
                walk(arg)
        return escaped


class ProgramFacts:
    """Static facts about one victim program.

    Built over ``module`` when the caller already compiled ``source``
    (at any ``-O`` level, or from a cache); otherwise ``source`` is
    compiled at ``-O0`` as module ``name``.  ``source`` is what the
    attack campaign deploys, so a fact base built from a module alone
    serves analysis only.
    """

    def __init__(
        self,
        source: Optional[str] = None,
        name: str = "victim",
        *,
        module: Optional[Module] = None,
    ):
        self.source = source
        self.module: Module = (
            module if module is not None else compile_source(source, name)
        )
        self._functions: Dict[str, FunctionFacts] = {}
        self._functions_version = self.module.version
        self._callers: Optional[Dict[str, List[CallerSite]]] = None
        self._channels: "Optional[List[OverflowChannel]]" = None
        self._guard_env: Optional[tuple] = None

    # ---------------------------------------------------------------- IR

    def function(self, name: str) -> Function:
        return self.module.functions[name]

    def functions(self) -> List[Function]:
        return list(self.module.functions.values())

    def of(self, function: Function) -> FunctionFacts:
        """The per-function fact cache, valid for this module version."""
        if self._functions_version != self.module.version:
            self._functions.clear()
            self._functions_version = self.module.version
        facts = self._functions.get(function.name)
        if facts is None or facts.function is not function:
            facts = FunctionFacts(function, self)
            self._functions[function.name] = facts
        return facts

    # -------------------------------------------------------- module-wide

    @cached_property
    def input_deriving(self) -> FrozenSet[str]:
        """Functions that can (transitively) observe program input."""
        return frozenset(input_deriving_functions(self.module))

    @cached_property
    def attacker_params(self) -> Dict[str, FrozenSet[int]]:
        """function -> parameter indices that may receive attacker values."""
        return attacker_param_indices(self.module, self.input_deriving)

    def taint(self, function: Function) -> TaintAnalysis:
        return self.of(function).taint

    def sinks(self, function: Function) -> List[SinkHit]:
        """Corruption-model gadget census of ``function`` (shared walk)."""
        return self.of(function).sinks

    # ------------------------------------------------------------ frames

    def layout(self, function: Function, *, canary: bool = False) -> reach.FrameLayout:
        return self.of(function).layout(canary)

    def slot_names(self, function: Function) -> Dict[int, str]:
        """id(Alloca) -> unique slot name (reach's naming discipline)."""
        return self.of(function).slot_names

    def slot_of(self, function: Function, alloca: Alloca) -> Optional[str]:
        return self.slot_names(function).get(id(alloca))

    def alloca_of(self, function: Function, slot: str) -> Optional[Alloca]:
        for alloca_id, name in self.slot_names(function).items():
            if name == slot:
                for alloca in function.allocas():
                    if id(alloca) == alloca_id:
                        return alloca
        return None

    def buffers(self, function: Function) -> List[str]:
        return self.of(function).buffers

    # ----------------------------------------------------------- globals

    def global_variable(self, name: str) -> Optional[GlobalVariable]:
        return self.module.globals.get(name)

    def find_needle(self, needle: bytes) -> Optional[NeedleLocation]:
        """Locate ``needle`` inside some global's byte image."""
        for variable in self.module.globals.values():
            image = variable.byte_image()
            offset = image.find(needle)
            if offset >= 0:
                return NeedleLocation(variable.name, offset)
        return None

    def scratch_global(self, min_size: int) -> Optional[str]:
        """A writable global big enough to stage ``min_size`` bytes."""
        for variable in self.module.globals.values():
            if variable.readonly:
                continue
            if len(variable.byte_image()) >= min_size:
                return variable.name
        return None

    def global_init_word(self, name: str) -> Optional[int]:
        """Initial 64-bit little-endian value of a global, if ≥ 8 bytes."""
        variable = self.module.globals.get(name)
        if variable is None:
            return None
        image = variable.byte_image()
        if len(image) < 8:
            image = image + b"\x00" * (8 - len(image))
        return int.from_bytes(image[:8], "little")

    # ----------------------------------------------------------- callers

    def callers(self, name: str) -> List[CallerSite]:
        if self._callers is None:
            table: Dict[str, List[CallerSite]] = {}
            for function in self.module.functions.values():
                for inst in self.of(function).calls:
                    callee = inst.callee_name()
                    if callee in self.module.functions:
                        table.setdefault(callee, []).append(
                            CallerSite(function, inst)
                        )
            self._callers = table
        return self._callers.get(name, [])

    # ------------------------------------------------------ init values

    def initial_values(self, function: Function) -> Dict[str, InitValue]:
        """Slot values provably in place before the first attacker input.

        A store counts when (a) its pointer is a direct ``alloca``, (b)
        its value is a ``Constant`` or a global's address, (c) its block
        dominates every input-builtin call site (so it has certainly
        executed by the time corruption starts), and (d) it is the only
        such store... relaxed to: the *first* dominating store wins and a
        later dominating store overwrites it (program order).  Loops
        before the first input would break (c)'s "executed once"
        reading, but dominance already guarantees execution ≥ once and
        the last dominating store in program order is the live one for
        straight-line prologues, which is the shape the extractor
        targets.
        """
        return self.of(function).initial_values

    def escaped_slots(self, function: Function) -> set:
        """Slot names whose address reaches a call argument.

        A call can rewrite such a slot behind the store-graph's back
        (``input_read(&frame_len, 8)``), so its initial value must not
        feed guard evaluation.
        """
        return self.of(function).escaped_slots

    def expr(self, function: Function, value, site):
        """:func:`repro.synth.planner.build_expr` of ``value`` at ``site``,
        built once: every planner and search mode reads the same tree."""
        exprs = self.of(function).exprs
        key = (id(value), id(site))
        expr = exprs.get(key)
        if expr is None:
            from repro.synth.planner import build_expr

            expr = exprs[key] = build_expr(self, function, value, site)
        return expr

    def guard_env(self) -> tuple:
        """``(slot values, global words)`` the guard solver starts from.

        Slot values are the constant :meth:`initial_values` of every
        frame, keyed ``(function, slot)``, minus escaped slots (a call
        may rewrite them, so the init is stale); global words are each
        global's :meth:`global_init_word`.  Built once; read-only.
        """
        if self._guard_env is None:
            slots: Dict[tuple, int] = {}
            for function in self.module.functions.values():
                escaped = self.escaped_slots(function)
                for slot, init in self.initial_values(function).items():
                    if init.kind == "const" and slot not in escaped:
                        slots[(function.name, slot)] = init.value
            words = {
                name: word
                for name in self.module.globals
                if (word := self.global_init_word(name)) is not None
            }
            self._guard_env = (slots, words)
        return self._guard_env

    # ---------------------------------------------------------- channels

    def channels(self) -> "List[OverflowChannel]":
        """Every overflow channel, best first (discovered once; see
        :func:`repro.synth.channels.discover_channels`)."""
        if self._channels is None:
            from repro.synth.channels import discover_channels

            self._channels = discover_channels(self)
        return list(self._channels)

    # ------------------------------------------------------------ safety

    @cached_property
    def safety(self):
        """The bounds-safety report of this fact base
        (``analyze_module_safety``), built once."""
        from repro.analysis.safety import analyze_module_safety

        return analyze_module_safety(self)
