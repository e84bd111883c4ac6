"""Taint analysis on the dataflow framework, with gadget sinks.

Two attacker models share this one engine:

* the default **input model** tracks the flow of program input — the
  attacker's legitimate channel — through the function;
* the **corruption model** (``corruption_model=True``) answers "what can
  the attacker influence given the DOP threat model's full write access
  to corruptible memory" (paper §III-B) and therefore additionally
  treats every load from writable storage as controlled.  This is the
  model the gadget census (:mod:`repro.analysis.gadgets`) runs under,
  via the :class:`TaintAnalysis` view below.

The input model works like this:

* sources: input builtins (``input_read`` & friends), ``main``'s
  parameters, calls into functions that themselves (transitively) read
  input, and any function the attack harness flags via
  ``function.metadata["taint_sources"]``;
* propagation: arithmetic, casts, selects, phis, address computation,
  plus stores into / loads out of the stack slot or global a pointer
  provably roots at (flow-sensitively, per CFG path);
* sinks, classified into the paper's DOP gadget taxonomy (§II-A):
  a tainted **pointer** operand of ``store`` (data-mover / write gadget),
  of ``load`` (dereference gadget), of ``elemptr`` (address-shift),
  tainted arithmetic feeding a store (arithmetic gadget), a tainted
  branch **condition** (conditional gadget — what a dispatcher needs),
  and tainted pointer/length at an output builtin (send gadget).

Every propagation step is recorded, so a sink can be explained as a
def-use chain back to its source (``repro analyze --explain``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.analysis.dataflow import ForwardProblem, UnionLattice, solve_forward
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Cast,
    Cmp,
    CondBr,
    ElemPtr,
    FieldPtr,
    Instruction,
    Load,
    Phi,
    Select,
    Store,
)
from repro.ir.module import Function, Module
from repro.ir.values import Argument, GlobalVariable, Value

#: Builtins whose return value / out-buffer is attacker input.
INPUT_BUILTINS = frozenset(
    {"input_read", "input_read_unbounded", "input_size", "guest_rand"}
)

#: Builtins that copy attacker-reachable bytes into their first pointer
#: argument when any source operand is tainted.
COPY_BUILTINS = frozenset(
    {"strcpy_", "strncpy_", "sstrncpy_", "memcpy_", "snprintf_sim"}
)

#: Output builtins: tainted pointer/length here is an exfiltration sink.
SEND_BUILTINS = frozenset({"output_bytes", "print_str", "print_int"})

#: Memory locations live in the dataflow state as ``("mem", root)``
#: tokens, a separate namespace from SSA values — an alloca is both an
#: SSA pointer *value* and a storage *location*, and conflating the two
#: would misclassify "load of a tainted value" as a tainted-pointer
#: dereference.  ``mem(None)`` is the unknown-location token: once
#: present, every load of unresolvable provenance is tainted.


def mem(root) -> Tuple[str, object]:
    """The state token for the storage rooted at ``root`` (None=unknown)."""
    return ("mem", root)


UNKNOWN_MEMORY = mem(None)


class SinkHit(NamedTuple):
    """One tainted value reaching a gadget-shaped sink."""

    kind: str          # mover | deref | arith | conditional | send | index
    function: str
    block: str
    instruction: Instruction
    tainted_operand: Value


#: Canonical sink taxonomy of :func:`collect_gadget_sinks`.
GADGET_SINK_KINDS = ("mover", "deref", "index", "arith", "conditional", "send")


def collect_gadget_sinks(function: Function, tainted) -> List[SinkHit]:
    """The single gadget-census walk of the repository.

    ``tainted(value, inst) -> bool`` decides whether ``value`` is
    attacker-influenced at program point ``inst``.  The input-taint sinks
    (:class:`TaintFlowAnalysis`) close over per-instruction dataflow
    states; the corruption-model census (``analysis/gadgets.py``) passes
    a flow-insensitive predicate and ignores ``inst``.  Both taxonomies
    are projections of the :data:`GADGET_SINK_KINDS` this walk emits, so
    the two censuses cannot drift (see ``tests/test_synth.py``'s
    census-identity test).
    """
    hits: List[SinkHit] = []
    fname = function.name
    feeds_store: Set[int] = {
        id(inst.value)
        for inst in function.instructions()
        if isinstance(inst, Store)
    }
    for block in function.blocks:
        label = block.label
        for inst in block.instructions:
            if isinstance(inst, Store):
                if tainted(inst.pointer, inst):
                    hits.append(
                        SinkHit("mover", fname, label, inst, inst.pointer)
                    )
            elif isinstance(inst, Load):
                if tainted(inst.pointer, inst):
                    hits.append(
                        SinkHit("deref", fname, label, inst, inst.pointer)
                    )
            elif isinstance(inst, ElemPtr):
                if tainted(inst.index, inst):
                    hits.append(
                        SinkHit("index", fname, label, inst, inst.index)
                    )
            elif isinstance(inst, BinOp):
                if id(inst) in feeds_store and all(
                    tainted(op, inst)
                    or not isinstance(op, (Instruction, Argument))
                    for op in inst.operands
                ) and any(tainted(op, inst) for op in inst.operands):
                    hits.append(
                        SinkHit("arith", fname, label, inst, inst.lhs)
                    )
            elif isinstance(inst, CondBr):
                if tainted(inst.cond, inst):
                    hits.append(
                        SinkHit("conditional", fname, label, inst, inst.cond)
                    )
            elif isinstance(inst, Call):
                if inst.callee_name() in SEND_BUILTINS:
                    for op in inst.operands:
                        if tainted(op, inst):
                            hits.append(
                                SinkHit("send", fname, label, inst, op)
                            )
                            break
    return hits


def pointer_root(value: Value, depth: int = 0) -> Optional[object]:
    """The alloca/global a pointer provably derives from, else None."""
    if depth > 64:
        return None
    if isinstance(value, (Alloca, GlobalVariable)):
        return value
    if isinstance(value, (ElemPtr, FieldPtr)):
        return pointer_root(value.operands[0], depth + 1)
    if isinstance(value, Cast):
        return pointer_root(value.operands[0], depth + 1)
    return None


def _is_memory_root(value: Value) -> bool:
    """Does this value denote writable memory the attacker may corrupt?"""
    if isinstance(value, Alloca):
        return True
    if isinstance(value, GlobalVariable):
        return not value.readonly
    return False


def address_reaches_writable(value: Value, depth: int = 0) -> bool:
    """Conservatively: does this pointer point into corruptible memory?"""
    if depth > 32:
        return True
    if _is_memory_root(value):
        return True
    if isinstance(value, (ElemPtr, FieldPtr, Cast)):
        return address_reaches_writable(value.operands[0], depth + 1)
    if isinstance(value, (Load, Call, Phi, Select)):
        # Pointer produced at runtime (loaded, returned, merged): assume
        # it can point at corruptible memory.
        return True
    return False


def input_deriving_functions(module: Module) -> Set[str]:
    """Functions that can (transitively) observe program input."""
    callers: Dict[str, Set[str]] = {name: set() for name in module.functions}
    seeded: Set[str] = set()
    for name, function in module.functions.items():
        if "taint_sources" in function.metadata:
            seeded.add(name)
        for inst in function.instructions():
            if not isinstance(inst, Call):
                continue
            callee = inst.callee_name()
            if callee in INPUT_BUILTINS:
                seeded.add(name)
            elif callee in callers:
                callers[callee].add(name)
    # Propagate "derives input" up the (static) call graph.
    work = list(seeded)
    derived = set(seeded)
    while work:
        current = work.pop()
        for caller in callers.get(current, ()):
            if caller not in derived:
                derived.add(caller)
                work.append(caller)
    return derived


#: The transfer rule of each instruction class, by the isinstance test
#: that selects it (first match wins); classes matching none are inert.
_RULE_BASES = (
    (Load, "load"),
    ((BinOp, Cmp, Cast, Select, ElemPtr, FieldPtr), "operands"),
    (Phi, "phi"),
    (Call, "call"),
    (Store, "store"),
)
#: concrete instruction class -> its rule (memoized :func:`_rule_of`)
_RULES: Dict[type, str] = {}


def _rule_of(kind: type) -> str:
    """The transfer rule of instruction class ``kind``."""
    rule = _RULES.get(kind)
    if rule is None:
        rule = next(
            (name for base, name in _RULE_BASES if issubclass(kind, base)),
            "inert",
        )
        _RULES[kind] = rule
    return rule


class TaintFlowAnalysis(ForwardProblem):
    """Flow-sensitive input taint for one function.

    The dataflow state is a frozenset of tainted *locations*: SSA values
    (instructions), arguments, and ``mem(root)`` tokens for storage
    (allocas / globals / the unknown location).  SSA taint is sticky (a
    value has one def), memory taint is per-path.
    """

    def __init__(
        self,
        function: Function,
        module: Optional[Module] = None,
        tainted_params: Iterable[int] = (),
        corruption_model: bool = False,
        collect_sinks: bool = True,
    ):
        self.function = function
        self.module = module
        self.lattice = UnionLattice()
        self.tainted_params = frozenset(tainted_params)
        #: corruption model: every load from writable storage is a source
        #: (the DOP attacker may have rewritten those bytes).
        self.corruption_model = corruption_model
        #: input_deriving_functions(module), computed on the first call
        #: to a module function (leaf functions never need it)
        self._input_deriving: Optional[Set[str]] = None
        #: value/root -> (reason, parent locations) for --explain chains.
        self.provenance: Dict[object, Tuple[str, Tuple[object, ...]]] = {}
        self.result = solve_forward(function, self)
        self.sinks: List[SinkHit] = (
            self._collect_sinks() if collect_sinks else []
        )

    # -- ForwardProblem ------------------------------------------------------------

    def entry_state(self, function: Function) -> FrozenSet:
        state = set()
        if function.name == "main":
            for param in function.params:
                state.add(param)
                self._record(param, "main parameter (attacker input)", ())
        extra = function.metadata.get("taint_sources")
        if extra:
            for param in function.params:
                if param.name in extra:
                    state.add(param)
                    self._record(param, "harness-flagged source parameter", ())
        for index in self.tainted_params:
            if 0 <= index < len(function.params):
                param = function.params[index]
                if param not in state:
                    state.add(param)
                    self._record(
                        param,
                        "receives an attacker-tainted argument "
                        "(interprocedural)",
                        (),
                    )
        return frozenset(state)

    def transfer(self, inst: Instruction, state: FrozenSet) -> FrozenSet:
        rule = _RULES.get(type(inst)) or _rule_of(type(inst))
        if rule == "inert":
            return state
        tainted = self._tainted_result(inst, state, rule)
        additions: List[object] = []
        if tainted is not None:
            reason, parents = tainted
            additions.append(inst)
            self._record(inst, reason, parents)
        if rule == "store":
            if self._is_tainted(inst.value, state):
                token = mem(pointer_root(inst.pointer))
                additions.append(token)
                self._record(token, "store of tainted value", (inst.value,))
        elif rule == "call":
            additions.extend(self._call_memory_effects(inst, state))
        if not additions:
            return state
        return state.union(additions)

    # -- transfer helpers ----------------------------------------------------------

    def _derives_input(self, name: str) -> bool:
        """Is ``name`` a module function that can observe program input?"""
        module = self.module
        if module is None or name not in module.functions:
            return False
        if self._input_deriving is None:
            self._input_deriving = input_deriving_functions(module)
        return name in self._input_deriving

    def _is_tainted(self, value: Value, state: FrozenSet) -> bool:
        # The state holds SSA values, arguments and ``mem`` tokens (tuples),
        # so for any IR value this is plain membership; the hot transfer
        # paths below test ``value in state`` directly.
        if isinstance(value, (Instruction, Argument)):
            return value in state
        return False

    def _tainted_result(
        self, inst: Instruction, state: FrozenSet, rule: str
    ) -> Optional[Tuple[str, Tuple[object, ...]]]:
        """(reason, parents) if ``inst``'s result becomes tainted, else None
        (``rule`` is :func:`_rule_of` its class)."""
        if rule == "load":
            pointer = inst.pointer
            if self._is_tainted(pointer, state):
                return ("load through tainted pointer", (pointer,))
            if self.corruption_model and address_reaches_writable(pointer):
                return ("load from corruptible memory", ())
            root = pointer_root(pointer)
            if root is not None and mem(root) in state:
                return ("load from tainted memory", (mem(root),))
            if root is None and UNKNOWN_MEMORY in state:
                return ("load from unresolved memory", (UNKNOWN_MEMORY,))
            return None
        if rule == "operands":
            parents = tuple(
                op for op in inst.operands if op in state
            )
            if parents:
                return (f"{inst.opcode()} over tainted operand", parents)
            return None
        if rule == "phi":
            parents = tuple(
                value for value, _ in inst.incomings if value in state
            )
            if parents:
                return ("phi merge of tainted value", parents)
            return None
        if rule == "call":
            name = inst.callee_name()
            if self.corruption_model:
                # The corruption model keeps ``guest_rand`` uncontrolled
                # (the attacker writes memory, not the RNG stream), so
                # only the explicit input channels are sources here.
                if name.startswith("input_"):
                    return (f"return of input builtin '{name}'", ())
            elif name in INPUT_BUILTINS:
                return (f"return of input builtin '{name}'", ())
            if self._derives_input(name):
                return (f"return of input-deriving function '{name}'", ())
            parents = tuple(op for op in inst.operands if op in state)
            if parents and not inst.ctype.is_void():
                return (f"call to '{name}' with tainted argument", parents)
            return None
        return None

    def _call_memory_effects(
        self, inst: Call, state: FrozenSet
    ) -> List[object]:
        """Memory roots a call taints through its pointer arguments."""
        name = inst.callee_name()
        out: List[object] = []
        if name in INPUT_BUILTINS and inst.args:
            token = mem(pointer_root(inst.args[0]))
            out.append(token)
            self._record(token, f"filled by input builtin '{name}'", ())
        elif name in COPY_BUILTINS and inst.args:
            sources_tainted = any(
                self._is_tainted(op, state)
                or ((root := pointer_root(op)) is not None
                    and mem(root) in state)
                for op in inst.args[1:]
            )
            if sources_tainted:
                token = mem(pointer_root(inst.args[0]))
                out.append(token)
                self._record(
                    token, f"copy builtin '{name}' with tainted source", ()
                )
        elif self._derives_input(name):
            # An input-deriving callee may write input into any buffer we
            # hand it a pointer to.
            for op in inst.args:
                if op.ctype.is_pointer():
                    token = mem(pointer_root(op))
                    out.append(token)
                    self._record(
                        token, f"out-buffer of input-deriving '{name}'", ()
                    )
        return out

    def _record(
        self, key: object, reason: str, parents: Tuple[object, ...]
    ) -> None:
        if key not in self.provenance:
            self.provenance[key] = (reason, parents)

    # -- results -------------------------------------------------------------------

    def is_tainted_at(self, value: Value, inst: Instruction) -> bool:
        """Was ``value`` tainted in the state just before ``inst``?"""
        block = inst.block
        for candidate, state in self.result.states_in(block):
            if candidate is inst:
                return self._is_tainted(value, state)
        return False

    def tainted_values(self) -> Set[Value]:
        """Every SSA value/argument tainted somewhere in the function."""
        out: Set[Value] = set()
        for block in self.function.blocks:
            state = self.result.block_out.get(block, frozenset())
            for item in state:
                if isinstance(item, (Instruction, Argument)):
                    out.add(item)
        return out

    def _collect_sinks(self) -> List[SinkHit]:
        # Flow-sensitive projection of the shared census walk: the taint
        # predicate consults the dataflow state just before each sink.
        states: Dict[int, FrozenSet] = {}
        for block in self.function.blocks:
            for inst, state in self.result.states_in(block):
                states[id(inst)] = state

        def tainted(value: Value, inst: Instruction) -> bool:
            return self._is_tainted(
                value, states.get(id(inst), frozenset())
            )

        return collect_gadget_sinks(self.function, tainted)

    def explain_chain(self, sink: SinkHit, limit: int = 12) -> List[str]:
        """Def-use chain from the sink's tainted operand back to a source."""
        from repro.ir.printer import format_instruction

        lines: List[str] = []
        seen: Set[int] = set()
        cursor: object = sink.tainted_operand
        while cursor is not None and len(lines) < limit:
            if id(cursor) in seen:
                break
            seen.add(id(cursor))
            entry = self.provenance.get(cursor)
            if isinstance(cursor, Instruction):
                rendered = format_instruction(cursor)
            elif isinstance(cursor, Argument):
                rendered = f"argument %{cursor.name}"
            elif isinstance(cursor, GlobalVariable):
                rendered = f"global @{cursor.name}"
            elif cursor == UNKNOWN_MEMORY:
                rendered = "(unresolved memory)"
            elif isinstance(cursor, tuple) and len(cursor) == 2 and cursor[0] == "mem":
                root = cursor[1]
                label = (
                    getattr(root, "var_name", None)
                    or getattr(root, "name", None)
                    or "?"
                )
                rendered = f"memory of '{label}'"
            else:
                rendered = repr(cursor)
            if entry is None:
                lines.append(rendered)
                break
            reason, parents = entry
            lines.append(f"{rendered}    ; {reason}")
            cursor = parents[0] if parents else None
        lines.reverse()
        return lines


def attacker_param_indices(module: Module) -> Dict[str, FrozenSet[int]]:
    """Parameter indices that may carry attacker-controlled *values*.

    Downward interprocedural propagation: a callee parameter is a taint
    source if any call site in the module passes it a tainted value.
    Iterated to a fixpoint (the map only grows, bounded by the total
    parameter count).  Deliberately value-taint only — a pointer whose
    *pointee* is tainted does not mark the parameter, since that would
    misclassify every load through the parameter as a dereference
    gadget.
    """
    current: Dict[str, Set[int]] = {name: set() for name in module.functions}
    rounds = sum(len(f.params) for f in module.functions.values()) + 1
    for _ in range(rounds):
        changed = False
        for name, function in module.functions.items():
            analysis = TaintFlowAnalysis(
                function, module, tainted_params=current[name]
            )
            for block in function.blocks:
                for inst, state in analysis.result.states_in(block):
                    if not isinstance(inst, Call):
                        continue
                    callee = inst.callee_name()
                    if callee not in current:
                        continue
                    for index, arg in enumerate(inst.args):
                        if index in current[callee]:
                            continue
                        if analysis._is_tainted(arg, state):
                            current[callee].add(index)
                            changed = True
        if not changed:
            break
    return {name: frozenset(indices) for name, indices in current.items()}


def analyze_taint_flow(
    module: Module,
) -> Dict[str, TaintFlowAnalysis]:
    """Run the input-taint analysis over every function of a module."""
    param_map = attacker_param_indices(module)
    return {
        name: TaintFlowAnalysis(
            function, module, tainted_params=param_map.get(name, ())
        )
        for name, function in module.functions.items()
    }


class TaintAnalysis:
    """Corruption-model attacker influence (the gadget census's view).

    Historically a separate fixed-point analysis
    (``analysis/taint.py``); now a flow-insensitive view over
    :class:`TaintFlowAnalysis` running in corruption mode — the two
    implementations were cross-checked census-for-census over the
    benchsuite and the canned attacks before the old one was deleted.
    """

    def __init__(self, function: Function):
        self.function = function
        self._flow = TaintFlowAnalysis(
            function, corruption_model=True, collect_sinks=False
        )
        #: every instruction the DOP attacker can (possibly) influence.
        self.controlled: Set[Instruction] = {
            value
            for value in self._flow.tainted_values()
            if isinstance(value, Instruction)
        }

    def is_controlled(self, value: Value) -> bool:
        """Is ``value`` (possibly) attacker-controlled?"""
        if isinstance(value, Instruction):
            return value in self.controlled
        return False
