"""Clean/unclean partition of stack slots (the CleanStack split).

CleanStack's core idea is a *static* one: classify every stack object as
clean (provably never attacker-influenced) or unclean (tainted, or not
provably clean), and give the unclean objects their own stack so that an
overflow from an unclean buffer can never reach a clean slot.  This pass
derives that partition from the input-taint verdicts
:mod:`repro.analysis.taintflow` already computes:

* a slot is **unclean** when its storage token ``mem(alloca)`` becomes
  tainted on any path (attacker input can reach its bytes), or when its
  address escapes the frame (stored to memory, or passed to a callee
  whose memory behaviour the analysis does not model), or — the sound
  "tainted-if-unknown" default — when the function's dataflow state ever
  contains the unresolved-memory token, in which case *every* slot is
  demoted because the taint cannot be attributed;
* everything else is **clean**.

Soundness direction: over-approximating uncleanliness is always safe for
the defense (an extra slot on the unclean stack weakens nothing), while a
slot left clean that the attacker can in fact taint would break the
clean-stack guarantee — hence every "don't know" resolves to unclean.

Slots are identified by their index into ``function.static_allocas()``
(program order), the same order the VM's ``_push_frame`` walks, so the
partition can be handed verbatim to :class:`repro.vm.interpreter.Machine`
via its ``clean_partition`` argument.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, Iterable, NamedTuple, Set, Tuple

from repro.analysis.taintflow import (
    COPY_BUILTINS,
    INPUT_BUILTINS,
    SEND_BUILTINS,
    TaintFlowAnalysis,
    UNKNOWN_MEMORY,
    attacker_param_indices,
    input_deriving_functions,
    pointer_root,
)
from repro.ir.instructions import Alloca, Call, Store
from repro.ir.module import Function, Module

#: Builtins whose pointer arguments have fully modeled memory effects in
#: the taint transfer function; handing them an address is not an escape.
_MODELED_POINTER_BUILTINS = INPUT_BUILTINS | COPY_BUILTINS | SEND_BUILTINS


class FramePartition(NamedTuple):
    """The clean/unclean split of one function's frame."""

    function: str
    #: diagnostic labels of the unclean / clean slots, program order
    unclean: Tuple[str, ...]
    clean: Tuple[str, ...]
    #: indices into ``function.static_allocas()`` — what the VM consumes
    unclean_indices: FrozenSet[int]
    #: slot label -> why it was demoted to the unclean stack
    reasons: Dict[str, str]

    @property
    def split(self) -> bool:
        """Does this frame actually place anything on the unclean stack?"""
        return bool(self.unclean_indices)


def _slot_label(alloca: Alloca) -> str:
    return alloca.var_name or getattr(alloca, "name", None) or "<anon>"


def _escaped_allocas(function: Function) -> Set[Alloca]:
    """Allocas whose address leaves the analysis's field of view.

    Two escape routes: the address is *stored* into memory (anything may
    load and write through it later), or it is passed to a call whose
    pointer behaviour the taint transfer function does not model — any
    module-internal callee (it may retain or write through the pointer
    beyond what interprocedural input-taint tracks) or an unknown
    builtin.
    """
    escaped: Set[Alloca] = set()
    for inst in function.instructions():
        if isinstance(inst, Store):
            root = pointer_root(inst.value)
            if isinstance(root, Alloca):
                escaped.add(root)
        elif isinstance(inst, Call):
            callee = inst.callee_name()
            if callee in _MODELED_POINTER_BUILTINS or callee in _KNOWN_SAFE:
                continue
            for arg in inst.args:
                ctype = getattr(arg, "ctype", None)
                if ctype is None or not ctype.is_pointer():
                    continue
                root = pointer_root(arg)
                if isinstance(root, Alloca):
                    escaped.add(root)
    return escaped


#: Builtins known to neither retain nor write through pointer arguments
#: (everything value-like: arithmetic helpers, exit, printing of scalars).
#: Conservative: anything not listed and not modeled counts as an escape.
_KNOWN_SAFE = frozenset({"print_int", "exit_", "abort_"})


def partition_function(
    function: Function,
    input_deriving: AbstractSet[str],
    tainted_params: Iterable[int] = (),
) -> FramePartition:
    """Partition one frame.  ``input_deriving`` is the module's
    :func:`~repro.analysis.taintflow.input_deriving_functions`;
    ``tainted_params`` seeds the parameters that receive attacker values
    (:func:`partition_module` seeds them, the analyses' model in
    :attr:`repro.synth.facts.FunctionFacts.partition` does not)."""
    analysis = TaintFlowAnalysis(
        function,
        input_deriving,
        tainted_params=tainted_params,
        collect_sinks=False,
    )
    statics = function.static_allocas()

    tainted_roots: Set[Alloca] = set()
    unknown_memory = False
    for block in function.blocks:
        state = analysis.result.block_out.get(block, frozenset())
        for item in state:
            if (
                isinstance(item, tuple)
                and len(item) == 2
                and item[0] == "mem"
            ):
                if item == UNKNOWN_MEMORY:
                    unknown_memory = True
                elif isinstance(item[1], Alloca):
                    tainted_roots.add(item[1])
    escaped = _escaped_allocas(function)

    unclean_indices: Set[int] = set()
    unclean_labels = []
    clean_labels = []
    reasons: Dict[str, str] = {}
    for index, alloca in enumerate(statics):
        label = _slot_label(alloca)
        if alloca in tainted_roots:
            reason = "storage reachable by attacker input"
        elif alloca.allocated_type.is_array():
            # CleanStack's own coarse class: arrays are accessed through
            # computed addresses, so a bound the analysis cannot prove
            # (e.g. a pointee write through a parameter, which the
            # interprocedural model deliberately does not track) could
            # taint them — unclean by default.
            reason = "array object (unsafe-access class)"
        elif alloca in escaped:
            reason = "address escapes the frame"
        elif unknown_memory:
            reason = (
                "tainted-if-unknown: unresolved memory write in this frame"
            )
        else:
            clean_labels.append(label)
            continue
        unclean_indices.add(index)
        unclean_labels.append(label)
        reasons[label] = reason

    return FramePartition(
        function=function.name,
        unclean=tuple(unclean_labels),
        clean=tuple(clean_labels),
        unclean_indices=frozenset(unclean_indices),
        reasons=reasons,
    )


def partition_module(module: Module) -> Dict[str, FramePartition]:
    """Partition every function, with interprocedural taint seeding —
    the partition a CleanStack build deploys."""
    input_deriving = input_deriving_functions(module)
    param_map = attacker_param_indices(module, input_deriving)
    return {
        name: partition_function(
            function, input_deriving, param_map.get(name, ())
        )
        for name, function in module.functions.items()
    }


def machine_partition(
    partitions: Dict[str, FramePartition],
) -> Dict[str, FrozenSet[int]]:
    """The ``Machine(clean_partition=...)`` view: only split frames."""
    return {
        name: part.unclean_indices
        for name, part in partitions.items()
        if part.unclean_indices
    }
