"""IR containers: basic blocks, functions and modules."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import IRError
from repro.minic import types as ct
from repro.ir.instructions import Alloca, Instruction
from repro.ir.values import Argument, GlobalVariable


class BasicBlock:
    """A straight-line sequence of instructions ending in one terminator."""

    def __init__(self, label: str, function: Optional["Function"] = None):
        self.label = label
        self.function = function
        self.instructions: List[Instruction] = []

    def append(self, inst: Instruction) -> Instruction:
        instructions = self.instructions
        if instructions and instructions[-1].is_terminator:
            raise IRError(
                f"cannot append to terminated block '{self.label}' "
                f"in function '{self.function.name if self.function else '?'}'"
            )
        inst.block = self
        instructions.append(inst)
        return inst

    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def is_terminated(self) -> bool:
        return self.terminator() is not None

    def __repr__(self) -> str:
        return f"BasicBlock({self.label!r}, {len(self.instructions)} insts)"


class Function:
    """A function definition: parameters plus a list of basic blocks.

    ``metadata`` is a free-form dict used by passes; Smokestack stores the
    frame descriptor and instrumentation record here so later stages (the
    VM loader, the attack tooling, the reports) can inspect what was done.
    """

    def __init__(
        self,
        name: str,
        return_type: ct.CType,
        param_names: Sequence[str],
        param_types: Sequence[ct.CType],
    ):
        if len(param_names) != len(param_types):
            raise IRError("parameter name/type count mismatch")
        self.name = name
        self.return_type = return_type
        self.params: List[Argument] = [
            Argument(param_name, param_type, index)
            for index, (param_name, param_type) in enumerate(
                zip(param_names, param_types)
            )
        ]
        self.blocks: List[BasicBlock] = []
        self.metadata: Dict[str, object] = {}
        self._next_value_id = 0
        self._block_labels: Dict[str, int] = {}

    # -- construction ------------------------------------------------------------

    def new_block(self, label: str = "bb") -> BasicBlock:
        """Create a uniquely-labelled block and append it to the function."""
        count = self._block_labels.get(label, 0)
        self._block_labels[label] = count + 1
        unique = label if count == 0 else f"{label}.{count}"
        block = BasicBlock(unique, self)
        self.blocks.append(block)
        return block

    def next_value_name(self, hint: str = "t") -> str:
        name = f"{hint}{self._next_value_id}"
        self._next_value_id += 1
        return name

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function '{self.name}' has no blocks")
        return self.blocks[0]

    # -- queries -----------------------------------------------------------------

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def allocas(self) -> List[Alloca]:
        """All alloca instructions, in program order.

        This is the "discovering stack allocations" input (paper §III-D):
        everything Smokestack will permute lives here.
        """
        return [
            inst
            for block in self.blocks
            for inst in block.instructions
            if isinstance(inst, Alloca)
        ]

    def static_allocas(self) -> List[Alloca]:
        return [a for a in self.allocas() if a.is_static()]

    def dynamic_allocas(self) -> List[Alloca]:
        return [a for a in self.allocas() if not a.is_static()]

    def block_by_label(self, label: str) -> BasicBlock:
        for block in self.blocks:
            if block.label == label:
                return block
        raise IRError(f"function '{self.name}' has no block '{label}'")

    def __repr__(self) -> str:
        return f"Function({self.name!r}, {len(self.blocks)} blocks)"


class Module:
    """A translation unit's worth of IR: functions plus globals."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        self.metadata: Dict[str, object] = {}
        #: cache-invalidation token: in-place transforms (the optimizer,
        #: Smokestack instrumentation) call :meth:`bump_version` so any
        #: machinery keying caches on IR object identity — the VM's
        #: static-alloca layouts, the predecoded block cache — can detect
        #: that the module changed under it.
        self.version = 0

    def bump_version(self) -> int:
        """Mark the module as transformed in place; returns new version."""
        self.version += 1
        return self.version

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise IRError(f"duplicate function '{function.name}'")
        self.functions[function.name] = function
        return function

    def add_global(self, variable: GlobalVariable) -> GlobalVariable:
        if variable.name in self.globals:
            raise IRError(f"duplicate global '{variable.name}'")
        self.globals[variable.name] = variable
        return variable

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"module has no function '{name}'") from None

    def get_global(self, name: str) -> GlobalVariable:
        try:
            return self.globals[name]
        except KeyError:
            raise IRError(f"module has no global '{name}'") from None

    def __repr__(self) -> str:
        return (
            f"Module({self.name!r}, {len(self.functions)} functions, "
            f"{len(self.globals)} globals)"
        )
