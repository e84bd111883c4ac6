"""The IR interpreter: a simulated CPU with a real, corruptible stack.

Frames live at concrete addresses in the memory image; every local
variable has a byte address, overflowing a buffer clobbers its neighbours,
and the attacker hook can read all writable memory between inputs — the
threat model of the paper (§III-B) made executable.

Baseline (unhardened) frame layout, mirroring a conventional compiler:

::

    higher addresses
    +------------------------+  <- caller's frame
    | return cookie (8B)     |  <- integrity-checked on return
    | [canary (8B), optional]|
    | first-declared local   |
    | ...                    |
    | last-declared local    |
    +------------------------+  <- frame base (16-aligned)
    | VLAs (runtime allocas) |
    lower addresses

so a buffer overflow (which writes towards higher addresses) corrupts
locals declared *before* the buffer, then the return cookie, then the
caller's frame — the classic picture DOP exploits rely on.  Smokestack
replaces the per-variable slots with one unified allocation whose internal
layout is chosen per call; the interpreter executes that instrumented IR
without any special-casing.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import (
    SecurityViolation,
    VMError,
    VMFault,
    VMLimitExceeded,
    VMTrap,
)
from repro.ir import instructions as ir
from repro.ir.module import Function, Module
from repro.ir.values import Argument, Constant, GlobalVariable, Value
from repro.minic import types as ct
from repro.vm.costs import CostModel
from repro.vm.decode import Decoder, FellOffBlock, HotCall, HotLoop
from repro.vm.floatmath import float_to_int_operand, round_f32
from repro.vm.jit import (
    HOT_THRESHOLDS,
    JitEngine,
    cache_lock,
    enter_jit_recursion,
    exit_jit_recursion,
    record_deopt,
)
from repro.vm.memory import STACK_TOP, Memory
from repro.vm.process import ProcessImage, install_missing_globals, load

DEFAULT_MAX_STEPS = 50_000_000
DEFAULT_CANARY = 0x00E2_57AC_CA0B_0A17

#: the execution engines, by name: the tiered JIT (the default), the
#: eager JIT, the predecoded dispatcher and the executor table.
ENGINES = ("jit", "jit-eager", "fast", "slow")

_U64 = (1 << 64) - 1


def _count_start(kind: str) -> None:
    """Count one process start (``fresh`` or ``restart``)."""
    # Imported here: repro.obs pulls in tracing, which imports this module.
    from repro.obs.metrics import get_registry

    get_registry().counter("vm_process_starts_total", kind=kind).inc()


class _ExitProgram(Exception):
    """Internal: guest called exit_()."""

    def __init__(self, code: int):
        self.code = code


class Frame:
    """One activation record."""

    __slots__ = (
        "function",
        "block",
        "inst_index",
        "env",
        "alloca_addresses",
        "frame_base",
        "frame_top",
        "ret_slot",
        "cookie",
        "canary_addr",
        "sp",
        "call_site",
        "code",
        "unsafe_top",
        "saved_usp",
    )

    def __init__(self, function: Function):
        self.function = function
        self.block = function.entry
        self.inst_index = 0
        #: predecoded step list for ``block`` (fast dispatch only)
        self.code: Optional[list] = None
        self.env: Dict[Value, object] = {}
        self.alloca_addresses: Dict[ir.Alloca, int] = {}
        self.frame_base = 0
        self.frame_top = 0
        self.ret_slot = 0
        self.cookie = 0
        self.canary_addr: Optional[int] = None
        self.sp = 0
        self.call_site: Optional[ir.Call] = None
        #: top of this frame's unclean-stack slice (0 = frame not split)
        self.unsafe_top = 0
        #: unclean-stack pointer to restore on pop (None = frame not split)
        self.saved_usp: Optional[int] = None

    def local_addresses(self) -> Dict[str, int]:
        """var_name -> address for named allocas (used by attack tooling)."""
        out: Dict[str, int] = {}
        for alloca, address in self.alloca_addresses.items():
            if alloca.var_name:
                out[alloca.var_name] = address
        return out


class ExecutionResult:
    """Everything observable about one run of a simulated process."""

    def __init__(self):
        self.outcome = "exit"  # exit | fault | security-violation | trap | limit
        self.exit_code: Optional[int] = None
        self.fault_kind: Optional[str] = None
        self.fault_address: Optional[int] = None
        self.violation_check: Optional[str] = None
        self.violation_function: Optional[str] = None
        self.error_message: str = ""
        self.steps = 0
        self.cycles = 0.0
        self.max_rss = 0
        self.int_outputs: List[int] = []
        self.str_outputs: List[bytes] = []
        self.output_data = bytearray()
        self.call_counts: Dict[str, int] = {}

    def crashed(self) -> bool:
        return self.outcome in ("fault", "trap")

    def detected(self) -> bool:
        return self.outcome == "security-violation"

    def finished_cleanly(self) -> bool:
        return self.outcome == "exit"

    def __repr__(self) -> str:
        detail = {
            "exit": f"code={self.exit_code}",
            "fault": f"{self.fault_kind}@{self.fault_address:#x}"
            if self.fault_address is not None
            else str(self.fault_kind),
            "security-violation": f"{self.violation_check} in {self.violation_function}",
            "trap": self.error_message,
            "limit": self.error_message,
        }[self.outcome]
        return f"ExecutionResult({self.outcome}: {detail}, steps={self.steps})"


#: Every observable ExecutionResult field.  The dispatch-equivalence
#: tests and the differential-fuzzing oracles compare exactly these:
#: the fast and slow dispatch paths must agree on all of them,
#: bit for bit, for every program.
RESULT_FIELDS = (
    "outcome",
    "exit_code",
    "fault_kind",
    "fault_address",
    "violation_check",
    "violation_function",
    "error_message",
    "steps",
    "cycles",
    "max_rss",
    "int_outputs",
    "str_outputs",
    "output_data",
    "call_counts",
)

#: The subset of RESULT_FIELDS a semantics-preserving *build* transform
#: (optimization, Smokestack hardening) must keep fixed.  Steps, cycles
#: and max-rss legitimately change when the instruction stream does.
OBSERVABLE_FIELDS = (
    "outcome",
    "exit_code",
    "fault_kind",
    "violation_check",
    "int_outputs",
    "str_outputs",
    "output_data",
)


def result_fingerprint(result: "ExecutionResult", fields=RESULT_FIELDS) -> tuple:
    """Hashable snapshot of ``fields`` (bytearrays frozen to bytes)."""
    out = []
    for field in fields:
        value = getattr(result, field)
        if isinstance(value, bytearray):
            value = bytes(value)
        elif isinstance(value, list):
            value = tuple(value)
        elif isinstance(value, dict):
            value = tuple(sorted(value.items()))
        out.append(value)
    return tuple(out)


def baseline_frame_layout(
    function: Function, stack_protector: bool = False
) -> Dict[str, int]:
    """The *static* layout an attacker derives from the binary.

    Returns var_name -> offset below the frame top (positive numbers;
    larger offset = lower address) of ``function``'s static allocas in
    declaration order, below the return cookie and, with
    ``stack_protector``, the canary.  Only meaningful for unhardened
    functions whose layout is the same every call; for a
    Smokestack-hardened function the named slots no longer exist and
    this returns an empty mapping — which is precisely what the
    attacker's static analysis would find.
    """
    offsets: Dict[str, int] = {}
    cursor = 8  # return cookie
    if stack_protector:
        cursor += 8
    for alloca in function.static_allocas():
        if not alloca.is_static():
            continue
        size = alloca.static_size()
        cursor += size
        remainder = cursor % alloca.align
        if remainder:
            cursor += alloca.align - remainder
        # Pass-internal slots (the Smokestack unified frame, padding
        # defenses' dummies) are not source variables: static analysis
        # sees an opaque allocation, not a named layout.
        if alloca.var_name and not alloca.var_name.startswith("__"):
            offsets[alloca.var_name] = cursor
    return offsets


class Machine:
    """Executes one process image.

    Each process start is either *fresh* — ``Machine(...)`` loads the
    image and builds the engine — or a *restart*: :meth:`restart` resets
    the same machine's memory in place and draws new per-start options,
    keeping the decoded and compiled code.  Both give the same
    :class:`ExecutionResult` for the same options
    (``vm_process_starts_total{kind=fresh|restart}`` counts each).

    Parameters
    ----------
    image_or_module:
        A :class:`ProcessImage` or a :class:`Module` (loaded automatically).
    inputs:
        Initial input chunks; each ``input_read*`` call consumes one chunk.
    input_hook:
        Called (with the machine) whenever input is requested and the queue
        is empty; may return the next chunk or None for EOF.  This is the
        attacker's interactive channel: it can inspect ``machine.memory``
        (memory disclosure) before choosing its bytes.
    rng_source:
        Smokestack randomness source implementing
        ``generate(machine) -> int`` and ``cycles_per_call`` — required
        only to run hardened modules.
    stack_protector:
        Adds a classic canary slot below the return cookie (models the
        baseline's default stack-smashing protection).
    scheduling_effects:
        Enables the deterministic per-function cost perturbation that
        models the paper's instruction-scheduling speedups (§V-A).
    engine:
        One of :data:`ENGINES`; every engine gives bit-identical
        :class:`ExecutionResult` fields.  ``"jit"`` (the default) is the
        tiered IR→Python JIT (:mod:`repro.vm.jit`): functions start on
        the predecoded interpreter and are compiled once they run hot (a
        call site or loop back-edge passing :data:`HOT_THRESHOLDS`), so
        runs too short to repay a compile never pay for one.
        ``"jit-eager"`` compiles every function on its first call.
        Unsupported functions are interpreted in place, and attaching a
        tracer deopts a JIT run to the predecoded path.  ``"fast"`` is
        the predecoded dispatcher (:mod:`repro.vm.decode`): basic blocks
        are compiled once, on first entry, into pre-bound step closures.
        ``"slow"`` is the original executor-table interpreter.  Resolved
        once here into the booleans :meth:`run` branches on:
        ``machine.jit`` and ``machine.fast_dispatch``.
    tracer:
        Optional observability sink (duck-typed; see
        :class:`repro.obs.trace.Tracer`).  Receives call/return events
        with concrete frame layouts, every memory write, ``__ss_rand``
        draws and a per-opcode cycle histogram.  It is the machine's one
        frame log: each ``call`` event carries the frame's ``frame_top``
        and slot ``layout``.  Tracing never changes a run's observables
        or cycle counts, and a ``tracer=None`` machine executes exactly
        the untraced code paths (no per-instruction check anywhere).
    """

    def __init__(
        self,
        image_or_module,
        *,
        inputs: Optional[List[bytes]] = None,
        input_hook: Optional[Callable[["Machine"], Optional[bytes]]] = None,
        rng_source=None,
        max_steps: int = DEFAULT_MAX_STEPS,
        stack_protector: bool = False,
        scheduling_effects: bool = False,
        canary_value: int = DEFAULT_CANARY,
        stack_base_offset: int = 0,
        clean_partition: Optional[Dict[str, FrozenSet[int]]] = None,
        unsafe_stack_offset: int = 0,
        shadow_stack: bool = False,
        engine: str = "jit",
        tracer=None,
    ):
        if engine not in ENGINES:
            raise VMError(
                f"unknown engine {engine!r}: expected one of {ENGINES}"
            )
        # The code-shaping half, built once per machine: the image, the
        # cost model, the engine and everything decoded or compiled
        # against them.  restart() keeps all of it.
        if isinstance(image_or_module, Module):
            self.image = load(image_or_module)
        else:
            self.image = image_or_module
        self.module: Module = self.image.module
        self.memory: Memory = self.image.memory
        self.stack_protector = stack_protector
        self.cost = CostModel(scheduling_effects=scheduling_effects)
        if "smokestack" in self.module.metadata:
            self.cost.variant = "ss"
        # CleanStack-style dual stack: frames listed in ``clean_partition``
        # place the named alloca indices on a separate unclean stack in
        # the lower half of the stack segment (see ``_start``).
        self.clean_partition = clean_partition
        # Shadow-stack semantics: the return-address/metadata band lives
        # out of overflow reach, so the epilogue's cookie comparison never
        # observes guest corruption (see ``_pop_frame``).
        self.shadow_stack = shadow_stack
        #: the options restart() may not change, as given here
        self._shape = {
            "stack_protector": stack_protector,
            "scheduling_effects": scheduling_effects,
            "clean_partition": clean_partition,
            "shadow_stack": shadow_stack,
            "engine": engine,
            "tracer": tracer,
        }
        # Per-function alloca layouts and decoded code are valid for one
        # module *version*: in-place transforms (optimize,
        # instrument_module) bump ``Module.version`` and
        # ``_sync_module_version`` drops the caches, so a reused machine
        # can never serve a stale decode or frame layout.
        self._static_allocas: Dict[Function, List[ir.Alloca]] = {}
        self._module_version = getattr(self.module, "version", 0)
        self._tracer = tracer
        self._builtins = self._build_builtin_table()
        self._executors = self._build_executor_table()
        self._start(
            inputs=inputs,
            input_hook=input_hook,
            rng_source=rng_source,
            max_steps=max_steps,
            canary_value=canary_value,
            stack_base_offset=stack_base_offset,
            unsafe_stack_offset=unsafe_stack_offset,
        )
        if tracer is not None:
            # Installs the memory write observer and wraps the
            # write-performing builtins; all mechanics live in obs.
            tracer.attach(self)
        self.engine = engine
        self.jit = engine in ("jit", "jit-eager")
        self.fast_dispatch = engine != "slow"
        #: tier-up thresholds of a tiered JIT run (read by the decoder
        #: and the JIT engine); None for eager JIT and interpreted runs.
        self._hot = (
            HOT_THRESHOLDS if engine == "jit" and tracer is None else None
        )
        # The JIT leans on the decoder for its deopt continuations.
        self._decoder = Decoder(self) if self.fast_dispatch else None
        self._jit_engine: Optional[JitEngine] = None
        _count_start("fresh")

    def _start(
        self,
        *,
        inputs: Optional[List[bytes]] = None,
        input_hook: Optional[Callable[["Machine"], Optional[bytes]]] = None,
        rng_source=None,
        max_steps: int = DEFAULT_MAX_STEPS,
        canary_value: int = DEFAULT_CANARY,
        stack_base_offset: int = 0,
        unsafe_stack_offset: int = 0,
    ) -> None:
        """The per-start half: everything one process start draws or
        accumulates.  ``__init__`` and :meth:`restart` both end here."""
        stack_size = self.memory.stack.size
        if not 0 <= stack_base_offset < stack_size // 2:
            raise VMError(
                f"stack_base_offset {stack_base_offset} out of range"
            )
        if not 0 <= unsafe_stack_offset < stack_size // 4:
            raise VMError(
                f"unsafe_stack_offset {unsafe_stack_offset} out of range"
            )
        self.inputs: List[bytes] = list(inputs or [])
        self.input_hook = input_hook
        self.rng_source = rng_source
        self.max_steps = max_steps
        self.canary_value = canary_value
        self.cost.cycle_units = 0
        self.frames: List[Frame] = []
        self.result = ExecutionResult()
        self.call_counts: Dict[str, int] = {}
        self.universal_call_counter = 0  # paper: feeds AES-CTR reseeding
        # Load-time stack-base randomization (ASLR-style defenses).
        self._stack_top = STACK_TOP - (stack_base_offset & ~0xF)
        # The unclean stack's top is itself randomized at load time by
        # ``unsafe_stack_offset``.
        self._unsafe_top = (STACK_TOP - stack_size // 2) - (
            unsafe_stack_offset & ~0xF
        )
        self._usp = self._unsafe_top
        self._steps = 0
        self._sp = self._stack_top
        self._cookie_seed = 0x5EED_0001
        self._guest_rng_state = 0x9E3779B97F4A7C15
        self._heap_free: Dict[int, List[int]] = {}

    def restart(self, **options) -> "Machine":
        """Start this machine's process again, in place.

        Models a crashed service restarting the same deployed binary:
        the memory returns to its just-loaded state
        (:meth:`Memory.reset`) and every per-start option — ``inputs``,
        ``input_hook``, ``rng_source``, ``max_steps``, ``canary_value``,
        ``stack_base_offset``, ``unsafe_stack_offset`` — takes the value
        given here or its default, exactly as for a fresh ``Machine``.
        What a restart keeps is the code: the loaded image, the decoded
        blocks and the JIT bindings, so a restarted run decodes nothing
        it decoded before.  The next :meth:`run` gives the same
        :class:`ExecutionResult` as a fresh machine with the same
        options.

        The options that shape the code (``stack_protector``,
        ``scheduling_effects``, ``clean_partition``, ``shadow_stack``,
        ``engine``) may be repeated but not changed, and
        a traced machine — or a ``tracer`` option — is refused: a tracer
        observes one run, so traced runs take a fresh machine.  Returns
        the machine.
        """
        if self._tracer is not None or options.get("tracer") is not None:
            raise VMError(
                "a traced machine cannot be restarted: tracers observe "
                "one run, so start a fresh Machine"
            )
        shape = self._shape
        start = {}
        for name, value in options.items():
            if name not in shape:
                start[name] = value
            elif value is not shape[name] and value != shape[name]:
                raise VMError(
                    f"restart cannot change {name} ({shape[name]!r} -> "
                    f"{value!r}): it shapes the decoded code, so start "
                    f"a fresh Machine"
                )
        self._start(**start)  # validates before anything is reset
        self.memory.reset()
        _count_start("restart")
        return self

    @property
    def traced(self) -> bool:
        """Whether a tracer observes this machine (it cannot restart)."""
        return self._tracer is not None

    def _sync_module_version(self) -> None:
        """Invalidate per-module caches if the module was transformed.

        The alloca layout cache and the decoder's block cache key on
        object identity, which an in-place pass does not change — only
        the version token does.  Mirrors the PR 2 ``Alloca.count``
        stale-cache fix, one level up.
        """
        if getattr(self.module, "version", 0) == self._module_version:
            return
        # Re-check and refresh under the JIT cache lock: a transform (or
        # clear_code_cache) on another thread racing this sync must not
        # let a half-invalidated machine bind compiled bodies for a
        # version it no longer runs.
        with cache_lock():
            version = getattr(self.module, "version", 0)
            if version == self._module_version:
                return
            self._module_version = version
            self._static_allocas.clear()
            if self._decoder is not None:
                self._decoder = Decoder(self)
            # Compiled JIT bodies bind the old version's step lists and
            # cost totals; drop the engine so the next run rebinds
            # against the (shared, version-keyed) code cache.
            self._jit_engine = None
            # The transform may have added globals (P-BOX tables, PRNG
            # state) the image has never mapped.
            install_missing_globals(self.image)
            if "smokestack" in self.module.metadata:
                self.cost.variant = "ss"

    # -- public API -----------------------------------------------------------------

    def run(self, entry: str = "main", args: Tuple[int, ...] = ()) -> ExecutionResult:
        """Execute ``entry`` to completion; never raises for guest errors."""
        self._sync_module_version()
        function = self.module.get_function(entry)
        tracer = self._tracer
        if tracer is not None:
            tracer.on_start(self, entry)
        try:
            self._push_frame(function, list(args), call_site=None)
            if self.jit and tracer is None:
                exit_value = self._execute_loop_jit()
            else:
                if self.jit:
                    # Observed runs carry per-event hooks compiled code
                    # does not emit; the whole run deopts to the
                    # predecoded path, which traces natively.
                    record_deopt("tracer")
                if self.fast_dispatch:
                    exit_value = self._execute_loop_fast()
                else:
                    exit_value = self._execute_loop()
            self.result.outcome = "exit"
            self.result.exit_code = exit_value
        except VMFault as fault:
            self.result.outcome = "fault"
            self.result.fault_kind = fault.kind
            self.result.fault_address = fault.address
            self.result.error_message = str(fault)
        except SecurityViolation as violation:
            self.result.outcome = "security-violation"
            self.result.violation_check = violation.check
            self.result.violation_function = violation.function
            self.result.error_message = str(violation)
        except VMTrap as trap:
            self.result.outcome = "trap"
            self.result.error_message = str(trap)
        except VMLimitExceeded as limit:
            self.result.outcome = "limit"
            self.result.error_message = str(limit)
        except _ExitProgram as exit_program:
            self.result.outcome = "exit"
            self.result.exit_code = exit_program.code
        self.result.steps = self._steps
        self.result.cycles = self.cost.cycles
        self.result.max_rss = self.memory.max_rss_bytes()
        self.result.call_counts = dict(self.call_counts)
        if tracer is not None:
            tracer.on_end(self, self.result)
        return self.result

    def baseline_frame_layout(self, function_name: str) -> Dict[str, int]:
        """The *static* layout an attacker derives from the binary.

        See :func:`baseline_frame_layout`; this machine's stack protector
        setting decides whether the canary slot is counted.
        """
        return baseline_frame_layout(
            self.module.get_function(function_name), self.stack_protector
        )

    def push_probe_frame(self, function_name: str) -> Frame:
        """Push a real frame for layout probing, without executing code.

        Analysis tooling (the overflow-reach cross-check) uses this to ask
        the authoritative layout question — where does ``_push_frame`` put
        each slot? — and then corrupt the frame deliberately.  Arguments
        are zero-filled; unwind with :meth:`pop_probe_frame`, which skips
        the cookie/canary epilogue checks so a smashed probe frame pops
        cleanly.
        """
        self._sync_module_version()
        function = self.module.get_function(function_name)
        self._push_frame(function, [0] * len(function.params), call_site=None)
        return self.frames[-1]

    def pop_probe_frame(self) -> None:
        """Discard the top probe frame (no integrity checks, no return)."""
        if not self.frames:
            raise VMError("no probe frame to pop")
        frame = self.frames.pop()
        if frame.saved_usp is not None:
            self._usp = frame.saved_usp
        self._sp = self.frames[-1].sp if self.frames else self._stack_top

    # -- frame management ---------------------------------------------------------------

    def _push_frame(
        self,
        function: Function,
        args: List[object],
        call_site: Optional[ir.Call],
    ) -> None:
        if len(args) != len(function.params):
            raise VMError(
                f"call to '{function.name}' with {len(args)} args, "
                f"expected {len(function.params)}"
            )
        if len(self.frames) >= 4096:
            raise VMLimitExceeded("call depth limit (4096) exceeded")
        self.cost.charge_frame_setup()
        self.call_counts[function.name] = self.call_counts.get(function.name, 0) + 1
        self.universal_call_counter += 1
        frame = Frame(function)
        frame.call_site = call_site
        frame.frame_top = _align_down(self._sp, 16)
        frame.ret_slot = frame.frame_top - 8
        frame.cookie = self._make_cookie(function)
        cursor = frame.ret_slot
        if self.stack_protector:
            cursor -= 8
            frame.canary_addr = cursor
        static_allocas = self._static_allocas.get(function)
        if static_allocas is None:
            static_allocas = function.static_allocas()
            self._static_allocas[function] = static_allocas
        partition = (
            self.clean_partition.get(function.name)
            if self.clean_partition is not None
            else None
        )
        if partition:
            # Dual-stack frame: unclean slots descend on the unclean
            # stack, everything else stays in place on the main stack.
            frame.saved_usp = self._usp
            u_top = _align_down(self._usp, 16)
            frame.unsafe_top = u_top
            u_cursor = u_top
            for index, alloca in enumerate(static_allocas):
                size = alloca.static_size()
                if index in partition:
                    u_cursor -= size
                    u_cursor = _align_down(u_cursor, alloca.align)
                    frame.alloca_addresses[alloca] = u_cursor
                else:
                    cursor -= size
                    cursor = _align_down(cursor, alloca.align)
                    frame.alloca_addresses[alloca] = cursor
            u_base = _align_down(u_cursor, 16)
            self.memory.touch_stack(u_base)
            self._usp = u_base
        else:
            for alloca in static_allocas:
                size = alloca.static_size()
                cursor -= size
                cursor = _align_down(cursor, alloca.align)
                frame.alloca_addresses[alloca] = cursor
        frame.frame_base = _align_down(cursor, 16)
        frame.sp = frame.frame_base
        self.memory.touch_stack(frame.frame_base)
        self.memory.write_int(frame.ret_slot, frame.cookie, 8)
        if frame.canary_addr is not None:
            self.memory.write_int(frame.canary_addr, self.canary_value, 8)
        for argument, value in zip(function.params, args):
            frame.env[argument] = value
        if self._decoder is not None:
            frame.code = self._decoder.code_for(frame.block, function)
        self.frames.append(frame)
        self._sp = frame.frame_base
        if self._tracer is not None:
            self._tracer.on_call(self, frame)

    def _pop_frame(self, return_value: Optional[object]) -> None:
        frame = self.frames.pop()
        self.cost.charge_frame_teardown()
        # The canary is verified in the epilogue BEFORE the return address
        # is consumed — matching real stack-protector codegen.
        if frame.canary_addr is not None:
            canary = self.memory.read_int(frame.canary_addr, 8, signed=False)
            if canary != self.canary_value:
                raise SecurityViolation(
                    "stack-canary", frame.function.name, "canary clobbered"
                )
        # Under a shadow stack the authoritative return address lives in
        # the protected region, so whatever the guest wrote over the
        # in-frame copy is irrelevant to control flow (Shadow Stacks SoK:
        # backward-edge CFI that is deliberately blind to data attacks).
        if not self.shadow_stack:
            stored_cookie = self.memory.read_int(
                frame.ret_slot, 8, signed=False
            )
            if stored_cookie != frame.cookie:
                raise VMFault(
                    "corrupted-return-address",
                    frame.ret_slot,
                    f"return cookie smashed in '{frame.function.name}'",
                )
        if self._tracer is not None:
            self._tracer.on_return(self, frame)
        if frame.saved_usp is not None:
            self._usp = frame.saved_usp
        if self.frames:
            caller = self.frames[-1]
            self._sp = caller.sp
            call_site = frame.call_site
            if call_site is not None and call_site.has_result():
                caller.env[call_site] = self._coerce(return_value, call_site.ctype)
        else:
            self._sp = self._stack_top
            self._final_return = return_value

    def _make_cookie(self, function: Function) -> int:
        # The cookie models the saved return address: deterministic per
        # call path (callee, caller, depth) exactly as a real return
        # address is, so that a disclosed value replayed by an attacker is
        # accepted — real stacks offer no per-call return-address
        # freshness — while accidental corruption is still caught.
        base = self.image.function_addresses.get(function.name, 0)
        caller = self.frames[-1].function.name if self.frames else ""
        caller_base = self.image.function_addresses.get(caller, 0)
        depth = len(self.frames)
        mixed = (base + 1) * 0x9E3779B97F4A7C15 + caller_base * 0xBF58476D1CE4E5B9
        mixed ^= depth * 0x94D049BB133111EB
        return (mixed ^ self._cookie_seed) & _U64

    # -- main loop ---------------------------------------------------------------------

    def _execute_loop(self) -> Optional[int]:
        self._final_return: Optional[object] = None
        tracer = self._tracer
        while self.frames:
            frame = self.frames[-1]
            if frame.inst_index >= len(frame.block.instructions):
                raise VMError(
                    f"fell off block '{frame.block.label}' in "
                    f"'{frame.function.name}'"
                )
            inst = frame.block.instructions[frame.inst_index]
            frame.inst_index += 1
            self._steps += 1
            if self._steps > self.max_steps:
                raise VMLimitExceeded(
                    f"step limit of {self.max_steps} exceeded "
                    f"(runaway loop or corrupted counter)"
                )
            if tracer is None:
                self.cost.charge_instruction(inst, frame.function.name)
            else:
                # Same integer units as charge_instruction, with the
                # opcode histogram fed on the side.
                units = self.cost.instruction_units(
                    inst, frame.function.name
                )
                self.cost.cycle_units += units
                tracer.on_opcode(type(inst).__name__, units)
            executor = self._executors.get(type(inst))
            if executor is None:
                raise VMError(f"no executor for {type(inst).__name__}")
            executor(frame, inst)
        value = self._final_return
        if value is None:
            return 0
        return int(value)

    def _execute_loop_fast(self) -> Optional[int]:
        """The predecoded fast path: one pre-bound closure per instruction.

        Semantically identical to :meth:`_execute_loop`; the per-step
        executor lookup, cost computation and operand resolution have all
        been folded into the step closures by :class:`repro.vm.decode.Decoder`.
        """
        self._final_return: Optional[object] = None
        self._run_steps(0)
        value = self._final_return
        if value is None:
            return 0
        return int(value)

    def _run_steps(self, depth: int) -> None:
        """Run predecoded steps until the frame stack drops back to
        ``depth``: the whole of a ``"fast"`` or traced run (depth 0), and
        the tiered JIT's cold path and deopt continuation.

        On a tiered machine (``_hot`` set) a hot call site or loop
        back-edge raises :class:`HotCall`/:class:`HotLoop` out of a step
        and the frame is handed to compiled code
        (:meth:`JitEngine._tier_up`); on any other machine no step
        raises them.  The step counter lives in a local and is synced
        back on every exit path so ``run()`` (and fault results) still
        see an exact count.
        """
        frames = self.frames
        max_steps = self.max_steps
        while len(frames) > depth:
            steps = self._steps
            try:
                while len(frames) > depth:
                    frame = frames[-1]
                    index = frame.inst_index
                    frame.inst_index = index + 1
                    steps += 1
                    if steps > max_steps:
                        raise VMLimitExceeded(
                            f"step limit of {max_steps} exceeded "
                            f"(runaway loop or corrupted counter)"
                        )
                    frame.code[index](frame)
            except FellOffBlock:
                # The sentinel fetch is not an executed instruction; undo
                # its step so the count matches the slow path's bounds
                # check.
                steps -= 1
                frame = frames[-1]
                raise VMError(
                    f"fell off block '{frame.block.label}' in "
                    f"'{frame.function.name}'"
                ) from None
            except HotCall:
                at_loop_header = False
            except HotLoop:
                at_loop_header = True
            else:
                return
            finally:
                self._steps = steps
            # Outside the try: compiled code keeps _steps exact itself,
            # and an exception it raises must not be followed by a stale
            # write-back of ``steps``.
            self._jit_engine._tier_up(frames[-1], at_loop_header)

    def _execute_loop_jit(self) -> Optional[int]:
        """The JIT path: compiled function bodies, fused-block accounting.

        Semantically identical to both interpreter loops (see
        :mod:`repro.vm.jit`).  Guest calls become Python recursion, so
        the interpreter's 4096-deep guest call limit needs Python
        recursion headroom; the limit is restored on every exit path.
        """
        self._final_return: Optional[object] = None
        engine = self._jit_engine
        if engine is None:
            engine = self._jit_engine = JitEngine(self)
        # The limit is process-global: the reentrancy-counted guard (see
        # repro.vm.jit) restores the saved value only when the outermost
        # jitted run exits, on every exit path — exceptions, deopt,
        # traps — so nested or interleaved Machines cannot clobber it.
        enter_jit_recursion()
        try:
            return engine.execute()
        finally:
            exit_jit_recursion()

    # -- value plumbing -------------------------------------------------------------------

    def _value(self, frame: Frame, value: Value):
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, GlobalVariable):
            return self.image.global_addresses[value.name]
        try:
            return frame.env[value]
        except KeyError:
            raise VMError(
                f"use of undefined value %{value.name} in "
                f"'{frame.function.name}' (block not yet executed?)"
            ) from None

    def _coerce(self, value, ctype: ct.CType):
        if value is None:
            return 0
        if ctype.is_float():
            return float(value)
        if ctype.is_pointer():
            return int(value) & _U64
        if ctype.is_integer():
            return _wrap_int(int(value), ctype)
        return value

    # -- executors --------------------------------------------------------------------------

    def _build_executor_table(self):
        return {
            ir.Alloca: self._exec_alloca,
            ir.Load: self._exec_load,
            ir.Store: self._exec_store,
            ir.ElemPtr: self._exec_elemptr,
            ir.FieldPtr: self._exec_fieldptr,
            ir.BinOp: self._exec_binop,
            ir.Cmp: self._exec_cmp,
            ir.Cast: self._exec_cast,
            ir.Select: self._exec_select,
            ir.Call: self._exec_call,
            ir.Phi: self._exec_phi,
            ir.Br: self._exec_br,
            ir.CondBr: self._exec_condbr,
            ir.Ret: self._exec_ret,
            ir.Unreachable: self._exec_unreachable,
        }

    def _exec_alloca(self, frame: Frame, inst: ir.Alloca) -> None:
        if inst.is_static():
            frame.env[inst] = frame.alloca_addresses[inst]
            return
        self.cost.charge_dynamic_alloca()
        count = int(self._value(frame, inst.count))
        if count < 0:
            raise VMFault("bad-alloca", frame.sp, f"negative VLA length {count}")
        element = inst.allocated_type
        size = element.size() * count if element.is_complete() else count
        cursor = frame.sp - size
        cursor = _align_down(cursor, inst.align)
        self.memory.touch_stack(cursor)
        frame.sp = cursor
        self._sp = cursor
        frame.env[inst] = cursor

    def _exec_load(self, frame: Frame, inst: ir.Load) -> None:
        address = int(self._value(frame, inst.pointer))
        frame.env[inst] = self._read_typed(address, inst.ctype)

    def _exec_store(self, frame: Frame, inst: ir.Store) -> None:
        address = int(self._value(frame, inst.pointer))
        value = self._value(frame, inst.value)
        self._write_typed(address, value, inst.value.ctype)

    def _read_typed(self, address: int, ctype: ct.CType):
        if ctype.is_pointer():
            return self.memory.read_int(address, 8, signed=False)
        if ctype.is_float():
            return self.memory.read_float(address, ctype.size())
        if ctype.is_integer():
            return self.memory.read_int(address, ctype.size(), getattr(ctype, "signed", True))
        raise VMError(f"cannot load type {ctype}")

    def _write_typed(self, address: int, value, ctype: ct.CType) -> None:
        if ctype.is_pointer():
            self.memory.write_int(address, int(value) & _U64, 8)
        elif ctype.is_float():
            self.memory.write_float(address, float(value), ctype.size())
        elif ctype.is_integer():
            self.memory.write_int(address, int(value), ctype.size())
        else:
            raise VMError(f"cannot store type {ctype}")

    def _exec_elemptr(self, frame: Frame, inst: ir.ElemPtr) -> None:
        base = int(self._value(frame, inst.base))
        index = int(self._value(frame, inst.index))
        frame.env[inst] = (base + index * inst.element_type.size()) & _U64

    def _exec_fieldptr(self, frame: Frame, inst: ir.FieldPtr) -> None:
        base = int(self._value(frame, inst.base))
        frame.env[inst] = (base + inst.byte_offset) & _U64

    def _exec_binop(self, frame: Frame, inst: ir.BinOp) -> None:
        lhs = self._value(frame, inst.lhs)
        rhs = self._value(frame, inst.rhs)
        frame.env[inst] = _apply_binop(inst.op, lhs, rhs, inst.ctype)

    def _exec_cmp(self, frame: Frame, inst: ir.Cmp) -> None:
        lhs = self._value(frame, inst.lhs)
        rhs = self._value(frame, inst.rhs)
        frame.env[inst] = _apply_cmp(inst.op, lhs, rhs, inst.lhs.ctype)

    def _exec_cast(self, frame: Frame, inst: ir.Cast) -> None:
        value = self._value(frame, inst.value)
        frame.env[inst] = _apply_cast(inst.kind, value, inst.value.ctype, inst.ctype)

    def _exec_select(self, frame: Frame, inst: ir.Select) -> None:
        cond, a, b = (self._value(frame, op) for op in inst.operands)
        frame.env[inst] = a if cond else b

    def _exec_br(self, frame: Frame, inst: ir.Br) -> None:
        self._enter_block(frame, inst.target)

    def _exec_condbr(self, frame: Frame, inst: ir.CondBr) -> None:
        cond = self._value(frame, inst.cond)
        self._enter_block(frame, inst.true_target if cond else inst.false_target)

    def _enter_block(self, frame: Frame, target) -> None:
        """Branch into ``target``, executing its phis as a parallel copy.

        All of the block's leading phis read their incoming values for the
        edge being taken *before* any of them is assigned, so swap-shaped
        phi groups behave correctly.
        """
        source = frame.block
        leading = 0
        values = []
        for inst in target.instructions:
            if not isinstance(inst, ir.Phi):
                break
            leading += 1
            values.append(
                (inst, self._value(frame, inst.incoming_for(source)))
            )
        for phi, value in values:
            frame.env[phi] = self._coerce(value, phi.ctype)
        frame.block = target
        frame.inst_index = leading

    def _exec_phi(self, frame: Frame, inst: "ir.Phi") -> None:
        # Phis are consumed by _enter_block; executing one directly means
        # the block was entered without a branch (a pass bug).
        raise VMError(
            f"phi executed directly in '{frame.function.name}' "
            f"(phis must start a branched-to block)"
        )

    def _exec_ret(self, frame: Frame, inst: ir.Ret) -> None:
        value = self._value(frame, inst.value) if inst.value is not None else None
        self._pop_frame(value)

    def _exec_unreachable(self, frame: Frame, inst: ir.Unreachable) -> None:
        raise VMTrap(f"unreachable executed in '{frame.function.name}'")

    def _exec_call(self, frame: Frame, inst: ir.Call) -> None:
        args = [self._value(frame, arg) for arg in inst.args]
        callee = inst.callee
        if not isinstance(callee, str):
            self._push_frame(callee, args, call_site=inst)
            return
        if callee in self.module.functions:
            self._push_frame(self.module.functions[callee], args, call_site=inst)
            return
        handler = self._builtins.get(callee)
        if handler is None:
            raise VMError(f"call to unknown builtin '{callee}'")
        result = handler(args)
        if inst.has_result():
            frame.env[inst] = self._coerce(result, inst.ctype)

    # -- builtins ---------------------------------------------------------------------------

    def _build_builtin_table(self):
        return {
            "input_read": self._bi_input_read,
            "input_read_unbounded": self._bi_input_read_unbounded,
            "input_size": self._bi_input_size,
            "print_int": self._bi_print_int,
            "print_str": self._bi_print_str,
            "output_bytes": self._bi_output_bytes,
            "strlen_": self._bi_strlen,
            "strcpy_": self._bi_strcpy,
            "strncpy_": self._bi_strncpy,
            "sstrncpy_": self._bi_sstrncpy,
            "memcpy_": self._bi_memcpy,
            "memset_": self._bi_memset,
            "strcmp_": self._bi_strcmp,
            "snprintf_sim": self._bi_snprintf,
            "malloc": self._bi_malloc,
            "free": self._bi_free,
            "abort_": self._bi_abort,
            "exit_": self._bi_exit,
            "io_wait": self._bi_io_wait,
            "guest_rand": self._bi_guest_rand,
            "guest_srand": self._bi_guest_srand,
            "__ss_rand": self._bi_ss_rand,
            "__ss_fail": self._bi_ss_fail,
        }

    def _next_input_chunk(self) -> Optional[bytes]:
        if self.inputs:
            return self.inputs.pop(0)
        if self.input_hook is not None:
            return self.input_hook(self)
        return None

    def _bi_input_read(self, args) -> int:
        buffer, limit = int(args[0]), int(args[1])
        chunk = self._next_input_chunk()
        if chunk is None:
            return 0
        data = chunk[: max(0, limit)]
        self.memory.write_bytes(buffer, data)
        self.cost.charge_builtin("input_read", len(data))
        return len(data)

    def _bi_input_read_unbounded(self, args) -> int:
        buffer = int(args[0])
        chunk = self._next_input_chunk()
        if chunk is None:
            return 0
        self.memory.write_bytes(buffer, chunk)
        self.cost.charge_builtin("input_read_unbounded", len(chunk))
        return len(chunk)

    def _bi_input_size(self, args) -> int:
        return sum(len(chunk) for chunk in self.inputs)

    def _bi_print_int(self, args) -> None:
        self.result.int_outputs.append(int(args[0]))
        self.cost.charge_builtin("print_int")

    def _bi_print_str(self, args) -> None:
        text = self.memory.read_cstring(int(args[0]))
        self.result.str_outputs.append(text)
        self.cost.charge_builtin("print_str", len(text))

    def _bi_output_bytes(self, args) -> None:
        pointer, count = int(args[0]), int(args[1])
        data = self.memory.read_bytes(pointer, count)
        self.result.output_data.extend(data)
        self.cost.charge_builtin("output_bytes", count)

    def _bi_strlen(self, args) -> int:
        text = self.memory.read_cstring(int(args[0]))
        self.cost.charge_builtin("strlen_", len(text))
        return len(text)

    def _bi_strcpy(self, args) -> int:
        dst, src = int(args[0]), int(args[1])
        text = self.memory.read_cstring(src)
        self.memory.write_bytes(dst, text + b"\x00")
        self.cost.charge_builtin("strcpy_", len(text))
        return dst

    def _bi_strncpy(self, args) -> int:
        dst, src, count = int(args[0]), int(args[1]), int(args[2])
        if count < 0:
            raise VMFault("bad-length", dst, f"strncpy_ length {count}")
        text = self.memory.read_cstring(src)[:count]
        padded = text + b"\x00" * (count - len(text))
        self.memory.write_bytes(dst, padded)
        self.cost.charge_builtin("strncpy_", count)
        return dst

    def _bi_sstrncpy(self, args) -> int:
        # ProFTPD's sstrncpy: a negative length is not rejected — it is the
        # CVE-2006-5815 vector.  A negative count behaves like an unbounded
        # copy of the whole source string.
        dst, src, count = int(args[0]), int(args[1]), int(args[2])
        text = self.memory.read_cstring(src)
        if count >= 0:
            text = text[: max(0, count - 1)]
        self.memory.write_bytes(dst, text + b"\x00")
        self.cost.charge_builtin("sstrncpy_", len(text))
        return dst

    def _bi_memcpy(self, args) -> int:
        dst, src, count = int(args[0]), int(args[1]), int(args[2])
        if count < 0:
            raise VMFault("bad-length", dst, f"memcpy_ length {count}")
        data = self.memory.read_bytes(src, count)
        self.memory.write_bytes(dst, data)
        self.cost.charge_builtin("memcpy_", count)
        return dst

    def _bi_memset(self, args) -> int:
        dst, byte, count = int(args[0]), int(args[1]) & 0xFF, int(args[2])
        if count < 0:
            raise VMFault("bad-length", dst, f"memset_ length {count}")
        self.memory.write_bytes(dst, bytes([byte]) * count)
        self.cost.charge_builtin("memset_", count)
        return dst

    def _bi_strcmp(self, args) -> int:
        a = self.memory.read_cstring(int(args[0]))
        b = self.memory.read_cstring(int(args[1]))
        self.cost.charge_builtin("strcmp_", min(len(a), len(b)))
        if a == b:
            return 0
        return -1 if a < b else 1

    def _bi_snprintf(self, args) -> int:
        # snprintf_sim(dst, size, src): C semantics — writes at most size-1
        # bytes plus NUL, returns the length it WOULD have written.  The
        # return value exceeding the space actually used is the librelp
        # CVE-2018-1000140 overflow lever (paper §II-C).  A negative size
        # models C's size_t wrap-around: the caller computed
        # `sizeof(buf) - offset` with offset past the buffer, which in C
        # becomes a huge unsigned value — i.e. an unbounded write.
        dst, size, src = int(args[0]), int(args[1]), int(args[2])
        text = self.memory.read_cstring(src)
        if size > 0:
            written = text[: size - 1]
            self.memory.write_bytes(dst, written + b"\x00")
        elif size < 0:
            self.memory.write_bytes(dst, text + b"\x00")
        self.cost.charge_builtin("snprintf_sim", min(len(text), abs(size)))
        return len(text)

    def _bi_malloc(self, args) -> int:
        size = int(args[0])
        if size < 0:
            raise VMFault("bad-length", 0, f"malloc({size})")
        size = max(16, (size + 15) & ~15)
        free_list = self._heap_free.get(size)
        if free_list:
            return free_list.pop()
        self.cost.charge_builtin("malloc")
        return self.memory.heap_grow(size)

    def _bi_free(self, args) -> None:
        # Size information is not tracked per pointer; freed blocks are
        # recycled only through malloc's size-keyed free list when the VM
        # can infer the size.  For the reproduction's workloads a bump
        # allocator is sufficient; free is a no-op by design.
        self.cost.charge_builtin("free")

    def _bi_abort(self, args) -> None:
        raise VMTrap("guest called abort_()")

    def _bi_exit(self, args) -> None:
        raise _ExitProgram(int(args[0]))

    def _bi_io_wait(self, args) -> None:
        cycles = max(0, int(args[0]))
        self.cost.charge(float(cycles))

    def _bi_guest_rand(self, args) -> int:
        # xorshift64*: deterministic workload-data generator (guest-visible,
        # unrelated to Smokestack's security randomness).
        state = self._guest_rng_state
        state ^= (state >> 12) & _U64
        state ^= (state << 25) & _U64
        state ^= (state >> 27) & _U64
        state &= _U64
        self._guest_rng_state = state or 0x9E3779B97F4A7C15
        return (state * 0x2545F4914F6CDD1D) & ((1 << 63) - 1)

    def _bi_guest_srand(self, args) -> None:
        self._guest_rng_state = (int(args[0]) & _U64) or 0x9E3779B97F4A7C15

    def _bi_ss_rand(self, args) -> int:
        if self.rng_source is None:
            raise VMError(
                "hardened module executed without an rng_source; pass one "
                "to Machine(rng_source=...)"
            )
        self.cost.charge(self.rng_source.cycles_per_call)
        return self.rng_source.generate(self) & _U64

    def _bi_ss_fail(self, args) -> None:
        function_name = self.frames[-1].function.name if self.frames else "?"
        raise SecurityViolation(
            "function-identifier",
            function_name,
            "prologue/epilogue identifier mismatch",
        )


# -- pure helpers ------------------------------------------------------------------------


def _align_down(value: int, alignment: int) -> int:
    return value - (value % alignment)


def _wrap_int(value: int, ctype: ct.CType) -> int:
    bits = ctype.size() * 8
    value &= (1 << bits) - 1
    if getattr(ctype, "signed", False) and value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def _to_unsigned(value: int, ctype: ct.CType) -> int:
    bits = ctype.size() * 8
    return value & ((1 << bits) - 1)


def _apply_binop(op: str, lhs, rhs, result_type: ct.CType):
    if op == "add":
        return _wrap_int(int(lhs) + int(rhs), result_type)
    if op == "sub":
        return _wrap_int(int(lhs) - int(rhs), result_type)
    if op == "mul":
        return _wrap_int(int(lhs) * int(rhs), result_type)
    if op in ("sdiv", "srem"):
        a, b = int(lhs), int(rhs)
        if b == 0:
            raise VMTrap("integer division by zero")
        quotient = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            quotient = -quotient
        if op == "sdiv":
            return _wrap_int(quotient, result_type)
        return _wrap_int(a - quotient * b, result_type)
    if op in ("udiv", "urem"):
        a = _to_unsigned(int(lhs), result_type)
        b = _to_unsigned(int(rhs), result_type)
        if b == 0:
            raise VMTrap("integer division by zero")
        return _wrap_int(a // b if op == "udiv" else a % b, result_type)
    if op == "and":
        return _wrap_int(int(lhs) & int(rhs), result_type)
    if op == "or":
        return _wrap_int(int(lhs) | int(rhs), result_type)
    if op == "xor":
        return _wrap_int(int(lhs) ^ int(rhs), result_type)
    if op in ("shl", "lshr", "ashr"):
        bits = result_type.size() * 8
        shift = int(rhs) & (bits - 1)
        if op == "shl":
            return _wrap_int(int(lhs) << shift, result_type)
        if op == "lshr":
            return _wrap_int(_to_unsigned(int(lhs), result_type) >> shift, result_type)
        return _wrap_int(int(lhs) >> shift, result_type)
    if op in ("fadd", "fsub", "fmul", "fdiv"):
        if op == "fadd":
            result = float(lhs) + float(rhs)
        elif op == "fsub":
            result = float(lhs) - float(rhs)
        elif op == "fmul":
            result = float(lhs) * float(rhs)
        else:
            denominator = float(rhs)
            if denominator == 0.0:
                result = float("inf") if float(lhs) > 0 else float("-inf")
            else:
                result = float(lhs) / denominator
        # float-typed results round to binary32 per operation, exactly as
        # SSE hardware does; see repro.vm.floatmath.
        if result_type.size() == 4:
            return round_f32(result)
        return result
    raise VMError(f"unknown binop '{op}'")


def _apply_cmp(op: str, lhs, rhs, operand_type: ct.CType) -> int:
    if op.startswith("f"):
        a, b = float(lhs), float(rhs)
        table = {
            "feq": a == b, "fne": a != b,
            "flt": a < b, "fle": a <= b, "fgt": a > b, "fge": a >= b,
        }
        return int(table[op])
    if op in ("eq", "ne"):
        equal = int(lhs) == int(rhs)
        return int(equal if op == "eq" else not equal)
    if op[0] == "u" or operand_type.is_pointer():
        a = _to_unsigned(int(lhs), operand_type) if operand_type.is_integer() else int(lhs) & _U64
        b = _to_unsigned(int(rhs), operand_type) if operand_type.is_integer() else int(rhs) & _U64
    else:
        a, b = int(lhs), int(rhs)
    suffix = op[1:]
    table = {
        "lt": a < b, "le": a <= b, "gt": a > b, "ge": a >= b,
    }
    return int(table[suffix])


def _apply_cast(kind: str, value, from_type: ct.CType, to_type: ct.CType):
    if kind in ("trunc", "zext", "sext", "bitcast", "ptrtoint", "inttoptr"):
        if kind == "zext":
            value = _to_unsigned(int(value), from_type)
        if to_type.is_pointer():
            return int(value) & _U64
        if to_type.is_integer():
            return _wrap_int(int(value), to_type)
        return value
    if kind in ("fptosi", "fptoui"):
        return _wrap_int(int(float_to_int_operand(float(value))), to_type)
    if kind in ("sitofp",):
        result = float(int(value))
        return round_f32(result) if to_type.size() == 4 else result
    if kind == "uitofp":
        result = float(_to_unsigned(int(value), from_type))
        return round_f32(result) if to_type.size() == 4 else result
    if kind == "fpext":
        return float(value)
    if kind == "fptrunc":
        return round_f32(float(value))
    raise VMError(f"unknown cast '{kind}'")
