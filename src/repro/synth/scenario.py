"""Harness adapter for synthesized attacks, plus the ground-truth probe.

:class:`SynthScenario` wraps an :class:`~repro.synth.planner.AttackPlan`
as an :class:`~repro.attacks.harness.AttackScenario`, so synthesized
chains run through exactly the same campaign machinery (and outcome
taxonomy) as the canned CVE reproductions.  Per attempt it picks the
next defense layout hypothesis (``attempt % len(models)`` — the §II-C
brute-force loop) and compiles the plan into input chunks.

:class:`SlotProbe` is the *experimenter's* instrument, not the
attacker's: a VM tracer that watches the deployed machine's memory
writes and records every 64-bit value a watched stack slot takes.  It
is how corrupt-goals are judged and how the property tests hold the
planner to byte-exact predictions — the attacker itself never sees it.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.attacks.harness import ATTACK_MAX_STEPS, AttackScenario
from repro.defenses.base import ProgramBuild
from repro.defenses.registry import defense_class
from repro.synth.concretize import AttackScript, BuildError, concretize
from repro.synth.facts import FunctionFacts, ProgramFacts
from repro.synth.goals import Goal
from repro.synth.layouts import GapModel
from repro.synth.planner import AttackPlan
from repro.vm.interpreter import ExecutionResult, Machine


class SlotProbe:
    """VM tracer recording every value a watched slot holds.

    ``targets`` is a list of ``(function, slot)`` pairs; slots are
    matched on the deployed build's functions by reach's unique-name
    discipline, so the probe works on hardened modules too (as long as
    the defense keeps per-variable allocas).
    """

    def __init__(self, targets: List[Tuple[str, str]]):
        self.targets = list(targets)
        self._watched: Dict[int, Tuple[str, str, int]] = {}  # addr -> (fn, slot, size)
        self._observed: Dict[Tuple[str, str], Set[int]] = {}
        self._slot_cache: Dict[int, Dict[int, str]] = {}
        self._machine: Optional[Machine] = None

    # -- tracer interface --------------------------------------------------

    def attach(self, machine: Machine) -> None:
        self._machine = machine
        machine.memory.set_write_observer(self._on_write)

    def on_start(self, machine, entry) -> None:  # pragma: no cover - trivial
        pass

    def on_call(self, machine, frame) -> None:
        wanted = [slot for fn, slot in self.targets if fn == frame.function.name]
        if not wanted:
            return
        names = self._alloca_names(frame.function)
        for alloca, address in frame.alloca_addresses.items():
            slot = names.get(id(alloca))
            if slot in wanted:
                self._watched[address] = (
                    frame.function.name,
                    slot,
                    alloca.static_size(),
                )
                self._record(address)  # the pre-corruption value counts too

    def on_return(self, machine, frame) -> None:
        for address in list(self._watched):
            function, _, _ = self._watched[address]
            if function == frame.function.name and address in frame.alloca_addresses.values():
                del self._watched[address]

    def on_end(self, machine, result) -> None:  # pragma: no cover - trivial
        pass

    def on_opcode(self, type_name, units) -> None:  # pragma: no cover - trivial
        pass

    # -- observation -------------------------------------------------------

    def _alloca_names(self, function) -> Dict[int, str]:
        """id(Alloca) -> slot name, from the function's fact bundle (the
        probe watches deployed builds, so each function gets its own)."""
        names = self._slot_cache.get(id(function))
        if names is None:
            names = self._slot_cache[id(function)] = FunctionFacts(function).slot_names
        return names

    def _on_write(self, address: int, size: int) -> None:
        if not self._watched:
            return
        for slot_address, (function, slot, slot_size) in self._watched.items():
            span = max(slot_size, 8)
            if address < slot_address + span and address + size > slot_address:
                self._record(slot_address)

    def _record(self, slot_address: int) -> None:
        function, slot, _ = self._watched[slot_address]
        try:
            data = self._machine.memory.read_bytes(slot_address, 8)
        except Exception:
            return
        self._observed.setdefault((function, slot), set()).add(
            int.from_bytes(bytes(data), "little")
        )

    def observed(self, function: str, slot: str) -> Set[int]:
        return self._observed.get((function, slot), set())

    def observed_value(self, function: str, slot: str, value_bytes: bytes) -> bool:
        value = int.from_bytes(value_bytes, "little")
        return value in self.observed(function, slot)


class SynthScenario(AttackScenario):
    """A synthesized plan, packaged for the campaign harness."""

    def __init__(
        self,
        facts: ProgramFacts,
        plan: AttackPlan,
        defense_name: str,
        name: Optional[str] = None,
        max_steps: int = ATTACK_MAX_STEPS,
    ):
        self.facts = facts
        self.plan = plan
        self.goal: Goal = plan.goal
        self.defense_name = defense_name
        self.source = facts.source
        self.victim_function = plan.channel.function.name
        self.name = name or f"synth-{self.victim_function}"
        self.description = f"synthesized: {plan.goal.describe()}"
        self.max_steps = max_steps
        caller = plan.channel.caller
        self.models: List[GapModel] = defense_class(defense_name).gap_models(
            facts.of(plan.channel.function),
            facts.of(caller.function) if caller else None,
            plan.channel.buffer,
        )
        self.last_probe: Optional[SlotProbe] = None
        self.last_script_error: Optional[str] = None

    # -- harness interface -------------------------------------------------

    def machine_kwargs(self) -> Dict[str, object]:
        kwargs: Dict[str, object] = {"max_steps": self.max_steps}
        if self.goal.needs_probe():
            self.last_probe = SlotProbe(
                [(self.goal.function, self.goal.slot)]  # type: ignore[attr-defined]
            )
            kwargs["tracer"] = self.last_probe
        return kwargs

    def goal_met(self, result: ExecutionResult) -> bool:
        if self.goal.needs_probe():
            return self.goal.check_probe(self.last_probe)  # type: ignore[attr-defined]
        return self.goal.check_output(bytes(result.output_data))

    def make_input_hook(
        self, build: ProgramBuild, rng: random.Random, attempt: int
    ) -> Callable[[Machine], Optional[bytes]]:
        model = self.models[attempt % len(self.models)]
        address_of = build.make_machine().image.address_of_global
        try:
            script = concretize(self.facts, self.plan, model, address_of)
            self.last_script_error = None
        except BuildError as error:
            self.last_script_error = str(error)
            script = AttackScript(static_chunks=[], idle_chunk=None)
        return make_script_hook(script)


def make_script_hook(
    script: AttackScript,
) -> Callable[[Machine], Optional[bytes]]:
    """Input hook executing an :class:`AttackScript`."""
    state: Dict[str, object] = {"queue": [], "consumed": 0, "phase": "start"}

    def hook(machine: Machine) -> Optional[bytes]:
        queue: List[bytes] = state["queue"]  # type: ignore[assignment]
        if queue:
            return queue.pop(0)
        if state["phase"] == "start":
            state["phase"] = "probe"
            if script.static_chunks is not None:
                state["phase"] = "done"
                queue.extend(script.static_chunks)
                if queue:
                    return queue.pop(0)
                return script.idle_chunk
            if script.probe_chunks:
                queue.extend(script.probe_chunks)
                return queue.pop(0)
        output = bytes(machine.result.output_data)
        leak = output[state["consumed"] :]  # type: ignore[index]
        state["consumed"] = len(output)
        if state["phase"] == "probe":
            state["phase"] = "done"
            chunks = script.build_chunks(leak)
            if chunks:
                queue.extend(chunks)
                return queue.pop(0)
        return script.idle_chunk

    return hook
