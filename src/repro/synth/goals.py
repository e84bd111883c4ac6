"""Goal predicates for synthesized DOP attacks.

A goal is what the attack *compiler* is asked to achieve, expressed over
program state the experimenter can observe:

``exfil NEEDLE``
    The byte string ``NEEDLE`` appears on the program's output channel.
    Checked from ``ExecutionResult.output_data`` alone — the same
    ground truth the canned attacks use.

``corrupt FN.SLOT = VALUE``
    The stack slot ``SLOT`` of function ``FN`` holds ``VALUE`` (a 64-bit
    little-endian word) at some point during the run.  Checking this
    needs ground truth the *attacker* never gets: a
    :class:`repro.synth.scenario.SlotProbe` watches the deployed
    machine's writes.  The planner, in contrast, works only from static
    facts — the probe is the experimenter's instrument, mirroring the
    crosscheck.py discipline of validating predictions against the VM.

The distinction matters for the success-rate metric: exfil goals are
defense-agnostic observations (the program either emitted the secret or
it did not), which is why the fuzz-victim cohort uses them exclusively.
"""

from __future__ import annotations

from repro.attacks.overflow import le64


class Goal:
    """Abstract goal predicate."""

    kind = "abstract"

    def describe(self) -> str:
        raise NotImplementedError

    def check_output(self, output: bytes) -> bool:
        """Is the goal visible on the program's output channel?"""
        return False

    def needs_probe(self) -> bool:
        """Does ground-truth checking require a slot probe?"""
        return False


class ExfilGoal(Goal):
    """``needle`` appears in the program's output."""

    kind = "exfil"

    def __init__(self, needle: bytes):
        if not needle:
            raise ValueError("exfil goal needs a non-empty needle")
        self.needle = bytes(needle)

    def describe(self) -> str:
        shown = self.needle[:24]
        suffix = "..." if len(self.needle) > 24 else ""
        return f"exfil {shown!r}{suffix}"

    def check_output(self, output: bytes) -> bool:
        return self.needle in output

    def __repr__(self) -> str:
        return f"ExfilGoal({self.needle[:16]!r}...)"


class CorruptGoal(Goal):
    """Slot ``slot`` of ``function`` takes the 64-bit value ``value``."""

    kind = "corrupt"

    def __init__(self, function: str, slot: str, value: int):
        self.function = function
        self.slot = slot
        self.value = value & ((1 << 64) - 1)

    @property
    def value_bytes(self) -> bytes:
        return le64(self.value)

    def describe(self) -> str:
        return f"corrupt {self.function}.{self.slot} = {hex(self.value)}"

    def needs_probe(self) -> bool:
        return True

    def check_probe(self, probe) -> bool:
        """Did the probe observe the slot holding the goal value?"""
        return probe is not None and probe.observed_value(
            self.function, self.slot, self.value_bytes
        )

    def __repr__(self) -> str:
        return f"CorruptGoal({self.function}.{self.slot}={hex(self.value)})"


def parse_goal(text: str) -> Goal:
    """Parse the CLI goal grammar.

    ``exfil:HEXBYTES`` / ``exfil-text:STRING`` /
    ``corrupt:FN.SLOT=INT`` (int accepts 0x prefixes).
    """
    if text.startswith("exfil:"):
        return ExfilGoal(bytes.fromhex(text[len("exfil:"):]))
    if text.startswith("exfil-text:"):
        return ExfilGoal(text[len("exfil-text:"):].encode())
    if text.startswith("corrupt:"):
        spec = text[len("corrupt:"):]
        place, _, value = spec.partition("=")
        function, _, slot = place.partition(".")
        if not (function and slot and value):
            raise ValueError(f"bad corrupt goal '{text}'")
        return CorruptGoal(function, slot, int(value, 0))
    raise ValueError(f"unknown goal '{text}'")
