"""Attack forensics: corruption timelines for the canned DOP attacks.

``repro trace --attack <name>`` replays one of the four canned attack
campaigns (the same scenarios and RNG derivation as ``repro attack``)
with a :class:`~repro.obs.trace.Tracer` attached, and renders the
*corruption timeline*: which write first crossed a slot boundary, from
which builtin, into which slots, under which defense.

The timeline is cross-checked against the interval bounds prover: every
slot named by the first boundary-crossing write must be one the prover
marks UNSAFE (and the scenario's overflow buffer must be UNSAFE too).
A clean stop — the defense prevented any crossing — is vacuously
consistent.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.analysis.safety import UNSAFE
from repro.attacks import dop, librelp, proftpd, ripe, wireshark
from repro.attacks.model import classify_result
from repro.defenses import make_defense
from repro.obs.metrics import get_registry
from repro.obs.trace import CYCLE_SCALE, Tracer
from repro.synth.facts import ProgramFacts


class ForensicTarget(NamedTuple):
    scenario_class: type
    victim: str  #: function whose frame the exploit overflows
    buffer: str  #: the overflowed slot


#: The four canned attacks; the prove gate checks their buffers UNSAFE.
CANNED_ATTACKS: Dict[str, ForensicTarget] = {
    "librelp": ForensicTarget(
        librelp.LibrelpDopAttack, "relp_chk_peer_name", "all_names"
    ),
    "wireshark": ForensicTarget(
        wireshark.WiresharkDopAttack, "dissect_record", "pd"
    ),
    "proftpd": ForensicTarget(proftpd.ProftpdDopAttack, "sreplace", "buf"),
    "ripe": ForensicTarget(ripe.StackDirectBruteForce, "victim", "buff"),
}

#: bonus: the paper's Listing 1 example is traceable too, but is kept
#: out of CANNED_ATTACKS so the prove gate stays on the canonical four.
EXTRA_ATTACKS: Dict[str, ForensicTarget] = {
    "listing1": ForensicTarget(dop.Listing1DopAttack, "server_loop", "buf"),
}


class AttemptTrace(NamedTuple):
    attempt: int
    outcome: str  #: success | detected | crashed | survived ...
    result_outcome: str  #: the raw ExecutionResult outcome
    tracer: Tracer


class ForensicsReport:
    """One traced campaign: timeline + prover cross-check."""

    def __init__(
        self,
        attack: str,
        defense: str,
        target: ForensicTarget,
        unsafe: Set[Tuple[str, str]],
    ) -> None:
        self.attack = attack
        self.defense = defense
        self.target = target
        #: (function, slot) pairs the bounds prover marks UNSAFE
        self.unsafe = unsafe
        self.attempts: List[AttemptTrace] = []

    # -- queries --------------------------------------------------------------------

    def timeline(self) -> List[Tuple[int, dict]]:
        """(attempt, write event) for every boundary-crossing write."""
        out = []
        for attempt in self.attempts:
            for event in attempt.tracer.crossing_events():
                out.append((attempt.attempt, event))
        return out

    def first_crossing(self) -> Optional[Tuple[int, dict]]:
        for attempt in self.attempts:
            event = attempt.tracer.first_crossing()
            if event is not None:
                return (attempt.attempt, event)
        return None

    def decisive_tracer(self) -> Optional[Tracer]:
        """Tracer of the attempt holding the first crossing (falls back
        to the last attempt) — what ``--json``/``--chrome`` export."""
        first = self.first_crossing()
        if first is not None:
            return self.attempts[first[0]].tracer
        return self.attempts[-1].tracer if self.attempts else None

    def decisive_events(self) -> List[dict]:
        tracer = self.decisive_tracer()
        return tracer.events if tracer is not None else []

    def first_crossing_slots(self) -> Set[Tuple[str, str]]:
        first = self.first_crossing()
        if first is None:
            return set()
        return {
            (touch["fn"], touch["slot"])
            for touch in first[1]["touched"]
            if not touch["slot"].startswith("<")
        }

    def consistent(self) -> bool:
        """First crossing names only prover-UNSAFE slots (vacuous if the
        defense prevented every crossing)."""
        slots = self.first_crossing_slots()
        first = self.first_crossing()
        if first is None:
            return True
        if (self.target.victim, self.target.buffer) not in self.unsafe:
            return False
        return bool(slots) and slots <= self.unsafe

    # -- rendering ------------------------------------------------------------------

    def format_text(self) -> str:
        lines = [
            f"attack   : {self.attack} (victim {self.target.victim}, "
            f"buffer '{self.target.buffer}')",
            f"defense  : {self.defense}",
        ]
        for attempt in self.attempts:
            tracer = attempt.tracer
            crossings = tracer.crossing_events()
            draws = sum(1 for e in tracer.events if e["ev"] == "rand")
            lines.append(
                f"attempt {attempt.attempt}: {attempt.outcome} "
                f"(vm: {attempt.result_outcome}, "
                f"{len(crossings)} crossing write(s), {draws} rng draw(s))"
            )
        timeline = self.timeline()
        if not timeline:
            lines.append("corruption timeline: no boundary-crossing writes")
        else:
            lines.append("corruption timeline:")
            for attempt_index, event in timeline[:40]:
                slots = ", ".join(
                    f"{touch['fn']}/{touch['slot']}"
                    for touch in event["touched"]
                )
                cycles = event["cycle_units"] / CYCLE_SCALE
                lines.append(
                    f"  [attempt {attempt_index} cycle {cycles:,.0f}] "
                    f"{event['kind']} in {event['fn']} wrote "
                    f"{event['size']}B @ {event['addr']:#x} "
                    f"({event['why']}) -> {slots or '(no slot)'}"
                )
            if len(timeline) > 40:
                lines.append(f"  ... {len(timeline) - 40} more")
        first = self.first_crossing()
        if first is not None:
            slots = sorted(
                f"{fn}/{slot}" for fn, slot in self.first_crossing_slots()
            )
            lines.append(f"first crossing names: {slots}")
        unsafe_in_victim = sorted(
            slot for fn, slot in self.unsafe if fn == self.target.victim
        )
        lines.append(
            f"prover UNSAFE in {self.target.victim}: {unsafe_in_victim}"
        )
        verdict = "CONSISTENT" if self.consistent() else "INCONSISTENT"
        lines.append(
            f"prover cross-check: {verdict} (first crossing ⊆ UNSAFE set)"
        )
        return "\n".join(lines)


def attack_forensics(
    name: str,
    defense: str = "none",
    restarts: int = 4,
    seed: int = 0,
    record_writes: str = "crossing",
    stop_on_success: bool = True,
) -> ForensicsReport:
    """Replay attack ``name`` under ``defense`` with tracing attached.

    RNG derivation and stop condition mirror
    :func:`repro.attacks.harness.run_campaign`, so the traced campaign
    takes the same trajectory as the untraced one.
    """
    registry = {**CANNED_ATTACKS, **EXTRA_ATTACKS}
    try:
        target = registry[name]
    except KeyError:
        raise ValueError(
            f"unknown attack {name!r}; known: {sorted(registry)}"
        ) from None
    scenario = target.scenario_class()
    defense_obj = make_defense(defense)
    build = defense_obj.build(scenario.source, instance_seed=seed)
    safety = ProgramFacts(scenario.source, name).safety
    unsafe = {
        (function.name, record.slot)
        for function in safety.functions.values()
        for record in function.slots
        if record.verdict == UNSAFE
    }
    report = ForensicsReport(name, defense_obj.name, target, unsafe)
    for attempt in range(restarts):
        rng = random.Random((seed << 16) ^ (attempt * 0x9E37) ^ 0xA77ACC)
        hook = scenario.make_input_hook(build, rng, attempt)
        tracer = Tracer(record_writes=record_writes)
        machine = build.make_machine(
            input_hook=hook, tracer=tracer, **scenario.machine_kwargs()
        )
        result = machine.run()
        outcome = classify_result(result, scenario.goal_met(result))
        report.attempts.append(
            AttemptTrace(attempt, outcome, result.outcome, tracer)
        )
        metrics = get_registry()
        metrics.counter(
            "forensics_attempts_total", attack=name, outcome=outcome
        ).inc()
        metrics.counter("forensics_crossing_writes_total", attack=name).inc(
            len(tracer.crossing_events())
        )
        if stop_on_success and outcome == "success":
            break
    return report
