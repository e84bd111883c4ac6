#!/usr/bin/env python3
"""Gadget hunting: the static analysis behind the paper's exploits.

§II-C: "Using static analysis, we discovered gadgets for MOV,
DEREFERENCE and STORE operations" in librelp.  This example runs the
reproduction's taint-based gadget finder over the librelp analogue and
the paper's Listing 1, then shows the flip side: hardening does NOT
remove gadgets — it takes away the attacker's ability to aim at their
operands, which the entropy report quantifies.

Run:  python examples/gadget_hunting.py
"""

from repro.analysis import analyze_module, render_entropy_report
from repro.attacks.dop import Listing1DopAttack
from repro.attacks.librelp import LibrelpDopAttack
from repro.core import harden_source
from repro.synth.facts import ProgramFacts


def census(title: str, source: str) -> None:
    print(f"--- {title} ---")
    report = analyze_module(ProgramFacts(source))
    print(f"gadgets: {report.kinds()}")
    for gadget in report.gadgets:
        print(f"  [{gadget.kind:<6}] in {gadget.function} ({gadget.block})")
    usable = report.usable_dispatchers()
    print(f"gadget dispatchers ({len(usable)} usable):")
    for dispatcher in usable:
        print(
            f"  loop at {dispatcher.function}:{dispatcher.header} — "
            f"attacker-controlled bound, {dispatcher.corruption_sites} "
            f"corruption site(s), {dispatcher.gadgets_in_body} gadget(s) in body"
        )
    print()


def main() -> None:
    census("paper Listing 1 (the canonical DOP program)",
           Listing1DopAttack.source)
    census("librelp CVE-2018-1000140 analogue", LibrelpDopAttack.source)

    print("--- what hardening changes ---")
    hardened = harden_source(LibrelpDopAttack.source)
    hardened_report = analyze_module(ProgramFacts(module=hardened.module))
    print(f"gadget census of the HARDENED module: {hardened_report.kinds()}")
    print("(identical kinds: Smokestack does not remove gadgets, it breaks")
    print(" the attacker's knowledge of where their operands live)")
    print()
    print(render_entropy_report(hardened))


if __name__ == "__main__":
    main()
