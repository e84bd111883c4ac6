"""Shadow stack: return-address/metadata isolation.

Models the backward-edge protection surveyed in the Shadow Stacks SoK
(PAPERS.md): the return address (and in our frame model the whole
cookie/canary metadata band) is kept in a region an overflow cannot
reach, so return-address corruption is impossible — the epilogue always
returns through the pristine shadow copy.

In the VM this means the frame-pop integrity comparison is performed
against the protected copy rather than the in-frame bytes
(``Machine(shadow_stack=True)``): guest writes over the return slot are
tolerated and control flow proceeds normally.  Deliberately, *nothing*
else changes — local variables keep their baseline layout — which makes
the scheme's blind spot executable: DOP attacks never touch the return
address, so their success rate under a shadow stack matches the
undefended baseline.  That is the SoK's (and the Smokestack paper's)
argument for why backward-edge CFI does not answer data-oriented attacks.
"""

from __future__ import annotations

from repro.core.pipeline import compile_source
from repro.defenses.base import Defense, ProgramBuild, reference_layouts_of


class ShadowStackDefense(Defense):
    """Return-address isolation; data layout untouched."""

    name = "shadowstack"
    randomization_time = "none"
    # The metadata band moves, not the data slots: the attacker-visible
    # data layout is exactly the baseline.
    family = "fixed"
    cost_rank = 1

    def build(self, source: str, instance_seed: int = 0) -> ProgramBuild:
        module = compile_source(source)

        def start_options(**kwargs):
            kwargs.setdefault("shadow_stack", True)
            return kwargs

        return ProgramBuild(
            self.name, module, reference_layouts_of(module), start_options
        )
