"""CleanStack-style taint-partitioned dual stack.

Models the defense of the CleanStack paper (PAPERS.md): a static taint
analysis (:mod:`repro.analysis.partition`) classifies every stack slot as
clean or unclean, and unclean slots — anything attacker input can reach,
anything whose address escapes, anything unprovable — are relocated to a
separate *unclean stack* whose base is randomized once per process start.
Clean slots stay exactly where the baseline layout puts them.

Consequences for the attack suite, which is the point of the model:

* an overflow from an unclean buffer can no longer reach any clean slot
  (the regions are ~1 MiB apart, far beyond any bounded write), so the
  classic "tainted request buffer corrupts a clean decision variable"
  attacks die deterministically;
* attacks confined to *unclean* data — the buffer and the DOP target are
  both attacker-influenced — stay deterministic, because the partition
  preserves relative distances inside the unclean region.  That residual
  surface is CleanStack's documented blind spot and exactly what
  Smokestack's per-invocation shuffle still covers.

Like ASLR, the randomness is drawn at load time: one ``make_machine``
call = one process start = one fresh unclean-stack displacement.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.analysis.partition import machine_partition, partition_module
from repro.analysis.reach import FrameLayout, cleanstack_layouts
from repro.core.pipeline import compile_source
from repro.defenses.base import Defense, ProgramBuild, reference_layouts_of
from repro.ir.module import Function, Module
from repro.synth.facts import FunctionFacts
from repro.synth.layouts import GapModel, cleanstack_gap_model

#: Span of the unclean stack's load-time displacement (bytes), matching
#: the stack-base ASLR span; the VM enforces 16-byte granularity.
DEFAULT_UNSAFE_SPAN = 64 * 1024


class CleanStackDefense(Defense):
    """Taint-partitioned dual stack with a randomized unclean region."""

    name = "cleanstack"
    randomization_time = "load"
    family = "sampled"
    cost_rank = 5
    certain_caller_writes = False

    def __init__(self, entropy_span: int = DEFAULT_UNSAFE_SPAN):
        self.entropy_span = entropy_span

    def build(self, source: str, instance_seed: int = 0) -> ProgramBuild:
        module = compile_source(source)
        # The partition is a compile-time artifact: static analysis over
        # the taint verdicts, baked into the deployment.
        unclean = machine_partition(partition_module(module))
        rng = random.Random(instance_seed ^ 0xC1EA45)
        span = self.entropy_span

        def start_options(**kwargs):
            kwargs.setdefault("clean_partition", unclean)
            # A fresh unclean-stack displacement per process start.
            kwargs.setdefault(
                "unsafe_stack_offset", rng.randrange(0, span, 16)
            )
            return kwargs

        return ProgramBuild(
            self.name, module, reference_layouts_of(module), start_options
        )

    @classmethod
    def layouts(
        cls,
        function: Function,
        *,
        samples: int = 64,
        seed: int = 0,
        module: Optional[Module] = None,
        facts: Optional[FunctionFacts] = None,
    ) -> List[FrameLayout]:
        """Clean slots fixed, unclean ones at sampled region deltas."""
        facts = facts or FunctionFacts(function, module)
        return cleanstack_layouts(
            function,
            facts.module,
            samples=samples,
            seed=seed,
            partition=facts.partition,
            descriptor=facts.descriptor,
        )

    @classmethod
    def gap_models(
        cls,
        victim: Function,
        caller: Optional[Function],
        buffer: str,
        module: Optional[Module] = None,
    ) -> List[GapModel]:
        """The attacker's region-local view (cross-region targets have
        no payload coordinate)."""
        return [cleanstack_gap_model(victim, caller, buffer, module)]
