"""Smokestack wrapped in the common :class:`Defense` interface.

This is what the security-evaluation harness instantiates to put the
paper's contribution on the same footing as the prior schemes: build once
(the P-BOX and instrumentation are compile-time artifacts, but they fix
only the *set* of layouts, not the choice), then draw a fresh layout at
every function invocation at run time.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.reach import FrameLayout, smokestack_layouts
from repro.core.config import SmokestackConfig
from repro.core.pipeline import harden_source
from repro.defenses.base import Defense, ProgramBuild
from repro.ir.module import Function, Module
from repro.rng.entropy import DeterministicEntropy, EntropySource
from repro.synth.facts import FunctionFacts
from repro.vm.interpreter import Machine


class SmokestackDefense(Defense):
    """Per-invocation stack layout randomization (the paper)."""

    name = "smokestack"
    randomization_time = "invocation"
    family = "redealt"
    cost_rank = 7

    def __init__(
        self,
        config: Optional[SmokestackConfig] = None,
        entropy: Optional[EntropySource] = None,
    ):
        self.config = config or SmokestackConfig()
        self.entropy = entropy

    def build(self, source: str, instance_seed: int = 0) -> ProgramBuild:
        hardened = harden_source(source, self.config)
        entropy = self.entropy
        scheme = self.config.scheme
        starts = [0]  # distinct per-process entropy across restarts

        def factory(**kwargs) -> Machine:
            if entropy is not None:
                process_entropy = entropy
            else:
                # Deterministic per-build + per-start entropy keeps the
                # experiments reproducible while still giving every process
                # start an independent random stream.
                starts[0] += 1
                process_entropy = DeterministicEntropy(
                    (instance_seed << 20) ^ starts[0]
                )
            return hardened.make_machine(
                entropy=process_entropy, scheme=scheme, **kwargs
            )

        # Static analysis of a hardened binary finds one unified frame per
        # function and no per-variable slots: the oracle is empty.
        return ProgramBuild(self.name, hardened.module, factory, {})

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
        """Sampled rows of the function's own permutation table."""
        facts = facts or FunctionFacts(function, module)
        return smokestack_layouts(
            function, samples=samples, seed=seed, descriptor=facts.descriptor
        )
