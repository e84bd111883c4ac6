"""Stack-base address randomization (load-time ASLR for the stack).

Models the transformations of [Forrest et al. 97], PaX/standard ASLR and
the stack-base part of [Giuffrida et al. 12]: at process start the stack
base is displaced by a random amount, making *absolute* stack addresses
unpredictable across runs.  Relative distances between locals are intact,
which is exactly why DOP attacks that only need the distance from the
overflowed buffer to the target variable sail through (paper §II-B/C).
"""

from __future__ import annotations

import random

from repro.core.pipeline import compile_source
from repro.defenses.base import Defense, ProgramBuild, reference_layouts_of
from repro.vm.interpreter import Machine

#: Span of the random displacement (bytes).  16-byte granularity is
#: enforced by the VM to preserve ABI stack alignment.
DEFAULT_ENTROPY_SPAN = 64 * 1024


class StackBaseASLR(Defense):
    """Per-process random stack base."""

    name = "aslr"
    randomization_time = "load"
    # The base shifts, not the intra-frame distances: one layout.
    family = "fixed"
    cost_rank = 3

    def __init__(self, entropy_span: int = DEFAULT_ENTROPY_SPAN):
        self.entropy_span = entropy_span

    def build(self, source: str, instance_seed: int = 0) -> ProgramBuild:
        module = compile_source(source)
        layouts = reference_layouts_of(module)
        rng = random.Random(instance_seed ^ 0xA51A51)
        span = self.entropy_span

        def factory(**kwargs) -> Machine:
            # A fresh displacement per process start (machine creation).
            kwargs.setdefault("stack_base_offset", rng.randrange(0, span, 16))
            return Machine(module, **kwargs)

        return ProgramBuild(self.name, module, factory, layouts)
