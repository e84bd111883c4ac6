"""Common interface for the stack defenses under evaluation.

The essential distinction the paper draws is *when* randomness is drawn:

* **compile-time** schemes (static permutation, Forrest padding) fix their
  randomness when the binary is built — every run, and every restart of a
  crashed service, has the same layout;
* **load-time** schemes (stack-base ASLR) draw once per process;
* **Smokestack** draws per function invocation.

:class:`Defense.build` therefore models one *deployment*: compile-time
randomness is fixed inside the returned :class:`ProgramBuild`, while each
process start draws load-time and run-time randomness fresh.  A start is
either fresh (:meth:`ProgramBuild.make_machine` loads a new process) or a
restart (:meth:`ProgramBuild.restart` starts an existing process of the
build again in place, keeping its decoded code); both draw the same
per-start options, in the same order, from the build's start-options
function.

``layout_oracle`` returns what the attacker's *static analysis of the
reference binary* reveals about a function's frame: the paper's threat
model grants the attacker the binary or sources, but not the deployed
instance's compile-time random seed (Forrest-style diversity) — and for
Smokestack there simply is no per-variable layout to recover.

Each :class:`Defense` class is also the one description of its scheme
the analyses read: its layout family (:meth:`Defense.layouts`, read by
column through :meth:`Defense.columns`), the attacker's
payload-coordinate hypotheses (:meth:`Defense.gap_models`), its
deployment cost rank and the exploit prover's carve-outs.  The
geometry those methods assemble lives in :mod:`repro.analysis.reach`
and :mod:`repro.synth.layouts`, which know no defense by name.  The
layout and gap methods take the function's
:class:`~repro.synth.facts.FunctionFacts`, whose frame descriptor, slot
names, declaration-order layout and cleanstack partition every family
starts from; the exploit prover, the ``analyze`` reach rows, the
bounds prover's reach check and the attack scenarios all pass the
bundle of the module they read.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.analysis.reach import FrameLayout, LayoutColumns, layout_columns
from repro.core.pipeline import compile_source
from repro.ir.module import Module
from repro.synth.facts import FunctionFacts
from repro.synth.layouts import GapModel, gap_model
from repro.vm.interpreter import Machine, baseline_frame_layout


#: A build's per-start options: takes the caller's Machine options and
#: returns them with the scheme's own added — the load-time draws (ASLR
#: and CleanStack offsets, Smokestack's entropy) taken once per call.
StartOptions = Callable[..., Dict[str, Any]]


def _as_given(**kwargs) -> Dict[str, Any]:
    return kwargs


class ProgramBuild:
    """One deployed build of a program under some defense.

    A process of the build starts either fresh (:meth:`make_machine`) or
    as a restart of an earlier process (:meth:`restart`); both draw the
    scheme's per-start options from ``start_options``, once per start.
    """

    def __init__(
        self,
        defense_name: str,
        module: Module,
        reference_layouts: Dict[str, Dict[str, int]],
        start_options: StartOptions = _as_given,
    ):
        self.defense_name = defense_name
        self.module = module
        self._reference_layouts = reference_layouts
        self._start_options = start_options

    def make_machine(self, **kwargs) -> Machine:
        """A fresh process: load the build and start it."""
        return Machine(self.module, **self._start_options(**kwargs))

    def restart(self, machine: Machine, **kwargs) -> Machine:
        """Start ``machine``, a process of this build, again in place.

        Draws exactly what :meth:`make_machine` draws; the run that
        follows matches a fresh process given the same draws (see
        :meth:`Machine.restart`).
        """
        if machine.module is not self.module:
            raise ValueError(
                f"machine runs {machine.module.name!r}, not this "
                f"{self.defense_name} build"
            )
        return machine.restart(**self._start_options(**kwargs))

    def layout_oracle(self, function_name: str) -> Dict[str, int]:
        """What static analysis of the reference binary says about a frame.

        Offsets are bytes below the frame top (larger = lower address), as
        produced by :func:`repro.vm.interpreter.baseline_frame_layout`.
        Empty for functions whose layout static analysis cannot pin down
        (Smokestack).
        """
        return dict(self._reference_layouts.get(function_name, {}))


class Defense:
    """A named protection scheme that can build programs."""

    #: registry name, e.g. "none", "aslr", "padding", "static-permute",
    #: "canary", "smokestack"
    name = "abstract"
    #: where the scheme's randomness is drawn ("none", "compile", "load",
    #: "invocation")
    randomization_time = "none"
    #: the layout family the analyses model:
    #: ``"fixed"`` — one layout, VM-checkable as modeled;
    #: ``"enumerated"`` — every deployable layout is listed;
    #: ``"sampled"`` — drawn once per build or process, and the model
    #: samples the draws, so it may miss deployable members;
    #: ``"redealt"`` — drawn again at every invocation (and sampled).
    family = "fixed"
    #: position on the deployment-cost ladder, cheapest first; the
    #: highest rank is the assignment fallback
    cost_rank = 0
    #: frames carry a canary word below the return cookie.  The VM's
    #: canary holds a NUL byte, so a strcpy-style payload can never
    #: replay it on its way into the caller's frame.
    canary = False
    #: a caller-frame gap that is fixed across the modeled family is
    #: fixed in deployment too (cleanstack's sampled region deltas can
    #: cancel out of cross-frame gaps where the real one does not)
    certain_caller_writes = True

    def build(self, source: str, instance_seed: int = 0) -> ProgramBuild:
        raise NotImplementedError

    @classmethod
    def layouts(
        cls, facts: FunctionFacts, *, samples: int = 64, seed: int = 0
    ) -> List[FrameLayout]:
        """The family of concrete layouts the scheme can deploy for the
        function ``facts`` describes.

        Randomized families are sampled (seeded, deterministic), so
        ``certain`` facts computed from them are conservative in the
        safe direction.  Every family starts from the bundle's frame
        facts (descriptor, slot names, declaration-order layout; the
        cleanstack family also its partition).
        """
        return [facts.layout(cls.canary)]

    @classmethod
    def columns(
        cls, facts: FunctionFacts, *, samples: int = 64, seed: int = 0
    ) -> LayoutColumns:
        """:meth:`layouts` read by column — the exploit prover's view.

        Families drawn from a permutation table override this to read
        the rows directly instead of building a frame layout per row.
        """
        return layout_columns(cls.layouts(facts, samples=samples, seed=seed))

    @classmethod
    def gap_models(
        cls,
        victim: FunctionFacts,
        caller: Optional[FunctionFacts],
        buffer: str,
    ) -> List[GapModel]:
        """The attacker's payload-coordinate hypotheses, cycled by attempt.

        By default the reference declaration-order layout: for the
        randomizing schemes this is the attacker's blind best guess,
        which is exactly what makes their success rates diverge.
        """
        return [
            gap_model(
                victim.layout(cls.canary),
                None if caller is None else caller.layout(cls.canary),
                buffer,
            )
        ]

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def reference_layouts_of(module: Module) -> Dict[str, Dict[str, int]]:
    """Declaration-order layouts of every function (the un-diversified
    reference binary an attacker studies), read straight off each
    function's static allocas — no process is loaded for it."""
    return {
        name: baseline_frame_layout(function)
        for name, function in module.functions.items()
    }


class NoDefense(Defense):
    """Plain baseline build: deterministic layout, no protections."""

    name = "none"
    randomization_time = "none"
    family = "fixed"
    cost_rank = 0

    def build(self, source: str, instance_seed: int = 0) -> ProgramBuild:
        module = compile_source(source)
        return ProgramBuild(self.name, module, reference_layouts_of(module))


class StackCanary(Defense):
    """Classic stack-smashing protector: secret word below the return slot.

    Stops *linear* overflows that cross the canary, but DOP payloads that
    stay inside the locals region (or skip over it non-linearly) never
    touch it — which is why the paper replaces it rather than relying on
    it.
    """

    name = "canary"
    randomization_time = "load"
    family = "fixed"
    cost_rank = 2
    canary = True

    def build(self, source: str, instance_seed: int = 0) -> ProgramBuild:
        module = compile_source(source)

        def start_options(**kwargs):
            kwargs.setdefault("stack_protector", True)
            return kwargs

        return ProgramBuild(
            self.name, module, reference_layouts_of(module), start_options
        )
