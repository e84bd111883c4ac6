"""End-to-end compilation pipelines: baseline and Smokestack-hardened.

These are the reproduction's equivalents of ``clang -O2`` (baseline) and
``clang -O2 -fsmokestack`` (hardened): one call takes Mini-C source and
returns something the VM can run.

The front end (lex, parse, sema) runs at most once per source text and
filename while its AST stays in a small cache; every build still lowers
its own fresh module from that AST, because the hardening passes mutate
the module they are given.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Tuple

from repro.core.config import SmokestackConfig
from repro.core.instrument import instrument_module
from repro.core.pbox import PBox
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.lowering import lower
from repro.minic import compile_to_ast
from repro.minic.astnodes import TranslationUnit
from repro.obs.metrics import get_registry
from repro.perf.timer import PhaseTimer
from repro.rng.entropy import EntropySource
from repro.rng.sources import make_source
from repro.vm.interpreter import Machine


def _observe_phase(name: str, seconds: float) -> None:
    get_registry().histogram("pipeline_phase_seconds", phase=name).observe(
        seconds
    )


def _phase_timer() -> PhaseTimer:
    """A fresh per-call timer feeding the metrics registry.

    Per call (not module-global) so recursive/pipelined builds — an
    oracle compiling inside an analysis that is itself being compiled —
    can never trip the timer's re-entrancy guard.
    """
    return PhaseTimer(observer=_observe_phase)


#: Sema'd ASTs :func:`frontend` keeps; the oldest entry is evicted first.
FRONTEND_CACHE_ENTRIES = 64

#: (sha256 of the source, filename) -> sema'd AST
_FRONTEND_CACHE: Dict[Tuple[str, str], TranslationUnit] = {}


def frontend(source: str, filename: str = "<input>") -> TranslationUnit:
    """The sema'd AST of ``source``, lexed, parsed and analyzed once.

    Keyed on the source's digest plus ``filename`` (locations in the
    tree and its diagnostics name the file).  A compile that raises is
    never cached, so the same error comes back on every call.  The tree
    is shared: callers lower it (:func:`lower_ast`) and never mutate it.
    Counts ``pipeline_frontend_total{cache=hit|miss}``.
    """
    key = (
        hashlib.sha256(source.encode("utf-8", "surrogatepass")).hexdigest(),
        filename,
    )
    ast = _FRONTEND_CACHE.get(key)
    get_registry().counter(
        "pipeline_frontend_total", cache="miss" if ast is None else "hit"
    ).inc()
    if ast is None:
        ast = compile_to_ast(source, filename)
        _FRONTEND_CACHE[key] = ast
        while len(_FRONTEND_CACHE) > FRONTEND_CACHE_ENTRIES:
            del _FRONTEND_CACHE[next(iter(_FRONTEND_CACHE))]
    return ast


def lower_ast(ast, name: str = "program", opt_level: int = 0) -> Module:
    """Lower an already-parsed AST (+ optimizer) into a fresh module.

    Lowering never mutates the AST, so one parse can feed several
    independent builds — :func:`compile_source` lowers each build from
    the cached front-end AST, and the benchmark harness lowers the same
    AST once for the baseline and once for the build it hands to the
    hardening passes (which *do* mutate their module).
    """
    timer = _phase_timer()
    with timer.phase("lower"):
        module = lower(ast, name)
    if opt_level:
        from repro.opt import optimize

        with timer.phase("optimize"):
            optimize(module, opt_level)
    return module


def compile_source(source: str, name: str = "program", opt_level: int = 0) -> Module:
    """Front-end + lowering (+ optimizer): the unhardened baseline module.

    ``opt_level=0`` is the clang-at--O0 shape (every local in memory);
    ``opt_level=2`` runs mem2reg and the cleanup passes, reproducing the
    register-resident frames of the paper's ``-O2`` testbed.  The front
    end is cached (:func:`frontend`); the module is always fresh.
    """
    timer = _phase_timer()
    with timer.phase("compile"):
        module = lower_ast(frontend(source, name), name, opt_level=opt_level)
    get_registry().counter("pipeline_compiles_total").inc()
    return module


class HardenedProgram:
    """A Smokestack-hardened module plus its P-BOX and configuration."""

    def __init__(self, module: Module, pbox: PBox, config: SmokestackConfig):
        self.module = module
        self.pbox = pbox
        self.config = config

    def start_options(
        self,
        entropy: Optional[EntropySource] = None,
        scheme: Optional[str] = None,
        **machine_kwargs,
    ) -> dict:
        """Machine options for one process start: ``machine_kwargs`` plus
        an ``rng_source`` of the configured randomness scheme.

        ``scheme`` overrides the compile-time default, which is how the
        Figure 3 harness runs the same hardened binary under all four
        randomness sources.
        """
        machine_kwargs["rng_source"] = make_source(
            scheme or self.config.scheme, entropy
        )
        return machine_kwargs

    def make_machine(
        self,
        entropy: Optional[EntropySource] = None,
        scheme: Optional[str] = None,
        **machine_kwargs,
    ) -> Machine:
        """A fresh process wired with the configured randomness scheme
        (see :meth:`start_options`)."""
        return Machine(
            self.module, **self.start_options(entropy, scheme, **machine_kwargs)
        )

    def restart(
        self,
        machine: Machine,
        entropy: Optional[EntropySource] = None,
        scheme: Optional[str] = None,
        **machine_kwargs,
    ) -> Machine:
        """Start ``machine``, a process of this program, again in place
        with a fresh randomness source (see :meth:`Machine.restart`)."""
        return machine.restart(
            **self.start_options(entropy, scheme, **machine_kwargs)
        )

    def pbox_bytes(self) -> int:
        return self.pbox.size_bytes()

    def selective_skipped(self) -> list:
        """Functions the prover let ``selective`` mode leave untouched."""
        record = self.module.metadata.get("smokestack", {})
        return list(record.get("selective_skipped", []))

    def __repr__(self) -> str:
        return (
            f"HardenedProgram({self.module.name!r}, scheme="
            f"{self.config.scheme!r}, pbox {self.pbox.size_bytes()}B)"
        )


def harden_module(
    module: Module, config: Optional[SmokestackConfig] = None
) -> HardenedProgram:
    """Apply Smokestack to an already-lowered module (mutates it)."""
    config = config or SmokestackConfig()
    timer = _phase_timer()
    with timer.phase("harden"):
        pbox = instrument_module(module, config)
        verify_module(module)
    get_registry().counter("pipeline_hardens_total").inc()
    return HardenedProgram(module, pbox, config)


def harden_source(
    source: str,
    config: Optional[SmokestackConfig] = None,
    name: str = "program",
    opt_level: int = 0,
) -> HardenedProgram:
    """Compile Mini-C source and harden it in one step.

    Optimization runs *before* instrumentation, as in the paper's build
    (the passes sit late in the LLVM pipeline): at ``opt_level=2`` only
    the locals that survive mem2reg — buffers and address-taken scalars —
    are permuted.
    """
    module = compile_source(source, name, opt_level=opt_level)
    return harden_module(module, config)
