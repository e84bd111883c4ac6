"""Worker-process job handlers for ``repro serve``.

Each pool worker is a persistent, stateless-by-contract process: a job
dict goes in, a plain result dict comes out, and **everything a job
increments in the process-global metrics registry is shipped back** as
a delta for the parent to merge (without it every counter below would
silently vanish into the worker).

The only state a worker keeps between jobs is derived:

* parsed ASTs, in the pipeline's front-end cache
  (:func:`repro.core.pipeline.frontend`; parsing is pure), and
* compiled modules keyed by ``(digest, opt)`` together with the
  ``Module.version`` observed at compile time.  A cached module is
  reused only while its version still matches — any in-place transform
  (``instrument_module`` bumps the version) invalidates it, exactly the
  staleness contract the VM's decoder uses.  Hardening therefore always
  lowers a *fresh* module from the cached AST: the mutation lands on a
  throwaway, never on the shared cache entry.

Only ``trace`` attaches a :class:`~repro.obs.Tracer`, because emitting
events is its job; an attached tracer deopts the whole run off the
JIT.  ``harden`` fingerprints the layouts its run used from the P-BOX
tables and the ``__ss_rand`` draws (see :class:`LayoutFingerprint`),
recorded by a :class:`~repro.rng.sources.RecordingSource`, so it runs
untraced on the default JIT.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Dict, List, Tuple

from repro.core.config import SmokestackConfig
from repro.core.pipeline import HardenedProgram, frontend, harden_module, lower_ast
from repro.obs import Tracer
from repro.obs.metrics import worker_job_metrics
from repro.rng.entropy import DeterministicEntropy
from repro.rng.sources import RecordingSource
from repro.serve.protocol import source_digest
from repro.vm.interpreter import Machine

#: Per-worker compiled-module budget.
WORKER_CACHE_ENTRIES = 64

#: Serve requests run untrusted source; keep runaway guests bounded.
SERVE_MAX_STEPS = 30_000_000

#: (digest, opt) -> (module, version-at-compile)
_MODULE_CACHE: "Dict[Tuple[str, int], Tuple[object, int]]" = {}


def _lower(job: dict):
    """A fresh module, lowered from the cached front-end AST."""
    name = job["digest"][:12]
    return lower_ast(frontend(job["source"], name), name, opt_level=job["opt"])


def _module_for(job: dict):
    """The shared read-only module for this (digest, opt).

    Re-checks ``Module.version`` against the version recorded when the
    entry was cached: if anything transformed the module in place, the
    token no longer matches and the module is recompiled rather than
    served stale.
    """
    key = (job["digest"], job["opt"])
    entry = _MODULE_CACHE.get(key)
    if entry is not None:
        module, version = entry
        if getattr(module, "version", 0) == version:
            return module
        del _MODULE_CACHE[key]
    module = _lower(job)
    _MODULE_CACHE[key] = (module, getattr(module, "version", 0))
    while len(_MODULE_CACHE) > WORKER_CACHE_ENTRIES:
        _MODULE_CACHE.pop(next(iter(_MODULE_CACHE)))
    return module


def _inputs(job: dict) -> List[bytes]:
    return [item.encode("utf-8") for item in job.get("inputs", ())]


def _module_summary(module) -> dict:
    return {
        "functions": sorted(module.functions),
        "instructions": sum(
            sum(len(block.instructions) for block in function.blocks)
            for function in module.functions.values()
        ),
        "globals": len(module.globals),
        "module_version": getattr(module, "version", 0),
    }


# -- op handlers --------------------------------------------------------------------


def _handle_compile(job: dict) -> dict:
    module = _module_for(job)
    result = {"digest": job["digest"], "opt": job["opt"]}
    result.update(_module_summary(module))
    return result


class LayoutFingerprint:
    """The ``layout_digest`` of one hardened run, streamed.

    Smokestack randomizes exactly one thing per invocation: the P-BOX
    row its prologue selects with an ``__ss_rand`` draw.  The layout a
    run used is therefore fixed by the P-BOX tables plus the sequence
    of draws, so the digest hashes the tables' contents and then each
    draw's ``(fn, value)``.  Feed it draws with :meth:`add`; only the
    first :data:`SHOWN` are kept, as ``{fn, row}`` for the reply.
    """

    #: draws echoed in the reply's ``layouts``
    SHOWN = 8

    def __init__(self, hardened: HardenedProgram):
        self._entries = hardened.pbox.entries
        self._hash = hashlib.sha256()
        for table in hardened.pbox.tables:
            self._hash.update(
                f"{table.global_name} {table.row_count}x{table.slot_count}\n"
                .encode("ascii")
            )
            # the table's bytes as the image holds them, serialized once
            # by the hardening pass
            self._hash.update(
                hardened.module.globals[table.global_name].initializer
            )
        self.draws = 0
        self.layouts: List[dict] = []

    def add(self, fn: str, value: int) -> None:
        self._hash.update(f"{fn} {value}\n".encode("utf-8"))
        self.draws += 1
        if len(self.layouts) < self.SHOWN:
            # the row the prologue selects (with fnid checks on, every
            # function that draws owns a table)
            rows = self._entries[fn].table.row_count
            self.layouts.append({"fn": fn, "row": value % rows})

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _harden(job: dict) -> HardenedProgram:
    # Fresh lowering: instrument_module mutates its module in place, so
    # the shared compile cache must never see a hardened build.
    module = _lower(job)
    config = SmokestackConfig(
        scheme=job["scheme"], compile_seed=job["tenant_seed"]
    )
    return harden_module(module, config)


def _hardened_machine(hardened: HardenedProgram, job: dict, **machine_kwargs):
    return hardened.make_machine(
        entropy=DeterministicEntropy(job["tenant_seed"]),
        inputs=_inputs(job),
        max_steps=SERVE_MAX_STEPS,
        **machine_kwargs,
    )


def fingerprint_run(job: dict, **machine_kwargs):
    """Harden ``job``'s program and run it, recording its draws.

    Returns ``(hardened, run, fingerprint)``.  ``machine_kwargs`` reach
    the :class:`Machine` (an engine choice, a tracer); the serve op
    passes none, so the run takes the default JIT.
    """
    hardened = _harden(job)
    fingerprint = LayoutFingerprint(hardened)
    machine = _hardened_machine(hardened, job, **machine_kwargs)
    machine.rng_source = RecordingSource(machine.rng_source, fingerprint.add)
    return hardened, machine.run(), fingerprint


def _handle_harden(job: dict) -> dict:
    hardened, run, fingerprint = fingerprint_run(job)
    return {
        "digest": job["digest"],
        "scheme": job["scheme"],
        "tenant_seed": job["tenant_seed"],
        "pbox_bytes": hardened.pbox_bytes(),
        "outcome": run.outcome,
        "exit_code": run.exit_code,
        "steps": run.steps,
        "draws": fingerprint.draws,
        "layout_digest": fingerprint.hexdigest(),
        "layouts": fingerprint.layouts,
    }


def _handle_analyze(job: dict, prove: bool) -> dict:
    from repro.analysis import analyze_program

    report = analyze_program(
        job["source"],
        job["digest"][:12],
        opt_level=job["opt"],
        prove=prove,
        module=_module_for(job),
    )
    return report.to_dict()


def _handle_trace(job: dict) -> Tuple[dict, List[str]]:
    tracer = Tracer(record_writes=job["writes"])
    if job["harden"]:
        machine = _hardened_machine(_harden(job), job, tracer=tracer)
    else:
        machine = Machine(
            _module_for(job),
            inputs=_inputs(job),
            tracer=tracer,
            max_steps=SERVE_MAX_STEPS,
        )
    run = machine.run()
    header = {
        "digest": job["digest"],
        "outcome": run.outcome,
        "steps": run.steps,
        "cycles": run.cycles,
        "events": len(tracer.events),
        "dropped": tracer.dropped,
        "writes_seen": tracer.write_count,
        "crossings": len(tracer.crossing_events()),
    }
    lines = [
        json.dumps(event, sort_keys=True) for event in tracer.events
    ]
    return header, lines


def _handle_synth(job: dict) -> dict:
    from repro.synth.campaign import (
        SynthConfig,
        VictimCase,
        run_synth_campaign,
    )

    case = VictimCase(
        job["digest"][:12], job["source"], job["goal"], kind="serve"
    )
    config = SynthConfig(
        defenses=tuple(job["defenses"]),
        restarts=job["restarts"],
        seed=job["tenant_seed"],
        jobs=1,
    )
    summary = run_synth_campaign([case], config, check_soundness=False)
    return summary.to_json()


def handle_job(job: dict) -> dict:
    """Pool entry point: run one job, return result + metrics delta.

    Exceptions never escape (a guest-induced failure must not kill the
    worker): they come back as ``{"error": ...}`` for the server to wrap
    in an ``internal`` protocol error.
    """
    registry = worker_job_metrics()
    op = job.get("op", "unknown")
    out: dict = {"events": None}
    with registry.timed("serve_worker_seconds", op=op):
        try:
            if op == "sleep":  # debug op: simulates a hung worker
                time.sleep(job["seconds"])
                out["result"] = {"slept": job["seconds"]}
            elif op == "compile":
                out["result"] = _handle_compile(job)
            elif op == "harden":
                out["result"] = _handle_harden(job)
            elif op == "analyze":
                out["result"] = _handle_analyze(job, prove=False)
            elif op == "prove":
                out["result"] = _handle_analyze(job, prove=True)
            elif op == "trace":
                header, lines = _handle_trace(job)
                out["result"] = header
                out["events"] = lines
            elif op == "synth":
                out["result"] = _handle_synth(job)
            else:  # pragma: no cover - validate_request gates the op set
                out["error"] = f"unhandled op '{op}'"
        except Exception as exc:  # noqa: BLE001 - shipped home as an error
            out["error"] = f"{type(exc).__name__}: {exc}"
    registry.counter("serve_worker_jobs_total", op=op).inc()
    out["metrics"] = registry.dump()
    return out


def warmup() -> bool:
    """No-op job used to pre-spawn pool workers at server start."""
    return True
