"""The workload half of the engine-equivalence table.

Every engine in :data:`repro.vm.interpreter.ENGINES` must reproduce the
``"slow"`` executor table bit for bit on every benchsuite workload and
on the hardened builds in :data:`HARDENED_WORKLOADS`.
``tests/test_decode.py`` checks the predecoded engine against it and
``tests/test_jit.py`` the two JIT engines; the ``"slow"`` reference run,
the most expensive one, is made once per workload and shared.
"""

import functools

from repro.benchsuite.programs import get_workload
from repro.core.pipeline import compile_source, harden_source
from repro.rng.entropy import DeterministicEntropy
from repro.rng.sources import make_source
from repro.vm.interpreter import RESULT_FIELDS, Machine

#: The union of the workloads the hardened tables have always covered.
HARDENED_WORKLOADS = ("libquantum", "sjeng", "lbm")


def run_workload(name, engine, hardened=False):
    workload = get_workload(name)
    if hardened:
        return Machine(
            harden_source(workload.source, None, name).module,
            inputs=list(workload.inputs),
            rng_source=make_source("aes-10", DeterministicEntropy(0)),
            engine=engine,
        ).run()
    return Machine(
        compile_source(workload.source, name),
        inputs=list(workload.inputs),
        engine=engine,
    ).run()


@functools.lru_cache(maxsize=None)
def slow_reference(name, hardened):
    return run_workload(name, "slow", hardened)


def assert_engines_agree(name, engines, hardened=False):
    """Run each of ``engines`` once on workload ``name``; compare with slow."""
    reference = slow_reference(name, hardened)
    label = f"hardened {name}" if hardened else name
    for engine in engines:
        result = run_workload(name, engine, hardened)
        for field in RESULT_FIELDS:
            assert getattr(result, field) == getattr(reference, field), (
                f"{label}: {engine} disagrees with slow on {field}: "
                f"{getattr(result, field)!r} != {getattr(reference, field)!r}"
            )
