"""Static analyses: attacker-influence taint, DOP gadget discovery,
per-function randomization entropy reporting, and the ``repro analyze``
layer — a dataflow framework (worklist solver, pluggable lattices,
widening for infinite-height domains) with overflow-reach, input-taint,
interval bounds-safety proofs, lint, and DOP-exposure analyses on top,
cross-checked against the VM.
"""

import importlib

from repro.analysis.crosscheck import (
    CrosscheckResult,
    SafetyProbe,
    crosscheck_function,
    crosscheck_module,
    crosscheck_safety,
)
from repro.analysis.dataflow import (
    AnalysisError,
    DataflowResult,
    ForwardProblem,
    IntersectLattice,
    Lattice,
    UnionLattice,
    solve_forward,
)
from repro.analysis.entropy import (
    FunctionEntropy,
    entropy_report,
    minimum_entropy_bits,
    render_entropy_report,
)
from repro.analysis.exposure import (
    ExposureScore,
    apply_exploit_verdicts,
    score_function,
)
from repro.analysis.gadgets import (
    Dispatcher,
    Gadget,
    GadgetReport,
    analyze_module,
    find_dispatchers,
    find_gadgets,
)
from repro.analysis.lint import Diagnostic, lint_function, lint_module
from repro.analysis.reach import (
    BufferReach,
    FrameLayout,
    Slot,
    frame_height,
    overflow_reach,
    reach_under_defense,
    stacked_layout,
)
from repro.analysis.intervals import (
    Interval,
    IntervalAnalysis,
    IntervalEnvLattice,
)
from repro.analysis.taintflow import (
    SinkHit,
    TaintAnalysis,
    TaintFlowAnalysis,
    attacker_param_indices,
    input_deriving_functions,
)

# driver.py, safety.py and exploit.py read the defense registry, whose
# schemes are built from this package's geometry (reach.py), so their
# exports resolve lazily: importing them eagerly here would re-enter
# repro.defenses while it is still initializing.
_LAZY_EXPORTS = {
    name: module
    for module, names in (
        ("driver", "Finding ProgramReport analyze_program exit_status "
                   "reports_to_json"),
        ("safety", "PROVEN_SAFE UNKNOWN UNSAFE SafetyReport "
                   "analyze_module_safety proven_reach_conflicts"),
        ("exploit", "EXPLOITABLE ROBUST UNDECIDED ExploitProver "
                    "ExploitVerdict GadgetGraph WitnessChain "
                    "build_gadget_graph default_goals prove_program"),
    )
    for name in names.split()
}


def __getattr__(name):
    if name in _LAZY_EXPORTS:
        module = importlib.import_module(f"repro.analysis.{_LAZY_EXPORTS[name]}")
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro.analysis' has no attribute '{name}'")


__all__ = [
    "EXPLOITABLE",
    "ExploitProver",
    "ExploitVerdict",
    "GadgetGraph",
    "ROBUST",
    "UNDECIDED",
    "WitnessChain",
    "build_gadget_graph",
    "default_goals",
    "prove_program",
    "AnalysisError",
    "BufferReach",
    "CrosscheckResult",
    "DataflowResult",
    "Diagnostic",
    "Dispatcher",
    "ExposureScore",
    "Finding",
    "ForwardProblem",
    "FrameLayout",
    "FunctionEntropy",
    "Gadget",
    "GadgetReport",
    "IntersectLattice",
    "Interval",
    "IntervalAnalysis",
    "IntervalEnvLattice",
    "Lattice",
    "PROVEN_SAFE",
    "ProgramReport",
    "SafetyProbe",
    "SafetyReport",
    "SinkHit",
    "Slot",
    "TaintAnalysis",
    "TaintFlowAnalysis",
    "UNKNOWN",
    "UNSAFE",
    "UnionLattice",
    "analyze_module",
    "analyze_module_safety",
    "analyze_program",
    "apply_exploit_verdicts",
    "attacker_param_indices",
    "crosscheck_function",
    "crosscheck_module",
    "crosscheck_safety",
    "entropy_report",
    "exit_status",
    "find_dispatchers",
    "find_gadgets",
    "lint_function",
    "lint_module",
    "minimum_entropy_bits",
    "overflow_reach",
    "proven_reach_conflicts",
    "reach_under_defense",
    "render_entropy_report",
    "reports_to_json",
    "score_function",
    "frame_height",
    "input_deriving_functions",
    "solve_forward",
    "stacked_layout",
]
