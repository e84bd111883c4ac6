"""Automated DOP attack synthesis (the Smokestack attack compiler).

The package turns the static analyses (taint census, overflow reach,
interval facts) into an *attack compiler*: given a victim program and a
goal predicate, it plans a gadget chain, concretizes it into crafted
input bytes per deployed defense, and confirms the predicate by running
the hardened build in the VM.  Success rates over many victims become
the security metric reported in ``BENCH_security.json``.

Layering (each module only looks down; the package itself imports
nothing, so the defense registry can build on ``layouts`` without
pulling in the campaign that drives it):

``goals``        goal-predicate grammar and checkers
``facts``        per-program fact base over the shared gadget census
``channels``     overflow-channel discovery (how bytes get in)
``layouts``      payload-coordinate geometry under a defense's hypotheses
``planner``      symbolic chain search -> :class:`AttackPlan`
``concretize``   plan -> input-hook bytes per defense hypothesis
``scenario``     harness adapter + ``SlotProbe`` ground-truth tracer
``campaign``     per-defense success-rate campaigns and metrics
"""
