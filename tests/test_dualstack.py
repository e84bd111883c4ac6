"""Dual-stack defense family: partition, VM semantics, assignment, lint."""

import unittest

from repro.analysis.assign import assign_defenses, assignment_summary
from repro.analysis.crosscheck import crosscheck_dualstack
from repro.analysis.lint import lint_module
from repro.analysis.partition import machine_partition, partition_module
from repro.analysis.reach import cleanstack_layouts
from repro.core.pipeline import compile_source
from repro.defenses import defense_names, make_defense
from repro.defenses.registry import DEFENSE_ORDER, SCHEMES
from repro.fuzz.victims import generate_victim
from repro.synth.facts import ProgramFacts
from repro.vm.interpreter import Machine

VICTIM = """
char g_secret[40] = "SECRETSECRETSECRETSECRETSECRETX";

long serve() {
    char req[32];
    long t0 = 7;
    long n = 0;
    n = input_read(req, 352);
    if (n <= 0) {
        return 0;
    }
    output_bytes(req, 312);
    return 1;
}

long run() {
    long gate = 0;
    long r = 0;
    while (r < 3) {
        if (serve() == 0) {
            break;
        }
        r = r + 1;
    }
    if (gate == 1234605616436508552) {
        output_bytes(g_secret, 32);
    }
    return r;
}

int main() {
    char headroom[448];
    headroom[0] = 1;
    return (int)(run() & 1);
}
"""


class PartitionTest(unittest.TestCase):
    def test_arrays_and_tainted_roots_are_unclean(self):
        module = compile_source(VICTIM, "victim")
        partitions = partition_module(module)
        serve = partitions["serve"]
        self.assertIn("req", serve.unclean)  # input-filled array
        self.assertIn("t0", serve.clean)  # untouched word stays clean

    def test_unclean_gate_variant_moves_gate(self):
        # find one variant and one non-variant victim deterministically
        variant = next(
            s for s in map(generate_victim, range(40)) if s.unclean_gate
        )
        plain = next(
            s for s in map(generate_victim, range(40)) if not s.unclean_gate
        )
        for spec, expect in ((variant, True), (plain, False)):
            module = compile_source(spec.source, "v")
            gate_unclean = "gate" in partition_module(module)["run"].unclean
            self.assertEqual(gate_unclean, expect, f"seed {spec.seed}")

    def test_machine_partition_only_lists_split_frames(self):
        module = compile_source(VICTIM, "victim")
        table = machine_partition(partition_module(module))
        for name, indices in table.items():
            self.assertTrue(indices, f"{name}: empty partition entry")


class DualStackVMTest(unittest.TestCase):
    def test_cleanstack_relocates_partitioned_allocas(self):
        module = compile_source(VICTIM, "victim")
        unclean = machine_partition(partition_module(module))
        machine = Machine(
            module, clean_partition=unclean, unsafe_stack_offset=4096
        )
        frame = machine.push_probe_frame("serve")
        by_name = {
            a.var_name: addr for a, addr in frame.alloca_addresses.items()
        }
        self.assertLess(by_name["req"], frame.frame_top - 0x80000)
        machine.pop_probe_frame()

    def test_crosscheck_dualstack_is_byte_exact(self):
        module = compile_source(VICTIM, "victim")
        results = crosscheck_dualstack(ProgramFacts(module=module))
        bad = [r for r in results if not r.ok]
        self.assertTrue(results)
        self.assertEqual(bad, [])

    def test_fully_clean_frame_has_single_exact_layout(self):
        module = compile_source(
            "long f() { long a = 1; long b = 2; return a + b; }\n"
            "int main() { return (int)f(); }",
            "clean",
        )
        facts = ProgramFacts(module=module).of(module.functions["f"])
        layouts = cleanstack_layouts(facts, facts.partition)
        self.assertEqual(len(layouts), 1)

    def test_shadowstack_skips_cookie_check(self):
        # smash the cookie; baseline faults, shadow-stack machine survives
        source = (
            "long f() { char b[16]; input_read(b, 40); return 1; }\n"
            "int main() { char headroom[256]; headroom[0] = 1;\n"
            "  return (int)f(); }"
        )
        module = compile_source(source, "smash")
        payload = [b"\xaa" * 40]
        plain = Machine(module, inputs=list(payload)).run()
        self.assertEqual(plain.outcome, "fault")
        shadowed = Machine(
            module, inputs=list(payload), shadow_stack=True
        ).run()
        self.assertEqual(shadowed.outcome, "exit")


class RegistryTest(unittest.TestCase):
    def test_new_defenses_registered_and_modeled(self):
        names = defense_names()
        for name in ("cleanstack", "shadowstack"):
            self.assertIn(name, names)
            self.assertIn(name, DEFENSE_ORDER)

    def test_unknown_defense_error_lists_registry(self):
        with self.assertRaises(Exception) as caught:
            make_defense("no-such-defense")
        message = str(caught.exception)
        for name in defense_names():
            self.assertIn(name, message)

    def test_cleanstack_build_runs(self):
        build = make_defense("cleanstack").build(VICTIM, instance_seed=3)
        result = build.make_machine(inputs=[b""]).run()
        self.assertTrue(result.finished_cleanly())


class AssignmentTest(unittest.TestCase):
    def test_rank_covers_registry_and_ends_at_smokestack(self):
        ladder = [s.name for s in sorted(SCHEMES, key=lambda s: s.cost_rank)]
        self.assertEqual(set(ladder), set(defense_names()))
        self.assertEqual(len(ladder), len(set(s.cost_rank for s in SCHEMES)))
        self.assertEqual(ladder[-1], "smokestack")

    def test_channel_free_program_assigns_none_proven(self):
        facts = ProgramFacts(
            "long f() { long a = 1; return a; }\n"
            "int main() { return (int)f(); }",
            "quiet",
        )
        assignments = assign_defenses(facts, samples=4)
        summary = assignment_summary(assignments)
        self.assertTrue(summary["cheaper_than_smokestack"])
        self.assertTrue(summary["all_proven"])

    def test_exploitable_victim_falls_back_to_smokestack(self):
        facts = ProgramFacts(VICTIM, "victim")
        assignments = assign_defenses(facts, samples=4)
        chosen = {a.function: a.defense for a in assignments}
        # serve's own word slots sit below the buffer (ROBUST everywhere,
        # so the cheapest rung wins); run holds the cross-frame gate the
        # overflow can actually reach, and no cheaper rung proves it.
        self.assertEqual(chosen["serve"], "none")
        self.assertEqual(chosen["run"], "smokestack")


class UnboundedCopyLintTest(unittest.TestCase):
    def test_unguarded_tainted_copy_warns(self):
        module = compile_source(
            "long f() { char p[64]; char l[32];\n"
            "  long n = input_read(p, 64); strcpy_(l, p); return n; }\n"
            "int main() { return (int)f(); }",
            "unguarded",
        )
        findings = [
            d for d in lint_module(ProgramFacts(module=module))
            if d.category == "unbounded-taint-copy"
        ]
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].severity, "warning")

    def test_dominating_check_suppresses(self):
        module = compile_source(
            "long f() { char p[64]; char l[32];\n"
            "  long n = input_read(p, 64);\n"
            "  if (n < 32) { memcpy_(l, p, n); }\n"
            "  return n; }\n"
            "int main() { return (int)f(); }",
            "guarded",
        )
        findings = [
            d for d in lint_module(ProgramFacts(module=module))
            if d.category == "unbounded-taint-copy"
        ]
        self.assertEqual(findings, [])


if __name__ == "__main__":
    unittest.main()
