"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``run``      compile a Mini-C file and execute it on the VM
``harden``   harden with Smokestack and execute (optionally many runs)
``ir``       dump the (optionally optimized / hardened) IR
``gadgets``  DOP gadget census of a program
``analyze``  static DOP-surface analysis: reach, taint, lint, exposure
``entropy``  per-function layout entropy of a hardened build
``assign``   prover-driven per-function defense assignment
``attack``   replay a named attack campaign against a chosen defense
``bench``    run a slice of the Figure 3 measurement campaign
``fuzz``     differential fuzzing campaign
``trace``    run with structured tracing; ``--attack`` for forensics
``profile``  per-opcode guest-cycle histogram of one run
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import analyze_module, render_entropy_report
from repro.core import SmokestackConfig, compile_source, harden_source
from repro.defenses.registry import DEFENSE_ORDER, defense_names, make_defense
from repro.ir import print_module
from repro.rng import DeterministicEntropy
from repro.rng.sources import SCHEME_NAMES
from repro.synth.facts import ProgramFacts
from repro.vm import Machine

_ATTACKS = {
    "librelp": "repro.attacks.librelp:run_librelp_campaign",
    "wireshark": "repro.attacks.wireshark:run_wireshark_campaign",
    "proftpd": "repro.attacks.proftpd:run_proftpd_campaign",
    "listing1": "repro.attacks.dop:run_listing1_campaign",
}


def _read_source(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _print_result(result) -> int:
    print(f"outcome : {result.outcome}")
    if result.exit_code is not None:
        print(f"exit    : {result.exit_code}")
    if result.error_message:
        print(f"detail  : {result.error_message}")
    if result.int_outputs:
        print(f"ints    : {result.int_outputs}")
    if result.str_outputs:
        print(f"strings : {result.str_outputs}")
    if result.output_data:
        print(f"bytes   : {bytes(result.output_data)[:120]!r}")
    print(f"steps   : {result.steps:,}")
    print(f"cycles  : {result.cycles:,.0f}")
    print(f"max rss : {result.max_rss:,} bytes")
    return 0 if result.finished_cleanly() else 1


def _inputs_from_args(raw: Optional[List[str]]) -> List[bytes]:
    return [item.encode("utf-8") for item in (raw or [])]


def cmd_run(args) -> int:
    module = compile_source(_read_source(args.file), opt_level=args.opt)
    machine = Machine(
        module, inputs=_inputs_from_args(args.input), engine=args.engine
    )
    return _print_result(machine.run())


def cmd_harden(args) -> int:
    config = SmokestackConfig(scheme=args.scheme, selective=args.selective)
    hardened = harden_source(
        _read_source(args.file), config, opt_level=args.opt
    )
    print(f"P-BOX   : {hardened.pbox.stats()}")
    if args.selective:
        skipped = hardened.selective_skipped()
        print(
            f"selective: {len(skipped)} proven-safe function(s) left "
            f"unpermuted: {sorted(skipped) or 'none'}"
        )
    status = 0
    for run_index in range(args.runs):
        machine = hardened.make_machine(
            entropy=DeterministicEntropy(args.seed + run_index),
            inputs=_inputs_from_args(args.input),
        )
        result = machine.run()
        if args.runs > 1:
            print(f"--- run {run_index + 1} ---")
        status |= _print_result(result)
    return status


def cmd_ir(args) -> int:
    if args.harden:
        hardened = harden_source(
            _read_source(args.file),
            SmokestackConfig(scheme=args.scheme),
            opt_level=args.opt,
        )
        module = hardened.module
    else:
        module = compile_source(_read_source(args.file), opt_level=args.opt)
    sys.stdout.write(print_module(module))
    return 0


def cmd_gadgets(args) -> int:
    module = compile_source(_read_source(args.file), opt_level=args.opt)
    report = analyze_module(ProgramFacts(module=module))
    print(f"gadget census: {report.kinds() or 'none'}")
    for gadget in report.gadgets:
        print(f"  [{gadget.kind:<6}] {gadget.function}:{gadget.block}")
    usable = report.usable_dispatchers()
    print(f"dispatchers ({len(report.dispatchers)} loops, "
          f"{len(usable)} attacker-usable):")
    for dispatcher in report.dispatchers:
        flag = "USABLE" if dispatcher in usable else "benign"
        print(
            f"  [{flag}] {dispatcher.function}:{dispatcher.header} "
            f"(controlled bound: {dispatcher.condition_controlled}, "
            f"corruption sites: {dispatcher.corruption_sites}, "
            f"gadgets in body: {dispatcher.gadgets_in_body})"
        )
    return 0


def cmd_analyze(args) -> int:
    from repro.analysis import analyze_program, exit_status, reports_to_json
    from repro.errors import ReproError

    sources = [(path, _read_source(path)) for path in args.files]
    if args.benchsuite:
        from repro.benchsuite import WORKLOADS

        sources.extend(
            (f"benchsuite:{name}", workload.source)
            for name, workload in sorted(WORKLOADS.items())
        )
    if not sources:
        print("nothing to analyze: pass source files and/or --benchsuite")
        return 2
    if args.exploit_defenses:
        unknown = [
            d
            for d in args.exploit_defenses.split(",")
            if d not in DEFENSE_ORDER
        ]
        if unknown:
            print(
                f"unknown --exploit-defenses {unknown}: "
                f"choose from {', '.join(DEFENSE_ORDER)}"
            )
            return 2

    reports = []
    for name, source in sources:
        try:
            reports.append(
                analyze_program(
                    source,
                    name,
                    opt_level=args.opt,
                    crosscheck=args.crosscheck,
                    prove=args.prove,
                    exploit=args.exploit,
                    exploit_goal=args.exploit_goal,
                    exploit_defenses=(
                        tuple(args.exploit_defenses.split(","))
                        if args.exploit_defenses
                        else None
                    ),
                )
            )
        except ReproError as exc:
            print(f"== {name} ==")
            print(f"compile error: {type(exc).__name__}: {exc}")
            return 2

    if args.explain:
        for report in reports:
            text = report.explain(args.explain)
            if text is not None:
                print(f"-- {report.name} --")
                print(text)
                return 0
        print(f"no finding with id {args.explain!r}")
        return 2

    for report in reports:
        print(report.format_text(verbose=args.verbose))
        print()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(reports_to_json(reports))
        print(f"json report -> {args.json}")
    return exit_status(reports, args.fail_on)


def cmd_entropy(args) -> int:
    hardened = harden_source(
        _read_source(args.file),
        SmokestackConfig(scheme=args.scheme),
        opt_level=args.opt,
    )
    print(render_entropy_report(hardened))
    return 0


def cmd_assign(args) -> int:
    from repro.analysis.assign import assign_defenses, assignment_summary

    facts = ProgramFacts(_read_source(args.file), args.file)
    assignments = assign_defenses(
        facts, samples=args.samples, seed=args.seed
    )
    for assignment in assignments:
        print(assignment.describe())
    summary = assignment_summary(assignments)
    print(
        f"costliest assigned: {summary['costliest_assigned']}; "
        f"all proven: {summary['all_proven']}"
    )
    return 0


def cmd_attack(args) -> int:
    module_name, _, function_name = _ATTACKS[args.name].partition(":")
    import importlib

    runner = getattr(importlib.import_module(module_name), function_name)
    report = runner(
        make_defense(args.defense), restarts=args.restarts, seed=args.seed
    )
    print(f"attack   : {args.name}")
    print(f"defense  : {args.defense}")
    print(f"verdict  : {report.verdict()}")
    print(f"attempts : {report.total} ({report.breakdown()})")
    if report.first_success is not None:
        print(f"success on attempt {report.first_success + 1}")
    return 0 if report.verdict() == "stopped" else 2


def cmd_synth(args) -> int:
    from repro.synth.campaign import (
        SoundnessError,
        SynthConfig,
        VictimCase,
        canned_cases,
        example_cases,
        fuzz_cases,
        run_synth_campaign,
        write_bench,
    )

    cases = []
    if args.canned:
        cases.extend(canned_cases())
    if args.examples:
        cases.extend(example_cases())
    if args.fuzz:
        cases.extend(fuzz_cases(args.fuzz, start_seed=args.fuzz_seed))
    if args.file:
        if not args.goal:
            print("--file needs --goal (exfil:HEX / exfil-text:STR / corrupt:FN.SLOT=N)")
            return 2
        cases.append(
            VictimCase(args.file, _read_source(args.file), args.goal, kind="file")
        )
    if not cases:
        cases = canned_cases()
    config = SynthConfig(
        defenses=tuple(args.defenses or ()),
        restarts=args.restarts,
        seed=args.seed,
        jobs=args.jobs,
        stop_on_success=not args.exhaustive,
    )
    try:
        summary = run_synth_campaign(cases, config)
    except SoundnessError as error:
        print(f"SOUNDNESS VIOLATION: {error}")
        return 2
    print(summary.format())
    if args.json:
        write_bench(summary, args.json)
        print(f"wrote {args.json}")
    return 0


def cmd_bench(args) -> int:
    from repro.benchsuite import measure_suite, render_figure3, render_figure4

    results = measure_suite(
        workload_names=args.workloads or None,
        schemes=tuple(args.schemes),
        scheduling_effects=True,
    )
    print(render_figure3(results))
    print()
    print(render_figure4(results, scheme=args.schemes[0]))
    return 0


def cmd_fuzz(args) -> int:
    from repro.fuzz import ALL_ORACLES, CampaignConfig, run_campaign

    oracles = tuple(args.oracles) if args.oracles else ALL_ORACLES
    for oracle in oracles:
        if oracle not in ALL_ORACLES:
            print(f"unknown oracle {oracle!r}; known: {', '.join(ALL_ORACLES)}")
            return 2
    config = CampaignConfig(
        iterations=args.iterations,
        base_seed=args.seed,
        jobs=args.jobs,
        harden_seeds=tuple(range(1, 1 + args.harden_seeds)),
        oracles=oracles,
        corpus_dir=args.corpus_dir,
        reduce_findings=not args.no_reduce,
    )
    summary = run_campaign(config)
    print(summary.format())
    return 0 if summary.ok else 2


def _make_traced_machine(args, tracer):
    """Build the machine for ``trace``/``profile`` file mode."""
    source = _read_source(args.file)
    if args.harden:
        hardened = harden_source(
            source, SmokestackConfig(scheme=args.scheme), opt_level=args.opt
        )
        return hardened.make_machine(
            entropy=DeterministicEntropy(args.seed),
            inputs=_inputs_from_args(args.input),
            tracer=tracer,
        )
    module = compile_source(source, opt_level=args.opt)
    return Machine(
        module, inputs=_inputs_from_args(args.input), tracer=tracer
    )


def cmd_trace(args) -> int:
    from repro.obs import Tracer
    from repro.obs.trace import CROSSING_WHYS, CYCLE_SCALE

    if args.attack:
        from repro.obs.forensics import attack_forensics

        report = attack_forensics(
            args.attack,
            defense=args.defense,
            restarts=args.restarts,
            seed=args.seed,
            record_writes=args.writes,
        )
        print(report.format_text())
        tracer = report.decisive_tracer()
        if tracer is not None:
            if args.json:
                tracer.write_jsonl(args.json)
                print(f"jsonl trace -> {args.json}")
            if args.chrome:
                tracer.write_chrome(args.chrome)
                print(f"chrome trace -> {args.chrome}")
        return 0 if report.consistent() else 2

    if not args.file:
        print("trace: pass a Mini-C source file or --attack NAME")
        return 2
    tracer = Tracer(record_writes=args.writes)
    machine = _make_traced_machine(args, tracer)
    result = machine.run()
    crossings = tracer.crossing_events()
    print(f"outcome  : {result.outcome}")
    print(
        f"events   : {len(tracer.events)} "
        f"({tracer.dropped} dropped, {tracer.write_count:,} writes seen, "
        f"{len(crossings)} boundary-crossing)"
    )
    first = tracer.first_crossing()
    if first is not None:
        slots = ", ".join(
            f"{touch['fn']}/{touch['slot']}" for touch in first["touched"]
        )
        print(
            f"first boundary crossing: {first['kind']} in {first['fn']} "
            f"wrote {first['size']}B @ {first['addr']:#x} "
            f"({first['why']}) -> {slots} "
            f"[cycle {first['cycle_units'] / CYCLE_SCALE:,.0f}]"
        )
    if args.json:
        tracer.write_jsonl(args.json)
        print(f"jsonl trace -> {args.json}")
    if args.chrome:
        tracer.write_chrome(args.chrome)
        print(f"chrome trace -> {args.chrome}")
    return 0 if result.finished_cleanly() else 1


def cmd_profile(args) -> int:
    from repro.obs import Tracer, render_profile

    tracer = Tracer(record_writes="none")
    machine = _make_traced_machine(args, tracer)
    result = machine.run()
    print(render_profile(tracer, top=args.top))
    print(
        f"\noutcome {result.outcome}, {result.steps:,} steps, "
        f"{result.cycles:,.0f} guest cycles"
    )
    return 0 if result.finished_cleanly() else 1


def cmd_serve(args) -> int:
    import asyncio

    from repro.serve.server import ReproServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        request_timeout=args.timeout,
        cache_entries=args.cache_entries,
        tenant_salt=args.tenant_salt,
    )
    server = ReproServer(config)

    async def run() -> None:
        await server.start()
        host, port = server.address
        print(f"repro serve listening on {host}:{port} "
              f"({config.workers} workers, cache {config.cache_entries})")
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Smokestack reproduction toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, harden_opts=False):
        p.add_argument("file", help="Mini-C source file")
        p.add_argument("--opt", type=int, default=0, choices=(0, 1, 2),
                       help="optimization level (default 0)")
        if harden_opts:
            p.add_argument("--scheme", default="aes-10",
                           help="randomness scheme (default aes-10)")

    p = sub.add_parser("run", help="compile and execute")
    p.add_argument("--engine", default="jit", choices=("jit", "fast", "slow"),
                   help="execution engine: the tiered IR→Python JIT "
                        "(default), predecoded dispatch, or the "
                        "executor-table interpreter — all bit-identical")
    add_common(p)
    p.add_argument("--input", action="append",
                   help="input chunk (repeatable)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "harden",
        help="harden with Smokestack and execute",
        # the registry is the single source of truth for what can be
        # deployed; render it live so new defenses never go stale here
        epilog="registered defenses: " + ", ".join(defense_names()),
    )
    add_common(p, harden_opts=True)
    p.add_argument("--input", action="append")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--selective", action="store_true",
                   help="skip permutation in functions the bounds prover "
                        "marks fully PROVEN_SAFE")
    p.set_defaults(func=cmd_harden)

    p = sub.add_parser("ir", help="dump IR")
    add_common(p, harden_opts=True)
    p.add_argument("--harden", action="store_true",
                   help="dump the instrumented module")
    p.set_defaults(func=cmd_ir)

    p = sub.add_parser("gadgets", help="DOP gadget census")
    add_common(p)
    p.set_defaults(func=cmd_gadgets)

    p = sub.add_parser("analyze", help="static DOP-surface analysis / lint")
    p.add_argument("files", nargs="*", help="Mini-C source files")
    p.add_argument("--benchsuite", action="store_true",
                   help="also analyze every benchsuite workload")
    p.add_argument("--opt", type=int, default=0, choices=(0, 1, 2),
                   help="optimization level (default 0)")
    p.add_argument("--json", metavar="PATH",
                   help="write the full JSON report here")
    p.add_argument("--fail-on", choices=("error", "warning", "never"),
                   default="error",
                   help="exit nonzero at this severity (default error)")
    p.add_argument("--crosscheck", action="store_true",
                   help="validate reach predictions by executing "
                        "deliberate overflows in the VM")
    p.add_argument("--prove", action="store_true",
                   help="run the interval bounds prover and report "
                        "per-slot safety verdicts")
    p.add_argument("--exploit", action="store_true",
                   help="run the exploitability prover: "
                        "PROVABLY_EXPLOITABLE / PROVABLY_ROBUST / UNKNOWN "
                        "verdicts per goal and defense")
    p.add_argument("--exploit-goal", metavar="GOAL",
                   help="goal-grammar text (corrupt:fn.slot=value or "
                        "exfil:hex) instead of the auto-derived goals")
    p.add_argument("--exploit-defenses", metavar="NAMES",
                   help="comma-separated defense list for --exploit "
                        "(default: all modeled defenses)")
    p.add_argument("--explain", metavar="ID",
                   help="print the def-use chain for one finding and exit")
    p.add_argument("--verbose", action="store_true",
                   help="list info-level findings too")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("entropy", help="layout entropy report")
    add_common(p, harden_opts=True)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser(
        "assign",
        help="prover-driven per-function defense assignment",
        epilog="candidate defenses (see repro.analysis.assign for the "
               "cost ladder): " + ", ".join(defense_names()),
    )
    p.add_argument("file", help="Mini-C source file")
    p.add_argument("--samples", type=int, default=16,
                   help="layout samples per randomized family (default 16)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("attack", help="run an attack campaign")
    p.add_argument("name", choices=sorted(_ATTACKS))
    p.add_argument("--defense", default="smokestack",
                   choices=defense_names())
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--seed", type=int, default=2)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser(
        "synth", help="synthesize DOP attacks and measure success rates"
    )
    p.add_argument("--canned", action="store_true", help="the 4 CVE reproductions")
    p.add_argument("--examples", action="store_true", help="examples/minic programs")
    p.add_argument("--fuzz", type=int, default=0, metavar="N", help="N fuzz victims")
    p.add_argument("--fuzz-seed", type=int, default=0, help="first victim seed")
    p.add_argument("--file", help="a Mini-C victim file (needs --goal)")
    p.add_argument("--goal", help="goal predicate for --file")
    p.add_argument(
        "--defenses", nargs="*", choices=defense_names(), default=None
    )
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="spend every restart even after a success",
    )
    p.add_argument("--json", help="write the per-victim campaign report here")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="Figure 3/4 measurement slice")
    p.add_argument("--workloads", nargs="*", default=None)
    p.add_argument("--schemes", nargs="*", default=list(SCHEME_NAMES))
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("fuzz", help="differential fuzzing campaign")
    p.add_argument("--iterations", type=int, default=100,
                   help="number of generated programs (default 100)")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; program i uses seed+i (default 0)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default 1)")
    p.add_argument("--oracles", nargs="*", default=None,
                   help="subset of: dispatch opt harden aes reach safety "
                        "(default all)")
    p.add_argument("--harden-seeds", type=int, default=2,
                   help="permutation seeds per program (default 2)")
    p.add_argument("--corpus-dir", default="corpus",
                   help="where reproducers are written (default corpus/)")
    p.add_argument("--no-reduce", action="store_true",
                   help="skip delta-debugging findings")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "trace",
        help="run with structured tracing (or --attack forensics)",
    )
    p.add_argument("file", nargs="?", default=None,
                   help="Mini-C source file (omit with --attack)")
    p.add_argument("--opt", type=int, default=0, choices=(0, 1, 2))
    p.add_argument("--harden", action="store_true",
                   help="trace the Smokestack-hardened build")
    p.add_argument("--scheme", default="aes-10",
                   help="randomness scheme for --harden (default aes-10)")
    p.add_argument("--input", action="append",
                   help="input chunk (repeatable)")
    p.add_argument("--seed", type=int, default=0,
                   help="entropy seed (--harden) / campaign seed (--attack)")
    p.add_argument("--writes", default="crossing",
                   choices=("crossing", "all", "none"),
                   help="which write events to record (default crossing)")
    p.add_argument("--attack", metavar="NAME", default=None,
                   help="forensics mode: replay a canned attack campaign "
                        "(librelp, wireshark, proftpd, ripe, listing1)")
    p.add_argument("--defense", default="none",
                   choices=defense_names(),
                   help="defense for --attack mode (default none)")
    p.add_argument("--restarts", type=int, default=4,
                   help="attempts for --attack mode (default 4)")
    p.add_argument("--json", metavar="PATH",
                   help="write the event stream as JSONL here")
    p.add_argument("--chrome", metavar="PATH",
                   help="write a chrome://tracing JSON file here")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("profile", help="per-opcode guest-cycle histogram")
    add_common(p, harden_opts=True)
    p.add_argument("--harden", action="store_true",
                   help="profile the Smokestack-hardened build")
    p.add_argument("--input", action="append")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top", type=int, default=0,
                   help="show only the N most expensive opcodes")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "serve",
        help="hardening-as-a-service front door (line-delimited JSON/TCP)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7814,
                   help="TCP port (0 = ephemeral; default 7814)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker pool size (default 2)")
    p.add_argument("--max-inflight", type=int, default=8,
                   help="jobs in flight before overload rejection")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="per-request deadline in seconds")
    p.add_argument("--cache-entries", type=int, default=512,
                   help="result cache capacity")
    p.add_argument("--tenant-salt", default="smokestack-serve",
                   help="salt for per-tenant permutation seeds")
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
