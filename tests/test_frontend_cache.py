"""The pipeline's front-end cache: one parse feeds many fresh builds.

``compile_source`` keeps the sema'd AST of each (source, filename) in a
small cache and lowers a fresh module from it for every caller.  The
properties the cache depends on are checked here rather than trusted:
lowering never mutates the AST, hardening one module leaves a sibling
lowered from the same AST alone, failed compiles are never cached, and
the oldest entry is evicted first.  The campaign-level tests pin what
the cache buys (a victim parses twice, not eleven times) and that the
``pipeline_frontend_total`` counter is the same for jobs=1 and jobs=2.
"""

import pytest

from repro.analysis.exploit import ExploitProver
from repro.attacks import dop, librelp, proftpd, wireshark
from repro.core import pipeline
from repro.core.config import SmokestackConfig
from repro.core.pipeline import compile_source, frontend, harden_module, lower_ast
from repro.defenses.padding import apply_module_padding
from repro.defenses.registry import DEFENSE_ORDER, defense_class
from repro.defenses.static_permute import permute_module
from repro.errors import ParseError, SemanticError
from repro.ir.printer import print_module
from repro.obs.metrics import get_registry
from repro.opt import optimize
from repro.synth.campaign import (
    SynthConfig,
    canned_cases,
    fuzz_cases,
    run_synth_campaign,
    run_victim,
)

SOURCES = {
    "listing1": dop.SOURCE,
    "librelp": librelp.SOURCE,
    "proftpd": proftpd.SOURCE,
    "wireshark": wireshark.SOURCE,
}


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    monkeypatch.setattr(pipeline, "_FRONTEND_CACHE", {})


@pytest.fixture()
def registry():
    """The process registry, emptied for the test and restored after."""
    registry = get_registry()
    saved = registry.dump()
    registry.reset()
    yield registry
    registry.reset()
    registry.merge(saved)


def _counts(registry):
    return {
        cache: registry.counter("pipeline_frontend_total", cache=cache).value
        for cache in ("hit", "miss")
    }


def _snapshot(value, seen=None):
    """Every field of every AST node, type and location, recursively; an
    object met twice (a use pointing back at its declaration, a shared
    type) becomes a back-reference, so the walk also sees sharing."""
    if seen is None:
        seen = {}
    if type(value).__module__.startswith("repro."):
        if id(value) in seen:
            return ("ref", seen[id(value)])
        seen[id(value)] = len(seen)
        slots = [
            slot
            for cls in type(value).__mro__
            for slot in getattr(cls, "__slots__", ())
        ]
        fields = [(slot, _snapshot(getattr(value, slot, None), seen)) for slot in slots]
        fields.extend(
            (key, _snapshot(item, seen))
            for key, item in sorted(getattr(value, "__dict__", {}).items())
        )
        return (type(value).__name__, tuple(fields))
    if isinstance(value, (list, tuple)):
        return tuple(_snapshot(item, seen) for item in value)
    if isinstance(value, dict):
        return tuple((key, _snapshot(item, seen)) for key, item in value.items())
    return repr(value)


class TestSharedAst:
    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_two_lowerings_print_identically(self, name):
        ast = frontend(SOURCES[name], name)
        first = lower_ast(ast, name)
        second = lower_ast(ast, name)
        assert first is not second
        assert print_module(first) == print_module(second)

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_mutating_one_build_leaves_sibling_and_ast_alone(self, name):
        ast = frontend(SOURCES[name], name)
        before = _snapshot(ast)
        sibling = lower_ast(ast, name)
        text = print_module(sibling)
        harden_module(lower_ast(ast, name), SmokestackConfig())
        harden_module(lower_ast(ast, name, opt_level=2), SmokestackConfig())
        apply_module_padding(lower_ast(ast, name), 3)
        permute_module(lower_ast(ast, name), 3)
        optimize(lower_ast(ast, name), 2)
        assert print_module(sibling) == text
        assert _snapshot(ast) == before

    def test_every_defense_build_leaves_the_cached_ast_alone(self, registry):
        ast = frontend(dop.SOURCE, "program")
        before = _snapshot(ast)
        text = print_module(lower_ast(ast, "program"))
        for name in DEFENSE_ORDER:
            defense_class(name)().build(dop.SOURCE, instance_seed=5)
        assert _snapshot(ast) == before
        assert print_module(compile_source(dop.SOURCE)) == text
        assert _counts(registry)["miss"] == 1


class TestCacheBehaviour:
    def test_compile_source_parses_once_and_lowers_fresh(self, registry):
        first = compile_source(dop.SOURCE, "victim")
        second = compile_source(dop.SOURCE, "victim")
        assert first is not second
        assert print_module(first) == print_module(second)
        assert _counts(registry) == {"hit": 1, "miss": 1}

    def test_filename_is_part_of_the_key(self, registry):
        a = frontend(dop.SOURCE, "a.c")
        b = frontend(dop.SOURCE, "b.c")
        assert a is not b
        assert a.location.filename == "a.c" and b.location.filename == "b.c"
        assert _counts(registry) == {"hit": 0, "miss": 2}

    @pytest.mark.parametrize(
        "source, error",
        [
            ("int main( { return 0; }", ParseError),
            ("int main() { return missing; }", SemanticError),
        ],
    )
    def test_failed_compile_raises_on_every_call(self, registry, source, error):
        for _ in range(3):
            with pytest.raises(error):
                compile_source(source)
        assert pipeline._FRONTEND_CACHE == {}
        assert _counts(registry) == {"hit": 0, "miss": 3}

    def test_eviction_removes_the_oldest_entry_first(self, monkeypatch, registry):
        monkeypatch.setattr(pipeline, "FRONTEND_CACHE_ENTRIES", 2)
        a, b, c = (frontend(SOURCES[n], n) for n in ("librelp", "listing1", "proftpd"))
        assert _counts(registry) == {"hit": 0, "miss": 3}
        assert frontend(SOURCES["listing1"], "listing1") is b
        assert frontend(SOURCES["proftpd"], "proftpd") is c
        assert _counts(registry) == {"hit": 2, "miss": 3}
        assert frontend(SOURCES["librelp"], "librelp") is not a  # evicted
        assert _counts(registry) == {"hit": 2, "miss": 4}
        # re-inserting librelp evicted the oldest survivor, listing1
        assert frontend(SOURCES["proftpd"], "proftpd") is c
        assert frontend(SOURCES["listing1"], "listing1") is not b


class TestCampaignParses:
    def test_one_victim_parses_at_most_twice(self, monkeypatch, registry):
        """All 8 defenses: one parse under the victim's name for the
        facts, one under ``"program"`` for every build; the builds and
        prover calls are those of a victim without the cache (8 and 8)."""
        parsed, builds, proves = [], [], []
        real_parse = pipeline.compile_to_ast
        monkeypatch.setattr(
            pipeline,
            "compile_to_ast",
            lambda source, filename: parsed.append(filename)
            or real_parse(source, filename),
        )
        for name in DEFENSE_ORDER:
            cls = defense_class(name)
            if "build" in vars(cls):
                real_build = vars(cls)["build"]
                monkeypatch.setattr(
                    cls,
                    "build",
                    lambda self, *a, _real=real_build, **k: builds.append(self.name)
                    or _real(self, *a, **k),
                )
        real_prove = ExploitProver.prove
        monkeypatch.setattr(
            ExploitProver,
            "prove",
            lambda self, goal, defense: proves.append(defense)
            or real_prove(self, goal, defense),
        )
        case = canned_cases()[0]
        result = run_victim(case, DEFENSE_ORDER)
        assert result.planned and len(result.defenses) == len(DEFENSE_ORDER) == 8
        assert sorted(parsed) == sorted([case.name, "program"])
        assert sorted(builds) == sorted(DEFENSE_ORDER)
        assert sorted(proves) == sorted(DEFENSE_ORDER)
        # padding and static-permute lower twice (reference + build)
        assert _counts(registry) == {"hit": 9, "miss": 2}

    def _campaign_counts(self, jobs, registry):
        pipeline._FRONTEND_CACHE.clear()
        registry.reset()
        cases = canned_cases()[:2] + fuzz_cases(4, 500)
        run_synth_campaign(
            cases, SynthConfig(restarts=2, jobs=jobs), check_soundness=False
        )
        return _counts(registry)

    def test_jobs_one_and_two_count_the_same(self, registry):
        serial = self._campaign_counts(1, registry)
        parallel = self._campaign_counts(2, registry)
        assert serial == parallel
        assert serial["miss"] >= 6 and serial["hit"] >= 18
