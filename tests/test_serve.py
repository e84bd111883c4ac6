"""The serve front door: protocol, cache, and live-server behavior.

The live-server tests run a real :class:`ServerThread` (asyncio loop on
a daemon thread, real ``ProcessPoolExecutor`` workers, real TCP) and a
blocking :class:`ServeClient` — the exact deployment shape, no mocks.
The load-bearing properties:

* protocol edges fail loudly and never wedge the connection or server
  (malformed JSON, unknown ops, oversized lines, disconnect mid-stream);
* a cache hit replays the *bit-identical* result payload;
* distinct tenants get distinct layouts, the same tenant always gets
  the same one, and the layout fingerprint (P-BOX tables plus the
  run's ``__ss_rand`` draws) is engine-independent and matches a
  traced run's ``rand`` events;
* ``harden`` runs untraced, on the JIT, and hostile guests on it come
  back as ``limit`` outcomes rather than wedging a worker;
* deadlines and back-pressure are enforced (timeout error, overloaded
  rejection with ``retry_after``);
* worker-side metrics cross the process boundary and land in the
  parent registry (the metrics bugfix, observed end to end).
"""

import hashlib
import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.defenses import defense_names
from repro.obs.metrics import get_registry
from repro.serve import worker
from repro.serve.cache import CachedResponse, ResultCache
from repro.serve.client import ServeError, connect
from repro.serve.protocol import (
    DEFAULT_MAX_REQUEST_BYTES,
    ProtocolError,
    cache_key,
    source_digest,
    split_validate,
    tenant_seed,
    validate_request,
)
from repro.serve.server import ServeConfig, ServerThread

ADD_SRC = (
    "int add(int a, int b) { return a + b; } "
    "int main() { return add(40, 2); }"
)

LOCALS_SRC = """
int work(int n) {
  int a; int b; int c; int d; int e; int f;
  char buf[16];
  a = n + 1; b = a * 2; c = b - 3; d = c ^ 5; e = d + a; f = e - b;
  buf[0] = 7;
  return a + b + c + d + e + f + buf[0];
}
int main() { return work(9); }
"""

LOCALS_DIGEST = "0cc99cb78110573ad9ea1a905042e0423a178b20ee6474a890f8e14bc96ba0ba"

VICTIM_SRC = (
    "int main() { char b[8]; int t; t = 0; "
    "input_read(b, 16); return t; }"
)

#: ``t`` sits above ``b`` in the baseline frame, so the planner finds an
#: overflow plan and every defense actually builds and runs the victim.
PLANNED_VICTIM_SRC = (
    "int main() { int t; char b[8]; t = 0; "
    "input_read(b, 16); return t; }"
)


# -- protocol unit tests (no server) -------------------------------------------------


class TestProtocol:
    def test_validate_normalizes_compile(self):
        job = validate_request({"op": "compile", "source": ADD_SRC})
        assert job["digest"] == source_digest(ADD_SRC)
        assert job["opt"] == 0
        assert job["tenant"] == "public"

    def test_rejects_unknown_op(self):
        with pytest.raises(ProtocolError) as err:
            validate_request({"op": "frobnicate", "source": ADD_SRC})
        assert err.value.code == "unknown-op"

    def test_debug_ops_gated(self):
        with pytest.raises(ProtocolError):
            validate_request({"op": "sleep"})
        job = validate_request({"op": "sleep", "seconds": 0.5}, debug_ops=True)
        assert job["seconds"] == 0.5

    def test_rejects_bad_fields(self):
        for bad in (
            {"op": "compile"},  # no source
            {"op": "compile", "source": 7},
            {"op": "compile", "source": ADD_SRC, "opt": 9},
            {"op": "compile", "source": ADD_SRC, "inputs": [1]},
            {"op": "harden", "source": ADD_SRC, "scheme": "xkcd"},
            {"op": "trace", "source": ADD_SRC, "writes": "some"},
            {"op": "synth", "source": ADD_SRC},  # no goal
        ):
            with pytest.raises(ProtocolError):
                validate_request(bad)

    def test_synth_rejects_unknown_defense(self):
        with pytest.raises(ProtocolError) as err:
            validate_request(
                {"op": "synth", "source": ADD_SRC, "goal": "exfil:41",
                 "defenses": ["none", "nosuch"]}
            )
        assert err.value.code == "bad-request"
        assert "nosuch" in err.value.message
        for name in defense_names():
            assert name in err.value.message

    def test_synth_deduplicates_defenses(self):
        once = validate_request(
            {"op": "synth", "source": ADD_SRC, "goal": "exfil:41",
             "defenses": ["none"]}
        )
        twice = validate_request(
            {"op": "synth", "source": ADD_SRC, "goal": "exfil:41",
             "defenses": ["none", "none"]}
        )
        assert twice["defenses"] == ["none"]
        assert cache_key(once) == cache_key(twice)

    def test_split_validate_malformed_json(self):
        with pytest.raises(ProtocolError) as err:
            split_validate(b"{nope")
        assert err.value.code == "bad-request"

    def test_cache_key_shares_compile_across_tenants(self):
        a = validate_request(
            {"op": "compile", "source": ADD_SRC, "tenant": "acme"}
        )
        b = validate_request(
            {"op": "compile", "source": ADD_SRC, "tenant": "bravo"}
        )
        assert cache_key(a) == cache_key(b)

    def test_cache_key_isolates_harden_by_tenant(self):
        a = validate_request(
            {"op": "harden", "source": ADD_SRC, "tenant": "acme"}
        )
        b = validate_request(
            {"op": "harden", "source": ADD_SRC, "tenant": "bravo"}
        )
        assert cache_key(a) != cache_key(b)

    def test_cache_key_depends_on_params(self):
        base = validate_request({"op": "compile", "source": ADD_SRC})
        opt = validate_request({"op": "compile", "source": ADD_SRC, "opt": 2})
        assert cache_key(base) != cache_key(opt)

    def test_tenant_seed_stable_and_distinct(self):
        assert tenant_seed("acme", "s") == tenant_seed("acme", "s")
        assert tenant_seed("acme", "s") != tenant_seed("bravo", "s")
        assert tenant_seed("acme", "s") != tenant_seed("acme", "t")
        assert 0 <= tenant_seed("acme", "s") < (1 << 48)


class TestResultCache:
    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.put(key, CachedResponse(key, None))
        assert cache.get("a") is None
        assert cache.get("c").result_json == "c"
        assert len(cache) == 2

    def test_get_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", CachedResponse("a", None))
        cache.put("b", CachedResponse("b", None))
        cache.get("a")
        cache.put("c", CachedResponse("c", None))
        assert cache.get("a") is not None  # refreshed, so "b" was evicted
        assert cache.get("b") is None

    def test_none_key_uncacheable(self):
        cache = ResultCache()
        cache.put(None, CachedResponse("x", None))
        assert cache.get(None) is None
        assert len(cache) == 0


# -- harden fingerprint (no server) ----------------------------------------------------


def _harden_job(source, inputs=(), tenant="acme"):
    job = validate_request(
        {"op": "harden", "source": source, "tenant": tenant, "inputs": list(inputs)}
    )
    job["tenant_seed"] = tenant_seed(tenant, ServeConfig().tenant_salt)
    return job


def _case_job(case):
    if case == "fuzz-victim":
        from repro.fuzz.victims import generate_victim

        return _harden_job(generate_victim(7).source)
    from repro.benchsuite.programs import get_workload

    workload = get_workload(case)
    return _harden_job(
        workload.source, [chunk.decode("latin-1") for chunk in workload.inputs]
    )


def _counter_keys(out):
    return {
        (name, tuple(tuple(label) for label in labels))
        for name, labels, _ in out["metrics"]["counters"]
    }


def _frontend_counts(out):
    return {
        dict(labels)["cache"]: value
        for name, labels, value in out["metrics"]["counters"]
        if name == "pipeline_frontend_total"
    }


TRACER_DEOPT = ("jit_deopts_total", (("reason", "tracer"),))
TRACED_MACHINES = ("vm_traced_machines_total", ())


class TestHardenFingerprint:
    @pytest.fixture(autouse=True)
    def keep_registry(self):
        """``handle_job`` resets the process-global metrics registry,
        which a live server in this process also counts into: put this
        process's series back afterwards."""
        registry = get_registry()
        saved = registry.dump()
        yield
        registry.reset()
        registry.merge(saved)

    @pytest.mark.parametrize("case", ["proftpd", "wireshark", "fuzz-victim"])
    def test_fingerprint_engine_independent_and_matches_trace(self, case):
        from repro.obs import Tracer

        job = _case_job(case)
        runs = {
            engine: worker.fingerprint_run(job, engine=engine)
            for engine in ("jit", "fast", "slow")
        }
        observed = {
            engine: (fp.hexdigest(), fp.draws, fp.layouts, run.steps, run.cycles)
            for engine, (_, run, fp) in runs.items()
        }
        assert observed["jit"] == observed["fast"] == observed["slow"]
        assert runs["jit"][2].draws > 0

        # rebuilt from a traced run's rand events, it is the same digest
        tracer = Tracer()
        hardened, run, _ = worker.fingerprint_run(job, tracer=tracer)
        rebuilt = worker.LayoutFingerprint(hardened)
        for event in tracer.events:
            if event["ev"] == "rand":
                rebuilt.add(event["fn"], event["value"])
        assert rebuilt.hexdigest() == observed["jit"][0]
        assert rebuilt.draws == observed["jit"][1]
        assert (run.steps, run.cycles) == observed["jit"][3:]

    def test_reply_reports_draws_and_rows(self):
        out = worker.handle_job(_harden_job(LOCALS_SRC))
        result = out["result"]
        assert result["outcome"] == "exit"
        # one prologue draw, by work: main has no locals to permute
        assert result["draws"] == 1
        assert [layout["fn"] for layout in result["layouts"]] == ["work"]
        hardened, _, _ = worker.fingerprint_run(_harden_job(LOCALS_SRC))
        for layout in result["layouts"]:
            rows = hardened.pbox.entry_for(layout["fn"]).table.row_count
            assert 0 <= layout["row"] < rows

    def test_harden_and_trace_replies_pinned(self):
        """The ``harden`` and ``trace`` replies, field for field (the
        front end is cached, the reply may not change)."""
        harden = worker.handle_job(_harden_job(LOCALS_SRC))["result"]
        assert harden == {
            "digest": LOCALS_DIGEST,
            "draws": 1,
            "exit_code": 114,
            "layout_digest": "8472accc144dcd8feb091ae25ebd97c1"
                             "2630cedfdcfab68ec1c6c0ed4fbb21c9",
            "layouts": [{"fn": "work", "row": 365}],
            "outcome": "exit",
            "pbox_bytes": 36864,
            "scheme": "aes-10",
            "steps": 109,
            "tenant_seed": 178232758275077,
        }
        proftpd = worker.handle_job(_case_job("proftpd"))["result"]
        assert (
            proftpd["draws"], proftpd["steps"], proftpd["layout_digest"]
        ) == (
            241, 30830,
            "7ba7d27c11385b1a97de075f24f67ae0b0d5cd1f18580371cef22d3c37f91b1f",
        )
        expected = {
            False: (52, 84.0, 10, 6, "5a9da03efd5e664ca911d8b7ec2c05f2"
                                     "01edd7448534b6eb9644f258269f46f4"),
            True: (109, 187.52500001247972, 11, 7,
                   "3264228ee3d0b60611fc28b5c389558c"
                   "f6f7d695af65d02128f0836ce97e7da2"),
        }
        for harden_first, (steps, cycles, writes, events, lines) in expected.items():
            job = validate_request(
                {"op": "trace", "source": LOCALS_SRC, "harden": harden_first}
            )
            if harden_first:
                job["tenant_seed"] = tenant_seed("acme", ServeConfig().tenant_salt)
            out = worker.handle_job(job)
            assert out["result"] == {
                "crossings": 0,
                "cycles": cycles,
                "digest": LOCALS_DIGEST,
                "dropped": 0,
                "events": events,
                "outcome": "exit",
                "steps": steps,
                "writes_seen": writes,
            }
            digest = hashlib.sha256("\n".join(out["events"]).encode()).hexdigest()
            assert digest == lines

    def test_compile_then_harden_parses_once(self, monkeypatch):
        """One worker, one source: ``compile`` misses the front-end
        cache, the ``harden`` that follows hits it."""
        from repro.core import pipeline

        monkeypatch.setattr(pipeline, "_FRONTEND_CACHE", {})
        monkeypatch.setattr(worker, "_MODULE_CACHE", {})
        compile_job = validate_request({"op": "compile", "source": LOCALS_SRC})
        compiled = worker.handle_job(compile_job)
        hardened = worker.handle_job(_harden_job(LOCALS_SRC))
        assert "error" not in compiled and "error" not in hardened
        assert _frontend_counts(compiled) == {"miss": 1}
        assert _frontend_counts(hardened) == {"hit": 1}

    def test_harden_runs_untraced_trace_stays_traced(self):
        harden = worker.handle_job(_harden_job(LOCALS_SRC))
        assert harden["result"]["outcome"] == "exit"
        keys = _counter_keys(harden)
        assert TRACER_DEOPT not in keys
        assert TRACED_MACHINES not in keys

        trace_job = validate_request({"op": "trace", "source": LOCALS_SRC})
        trace = worker.handle_job(trace_job)
        assert trace["result"]["outcome"] == "exit"
        keys = _counter_keys(trace)
        assert TRACER_DEOPT in keys
        assert TRACED_MACHINES in keys


# -- live-server tests ---------------------------------------------------------------


@pytest.fixture(scope="module")
def server():
    config = ServeConfig(
        workers=2, max_inflight=8, request_timeout=60.0, debug_ops=True
    )
    with ServerThread(config) as thread:
        yield thread


@pytest.fixture()
def client(server):
    with connect(*server.address) as c:
        yield c


class TestServeBasics:
    def test_ping(self, client):
        assert client.ping() is True

    def test_compile_roundtrip(self, client):
        env = client.request("compile", source=ADD_SRC)
        assert env["result"]["functions"] == ["add", "main"]
        assert env["result"]["digest"] == source_digest(ADD_SRC)

    def test_malformed_json_keeps_connection_usable(self, client):
        client.send_raw(b"{this is not json\n")
        envelope = client.read_envelope()
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "bad-request"
        assert client.ping() is True  # connection survived

    def test_unknown_op(self, client):
        envelope = client.request_raw({"op": "launch-missiles"})
        assert envelope["error"]["code"] == "unknown-op"

    def test_non_object_request(self, client):
        client.send_raw(b"[1, 2, 3]\n")
        envelope = client.read_envelope()
        assert envelope["error"]["code"] == "bad-request"

    def test_oversized_line_rejected(self, server):
        with connect(*server.address) as big:
            payload = b'{"op": "compile", "source": "' + b"x" * (
                DEFAULT_MAX_REQUEST_BYTES + 4096
            ) + b'"}\n'
            big.send_raw(payload)
            envelope = big.read_envelope()
            assert envelope["error"]["code"] == "too-large"
            # the connection is closed after an unframeable line
            with pytest.raises(ConnectionError):
                big.request_raw({"op": "ping"})

    def test_worker_error_reported_as_internal(self, client):
        envelope = client.request_raw(
            {"op": "compile", "source": "int main( {{{"}
        )
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "internal"


class TestServeCache:
    def test_cache_hit_bit_identical(self, client):
        first = client.request("compile", source=LOCALS_SRC, opt=1)
        second = client.request("compile", source=LOCALS_SRC, opt=1)
        assert first["cached"] is False or first["cached"] is True
        assert second["cached"] is True
        # bit-identical payload: same canonical serialization
        assert json.dumps(first["result"], sort_keys=True) == json.dumps(
            second["result"], sort_keys=True
        )

    def test_analyze_shared_across_tenants(self, client):
        a = client.request("analyze", source=LOCALS_SRC, tenant="t-one")
        b = client.request("analyze", source=LOCALS_SRC, tenant="t-two")
        assert b["cached"] is True
        assert a["result"] == b["result"]


class TestServeTenants:
    def test_tenant_layouts_diverge(self, client):
        acme = client.request("harden", source=LOCALS_SRC, tenant="acme")
        bravo = client.request("harden", source=LOCALS_SRC, tenant="bravo")
        again = client.request("harden", source=LOCALS_SRC, tenant="acme")
        assert acme["result"]["outcome"] == "exit"
        # different tenants: same program, different frame layouts
        assert (
            acme["result"]["layout_digest"] != bravo["result"]["layout_digest"]
        )
        # same tenant: deterministic layout, served from cache
        assert again["cached"] is True
        assert acme["result"] == again["result"]

    def test_tenant_seed_reported(self, client):
        env = client.request("harden", source=LOCALS_SRC, tenant="acme")
        assert env["result"]["tenant_seed"] == tenant_seed(
            "acme", ServeConfig().tenant_salt
        )


class TestServeStreaming:
    def test_trace_stream_shape(self, client):
        header, events = client.stream_all("trace", source=ADD_SRC)
        assert header["stream"] is True
        assert header["result"]["outcome"] == "exit"
        assert header["result"]["events"] == len(events)
        assert any(event.get("ev") == "call" for event in events)

    def test_stream_cache_replays_same_events(self, client):
        first_header, first = client.stream_all("trace", source=LOCALS_SRC)
        second_header, second = client.stream_all("trace", source=LOCALS_SRC)
        assert second_header["cached"] is True
        assert [json.dumps(e, sort_keys=True) for e in first] == [
            json.dumps(e, sort_keys=True) for e in second
        ]

    def test_disconnect_mid_stream_recovers(self, server):
        raw = connect(*server.address)
        raw.request_raw({"op": "trace", "source": LOCALS_SRC})
        # read the header only, then vanish mid-stream
        raw.sock.close()
        # the server must shrug it off and keep serving others
        with connect(*server.address) as fresh:
            assert fresh.ping() is True

    def test_synth_over_the_wire(self, client):
        env = client.request(
            "synth",
            source=VICTIM_SRC,
            goal="corrupt:main.t=7",
            defenses=["none"],
            restarts=2,
        )
        counts = env["result"]["counts"]
        assert counts["victims"] == 1
        assert counts["errors"] == 0

    def test_synth_smokestack_for_real_tenant(self, client):
        # A tenant's 48-bit seed, shifted per build by the smokestack
        # defense, outgrows 64 bits; the entropy stream must take it.
        envelope = client.request_raw({
            "op": "synth",
            "source": PLANNED_VICTIM_SRC,
            "goal": "corrupt:main.t=7",
            "defenses": ["none", "smokestack"],
            "restarts": 2,
            "tenant": "acme",
        })
        assert envelope["ok"] is True, envelope.get("error")
        result = envelope["result"]
        assert result["counts"] == {
            "victims": 1, "planned": 1, "no_plan": 0, "errors": 0
        }
        assert set(result["per_defense"]) == {"none", "smokestack"}


class TestServeMetrics:
    def test_worker_metrics_cross_process_boundary(self, client):
        source = "int main() { return %d; }" % int(time.time() * 1000 % 100000)
        client.request("compile", source=source)
        snapshot = client.metrics()["snapshot"]
        worker_jobs = sum(
            value
            for name, value in snapshot["counters"].items()
            if name.startswith("serve_worker_jobs_total")
        )
        stats = client.stats()
        # every completed worker job shipped its delta home
        assert worker_jobs == stats["worker_jobs_completed"]
        assert worker_jobs >= 1

    def test_stats_shape(self, client):
        stats = client.stats()
        assert stats["workers"] == 2
        assert stats["cache"]["max_entries"] == 512
        assert stats["requests_total"] >= 1


class TestServeLimits:
    """Deadline + back-pressure behavior on a deliberately tiny server."""

    @pytest.fixture(scope="class")
    def tiny(self):
        config = ServeConfig(
            workers=1,
            max_inflight=1,
            request_timeout=0.4,
            retry_after=0.02,
            debug_ops=True,
        )
        with ServerThread(config) as thread:
            yield thread

    def test_timeout_cancels_request(self, tiny):
        with connect(*tiny.address) as c:
            started = time.monotonic()
            envelope = c.request_raw({"op": "sleep", "seconds": 5.0})
            elapsed = time.monotonic() - started
            assert envelope["error"]["code"] == "timeout"
            assert elapsed < 3.0  # did not wait out the sleep
            # wait for the hung worker to finish so later tests aren't
            # queued behind it (and the late completion is harvested)
            time.sleep(5.2)
            stats = c.stats()
            assert stats["timeouts_total"] >= 1
            assert stats["late_completions_total"] >= 1

    def test_overload_rejected_with_retry_after(self, tiny):
        with connect(*tiny.address) as busy, connect(*tiny.address) as spare:
            outcome = {}

            def hog():
                outcome["env"] = busy.request_raw(
                    {"op": "sleep", "seconds": 0.3}
                )

            thread = threading.Thread(target=hog)
            thread.start()
            time.sleep(0.1)  # let the hog occupy the only slot
            rejected = spare.request_raw({"op": "sleep", "seconds": 0.1})
            thread.join()
            assert rejected["error"]["code"] == "overloaded"
            assert rejected["error"]["retry_after"] == 0.02
            assert outcome["env"]["ok"] is True
            # rejected clients can retry successfully once drained
            retried = spare.request_raw({"op": "sleep", "seconds": 0.05})
            assert retried["ok"] is True


class TestServeWorkerDeath:
    """A worker killed under a live server costs requests, not the pool."""

    def test_dead_worker_replaced_and_no_slot_leaks(self):
        config = ServeConfig(workers=2, max_inflight=4)
        with ServerThread(config) as thread, connect(*thread.address) as c:
            assert c.request("compile", source=ADD_SRC)["ok"] is True
            victim = next(iter(thread.server._pool._processes))
            os.kill(victim, signal.SIGKILL)
            codes = []
            for index in range(config.max_inflight + 4):
                envelope = c.request_raw(
                    {"op": "compile", "source": f"{ADD_SRC} /* {index} */"}
                )
                codes.append(
                    "ok" if envelope["ok"] else envelope["error"]["code"]
                )
            assert set(codes) <= {"ok", "internal"}, codes
            assert "ok" in codes, codes
            after = c.request("compile", source=f"{ADD_SRC} /* after */")
            assert after["ok"] is True
            assert c.stats()["inflight"] == 0


#: Recurses until the VM's 4096-deep guest call cap stops it.
DEEP_RECURSION_SRC = (
    "int down(int n) { char pad[8]; pad[0] = n; return down(n + 1) + pad[0]; } "
    "int main() { return down(0); }"
)

SPIN_SRC = (
    "int main() { long i; char b[4]; i = 0; "
    "while (1) { i = i + 1; b[0] = i; } return b[0]; }"
)


class TestServeHostileHarden:
    """Hostile guests on the jitted harden path, over a live server."""

    def test_runaway_guests_come_back_as_limit(self, monkeypatch):
        # workers fork after the patch, so they inherit the low budget
        monkeypatch.setattr(worker, "SERVE_MAX_STEPS", 1_000_000)
        config = ServeConfig(workers=1, max_inflight=4, request_timeout=60.0)
        with ServerThread(config) as thread, connect(*thread.address) as c:
            for source in (DEEP_RECURSION_SRC, SPIN_SRC):
                envelope = c.request_raw(
                    {"op": "harden", "source": source, "tenant": "acme"}
                )
                assert envelope["ok"] is True, envelope.get("error")
                assert envelope["result"]["outcome"] == "limit"
            # the same single-worker pool still serves the next request
            after = c.request("harden", source=LOCALS_SRC, tenant="acme")
            assert after["result"]["outcome"] == "exit"
