#!/usr/bin/env python
"""Soak the serve front door and gate its contracts (BENCH_serve.json).

Repurposes the benchsuite's io-category workloads (proftpd's command
loop, wireshark's capture parser) as the request corpus: a deck of
distinct payloads — compile at two opt levels, analyze, per-tenant
harden, trace — cycled by concurrent asyncio clients until the request
budget is spent.  Repeats dominate, exactly like a real hardening
service fed the same programs by many tenants, which is what exercises
the content-hash cache.

Measures p50/p90/p99 latency, cache hit rate, rejection/retry counts,
and verifies four contracts, any failure of which exits non-zero:

* zero protocol errors (every response is an ``ok`` envelope or an
  ``overloaded`` rejection that succeeds on retry);
* zero cache mismatches (every repeat of a payload returns the
  bit-identical canonical result of its first answer);
* metrics consistency: the ``serve_worker_jobs_total`` counters merged
  across the process boundary equal the parent's own count of
  completed worker jobs, and the hit rate clears its floor;
* only ``trace`` jobs run traced: the merged ``vm_traced_machines_total``
  equals the merged ``serve_worker_jobs_total{op=trace}`` (``harden``
  fingerprints its run from the RNG draws and stays on the JIT).

Usage::

    python scripts/bench_serve.py [--smoke] [--out BENCH_serve.json]
"""

import argparse
import asyncio
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.benchsuite.programs import get_workload  # noqa: E402
from repro.obs.gate import Gate, run as run_report  # noqa: E402
from repro.serve.server import ServeConfig, ServerThread  # noqa: E402

TENANTS = ("proftpd-ops", "wireshark-lab", "shared-ci")
REQUESTS = 2000
SMOKE_REQUESTS = 240
CONCURRENCY = 8
WORKERS = 2


def build_deck():
    """The distinct payloads the soak cycles through."""
    deck = []
    for name in ("proftpd", "wireshark"):
        workload = get_workload(name)
        source = workload.source
        inputs = [chunk.decode("latin-1") for chunk in workload.inputs]
        for opt in (0, 1):
            deck.append({"op": "compile", "source": source, "opt": opt})
        deck.append({"op": "analyze", "source": source, "inputs": inputs})
        for tenant in TENANTS:
            deck.append(
                {
                    "op": "harden",
                    "source": source,
                    "tenant": tenant,
                    "inputs": inputs,
                }
            )
        deck.append(
            {
                "op": "trace",
                "source": source,
                "inputs": inputs,
                "writes": "crossing",
            }
        )
    return deck


class SoakStats:
    def __init__(self):
        self.latencies = []
        self.ok = 0
        self.cached = 0
        self.rejected = 0
        self.protocol_errors = []
        self.cache_mismatches = 0
        self.first_answers = {}

    def record(self, payload_index, envelope, elapsed):
        self.latencies.append(elapsed)
        if not envelope.get("ok", False):
            self.protocol_errors.append(envelope.get("error"))
            return
        self.ok += 1
        if envelope.get("cached"):
            self.cached += 1
        canonical = json.dumps(envelope["result"], sort_keys=True)
        seen = self.first_answers.get(payload_index)
        if seen is None:
            self.first_answers[payload_index] = canonical
        elif seen != canonical:
            self.cache_mismatches += 1


async def run_client(host, port, jobs, stats):
    """One connection draining ``jobs`` (an async iterator of payloads)."""
    reader, writer = await asyncio.open_connection(host, port)
    request_id = 0
    try:
        async for payload_index, payload in jobs:
            request_id += 1
            line = json.dumps(
                dict(payload, id=f"r{request_id}")
            ).encode() + b"\n"
            started = time.perf_counter()
            while True:
                writer.write(line)
                await writer.drain()
                envelope = json.loads(await reader.readline())
                if envelope.get("stream"):
                    # drain the event lines through the done footer
                    while True:
                        event = json.loads(await reader.readline())
                        if isinstance(event, dict) and event.get("done"):
                            break
                error = envelope.get("error") or {}
                if error.get("code") == "overloaded":
                    stats.rejected += 1
                    await asyncio.sleep(error.get("retry_after", 0.05))
                    continue
                break
            stats.record(
                payload_index, envelope, time.perf_counter() - started
            )
    finally:
        writer.close()


async def soak(host, port, deck, total_requests, concurrency):
    stats = SoakStats()
    queue = asyncio.Queue()
    for i in range(total_requests):
        index = i % len(deck)
        queue.put_nowait((index, deck[index]))

    async def jobs():
        while True:
            try:
                yield queue.get_nowait()
            except asyncio.QueueEmpty:
                return

    await asyncio.gather(
        *(run_client(host, port, jobs(), stats) for _ in range(concurrency))
    )
    return stats


def percentile(sorted_values, fraction):
    index = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[index]


def run(smoke):
    total = SMOKE_REQUESTS if smoke else REQUESTS
    hit_floor = 0.0 if smoke else 0.5
    deck = build_deck()
    config = ServeConfig(
        workers=WORKERS, max_inflight=6, request_timeout=120.0
    )
    started = time.perf_counter()
    with ServerThread(config) as thread:
        host, port = thread.address
        stats = asyncio.run(soak(host, port, deck, total, CONCURRENCY))
        # post-soak consistency: worker-side counters vs parent-side count
        from repro.serve.client import connect

        with connect(host, port) as client:
            metrics = client.metrics()["snapshot"]
            server_stats = client.stats()
    wall = time.perf_counter() - started

    worker_jobs_merged = sum(
        value
        for name, value in metrics["counters"].items()
        if name.startswith("serve_worker_jobs_total")
    )
    completed_jobs = server_stats["worker_jobs_completed"]
    traced_machines = metrics["counters"].get("vm_traced_machines_total", 0)
    trace_jobs = metrics["counters"].get("serve_worker_jobs_total{op=trace}", 0)
    latencies = sorted(stats.latencies)
    hit_rate = stats.cached / stats.ok if stats.ok else 0.0

    print(f"serve soak: {stats.ok}/{total} ok in {wall:.1f}s "
          f"({stats.ok / wall:.1f} req/s), "
          f"hit rate {hit_rate:.1%}, "
          f"{stats.rejected} rejections retried")
    print(f"latency p50 {percentile(latencies, 0.50)*1000:.1f}ms  "
          f"p90 {percentile(latencies, 0.90)*1000:.1f}ms  "
          f"p99 {percentile(latencies, 0.99)*1000:.1f}ms")
    gate = Gate("serve")
    gate.check(stats.ok >= total, f"{stats.ok}/{total} requests completed")
    gate.require(stats.protocol_errors, "protocol errors")
    gate.check(
        stats.cache_mismatches == 0,
        f"{stats.cache_mismatches} cache mismatches",
    )
    gate.check(
        hit_rate > hit_floor,
        f"cache hit rate {hit_rate:.4f} above {hit_floor}",
    )
    gate.check(
        worker_jobs_merged == completed_jobs,
        f"merged worker-job counters {worker_jobs_merged} == "
        f"{completed_jobs} completed jobs",
    )
    gate.check(
        traced_machines == trace_jobs,
        f"{traced_machines} traced machines == {trace_jobs} trace jobs",
    )
    measurements = [
        ("request_latency", "s", latencies),
        ("wall", "s", [wall]),
    ]
    payload = {
        "requests": total,
        "concurrency": CONCURRENCY,
        "workers": WORKERS,
        "deck_size": len(deck),
        "throughput_rps": round(stats.ok / wall, 1),
        "ok": stats.ok,
        "cached": stats.cached,
        "cache_hit_rate": round(hit_rate, 4),
        "rejections_retried": stats.rejected,
        "protocol_errors": stats.protocol_errors[:10],
        "cache_mismatches": stats.cache_mismatches,
        "latency_seconds": {
            "p90": percentile(latencies, 0.90),
            "p99": percentile(latencies, 0.99),
            "max": latencies[-1],
        },
        "worker_jobs_merged": worker_jobs_merged,
        "worker_jobs_completed": completed_jobs,
        "traced_machines": traced_machines,
        "trace_jobs": trace_jobs,
        "server_rejections": server_stats["rejections_total"],
    }
    return [gate], measurements, payload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help=f"reduced budget for CI ({SMOKE_REQUESTS} "
                        "requests)")
    parser.add_argument("--out", default="BENCH_serve.json")
    args = parser.parse_args(argv)
    return run_report(args.out, lambda: run(args.smoke))


if __name__ == "__main__":
    raise SystemExit(main())
