"""Wire protocol for ``repro serve``: line-delimited JSON over TCP.

One request per line, one-or-more response lines per request — plain
``asyncio`` and the stdlib only, so the front door adds no dependency
the one-shot CLI does not already have.

Request envelope (all handled by :func:`validate_request`)::

    {"id": "r1", "op": "compile", "source": "int main() {...}",
     "opt": 2, "tenant": "acme", ...}

Response envelope::

    {"id": "r1", "ok": true,  "cached": false, "result": {...}}
    {"id": "r1", "ok": false, "error": {"code": "timeout", ...}}

Streaming ops (``trace``) respond with a header line carrying
``"stream": true``, then one raw JSONL event per line, then a footer
line carrying ``"done": true``.

Error codes are a closed set so clients can switch on them:

========== =====================================================
code        meaning
========== =====================================================
bad-request  unparseable JSON, missing/invalid fields
unknown-op   ``op`` not in :data:`OPS`
too-large    request line exceeded ``max_request_bytes``
overloaded   back-pressure rejection; retry after ``retry_after``
timeout      the worker did not finish within the deadline
internal     unexpected server-side failure (message attached)
========== =====================================================
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Tuple

from repro.defenses.registry import defense_names

#: Every op the front door accepts.  ``ping``/``metrics``/``stats`` are
#: answered in the event loop; the rest are worker jobs.
LOCAL_OPS = ("ping", "metrics", "stats")
JOB_OPS = ("compile", "harden", "analyze", "prove", "trace", "synth")
#: Debug-only job ops, enabled by ``ServeConfig(debug_ops=True)``
#: (tests use ``sleep`` to simulate a hung worker).
DEBUG_OPS = ("sleep",)
OPS = LOCAL_OPS + JOB_OPS + DEBUG_OPS

#: Ops whose result depends on the tenant's permutation seed: their
#: cache key includes the tenant, everything else is shared cross-tenant.
TENANT_KEYED_OPS = ("harden", "trace", "synth")

DEFAULT_MAX_REQUEST_BYTES = 1 << 20
DEFAULT_TENANT = "public"

_SCHEMES = ("pseudo", "aes-1", "aes-10", "rdrand")


class ProtocolError(Exception):
    """A request that cannot be turned into a job."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def tenant_seed(tenant: str, salt: str) -> int:
    """Per-tenant permutation seed: a stable 48-bit slice of a salted
    hash, so distinct tenants get distinct Smokestack entropy and the
    same tenant always maps to the same seed (cacheable layouts)."""
    digest = hashlib.sha256(
        (salt + "\x00" + tenant).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:6], "big")


def _require_str(obj: dict, field: str, default: Optional[str] = None) -> str:
    value = obj.get(field, default)
    if not isinstance(value, str) or (default is None and not value):
        raise ProtocolError("bad-request", f"field '{field}' must be a string")
    return value


def _optional_int(obj: dict, field: str, default: int, lo: int, hi: int) -> int:
    value = obj.get(field, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError("bad-request", f"field '{field}' must be an int")
    if not lo <= value <= hi:
        raise ProtocolError(
            "bad-request", f"field '{field}' must be in [{lo}, {hi}]"
        )
    return value


def parse_request(line: bytes) -> dict:
    """Decode one request line; raises :class:`ProtocolError`."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("bad-request", f"malformed JSON line: {exc}")
    if not isinstance(obj, dict):
        raise ProtocolError("bad-request", "request must be a JSON object")
    return obj


def validate_request(obj: dict, *, debug_ops: bool = False) -> dict:
    """Normalize a request into a canonical, picklable job dict.

    The job dict is the single source of truth downstream: the cache key
    is derived from it (:func:`cache_key`) and the worker receives it
    verbatim, so a field that matters to the result can never be missed
    by the cache key.
    """
    op = _require_str(obj, "op")
    allowed = OPS if debug_ops else LOCAL_OPS + JOB_OPS
    if op not in allowed:
        raise ProtocolError("unknown-op", f"unknown op '{op}'")
    job: dict = {"op": op}
    if op in LOCAL_OPS:
        return job
    if op == "sleep":
        seconds = obj.get("seconds", 1)
        if not isinstance(seconds, (int, float)) or isinstance(seconds, bool):
            raise ProtocolError("bad-request", "field 'seconds' must be a number")
        job["seconds"] = float(min(max(seconds, 0.0), 3600.0))
        return job
    source = _require_str(obj, "source")
    if len(source) > DEFAULT_MAX_REQUEST_BYTES:
        raise ProtocolError("too-large", "source exceeds request limit")
    job["source"] = source
    job["digest"] = source_digest(source)
    job["opt"] = _optional_int(obj, "opt", 0, 0, 2)
    job["tenant"] = _require_str(obj, "tenant", DEFAULT_TENANT)
    inputs = obj.get("inputs", [])
    if not (
        isinstance(inputs, list)
        and all(isinstance(item, str) for item in inputs)
    ):
        raise ProtocolError("bad-request", "field 'inputs' must be a list of strings")
    job["inputs"] = list(inputs)
    if op in ("harden", "trace"):
        scheme = _require_str(obj, "scheme", "aes-10")
        if scheme not in _SCHEMES:
            raise ProtocolError(
                "bad-request", f"unknown scheme '{scheme}'; known: {_SCHEMES}"
            )
        job["scheme"] = scheme
    if op == "trace":
        job["harden"] = bool(obj.get("harden", False))
        writes = _require_str(obj, "writes", "crossing")
        if writes not in ("crossing", "all", "none"):
            raise ProtocolError(
                "bad-request", "field 'writes' must be crossing|all|none"
            )
        job["writes"] = writes
    if op == "synth":
        job["goal"] = _require_str(obj, "goal")
        defenses = obj.get("defenses", [])
        if not (
            isinstance(defenses, list)
            and all(isinstance(item, str) for item in defenses)
        ):
            raise ProtocolError(
                "bad-request", "field 'defenses' must be a list of strings"
            )
        known = defense_names()
        unknown = sorted(set(defenses) - set(known))
        if unknown:
            raise ProtocolError(
                "bad-request",
                f"unknown defense(s) {unknown}; known: {', '.join(known)}",
            )
        job["defenses"] = sorted(set(defenses))
        job["restarts"] = _optional_int(obj, "restarts", 4, 1, 64)
    return job


def cache_key(job: dict) -> Optional[str]:
    """Content-hash cache key for a job; ``None`` for uncacheable ops.

    Keyed on the source digest plus every result-relevant parameter.
    Tenant is included only for ops whose output depends on the tenant's
    permutation seed, so ``compile``/``analyze``/``prove`` results are
    shared across tenants.
    """
    op = job["op"]
    if op not in JOB_OPS:
        return None
    material = {k: v for k, v in job.items() if k not in ("source", "tenant")}
    if op in TENANT_KEYED_OPS:
        material["tenant"] = job["tenant"]
    return hashlib.sha256(
        json.dumps(material, sort_keys=True).encode("utf-8")
    ).hexdigest()


def encode(obj: dict) -> bytes:
    """One canonical response line (sorted keys, so identical payloads
    serialize to identical bytes)."""
    return json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n"


def error_response(
    request_id, code: str, message: str, retry_after: Optional[float] = None
) -> dict:
    error: dict = {"code": code, "message": message}
    if retry_after is not None:
        error["retry_after"] = retry_after
    return {"id": request_id, "ok": False, "error": error}


def split_validate(line: bytes, *, debug_ops: bool = False) -> Tuple[object, dict]:
    """Parse + validate in one step; returns ``(request_id, job)``.

    The request id is extracted before validation so even a rejected
    request gets a correlatable error response.
    """
    obj = parse_request(line)
    request_id = obj.get("id")
    job = validate_request(obj, debug_ops=debug_ops)
    return request_id, job
