"""True-randomness sources for seeding Smokestack's generators.

The paper seeds its AES-CTR generator from a true random number source
(RDRAND; /dev/random was rejected because it stalls).  The reproduction
models that as an :class:`EntropySource` with two implementations:

* :class:`SystemEntropy` — ``os.urandom``, the closest host analogue of a
  hardware TRNG; used by default.
* :class:`DeterministicEntropy` — a seeded SHA-256 counter stream, used by
  tests and benchmarks that need reproducible runs.  Note this is only
  deterministic for the *experimenter*; within the threat model it stands
  in for a true random source whose outputs the attacker cannot observe,
  because its state never lives in guest-addressable memory.
"""

from __future__ import annotations

import hashlib
import os


class EntropySource:
    """Interface: produce cryptographic-quality random bytes."""

    def read(self, count: int) -> bytes:
        raise NotImplementedError

    def read_u64(self) -> int:
        return int.from_bytes(self.read(8), "little")


class SystemEntropy(EntropySource):
    """os.urandom-backed entropy (the RDRAND stand-in)."""

    def read(self, count: int) -> bytes:
        return os.urandom(count)


class DeterministicEntropy(EntropySource):
    """Reproducible entropy for experiments: SHA-256 in counter mode.

    ``seed`` is any non-negative integer.  Seeds below 2**64 hash as 8
    little-endian bytes; larger ones (a 48-bit serve tenant seed shifted
    by a per-build tag, say) use as many bytes as they need.  The hash
    input length then differs, so no large seed replays a small seed's
    stream.
    """

    def __init__(self, seed: int = 0):
        if seed < 0:
            raise ValueError(f"entropy seed must be non-negative, got {seed}")
        self._seed_bytes = seed.to_bytes(
            max(8, (seed.bit_length() + 7) // 8), "little"
        )
        self._counter = 0
        self._buffer = b""

    def read(self, count: int) -> bytes:
        while len(self._buffer) < count:
            block = hashlib.sha256(
                self._seed_bytes + self._counter.to_bytes(8, "little")
            ).digest()
            self._counter += 1
            self._buffer += block
        out, self._buffer = self._buffer[:count], self._buffer[count:]
        return out
