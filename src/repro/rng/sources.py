"""The four randomness schemes evaluated in the paper (Table I).

=========  ========  ==========================  =====================
source     security  state location              cycles / invocation
=========  ========  ==========================  =====================
pseudo     none      guest data segment (!)      3.4
AES-1      low       host attrs ("registers")    19.2
AES-10     high      host attrs ("registers")    92.8
RDRAND     high      none (true random)          265.6
=========  ========  ==========================  =====================

``pseudo`` keeps its xorshift64 state in an attacker-writable global —
the paper includes it purely as a performance baseline because any
memory-disclosing attacker can read (or set) the state and predict every
future permutation index; :meth:`PseudoSource.predict_from_state` is the
attack tooling's implementation of exactly that.

The AES cycle costs follow a per-round model calibrated to land on the
paper's measured rates for 1 and 10 rounds; RDRAND's cost models the
bandwidth limit of the on-chip generator the paper observed.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import VMError
from repro.rng.ctr import DEFAULT_RESEED_INTERVAL, AesCtrGenerator
from repro.rng.entropy import EntropySource, SystemEntropy

#: Name of the guest global holding the insecure PRNG's state.  The
#: hardening pipeline adds this global to every instrumented module so the
#: pseudo scheme (and only it) has memory-resident state to leak.
PSEUDO_STATE_GLOBAL = "__ss_prng_state"

#: Table I rates (cycles per invocation).
PSEUDO_CYCLES = 3.4
RDRAND_CYCLES = 265.6
AES_ROUND_CYCLES = (92.8 - 19.2) / 9  # per-round marginal cost
AES_BASE_CYCLES = 19.2 - AES_ROUND_CYCLES  # whitening + block assembly

_U64 = (1 << 64) - 1
_PSEUDO_DEFAULT_SEED = 0x853C49E6748FEA9B


class RandomSource:
    """Interface the VM's ``__ss_rand`` builtin calls."""

    #: short name used in reports ("pseudo", "aes-1", "aes-10", "rdrand")
    name = "abstract"
    #: security label per Table I ("none", "low", "high")
    security = "none"
    #: deterministic cost charged per invocation
    cycles_per_call = 0.0

    def generate(self, machine) -> int:
        """Return the next 64-bit permutation index for ``machine``."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget per-process state (called between runs if reused)."""


class RecordingSource(RandomSource):
    """Forwards every draw to ``inner`` and reports it as
    ``on_draw(fn, value)``, ``fn`` being the guest function whose
    prologue (or VLA pad) called ``__ss_rand``.

    Unlike an attached tracer this keeps the run on the JIT, and it
    forwards ``cycles_per_call`` unchanged, so a recorded run's steps
    and cycles are those of an unrecorded one.
    """

    def __init__(self, inner: RandomSource, on_draw: Callable[[str, int], None]):
        self.inner = inner
        self.on_draw = on_draw
        self.name = inner.name
        self.security = inner.security
        self.cycles_per_call = inner.cycles_per_call

    def generate(self, machine) -> int:
        value = self.inner.generate(machine) & _U64
        self.on_draw(machine.frames[-1].function.name, value)
        return value

    def reset(self) -> None:
        self.inner.reset()


def xorshift64_step(state: int) -> int:
    """One step of xorshift64 — the insecure generator, exposed so that
    attack code can replicate it after disclosing the state."""
    state &= _U64
    state ^= (state << 13) & _U64
    state ^= state >> 7
    state ^= (state << 17) & _U64
    return state & _U64


class PseudoSource(RandomSource):
    """Memory-based xorshift64: fast and completely unsafe.

    State lives in the guest global ``__ss_prng_state``; an attacker with
    a read primitive recovers it and predicts every future index, and one
    with a write primitive can pin the layout outright.
    """

    name = "pseudo"
    security = "none"
    cycles_per_call = PSEUDO_CYCLES

    def generate(self, machine) -> int:
        try:
            address = machine.image.address_of_global(PSEUDO_STATE_GLOBAL)
        except VMError:
            raise VMError(
                f"pseudo RNG requires the '{PSEUDO_STATE_GLOBAL}' global; "
                "harden the module with scheme='pseudo'"
            ) from None
        state = machine.memory.read_int(address, 8, signed=False)
        if state == 0:
            state = _PSEUDO_DEFAULT_SEED
        state = xorshift64_step(state)
        machine.memory.write_int(address, state, 8)
        return state

    @staticmethod
    def predict_from_state(state: int, steps: int = 1) -> Tuple[int, int]:
        """(value at `steps` ahead, state afterwards) — the disclosure attack."""
        if state == 0:
            state = _PSEUDO_DEFAULT_SEED
        value = state
        for _ in range(steps):
            value = xorshift64_step(value)
        return value, value


class AesSource(RandomSource):
    """AES-CTR with key/nonce in registers, seeded from true randomness."""

    security = "low"

    def __init__(
        self,
        rounds: int,
        entropy: Optional[EntropySource] = None,
        reseed_interval: int = DEFAULT_RESEED_INTERVAL,
    ):
        self.rounds = rounds
        self.name = f"aes-{rounds}"
        self.security = "high" if rounds >= 10 else "low"
        self.cycles_per_call = AES_BASE_CYCLES + AES_ROUND_CYCLES * rounds
        self._entropy = entropy or SystemEntropy()
        self._reseed_interval = reseed_interval
        self._generator = AesCtrGenerator(
            self._entropy, rounds=rounds, reseed_interval=reseed_interval
        )

    def generate(self, machine) -> int:
        return self._generator.generate(machine.universal_call_counter)

    def reset(self) -> None:
        self._generator = AesCtrGenerator(
            self._entropy, rounds=self.rounds, reseed_interval=self._reseed_interval
        )


class RdrandSource(RandomSource):
    """A fresh true-random value per invocation (the RDRAND experiment)."""

    name = "rdrand"
    security = "high"
    cycles_per_call = RDRAND_CYCLES

    def __init__(self, entropy: Optional[EntropySource] = None):
        self._entropy = entropy or SystemEntropy()

    def generate(self, machine) -> int:
        return self._entropy.read_u64()


#: The four experiment configurations of Figures 3/4 and Table I.
SCHEME_NAMES = ("pseudo", "aes-1", "aes-10", "rdrand")


def make_source(name: str, entropy: Optional[EntropySource] = None) -> RandomSource:
    """Factory for the paper's four schemes ('pseudo', 'aes-1', 'aes-10',
    'rdrand'); 'aes-N' accepts any round count 1..10."""
    lowered = name.lower()
    if lowered == "pseudo":
        return PseudoSource()
    if lowered == "rdrand":
        return RdrandSource(entropy)
    if lowered.startswith("aes-"):
        try:
            rounds = int(lowered[4:])
        except ValueError:
            raise ValueError(f"bad AES scheme name '{name}'") from None
        return AesSource(rounds, entropy)
    raise ValueError(
        f"unknown randomness scheme '{name}'; expected one of {SCHEME_NAMES}"
    )


def table1_rows() -> Dict[str, Dict[str, object]]:
    """Static description of Table I used by the benchmark harness."""
    return {
        "pseudo": {"security": "None", "cycles": PSEUDO_CYCLES},
        "AES-1": {"security": "Low", "cycles": AES_BASE_CYCLES + AES_ROUND_CYCLES},
        "AES-10": {"security": "High", "cycles": AES_BASE_CYCLES + AES_ROUND_CYCLES * 10},
        "RDRAND": {"security": "High", "cycles": RDRAND_CYCLES},
    }
