"""Overflow payload construction.

A stack buffer overflow writes from the buffer's base towards *higher*
addresses.  With a frame layout expressed as positive offsets below the
frame top (what :func:`repro.vm.interpreter.baseline_frame_layout`
returns, and so every build's reference layouts), the byte of variable
``v`` lands at payload index ``offset(buffer) - offset(v)``.

:func:`overflow_payload` encodes exactly that arithmetic, which is the
"relative distance is all a DOP attack needs" observation the paper
builds on (§II-B): no absolute address appears anywhere.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import AttackError


def overflow_payload(
    layout: Dict[str, int],
    buffer_name: str,
    writes: Dict[str, bytes],
    filler: bytes = b"A",
    min_length: int = 0,
) -> bytes:
    """Payload that overwrites each variable in ``writes`` with its bytes.

    ``layout`` maps variable names to offsets below the frame top.  Bytes
    not covered by a write are ``filler`` (collateral corruption — real
    attacks must ensure the clobbered slots don't matter, and the test
    suite shows what happens when, under Smokestack, they suddenly do).
    """
    if buffer_name not in layout:
        raise AttackError(f"buffer '{buffer_name}' not in layout")
    buffer_offset = layout[buffer_name]
    end = min_length
    positions = {}
    for name, data in writes.items():
        if name not in layout:
            raise AttackError(f"target '{name}' not in layout")
        position = buffer_offset - layout[name]
        if position < 0:
            raise AttackError(
                f"target '{name}' lies below the buffer; a forward overflow "
                "cannot reach it"
            )
        positions[name] = position
        end = max(end, position + len(data))
    payload = bytearray((filler * end)[:end])
    for name, data in writes.items():
        position = positions[name]
        payload[position : position + len(data)] = data
    return bytes(payload)


def relative_payload(
    gap: int, value: bytes, filler: bytes = b"A", min_length: int = 0
) -> bytes:
    """Payload writing ``value`` exactly ``gap`` bytes past the buffer base."""
    if gap < 0:
        raise AttackError("gap must be non-negative")
    end = max(gap + len(value), min_length)
    payload = bytearray((filler * end)[:end])
    payload[gap : gap + len(value)] = value
    return bytes(payload)


def find_marker(leak: bytes, marker: bytes, start: int = 0) -> Optional[int]:
    """Locate a distinctive value inside leaked memory; None if absent."""
    position = leak.find(marker, start)
    return position if position >= 0 else None


def le64(value: int) -> bytes:
    """Little-endian 8-byte encoding (two's complement for negatives)."""
    return (value & ((1 << 64) - 1)).to_bytes(8, "little")


def read_le64(data: bytes, offset: int = 0) -> int:
    return int.from_bytes(data[offset : offset + 8], "little")
