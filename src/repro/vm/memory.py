"""Flat byte-addressable memory for the simulated process.

The memory image is divided into segments mirroring a conventional Linux
process (and therefore the paper's testbed):

========  ==========  ===========  =======================================
segment   base        permissions  contents
========  ==========  ===========  =======================================
null      0x0         none         guard page; any access faults
code      0x10000     r-x          one slot per function (call targets)
rodata    0x100000    r--          string literals, Smokestack P-BOX
data      0x200000    rw-          globals, memory-backed PRNG state
heap      0x400000    rw-          malloc arena (bump + free list)
stack     grows down  rw-          call frames
========  ==========  ===========  =======================================

Addresses are plain integers.  All multi-byte accesses are little-endian.
The stack segment is a private anonymous ``mmap`` of the full stack
limit: the kernel hands out zero pages on first touch, so a process start
costs no zero-fill and only the pages a run reaches count towards host
memory.  Being private, it stays copy-on-write across ``fork`` like a
bytearray: a forked worker never shares stack pages with its parent.
The stack never grows (its bounds are fixed at construction); the other
segments are bytearrays that the loader and the heap extend.
:meth:`Memory.reset` returns a loaded memory to its just-loaded state in
place — the process restart a crashed service goes through — keeping
every segment's buffer object, because decoded code and compiled JIT
bodies hold direct references to the stack and data buffers.
Crucially for the DOP experiments, **writes are only checked against
segment bounds and permissions — never against object bounds** — so a
buffer overflow really does corrupt whatever the adjacent bytes are,
exactly like hardware.
"""

from __future__ import annotations

import mmap
import struct
import sys
from typing import Dict, List, Optional, Tuple

from repro.errors import VMError, VMFault

# Segment bases (chosen far apart so segments can grow in tests).
CODE_BASE = 0x0001_0000
RODATA_BASE = 0x0010_0000
DATA_BASE = 0x0020_0000
HEAP_BASE = 0x0040_0000
STACK_TOP = 0x0080_0000
DEFAULT_STACK_LIMIT = 0x20_0000  # 2 MiB
POINTER_BYTES = 8

#: ``MADV_DONTNEED`` on a private anonymous mapping makes the next read
#: of each page a fresh zero page on Linux; elsewhere the advice may
#: keep the old contents, so :meth:`Memory.reset` zero-fills instead.
_DONTNEED_ZEROES = sys.platform.startswith("linux")


class Segment:
    """One contiguous mapped region.

    ``data`` is a ``bytearray`` unless the segment is built with
    ``fixed=True``, which backs it with a zero-filled private anonymous
    ``mmap`` that :meth:`grow` refuses to extend.
    """

    __slots__ = ("name", "base", "data", "readable", "writable", "executable")

    def __init__(
        self,
        name: str,
        base: int,
        size: int,
        readable: bool = True,
        writable: bool = True,
        executable: bool = False,
        fixed: bool = False,
    ):
        self.name = name
        self.base = base
        self.data = (
            mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
            if fixed
            else bytearray(size)
        )
        self.readable = readable
        self.writable = writable
        self.executable = executable

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def end(self) -> int:
        return self.base + len(self.data)

    def contains(self, address: int, length: int = 1) -> bool:
        return self.base <= address and address + length <= self.base + len(self.data)

    def grow(self, new_size: int) -> None:
        if isinstance(self.data, mmap.mmap):
            raise VMError(f"the {self.name} segment has fixed bounds")
        if new_size > len(self.data):
            self.data.extend(b"\x00" * (new_size - len(self.data)))


class Memory:
    """The full address space of one simulated process."""

    def __init__(self, stack_limit: int = DEFAULT_STACK_LIMIT):
        stack_base = STACK_TOP - stack_limit
        self.code = Segment("code", CODE_BASE, 0, writable=False, executable=True)
        self.rodata = Segment("rodata", RODATA_BASE, 0, writable=False)
        self.data = Segment("data", DATA_BASE, 0)
        self.heap = Segment("heap", HEAP_BASE, 0)
        self.stack = Segment("stack", stack_base, stack_limit, fixed=True)
        #: cached for the typed-access fast paths (never changes).
        self._stack_base = stack_base
        self._segments: List[Segment] = [
            self.code,
            self.rodata,
            self.data,
            self.heap,
            self.stack,
        ]
        # High-water marks for ru_maxrss-style accounting.
        self._heap_hwm = 0
        self._stack_hwm_low = STACK_TOP  # lowest touched stack address
        # When True, writes to rodata fault (normal).  Loaders flip this
        # off briefly while installing images.
        self._protect = True
        #: the data segment as the loader installed it, which a restart
        #: restores: (offset, image) of every install into data that is
        #: not all zero (the rest of the segment starts zeroed).
        self._data_images: List[Tuple[int, bytes]] = []

    # -- mapping helpers -----------------------------------------------------------

    def segment_for(self, address: int, length: int = 1) -> Segment:
        # Hot path: pick the candidate segment by base address (bases are
        # fixed and ordered), then bounds-check it once.  Stack and heap
        # accesses — the overwhelming majority — hit in one comparison
        # chain instead of a linear scan of all five segments.
        if address >= self._stack_base:
            segment = self.stack
        elif address >= HEAP_BASE:
            segment = self.heap
        elif address >= DATA_BASE:
            segment = self.data
        elif address >= RODATA_BASE:
            segment = self.rodata
        else:
            segment = self.code
        if segment.base <= address and address + length <= segment.base + len(
            segment.data
        ):
            return segment
        # Miss: fall back to the exhaustive scan so diagnostics (and any
        # future overlapping-growth corner case) match the original path.
        for segment in self._segments:
            if segment.contains(address, length):
                return segment
        # Distinguish the classic null deref for nicer diagnostics.
        if 0 <= address < 0x1000:
            raise VMFault("null-deref", address)
        raise VMFault("unmapped", address)

    def unprotected(self) -> "_Unprotect":
        """Context manager that lets the loader write read-only segments."""
        return _Unprotect(self)

    # -- observation -------------------------------------------------------------------

    def set_write_observer(self, observer) -> None:
        """Install ``observer(address, size)``, called after every write.

        Implemented by shadowing :meth:`write_bytes` and
        :meth:`write_int` with instance attributes, so an unobserved
        ``Memory`` pays nothing — the class methods run untouched and no
        per-write ``if`` exists anywhere.  :meth:`write_float` routes
        through ``self.write_bytes`` (the instance attribute), so float
        stores produce exactly one event.  ``observer=None`` removes the
        wrappers.  Loader writes via :meth:`install` bypass these paths
        by design (they are not guest stores).
        """
        if observer is None:
            self.__dict__.pop("write_bytes", None)
            self.__dict__.pop("write_int", None)
            return
        base_write_bytes = Memory.write_bytes
        base_write_int = Memory.write_int

        def write_bytes(address: int, data: bytes) -> None:
            base_write_bytes(self, address, data)
            if data:
                observer(address, len(data))

        def write_int(address: int, value: int, size: int) -> None:
            base_write_int(self, address, value, size)
            observer(address, size)

        self.write_bytes = write_bytes
        self.write_int = write_int

    # -- raw byte access ---------------------------------------------------------------

    def read_bytes(self, address: int, length: int) -> bytes:
        if length < 0:
            raise VMFault("bad-length", address, f"negative read of {length}")
        if length == 0:
            return b""
        segment = self.segment_for(address, length)
        if not segment.readable:
            raise VMFault("read-protected", address)
        offset = address - segment.base
        return bytes(segment.data[offset : offset + length])

    def write_bytes(self, address: int, data: bytes) -> None:
        if not data:
            return
        segment = self.segment_for(address, len(data))
        if self._protect and not segment.writable:
            raise VMFault("write-to-readonly", address)
        offset = address - segment.base
        segment.data[offset : offset + len(data)] = data
        if segment is self.stack and address < self._stack_hwm_low:
            self._stack_hwm_low = address

    # -- typed access --------------------------------------------------------------------

    def read_int(self, address: int, size: int, signed: bool) -> int:
        # Typed loads are the VM's hottest memory operation.  The fast
        # paths below pick stack/heap/data by base address (always
        # readable, bases fixed and ordered) and slice the segment buffer
        # directly; anything else — rodata/code reads, out-of-range
        # addresses — falls through to the general path so permission
        # checks and fault diagnostics are unchanged.
        if address >= self._stack_base:
            stack = self.stack
            if address + size <= self._stack_base + len(stack.data):
                offset = address - self._stack_base
                return int.from_bytes(
                    stack.data[offset : offset + size], "little", signed=signed
                )
        elif address >= HEAP_BASE:
            heap = self.heap
            if address + size <= HEAP_BASE + len(heap.data):
                offset = address - HEAP_BASE
                return int.from_bytes(
                    heap.data[offset : offset + size], "little", signed=signed
                )
        elif address >= DATA_BASE:
            data = self.data
            if address + size <= DATA_BASE + len(data.data):
                offset = address - DATA_BASE
                return int.from_bytes(
                    data.data[offset : offset + size], "little", signed=signed
                )
        segment = self.segment_for(address, size)
        if not segment.readable:
            raise VMFault("read-protected", address)
        offset = address - segment.base
        return int.from_bytes(
            segment.data[offset : offset + size], "little", signed=signed
        )

    def write_int(self, address: int, value: int, size: int) -> None:
        # Mirrors read_int: stack/heap/data are always writable, so the
        # in-range fast paths can skip the permission check.
        if address >= self._stack_base:
            stack = self.stack
            if address + size <= self._stack_base + len(stack.data):
                offset = address - self._stack_base
                mask = (1 << (size * 8)) - 1
                stack.data[offset : offset + size] = (value & mask).to_bytes(
                    size, "little"
                )
                if address < self._stack_hwm_low:
                    self._stack_hwm_low = address
                return
        elif address >= HEAP_BASE:
            heap = self.heap
            if address + size <= HEAP_BASE + len(heap.data):
                offset = address - HEAP_BASE
                mask = (1 << (size * 8)) - 1
                heap.data[offset : offset + size] = (value & mask).to_bytes(
                    size, "little"
                )
                return
        elif address >= DATA_BASE:
            data = self.data
            if address + size <= DATA_BASE + len(data.data):
                offset = address - DATA_BASE
                mask = (1 << (size * 8)) - 1
                data.data[offset : offset + size] = (value & mask).to_bytes(
                    size, "little"
                )
                return
        segment = self.segment_for(address, size)
        if self._protect and not segment.writable:
            raise VMFault("write-to-readonly", address)
        offset = address - segment.base
        mask = (1 << (size * 8)) - 1
        segment.data[offset : offset + size] = (value & mask).to_bytes(
            size, "little"
        )
        if segment is self.stack and address < self._stack_hwm_low:
            self._stack_hwm_low = address

    def read_float(self, address: int, size: int) -> float:
        segment = self.segment_for(address, size)
        if not segment.readable:
            raise VMFault("read-protected", address)
        offset = address - segment.base
        return struct.unpack(
            "<f" if size == 4 else "<d", segment.data[offset : offset + size]
        )[0]

    def write_float(self, address: int, value: float, size: int) -> None:
        if size == 4:
            # Defense in depth: float-typed values are rounded to binary32
            # at the operation level (repro.vm.floatmath), so this is
            # normally a no-op — but it keeps an out-of-range double from
            # raising a host OverflowError out of struct.pack.
            from repro.vm.floatmath import round_f32

            self.write_bytes(address, struct.pack("<f", round_f32(value)))
            return
        self.write_bytes(address, struct.pack("<d", value))

    def read_cstring(self, address: int, limit: int = 1 << 20) -> bytes:
        """Read a NUL-terminated byte string (faults propagate)."""
        # Fast path: scan for the NUL with find() inside the containing
        # segment (bytearray and mmap alike).
        segment = self.segment_for(address, 1)
        if segment.readable:
            offset = address - segment.base
            end = min(offset + limit, len(segment.data))
            nul = segment.data.find(b"\x00", offset, end)
            if nul >= 0:
                return bytes(segment.data[offset:nul])
        # No terminator inside this segment (or unreadable): replay the
        # byte-by-byte walk so faults land exactly as they always did.
        out = bytearray()
        cursor = address
        while len(out) < limit:
            byte = self.read_bytes(cursor, 1)[0]
            if byte == 0:
                return bytes(out)
            out.append(byte)
            cursor += 1
        raise VMFault("runaway-string", address, "unterminated string")

    # -- segment setup (used by the loader) ------------------------------------------------

    def install(self, segment_name: str, image: bytes) -> int:
        """Append ``image`` to a segment; returns its base address."""
        segment = {
            "code": self.code,
            "rodata": self.rodata,
            "data": self.data,
        }[segment_name]
        address = segment.end
        segment.grow(segment.size + len(image))
        offset = address - segment.base
        segment.data[offset : offset + len(image)] = image
        if segment is self.data and image.count(0) != len(image):
            self._data_images.append((offset, bytes(image)))
        return address

    def reset(self) -> None:
        """Return the memory to its just-loaded state, in place.

        The data segment is zeroed and rewritten from the pristine
        images the loader installed (globals added later by
        ``install_missing_globals`` included), the heap is emptied, the
        stack reads zero again and the high-water marks and write
        protection are reset.  Every segment keeps its buffer object:
        decoded steps and JIT bindings capture the stack and data
        buffers directly.
        """
        data = self.data.data
        data[:] = bytes(len(data))
        for offset, image in self._data_images:
            data[offset : offset + len(image)] = image
        del self.heap.data[:]
        stack = self.stack.data
        if _DONTNEED_ZEROES:
            stack.madvise(mmap.MADV_DONTNEED)
        else:
            stack[:] = bytes(len(stack))
        self._heap_hwm = 0
        self._stack_hwm_low = STACK_TOP
        self._protect = True

    # -- heap ---------------------------------------------------------------------------

    def heap_grow(self, size: int) -> int:
        """Extend the heap; returns the base address of the new space."""
        address = self.heap.end
        if address + size > self.stack.base:
            raise VMFault("out-of-memory", address, "heap/stack collision")
        self.heap.grow(self.heap.size + size)
        self._heap_hwm = max(self._heap_hwm, self.heap.size)
        return address

    # -- accounting ------------------------------------------------------------------------

    def touch_stack(self, low_address: int) -> None:
        """Record that the stack reaches down to ``low_address``."""
        if low_address < self.stack.base:
            raise VMFault("stack-overflow", low_address)
        if low_address < self._stack_hwm_low:
            self._stack_hwm_low = low_address

    def max_rss_bytes(self) -> int:
        """ru_maxrss analogue: peak bytes of touched memory.

        Counts the full rodata/data/code images (they are mapped and
        touched at load), the heap high-water mark, and the deepest stack
        extent.
        """
        stack_used = STACK_TOP - self._stack_hwm_low
        return (
            self.code.size
            + self.rodata.size
            + self.data.size
            + self._heap_hwm
            + stack_used
        )

    def writable_ranges(self) -> List[Tuple[int, int]]:
        """(base, end) of every writable segment — the attacker's reach."""
        return [
            (segment.base, segment.end)
            for segment in self._segments
            if segment.writable
        ]


class _Unprotect:
    def __init__(self, memory: Memory):
        self._memory = memory

    def __enter__(self) -> Memory:
        self._memory._protect = False
        return self._memory

    def __exit__(self, *exc) -> None:
        self._memory._protect = True
