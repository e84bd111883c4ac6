"""Memory model unit tests: segments, permissions, faults, accounting."""

import os

import pytest

from repro.errors import VMError, VMFault
from repro.vm.memory import (
    CODE_BASE,
    DATA_BASE,
    DEFAULT_STACK_LIMIT,
    HEAP_BASE,
    RODATA_BASE,
    STACK_TOP,
    Memory,
)


@pytest.fixture
def memory():
    m = Memory()
    m.install("data", b"\x00" * 64)
    m.install("rodata", b"const!")
    return m


class TestSegments:
    def test_segment_layout_is_disjoint(self, memory):
        assert CODE_BASE < RODATA_BASE < DATA_BASE < HEAP_BASE < STACK_TOP

    def test_data_read_write(self, memory):
        memory.write_bytes(DATA_BASE, b"hello")
        assert memory.read_bytes(DATA_BASE, 5) == b"hello"

    def test_rodata_readable(self, memory):
        assert memory.read_bytes(RODATA_BASE, 6) == b"const!"

    def test_rodata_write_faults(self, memory):
        with pytest.raises(VMFault) as excinfo:
            memory.write_bytes(RODATA_BASE, b"X")
        assert excinfo.value.kind == "write-to-readonly"

    def test_loader_bypass_for_rodata(self, memory):
        with memory.unprotected():
            memory.write_bytes(RODATA_BASE, b"B")
        assert memory.read_bytes(RODATA_BASE, 1) == b"B"

    def test_stack_read_write(self, memory):
        address = STACK_TOP - 128
        memory.write_bytes(address, b"\x01\x02")
        assert memory.read_bytes(address, 2) == b"\x01\x02"

    def test_null_page_faults(self, memory):
        with pytest.raises(VMFault) as excinfo:
            memory.read_bytes(0, 1)
        assert excinfo.value.kind == "null-deref"

    def test_unmapped_faults(self, memory):
        with pytest.raises(VMFault) as excinfo:
            memory.read_bytes(0x7000_0000, 1)
        assert excinfo.value.kind == "unmapped"

    def test_cross_boundary_access_faults(self, memory):
        end_of_data = DATA_BASE + 64
        with pytest.raises(VMFault):
            memory.read_bytes(end_of_data - 2, 8)

    def test_negative_length_faults(self, memory):
        with pytest.raises(VMFault):
            memory.read_bytes(DATA_BASE, -1)

    def test_zero_length_ok(self, memory):
        assert memory.read_bytes(DATA_BASE, 0) == b""
        memory.write_bytes(DATA_BASE, b"")  # no-op


class TestTypedAccess:
    def test_little_endian_ints(self, memory):
        memory.write_int(DATA_BASE, 0x0102, 4)
        assert memory.read_bytes(DATA_BASE, 4) == b"\x02\x01\x00\x00"

    def test_signed_roundtrip(self, memory):
        memory.write_int(DATA_BASE, -1, 8)
        assert memory.read_int(DATA_BASE, 8, signed=True) == -1
        assert memory.read_int(DATA_BASE, 8, signed=False) == 2**64 - 1

    def test_truncation_on_write(self, memory):
        memory.write_int(DATA_BASE, 0x1_FF, 1)
        assert memory.read_int(DATA_BASE, 1, signed=False) == 0xFF

    def test_float_roundtrip(self, memory):
        memory.write_float(DATA_BASE, 1.5, 8)
        assert memory.read_float(DATA_BASE, 8) == 1.5

    def test_float32_rounds(self, memory):
        memory.write_float(DATA_BASE, 1.1, 4)
        value = memory.read_float(DATA_BASE, 4)
        assert value != 1.1 and abs(value - 1.1) < 1e-6

    def test_cstring(self, memory):
        memory.write_bytes(DATA_BASE, b"abc\x00def")
        assert memory.read_cstring(DATA_BASE) == b"abc"


class TestHeap:
    def test_heap_grow_sequential(self, memory):
        a = memory.heap_grow(32)
        b = memory.heap_grow(16)
        assert b == a + 32

    def test_heap_out_of_memory(self, memory):
        with pytest.raises(VMFault) as excinfo:
            memory.heap_grow(0x1000_0000)
        assert excinfo.value.kind == "out-of-memory"


class TestAccounting:
    def test_max_rss_counts_segments(self, memory):
        base = memory.max_rss_bytes()
        memory.heap_grow(1024)
        assert memory.max_rss_bytes() == base + 1024

    def test_stack_high_water(self, memory):
        before = memory.max_rss_bytes()
        memory.touch_stack(STACK_TOP - 4096)
        assert memory.max_rss_bytes() - before == 4096
        # Shallower touches do not reduce the high-water mark.
        memory.touch_stack(STACK_TOP - 16)
        assert memory.max_rss_bytes() - before == 4096

    def test_stack_overflow_detected(self, memory):
        with pytest.raises(VMFault) as excinfo:
            memory.touch_stack(memory.stack.base - 1)
        assert excinfo.value.kind == "stack-overflow"

    def test_writable_ranges_exclude_rodata(self, memory):
        ranges = memory.writable_ranges()
        assert not any(
            base <= RODATA_BASE < end for base, end in ranges
        )
        assert any(base <= DATA_BASE < end for base, end in ranges)


class TestStackSegment:
    """What a guest can observe of the stack segment, whatever backs it:
    zeroed until written, and the same faults at the same addresses."""

    def test_untouched_stack_reads_zero(self, memory):
        stack = memory.stack
        top = STACK_TOP - 8
        middle = stack.base + stack.size // 2
        for address in (top, middle, stack.base):
            assert memory.read_int(address, 8, signed=False) == 0
            assert memory.read_bytes(address, 8) == b"\x00" * 8

    def test_written_bytes_read_back_among_zeros(self, memory):
        address = memory.stack.base + 4096
        memory.write_int(address, 0x1122334455667788, 8)
        assert memory.read_bytes(address - 4, 16) == (
            b"\x00" * 4 + (0x1122334455667788).to_bytes(8, "little") + b"\x00" * 4
        )

    @pytest.mark.parametrize(
        "action, address, kind",
        [
            ("touch", STACK_TOP - DEFAULT_STACK_LIMIT - 1, "stack-overflow"),
            ("touch", STACK_TOP - DEFAULT_STACK_LIMIT - 4096, "stack-overflow"),
            ("read", STACK_TOP, "unmapped"),
            ("write", STACK_TOP - 4, "unmapped"),
            ("read", STACK_TOP - DEFAULT_STACK_LIMIT - 1, "unmapped"),
            ("read", 0x10, "null-deref"),
            ("write", 0xFF8, "null-deref"),
        ],
    )
    def test_faults_at_the_same_addresses(self, memory, action, address, kind):
        with pytest.raises(VMFault) as excinfo:
            if action == "touch":
                memory.touch_stack(address)
            elif action == "read":
                memory.read_int(address, 8, signed=False)
            else:
                memory.write_int(address, 1, 8)
        assert (excinfo.value.kind, excinfo.value.address) == (kind, address)

    def test_read_cstring_finds_nul_on_the_stack(self, memory):
        address = STACK_TOP - 64
        memory.write_bytes(address, b"hello")  # the next byte was never written
        assert memory.read_cstring(address) == b"hello"
        assert memory.read_cstring(STACK_TOP - 1) == b""
        memory.write_bytes(STACK_TOP - 3, b"xyz")  # no NUL before the top
        with pytest.raises(VMFault) as excinfo:
            memory.read_cstring(STACK_TOP - 3)
        assert (excinfo.value.kind, excinfo.value.address) == ("unmapped", STACK_TOP)


class TestMmapStack:
    """The stack is a private anonymous mmap: zero pages per process,
    copy-on-write across fork, fixed bounds."""

    DIRTY_SRC = """
    int fill(int n) {
      char buf[256];
      int i = 0;
      while (i < 256) { buf[i] = (char)(n + i + 1); i = i + 1; }
      if (n == 0) return buf[7];
      return fill(n - 1) + buf[3];
    }
    int main() { return fill(40) & 255; }
    """

    def test_fresh_machine_reads_zero_where_a_run_wrote(self):
        from repro.core.pipeline import compile_source
        from repro.vm.interpreter import Machine

        module = compile_source(self.DIRTY_SRC)
        dirty = Machine(module)
        assert dirty.run().outcome == "exit"
        stack = dirty.memory.stack
        image = bytes(stack.data)
        touched = [stack.base + i for i, byte in enumerate(image) if byte]
        assert len(touched) > 40 * 256
        fresh = Machine(module)
        assert fresh.memory.stack.data is not stack.data
        for address in touched:
            assert fresh.memory.read_int(address, 1, signed=False) == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_does_not_share_stack_pages(self, memory):
        address = memory.stack.base + 4096
        memory.write_bytes(address, b"parent")
        pid = os.fork()
        if pid == 0:  # child: dirty the inherited stack, then leave
            try:
                memory.write_bytes(address, b"child!")
                memory.write_bytes(address + 8192, b"\xff")
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        assert memory.read_bytes(address, 6) == b"parent"
        assert memory.read_int(address + 8192, 1, signed=False) == 0

    def test_heap_cannot_grow_into_the_stack(self, memory):
        room = memory.stack.base - memory.heap.end
        memory.heap_grow(room)  # exactly up to the stack's base
        with pytest.raises(VMFault) as excinfo:
            memory.heap_grow(1)
        assert excinfo.value.kind == "out-of-memory"

    def test_touch_below_the_base_overflows(self, memory):
        memory.touch_stack(memory.stack.base)
        with pytest.raises(VMFault) as excinfo:
            memory.touch_stack(memory.stack.base - 16)
        assert excinfo.value.kind == "stack-overflow"

    def test_stack_segment_refuses_to_grow(self, memory):
        size = memory.stack.size
        with pytest.raises(VMError):
            memory.stack.grow(size + 4096)
        assert memory.stack.size == size == DEFAULT_STACK_LIMIT


DEEP_RECURSION_SRC = """
int depth(int n, int fill) {
  char pad[%d];
  pad[0] = n & 127;
  pad[%d] = fill;
  if (n == 0) return pad[0];
  return depth(n - 1, fill + 1) + pad[0] + pad[%d] - fill;
}
int main() { return depth(%d, 1) & 255; }
"""


class TestDeepRecursionEngines:
    """Frames deep into the stack, and one past its end, on every engine."""

    ENGINES = {"jit": {}, "fast": {"jit": False}, "slow": {"fast_dispatch": False}}

    def _runs(self, pad, depth):
        from repro.core.pipeline import compile_source
        from repro.vm.interpreter import Machine, result_fingerprint

        source = DEEP_RECURSION_SRC % (pad, pad - 1, pad - 1, depth)
        module = compile_source(source)
        return {
            engine: Machine(module, **kwargs).run()
            for engine, kwargs in self.ENGINES.items()
        }, result_fingerprint

    def test_deep_recursion_identical_on_all_engines(self):
        runs, fingerprint = self._runs(512, 3000)
        prints = {engine: fingerprint(run) for engine, run in runs.items()}
        assert prints["jit"] == prints["fast"] == prints["slow"]
        assert runs["jit"].outcome == "exit"
        assert runs["jit"].max_rss > DEFAULT_STACK_LIMIT // 2

    def test_stack_overflow_identical_on_all_engines(self):
        runs, fingerprint = self._runs(1024, 3000)
        prints = {engine: fingerprint(run) for engine, run in runs.items()}
        assert prints["jit"] == prints["fast"] == prints["slow"]
        assert runs["jit"].fault_kind == "stack-overflow"
