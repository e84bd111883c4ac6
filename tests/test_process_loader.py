"""Process image / loader tests."""

import pytest

from repro.core.pipeline import compile_source
from repro.errors import VMError
from repro.ir import Function, GlobalVariable, Module
from repro.minic import types as ct
from repro.vm.memory import CODE_BASE, DATA_BASE, RODATA_BASE
from repro.vm.process import FUNCTION_SLOT_SIZE, load


def module_with(*globals_):
    module = Module("m")
    fn = Function("main", ct.INT, [], [])
    block = fn.new_block("entry")
    from repro.ir import IRBuilder, Constant

    IRBuilder(fn, block).ret(Constant(ct.INT, 0))
    module.add_function(fn)
    for variable in globals_:
        module.add_global(variable)
    return module


class TestFunctionAddresses:
    def test_each_function_gets_a_code_slot(self):
        source = "int a() { return 1; } int b() { return 2; } int main() { return a() + b(); }"
        image = load(compile_source(source))
        addresses = list(image.function_addresses.values())
        assert len(addresses) == 3
        assert len(set(addresses)) == 3
        for address in addresses:
            assert address >= CODE_BASE
        spacing = sorted(addresses)
        assert spacing[1] - spacing[0] == FUNCTION_SLOT_SIZE

    def test_functions_by_address_roundtrip(self):
        image = load(compile_source("int main() { return 0; }"))
        address = image.address_of_function("main")
        assert image.functions_by_address[address].name == "main"

    def test_missing_symbols_raise(self):
        image = load(compile_source("int main() { return 0; }"))
        with pytest.raises(VMError):
            image.address_of_function("ghost")
        with pytest.raises(VMError):
            image.address_of_global("ghost")


class TestGlobalPlacement:
    def test_rw_globals_in_data_segment(self):
        image = load(module_with(GlobalVariable("g", ct.INT, b"\x2a")))
        address = image.address_of_global("g")
        assert DATA_BASE <= address
        assert image.memory.read_int(address, 4, signed=True) == 0x2A

    def test_readonly_globals_in_rodata(self):
        image = load(
            module_with(
                GlobalVariable("k", ct.ArrayType(ct.CHAR, 4), b"ro!", readonly=True)
            )
        )
        address = image.address_of_global("k")
        assert RODATA_BASE <= address < DATA_BASE
        from repro.errors import VMFault

        with pytest.raises(VMFault):
            image.memory.write_bytes(address, b"X")

    def test_alignment_respected(self):
        image = load(
            module_with(
                GlobalVariable("c", ct.CHAR, b"\x01"),
                GlobalVariable("l", ct.LONG, (7).to_bytes(8, "little")),
            )
        )
        assert image.address_of_global("l") % 8 == 0
        assert image.memory.read_int(image.address_of_global("l"), 8, True) == 7

    def test_declaration_order_preserved_in_data(self):
        source = "char g_a[4]; long g_b; char g_c[8]; int main() { return 0; }"
        image = load(compile_source(source))
        a = image.address_of_global("g_a")
        b = image.address_of_global("g_b")
        c = image.address_of_global("g_c")
        assert a < b < c  # the adjacency the data-segment attacks rely on

    def test_zero_initialized_by_default(self):
        image = load(module_with(GlobalVariable("z", ct.ArrayType(ct.LONG, 4))))
        address = image.address_of_global("z")
        assert image.memory.read_bytes(address, 32) == b"\x00" * 32


class TestFrameRecording:
    """Frames are recorded by the Tracer's ``call`` events only."""

    def test_record_frames_collects_local_addresses(self):
        from repro.obs import Tracer
        from repro.vm import Machine

        source = (
            "int helper(int x) { char buf[8]; buf[0] = (char)x; return buf[0]; }"
            "int main() { return helper(1) + helper(2); }"
        )
        tracer = Tracer()
        Machine(compile_source(source), tracer=tracer).run()
        helper_calls = [
            event for event in tracer.events
            if event["ev"] == "call" and event["fn"] == "helper"
        ]
        assert len(helper_calls) == 2
        layout = helper_calls[0]["layout"]
        assert "buf" in layout
        assert layout["buf"] < helper_calls[0]["frame_top"]

    def test_recording_off_by_default(self):
        from repro.vm import Machine

        machine = Machine(compile_source("int main() { return 0; }"))
        assert not machine.traced
        assert machine.run().outcome == "exit"
