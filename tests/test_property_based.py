"""Property-based tests (hypothesis) on core invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.overflow import le64, overflow_payload, read_le64, relative_payload
from repro.attacks.proftpd import stacked_writes
from repro.core.pipeline import compile_source, harden_source
from repro.synth.facts import ProgramFacts
from repro.core import SmokestackConfig
from repro.minic import types as ct
from repro.minic.lexer import tokenize
from repro.minic.tokens import TokenKind
from repro.rng import DeterministicEntropy, xorshift64_step
from repro.vm import Machine
from repro.vm.interpreter import _apply_binop, _wrap_int
from repro.vm.memory import DATA_BASE, Memory


# -- integer semantics ---------------------------------------------------------------

int_types = st.sampled_from([ct.CHAR, ct.UCHAR, ct.SHORT, ct.INT, ct.UINT, ct.LONG, ct.ULONG])
big_ints = st.integers(min_value=-(2**70), max_value=2**70)


@given(big_ints, int_types)
def test_wrap_int_in_range(value, ctype):
    wrapped = _wrap_int(value, ctype)
    assert ctype.min_value() <= wrapped <= ctype.max_value()


@given(big_ints, int_types)
def test_wrap_int_idempotent(value, ctype):
    once = _wrap_int(value, ctype)
    assert _wrap_int(once, ctype) == once


@given(st.integers(-(2**31), 2**31 - 1), st.integers(-(2**31), 2**31 - 1))
def test_add_matches_c_semantics(a, b):
    result = _apply_binop("add", a, b, ct.INT)
    expected = (a + b) & 0xFFFFFFFF
    if expected >= 2**31:
        expected -= 2**32
    assert result == expected


@given(st.integers(-(2**31), 2**31 - 1), st.integers(1, 2**31 - 1))
def test_sdiv_srem_identity(a, b):
    q = _apply_binop("sdiv", a, b, ct.INT)
    r = _apply_binop("srem", a, b, ct.INT)
    assert q * b + r == a
    assert abs(r) < b


# -- memory --------------------------------------------------------------------------

@given(st.binary(min_size=1, max_size=64), st.integers(0, 192))
def test_memory_write_read_roundtrip(data, offset):
    memory = Memory()
    memory.install("data", b"\x00" * 256)
    memory.write_bytes(DATA_BASE + offset, data)
    assert memory.read_bytes(DATA_BASE + offset, len(data)) == data


@given(st.integers(0, 2**64 - 1), st.sampled_from([1, 2, 4, 8]))
def test_memory_int_roundtrip_unsigned(value, size):
    memory = Memory()
    memory.install("data", b"\x00" * 16)
    memory.write_int(DATA_BASE, value, size)
    mask = (1 << (size * 8)) - 1
    assert memory.read_int(DATA_BASE, size, signed=False) == value & mask


# -- lexer ----------------------------------------------------------------------------

identifier = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,10}", fullmatch=True)


@given(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=8))
def test_lexer_integer_values_roundtrip(values):
    source = " ".join(str(v) for v in values)
    tokens = tokenize(source)
    literals = [t.value for t in tokens if t.kind is TokenKind.INT_LITERAL]
    assert literals == values


@given(identifier)
def test_lexer_identifier_roundtrip(name):
    tokens = tokenize(name)
    assert tokens[0].kind in (TokenKind.IDENT, *[
        k for k in TokenKind if k.name.startswith("KW_")
    ])
    if tokens[0].kind is TokenKind.IDENT:
        assert tokens[0].value == name


# -- payload builders -------------------------------------------------------------------

@given(st.integers(0, 2**64 - 1))
def test_le64_roundtrip(value):
    assert read_le64(le64(value)) == value


@given(st.integers(0, 200), st.binary(min_size=1, max_size=16))
def test_relative_payload_places_value(gap, value):
    payload = relative_payload(gap, value)
    assert payload[gap : gap + len(value)] == value
    assert len(payload) == gap + len(value)


@given(
    st.binary(min_size=1, max_size=48).map(lambda b: b + b"\x00"),
)
@settings(max_examples=80)
def test_stacked_writes_compose_any_image(image):
    writes = stacked_writes(image)
    memory = bytearray(b"\xcc" * (len(image) + 8))
    for write in writes:
        assert b"\x00" not in write  # valid C strings
        memory[: len(write)] = write
        memory[len(write)] = 0
    assert bytes(memory[: len(image)]) == image


# -- end-to-end semantic preservation ---------------------------------------------------

@given(
    st.lists(st.integers(-100, 100), min_size=1, max_size=6),
    st.integers(0, 3),
)
@settings(max_examples=20, deadline=None)
def test_hardened_programs_compute_identically(values, seed):
    """Randomly-generated arithmetic programs behave identically hardened."""
    body = []
    names = []
    for index, value in enumerate(values):
        body.append(f"long v{index} = {value};")
        names.append(f"v{index}")
    expression = " + ".join(names)
    source = (
        "int main() { %s char pad[16]; pad[0] = 1;"
        " return (int)((%s) & 0x7f); }" % (" ".join(body), expression)
    )
    baseline = Machine(compile_source(source)).run()
    hardened = harden_source(source, SmokestackConfig())
    machine = hardened.make_machine(entropy=DeterministicEntropy(seed))
    result = machine.run()
    assert result.exit_code == baseline.exit_code


# -- xorshift ---------------------------------------------------------------------------

@given(st.integers(1, 2**64 - 1))
def test_xorshift_stays_in_range_and_nonzero(state):
    for _ in range(4):
        state = xorshift64_step(state)
        assert 0 < state < 2**64


# -- optimizer equivalence ----------------------------------------------------------------

@given(
    st.lists(st.integers(-50, 50), min_size=2, max_size=5),
    st.integers(1, 12),
)
@settings(max_examples=20, deadline=None)
def test_optimizer_preserves_random_loop_programs(values, bound):
    """Random accumulate-loop programs compute identically at -O2."""
    body = []
    terms = []
    for index, value in enumerate(values):
        body.append(f"long v{index} = {value};")
        terms.append(f"v{index}")
    source = (
        "int main() {\n"
        + "\n".join(body)
        + f"""
        long total = 0;
        for (int i = 0; i < {bound}; i++) {{
            total += {' + '.join(terms)} + i;
            v0 = v0 + 1;
        }}
        return (int)(total & 0x7fff);
    }}"""
    )
    baseline = Machine(compile_source(source)).run()
    optimized = Machine(compile_source(source, opt_level=2)).run()
    assert baseline.finished_cleanly() and optimized.finished_cleanly()
    assert optimized.exit_code == baseline.exit_code


# -- gep/elemptr offset arithmetic ---------------------------------------------------

elem_types = st.sampled_from([
    ("char", 1), ("short", 2), ("int", 4), ("long", 8),
])


@given(elem_types, st.integers(0, 15))
@settings(max_examples=25, deadline=None)
def test_gep_constant_and_dynamic_index_agree(spec, index):
    """a[k] through elemptr: fast dispatch (with its constant-folding
    getters), slow dispatch, and the direct model must all agree."""
    ctype, _size = spec
    source = f"""
    int main() {{
        {ctype} a[16];
        for (int i = 0; i < 16; i++) {{
            a[i] = ({ctype})(i * 3 + 1);
        }}
        int k = {index};
        return (int)(a[{index}] + a[k]);
    }}"""
    results = []
    for engine in ("fast", "slow"):
        result = Machine(compile_source(source), engine=engine).run()
        assert result.finished_cleanly()
        results.append(result)
    fast, slow = results
    assert fast.exit_code == slow.exit_code
    assert fast.exit_code == (2 * (index * 3 + 1)) & 0xFF


@given(st.integers(-8, 7))
@settings(max_examples=20, deadline=None)
def test_gep_negative_pointer_index_wraps_identically(offset):
    """p[k] for k < 0 exercises the elemptr wraparound (&_U64) path:
    both dispatch modes must land on the same element."""
    source = f"""
    int main() {{
        long a[16];
        for (int i = 0; i < 16; i++) {{
            a[i] = i * 5;
        }}
        long *p = &a[8];
        return (int)(p[{offset}]);
    }}"""
    expected = (8 + offset) * 5
    for engine in ("fast", "slow"):
        result = Machine(compile_source(source), engine=engine).run()
        assert result.finished_cleanly()
        assert result.exit_code == expected


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=15, deadline=None)
def test_gep_struct_array_field_chain(i, j):
    """fieldptr + elemptr chains (s.arr[i]) match plain arithmetic."""
    source = f"""
    struct pair {{
        long head;
        long arr[4];
    }};
    int main() {{
        struct pair s;
        s.head = 100;
        for (int k = 0; k < 4; k++) {{
            s.arr[k] = k * 7;
        }}
        return (int)(s.arr[{i}] + s.arr[{j}] + s.head);
    }}"""
    for engine in ("fast", "slow"):
        result = Machine(compile_source(source), engine=engine).run()
        assert result.finished_cleanly()
        assert result.exit_code == i * 7 + j * 7 + 100


# -- typed memory access at segment boundaries ---------------------------------------

from repro.errors import VMFault  # noqa: E402
from repro.vm.memory import HEAP_BASE, STACK_TOP  # noqa: E402

int_sizes = st.sampled_from([1, 2, 4, 8])


@given(st.integers(0, 2**64 - 1), int_sizes)
def test_data_roundtrip_at_exact_segment_end(value, size):
    """The last in-bounds address: the PR 1 fast path's boundary."""
    memory = Memory()
    memory.install("data", b"\x00" * 64)
    address = DATA_BASE + 64 - size
    memory.write_int(address, value, size)
    mask = (1 << (size * 8)) - 1
    assert memory.read_int(address, size, signed=False) == value & mask


@given(st.integers(0, 2**64 - 1), int_sizes, st.integers(1, 8))
def test_data_access_straddling_segment_end_faults(value, size, overhang):
    """address + size crossing the segment end must fault (the fast path
    falls through to the checked path), and must not partially write."""
    memory = Memory()
    memory.install("data", b"\x00" * 64)
    address = DATA_BASE + 64 - size + overhang
    before = bytes(memory.data.data)
    with pytest.raises(VMFault):
        memory.write_int(address, value, size)
    with pytest.raises(VMFault):
        memory.read_int(address, size, signed=False)
    assert bytes(memory.data.data) == before


@given(st.integers(0, 2**64 - 1), int_sizes)
def test_stack_roundtrip_at_lowest_valid_address(value, size):
    memory = Memory()
    base = memory.stack.base
    memory.write_int(base, value, size)
    mask = (1 << (size * 8)) - 1
    assert memory.read_int(base, size, signed=False) == value & mask


@given(int_sizes)
def test_stack_access_below_base_faults(size):
    memory = Memory()
    with pytest.raises(VMFault):
        memory.read_int(memory.stack.base - size, size, signed=False)


@given(st.integers(0, 2**64 - 1), int_sizes)
def test_stack_roundtrip_at_top(value, size):
    """STACK_TOP is exclusive: [TOP - size, TOP) is the last valid slot."""
    memory = Memory()
    address = STACK_TOP - size
    memory.write_int(address, value, size)
    mask = (1 << (size * 8)) - 1
    assert memory.read_int(address, size, signed=False) == value & mask
    with pytest.raises(VMFault):
        memory.read_int(STACK_TOP - size + 1, size, signed=False)


@given(st.integers(0, 2**64 - 1), int_sizes)
def test_heap_boundary_tracks_heap_grow(value, size):
    memory = Memory()
    with pytest.raises(VMFault):
        memory.read_int(HEAP_BASE, size, signed=False)  # nothing mapped yet
    memory.heap_grow(32)
    address = HEAP_BASE + 32 - size
    memory.write_int(address, value, size)
    mask = (1 << (size * 8)) - 1
    assert memory.read_int(address, size, signed=False) == value & mask
    with pytest.raises(VMFault):
        memory.write_int(HEAP_BASE + 32 - size + 1, value, size)


@given(st.integers(-(2**63), 2**63 - 1), int_sizes)
def test_signed_roundtrip_matches_two_complement(value, size):
    """write_int stores the masked bits; a signed read must recover the
    two's-complement reinterpretation on every segment's fast path."""
    memory = Memory()
    memory.install("data", b"\x00" * 16)
    memory.heap_grow(16)
    mask = (1 << (size * 8)) - 1
    expected = value & mask
    if expected >= 1 << (size * 8 - 1):
        expected -= 1 << (size * 8)
    for address in (DATA_BASE, HEAP_BASE, memory.stack.base):
        memory.write_int(address, value, size)
        assert memory.read_int(address, size, signed=True) == expected


# -- defense layout families ---------------------------------------------------------

from repro.analysis import reach  # noqa: E402
from repro.defenses.registry import SCHEMES  # noqa: E402


@st.composite
def frame_programs(draw):
    """A one-frame Mini-C program with seeded slot mix + ground truth.

    ``tainted`` routes input into the first buffer so the cleanstack
    partition has a nonempty unclean class on some examples and is
    empty on others — both family shapes get exercised.
    """
    n_longs = draw(st.integers(min_value=1, max_value=4))
    arrays = draw(
        st.lists(st.sampled_from([8, 16, 24, 32, 40]), min_size=1, max_size=3)
    )
    decls = [f"    long v{i} = {i + 1};" for i in range(n_longs)]
    decls += [f"    char b{i}[{size}];" for i, size in enumerate(arrays)]
    decls = draw(st.permutations(decls))
    tainted = draw(st.booleans())
    fill = (
        f"    long n = input_read(b0, {arrays[0]});"
        if tainted
        else "    long n = 0;"
    )
    lines = [
        "long work() {",
        *decls,
        fill,
        "    b0[0] = 1;",
        "    return n;",
        "}",
        "",
        "int main() { return (int)work(); }",
        "",
    ]
    names = [f"v{i}" for i in range(n_longs)]
    names += [f"b{i}" for i in range(len(arrays))]
    return "\n".join(lines), names


@settings(max_examples=12, deadline=None)
@given(frame_programs(), st.integers(min_value=0, max_value=2**16))
def test_defense_layout_families_satisfy_frame_invariants(program, seed):
    """Every registered defense's sampled layouts are well-formed frames:
    all slots below the frame top, pairwise disjoint, word slots
    8-aligned, the frame tall enough to hold them, and no declared
    variable ever dropped from the layout."""
    source, names = program
    facts = ProgramFacts(source, "prop-frames")
    function = facts.of(facts.function("work"))
    for scheme in SCHEMES:
        defense = scheme.name
        layouts = scheme.layouts(function, samples=6, seed=seed)
        assert layouts, f"{defense}: empty layout family"
        for layout in layouts:
            named = {slot.name for slot in layout.named_slots()}
            assert set(names) <= named, f"{defense}: missing {set(names) - named}"
            assert all(slot.hi <= 0 for slot in layout.slots), (
                f"{defense}: slot above the frame top"
            )
            spans = sorted((slot.lo, slot.hi) for slot in layout.slots)
            for (_, hi_a), (lo_b, _) in zip(spans, spans[1:]):
                assert hi_a <= lo_b, f"{defense}: overlapping slots {spans}"
            for slot in layout.named_slots():
                if slot.size == 8:
                    assert slot.lo % 8 == 0, (
                        f"{defense}: word slot {slot.name} misaligned at "
                        f"{slot.lo}"
                    )
            assert reach.frame_height(layout) >= sum(
                slot.size for slot in layout.named_slots()
            ), f"{defense}: frame shorter than its slots"
