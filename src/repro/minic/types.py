"""The Mini-C type system.

Types know their size and alignment under the reproduction's fixed data
layout, which mirrors the LP64 model the paper's x86-64 testbed used:

=========  ====  =========
type       size  alignment
=========  ====  =========
char       1     1
short      2     2
int        4     4
long       8     8
float      4     4
double     8     8
pointer    8     8
=========  ====  =========

Struct layout follows the usual C rules: each field is placed at the next
offset aligned to its own alignment, and the struct's alignment is the
maximum field alignment, with the total size rounded up to that alignment.
These sizes/alignments are exactly the inputs Smokestack's permutation
engine consumes (paper §III-D, "Alignment requirements").
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import SemanticError

POINTER_SIZE = 8
POINTER_ALIGN = 8


class CType:
    """Base class for all Mini-C types."""

    def size(self) -> int:
        """Size in bytes.  Raises for incomplete types (e.g. VLAs)."""
        raise NotImplementedError

    def alignment(self) -> int:
        """Required alignment in bytes."""
        raise NotImplementedError

    def is_complete(self) -> bool:
        """Whether the size is known at compile time."""
        return True

    def is_integer(self) -> bool:
        return False

    def is_float(self) -> bool:
        return False

    def is_arithmetic(self) -> bool:
        return self.is_integer() or self.is_float()

    def is_pointer(self) -> bool:
        return False

    def is_array(self) -> bool:
        return False

    def is_struct(self) -> bool:
        return False

    def is_void(self) -> bool:
        return False

    def is_scalar(self) -> bool:
        return self.is_arithmetic() or self.is_pointer()

    def __eq__(self, other: object) -> bool:
        raise NotImplementedError

    def __hash__(self) -> int:
        raise NotImplementedError


class VoidType(CType):
    """The ``void`` type: no size, only usable behind pointers / as return."""

    def size(self) -> int:
        raise SemanticError("void type has no size")

    def alignment(self) -> int:
        raise SemanticError("void type has no alignment")

    def is_void(self) -> bool:
        return True

    def is_complete(self) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VoidType)

    def __hash__(self) -> int:
        return hash("void")

    def __str__(self) -> str:
        return "void"


class IntType(CType):
    """An integer type of a given width and signedness."""

    __slots__ = ("name", "_size", "signed")

    def __init__(self, name: str, size: int, signed: bool = True):
        self.name = name
        self._size = size
        self.signed = signed

    def size(self) -> int:
        return self._size

    def alignment(self) -> int:
        return self._size

    def is_integer(self) -> bool:
        return True

    def min_value(self) -> int:
        if self.signed:
            return -(1 << (self._size * 8 - 1))
        return 0

    def max_value(self) -> int:
        if self.signed:
            return (1 << (self._size * 8 - 1)) - 1
        return (1 << (self._size * 8)) - 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntType)
            and other._size == self._size
            and other.signed == self.signed
        )

    def __hash__(self) -> int:
        return hash(("int", self._size, self.signed))

    def __str__(self) -> str:
        return self.name


class FloatType(CType):
    """A floating-point type (``float`` or ``double``)."""

    __slots__ = ("name", "_size")

    def __init__(self, name: str, size: int):
        self.name = name
        self._size = size

    def size(self) -> int:
        return self._size

    def alignment(self) -> int:
        return self._size

    def is_float(self) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FloatType) and other._size == self._size

    def __hash__(self) -> int:
        return hash(("float", self._size))

    def __str__(self) -> str:
        return self.name


class PointerType(CType):
    """Pointer to ``pointee``."""

    __slots__ = ("pointee",)

    def __init__(self, pointee: CType):
        self.pointee = pointee

    def size(self) -> int:
        return POINTER_SIZE

    def alignment(self) -> int:
        return POINTER_ALIGN

    def is_pointer(self) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PointerType) and other.pointee == self.pointee

    def __hash__(self) -> int:
        return hash(("ptr", self.pointee))

    def __str__(self) -> str:
        return f"{self.pointee}*"


class ArrayType(CType):
    """Array of ``element``; ``length is None`` means a VLA / incomplete array.

    VLAs are central to the paper: Smokestack defers their randomization to
    runtime by inserting a random-sized dummy allocation before each VLA
    (§III-D.1), so the type system must represent them distinctly.
    """

    __slots__ = ("element", "length")

    def __init__(self, element: CType, length: Optional[int]):
        if length is not None and length < 0:
            raise SemanticError("array length cannot be negative")
        self.element = element
        self.length = length

    def size(self) -> int:
        if self.length is None:
            raise SemanticError("size of variable-length array is not static")
        return self.element.size() * self.length

    def alignment(self) -> int:
        return self.element.alignment()

    def is_array(self) -> bool:
        return True

    def is_complete(self) -> bool:
        return self.length is not None and self.element.is_complete()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrayType)
            and other.element == self.element
            and other.length == self.length
        )

    def __hash__(self) -> int:
        return hash(("array", self.element, self.length))

    def __str__(self) -> str:
        length = "" if self.length is None else str(self.length)
        return f"{self.element}[{length}]"


class StructType(CType):
    """A struct with named fields laid out per the C ABI rules.

    Field offsets (including inter-field padding) are computed eagerly when
    the struct is completed with :meth:`set_fields`; this is the recursive
    aggregate-alignment computation the paper describes in §IV-A.
    """

    def __init__(self, tag: str):
        self.tag = tag
        self._fields: Optional[List[Tuple[str, CType]]] = None
        self._offsets: List[int] = []
        self._size = 0
        self._align = 1

    @property
    def fields(self) -> List[Tuple[str, CType]]:
        if self._fields is None:
            raise SemanticError(f"struct {self.tag} is incomplete")
        return self._fields

    def set_fields(self, fields: Sequence[Tuple[str, CType]]) -> None:
        if self._fields is not None:
            raise SemanticError(f"struct {self.tag} redefined")
        seen = set()
        offsets = []
        offset = 0
        align = 1
        for name, field_type in fields:
            if name in seen:
                raise SemanticError(
                    f"duplicate field '{name}' in struct {self.tag}"
                )
            if not field_type.is_complete():
                raise SemanticError(
                    f"field '{name}' of struct {self.tag} has incomplete type"
                )
            seen.add(name)
            field_align = field_type.alignment()
            offset = align_up(offset, field_align)
            offsets.append(offset)
            offset += field_type.size()
            align = max(align, field_align)
        self._fields = list(fields)
        self._offsets = offsets
        self._align = align
        self._size = align_up(offset, align) if fields else 0

    def is_complete(self) -> bool:
        return self._fields is not None

    def size(self) -> int:
        if self._fields is None:
            raise SemanticError(f"struct {self.tag} is incomplete")
        return self._size

    def alignment(self) -> int:
        if self._fields is None:
            raise SemanticError(f"struct {self.tag} is incomplete")
        return self._align

    def is_struct(self) -> bool:
        return True

    def field_index(self, name: str) -> int:
        for index, (field_name, _) in enumerate(self.fields):
            if field_name == name:
                return index
        raise SemanticError(f"struct {self.tag} has no field '{name}'")

    def field_offset(self, index: int) -> int:
        self.fields  # raise if incomplete
        return self._offsets[index]

    def field_type(self, index: int) -> CType:
        return self.fields[index][1]

    # Structs use nominal identity (same as C): two structs are the same
    # type only if they are the same object.
    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return id(self)

    def __str__(self) -> str:
        return f"struct {self.tag}"


class FunctionType(CType):
    """The type of a function: return type + parameter types."""

    __slots__ = ("return_type", "params", "variadic")

    def __init__(self, return_type: CType, params: Sequence[CType], variadic: bool = False):
        self.return_type = return_type
        self.params = list(params)
        self.variadic = variadic

    def size(self) -> int:
        raise SemanticError("function type has no size")

    def alignment(self) -> int:
        raise SemanticError("function type has no alignment")

    def is_complete(self) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionType)
            and other.return_type == self.return_type
            and other.params == self.params
            and other.variadic == self.variadic
        )

    def __hash__(self) -> int:
        return hash(("fn", self.return_type, tuple(self.params), self.variadic))

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        if self.variadic:
            params = params + ", ..." if params else "..."
        return f"{self.return_type}({params})"


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``.

    This is the ALIGN procedure from the paper's Algorithm 1.
    """
    if alignment <= 0:
        raise ValueError("alignment must be positive")
    remainder = value % alignment
    if remainder == 0:
        return value
    return value + alignment - remainder


# Canonical type singletons.  Mini-C code should use these rather than
# constructing fresh IntType instances, so identity-ish comparisons stay cheap.
VOID = VoidType()
CHAR = IntType("char", 1, signed=True)
UCHAR = IntType("unsigned char", 1, signed=False)
SHORT = IntType("short", 2, signed=True)
USHORT = IntType("unsigned short", 2, signed=False)
INT = IntType("int", 4, signed=True)
UINT = IntType("unsigned int", 4, signed=False)
LONG = IntType("long", 8, signed=True)
ULONG = IntType("unsigned long", 8, signed=False)
FLOAT = FloatType("float", 4)
DOUBLE = FloatType("double", 8)


def common_arithmetic_type(left: CType, right: CType) -> CType:
    """The usual arithmetic conversions, simplified for Mini-C.

    Floats dominate integers; otherwise the wider integer wins; at equal
    width, unsigned wins.  Everything at least ``int``-promotes.
    """
    if not (left.is_arithmetic() and right.is_arithmetic()):
        raise SemanticError(
            f"cannot combine non-arithmetic types {left} and {right}"
        )
    if left.is_float() or right.is_float():
        candidates = [t for t in (left, right) if t.is_float()]
        return max(candidates, key=lambda t: t.size())
    left = integer_promote(left)
    right = integer_promote(right)
    assert isinstance(left, IntType) and isinstance(right, IntType)
    if left.size() != right.size():
        return left if left.size() > right.size() else right
    if left.signed == right.signed:
        return left
    return left if not left.signed else right


def integer_promote(type_: CType) -> CType:
    """Promote sub-int integers to ``int`` (C's integer promotions)."""
    if isinstance(type_, IntType) and type_.size() < INT.size():
        return INT
    return type_
