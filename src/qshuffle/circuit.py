"""Gate-level circuit IR.

A circuit is an ordered gate list over named registers.  Each register is a
block of equally sized subregisters; bit 0 of a subregister is the least
significant bit of the integer it stores.  A gate is one of the primitives
X, H, RY, RZ on one target qubit plus an arbitrary list of control
conditions, each of which requires a qubit to be 0 or 1 (negative controls
are first-class, so value-controlled gates need no X-conjugation until full
lowering).  A register swap is written as X gates (``lowering.swap_gates``).
Every gate is spelled ``Gate(primitive, angle, target, controls)``, its angle
None for X and H, and every control ``Control(qubit, value)``.

Gates name their qubits by global index, a plain int.  ``Circuit.qubit``
turns a (register, subregister, bit) address of three ints into its index,
checked, where a name enters the pipeline (builders, circuit files); the
JSON writer spells each index back from its own per-call table.  IR objects
are immutable, and a gate list may hold one ``Gate`` object many times.
``Circuit.extend`` is the one way gates enter a circuit: it runs ``check``
(a ``Gate`` with a tuple of ``Control``, nothing else) once per distinct
object per call and appends the whole batch or, if a gate fails, none of it.

Every record type of the package is a named tuple: ``Gate``, ``Control`` and
``Register`` here, ``BuildSpec``, ``CostProfile``, ``ResourceReport``, ``Check``
and ``VerifyReport`` (a dataclass would write and compile its methods while
the CLI starts, each call a process of its own).  They unpack
(``primitive, angle, target, controls = gate``), change through ``_replace``
(``BuildSpec`` and ``CostProfile`` validate there as in their constructors),
turn into dicts through ``_asdict()``, and compare like plain tuples of their
fields, so a gate equals one whose angle is -0.0 for 0.0 or whose control
value is True for 1.  ``Gate`` and ``Control`` are built, hashed and unpacked
in C; every memo over them is keyed by identity, or by value with the angle's
``repr``.

Also provides the cost classes of the counting alphabet and weighted
primitive counting.
"""

from __future__ import annotations

import operator
from collections import Counter
from math import isfinite
from typing import NamedTuple

PRIMITIVES = ("X", "H", "RY", "RZ")
ROTATIONS = ("RY", "RZ")


def spec_int(name: str, value, least: int | None = None) -> int:
    """``value`` as an int; ValueError for a bool, what ``operator.index``
    refuses (2.9, "3") or an int below ``least``."""
    if type(value) is bool or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


def plain_int(text: str) -> int | None:
    """The int k whose ``str(k)`` is ``text``, else None: one spelling per
    integer, "3" or "-3", never "03", "+3", " 3", "3_0" or "٣"."""
    try:
        value = int(text)
    except (TypeError, ValueError):  # not an integer text, or over 4,300 digits
        return None
    return value if str(value) == text else None


class Register(NamedTuple):
    """A named block of ``count`` subregisters, ``width`` qubits each."""

    name: str
    count: int
    width: int


class Control(NamedTuple):
    qubit: int  # global index
    value: int  # required bit value, 0 or 1


class Gate(NamedTuple):
    primitive: str
    angle: float | None
    target: int  # global index
    controls: tuple[Control, ...] = ()


def value_controls(qubits, value: int) -> tuple[Control, ...]:
    """Controls requiring ``qubits`` (least significant bit first) to hold ``value``."""
    if value < 0 or value >= (1 << len(qubits)):
        raise ValueError(f"control value {value} does not fit in {len(qubits)} bits")
    return tuple(Control(q, (value >> k) & 1) for k, q in enumerate(qubits))


class Circuit:
    """Ordered gate list over a fixed register table.

    Global qubit numbering is a pure function of the table: registers in
    declaration order, subregisters ascending, bits ascending from the LSB.
    """

    def __init__(self, registers, metadata: dict | None = None):
        regs = [Register(*r) for r in registers]
        names = [r.name for r in regs]
        if len(set(names)) != len(regs):
            raise ValueError(f"duplicate register name in {names}")
        self._layout: dict[str, tuple[int, Register]] = {}  # name -> (offset, register)
        offset = 0
        for r in regs:
            if type(r.name) is not str:
                raise ValueError(f"register name {r.name!r} is not a string")
            if type(r.count) is not int or type(r.width) is not int or min(r.count, r.width) < 1:
                raise ValueError(f"register {r.name!r} must have integer count >= 1 and width >= 1")
            self._layout[r.name] = (offset, r)
            offset += r.count * r.width
        self.num_qubits: int = offset
        self.registers: tuple[Register, ...] = tuple(regs)
        self.metadata: dict = dict(metadata or {})
        self.gates: list[Gate] = []

    def register(self, name: str) -> Register:
        entry = self._layout.get(name)
        if entry is None:
            raise ValueError(f"unknown register {name!r}")
        return entry[1]

    def qubit(self, reg: str, sub: int, bit: int) -> int:
        """Global index of ``bit`` (from the LSB) of subregister ``sub`` of ``reg``."""
        entry = self._layout.get(reg)
        if entry is None:
            raise ValueError(f"unknown register {reg!r}")
        offset, r = entry
        if type(sub) is not int or not 0 <= sub < r.count:
            raise ValueError(f"subregister {reg}:{sub!r} not an int in range (count {r.count})")
        if type(bit) is not int or not 0 <= bit < r.width:
            raise ValueError(f"bit {bit!r} not an int in range for {reg} (width {r.width})")
        return offset + sub * r.width + bit

    def register_qubits(self, name: str) -> list[int]:
        reg = self.register(name)
        base = self._layout[name][0]
        return list(range(base, base + reg.count * reg.width))

    def gate_qubits(self, gate: Gate) -> tuple[int, ...]:
        """Global indices touched by a gate: control qubits, then the target."""
        return (*[c.qubit for c in gate.controls], gate.target)

    def check(self, gate: Gate) -> None:
        """Raise ValueError unless ``gate`` is a well-formed primitive on this
        circuit's qubits: its type and its controls' types, primitive, angle,
        control values, then each qubit (controls first) by type and range,
        then overlap.  No operand is hashed before its type is checked."""
        if type(gate) is not Gate or type(gate.controls) is not tuple:
            raise ValueError(f"not a Gate with a tuple of controls: {gate!r}")
        primitive, angle, target, controls = gate
        if primitive not in PRIMITIVES:
            raise ValueError(f"unknown primitive {primitive!r}")
        if angle is not None or primitive in ROTATIONS:
            if angle is None or primitive not in ROTATIONS:
                raise ValueError(f"angle must be present iff primitive is a rotation ({primitive})")
            try:
                finite = type(angle) is not bool and isfinite(angle)
            except (TypeError, OverflowError):  # not a real number, or an int beyond float range
                finite = False
            if not finite:
                raise ValueError(f"rotation angle must be a finite real number, got {angle!r}")
        for c in controls:
            if type(c) is not Control:
                raise ValueError(f"control {c!r} is not a Control")
            if type(c.value) is not int or c.value not in (0, 1):
                raise ValueError(f"control value must be the int 0 or 1, got {c.value!r}")
        touched = [c.qubit for c in controls]
        touched.append(target)
        n = self.num_qubits
        for q in touched:
            if type(q) is not int or not 0 <= q < n:
                raise ValueError(f"qubit {q!r} is not an int in range({n})")
        if len(set(touched)) != len(touched):
            raise ValueError(f"gate target/controls overlap: {gate}")

    def extend(self, gates) -> "Circuit":
        """Append ``gates`` in order, all or nothing: each distinct object is
        checked once, and a gate that fails raises with no gate appended."""
        gates = list(gates)  # keeps each object alive while its id is a key
        for g in dict(zip(map(id, gates), gates)).values():
            self.check(g)
        self.gates += gates
        return self

    def __len__(self) -> int:
        return len(self.gates)


# cost class of each (primitive, number of controls) pair below two controls
_COST_CLASS = {("X", 0): "x", ("X", 1): "cx", ("H", 0): "h", ("H", 1): "ch",
               ("RY", 0): "ry", ("RY", 1): "cry", ("RZ", 0): "rz"}


def cost_class(primitive: str, num_controls: int) -> str:
    """Cost class of a gate in the counting alphabet, as a ``CostProfile``
    field name: x, cx, h, ch, ry, cry, rz, or mcx for X with m >= 2 controls.

    Controlled RZ and multiply-controlled H/RY have no class and must be
    decomposed before counting.
    """
    cls = _COST_CLASS.get((primitive, num_controls))
    if cls is None:
        if primitive != "X" or num_controls < 2:
            raise ValueError(f"no cost class for {primitive} with {num_controls} controls; "
                             "lower it first")
        cls = "mcx"
    return cls


def count_primitives(circuit: Circuit, profile) -> int | float:
    """Total weighted gate count: sum of profile costs per (primitive, arity) class."""
    counts = Counter((primitive, len(controls)) for primitive, _, _, controls in circuit.gates)
    return sum(k * profile.cost(p, m) for (p, m), k in counts.items())
