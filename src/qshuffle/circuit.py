"""Gate-level circuit IR.

A circuit is an ordered gate list over named registers.  Each register is a
block of equally sized subregisters; bit 0 of a subregister is the least
significant bit of the integer it stores.  Gates are primitives from
{X, H, RY, RZ, SWAP} plus an arbitrary list of control conditions, each of
which requires a qubit to be 0 or 1 (negative controls are first-class, so
value-controlled gates need no X-conjugation until full lowering).

Gates name their qubits by global index, a plain int.  ``Circuit.qubit``
turns a (register, subregister, bit) address into its index, checked, where a
name enters the pipeline (builders, circuit files); ``ref_of`` turns an index
back into its address for text output.  IR objects are immutable, and a gate
list may hold one ``Gate`` object many times; ``extend`` checks each distinct
object once per call.

Also provides the cost classes of the counting alphabet and weighted
primitive counting.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from math import isfinite

PRIMITIVES = ("X", "H", "RY", "RZ", "SWAP")
ROTATIONS = ("RY", "RZ")
_TARGET_COUNT = {"X": 1, "H": 1, "RY": 1, "RZ": 1, "SWAP": 2}


@dataclass(frozen=True, slots=True)
class Register:
    """A named block of ``count`` subregisters, ``width`` qubits each."""

    name: str
    count: int
    width: int


@dataclass(frozen=True, slots=True)
class Control:
    qubit: int  # global index
    value: int  # required bit value, 0 or 1


@dataclass(frozen=True, slots=True)
class Gate:
    primitive: str
    angle: float | None
    targets: tuple[int, ...]  # global indices
    controls: tuple[Control, ...] = ()

    def with_controls(self, extra: tuple[Control, ...]) -> "Gate":
        return replace(self, controls=self.controls + tuple(extra))


def ctrl(qubit: int, value: int = 1) -> Control:
    return Control(qubit, value)


def gate_x(target: int, controls: tuple[Control, ...] = ()) -> Gate:
    return Gate("X", None, (target,), tuple(controls))


def gate_h(target: int, controls: tuple[Control, ...] = ()) -> Gate:
    return Gate("H", None, (target,), tuple(controls))


def gate_ry(angle: float, target: int, controls: tuple[Control, ...] = ()) -> Gate:
    return Gate("RY", angle, (target,), tuple(controls))


def gate_rz(angle: float, target: int, controls: tuple[Control, ...] = ()) -> Gate:
    return Gate("RZ", angle, (target,), tuple(controls))


def gate_swap(a: int, b: int, controls: tuple[Control, ...] = ()) -> Gate:
    return Gate("SWAP", None, (a, b), tuple(controls))


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
        regs = []
        for r in registers:
            regs.append(r if isinstance(r, Register) else Register(*r))
        self._by_name: dict[str, Register] = {r.name: r for r in regs}
        if len(self._by_name) != len(regs):
            raise ValueError(f"duplicate register name in {[r.name for r in regs]}")
        self._layout: dict[str, tuple[int, int, int]] = {}  # name -> (offset, count, width)
        offset = 0
        for r in regs:
            if type(r.name) is not str:
                raise ValueError(f"register name {r.name!r} is not a string")
            if type(r.count) is not int or type(r.width) is not int or min(r.count, r.width) < 1:
                raise ValueError(f"register {r.name!r} must have integer count >= 1 and width >= 1")
            self._layout[r.name] = (offset, r.count, r.width)
            offset += r.count * r.width
        self.num_qubits: int = offset
        self.registers: tuple[Register, ...] = tuple(regs)
        self.metadata: dict = dict(metadata or {})
        self.gates: list[Gate] = []

    def register(self, name: str) -> Register:
        reg = self._by_name.get(name)
        if reg is None:
            raise ValueError(f"unknown register {name!r}")
        return reg

    def qubit(self, reg: str, sub: int | None, bit: int) -> int:
        """Global index of ``bit`` (from the LSB) of subregister ``sub`` of
        ``reg``; ``sub=None`` means subregister 0."""
        entry = self._layout.get(reg)
        if entry is None:
            raise ValueError(f"unknown register {reg!r}")
        offset, count, width = entry
        sub = 0 if sub is None else sub
        if type(sub) is not int or not 0 <= sub < count:
            raise ValueError(f"subregister {reg}:{sub!r} not an int in range (count {count})")
        if type(bit) is not int or not 0 <= bit < width:
            raise ValueError(f"bit {bit!r} not an int in range for {reg} (width {width})")
        return offset + sub * width + bit

    def ref_of(self, index: int) -> tuple[str, int, int]:
        """The (register, subregister, bit) address of a global index: the inverse of ``qubit``."""
        if not 0 <= index < self.num_qubits:
            raise ValueError(f"qubit index {index} out of range")
        for name, (offset, count, width) in self._layout.items():
            if index < offset + count * width:
                return (name, *divmod(index - offset, width))
        raise AssertionError("unreachable")

    def register_qubits(self, name: str) -> list[int]:
        reg = self.register(name)
        base = self._layout[name][0]
        return list(range(base, base + reg.count * reg.width))

    def gate_qubits(self, gate: Gate) -> tuple[int, ...]:
        """Global indices touched by a gate: targets then control qubits."""
        return (*gate.targets, *[c.qubit for c in gate.controls])

    def append(self, gate: Gate) -> "Circuit":
        if gate.primitive not in PRIMITIVES:
            raise ValueError(f"unknown primitive {gate.primitive!r}")
        want = _TARGET_COUNT[gate.primitive]
        if len(gate.targets) != want:
            raise ValueError(f"{gate.primitive} takes {want} target(s), got {len(gate.targets)}")
        if (gate.angle is not None) != (gate.primitive in ROTATIONS):
            raise ValueError(f"angle must be present iff primitive is a rotation ({gate.primitive})")
        try:
            finite = gate.angle is None or (type(gate.angle) is not bool and isfinite(gate.angle))
        except (TypeError, OverflowError):  # not a real number, or an int beyond float range
            finite = False
        if not finite:
            raise ValueError(f"rotation angle must be a finite real number, got {gate.angle!r}")
        for c in gate.controls:
            if type(c.value) is not int or c.value not in (0, 1):
                raise ValueError(f"control value must be the int 0 or 1, got {c.value!r}")
        touched = self.gate_qubits(gate)
        for q in touched:
            if type(q) is not int or not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q!r} is not an int in range({self.num_qubits})")
        if len(set(touched)) != len(touched):
            raise ValueError(f"gate targets/controls overlap: {gate}")
        self.gates.append(gate)
        return self

    def extend(self, gates) -> "Circuit":
        checked = set()  # ids of the gates appended in this call, kept alive by self.gates
        for g in gates:
            if id(g) in checked:
                self.gates.append(g)
            else:
                self.append(g)
                checked.add(id(g))
        return self

    def copy_empty(self) -> "Circuit":
        return Circuit(self.registers, self.metadata)

    def __len__(self) -> int:
        return len(self.gates)


# cost class of each (primitive, number of controls) pair below two controls
_COST_CLASS = {("X", 0): "x", ("X", 1): "cx", ("H", 0): "h", ("H", 1): "ch",
               ("RY", 0): "ry", ("RY", 1): "cry", ("RZ", 0): "rz"}


def cost_class(primitive: str, num_controls: int) -> str:
    """Cost class of a gate in the counting alphabet, as a ``CostProfile``
    field name: x, cx, h, ch, ry, cry, rz, or mcx for X with m >= 2 controls.

    (Controlled) SWAPs, controlled RZ and multiply-controlled H/RY have no
    class and must be decomposed before counting.
    """
    cls = _COST_CLASS.get((primitive, num_controls))
    if cls is None:
        if primitive != "X" or num_controls < 2:
            raise ValueError(f"no cost class for {primitive} with {num_controls} controls; "
                             "lower it first")
        cls = "mcx"
    return cls


def _class_name(primitive: str, m: int) -> str:
    cls = cost_class(primitive, m)
    return f"C{m}X" if cls == "mcx" else cls.upper()


def primitive_class(gate: Gate) -> str:
    """Class name of a gate: X, CX, C{m}X (m >= 2), H, CH, RY, CRY, RZ."""
    return _class_name(gate.primitive, len(gate.controls))


def _arity_counts(circuit: Circuit) -> Counter:
    return Counter((g.primitive, len(g.controls)) for g in circuit.gates)


def primitive_multiset(circuit: Circuit) -> Counter:
    """Multiset of counting-alphabet classes over the gate list."""
    return Counter({_class_name(p, m): k for (p, m), k in _arity_counts(circuit).items()})


def count_primitives(circuit: Circuit, profile) -> int | float:
    """Total weighted gate count: sum of profile costs per (primitive, arity) class."""
    return sum(k * profile.cost(p, m) for (p, m), k in _arity_counts(circuit).items())
