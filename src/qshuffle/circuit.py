"""Gate-level circuit IR.

A circuit is an ordered gate list over named registers.  Each register is a
block of equally sized subregisters; bit 0 of a subregister is the least
significant bit of the integer it stores.  Gates are primitives from
{X, H, RY, RZ, SWAP} plus an arbitrary list of control conditions, each of
which requires a qubit to be 0 or 1 (negative controls are first-class, so
value-controlled gates need no X-conjugation until full lowering).

IR objects are immutable and shared: a circuit hands out one ``QubitRef``
per qubit (``Circuit.ref``), checked once and then resolved by identity, and
a gate list may hold one ``Gate`` object many times; ``extend`` checks each
distinct object once per call.

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
class QubitRef:
    """A qubit addressed as (register, subregister, bit).

    ``sub=None`` is accepted and means subregister 0, for single-subregister
    registers.  ``bit`` counts from the least significant bit.
    """

    reg: str
    sub: int | None
    bit: int


@dataclass(frozen=True, slots=True)
class Control:
    qubit: QubitRef
    value: int  # required bit value, 0 or 1


@dataclass(frozen=True, slots=True)
class Gate:
    primitive: str
    angle: float | None
    targets: tuple[QubitRef, ...]
    controls: tuple[Control, ...] = ()

    def with_controls(self, extra: tuple[Control, ...]) -> "Gate":
        return replace(self, controls=self.controls + tuple(extra))


def ctrl(qubit: QubitRef, value: int = 1) -> Control:
    return Control(qubit, value)


def gate_x(target: QubitRef, controls: tuple[Control, ...] = ()) -> Gate:
    return Gate("X", None, (target,), tuple(controls))


def gate_h(target: QubitRef, controls: tuple[Control, ...] = ()) -> Gate:
    return Gate("H", None, (target,), tuple(controls))


def gate_ry(angle: float, target: QubitRef, controls: tuple[Control, ...] = ()) -> Gate:
    return Gate("RY", angle, (target,), tuple(controls))


def gate_rz(angle: float, target: QubitRef, controls: tuple[Control, ...] = ()) -> Gate:
    return Gate("RZ", angle, (target,), tuple(controls))


def gate_swap(a: QubitRef, b: QubitRef, controls: tuple[Control, ...] = ()) -> Gate:
    return Gate("SWAP", None, (a, b), tuple(controls))


def value_controls(reg: str, sub: int, value: int, width: int, ref=QubitRef) -> tuple[Control, ...]:
    """Controls requiring subregister (reg, sub) to hold ``value`` on its low ``width`` bits."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"control value {value} does not fit in {width} bits")
    return tuple(Control(ref(reg, sub, k), (value >> k) & 1) for k in range(width))


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
        self._refs: dict[tuple, QubitRef] = {}  # (reg, sub, bit, their types) -> ref, made lazily
        self._known: dict[int, int] = {}  # id of a canonical ref (kept by _refs) -> index

    def register(self, name: str) -> Register:
        reg = self._by_name.get(name)
        if reg is None:
            raise ValueError(f"unknown register {name!r}")
        return reg

    def ref(self, reg: str, sub: int | None, bit: int) -> QubitRef:
        """The circuit's one QubitRef for (reg, sub, bit), checked when first made.
        The key carries the types, so ``sub=True`` or ``1.0`` never finds ``reg[1]``."""
        key = (reg, sub, bit, type(sub), type(bit))
        try:
            ref = self._refs.get(key)
        except TypeError:  # an unhashable sub or bit: the check below names it
            ref = None
        if ref is None:
            ref = QubitRef(reg, sub, bit)
            self._known[id(ref)] = self._resolve(ref)
            self._refs[key] = ref
        return ref

    def qubit_index(self, ref: QubitRef) -> int:
        """Global index: a canonical ref by identity, any other by the full check."""
        index = self._known.get(id(ref))
        return self._resolve(ref) if index is None else index

    def _resolve(self, ref: QubitRef) -> int:
        entry = self._layout.get(ref.reg)
        if entry is None:
            raise ValueError(f"unknown register {ref.reg!r}")
        offset, count, width = entry
        sub = 0 if ref.sub is None else ref.sub
        if type(sub) is not int or not 0 <= sub < count:
            raise ValueError(f"subregister {ref.reg}:{sub!r} not an int in range (count {count})")
        bit = ref.bit
        if type(bit) is not int or not 0 <= bit < width:
            raise ValueError(f"bit {bit!r} not an int in range for {ref.reg} (width {width})")
        return offset + sub * width + bit

    def ref_of(self, index: int) -> QubitRef:
        """Inverse of qubit_index."""
        if not 0 <= index < self.num_qubits:
            raise ValueError(f"qubit index {index} out of range")
        for name, (offset, count, width) in self._layout.items():
            if index < offset + count * width:
                local = index - offset
                return self.ref(name, local // width, local % width)
        raise AssertionError("unreachable")

    def register_qubits(self, name: str) -> list[int]:
        reg = self.register(name)
        base = self._layout[name][0]
        return list(range(base, base + reg.count * reg.width))

    def gate_qubits(self, gate: Gate) -> tuple[int, ...]:
        """Global indices touched by a gate: targets then control qubits."""
        known = self._known
        try:  # every ref canonical: one lookup each
            return tuple([known[id(q)] for q in gate.targets] + [known[id(c.qubit)] for c in gate.controls])
        except KeyError:
            return tuple([self.qubit_index(q) for q in (*gate.targets, *[c.qubit for c in gate.controls])])

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
        out = Circuit(self.registers, self.metadata)
        out._refs, out._known = self._refs, self._known
        return out

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
