"""Circuit serialisation: a JSON wire format and an OpenQASM 3 subset emitter.

JSON schema (field order fixed):
  {"registers": [{"name", "count", "width"}],
   "gates": [{"primitive", "angle", "targets": [{"reg", "sub", "bit"}],
              "controls": [{"reg", "sub", "bit", "value"}]}],
   "metadata": {...}}
Angles are radians, written with full float precision so a round trip
reproduces simulations bit-identically.  Gates hold global qubit indices; the
writer spells each index as its reg/sub/bit text and the reader turns each
address into its index (``Circuit.qubit``, which checks it).  A gate record
holds exactly one gate: one target, and an int ``sub`` in every address.  The
reader makes the gate of each distinct record once, keyed on the angle's repr
(-0.0 is not 0.0) and on int control values only (True == 1 == 1.0), so
``extend`` checks each once.  It reads in two steps, ``read_registers`` (the
parse and the register table) and ``read_gates``, so that a caller can refuse
a circuit by its width before any gate is built, and runs each with the cyclic
garbage collector paused: the parse and the gates make many objects and no
cycle, and at A n=64 the collector's walks were 40 % of a load.  The text is
``json.dumps`` of that schema byte for byte, but written without the nested
dicts: each call builds the text of every qubit (a list by index) and of
every control (a dict keyed by (qubit, value), which a ``Control`` equals)
from the register table, and writes the primitive's name as it is, since
``Circuit.extend`` checked it.  Both emitters encode each distinct gate
object once per call, angle included, found by identity (``_by_identity``),
so a shared gate costs one lookup in C and -0.0 never gets 0.0's text.

The QASM emitter writes one flat qubit array plus a comment mapping register
names to index ranges.  Single positive controls on X become cx; every other
control becomes a ctrl/negctrl modifier, in control-list order.
"""

from __future__ import annotations

import functools
import gc
import json

from .circuit import Circuit, Control, Gate


def _by_identity(encode, objs):
    """``map(encode, objs)``, with ``encode`` run once per distinct object of
    the list ``objs``, which keeps each object alive while its id is a key."""
    texts = {key: encode(obj) for key, obj in dict(zip(map(id, objs), objs)).items()}
    return map(texts.__getitem__, map(id, objs))


def circuit_to_json(circuit: Circuit) -> str:
    qubit = [f'{{"reg": {reg}, "sub": {sub}, "bit": {bit}}}'  # each address, by global index
             for r in circuit.registers for reg in [json.dumps(r.name)]
             for sub in range(r.count) for bit in range(r.width)]
    control = {(q, v): f'{text[:-1]}, "value": {v}}}'  # the qubit's text, reopened
               for q, text in enumerate(qubit) for v in (0, 1)}

    def encode(g: Gate) -> str:
        primitive, angle, target, controls = g
        return (f'{{"primitive": "{primitive}", '
                f'"angle": {"null" if angle is None else json.dumps(angle)}, '  # no call for X/H
                f'"targets": [{qubit[target]}], '
                f'"controls": [{", ".join(map(control.__getitem__, controls))}]}}')

    gates = ", ".join(_by_identity(encode, circuit.gates))
    registers = [{"name": r.name, "count": r.count, "width": r.width} for r in circuit.registers]
    return (f'{{"registers": {json.dumps(registers)}, "gates": [{gates}], '
            f'"metadata": {json.dumps(circuit.metadata)}}}')


def _gc_paused(read):
    """``read`` with the cyclic garbage collector paused, as the caller left it
    afterwards: its parse and gates make many objects and no cycle."""
    @functools.wraps(read)
    def paused(*args):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return read(*args)
        finally:
            if enabled:
                gc.enable()
    return paused


@_gc_paused
def read_registers(text: str) -> tuple[Circuit, list]:
    """The first step of ``circuit_from_json``: the circuit with its registers and
    metadata (an object, ``{}`` if absent) and no gates, and the file's gate records."""
    data = json.loads(text)
    registers = [(r["name"], r["count"], r["width"]) for r in data["registers"]]
    metadata = data.get("metadata", {})
    if type(metadata) is not dict:
        raise ValueError(f"metadata must be an object, got a {type(metadata).__name__}")
    return Circuit(registers, metadata), data["gates"]


@_gc_paused
def read_gates(circuit: Circuit, records: list) -> Circuit:
    """The second step of ``circuit_from_json``: append the gates of ``records``."""
    gates = {}

    def index(ref) -> int:  # Circuit.qubit checks the address
        return circuit.qubit(ref["reg"], ref["sub"], ref["bit"])

    def read(g) -> Gate:  # the gate of one distinct record, made once
        targets = tuple(map(index, g["targets"]))
        controls = tuple([(index(c), c["value"]) for c in g.get("controls", ())])
        primitive, angle = g["primitive"], g["angle"]
        exact = type(primitive) is str and all([type(v) is int for _, v in controls])  # True == 1
        key = (primitive, repr(angle), targets, controls) if exact else id(g)  # repr: -0.0 == 0.0
        if key not in gates:
            if len(targets) != 1:
                raise ValueError(f"a {primitive!r} record has {len(targets)} targets, not 1")
            gates[key] = Gate(primitive, angle, targets[0], tuple(Control(*c) for c in controls))
        return gates[key]

    return circuit.extend(map(read, records))  # reads and checks the gates in file order


def circuit_from_json(text: str) -> Circuit:
    return read_gates(*read_registers(text))


def _qasm_gate(gate: Gate, operands: list[str]) -> str:
    """One QASM statement; ``operands`` name the gate's qubits, controls first."""
    primitive, angle, _, controls = gate
    if primitive == "X" and len(controls) == 1 and controls[0].value == 1:
        return f"cx {operands[0]}, {operands[1]};"
    name = primitive.lower() if angle is None else f"{primitive.lower()}({angle!r})"
    mods = "".join("ctrl @ " if c.value == 1 else "negctrl @ " for c in controls)
    return f"{mods}{name} {', '.join(operands)};"


def circuit_to_qasm(circuit: Circuit) -> str:
    spans = [circuit.register_qubits(r.name) for r in circuit.registers]
    lines = ["OPENQASM 3.0;",
             "// registers: " + ", ".join(f"{r.name}=q[{qubits[0]}..{qubits[-1]}]"
                                          for r, qubits in zip(circuit.registers, spans)),
             f"qubit[{circuit.num_qubits}] q;"]
    names = [f"q[{q}]" for q in range(circuit.num_qubits)]

    def encode(g: Gate) -> str:
        return _qasm_gate(g, [names[q] for q in circuit.gate_qubits(g)])  # controls, then target

    lines += _by_identity(encode, circuit.gates)
    return "\n".join(lines) + "\n"
