"""Circuit serialisation: a JSON wire format and an OpenQASM 3 subset emitter.

JSON schema (field order fixed):
  {"registers": [{"name", "count", "width"}],
   "gates": [{"primitive", "angle", "targets": [{"reg", "sub", "bit"}],
              "controls": [{"reg", "sub", "bit", "value"}]}],
   "metadata": {...}}
Angles are radians, written with full float precision so a round trip
reproduces simulations bit-identically.  Gates hold global qubit indices;
the writer turns each index into its reg/sub/bit text (``Circuit.ref_of``)
and the reader each address into its index (``Circuit.qubit``, which checks
it).  The text is ``json.dumps`` of that schema byte for byte, but written
without the nested dicts: each distinct qubit and control is encoded once per
call and its fragment reused.  Both emitters also encode each distinct gate
object and each distinct angle object once per call (by identity, so shared
gates cost one lookup each).

The QASM emitter writes one flat qubit array plus a comment mapping register
names to index ranges.  Single positive controls on X become cx; every other
control becomes a ctrl/negctrl modifier, in control-list order.
"""

from __future__ import annotations

import json

from .circuit import Circuit, Control, Gate


class _Texts(dict):
    """JSON text of each qubit index, Control and primitive name of one
    circuit, encoded on first use."""

    def __init__(self, circuit: Circuit):
        self.ref_of = circuit.ref_of

    def __missing__(self, key) -> str:
        if type(key) is int:
            reg, sub, bit = self.ref_of(key)
            text = f'{{"reg": {json.dumps(reg)}, "sub": {sub}, "bit": {bit}}}'
        elif type(key) is Control:  # the qubit's text, reopened for the value
            text = f'{self[key.qubit][:-1]}, "value": {json.dumps(key.value)}}}'
        else:
            text = json.dumps(key)
        self[key] = text
        return text


class _Once(dict):
    """``encode(obj)``, run once per object of one call's circuit.gates: keyed
    by identity, so -0.0 never gets 0.0's text."""

    def __init__(self, encode):
        self.encode = encode

    def __call__(self, obj) -> str:
        text = self.get(id(obj))
        if text is None:
            text = self[id(obj)] = self.encode(obj)
        return text


def circuit_to_json(circuit: Circuit) -> str:
    text = _Texts(circuit).__getitem__
    angle = _Once(json.dumps)

    def encode(g: Gate) -> str:
        return (f'{{"primitive": {text(g.primitive)}, "angle": {angle(g.angle)}, '
                f'"targets": [{", ".join(map(text, g.targets))}], '
                f'"controls": [{", ".join(map(text, g.controls))}]}}')

    gates = ", ".join(list(map(_Once(encode), circuit.gates)))  # the memo goes before the join
    registers = [{"name": r.name, "count": r.count, "width": r.width} for r in circuit.registers]
    return (f'{{"registers": {json.dumps(registers)}, "gates": [{gates}], '
            f'"metadata": {json.dumps(circuit.metadata)}}}')


def circuit_from_json(text: str) -> Circuit:
    data = json.loads(text)
    circuit = Circuit([(r["name"], r["count"], r["width"]) for r in data["registers"]],
                      data.get("metadata") or {})
    q = circuit.qubit  # checks each address
    for g in data["gates"]:
        targets = tuple(q(t["reg"], t["sub"], t["bit"]) for t in g["targets"])
        controls = tuple(Control(q(c["reg"], c["sub"], c["bit"]), c["value"])
                         for c in g.get("controls", ()))
        circuit.append(Gate(g["primitive"], g["angle"], targets, controls))
    return circuit


_QASM_NAMES = {"X": "x", "H": "h", "RY": "ry", "RZ": "rz", "SWAP": "swap"}


def _qasm_gate(gate: Gate, operands: list[str], angle) -> str:
    """One QASM statement; ``operands`` name the gate's qubits, controls first."""
    controls = gate.controls
    if gate.primitive == "X" and len(controls) == 1 and controls[0].value == 1:
        return f"cx {operands[0]}, {operands[1]};"
    name = _QASM_NAMES[gate.primitive]
    if gate.angle is not None:
        name += f"({angle(gate.angle)})"
    mods = "".join("ctrl @ " if c.value == 1 else "negctrl @ " for c in controls)
    return f"{mods}{name} {', '.join(operands)};"


def circuit_to_qasm(circuit: Circuit) -> str:
    spans = [circuit.register_qubits(r.name) for r in circuit.registers]
    lines = ["OPENQASM 3.0;",
             "// registers: " + ", ".join(f"{r.name}=q[{qubits[0]}..{qubits[-1]}]"
                                          for r, qubits in zip(circuit.registers, spans)),
             f"qubit[{circuit.num_qubits}] q;"]
    names = [f"q[{q}]" for q in range(circuit.num_qubits)]
    angle = _Once(repr)

    def encode(g: Gate) -> str:
        qubits = circuit.gate_qubits(g)  # targets, then controls
        k = len(g.targets)
        return _qasm_gate(g, [names[q] for q in qubits[k:] + qubits[:k]], angle)

    lines += map(_Once(encode), circuit.gates)
    return "\n".join(lines) + "\n"
