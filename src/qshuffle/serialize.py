"""Circuit serialisation: a JSON wire format and an OpenQASM 3 subset emitter.

JSON schema (field order fixed):
  {"registers": [{"name", "count", "width"}],
   "gates": [{"primitive", "angle", "targets": [{"reg", "sub", "bit"}],
              "controls": [{"reg", "sub", "bit", "value"}]}],
   "metadata": {...}}
Angles are radians, written with full float precision so a round trip
reproduces simulations bit-identically.

The QASM emitter writes one flat qubit array plus a comment mapping register
names to index ranges.  Single positive controls on X become cx; every other
control becomes a ctrl/negctrl modifier, in control-list order.
"""

from __future__ import annotations

import json

from .circuit import Circuit, Control, Gate, QubitRef


def circuit_to_dict(circuit: Circuit) -> dict:
    return {
        "registers": [
            {"name": r.name, "count": r.count, "width": r.width} for r in circuit.registers
        ],
        "gates": [
            {
                "primitive": g.primitive,
                "angle": g.angle,
                "targets": [{"reg": t.reg, "sub": t.sub, "bit": t.bit} for t in g.targets],
                "controls": [
                    {"reg": c.qubit.reg, "sub": c.qubit.sub, "bit": c.qubit.bit, "value": c.value}
                    for c in g.controls
                ],
            }
            for g in circuit.gates
        ],
        "metadata": circuit.metadata,
    }


def circuit_to_json(circuit: Circuit) -> str:
    return json.dumps(circuit_to_dict(circuit))


def circuit_from_dict(data: dict) -> Circuit:
    circuit = Circuit(
        [(r["name"], r["count"], r["width"]) for r in data["registers"]],
        data.get("metadata") or {},
    )
    for g in data["gates"]:
        gate = Gate(
            g["primitive"],
            g["angle"],
            tuple(QubitRef(t["reg"], t["sub"], t["bit"]) for t in g["targets"]),
            tuple(
                Control(QubitRef(c["reg"], c["sub"], c["bit"]), c["value"])
                for c in g.get("controls", ())
            ),
        )
        circuit.append(gate)
    return circuit


def circuit_from_json(text: str) -> Circuit:
    return circuit_from_dict(json.loads(text))


_QASM_NAMES = {"X": "x", "H": "h", "RY": "ry", "RZ": "rz", "SWAP": "swap"}


def _qasm_gate(circuit: Circuit, gate: Gate) -> str:
    name = _QASM_NAMES[gate.primitive]
    if gate.angle is not None:
        name += f"({gate.angle!r})"
    controls = gate.controls
    if gate.primitive == "X" and len(controls) == 1 and controls[0].value == 1:
        c = circuit.qubit_index(controls[0].qubit)
        t = circuit.qubit_index(gate.targets[0])
        return f"cx q[{c}], q[{t}];"
    mods = "".join("ctrl @ " if c.value == 1 else "negctrl @ " for c in controls)
    operands = [circuit.qubit_index(c.qubit) for c in controls]
    operands += [circuit.qubit_index(t) for t in gate.targets]
    return mods + name + " " + ", ".join(f"q[{q}]" for q in operands) + ";"


def circuit_to_qasm(circuit: Circuit) -> str:
    lines = ["OPENQASM 3.0;"]
    spans = []
    for r in circuit.registers:
        lo = circuit.subregister_qubits(r.name, 0)[0]
        hi = circuit.subregister_qubits(r.name, r.count - 1)[-1]
        spans.append(f"{r.name}=q[{lo}..{hi}]")
    lines.append("// registers: " + ", ".join(spans))
    lines.append(f"qubit[{circuit.num_qubits}] q;")
    lines.extend(_qasm_gate(circuit, g) for g in circuit.gates)
    return "\n".join(lines) + "\n"
