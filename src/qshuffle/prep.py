"""Subcircuits preparing a uniform superposition of the first i+1 basis states.

Binary encoding (``u_gates``): on b = bitlen(i) qubits, produce
sum_{j=0}^{i} |j> / sqrt(i+1) with real nonnegative amplitudes.  When i+1 is
a power of two this is one layer of Hadamards.  Otherwise write
M = i+1 = 2^{s_0} + .. + 2^{s_{K-1}} (bit positions ascending) and split
[0, M) into K aligned blocks, the t-th having the bits s_{t+1}..s_{K-1} set
and its low s_t bits free.  The circuit is then

  * H on the low s_0 qubits (free in every block),
  * a rotation chain walking t = K-1 .. 0 that puts amplitude
    sqrt(2^{s_t}/M) on each block pattern: RY on qubit s_{K-1}, then one CRY
    on qubit s_t controlled on qubit s_{t+1} being 1 per remaining t (the
    final t = 0 rotation degenerates to angle 0),
  * controlled-H fills: for each t, H on qubits s_t..s_{t+1}-1 controlled on
    qubit s_{t+1} being 0, which fires exactly on the blocks whose free
    range covers that slice.

Gate multiset: s_0 H, 1 RY, K-1 CRY, s_{K-1}-s_0 CH (see resources module
for the matching closed forms).

One-hot encoding (``v_gates``): on i qubits, produce the uniform
superposition of |0..0> and the i weight-one strings.  A chain of 2i-1
gates with control arity <= 1: RY on qubit 0 splits off the all-zero
branch, then each step k rotates qubit k controlled on qubit k-1 (the
qubit carrying the remaining mass), fixes the weight-one string e_{k-1},
and a CX relocates the remaining mass from e_{k-1}+e_k to e_k.

``build_prep(i, encoding)`` puts either encoding's gate list (``ENCODINGS``
names them) on a register ``q`` of its own; ``resources.prep_counts`` counts it.
"""

from __future__ import annotations

from math import acos, sqrt

from .circuit import Circuit, Control, Gate, spec_int

ENCODINGS = ("binary", "onehot")


def u_gates(i: int, qubits) -> list[Gate]:
    """Gate list of the binary uniform prep for 0..i; bit k is qubit ``qubits[k]``."""
    i = spec_int("i", i, 1)
    m = i + 1
    q = qubits.__getitem__
    if m & (m - 1) == 0:  # power of two: one Hadamard per qubit
        return [Gate("H", None, q(bit)) for bit in range(i.bit_length())]
    s = [bit for bit in range(m.bit_length()) if (m >> bit) & 1]
    k = len(s)
    prefix = [2 ** s[0]]
    for t in range(1, k):
        prefix.append(prefix[-1] + 2 ** s[t])
    gates = [Gate("H", None, q(bit)) for bit in range(s[0])]
    for t in range(k - 1, -1, -1):
        theta = 2.0 * acos(sqrt(2 ** s[t] / prefix[t]))
        controls = () if t == k - 1 else (Control(q(s[t + 1]), 1),)
        gates.append(Gate("RY", theta, q(s[t]), controls))
    for t in range(k - 1):
        for bit in range(s[t], s[t + 1]):
            gates.append(Gate("H", None, q(bit), (Control(q(s[t + 1]), 0),)))
    return gates


def v_gates(i: int, qubits) -> list[Gate]:
    """Gate list of the one-hot uniform prep over ``qubits[0..i-1]``."""
    i = spec_int("i", i, 1)
    m = i + 1
    q = qubits.__getitem__
    gates = [Gate("RY", 2.0 * acos(sqrt(1.0 / m)), q(0))]
    for bit in range(1, i):
        gates.append(Gate("RY", 2.0 * acos(sqrt(1.0 / (m - bit))), q(bit), (Control(q(bit - 1), 1),)))
        gates.append(Gate("X", None, q(bit - 1), (Control(q(bit), 1),)))
    return gates


def build_prep(i: int, encoding: str = "binary") -> Circuit:
    """The uniform prep over 0..i in ``encoding`` as a standalone circuit on one register."""
    i = spec_int("i", i, 1)
    if encoding == "binary":
        name, width, gate_list = "u", i.bit_length(), u_gates
    elif encoding == "onehot":
        name, width, gate_list = "v", i, v_gates
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    circuit = Circuit([("q", 1, width)], {"prep": name, "i": i, "encoding": encoding})
    return circuit.extend(gate_list(i, circuit.register_qubits("q")))
