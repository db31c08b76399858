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
"""

from __future__ import annotations

from math import acos, sqrt

from .circuit import Circuit, Gate, ctrl, gate_h, gate_ry, gate_x


def binary_width(i: int) -> int:
    """Qubits needed to store any value 0..i (floor(log2 i) + 1)."""
    if i < 1:
        raise ValueError("i must be >= 1")
    return i.bit_length()


def u_gates(i: int, qubits) -> list[Gate]:
    """Gate list of the binary uniform prep for 0..i; bit k is qubit ``qubits[k]``."""
    if i < 1:
        raise ValueError("i must be >= 1")
    m = i + 1
    q = qubits.__getitem__
    if m & (m - 1) == 0:  # power of two: one Hadamard per qubit
        return [gate_h(q(bit)) for bit in range(binary_width(i))]
    s = [bit for bit in range(m.bit_length()) if (m >> bit) & 1]
    k = len(s)
    prefix = [2 ** s[0]]
    for t in range(1, k):
        prefix.append(prefix[-1] + 2 ** s[t])
    gates = [gate_h(q(bit)) for bit in range(s[0])]
    for t in range(k - 1, -1, -1):
        theta = 2.0 * acos(sqrt(2 ** s[t] / prefix[t]))
        if t == k - 1:
            gates.append(gate_ry(theta, q(s[t])))
        else:
            gates.append(gate_ry(theta, q(s[t]), (ctrl(q(s[t + 1]), 1),)))
    for t in range(k - 1):
        for bit in range(s[t], s[t + 1]):
            gates.append(gate_h(q(bit), (ctrl(q(s[t + 1]), 0),)))
    return gates


def v_gates(i: int, qubits) -> list[Gate]:
    """Gate list of the one-hot uniform prep over ``qubits[0..i-1]``."""
    if i < 1:
        raise ValueError("i must be >= 1")
    m = i + 1
    q = qubits.__getitem__
    gates = [gate_ry(2.0 * acos(sqrt(1.0 / m)), q(0))]
    for bit in range(1, i):
        gates.append(gate_ry(2.0 * acos(sqrt(1.0 / (m - bit))), q(bit), (ctrl(q(bit - 1), 1),)))
        gates.append(gate_x(q(bit - 1), (ctrl(q(bit), 1),)))
    return gates


def build_u(i: int) -> Circuit:
    """Binary uniform prep as a standalone circuit on one register."""
    circuit = Circuit([("q", 1, binary_width(i))], {"prep": "u", "i": i, "encoding": "binary"})
    return circuit.extend(u_gates(i, circuit.register_qubits("q")))


def build_v(i: int) -> Circuit:
    """One-hot uniform prep as a standalone circuit on one register."""
    circuit = Circuit([("q", 1, i)], {"prep": "v", "i": i, "encoding": "onehot"})
    return circuit.extend(v_gates(i, circuit.register_qubits("q")))
