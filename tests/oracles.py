"""Dense statevector oracle and dense-vector views of the sparse simulator.

The dense kernel (``dense_evolve``/``dense_run``) stores all 2^n amplitudes
and applies each gate's 2x2 matrix to the two half-states it acts on, one
cache-sized block at a time; it is the reference the sparse backend is checked
against.  ``initial_state``, ``evolve``, ``run``, ``branch_table`` and
``sample`` take and give 2^n vectors but simulate with ``qshuffle.simulator``,
so tests that read dense vectors keep exercising the shipping simulator.  The
remaining helpers read dense vectors, decode draw records, build classical
and gate fixtures, or encode and read circuit text the simple way
(``circuit_to_dict``, ``circuit_from_qasm``); none has a caller outside the
tests.

Amplitude indexing: bit g of a basis-state index is global qubit g (qubit 0
is the least significant bit), matching the circuit's register numbering.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import deque
from dataclasses import replace

import numpy as np

from qshuffle import simulator
from qshuffle.circuit import Circuit, Control, Gate, value_controls

BLOCK_BITS = 14  # gates run on blocks of 2^14 amplitudes: four fit a 2 MiB L2 cache
AMPLITUDE_TOL = 1e-10


def to_dense(state, n: int) -> np.ndarray:
    """The 2^n vector of a sparse (indices, amplitudes) state."""
    indices, amplitudes = state
    vector = np.zeros(1 << n, dtype=complex)
    vector[indices] = amplitudes
    return vector


def to_sparse(vector: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (indices, amplitudes) pair of a 2^n vector's nonzero entries."""
    indices = np.flatnonzero(vector)
    return indices.astype(np.int64), vector[indices].astype(complex)


def _start(circuit: Circuit, initial):
    """A dense start vector as the sparse simulator's start pair."""
    if isinstance(initial, np.ndarray):
        if initial.shape != (1 << circuit.num_qubits,):
            raise ValueError("statevector dimension mismatch")
        return to_sparse(initial)
    return initial


def initial_state(circuit: Circuit, initial=None) -> np.ndarray:
    return to_dense(simulator.initial_state(circuit, _start(circuit, initial)), circuit.num_qubits)


def evolve(circuit: Circuit, initial=None):
    for state in simulator.evolve(circuit, _start(circuit, initial)):
        yield to_dense(state, circuit.num_qubits)


def run(circuit: Circuit, initial=None) -> np.ndarray:
    return to_dense(simulator.run(circuit, _start(circuit, initial)), circuit.num_qubits)


def branch_table(state: np.ndarray, circuit: Circuit):
    return simulator.branch_table(to_sparse(state), circuit)


def sample(state: np.ndarray, shots: int, seed: int, circuit: Circuit, register: str | None = None):
    return simulator.sample(to_sparse(state), shots, seed, circuit, register)


_R = 1.0 / math.sqrt(2.0)
_EXCHANGE = ((0.0, 1.0), (1.0, 0.0))
_FIXED = {"X": _EXCHANGE, "SWAP": _EXCHANGE, "H": ((_R, _R), (_R, -_R))}
_BIT = (slice(0, 1), slice(1, 2))  # length-1 slices keep every index a view


def _matrix(gate: Gate) -> tuple:
    """The gate's 2x2 matrix over the two half-states it acts on: target bit
    0/1, or for SWAP the |01>/|10> pair of its targets."""
    if gate.primitive in _FIXED:
        return _FIXED[gate.primitive]
    if gate.primitive == "RY":
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
        return ((c, -s), (s, c))
    if gate.primitive == "RZ":
        return ((np.exp(-0.5j * gate.angle), 0.0), (0.0, np.exp(0.5j * gate.angle)))
    raise ValueError(f"unknown primitive {gate.primitive!r}")


def _apply_inplace(state: np.ndarray, n: int, gate: Gate, targets: tuple[int, ...], controls, scratch) -> None:
    index = [slice(None)] * n
    for q, v in controls:
        index[n - 1 - q] = _BIT[v]
    lo, hi = list(index), list(index)
    for k, q in enumerate(targets):  # lo: bit 0 (SWAP: 0 then 1), hi: the flip of each
        lo[n - 1 - q], hi[n - 1 - q] = _BIT[k], _BIT[1 - k]
    view = state.reshape((2,) * n)
    (a, b), (c, d) = m = _matrix(gate)
    outer = [axis for axis, s in enumerate(lo) if s == slice(None)][:-BLOCK_BITS]  # top free qubits
    for block in range(1 << len(outer)):  # each fixes the outer qubits: 2^BLOCK_BITS amplitudes a half
        for k, axis in enumerate(outer):
            lo[axis] = hi[axis] = _BIT[(block >> k) & 1]
        s0, s1 = view[tuple(lo)], view[tuple(hi)]
        t, u = scratch[:2 * s0.size].reshape((2, *s0.shape))
        if m is _EXCHANGE:  # X, SWAP
            np.copyto(t, s0)
            np.positive(s1, out=s0)  # s0[...] = s1 would copy s1 first: the halves interleave
            np.copyto(s1, t)
        elif b == c == 0.0:  # diagonal (RZ): a phase on each half
            s0 *= a
            s1 *= d
        else:  # H, RY
            np.multiply(s0, c, out=t)
            s0 *= a
            s0 += np.multiply(s1, b, out=u)
            s1 *= d
            s1 += t


def dense_evolve(circuit: Circuit, initial=None):
    """Yield the dense start state, then the same array after each gate in turn."""
    n = circuit.num_qubits
    state = initial.astype(complex) if isinstance(initial, np.ndarray) else initial_state(circuit, initial)
    scratch = np.empty(min(state.size, 2 << BLOCK_BITS), dtype=complex)  # every gate's temporaries
    yield state
    for gate in circuit.gates:
        controls = tuple((c.qubit, c.value) for c in gate.controls)
        _apply_inplace(state, n, gate, gate.targets, controls, scratch)
        yield state


def dense_run(circuit: Circuit, initial=None) -> np.ndarray:
    """The last state ``dense_evolve`` yields."""
    return deque(dense_evolve(circuit, initial), maxlen=1)[0]


def norm_squared(state: np.ndarray) -> float:
    """Compensated sum of squared magnitudes, read one element at a time."""
    mags = state.real * state.real
    mags += state.imag * state.imag
    return math.fsum(mags)


def assert_register_disentangled(state: np.ndarray, circuit: Circuit, name: str,
                                 tol: float = AMPLITUDE_TOL) -> tuple[bool, float]:
    """(every nonzero amplitude has this register at zero, max leakage magnitude)"""
    n = circuit.num_qubits
    mags = np.abs(state).reshape((2,) * n)
    good = [slice(None)] * n
    for q in circuit.register_qubits(name):
        good[n - 1 - q] = slice(0, 1)
    mags[tuple(good)] = 0.0
    leakage = float(mags.max()) if mags.size else 0.0
    return leakage < tol, leakage


def marginal_probabilities(state: np.ndarray, circuit: Circuit, name: str) -> np.ndarray:
    """Probability vector over a register's joint value, other registers traced out."""
    n = circuit.num_qubits
    probs = (state.real * state.real + state.imag * state.imag).reshape((2,) * n)
    keep = set(circuit.register_qubits(name))
    drop = tuple(n - 1 - q for q in range(n) if q not in keep)
    if drop:
        probs = probs.sum(axis=drop)
    return probs.reshape(-1)


def states_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = AMPLITUDE_TOL) -> bool:
    if a.shape != b.shape:
        return False
    k = int(np.argmax(np.abs(a)))
    if abs(a[k]) < tol:
        return bool(np.max(np.abs(b)) < tol)
    phase = b[k] / a[k]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(a * phase - b)) < tol)


def decode_draws(spec, registers: dict) -> list[int]:
    """Read the draw record of an entangling variant's branch from its ancilla."""
    draws = []
    for i in range(1, spec.n):
        value = registers[f"anc{i}"][0]
        if spec.encoding == "binary":
            draws.append(value)
        elif value == 0:
            draws.append(i)
        else:
            if value & (value - 1):
                raise ValueError(f"one-hot ancilla {i} holds non-one-hot value {value}")
            draws.append(value.bit_length() - 1)
    return draws


def draw_sequences(n: int):
    """All valid draw sequences (j_1, .., j_{n-1}), j_i in 0..i."""
    return itertools.product(*(range(i + 1) for i in range(1, n)))


def emit_value_controlled(
    circuit: Circuit, gate: Gate, reg: str, sub: int, value: int, width: int
) -> Circuit:
    """Append ``gate`` controlled on subregister (reg, sub) holding ``value``.

    One control per bit position 0..width-1; bits of ``value`` that are 0
    become negative controls.
    """
    if width > circuit.register(reg).width:
        raise ValueError(f"control width {width} exceeds register {reg!r} width")
    qubits = [circuit.qubit(reg, sub, k) for k in range(width)]
    return circuit.append(replace(gate, controls=gate.controls + value_controls(qubits, value)))


def word_of_permutation(sigma) -> tuple[int, ...]:
    """Word representation of a permutation given as the mapping k -> sigma(k)."""
    sigma = list(sigma)
    n = len(sigma)
    word = [-1] * n
    for k, v in enumerate(sigma):
        if not 0 <= v < n or word[v] != -1:
            raise ValueError(f"{sigma} is not a bijection on range({n})")
        word[v] = k
    return tuple(word)


def circuit_to_dict(circuit: Circuit) -> dict:
    """The circuit JSON schema as nested dicts: ``json.dumps`` of it is the
    reference text ``serialize.circuit_to_json`` must write byte for byte."""

    def address(q):
        reg, sub, bit = circuit.ref_of(q)
        return {"reg": reg, "sub": sub, "bit": bit}

    return {
        "registers": [
            {"name": r.name, "count": r.count, "width": r.width} for r in circuit.registers
        ],
        "gates": [
            {
                "primitive": g.primitive,
                "angle": g.angle,
                "targets": [address(t) for t in g.targets],
                "controls": [address(c.qubit) | {"value": c.value} for c in g.controls],
            }
            for g in circuit.gates
        ],
        "metadata": circuit.metadata,
    }


_QASM_STATEMENT = re.compile(r"((?:(?:neg)?ctrl @ )*)(x|h|ry|rz|swap|cx)(?:\((.+)\))? "
                             r"(q\[\d+\](?:, q\[\d+\])*);")


def circuit_from_qasm(text: str) -> Circuit:
    """Read the OpenQASM 3 subset ``circuit_to_qasm`` writes: one flat array
    ``q``, ``x h ry rz swap cx`` and ``ctrl @``/``negctrl @`` modifiers with
    the controls first.  The circuit has one register ``q`` of one
    subregister, so q[k] is global qubit k as in the written circuit."""
    lines = text.splitlines()
    if lines[0] != "OPENQASM 3.0;" or not lines[1].startswith("// registers: "):
        raise ValueError("not an OPENQASM 3.0 file with a register map")
    circuit = Circuit([("q", 1, int(re.fullmatch(r"qubit\[(\d+)\] q;", lines[2]).group(1)))])
    for line in lines[3:]:
        match = _QASM_STATEMENT.fullmatch(line)
        if match is None:
            raise ValueError(f"not in the QASM subset: {line!r}")
        modifiers, name, angle, operands = match.groups()
        qubits = [int(k) for k in re.findall(r"\d+", operands)]
        values = [int(m == "ctrl") for m in re.findall(r"(negctrl|ctrl) @", modifiers)]
        if name == "cx":
            name, values = "x", [1]
        controls = tuple(Control(q, v) for q, v in zip(qubits, values))
        gate = Gate(name.upper(), None if angle is None else float(angle),
                    tuple(qubits[len(values):]), controls)
        circuit.append(gate)
    return circuit
