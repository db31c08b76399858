"""Sparse branch simulation over the circuit IR.

A state is a pair ``(indices, amplitudes)``: the int64 basis indices of its
live branches, in no particular order, and their complex128 amplitudes.  Bit g
of an index is global qubit g (qubit 0 is the least significant bit), matching
the circuit's register numbering.  A correct shuffle build holds i! branches
before iteration i, far fewer than 2^qubits, and every gate costs time linear
in the live branches.

Each gate is resolved once to its target bits and a control mask/value.  X and
SWAP permute indices (an XOR of the target bits where the controls hold, and
for SWAP where its two bits differ), RZ multiplies each controlled amplitude by
the phase of its target bit, and H/RY send each controlled branch to both
target values and merge equal indices, dropping |amplitude| <= BRANCH_TOL.
``SimulationCapExceeded`` is raised above MAX_QUBITS qubits or as soon as a
state holds more than MAX_BRANCHES branches.

``evolve`` is the one gate loop: it yields the start state, then the state
after each gate.  No array is updated in place, so a yielded state may be kept.
``run`` returns the last state ``evolve`` yields.
"""

from __future__ import annotations

import math
from collections import Counter, deque

import numpy as np

from .circuit import Circuit, Gate

MAX_QUBITS = 63  # basis indices are int64
MAX_BRANCHES = 10 ** 6  # memory guard: refuse states with more live branches

BRANCH_TOL = 1e-12


class SimulationCapExceeded(ValueError):
    """Raised when a circuit is too wide or its state holds too many branches."""


def _guard(indices: np.ndarray) -> None:
    if len(indices) > MAX_BRANCHES:
        raise SimulationCapExceeded(f"{len(indices)} branches exceed the simulation cap of {MAX_BRANCHES}")


def initial_state(circuit: Circuit, initial=None) -> tuple[np.ndarray, np.ndarray]:
    """Build the start state: None (all zeros), a basis index, an
    (indices, amplitudes) pair (copied), or a mapping register name -> list of
    per-subregister values."""
    n = circuit.num_qubits
    if isinstance(initial, tuple):
        indices, amplitudes = initial
        indices, amplitudes = np.array(indices, dtype=np.int64), np.array(amplitudes, dtype=complex)
        if indices.ndim != 1 or indices.shape != amplitudes.shape:
            raise ValueError("indices and amplitudes must be 1-d arrays of one length")
        if len(indices) and not (0 <= indices.min() and indices.max() < (1 << n)):
            raise ValueError(f"basis index out of range for {n} qubits")
        if len(np.unique(indices)) != len(indices):
            raise ValueError("repeated basis index")
        return indices, amplitudes
    index = 0
    if isinstance(initial, (int, np.integer)):
        if not 0 <= initial < (1 << n):
            raise ValueError(f"basis index {initial} out of range for {n} qubits")
        index = int(initial)
    elif initial is not None:
        for name, values in initial.items():
            reg = circuit.register(name)
            values = list(values)
            if len(values) != reg.count:
                raise ValueError(f"register {name!r} has {reg.count} subregisters, got {len(values)} values")
            for sub, value in enumerate(values):
                if not 0 <= value < (1 << reg.width):
                    raise ValueError(f"value {value} does not fit register {name!r} width {reg.width}")
                index |= value << circuit.qubit(name, sub, 0)
    return np.array([index], dtype=np.int64), np.ones(1, dtype=complex)


def _mixing_matrix(gate: Gate) -> tuple:
    """H or RY as rows (to target bit 0, to target bit 1) of (from 0, from 1)."""
    if gate.primitive == "H":
        r = 1.0 / math.sqrt(2.0)
        return (r, r), (r, -r)
    c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
    return (c, -s), (s, c)


def _apply(state, gate: Gate, bits: tuple[int, ...], mask: int, value: int):
    """The state after one gate, whose targets are the basis-index bits ``bits``
    and which acts where ``indices & mask == value``."""
    indices, amplitudes = state
    hit = (indices & mask) == value
    if gate.primitive in ("X", "SWAP"):
        if gate.primitive == "SWAP":  # exchanges |01> and |10>: the bits must differ
            hit &= ((indices & bits[0]) == 0) != ((indices & bits[1]) == 0)
        return np.where(hit, indices ^ sum(bits), indices), amplitudes
    (bit,) = bits
    one = (indices & bit) != 0
    if gate.primitive == "RZ":
        phase = np.where(one, np.exp(0.5j * gate.angle), np.exp(-0.5j * gate.angle))
        return indices, np.where(hit, amplitudes * phase, amplitudes)
    (a, b), (c, d) = _mixing_matrix(gate)
    source, amps, one = indices[hit], amplitudes[hit], one[hit]
    outputs = np.concatenate((source & ~bit, source | bit))
    weights = np.concatenate((np.where(one, b, a) * amps, np.where(one, d, c) * amps))
    merged, inverse = np.unique(outputs, return_inverse=True)
    sums = np.bincount(inverse, weights.real) + 1j * np.bincount(inverse, weights.imag)
    live = np.abs(sums) > BRANCH_TOL
    indices = np.concatenate((indices[~hit], merged[live]))
    _guard(indices)
    return indices, np.concatenate((amplitudes[~hit], sums[live]))


def evolve(circuit: Circuit, initial=None):
    """Yield the start state, then the state after each gate in turn."""
    n = circuit.num_qubits
    if n > MAX_QUBITS:
        raise SimulationCapExceeded(f"{n} qubits exceeds the simulation cap of {MAX_QUBITS}")
    state = initial_state(circuit, initial)
    _guard(state[0])
    yield state
    for gate in circuit.gates:
        qubits = circuit.gate_qubits(gate)  # targets, then controls
        k = len(gate.targets)
        bits = tuple(1 << q for q in qubits[:k])
        mask = sum(1 << q for q in qubits[k:])
        value = sum(c.value << q for q, c in zip(qubits[k:], gate.controls))
        state = _apply(state, gate, bits, mask, value)
        yield state


def run(circuit: Circuit, initial=None) -> tuple[np.ndarray, np.ndarray]:
    """Fold the gate list over the start state: the last state ``evolve`` yields."""
    return deque(evolve(circuit, initial), maxlen=1)[0]


def decode_registers(index: int, circuit: Circuit, registers=None) -> dict[str, list[int]]:
    """Subregister values of one basis-state index, per register name."""
    names = registers if registers is not None else [r.name for r in circuit.registers]
    out = {}
    for name in names:
        width = circuit.register(name).width
        mask = (1 << width) - 1
        out[name] = [(index >> q) & mask for q in circuit.register_qubits(name)[::width]]
    return out


def _sorted(state) -> tuple[np.ndarray, np.ndarray]:
    indices, amplitudes = state
    order = np.argsort(indices)
    return indices[order], amplitudes[order]


def branch_table(state, circuit: Circuit):
    """All branches with |amplitude| > BRANCH_TOL in ascending basis-index
    order, decoded per register."""
    indices, amplitudes = _sorted(state)
    live = np.abs(amplitudes) > BRANCH_TOL
    return [(decode_registers(int(i), circuit), complex(a)) for i, a in zip(indices[live], amplitudes[live])]


def sample(state, shots: int, seed: int, circuit: Circuit, register: str | None = None) -> Counter:
    """Histogram of ``shots`` basis-state draws, marginalised to one register.

    Keys are tuples of subregister values (or the full decoded register dict
    flattened over all registers when register is None).  Deterministic for a
    fixed seed.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    indices, amplitudes = _sorted(state)
    probs = amplitudes.real * amplitudes.real + amplitudes.imag * amplitudes.imag
    probs = probs / probs.sum()
    draws = indices[rng.choice(len(indices), size=shots, p=probs)]
    names = None if register is None else [register]
    histogram = Counter()
    for index, count in zip(*np.unique(draws, return_counts=True)):
        values = decode_registers(int(index), circuit, names).values()
        histogram[tuple(v for subs in values for v in subs)] += int(count)
    return histogram
