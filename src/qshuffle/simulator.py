"""Dense statevector simulation over the circuit IR.

Amplitude indexing: bit g of a basis-state index is global qubit g (qubit 0
is the least significant bit), matching the circuit's register numbering.
Multi-controlled gates are applied exactly, without lowering: the gate's
2x2 (or SWAP) action is restricted to the subspace where every control
qubit matches its required value.

``evolve`` is the one gate loop: it yields the start state, then the state
after each gate, as one live array that the next gate updates in place (copy
it to keep it).  ``run`` returns the last state ``evolve`` yields.
"""

from __future__ import annotations

import math
from collections import Counter, deque

import numpy as np

from .circuit import Circuit, Gate, QubitRef

QUBIT_CAP = 26  # memory guard: refuse dense simulation above this

AMPLITUDE_TOL = 1e-10
BRANCH_TOL = 1e-12


class SimulationCapExceeded(ValueError):
    """Raised when a circuit is too wide for dense simulation."""


def zero_state(num_qubits: int) -> np.ndarray:
    state = np.zeros(1 << num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def basis_state(num_qubits: int, index: int) -> np.ndarray:
    state = np.zeros(1 << num_qubits, dtype=complex)
    state[index] = 1.0
    return state


def initial_state(circuit: Circuit, initial=None) -> np.ndarray:
    """Build the start state: None (all zeros), a basis index, or a mapping
    register name -> list of per-subregister values."""
    n = circuit.num_qubits
    if initial is None:
        return zero_state(n)
    if isinstance(initial, (int, np.integer)):
        if not 0 <= initial < (1 << n):
            raise ValueError(f"basis index {initial} out of range for {n} qubits")
        return basis_state(n, int(initial))
    if isinstance(initial, np.ndarray):
        if initial.shape != (1 << n,):
            raise ValueError("statevector dimension mismatch")
        return initial.astype(complex)
    index = 0
    for name, values in initial.items():
        reg = circuit.register(name)
        values = list(values)
        if len(values) != reg.count:
            raise ValueError(f"register {name!r} has {reg.count} subregisters, got {len(values)} values")
        for sub, value in enumerate(values):
            if not 0 <= value < (1 << reg.width):
                raise ValueError(f"value {value} does not fit register {name!r} width {reg.width}")
            index |= value << circuit.qubit_index(QubitRef(name, sub, 0))
    return basis_state(n, index)


def _apply_inplace(state: np.ndarray, n: int, gate: Gate, targets: tuple[int, ...], controls) -> None:
    view = state.reshape((2,) * n)
    slicer = [slice(None)] * n
    for q, v in controls:
        slicer[n - 1 - q] = slice(v, v + 1)
    sub = view[tuple(slicer)]
    p = gate.primitive
    if p == "SWAP":
        a0, a1 = n - 1 - targets[0], n - 1 - targets[1]
        lo = [slice(None)] * n
        hi = [slice(None)] * n
        lo[a0], lo[a1] = 0, 1
        hi[a0], hi[a1] = 1, 0
        lo, hi = tuple(lo), tuple(hi)
        tmp = sub[lo].copy()
        sub[lo] = sub[hi]
        sub[hi] = tmp
        return
    axis = n - 1 - targets[0]
    i0 = [slice(None)] * n
    i1 = [slice(None)] * n
    i0[axis], i1[axis] = 0, 1
    i0, i1 = tuple(i0), tuple(i1)
    if p == "X":
        tmp = sub[i0].copy()
        sub[i0] = sub[i1]
        sub[i1] = tmp
    elif p == "H":
        a, b = sub[i0].copy(), sub[i1].copy()
        r = 1.0 / math.sqrt(2.0)
        sub[i0] = (a + b) * r
        sub[i1] = (a - b) * r
    elif p == "RY":
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
        a, b = sub[i0].copy(), sub[i1].copy()
        sub[i0] = c * a - s * b
        sub[i1] = s * a + c * b
    elif p == "RZ":
        sub[i0] = sub[i0] * np.exp(-0.5j * gate.angle)
        sub[i1] = sub[i1] * np.exp(0.5j * gate.angle)
    else:
        raise ValueError(f"unknown primitive {p!r}")


def apply(state: np.ndarray, gate: Gate, circuit: Circuit) -> np.ndarray:
    """Apply one gate; returns a new statevector, the input is untouched."""
    return run(circuit.copy_empty().append(gate), state)


def evolve(circuit: Circuit, initial=None):
    """Yield the start state, then the same array after each gate in turn."""
    n = circuit.num_qubits
    if n > QUBIT_CAP:
        raise SimulationCapExceeded(f"{n} qubits exceeds the dense simulation cap of {QUBIT_CAP}")
    state = initial_state(circuit, initial)
    yield state
    for gate in circuit.gates:
        targets = tuple(circuit.qubit_index(t) for t in gate.targets)
        controls = tuple((circuit.qubit_index(c.qubit), c.value) for c in gate.controls)
        _apply_inplace(state, n, gate, targets, controls)
        yield state


def run(circuit: Circuit, initial=None) -> np.ndarray:
    """Fold the gate list over the start state: the last state ``evolve`` yields."""
    return deque(evolve(circuit, initial), maxlen=1)[0]


def norm_squared(state: np.ndarray) -> float:
    """Compensated sum of squared magnitudes."""
    mags = (state.real * state.real + state.imag * state.imag).ravel()
    return math.fsum(mags.tolist())


def decode_registers(index: int, circuit: Circuit, registers=None) -> dict[str, list[int]]:
    """Subregister values of one basis-state index, per register name."""
    names = registers if registers is not None else [r.name for r in circuit.registers]
    out = {}
    for name in names:
        width = circuit.register(name).width
        mask = (1 << width) - 1
        out[name] = [(index >> q) & mask for q in circuit.register_qubits(name)[::width]]
    return out


def branch_table(state: np.ndarray, circuit: Circuit, registers=None, tol: float = BRANCH_TOL,
                 max_branches: int = 10 ** 6):
    """All basis states with |amplitude| > tol, decoded per register."""
    nz = np.flatnonzero(np.abs(state) > tol)
    if len(nz) > max_branches:
        raise ValueError(f"{len(nz)} branches exceed the {max_branches} cap")
    return [(decode_registers(int(i), circuit, registers), complex(state[i])) for i in nz]


def assert_register_disentangled(state: np.ndarray, circuit: Circuit, name: str,
                                 tol: float = AMPLITUDE_TOL) -> tuple[bool, float]:
    """Check that every nonzero amplitude has this register at zero.

    Returns (disentangled_at_zero, max leakage amplitude magnitude).
    """
    n = circuit.num_qubits
    mags = np.abs(state).reshape((2,) * n)
    good = [slice(None)] * n
    for q in circuit.register_qubits(name):
        good[n - 1 - q] = slice(0, 1)
    mags = mags.copy()
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


def sample(state: np.ndarray, shots: int, seed: int, circuit: Circuit, register: str | None = None) -> Counter:
    """Histogram of ``shots`` basis-state draws, marginalised to one register.

    Keys are tuples of subregister values (or the full decoded register dict
    flattened over all registers when register is None).  Deterministic for a
    fixed seed.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    probs = state.real * state.real + state.imag * state.imag
    probs = probs / probs.sum()
    draws = rng.choice(len(state), size=shots, p=probs)
    names = None if register is None else [register]
    histogram = Counter()
    for index, count in zip(*np.unique(draws, return_counts=True)):
        values = decode_registers(int(index), circuit, names).values()
        histogram[tuple(v for subs in values for v in subs)] += int(count)
    return histogram


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
