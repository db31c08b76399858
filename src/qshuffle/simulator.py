"""Dense statevector simulation over the circuit IR.

Amplitude indexing: bit g of a basis-state index is global qubit g (qubit 0
is the least significant bit), matching the circuit's register numbering.

One kernel applies every gate exactly, without lowering.  Length-1 slices
fix each control qubit at its required value and pick the two half-states
the gate acts on (target bit 0 and 1, or SWAP's |01> and |10>), one cache-sized
block at a time.  The gate's 2x2 matrix then exchanges the two (X, SWAP),
scales each by a phase (RZ) or mixes them (H, RY) through a small scratch array.

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
BLOCK_BITS = 14  # gates run on blocks of 2^14 amplitudes: four fit a 2 MiB L2 cache
MAX_BRANCHES = 10 ** 6  # branch_table refuses to decode more nonzero branches

AMPLITUDE_TOL = 1e-10
BRANCH_TOL = 1e-12


class SimulationCapExceeded(ValueError):
    """Raised when a circuit is too wide for dense simulation."""


def initial_state(circuit: Circuit, initial=None) -> np.ndarray:
    """Build the start state: None (all zeros), a basis index, a statevector
    (copied), or a mapping register name -> list of per-subregister values."""
    n = circuit.num_qubits
    if isinstance(initial, np.ndarray):
        if initial.shape != (1 << n,):
            raise ValueError("statevector dimension mismatch")
        return initial.astype(complex)
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
                index |= value << circuit.qubit_index(QubitRef(name, sub, 0))
    state = np.zeros(1 << n, dtype=complex)
    state[index] = 1.0
    return state


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


def evolve(circuit: Circuit, initial=None):
    """Yield the start state, then the same array after each gate in turn."""
    n = circuit.num_qubits
    if n > QUBIT_CAP:
        raise SimulationCapExceeded(f"{n} qubits exceeds the dense simulation cap of {QUBIT_CAP}")
    state = initial_state(circuit, initial)
    scratch = np.empty(min(state.size, 2 << BLOCK_BITS), dtype=complex)  # every gate's temporaries
    yield state
    for gate in circuit.gates:
        targets = tuple(circuit.qubit_index(t) for t in gate.targets)
        controls = tuple((circuit.qubit_index(c.qubit), c.value) for c in gate.controls)
        _apply_inplace(state, n, gate, targets, controls, scratch)
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


def branch_table(state: np.ndarray, circuit: Circuit):
    """All basis states with |amplitude| > BRANCH_TOL, decoded per register."""
    nz = np.flatnonzero(np.abs(state) > BRANCH_TOL)
    if len(nz) > MAX_BRANCHES:
        raise ValueError(f"{len(nz)} branches exceed the {MAX_BRANCHES} cap")
    return [(decode_registers(int(i), circuit), complex(state[i])) for i in nz]


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
