"""Sparse branch simulation over the circuit IR.

A state is a pair ``(indices, amplitudes)``: the int64 basis indices of its
live branches, in no particular order, and their complex128 amplitudes.  Bit g
of an index is global qubit g (qubit 0 is the least significant bit), matching
the circuit's register numbering.  A correct shuffle build holds i! branches
before iteration i, far fewer than 2^qubits, and every gate costs time linear
in the live branches.

``_apply`` reads each gate's primitive, angle, target and controls as it
applies it; a gate without controls skips the pass that finds where they
hold.  X moves indices (an XOR of the target bit where the controls hold),
RZ multiplies each controlled amplitude by the phase of its target bit, and
H/RY send each controlled branch to both target values and merge equal
indices, dropping |amplitude| <= BRANCH_TOL.  When no controlled branch has
the target bit set (a fresh qubit, as each prep's ancilla is), no two outputs
can meet: H/RY then keep those branches and append their copies with the bit
set, weighted by the matrix's from-0 column, and skip the merge.
``SimulationCapExceeded`` is raised above MAX_QUBITS qubits (``check_width``)
or as soon as a state the simulator holds has more than MAX_BRANCHES branches.

``evolve`` is the one gate loop.  It yields ``(k, state)``: k = 0 and the
start state, then, after each step, the number of gates applied so far and
the state.  A step is one of three kinds:

* one Toffoli network that full lowering wrote (``lowering.toffoli_at``):
  its 15 gates, two of them H gates that split and re-merge the branches,
  are applied as its Toffoli, one index pass, with the amplitudes times
  TOFFOLI_PHASE; the amplitudes differ from a gate-by-gate run's by rounding
  and by the tiny ones it drops;
* one counting-level swap (``lowering.swap_at``): its three X gates are one
  index pass that exchanges the two bits where the controls hold and the bits
  differ, exactly what the three gates do;
* one gate.

A fused step never holds its gates' inner states, so the branch cap sees
every state the simulator holds.  No array is updated in place, so a yielded
state may be kept.  ``run`` returns the last state ``evolve`` yields.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from collections.abc import Iterable, Mapping

import numpy as np

from .circuit import Circuit, Gate
from .lowering import TOFFOLI_PHASE, swap_at, toffoli_at

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
    per-subregister values; ValueError for any other start.  Indices and
    values are ints or numpy integers, never bools; amplitudes are finite
    numbers, never strings or bools.  ``run`` is linear in its start and does
    not normalise it: ``([0], [2.0])`` runs a state whose squared norm is 4."""
    n = circuit.num_qubits
    if isinstance(initial, tuple):
        try:  # a pair of anything but two flat lists fails here in numpy's or Python's words
            indices, amplitudes = initial
            indices, amplitudes = np.asarray(indices), np.asarray(amplitudes)
        except (ValueError, TypeError):
            indices = amplitudes = np.zeros((0, 0))
        if (indices.ndim != 1 or indices.shape != amplitudes.shape or amplitudes.dtype.kind not in "iufc"
                or not np.isfinite(amplitudes).all()):  # kind: numbers, no str, bytes, bool or object
            raise ValueError(f"start {initial!r} is not 1-d indices and finite amplitudes of one length")
        if indices.size and indices.dtype.kind not in "iu":  # float, bool or object
            raise ValueError(f"basis indices {initial[0]!r} are not integers")
        if len(indices) and not (0 <= indices.min() and indices.max() < (1 << n)):
            raise ValueError(f"basis index out of range for {n} qubits")
        if len(np.unique(indices)) != len(indices):
            raise ValueError("repeated basis index")
        return indices.astype(np.int64), amplitudes.astype(complex)
    index = 0
    if isinstance(initial, (int, np.integer)) and type(initial) is not bool:
        if not 0 <= initial < (1 << n):
            raise ValueError(f"basis index {initial} out of range for {n} qubits")
        index = int(initial)
    elif initial is not None:
        if not isinstance(initial, Mapping):
            raise ValueError(f"start {initial!r} is not a basis index, (indices, amplitudes) or a mapping")
        for name, values in initial.items():
            reg = circuit.register(name)
            if not isinstance(values, Iterable):
                raise ValueError(f"register {name!r} needs a list of {reg.count} values, got {values!r}")
            values = list(values)
            if len(values) != reg.count:
                raise ValueError(f"register {name!r} has {reg.count} subregisters, got {len(values)} values")
            for sub, value in enumerate(values):
                if (not isinstance(value, (int, np.integer)) or type(value) is bool
                        or not 0 <= value < (1 << reg.width)):
                    raise ValueError(f"value {value!r} does not fit register {name!r} width {reg.width}")
                index |= value << circuit.qubit(name, sub, 0)
    return np.array([index], dtype=np.int64), np.ones(1, dtype=complex)


def _apply(state, gate: Gate):
    """The state after one gate, which acts where its controls hold.  A gate
    without controls skips that pass."""
    indices, amplitudes = state
    primitive, angle, target, controls = gate
    bit, hit = 1 << target, None
    if controls:
        hit = (indices & sum(1 << c.qubit for c in controls)) == sum(c.value << c.qubit for c in controls)
    if primitive == "X":
        flipped = indices ^ bit
        return (flipped if hit is None else np.where(hit, flipped, indices)), amplitudes
    one = (indices & bit) != 0
    if primitive == "RZ":
        phased = amplitudes * np.where(one, np.exp(0.5j * angle), np.exp(-0.5j * angle))
        return indices, (phased if hit is None else np.where(hit, phased, amplitudes))
    if primitive == "H":  # the matrix: a, b to bit 0 and c, d to bit 1, from bit 0 and bit 1
        a = b = c = 1.0 / math.sqrt(2.0)
        d = -a
    else:
        a = d = math.cos(angle / 2.0)
        c = math.sin(angle / 2.0)
        b = -c
    if hit is not None:  # mix only the branches it acts on; the others come first, unchanged
        skipped = indices[~hit], amplitudes[~hit]
        indices, amplitudes, one = indices[hit], amplitudes[hit], one[hit]
    if one.any():  # outputs may meet: sum the weights of equal indices
        outputs = np.concatenate((indices & ~bit, indices | bit))
        weights = np.concatenate((np.where(one, b, a) * amplitudes, np.where(one, d, c) * amplitudes))
        outputs, inverse = np.unique(outputs, return_inverse=True)
        weights = np.bincount(inverse, weights.real) + 1j * np.bincount(inverse, weights.imag)
    else:  # a fresh target: every output is distinct; + 0.0 makes -0.0 parts 0.0, as the sums do
        outputs = np.concatenate((indices, indices | bit))
        weights = np.concatenate((a * amplitudes, c * amplitudes)) + 0.0
    live = np.abs(weights) > BRANCH_TOL
    indices, amplitudes = outputs[live], weights[live]
    if hit is not None:
        indices, amplitudes = np.concatenate((skipped[0], indices)), np.concatenate((skipped[1], amplitudes))
    _guard(indices)
    return indices, amplitudes


def _exchange(state, a: int, b: int, controls):
    """The state after ``lowering.swap_at``'s swap: bits a and b of each index
    exchanged where the controls hold and the two bits differ."""
    indices, amplitudes = state
    mask = sum(1 << c.qubit for c in controls) | 1 << a | 1 << b
    value = sum(c.value << c.qubit for c in controls)
    picked = indices & mask
    move = (picked == value | 1 << a) | (picked == value | 1 << b)
    return np.where(move, indices ^ (1 << a | 1 << b), indices), amplitudes


def check_width(circuit: Circuit) -> None:
    """Raise SimulationCapExceeded if ``circuit`` has more than MAX_QUBITS qubits."""
    n = circuit.num_qubits
    if n > MAX_QUBITS:
        raise SimulationCapExceeded(f"{n} qubits exceeds the simulation cap of {MAX_QUBITS}")


def evolve(circuit: Circuit, initial=None):
    """Yield (k, state): k = 0 and the start state, then the number of gates
    applied and the state after each step: one Toffoli network, one swap
    triple or one gate (see the module docstring)."""
    check_width(circuit)
    state = initial_state(circuit, initial)
    _guard(state[0])
    yield 0, state
    gates = circuit.gates
    k, n = 0, len(gates)
    while k < n:
        if (toffoli := toffoli_at(gates, k)) is not None:
            indices, amplitudes = _apply(state, toffoli)
            state = indices, amplitudes * TOFFOLI_PHASE
            k += 15
        elif (swap := swap_at(gates, k)) is not None:
            state = _exchange(state, *swap)
            k += 3
        else:
            state = _apply(state, gates[k])
            k += 1
        yield k, state


def run(circuit: Circuit, initial=None) -> tuple[np.ndarray, np.ndarray]:
    """The last state ``evolve`` yields."""
    return deque(evolve(circuit, initial), maxlen=1)[0][1]


def decoder(circuit: Circuit):
    """A function from a basis-state index to its subregister values, per
    register name; each register's subregister start qubits are worked out
    once, for a table or histogram that decodes many indices."""
    layout = [(reg.name, (1 << reg.width) - 1, circuit.register_qubits(reg.name)[::reg.width])
              for reg in circuit.registers]
    return lambda index: {name: [(index >> q) & mask for q in starts] for name, mask, starts in layout}


def _sorted(state) -> tuple[np.ndarray, np.ndarray]:
    indices, amplitudes = state
    order = np.argsort(indices)
    return indices[order], amplitudes[order]


def branch_table(state, circuit: Circuit):
    """All branches with |amplitude| > BRANCH_TOL in ascending basis-index
    order, decoded per register."""
    indices, amplitudes = _sorted(state)
    live = np.abs(amplitudes) > BRANCH_TOL
    decode = decoder(circuit)
    return [(decode(int(i)), complex(a)) for i, a in zip(indices[live], amplitudes[live])]


def sample(state, shots: int, seed: int) -> Counter:
    """Histogram of ``shots`` basis-state draws: basis index -> count.
    Deterministic for a fixed seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    indices, amplitudes = _sorted(state)
    probs = amplitudes.real * amplitudes.real + amplitudes.imag * amplitudes.imag
    probs = probs / probs.sum()
    draws = indices[rng.choice(len(indices), size=shots, p=probs)]
    values, counts = np.unique(draws, return_counts=True)
    return Counter(dict(zip(values.tolist(), counts.tolist())))
