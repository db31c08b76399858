"""Sparse branch simulation over the circuit IR.

A state is a pair ``(indices, amplitudes)``: the int64 basis indices of its
live branches, in no particular order, and their complex128 amplitudes.  Bit g
of an index is global qubit g (qubit 0 is the least significant bit), matching
the circuit's register numbering.  A correct shuffle build holds i! branches
before iteration i, far fewer than 2^qubits, and every gate costs time linear
in the live branches.

Each distinct gate object is resolved once per call (by identity) to its
target bit, control mask/value and RZ phases or H/RY matrix.  X moves indices
(an XOR of the target bit where the controls hold), RZ multiplies each
controlled amplitude by the phase of its target bit, and H/RY send each
controlled branch to both target values and merge equal indices, dropping
|amplitude| <= BRANCH_TOL.
``SimulationCapExceeded`` is raised above MAX_QUBITS qubits (``check_width``)
or as soon as a state the simulator holds has more than MAX_BRANCHES branches.

``evolve`` yields the start state, then the state after each gate, one gate
at a time.  No array is updated in place, so a yielded state may be kept.

``run`` returns the state ``evolve`` yields last, with fewer passes.  It walks
the gate list in maximal runs on at most FOLD_QUBITS qubits (and FOLD_GATES
gates).  Of each run it takes the longest prefix of at least 2 gates whose
product on the run's 2^k local codes is monomial, with exactly one entry above
BRANCH_TOL per column: a fully lowered Toffoli network is one.  That prefix is
one table pass: a binary search finds each index's local code, then the index
is XORed with the code's move and the amplitude multiplied by its phase
(skipped when every phase is 1).  Every other gate goes through the per-gate
kernel.  A monomial block changes no branch count and holds no state in
between, so the branch cap still sees every state the simulator holds.  Each
run's table is memoised by its gates' identities and compiled once per shape,
the run with its qubits renumbered in order of first use, so all Toffoli
networks share one table.  Compiling pays only where runs repeat, so ``run``
folds only circuits with at least FOLD_REPEATS gates per distinct gate, counted
by value so that a circuit and its file round trip fold alike.  Counting-level
builds repeat about 1.35 times and run gate by gate; fully lowered ones repeat
2.4-16 times.  Folded amplitudes differ from ``evolve``'s by rounding and by
the tiny amplitudes that ``evolve`` would drop inside a block.
"""

from __future__ import annotations

import math
from collections import Counter, deque

import numpy as np

from .circuit import Circuit, Gate

MAX_QUBITS = 63  # basis indices are int64
MAX_BRANCHES = 10 ** 6  # memory guard: refuse states with more live branches

BRANCH_TOL = 1e-12
FOLD_QUBITS = 3  # run folds runs of gates on at most this many qubits,
FOLD_GATES = 32  # at most this many gates long (a bound on compile work),
FOLD_REPEATS = 2  # in circuits with at least this many gates per distinct gate


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


def _resolve(gate: Gate) -> tuple:
    """(primitive, target bit, control mask, control value, matrix): the gate's
    2x2 matrix as rows (to bit 0, to bit 1) of columns (from bit 0, from bit 1)."""
    coefficients, angle = None, gate.angle
    if gate.primitive == "X":
        coefficients = (0, 1), (1, 0)
    elif gate.primitive == "RZ":
        coefficients = (np.exp(-0.5j * angle), 0), (0, np.exp(0.5j * angle))
    elif gate.primitive == "H":
        r = 1.0 / math.sqrt(2.0)
        coefficients = (r, r), (r, -r)
    elif gate.primitive == "RY":
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        coefficients = (c, -s), (s, c)
    return (gate.primitive, 1 << gate.target, sum(1 << c.qubit for c in gate.controls),
            sum(c.value << c.qubit for c in gate.controls), coefficients)


def _apply(state, gate: tuple):
    """The state after one resolved gate, which acts where ``indices & mask ==
    value``.  An uncontrolled gate (mask 0) skips that pass."""
    indices, amplitudes = state
    primitive, bit, mask, value, coefficients = gate
    hit = (indices & mask) == value if mask else None
    if primitive == "X":
        flipped = indices ^ bit
        return (flipped if hit is None else np.where(hit, flipped, indices)), amplitudes
    one = (indices & bit) != 0
    if primitive == "RZ":
        (zero, _), (_, unit) = coefficients
        phased = amplitudes * np.where(one, unit, zero)
        return indices, (phased if hit is None else np.where(hit, phased, amplitudes))
    (a, b), (c, d) = coefficients
    if hit is not None:  # mix only the branches it acts on; the others come first, unchanged
        skipped = indices[~hit], amplitudes[~hit]
        indices, amplitudes, one = indices[hit], amplitudes[hit], one[hit]
    outputs = np.concatenate((indices & ~bit, indices | bit))
    weights = np.concatenate((np.where(one, b, a) * amplitudes, np.where(one, d, c) * amplitudes))
    merged, inverse = np.unique(outputs, return_inverse=True)
    sums = np.bincount(inverse, weights.real) + 1j * np.bincount(inverse, weights.imag)
    live = np.abs(sums) > BRANCH_TOL
    indices, amplitudes = merged[live], sums[live]
    if hit is not None:
        indices, amplitudes = np.concatenate((skipped[0], indices)), np.concatenate((skipped[1], amplitudes))
    _guard(indices)
    return indices, amplitudes


def check_width(circuit: Circuit) -> None:
    """Raise SimulationCapExceeded if ``circuit`` has more than MAX_QUBITS qubits."""
    n = circuit.num_qubits
    if n > MAX_QUBITS:
        raise SimulationCapExceeded(f"{n} qubits exceeds the simulation cap of {MAX_QUBITS}")


def _start(circuit: Circuit, initial) -> tuple[np.ndarray, np.ndarray]:
    check_width(circuit)
    state = initial_state(circuit, initial)
    _guard(state[0])
    return state


def evolve(circuit: Circuit, initial=None):
    """Yield the start state, then the state after each gate in turn."""
    state = _start(circuit, initial)
    yield state
    resolved = {}  # id -> _resolve(gate); circuit.gates keeps every gate alive
    for gate in circuit.gates:
        if id(gate) not in resolved:
            resolved[id(gate)] = _resolve(gate)
        state = _apply(state, resolved[id(gate)])
        yield state


class _Tables:
    """The fold tables of one ``run`` call.  A run of gates is compiled once
    per shape: its gates with their qubits renumbered in order of first use."""

    def __init__(self, distinct: dict, resolved: dict):
        self.resolved = resolved  # id -> ``_resolve``(gate), whose last entry is its 2x2 matrix
        self.parts = {}  # id -> (form, qubit bits: controls, then target)
        for key, gate in distinct.items():
            primitive, angle, target, controls = gate
            form = primitive, repr(angle), tuple([c.value for c in controls])
            self.parts[key] = form, (*[1 << c.qubit for c in controls], 1 << target)
        self.matrices, self.shapes = {}, {}

    def table(self, gates: list):
        """(length, mask, patterns, moves, phases) of the longest prefix of at
        least 2 of ``gates`` whose product is monomial, or None: an index whose
        bits under ``mask`` are ``patterns[c]`` gets those bits XORed with
        ``moves[c]`` and its amplitude times ``phases[c]`` (no phases: all 1)."""
        local, shape = {}, []  # qubit bit -> its number in order of first use
        for gate in gates:
            form, bits = self.parts[id(gate)]
            for b in bits:
                if b not in local:
                    local[b] = len(local)
            shape.append((form, tuple([local[b] for b in bits])))
        shape = tuple(shape)
        if shape not in self.shapes:
            self.shapes[shape] = self._compile(shape, 1 << len(local),
                                               [self.resolved[id(gate)][4] for gate in gates])
        if self.shapes[shape] is None:
            return None
        length, moves, phases = self.shapes[shape]
        spread = [0]  # the global bits of each local code
        for b in local:
            spread += [s | b for s in spread]
        spread = np.array(spread, dtype=np.int64)
        order = np.argsort(spread)
        return (length, sum(local), spread[order], spread[moves[order]],
                None if phases is None else phases[order])

    def _compile(self, shape: tuple, dim: int, coefficients: list):
        """(length, moves, phases) per local code, or None: see ``table``;
        ``coefficients`` holds the 2x2 matrix of each gate of ``shape``."""
        prefixes = np.empty((len(shape), dim, dim), dtype=complex)  # products of the first 1, 2, ... gates
        product = np.eye(dim, dtype=complex)
        for step, ((form, positions), unitary) in enumerate(zip(shape, coefficients)):
            product = prefixes[step] = self._matrix(form, positions, dim, unitary) @ product
        live = np.abs(prefixes[1:]) > BRANCH_TOL
        monomial = np.flatnonzero(np.count_nonzero(live, axis=(1, 2)) == dim)  # a unitary: one per column
        if not len(monomial):
            return None
        last = monomial[-1]
        codes = np.arange(dim)
        rows = np.argmax(live[last], axis=0)
        phases = prefixes[last + 1][rows, codes]
        return int(last) + 2, rows ^ codes, None if np.all(phases == 1) else phases

    def _matrix(self, form: tuple, positions: tuple, dim: int, unitary) -> np.ndarray:
        """One gate's matrix on ``dim`` local codes; ``unitary`` is its 2x2 matrix."""
        key = form, positions, dim
        if key not in self.matrices:
            *controls, target = positions
            mask = sum(1 << p for p in controls)
            value = sum(v << p for p, v in zip(controls, form[2]))
            zero = np.array([r for r in range(dim) if r & mask == value and not r >> target & 1],
                            dtype=np.intp)
            one = zero | (1 << target)
            (a, b), (c, d) = unitary
            matrix = np.eye(dim, dtype=complex)
            matrix[zero, zero], matrix[zero, one], matrix[one, zero], matrix[one, one] = a, b, c, d
            self.matrices[key] = matrix
        return self.matrices[key]


def run(circuit: Circuit, initial=None) -> tuple[np.ndarray, np.ndarray]:
    """The last state ``evolve`` yields, with monomial runs folded (see the
    module docstring)."""
    gates = circuit.gates
    distinct = dict(zip(map(id, gates), gates))  # keeps each object alive while its id is a key
    if len(gates) < FOLD_REPEATS * len(set(distinct.values())):
        return deque(evolve(circuit, initial), maxlen=1)[0]
    state = _start(circuit, initial)
    resolved = {key: _resolve(gate) for key, gate in distinct.items()}
    tables = _Tables(distinct, resolved)
    qubits = [r[1] | r[2] for r in map(resolved.__getitem__, map(id, gates))]  # each gate's qubit bits
    blocks = {}  # the ids of a run's gates -> tables.table(run)
    i, n = 0, len(gates)
    while i < n:
        span, j, end = qubits[i], i + 1, min(n, i + FOLD_GATES)
        while j < end and (span | qubits[j]).bit_count() <= FOLD_QUBITS:
            span |= qubits[j]
            j += 1
        if j - i > 1:
            key = tuple(map(id, gates[i:j]))
            if key not in blocks:
                blocks[key] = tables.table(gates[i:j])
            if blocks[key] is not None:
                length, mask, patterns, moves, phases = blocks[key]
                indices, amplitudes = state
                code = np.searchsorted(patterns, indices & mask)
                state = indices ^ moves[code], amplitudes if phases is None else amplitudes * phases[code]
                i += length
                continue
        state = _apply(state, resolved[id(gates[i])])
        i += 1
    return state


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
