"""Dense statevector oracle and dense-vector views of the sparse simulator.

The dense kernel (``dense_evolve``/``dense_run``) stores all 2^n amplitudes
and applies each gate's 2x2 matrix to the two half-states it acts on, one
cache-sized block at a time; it is the reference the sparse backend is checked
against.  ``initial_state``, ``evolve``, ``run``, ``branch_table`` and
``sample`` take and give 2^n vectors but simulate with ``qshuffle.simulator``,
so tests that read dense vectors keep exercising the shipping simulator.  The
remaining helpers read dense vectors, decode draw records, replay, sample
and extend words the classical way (``replay_reversed_fisher_yates``,
``sample_fisher_yates``, ``lemma1_extend``), build classical and gate
fixtures, spell an index as its address and encode and read circuit text
the simple way (``ref_of``, ``circuit_to_dict``, ``circuit_from_qasm``),
build circuits the old way (``build_via_swap_gates``), name gate classes
(``primitive_multiset``), sum the cost formulas iteration by iteration
(``sweep_rows``) or take the weighted depth gate by gate through
``Circuit.gate_qubits`` (``weighted_depth``); none has a caller outside the
tests.

Amplitude indexing: bit g of a basis-state index is global qubit g (qubit 0
is the least significant bit), matching the circuit's register numbering.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter, deque
from math import factorial

import numpy as np

from qshuffle import simulator
from qshuffle.builders import ANC, DATA, PERM, BuildSpec, register_layout
from qshuffle.circuit import Circuit, Control, Gate, cost_class, value_controls
from qshuffle.prep import u_gates, v_gates

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
    for k, state in simulator.evolve(circuit, _start(circuit, initial)):
        yield k, to_dense(state, circuit.num_qubits)


def run(circuit: Circuit, initial=None) -> np.ndarray:
    return to_dense(simulator.run(circuit, _start(circuit, initial)), circuit.num_qubits)


def branch_table(state: np.ndarray, circuit: Circuit):
    return simulator.branch_table(to_sparse(state), circuit)


def sample(state: np.ndarray, shots: int, seed: int, circuit: Circuit, register: str | None = None) -> Counter:
    """``simulator.sample`` keyed by subregister values: those of ``register``,
    or of every register in order, flattened, when it is None."""
    histogram = Counter()
    decode = simulator.decoder(circuit)
    for index, count in simulator.sample(to_sparse(state), shots, seed).items():
        decoded = decode(index)
        values = decoded.values() if register is None else [decoded[register]]
        histogram[tuple(v for subs in values for v in subs)] += count
    return histogram


_R = 1.0 / math.sqrt(2.0)
_EXCHANGE = ((0.0, 1.0), (1.0, 0.0))
_FIXED = {"X": _EXCHANGE, "H": ((_R, _R), (_R, -_R))}
_BIT = (slice(0, 1), slice(1, 2))  # length-1 slices keep every index a view


def _matrix(gate: Gate) -> tuple:
    """The gate's 2x2 matrix over the two half-states it acts on: target bit 0/1."""
    if gate.primitive in _FIXED:
        return _FIXED[gate.primitive]
    if gate.primitive == "RY":
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
        return ((c, -s), (s, c))
    if gate.primitive == "RZ":
        return ((np.exp(-0.5j * gate.angle), 0.0), (0.0, np.exp(0.5j * gate.angle)))
    raise ValueError(f"unknown primitive {gate.primitive!r}")


def _apply_inplace(state: np.ndarray, n: int, gate: Gate, controls, scratch) -> None:
    index = [slice(None)] * n
    for q, v in controls:
        index[n - 1 - q] = _BIT[v]
    lo, hi = list(index), list(index)
    lo[n - 1 - gate.target], hi[n - 1 - gate.target] = _BIT  # target bit 0, target bit 1
    view = state.reshape((2,) * n)
    (a, b), (c, d) = m = _matrix(gate)
    outer = [axis for axis, s in enumerate(lo) if s == slice(None)][:-BLOCK_BITS]  # top free qubits
    for block in range(1 << len(outer)):  # each fixes the outer qubits: 2^BLOCK_BITS amplitudes a half
        for k, axis in enumerate(outer):
            lo[axis] = hi[axis] = _BIT[(block >> k) & 1]
        s0, s1 = view[tuple(lo)], view[tuple(hi)]
        t, u = scratch[:2 * s0.size].reshape((2, *s0.shape))
        if m is _EXCHANGE:  # X
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
        _apply_inplace(state, n, gate, controls, scratch)
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
    return circuit.extend([gate._replace(controls=gate.controls + value_controls(qubits, value))])


def is_word(word) -> bool:
    word = tuple(word)
    return sorted(word) == list(range(len(word)))


def replay_reversed_fisher_yates(n: int, draws) -> tuple[int, ...]:
    """Run the ascending-index shuffle on the identity array with fixed draws.

    draws = (j_1, .., j_{n-1}) with 0 <= j_i <= i; step i exchanges a[j_i]
    and a[i].  Returns the final array, i.e. the word of the sampled
    permutation.  Pure: equal draws give equal words.
    """
    draws = tuple(draws)
    if len(draws) != n - 1:
        raise ValueError(f"need {n - 1} draws for n={n}, got {len(draws)}")
    a = list(range(n))
    for i in range(1, n):
        j = draws[i - 1]
        if not 0 <= j <= i:
            raise ValueError(f"draw {j} out of range 0..{i} at step {i}")
        a[j], a[i] = a[i], a[j]
    return tuple(a)


def sample_fisher_yates(n: int, rng, direction: str = "reversed") -> tuple[int, ...]:
    """Uniformly random word via the Fisher-Yates shuffle.

    direction="forward" walks i = n-1 .. 1 (Durstenfeld), "reversed" walks
    i = 1 .. n-1; both draw j uniformly from 0..i and exchange a[j], a[i].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = list(range(n))
    steps = range(n - 1, 0, -1) if direction == "forward" else range(1, n)
    if direction not in ("forward", "reversed"):
        raise ValueError(f"unknown direction {direction!r}")
    for i in steps:
        j = int(rng.integers(0, i + 1))
        a[j], a[i] = a[i], a[j]
    return tuple(a)


def lemma1_extend(words) -> list[tuple[int, ...]]:
    """One recursion step of the symmetric-group bijection.

    Input must be exactly the i! words of S_i.  For every word and every
    exchange index 0 <= j <= i, extend the word by w[i] = i and swap entries
    j and i; the (i+1)! outputs enumerate S_{i+1} without duplicates.
    (Swapping entries of the word is left-composition with the transposition
    (j i): the new word maps j -> i and i -> old w[j].)
    """
    words = [tuple(w) for w in words]
    if not words:
        raise ValueError("empty input")
    i = len(words[0])
    if len(set(words)) != len(words):
        raise ValueError("duplicate input words")
    if len(words) != factorial(i) or not all(is_word(w) and len(w) == i for w in words):
        raise ValueError(f"input is not all of S_{i}")
    out = []
    for w in words:
        for j in range(i + 1):
            nw = list(w) + [i]
            nw[j], nw[i] = nw[i], nw[j]
            out.append(tuple(nw))
    return out


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


def ref_of(circuit: Circuit, index: int) -> tuple[str, int, int]:
    """The (register, subregister, bit) address of a global index, by a scan
    over ``circuit.registers``: the inverse of ``Circuit.qubit``."""
    offset = 0
    for r in circuit.registers:
        size = r.count * r.width
        if 0 <= index - offset < size:
            return (r.name, *divmod(index - offset, r.width))
        offset += size
    raise ValueError(f"qubit index {index} out of range")


def circuit_to_dict(circuit: Circuit) -> dict:
    """The circuit JSON schema as nested dicts: ``json.dumps`` of it is the
    reference text ``serialize.circuit_to_json`` must write byte for byte."""

    def address(q):
        reg, sub, bit = ref_of(circuit, q)
        return {"reg": reg, "sub": sub, "bit": bit}

    return {
        "registers": [
            {"name": r.name, "count": r.count, "width": r.width} for r in circuit.registers
        ],
        "gates": [
            {
                "primitive": g.primitive,
                "angle": g.angle,
                "targets": [address(g.target)],
                "controls": [address(c.qubit) | {"value": c.value} for c in g.controls],
            }
            for g in circuit.gates
        ],
        "metadata": circuit.metadata,
    }


_QASM_STATEMENT = re.compile(r"((?:(?:neg)?ctrl @ )*)(x|h|ry|rz|cx)(?:\((.+)\))? "
                             r"(q\[\d+\](?:, q\[\d+\])*);")


def circuit_from_qasm(text: str) -> Circuit:
    """Read the OpenQASM 3 subset ``circuit_to_qasm`` writes: one flat array
    ``q``, ``x h ry rz cx`` and ``ctrl @``/``negctrl @`` modifiers with
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
        (target,) = qubits[len(values):]
        gate = Gate(name.upper(), None if angle is None else float(angle), target, controls)
        circuit.extend([gate])
    return circuit


def _class_name(primitive: str, m: int) -> str:
    cls = cost_class(primitive, m)
    return f"C{m}X" if cls == "mcx" else cls.upper()


def primitive_class(gate: Gate) -> str:
    """Class name of a gate: X, CX, C{m}X (m >= 2), H, CH, RY, CRY, RZ."""
    return _class_name(gate.primitive, len(gate.controls))


def primitive_multiset(circuit: Circuit) -> Counter:
    """Multiset of counting-alphabet classes over the gate list."""
    return Counter(_class_name(g.primitive, len(g.controls)) for g in circuit.gates)


def build_via_swap_gates(spec: BuildSpec) -> tuple[Circuit, tuple[int, ...]]:
    """``builders.build_with_checkpoints`` the way it was first written: every
    address resolved through ``Circuit.qubit`` where it is used, each
    controlled swap of qubits a, b written out here as CX(a->b), X on a
    controlled on the draw and b, CX(a->b) (not through
    ``lowering.swap_gates``), and a new ``Gate`` object for every gate outside a prep."""
    n, w = spec.n, spec.word_width
    metadata = {"variant": spec.variant, "n": n, "m": spec.m, "encoding": spec.encoding,
                "lowering": "counting"}
    circuit = Circuit(register_layout(spec), metadata)
    q = circuit.qubit

    def controls(reg, sub, value, width):  # (reg, sub) holds value on its low bits
        return value_controls([q(reg, sub, k) for k in range(width)], value)

    def swap(reg, j, i, width, draw):
        for bit in range(width):
            a, b = q(reg, j, bit), q(reg, i, bit)
            circuit.extend([Gate("X", None, b, (Control(a, 1),)), Gate("X", None, a, draw + (Control(b, 1),)),
                            Gate("X", None, b, (Control(a, 1),))])

    if spec.has_perm:
        for k in range(1, n):
            for bit in range(k.bit_length()):
                if (k >> bit) & 1:
                    circuit.extend([Gate("X", None, q(PERM, k, bit))])
    checkpoints = []
    for i in range(1, n):
        checkpoints.append(len(circuit))
        b = i.bit_length()
        anc = ANC if spec.disentangling else f"{ANC}{i}"
        prep = u_gates if spec.encoding == "binary" else v_gates
        circuit.extend(prep(i, circuit.register_qubits(anc)))
        for j in range(i):
            if spec.encoding == "binary":
                draw = controls(anc, 0, j, b)
            else:
                draw = (Control(q(anc, 0, j), 1),)
            if spec.has_data:
                swap(DATA, j, i, spec.m, draw)
            if spec.has_perm:
                swap(PERM, j, i, w, draw)
        if spec.disentangling:
            if spec.encoding == "binary":
                for j in range(1, i + 1):
                    for bit in range(b):
                        if (j >> bit) & 1:
                            circuit.extend([Gate("X", None, q(ANC, 0, bit), controls(PERM, j, i, b))])
            else:
                for j in range(i):
                    circuit.extend([Gate("X", None, q(ANC, 0, j), controls(PERM, j, i, b))])
    checkpoints.append(len(circuit))
    return circuit, tuple(checkpoints)


def _prep_counts(i: int, binary: bool, p) -> tuple[int, int]:
    """(gates, cycles) of the uniform prep over 0..i, read off the gate lists
    in the ``prep`` module docstring."""
    if not binary:  # RY, then (CRY, CX) per extra state: a sequential chain
        gates = p.cost("RY", 0) + (i - 1) * (p.cost("RY", 1) + p.cost("X", 1))
        return gates, gates
    m = i + 1
    s = [bit for bit in range(m.bit_length()) if (m >> bit) & 1]
    if len(s) == 1:  # one layer of Hadamards on the s_0 = bitlen(i) qubits
        return s[0] * p.cost("H", 0), p.cost("H", 0)
    rest = p.cost("RY", 0) + (len(s) - 1) * p.cost("RY", 1) + (s[-1] - s[0]) * p.cost("H", 1)
    return s[0] * p.cost("H", 0) + rest, min(s[0], 1) * p.cost("H", 0) + rest


def sweep_rows(variant: str, n_values, m, encoding: str, p) -> list[tuple[int, int, int, int]]:
    """The rows ``resources.scaling_table`` must give: for each n, the terms
    of the ``resources`` module docstring summed over iterations i = 1..n-1
    from scratch, with a fresh ``p.cost`` per use."""
    binary = encoding == "binary"
    rows = []
    for n in sorted(set(n_values)):
        spec = BuildSpec(variant, n, m, encoding)
        init = prep_gates = prep_cycles = prep_cycles_max = swap = uncompute = ancilla = 0
        cum_hamming = 0  # sum hamming(j), j <= i
        for i in range(1, n):
            b = i.bit_length()
            init += bin(i).count("1") * p.cost("X", 0)
            gates, cycles = _prep_counts(i, binary, p)
            prep_gates += gates
            prep_cycles += cycles
            prep_cycles_max = max(prep_cycles_max, cycles)
            swap += i * (2 * p.cost("X", 1) + p.cost("X", b + 1 if binary else 2))
            cum_hamming += bin(i).count("1")
            uncompute += (cum_hamming if binary else i) * p.cost("X", b)
            ancilla += b if binary else i
        w = max((n - 1).bit_length(), 1)
        width = (w if spec.has_perm else 0) + (m if spec.has_data else 0)
        gates, cycles = prep_gates + width * swap, width * swap
        if spec.disentangling:
            qubits = w if binary else max(n - 1, 1)
            gates += uncompute
            cycles += prep_cycles + uncompute
        else:
            qubits = ancilla
            cycles += prep_cycles_max
        if spec.has_perm:
            qubits += n * w
            gates += init
            cycles += p.cost("X", 0) if n > 1 else 0
        if spec.has_data:
            qubits += m * n
        rows.append((n, qubits, gates, cycles))
    return rows


def weighted_depth(circuit: Circuit, profile) -> int:
    """``resources.weighted_depth`` as first written: each gate's qubits listed
    by ``Circuit.gate_qubits``, its start the max of their finish times."""
    finish = [0] * circuit.num_qubits  # per qubit: when its last gate ends
    costs: dict[tuple[str, int], int] = {}
    for gate in circuit.gates:
        qubits = circuit.gate_qubits(gate)
        key = (gate.primitive, len(gate.controls))
        if key not in costs:
            costs[key] = profile.cost(*key)
        end = max([finish[q] for q in qubits]) + costs[key]
        for q in qubits:
            finish[q] = end
    return max(finish, default=0)
