"""Builders for the five shuffle circuits.

Variants (tags follow the CLI):

* ``A``   state preparation, ancilla uncomputed each iteration,
* ``At``  state preparation, ancilla left entangled (fresh subregister per
          iteration, holding the draw record),
* ``B``   data shuffle recording the permutation, ancilla uncomputed,
* ``Bt``  data shuffle recording the permutation, ancilla entangled,
* ``C``   light data shuffle: no permutation register, the draw record in
          the ancilla is the only permutation bookkeeping.

All variants share one loop shape: initialise the permutation register with
the identity word (one X per set bit of k in subregister k), then for each
iteration i = 1..n-1 put the ancilla (sub)register into a uniform
superposition of the draws 0..i and, for every j < i, swap subregisters j
and i of the data and/or permutation register controlled on the ancilla
holding draw j.  Disentangling variants then clear the ancilla: draw j left
the value i in permutation subregister j, so an X cascade on the ancilla
controlled on perm:j == i returns it to zero.

Controls are economical: iteration i only ever compares values <= i, so
b_i = bitlen(i) ancilla bits (binary) or one ancilla qubit (one-hot)
suffice, and the uncompute controls read only the low b_i bits of perm:j.
Each controlled swap is written as X gates, so the gate list is already in
the counting alphabet: each qubit pair becomes the triple CX, multi-controlled
X, CX of ``lowering.swap_gates``.  A build resolves (and checks) every
subregister's qubits once, shares one positive ``Control`` per qubit and one
control tuple per condition, and hands each iteration's gates to
``Circuit.extend`` in one call.

One-hot draw encoding: ancilla bit j set means draw j (swap (j, i)); the
all-zero ancilla state is draw i (no swap), so every swap needs only a
single positive ancilla control.
"""

from __future__ import annotations

from typing import NamedTuple

from .circuit import Circuit, Control, Gate, Register, spec_int, value_controls
from .lowering import swap_gates
from .prep import ENCODINGS, u_gates, v_gates

VARIANTS = ("A", "At", "B", "Bt", "C")

DATA, PERM, ANC = "data", "perm", "anc"


class _BuildSpec(NamedTuple):
    variant: str
    n: int
    m: int | None = None
    encoding: str = "binary"


class BuildSpec(_BuildSpec):
    __slots__ = ()

    def __new__(cls, variant: str, n: int, m: int | None = None, encoding: str = "binary"):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
        spec = super().__new__(cls, variant, spec_int("n", n, 1), None if m is None else spec_int("m", m),
                               encoding)
        if encoding not in ENCODINGS:
            raise ValueError(f"unknown encoding {encoding!r}")
        if spec.has_data:
            if spec.m is None or spec.m < 1:
                raise ValueError(f"variant {variant} needs a data width m >= 1")
        elif spec.m is not None:
            raise ValueError(f"variant {variant} has no data register; drop m")
        return spec

    @classmethod
    def _make(cls, fields):  # ``_replace`` builds through this, so it validates too
        return cls(*fields)

    @property
    def has_data(self) -> bool:
        return self.variant in ("B", "Bt", "C")

    @property
    def has_perm(self) -> bool:
        return self.variant != "C"

    @property
    def disentangling(self) -> bool:
        return self.variant in ("A", "B")

    @property
    def word_width(self) -> int:
        """Permutation subregister width ceil(log2 n); 1 for the degenerate n = 1."""
        return max((self.n - 1).bit_length(), 1)


def register_layout(spec: BuildSpec) -> list[Register]:
    n, w = spec.n, spec.word_width
    layout: list[Register] = []
    if spec.has_data:
        layout.append(Register(DATA, n, spec.m))
    if spec.has_perm:
        layout.append(Register(PERM, n, w))
    if spec.disentangling:
        width = w if spec.encoding == "binary" else max(n - 1, 1)
        layout.append(Register(ANC, 1, width))
    else:
        for i in range(1, n):
            width = i.bit_length() if spec.encoding == "binary" else i
            layout.append(Register(f"{ANC}{i}", 1, width))
    return layout


def init_identity_word(circuit: Circuit, n: int) -> Circuit:
    """Write |k> into permutation subregister k, for k = 1..n-1 (one X per set bit)."""
    return circuit.extend(Gate("X", None, circuit.qubit(PERM, k, bit))
                          for k in range(1, n) for bit in range(k.bit_length()) if (k >> bit) & 1)


def build_with_checkpoints(spec: BuildSpec) -> tuple[Circuit, tuple[int, ...]]:
    """Build the circuit plus the gate index at the start of each iteration
    (and the end index), for mid-circuit state checks."""
    n, binary = spec.n, spec.encoding == "binary"
    circuit = Circuit(register_layout(spec), spec._asdict() | {"lowering": "counting"})
    qubits = {r.name: [[circuit.qubit(r.name, k, bit) for bit in range(r.width)] for k in range(r.count)]
              for r in circuit.registers}  # every subregister resolved, and checked, once
    pos = [Control(k, 1) for k in range(circuit.num_qubits)]  # one positive control per qubit
    swapped = [[[pos[k] for k in sub] for sub in qubits[reg]] for reg in (DATA, PERM) if reg in qubits]
    conditions = {}

    def holds(sub, value, width):  # controls: the low width qubits of sub hold value
        key = (sub[0], value, width)  # one tuple per condition per build
        if key not in conditions:
            conditions[key] = value_controls(sub[:width], value)
        return conditions[key]

    if spec.has_perm:
        init_identity_word(circuit, n)
    checkpoints = []
    for i in range(1, n):
        checkpoints.append(len(circuit))
        b = i.bit_length()
        anc = qubits[ANC if spec.disentangling else f"{ANC}{i}"][0]
        gates = u_gates(i, anc) if binary else v_gates(i, anc)
        for j in range(i):
            draw = holds(anc, j, b) if binary else (pos[anc[j]],)
            for reg in swapped:
                for x, y in zip(reg[j], reg[i]):
                    gates += swap_gates(x, y, draw)
        if spec.disentangling:  # clear draw j's ancilla pattern where perm:j holds i
            for j in range(1, i + 1) if binary else range(i):
                cleared = holds(qubits[PERM][j], i, b)
                bits = [bit for bit in range(b) if (j >> bit) & 1] if binary else [j]
                gates += [Gate("X", None, anc[bit], cleared) for bit in bits]
        circuit.extend(gates)
    checkpoints.append(len(circuit))
    return circuit, tuple(checkpoints)


def build(spec: BuildSpec) -> Circuit:
    return build_with_checkpoints(spec)[0]
