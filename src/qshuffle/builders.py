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
Controlled swaps are emitted pre-lowered (2 CX + one multi-controlled X per
qubit pair) so the gate list is already in the counting alphabet.

One-hot draw encoding: ancilla bit j set means draw j (swap (j, i)); the
all-zero ancilla state is draw i (no swap), so every swap needs only a
single positive ancilla control.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, Register, ctrl, gate_swap, gate_x, value_controls
from .lowering import lower_controlled_swap
from .prep import u_gates, v_gates

VARIANTS = ("A", "At", "B", "Bt", "C")
ENCODINGS = ("binary", "onehot")

DATA, PERM, ANC = "data", "perm", "anc"


@dataclass(frozen=True)
class BuildSpec:
    variant: str
    n: int
    m: int | None = None
    encoding: str = "binary"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.encoding not in ENCODINGS:
            raise ValueError(f"unknown encoding {self.encoding!r}")
        if self.has_data:
            if self.m is None or self.m < 1:
                raise ValueError(f"variant {self.variant} needs a data width m >= 1")
        elif self.m is not None:
            raise ValueError(f"variant {self.variant} has no data register; drop m")

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
    for k in range(1, n):
        for bit in range(k.bit_length()):
            if (k >> bit) & 1:
                circuit.append(gate_x(circuit.qubit(PERM, k, bit)))
    return circuit


def _controlled_pairwise_swap(circuit: Circuit, reg: str, j: int, i: int, width: int, controls) -> None:
    q = circuit.qubit
    circuit.extend(g for bit in range(width)
                   for g in lower_controlled_swap(gate_swap(q(reg, j, bit), q(reg, i, bit), controls)))


def build_with_checkpoints(spec: BuildSpec) -> tuple[Circuit, tuple[int, ...]]:
    """Build the circuit plus the gate index at the start of each iteration
    (and the end index), for mid-circuit state checks."""
    n, w = spec.n, spec.word_width
    metadata = {"variant": spec.variant, "n": n, "m": spec.m, "encoding": spec.encoding,
                "lowering": "counting"}
    circuit = Circuit(register_layout(spec), metadata)
    q, conditions = circuit.qubit, {}

    def controls(reg, sub, value, width):  # (reg, sub) holds value on its low bits
        key = (reg, sub, value, width)  # one tuple per condition per build
        if key not in conditions:
            conditions[key] = value_controls([q(reg, sub, k) for k in range(width)], value)
        return conditions[key]

    if spec.has_perm:
        init_identity_word(circuit, n)
    checkpoints = []
    for i in range(1, n):
        checkpoints.append(len(circuit))
        b = i.bit_length()
        anc = ANC if spec.disentangling else f"{ANC}{i}"
        prep = u_gates if spec.encoding == "binary" else v_gates
        circuit.extend(prep(i, circuit.register_qubits(anc)))
        for j in range(i):
            if spec.encoding == "binary":
                draw_controls = controls(anc, 0, j, b)
            else:
                draw_controls = (ctrl(q(anc, 0, j), 1),)
            if spec.has_data:
                _controlled_pairwise_swap(circuit, DATA, j, i, spec.m, draw_controls)
            if spec.has_perm:
                _controlled_pairwise_swap(circuit, PERM, j, i, w, draw_controls)
        if spec.disentangling:
            if spec.encoding == "binary":
                for j in range(1, i + 1):
                    for bit in range(b):
                        if (j >> bit) & 1:
                            circuit.append(gate_x(q(ANC, 0, bit), controls(PERM, j, i, b)))
            else:
                for j in range(i):
                    circuit.append(gate_x(q(ANC, 0, j), controls(PERM, j, i, b)))
    checkpoints.append(len(circuit))
    return circuit, tuple(checkpoints)


def build(spec: BuildSpec) -> Circuit:
    return build_with_checkpoints(spec)[0]
