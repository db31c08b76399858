"""Lowering of value-controlled gates to the primitive alphabet.

Two levels:

* "counting" rewrites every (controlled) SWAP into three CX-shaped gates,
  only the middle one carrying the controls, and stops at the alphabet
  {X, H, RY, RZ, CX, CH, CRY, C^mX} in which the closed-form gate counts
  are stated.  Mixed-polarity controls stay as they are; the count classes
  do not distinguish polarity.

* "full" additionally X-conjugates the negative controls of every gate
  away and rewrites every multiply-controlled X: X with m >= 3 controls
  becomes a Toffoli ladder (clean or borrowed-qubit mode), and every
  Toffoli becomes the ancilla-free 6-CX + 9-single-qubit network (equal to
  the Toffoli up to global phase).

Borrowed-qubit mode uses a toggle ladder of 4(m-2) Toffolis that restores
the m-2 helper qubits for *any* initial helper state.  Clean mode assumes
m-2 helpers in |0>: an AND chain of m-3 Toffolis feeds a 4-Toffoli toggle
block on the last helper, then uncomputes, for 2(m-1) Toffolis total.

Full lowering hands either mode the first qubits the gate does not touch,
without checking their state.  Borrowed mode is therefore exact; clean mode
is wrong for m >= 4 when a helper of its AND chain is not |0> (a fully
lowered A n=5 in clean mode is one such circuit).

``lower_circuit`` shares repeats: it rewrites each distinct input gate and
each distinct Toffoli once per call, and equal output gates are one object.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import islice
from math import pi

from .circuit import Circuit, Control, Gate, ctrl, gate_h, gate_rz, gate_x

LOWERING_LEVELS = ("counting", "full")


def lower_controlled_swap(gate: Gate) -> list[Gate]:
    """SWAP(a, b) with k >= 0 controls -> CX(a->b), controlled X on a, CX(a->b).

    Only the middle gate carries the swap's controls (plus b), so a swap
    controlled on c qubits costs 2 CX + one X with c+1 controls.
    """
    if gate.primitive != "SWAP":
        raise ValueError(f"expected SWAP, got {gate.primitive}")
    a, b = gate.targets
    outer = gate_x(b, (ctrl(a, 1),))
    middle = gate_x(a, gate.controls + (ctrl(b, 1),))
    return [outer, middle, outer]


def eliminate_negative_controls(gate: Gate) -> list[Gate]:
    """X-conjugate away 0-valued controls, leaving an all-positive gate."""
    flips = [gate_x(c.qubit) for c in gate.controls if c.value == 0]
    if not flips:
        return [gate]
    positive = replace(gate, controls=tuple(Control(c.qubit, 1) for c in gate.controls))
    return flips + [positive] + list(reversed(flips))


def lower_toffoli(gate: Gate) -> list[Gate]:
    """X with exactly 2 positive controls -> 6 CX + 9 single-qubit gates.

    The T gates of the textbook network are written as RZ(pi/4), so the
    result equals the Toffoli only up to a global phase.
    """
    if gate.primitive != "X" or len(gate.controls) != 2:
        raise ValueError("lower_toffoli expects an X gate with exactly 2 controls")
    if any(c.value != 1 for c in gate.controls):
        raise ValueError("lower_toffoli expects positive controls; eliminate negatives first")
    a, b = gate.controls[0].qubit, gate.controls[1].qubit
    t = gate.targets[0]
    quarter = pi / 4.0
    cx = lambda c, tgt: gate_x(tgt, (ctrl(c, 1),))
    return [
        gate_h(t),
        cx(b, t),
        gate_rz(-quarter, t),
        cx(a, t),
        gate_rz(quarter, t),
        cx(b, t),
        gate_rz(-quarter, t),
        cx(a, t),
        gate_rz(quarter, b),
        gate_rz(quarter, t),
        gate_h(t),
        cx(a, b),
        gate_rz(quarter, a),
        gate_rz(-quarter, b),
        cx(a, b),
    ]


def _toffoli(c1: int, c2: int, t: int) -> Gate:
    return gate_x(t, (ctrl(c1, 1), ctrl(c2, 1)))


def _toggle_ladder(controls: list[int], helpers: list[int], target: int) -> list[Gate]:
    """One toggle pass: applied twice it implements C^mX with arbitrary helpers."""
    m = len(controls)
    half = [_toffoli(controls[m - 1], helpers[m - 3], target)]
    for k in range(m - 3, 0, -1):
        half.append(_toffoli(controls[k + 1], helpers[k - 1], helpers[k]))
    half.append(_toffoli(controls[0], controls[1], helpers[0]))
    for k in range(1, m - 2):
        half.append(_toffoli(controls[k + 1], helpers[k - 1], helpers[k]))
    return half


def lower_mcx(gate: Gate, mode: str, idle_qubits) -> list[Gate]:
    """X with m >= 3 positive controls -> Toffoli network using idle qubits.

    borrowed: 4(m-2) Toffolis on m-2 helpers in an arbitrary state; the
    helpers are restored exactly.  clean: 2(m-1) Toffolis on m-2 helpers
    that must start in |0> and are returned to |0>.
    """
    if gate.primitive != "X" or len(gate.controls) < 3:
        raise ValueError("lower_mcx expects an X gate with at least 3 controls")
    if any(c.value != 1 for c in gate.controls):
        raise ValueError("lower_mcx expects positive controls; eliminate negatives first")
    if mode not in ("borrowed", "clean"):
        raise ValueError(f"unknown mcx mode {mode!r}")
    m = len(gate.controls)
    helpers = list(idle_qubits)
    if len(helpers) < m - 2:
        raise ValueError(f"C^{m}X needs {m - 2} idle qubits, got {len(helpers)}")
    helpers = helpers[: m - 2]
    controls = [c.qubit for c in gate.controls]
    target = gate.targets[0]
    if mode == "borrowed":
        half = _toggle_ladder(controls, helpers, target)
        return half + half
    # clean: AND chain over the first m-2 controls onto helpers[0..m-4],
    # then a borrowed-style toggle block on helpers[m-3], then uncompute.
    if m == 3:
        chain = []
        block_controls = controls
    else:
        chain = [_toffoli(controls[0], controls[1], helpers[0])]
        for k in range(1, m - 3):
            chain.append(_toffoli(controls[k + 1], helpers[k - 1], helpers[k]))
        block_controls = [helpers[m - 4], controls[m - 2], controls[m - 1]]
    block_half = _toggle_ladder(block_controls, [helpers[m - 3]], target)
    return chain + block_half + block_half + list(reversed(chain))


def lower_circuit(circuit: Circuit, level: str = "counting", mode: str = "borrowed") -> Circuit:
    """Rewrite a circuit to the requested lowering level.

    counting lowers only (controlled) swaps; full additionally lowers every
    X with >= 2 controls down to {X, H, RY, RZ, CX, CH, CRY}, borrowing or
    requiring clean idle qubits per ``mode``.  Output gates are hash-consed
    on primitive, angle repr, target indices and (index, value) of each control.
    """
    if level not in LOWERING_LEVELS:
        raise ValueError(f"unknown lowering level {level!r}")
    out = circuit.copy_empty()
    out.metadata["lowering"] = level
    if level == "full":
        out.metadata["mcx_mode"] = mode
    made: dict[tuple, Gate] = {}  # hash-cons key -> the one gate with it
    networks: dict[tuple, list[Gate]] = {}  # a Toffoli's qubits -> its network
    rewrites: dict[int, list[Gate]] = {}  # id of an input gate (kept by circuit.gates) -> rewrite

    def share(g: Gate) -> Gate:  # the angle by repr, so -0.0 and 0.0 stay apart
        key = (g.primitive, repr(g.angle), g.targets, *[(c.qubit, c.value) for c in g.controls])
        return made.setdefault(key, g)

    def network(toffoli: Gate) -> list[Gate]:
        key = (*[c.qubit for c in toffoli.controls], toffoli.targets[0])
        if key not in networks:
            networks[key] = [share(g) for g in lower_toffoli(toffoli)]
        return networks[key]

    def expand(g: Gate) -> list[Gate]:
        if level == "counting" or g.primitive != "X" or len(g.controls) < 2:
            return [share(g)]
        if len(g.controls) == 2:
            return network(g)
        support = set(out.gate_qubits(g))
        idle = islice((q for q in range(out.num_qubits) if q not in support), len(g.controls) - 2)
        return [h for t in lower_mcx(g, mode, idle) for h in network(t)]

    def rewrite(gate: Gate) -> list[Gate]:
        if id(gate) not in rewrites:
            seq = lower_controlled_swap(gate) if gate.primitive == "SWAP" else [gate]
            if level == "full":
                seq = [h for g in seq for h in eliminate_negative_controls(g)]
            rewrites[id(gate)] = [h for g in seq for h in expand(g)]
        return rewrites[id(gate)]

    return out.extend(g for gate in circuit.gates for g in rewrite(gate))
