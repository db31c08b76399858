"""Lowering of value-controlled gates to the primitive alphabet.

Two levels:

* "counting" rewrites nothing: builds are already in the alphabet
  {X, H, RY, RZ, CX, CH, CRY, C^mX} in which the closed-form gate counts
  are stated, each register swap written as the three X gates of
  ``swap_gates``.  Mixed-polarity controls stay as they are; the count
  classes do not distinguish polarity.  ``swap_at`` finds such a triple in a
  gate list, so the simulator can apply it as one swap.

* "full" X-conjugates the negative controls of every gate away and
  rewrites every multiply-controlled X: X with m >= 3 controls
  becomes a Toffoli ladder (clean or borrowed-qubit mode), and every
  Toffoli becomes the ancilla-free 6-CX + 9-single-qubit network of
  Barenco et al. (PRA 52, 3457, 1995), which equals TOFFOLI_PHASE =
  e^{-i pi/8} times the Toffoli.  ``toffoli_at`` finds such a network in a
  gate list, so the simulator can apply it as one Toffoli and its phase.

Borrowed-qubit mode uses a toggle ladder of 4(m-2) Toffolis that restores
the m-2 helper qubits for *any* initial helper state.  Clean mode assumes
m-2 helpers in |0>: an AND chain of m-3 Toffolis feeds a 4-Toffoli toggle
block on the last helper, then uncomputes, for 2(m-1) Toffolis total.

Full lowering hands either mode the first qubits the gate does not touch,
without checking their state.  Borrowed mode is therefore exact; clean mode
is wrong for m >= 4 when a helper of its AND chain is not |0> (a fully
lowered A n=5 in clean mode is one such circuit).

``lower_circuit`` at the full level shares repeats: it rewrites each
distinct Toffoli once per call, and equal output gates are one object.
"""

from __future__ import annotations

from itertools import islice
from math import cos, pi, sin

from .circuit import Circuit, Control, Gate

LOWERING_LEVELS = ("counting", "full")
# lower_toffoli(g) equals this phase times g, exactly: its four RZ(pi/4) are
# e^{-i pi/8} T, its three RZ(-pi/4) are e^{i pi/8} T^dagger, and the
# network in T gates is the Toffoli
TOFFOLI_PHASE = complex(cos(pi / 8), -sin(pi / 8))


def swap_gates(a: Control, b: Control, controls: tuple[Control, ...]) -> tuple[Gate, Gate, Gate]:
    """SWAP of qubits a.qubit and b.qubit under ``controls``, as CX(a->b), X on
    a controlled on ``controls`` and b, CX(a->b) (the Fredkin identity); ``a``
    and ``b`` are the positive controls on the two qubits, so callers may
    share them.

    Only the middle gate carries the swap's controls (plus b), so a swap
    controlled on c qubits costs 2 CX + one X with c+1 controls.
    """
    outer = Gate("X", None, b.qubit, (a,))
    return outer, Gate("X", None, a.qubit, (*controls, b)), outer


def swap_at(gates: list[Gate], i: int) -> tuple[int, int, tuple[Control, ...]] | None:
    """(a, b, controls) whose ``swap_gates`` triple is ``gates[i:i+3]``, by
    value, or None.  Only an X with one positive control can start one; it
    names b by its target and a by its control, and the middle gate's controls
    but its last are the swap's."""
    head = gates[i]
    if head.primitive != "X" or len(head.controls) != 1 or head.controls[0].value != 1:
        return None
    window = gates[i:i + 3]
    if len(window) < 3 or not window[1].controls:
        return None
    a, b, controls = head.controls[0], Control(head.target, 1), window[1].controls[:-1]
    return (a.qubit, b.qubit, controls) if swap_gates(a, b, controls) == tuple(window) else None


def eliminate_negative_controls(gate: Gate) -> list[Gate]:
    """X-conjugate away 0-valued controls, leaving an all-positive gate."""
    flips = [Gate("X", None, c.qubit) for c in gate.controls if c.value == 0]
    if not flips:
        return [gate]
    positive = gate._replace(controls=tuple(Control(c.qubit, 1) for c in gate.controls))
    return flips + [positive] + list(reversed(flips))


def lower_toffoli(gate: Gate) -> list[Gate]:
    """X with exactly 2 positive controls -> 6 CX + 9 single-qubit gates.

    The T gates of the textbook network are written as RZ(pi/4), so the
    result equals TOFFOLI_PHASE times the Toffoli.
    """
    if gate.primitive != "X" or len(gate.controls) != 2:
        raise ValueError("lower_toffoli expects an X gate with exactly 2 controls")
    if any(c.value != 1 for c in gate.controls):
        raise ValueError("lower_toffoli expects positive controls; eliminate negatives first")
    a, b, t = gate.controls[0].qubit, gate.controls[1].qubit, gate.target
    quarter = pi / 4.0
    cx = lambda c, tgt: Gate("X", None, tgt, (Control(c, 1),))
    return [
        Gate("H", None, t),
        cx(b, t),
        Gate("RZ", -quarter, t),
        cx(a, t),
        Gate("RZ", quarter, t),
        cx(b, t),
        Gate("RZ", -quarter, t),
        cx(a, t),
        Gate("RZ", quarter, b),
        Gate("RZ", quarter, t),
        Gate("H", None, t),
        cx(a, b),
        Gate("RZ", quarter, a),
        Gate("RZ", -quarter, b),
        cx(a, b),
    ]


def _toffoli(c1: int, c2: int, t: int) -> Gate:
    return Gate("X", None, t, (Control(c1, 1), Control(c2, 1)))


def toffoli_at(gates: list[Gate], i: int) -> Gate | None:
    """The Toffoli whose ``lower_toffoli`` network is ``gates[i:i+15]``, by
    value, or None.  Only an uncontrolled H can start one; the network's
    first gate names its target and its CX gates 3 and 1 its controls."""
    head = gates[i]
    if head.primitive != "H" or head.controls:
        return None
    window = gates[i:i + 15]
    if len(window) < 15 or len(window[1].controls) != 1 or len(window[3].controls) != 1:
        return None
    toffoli = _toffoli(window[3].controls[0].qubit, window[1].controls[0].qubit, head.target)
    return toffoli if lower_toffoli(toffoli) == window else None


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
    target = gate.target
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

    counting copies the gate list; full X-conjugates negative controls away
    and lowers every X with >= 2 controls down to {X, H, RY, RZ, CX, CH, CRY},
    borrowing or requiring clean idle qubits per ``mode``.  Output gates are
    hash-consed on the angle's repr and the gate's value (primitive, target
    index, and index and value of each control).
    """
    if level not in LOWERING_LEVELS:
        raise ValueError(f"unknown lowering level {level!r}")
    if mode not in ("borrowed", "clean"):
        raise ValueError(f"unknown mcx mode {mode!r}")
    out = Circuit(circuit.registers, circuit.metadata)
    out.metadata["lowering"] = level
    if level == "counting":
        return out.extend(circuit.gates)
    out.metadata["mcx_mode"] = mode
    made: dict[tuple, Gate] = {}  # hash-cons key -> the one gate with it
    networks: dict[tuple, list[Gate]] = {}  # a Toffoli's qubits -> its network

    def share(g: Gate) -> Gate:  # the angle by repr too, so -0.0 and 0.0 stay apart
        return made.setdefault((repr(g.angle), g), g)

    def network(toffoli: Gate) -> list[Gate]:
        key = out.gate_qubits(toffoli)
        if key not in networks:
            networks[key] = [share(g) for g in lower_toffoli(toffoli)]
        return networks[key]

    def expand(g: Gate) -> list[Gate]:
        if g.primitive != "X" or len(g.controls) < 2:
            return [share(g)]
        if len(g.controls) == 2:
            return network(g)
        support = set(out.gate_qubits(g))
        idle = islice((q for q in range(out.num_qubits) if q not in support), len(g.controls) - 2)
        return [h for t in lower_mcx(g, mode, idle) for h in network(t)]

    return out.extend(h for gate in circuit.gates
                      for g in eliminate_negative_controls(gate) for h in expand(g))
