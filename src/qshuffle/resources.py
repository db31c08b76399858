"""Closed-form qubit/gate/cycle counts and their circuit-measured counterparts.

A ``CostProfile`` assigns a nonnegative cost to each class of the counting
alphabet {X, H, RY, RZ, CX, CH, CRY, C^mX}.  Multi-controlled X costs come
from an explicit per-arity table, the unit rule (cost 1, the "abstract"
bookkeeping used for formula/measured equality checks) or the derived rule
  cost(C^2 X) = 6 cx + 7 rz + 2 h                 (Toffoli network)
  cost(C^m X) = 4 (m-2) (6 cx + 7 rz + 2 h)       (borrowed-qubit ladder).

The gate/qubit formulas are exact for the builders in this package: under
every profile and counting-level lowering the formula equals the measured
gate count integer-for-integer.  Cycle formulas are upper bounds: they
serialise iterations and subroutines (only the permutation-register
initialisation and, for entangling variants, the per-iteration
preparations parallelise), so the measured weighted depth never exceeds
them.  ``resource_report`` puts the formulas beside the circuit's qubit
count, ``count_primitives`` and ``weighted_depth``; ``prep_counts`` gives one
prep's (gates, cycles).  Count entries take (variant, n or n values, m,
encoding, profile) in that order.

Notation: b(i) = bitlen(i) ancilla bits carry iteration i's draw,
hamming(k) counts set bits (the X-cascade writing or clearing |k>), and
w = ceil(log2 n) is the permutation subregister width (1 at n = 1, where the
builders pad every register to one qubit, the one-hot ancilla too).

The count formulas and ``scaling_table`` read one sweep over the builders'
iterations i = 1..n-1, which keeps running sums of the per-iteration terms
  init         hamming(i) X gates writing i into perm subregister i,
  prep_gates   gates of the uniform prep over 0..i (U binary, V one-hot),
  prep_cycles  its cycles (summed; entangling variants take the maximum),
  swap         i (2 cx + one X with b(i)+1 controls, 2 in one-hot), per
               qubit of swapped width,
  uncompute    sum(hamming(j), j <= i) X gates with b(i) controls in
               binary, i such gates in one-hot (disentangling variants),
  ancilla      b(i) qubits in binary, i in one-hot (entangling variants).
The row at n reads the sums after iteration n-1, with swapped width
w (permutation register) + m (data register).
"""

from __future__ import annotations

import reprlib
from typing import NamedTuple

from .builders import BuildSpec, build
from .circuit import Circuit, cost_class, count_primitives, plain_int, spec_int
from .prep import ENCODINGS


class _CostProfile(NamedTuple):
    x: int = 1
    h: int = 1
    ry: int = 1
    rz: int = 1
    cx: int = 1
    ch: int = 1
    cry: int = 1
    mcx: dict[int, int] = {}  # explicit per-arity overrides; the default is one shared dict, read only
    mcx_rule: str = "unit"  # "unit" | "derived"


class CostProfile(_CostProfile):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        costs = [(name, getattr(self, name)) for name in ("x", "h", "ry", "rz", "cx", "ch", "cry")]
        for name, cost in costs + [(f"mcx[{m}]", cost) for m, cost in self.mcx.items()]:
            if isinstance(cost, bool) or not isinstance(cost, int) or cost < 0:
                raise ValueError(f"cost {name} must be a nonnegative integer, got {cost!r}")
        if any(type(m) is not int or m < 2 for m in self.mcx):
            raise ValueError(f"mcx arities must be integers >= 2, got {list(self.mcx)}")
        if self.mcx_rule not in ("unit", "derived"):
            raise ValueError(f"unknown mcx rule {self.mcx_rule!r}")
        return self

    @classmethod
    def _make(cls, fields):  # ``_replace`` builds through this, so it validates too
        return cls(*fields)

    def mcx_cost(self, m: int) -> int:
        if m < 2:
            raise ValueError("mcx cost is defined for m >= 2 controls")
        if m in self.mcx:
            return self.mcx[m]
        if self.mcx_rule == "unit":
            return 1
        toffoli = 6 * self.cx + 7 * self.rz + 2 * self.h
        return toffoli if m == 2 else 4 * (m - 2) * toffoli

    def cost(self, primitive: str, num_controls: int) -> int:
        cls = cost_class(primitive, num_controls)
        return self.mcx_cost(num_controls) if cls == "mcx" else getattr(self, cls)

    @classmethod
    def unit(cls) -> "CostProfile":
        """The unit profile, ``CostProfile()``; only perfbench still calls it."""
        return cls()

    @classmethod
    def from_dict(cls, data: dict) -> "CostProfile":
        """Profile from its JSON form: class names X..CRY, ``mcx`` and ``mcx_rule``."""
        known = {"X": "x", "H": "h", "RY": "ry", "RZ": "rz", "CX": "cx", "CH": "ch", "CRY": "cry"}
        if not isinstance(data, dict):
            raise ValueError("a cost profile is an object of class costs")
        unknown = sorted(set(data) - set(known) - {"mcx", "mcx_rule"})
        if unknown:
            raise ValueError(f"unknown cost profile keys {unknown}")
        kwargs = {attr: data[key] for key, attr in known.items() if key in data}
        if "mcx" in data:
            if not isinstance(data["mcx"], dict):
                raise ValueError("mcx must map arities to costs")
            bad = [k for k in data["mcx"] if plain_int(k) is None]
            if bad:  # one spelling per arity: "3", never "03", "+3", " 3", "3_0" or "٣"
                raise ValueError(f"mcx keys {reprlib.repr(bad)} are not arities written as plain decimals")
            kwargs["mcx"] = {int(k): v for k, v in data["mcx"].items()}
        if "mcx_rule" in data:
            kwargs["mcx_rule"] = data["mcx_rule"]
        return cls(**kwargs)


def _prep_counts(i: int, p: CostProfile, binary: bool) -> tuple[int, int]:
    """(gates, cycles) of the binary or one-hot uniform prep over 0..i, i already checked."""
    if not binary:  # 1 RY plus (CRY, CX) per extra state, in sequence
        gates = p.ry + (i - 1) * (p.cry + p.cx)
        return gates, gates
    m = i + 1
    s0, top = (m & -m).bit_length() - 1, m.bit_length() - 1  # lowest and highest set bit
    if s0 == top:  # m = 2^s0: an H on each of the s0 bits
        return s0 * p.h, p.h
    rest = p.ry + (m.bit_count() - 1) * p.cry + (top - s0) * p.ch
    return s0 * p.h + rest, min(1, s0) * p.h + rest


def prep_counts(i: int, encoding: str = "binary", profile: CostProfile | None = None) -> tuple[int, int]:
    """(gates, cycles) of ``prep.build_prep(i, encoding)``."""
    i = spec_int("i", i, 1)
    if encoding not in ENCODINGS:
        raise ValueError(f"unknown encoding {encoding!r}")
    return _prep_counts(i, profile or CostProfile(), encoding == "binary")


def _sweep(variant: str, n_values, m: int | None, encoding: str,
           profile: CostProfile | None):
    """Yield (n, qubits, gates, cycles) for each requested n, ascending."""
    p = profile or CostProfile()
    wanted = sorted(set(spec_int("n", n) for n in n_values))
    if not wanted:
        return
    spec = BuildSpec(variant, wanted[0], m, encoding)  # checks the least n and the rest of the spec
    has_perm, has_data, disentangling, m = spec.has_perm, spec.has_data, spec.disentangling, spec.m
    binary = encoding == "binary"
    x_cost = [p.cost("X", k) for k in range(wanted[-1].bit_length() + 2)]  # by number of controls
    init = prep_gates = prep_cycles = prep_cycles_max = swap = uncompute = ancilla = 0
    cum_hamming = 0  # sum hamming(j), j <= i
    done = 1         # iterations 1..done-1 are in the sums
    for n in wanted:
        for i in range(done, n):
            b, h = i.bit_length(), i.bit_count()
            init += h * p.x
            g, c = _prep_counts(i, p, binary)
            prep_gates += g
            prep_cycles += c
            prep_cycles_max = max(prep_cycles_max, c)
            swap += i * (2 * p.cx + x_cost[b + 1 if binary else 2])
            cum_hamming += h
            uncompute += (cum_hamming if binary else i) * x_cost[b]
            ancilla += b if binary else i
        done = n
        w = max((n - 1).bit_length(), 1)  # the builders' widths: n = 1 still gets one-qubit registers
        width = (w if has_perm else 0) + (m if has_data else 0)
        gates = prep_gates + width * swap
        cycles = width * swap
        if disentangling:
            qubits = w if binary else max(n - 1, 1)
            gates += uncompute
            cycles += prep_cycles + uncompute
        else:
            qubits = ancilla
            cycles += prep_cycles_max
        if has_perm:
            qubits += n * w
            gates += init
            if n > 1:
                cycles += p.x  # one layer initialises the whole register
        if has_data:
            qubits += m * n
        yield n, qubits, gates, cycles


def qubit_count_formula(variant: str, n: int, m: int | None = None, encoding: str = "binary") -> int:
    return next(_sweep(variant, [n], m, encoding, None))[1]


def gate_count_formula(variant: str, n: int, m: int | None = None, encoding: str = "binary",
                       profile: CostProfile | None = None) -> int:
    return next(_sweep(variant, [n], m, encoding, profile))[2]


def cycle_count_formula(variant: str, n: int, m: int | None = None, encoding: str = "binary",
                        profile: CostProfile | None = None) -> int:
    return next(_sweep(variant, [n], m, encoding, profile))[3]


def weighted_depth(circuit: Circuit, profile: CostProfile) -> int:
    """Weighted critical path: every gate starts as soon as its qubits are
    free and lasts its cost.  Under unit costs this is the ASAP layer count."""
    finish = [0] * circuit.num_qubits  # per qubit: when its last gate ends
    costs: dict[tuple[str, int], int] = {}
    for primitive, _, target, controls in circuit.gates:
        key = (primitive, len(controls))
        if key not in costs:
            costs[key] = profile.cost(*key)
        start = finish[target]
        for c in controls:
            if finish[c.qubit] > start:
                start = finish[c.qubit]
        finish[target] = end = start + costs[key]
        for c in controls:
            finish[c.qubit] = end
    return max(finish, default=0)


class ResourceReport(NamedTuple):
    variant: str
    n: int
    m: int | None
    encoding: str
    qubits_formula: int
    gates_formula: int
    cycles_formula: int
    qubits_measured: int
    gates_measured: int
    depth_measured: int

    @property
    def gates_consistent(self) -> bool:
        return self.gates_formula == self.gates_measured

    @property
    def depth_bounded(self) -> bool:
        return self.depth_measured <= self.cycles_formula

    def to_dict(self) -> dict:
        return self._asdict() | {"gates_consistent": self.gates_consistent,
                                 "depth_bounded": self.depth_bounded}


def resource_report(spec: BuildSpec, profile: CostProfile | None = None,
                    circuit: Circuit | None = None) -> ResourceReport:
    p = profile or CostProfile()
    circuit = circuit if circuit is not None else build(spec)
    _, qubits, gates, cycles = next(_sweep(spec.variant, [spec.n], spec.m, spec.encoding, p))
    return ResourceReport(*spec, qubits, gates, cycles,  # the spec, the formulas, then the measured counts
                          circuit.num_qubits, count_primitives(circuit, p), weighted_depth(circuit, p))


def scaling_table(variant: str, n_values, m: int | None = None, encoding: str = "binary",
                  profile: CostProfile | None = None) -> list[tuple[int, int, int, int]]:
    """Rows (n, qubits, gates, cycles) from the formulas alone, ascending in n.

    The rows come from one sweep, so a full table up to n = 10^4 stays O(n).
    """
    return list(_sweep(variant, n_values, m, encoding, profile))
