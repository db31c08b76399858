"""Correctness checks on what the qshuffle CLI printed or wrote.

Every check reads the CLI's own output (stdout text or an emitted file) and
compares it with values this file computes: branch words are decoded and
replayed here, circuit depths are scheduled here, and the gate alphabet is
parsed here.  The package's closed-form counts are used only as the expected
values of ``build`` and ``table``, never the package's verify path.

A check returns an ``Outcome``; ``error`` is None when the output is correct.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import permutations
from math import factorial, sqrt
from pathlib import Path

AMPLITUDE_TOL = 1e-9
TABLE_CHECK_N_MAX = 64  # table rows up to this n are compared with the per-n formulas


@dataclass(frozen=True)
class Spec:
    """A circuit spec as the CLI takes it: ``--variant --n [--m] --encoding``."""

    variant: str
    n: int
    m: int | None = None
    encoding: str = "binary"

    @property
    def has_data(self) -> bool:
        return self.variant in ("B", "Bt", "C")

    @property
    def has_perm(self) -> bool:
        return self.variant != "C"

    @property
    def disentangling(self) -> bool:
        return self.variant in ("A", "B")

    def argv(self) -> list[str]:
        out = ["--variant", self.variant, "--n", str(self.n)]
        if self.m is not None:
            out += ["--m", str(self.m)]
        return out + ["--encoding", self.encoding]

    def __str__(self) -> str:
        m = f" m={self.m}" if self.m is not None else ""
        return f"{self.variant} n={self.n}{m} {self.encoding}"


@dataclass(frozen=True)
class Outcome:
    error: str | None = None
    lowered_gates: int = 0  # gates of a full-lowering output
    lowered_depth: int = 0  # its ASAP depth
    lowered_negctrl: int = 0  # its gates with a negative control


def _fail(reason: str) -> Outcome:
    return Outcome(error=reason)


def asap_depth(gates) -> int:
    """Depth of a gate list given as qubit-index tuples, each gate placed in
    the layer after the last one that touches any of its qubits."""
    busy: dict[int, int] = {}
    depth = 0
    for qubits in gates:
        layer = 1 + max((busy.get(q, 0) for q in qubits), default=0)
        for q in qubits:
            busy[q] = layer
        depth = max(depth, layer)
    return depth


# --- circuit files -------------------------------------------------------

# The full-level alphabet {X, H, RY, RZ, CX, CH, CRY} as (primitive, controls)
# classes.  Like the package's cost classes, a class does not fix the
# control's polarity: full lowering X-conjugates negative controls away only
# on multiply-controlled X (lowering.py), so singly-controlled gates keep
# theirs.  ``built`` counts those gates instead of failing them.
_FULL_ALPHABET = {("X", 0), ("X", 1), ("H", 0), ("H", 1), ("RY", 0), ("RY", 1), ("RZ", 0)}
_QASM_FULL_LINE = re.compile(
    r"(?:(?:x|h|ry\([^)]*\)|rz\([^)]*\)) q\[\d+\]"
    r"|cx q\[\d+\], q\[\d+\]"
    r"|(?:ctrl|negctrl) @ (?:x|h|ry\([^)]*\)) q\[\d+\], q\[\d+\]);")
_QASM_QUBIT = re.compile(r"q\[(\d+)\]")


def _json_gates(data: dict):
    """Yield (primitive, controls, qubit indices) for every gate of a circuit dict."""
    offsets, width = {}, {}
    offset = 0
    for reg in data["registers"]:
        offsets[reg["name"]] = offset
        width[reg["name"]] = reg["width"]
        offset += reg["count"] * reg["width"]

    def index(ref):
        return offsets[ref["reg"]] + (ref["sub"] or 0) * width[ref["reg"]] + ref["bit"]

    for gate in data["gates"]:
        controls = gate.get("controls") or []
        qubits = [index(t) for t in gate["targets"]] + [index(c) for c in controls]
        yield gate["primitive"], controls, qubits


def _qasm_gate_lines(text: str) -> list[str]:
    lines = text.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("qubit["))
    return [line for line in lines[start + 1:] if line.strip()]


def built(rc: int, stdout: str, *, path: Path, spec: Spec, level: str, fmt: str) -> Outcome:
    """``build``: counting-level gate count equals ``gate_count_formula``;
    a full-level output uses only {X, H, RY, RZ, CX, CH, CRY}."""
    if rc != 0:
        return _fail(f"exit code {rc}")
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        gates = list(_json_gates(json.loads(text)))
        for primitive, controls, _ in gates:
            if level == "full" and (primitive, len(controls)) not in _FULL_ALPHABET:
                return _fail(f"gate {primitive} with {len(controls)} controls "
                             "is outside the full alphabet")
        qubit_lists = [qubits for _, _, qubits in gates]
        negctrl = sum(any(c["value"] == 0 for c in controls) for _, controls, _ in gates)
    else:
        lines = _qasm_gate_lines(text)
        if level == "full":
            bad = next((line for line in lines if not _QASM_FULL_LINE.fullmatch(line)), None)
            if bad is not None:
                return _fail(f"QASM line {bad!r} is outside the full alphabet")
        qubit_lists = [[int(q) for q in _QASM_QUBIT.findall(line)] for line in lines]
        negctrl = sum("negctrl @" in line for line in lines)
    if level == "counting":
        from qshuffle.resources import gate_count_formula

        want = gate_count_formula(spec.variant, spec.n, spec.m, spec.encoding)
        if len(qubit_lists) != want:
            return _fail(f"{len(qubit_lists)} gates, formula says {want}")
        return Outcome()
    return Outcome(lowered_gates=len(qubit_lists), lowered_depth=asap_depth(qubit_lists),
                   lowered_negctrl=negctrl)


# --- simulate ------------------------------------------------------------

def _draws(spec: Spec, registers: dict) -> list[int] | None:
    """Decode the draw record j_1..j_{n-1} of an entangling variant's branch."""
    draws = []
    for i in range(1, spec.n):
        value = registers[f"anc{i}"][0]
        if spec.encoding == "binary":
            draws.append(value)
        elif value == 0:
            draws.append(i)
        elif value & (value - 1):
            return None
        else:
            draws.append(value.bit_length() - 1)
    return draws


def _replay(n: int, draws: list[int]) -> tuple[int, ...] | None:
    """Ascending-index Fisher-Yates on the identity: step i swaps a[j_i], a[i]."""
    a = list(range(n))
    for i, j in enumerate(draws, start=1):
        if not 0 <= j <= i:
            return None
        a[j], a[i] = a[i], a[j]
    return tuple(a)


def _histogram_key(registers: dict) -> str:
    return "|".join(f"{name}=" + ",".join(map(str, values)) for name, values in registers.items())


def simulated(rc: int, stdout: str, *, spec: Spec, shots: int) -> Outcome:
    """``simulate`` from |0>: n! branches of magnitude 1/sqrt(n!), every word
    of S_n once, ancilla zero for A/B, the draw record replaying to the word
    for At/Bt/C, data (all-zero input) equal to the shuffled input, and a
    histogram of ``shots`` draws over those branches."""
    if rc != 0:
        return _fail(f"exit code {rc}")
    payload = json.loads(stdout)
    branches = payload["branches"]
    n = spec.n
    target = 1.0 / sqrt(factorial(n))
    problems = []
    if len(branches) != factorial(n):
        problems.append(f"{len(branches)} branches, want {factorial(n)}")
    worst = max((abs(abs(complex(b["re"], b["im"])) - target) for b in branches), default=1.0)
    if worst > AMPLITUDE_TOL:
        problems.append(f"amplitude off by {worst:.3g}")
    all_words = set(permutations(range(n)))
    words, dirty_ancilla, inconsistent = set(), 0, 0
    inputs = [0] * n
    for b in branches:
        regs = b["registers"]
        if spec.disentangling:
            word = tuple(regs["perm"])
            if any(regs["anc"]):
                dirty_ancilla += 1
        else:
            draws = _draws(spec, regs)
            word = None if draws is None else _replay(n, draws)
            if word is None or (spec.has_perm and tuple(regs["perm"]) != word):
                inconsistent += 1
                continue
        words.add(word)
        if word not in all_words or (spec.has_data and regs["data"] != [inputs[k] for k in word]):
            inconsistent += 1
    if words != all_words:
        problems.append(f"{len(words & all_words)} of {len(all_words)} words of S_{n} "
                        f"({len(words)} distinct)")
    if dirty_ancilla:
        problems.append(f"{dirty_ancilla} branches with nonzero ancilla")
    if inconsistent:
        problems.append(f"{inconsistent} branches inconsistent with their word")
    histogram = payload.get("histogram", {})
    keys = {_histogram_key(b["registers"]) for b in branches}
    if sum(histogram.values()) != shots or not set(histogram) <= keys:
        problems.append("histogram does not sample the listed branches")
    return _fail("; ".join(problems)) if problems else Outcome()


# --- verify, count, table ------------------------------------------------

def verified(rc: int, stdout: str, *, spec: Spec) -> Outcome:
    """``verify``: exit 0, ``overall`` true and a branch count of n!."""
    if rc != 0:
        return _fail(f"exit code {rc}")
    report = json.loads(stdout)
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    if report["overall"] is not True or failing:
        return _fail(f"overall {report['overall']}, failing checks {failing}")
    counts = [c["metric"] for c in report["checks"] if c["name"] == "branch_count"]
    if counts != [float(factorial(spec.n))]:
        return _fail(f"branch_count {counts}, want {factorial(spec.n)}")
    return Outcome()


def counted(rc: int, stdout: str, *, spec: Spec) -> Outcome:
    """``count``: ``gates_consistent`` and ``depth_bounded``."""
    if rc != 0:
        return _fail(f"exit code {rc}")
    report = json.loads(stdout)
    if (report["variant"], report["n"]) != (spec.variant, spec.n):
        return _fail(f"report is for {report['variant']} n={report['n']}")
    if report["gates_consistent"] is not True or report["depth_bounded"] is not True:
        return _fail(f"gates_consistent {report['gates_consistent']}, "
                     f"depth_bounded {report['depth_bounded']}")
    return Outcome()


def tabled(rc: int, stdout: str, *, spec: Spec, profile: dict | None) -> Outcome:
    """``table``: one row per n = 2..n-max, and rows with n <= 64 equal
    ``qubit/gate/cycle_count_formula`` evaluated for that n alone."""
    if rc != 0:
        return _fail(f"exit code {rc}")
    from qshuffle.resources import (CostProfile, cycle_count_formula, gate_count_formula,
                                    qubit_count_formula)

    lines = stdout.splitlines()
    if lines[0] != "n,qubits,gates,cycles":
        return _fail(f"header {lines[0]!r}")
    rows = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
    if [r[0] for r in rows] != list(range(2, spec.n + 1)):
        return _fail("rows do not run over n = 2..n-max")
    cost = CostProfile.unit() if profile is None else CostProfile.from_dict(profile)
    for n, qubits, gates, cycles in rows[:TABLE_CHECK_N_MAX - 1]:
        args = (spec.variant, n, spec.m, spec.encoding)
        want = (qubit_count_formula(*args), gate_count_formula(*args, cost),
                cycle_count_formula(*args, cost))
        if (qubits, gates, cycles) != want:
            return _fail(f"row n={n} is {(qubits, gates, cycles)}, formulas give {want}")
    return Outcome()
