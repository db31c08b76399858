"""Closed-form resource counts, cost profiles, and formula/measured ties."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qshuffle.builders import VARIANTS, BuildSpec, build
from qshuffle.circuit import PRIMITIVES, ROTATIONS, Circuit, Control, Gate, count_primitives
from qshuffle.prep import ENCODINGS
from qshuffle.resources import (
    CostProfile,
    cycle_count_formula,
    gate_count_formula,
    prep_counts,
    qubit_count_formula,
    resource_report,
    scaling_table,
    weighted_depth,
)
from oracles import sweep_rows
from oracles import weighted_depth as reference_weighted_depth


def test_qubit_formula_examples():
    assert qubit_count_formula("A", 4) == 10          # (n+1) ceil(log2 n)
    assert qubit_count_formula("At", 4) == 13         # n*w + (1+2+2)
    assert qubit_count_formula("C", 3, 1) == 6        # (1+2) + 3
    assert qubit_count_formula("B", 4, 2) == 18
    assert qubit_count_formula("Bt", 4, 1) == 17
    # n = 1: no iterations, but the builders give perm, anc and every data
    # subregister one qubit each, the one-hot ancilla too
    for encoding in ENCODINGS:
        assert [qubit_count_formula(*args, encoding=encoding) for args in
                (("A", 1), ("At", 1), ("B", 1, 3), ("Bt", 1, 3), ("C", 1, 3))] == [2, 1, 5, 4, 3]


def test_qubit_formula_onehot():
    assert qubit_count_formula("A", 4, encoding="onehot") == 8 + 3
    assert qubit_count_formula("At", 4, encoding="onehot") == 8 + 6
    assert qubit_count_formula("C", 4, 1, encoding="onehot") == 6 + 4


def test_gate_formula_examples():
    assert gate_count_formula("A", 2) == 6
    assert gate_count_formula("A", 1) == 0
    # C n=3 m=1: U_1 + 3 + U_2 + 6 with U_1 = 1, U_2 = 3
    assert gate_count_formula("C", 3, 1) == 1 + 3 + 3 + 6


def test_cycle_formula_examples():
    assert cycle_count_formula("A", 2) == 6   # 1 + (1 + 3 + 1)
    assert cycle_count_formula("At", 2) == 5  # 1 + 1 + 3, no uncompute
    assert cycle_count_formula("A", 1) == 0   # degenerate: no iterations


def test_u_formula_examples():
    assert prep_counts(3) == (2, 1)
    assert prep_counts(4)[0] == 4
    assert prep_counts(1) == (1, 1)


def test_u_formula_weighted():
    profile = CostProfile(h=2, ry=3, cry=5, ch=7)
    # i = 5 -> M = 6 = 110b: s = (1, 2), one H prefix, 1 RY, 1 CRY, 1 CH
    # cycle form replaces the H prefix with min(1, s0) layers
    assert prep_counts(5, "binary", profile) == (2 + 3 + 5 + 7, 2 + 3 + 5 + 7)
    # i = 11 -> M = 12 = 1100b: s = (2, 3): prefix 2 H but a single H layer
    assert prep_counts(11, "binary", profile) == (2 * 2 + 3 + 5 + 7, 2 + 3 + 5 + 7)


def test_v_formula():
    assert prep_counts(1, "onehot") == (1, 1)
    assert prep_counts(4, "onehot") == (1 + 3 * 2, 1 + 3 * 2)


def test_mcx_derived_rule():
    p = CostProfile(mcx_rule="derived")
    assert p.mcx_cost(2) == 6 + 7 + 2
    assert p.mcx_cost(5) == 4 * 3 * 15
    p = CostProfile(cx=39, rz=1, h=1, mcx_rule="derived")
    assert p.mcx_cost(3) == 4 * (6 * 39 + 7 + 2)
    # explicit table wins over the rule
    p = CostProfile(mcx={3: 100}, mcx_rule="derived")
    assert p.mcx_cost(3) == 100


def test_profile_validation_and_errors():
    with pytest.raises(ValueError):
        CostProfile(x=-1)
    with pytest.raises(ValueError):
        CostProfile(mcx_rule="nope")
    p = CostProfile.unit()
    with pytest.raises(ValueError):
        p.cost("SWAP", 1)
    with pytest.raises(ValueError):
        p.cost("RZ", 1)
    with pytest.raises(ValueError):
        p.cost("H", 2)


def test_profile_replace_validates_as_the_constructor_does():
    assert CostProfile()._replace(cx=39) == CostProfile(cx=39)
    with pytest.raises(ValueError, match="cost x must be a nonnegative integer, got -1"):
        CostProfile()._replace(x=-1)
    with pytest.raises(ValueError, match="unknown mcx rule"):
        CostProfile()._replace(mcx_rule="nope")


def test_profile_from_dict():
    p = CostProfile.from_dict({"X": 2, "CX": 39, "mcx": {"2": 6}, "mcx_rule": "derived"})
    assert p.x == 2 and p.cx == 39 and p.mcx_cost(2) == 6
    assert p.mcx_cost(4) == 4 * 2 * (6 * 39 + 7 + 2)


@pytest.mark.parametrize("key", [3, 3.0, None, (3,), b"3", "03"], ids=repr)
def test_profile_from_dict_refuses_an_arity_not_written_as_str_of_it(key):
    with pytest.raises(ValueError, match="are not arities written as plain decimals"):
        CostProfile.from_dict({"mcx": {key: 5}})


def test_cost_profile_linearity():
    doubled = CostProfile(x=2, h=2, ry=2, rz=2, cx=2, ch=2, cry=2, mcx_rule="unit",
                          mcx={m: 2 for m in range(2, 12)})
    for variant, m in (("A", None), ("Bt", 2), ("C", 1)):
        for n in (2, 4, 7):
            assert gate_count_formula(variant, n, m, "binary", doubled) == \
                2 * gate_count_formula(variant, n, m, "binary")


def test_measure_equals_formula_examples():
    assert count_primitives(build(BuildSpec("A", 2)), CostProfile()) == 6
    r = resource_report(BuildSpec("A", 3))
    assert r.gates_measured == r.gates_formula
    r = resource_report(BuildSpec("At", 4))
    assert r.depth_measured <= r.cycles_formula


def test_report_fields_roundtrip():
    r = resource_report(BuildSpec("C", 3, 1))
    d = r.to_dict()
    assert d["gates_formula"] == d["gates_measured"] == 13
    assert d["gates_consistent"] and d["depth_bounded"]


@pytest.mark.parametrize("encoding", ["binary", "onehot"])
@pytest.mark.parametrize("variant,m", [("A", None), ("At", None), ("B", 1), ("B", 2),
                                       ("Bt", 1), ("Bt", 2), ("C", 1), ("C", 2)])
def test_formula_measured_equality_grid(variant, m, encoding):
    for n in range(1, 9):  # n = 1 too: the builders pad its registers to one qubit
        spec = BuildSpec(variant, n, m, encoding)
        r = resource_report(spec)
        assert r.gates_measured == r.gates_formula, (variant, n, m, encoding)
        assert r.qubits_measured == r.qubits_formula, (variant, n, m, encoding)
        assert r.depth_measured <= r.cycles_formula, (variant, n, m, encoding)


def test_scaling_table_monotone():
    rows = scaling_table("A", [2, 4, 8, 16])
    gates = [g for _, _, g, _ in rows]
    assert gates == sorted(gates) and len(set(gates)) == 4


@pytest.mark.parametrize("encoding", ["binary", "onehot"])
def test_scaling_table_matches_direct_formulas(encoding):
    for variant, m in (("A", None), ("At", None), ("Bt", 1), ("C", 2)):
        rows = scaling_table(variant, [2, 3, 5, 9, 33, 100], m, encoding)
        for n, qubits, gates, cycles in rows:
            assert qubits == qubit_count_formula(variant, n, m, encoding)
            assert gates == gate_count_formula(variant, n, m, encoding)
            assert cycles == cycle_count_formula(variant, n, m, encoding)


def test_scaling_ratio_consistent_with_quadratic_log_squared():
    for n in (16, 32, 64, 128, 256):
        ratio = gate_count_formula("A", 2 * n) / gate_count_formula("A", n)
        bound = 4 * (math.log(2 * n) / math.log(n)) ** 2 * 1.5
        assert ratio <= bound


def test_onehot_eventually_cheaper_than_binary():
    n = 2 ** 10
    assert gate_count_formula("A", n, encoding="onehot") < gate_count_formula("A", n)


def test_ancilla_bits_stirling_bound():
    total = 0
    for n in range(2, 1001):
        total += (n - 1).bit_length()
        assert total <= n + math.lgamma(n + 1) / math.log(2)


def test_formula_rejects_bad_spec():
    with pytest.raises(ValueError):
        gate_count_formula("B", 3)  # missing m
    with pytest.raises(ValueError):
        qubit_count_formula("Z", 3)


@pytest.mark.parametrize("n, m", [(2.9, None), ("3", None), (True, None), (3, 2.5)])
def test_formulas_reject_spec_numbers_that_are_not_integers(n, m):
    # these once gave 49.5 gates and 15.5 qubits (m = 2.5), n = 2's count (2.9),
    # n = 3's (the string) and 0 gates (True)
    variant = "A" if m is None else "B"
    for formula in (qubit_count_formula, gate_count_formula, cycle_count_formula):
        with pytest.raises(ValueError, match="must be an integer"):
            formula(variant, n, m)


def test_scaling_table_takes_integers_only():
    for n_values in (["3", 3.5], [2, 3.0], [True, 4]):  # ["3", 3.5] once gave n = 3's row alone
        with pytest.raises(ValueError, match="n must be an integer"):
            scaling_table("A", n_values)
    assert scaling_table("A", [np.int64(3), 2]) == scaling_table("A", [2, 3])


costs = st.integers(min_value=0, max_value=50)
profiles = st.builds(
    CostProfile, x=costs, h=costs, ry=costs, rz=costs, cx=costs, ch=costs, cry=costs,
    mcx=st.dictionaries(st.integers(min_value=2, max_value=8), costs, max_size=4),
    mcx_rule=st.sampled_from(["unit", "derived"]))


@settings(max_examples=60, deadline=None)
@given(profile=profiles, n=st.integers(min_value=1, max_value=7), m=st.integers(1, 3))
# a costly prep gate and a free swap gate can share an ASAP layer; the weighted
# depth must charge the cost to the prep's path only
@example(profile=CostProfile(x=0, h=1, ry=0, rz=0, cx=0, ch=0, cry=1), n=3, m=1)
def test_formulas_match_measured_over_random_profiles(profile, n, m):
    for variant in VARIANTS:
        for encoding in ENCODINGS:
            spec = BuildSpec(variant, n, m if variant in ("B", "Bt", "C") else None, encoding)
            r = resource_report(spec, profile)
            assert r.gates_formula == r.gates_measured, spec
            assert r.qubits_formula == r.qubits_measured, spec
            assert r.depth_measured <= r.cycles_formula, spec
            row = (n, r.qubits_formula, r.gates_formula, r.cycles_formula)
            assert scaling_table(variant, [n], spec.m, encoding, profile) == [row], spec


@pytest.mark.parametrize("encoding", ENCODINGS)
@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=30, deadline=None)
@given(profile=profiles, n_values=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=4),
       m=st.integers(min_value=1, max_value=8))
def test_scaling_table_equals_the_per_iteration_oracle(variant, encoding, profile, n_values, m):
    m = m if variant in ("B", "Bt", "C") else None
    assert scaling_table(variant, n_values, m, encoding, profile) == sweep_rows(variant, n_values, m, encoding, profile)


_MOST_CONTROLS = {"X": 4, "H": 1, "RY": 1, "RZ": 0}  # the counting alphabet's classes


@st.composite
def countable_circuits(draw):
    """Random circuits of counting-alphabet gates: rotations, mixed-polarity
    controls, up to 4 controls on X, and gate objects repeated in the list."""
    c = Circuit([("q", 1, draw(st.integers(1, 6)))])
    pool = []
    for _ in range(draw(st.integers(0, 12))):
        primitive = draw(st.sampled_from(PRIMITIVES))
        arity = draw(st.integers(0, min(_MOST_CONTROLS[primitive], c.num_qubits - 1)))
        qubits = draw(st.permutations(range(c.num_qubits)))[:arity + 1]
        angle = draw(st.floats(-7, 7)) if primitive in ROTATIONS else None
        controls = tuple(Control(q, draw(st.integers(0, 1))) for q in qubits[1:])
        pool.append(Gate(primitive, angle, qubits[0], controls))
    if pool:
        c.extend(draw(st.lists(st.sampled_from(pool), max_size=40)))
    return c


@settings(max_examples=200, deadline=None)
@given(circuit=countable_circuits(), profile=profiles)
@example(circuit=build(BuildSpec("B", 5, 2)), profile=CostProfile(cx=0, mcx={3: 7}, mcx_rule="derived"))
def test_weighted_depth_equals_the_gate_by_gate_oracle(circuit, profile):
    assert weighted_depth(circuit, profile) == reference_weighted_depth(circuit, profile)
