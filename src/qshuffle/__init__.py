"""qshuffle: circuits preparing uniform superpositions of permutations.

Builders for five shuffle/state-preparation variants over composite qubit
registers, exact closed-form resource counts with configurable cost
profiles, lowering to primitive gate sets (including borrowed-qubit
multi-controlled X synthesis), and a sparse branch simulator used to verify
every construction against its defining equations.
"""

from .builders import BuildSpec, build, build_with_checkpoints, init_identity_word
from .circuit import (
    Circuit,
    Control,
    Gate,
    Register,
    count_primitives,
    primitive_class,
    primitive_multiset,
    value_controls,
)
from .lowering import (
    eliminate_negative_controls,
    lower_circuit,
    lower_controlled_swap,
    lower_mcx,
    lower_toffoli,
)
from .permutations import (
    enumerate_sn,
    lemma1_extend,
    replay_reversed_fisher_yates,
    sample_fisher_yates,
)
from .prep import build_u, build_v, u_gates, v_gates
from .resources import (
    CostProfile,
    MeasuredResources,
    ResourceReport,
    cycle_count_formula,
    gate_count_formula,
    measure_circuit,
    qubit_count_formula,
    resource_report,
    scaling_table,
    u_cycle_count_formula,
    u_gate_count_formula,
    v_cycle_count_formula,
    v_gate_count_formula,
)
from .serialize import circuit_from_json, circuit_to_json, circuit_to_qasm
from .simulator import SimulationCapExceeded, branch_table, run, sample

__version__ = "0.1.0"
