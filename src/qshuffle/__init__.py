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
    value_controls,
)
from .lowering import (
    eliminate_negative_controls,
    lower_circuit,
    lower_mcx,
    lower_toffoli,
)
from .prep import build_prep, u_gates, v_gates
from .resources import (
    CostProfile,
    ResourceReport,
    cycle_count_formula,
    gate_count_formula,
    prep_counts,
    qubit_count_formula,
    resource_report,
    scaling_table,
)
from .serialize import circuit_from_json, circuit_to_json, circuit_to_qasm
from .simulator import SimulationCapExceeded, branch_table, run, sample

__version__ = "0.1.0"
