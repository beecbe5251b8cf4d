"""qcorr: quantum correlation dynamics of a one-parameter two-qubit family
under single-qubit Pauli noise.

The package pairs closed-form results (concurrence, geometric discord,
quantum discord, death times) with independent numerical oracles (spin-flip
eigenvalues, Bloch decomposition, a measurement-sphere optimizer, Kraus and
RK4 evolution) so that every formula is checked by machinery that does not
share its derivation.
"""
from .channels import (
    ChannelSpec,
    analytic_evolve,
    apply_pauli_channel,
    decay_factor,
    integrate_rk4,
    jump_operator,
    kraus_apply,
    lindblad_rhs,
)
from .dynamics import (
    MEASURE_NAMES,
    DeathTimeResult,
    SweepGrid,
    SweepRow,
    SweepTable,
    VerifyCheck,
    VerifyReport,
    closed_death_time,
    closed_death_time_trig,
    death_time,
    sweep,
    verify_suite,
)
from .linalg import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    dag,
    hermitian_eigen,
    partial_trace,
    tensor,
    von_neumann_entropy,
)
from .measures import (
    MeasureResult,
    OptimizerDiagnostics,
    OptimizerSettings,
    classical_correlation,
    closed_values,
    concurrence,
    concurrence_closed,
    geometric_discord,
    geometric_discord_closed,
    mutual_information,
    optimal_conditional_entropy,
    oracle_values,
    quantum_discord,
    quantum_discord_closed,
    wootters_score,
)
from .states import (
    BlochForm,
    InvalidStateError,
    StateParams,
    bloch_compose,
    bloch_decompose,
    initial_state,
    make_params,
    state_from_json,
    state_to_json,
    validate_density_matrix,
    x_structure_defect,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # states
    "StateParams",
    "BlochForm",
    "InvalidStateError",
    "make_params",
    "initial_state",
    "bloch_decompose",
    "bloch_compose",
    "validate_density_matrix",
    "x_structure_defect",
    "state_to_json",
    "state_from_json",
    # linear algebra
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "dag",
    "tensor",
    "partial_trace",
    "hermitian_eigen",
    "von_neumann_entropy",
    # channels
    "ChannelSpec",
    "decay_factor",
    "jump_operator",
    "lindblad_rhs",
    "apply_pauli_channel",
    "kraus_apply",
    "analytic_evolve",
    "integrate_rk4",
    # measures
    "MeasureResult",
    "OptimizerSettings",
    "OptimizerDiagnostics",
    "wootters_score",
    "concurrence",
    "concurrence_closed",
    "geometric_discord",
    "geometric_discord_closed",
    "mutual_information",
    "optimal_conditional_entropy",
    "closed_values",
    "oracle_values",
    "classical_correlation",
    "quantum_discord",
    "quantum_discord_closed",
    # dynamics
    "MEASURE_NAMES",
    "SweepGrid",
    "SweepRow",
    "SweepTable",
    "sweep",
    "DeathTimeResult",
    "death_time",
    "closed_death_time",
    "closed_death_time_trig",
    "VerifyCheck",
    "VerifyReport",
    "verify_suite",
]
