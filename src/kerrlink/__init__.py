"""Entangling two held optical modes through a weak cross-Kerr probe and
linear-optics elimination measurements: scheme synthesis, truncated-Fock
simulation, entanglement scans, and noise/feasibility budgets.

Importing the package loads numpy only: each scipy submodule is imported
inside the function that calls it, so `design` and `feasibility` run without
scipy and the other commands load only what they call."""

from .design import (
    DetectionScheme,
    EliminationRoots,
    TargetCoefficients,
    build_scheme,
    coeffs_from_photon_target,
    semi_success_coeffs,
    solve_roots,
    to_json,
    transmittances,
)
from .entangle import (
    EntanglementReport,
    entropy_of_coefficients,
    optimize_coefficients,
    schmidt_entropy,
)
from .errors import (
    DegenerateLeadingCoefficient,
    DomainError,
    KerrlinkError,
    MemoryBudgetExceeded,
    NonConvergence,
    NoSolution,
    ShapeMismatch,
    TailTooHeavy,
    UnknownMode,
)
from .fock import (
    DensOp,
    FockVector,
    TruncationSpec,
    coherent_amplitudes,
    fidelity,
    min_cutoff,
)
from .noise import (
    FeasibilityReport,
    FidelityBreakdown,
    NoiseParams,
    attenuation_db,
    darkcount_loss_limit,
    feasibility_check,
    fidelity_leading_order,
    practical_cutoff_db,
    success_probability,
    superop_pipeline_fidelity,
)
from .presets import PRESET_NAMES, Preset, get_preset
from .protocol import (
    OutcomeRecord,
    ProtocolParams,
    all_click_record,
    analytic_target_state,
    dominant_eigenstate,
    lift_to_modes,
    make_protocol,
    run_full_protocol,
)

__version__ = "0.1.0"
