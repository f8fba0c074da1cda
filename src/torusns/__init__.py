"""Periodic-box incompressible-flow simulator with a verification harness for
rescaled-variable energy inequalities."""

__version__ = "0.1.0"

from .gronwall_comparator import ComparisonParams, TrapResult, h_minus, verify_trap
from .inequality_lab import (
    CertificateConstant,
    EnergyLedger,
    InequalityReport,
    corrupt_ledger,
    d_dtau,
    two_route_audit,
    verify_all,
    verify_blowup_rate,
    verify_decomposition_decay,
    verify_h1_inequality,
    verify_h2_inequality,
    verify_l2_inequality,
)
from .multiplier_bank import (
    MultiplierSet,
    check_bernstein,
    hausdorff_young_constant,
    sign_certificate_A,
    sign_certificate_B,
)
from .ns_dynamics import (
    NumericalBlowupError,
    SimulationConfig,
    TrajectoryState,
    cfl_dt,
    make_initial_data,
    run,
    step,
)
from .similarity_frame import (
    SCALING_EXPONENTS,
    SimilarityClock,
    WFunctionals,
    tau_of_t,
    w_functionals_multiplier_route,
    w_functionals_scaling_route,
)
from .spectral_core import (
    NormSuite,
    SpectralGrid,
    VectorField,
    dealias,
    divergence_ratio,
    leray_project,
    make_grid,
    norms,
    spectral_derivative,
    to_physical,
    to_spectral,
)
