"""Momentum solvers with certified descent, proximal path diagnostics,
and sample-based regularity checks for structured test problems."""

from .certify import (
    CertReport,
    HolderFunction,
    certify_growth_direct,
    certify_growth_via_ppa,
    check_kl,
    check_moreau_exponent,
    fit_growth_exponent,
    verify_recursive_rate,
)
from .errors import (
    CapabilityError,
    DeskScaleLimitError,
    EmptyRegionError,
    InvalidInputError,
    NumericalFailureError,
    ToolkitError,
    TraceParseError,
)
from .objective import (
    Objective,
    PowerIterationWarning,
    ProblemSpec,
    lipschitz_estimate,
    make_abs_value,
    make_least_squares,
    make_power,
    make_quadratic,
    make_radon,
)
from .prox import PpaRun, moreau_gradient, moreau_value, ppa_run
from .solvers import (
    SolverConfig,
    SolverState,
    ahb_beta,
    initial_state,
    run_solver,
    step,
)
from .trace import IterationRecord, Trace, fit_rate_from_trace, read_csv, summarize, write_csv

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "CertReport",
    "DeskScaleLimitError",
    "EmptyRegionError",
    "HolderFunction",
    "InvalidInputError",
    "IterationRecord",
    "NumericalFailureError",
    "Objective",
    "PowerIterationWarning",
    "PpaRun",
    "ProblemSpec",
    "SolverConfig",
    "SolverState",
    "ToolkitError",
    "Trace",
    "TraceParseError",
    "ahb_beta",
    "certify_growth_direct",
    "certify_growth_via_ppa",
    "check_kl",
    "check_moreau_exponent",
    "fit_growth_exponent",
    "fit_rate_from_trace",
    "initial_state",
    "lipschitz_estimate",
    "make_abs_value",
    "make_least_squares",
    "make_power",
    "make_quadratic",
    "make_radon",
    "moreau_gradient",
    "moreau_value",
    "ppa_run",
    "read_csv",
    "run_solver",
    "step",
    "summarize",
    "verify_recursive_rate",
    "write_csv",
]
