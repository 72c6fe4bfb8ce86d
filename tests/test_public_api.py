import ahbopt

# Every public name. Adding or removing one is a deliberate edit here.
PUBLIC_NAMES = {
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
}


def test_all_is_sorted_unique_resolvable_and_the_listed_names():
    names = ahbopt.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(ahbopt, name), name
    assert set(names) == PUBLIC_NAMES
