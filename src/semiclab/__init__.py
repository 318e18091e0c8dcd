"""semiclab: numerical experiments on spectra near critical energy levels.

The package builds discrete Hamiltonians for small polynomial models, counts
eigenvalues in shrinking energy windows, measures phase-space observables
against eigenfunctions, and fits the resulting growth laws.  See the README
for the command line interface and the acceptance scenarios.
"""

from .classical import (
    classify_integrability,
    coarea_check,
    levelset_connected,
    liouville_integral,
    mu_average,
)
from .eig import eigs_in_window, radial_channels
from .errors import ConfigError, HypothesisError, NumericalError, exit_code_for
from .experiments import (
    ScanResult,
    ScanRow,
    default_center,
    fit_log_coefficient,
    fit_scaling,
    log_decay_slope,
    predict_scaling,
    ratio_limit,
    run_scan,
    scaling_branches,
    scan_from_csv,
    scan_to_csv,
    singular_limit,
    solve_window,
    two_wells_experiment,
)
from .microlocal import (
    egorov_defect,
    microlocal_records,
    radial_state_averages,
    upsilon,
    upsilon_a,
)
from .model import catalog, get_model
from .observables import ObservableParseError, parse_observable
from .quantize import Grid1D, grid_for_schrodinger
from .scenarios import SCENARIOS, run_scenario

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Grid1D",
    "HypothesisError",
    "NumericalError",
    "ObservableParseError",
    "SCENARIOS",
    "ScanResult",
    "ScanRow",
    "catalog",
    "classify_integrability",
    "coarea_check",
    "default_center",
    "egorov_defect",
    "eigs_in_window",
    "exit_code_for",
    "fit_log_coefficient",
    "fit_scaling",
    "get_model",
    "grid_for_schrodinger",
    "levelset_connected",
    "liouville_integral",
    "log_decay_slope",
    "microlocal_records",
    "mu_average",
    "parse_observable",
    "predict_scaling",
    "radial_channels",
    "radial_state_averages",
    "ratio_limit",
    "run_scan",
    "run_scenario",
    "scaling_branches",
    "scan_from_csv",
    "scan_to_csv",
    "singular_limit",
    "solve_window",
    "two_wells_experiment",
    "upsilon",
    "upsilon_a",
    "__version__",
]
