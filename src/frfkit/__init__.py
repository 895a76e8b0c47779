"""Nonparametric frequency response function identification.

Classical spectral estimators (ETFE, spectral analysis with variance),
the local polynomial method for transient elimination, closed-loop
direct/indirect estimation and MIMO full-plant vs equivalent-plant
extraction, validated against a built-in two-mass benchmark simulation.
"""

from .closedloop import (
    ClosedLoopDataset,
    FrmPair,
    direct_bias_asymptote,
    direct_estimate,
    equivalent_plant,
    equivalent_plant_true,
    full_plant,
    indirect_estimate,
    interaction_term,
    run_mimo_experiments,
    sensitivity_pair,
    true_sensitivity,
)
from .estimators import (
    BinDefect,
    FrfEstimate,
    LocalModelTheta,
    LpmConfig,
    PowerSpectra,
    average_then_divide,
    etfe,
    lpm_fit,
    noise_covariance,
    power_spectra,
    spectral_analysis,
    write_frf_csv,
)
from .sim import (
    ControllerConfig,
    IllPosedLoopError,
    SimulationRecord,
    StateSpaceModel,
    UnstableLoopError,
    benchmark_plant,
    closed_loop_steady_state,
    closed_loop_system,
    discretize_zoh,
    lsim,
    periodic_steady_state,
    read_statespace_json,
    simulate_closed_loop,
    transient_spectrum,
    true_frf,
    write_statespace_json,
)
from .signals import (
    MultisineSpec,
    SpectrumSet,
    TimeSeries,
    WindowFunction,
    bin_frequencies,
    dft,
    generate_multisine,
    spectrum_set,
)

__version__ = "0.1.0"
