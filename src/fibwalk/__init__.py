"""Fibonacci-modulated discrete-time quantum walks and their topological
diagnostics: quasienergy spectra with 0/pi edge-mode detection, the mean
chiral displacement, boundary Schur functions with integer winding numbers
per surface termination, and ensemble-averaged phase diagrams."""

__version__ = "0.1.0"

from .dynamics import (
    BASIS_AVERAGE,
    mcd_block_series,
    mcd_series,
    mcd_time_average,
    series_average,
)
from .errors import (
    BoundaryContaminationError,
    ComputationError,
    IndeterminateRootError,
    NoReflectionError,
    PoleOnContourError,
    SolverConvergenceError,
)
from .schur import (
    SchurParams,
    WindingResult,
    reflection_params,
    schur_eval,
    symmetry_point_values,
    winding_number,
    winding_numbers,
    winding_of_function,
    winding_oracle,
)
from .sequence import (
    DEFAULT_ENSEMBLE,
    CoinAngles,
    FibonacciWord,
    Phason,
    PrefixOverride,
    Standard,
    Termination,
    angles_for,
    apply_termination,
    cut_project_word,
    fibonacci_number,
    generate_word,
    parse_termination,
    phason_ensemble,
    reflection_amplitudes,
    standard_word,
    termination_label,
    word_for_termination,
)
from .spectrum import (
    EdgeMode,
    Gap,
    QuasienergySpectrum,
    classify_edge_modes,
    find_gaps,
    gap_labels,
    quasienergies,
)
from .sweep import (
    GridSpec,
    PhaseDiagram,
    sweep_mcd,
    sweep_winding,
    sweep_winding_average,
)
from .walk import (
    Timeframe,
    WalkConfig,
    apply_step,
    build_unitary,
    chiral_operator,
    localized_state,
)
