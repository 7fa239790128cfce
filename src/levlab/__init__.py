"""Numerical laboratory for the winding-number form of Levinson's theorem.

Scattering on the line pairs each system with a closed loop of 2x2 unitaries
around a compactified energy-dilation square; the winding number of the loop
determinant equals minus the number of bound states, with the threshold
behaviour deciding how the half-integer pieces split between the sides.
This package verifies that bookkeeping for solvable point interactions and
for short-range potentials, and checks the universal multiplier identity
behind the construction.
"""

from .dilation import (
    MellinEvaluator,
    ProbeFunction,
    apply_halfline_fourier,
    default_suite,
    identity_residual,
    suite_residuals,
)
from .errors import (
    ClassificationAmbiguous,
    ConfigError,
    DecayTooSlow,
    GoldenMismatch,
    LevlabError,
    NonUnitaryPath,
    PhaseJumpTooLarge,
    QuadratureNotConverged,
    ResolutionInsufficient,
    SolverDiverged,
    SymmetryRequired,
    WindingNotConverged,
)
from .loops import (
    ResonanceClass,
    Sector,
    WindingReport,
    chord_winding,
    connector_winding,
    loop_report,
    r_even,
    r_odd,
    restrict,
    sector_threshold_class,
    threshold_matrix,
    unitarity_defect,
)
from .point import (
    DELTA,
    DELTA_PRIME,
    PointInteraction,
    verify_levinson,
)
from .potentials import (
    Potential,
    gaussian_wells,
    square_well,
    tabulated_potential,
    zero_potential,
)
from .reporting import (
    TableRow,
    check_golden,
    point_table_rows,
    render_rows,
    reproduce_tables,
    tuned_exceptional_well,
    tuned_resonance_depth,
    well_table_rows,
)
from .scattering import (
    PotentialAnalysis,
    ScatteringData,
    SolverSettings,
    classify_threshold,
    count_bound_states_fd,
    count_bound_states_shooting,
    time_delay_integral,
    to_even_odd,
    zero_energy_tail_slope,
)

__version__ = "0.1.0"
