"""boxrevive: revival dynamics of a slightly relativistic particle in a box.

Natural units hbar = m = L = 1; times in units of the revival time
T_rev = 4/pi, positions in units of L, momenta in units of hbar/L.
"""

__version__ = "0.1.0"

from .carpet import carpet, centroid_trace
from .fields import Field2D, write_field_csv, write_field_pgm
from .revivals import (
    FidelityScan,
    RevivalPrediction,
    enumerate_fractional,
    fidelity_scan,
)
from .spectrum import (
    PerturbativeRegimeError,
    SystemConfig,
    TimeScales,
    energy_level,
    mean_quantum_number,
    spectrum_turnover,
    time_scales,
)
from .subplanck import (
    SubPlanckReport,
    sensitivity_reports,
    subplanck_dimension,
)
from .wavepacket import (
    CoverageError,
    EigenExpansion,
    PacketSpec,
    PerturbativeValidityWarning,
    TruncationError,
    WallClearanceWarning,
    autocorrelation,
    default_momentum_grid,
    evolve,
    expand,
    momentum_amplitude,
    position_density,
)
from .wigner import (
    WignerField,
    fringe_spacing,
    marginal_errors,
    negativity_volume,
    parity_mirror,
    wigner,
    wigner_overlap,
)

__all__ = [
    "CoverageError",
    "EigenExpansion",
    "Field2D",
    "FidelityScan",
    "PacketSpec",
    "PerturbativeRegimeError",
    "PerturbativeValidityWarning",
    "RevivalPrediction",
    "SubPlanckReport",
    "SystemConfig",
    "TimeScales",
    "TruncationError",
    "WallClearanceWarning",
    "WignerField",
    "autocorrelation",
    "carpet",
    "centroid_trace",
    "default_momentum_grid",
    "energy_level",
    "enumerate_fractional",
    "evolve",
    "expand",
    "fidelity_scan",
    "fringe_spacing",
    "marginal_errors",
    "mean_quantum_number",
    "momentum_amplitude",
    "negativity_volume",
    "parity_mirror",
    "position_density",
    "sensitivity_reports",
    "spectrum_turnover",
    "subplanck_dimension",
    "time_scales",
    "wigner",
    "wigner_overlap",
    "write_field_csv",
    "write_field_pgm",
]
