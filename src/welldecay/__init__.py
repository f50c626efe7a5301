"""Quantum decay of a localized level into a continuum: time-domain solvers
for static and periodically driven Hamiltonians, exact finite reservoirs,
closed-form oracles, and photon-sideband spectra."""

from .bessel import bessel_ive, bessel_j, truncation_order
from .chain import lineshape_exact, revival_time
from .closedform import (
    b0_lorentzian_static,
    b0_markovian_driven,
    floquet_spectrum,
    lineshape_markovian,
    short_time_coefficients,
)
from .model import (
    BarrierDrive,
    FiniteChain,
    LevelDrive,
    Lorentzian,
    ModelError,
    Semicircle,
    SystemParams,
    WideBand,
)
from .solvers import (
    AmplitudeTrajectory,
    ResolutionError,
    SolverConfig,
    SolverError,
    default_dt,
    solve,
)
from .spectra import (
    EnergySpectrum,
    conservation_window,
    energy_grid,
    spectrum_asymptotic,
    spectrum_from_trajectory,
)

__version__ = "0.1.0"
