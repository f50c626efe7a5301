"""The package's public surface: exported names and the reservoir fields."""

import dataclasses
import types

import pytest

import welldecay
from welldecay import chain, solvers, spectra
from welldecay.model import FiniteChain, Lorentzian, Semicircle, WideBand

PUBLIC_NAMES = {
    "AmplitudeTrajectory",
    "BarrierDrive",
    "EnergySpectrum",
    "FiniteChain",
    "LevelDrive",
    "Lorentzian",
    "MismatchError",
    "ModelError",
    "ResolutionError",
    "Semicircle",
    "SolverConfig",
    "SolverError",
    "SystemParams",
    "WideBand",
    "b0_lorentzian_static",
    "b0_markovian_driven",
    "bessel_ive",
    "bessel_j",
    "combine_signed",
    "conservation_window",
    "convergence_order",
    "default_dt",
    "energy_grid",
    "floquet_spectrum",
    "lineshape_exact",
    "lineshape_markovian",
    "revival_time",
    "short_time_coefficients",
    "solve",
    "spectrum_asymptotic",
    "spectrum_from_trajectory",
    "truncation_order",
}


def test_public_names_are_pinned():
    exported = {
        name
        for name in dir(welldecay)
        if not name.startswith("_") and not isinstance(getattr(welldecay, name), types.ModuleType)
    }
    assert len(PUBLIC_NAMES) == 32
    assert exported == PUBLIC_NAMES


@pytest.mark.parametrize(
    "cls,fields",
    [
        (WideBand, ()),
        (Lorentzian, ("lam",)),
        (Semicircle, ("w_band",)),
        (FiniteChain, ("n_levels", "w_band")),
    ],
)
def test_reservoirs_hold_only_their_band_shape(cls, fields):
    assert tuple(f.name for f in dataclasses.fields(cls)) == fields



@pytest.mark.parametrize(
    "module,name",
    [
        (solvers, "solve_volterra"),
        (solvers, "solve_lorentzian_ode"),
        (solvers, "solve_wideband"),
        (chain, "evolve_chain"),
        (spectra, "sideband_count"),
    ],
)
def test_traced_routes_stay_module_functions(module, name):
    # the benchmark's per-layer trace keys its solver, chain and sideband
    # metrics on these module functions, so they stay there by name
    fn = getattr(module, name)
    assert isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__
