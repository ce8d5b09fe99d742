"""Pseudo-spectral solver and verification suite for stationary
fractional-dissipation Navier-Stokes flow on a large periodic box."""

from .spectral import (
    Grid,
    RealVectorField,
    SpectralVectorField,
    bilinear_symbol,
    fractional_power,
    leray_project,
    to_real,
)

__all__ = [
    "Grid",
    "RealVectorField",
    "SpectralVectorField",
    "bilinear_symbol",
    "fractional_power",
    "leray_project",
    "to_real",
]

__version__ = "0.1.0"
