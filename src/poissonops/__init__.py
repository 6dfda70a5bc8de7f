"""Spectral tools for half-space Poisson operators with a spectral parameter.

The package evaluates symbol-class seminorms and characterization bounds,
applies Fourier multipliers and Poisson operators on periodic half-space
grids, measures mixed and weak Lebesgue norms, certifies lower bounds on
randomized boundedness constants, and solves three dynamic boundary
condition model problems per tangential mode.
"""
from __future__ import annotations

from .core import (
    BoundaryField,
    HalfSpaceField,
    NormalGrid,
    Sector,
    SectorError,
    TangentialGrid,
    bracket,
    make_grids,
)
from .dynbc import (
    DynBCProblem,
    ResolventOutput,
    boundary_symbol_gain,
    implicit_euler_evolve,
    road_symbol_scan,
)
from .norms import NormSpec, field_norm, opnorm_hilbert
from .rbound import (
    RademacherSampler,
    ScanResult,
    eps_p_norm,
    probe_dictionary,
    rbound_lower,
)
from .symbols import (
    MultiplierSymbol,
    ProbeSpec,
    SymbolKernel,
    char_lp_bound,
    kernel_catalog,
    lemma_max_eval,
    mikhlin_fnorm,
    seminorm,
)
from .transforms import LPPartition, apply_multiplier, apply_poisson, lp_blocks

__version__ = "0.1.0"

__all__ = [
    "BoundaryField",
    "DynBCProblem",
    "HalfSpaceField",
    "LPPartition",
    "MultiplierSymbol",
    "NormSpec",
    "NormalGrid",
    "ProbeSpec",
    "RademacherSampler",
    "ResolventOutput",
    "ScanResult",
    "Sector",
    "SectorError",
    "SymbolKernel",
    "TangentialGrid",
    "apply_multiplier",
    "apply_poisson",
    "boundary_symbol_gain",
    "bracket",
    "char_lp_bound",
    "eps_p_norm",
    "field_norm",
    "implicit_euler_evolve",
    "kernel_catalog",
    "lemma_max_eval",
    "lp_blocks",
    "make_grids",
    "mikhlin_fnorm",
    "opnorm_hilbert",
    "probe_dictionary",
    "rbound_lower",
    "road_symbol_scan",
    "seminorm",
    "__version__",
]
