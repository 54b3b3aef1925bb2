"""Characteristic exponents of the fractal from M, L and rho."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateStructure
from .harmonic import HarmonicStructure
from .ifs import FractalSystem


@dataclass(frozen=True)
class DimensionReport:
    """Hausdorff, walk and spectral dimensions with the defining constants."""

    M: int
    L: float
    rho: float
    d_f: float
    d_w: float
    d_s: float


def dimensions(system: FractalSystem, hs: HarmonicStructure) -> DimensionReport:
    """d_f = log M / log L, d_w = log(M rho) / log L, d_s = 2 d_f / d_w.

    Raises ``DegenerateStructure`` for rho <= 1, which contradicts the
    harmonic-structure theorem and signals a solver failure.
    """
    rho = hs.rho
    if rho <= 1.0:
        raise DegenerateStructure(f"resistance scaling factor {rho} is not above 1")
    M, L = system.M, system.L
    d_f = math.log(M) / math.log(L)
    d_w = math.log(M * rho) / math.log(L)
    d_s = 2.0 * d_f / d_w
    return DimensionReport(M=M, L=L, rho=rho, d_f=d_f, d_w=d_w, d_s=d_s)
