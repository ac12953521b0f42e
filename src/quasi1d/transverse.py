"""Transverse confinement modes on a periodic 2d grid.

The confining potential acts on the two tight directions.  Its ground mode
chi (of -Laplace + V_perp, units hbar = 1, m = 1/2) sets both the energy
offset E0 that is gauged away from the longitudinal dynamics and the quartic
integral int |chi|^4 that fixes the effective 1d coupling b = 8 pi a int
|chi|^4.  Rescaled modes chi_eps(y) = chi(y / eps) / eps live on the grid
shrunk by eps, so the mode is always equally well resolved; its eigenvalue
under -Laplace + V_perp(y / eps) / eps^2 is E0 / eps^2 and eps^2 int
|chi_eps|^4 = int |chi|^4 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DomainError, GridTooSmallError, InterfaceError
from .gpe1d import Grid1D, ProductGrid, _ground_state

__all__ = ["TransverseMode", "ground_state_2d", "coupling_b", "rescale_mode",
           "harmonic_profile"]


def harmonic_profile(y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """Isotropic harmonic confinement |y|^2."""
    return y1 * y1 + y2 * y2


@dataclass(frozen=True, eq=False)
class TransverseMode:
    """Ground mode of the transverse problem on the square plane of axis y.

    ``quartic`` is int |chi|^4 for the stored chi.  Rescaled modes carry the
    eps they were built with and remember the parent's quartic integral.
    """

    y: Grid1D                  # each side of the plane
    chi: np.ndarray            # (y.n, y.n) real, unit L2 norm on the grid
    E0: float
    quartic: float
    epsilon: float | None = None
    base_quartic: float | None = None


def _confinement(y: Grid1D, eps: float,
                 v_perp: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """V_perp(y / eps) / eps^2 on the plane of two `y` axes, already eps-scaled."""
    y1, y2 = ProductGrid((y, y)).mesh()
    return np.asarray(v_perp(y1 / eps, y2 / eps), dtype=float) / eps**2


def ground_state_2d(v_perp: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    extent: float = 16.0, n: int = 128,
                    boundary_tol: float = 1e-8) -> TransverseMode:
    """Ground mode of -Laplace + V_perp by gpe1d's ground-state routine at
    b = 0: LOBPCG from exp(-|y|^2 / 2) (Rayleigh-Ritz in span{chi,
    preconditioned residual, previous direction}, by real FFTs) to the
    grid-exact eigenvector.  The plane keeps this seed, not the line's flat
    one: on the 16-wide 128^2 harmonic plane it is already within
    POLISH_TOL, where the flat state takes 90 steps.

    The result must have decayed at the box edge to ``boundary_tol``
    relative to its peak, otherwise the box does not contain the mode.
    """
    y = Grid1D(extent, n)               # DomainError unless n is even and >= 4
    plane = ProductGrid((y, y))
    y1, y2 = plane.mesh()
    v = np.asarray(v_perp(y1, y2), dtype=float)
    if not np.all(np.isfinite(v)):
        raise DomainError("transverse potential takes non-finite values on the grid")
    da = plane.dvol
    chi, energies = _ground_state(np.exp(-0.5 * (y1**2 + y2**2)),
                                  plane.k_squared(), da, v, 0.0)

    peak_idx = np.unravel_index(np.argmax(np.abs(chi)), chi.shape)
    if chi[peak_idx] < 0.0:
        chi = -chi
    edge = max(np.abs(chi[0, :]).max(), np.abs(chi[-1, :]).max(),
               np.abs(chi[:, 0]).max(), np.abs(chi[:, -1]).max())
    if edge > boundary_tol * abs(chi[peak_idx]):
        raise GridTooSmallError(
            f"mode amplitude {edge:.2e} at the box edge exceeds "
            f"{boundary_tol:.1e} of its peak; enlarge the transverse box")

    quartic = float(np.sum(chi**4)) * da
    return TransverseMode(y=y, chi=chi, E0=energies[-1], quartic=quartic)


def coupling_b(a: float, mode: TransverseMode) -> float:
    """Effective 1d coupling b = 8 pi a int |chi|^4.

    Accepts base or rescaled modes; for a rescaled mode the eps-invariance
    eps^2 int |chi_eps|^4 = int |chi|^4 is checked against the parent value.
    """
    if a < 0.0:
        raise DomainError("scattering length must be non-negative here")
    if mode.epsilon is None:
        quartic = mode.quartic
    else:
        quartic = mode.epsilon**2 * mode.quartic
        if mode.base_quartic is None or not math.isclose(
                quartic, mode.base_quartic, rel_tol=1e-10, abs_tol=1e-30):
            raise InterfaceError("rescaled mode quartic integral is inconsistent "
                                 "with its parent mode")
    return 8.0 * math.pi * a * quartic


def rescale_mode(mode: TransverseMode, epsilon: float) -> TransverseMode:
    """chi_eps(y) = chi(y / eps) / eps on the axis scaled by eps (eps > 0).

    Its quartic integral sum chi_eps^4 (eps dy)^2 is formed as sum chi^4
    (dy / eps)^2: (chi / eps)^4 overflows for eps below about 1e-77 and
    underflows above about 1e77.
    """
    if mode.epsilon is not None:
        raise InterfaceError("mode was already rescaled; start from the base mode")
    y = Grid1D(mode.y.length * epsilon, mode.y.n)
    chi_eps = mode.chi / epsilon
    quartic = float(np.sum(mode.chi**4)) * (mode.y.dx / epsilon) ** 2
    return replace(mode, y=y, chi=chi_eps,
                   E0=mode.E0 / epsilon**2, quartic=quartic,
                   epsilon=epsilon, base_quartic=mode.quartic)
