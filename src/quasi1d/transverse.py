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

from .errors import DomainError, GridTooSmallError, InterfaceError, ResolutionError
from .gpe1d import Grid1D, ProductGrid, _kinetic_energy

__all__ = ["TransverseMode", "ground_state_2d", "coupling_b", "rescale_mode",
           "harmonic_profile"]


# ground_state_2d's first imaginary-time step and the residual that ends its polish.
FLOW_DT = 0.05
POLISH_TOL = 1e-10


def harmonic_profile(y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """Isotropic harmonic confinement |y|^2."""
    return y1 * y1 + y2 * y2


@dataclass(frozen=True, eq=False)
class TransverseMode:
    """Ground mode of the transverse problem on its own square grid.

    ``quartic`` is int |chi|^4 for the stored chi.  Rescaled modes carry the
    eps they were built with and remember the parent's quartic integral.
    """

    extent: float              # box side; grid spans [-extent/2, extent/2)
    n: int
    chi: np.ndarray            # (n, n) real, unit L2 norm on the grid
    E0: float
    quartic: float
    epsilon: float | None = None
    base_quartic: float | None = None

    def y_grid(self) -> Grid1D:
        return Grid1D(self.extent, self.n)

    @property
    def spacing(self) -> float:
        return self.y_grid().dx

    def axis(self) -> np.ndarray:
        return self.y_grid().x


def _confinement(y: Grid1D, eps: float,
                 v_perp: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """V_perp(y / eps) / eps^2 on the plane of two `y` axes, already eps-scaled."""
    y1, y2 = ProductGrid((y, y)).mesh()
    return np.asarray(v_perp(y1 / eps, y2 / eps), dtype=float) / eps**2


def _rayleigh(chi: np.ndarray, v: np.ndarray, k2: np.ndarray, da: float) -> float:
    potential = float(np.sum(v * np.abs(chi) ** 2)) * da
    return _kinetic_energy(chi, k2, da) + potential


def ground_state_2d(v_perp: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    extent: float = 16.0, n: int = 128, tol: float = 1e-13,
                    max_iters: int = 50000, boundary_tol: float = 1e-8,
                    return_history: bool = False):
    """Normalized imaginary-time flow followed by a residual polish.

    The split flow exp(-dt V/2) exp(-dt K) exp(-dt V/2) with renormalization
    kills the excited transient quickly but its fixed point carries an
    O(dt^2) bias, so once the energy decrement drops below ``tol`` the state
    is refined by Rayleigh-Ritz steps in span{chi, preconditioned residual}
    until the eigenresidual norm falls below POLISH_TOL.  That second
    stage converges to the grid-exact eigenvector, and each step is again
    non-increasing in energy.  The result must have decayed at the box edge
    to ``boundary_tol`` relative to its peak, otherwise the box does not
    contain the mode.
    """
    axis = Grid1D(extent, n)            # DomainError unless n is even and >= 4
    plane = ProductGrid((axis, axis))
    y1, y2 = plane.mesh()
    v = np.asarray(v_perp(y1, y2), dtype=float)
    if not np.all(np.isfinite(v)):
        raise DomainError("transverse potential takes non-finite values on the grid")
    k2 = plane.k_squared()
    da = plane.dvol

    def apply_h(state: np.ndarray) -> np.ndarray:
        return np.fft.ifft2(k2 * np.fft.fft2(state)).real + v * state

    chi = np.exp(-0.5 * (y1**2 + y2**2))
    chi /= math.sqrt(float(np.sum(chi**2)) * da)
    energy = _rayleigh(chi, v, k2, da)
    history = [energy]
    step = FLOW_DT
    half_v = np.exp(-0.5 * step * v)
    kin = np.exp(-step * k2)
    converged = False
    for _ in range(max_iters):
        cand = half_v * chi
        cand = np.fft.ifft2(kin * np.fft.fft2(cand)).real
        cand = half_v * cand
        cand /= math.sqrt(float(np.sum(cand**2)) * da)
        cand_energy = _rayleigh(cand, v, k2, da)
        if cand_energy > energy:
            # state already beats this step's biased fixed point; shrink
            step *= 0.5
            if step < FLOW_DT * 2.0**-40:
                converged = True
                break
            half_v = np.exp(-0.5 * step * v)
            kin = np.exp(-step * k2)
            continue
        chi = cand
        history.append(cand_energy)
        if energy - cand_energy < tol:
            energy = cand_energy
            converged = True
            break
        energy = cand_energy
    if not converged:
        raise ResolutionError(f"imaginary time did not converge to {tol} "
                              f"within {max_iters} steps")

    converged = False
    for _ in range(max_iters):
        h_chi = apply_h(chi)
        energy = _rayleigh(chi, v, k2, da)
        resid = h_chi - energy * chi
        if math.sqrt(float(np.sum(resid**2)) * da) < POLISH_TOL:
            converged = True
            break
        # spectral preconditioner: kinetic shifted to stay positive definite
        p = np.fft.ifft2(np.fft.fft2(resid) / (k2 + 1.0 + abs(energy))).real
        p -= (float(np.sum(chi * p)) * da) * chi
        p_norm = math.sqrt(float(np.sum(p**2)) * da)
        if p_norm < 1e-300:
            converged = True
            break
        p /= p_norm
        h_p = apply_h(p)
        h12 = float(np.sum(chi * h_p)) * da
        h22 = float(np.sum(p * h_p)) * da
        # smaller Ritz pair of [[energy, h12], [h12, h22]]; the mixing
        # coefficient is formed cancellation-free or the tiny decrements
        # near convergence drown in rounding of theta itself
        gap_half = 0.5 * (h22 - energy)
        if h12 == 0.0:
            converged = True
            break
        if gap_half >= 0.0:
            t = -h12 / (gap_half + math.hypot(gap_half, h12))
            chi = chi + t * p
            history.append(energy + t * h12)
        else:
            s = h12 / (gap_half - math.hypot(gap_half, h12))
            chi = s * chi + p
            history.append(h22 + s * h12)
        chi /= math.sqrt(float(np.sum(chi**2)) * da)
    if not converged:
        raise ResolutionError(f"eigenresidual polish stalled above "
                              f"{POLISH_TOL:g} after {max_iters} steps")
    history.append(energy)

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
    mode = TransverseMode(extent=extent, n=n, chi=chi, E0=energy, quartic=quartic)
    if return_history:
        return mode, np.asarray(history)
    return mode


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
    """chi_eps(y) = chi(y / eps) / eps on the grid scaled by eps."""
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    if mode.epsilon is not None:
        raise InterfaceError("mode was already rescaled; start from the base mode")
    chi_eps = mode.chi / epsilon
    da = (epsilon * mode.spacing) ** 2
    quartic = float(np.sum(chi_eps**4)) * da
    return replace(mode, extent=mode.extent * epsilon, chi=chi_eps,
                   E0=mode.E0 / epsilon**2, quartic=quartic,
                   epsilon=epsilon, base_quartic=mode.quartic)
