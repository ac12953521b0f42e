"""Cubic 1d Schroedinger dynamics on a periodic grid.

    i dPhi/dt = (-d^2/dx^2 + V(t, x) + b |Phi|^2) Phi

integrated by Strang splitting: half a pointwise phase under V(t + dt/2) +
b |Phi|^2, a full spectral kinetic step, half a phase with the refreshed
density.  Every factor is unimodular, so the grid norm is conserved to
round-off; the scheme is second order and exactly time reversible.  The
loop and the energy work on any grid shape; confined3d runs on them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import DomainError, ResolutionError

__all__ = ["Grid1D", "ProductGrid", "Field", "Trajectory", "strang_step",
           "energy_1d", "evolve_1d", "ground_state_1d", "gaussian_packet",
           "plane_wave", "align_phase", "phase_distance"]

Potential1D = Callable[[float, np.ndarray], np.ndarray] | None


@dataclass(frozen=True, eq=False)
class Grid1D:
    length: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 4 or self.n % 2:
            raise DomainError("grid needs an even n >= 4")
        if self.length <= 0.0:
            raise DomainError("grid length must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def dvol(self) -> float:
        return self.dx

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dx

    @property
    def k(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n, self.dx)

    def k_squared(self) -> np.ndarray:
        return self.k**2


@dataclass(frozen=True, eq=False)
class ProductGrid:
    """Periodic box, the product of its Grid1D axes in axis order: the plane,
    the 3d tube and the one-particle spaces of the N-body tensors."""

    axes: tuple[Grid1D, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(axis.n for axis in self.axes)

    @property
    def dvol(self) -> float:
        return math.prod(axis.dx for axis in self.axes)

    def k_squared(self) -> np.ndarray:
        """Sum of the per-axis k^2, broadcast over the box in axis order."""
        return sum(np.ix_(*(axis.k_squared() for axis in self.axes)))

    def mesh(self, sparse: bool = False) -> list[np.ndarray]:
        """Coordinate arrays, one per axis, indexed like the box (open if sparse)."""
        return np.meshgrid(*(axis.x for axis in self.axes), indexing="ij",
                           sparse=sparse)


@dataclass(eq=False)
class Field:
    """Values on a grid with `dvol` and `k_squared()`: Grid1D, ProductGrid, Grid3D."""

    grid: Any
    values: np.ndarray
    time: float = 0.0

    def norm(self) -> float:
        return math.sqrt(float(np.sum(np.abs(self.values) ** 2)) * self.grid.dvol)

    def normalized(self) -> "Field":
        return Field(self.grid, self.values / self.norm(), self.time)


@dataclass(eq=False)
class Trajectory:
    """Per-step times and norms; energies at `energy_times` only."""

    times: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    energy_times: np.ndarray
    final: Field
    samples: list[Field] = field(default_factory=list)

    def max_norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - self.norms[0])))

    def max_energy_drift(self) -> float:
        return float(np.max(np.abs(self.energies - self.energies[0])))


def gaussian_packet(grid: Grid1D, sigma: float = 1.0, x0: float = 0.0,
                    k0: float = 0.0) -> Field:
    """Normalized Gaussian of width sigma, centred at x0, boosted by k0."""
    x = grid.x
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * k0 * x)
    out = Field(grid, psi.astype(complex))
    return out.normalized()


def plane_wave(grid: Grid1D, mode: int) -> Field:
    """Normalized lattice plane wave exp(i k x) with k = 2 pi mode / L."""
    k = 2.0 * math.pi * mode / grid.length
    psi = np.exp(1j * k * grid.x) / math.sqrt(grid.length)
    return Field(grid, psi.astype(complex))


def _kinetic_energy(values: np.ndarray, k2: np.ndarray, dvol: float) -> float:
    """<psi, -Laplace psi> = sum k^2 |fftn psi|^2 dV / size (Parseval)."""
    psi_hat = np.fft.fftn(values)
    return float(np.sum(k2 * np.abs(psi_hat) ** 2)) * dvol / values.size


def _energy(values: np.ndarray, k2: np.ndarray, dvol: float, v_static,
            v_t, g: float) -> float:
    """<psi, (-Laplace + V_static + v(t) + (g/2)|psi|^2) psi>; the two
    potentials are weighted separately, so no full-grid sum of them is formed."""
    kinetic = _kinetic_energy(values, k2, dvol)  # its FFT buffers never meet density
    density = np.abs(values) ** 2
    potential = float(np.sum(v_static * density)) + float(np.sum(v_t * density))
    interaction = 0.5 * g * float(np.sum(density**2))
    return kinetic + (potential + interaction) * dvol


def _strang_loop(psi0: Field, span: float, dt: float, k2: np.ndarray,
                 v_static, v_axial: Callable[[float], Any], g: float,
                 energy_stride: int, sample_stride: int = 0) -> Trajectory:
    """Strang steps over `span` under -Laplace + V_static + v(t) + g|psi|^2.

    dt is adjusted to divide span; both may be negative.

    Step i is the phase half-step with V_i = V_static + v(t_{i-1} + dt/2),
    the kinetic step exp(-i dt k2) by in-place FFTs, and a second phase
    half-step with V_i.  A phase factor keeps |psi|, so the closing
    half-step of step i and the opening half-step of step i+1 are applied
    as one factor exp(-i dt ((V_i + V_{i+1})/2 + g|psi|^2)).  The half-step
    is closed only where the field is read: every `energy_stride` steps, at
    each sample and at the last step.  Norms are recorded at every step,
    energies at `energy_times` only; a non-finite field raises
    ResolutionError at the step where it appears.
    """
    n_steps = max(1, round(span / dt))
    dt = span / n_steps
    grid = psi0.grid
    dvol = grid.dvol
    kin = np.exp(-1j * dt * k2)

    psi = np.array(psi0.values, dtype=complex, order="C")
    rho = psi.real**2 + psi.imag**2
    theta = np.empty_like(rho)
    factor = np.empty_like(psi)

    def apply_phase(h: float, vp) -> None:
        # psi *= exp(-i h (V_static + vp + g rho)); rho is |psi|^2 and stays valid
        np.multiply(rho, g, out=theta)
        np.add(theta, v_static, out=theta)
        np.add(theta, vp, out=theta)
        np.multiply(theta, -h, out=theta)
        np.cos(theta, out=factor.real)
        np.sin(theta, out=factor.imag)
        np.multiply(psi, factor, out=psi)

    def energy(t: float) -> float:
        return _energy(psi, k2, dvol, v_static, v_axial(t), g)

    t = psi0.time
    times = np.empty(n_steps + 1)
    norms = np.empty(n_steps + 1)
    times[0] = t
    norms[0] = math.sqrt(float(np.sum(rho)) * dvol)
    energies = [energy(t)]
    energy_times = [t]
    samples = [Field(grid, psi.copy(), t)] if sample_stride else []

    v_cur = v_axial(t + 0.5 * dt)
    h, v = 0.5 * dt, v_cur
    for i in range(1, n_steps + 1):
        apply_phase(h, v)
        np.fft.fftn(psi, out=psi)
        psi *= kin
        np.fft.ifftn(psi, out=psi)
        np.square(psi.real, out=rho)
        np.square(psi.imag, out=theta)
        rho += theta
        mass = float(np.sum(rho))
        t = psi0.time + i * dt
        if not math.isfinite(mass):
            raise ResolutionError(f"non-finite field at step {i} (t = {t:g})")
        times[i] = t
        norms[i] = math.sqrt(mass * dvol)
        last = i == n_steps
        sample = bool(sample_stride) and (i % sample_stride == 0 or last)
        v_next = None if last else v_axial(t + 0.5 * dt)
        if sample or last or i % energy_stride == 0:
            apply_phase(0.5 * dt, v_cur)
            energies.append(energy(t))
            energy_times.append(t)
            if sample:
                samples.append(Field(grid, psi.copy(), t))
            h, v = 0.5 * dt, v_next
        else:
            h, v = dt, 0.5 * (v_cur + v_next)
        v_cur = v_next
    return Trajectory(times, norms, np.array(energies), np.array(energy_times),
                      Field(grid, psi, t), samples)


def _line_potential(v_par: Potential1D, grid: Grid1D) -> Callable[[float], Any]:
    x = grid.x
    return lambda t: 0.0 if v_par is None else v_par(t, x)


def strang_step(phi: Field, dt: float, v_par: Potential1D = None,
                b: float = 0.0) -> Field:
    """One splitting step; returns a new field at phi.time + dt."""
    return _strang_loop(phi, dt, dt, phi.grid.k_squared(), 0.0,
                        _line_potential(v_par, phi.grid), b, 1).final


def energy_1d(phi: Field, v_par: Potential1D = None, b: float = 0.0) -> float:
    """<Phi, (-d^2/dx^2 + V + b/2 |Phi|^2) Phi>, manifestly real."""
    grid = phi.grid
    return _energy(phi.values, grid.k_squared(), grid.dvol, 0.0,
                   _line_potential(v_par, grid)(phi.time), b)


def evolve_1d(phi0: Field, t_final: float, dt: float, v_par: Potential1D = None,
              b: float = 0.0, sample_stride: int = 0) -> Trajectory:
    """Evolve to t_final (dt adjusted to divide it); norm and energy every step."""
    if t_final <= 0.0 or dt <= 0.0:
        raise DomainError("t_final and dt must be positive")
    return _strang_loop(phi0, t_final, dt, phi0.grid.k_squared(), 0.0,
                        _line_potential(v_par, phi0.grid), b, 1, sample_stride)


def ground_state_1d(grid: Grid1D, v_par: Potential1D = None, b: float = 0.0,
                    tol: float = 1e-13, dt: float = 0.01,
                    max_iters: int = 200000) -> Field:
    """Normalized imaginary-time splitting flow for the energy functional.

    The potential is frozen at t = 0; meant for autonomous V.
    """
    x = grid.x
    v = v_par(0.0, x) if v_par is not None else np.zeros_like(x)
    kin = np.exp(-dt * grid.k_squared())
    psi = np.exp(-(x / (0.25 * grid.length)) ** 2).astype(complex)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * grid.dx)
    energy = energy_1d(Field(grid, psi), v_par, b)
    for _ in range(max_iters):
        psi = psi * np.exp(-0.5 * dt * (v + b * np.abs(psi) ** 2))
        psi = np.fft.ifft(kin * np.fft.fft(psi))
        psi = psi * np.exp(-0.5 * dt * (v + b * np.abs(psi) ** 2))
        psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * grid.dx)
        new_energy = energy_1d(Field(grid, psi), v_par, b)
        if abs(new_energy - energy) < tol:
            out = Field(grid, psi.real.astype(complex), 0.0)
            return out.normalized()
        energy = new_energy
    raise ResolutionError(f"imaginary time did not converge to {tol} "
                          f"within {max_iters} steps")


def align_phase(phi: Field, reference: Field) -> Field:
    """Rotate phi by the global phase that best matches the reference."""
    overlap = complex(np.sum(np.conj(phi.values) * reference.values))
    if overlap == 0.0:
        return phi
    return Field(phi.grid, phi.values * (overlap / abs(overlap)), phi.time)


def phase_distance(phi: Field, reference: Field) -> float:
    """L2 distance after optimal global phase alignment.

    Formed from the aligned difference itself: the closed form
    sqrt(|phi|^2 + |ref|^2 - 2 |<phi, ref>|) cancels to nothing below
    distances of about 1e-8.
    """
    diff = align_phase(phi, reference).values - reference.values
    return math.sqrt(float(np.sum(np.abs(diff) ** 2)) * phi.grid.dx)
