"""Cubic 1d Schroedinger dynamics on a periodic grid.

    i dPhi/dt = (-d^2/dx^2 + V(t, x) + b |Phi|^2) Phi

integrated by Strang splitting: half a pointwise phase under V(t + dt/2) +
b |Phi|^2, a full spectral kinetic step, half a phase with the refreshed
density.  Every factor is unimodular, so the grid norm is conserved to
round-off; the scheme is second order and exactly time reversible.  The
loop and the energy work on any grid shape; confined3d runs on them too.
Ground states come from one routine on any grid, a LOBPCG iteration from
the caller's seed (Rayleigh-Ritz with the previous search direction kept,
dropped after a step shortened at b > 0), which transverse runs for the 2d
mode too.
On boxes of SLAB_MIN_POINTS or more the loop cuts each step into slabs, one
per CPU the process may use; there is no setting for it.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import DomainError, ResolutionError

__all__ = ["Grid1D", "ProductGrid", "Field", "Trajectory", "strang_step",
           "energy_1d", "evolve_1d", "ground_state_1d", "gaussian_packet",
           "plane_wave", "align_phase", "phase_distance"]

Potential1D = Callable[[float, np.ndarray], np.ndarray] | None

# Boxes with fewer points run the Strang step on the calling thread alone.
# Measured per step on a 2-vCPU VM (numpy 2.4), two slabs against one took
# 1.5x as long at 64x32x32, broke even at 128x32x32 and 64x48x48, and took
# 0.67-0.86x from 96x48x48 (221 k points) to 128x48x48.
SLAB_MIN_POINTS = 200_000

# _ground_state's step cap and the eigenresidual that ends it.  The most
# steps any ground state of the tests or the shipped configs takes is 112
# (the 256-point harmonic line at b = 46); a stalled 128^2 solve reaches
# the cap in about 1.5 s (2-vCPU Xeon, numpy 2.4).
MAX_ITERS = 1_000
POLISH_TOL = 1e-10


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
    """Values on a grid with `dvol` and `k_squared()`: a Grid1D or a ProductGrid."""

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


def _energy(values: np.ndarray, k2: np.ndarray, dvol: float, v_static,
            v_t, g: float, spectrum: np.ndarray | None = None,
            real: np.ndarray | None = None) -> float:
    """<psi, (-Laplace + V_static + v(t) + (g/2)|psi|^2) psi>; the kinetic
    part is sum k^2 |fftn psi|^2 dV / size (Parseval), and the two potentials
    are weighted separately, so no full-grid sum of them is formed.

    Runs in two scratch arrays of the field's shape, allocated if not given:
    `spectrum` (complex) holds the transform, then the density in the first
    half of its float64 view; `real` holds k^2 |psi_hat|^2, then each
    potential and interaction integrand.
    """
    if spectrum is None:
        spectrum = np.empty(values.shape, dtype=complex)
        real = np.empty(values.shape)
    np.fft.fftn(values, out=spectrum)
    np.abs(spectrum, out=real)
    np.square(real, out=real)
    np.multiply(k2, real, out=real)
    kinetic = float(np.sum(real)) * dvol / values.size
    density = spectrum.reshape(-1).view(np.float64)[:values.size].reshape(values.shape)
    np.abs(values, out=density)
    np.square(density, out=density)
    potential = (float(np.sum(np.multiply(v_static, density, out=real)))
                 + float(np.sum(np.multiply(v_t, density, out=real))))
    interaction = 0.5 * g * float(np.sum(np.square(density, out=real)))
    return kinetic + (potential + interaction) * dvol


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _slab_workers(shape: tuple[int, ...]) -> int:
    """Slabs per stage of the Strang step: one per usable CPU on boxes of at
    least SLAB_MIN_POINTS, one (the calling thread) below that."""
    if len(shape) < 2 or math.prod(shape) < SLAB_MIN_POINTS:
        return 1
    return min(_usable_cpus(), shape[0], shape[1])


def _slab_pool(workers: int):
    """Helper threads for slabs 1 .. workers - 1, or a null context for one
    slab.  concurrent.futures is imported here, not with the module: it
    pulls in logging, a cost to every process that never runs a 3d step."""
    if workers == 1:
        return nullcontext()
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(workers - 1, "quasi1d-slab")


def _slabs(shape: tuple[int, ...], axis: int, workers: int) -> list:
    """Indices cutting the box into `workers` slabs along `axis` (0 or 1);
    one slab is the whole box."""
    if workers == 1:
        return [Ellipsis]
    n = shape[axis]
    cuts = [slice(n * i // workers, n * (i + 1) // workers) for i in range(workers)]
    return cuts if axis == 0 else [(slice(None), cut) for cut in cuts]


def _slab_of(values, index, ndim: int):
    """The part of a potential over x slab `index`: an array that varies
    along axis 0 is cut with the slab, anything else is shared."""
    if index is Ellipsis or getattr(values, "ndim", 0) != ndim or values.shape[0] == 1:
        return values
    return values[index]


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

    A step runs in three stages, each on independent slabs of the box:
    (A) on slabs along axis 0, the phase and the forward FFT over the other
    axes; (B) on slabs along axis 1, the FFT along axis 0, the factor
    exp(-i dt k2) and its inverse; (C) on slabs along axis 0 again, the
    inverse FFT over the other axes, |psi|^2 and its sum over each axis-0
    row.  The step mass is the sum of those row sums, and every row lies in
    one slab, so results do not depend on the number of slabs.  Slab 0 runs
    on the calling thread, the others on helper threads (_slab_workers).

    The loop holds six arrays of the box: psi, kin and factor (complex) and
    k2, rho and theta (real).  The energy writes only into factor and theta,
    so recording it allocates nothing of the box's size.
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
    rows = np.empty(psi.shape[0])
    ndim = psi.ndim
    trailing = tuple(range(1, ndim))
    workers = _slab_workers(psi.shape)
    # each slab's views, cut once: x slabs hold (index, psi, rho, theta,
    # factor, rows, V_static), y slabs (psi, kin)
    x_slabs = [(index, psi[index], rho[index], theta[index], factor[index],
                rows[index], _slab_of(v_static, index, ndim))
               for index in _slabs(psi.shape, 0, workers)]
    y_slabs = [(psi[index], kin[index]) for index in _slabs(psi.shape, 1, workers)]

    def apply_phase(slab: tuple, h: float, vp) -> None:
        # psi *= exp(-i h (V_static + vp + g rho)); rho is |psi|^2 and stays valid
        index, p, r, th, fac, _, vs = slab
        np.multiply(r, g, out=th)
        np.add(th, vs, out=th)
        np.add(th, _slab_of(vp, index, ndim), out=th)
        np.multiply(th, -h, out=th)
        np.cos(th, out=fac.real)
        np.sin(th, out=fac.imag)
        np.multiply(p, fac, out=p)

    def phase_forward(slab: tuple, h: float, vp) -> None:           # stage A
        apply_phase(slab, h, vp)
        if trailing:
            np.fft.fftn(slab[1], axes=trailing, out=slab[1])

    def kinetic(slab: tuple) -> None:                               # stage B
        p, kin_slab = slab
        np.fft.fft(p, axis=0, out=p)
        np.multiply(p, kin_slab, out=p)
        np.fft.ifft(p, axis=0, out=p)

    def inverse_density(slab: tuple) -> None:                       # stage C
        _, p, r, th, _, rw, _ = slab
        if trailing:
            np.fft.ifftn(p, axes=trailing, out=p)
        np.square(p.real, out=r)
        np.square(p.imag, out=th)
        np.add(r, th, out=r)
        np.add.reduce(r, axis=trailing, out=rw)

    def energy(t: float) -> float:
        return _energy(psi, k2, dvol, v_static, v_axial(t), g, factor, theta)

    t = psi0.time
    times = np.empty(n_steps + 1)
    norms = np.empty(n_steps + 1)
    times[0] = t
    norms[0] = math.sqrt(float(np.sum(rho)) * dvol)
    energies = [energy(t)]
    energy_times = [t]
    samples = [Field(grid, psi.copy(), t)] if sample_stride else []

    with _slab_pool(workers) as pool:

        def run(stage, slabs: list[tuple], *args) -> None:
            if pool is None:
                return stage(slabs[0], *args)
            futures = [pool.submit(stage, slab, *args) for slab in slabs[1:]]
            try:
                stage(slabs[0], *args)
            finally:
                for future in futures:
                    future.exception()      # waits until the slab is done
            for future in futures:
                future.result()

        v_cur = v_axial(t + 0.5 * dt)
        h, v = 0.5 * dt, v_cur
        for i in range(1, n_steps + 1):
            run(phase_forward, x_slabs, h, v)
            run(kinetic, y_slabs)
            run(inverse_density, x_slabs)
            mass = float(rows.sum())
            t = psi0.time + i * dt
            if not math.isfinite(mass):
                raise ResolutionError(f"non-finite field at step {i} (t = {t:g})")
            times[i] = t
            norms[i] = math.sqrt(mass * dvol)
            last = i == n_steps
            sample = bool(sample_stride) and (i % sample_stride == 0 or last)
            v_next = None if last else v_axial(t + 0.5 * dt)
            if sample or last or i % energy_stride == 0:
                run(apply_phase, x_slabs, 0.5 * dt, v_cur)
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


def _ground_state(psi: np.ndarray, k2: np.ndarray, dvol: float, v: np.ndarray,
                  b: float) -> tuple[np.ndarray, list[float]]:
    """Ground state of <psi, (-Laplace + V + (b/2) psi^2) psi> on the unit
    sphere, on any grid shape and for any b >= 0; psi, V and the result are
    real.

    LOBPCG (Knyazev, SIAM J. Sci. Comput. 23 (2001) 517) from the given
    seed: Rayleigh-Ritz steps in span{psi, preconditioned residual, previous
    direction} under H = -Laplace + V + b psi^2 frozen at psi, until
    |H psi - mu psi| < POLISH_TOL with mu = <psi, H psi>.  Its transforms
    are rfftn/irfftn, since every vector is real.  At b > 0 a step that
    would raise the energy has its rotation angle halved until it does not,
    and the next step then restarts without the previous direction.  Raises
    ResolutionError after MAX_ITERS steps.

    Returns the state and the energy of every iterate; the last is the
    state's own, at b = 0 its eigenvalue.
    """
    psi = psi / math.sqrt(float(np.sum(psi**2)) * dvol)
    # psi and every search vector are real: half-spectrum transforms over
    # all axes, k^2 cut to the rfftn frequencies of the last one
    axes = tuple(range(psi.ndim))
    k2_half = k2[..., :psi.shape[-1] // 2 + 1]

    def spectral(state: np.ndarray, factor: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(factor * np.fft.rfftn(state, axes=axes),
                             s=psi.shape, axes=axes)

    def dot(f: np.ndarray, g: np.ndarray) -> float:
        return float(np.sum(f * g)) * dvol

    energies = []
    direction = None
    for _ in range(MAX_ITERS):
        v_frozen = v + b * psi**2 if b else v

        def apply_h(state: np.ndarray) -> np.ndarray:
            return spectral(state, k2_half) + v_frozen * state

        h_psi = apply_h(psi)
        mu = dot(psi, h_psi)
        energies.append(mu - 0.5 * b * float(np.sum(psi**4)) * dvol if b else mu)
        resid = h_psi - mu * psi
        if math.sqrt(dot(resid, resid)) < POLISH_TOL:
            return psi, energies
        # the search space beyond psi: the residual under the spectral
        # preconditioner (kinetic shifted to stay positive definite) and the
        # previous direction, orthonormalized against psi and each other
        basis = [spectral(resid, 1.0 / (k2_half + 1.0 + abs(mu)))]
        if direction is not None:
            basis.append(direction)
        for i, u in enumerate(basis):
            for prev in (psi, *basis[:i]):
                u -= dot(prev, u) * prev
            u /= math.sqrt(dot(u, u))
        h_basis = [apply_h(u) for u in basis]
        # H - mu on span{psi, basis}; its lowest Ritz vector (c0, c)
        # rotates psi by the angle atan2(|d|, c0) toward d = sum c_i u_i
        h_shift = np.array([[dot(f, h_g) for h_g in (h_psi, *h_basis)]
                            for f in (psi, *basis)])
        h_shift = 0.5 * (h_shift + h_shift.T) - mu * np.eye(len(basis) + 1)
        ritz = np.linalg.eigh(h_shift)[1][:, 0]
        if ritz[0] < 0.0:
            ritz = -ritz
        d = sum(c * u for c, u in zip(ritz[1:], basis))
        d_norm = math.sqrt(dot(d, d))
        direction = q = d / d_norm
        angle = math.atan2(d_norm, ritz[0])
        if b:
            # E(cos(a) psi + sin(a) q) - E(psi) is the frozen H's Ritz
            # decrement plus (b/2) int (psi_a^2 - psi^2)^2, here formed
            # cancellation-free so that its sign holds for tiny steps;
            # <q, (H - mu) q> and <psi, H q> for q = d / |d| come from h_shift
            h22 = float(ritz[1:] @ h_shift[1:, 1:] @ ritz[1:]) / d_norm**2
            h12 = float(h_shift[0, 1:] @ ritz[1:]) / d_norm

            def rise(a: float) -> float:
                step = math.sin(a) * q - 2.0 * math.sin(0.5 * a) ** 2 * psi
                return (math.sin(a) ** 2 * h22 + math.sin(2.0 * a) * h12
                        + 0.5 * b * float(np.sum((step * (2.0 * psi + step)) ** 2))
                        * dvol)

            if rise(angle) > 0.0:
                while rise(angle) > 0.0:
                    angle *= 0.5
                # a shortened step is no Ritz step: the next one restarts
                # from the residual alone
                direction = None
        cand = math.cos(angle) * psi + math.sin(angle) * q
        psi = cand / math.sqrt(dot(cand, cand))
    raise ResolutionError(f"ground-state eigenresidual stalled above "
                          f"{POLISH_TOL:g} after {MAX_ITERS} steps")


def ground_state_1d(grid: Grid1D, v_par: Potential1D = None, b: float = 0.0) -> Field:
    """Ground state of the line's energy functional by _ground_state, from
    exp(-(4x/L)^2).

    The potential is frozen at t = 0; meant for autonomous V.
    """
    x = grid.x
    v = v_par(0.0, x) if v_par is not None else np.zeros_like(x)
    psi, _ = _ground_state(np.exp(-(x / (0.25 * grid.length)) ** 2),
                           grid.k_squared(), grid.dx, v, b)
    return Field(grid, psi.astype(complex))


def align_phase(phi: Field, reference: Field) -> Field:
    """Rotate phi by the global phase that best matches the reference."""
    overlap = complex(np.sum(np.conj(phi.values) * reference.values))
    if overlap == 0.0:
        return phi
    return Field(phi.grid, phi.values * (overlap / abs(overlap)), phi.time)


def phase_distance(phi: Field, reference: Field) -> float:
    """L2 distance after optimal global phase alignment, on any grid.

    Formed from the aligned difference itself and measured by
    ``Field.norm``: the closed form sqrt(|phi|^2 + |ref|^2 - 2 |<phi, ref>|)
    cancels to nothing below distances of about 1e-8.
    """
    diff = align_phase(phi, reference).values - reference.values
    return Field(phi.grid, diff).norm()
