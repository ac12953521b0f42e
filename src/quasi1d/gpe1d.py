"""Cubic 1d Schroedinger dynamics on a periodic grid.

    i dPhi/dt = (-d^2/dx^2 + V(t, x) + b |Phi|^2) Phi

integrated by Strang splitting: half a pointwise phase under V(t + dt/2) +
b |Phi|^2, a full spectral kinetic step, half a phase with the refreshed
density.  Every factor is unimodular, so the grid norm is conserved to
round-off; the scheme is second order and exactly time reversible.  The
loop and the energy work on any grid shape; confined3d runs on them too.
Ground states come from one routine on any grid, a LOBPCG iteration from
the caller's seed (Rayleigh-Ritz steps on the energy's own second-order
model, the previous search direction kept), which transverse runs for the
2d mode too; the line seeds it from the flat state.
On boxes of SLAB_MIN_POINTS or more the loop cuts each step into slabs, one
per CPU the process may use; there is no setting for it.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import DomainError, ResolutionError

__all__ = ["Grid1D", "ProductGrid", "Field", "Trajectory", "energy_1d",
           "evolve_1d", "ground_state_1d", "gaussian_packet", "plane_wave",
           "align_phase", "phase_distance"]

Potential1D = Callable[[float, np.ndarray], np.ndarray] | None

# Boxes with fewer points run the Strang step on the calling thread alone.
# Measured per step on a 2-vCPU Xeon VM (numpy 2.4), two slabs against one
# took 1.5x as long at 64x32x32, broke even at 128x32x32 and 64x48x48, and
# took 0.67-0.86x from 96x48x48 (221 k points) to 128x48x48.  On a 2-vCPU
# AMD EPYC (AVX-512), with the one-tangent phase and stage B on contiguous
# x lines, they took 0.53-0.83x from 64x32x32 to 128x48x48 (medians of two
# sets of 8 alternating 64-step runs a box; 0.65-0.82x with stage B in
# place), so there the bound errs towards one thread.
SLAB_MIN_POINTS = 200_000

# The loop evaluates its recorded energies in stacks of max(1, BATCH_POINTS //
# field size) fields: 32 on the 256-point line, 3 on the 48^2 plane, and on a
# 3d box one, the loop's own psi.  BATCH_POINTS is the 128 KiB (of complex)
# floor, also manybody._LEAST for its blocked passes; below it numpy's
# per-call cost outweighs the arithmetic (on the 256-point line an energy
# took 25-30 us alone and 5.4 us per field in a stack of 32, 2-vCPU Xeon,
# numpy 2.4).
BATCH_POINTS = 8192

# _ground_state's step cap and the eigenresidual that ends it.  The most
# steps any ground state of the tests or the shipped configs takes is 215
# (the 128^2 trap plane under well:1260,2, just below the load bound); the
# line's reach about 270 at 0.999 of the load bound.  A stalled 128^2
# solve reaches the cap in about 1.5 s (2-vCPU Xeon, numpy 2.4).
MAX_ITERS = 1_000
POLISH_TOL = 1e-10


@dataclass(frozen=True)
class Grid1D:
    """Periodic axis of n points over `length`, centred on 0: the rule for
    every axis a run builds.  n is even and at least 4, n and the length
    positive and within float range, and the largest k^2, (pi n / L)^2,
    finite, or the run's spectral steps and ground state overflow.  Two
    axes are equal when their length and n are."""

    length: float
    n: int

    def __post_init__(self) -> None:
        if not 4 <= self.n <= sys.float_info.max or self.n % 2:
            raise DomainError("grid needs an even n >= 4 within float range")
        if not 0.0 < self.length <= sys.float_info.max:
            raise DomainError(f"grid length must be finite and positive: {self.length}")
        k_max = math.pi * self.n / self.length
        if not math.isfinite(k_max * k_max):
            raise DomainError(f"an axis of {self.n} points over {self.length:g} "
                              f"has an infinite largest k^2 = (pi n / L)^2")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def dvol(self) -> float:
        return self.dx

    @property
    def axes(self) -> tuple["Grid1D"]:
        """(self,), as a ProductGrid holds its axes."""
        return (self,)

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dx

    @property
    def k(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n, self.dx)

    def k_squared(self) -> np.ndarray:
        return self.k**2

    def mesh(self, sparse: bool = False) -> list[np.ndarray]:
        """[x], as ProductGrid.mesh gives one array per axis."""
        return [self.x]


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
    """Values on a grid with `axes`, `dvol`, `k_squared()` and `mesh()`: a
    Grid1D or a ProductGrid."""

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


def _axis_k2(grid) -> list[np.ndarray]:
    """The grid's k^2 of each axis, in axis order: _energy's kinetic weights."""
    return [axis.k_squared() for axis in grid.axes]


def _energy(values: np.ndarray, k2s: list[np.ndarray], dvol: float, v_static,
            v_t, g: float, spectrum: np.ndarray | None = None,
            real: np.ndarray | None = None) -> np.ndarray:
    """<psi, (-Laplace + V_static + v(t) + (g/2)|psi|^2) psi> of each field
    psi = values[j] of a stack, one energy per field.  k2s holds the k^2 of
    each field axis (_axis_k2).  v_t broadcasts against the stack, so each
    field may have its own v(t).  The kinetic part is sum k^2 |fftn psi|^2
    dV / size (Parseval), taken axis by axis: sum_a sum k_a^2 times
    |psi_hat|^2 summed over the other axes, so no k^2 of the box is formed;
    on one axis it is the product and sum themselves.  The two potentials
    are weighted separately, so no full-grid sum of them is formed.
    Transforms and sums run over the trailing (field) axes; they give the
    bits of the same calls on one field alone.

    Runs in two scratch arrays of the stack's shape, allocated if not given:
    `spectrum` (complex) holds the transform, then the density in the first
    half of its float64 view; `real` holds |psi_hat|^2, then each potential
    and interaction integrand.  Only the per-axis sums of |psi_hat|^2 are
    allocated.
    """
    if spectrum is None:
        spectrum = np.empty(values.shape, dtype=complex)
        real = np.empty(values.shape)
    axes = tuple(range(1, values.ndim))
    np.fft.fftn(values, axes=axes, out=spectrum)
    np.abs(spectrum, out=real)
    np.square(real, out=real)
    kinetic = 0.0
    for axis, k2 in zip(axes, k2s):
        others = tuple(other for other in axes if other != axis)
        power = np.add.reduce(real, axis=others) if others else real
        kinetic = kinetic + np.add.reduce(np.multiply(k2, power, out=power), axis=-1)
    kinetic = kinetic * dvol / values[0].size
    density = spectrum.reshape(-1).view(np.float64)[:values.size].reshape(values.shape)
    np.abs(values, out=density)
    np.square(density, out=density)
    potential = (np.add.reduce(np.multiply(v_static, density, out=real), axis=axes)
                 + np.add.reduce(np.multiply(v_t, density, out=real), axis=axes))
    interaction = 0.5 * g * np.add.reduce(np.square(density, out=real), axis=axes)
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


def _phase_factor(alpha: np.ndarray, fac: np.ndarray) -> None:
    """fac = exp(2i alpha) from one tangent a point, overwriting alpha: with
    t = tan alpha and w = 2/(1 + t^2), cos 2 alpha = w - 1 and sin 2 alpha =
    t w.  numpy vectorises float64 tan on AVX-512 hosts, but not cos or sin."""
    np.tan(alpha, out=alpha)
    np.multiply(alpha, alpha, out=fac.real)
    np.add(fac.real, 1.0, out=fac.real)
    np.divide(2.0, fac.real, out=fac.real)
    np.multiply(alpha, fac.real, out=fac.imag)
    np.subtract(fac.real, 1.0, out=fac.real)


def _potential(v_par, grid) -> Callable[[float], Any]:
    """t -> v_par(t, *grid.mesh(sparse=True)), or 0 for v_par None."""
    if v_par is None:
        return lambda t: 0.0
    mesh = grid.mesh(sparse=True)
    return lambda t: v_par(t, *mesh)


def _strang_loop(psi0: Field, span: float, dt: float, v_static, v_par,
                 g: float, energy_stride: int, sample_stride: int = 0) -> Trajectory:
    """Strang steps over `span` under -Laplace + V_static + v(t) + g|psi|^2.

    k^2 is psi0.grid's, and v(t) = v_par(t, *psi0.grid.mesh(sparse=True)),
    0 for v_par None.  dt is adjusted to divide span; both may be negative.

    Step i is the phase half-step with V_i = V_static + v(t_{i-1} + dt/2),
    the kinetic step exp(-i dt k^2) by FFTs, and a second phase half-step
    with V_i.  A phase factor keeps |psi|, so the closing half-step of step
    i and the opening half-step of step i+1 are applied as one factor
    exp(-i dt ((V_i + V_{i+1})/2 + g|psi|^2)).  Each factor exp(-i h Theta)
    comes from tan(-h Theta/2) alone (_phase_factor), so a non-finite angle
    still gives a non-finite factor.  The half-step is closed in place only
    at each sample and at the last step, and on a 3d box also every
    `energy_stride` steps.  Norms are recorded at every step, energies at
    `energy_times` only; a non-finite field raises ResolutionError at the
    step where it appears.

    An energy is not evaluated at its step.  The field, v(t) and the
    step's closing potential V_i are copied into the next row of a stack of
    B = max(1, BATCH_POINTS // size) fields, open by half a step unless
    they were closed in place, and psi stays fused.  One pass over a full
    stack, or over the rows filled at the last step, closes each open row
    by exp(-i dt/2 (V_i + g|row|^2)) (|row|^2 is the open field's density,
    which the phase keeps) and then gives B energies with one _energy call.
    For B = 1 (3d boxes) the stack is psi itself, closed and evaluated at
    once.

    A step runs in three stages, each on independent slabs of the box:
    (A) on slabs along axis 0, the phase and the forward FFT over the other
    axes; (B) on slabs along axis 1, the FFT along axis 0 from psi into
    the slab's own consecutive chunk of factor, so each line's spectrum is
    contiguous, the kinetic factor there and the inverse FFT back into
    psi; (C) on slabs along axis 0 again, the inverse FFT over the other
    axes, |psi|^2 and its sum over each axis-0 row.  The line, with no
    other axes, runs (B) in place on psi.  The step mass is the sum of
    those row sums, and every row lies in one slab, so results do not
    depend on the number of slabs.  Slab 0 runs on the calling thread, the
    others on helper threads (_slab_workers).

    exp(-i dt k^2) factors exactly per axis, so stage B multiplies each
    line's spectrum by exp(-i dt k_0^2) along the line, then by the line's
    value of exp(-i dt sum_{a>=1} k_a^2), an array over the other axes cut
    with the slab; the energy takes k^2 per axis too (_energy).

    The loop holds four arrays of the box: psi and factor (complex) and rho
    and theta (real), plus the per-axis factors, a line and an array over
    the other axes.  factor holds the phase factor in stage A and at a
    closing half-step, and the spectrum in stage B.  For B = 1 the
    energy writes only into factor and theta, so recording it allocates
    nothing of the box's size; for B > 1 the stack, v(t), the closing
    potentials (then the closing phase, then _energy's real scratch) and
    _energy's complex scratch hold four arrays of at most BATCH_POINTS
    points (384 KiB), whatever the number of steps.
    """
    n_steps = max(1, round(span / dt))
    dt = span / n_steps
    grid = psi0.grid
    dvol = grid.dvol
    k2s = _axis_k2(grid)
    v_axial = _potential(v_par, grid)
    # exp(-i dt k^2) = exp(-i dt k_0^2) along each x line times, on more
    # axes, exp(-i dt sum_{a>=1} k_a^2) over the others, one value a line
    kin_x = np.exp(-1j * dt * k2s[0])

    psi = np.array(psi0.values, dtype=complex, order="C")
    rho = psi.real**2 + psi.imag**2
    theta = np.empty_like(rho)
    factor = np.empty_like(psi)
    rows = np.empty(psi.shape[0])
    ndim = psi.ndim
    trailing = tuple(range(1, ndim))
    workers = _slab_workers(psi.shape)
    # each slab's views, cut once: x slabs hold (index, psi, rho, theta,
    # factor, rows, V_static), y slabs (psi with axis 0 last, its spectrum
    # in the next chunk of factor, the kinetic factors)
    x_slabs = [(index, psi[index], rho[index], theta[index], factor[index],
                rows[index], _slab_of(v_static, index, ndim))
               for index in _slabs(psi.shape, 0, workers)]
    if ndim == 1:
        y_slabs = [(psi, psi, (kin_x,))]
    else:
        kin_t = np.exp(-1j * dt * ProductGrid(grid.axes[1:]).k_squared())[..., None]
        y_slabs, start = [], 0
        for index, kin_index in zip(_slabs(psi.shape, 1, workers),
                                    _slabs(kin_t.shape, 0, workers)):
            lines = np.moveaxis(psi[index], 0, -1)
            spectrum = factor.reshape(-1)[start:start + lines.size]
            y_slabs.append((lines, spectrum.reshape(lines.shape),
                            (kin_x, kin_t[kin_index])))
            start += lines.size

    def apply_phase(slab: tuple, h: float, vp) -> None:
        # psi *= exp(-i h (V_static + vp + g rho)); rho is |psi|^2 and stays valid
        index, p, r, th, fac, _, vs = slab
        np.multiply(r, g, out=th)
        np.add(th, vs, out=th)
        np.add(th, _slab_of(vp, index, ndim), out=th)
        np.multiply(th, -0.5 * h, out=th)
        _phase_factor(th, fac)
        np.multiply(p, fac, out=p)

    def phase_forward(slab: tuple, h: float, vp) -> None:           # stage A
        apply_phase(slab, h, vp)
        if trailing:
            np.fft.fftn(slab[1], axes=trailing, out=slab[1])

    def kinetic(slab: tuple) -> None:                               # stage B
        lines, spec, kins = slab
        np.fft.fft(lines, axis=-1, out=spec)
        for kin in kins:
            np.multiply(spec, kin, out=spec)
        np.fft.ifft(spec, axis=-1, out=lines)

    def inverse_density(slab: tuple) -> None:                       # stage C
        _, p, r, th, _, rw, _ = slab
        if trailing:
            np.fft.ifftn(p, axes=trailing, out=p)
        np.square(p.real, out=r)
        np.square(p.imag, out=th)
        np.add(r, th, out=r)
        np.add.reduce(r, axis=trailing, out=rw)

    t = psi0.time
    times = np.empty(n_steps + 1)
    norms = np.empty(n_steps + 1)
    energies = np.empty(n_steps + 1)
    energy_times = np.empty(n_steps + 1)
    recorded = evaluated = 0        # energy times taken, energies evaluated
    batch = max(1, BATCH_POINTS // psi.size)
    if batch > 1:
        stack = np.empty((batch, *psi.shape), dtype=complex)
        stack_v = np.empty((batch, *psi.shape))
        stack_phase = np.empty((batch, *psi.shape))
        stack_h = np.empty((batch,) + (1,) * ndim)
        spectrum = np.empty_like(stack)

    def evaluate() -> None:
        # close every row, fields *= exp(-i h (V_static + v_close + g|field|^2))
        # with the row's own h (0 for a row recorded closed); the phase is
        # formed in place of v_close, and the density and factor in spectrum,
        # which with stack_phase is then _energy's scratch
        nonlocal evaluated
        rows = recorded - evaluated
        fields, phase, fac = stack[:rows], stack_phase[:rows], spectrum[:rows]
        np.square(fields.real, out=fac.real)
        np.square(fields.imag, out=fac.imag)
        np.add(fac.real, fac.imag, out=fac.real)
        np.multiply(fac.real, g, out=fac.real)
        np.add(fac.real, v_static, out=fac.real)
        np.add(fac.real, phase, out=phase)
        np.multiply(phase, -0.5 * stack_h[:rows], out=phase)
        _phase_factor(phase, fac)
        np.multiply(fields, fac, out=fields)
        energies[evaluated:recorded] = _energy(
            fields, k2s, dvol, v_static, stack_v[:rows], g, fac, phase)
        evaluated = recorded

    def record_energy(t: float, h_close: float, v_close) -> None:
        # psi is closed, or open by the half step h_close under v_close
        nonlocal recorded, evaluated
        energy_times[recorded] = t
        if batch == 1:
            energies[recorded] = _energy(psi[None], k2s, dvol, v_static,
                                         v_axial(t), g, factor[None], theta[None])[0]
            recorded = evaluated = recorded + 1
            return
        row = recorded - evaluated
        stack[row] = psi
        stack_v[row] = v_axial(t)
        stack_phase[row] = v_close
        stack_h[row] = h_close
        recorded += 1
        if row + 1 == batch:
            evaluate()

    times[0] = t
    norms[0] = math.sqrt(float(np.sum(rho)) * dvol)
    record_energy(t, 0.0, 0.0)
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
            due = sample or last or i % energy_stride == 0
            closed = sample or last or (due and batch == 1)
            if closed:
                run(apply_phase, x_slabs, 0.5 * dt, v_cur)
            if due:
                record_energy(t, 0.0 if closed else 0.5 * dt, v_cur)
            if sample:
                samples.append(Field(grid, psi.copy(), t))
            h, v = (0.5 * dt, v_next) if closed else (dt, 0.5 * (v_cur + v_next))
            v_cur = v_next
    if evaluated < recorded:
        evaluate()
    return Trajectory(times, norms, energies[:recorded], energy_times[:recorded],
                      Field(grid, psi, t), samples)


def energy_1d(phi: Field, v_par: Potential1D = None, b: float = 0.0) -> float:
    """<Phi, (-d^2/dx^2 + V + b/2 |Phi|^2) Phi>, manifestly real."""
    grid = phi.grid
    return float(_energy(phi.values[None], _axis_k2(grid), grid.dvol, 0.0,
                         _potential(v_par, grid)(phi.time), b)[0])


def evolve_1d(phi0: Field, t_final: float, dt: float, v_par: Potential1D = None,
              b: float = 0.0, sample_stride: int = 0) -> Trajectory:
    """Evolve to t_final (dt adjusted to divide it); norm and energy every step."""
    if t_final <= 0.0 or dt <= 0.0:
        raise DomainError("t_final and dt must be positive")
    return _strang_loop(phi0, t_final, dt, 0.0, v_par, b, 1, sample_stride)


def _ground_state(psi: np.ndarray, k2: np.ndarray, dvol: float, v: np.ndarray,
                  b: float) -> tuple[np.ndarray, list[float]]:
    """Ground state of <psi, (-Laplace + V + (b/2) psi^2) psi> on the unit
    sphere, on any grid shape and for any b >= 0; psi, V and the result are
    real.

    LOBPCG (Knyazev, SIAM J. Sci. Comput. 23 (2001) 517) from the given
    seed: Rayleigh-Ritz steps in span{psi, preconditioned residual, previous
    direction} under H = -Laplace + V + b psi^2 frozen at psi, until
    |H psi - mu psi| < POLISH_TOL with mu = <psi, H psi>.  Along the sphere
    the quartic term curves the energy by 3 b psi^2, where the frozen H
    holds b psi^2, so the Ritz matrix gains 2 b <u_i, psi^2 u_j> on the
    search vectors (exactly 0 at b = 0): each step minimizes the energy's
    own second-order model.  A search vector that orthogonalization leaves
    below 1e-8 of its length lies in the span of the others and is dropped.
    Its transforms are rfftn/irfftn, since every vector is real.  Raises
    ResolutionError after MAX_ITERS steps or at a step with no direction.

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
        v_frozen = v + b * psi**2

        def apply_h(state: np.ndarray) -> np.ndarray:
            return spectral(state, k2_half) + v_frozen * state

        h_psi = apply_h(psi)
        mu = dot(psi, h_psi)
        energies.append(mu - 0.5 * b * float(np.sum(psi**4)) * dvol)
        resid = h_psi - mu * psi
        resid_norm = math.sqrt(dot(resid, resid))
        if resid_norm < POLISH_TOL:
            return psi, energies
        # the search space beyond psi: the residual under the spectral
        # preconditioner (kinetic shifted to stay positive definite) and the
        # previous direction, orthonormalized against psi and each other
        basis = []
        for u in (spectral(resid, 1.0 / (k2_half + 1.0 + abs(mu))), direction):
            if u is None:
                continue
            length = math.sqrt(dot(u, u))
            for prev in (psi, *basis):
                u -= dot(prev, u) * prev
            left = math.sqrt(dot(u, u))
            if left > 1e-8 * length:
                basis.append(u / left)
        h_basis = [apply_h(u) for u in basis]
        # the energy's second-order model on span{psi, basis}, less mu; its
        # lowest Ritz vector (c0, c) rotates psi by the angle atan2(|d|, c0)
        # toward d = sum c_i u_i
        h_shift = np.array([[dot(f, h_g) for h_g in (h_psi, *h_basis)]
                            for f in (psi, *basis)])
        h_shift = 0.5 * (h_shift + h_shift.T) - mu * np.eye(len(basis) + 1)
        curve = 2.0 * b * psi**2    # the rest of the quartic term's curvature
        h_shift[1:, 1:] += [[dot(curve * f, g) for g in basis] for f in basis]
        ritz = np.linalg.eigh(h_shift)[1][:, 0]
        if ritz[0] < 0.0:
            ritz = -ritz
        d = sum(c * u for c, u in zip(ritz[1:], basis))
        d_norm = math.sqrt(dot(d, d))
        if d_norm == 0.0:   # orthogonalization dropped every search vector
            raise ResolutionError(f"ground-state step has no direction with the "
                                  f"eigenresidual {resid_norm:g} > {POLISH_TOL:g}")
        direction = q = d / d_norm
        angle = math.atan2(d_norm, ritz[0])
        cand = math.cos(angle) * psi + math.sin(angle) * q
        psi = cand / math.sqrt(dot(cand, cand))
    raise ResolutionError(f"ground-state eigenresidual stalled above "
                          f"{POLISH_TOL:g} after {MAX_ITERS} steps")


def ground_state_1d(grid: Grid1D, v_par: Potential1D = None, b: float = 0.0) -> Field:
    """Ground state of the line's energy functional by _ground_state, from
    the flat state, for b >= 0.

    The flat state is positive and shares every symmetry of H, so it
    overlaps the positive ground state whatever V is.  The potential is
    frozen at t = 0; meant for autonomous V.
    """
    if b < 0.0:
        raise DomainError("the line's ground state needs b >= 0")
    v = v_par(0.0, grid.x) if v_par is not None else np.zeros(grid.n)
    psi, _ = _ground_state(np.ones(grid.n), grid.k_squared(), grid.dx, v, b)
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
