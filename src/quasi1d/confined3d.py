"""Confined 3d dynamics and its reduction to the 1d line.

The mean-field dynamics of N bosons squeezed into an eps-thin tube reads

    i dpsi/dt = (-Laplace + V_perp(y/eps)/eps^2 + V_par(t, z)
                 + 8 pi a eps^2 |psi|^2) psi,

with z = (x, y).  The transverse box is scaled with eps (fixed number of
points across the mode), so the confinement is equally resolved at every
eps.  The longitudinal profile is extracted by projecting on the rescaled
transverse mode and removing the confinement phase exp(-i E0 t / eps^2);
for shrinking eps it converges to the cubic 1d dynamics with coupling
b = 8 pi a int |chi|^4.

The 3d dynamics uses the time-splitting spectral scheme of Bao, Jaksch &
Markowich (J. Comput. Phys. 187, 2003), on the fused Strang loop of gpe1d:
one phase and a forward and an inverse 3d FFT per step, the transverse axes
transformed in place and the x lines gathered into a spare buffer of the
box's size, and the energy every ENERGY_STRIDE steps.  Every operation of
the step is pointwise or a batch of 1d FFTs along one axis, so the loop runs
it on slabs of the box, one per usable CPU.

Without interaction (a = 0) every factor of that step acts on x alone
(V_par, k_x^2) or on y alone (V_perp / eps^2, k_y^2), so from a product
state the discrete 3d trajectory is exactly the line run times the run of
the transverse factor on the n_y x n_y plane.  The sweep's a = 0 control
is run that way, at the cost of a line and a plane instead of the full box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, GridTooSmallError, InterfaceError
from .gpe1d import (Field, Grid1D, ProductGrid, Trajectory, _axis_k2, _energy,
                    _potential, _strang_loop, evolve_1d, gaussian_packet,
                    phase_distance)
from .transverse import (TransverseMode, _confinement, coupling_b, ground_state_2d,
                         rescale_mode)

__all__ = ["ENERGY_STRIDE", "Grid3D", "make_grid",
           "product_state", "evolve_3d", "energy_3d", "extract_profile",
           "ReductionScenario", "ReductionProfile", "ReductionRow",
           "ReductionTable", "reduction_profiles", "compare_profiles",
           "reduction_sweep"]

# V_par(t, x, y1, y2) with broadcastable arrays; y-independent potentials may
# ignore the trailing arguments.
Potential3D = Callable[[float, np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None

# evolve_3d records energy_3d, which costs more than a two-slab step (4.9 ms
# against 3.3 ms on 128x48x48, medians of 8 runs on a 2-vCPU AMD EPYC, numpy
# 2.4), every this many steps, plus at the start, at every sample and at the
# last step.
ENERGY_STRIDE = 16


@dataclass(frozen=True, eq=False)
class Grid3D(ProductGrid):
    """The tube: axes (x, y, y), the two transverse ones already scaled by eps."""

    epsilon: float

    def __post_init__(self) -> None:
        dy = self.axes[1].dx
        points_across_mode = 4.0 * self.epsilon / dy
        if points_across_mode < 8.0:
            raise GridTooSmallError(
                f"transverse spacing {dy:g} resolves the eps-wide mode with "
                f"only {points_across_mode:.1f} points across; need at least 8")

    @property
    def n_x(self) -> int:
        return self.axes[0].n

    @property
    def n_y(self) -> int:
        return self.axes[1].n

    @property
    def plane(self) -> ProductGrid:
        """The n_y x n_y transverse plane."""
        return ProductGrid(self.axes[1:])


def make_grid(length_x: float, n_x: int, base_extent_y: float, n_y: int,
              epsilon: float) -> Grid3D:
    """The tube; Grid1D refuses the scaled axis unless epsilon is positive."""
    y = Grid1D(base_extent_y * epsilon, n_y)
    return Grid3D((Grid1D(length_x, n_x), y, y), epsilon)


def _check_mode_grid(mode: TransverseMode, grid: Grid3D) -> None:
    if mode.epsilon is None:
        raise InterfaceError("3d operations need a rescaled transverse mode")
    if not math.isclose(mode.epsilon, grid.epsilon, rel_tol=1e-12):
        raise InterfaceError(f"mode eps {mode.epsilon} does not match grid eps "
                             f"{grid.epsilon}")
    if mode.y != grid.axes[1]:
        raise InterfaceError("transverse mode grid does not match the 3d box")


def product_state(phi: Field, mode: TransverseMode, grid: Grid3D) -> Field:
    """psi(x, y) = Phi(x) chi_eps(y), normalized on the 3d grid."""
    _check_mode_grid(mode, grid)
    if phi.grid != grid.axes[0]:
        raise InterfaceError("longitudinal grid does not match the 3d box")
    line = np.asarray(phi.values, dtype=complex)
    psi = Field(grid, line[:, None, None] * mode.chi[None, :, :], phi.time)
    psi.values /= psi.norm()
    return psi


def energy_3d(psi: Field, a: float,
              v_perp: Callable[[np.ndarray, np.ndarray], np.ndarray],
              v_par: Potential3D = None) -> float:
    """<psi, (-Laplace + V_conf + V_par + (g/2)|psi|^2) psi>, g = 8 pi a eps^2."""
    grid = psi.grid
    return float(_energy(psi.values[None], _axis_k2(grid), grid.dvol,
                         _confinement(grid.axes[1], grid.epsilon, v_perp)[None, :, :],
                         _potential(v_par, grid)(psi.time),
                         8.0 * math.pi * a * grid.epsilon**2)[0])


def evolve_3d(psi0: Field, a: float,
              v_perp: Callable[[np.ndarray, np.ndarray], np.ndarray],
              v_par: Potential3D, t_final: float, dt: float,
              sample_stride: int = 0) -> Trajectory:
    """Strang splitting with the full 3d spectral kinetic step.

    Runs gpe1d's fused loop with V_static = V_conf and v(t) = V_par(t).
    Norms are recorded at every step; energies every ENERGY_STRIDE steps,
    at each sample and at the last step; a non-finite field raises
    ResolutionError at the step where it appears.
    """
    if t_final <= 0.0 or dt <= 0.0:
        raise DomainError("t_final and dt must be positive")
    if a < 0.0:
        raise DomainError("scattering length must be non-negative")
    grid = psi0.grid
    return _strang_loop(psi0, t_final, dt,
                        _confinement(grid.axes[1], grid.epsilon, v_perp)[None, :, :],
                        v_par, 8.0 * math.pi * a * grid.epsilon**2, ENERGY_STRIDE,
                        sample_stride)


def _evolve_plane(eta0: np.ndarray, grid: Grid3D,
                  v_perp: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  t_final: float, dt: float, sample_stride: int = 0) -> Trajectory:
    """The transverse factor of an a = 0 run on `grid`.

    Runs gpe1d's loop on the plane under -Laplace_y + V_perp(y/eps)/eps^2
    with the steps, energy times and samples evolve_3d would take; the 3d
    field at every recorded time is the line field times this one.
    """
    return _strang_loop(Field(grid.plane, np.asarray(eta0, dtype=complex)),
                        t_final, dt, _confinement(grid.axes[1], grid.epsilon, v_perp),
                        None, 0.0, ENERGY_STRIDE, sample_stride)


def extract_profile(psi: Field, mode: TransverseMode):
    """Project on the transverse mode and strip the confinement phase.

    Returns (Phi_eff, orthogonal_mass): Phi_eff(x) = exp(i E0 t) *
    <chi_eps, psi(x, .)>, and the mass of the transverse complement.
    """
    _check_mode_grid(mode, psi.grid)
    grid = psi.grid
    coeff = np.tensordot(psi.values, mode.chi, axes=([1, 2], [0, 1])) * grid.plane.dvol
    coeff = coeff * np.exp(1j * mode.E0 * psi.time)
    phi_eff = Field(grid.axes[0], coeff, psi.time)
    captured = float(np.sum(np.abs(coeff) ** 2)) * grid.axes[0].dx
    # discrete Cauchy-Schwarz keeps captured <= ||psi||^2; clamp round-off
    orthogonal_mass = max(0.0, float(psi.norm() ** 2) - captured)
    return phi_eff, orthogonal_mass


# ---------------------------------------------------------------------------
# reduction sweep


@dataclass(frozen=True, eq=False, kw_only=True)
class ReductionScenario:
    """Shared setup for a family of runs at the decreasing eps of eps_list.

    The trap's mode is solved once, on the n_y x n_y plane of base_extent_y
    that every run rescales.  The 1d reference uses the same longitudinal
    grid, the same time step and, in reduction_sweep, the coupling
    b = 8 pi a int |chi|^4 of that mode, so the measured gap is the genuine
    dimensional-reduction error, not a solver mismatch.  V_par must not
    depend on the transverse coordinates for the comparison to make sense.
    """

    a: float = 0.0
    v_perp: Callable[[np.ndarray, np.ndarray], np.ndarray]
    v_par: Callable[[float, np.ndarray], np.ndarray] | None
    eps_list: tuple[float, ...]
    t_final: float
    dt_ref: float           # step at eps_list[0], scaled with (eps/eps_list[0])^2
    length_x: float = 16.0
    n_x: int = 128
    base_extent_y: float = 13.0
    n_y: int = 48
    phi0_sigma: float = 1.0


@dataclass(frozen=True)
class ReductionRow:
    epsilon: float
    err_l2: float
    orthogonal_mass: float
    energy_drift: float
    steps: int


@dataclass(eq=False)
class ReductionTable:
    rows: list[ReductionRow]
    monotone_err: bool
    monotone_orth: bool

    def err_ratios(self) -> list[float]:
        errs = [row.err_l2 for row in self.rows]
        return [errs[i + 1] / errs[i] if errs[i] > 0.0 else math.inf
                for i in range(len(errs) - 1)]


@dataclass(frozen=True, eq=False)
class ReductionProfile:
    """What the 3d run at one eps leaves for the comparison: the extracted
    line profile, the transverse-complement mass, the energy drift and the
    step count."""

    epsilon: float
    phi_eff: Field
    orthogonal_mass: float
    energy_drift: float
    steps: int


def _initial_line(scenario: ReductionScenario) -> Field:
    return gaussian_packet(Grid1D(scenario.length_x, scenario.n_x),
                           sigma=scenario.phi0_sigma)


def _profile(scenario: ReductionScenario, phi0: Field, mode_grid: TransverseMode,
             eps: float) -> ReductionProfile:
    """One eps of the profile stage; its 3d fields die when it returns, so a
    sweep holds one eps's box at a time."""
    grid = make_grid(scenario.length_x, scenario.n_x, scenario.base_extent_y,
                     scenario.n_y, eps)
    mode = rescale_mode(mode_grid, eps)
    dt = scenario.dt_ref * (eps / scenario.eps_list[0]) ** 2
    v_par_1d = scenario.v_par
    if scenario.a == 0.0:
        traj = evolve_1d(phi0, scenario.t_final, dt, v_par_1d)
        plane = _evolve_plane(mode.chi, grid, scenario.v_perp, scenario.t_final, dt)
        final = Field(grid, traj.final.values[:, None, None]
                      * plane.final.values[None], traj.final.time)
        at = np.searchsorted(traj.times, plane.energy_times)
        energies = (traj.energies[at] * plane.norms[at] ** 2
                    + plane.energies * traj.norms[at] ** 2)
        drift = float(np.max(np.abs(energies - energies[0])))
    else:
        if v_par_1d is None:
            v_par_3d = None
        else:
            def v_par_3d(t, x, y1, y2):
                return v_par_1d(t, x)
        traj = evolve_3d(product_state(phi0, mode, grid), scenario.a,
                         scenario.v_perp, v_par_3d, scenario.t_final, dt)
        final, drift = traj.final, traj.max_energy_drift()
    phi_eff, orth = extract_profile(final, mode)
    return ReductionProfile(epsilon=eps, phi_eff=phi_eff, orthogonal_mass=orth,
                            energy_drift=drift, steps=traj.times.size - 1)


def reduction_profiles(
        scenario: ReductionScenario) -> tuple[TransverseMode, list[ReductionProfile]]:
    """Profile stage: the trap's mode on the n_y-point plane, and the 3d run
    and its extracted profile at each eps of the scenario's eps_list.

    At a = 0 the 3d run factorizes exactly: it is the line run (b = 0) times
    the _evolve_plane run, so the final field is their outer product and the
    energy E_x |eta|^2 + E_y |phi|^2 at the plane's energy times.  It goes
    through the same extraction as the full 3d run at a > 0.
    """
    eps_list = scenario.eps_list
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise DomainError("eps_list must be strictly decreasing")
    phi0 = _initial_line(scenario)
    mode_grid = ground_state_2d(scenario.v_perp, extent=scenario.base_extent_y,
                                n=scenario.n_y)
    return mode_grid, [_profile(scenario, phi0, mode_grid, eps)
                       for eps in eps_list]


def compare_profiles(scenario: ReductionScenario,
                     profiles: Sequence[ReductionProfile], b: float) -> ReductionTable:
    """Comparison stage: each profile against the 1d run at coupling b, on
    the same line grid with the same number of steps.  Only its final field
    is read, so the 1d run records an energy at its first and last step
    alone."""
    phi0 = _initial_line(scenario)
    rows = []
    for profile in profiles:
        reference = _strang_loop(phi0, scenario.t_final,
                                 scenario.t_final / profile.steps, 0.0,
                                 scenario.v_par, b, profile.steps + 1)
        rows.append(ReductionRow(
            epsilon=profile.epsilon,
            err_l2=phase_distance(profile.phi_eff, reference.final),
            orthogonal_mass=profile.orthogonal_mass,
            energy_drift=profile.energy_drift, steps=profile.steps))

    errs = [row.err_l2 for row in rows]
    orths = [row.orthogonal_mass for row in rows]
    monotone_err = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    monotone_orth = all(orths[i + 1] < orths[i] for i in range(len(orths) - 1))
    return ReductionTable(rows, monotone_err, monotone_orth)


def reduction_sweep(scenario: ReductionScenario) -> ReductionTable:
    """Run the 3d model against its 1d reduction for each eps of the
    scenario's eps_list: the profile stage, then the comparison at
    b = 8 pi a int |chi|^4 of the same n_y-point mode the 3d runs rescale
    (b = 0 at a = 0).  The mode is solved once per sweep."""
    mode_grid, profiles = reduction_profiles(scenario)
    return compare_profiles(scenario, profiles, coupling_b(scenario.a, mode_grid))
