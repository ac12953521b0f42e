"""Confined 3d evolution against its 1d reduction on small grids."""

import math

import numpy as np
import pytest

from quasi1d import confined3d, gpe1d, transverse
from quasi1d.errors import (DomainError, GridTooSmallError, InterfaceError,
                            ResolutionError)


@pytest.fixture(scope="module")
def separable_setup():
    """Half-width tube with its rescaled mode and a moving packet."""
    grid = confined3d.make_grid(16.0, 64, 13.0, 48, 0.5)
    base = transverse.ground_state_2d(transverse.harmonic_profile,
                                      extent=13.0, n=48)
    mode = transverse.rescale_mode(base, 0.5)
    phi0 = gpe1d.gaussian_packet(grid.x_grid(), sigma=1.0, k0=1.0)
    return grid, mode, phi0


def test_grid_guards():
    with pytest.raises(DomainError):
        confined3d.make_grid(16.0, 64, 13.0, 48, 0.0)
    with pytest.raises(DomainError):
        confined3d.make_grid(16.0, 63, 13.0, 48, 0.5)
    with pytest.raises(DomainError):
        confined3d.make_grid(16.0, 64, 13.0, 2, 0.5)
    # spacing too coarse across the eps-wide mode
    with pytest.raises(GridTooSmallError):
        confined3d.make_grid(16.0, 64, 13.0, 8, 0.5)
    grid = confined3d.make_grid(16.0, 64, 13.0, 48, 0.5)
    assert grid.extent_y == pytest.approx(6.5)
    assert grid.dvol == pytest.approx(grid.dx * grid.dy**2)


def test_product_state_extraction(separable_setup):
    grid, mode, phi0 = separable_setup
    psi = confined3d.product_state(phi0, mode, grid)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    phi_eff, orth = confined3d.extract_profile(psi, mode)
    assert np.max(np.abs(phi_eff.values - phi0.values)) < 1e-12
    assert 0.0 <= orth < 1e-12


def test_orthogonal_admixture_is_counted(separable_setup):
    grid, mode, phi0 = separable_setup
    # odd transverse companion, exactly orthogonal to the even mode
    u = grid.y[:, None] * mode.chi
    u = u / math.sqrt(float(np.sum(u**2)) * grid.dy**2)
    phi1 = gpe1d.gaussian_packet(grid.x_grid(), sigma=2.0)
    c = 0.1
    vals = (phi0.values[:, None, None] * mode.chi
            + c * phi1.values[:, None, None] * u)
    psi = confined3d.Field3D(grid, vals.astype(complex))
    phi_eff, orth = confined3d.extract_profile(psi, mode)
    assert np.max(np.abs(phi_eff.values - phi0.values)) < 1e-12
    assert orth == pytest.approx(c**2, rel=1e-8)


def test_interface_guards(separable_setup):
    grid, mode, phi0 = separable_setup
    base = transverse.ground_state_2d(transverse.harmonic_profile,
                                      extent=13.0, n=48)
    with pytest.raises(InterfaceError):
        confined3d.product_state(phi0, base, grid)       # never rescaled
    other_eps = transverse.rescale_mode(base, 0.25)
    with pytest.raises(InterfaceError):
        confined3d.product_state(phi0, other_eps, grid)
    wrong_x = gpe1d.gaussian_packet(gpe1d.Grid1D(8.0, 64))
    with pytest.raises(InterfaceError):
        confined3d.product_state(wrong_x, mode, grid)
    coarse = transverse.rescale_mode(
        transverse.ground_state_2d(transverse.harmonic_profile,
                                   extent=13.0, n=64), 0.5)
    with pytest.raises(InterfaceError):
        confined3d.product_state(phi0, coarse, grid)


def test_energy_separates_for_product(separable_setup):
    grid, mode, phi0 = separable_setup
    psi = confined3d.product_state(phi0, mode, grid)
    e3 = confined3d.energy_3d(psi, 0.0, transverse.harmonic_profile)
    e1 = gpe1d.energy_1d(phi0)
    assert mode.E0 == pytest.approx(8.0, abs=1e-9)
    assert e3 == pytest.approx(e1 + mode.E0, abs=1e-10)


def test_free_tube_matches_1d_line(separable_setup):
    # a = 0 and no axial potential: the dynamics factorizes, so the
    # extracted profile must follow the free 1d evolution exactly up to
    # transverse splitting error
    grid, mode, phi0 = separable_setup
    psi0 = confined3d.product_state(phi0, mode, grid)
    traj3 = confined3d.evolve_3d(psi0, 0.0, transverse.harmonic_profile,
                                 None, 0.1, 1e-3)
    traj1 = gpe1d.evolve_1d(phi0, 0.1, 1e-3)
    phi_eff, orth = confined3d.extract_profile(traj3.final, mode)
    assert gpe1d.phase_distance(phi_eff, traj1.final) < 1e-6
    # raw comparison checks the confinement-phase stripping as well
    assert np.max(np.abs(phi_eff.values - traj1.final.values)) < 1e-4
    assert orth < 1e-9
    assert traj3.max_norm_drift() < 1e-12
    assert traj3.max_energy_drift() < 1e-8


def test_evolution_guards(separable_setup):
    grid, mode, phi0 = separable_setup
    psi0 = confined3d.product_state(phi0, mode, grid)
    with pytest.raises(DomainError):
        confined3d.evolve_3d(psi0, -0.1, transverse.harmonic_profile,
                             None, 0.1, 1e-3)
    with pytest.raises(DomainError):
        confined3d.evolve_3d(psi0, 0.5, transverse.harmonic_profile,
                             None, 0.0, 1e-3)
    with pytest.raises(DomainError):
        confined3d.evolve_3d(psi0, 0.5, transverse.harmonic_profile,
                             None, 0.1, -1e-3)


def _unfused_strang(psi0, a, v_perp, v_par, t_final, dt, sample_stride):
    """Reference: both phase half-steps of every step, allocating FFTs."""
    grid = psi0.grid
    n_steps = max(1, round(t_final / dt))
    dt = t_final / n_steps
    g = 8.0 * math.pi * a * grid.epsilon**2
    conf = confined3d._confinement(grid, v_perp)[None, :, :]
    kin = np.exp(-1j * dt * grid.k_squared())
    psi, t, samples = psi0.values.copy(), psi0.time, [psi0.values.copy()]
    for i in range(1, n_steps + 1):
        v = conf + np.asarray(confined3d._v_par_values(v_par, t + 0.5 * dt, grid))
        psi = psi * np.exp(-0.5j * dt * (v + g * np.abs(psi) ** 2))
        psi = np.fft.ifftn(kin * np.fft.fftn(psi))
        psi = psi * np.exp(-0.5j * dt * (v + g * np.abs(psi) ** 2))
        t = psi0.time + i * dt
        if i % sample_stride == 0 or i == n_steps:
            samples.append(psi.copy())
    return psi, samples


def _axial_static(t, x, y1, y2):
    return 0.5 * x**2


def _axial_shaking(t, x, y1, y2):
    return (0.5 + np.sin(40.0 * t)) * x**2 + 0.3 * y1 * x


@pytest.mark.parametrize("a, v_par", [(0.5, _axial_static), (0.0, _axial_static),
                                      (0.5, _axial_shaking)],
                         ids=["static", "a0", "time_dependent"])
def test_fused_steps_match_unfused_strang(separable_setup, a, v_par):
    grid, mode, phi0 = separable_setup
    psi0 = confined3d.product_state(phi0, mode, grid)
    psi0.time = 0.3
    stride = 7                                   # does not divide ENERGY_STRIDE
    assert confined3d.ENERGY_STRIDE % stride
    traj = confined3d.evolve_3d(psi0, a, transverse.harmonic_profile, v_par,
                                0.05, 1e-3, sample_stride=stride)
    ref_final, ref_samples = _unfused_strang(
        psi0, a, transverse.harmonic_profile, v_par, 0.05, 1e-3, stride)

    def rel(x, ref):
        return np.linalg.norm(x - ref) / np.linalg.norm(ref)

    assert rel(traj.final.values, ref_final) <= 1e-12
    assert len(traj.samples) == len(ref_samples) == 9
    for sample, ref in zip(traj.samples, ref_samples):
        assert rel(sample.values, ref) <= 1e-12
    n_steps = 50
    assert traj.times.size == traj.norms.size == n_steps + 1
    assert traj.times[-1] == pytest.approx(0.35, abs=1e-14)
    assert traj.energy_times[0] == traj.times[0]
    assert traj.energy_times[-1] == traj.times[-1]
    assert traj.energies.size == traj.energy_times.size
    # start, stride multiples 16/32/48, samples 7..49, last step
    expected = sorted({0, 16, 32, 48, n_steps} | set(range(stride, n_steps, stride)))
    np.testing.assert_array_equal(traj.energy_times, traj.times[expected])
    assert traj.energies[-1] == pytest.approx(
        confined3d.energy_3d(traj.final, a, transverse.harmonic_profile, v_par),
        rel=1e-12)


def test_non_finite_field_names_its_step(separable_setup):
    grid, mode, phi0 = separable_setup
    psi0 = confined3d.product_state(phi0, mode, grid)
    dt = 1e-3

    def v_par(t, x, y1, y2):
        # step 12 is the first whose phase uses t_11 + dt/2 >= 0.0112
        return np.nan if t >= 0.0112 else 0.0

    with pytest.raises(ResolutionError, match="step 12 "):
        confined3d.evolve_3d(psi0, 0.5, transverse.harmonic_profile, v_par,
                             0.05, dt)
    values = psi0.values.copy()
    values[3, 4, 5] = np.nan
    bad = confined3d.Field3D(grid, values)
    with pytest.raises(ResolutionError, match="step 1 "):
        confined3d.evolve_3d(bad, 0.0, transverse.harmonic_profile, None,
                             0.05, dt)


def test_reduction_sweep_converges():
    scen = confined3d.ReductionScenario(
        a=0.5, v_perp=transverse.harmonic_profile,
        v_par=lambda t, x: 0.5 * x**2,
        t_final=0.2, dt_ref=0.02, eps_ref=0.5,
        length_x=16.0, n_x=48, n_y=32, mode_n=64)
    table = confined3d.reduction_sweep(scen, [0.5, 0.25])
    assert table.monotone_err and table.monotone_orth
    assert table.err_ratios()[0] < 0.5
    assert table.rows[0].steps == 10          # dt scales with eps^2
    assert table.rows[1].steps == 40
    assert table.rows[1].err_l2 < 1e-3
    assert table.rows[1].orthogonal_mass < 1e-4


def test_reduction_sweep_rejects_bad_eps_order():
    scen = confined3d.ReductionScenario(
        a=0.5, v_perp=transverse.harmonic_profile, v_par=None,
        t_final=0.1, dt_ref=0.02, eps_ref=0.5,
        length_x=16.0, n_x=48, n_y=32, mode_n=64)
    with pytest.raises(DomainError):
        confined3d.reduction_sweep(scen, [0.25, 0.5])
    with pytest.raises(DomainError):
        confined3d.reduction_sweep(scen, [0.5, 0.5])
