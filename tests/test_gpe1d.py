"""Cubic 1d dynamics: closed forms, conservation, convergence order."""

import cmath
import math

import numpy as np
import pytest

from quasi1d import confined3d, gpe1d, transverse
from quasi1d.errors import DomainError, ResolutionError


def test_free_gaussian_dispersion():
    # H = k^2: the complex width sigma^2 + i t evolves the packet exactly
    grid = gpe1d.Grid1D(32.0, 512)
    sigma, t_final = 1.0, 1.0
    phi0 = gpe1d.gaussian_packet(grid, sigma=sigma)
    traj = gpe1d.evolve_1d(phi0, t_final, 0.01)
    z = sigma**2 + 1j * t_final
    amp = (2.0 * math.pi * sigma**2) ** -0.25
    exact = amp * sigma / np.sqrt(z) * np.exp(-grid.x**2 / (4.0 * z))
    assert np.max(np.abs(traj.final.values - exact)) < 1e-8
    # second moment of the density: sigma^2 + t^2 / sigma^2
    density = np.abs(traj.final.values) ** 2
    moment = float(np.sum(grid.x**2 * density)) * grid.dx
    assert moment == pytest.approx(sigma**2 + t_final**2 / sigma**2, rel=1e-8)


def test_plane_wave_rotates_at_nonlinear_frequency():
    grid = gpe1d.Grid1D(16.0, 256)
    b, t_final = 2.0, 1.0
    phi0 = gpe1d.plane_wave(grid, 2)
    traj = gpe1d.evolve_1d(phi0, t_final, 0.001, b=b)
    k = 2.0 * math.pi * 2 / grid.length
    omega = k**2 + b / grid.length
    exact = phi0.values * cmath.exp(-1j * omega * t_final)
    assert np.max(np.abs(traj.final.values - exact)) < 1e-10
    density_wobble = np.abs(traj.final.values) ** 2 - 1.0 / grid.length
    assert np.max(np.abs(density_wobble)) < 1e-12
    assert traj.max_norm_drift() < 1e-13
    # energy: k^2 + b / (2 L)
    assert traj.energies[0] == pytest.approx(k**2 + 0.5 * b / grid.length,
                                             rel=1e-12)


def test_constant_profile_rotates_at_mean_field_rate():
    grid = gpe1d.Grid1D(16.0, 128)
    b, t_final = 3.0, 0.5
    values = np.full(grid.n, 1.0 / math.sqrt(grid.length), dtype=complex)
    phi0 = gpe1d.Field(grid, values)
    traj = gpe1d.evolve_1d(phi0, t_final, 0.001, b=b)
    exact = values * cmath.exp(-1j * b / grid.length * t_final)
    assert np.max(np.abs(traj.final.values - exact)) < 1e-12
    assert traj.energies[0] == pytest.approx(0.5 * b / grid.length, rel=1e-12)


def test_time_reversal():
    grid = gpe1d.Grid1D(16.0, 256)
    phi = gpe1d.gaussian_packet(grid, sigma=0.8, k0=1.0)
    start = phi.values.copy()
    v = lambda t, x: 0.3 * x**2
    for _ in range(100):
        phi = gpe1d.strang_step(phi, 0.01, v, b=1.3)
    for _ in range(100):
        phi = gpe1d.strang_step(phi, -0.01, v, b=1.3)
    assert np.max(np.abs(phi.values - start)) < 1e-10
    assert abs(phi.time) < 1e-12


def test_conservation_drifts():
    grid = gpe1d.Grid1D(16.0, 256)
    phi0 = gpe1d.gaussian_packet(grid, sigma=1.5, k0=1.0)
    traj = gpe1d.evolve_1d(phi0, 1.0, 0.001, b=2.0)
    steps = len(traj.times) - 1
    assert traj.max_norm_drift() / steps < 1e-12
    assert traj.max_energy_drift() < 1e-8


def test_second_order_convergence():
    # reference at dt/16: coarse/fine error ratio tends to 255/63 ~ 4.05
    grid = gpe1d.Grid1D(16.0, 256)
    phi0 = gpe1d.gaussian_packet(grid, sigma=1.0)
    t_final, dt = 1.0, 0.01
    finals = [gpe1d.evolve_1d(phi0, t_final, dt / den, b=4.0).final.values
              for den in (1.0, 2.0, 16.0)]
    scale = math.sqrt(grid.dx)
    err_coarse = float(np.linalg.norm(finals[0] - finals[2])) * scale
    err_fine = float(np.linalg.norm(finals[1] - finals[2])) * scale
    assert err_coarse / err_fine == pytest.approx(4.0, abs=0.5)


def test_gauge_shift_of_potential():
    grid = gpe1d.Grid1D(16.0, 256)
    phi0 = gpe1d.gaussian_packet(grid, sigma=1.0)
    t_final, shift = 0.5, 2.0
    base = gpe1d.evolve_1d(phi0, t_final, 0.005,
                           v_par=lambda t, x: 0.3 * x**2, b=1.0)
    lifted = gpe1d.evolve_1d(phi0, t_final, 0.005,
                             v_par=lambda t, x: 0.3 * x**2 + shift, b=1.0)
    exact = base.final.values * cmath.exp(-1j * shift * t_final)
    assert np.max(np.abs(lifted.final.values - exact)) < 1e-10


def _eigenresidual(phi, v, b):
    # |(-Laplace + V + b phi^2) phi - mu phi| with mu the Rayleigh quotient
    grid, psi = phi.grid, phi.values.real
    h_psi = (np.fft.ifft(grid.k_squared() * np.fft.fft(psi)).real
             + (v + b * psi**2) * psi)
    mu = float(np.sum(psi * h_psi)) * grid.dx
    return math.sqrt(float(np.sum((h_psi - mu * psi) ** 2)) * grid.dx)


def test_harmonic_ground_state():
    # H = k^2 + x^2 has E0 = 1 with a width-sqrt(1/2) Gaussian (m = 1/2)
    grid = gpe1d.Grid1D(16.0, 256)
    v = lambda t, x: x**2
    phi = gpe1d.ground_state_1d(grid, v_par=v)
    energy = gpe1d.energy_1d(phi, v)
    assert abs(energy - 1.0) < 1e-6
    exact = (math.pi ** -0.25) * np.exp(-0.5 * grid.x**2)
    aligned = gpe1d.align_phase(phi, gpe1d.Field(grid, exact.astype(complex)))
    assert np.max(np.abs(aligned.values - exact)) < 1e-9


@pytest.mark.parametrize("extent, n", [(16.0, 128), (13.0, 48)])
def test_line_and_plane_ground_states_agree(extent, n):
    # |y|^2 separates, so the plane's E0 is twice the line's ground energy
    # under x^2 on one of its axes; both come from one routine
    axis = gpe1d.Grid1D(extent, n)
    v = lambda t, x: x**2
    line = gpe1d.energy_1d(gpe1d.ground_state_1d(axis, v_par=v), v)
    plane = transverse.ground_state_2d(transverse.harmonic_profile,
                                       extent=extent, n=n)
    assert abs(2.0 * line - plane.E0) < 1e-13


@pytest.mark.parametrize("b", [0.0, 1.0, 50.0, 200.0])
def test_line_ground_state_solves_its_discrete_equation(b):
    grid = gpe1d.Grid1D(16.0, 256)
    phi = gpe1d.ground_state_1d(grid, v_par=lambda t, x: x**2, b=b)
    assert _eigenresidual(phi, grid.x**2, b) < 1e-10


@pytest.mark.parametrize("b", [0.0, 1.0, 50.0, 200.0])
def test_line_flow_energies_never_rise(b):
    # the flow rejects every rising step; the polish backtracks its rotation
    # until the energy does not rise, up to the round-off of the energy sum
    grid = gpe1d.Grid1D(16.0, 256)
    x = grid.x
    _, flow, polish = gpe1d._ground_state(
        np.exp(-(x / (0.25 * grid.length)) ** 2), grid.k_squared(), grid.dx,
        x**2, b)
    assert len(flow) > 1 and len(polish) > 1
    assert np.all(np.diff(flow) <= 0.0)
    assert np.all(np.diff(polish) <= 1e-12)
    assert polish[0] - polish[-1] > 0.0


def test_polish_keeps_its_search_direction():
    # LOBPCG reaches POLISH_TOL in a few dozen Ritz steps where steepest
    # descent took 96 on the plane and 200 on the line
    plane = gpe1d.ProductGrid((gpe1d.Grid1D(16.0, 128),) * 2)
    y1, y2 = plane.mesh()
    _, _, polish = gpe1d._ground_state(np.exp(-0.5 * (y1**2 + y2**2)),
                                       plane.k_squared(), plane.dvol,
                                       y1**2 + y2**2, 0.0)
    assert len(polish) - 1 <= 25
    grid = gpe1d.Grid1D(16.0, 256)
    x = grid.x
    _, _, polish = gpe1d._ground_state(np.exp(-(x / (0.25 * grid.length)) ** 2),
                                       grid.k_squared(), grid.dx, x**2, 0.0)
    assert len(polish) - 1 <= 30


def test_ground_state_residual_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    grid = gpe1d.Grid1D(16.0, 256)

    @hypothesis.settings(max_examples=20, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(c=st.floats(0.25, 4.0), b=st.floats(0.0, 50.0))
    def check(c, b):
        phi = gpe1d.ground_state_1d(grid, v_par=lambda t, x: c * x**2, b=b)
        assert _eigenresidual(phi, c * grid.x**2, b) < 1e-10

    check()


def test_ground_state_is_stationary():
    grid = gpe1d.Grid1D(16.0, 256)
    v = lambda t, x: x**2
    phi = gpe1d.ground_state_1d(grid, v_par=v, b=1.0)
    traj = gpe1d.evolve_1d(phi, 0.2, 0.002, v_par=v, b=1.0)
    # the density wobbles only by the Strang step's error; an
    # off-equilibrium profile would slosh at O(1)
    drift = np.abs(np.abs(traj.final.values) ** 2 - np.abs(phi.values) ** 2)
    assert np.max(drift) < 1e-6


def test_interacting_ground_state_flattens():
    # repulsion pushes density toward the inverted-parabola profile
    grid = gpe1d.Grid1D(16.0, 256)
    v = lambda t, x: x**2
    b = 50.0
    phi = gpe1d.ground_state_1d(grid, v_par=v, b=b)
    density = np.abs(phi.values) ** 2
    mu = (0.75 * b) ** (2.0 / 3.0)       # from normalizing (mu - x^2)/b
    center = density[grid.n // 2]
    assert center == pytest.approx(mu / b, rel=0.05)
    half_width = math.sqrt(mu)
    inside = np.abs(grid.x) < 0.7 * half_width
    tf = (mu - grid.x[inside] ** 2) / b
    assert np.max(np.abs(density[inside] - tf)) < 0.05 * mu / b


def test_phase_alignment_helpers():
    grid = gpe1d.Grid1D(16.0, 64)
    phi = gpe1d.gaussian_packet(grid, sigma=1.0)
    rotated = gpe1d.Field(grid, phi.values * cmath.exp(1j * 0.7), 0.0)
    assert gpe1d.phase_distance(rotated, phi) < 1e-12
    aligned = gpe1d.align_phase(rotated, phi)
    assert np.max(np.abs(aligned.values - phi.values)) < 1e-12
    other = gpe1d.gaussian_packet(grid, sigma=2.0)
    assert gpe1d.phase_distance(other, phi) > 0.1


def test_phase_distance_resolves_tiny_gaps():
    # ref + delta w with w orthogonal to ref: the distance is delta |w|, far
    # below where |phi|^2 + |ref|^2 - 2|<phi, ref>| cancels to zero
    grid = gpe1d.Grid1D(16.0, 64)
    ref = gpe1d.gaussian_packet(grid, sigma=1.0, k0=1.5)
    rng = np.random.default_rng(3)
    w = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    w -= np.vdot(ref.values, w) / np.vdot(ref.values, ref.values) * ref.values
    w_norm = gpe1d.Field(grid, w).norm()
    delta = 1e-10
    phi = gpe1d.Field(grid, (ref.values + delta * w) * cmath.exp(0.4j))
    assert gpe1d.phase_distance(phi, ref) == pytest.approx(delta * w_norm,
                                                           rel=1e-6)


def test_phase_distance_measures_with_the_cell_volume():
    # on a multi-axis grid the cell is dvol, not the x spacing
    rng = np.random.default_rng(5)
    grids = [(confined3d.make_grid(8.0, 16, 4.0, 16, 1.0), (16, 16, 16)),
             (gpe1d.ProductGrid((gpe1d.Grid1D(4.0, 8), gpe1d.Grid1D(3.0, 6))),
              (8, 6))]
    for grid, shape in grids:
        phi, ref = (gpe1d.Field(grid, rng.standard_normal(shape)
                                + 1j * rng.standard_normal(shape))
                    for _ in range(2))
        aligned = gpe1d.align_phase(phi, ref)
        diff = gpe1d.Field(grid, aligned.values - ref.values)
        assert gpe1d.phase_distance(phi, ref) == pytest.approx(diff.norm(),
                                                               rel=1e-15)
        zero = gpe1d.Field(grid, np.zeros(shape, dtype=complex))
        assert gpe1d.phase_distance(phi, zero) == pytest.approx(phi.norm(),
                                                                rel=1e-15)


def test_error_paths():
    with pytest.raises(DomainError):
        gpe1d.Grid1D(16.0, 63)
    with pytest.raises(DomainError):
        gpe1d.Grid1D(16.0, 2)
    with pytest.raises(DomainError):
        gpe1d.Grid1D(-1.0, 64)
    grid = gpe1d.Grid1D(16.0, 64)
    phi0 = gpe1d.gaussian_packet(grid)
    with pytest.raises(DomainError):
        gpe1d.evolve_1d(phi0, -1.0, 0.01)
    with pytest.raises(DomainError):
        gpe1d.evolve_1d(phi0, 1.0, 0.0)
    poisoned = gpe1d.Field(grid, np.full(grid.n, np.nan, dtype=complex))
    with pytest.raises(ResolutionError):
        gpe1d.evolve_1d(poisoned, 0.1, 0.01)


def test_sampling_stride():
    grid = gpe1d.Grid1D(16.0, 64)
    phi0 = gpe1d.gaussian_packet(grid)
    traj = gpe1d.evolve_1d(phi0, 0.1, 0.01, sample_stride=5)
    # initial state plus stride hits; the final step is a hit here
    assert len(traj.samples) == 3
    assert traj.samples[0].time == 0.0
    assert traj.samples[1].time == pytest.approx(0.05)
    assert traj.samples[-1].time == pytest.approx(0.1)


def _unfused_strang_1d(phi0, v_par, b, t_final, dt, sample_stride):
    """Reference: both phase half-steps of every step, allocating FFTs;
    energies with the derivative taken in real space."""
    grid = phi0.grid
    n_steps = max(1, round(t_final / dt))
    dt = t_final / n_steps
    kin = np.exp(-1j * dt * grid.k**2)

    def energy(psi, t):
        dpsi = np.fft.ifft(1j * grid.k * np.fft.fft(psi))
        rho = np.abs(psi) ** 2
        return float(np.sum(np.abs(dpsi) ** 2 + v_par(t, grid.x) * rho
                            + 0.5 * b * rho**2)) * grid.dx

    psi, t = phi0.values.copy(), phi0.time
    samples, energies = [psi.copy()], [energy(psi, t)]
    for i in range(1, n_steps + 1):
        v = v_par(t + 0.5 * dt, grid.x)
        psi = psi * np.exp(-0.5j * dt * (v + b * np.abs(psi) ** 2))
        psi = np.fft.ifft(kin * np.fft.fft(psi))
        psi = psi * np.exp(-0.5j * dt * (v + b * np.abs(psi) ** 2))
        t = phi0.time + i * dt
        energies.append(energy(psi, t))
        if i % sample_stride == 0 or i == n_steps:
            samples.append(psi.copy())
    return psi, samples, np.array(energies)


def test_evolve_matches_unfused_strang():
    grid = gpe1d.Grid1D(16.0, 128)
    phi0 = gpe1d.gaussian_packet(grid, sigma=1.2, k0=1.5)
    phi0.time = 0.3

    def v_par(t, x):
        return (0.5 + np.sin(9.0 * t)) * 0.05 * x**2 + 0.3 * np.cos(x)

    traj = gpe1d.evolve_1d(phi0, 0.2, 1e-3, v_par=v_par, b=1.5, sample_stride=7)
    ref_final, ref_samples, ref_energies = _unfused_strang_1d(
        phi0, v_par, 1.5, 0.2, 1e-3, 7)

    def rel(x, ref):
        return np.linalg.norm(x - ref) / np.linalg.norm(ref)

    assert rel(traj.final.values, ref_final) <= 1e-12
    assert len(traj.samples) == len(ref_samples) == 30   # 0, 7..196, 200
    for sample, ref in zip(traj.samples, ref_samples):
        assert rel(sample.values, ref) <= 1e-12
    assert traj.times.size == traj.norms.size == 201
    np.testing.assert_array_equal(traj.energy_times, traj.times)
    np.testing.assert_allclose(traj.energies, ref_energies, rtol=1e-12)


def test_loop_energies_are_energy_1d_bitwise():
    # the loop's energy runs in its own buffers, energy_1d in fresh ones;
    # the operations are the same, so the bits are too
    grid = gpe1d.Grid1D(16.0, 128)
    phi0 = gpe1d.gaussian_packet(grid, sigma=1.2, k0=1.5)

    def v_par(t, x):
        return (0.5 + np.sin(9.0 * t)) * 0.05 * x**2

    traj = gpe1d.evolve_1d(phi0, 0.05, 1e-3, v_par=v_par, b=1.5, sample_stride=7)
    assert traj.energies[-1] == gpe1d.energy_1d(traj.final, v_par, 1.5)
    at = np.searchsorted(traj.energy_times, [s.time for s in traj.samples])
    assert [gpe1d.energy_1d(s, v_par, 1.5) for s in traj.samples] == \
        traj.energies[at].tolist()


def _random_field(grid, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    return gpe1d.Field(grid, values).normalized()


def test_norm_conservation_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(half_n=st.integers(2, 64), dt=st.floats(1e-4, 0.05),
                      b=st.floats(0.0, 5.0), seed=st.integers(0, 2**32 - 1))
    def check(half_n, dt, b, seed):
        phi0 = _random_field(gpe1d.Grid1D(8.0, 2 * half_n), seed)
        traj = gpe1d.evolve_1d(phi0, 20 * dt, dt, v_par=lambda t, x: np.cos(x + t),
                               b=b)
        assert traj.max_norm_drift() < 1e-13

    check()


def test_time_reversal_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(half_n=st.integers(2, 64),
                      dt=st.floats(1e-4, 0.05) | st.floats(-0.05, -1e-4),
                      b=st.floats(0.0, 5.0), seed=st.integers(0, 2**32 - 1))
    def check(half_n, dt, b, seed):
        phi = start = _random_field(gpe1d.Grid1D(8.0, 2 * half_n), seed)
        v = lambda t, x: 0.3 * x**2 + np.sin(t) * x
        for _ in range(10):
            phi = gpe1d.strang_step(phi, dt, v, b=b)
        for _ in range(10):
            phi = gpe1d.strang_step(phi, -dt, v, b=b)
        assert np.max(np.abs(phi.values - start.values)) < 1e-10
        assert abs(phi.time - start.time) < 1e-12

    check()
