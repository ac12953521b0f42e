"""Confined 3d evolution against its 1d reduction on small grids."""

import math
import os
import sys
import threading
import tracemalloc

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
    phi0 = gpe1d.gaussian_packet(grid.axes[0], sigma=1.0, k0=1.0)
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


def test_make_grid_is_the_hand_built_product_grid():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=50, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(length_x=st.floats(0.5, 50.0), half_n_x=st.integers(2, 16),
                      base_extent_y=st.floats(1.0, 30.0), half_n_y=st.integers(2, 16),
                      epsilon=st.floats(0.01, 2.0))
    def check(length_x, half_n_x, base_extent_y, half_n_y, epsilon):
        n_x, n_y = 2 * half_n_x, 2 * half_n_y
        y = gpe1d.Grid1D(base_extent_y * epsilon, n_y)
        if 4.0 * epsilon / y.dx < 8.0:
            with pytest.raises(GridTooSmallError):
                confined3d.make_grid(length_x, n_x, base_extent_y, n_y, epsilon)
            return
        grid = confined3d.make_grid(length_x, n_x, base_extent_y, n_y, epsilon)
        ref = gpe1d.ProductGrid((gpe1d.Grid1D(length_x, n_x), y, y))
        assert isinstance(grid, gpe1d.ProductGrid)
        assert (grid.n_x, grid.n_y, grid.epsilon) == (n_x, n_y, epsilon)
        assert grid.shape == ref.shape == (n_x, n_y, n_y)
        assert grid.axes[1].length == base_extent_y * epsilon
        assert grid.dvol == ref.dvol
        assert grid.dvol == pytest.approx(ref.axes[0].dx * y.dx**2)
        np.testing.assert_array_equal(grid.k_squared(), ref.k_squared())
        for got, want in zip(grid.mesh(), ref.mesh()):
            np.testing.assert_array_equal(got, want)
        plane = gpe1d.ProductGrid((y, y))
        assert grid.plane.dvol == plane.dvol
        np.testing.assert_array_equal(grid.plane.k_squared(), plane.k_squared())
        for got, want in zip(grid.plane.mesh(), plane.mesh()):
            np.testing.assert_array_equal(got, want)

    check()


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
    u = grid.axes[1].x[:, None] * mode.chi
    u = u / math.sqrt(float(np.sum(u**2)) * grid.plane.dvol)
    phi1 = gpe1d.gaussian_packet(grid.axes[0], sigma=2.0)
    c = 0.1
    vals = (phi0.values[:, None, None] * mode.chi
            + c * phi1.values[:, None, None] * u)
    psi = gpe1d.Field(grid, vals.astype(complex))
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
    conf = confined3d._confinement(grid.axes[1], grid.epsilon, v_perp)[None, :, :]
    kin = np.exp(-1j * dt * grid.k_squared())
    v_axial = confined3d._box_potential(v_par, grid)
    psi, t, samples = psi0.values.copy(), psi0.time, [psi0.values.copy()]
    for i in range(1, n_steps + 1):
        v = conf + np.asarray(v_axial(t + 0.5 * dt))
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


def test_loop_energies_are_energy_3d_bitwise(separable_setup):
    # the loop's energy runs in its own buffers, energy_3d in fresh ones;
    # the operations are the same, so the bits are too
    grid, mode, phi0 = separable_setup
    psi0 = confined3d.product_state(phi0, mode, grid)
    traj = confined3d.evolve_3d(psi0, 0.5, transverse.harmonic_profile,
                                _axial_shaking, 0.02, 1e-3, sample_stride=7)
    assert traj.energies[-1] == confined3d.energy_3d(
        traj.final, 0.5, transverse.harmonic_profile, _axial_shaking)
    at = np.searchsorted(traj.energy_times, [s.time for s in traj.samples])
    assert [confined3d.energy_3d(s, 0.5, transverse.harmonic_profile,
                                 _axial_shaking) for s in traj.samples] == \
        traj.energies[at].tolist()


def _peak_boxes(run, box_bytes):
    """Peak of traced allocations while `run()` runs, in boxes of box_bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / box_bytes
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def small_box():
    """A 64 x 32 x 32 product state, which the loop runs as one slab."""
    grid = confined3d.make_grid(16.0, 64, 13.0, 32, 0.5)
    mode = transverse.rescale_mode(transverse.ground_state_2d(
        transverse.harmonic_profile, extent=13.0, n=32), 0.5)
    phi0 = gpe1d.gaussian_packet(grid.axes[0], k0=1.0)
    psi0 = confined3d.product_state(phi0, mode, grid)
    assert gpe1d._slab_workers(psi0.values.shape) == 1
    return psi0


def test_evolve_3d_holds_its_buffers_and_the_input(small_box):
    # the loop's psi, kin and factor (3 boxes) and k2, rho and theta (1.5),
    # with nothing of the box's size for the energy: 4.58 boxes measured,
    # 6.52 while the energy allocated its own temporaries
    peak = _peak_boxes(lambda: confined3d.evolve_3d(
        small_box, 0.5, transverse.harmonic_profile, _axial_static, 0.02, 1e-3),
        small_box.values.nbytes)
    assert peak <= 5.0


def test_sweep_holds_one_eps_box_at_a_time(small_box):
    # one eps's product state beside the loop's buffers: 5.60 boxes
    # measured, 8.55 while the previous eps's state and trajectory lived on
    scen = confined3d.ReductionScenario(
        a=0.5, v_perp=transverse.harmonic_profile, v_par=lambda t, x: 0.5 * x**2,
        t_final=0.02, dt_ref=0.005, eps_ref=0.5,
        length_x=16.0, n_x=64, n_y=32, mode_n=32)
    peak = _peak_boxes(lambda: confined3d.reduction_sweep(scen, [0.5, 0.25]),
                       small_box.values.nbytes)
    assert peak <= 6.0


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
    bad = gpe1d.Field(grid, values)
    with pytest.raises(ResolutionError, match="step 1 "):
        confined3d.evolve_3d(bad, 0.0, transverse.harmonic_profile, None,
                             0.05, dt)


def _slab_threads():
    return [t for t in threading.enumerate() if t.name.startswith("quasi1d-slab")]


@pytest.fixture(scope="module")
def slab_box(separable_setup):
    """A product state on a box large enough for the step to run in slabs."""
    _, mode, _ = separable_setup
    grid = confined3d.make_grid(16.0, 128, 13.0, 48, 0.5)
    assert grid.n_x * grid.n_y**2 >= gpe1d.SLAB_MIN_POINTS
    phi0 = gpe1d.gaussian_packet(grid.axes[0], sigma=1.0, k0=1.0)
    return confined3d.product_state(phi0, mode, grid)


def test_slab_count_follows_cpu_affinity(slab_box):
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no CPU affinity mask on this platform")
    cpus = len(os.sched_getaffinity(0))
    assert gpe1d._usable_cpus() == cpus
    assert gpe1d._slab_workers(slab_box.values.shape) == min(cpus, 128, 48)
    assert gpe1d._slab_workers((64, 32, 32)) == 1
    assert gpe1d._slab_workers((2**20,)) == 1


def test_slab_count_does_not_change_results(slab_box, monkeypatch):
    # every x row of the step mass lies in one slab and every FFT line in
    # one stage, so any number of slabs gives the same bits
    v_par = _axial_shaking                 # varies along x and y1, and in t
    stride = 7
    assert confined3d.ENERGY_STRIDE % stride
    psi0 = slab_box

    def evolve():
        return confined3d.evolve_3d(psi0, 0.5, transverse.harmonic_profile,
                                    v_par, 0.03, 1e-3, sample_stride=stride)

    chosen = evolve()                      # slab count from the CPU affinity
    runs = []
    for cpus in (1, 2, 4):
        monkeypatch.setattr(gpe1d, "_usable_cpus", lambda: cpus)
        assert gpe1d._slab_workers(psi0.values.shape) == cpus
        # more slabs than this machine may have cores, switching threads often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5 if cpus == 4 else interval)
        try:
            runs.append(evolve())
        finally:
            sys.setswitchinterval(interval)
    one = runs[0]
    for other in (*runs[1:], chosen):
        for name in ("times", "norms", "energies", "energy_times"):
            assert np.array_equal(getattr(one, name), getattr(other, name)), name
        assert np.array_equal(one.final.values, other.final.values)
        assert len(one.samples) == len(other.samples) == 6
        for a, b in zip(one.samples, other.samples):
            assert a.time == b.time
            assert np.array_equal(a.values, b.values)
    # start, samples 7, 14, 21, 28, the stride multiple 16, the last step 30
    np.testing.assert_array_equal(one.energy_times,
                                  one.times[[0, 7, 14, 16, 21, 28, 30]])
    ref_final, ref_samples = _unfused_strang(
        psi0, 0.5, transverse.harmonic_profile, v_par, 0.03, 1e-3, stride)

    def rel(x, ref):
        return np.linalg.norm(x - ref) / np.linalg.norm(ref)

    assert rel(chosen.final.values, ref_final) <= 1e-12
    for sample, ref in zip(chosen.samples, ref_samples):
        assert rel(sample.values, ref) <= 1e-12
    assert not _slab_threads()


def test_small_grids_start_no_thread(monkeypatch):
    monkeypatch.setattr(gpe1d, "_usable_cpus", lambda: 2)
    slab_pool, pools = gpe1d._slab_pool, []

    def recording_pool(workers):
        pools.append(workers)
        return slab_pool(workers)

    monkeypatch.setattr(gpe1d, "_slab_pool", recording_pool)
    line = gpe1d.Grid1D(16.0, 256)
    gpe1d.evolve_1d(gpe1d.gaussian_packet(line), 0.01, 1e-3, b=1.0)
    grid = confined3d.make_grid(16.0, 8, 13.0, 48, 0.5)
    assert grid.n_x * grid.n_y**2 < gpe1d.SLAB_MIN_POINTS
    mode = transverse.rescale_mode(transverse.ground_state_2d(
        transverse.harmonic_profile, extent=13.0, n=48), 0.5)
    confined3d._evolve_plane(mode.chi, grid, transverse.harmonic_profile,
                             0.01, 1e-3)
    psi0 = confined3d.product_state(
        gpe1d.gaussian_packet(grid.axes[0]), mode, grid)
    confined3d.evolve_3d(psi0, 0.5, transverse.harmonic_profile, None, 0.01, 1e-3)
    assert pools == [1, 1, 1]
    assert not _slab_threads()


def test_helper_slab_failures_reach_the_caller(slab_box, monkeypatch):
    psi0 = slab_box
    monkeypatch.setattr(gpe1d, "_usable_cpus", lambda: 2)
    assert gpe1d._slab_workers(psi0.values.shape) == 2

    def v_par(t, x, y1, y2):
        # NaN on the upper x half, which the helper slab holds
        return np.where(x > 0.0, np.nan, 0.0) if t >= 0.0112 else 0.0 * x

    with pytest.raises(ResolutionError, match="step 12 "):
        confined3d.evolve_3d(psi0, 0.5, transverse.harmonic_profile, v_par,
                             0.05, 1e-3)
    assert not _slab_threads()

    slab_of = gpe1d._slab_of
    calls = []

    def failing_slab_of(values, index, ndim):
        if threading.current_thread() is not threading.main_thread():
            calls.append(index)
            if len(calls) == 5:
                raise RuntimeError("helper slab failed")
        return slab_of(values, index, ndim)

    monkeypatch.setattr(gpe1d, "_slab_of", failing_slab_of)
    with pytest.raises(RuntimeError, match="helper slab failed"):
        confined3d.evolve_3d(psi0, 0.5, transverse.harmonic_profile,
                             _axial_static, 0.05, 1e-3)
    assert len(calls) == 5
    assert not _slab_threads()


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


def _anisotropic(y1, y2):
    return y1**2 + 4.0 * y2**2


def _isotropic_b(a, mode):
    return 8.0 * math.pi * a / (2.0 * math.pi)       # int |chi|^4 of |y|^2


@pytest.fixture(scope="module")
def gate_profiles():
    """The gate's scenario, mode and 3d profiles per trap, computed once:
    b enters only the 1d comparison."""
    cache = {}

    def profiles(v_perp):
        if v_perp not in cache:
            scen = confined3d.ReductionScenario(
                a=0.5, v_perp=v_perp, v_par=lambda t, x: 0.5 * x**2,
                t_final=0.1, dt_ref=0.00625, eps_ref=0.4,
                length_x=16.0, n_x=64, n_y=32, mode_n=96)
            mode = transverse.ground_state_2d(v_perp, extent=scen.base_extent_y,
                                              n=scen.mode_n)
            cache[v_perp] = (scen, mode,
                             confined3d.reduction_profiles(scen, [0.4, 0.2, 0.1]))
        return cache[v_perp]

    return profiles


@pytest.mark.parametrize("v_perp, wrong_b, passes", [
    (transverse.harmonic_profile, None, True),
    (transverse.harmonic_profile, 1.05, False),
    (transverse.harmonic_profile, 0.95, False),
    (_anisotropic, None, True),
    (_anisotropic, _isotropic_b, False),
], ids=["own_b", "b_plus_5pc", "b_minus_5pc", "anisotropic_own_b",
        "anisotropic_isotropic_b"])
def test_reduction_gate_discriminates_the_coupling(gate_profiles, v_perp, wrong_b,
                                                   passes):
    # The 1d coupling is a times a factor set by the confinement's shape,
    # int |chi|^4 (Ben Abdallah, Mehats, Schmeiser & Weishaeupl, SIAM J.
    # Math. Anal. 37 (2005) 189, for the anisotropic harmonic trap).  The
    # bounds of the reduction criterion hold with that b and fail with a b
    # 5% off or with the isotropic factor on an anisotropic trap.
    scen, mode, profiles = gate_profiles(v_perp)
    b = transverse.coupling_b(scen.a, mode)
    if wrong_b is not None:
        b = wrong_b(scen.a, mode) if callable(wrong_b) else wrong_b * b
    table = confined3d.compare_profiles(scen, profiles, b)
    assert [row.steps for row in table.rows] == [16, 64, 256]
    gate = (table.monotone_err and table.monotone_orth
            and max(table.err_ratios()) <= 0.6)
    assert gate == passes


def test_reduction_sweep_rejects_bad_eps_order():
    scen = confined3d.ReductionScenario(
        a=0.5, v_perp=transverse.harmonic_profile, v_par=None,
        t_final=0.1, dt_ref=0.02, eps_ref=0.5,
        length_x=16.0, n_x=48, n_y=32, mode_n=64)
    with pytest.raises(DomainError):
        confined3d.reduction_sweep(scen, [0.25, 0.5])
    with pytest.raises(DomainError):
        confined3d.reduction_sweep(scen, [0.5, 0.5])


def _pulsing(t, x):
    return (0.5 + np.sin(40.0 * t)) * x**2


def test_free_3d_run_is_line_times_plane():
    # a = 0: every factor of the step acts on x or on y alone, so evolve_3d
    # equals the line run times the plane run at every recorded time
    grid = confined3d.make_grid(8.0, 32, 8.0, 16, 0.5)
    phi0 = gpe1d.gaussian_packet(grid.axes[0], sigma=1.0, k0=1.0)
    y = grid.axes[1].x / grid.epsilon
    y1, y2 = np.meshgrid(y, y, indexing="ij")
    # off-centre and narrower than the mode, so the plane factor moves
    eta0 = np.exp(-((y1 - 0.7) ** 2 + y2**2) / 0.72).astype(complex)
    eta0 /= math.sqrt(float(np.sum(np.abs(eta0) ** 2)) * grid.plane.dvol)
    psi0 = gpe1d.Field(grid, phi0.values[:, None, None] * eta0)
    stride = 7
    traj = confined3d.evolve_3d(psi0, 0.0, transverse.harmonic_profile,
                                lambda t, x, y1, y2: _pulsing(t, x), 0.05, 1e-3,
                                sample_stride=stride)
    line = gpe1d.evolve_1d(phi0, 0.05, 1e-3, _pulsing, sample_stride=stride)
    plane = confined3d._evolve_plane(eta0, grid, transverse.harmonic_profile,
                                     0.05, 1e-3, sample_stride=stride)

    def rel_outer(field, x_part, y_part):
        outer = x_part.values[:, None, None] * y_part.values[None]
        assert x_part.time == y_part.time == field.time
        return np.linalg.norm(field.values - outer) / np.linalg.norm(outer)

    assert rel_outer(traj.final, line.final, plane.final) <= 1e-12
    assert len(traj.samples) == len(line.samples) == len(plane.samples) == 9
    for sample, x_part, y_part in zip(traj.samples, line.samples, plane.samples):
        assert rel_outer(sample, x_part, y_part) <= 1e-12
    np.testing.assert_array_equal(traj.times, line.times)
    np.testing.assert_allclose(traj.norms, line.norms * plane.norms, rtol=1e-12)
    np.testing.assert_array_equal(traj.energy_times, plane.energy_times)
    at = np.searchsorted(line.times, plane.energy_times)
    energies = (line.energies[at] * plane.norms[at] ** 2
                + plane.energies * line.norms[at] ** 2)
    np.testing.assert_allclose(traj.energies, energies, rtol=1e-12)
    # the plane factor is not stationary, so the check sees its dynamics
    assert np.linalg.norm(plane.final.values - eta0) > 0.1


def test_free_sweep_rows_match_the_3d_run():
    scen = confined3d.ReductionScenario(
        a=0.0, v_perp=transverse.harmonic_profile, v_par=_pulsing,
        t_final=0.1, dt_ref=0.02, eps_ref=0.5,
        length_x=8.0, n_x=32, base_extent_y=13.0, n_y=32)
    eps_list = [0.5, 0.25]
    rows = confined3d.reduction_sweep(scen, eps_list).rows
    # the same rows from the full 3d run of the a > 0 branch
    mode_grid = transverse.ground_state_2d(scen.v_perp,
                                           extent=scen.base_extent_y, n=scen.n_y)
    phi0 = gpe1d.gaussian_packet(gpe1d.Grid1D(scen.length_x, scen.n_x))
    for row, eps in zip(rows, eps_list):
        grid = confined3d.make_grid(scen.length_x, scen.n_x,
                                    scen.base_extent_y, scen.n_y, eps)
        mode = transverse.rescale_mode(mode_grid, eps)
        psi0 = confined3d.product_state(phi0, mode, grid)
        traj3 = confined3d.evolve_3d(psi0, 0.0, scen.v_perp,
                                     lambda t, x, y1, y2: _pulsing(t, x),
                                     scen.t_final,
                                     scen.dt_ref * (eps / scen.eps_ref) ** 2)
        n_steps = traj3.times.size - 1
        traj1 = gpe1d.evolve_1d(phi0, scen.t_final, scen.t_final / n_steps,
                                _pulsing)
        phi_eff, orth = confined3d.extract_profile(traj3.final, mode)
        assert row.epsilon == eps
        assert row.steps == n_steps
        assert row.err_l2 == pytest.approx(
            gpe1d.phase_distance(phi_eff, traj1.final), rel=1e-6, abs=1e-14)
        assert row.orthogonal_mass == pytest.approx(orth, abs=1e-14)
        assert row.energy_drift == pytest.approx(traj3.max_energy_drift(),
                                                 abs=1e-12)
    assert [row.steps for row in rows] == [5, 20]


def _one_loop_sweep(scenario, eps_list):
    """Reference: each eps's 3d run and its 1d reference in one loop."""
    factorized = scenario.a == 0.0
    b = 0.0 if factorized else transverse.coupling_b(
        scenario.a, transverse.ground_state_2d(
            scenario.v_perp, extent=scenario.base_extent_y, n=scenario.mode_n))
    phi0 = gpe1d.gaussian_packet(gpe1d.Grid1D(scenario.length_x, scenario.n_x),
                                 sigma=scenario.phi0_sigma, k0=scenario.phi0_k0)
    mode_grid = transverse.ground_state_2d(scenario.v_perp,
                                           extent=scenario.base_extent_y,
                                           n=scenario.n_y)
    rows = []
    for eps in eps_list:
        grid = confined3d.make_grid(scenario.length_x, scenario.n_x,
                                    scenario.base_extent_y, scenario.n_y, eps)
        mode = transverse.rescale_mode(mode_grid, eps)
        dt = scenario.dt_ref * (eps / scenario.eps_ref) ** 2
        if factorized:
            traj1 = gpe1d.evolve_1d(phi0, scenario.t_final, dt, scenario.v_par, b)
            n_steps = traj1.times.size - 1
            plane = confined3d._evolve_plane(mode.chi, grid, scenario.v_perp,
                                             scenario.t_final, dt)
            final = gpe1d.Field(grid, traj1.final.values[:, None, None]
                                * plane.final.values[None], traj1.final.time)
            at = np.searchsorted(traj1.times, plane.energy_times)
            energies = (traj1.energies[at] * plane.norms[at] ** 2
                        + plane.energies * traj1.norms[at] ** 2)
            drift = float(np.max(np.abs(energies - energies[0])))
        else:
            traj3 = confined3d.evolve_3d(
                confined3d.product_state(phi0, mode, grid), scenario.a,
                scenario.v_perp, lambda t, x, y1, y2: scenario.v_par(t, x),
                scenario.t_final, dt)
            n_steps = traj3.times.size - 1
            final, drift = traj3.final, traj3.max_energy_drift()
        phi_eff, orth = confined3d.extract_profile(final, mode)
        # the 1d reference reads only its final field, so it runs with no
        # energy between its first and last step
        reference = gpe1d._strang_loop(
            phi0, scenario.t_final, scenario.t_final / n_steps,
            phi0.grid.k_squared(), 0.0,
            lambda t: scenario.v_par(t, phi0.grid.x), b, n_steps + 1).final
        rows.append(confined3d.ReductionRow(
            epsilon=eps, err_l2=gpe1d.phase_distance(phi_eff, reference),
            orthogonal_mass=orth, energy_drift=drift, steps=n_steps))
    return rows


@pytest.mark.parametrize("a", [0.0, 0.5], ids=["a0", "interacting"])
def test_sweep_stages_compose_to_the_one_loop_sweep(a):
    scen = confined3d.ReductionScenario(
        a=a, v_perp=transverse.harmonic_profile, v_par=_pulsing,
        t_final=0.05, dt_ref=0.01, eps_ref=0.5,
        length_x=8.0, n_x=32, base_extent_y=13.0, n_y=32, mode_n=32)
    eps_list = [0.5, 0.25]
    table = confined3d.reduction_sweep(scen, eps_list)
    assert table.rows == _one_loop_sweep(scen, eps_list)
    assert [row.steps for row in table.rows] == [5, 20]
    # the stages apart give the same rows, and any b reuses the profiles
    profiles = confined3d.reduction_profiles(scen, eps_list)
    b = 0.0 if a == 0.0 else transverse.coupling_b(
        a, transverse.ground_state_2d(scen.v_perp, extent=scen.base_extent_y,
                                      n=scen.mode_n))
    assert confined3d.compare_profiles(scen, profiles, b).rows == table.rows
    other = confined3d.compare_profiles(scen, profiles, b + 1.0).rows
    assert [row.err_l2 for row in other] != [row.err_l2 for row in table.rows]
    assert [(row.orthogonal_mass, row.energy_drift) for row in other] == \
        [(row.orthogonal_mass, row.energy_drift) for row in table.rows]
