"""Counting formalism: projector algebra, weights, condensation bounds.

The blocked kernels are held against the whole-array recipes of
``oracles``."""

import itertools
import math
import sys
import threading
import time
import tracemalloc
from functools import reduce
from pathlib import Path

import hypothesis
import numpy as np
import pytest

from oracles import (coords_of, coset_sum_recipe, hand_distances,
                     permutation_average, site_pair_matrix, site_sums,
                     subset_components)
from quasi1d import gpe1d, harness, manybody, scattering, transverse
from quasi1d.errors import DomainError, InterfaceError, ResolutionError


def unit_vector(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def random_orbital(gen, dim):
    orb = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    return orb / np.linalg.norm(orb)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(7)


# ---------------------------------------------------------------------------
# states and projectors


def test_random_state_is_symmetric_and_normalized(rng):
    state = next(manybody.random_symmetric_states(3, 5, rng, 1))
    assert np.linalg.norm(state.tensor) == pytest.approx(1.0, abs=1e-13)
    swapped = state.tensor.transpose(1, 0, 2)
    assert np.max(np.abs(swapped - state.tensor)) < 1e-13
    swapped = state.tensor.transpose(0, 2, 1)
    assert np.max(np.abs(swapped - state.tensor)) < 1e-13


def test_state_guards(rng):
    with pytest.raises(DomainError):
        manybody.ManyBodyState(5, 2, np.zeros((2,) * 5, dtype=complex))
    with pytest.raises(DomainError):
        manybody.ManyBodyState(1, 4, np.zeros(4, dtype=complex))
    with pytest.raises(DomainError):
        manybody.ManyBodyState(2, 3, np.zeros((3, 4), dtype=complex))


@pytest.mark.parametrize("n,dim", [(2, 12), (3, 6)])
def test_counter_decomposition(rng, n, dim):
    state = next(manybody.random_symmetric_states(n, dim, rng, 1))
    for orb in (unit_vector(dim, 0), random_orbital(np.random.default_rng(dim), dim)):
        resid_sq, gram = manybody._counter_sums(state, orb)
        assert gram.shape == (n + 1, n + 1)
        # completeness: the counters partition the state
        assert math.sqrt(resid_sq) < 1e-12
        # mutual orthogonality
        for j, k in itertools.combinations(range(n + 1), 2):
            assert abs(gram[j, k]) < 1e-12
        # the counters are orthogonal idempotents, P_j P_k = delta_jk P_k,
        # the law behind f_hat g_hat = (f g)_hat: a component's counter sums
        # hold its whole mass at [k, k] and none elsewhere
        for k, comp in enumerate(subset_components(state.tensor, orb)):
            piece = manybody.ManyBodyState(n, dim, comp)
            piece_resid_sq, again = manybody._counter_sums(piece, orb)
            assert math.sqrt(piece_resid_sq) < 1e-12
            assert abs(again[k, k] - np.vdot(comp, comp)) < 1e-12
            for j in range(n + 1):
                if j != k:      # ||P_j P_k psi||, a norm, bounds every entry
                    assert math.sqrt(abs(again[j, j])) < 1e-12
            for j, i in itertools.combinations(range(n + 1), 2):
                assert abs(again[j, i]) < 1e-12


def test_orbital_guards(rng):
    state = next(manybody.random_symmetric_states(2, 6, rng, 1))
    orb = unit_vector(6, 1)
    grid = gpe1d.Grid1D(6.0, 6)
    ham = manybody.line_hamiltonian(grid)
    table = manybody.WeightTable.build(2, 0.1)
    for bad in (2.0 * orb, unit_vector(7, 0)):
        with pytest.raises(InterfaceError):
            manybody._counter_sums(state, bad)
        with pytest.raises(InterfaceError):
            manybody.counting_sample(state, bad, table, ham, 0.0)


def test_weighted_expectation_is_bounded_by_its_weights(rng):
    f = np.array([0.3, -1.2, 2.0])
    for _ in range(5):
        state = next(manybody.random_symmetric_states(2, 8, rng, 1))
        orb = random_orbital(rng, 8)
        value = manybody.expectation_weighted(state, f, orb)
        assert np.min(f) - 1e-12 <= value <= np.max(f) + 1e-12
    # one weight per counter k = 0..N: N = 2 takes three
    for length in (2, 4):
        with pytest.raises(DomainError):
            manybody.expectation_weighted(state, np.ones(length), orb)


def test_counting_expectation_on_reference_states():
    n, xi, dim = 2, 0.1, 6
    table = manybody.WeightTable.build(n, xi)
    orb = unit_vector(dim, 0)
    product = manybody.product_state_mb(orb, n)
    value = manybody.expectation_weighted(product, table.m, orb)
    assert abs(value - 0.5 * n ** (-xi)) < 1e-15
    # one particle promoted out of the condensate counts as m(1)
    u = unit_vector(dim, 3)
    tensor = permutation_average(np.multiply.outer(orb, u))
    tensor /= np.linalg.norm(tensor)
    one = manybody.ManyBodyState(n, dim, tensor)
    value = manybody.expectation_weighted(one, table.m, orb)
    assert abs(value - table.m[1]) < 1e-14


# ---------------------------------------------------------------------------
# weight table


def test_weight_table_shape_and_monotonicity():
    table = manybody.WeightTable.build(4, 0.2)
    assert table.m.shape == (5,)
    assert table.m[-1] == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.diff(table.m) > 0.0)


def test_weight_crossover_is_continuous():
    # N = 16, xi = 1/4 puts the crossover exactly on k = 4
    n, xi = 16, 0.25
    k_star = n ** (1.0 - 2.0 * xi)
    assert k_star == pytest.approx(4.0)
    sqrt_branch = math.sqrt(k_star / n)
    linear_branch = 0.5 * (k_star * n ** (xi - 1.0) + n ** (-xi))
    assert abs(sqrt_branch - linear_branch) < 1e-15
    assert abs(sqrt_branch - n ** (-xi)) < 1e-15
    value = manybody.WeightTable.m_value(4, n, xi)
    assert abs(float(value) - sqrt_branch) < 1e-15


@pytest.mark.parametrize("n", [10, 100, 1000])
@pytest.mark.parametrize("xi", [0.05, 0.1, 0.2])
def test_weight_difference_bounds(n, xi):
    report = manybody.WeightTable.build(n, xi).bounds_report()
    assert report["first_ok"] and report["second_ok"]


def test_weight_table_guards():
    with pytest.raises(DomainError, match=r"\(0, 1/2\)"):
        manybody.WeightTable.build(4, 0.7)
    with pytest.raises(DomainError):
        manybody.WeightTable.build(0, 0.1)


# ---------------------------------------------------------------------------
# reduced density matrices


def test_rdm_of_product_state():
    orb = unit_vector(5, 2)
    state = manybody.product_state_mb(orb, 3)
    gamma = manybody.rdm(state)
    assert np.max(np.abs(gamma - np.outer(orb, orb.conj()))) < 1e-12
    assert np.trace(gamma).real == pytest.approx(1.0, abs=1e-13)


def test_rdm_properties(rng):
    state = next(manybody.random_symmetric_states(3, 6, rng, 1))
    gamma = manybody.rdm(state)
    assert np.max(np.abs(gamma - gamma.conj().T)) < 1e-13
    assert np.min(np.linalg.eigvalsh(gamma)) > -1e-12
    assert np.trace(gamma).real == pytest.approx(1.0, abs=1e-13)


def test_trace_norm_extremes():
    orb = unit_vector(4, 0)
    other = unit_vector(4, 1)
    assert manybody.trace_norm_vs_pure(np.outer(orb, orb.conj()), orb) < 1e-13
    assert manybody.trace_norm_vs_pure(
        np.outer(other, other.conj()), orb) == pytest.approx(2.0, abs=1e-13)


# ---------------------------------------------------------------------------
# condensation bounds


def test_condensation_bounds_both_directions(rng):
    n, xi = 2, 0.1
    grid = gpe1d.Grid1D(8.0, 8)
    phi = gpe1d.Field(
        grid, np.full(grid.n, 1.0 / math.sqrt(grid.length), dtype=complex))
    ham = manybody.line_hamiltonian(grid)
    orb = manybody.orbital_from_fields(phi, None)
    table = manybody.WeightTable.build(n, xi)
    e_phi = gpe1d.energy_1d(phi, None, 1.0)
    slack = 1e-9
    for _ in range(5):
        psi = next(manybody.random_symmetric_states(n, grid.n, rng, 1))
        sample = manybody.counting_sample(psi, orb, table, ham, e_phi)
        alpha, gap, dist = sample.alpha, sample.gap, sample.trace_dist
        assert alpha == sample.counting + gap
        assert dist <= math.sqrt(8.0 * alpha) + slack
        assert alpha <= gap + math.sqrt(dist) + 0.5 * n ** (-xi) + slack
        assert sample.passed


def test_alpha_functional_of_product_state():
    grid = gpe1d.Grid1D(8.0, 8)
    phi = gpe1d.Field(
        grid, np.full(grid.n, 1.0 / math.sqrt(grid.length), dtype=complex))
    ham = manybody.line_hamiltonian(grid)
    orb = manybody.orbital_from_fields(phi, None)
    table = manybody.WeightTable.build(2, 0.1)
    e_phi = gpe1d.energy_1d(phi, None, 0.0)
    product = manybody.ManyBodyState(2, grid.n, np.multiply.outer(orb, orb))
    alpha = manybody.counting_sample(product, orb, table, ham, e_phi).alpha
    # uniform profile, no interaction: the energy gap vanishes exactly
    assert alpha == pytest.approx(0.5 * 2 ** (-0.1), abs=1e-12)
    with pytest.raises(InterfaceError):
        manybody.counting_sample(
            product, orb, manybody.WeightTable.build(3, 0.1), ham, e_phi)


def test_counter_completeness_and_orthogonality_property():
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(n=st.integers(2, 4), half_dim=st.integers(2, 4),
                      seed=st.integers(0, 2**32 - 1))
    def check(n, half_dim, seed):
        gen = np.random.default_rng(seed)
        grid = gpe1d.Grid1D(2.0 * math.pi, 2 * half_dim)
        state = next(manybody.random_symmetric_states(n, grid.n, gen, 1))
        orb = random_orbital(gen, grid.n)
        resid_sq, gram = manybody._counter_sums(state, orb)
        assert math.sqrt(resid_sq) < 1e-12
        overlaps = [abs(complex(gram[j, k]))
                    for j, k in itertools.combinations(range(n + 1), 2)]
        assert max(overlaps) < 1e-12
        comps = subset_components(state.tensor, orb)
        for j, k in itertools.combinations_with_replacement(range(n + 1), 2):
            assert abs(gram[j, k] - np.vdot(comps[j], comps[k])) < 1e-14
        # the shared sample reports the same residuals, to the bit
        table = manybody.WeightTable.build(n, 0.1)
        sample = manybody.counting_sample(state, orb, table,
                                          manybody.line_hamiltonian(grid), 0.0)
        assert sample.completeness == math.sqrt(resid_sq)
        assert sample.orthogonality == max(overlaps)
        assert sample.counting == pytest.approx(
            sum(m * np.vdot(c, c).real for m, c in zip(table.m, comps)), rel=1e-12)

    check()


# ---------------------------------------------------------------------------
# trace distance from one Lanczos eigenvalue


def test_trace_distance_matches_eigvalsh_property():
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(n=st.integers(2, 4), dim=st.integers(2, 9),
                      seed=st.integers(0, 2**32 - 1))
    def check(n, dim, seed):
        gen = np.random.default_rng(seed)
        state = next(manybody.random_symmetric_states(n, dim, gen, 1))
        orb = random_orbital(gen, dim)
        ref = manybody.trace_norm_vs_pure(manybody.rdm(state), orb)
        assert manybody.trace_distance(state, orb) == \
            pytest.approx(ref, rel=1e-12)

    check()


def two_orbital_state(gen, n, theta, dim=10):
    """cos t phi^N + sin t chi^N, with phi and chi on disjoint sites, so
    every tensor entry holds one term and the stored state is exact to
    round-off; returns the state and phi."""
    sites = gen.permutation(dim)
    phi = np.zeros(dim, dtype=complex)
    chi = np.zeros(dim, dtype=complex)
    phi[sites[:4]] = random_orbital(gen, 4)
    chi[sites[4:]] = random_orbital(gen, dim - 4)
    tensor = math.cos(theta) * reduce(np.multiply.outer, [phi] * n) \
        + math.sin(theta) * reduce(np.multiply.outer, [chi] * n)
    return manybody.ManyBodyState(n, dim, tensor), phi


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("theta", [0.7, 1e-2, 1e-4, 1e-6])
def test_trace_distance_closed_form(n, theta):
    """cos t phi^N + sin t chi^N with chi _|_ phi: gamma - |phi><phi| has
    eigenvalues +-sin^2 t, so the distance is 2 sin^2 t; eigvalsh of the
    formed difference is good to only about 1e-8 relative at t = 1e-4."""
    state, phi = two_orbital_state(np.random.default_rng(17), n, theta)
    assert manybody.trace_distance(state, phi) == \
        pytest.approx(2.0 * math.sin(theta) ** 2, rel=1e-12)


def slot_zero_outside_weight(state, orb):
    """||q psi||^2 with q = 1 - |phi><phi| on slot 0, formed from q psi
    itself with psi read as d x d^(N-1)."""
    mat = state.tensor.reshape(state.dim, -1)
    outside = np.multiply.outer(orb, orb.conj() @ mat) - mat
    return float(np.vdot(outside, outside).real)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_counter_gram_gives_the_slot_zero_outside_weight(n):
    """<q_1> = <n_hat> / N = sum_k (k / N) ||P_k psi||^2 for a symmetric
    state, on random states and near products alike: each Gram term is
    formed from q-parts, so the sum keeps its relative precision."""
    gen = np.random.default_rng(30 + n)
    cases = [(next(manybody.random_symmetric_states(n, 7, gen, 1)),
              random_orbital(gen, 7)) for _ in range(3)]
    cases += [two_orbital_state(gen, n, theta)
              for theta in (0.7, 1e-2, 1e-4, 1e-6)]
    for state, orb in cases:
        gram = manybody._counter_sums(state, orb)[1]
        counted = sum(k * gram[k, k].real for k in range(n + 1)) / n
        assert counted == pytest.approx(slot_zero_outside_weight(state, orb),
                                        rel=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_trace_distance_of_product_state(n):
    orb = unit_vector(6, 2)
    assert manybody.trace_distance(manybody.product_state_mb(orb, n), orb) == 0.0
    other = random_orbital(np.random.default_rng(n), 6)
    product = manybody.product_state_mb(other, n)
    assert manybody.trace_distance(product, other) < 1e-15
    # two pure states: 2 sqrt(1 - |<u, phi>|^2)
    assert manybody.trace_distance(product, unit_vector(6, 0)) == \
        pytest.approx(2.0 * math.sqrt(1.0 - abs(other[0]) ** 2), rel=1e-12)


def test_trace_distance_falls_back_to_eigvalsh(rng, monkeypatch):
    state = next(manybody.random_symmetric_states(2, 16, rng, 1))
    orb = random_orbital(rng, 16)
    lanczos = manybody.trace_distance(state, orb)
    monkeypatch.setattr(manybody, "_LANCZOS_STEPS", 2)
    dense = manybody.trace_norm_vs_pure(manybody.rdm(state), orb)
    assert manybody.trace_distance(state, orb) == dense
    assert lanczos == pytest.approx(dense, rel=1e-12)


# ---------------------------------------------------------------------------
# Hamiltonians on desk-scale grids


def grid_distances(ham):
    """Minimum-image distances of all site pairs, (d, d), from the grid's
    site coordinates."""
    axes = ham.grid.axes
    return hand_distances(coords_of(*(axis.x for axis in axes)),
                          tuple(axis.length for axis in axes))


def test_minimum_image_distances():
    ham = manybody.line_hamiltonian(gpe1d.Grid1D(8.0, 8))
    dist = site_pair_matrix(ham, ham._offset_distances())
    np.testing.assert_array_equal(dist, grid_distances(ham))
    assert dist[0, 7] == pytest.approx(1.0)    # wraps around the ring
    assert dist[0, 4] == pytest.approx(4.0)
    assert np.max(dist) <= 4.0 + 1e-12


def test_pair_range_resolution_guard():
    grid = gpe1d.Grid1D(8.0, 8)
    with pytest.raises(ResolutionError):
        manybody.line_hamiltonian(grid, pair_potential=lambda r: np.exp(-r),
                                  pair_range=0.5)


def test_confined_energy_separates():
    x_grid = gpe1d.Grid1D(12.0, 6)
    base = transverse.ground_state_2d(transverse.harmonic_profile,
                                      extent=12.0, n=12, boundary_tol=1e-3)
    mode = transverse.rescale_mode(base, 0.5)
    v_par = lambda t, x: 0.5 * x**2
    ham = manybody.confined_hamiltonian(x_grid, mode, transverse.harmonic_profile,
                                        v_par=v_par)
    phi = gpe1d.gaussian_packet(x_grid, sigma=1.5)
    orb = manybody.orbital_from_fields(phi, mode)
    state = manybody.product_state_mb(orb, 2)
    e_psi = manybody.energy_per_particle(state, ham)
    assert e_psi == pytest.approx(gpe1d.energy_1d(phi, v_par), abs=1e-8)
    with pytest.raises(InterfaceError):
        manybody.confined_hamiltonian(x_grid, base, transverse.harmonic_profile)
    with pytest.raises(InterfaceError):
        manybody.energy_per_particle(
            manybody.product_state_mb(unit_vector(4, 0), 2), ham)


# ---------------------------------------------------------------------------
# pair-correlation checks


@pytest.fixture(scope="module")
def bump_correction():
    sol = scattering.solve_zero_energy(scattering.smooth_bump(40.0), 0.64)
    return scattering.build_correction(sol, 0.9)


def test_pair_quadratic_form_nonnegative(rng, bump_correction):
    ham = manybody.box_hamiltonian(1.8, 12)
    form, norm = manybody.relative_pair_form(np.ones((1, ham.dim)), ham,
                                             bump_correction)
    assert form / norm > -1e-6
    for _ in range(2):
        assert manybody.random_pair_form(ham, bump_correction, rng) > -1e-6


def test_pair_form_guards(bump_correction):
    ham = manybody.box_hamiltonian(1.8, 12)
    for sectors in (np.ones((2, 8)), np.ones(ham.dim), np.ones((1, 2, ham.dim))):
        with pytest.raises(InterfaceError):
            manybody.relative_pair_form(sectors, ham, bump_correction)


# ---------------------------------------------------------------------------
# kernels against the direct recipes they replace


def complex_draw(gen, shape):
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def permutation_sum(tensor):
    """_permutation_sum of a copy of ``tensor``, with its own buffers."""
    out = np.array(tensor)
    manybody._permutation_sum(out, manybody._coset_buffers(out))
    return out


# (2, 257): at the default block rule, 4 blocks of side 65 an axis, the last
# one 62 wide
@pytest.mark.parametrize("n,dim", [(2, 7), (2, 257), (3, 5), (4, 4)])
def test_symmetrize_matches_permutation_sum(n, dim):
    raw = complex_draw(np.random.default_rng(11), (dim,) * n)
    got = permutation_sum(raw)
    assert np.array_equal(got, coset_sum_recipe(raw))
    got /= math.factorial(n)
    assert np.max(np.abs(got - permutation_average(raw))) < 1e-14


@pytest.mark.parametrize("n,dim", [(2, 9), (3, 6), (4, 4)])
def test_random_state_follows_seed_recipe(n, dim):
    state = next(manybody.random_symmetric_states(n, dim, np.random.default_rng(5), 1))
    ref = permutation_average(complex_draw(np.random.default_rng(5),
                                           (dim,) * n))
    ref /= np.linalg.norm(ref.ravel())
    assert np.max(np.abs(state.tensor - ref)) < 1e-14


def fft_energy_per_particle(state, ham):
    """The per-slot FFT recipe with full-size |.|^2 weights, and W on the
    distances of the grid's sites."""
    n = state.n_particles
    sp_ndim = len(ham.grid.shape)
    full = state.tensor.reshape(ham.grid.shape * n)
    density = np.abs(state.tensor) ** 2
    total = 0.0
    for slot in range(n):
        axes = tuple(range(slot * sp_ndim, (slot + 1) * sp_ndim))
        shape = [1] * full.ndim
        for i, ax in enumerate(axes):
            shape[ax] = ham.grid.shape[i]
        power = np.abs(np.fft.fftn(full, axes=axes)) ** 2
        total += np.sum(ham.grid.k_squared().reshape(shape) * power) / ham.dim
        others = tuple(i for i in range(n) if i != slot)
        total += ham.v_diag @ density.sum(axis=others)
    if ham.pair_potential is not None:
        w_mat = ham.pair_potential(grid_distances(ham))
        for i, j in itertools.combinations(range(n), 2):
            others = tuple(s for s in range(n) if s not in (i, j))
            total += np.sum(w_mat * (density.sum(axis=others) if others
                                     else density))
    return float(total) / n - ham.e0_shift


def test_energy_per_particle_matches_fft_reference():
    gen = np.random.default_rng(9)
    grid = gpe1d.Grid1D(6.0, 10)
    line = manybody.line_hamiltonian(
        grid, v_par=lambda t, x: 0.3 * np.cos(x),
        pair_potential=lambda r: np.exp(-r**2))
    base = transverse.ground_state_2d(transverse.harmonic_profile,
                                      extent=12.0, n=12, boundary_tol=1e-3)
    confined, confined_pair = (manybody.confined_hamiltonian(
        gpe1d.Grid1D(6.0, 4), transverse.rescale_mode(base, 0.5),
        transverse.harmonic_profile, v_par=lambda t, x: 0.5 * x**2,
        pair_potential=pair) for pair in (None, lambda r: np.exp(-r**2)))
    box = manybody.box_hamiltonian(2.0, 4, pair_potential=lambda r: 1.0 / (1.0 + r))
    # (box, 3): a pair potential at N >= 3 on three axes, 64^3 entries
    cases = [(line, 2), (line, 3), (line, 4), (confined, 2),
             (confined_pair, 2), (box, 2), (box, 3)]
    for ham, n in cases:
        state = next(manybody.random_symmetric_states(n, ham.dim, gen, 1))
        ref = fft_energy_per_particle(state, ham)
        # a Fortran-ordered copy must read the same: buffers are C order
        fortran = manybody.ManyBodyState(n, ham.dim,
                                         np.asfortranarray(state.tensor))
        for layout in (state, fortran):
            assert manybody.energy_per_particle(layout, ham) == \
                pytest.approx(ref, rel=1e-12, abs=1e-12)


def assembled(h, shape):
    """psi(z1, z2) = d^(-1/2) sum_K e^{iK.z2} h_K(z1 - z2), with the d sectors
    K, in C order, as the rows of ``h``: an inverse DFT over K, then each
    entry read at its offset."""
    d = math.prod(shape)
    axes = tuple(range(len(shape)))
    over_z2 = np.fft.ifftn(h.reshape(shape + (d,)), axes=axes).reshape(d, d)
    over_z2 *= math.sqrt(d)
    return over_z2[np.arange(d)[None, :], site_sums(shape, -1)]


def sectors_of(psi, shape):
    """The inverse of ``assembled``: h_K(r) = d^(-1/2) sum_z2 e^{-iK.z2}
    psi(r + z2, z2)."""
    d = math.prod(shape)
    axes = tuple(range(len(shape)))
    by_z2 = psi[site_sums(shape, 1), np.arange(d)[:, None]]     # [z2, r]
    return np.fft.fftn(by_z2.reshape(shape + (d,)), axes=axes).reshape(d, d) \
        / math.sqrt(d)


def reflected_sectors(g, shape):
    """e^{iK.r} g_K(-r) for the d sectors K, in C order, the rows of ``g``."""
    sectors = np.unravel_index(np.arange(len(g)), shape)
    offsets = np.indices(shape).reshape(len(shape), -1)
    angle = sum(np.multiply.outer(k, o) / n
                for k, o, n in zip(sectors, offsets, shape))
    minus = np.ravel_multi_index(tuple(-offsets), shape, mode="wrap")
    return np.exp(2j * math.pi * angle) * g[:, minus]


def symmetric_sectors(gen, shape):
    """h_K = g_K + e^{iK.r} g_K(-r) for complex Gaussian sectors g_K, drawn
    as random_pair_form draws them: one row of 2 d normals per sector."""
    d = math.prod(shape)
    g = gen.standard_normal((d, 2 * d)).view(complex)
    return g + reflected_sectors(g, shape)


def fft_pair_form(tensor, ham, corr):
    """The pair form of a d x d tensor, with grad_1 by per-axis FFTs and
    per-call potentials."""
    full = tensor.reshape(ham.grid.shape * 2)
    grad_sq = np.zeros((ham.dim, ham.dim))
    for axis, side in enumerate(ham.grid.axes):
        n_axis = side.n
        k = 2.0 * math.pi * np.fft.fftfreq(n_axis, side.dx)
        shape = [1] * full.ndim
        shape[axis] = n_axis
        grad = np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(full, axis=axis),
                           axis=axis)
        grad_sq += np.abs(grad.reshape(ham.dim, ham.dim)) ** 2
    dist = grid_distances(ham)
    sol = corr.solution
    w_minus_u = sol.potential.scaled(dist, sol.mu) - corr.u_potential(dist)
    return float(np.sum(grad_sq[dist < corr.outer_radius])
                 + 0.5 * np.sum(w_minus_u * np.abs(tensor) ** 2))


def test_sector_draw_is_the_symmetric_draw(rng):
    """Relative coordinates are unitary, take a complex Gaussian tensor G to
    its sectors g_K, and G^T to e^{iK.r} g_K(-r): so the sectors
    g_K + e^{iK.r} g_K(-r) are those of G + G^T, the symmetric draw."""
    shape = (6, 4, 2)
    tensor = complex_draw(rng, (48, 48))
    g = sectors_of(tensor, shape)
    np.testing.assert_allclose(assembled(g, shape), tensor, rtol=0, atol=1e-13)
    assert np.vdot(g, g).real == pytest.approx(np.vdot(tensor, tensor).real,
                                               rel=1e-13)
    np.testing.assert_allclose(sectors_of(tensor.T, shape),
                               reflected_sectors(g, shape), rtol=0, atol=1e-13)


def test_pair_form_matches_fft_reference(bump_correction):
    """The sector sums against the d^2 form of the assembled tensor, on
    d = 216 and on the 12^3 box, for a random symmetric state and for the
    flat product, the K = 0 sector with constant h."""
    for n in (6, 12):
        ham = manybody.box_hamiltonian(1.8, n)
        shape, d = ham.grid.shape, ham.dim
        flat = np.zeros((d, d), dtype=complex)
        flat[0] = 1.0
        for h in (symmetric_sectors(np.random.default_rng(n), shape), flat):
            form, norm = manybody.relative_pair_form(h, ham, bump_correction)
            psi = assembled(h, shape)
            assert np.max(np.abs(psi - psi.T)) <= 1e-12 * np.max(np.abs(psi))
            assert norm == pytest.approx(np.sum(np.abs(psi) ** 2), rel=1e-12)
            assert form == pytest.approx(
                fft_pair_form(psi, ham, bump_correction), rel=1e-12)
            del psi
        assert manybody.relative_pair_form(flat[:1], ham, bump_correction) \
            == pytest.approx((form, norm), rel=1e-12)


def test_pair_form_cache_follows_the_correction(bump_correction):
    ham = manybody.box_hamiltonian(1.8, 6)
    other = scattering.build_correction(bump_correction.solution, 0.6)
    assert other.outer_radius != bump_correction.outer_radius
    h = symmetric_sectors(np.random.default_rng(3), ham.grid.shape)
    first = manybody.relative_pair_form(h, ham, bump_correction)[0]
    second = manybody.relative_pair_form(h, ham, other)[0]
    psi = assembled(h, ham.grid.shape)
    assert second == pytest.approx(fft_pair_form(psi, ham, other), rel=1e-12)
    assert abs(second - first) > 1e-6 * abs(first)
    assert manybody.relative_pair_form(h, ham, bump_correction)[0] == first


# ---------------------------------------------------------------------------
# blocked kernels: the bits of the whole-array recipes, in one state's memory


def seed_recipe_state(gen, n, dim):
    """Two full-size draws, the coset sum out of place, and each real
    component divided by the real norm: the draw as first shipped."""
    out = coset_sum_recipe(complex_draw(gen, (dim,) * n))
    parts = out.reshape(-1).view(np.float64)
    parts /= np.linalg.norm(out.ravel())
    return out


# _BLOCK values: as a block side, one-row blocks and sizes that divide none
# of the dimensions below; as the number of blocks a pass over a state makes,
# one block, ragged blocks and (for d < 14) one-row blocks
RAGGED_BLOCKS = (1, 4, 7)


def unblocked(monkeypatch, block):
    """_BLOCK = block, and no least block size, so that small states are
    split too; the coset steps cut blocks of side ``block``, as their rule
    gives small states one block."""
    monkeypatch.setattr(manybody, "_BLOCK", block)
    monkeypatch.setattr(manybody, "_LEAST", 0)
    monkeypatch.setattr(manybody, "_cycle_side", lambda tensor, m: block)


@pytest.mark.parametrize("block", RAGGED_BLOCKS)
@pytest.mark.parametrize("n,dim", [(2, 13), (3, 9), (4, 9)])
def test_blocked_draw_is_the_seed_recipe_bitwise(monkeypatch, block, n, dim):
    unblocked(monkeypatch, block)
    gen, ref_gen = np.random.default_rng(5), np.random.default_rng(5)
    state = next(manybody.random_symmetric_states(n, dim, gen, 1))
    assert np.array_equal(state.tensor, seed_recipe_state(ref_gen, n, dim))
    # both consumed the same stretch of the stream
    assert gen.standard_normal() == ref_gen.standard_normal()


@pytest.mark.parametrize("block", RAGGED_BLOCKS)
@pytest.mark.parametrize("n,dim", [(2, 11), (3, 10), (4, 7)])
def test_symmetrize_by_blocks_leaves_its_input(monkeypatch, block, n, dim):
    """Each coset step sums in place by blocks, also of a Fortran-ordered
    copy, and keeps the bits of the out-of-place steps."""
    monkeypatch.setattr(manybody, "_BLOCK", block)
    monkeypatch.setattr(manybody, "_cycle_side", lambda tensor, m: block)
    raw = np.asfortranarray(complex_draw(np.random.default_rng(2), (dim,) * n))
    before = raw.copy()
    got = permutation_sum(raw)
    assert got.flags.f_contiguous
    assert np.array_equal(got, coset_sum_recipe(raw))
    assert np.array_equal(raw, before)


def test_product_state_normalizes_in_place_bitwise():
    orb = complex_draw(np.random.default_rng(4), 10)
    unit = orb / np.linalg.norm(orb)
    outer = np.multiply.outer(unit, unit)
    ref = outer / np.linalg.norm(outer.ravel())
    assert np.array_equal(manybody.product_state_mb(orb, 2).tensor, ref)


@pytest.mark.parametrize("block", (1, 7, 100))
def test_pair_form_with_ragged_blocks(monkeypatch, bump_correction, block):
    """The sector draw takes its sectors' normals row by row from one
    stream, so in blocks of any size it draws the sectors of one
    (d, 2 d) draw; its value is the d^2 form of their assembled state."""
    monkeypatch.setattr(manybody, "_BLOCK", block)
    ham = manybody.box_hamiltonian(1.8, 6)     # d = 216: 7, 100 leave a rest
    gen, ref_gen = np.random.default_rng(8), np.random.default_rng(8)
    got = manybody.random_pair_form(ham, bump_correction, gen)
    psi = assembled(symmetric_sectors(ref_gen, ham.grid.shape), ham.grid.shape)
    ref = fft_pair_form(psi, ham, bump_correction) / np.sum(np.abs(psi) ** 2)
    assert got == pytest.approx(ref, rel=1e-12)
    # both consumed the same stretch of the stream
    assert gen.standard_normal() == ref_gen.standard_normal()


def test_pair_form_is_the_relative_coordinate_form(bump_correction):
    """psi(z1, z2) = e^{iK.z2} h(z1 - z2) with h(r) = g(r) + e^{iK.r} g(-r)
    is symmetric, and as the mask, (w_mu - U) / 2 and the spectral grad_1
    all commute with translations, its form is d times a sum over offsets:
    sum_r 1_R(r) sum_a |D_a h(r)|^2 + (w_mu - U)(r) / 2 |h(r)|^2, over
    ||psi||^2 = d ||h||^2.  The sector kernel takes h as a one-row stack."""
    ham = manybody.box_hamiltonian(1.8, 6)     # d = 216
    shape, axes = ham.grid.shape, ham.grid.axes
    sites = np.unravel_index(np.arange(ham.dim), shape)
    offsets = np.indices(shape)
    dist = np.sqrt(sum((np.minimum(o, side.n - o) * side.dx) ** 2
                       for o, side in zip(offsets, axes)))
    sol = bump_correction.solution
    half_wu = 0.5 * (sol.potential.scaled(dist, sol.mu)
                     - bump_correction.u_potential(dist))
    mask = dist < bump_correction.outer_radius
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=10, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(seed=st.integers(0, 2**32 - 1),
                      k=st.tuples(*[st.integers(0, side.n - 1) for side in axes]))
    def check(seed, k):
        g = complex_draw(np.random.default_rng(seed), shape)
        phase = np.exp(2j * math.pi * sum(
            kk * o / side.n for kk, o, side in zip(k, offsets, axes)))
        g_minus = g[tuple((-o) % side.n for o, side in zip(offsets, axes))]
        h = g + phase * g_minus
        grad_sq = sum(np.abs(np.fft.ifft(1j * side.k.reshape(
            [-1 if b == a else 1 for b in range(3)]) * np.fft.fft(h, axis=a),
            axis=a)) ** 2 for a, side in enumerate(axes))
        ref = (np.sum(grad_sq[mask]) + np.sum(half_wu * np.abs(h) ** 2)) \
            / np.sum(np.abs(h) ** 2)
        rel = tuple((i[:, None] - i[None, :]) % side.n
                    for i, side in zip(sites, axes))
        psi = h[rel] * phase.ravel()[None, :]
        assert np.max(np.abs(psi - psi.T)) <= 1e-12 * np.max(np.abs(psi))
        full = fft_pair_form(psi, ham, bump_correction) / np.sum(np.abs(psi) ** 2)
        assert full == pytest.approx(ref, rel=1e-12)
        form, norm = manybody.relative_pair_form(h.reshape(1, -1), ham,
                                                 bump_correction)
        assert form / norm == pytest.approx(ref, rel=1e-12)

    check()


def traced_peak(func):
    """Peak bytes that tracemalloc (which counts numpy buffers) sees above
    the bytes already allocated when ``func`` starts, and its result."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = func()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


BOX_TENSOR_BYTES = 1728**2 * 16     # one N = 2 state on the 12^3 box


def test_draw_holds_one_tensor():
    peak, state = traced_peak(lambda: next(manybody.random_symmetric_states(
        2, 1728, np.random.default_rng(1), 1)))
    assert state.tensor.nbytes == BOX_TENSOR_BYTES
    assert peak <= 1.1 * BOX_TENSOR_BYTES


def test_warm_pair_form_allocates_block_scratch_only(bump_correction):
    """A block of sectors costs the sector kernel one scratch buffer of its
    size, plus the buffers in which numpy casts the real tables to complex
    (8192 entries, 10% of this block)."""
    ham = manybody.box_hamiltonian(1.8, 12)
    h = complex_draw(np.random.default_rng(1), (manybody._BLOCK, ham.dim))
    first = manybody.relative_pair_form(h, ham, bump_correction)
    peak, again = traced_peak(
        lambda: manybody.relative_pair_form(h, ham, bump_correction))
    assert again == first
    assert peak <= 1.15 * h.nbytes


# sector blocks of the pair-form check on the 12^3 box
BOX_SECTOR_BLOCK_BYTES = 48 * 1728 * 16


def test_quad_form_check_holds_eight_sector_blocks(monkeypatch):
    """The pair-form check of counting_pair.ini on its 12^3 box.  Two
    samples are drawn sector block by sector block, so the check holds a
    draw buffer, a sector buffer, the form's scratch and the offset tables,
    never a pair state."""
    path = Path(__file__).resolve().parent.parent / "configs" / "counting_pair.ini"
    monkeypatch.setattr(harness, "_QUAD_SAMPLES", 2)
    cfg = harness.load_config(path)
    peak, value = traced_peak(lambda: harness._quad_form_check(cfg.spec, cfg.seed))
    assert math.isfinite(value)
    assert peak <= 8 * BOX_SECTOR_BLOCK_BYTES


# ---------------------------------------------------------------------------
# offset tables, blocked counter sums and reused draw buffers


def pair_hamiltonians():
    """A line, the bare cube and a confined box (unequal axes), each with a
    pair potential: a Gaussian on the line, the scattering bump elsewhere."""
    bump = scattering.smooth_bump(40.0)
    pair = lambda r: bump.scaled(r, 0.64)  # noqa: E731
    base = transverse.ground_state_2d(transverse.harmonic_profile,
                                      extent=12.0, n=12, boundary_tol=1e-3)
    return [manybody.line_hamiltonian(gpe1d.Grid1D(6.0, 38),
                                      pair_potential=lambda r: np.exp(-r**2)),
            manybody.box_hamiltonian(1.8, 12, pair_potential=pair),
            manybody.confined_hamiltonian(
                gpe1d.Grid1D(3.0, 6), transverse.rescale_mode(base, 0.5),
                transverse.harmonic_profile, pair_potential=pair)]


def whole_site_pair_block(ham):
    """All d rows of W's site-pair matrix, as the energy's blocks take them."""
    return manybody._site_pair_block(ham._pair_potential_table(), 0, ham.dim,
                                     np.empty((ham.dim,) + ham.grid.shape))


def assert_table_close(got, ref):
    """1e-12 of each entry or of the largest one: entries on the bump's far
    tail (about 1e-37) magnify the distances' last-bit differences."""
    np.testing.assert_allclose(got, ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(ref)))


def test_offset_tables_match_the_site_pair_distances(bump_correction):
    corr = bump_correction
    sol = corr.solution
    for ham in pair_hamiltonians():
        dist = grid_distances(ham)
        # W: the offset table is even, so the matrix is symmetric bit for bit
        w_mat = whole_site_pair_block(ham)
        np.testing.assert_array_equal(w_mat, w_mat.T)
        assert_table_close(w_mat, ham.pair_potential(dist))
        mask_table, half_wu_table, _ = ham._pair_form_tables(corr)
        assert mask_table.shape == half_wu_table.shape == ham.grid.shape
        mask = site_pair_matrix(ham, mask_table)
        half_wu = site_pair_matrix(ham, half_wu_table)
        # the mask and the shell of U may differ only where a distance sits
        # on R or r0 to round-off
        edges = [corr.outer_radius, corr.inner_radius]
        away = np.all([np.abs(dist - r) >= 1e-12 for r in edges], axis=0)
        assert np.count_nonzero((mask == 1.0) & away) > 0
        np.testing.assert_array_equal(mask[away], (dist < corr.outer_radius)[away])
        ref = 0.5 * (sol.potential.scaled(dist, sol.mu) - corr.u_potential(dist))
        assert_table_close(half_wu[away], ref[away])


def test_site_pair_blocks_are_slices_of_the_matrix():
    """Any block of rows, on ragged sizes."""
    ham = pair_hamiltonians()[2]
    table = ham._pair_potential_table()
    whole = site_pair_matrix(ham, ham.pair_potential(ham._offset_distances()))
    np.testing.assert_array_equal(whole_site_pair_block(ham), whole)
    rows = np.empty((7,) + ham.grid.shape)
    for start in range(0, ham.dim, 7):
        stop = min(start + 7, ham.dim)
        np.testing.assert_array_equal(
            manybody._site_pair_block(table, start, stop, rows),
            whole[start:stop])


# (N, d): blocks of d // 4 rows leave a ragged rest, and so do blocks of
# d // 7 rows for N = 2; for N = 3, 4 those are one-row blocks
BLOCKED_STATES = [(2, 30), (3, 11), (4, 9)]


@pytest.mark.parametrize("block", RAGGED_BLOCKS)
@pytest.mark.parametrize("n,dim", BLOCKED_STATES)
def test_blocked_counter_sums_match_projector_components(monkeypatch, block,
                                                          n, dim):
    unblocked(monkeypatch, block)
    gen = np.random.default_rng(12)
    state = next(manybody.random_symmetric_states(n, dim, gen, 1))
    orb = random_orbital(gen, dim)
    before = state.tensor.copy()
    resid_sq, gram = manybody._counter_sums(state, orb)
    assert np.array_equal(state.tensor, before)
    comps = subset_components(state.tensor, orb)
    resid = state.tensor - sum(comps)
    assert resid_sq == pytest.approx(np.vdot(resid, resid).real, abs=1e-28)
    for j, k in itertools.combinations_with_replacement(range(n + 1), 2):
        assert abs(gram[j, k] - np.vdot(comps[j], comps[k])) < 1e-14
    # a Fortran-ordered copy is read as the same state
    fortran = manybody.ManyBodyState(n, dim, np.asfortranarray(state.tensor))
    f_resid_sq, f_gram = manybody._counter_sums(fortran, orb)
    assert f_resid_sq == pytest.approx(np.vdot(resid, resid).real, abs=1e-28)
    assert np.max(np.abs(f_gram - gram)) < 1e-14
    weights = np.linspace(0.1, 1.0, n + 1)
    ref = sum(w * np.vdot(c, c).real for w, c in zip(weights, comps))
    assert manybody.expectation_weighted(state, weights, orb) == \
        pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("block", RAGGED_BLOCKS)
def test_blocked_energy_and_trace_distance(monkeypatch, block):
    unblocked(monkeypatch, block)
    gen = np.random.default_rng(13)
    line, _, confined = pair_hamiltonians()
    line_small = manybody.line_hamiltonian(
        gpe1d.Grid1D(6.0, 14), v_par=lambda t, x: 0.3 * np.cos(x),
        pair_potential=lambda r: np.exp(-r**2))
    for ham, n in [(line, 2), (confined, 2), (line_small, 3), (line_small, 4)]:
        state = next(manybody.random_symmetric_states(n, ham.dim, gen, 1))
        assert manybody.energy_per_particle(state, ham) == \
            pytest.approx(fft_energy_per_particle(state, ham), rel=1e-12)
        orb = random_orbital(gen, ham.dim)
        dense = manybody.trace_norm_vs_pure(manybody.rdm(state), orb)
        assert manybody.trace_distance(state, orb) == pytest.approx(dense, rel=1e-10)


@pytest.mark.parametrize("block", RAGGED_BLOCKS)
@pytest.mark.parametrize("n,dim", [(2, 30), (3, 10), (4, 8)])
def test_counting_sample_takes_one_counter_pass(monkeypatch, block, n, dim):
    """The sample's residual, overlap, <m_hat> and trace distance all come
    from one _counter_sums call, and equal the separate entry points."""
    unblocked(monkeypatch, block)
    gen = np.random.default_rng(14)
    state = next(manybody.random_symmetric_states(n, dim, gen, 1))
    orb = random_orbital(gen, dim)
    table = manybody.WeightTable.build(n, 0.1)
    ham = manybody.line_hamiltonian(gpe1d.Grid1D(2.0 * math.pi, dim))
    counter_sums = manybody._counter_sums
    resid_sq, gram = counter_sums(state, orb)
    calls = []

    def counted(*args):
        calls.append(args)
        return counter_sums(*args)

    monkeypatch.setattr(manybody, "_counter_sums", counted)
    sample = manybody.counting_sample(state, orb, table, ham, 0.0)
    assert len(calls) == 1
    assert sample.completeness == math.sqrt(resid_sq)
    assert sample.orthogonality == max(
        abs(complex(gram[j, k])) for j, k in itertools.combinations(range(n + 1), 2))
    assert sample.counting == manybody.expectation_weighted(state, table.m, orb)
    assert sample.trace_dist == manybody.trace_distance(state, orb)


# (3, 64) and (4, 24) are large enough for the coset steps' own rule to cut
# several blocks an axis, ragged at 64
@pytest.mark.parametrize("n,dim", [(2, 13), (3, 9), (4, 6), (3, 64), (4, 24)])
def test_reused_draws_are_the_seed_recipe_bitwise(n, dim):
    gen, ref_gen = np.random.default_rng(6), np.random.default_rng(6)
    draws = manybody.random_symmetric_states(n, dim, gen, 3)
    tensors = []
    for state in draws:
        assert np.array_equal(state.tensor, seed_recipe_state(ref_gen, n, dim))
        tensors.append(state.tensor)
    assert len(tensors) == 3
    # N = 2 reuses one buffer; N >= 3 alternates two, as the next state is
    # prepared in the one the caller is not reading
    assert len({id(t) for t in tensors}) == (1 if n == 2 else 2)
    # the read-ahead stops at the third state
    assert gen.standard_normal() == ref_gen.standard_normal()


@pytest.mark.parametrize("n,dim", [(3, 9), (4, 6)])
def test_read_ahead_under_a_short_switch_interval(n, dim):
    """With the interpreter switching threads every microsecond, each state
    is still the seed recipe's: the helper never writes the yielded buffer."""
    gen, ref_gen = np.random.default_rng(10), np.random.default_rng(10)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for state in manybody.random_symmetric_states(n, dim, gen, 6):
            expected = seed_recipe_state(ref_gen, n, dim)
            assert np.array_equal(state.tensor, expected)
    finally:
        sys.setswitchinterval(interval)
    assert gen.standard_normal() == ref_gen.standard_normal()


class FailingStream:
    """A stream whose draw fails once more than ``limit`` normals are asked
    for; it records the OpenBLAS thread count each draw sees."""

    def __init__(self, limit, blas_threads):
        self.gen = np.random.default_rng(9)
        self.left = limit
        self.blas_threads = blas_threads
        self.seen = []

    def standard_normal(self, out):
        self.seen.append(self.blas_threads())
        self.left -= out.size
        if self.left < 0:
            raise RuntimeError("draw failed")
        self.gen.standard_normal(out=out)


def assert_helper_gone(blas, threads_before):
    assert not [t for t in threading.enumerate() if t.name == "quasi1d-draw"]
    if blas is not None:
        assert blas[0]() == threads_before


@pytest.mark.parametrize("n,dim", [(2, 13), (3, 9), (4, 6)])
def test_failed_draw_reaches_the_caller(n, dim):
    """The second state's draw fails: on the helper thread for N >= 3,
    inline for N = 2.  Its exception comes out of next(), no helper thread
    is left and the BLAS thread count is restored."""
    blas = manybody._openblas_threads()
    blas_threads = blas[0] if blas is not None else lambda: None
    before = blas_threads()
    stream = FailingStream(2 * dim**n, blas_threads)
    draws = manybody.random_symmetric_states(n, dim, stream, 3)
    next(draws)
    with pytest.raises(RuntimeError, match="draw failed"):
        next(draws)
    assert_helper_gone(blas, before)
    if blas is not None:
        assert set(stream.seen) == {1}


def test_failed_sector_draw_reaches_the_caller(bump_correction):
    """The pair-form check's second sector block fails on the helper."""
    ham = manybody.box_hamiltonian(1.8, 6)     # d = 216, blocks of 48 sectors
    blas = manybody._openblas_threads()
    blas_threads = blas[0] if blas is not None else lambda: None
    before = blas_threads()
    stream = FailingStream(manybody._BLOCK * 2 * ham.dim, blas_threads)
    with pytest.raises(RuntimeError, match="draw failed"):
        manybody.random_pair_form(ham, bump_correction, stream)
    assert len(stream.seen) == 2
    assert_helper_gone(blas, before)
    if blas is not None:
        assert set(stream.seen) == {1}


def test_closing_the_draws_joins_the_helper_in_flight():
    """Closed while the helper prepares the second N = 3 state, the draws
    leave no helper thread and restore the BLAS thread count."""
    blas = manybody._openblas_threads()
    before = blas[0]() if blas is not None else None
    gen = np.random.default_rng(11)
    drawing = threading.Event()

    class SlowStream:
        def standard_normal(self, out):
            if threading.current_thread().name == "quasi1d-draw":
                drawing.set()
                time.sleep(0.2)
            gen.standard_normal(out=out)

    draws = manybody.random_symmetric_states(3, 5, SlowStream(), 3)
    next(draws)
    assert drawing.wait(timeout=10)
    assert [t for t in threading.enumerate()
            if t.name == "quasi1d-draw" and t.is_alive()]
    if blas is not None:
        assert blas[0]() == 1
    draws.close()
    assert_helper_gone(blas, before)


def test_draws_without_openblas_are_the_pinned_bits(monkeypatch, bump_correction):
    """Where numpy's bundled OpenBLAS is not found, the draws and the pair
    form give the bits they give with it pinned to one thread.  The second
    run holds the sums on one thread from outside, so only the missing
    library differs between the two."""
    ham = manybody.box_hamiltonian(1.8, 6)     # d = 216: five sector blocks

    def run():
        states = [state.tensor.copy() for state in manybody.random_symmetric_states(
            3, 9, np.random.default_rng(12), 3)]
        pair = manybody.random_pair_form(ham, bump_correction,
                                         np.random.default_rng(13))
        return states, pair

    pinned_states, pinned_pair = run()
    with manybody._OneBlasThread():
        monkeypatch.setattr(manybody, "_openblas_threads", lambda: None)
        states, pair = run()
    assert all(np.array_equal(a, b) for a, b in zip(states, pinned_states))
    assert len(states) == 3
    assert pair == pinned_pair


LINE_256_BYTES = 256**2 * 16      # one N = 2 state on a 256-point line
LINE_64_BYTES = 64**3 * 16        # one N = 3 state on a 64-point line


@pytest.mark.parametrize("n,dim,nbytes", [(3, 64, LINE_64_BYTES),
                                          (2, 256, LINE_256_BYTES)])
def test_warm_counting_sample_allocates_block_scratch_only(n, dim, nbytes):
    grid = gpe1d.Grid1D(2.0 * math.pi, dim)
    bump = scattering.smooth_bump(4.0)
    ham = manybody.line_hamiltonian(grid, pair_potential=lambda r: bump.scaled(r, 1.0),
                                    pair_range=1.0)
    table = manybody.WeightTable.build(n, 0.1)
    orb = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    state = next(manybody.random_symmetric_states(n, dim, np.random.default_rng(3), 1))
    assert state.tensor.nbytes == nbytes
    first = manybody.counting_sample(state, orb, table, ham, 0.5)
    peak, again = traced_peak(
        lambda: manybody.counting_sample(state, orb, table, ham, 0.5))
    assert again == first
    assert peak <= 0.25 * nbytes


def test_second_counting_loop_allocates_no_tensor():
    """Neither the kernels nor the helper preparing the next state allocate
    a tensor once the draw buffers exist.  On the small N = 4 state the
    kernels' block scratch alone is 0.43 of a tensor."""
    for n, dim, share in [(3, 64, 0.25), (4, 24, 0.6)]:
        grid = gpe1d.Grid1D(2.0 * math.pi, dim)
        ham = manybody.line_hamiltonian(grid)
        table = manybody.WeightTable.build(n, 0.2)
        orb = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
        # five states, so the helper prepares one during each of the four samples
        draws = manybody.random_symmetric_states(n, dim, np.random.default_rng(4), 5)

        def loop():
            return [manybody.counting_sample(next(draws), orb, table, ham, 0.5)
                    for _ in range(2)]

        loop()
        peak, samples = traced_peak(loop)
        draws.close()
        assert all(sample.passed for sample in samples)
        assert peak <= share * dim**n * 16
