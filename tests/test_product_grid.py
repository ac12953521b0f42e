"""The product grid against the tables each grid level used to build by hand.

The line, the transverse plane, the 3d tube and the N-body one-particle
spaces all take their k^2, volume element, coordinate mesh and pair
distances from gpe1d.ProductGrid.  Here those are rebuilt from fftfreq,
meshgrid and a (d, ndim) coordinate array, one level at a time; the pair
distances are the offset table the N-body kernels read, spread over all
site pairs.
"""

import math

import numpy as np

from oracles import coords_of, hand_distances, site_pair_matrix
from quasi1d import confined3d, gpe1d, manybody, scattering, transverse


def hand_k(length, n):
    return 2.0 * math.pi * np.fft.fftfreq(n, length / n)


def hand_axis(length, n):
    return (np.arange(n) - n // 2) * (length / n)


def offset_distances(ham):
    """The kernels' distance table, (d, d) over all site pairs."""
    return site_pair_matrix(ham, ham._offset_distances())


def test_product_grid_matches_hand_built_tables():
    # the line
    line = gpe1d.Grid1D(6.0, 10)
    grid = gpe1d.ProductGrid((line,))
    assert grid.shape == (10,)
    assert grid.dvol == line.dvol == 6.0 / 10
    np.testing.assert_array_equal(grid.k_squared(), hand_k(6.0, 10) ** 2)
    np.testing.assert_array_equal(grid.mesh()[0], hand_axis(6.0, 10))

    # the plane of ground_state_2d and the tube of a 3d run, with its plane
    tube = confined3d.make_grid(16.0, 64, 13.0, 48, 0.5)
    kx2 = hand_k(16.0, 64) ** 2
    ky2 = hand_k(6.5, 48) ** 2
    x, y = hand_axis(16.0, 64), hand_axis(6.5, 48)
    side = gpe1d.Grid1D(6.5, 48)
    for plane in (gpe1d.ProductGrid((side, side)), tube.plane):
        assert plane.shape == (48, 48)
        assert plane.dvol == (6.5 / 48) * (6.5 / 48)
        np.testing.assert_array_equal(plane.k_squared(),
                                      ky2[:, None] + ky2[None, :])
        for got, ref in zip(plane.mesh(), np.meshgrid(y, y, indexing="ij")):
            np.testing.assert_array_equal(got, ref)
    assert tube.shape == (64, 48, 48)
    assert tube.dvol == (16.0 / 64) * (6.5 / 48) * (6.5 / 48)
    np.testing.assert_array_equal(
        tube.k_squared(),
        kx2[:, None, None] + ky2[None, :, None] + ky2[None, None, :])
    for got, ref in zip(tube.mesh(), np.meshgrid(x, y, y, indexing="ij")):
        np.testing.assert_array_equal(got, ref)
    for got, ref in zip(tube.mesh(sparse=True),
                        (x[:, None, None], y[None, :, None], y[None, None, :])):
        np.testing.assert_array_equal(got, ref)
    yb = y / 0.5
    y1, y2 = np.meshgrid(yb, yb, indexing="ij")
    np.testing.assert_array_equal(
        confined3d._confinement(tube.axes[1], 0.5, transverse.harmonic_profile),
        transverse.harmonic_profile(y1, y2) / 0.5**2)


def test_hamiltonian_grids_match_hand_built_tables():
    # the line: bit-identical distances
    line = gpe1d.Grid1D(8.0, 8)
    ham = manybody.line_hamiltonian(line)
    np.testing.assert_array_equal(ham.grid.k_squared(), hand_k(8.0, 8) ** 2)
    np.testing.assert_array_equal(
        offset_distances(ham), hand_distances(hand_axis(8.0, 8)[:, None], (8.0,)))

    # the confined box: bit-identical tables and distances
    base = transverse.ground_state_2d(transverse.harmonic_profile,
                                      extent=12.0, n=12, boundary_tol=1e-3)
    mode = transverse.rescale_mode(base, 0.5)
    x_grid = gpe1d.Grid1D(6.0, 4)
    ham = manybody.confined_hamiltonian(x_grid, mode, transverse.harmonic_profile,
                                        v_par=lambda t, x: 0.5 * x**2)
    x, y = hand_axis(6.0, 4), hand_axis(mode.y.length, mode.y.n)
    np.testing.assert_array_equal(mode.y.x, y)
    kx, ky = hand_k(6.0, 4), hand_k(mode.y.length, mode.y.n)
    assert ham.grid.shape == (4, 12, 12)
    np.testing.assert_array_equal(
        ham.grid.k_squared(),
        kx[:, None, None] ** 2 + ky[None, :, None] ** 2 + ky[None, None, :] ** 2)
    y1, y2 = np.meshgrid(y / 0.5, y / 0.5, indexing="ij")
    conf = transverse.harmonic_profile(y1, y2) / 0.5**2
    np.testing.assert_array_equal(
        ham.v_diag, (0.5 * x[:, None, None] ** 2 + conf[None, :, :]).ravel())
    np.testing.assert_array_equal(
        offset_distances(ham),
        hand_distances(coords_of(x, y, y), (6.0, mode.y.length, mode.y.length)))

    # the bare cube: the hand-built sites start at 0 and the table takes each
    # offset as a whole number of spacings, so the distances differ by
    # round-off and the |z1 - z2| < R mask not at all
    ham = manybody.box_hamiltonian(1.8, 12)
    k = hand_k(1.8, 12)
    np.testing.assert_array_equal(
        ham.grid.k_squared(),
        k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2)
    for axis in ham.grid.axes:
        np.testing.assert_array_equal(
            manybody._derivative_matrix(axis),
            np.fft.ifft(1j * k[:, None] * np.fft.fft(np.eye(12), axis=0), axis=0))
    site = (1.8 / 12) * np.arange(12)
    ref = hand_distances(coords_of(site, site, site), (1.8, 1.8, 1.8))
    dist = offset_distances(ham)
    assert np.max(np.abs(dist - ref)) <= 1e-15
    sol = scattering.solve_zero_energy(scattering.smooth_bump(40.0), 0.64)
    radius = scattering.build_correction(sol, 0.9).outer_radius
    np.testing.assert_array_equal(dist < radius, ref < radius)
