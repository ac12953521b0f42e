"""Transverse confinement modes: oracles, invariants, rescaling."""

import dataclasses
import math

import numpy as np
import pytest

from quasi1d import gpe1d, transverse
from quasi1d.errors import (DomainError, GridTooSmallError, InterfaceError,
                            ResolutionError)


@pytest.fixture(scope="module")
def harmonic_mode():
    return transverse.ground_state_2d(transverse.harmonic_profile)


def grid_quantities(mode):
    h = mode.y.dx
    k = 2.0 * math.pi * np.fft.fftfreq(mode.y.n, h)
    k2 = k[:, None] ** 2 + k[None, :] ** 2
    y = mode.y.x
    y1, y2 = np.meshgrid(y, y, indexing="ij")
    return h * h, k2, y1, y2


def test_harmonic_oracle(harmonic_mode):
    mode = harmonic_mode
    # closed form in hbar = 1, m = 1/2 units: E0 = 2, chi = exp(-|y|^2/2)/sqrt(pi)
    assert abs(mode.E0 - 2.0) < 1e-9
    assert abs(mode.quartic - 1.0 / (2.0 * math.pi)) < 1e-9
    da, _k2, y1, y2 = grid_quantities(mode)
    exact = np.exp(-0.5 * (y1**2 + y2**2)) / math.sqrt(math.pi)
    assert np.max(np.abs(mode.chi - exact)) < 1e-8
    assert abs(float(np.sum(mode.chi**2)) * da - 1.0) < 1e-12
    assert np.all(mode.chi >= -1e-12)


def test_anisotropic_harmonic_oracle():
    # V = w1^2 y1^2 + w2^2 y2^2 with w1 = 1, w2 = 2: E0 = w1 + w2 and
    # int |chi|^4 = sqrt(w1 w2) / (2 pi), so b = 8 pi a sqrt(2) / (2 pi)
    mode = transverse.ground_state_2d(lambda y1, y2: y1**2 + 4.0 * y2**2,
                                      extent=13.0, n=96)
    assert abs(mode.E0 - 3.0) < 1e-10
    assert abs(mode.quartic - math.sqrt(2.0) / (2.0 * math.pi)) < 1e-10
    assert transverse.coupling_b(0.5, mode) == pytest.approx(
        2.0 * math.sqrt(2.0), rel=1e-10)


def test_virial_balance(harmonic_mode):
    mode = harmonic_mode
    da, k2, y1, y2 = grid_quantities(mode)
    chi_hat = np.fft.fft2(mode.chi)
    kinetic = float(np.sum(k2 * np.abs(chi_hat) ** 2)) * da / mode.chi.size
    potential = float(np.sum((y1**2 + y2**2) * mode.chi**2)) * da
    assert abs(kinetic - potential) < 1e-6
    assert abs(kinetic + potential - mode.E0) < 1e-9


def test_constant_shift_is_exact_gauge(harmonic_mode):
    shifted = transverse.ground_state_2d(lambda y1, y2: y1**2 + y2**2 + 3.5)
    assert abs(shifted.E0 - harmonic_mode.E0 - 3.5) < 1e-10
    assert np.max(np.abs(shifted.chi - harmonic_mode.chi)) < 1e-10


def _stiff_plane():
    # stiffened trap so the seed state is not already the minimizer
    plane = gpe1d.ProductGrid((gpe1d.Grid1D(16.0, 128),) * 2)
    y1, y2 = plane.mesh()
    return (np.exp(-0.5 * (y1**2 + y2**2)), plane.k_squared(), plane.dvol,
            4.0 * (y1**2 + y2**2), 0.0)


def test_energy_history_monotone():
    _, energies = gpe1d._ground_state(*_stiff_plane())
    assert np.all(np.diff(energies) <= 1e-12)     # round-off slack only
    assert energies[0] > energies[-1]
    assert abs(energies[-1] - 4.0) < 1e-9  # E0 scales as sqrt(c) * 2


def test_grid_refinement_stability():
    coarse = transverse.ground_state_2d(transverse.harmonic_profile, n=96)
    fine = transverse.ground_state_2d(transverse.harmonic_profile, n=128)
    assert abs(coarse.E0 - fine.E0) < 1e-9
    assert abs(coarse.quartic - fine.quartic) < 1e-9


def test_smooth_well_binds_below_plateau():
    depth, radius = 8.0, 2.0
    width = 0.25 * radius

    def well(y1, y2):
        r = np.sqrt(y1**2 + y2**2)
        return depth * 0.5 * (1.0 + np.tanh((r - radius) / width))

    mode = transverse.ground_state_2d(well, extent=20.0, n=160)
    assert 0.0 < mode.E0 < depth


def test_rescale_identities(harmonic_mode):
    eps = 0.1
    scaled = transverse.rescale_mode(harmonic_mode, eps)
    assert scaled.E0 == harmonic_mode.E0 / eps**2
    assert scaled.y.length == pytest.approx(harmonic_mode.y.length * eps)
    assert abs(eps**2 * scaled.quartic - harmonic_mode.quartic) < 1e-12
    da = scaled.y.dx**2
    assert abs(float(np.sum(scaled.chi**2)) * da - 1.0) < 1e-12
    with pytest.raises(InterfaceError):
        transverse.rescale_mode(scaled, 0.5)    # already rescaled
    with pytest.raises(DomainError):
        transverse.rescale_mode(harmonic_mode, 0.0)


def test_coupling_b(harmonic_mode):
    a = 0.37
    b = transverse.coupling_b(a, harmonic_mode)
    assert b == pytest.approx(4.0 * a, abs=1e-8)
    assert transverse.coupling_b(0.0, harmonic_mode) == 0.0
    with pytest.raises(DomainError):
        transverse.coupling_b(-0.1, harmonic_mode)
    # a consistent rescaled mode reproduces the base coupling ...
    scaled = transverse.rescale_mode(harmonic_mode, 0.25)
    assert transverse.coupling_b(a, scaled) == pytest.approx(b, rel=1e-10)
    # ... and a tampered one is rejected
    broken = dataclasses.replace(scaled, base_quartic=scaled.base_quartic * 2.0)
    with pytest.raises(InterfaceError):
        transverse.coupling_b(a, broken)


def test_box_too_small_raises():
    with pytest.raises(GridTooSmallError):
        transverse.ground_state_2d(transverse.harmonic_profile, extent=6.0,
                                   n=64)


def test_domain_errors():
    with pytest.raises(DomainError):
        transverse.ground_state_2d(transverse.harmonic_profile, n=65)
    with pytest.raises(DomainError):
        transverse.ground_state_2d(transverse.harmonic_profile, n=2)
    with pytest.raises(DomainError):
        transverse.ground_state_2d(
            lambda y1, y2: np.where(y1 == 0.0, np.inf, y1**2 + y2**2))


def test_ground_state_step_cap_respected(monkeypatch):
    monkeypatch.setattr(gpe1d, "MAX_ITERS", 2)
    with pytest.raises(ResolutionError, match="after 2 steps"):
        gpe1d._ground_state(*_stiff_plane())
