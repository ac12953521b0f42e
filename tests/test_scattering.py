"""Zero-energy scattering and the compensated shell construction."""

import math

import hypothesis
import numpy as np
import pytest

from quasi1d import scattering
from quasi1d.errors import ConstructionError, DomainError, ResolutionError


def barrier_closed_form(height: float, radius: float = 1.0) -> float:
    # independent oracle: matching sinh inside to r - a outside gives
    # a = R - tanh(kR)/k with k = sqrt(height / 2)
    if height == 0.0:
        return 0.0
    k = math.sqrt(0.5 * height)
    return radius - math.tanh(k * radius) / k


# ---------------------------------------------------------------------------
# potentials


def test_square_barrier_profile():
    w = scattering.square_barrier(10.0, 0.5)
    assert w(0.2) == 10.0
    assert w(0.5) == 10.0
    assert w(0.500001) == 0.0
    assert w.sup_bound == 10.0
    assert w.name == "square_barrier"


def test_smooth_bump_is_smooth_and_compact():
    w = scattering.smooth_bump(3.0)
    assert w(0.0) == pytest.approx(3.0)
    assert w(0.999999) < 1e-6
    assert w(1.0) == 0.0
    r = np.linspace(0.0, 1.0, 400)
    vals = w(r)
    assert np.all(vals >= 0.0)
    assert vals.max() <= 3.0 + 1e-12


def test_tabulated_potential_interpolates():
    w = scattering.tabulated_potential([0.0, 0.5, 1.0], [2.0, 1.0, 0.0])
    assert w(0.25) == pytest.approx(1.5)
    assert w(2.0) == 0.0
    assert w.radius == 1.0


@pytest.mark.parametrize("bad", [
    lambda: scattering.square_barrier(-1.0),
    lambda: scattering.square_barrier(5.0, 1.5),
    lambda: scattering.square_barrier(5.0, 0.0),
    lambda: scattering.smooth_bump(-2.0),
    lambda: scattering.tabulated_potential([0.1, 0.5], [1.0, 0.0]),
    lambda: scattering.tabulated_potential([0.0, 0.5, 0.4], [1.0, 1.0, 0.0]),
    lambda: scattering.tabulated_potential([0.0, 0.5], [-1.0, 0.0]),
    lambda: scattering.tabulated_potential([0.0], [1.0]),
])
def test_invalid_potentials_rejected(bad):
    with pytest.raises(DomainError):
        bad()


def test_radial_potential_guards():
    with pytest.raises(DomainError):
        # declared sup bound too small for the actual values
        scattering.RadialPotential(lambda r: np.full_like(r, 2.0) * (r <= 1.0),
                                   1.0, 1.0)
    with pytest.raises(DomainError):
        # negative values
        scattering.RadialPotential(lambda r: -np.ones_like(r), 1.0, 1.0)
    with pytest.raises(DomainError):
        # does not vanish beyond its support radius
        scattering.RadialPotential(lambda r: np.ones_like(r), 0.5, 1.0)


# ---------------------------------------------------------------------------
# zero-energy solve


def test_barrier_matches_closed_form():
    sol = scattering.solve_zero_energy(scattering.square_barrier(10.0), 0.02)
    assert abs(sol.a - barrier_closed_form(10.0)) < 1e-10
    assert sol.identity_residual < 1e-10
    assert sol.a_mu == pytest.approx(0.02 * sol.a, rel=1e-14)


@pytest.mark.parametrize("height,radius", [
    (0.5, 1.0), (10.0, 1.0), (100.0, 1.0), (10.0, 0.5), (40.0, 0.25),
])
def test_closed_form_across_heights_and_radii(height, radius):
    w = scattering.square_barrier(height, radius)
    sol = scattering.solve_zero_energy(w, 1e-3)
    assert abs(sol.a - barrier_closed_form(height, radius)) < 1e-9


def test_hard_core_limit_monotone_from_below():
    # as the barrier stiffens the scattering length climbs toward the
    # hard-sphere value a = 1 without ever reaching it
    heights = [1e2, 1e4, 1e6]
    values = []
    for v0 in heights:
        sol = scattering.solve_zero_energy(scattering.square_barrier(v0),
                                           1e-3, n_start=8000)
        assert abs(sol.a - barrier_closed_form(v0)) < 1e-10
        assert sol.identity_residual < 1e-6
        values.append(sol.a)
    assert values[0] < values[1] < values[2] < 1.0
    assert values[2] > 0.998


def test_zero_potential_trivial():
    sol = scattering.solve_zero_energy(scattering.zero_potential(), 0.5)
    assert sol.a == 0.0
    assert sol.a_mu == 0.0
    assert sol.identity_residual == 0.0
    np.testing.assert_allclose(sol.j_tilde, sol.r, rtol=0.0, atol=1e-12)


def test_scaling_invariance_in_mu():
    # a_mu = mu * a exactly, so a must not depend on the range
    w = scattering.square_barrier(10.0)
    values = [scattering.solve_zero_energy(w, mu).a
              for mu in (2e-2, 1e-3, 5e-4, 1e-5)]
    assert max(values) - min(values) < 1e-10


def test_interior_solution_matches_sinh():
    # inside a constant barrier the radial solution is sinh(q r) with
    # q = sqrt(V0 / 2) / mu, normalized to unit endpoint slope
    mu, v0 = 0.02, 10.0
    sol = scattering.solve_zero_energy(scattering.square_barrier(v0), mu)
    q = math.sqrt(0.5 * v0) / mu
    exact = np.sinh(q * sol.r) / (q * math.cosh(q * mu))
    np.testing.assert_allclose(sol.j_tilde, exact, rtol=0.0, atol=1e-12)
    # Hermite evaluation between the nodes
    r_mid = np.linspace(0.0, mu, 137)
    exact_mid = np.sinh(q * r_mid) / (q * math.cosh(q * mu))
    np.testing.assert_allclose(sol.j_tilde_at(r_mid), exact_mid,
                               rtol=0.0, atol=1e-10)
    # free region: jt(r) = r - a_mu
    assert sol.j_tilde_at(3.0 * mu) == pytest.approx(3.0 * mu - sol.a_mu,
                                                     rel=1e-12)


def test_j_at_origin_limit():
    mu, v0 = 0.02, 10.0
    sol = scattering.solve_zero_energy(scattering.square_barrier(v0), mu)
    q = math.sqrt(0.5 * v0) / mu
    assert sol.j_at(0.0) == pytest.approx(1.0 / math.cosh(q * mu), abs=1e-10)
    # far field: j -> 1 - a_mu / r
    assert sol.j_at(10.0 * mu) == pytest.approx(1.0 - sol.a_mu / (10.0 * mu),
                                                rel=1e-12)


def test_solution_evaluators_reject_negative_radius():
    sol = scattering.solve_zero_energy(scattering.square_barrier(10.0), 0.02)
    with pytest.raises(DomainError):
        sol.j_tilde_at(-0.1)


def test_solver_error_paths():
    w = scattering.square_barrier(10.0)
    with pytest.raises(DomainError):
        scattering.solve_zero_energy(w, 0.0)
    with pytest.raises(DomainError):
        scattering.solve_zero_energy(w, -1e-3)
    with pytest.raises(ResolutionError):
        scattering.solve_zero_energy(w, 0.02, tol=-1.0)
    with pytest.raises(ResolutionError):
        scattering.solve_zero_energy(w, 0.02, max_halvings=0, tol=0.0)


def test_overflowing_step_raises_resolution_error():
    # every step's transfer matrix overflows at this height: the solve names
    # the first pair of steps instead of warning and dividing by inf
    with pytest.raises(ResolutionError, match="steps 1-2 of 2000"):
        scattering.solve_zero_energy(scattering.square_barrier(1e300), 1e-3)


def _sequential_rk4_table(w_left, w_mids, w_right, h):
    """The per-step loop that the blocked transfer-matrix product replaced,
    kept unchanged as its reference."""
    n = w_mids.size
    f = np.empty(n + 1)
    fp = np.empty(n + 1)
    fi, gi = 0.0, 1.0
    f[0], fp[0] = fi, gi
    for i in range(n):
        c0 = 0.5 * w_left[i]
        cm = 0.5 * w_mids[i]
        c1 = 0.5 * w_right[i]
        k1f = gi
        k1g = c0 * fi
        k2f = gi + 0.5 * h * k1g
        k2g = cm * (fi + 0.5 * h * k1f)
        k3f = gi + 0.5 * h * k2g
        k3g = cm * (fi + 0.5 * h * k2f)
        k4f = gi + h * k3g
        k4g = c1 * (fi + h * k3f)
        fi += h / 6.0 * (k1f + 2.0 * k2f + 2.0 * k3f + k4f)
        gi += h / 6.0 * (k1g + 2.0 * k2g + 2.0 * k3g + k4g)
        if abs(gi) > 1e250:
            scale = abs(gi)
            f[: i + 1] /= scale
            fp[: i + 1] /= scale
            fi /= scale
            gi /= scale
        f[i + 1] = fi
        fp[i + 1] = gi
    return f, fp


def test_blocked_table_matches_sequential_loop():
    # heights up to 1e6 grow the solution past the loop's 1e250 rescale;
    # step counts run from one two-step block up, most of them not a
    # multiple of the ceil(sqrt(n)) block.  tol = inf stops the solve at
    # its first halving, so the compared table has 2 n_start steps.
    # Entries below the normal range (2.2e-308) hold fewer bits in both
    # tables, so they are compared to that absolute level.
    st = hypothesis.strategies
    kinds = {
        "barrier": scattering.square_barrier,
        "bump": scattering.smooth_bump,
        "table": lambda height, radius: scattering.tabulated_potential(
            [0.0, 0.3 * radius, 0.7 * radius, radius],
            [0.2 * height, height, 0.5 * height, 0.0]),
    }

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.example(kind="barrier", log_height=6.0, radius=1.0, mu=1e-3,
                        n_start=1)
    @hypothesis.example(kind="barrier", log_height=6.0, radius=1.0, mu=1e-3,
                        n_start=2000)
    @hypothesis.given(kind=st.sampled_from(sorted(kinds)),
                      log_height=st.floats(math.log10(0.5), 6.0),
                      radius=st.floats(0.25, 1.0), mu=st.floats(1e-5, 0.5),
                      n_start=st.one_of(st.integers(1, 8), st.integers(9, 3000)))
    def check(kind, log_height, radius, mu, n_start):
        w = kinds[kind](10.0**log_height, radius)

        def solve():
            return scattering.solve_zero_energy(w, mu, tol=math.inf,
                                                n_start=n_start, max_halvings=1)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scattering, "_rk4_table", _sequential_rk4_table)
            ref = solve()
        sol = solve()
        assert sol.steps == ref.steps == 2 * n_start
        # a_mu = mu - jt(mu)/jt'(mu) cancels by mu/a_mu (about 800 for the
        # weakest draws), so it is held to 1e-12 of mu where that is looser
        assert sol.a_mu == pytest.approx(ref.a_mu, rel=1e-12, abs=1e-12 * mu)
        tiny = np.finfo(float).tiny
        np.testing.assert_allclose(sol.j_tilde, ref.j_tilde, rtol=1e-12, atol=tiny)
        np.testing.assert_allclose(sol.j_tilde_prime, ref.j_tilde_prime,
                                   rtol=1e-12, atol=tiny)

    check()


# ---------------------------------------------------------------------------
# shell correction


@pytest.fixture(scope="module")
def barrier_correction():
    sol = scattering.solve_zero_energy(scattering.square_barrier(10.0), 1e-3)
    return scattering.build_correction(sol, 0.9)


def test_kappa_window(barrier_correction):
    corr = barrier_correction
    mu, a = corr.mu, corr.a
    upper = corr.inner_radius / (corr.inner_radius - mu * a)
    assert 1.0 < corr.kappa < upper


def test_tangency_residuals(barrier_correction):
    assert barrier_correction.tangency_value_residual < 1e-10
    assert barrier_correction.tangency_slope_residual < 1e-10


def test_profile_is_c1_at_the_seams(barrier_correction):
    corr = barrier_correction
    for seam in (corr.mu, corr.inner_radius, corr.outer_radius):
        h = 1e-7 * seam
        left, mid, right = corr.f(seam - h), corr.f(seam), corr.f(seam + h)
        assert abs(left - mid) < 1e-6 * max(1.0, abs(mid))
        assert abs(right - mid) < 1e-6 * max(1.0, abs(mid))
        # one-sided slopes agree (the seam is tangent, not just continuous)
        slope_l = (mid - left) / h
        slope_r = (right - mid) / h
        assert abs(slope_l - slope_r) <= 1e-3 * max(1.0, abs(slope_l))


def test_profile_shape(barrier_correction):
    corr = barrier_correction
    r = np.linspace(0.0, 1.2 * corr.outer_radius, 4001)[1:]
    f = corr.f(r)
    assert np.all(f >= 0.0)
    assert np.all(f <= 1.0 + 1e-12)
    assert np.all(np.diff(f) >= -1e-12)          # nondecreasing
    assert corr.f(1.5 * corr.outer_radius) == 1.0
    # f exceeds the bare solution on the core: the shell pays back later
    core = np.linspace(1e-5, corr.mu, 100)
    j = corr.solution.j_at(core)
    assert np.all(corr.f(core) >= j - 1e-14)


def test_correction_potential_shape(barrier_correction):
    corr = barrier_correction
    assert corr.u_potential(0.5 * (corr.inner_radius + corr.outer_radius)) \
        == corr.shell_height
    assert corr.u_potential(corr.inner_radius) == 0.0
    assert corr.u_potential(corr.outer_radius) == 0.0
    assert corr.u_potential(2.0 * corr.outer_radius) == 0.0
    assert corr.shell_height == pytest.approx(
        corr.a * corr.mu ** (1.0 - 3.0 * 0.9), rel=1e-14)


def test_neutrality_and_linearity(barrier_correction):
    corr = barrier_correction
    a_mu = corr.solution.a_mu
    base = scattering.neutrality_residual(corr)
    assert abs(base) / (8.0 * math.pi * a_mu) < 1e-10
    # the residual is the core term int w_mu f dz = kappa 8 pi a_mu, linear
    # in the core amplitude, less the shell's mu * shell_coupling
    core = base + corr.mu * scattering.shell_coupling(corr)
    assert core == pytest.approx(corr.kappa * 8.0 * math.pi * a_mu, rel=1e-6)


def test_shell_coupling_identity(barrier_correction):
    corr = barrier_correction
    target = corr.kappa * 8.0 * math.pi * corr.a
    assert scattering.shell_coupling(corr) == pytest.approx(target, rel=1e-8)


def test_g_bounds(barrier_correction):
    diag = scattering.g_norm_diagnostics(barrier_correction)
    assert diag.sup_ok
    assert diag.sup_max_ratio <= 1.0 + 1e-9
    assert diag.l2_norm > 0.0


def test_sweep_stability_across_mu():
    # outer radius ~ mu^bt, kappa - 1 ~ mu^(1 - bt), ||g|| ~ mu^(1 + bt/2):
    # the normalized ratios must stay flat as the range shrinks
    w = scattering.square_barrier(10.0)
    beta = 0.9
    r_ratios, excesses, l2_ratios = [], [], []
    for mu in (1e-3, 1e-4, 1e-5):
        sol = scattering.solve_zero_energy(w, mu)
        corr = scattering.build_correction(sol, beta)
        r_ratios.append(corr.outer_radius / mu**beta)
        excesses.append((corr.kappa - 1.0) / mu ** (1.0 - beta))
        l2 = scattering.g_norm_diagnostics(corr).l2_norm
        l2_ratios.append(l2 / mu ** (1.0 + 0.5 * beta))
    for seq in (r_ratios, excesses, l2_ratios):
        spread = (max(seq) - min(seq)) / (sum(seq) / len(seq))
        assert spread < 0.2


def test_trivial_correction_for_zero_potential():
    sol = scattering.solve_zero_energy(scattering.zero_potential(), 1e-3)
    corr = scattering.build_correction(sol, 0.9)
    assert corr.kappa == 1.0
    assert corr.shell_height == 0.0
    r = np.linspace(0.0, 1.0, 50)
    np.testing.assert_array_equal(corr.f(r), np.ones_like(r))
    assert scattering.neutrality_residual(corr) == 0.0
    assert scattering.shell_coupling(corr) == 0.0
    diag = scattering.g_norm_diagnostics(corr)
    assert diag.l2_norm == 0.0 and diag.sup_ok


def test_correction_error_paths():
    sol = scattering.solve_zero_energy(scattering.square_barrier(10.0), 1e-3)
    for beta in (0.2, 1.0, 1.0 / 3.0):
        with pytest.raises(DomainError):
            scattering.build_correction(sol, beta)
    # the construction lives strictly below range one
    sol_wide = scattering.solve_zero_energy(scattering.square_barrier(10.0), 1.0)
    with pytest.raises(DomainError):
        scattering.build_correction(sol_wide, 0.9)
    # a fabricated attractive solution is refused
    import dataclasses
    fake = dataclasses.replace(sol, a_mu=-1e-4, a=-0.1)
    with pytest.raises(DomainError):
        scattering.build_correction(fake, 0.9)


def test_correction_on_smooth_bump():
    sol = scattering.solve_zero_energy(scattering.smooth_bump(40.0), 1e-3)
    assert sol.a > 0.0
    corr = scattering.build_correction(sol, 0.85)
    assert 1.0 < corr.kappa
    rel = abs(scattering.neutrality_residual(corr)) \
        / (8.0 * math.pi * sol.a_mu)
    assert rel < 1e-8
