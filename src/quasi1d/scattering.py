"""Zero-energy two-body scattering and the compensated shell construction.

Units: hbar = 1, m = 1/2.  A repulsive pair interaction of microscopic range
``mu`` is described by ``w_mu(z) = w(z/mu) / mu**2`` with ``w`` radial,
non-negative and supported in the unit ball.  The zero-energy state solves

    (-Laplace + w_mu / 2) j = 0,        j(|z| -> inf) = 1,

which after the radial substitution jt(r) = r * j(r) becomes

    jt'' = (1/2) w_mu(r) jt,            jt(0) = 0,

with jt(r) = r - a_mu outside the support.  ``a_mu`` is the scattering
length; it obeys the integral identity 8 pi a_mu = int w_mu j dz and the
exact scaling a_mu = mu * a where ``a`` is the scattering length of ``w``.

The equation is linear, so each fixed RK4 step of (jt, jt') is a 2x2
transfer matrix.  The solve builds all of them in one vectorized pass and
multiplies them out as a blocked prefix product (blocks of ceil(sqrt(n))
steps taken in pairs, power-of-two scales summed as exponents), so no
Python loop runs per step.

The shell construction trades the singular short-range repulsion for a soft
negative correction: a constant potential of height ``a * mu**(1 - 3*bt)``
on the shell mu**bt < r < R is subtracted from w_mu, and the compensated
zero-energy state f (with f = 1 outside R) then has zero scattering length,
``int (w_mu - U) f dz = 0``.  On the shell the radial solution is a pure
sine/cosine combination; the outer radius R and the inner amplitude kappa
are fixed by requiring value and slope tangency to the free solution at R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConstructionError, DomainError, ResolutionError

__all__ = [
    "RadialPotential",
    "square_barrier",
    "smooth_bump",
    "zero_potential",
    "tabulated_potential",
    "ScatteringSolution",
    "solve_zero_energy",
    "CorrectionProfile",
    "build_correction",
    "neutrality_residual",
    "shell_coupling",
    "g_norm_diagnostics",
    "GNormDiagnostics",
]


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True, eq=False)
class RadialPotential:
    """Radial pair potential in unscaled units, supported in r <= radius.

    ``profile`` must be vectorized and non-negative, with values bounded by
    ``sup_bound`` and vanishing beyond ``radius`` (radius <= 1 keeps the
    scaled potential supported inside r <= mu).
    """

    profile: Callable[[np.ndarray], np.ndarray]
    radius: float
    sup_bound: float
    name: str = "custom"

    def __post_init__(self) -> None:
        if not 0.0 < self.radius <= 1.0:
            raise DomainError(f"support radius must lie in (0, 1], got {self.radius}")
        if self.sup_bound < 0.0:
            raise DomainError("sup_bound must be non-negative")
        rs = np.linspace(0.0, self.radius, 257)
        vals = np.asarray(self.profile(rs), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise DomainError(f"potential '{self.name}' takes non-finite values")
        if vals.min() < 0.0:
            raise DomainError(f"potential '{self.name}' must be non-negative (repulsive)")
        if vals.max() > self.sup_bound * (1.0 + 1e-12) + 1e-300:
            raise DomainError(f"potential '{self.name}' exceeds its declared sup_bound")
        beyond = np.asarray(self.profile(np.array([self.radius * 1.0001 + 1e-9, 2.0])))
        if np.any(beyond != 0.0):
            raise DomainError(f"potential '{self.name}' must vanish beyond its radius")

    def __call__(self, r) -> np.ndarray:
        return np.asarray(self.profile(np.asarray(r, dtype=float)), dtype=float)

    def scaled(self, r, mu: float) -> np.ndarray:
        """w_mu(r) = w(r / mu) / mu**2."""
        return self(np.asarray(r, dtype=float) / mu) / mu**2


def square_barrier(height: float, radius: float = 1.0) -> RadialPotential:
    """Constant repulsive core of the given height on r <= radius."""
    if height < 0.0:
        raise DomainError("barrier height must be non-negative")

    def profile(r: np.ndarray) -> np.ndarray:
        return np.where(r <= radius, float(height), 0.0)

    return RadialPotential(profile, radius, float(height), name="square_barrier")


def smooth_bump(height: float, radius: float = 1.0) -> RadialPotential:
    """Compactly supported C-infinity bump, height * exp(1 - 1/(1 - (r/radius)^2))."""
    if height < 0.0:
        raise DomainError("bump height must be non-negative")

    def profile(r: np.ndarray) -> np.ndarray:
        x = np.asarray(r, dtype=float) / radius
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0
        xi = x[inside]
        out[inside] = height * np.exp(1.0 - 1.0 / (1.0 - xi * xi))
        return out

    return RadialPotential(profile, radius, float(height), name="smooth_bump")


def zero_potential() -> RadialPotential:
    """The free case w = 0 (scattering length zero)."""
    return RadialPotential(lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                           1.0, 0.0, name="zero")


def tabulated_potential(r_samples, values, name: str = "tabulated") -> RadialPotential:
    """Linearly interpolated radial table; zero beyond the last sample."""
    rs = np.asarray(r_samples, dtype=float)
    vs = np.asarray(values, dtype=float)
    if rs.ndim != 1 or rs.size < 2 or rs.shape != vs.shape:
        raise DomainError("tabulated potential needs matching 1d sample arrays")
    if rs[0] != 0.0 or np.any(np.diff(rs) <= 0.0):
        raise DomainError("radial samples must start at 0 and increase strictly")
    if vs.min() < 0.0:
        raise DomainError("tabulated potential must be non-negative")

    def profile(r: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(r, dtype=float), rs, vs, left=vs[0], right=0.0)

    return RadialPotential(profile, float(rs[-1]), float(vs.max()), name=name)


# ---------------------------------------------------------------------------
# zero-energy solve


def _simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson rule; y sampled on an even number of equal intervals."""
    if y.size < 3 or y.size % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of nodes")
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


def _rk4_increment(f, g, c0, cm, c1, h):
    """One classical RK4 step of f' = g, g' = c f from (f, g), less (f, g):
    c is c0 at the step's left edge, cm at its middle and c1 at its right."""
    k1f = g
    k1g = c0 * f
    k2f = g + 0.5 * h * k1g
    k2g = cm * (f + 0.5 * h * k1f)
    k3f = g + 0.5 * h * k2g
    k3g = cm * (f + 0.5 * h * k2f)
    k4f = g + h * k3g
    k4g = c1 * (f + h * k3f)
    return (h / 6.0 * (k1f + 2.0 * k2f + 2.0 * k3f + k4f),
            h / 6.0 * (k1g + 2.0 * k2g + 2.0 * k3g + k4g))


def _rk4_table(w_left: np.ndarray, w_mids: np.ndarray, w_right: np.ndarray,
               h: float):
    """Integrate jt'' = (w/2) jt from (0, 1) slope data; returns value/slope tables.

    The endpoint coefficients are sampled per step (one-sided limits at the
    cell edges), so a potential with a jump sitting on a node is seen as
    exactly constant within each cell and the scheme keeps its full order.

    The equation is linear, so RK4 step i maps the state (jt, jt') by a 2x2
    transfer matrix I + D_i, and the table is the prefix products of those
    matrices applied to (0, 1).  All D_i (column k: the increment from the
    k-th unit state) come from one vectorized pass, and so do the two-step
    matrices I + D_{2k} + D_{2k+1} + D_{2k+1} D_{2k}.  A product is held as
    s I + X with s a power of two, and D X and s D are added to X, so the
    small increments keep their own precision as in a sequential step and
    identical blocks (a constant potential) do not repeat one rounding of
    a product that is nearly I.

    The products run in blocks of ceil(sqrt(n)) steps (rounded up to whole
    pairs): one loop over the pair within a block, vectorized across
    blocks, forms each block's cumulative products at its even nodes; one
    vectorized step fills the odd nodes; one short pass carries the state
    across the blocks; one broadcast assembles the table.  Every product
    and carried state is scaled by a power of two after each pair, and the
    exponents are summed, so a strongly repulsive core that grows the
    solution by hundreds of decades neither overflows nor rounds in the
    scaling.  The table comes out scaled so that its largest exponent is 0,
    and early nodes of a hard core may underflow to 0; only ratios of the
    returned values are ever used.  A pair of steps whose increments
    overflow raises ResolutionError naming it.
    """
    n = w_mids.size
    half = (math.isqrt(n - 1) + 2) // 2                # ceil(ceil(sqrt(n)) / 2)
    blocks = -(-n // (2 * half))
    # d[..., i]: D_i, padded with identity steps; the two-step increment of
    # each pair replaces the pair's second D
    d = np.zeros((2, 2, blocks, half, 2))
    flat = d.reshape(2, 2, -1)
    first, pair = d[..., 0], d[..., 1]
    with np.errstate(over="ignore", invalid="ignore"):
        flat[0, 0, :n], flat[1, 0, :n] = _rk4_increment(
            1.0, 0.0, 0.5 * w_left, 0.5 * w_mids, 0.5 * w_right, h)
        flat[0, 1, :n], flat[1, 1, :n] = _rk4_increment(
            0.0, 1.0, 0.5 * w_left, 0.5 * w_mids, 0.5 * w_right, h)
        pair += first + np.einsum("abkj,bckj->ackj", pair, first)
        # |row sums| bound D X when X's entries are at most 1, so finite row
        # sums keep every product of the scan finite
        finite = np.isfinite(np.abs(pair).sum(axis=1)).all(axis=0).ravel()
    if not finite.all():
        i = 2 * int(np.argmin(finite))
        raise ResolutionError(
            f"zero-energy RK4 steps {i + 1}-{min(i + 2, n)} of {n} (r = "
            f"{i * h:.6g} to {min(i + 2, n) * h:.6g}) overflow; the potential "
            f"is too strong for its step")

    # in-block products s I + X after each pair, X stored in place of the
    # pair's increment; s and the summed exponents per node
    diag = np.ones((blocks, half, 2))
    exps = np.zeros((blocks, half, 2), dtype=np.int64)
    x = np.zeros((2, 2, blocks))
    s = np.ones(blocks)
    for j in range(half):
        dj = pair[..., j]
        x += np.einsum("abk,bck->ack", dj, x)
        x += s * dj
        top = np.frexp(np.maximum(np.abs(x).max(axis=(0, 1)), s))[1]
        scale = np.ldexp(1.0, -top)
        x *= scale
        s *= scale
        dj[...] = x
        diag[:, j, 1] = s
        exps[:, j, 1] = top
    np.cumsum(exps[..., 1], axis=1, out=exps[..., 1])

    # the odd nodes: one step (I + D) from the previous pair's end, keeping
    # its scale; from I at a block's start, where the node is I + D itself
    diag[:, 1:, 0] = diag[:, :-1, 1]
    exps[:, 1:, 0] = exps[:, :-1, 1]
    prev, step = pair[..., :-1], first[..., 1:]
    first[..., 1:] = (prev + diag[:, :-1, 1] * step
                      + np.einsum("abkj,bckj->ackj", step, prev))
    xs = flat.reshape(2, 2, blocks, 2 * half)
    diag = diag.reshape(blocks, 2 * half)
    exps = exps.reshape(blocks, 2 * half)

    # the state at each block's start, carried from (0, 1)
    starts = np.empty((2, blocks))
    start_exps = np.empty(blocks, dtype=np.int64)
    f, g, e = 0.0, 1.0, 0
    ends = zip(xs[..., -1].transpose(2, 0, 1).tolist(), diag[:, -1].tolist(),
               exps[:, -1].tolist())
    for b, (((x00, x01), (x10, x11)), sb, eb) in enumerate(ends):
        starts[:, b], start_exps[b] = (f, g), e
        f, g = sb * f + (x00 * f + x01 * g), sb * g + (x10 * f + x11 * g)
        top = math.frexp(max(abs(f), abs(g)))[1]
        f, g, e = math.ldexp(f, -top), math.ldexp(g, -top), e + eb + top

    values = np.einsum("abkj,bk->akj", xs, starts) + diag * starts[:, :, None]
    values = values.reshape(2, -1)[:, :n]
    exps = (exps + start_exps[:, None]).reshape(-1)[:n]
    top = max(int(exps.max()), 0)
    table = np.empty((2, n + 1))
    table[:, 0] = 0.0, math.ldexp(1.0, -top)
    table[:, 1:] = np.ldexp(values, exps - top)
    return table[0], table[1]


@dataclass(frozen=True, eq=False)
class ScatteringSolution:
    """Zero-energy radial solution jt(r) = r * j(r) on [0, mu], plus lengths.

    The table is normalized so that jt(r) = r - a_mu with unit slope holds
    at and beyond the support edge.  ``identity_residual`` is the relative
    gap between 8 pi a_mu and Simpson's rule for the source integral
    4 pi int w_mu jt r dr on the nodes of the RK4 table.  It measures how
    well that rule resolves the integrand, not the error of a: inside a
    hard core jt grows on a boundary layer of width about 1/q, q^2 = w_mu/2,
    which the table's step need not resolve.  For the square barrier (any
    mu) it is 1.4e-9 at height 1e4, 1.2e-5 at 1e6 and 5.3e3 at 1e50, where
    a = 1.0 is right to round-off.
    """

    potential: RadialPotential
    mu: float
    a_mu: float
    a: float
    r: np.ndarray
    j_tilde: np.ndarray
    j_tilde_prime: np.ndarray
    identity_residual: float
    steps: int

    def j_tilde_at(self, r) -> np.ndarray:
        """Evaluate jt anywhere; cubic Hermite inside the table, linear outside."""
        rq = np.asarray(r, dtype=float)
        scalar = rq.ndim == 0
        rq = np.atleast_1d(rq)
        if np.any(rq < 0.0):
            raise DomainError("radius must be non-negative")
        out = rq - self.a_mu
        inside = rq <= self.mu
        if np.any(inside):
            ri = rq[inside]
            h = self.r[1] - self.r[0]
            idx = np.clip((ri / h).astype(int), 0, self.r.size - 2)
            t = (ri - self.r[idx]) / h
            t2 = t * t
            t3 = t2 * t
            out[inside] = ((2.0 * t3 - 3.0 * t2 + 1.0) * self.j_tilde[idx]
                           + (t3 - 2.0 * t2 + t) * h * self.j_tilde_prime[idx]
                           + (-2.0 * t3 + 3.0 * t2) * self.j_tilde[idx + 1]
                           + (t3 - t2) * h * self.j_tilde_prime[idx + 1])
        return out[0] if scalar else out

    def j_at(self, r) -> np.ndarray:
        """The 3d solution j(r) = jt(r) / r, with the r -> 0 limit filled in."""
        rq = np.atleast_1d(np.asarray(r, dtype=float))
        scalar = np.asarray(r).ndim == 0
        out = np.empty_like(rq)
        at_zero = rq == 0.0
        out[at_zero] = self.j_tilde_prime[0]
        rest = ~at_zero
        out[rest] = self.j_tilde_at(rq[rest]) / rq[rest]
        return out[0] if scalar else out


def solve_zero_energy(w: RadialPotential, mu: float, tol: float = 1e-10,
                      n_start: int = 2000, max_halvings: int = 8) -> ScatteringSolution:
    """Solve the scaled zero-energy problem for ``w_mu`` and extract a_mu.

    Classical fixed-step RK4 on [0, mu], taken as the blocked product of
    its per-step transfer matrices (``_rk4_table``); the step is halved
    until the direction of the endpoint state (value, slope) moves by less
    than ``tol`` between successive refinements.  Comparing directions rather
    than raw values keeps the criterion meaningful for hard repulsive
    cores, where the unnormalized solution spans hundreds of decades.
    Since a_mu = mu - f/f' at the endpoint, ``tol`` bounds a_mu to about
    ``tol`` absolute, that is a = a_mu / mu to about tol / mu; the test is
    on the step, not on a.  For square_barrier(h) at mu = 1e-3, a is off
    the closed form by 4.0e-9 (h = 1e16), 1.3e-9 (1e18) and 1.4e-10 (1e20)
    after 4000 steps, and by 0, 2.6e-14 and 6.8e-11 from n_start = 16000.
    A non-positive endpoint slope would mean the potential supports a
    zero-energy bound state, outside this package's remit.  A potential
    so strong that a step's transfer matrix overflows raises
    ResolutionError naming the steps.
    """
    if mu <= 0.0:
        raise DomainError(f"mu must be positive, got {mu}")
    n = int(n_start)
    prev = None
    for _ in range(max_halvings + 1):
        h = mu / n
        nodes = np.arange(n + 1) * h
        w_nodes = w.scaled(nodes, mu)
        w_mids = w.scaled(nodes[:-1] + 0.5 * h, mu)
        if not (w_nodes.any() or w_mids.any()):
            # free equation: jt = r exactly
            return ScatteringSolution(potential=w, mu=mu, a_mu=0.0, a=0.0,
                                      r=nodes, j_tilde=nodes.copy(),
                                      j_tilde_prime=np.ones_like(nodes),
                                      identity_residual=0.0, steps=n)
        nudge = 1e-9 * h
        w_left = w.scaled(nodes[:-1] + nudge, mu)
        w_right = w.scaled(nodes[1:] - nudge, mu)
        f, fp = _rk4_table(w_left, w_mids, w_right, h)
        scale = math.hypot(f[-1], fp[-1])
        if scale == 0.0 or not math.isfinite(scale):
            raise ResolutionError("zero-energy integration produced a degenerate "
                                  "endpoint state; potential data is likely invalid")
        end = (f[-1] / scale, fp[-1] / scale)
        if prev is not None and (abs(end[0] - prev[0]) <= tol
                                 and abs(end[1] - prev[1]) <= tol):
            break
        prev = end
        n *= 2
    else:
        raise ResolutionError(
            f"zero-energy integration did not settle to {tol} within "
            f"{max_halvings} step halvings")

    if fp[-1] <= 0.0:
        raise DomainError("endpoint slope is non-positive; potential too attractive "
                          "for a clean zero-energy scattering state")
    a_mu = mu - f[-1] / fp[-1]
    j_tilde = f / fp[-1]
    j_tilde_prime = fp / fp[-1]

    source = 4.0 * math.pi * _simpson(w_nodes * j_tilde * nodes, h)
    lhs = 8.0 * math.pi * a_mu
    if abs(lhs) < 1e-30 and abs(source) < 1e-30:
        residual = 0.0
    else:
        residual = abs(lhs - source) / max(abs(lhs), 1e-300)

    return ScatteringSolution(potential=w, mu=mu, a_mu=a_mu, a=a_mu / mu,
                              r=nodes, j_tilde=j_tilde, j_tilde_prime=j_tilde_prime,
                              identity_residual=residual, steps=n)


# ---------------------------------------------------------------------------
# compensated shell construction


@dataclass(frozen=True, eq=False)
class CorrectionProfile:
    """Piecewise zero-scattering pair profile f and its correction shell.

    Inside r <= mu**beta_tilde the profile is kappa * j; on the shell it is
    kappa * (A sin(u r) + B cos(u r)) / r with u**2 = U_height / 2; outside
    the outer radius R it is identically 1.  g = 1 - f.
    """

    solution: ScatteringSolution
    beta_tilde: float
    inner_radius: float        # mu**beta_tilde
    outer_radius: float        # R, tangency point with the free solution
    kappa: float               # inner amplitude, in (1, inner/(inner - mu a))
    shell_height: float        # constant value of the correction potential U
    shell_wavenumber: float    # u = sqrt(shell_height / 2)
    shell_sin_coeff: float     # A
    shell_cos_coeff: float     # B
    tangency_value_residual: float
    tangency_slope_residual: float

    @property
    def mu(self) -> float:
        return self.solution.mu

    @property
    def a(self) -> float:
        return self.solution.a

    def shell_f_tilde(self, r) -> np.ndarray:
        """Radial solution r * f(r) on the shell, without the kappa factor."""
        ur = self.shell_wavenumber * np.asarray(r, dtype=float)
        return self.shell_sin_coeff * np.sin(ur) + self.shell_cos_coeff * np.cos(ur)

    def f(self, r) -> np.ndarray:
        rq = np.asarray(r, dtype=float)
        scalar = rq.ndim == 0
        rq = np.atleast_1d(rq).astype(float)
        if np.any(rq < 0.0):
            raise DomainError("radius must be non-negative")
        out = np.ones_like(rq)
        if self.shell_height > 0.0:
            inner = rq <= self.inner_radius
            shell = (rq > self.inner_radius) & (rq < self.outer_radius)
            out[inner] = self.kappa * self.solution.j_at(rq[inner])
            rs = rq[shell]
            out[shell] = self.kappa * self.shell_f_tilde(rs) / rs
        return out[0] if scalar else out

    def g(self, r) -> np.ndarray:
        return 1.0 - self.f(r)

    def u_potential(self, r) -> np.ndarray:
        """The correction potential: shell_height on the open shell, else 0."""
        rq = np.asarray(r, dtype=float)
        return np.where((rq > self.inner_radius) & (rq < self.outer_radius),
                        self.shell_height, 0.0)


def _trivial_correction(sol: ScatteringSolution, beta_tilde: float) -> CorrectionProfile:
    r0 = sol.mu**beta_tilde
    return CorrectionProfile(solution=sol, beta_tilde=beta_tilde, inner_radius=r0,
                             outer_radius=r0, kappa=1.0, shell_height=0.0,
                             shell_wavenumber=0.0, shell_sin_coeff=0.0,
                             shell_cos_coeff=0.0, tangency_value_residual=0.0,
                             tangency_slope_residual=0.0)


def build_correction(sol: ScatteringSolution, beta_tilde: float) -> CorrectionProfile:
    """Find the shell (R, kappa) that cancels the scattering length of w_mu.

    Tangency of the shell solution to the free profile r at R is a root of

        phi(R) = u R (A cos uR - B sin uR) - (A sin uR + B cos uR),

    which changes sign exactly once between the inner radius (phi = mu * a)
    and the first maximum of the shell solution.  Coarse scan plus bisection
    down to 1e-12 of the inner radius, or to the bracket's floating-point
    resolution if that comes first.
    """
    if not 1.0 / 3.0 < beta_tilde < 1.0:
        raise DomainError(f"beta_tilde must lie in (1/3, 1), got {beta_tilde}")
    mu, a, a_mu = sol.mu, sol.a, sol.a_mu
    if a_mu < 0.0:
        raise DomainError("negative scattering length; construction needs repulsion")
    if a_mu == 0.0:
        return _trivial_correction(sol, beta_tilde)
    if mu >= 1.0:
        raise DomainError("construction needs mu < 1 so the shell sits outside the core")
    r0 = mu**beta_tilde
    if mu * a >= r0:
        raise DomainError("mu too large for this beta_tilde: core overlaps the shell")

    height = a * mu ** (1.0 - 3.0 * beta_tilde)
    u = math.sqrt(0.5 * height)
    su, cu = math.sin(u * r0), math.cos(u * r0)
    A = (r0 - mu * a) * su + cu / u
    B = (r0 - mu * a) * cu - su / u

    def phi(r: float) -> float:
        s, c = math.sin(u * r), math.cos(u * r)
        return u * r * (A * c - B * s) - (A * s + B * c)

    # first zero of the slope factor A cos(ur) - B sin(ur) past r0 bounds the root
    r_turn = math.atan2(A, B) / u
    while r_turn <= r0:
        r_turn += math.pi / u

    lo, hi = r0, r_turn
    flo = phi(lo)
    if flo <= 0.0:
        raise ConstructionError("shell root bracketing failed at the inner radius")
    scan = np.linspace(lo, hi, 257)
    fhi = None
    for rs in scan[1:]:
        fs = phi(float(rs))
        if fs <= 0.0:
            hi, fhi = float(rs), fs
            break
        lo, flo = float(rs), fs
    if fhi is None:
        raise ConstructionError("no tangency root before the shell solution turns over")
    while hi - lo > 1e-12 * r0:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = phi(mid)
        if fm > 0.0:
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    R = 0.5 * (lo + hi)

    s_R = A * math.sin(u * R) + B * math.cos(u * R)
    d_R = A * math.cos(u * R) - B * math.sin(u * R)
    kappa = R / s_R
    kappa_hi = r0 / (r0 - mu * a)
    if not 1.0 < kappa < kappa_hi:
        raise ConstructionError(
            f"shell amplitude kappa = {kappa!r} escaped its window (1, {kappa_hi!r})")

    kappa_slope = 1.0 / (u * d_R)
    value_residual = abs(kappa_slope * s_R - R) / R
    slope_residual = abs(kappa * u * d_R - 1.0)

    return CorrectionProfile(solution=sol, beta_tilde=beta_tilde, inner_radius=r0,
                             outer_radius=R, kappa=kappa, shell_height=height,
                             shell_wavenumber=u, shell_sin_coeff=A, shell_cos_coeff=B,
                             tangency_value_residual=value_residual,
                             tangency_slope_residual=slope_residual)


def neutrality_residual(corr: CorrectionProfile) -> float:
    """int (w_mu - U) f dz over R^3; zero by construction up to solver error.

    The core term int w_mu f dz is kappa * 8 pi a_mu, and the shell term is
    mu times shell_coupling.
    """
    if corr.shell_height == 0.0:
        return 0.0
    sol = corr.solution
    mu = sol.mu
    support = mu * sol.potential.radius
    n = 2048
    rc = np.linspace(0.0, support, n + 1)
    core = _simpson(sol.potential.scaled(rc, mu) * corr.f(rc) * rc**2,
                    support / n)
    return 4.0 * math.pi * (core - corr.shell_height * _shell_integral(corr))


def shell_coupling(corr: CorrectionProfile) -> float:
    """(1/mu) * int U f dz, the effective coupling carried by the shell.

    Equals kappa * 8 pi a up to quadrature error, which is how the soft
    correction reproduces the full scattering length in pair energies.
    """
    if corr.shell_height == 0.0:
        return 0.0
    return 4.0 * math.pi * corr.shell_height * _shell_integral(corr) / corr.mu


def _shell_integral(corr: CorrectionProfile) -> float:
    """Simpson integral of kappa f~_shell(r) r over the shell, on 2049 nodes."""
    n = 2048
    rs = np.linspace(corr.inner_radius, corr.outer_radius, n + 1)
    return _simpson(corr.kappa * corr.shell_f_tilde(rs) * rs,
                    (corr.outer_radius - corr.inner_radius) / n)


# Points of the log grid on which g_norm_diagnostics checks g <= mu a / r.
N_SUP = 200


@dataclass(frozen=True)
class GNormDiagnostics:
    l2_norm: float          # ||g||_{L^2(R^3)}
    sup_ok: bool            # g(r) <= mu a / r on a log grid
    sup_max_ratio: float    # max of g(r) r / (mu a) over that grid


def g_norm_diagnostics(corr: CorrectionProfile) -> GNormDiagnostics:
    """L2 norm of g = 1 - f and the pointwise bound g <= mu a / r."""
    if corr.shell_height == 0.0:
        return GNormDiagnostics(0.0, True, 0.0)
    sol = corr.solution
    mu, a_mu, kappa = sol.mu, sol.a_mu, corr.kappa

    # g(r) * r is (r - kappa jt) on the core, a linear polynomial between mu
    # and the inner radius, and (r - kappa * shell solution) on the shell.
    t1 = _simpson((sol.r - kappa * sol.j_tilde) ** 2, sol.r[1] - sol.r[0])
    n = 512
    rm = np.linspace(mu, corr.inner_radius, 2 * n + 1)
    t2 = _simpson(((1.0 - kappa) * rm + kappa * a_mu) ** 2,
                  (corr.inner_radius - mu) / (2 * n))
    n = 2048
    rs = np.linspace(corr.inner_radius, corr.outer_radius, n + 1)
    t3 = _simpson((rs - kappa * corr.shell_f_tilde(rs)) ** 2,
                  (corr.outer_radius - corr.inner_radius) / n)
    l2 = math.sqrt(4.0 * math.pi * (t1 + t2 + t3))

    grid = np.geomspace(mu * 1e-3, corr.outer_radius, N_SUP)
    ratios = corr.g(grid) * grid / (mu * corr.a)
    sup_max = float(ratios.max())
    return GNormDiagnostics(l2, bool(sup_max <= 1.0 + 1e-9), sup_max)
