"""Finite-N counting formalism on dense grid tensors.

States of N bosons live as rank-N tensors over a small single-particle grid
(a periodic line or a flattened 3d box).  For a reference orbital phi the
slot projectors p = |phi><phi| and q = 1 - p generate the symmetrized
counters P_k (exactly k particles outside phi); weighted sums f_hat =
sum_k f(k) P_k and their shifted variants are the bookkeeping operators of
condensation estimates.  The weight

    m(k) = sqrt(k / N)                        for k >= N^(1 - 2 xi),
    m(k) = (k N^(xi - 1) + N^(-xi)) / 2       otherwise,

interpolates between counting and its square root; its first and second
discrete differences are small (order N^(xi - 1) and N^(3 xi - 2)), which is
what makes the weighted counters almost commute with the dynamics.  The
deviation functional combines <m_hat> with an energy-per-particle gap and
controls the trace-norm distance of the one-particle reduced density matrix
to the condensate projector in both directions:

    tracedist <= sqrt(8 alpha),   alpha <= gap + sqrt(tracedist) + N^(-xi)/2.

The trace distance needs one eigenvalue, not a spectrum.  gamma - |phi><phi|
is a positive semidefinite matrix minus a rank-one projector, so by
interlacing it has at most one negative eigenvalue lam, and its trace is 0,
so ||gamma - |phi><phi|||_1 = 2 |lam|.  The eigenvector of lam is
proportional to (gamma - lam)^(-1) phi, so it lies in the Krylov space
K(gamma, phi); on that space the difference is T_k - e_1 e_1^T, with T_k the
Lanczos tridiagonal of gamma started at q_1 = phi (Golub, SIAM Rev. 15 (1973)
318, for the rank-one update; Parlett, The Symmetric Eigenvalue Problem, for
Lanczos with full reorthogonalization).

Everything here is dense linear algebra at desk scale, exact or converged
to round-off: no truncation, no sampling shortcuts, so the inequalities can
be checked sample by sample.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from .errors import DomainError, InterfaceError, ResolutionError
from .gpe1d import Field, Grid1D, ProductGrid
from .scattering import CorrectionProfile
from .transverse import TransverseMode, _confinement

__all__ = ["ManyBodyState", "random_symmetric_state", "product_state_mb",
           "symmetrize", "apply_projector", "projector_components",
           "apply_weighted", "expectation_weighted", "WeightTable", "rdm",
           "trace_norm_vs_pure", "trace_distance", "check_pair_range",
           "HamiltonianSpec", "line_hamiltonian", "box_hamiltonian",
           "confined_hamiltonian", "orbital_from_fields", "energy_per_particle",
           "CountingSample", "counting_sample", "pair_indicator_form",
           "correlation_diagnostic"]

MAX_PARTICLES = 4


# ---------------------------------------------------------------------------
# states


@dataclass(eq=False)
class ManyBodyState:
    n_particles: int
    dim: int
    tensor: np.ndarray     # shape (dim,) * n_particles, plain l2 normalization

    def __post_init__(self) -> None:
        if not 2 <= self.n_particles <= MAX_PARTICLES:
            raise DomainError(f"n_particles must be 2..{MAX_PARTICLES} "
                              f"for dense tensors")
        if self.tensor.shape != (self.dim,) * self.n_particles:
            raise DomainError("tensor shape does not match (dim,) * n_particles")

    def norm(self) -> float:
        return float(np.linalg.norm(self.tensor.ravel()))

    def normalized(self) -> "ManyBodyState":
        return ManyBodyState(self.n_particles, self.dim, self.tensor / self.norm())


# Rows of a draw block, sides of the square blocks of the first coset step and
# columns of a pair-form block, so these kernels hold one state plus scratch.
# On the 12^3 box (d = 1728) 48 timed like 64 and better than 16 or 128, and
# its pair-form scratch is 7% of a state.
_BLOCK = 48


def _swap_sum_in_place(tensor: np.ndarray) -> None:
    """tensor += tensor.swapaxes(0, 1), by square blocks of the first two axes.

    Each pair of mirrored blocks is summed once and the sum is written to
    both; a + b == b + a bit for bit, so this equals the out-of-place sum.
    """
    d = tensor.shape[0]
    for i in range(0, d, _BLOCK):
        for j in range(i, d, _BLOCK):
            upper = tensor[i:i + _BLOCK, j:j + _BLOCK]
            lower = tensor[j:j + _BLOCK, i:i + _BLOCK]
            np.add(upper, lower.swapaxes(0, 1), out=upper)
            lower[...] = upper.swapaxes(0, 1)


def _permutation_sum(tensor: np.ndarray) -> np.ndarray:
    """Sum of ``tensor`` over all N! permutations of its axes, unscaled.

    Built by cosets: once the sum is symmetric in the first m - 1 axes, the
    m cyclic shifts of the first m axes extend it to all of S_m, so the cost
    is 1, 3 or 6 full-size adds for N = 2, 3, 4 instead of N! strided ones.
    The first step, the transposition of axes 0 and 1, overwrites ``tensor``.
    """
    n = tensor.ndim
    _swap_sum_in_place(tensor)
    out = tensor
    for m in range(3, n + 1):
        part = out
        shifts = [[(axis + shift) % m for axis in range(m)] + list(range(m, n))
                  for shift in range(1, m)]
        out = part + part.transpose(shifts[0])
        for perm in shifts[1:]:
            out += part.transpose(perm)
    return out


def symmetrize(tensor: np.ndarray) -> np.ndarray:
    """Average of ``tensor`` over all permutations of its axes."""
    out = _permutation_sum(np.array(tensor))
    out /= math.factorial(tensor.ndim)
    return out


def _standard_normal_into(rng: np.random.Generator, part: np.ndarray) -> None:
    """Fill ``part`` with standard normals, block by block of leading rows.

    Each block is drawn into one small contiguous buffer and copied over;
    consecutive draws continue one stream, so ``part`` gets the bits of
    ``rng.standard_normal(part.shape)``.
    """
    rows = part.reshape(part.shape[0], -1)
    buf = np.empty((min(_BLOCK, len(rows)), rows.shape[1]))
    for i in range(0, len(rows), _BLOCK):
        block = rows[i:i + _BLOCK]
        chunk = buf[:len(block)]
        rng.standard_normal(out=chunk)
        block[...] = chunk


def random_symmetric_state(n_particles: int, dim: int,
                           rng: np.random.Generator) -> ManyBodyState:
    """Symmetrized complex-Gaussian tensor, normalized.

    All real parts are drawn, then all imaginary parts, in the stream order
    of two ``standard_normal((dim,) * N)`` calls, but through a block-sized
    buffer straight into one complex tensor.  The first coset step sums in
    place, so for N = 2 the state costs one tensor; the 1/N! of the
    permutation average cancels in the normalization, also done in place.
    """
    tensor = np.empty((dim,) * n_particles, dtype=complex)
    _standard_normal_into(rng, tensor.real)
    _standard_normal_into(rng, tensor.imag)
    tensor = _permutation_sum(tensor)
    # each real component divided by the real norm: cheaper than the complex
    # division, which scales by a reciprocal and can differ in the last bit
    parts = tensor.reshape(-1).view(np.float64)
    parts /= np.linalg.norm(tensor.ravel())
    return ManyBodyState(n_particles, dim, tensor)


def product_state_mb(orbital: np.ndarray, n_particles: int) -> ManyBodyState:
    orb = np.asarray(orbital, dtype=complex)
    orb = orb / np.linalg.norm(orb)
    tensor = reduce(np.multiply.outer, [orb] * n_particles)
    tensor /= np.linalg.norm(tensor.ravel())    # the bits of normalized()
    return ManyBodyState(n_particles, orb.size, tensor)


# ---------------------------------------------------------------------------
# slot projectors and weighted counters


def _check_orbital(state: ManyBodyState, orbital: np.ndarray) -> np.ndarray:
    orb = np.asarray(orbital, dtype=complex)
    if orb.shape != (state.dim,):
        raise InterfaceError("orbital length does not match the state's grid")
    nrm = np.linalg.norm(orb)
    if not math.isclose(nrm, 1.0, rel_tol=1e-10):
        raise InterfaceError("orbital must be normalized")
    return orb


def _apply_p(tensor: np.ndarray, orb: np.ndarray, slot: int) -> np.ndarray:
    """p = |phi><phi| on one slot, contracted through a contiguous view.

    The tensor is read as (d**slot, d, rest), so the slot is the middle axis
    and the result comes out C-contiguous without any axis moves.
    """
    d = orb.size
    view = tensor.reshape(d**slot, d, -1)
    coef = orb.conj() @ view
    return (orb[None, :, None] * coef[:, None, :]).reshape(tensor.shape)


def projector_components(state: ManyBodyState, orbital: np.ndarray) -> list[np.ndarray]:
    """[P_0 psi, ..., P_N psi]: the tensor split by number of slots outside phi.

    Built by running over slots and collecting p/q choices with exactly k
    q-factors; numerically stable because only sums of projections appear.
    Each slot costs one projection per component, and the q-parts are formed
    in place in the previous slot's buffers, so every component is a
    C-contiguous array of its own.
    """
    orb = _check_orbital(state, orbital)
    comps = [state.tensor]
    for slot in range(state.n_particles):
        p_parts = [_apply_p(c, orb, slot) for c in comps]
        # the input tensor is the caller's; later buffers are ours to reuse
        q_parts = [np.subtract(c, p, out=c if slot else None)
                   for c, p in zip(comps, p_parts)]
        for k in range(1, len(p_parts)):
            q_parts[k - 1] += p_parts[k]
        comps = [p_parts[0]] + q_parts
    return comps


def apply_projector(state: ManyBodyState, orbital: np.ndarray, which: str,
                    index: int) -> ManyBodyState:
    """Apply p_j, q_j or P_k; the result is returned unnormalized."""
    orb = _check_orbital(state, orbital)
    n = state.n_particles
    if which in ("p", "q"):
        if not 0 <= index < n:
            raise DomainError(f"slot index must be in 0..{n - 1}")
        p_tensor = _apply_p(state.tensor, orb, index)
        out = p_tensor if which == "p" else state.tensor - p_tensor
    elif which == "P":
        if index < 0 or index > n:
            out = np.zeros_like(state.tensor)
        else:
            out = projector_components(state, orb)[index]
    else:
        raise DomainError(f"unknown projector kind {which!r}")
    return ManyBodyState(n, state.dim, out)


def apply_weighted(state: ManyBodyState, weights, orbital: np.ndarray,
                   shift: int = 0) -> ManyBodyState:
    """f_hat psi = sum_k f(k) P_k psi, or its shifted version.

    With a shift d the operator is sum_j f(j + d) P_j over the window where
    both j and j + d index valid counters; outside contributions vanish.
    ``weights`` is a length N + 1 array (f(0) ... f(N)).
    """
    w = np.asarray(weights, dtype=float)
    n = state.n_particles
    if w.shape != (n + 1,):
        raise DomainError(f"weights must have length {n + 1}")
    if abs(shift) > n:
        raise DomainError(f"shift {shift} leaves no overlap with counters 0..{n}")
    comps = projector_components(state, orbital)
    out = np.zeros_like(state.tensor)
    for j in range(n + 1):
        k = j + shift
        if 0 <= k <= n:
            out += w[k] * comps[j]
    return ManyBodyState(n, state.dim, out)


@dataclass(frozen=True, eq=False)
class WeightTable:
    """m(k) and its discrete difference families on k = 0..N.

    Differences are taken with the formula's natural extension past k = N,
    so every array has length N + 1.  First differences (one or two steps)
    stay below N^(xi - 1); the six second-difference combinations stay below
    N^(3 xi - 2).
    """

    n_particles: int
    xi: float
    m: np.ndarray
    m_a: np.ndarray   # m(k) - m(k+1)
    m_b: np.ndarray   # m(k) - m(k+2)
    m_c: np.ndarray   # m_a(k) - m_a(k+1)
    m_d: np.ndarray   # m_a(k) - m_a(k+2)
    m_e: np.ndarray   # m_b(k) - m_b(k+1)
    m_f: np.ndarray   # m_b(k) - m_b(k+2)

    @staticmethod
    def m_value(k, n: int, xi: float) -> np.ndarray:
        ks = np.asarray(k, dtype=float)
        crossover = n ** (1.0 - 2.0 * xi)
        return np.where(ks >= crossover, np.sqrt(np.maximum(ks, 0.0) / n),
                        0.5 * (ks * n ** (xi - 1.0) + n ** (-xi)))

    @classmethod
    def build(cls, n_particles: int, xi: float) -> "WeightTable":
        if not 0.0 < xi < 0.5:
            raise DomainError(f"xi must lie in (0, 1/2), got {xi}")
        if n_particles < 1:
            raise DomainError("need at least one particle")
        n = n_particles
        mv = cls.m_value(np.arange(n + 5), n, xi)
        a_full = mv[:-1] - mv[1:]
        b_full = mv[:-2] - mv[2:]
        return cls(n_particles=n, xi=xi, m=mv[:n + 1],
                   m_a=a_full[:n + 1], m_b=b_full[:n + 1],
                   m_c=a_full[:n + 1] - a_full[1:n + 2],
                   m_d=a_full[:n + 1] - a_full[2:n + 3],
                   m_e=b_full[:n + 1] - b_full[1:n + 2],
                   m_f=b_full[:n + 1] - b_full[2:n + 3])

    def bounds_report(self) -> dict:
        first = self.n_particles ** (self.xi - 1.0)
        second = self.n_particles ** (3.0 * self.xi - 2.0)
        sups = {name: float(np.max(np.abs(getattr(self, name))))
                for name in ("m_a", "m_b", "m_c", "m_d", "m_e", "m_f")}
        slack = 1.0 + 1e-12
        return {"sups": sups, "first_bound": first, "second_bound": second,
                "first_ok": sups["m_a"] <= first * slack
                            and sups["m_b"] <= first * slack,
                "second_ok": all(sups[name] <= second * slack
                                 for name in ("m_c", "m_d", "m_e", "m_f"))}


def expectation_weighted(state: ManyBodyState, weights, orbital: np.ndarray) -> float:
    """<psi, f_hat psi> via the counter decomposition (real for real f)."""
    w = np.asarray(weights, dtype=float)
    comps = projector_components(state, orbital)
    return float(sum(w[k] * np.vdot(comps[k], comps[k]).real
                     for k in range(state.n_particles + 1)))


# ---------------------------------------------------------------------------
# reduced density matrices


def rdm(state: ManyBodyState, k: int) -> np.ndarray:
    """k-particle reduced density matrix (trace normalized to 1).

    Requires k < N: at least one slot must actually be traced out.
    """
    n = state.n_particles
    if not 1 <= k < n:
        raise DomainError(f"k must be in 1..{n - 1}")
    mat = state.tensor.reshape(state.dim**k, state.dim ** (n - k))
    gamma = mat @ mat.conj().T
    return gamma / np.trace(gamma).real


def trace_norm_vs_pure(gamma: np.ndarray, orbital: np.ndarray) -> float:
    """Trace norm of gamma - |phi><phi| via exact eigendecomposition."""
    orb = np.asarray(orbital, dtype=complex)
    diff = gamma - np.outer(orb, orb.conj())
    diff = 0.5 * (diff + diff.conj().T)
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


# Lanczos steps before trace_distance falls back to the dense eigvalsh, and
# the Ritz residual taken as converged: gamma has unit trace, so a computed
# product gamma x carries round-off near 1e-16 whatever the state.
_LANCZOS_STEPS = 40
_RITZ_TOL = 1e-14


def _outside_weight(mat: np.ndarray, orb: np.ndarray, row: np.ndarray) -> float:
    """||q M||^2 for q = 1 - |phi><phi| on the rows of M, given row = phi^H M.

    Formed from q M itself rather than as ||M||^2 - ||row||^2, so it keeps
    its relative precision when the state is close to a product.
    """
    outside = np.multiply.outer(orb, row)
    outside -= mat
    return float(np.vdot(outside, outside).real)


def trace_distance(state: ManyBodyState, orbital: np.ndarray) -> float:
    """||gamma - |phi><phi|||_1 for the one-particle reduced density matrix.

    The difference has a single negative eigenvalue lam and trace 0, so its
    trace norm is 2 |lam| (see the module docstring).  Lanczos with full
    reorthogonalization on gamma, started at q_1 = phi, gives lam as the
    lowest eigenvalue of T_k - e_1 e_1^T.  With M the state read as
    d x d^(N-1), gamma x = M (M^H x) / ||M||^2 is taken as two vector-matrix
    products on M, so neither gamma nor the d x d difference is formed.  The
    first diagonal entry phi^H gamma phi - 1 is -||q M||^2 / ||M||^2.  The
    iteration stops once the Ritz residual beta_k |s_k| is at round-off,
    which includes the breakdown beta_k = 0 of a product state at step 1;
    past the step cap the dense rdm and eigvalsh value is returned instead.
    """
    orb = _check_orbital(state, orbital)
    mat = state.tensor.reshape(state.dim, -1)
    scale = 1.0 / float(np.vdot(mat, mat).real)
    row = orb.conj() @ mat
    diag = [-_outside_weight(mat, orb, row) * scale]
    off: list[float] = []
    basis = np.empty((_LANCZOS_STEPS + 1, state.dim), dtype=complex)
    basis[0] = orb
    w = (mat @ row.conj()) * scale
    for k in range(_LANCZOS_STEPS):
        if k:
            diag.append(float(np.vdot(basis[k], w).real))
        span = basis[:k + 1]
        for _ in range(2):      # twice is enough (Parlett)
            w -= span.T @ (span.conj() @ w)
        beta = float(np.linalg.norm(w))
        theta, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1)
                                     + np.diag(off, -1))
        if beta * abs(vecs[-1, 0]) <= _RITZ_TOL:
            return 2.0 * abs(float(theta[0]))
        off.append(beta)
        basis[k + 1] = w / beta
        w = (mat @ (basis[k + 1].conj() @ mat).conj()) * scale
    return trace_norm_vs_pure(rdm(state, 1), orb)


# ---------------------------------------------------------------------------
# desk-scale Hamiltonians


def check_pair_range(pair_range: float, axes) -> None:
    """ResolutionError unless the range spans 4 points of the coarsest axis."""
    coarsest = max(axis.dx for axis in axes)
    if pair_range < 4.0 * coarsest:
        raise ResolutionError(
            f"pair interaction range {pair_range:g} spans fewer than 4 grid "
            f"points at spacing {coarsest:g}")


@dataclass(eq=False)
class HamiltonianSpec:
    """Single-particle grid data for the N-body energy per particle.

    ``grid`` is the unflattened single-particle grid; tensors index the
    flattened dimension.  ``e0_shift`` removes the confinement offset so the
    energy per particle is directly comparable with the 1d functional, whose
    potential and coupling are carried along for that purpose.
    """

    grid: ProductGrid
    v_diag: np.ndarray                     # flattened (d,)
    pair_potential: Callable[[np.ndarray], np.ndarray] | None
    e0_shift: float
    v_par_line: Callable[[float, np.ndarray], np.ndarray] | None
    b_effective: float
    pair_range: float | None = None
    _pair_matrix: np.ndarray | None = None
    _pair_form: tuple | None = None        # (corr, mask, (w_mu - U) / 2)

    def __post_init__(self) -> None:
        if self.pair_potential is not None and self.pair_range is not None:
            check_pair_range(self.pair_range, self.grid.axes)

    @property
    def dim(self) -> int:
        return math.prod(self.grid.shape)

    def _distance_rows(self, start: int, stop: int) -> np.ndarray:
        """Minimum-image distances from sites start..stop - 1 to every site.

        The per-axis (n, n) tables of squared offsets are summed in axis
        order, so any row block has the bits of the full table's rows.
        """
        sites = np.unravel_index(np.arange(start, stop), self.grid.shape)
        ndim = len(self.grid.axes)
        total = 0.0
        for i, (axis, index) in enumerate(zip(self.grid.axes, sites)):
            delta = np.abs(axis.x[index, None] - axis.x[None, :])
            delta = np.minimum(delta, axis.length - delta)
            view = [1] * ndim
            view[i] = axis.n
            total = total + (delta**2).reshape(stop - start, *view)
        return np.sqrt(total).reshape(stop - start, self.dim)

    def pair_distances(self) -> np.ndarray:
        """Minimum-image distances between all site pairs, (d, d), not
        cached: the pair matrix and the pair form keep their own products."""
        return self._distance_rows(0, self.dim)

    def pair_matrix(self) -> np.ndarray | None:
        if self.pair_potential is None:
            return None
        if self._pair_matrix is None:
            self._pair_matrix = np.asarray(
                self.pair_potential(self.pair_distances()), dtype=float)
        return self._pair_matrix

    def _pair_form_arrays(self, corr: CorrectionProfile) -> tuple:
        """Indicator of |z1 - z2| < R and (w_mu - U) / 2 on site pairs.

        Both depend only on the grid and the correction profile, so they are
        cached for the last ``corr`` seen and rebuilt for any other one.
        They are built by blocks of rows, so no distance table is held.
        """
        if self._pair_form is None or self._pair_form[0] is not corr:
            self._pair_form = None      # free the old arrays before the new
            d = self.dim
            sol = corr.solution
            mask = np.empty((d, d), dtype=bool)
            half_wu = np.empty((d, d))
            for start in range(0, d, _BLOCK):
                stop = min(start + _BLOCK, d)
                dist = self._distance_rows(start, stop)
                np.less(dist, corr.outer_radius, out=mask[start:stop])
                np.subtract(sol.potential.scaled(dist, sol.mu),
                            corr.u_potential(dist), out=half_wu[start:stop])
            half_wu *= 0.5
            self._pair_form = (corr, mask, half_wu)
        return self._pair_form[1:]


def line_hamiltonian(grid: Grid1D,
                     v_par: Callable[[float, np.ndarray], np.ndarray] | None = None,
                     pair_potential: Callable[[np.ndarray], np.ndarray] | None = None,
                     b_effective: float = 0.0,
                     pair_range: float | None = None) -> HamiltonianSpec:
    """Dimensionally reduced single-particle grid: a periodic line."""
    x = grid.x
    v = np.asarray(v_par(0.0, x), dtype=float) if v_par is not None \
        else np.zeros_like(x)
    return HamiltonianSpec(grid=ProductGrid((grid,)), v_diag=v,
                           pair_potential=pair_potential, e0_shift=0.0,
                           v_par_line=v_par, b_effective=b_effective,
                           pair_range=pair_range)


def box_hamiltonian(length: float, n: int,
                    pair_potential: Callable[[np.ndarray], np.ndarray] | None = None,
                    pair_range: float | None = None) -> HamiltonianSpec:
    """Bare periodic cube: kinetic plus pair term only.

    This is the substrate for pair-correlation checks where no external
    potential belongs in the form.
    """
    side = Grid1D(length, n)            # DomainError unless n is even and >= 4
    return HamiltonianSpec(grid=ProductGrid((side, side, side)),
                           v_diag=np.zeros(n**3),
                           pair_potential=pair_potential, e0_shift=0.0,
                           v_par_line=None, b_effective=0.0,
                           pair_range=pair_range)


def confined_hamiltonian(x_grid: Grid1D, mode: TransverseMode,
                         v_perp: Callable[[np.ndarray, np.ndarray], np.ndarray],
                         v_par: Callable[[float, np.ndarray], np.ndarray] | None = None,
                         pair_potential: Callable[[np.ndarray], np.ndarray] | None = None,
                         b_effective: float = 0.0,
                         pair_range: float | None = None) -> HamiltonianSpec:
    """Flattened 3d box with the scaled confinement and its energy offset.

    ``mode`` must be a rescaled transverse mode; V_par acts on x only.
    """
    if mode.epsilon is None:
        raise InterfaceError("confined Hamiltonian needs a rescaled mode")
    conf = _confinement(mode, v_perp)
    x = x_grid.x
    v_line = np.asarray(v_par(0.0, x), dtype=float) if v_par is not None \
        else np.zeros_like(x)
    v_diag = (v_line[:, None, None] + conf[None, :, :]).ravel()
    y = mode.y_grid()
    return HamiltonianSpec(grid=ProductGrid((x_grid, y, y)), v_diag=v_diag,
                           pair_potential=pair_potential, e0_shift=mode.E0,
                           v_par_line=v_par, b_effective=b_effective,
                           pair_range=pair_range)


def orbital_from_fields(phi: Field, mode: TransverseMode | None) -> np.ndarray:
    """Plain-normalized grid orbital Phi (x) chi_eps(y), flattened."""
    line = phi.values * math.sqrt(phi.grid.dx)
    if mode is None:
        orb = line
    else:
        orb = (line[:, None, None] * (mode.chi * mode.spacing)[None, :, :]).ravel()
    return orb / np.linalg.norm(orb)


def energy_per_particle(state: ManyBodyState, ham: HamiltonianSpec) -> float:
    """E_psi = <psi, H psi> / N minus the confinement offset.

    The kinetic term of each slot is the FFT over that slot's axes, squared
    in place in one reused buffer and contracted with |k|^2 on that slot.
    Potential and pair terms use exact marginals of |psi|^2.
    """
    if state.dim != ham.dim:
        raise InterfaceError("state dimension does not match the Hamiltonian grid")
    n = state.n_particles
    d = ham.dim
    sp_ndim = len(ham.grid.axes)
    full = state.tensor.reshape(ham.grid.shape * n)
    ksq = ham.grid.k_squared().ravel()

    total = 0.0
    density = np.abs(state.tensor)
    density **= 2
    psi_hat = np.empty(full.shape, dtype=complex)    # C order, whatever psi's
    power = psi_hat.reshape(-1).view(np.float64)    # interleaved re, im
    for slot in range(n):
        axes = tuple(range(slot * sp_ndim, (slot + 1) * sp_ndim))
        np.fft.fftn(full, axes=axes, out=psi_hat)
        np.square(power, out=power)
        total += float(np.sum(ksq @ power.reshape(d**slot, d, -1))) / d
        dens_slot = density.sum(axis=tuple(i for i in range(n) if i != slot))
        total += float(ham.v_diag @ dens_slot)

    w_mat = ham.pair_matrix()
    if w_mat is not None:
        for i, j in itertools.combinations(range(n), 2):
            other = tuple(s for s in range(n) if s not in (i, j))
            dens_pair = density.sum(axis=other) if other else density
            total += float(np.sum(w_mat * dens_pair))
    return total / n - ham.e0_shift


@dataclass(frozen=True)
class CountingSample:
    """The counting checks and both condensation bounds on one state."""

    completeness: float     # ||psi - sum_k P_k psi||
    orthogonality: float    # max over j < k of |<P_j psi, P_k psi>|
    counting: float         # <psi, m_hat psi>
    gap: float              # |E_psi - E_phi|
    alpha: float            # counting + gap
    trace_dist: float       # ||gamma - |phi><phi|||_1
    bound_rhs: float        # sqrt(8 alpha), bounds trace_dist
    reverse_rhs: float      # gap + sqrt(trace_dist) + N^(-xi) / 2, bounds alpha
    passed: bool            # both bounds hold to _BOUND_SLACK


# round-off allowance when a sample is held against the two bounds
_BOUND_SLACK = 1e-9


def _counter_checks(state: ManyBodyState, orb: np.ndarray,
                    m: np.ndarray) -> tuple[float, float, float]:
    """Completeness residual, largest counter overlap and <m_hat>.

    The residual is summed into one buffer in the order of sum(comps), and
    the N + 1 components are freed when this returns.
    """
    comps = projector_components(state, orb)
    resid = comps[0] + comps[1]
    for comp in comps[2:]:
        resid += comp
    np.subtract(state.tensor, resid, out=resid)
    completeness = float(np.linalg.norm(resid.ravel()))
    orthogonality = max(abs(complex(np.vdot(comps[i], comps[j])))
                        for i, j in itertools.combinations(range(len(comps)), 2))
    counting = float(sum(m[k] * np.vdot(comps[k], comps[k]).real
                         for k in range(len(comps))))
    return completeness, orthogonality, counting


def counting_sample(state: ManyBodyState, orbital: np.ndarray,
                    weights: WeightTable, ham: HamiltonianSpec,
                    e_phi: float) -> CountingSample:
    """alpha = <m_hat> + |E_psi - E_phi|, the trace distance and both bounds.

    ``e_phi`` is the line functional of the condensate that ``orbital``
    samples; the counters are checked for completeness and orthogonality on
    the way.
    """
    if weights.n_particles != state.n_particles:
        raise InterfaceError("weight table built for a different particle number")
    completeness, orthogonality, counting = _counter_checks(state, orbital,
                                                            weights.m)
    gap = abs(energy_per_particle(state, ham) - e_phi)
    alpha = counting + gap
    dist = trace_distance(state, orbital)
    bound_rhs = math.sqrt(8.0 * alpha)
    reverse_rhs = gap + math.sqrt(dist) + 0.5 * state.n_particles ** (-weights.xi)
    passed = (dist <= bound_rhs + _BOUND_SLACK
              and alpha <= reverse_rhs + _BOUND_SLACK)
    return CountingSample(completeness, orthogonality, counting, gap, alpha,
                          dist, bound_rhs, reverse_rhs, passed)


# ---------------------------------------------------------------------------
# pair-correlation checks


def _derivative_matrix(axis: Grid1D) -> np.ndarray:
    """n x n spectral first derivative ifft(i k fft(I)) on a periodic axis.

    It uses the axis's FFT wavenumbers, Nyquist mode included, so applying
    it by matmul equals the FFT derivative to round-off.
    """
    return np.fft.ifft(1j * axis.k[:, None] * np.fft.fft(np.eye(axis.n), axis=0),
                       axis=0)


def pair_indicator_form(state: ManyBodyState, ham: HamiltonianSpec,
                        corr: CorrectionProfile) -> float:
    """||1_{|z1-z2|<R} grad_1 psi||^2 + <psi, (w_mu - U) psi> / 2 for N = 2.

    Non-negative in the continuum because the compensated profile has zero
    scattering length; evaluated here exactly on the grid.  The mask and
    (w_mu - U) / 2 come from the Hamiltonian's cache.  With psi read as
    d x d, grad_1 acts on the row index, so both sums run over blocks of
    columns: each block is copied into one contiguous buffer, its |psi|^2 is
    weighted by (w_mu - U) / 2, then grad_1 is applied one axis at a time by
    its differentiation matrix and |grad_1 psi|^2, accumulated in one real
    buffer, is summed under the mask.  Scratch is three block-sized buffers.
    """
    if state.n_particles != 2:
        raise DomainError("the pair quadratic form is defined for N = 2")
    if state.dim != ham.dim:
        raise InterfaceError("state dimension does not match the Hamiltonian grid")
    mask, half_wu = ham._pair_form_arrays(corr)
    d = ham.dim
    psi = state.tensor.reshape(d, d)
    derivs = [_derivative_matrix(axis) for axis in ham.grid.axes]
    width = min(_BLOCK, d)
    block_buf = np.empty(d * width, dtype=complex)
    grad_buf = np.empty(d * width, dtype=complex)
    sq_buf = np.empty(d * width)

    total = 0.0
    for start in range(0, d, _BLOCK):
        stop = min(start + _BLOCK, d)
        size = d * (stop - start)
        block = block_buf[:size].reshape(d, -1)
        grad = grad_buf[:size].reshape(d, -1)
        sq = sq_buf[:size].reshape(d, -1)    # |psi|^2, then |grad_1 psi|^2
        parts = grad.view(np.float64)        # interleaved re, im
        np.copyto(block, psi[:, start:stop])
        np.square(block.view(np.float64), out=parts)
        np.add(parts[:, 0::2], parts[:, 1::2], out=sq)
        sq *= half_wu[:, start:stop]
        total += float(np.sum(sq))
        lead = 1
        for i, (axis, deriv) in enumerate(zip(ham.grid.axes, derivs)):
            np.matmul(deriv, block.reshape(lead, axis.n, -1),
                      out=grad.reshape(lead, axis.n, -1))
            np.square(parts, out=parts)
            if i == 0:
                np.add(parts[:, 0::2], parts[:, 1::2], out=sq)
            else:
                sq += parts[:, 0::2]
                sq += parts[:, 1::2]
            lead *= axis.n
        total += float(np.sum(sq, where=mask[:, start:stop]))
    return total


def correlation_diagnostic(state: ManyBodyState, phi: Field,
                           weights: WeightTable, corr: CorrectionProfile,
                           ham: HamiltonianSpec,
                           mode: TransverseMode | None = None) -> float:
    """|<psi, g_12 r_hat psi>| with r_hat the shifted-weight pair operator.

    r_hat = m_b_hat p1 p2 + m_a_hat (p1 q2 + q1 p2); reported magnitude only,
    as a smallness diagnostic for the correlation energy bookkeeping.
    """
    orb = orbital_from_fields(phi, mode)
    n = state.n_particles
    p1 = apply_projector(state, orb, "p", 0)
    p1p2 = apply_projector(p1, orb, "p", 1)
    p2 = apply_projector(state, orb, "p", 1)
    mixed = ManyBodyState(n, state.dim,
                          p1.tensor + p2.tensor - 2.0 * p1p2.tensor)
    part_b = apply_weighted(p1p2, weights.m_b, orb)
    part_a = apply_weighted(mixed, weights.m_a, orb)
    r_psi = part_b.tensor + part_a.tensor

    g_vals = corr.g(ham.pair_distances())
    r_full = r_psi.reshape(ham.dim, ham.dim, -1)
    psi_full = state.tensor.reshape(ham.dim, ham.dim, -1)
    value = np.vdot(psi_full, g_vals[:, :, None] * r_full)
    return abs(complex(value))
