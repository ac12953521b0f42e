"""Finite-N counting formalism on dense grid tensors.

States of N bosons live as rank-N tensors over a small single-particle grid
(a periodic line or a flattened 3d box).  The tensors are symmetric under
every permutation of their slots, and the kernels rely on it: the reduced
density matrix and the trace distance read slot 0, and the energy per
particle is slot 0's one-body energy plus (N - 1) / 2 times the pair
(0, 1)'s.  For a reference orbital phi the slot projectors p = |phi><phi|
and q = 1 - p generate the symmetrized counters P_k (exactly k particles
outside phi).  A weighted counter f_hat = sum_k f(k) P_k enters only
through its expectation, evaluated as
<psi, f_hat psi> = sum_k f(k) ||P_k psi||^2.  The weight

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
import threading
from contextlib import closing
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError, InterfaceError, ResolutionError
from .gpe1d import BATCH_POINTS, Field, Grid1D, ProductGrid
from .scattering import CorrectionProfile
from .transverse import TransverseMode, _confinement

__all__ = ["ManyBodyState", "random_symmetric_states", "product_state_mb",
           "expectation_weighted", "WeightTable", "rdm",
           "trace_norm_vs_pure", "trace_distance", "check_pair_range",
           "HamiltonianSpec", "line_hamiltonian", "box_hamiltonian",
           "confined_hamiltonian", "orbital_from_fields", "energy_per_particle",
           "CountingSample", "counting_sample", "relative_pair_form",
           "random_pair_form"]

MAX_PARTICLES = 4


# ---------------------------------------------------------------------------
# states


@dataclass(eq=False)
class ManyBodyState:
    """N bosons: ``tensor`` is symmetric under every permutation of its
    slots, the convention the kernels of this module rely on, and has unit
    l2 norm wherever an expectation is read from it; only its shape is
    checked.  The states the program builds, ``random_symmetric_states``
    and ``product_state_mb``, hold both."""

    n_particles: int
    dim: int
    tensor: np.ndarray     # shape (dim,) * n_particles

    def __post_init__(self) -> None:
        if not 2 <= self.n_particles <= MAX_PARTICLES:
            raise DomainError(f"n_particles must be 2..{MAX_PARTICLES} "
                              f"for dense tensors")
        if self.tensor.shape != (self.dim,) * self.n_particles:
            raise DomainError("tensor shape does not match (dim,) * n_particles")


# Sectors per block of the pair-form draw, whose four block buffers are 11%
# of an N = 2 state on the 12^3 box (d = 1728).  The passes over a whole
# state (the draw, the coset steps, the counter sums, the energy,
# ||q M||^2) split it instead into blocks of about 1/_BLOCK of the state, so
# their scratch is a fixed share of it.  A pass's buffers together hold at
# least _LEAST entries, the 128 KiB (of complex) floor of gpe1d's energy
# stacks, below which calls cost more than arithmetic, and a state of at
# most _LEAST entries is one block.
_BLOCK = 48
_LEAST = BATCH_POINTS


def _block_rows(lead: int, size: int, buffers: int = 1) -> int:
    """Leading entries per block of a pass with ``buffers`` block buffers
    over an array of ``size`` entries whose leading axis has ``lead``."""
    if size <= _LEAST:
        return lead
    row = size // lead
    return min(lead, max(lead // _BLOCK, -(-_LEAST // (buffers * row))))


def _cycle_side(tensor: np.ndarray, m: int) -> int:
    """Side of the cubic blocks of the coset step over the first m axes: as
    many blocks an axis as leaves each at least a pass's block of entries,
    evened out."""
    d = tensor.shape[0]
    rows = _block_rows(d ** m, tensor.size, m)
    side = 1
    while side < d and side ** m < rows:
        side += 1
    return -(-d // max(1, d // side))


def _coset_buffers(tensor: np.ndarray) -> list[np.ndarray]:
    """N + 1 flat buffers, each as large as a block of any coset step of
    ``tensor``'s shape."""
    d, n = tensor.shape[0], tensor.ndim
    size = max(_cycle_side(tensor, m) ** m * d ** (n - m) for m in range(2, n + 1))
    return [np.empty(size, dtype=tensor.dtype) for _ in range(n + 1)]


def _cycle_sum_in_place(tensor: np.ndarray, m: int, bufs: list[np.ndarray]) -> None:
    """tensor <- its sum over the m cyclic shifts of its first m axes, the
    shift by s being ``tensor.transpose(perm_s)``, by orbits of blocks.

    The first m axes are cut into cubic blocks (``_cycle_side``), which the
    shifts permute in orbits.  An orbit's blocks are copied, each in the
    coordinates of its first block, to m of ``bufs`` before any of them is
    written; an entry x of the orbit is then x + x o s_1 + ... + x o s_(m-1),
    summed left to right, the association of the out-of-place sum, so the
    bits are its; for m = 2 that is the swap of the first two axes.  Each
    sum is formed in one more buffer, or in place in the buffer the orbit's
    last sum no longer needs, and copied back, so every add runs over
    contiguous buffers.  A block that a shift maps to itself has a shorter
    orbit.
    """
    d, rest = tensor.shape[0], tensor.shape[m:]
    side = _cycle_side(tensor, m)
    views = [tensor.transpose([(axis + shift) % m for axis in range(m)]
                              + list(range(m, tensor.ndim)))
             for shift in range(m)]
    for tile in itertools.product(range(0, d, side), repeat=m):
        tiles = [tile[m - shift:] + tile[:m - shift] for shift in range(m)]
        if min(tiles) != tile:
            continue        # the orbit is summed at its least block
        orbit = tiles.index(tile, 1) if tiles.count(tile) > 1 else m
        index = tuple(slice(i, i + side) for i in tile)
        shape = tuple(min(side, d - i) for i in tile) + rest
        *blocks, work = [buf[:math.prod(shape)].reshape(shape)
                         for buf in bufs[:m + 1]]
        for view, block in zip(views, blocks):
            block[...] = view[index]
        for j in range(orbit):
            out = blocks[j] if j == orbit - 1 else work
            np.add(blocks[j], blocks[(j + 1) % m], out=out)
            for k in range(2, m):
                out += blocks[(j + k) % m]
            views[j][index] = out


def _permutation_sum(tensor: np.ndarray, bufs: list[np.ndarray]) -> None:
    """tensor <- the sum of ``tensor`` over all N! permutations of its axes,
    unscaled, in place, with the block buffers ``bufs`` of
    ``_coset_buffers``.

    Built by cosets: once the sum is symmetric in the first m - 1 axes, the
    m cyclic shifts of the first m axes extend it to all of S_m, so the cost
    is 1, 3 or 6 full-size adds for N = 2, 3, 4 instead of N! strided ones.
    Each step, m = 2 included, sums in place, and every entry keeps the
    association of the out-of-place steps, so the bits are theirs.
    """
    for m in range(2, tensor.ndim + 1):
        _cycle_sum_in_place(tensor, m, bufs)


def _standard_normal_into(rng: np.random.Generator, part: np.ndarray) -> None:
    """Fill ``part`` with standard normals, block by block of leading rows.

    Each block is drawn into one small contiguous buffer and copied over;
    consecutive draws continue one stream, so ``part`` gets the bits of
    ``rng.standard_normal(part.shape)``.
    """
    rows = part.reshape(part.shape[0], -1)
    step = _block_rows(len(rows), rows.size)
    buf = np.empty((step, rows.shape[1]))
    for i in range(0, len(rows), step):
        block = rows[i:i + step]
        chunk = buf[:len(block)]
        rng.standard_normal(out=chunk)
        block[...] = chunk


def _openblas_threads() -> tuple | None:
    """The thread-count getter and setter of the OpenBLAS bundled with
    numpy, or None where there is none.

    The library is looked up in ``numpy.libs`` by the symbol names of the
    scipy-openblas builds, of other builds with 64-bit integers and of
    builds with 32-bit ones.
    """
    import ctypes
    import glob
    import os

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get_name = f"{prefix}_get_num_threads{suffix}"
            set_name = f"{prefix}_set_num_threads{suffix}"
            if hasattr(handle, get_name) and hasattr(handle, set_name):
                getter, setter = getattr(handle, get_name), getattr(handle, set_name)
                getter.argtypes, getter.restype = (), ctypes.c_int
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                return getter, setter
    return None


class _OneBlasThread:
    """OpenBLAS on one thread inside ``with``, so a BLAS sum always takes
    one order; the previous thread count comes back on exit, exceptions
    included.  Where numpy's bundled OpenBLAS is not found it does nothing.
    """

    def __enter__(self) -> "_OneBlasThread":
        self._blas = _openblas_threads()
        if self._blas is not None:
            getter, setter = self._blas
            self._threads = getter()
            setter(1)
        return self

    def __exit__(self, *_) -> None:
        if self._blas is not None:
            self._blas[1](self._threads)


def _read_ahead(fill: Callable[[np.ndarray, int], None], buffers: list[np.ndarray],
                count: int) -> Iterator[np.ndarray]:
    """Yields a buffer after ``fill(buffer, i)``, for i < ``count``, with
    OpenBLAS on one thread for the generator's whole life, so a fill does
    not contend with a spinning BLAS thread; where numpy's bundled OpenBLAS
    is not found, only the fills move.

    The first fill runs on the caller's thread.  With two buffers, fill i + 1
    runs on a thread named quasi1d-draw, into the buffer the caller is not
    reading, while the caller reads fill i; its exception, if any, is raised
    at the next ``next()``.  With one buffer, each fill runs when it is asked
    for.  Closing the generator joins the thread.  numpy's generators hold a
    lock and release the GIL while they fill, so the caller must not use the
    stream of a fill in flight.
    """
    errors = []

    def fill_ahead(buffer: np.ndarray, i: int) -> None:
        try:
            fill(buffer, i)
        except BaseException as exc:    # raised again by the next next()
            errors.append(exc)

    thread = None
    with _OneBlasThread():
        try:
            for i in range(count):
                buffer = buffers[i % len(buffers)]
                if thread is None:
                    fill(buffer, i)
                else:
                    thread.join()
                    if errors:
                        raise errors.pop()
                if len(buffers) == 2 and i + 1 < count:
                    thread = threading.Thread(target=fill_ahead, name="quasi1d-draw",
                                              args=(buffers[(i + 1) % 2], i + 1))
                    thread.start()
                yield buffer
        finally:
            if thread is not None:
                thread.join()


def _random_state_into(rng: np.random.Generator, tensor: np.ndarray,
                       bufs: list[np.ndarray]) -> None:
    """One draw of ``random_symmetric_states`` into ``tensor``: all real
    parts, then all imaginary parts, from the stream."""
    _standard_normal_into(rng, tensor.real)
    _standard_normal_into(rng, tensor.imag)
    _permutation_sum(tensor, bufs)
    # each real component divided by the real norm: cheaper than the complex
    # division, which scales by a reciprocal and can differ in the last bit
    parts = tensor.reshape(-1).view(np.float64)
    parts /= np.linalg.norm(tensor.ravel())


def random_symmetric_states(n_particles: int, dim: int, rng: np.random.Generator,
                            count: int) -> Iterator[ManyBodyState]:
    """``count`` symmetrized complex-Gaussian tensors, normalized, in one or
    two buffers.

    All real parts are drawn, then all imaginary parts, in the stream order
    of two ``standard_normal((dim,) * N)`` calls, but through a block-sized
    buffer straight into one complex tensor.  The coset sum runs in place
    through N + 1 block buffers (16% of a state on the 64-point line at
    N = 3), and the 1/N! of the permutation average cancels in the
    normalization, also done in place, so a state costs one tensor.
    The tensors and the coset sum's buffers are allocated once: each step
    overwrites a state an earlier step yielded.

    For N >= 3 there are two tensors, and ``_read_ahead`` prepares the next
    state whole (draw, coset sum and normalization) in the one the caller
    is not reading; the stream is read one state ahead, but never past the
    ``count``-th, and must not be used elsewhere before the iterator ends.
    N = 2 keeps one tensor, as a second would cost a whole state, and
    prepares each state when it is asked for.
    """
    shape = (dim,) * n_particles
    tensors = [np.empty(shape, dtype=complex)
               for _ in range(1 if n_particles == 2 else 2)]
    bufs = _coset_buffers(tensors[0])

    def fill(tensor: np.ndarray, _: int) -> None:
        _random_state_into(rng, tensor, bufs)

    with closing(_read_ahead(fill, tensors, count)) as states:
        for tensor in states:
            yield ManyBodyState(n_particles, dim, tensor)


def product_state_mb(orbital: np.ndarray, n_particles: int) -> ManyBodyState:
    orb = np.asarray(orbital, dtype=complex)
    orb = orb / np.linalg.norm(orb)
    tensor = reduce(np.multiply.outer, [orb] * n_particles)
    tensor /= np.linalg.norm(tensor.ravel())    # the bits of tensor / norm
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


def _counter_sums(state: ManyBodyState,
                  orbital: np.ndarray) -> tuple[float, np.ndarray]:
    """||psi - sum_k P_k psi||^2 and the Gram matrix <P_j psi, P_k psi>, j <= k.

    With psi read as d x d^(N-1) and c_0 = phi^H psi over slot 0, formed
    once, the slot-0 split of a block B of leading rows is phi[B] (x) c_0 and
    psi[B] - phi[B] (x) c_0.  Slots 1..N-1 then act inside the block: each
    splits every component into its p-part phi (x) (phi^H c) over the slot
    and its q-part c minus that, formed in place, and the parts regroup by
    their number of q-factors.  The block adds its share to both sums.
    Scratch is 2N block buffers, each about 1/_BLOCK of a state, and the
    ufunc buffers of the broadcast products, no larger than a block.  A state
    that is one block gets the bits of the whole-array sums: the squared
    norm is taken as np.linalg.norm takes it.
    """
    orb = _check_orbital(state, orbital)
    n, d = state.n_particles, state.dim
    psi = state.tensor.reshape(d, -1)
    c0 = (orb.conj() @ psi.reshape(1, d, -1))[0]    # as the later slots' are
    rows = _block_rows(d, psi.size, 2 * n + 2)     # and two ufunc buffers
    pool = np.empty((2 * n, rows * psi.shape[1]), dtype=complex)
    resid_sq = 0.0
    gram = np.zeros((n + 1, n + 1), dtype=complex)
    for start in range(0, d, rows):
        block = psi[start:start + rows]
        free = [buf[:block.size] for buf in pool]
        p0, q0 = free.pop(), free.pop()
        np.multiply.outer(orb[start:start + rows], c0, out=p0.reshape(block.shape))
        np.subtract(block.reshape(-1), p0, out=q0)
        comps = [p0, q0]
        for slot in range(1, n):
            p_parts = []
            for comp in comps:
                view = comp.reshape(len(block) * d**(slot - 1), d, -1)
                part = free.pop()
                np.multiply(orb[None, :, None], (orb.conj() @ view)[:, None, :],
                            out=part.reshape(view.shape))
                comp -= part
                p_parts.append(part)
            for k in range(1, len(p_parts)):
                comps[k - 1] += p_parts[k]
                free.append(p_parts[k])
            comps = [p_parts[0]] + comps
        resid = free.pop()
        np.add(comps[0], comps[1], out=resid)
        for comp in comps[2:]:
            resid += comp
        np.subtract(block.reshape(-1), resid, out=resid)
        resid_sq += resid.real.dot(resid.real) + resid.imag.dot(resid.imag)
        for j, k in itertools.combinations_with_replacement(range(n + 1), 2):
            gram[j, k] += np.vdot(comps[j], comps[k])
    return float(resid_sq), gram


@dataclass(frozen=True, eq=False)
class WeightTable:
    """m(k) on k = 0..N.

    ``bounds_report`` takes its discrete difference families with the
    formula's natural extension past k = N, so every family has length
    N + 1.  First differences (one or two steps) stay below N^(xi - 1); the
    six second-difference combinations stay below N^(3 xi - 2).
    """

    n_particles: int
    xi: float
    m: np.ndarray

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
        return cls(n_particles=n_particles, xi=xi,
                   m=cls.m_value(np.arange(n_particles + 1), n_particles, xi))

    def bounds_report(self) -> dict:
        n = self.n_particles
        mv = self.m_value(np.arange(n + 5), n, self.xi)
        a = mv[:-1] - mv[1:]    # m(k) - m(k+1)
        b = mv[:-2] - mv[2:]    # m(k) - m(k+2)
        families = {"m_a": a[:n + 1], "m_b": b[:n + 1],
                    "m_c": a[:n + 1] - a[1:n + 2], "m_d": a[:n + 1] - a[2:n + 3],
                    "m_e": b[:n + 1] - b[1:n + 2], "m_f": b[:n + 1] - b[2:n + 3]}
        sups = {name: float(np.max(np.abs(f))) for name, f in families.items()}
        first = n ** (self.xi - 1.0)
        second = n ** (3.0 * self.xi - 2.0)
        slack = 1.0 + 1e-12
        return {"sups": sups, "first_bound": first, "second_bound": second,
                "first_ok": sups["m_a"] <= first * slack
                            and sups["m_b"] <= first * slack,
                "second_ok": all(sups[name] <= second * slack
                                 for name in ("m_c", "m_d", "m_e", "m_f"))}


def expectation_weighted(state: ManyBodyState, weights, orbital: np.ndarray) -> float:
    """<psi, f_hat psi> = sum_k f(k) ||P_k psi||^2 (real for real f), from
    the blocked counter sums; ``weights`` is f(0) ... f(N)."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (state.n_particles + 1,):
        raise DomainError(f"weights must have length N + 1 = "
                          f"{state.n_particles + 1}")
    gram = _counter_sums(state, orbital)[1]
    return float(sum(w[k] * gram[k, k].real
                     for k in range(state.n_particles + 1)))


# ---------------------------------------------------------------------------
# the one-particle reduced density matrix


def rdm(state: ManyBodyState) -> np.ndarray:
    """One-particle reduced density matrix (trace normalized to 1)."""
    mat = state.tensor.reshape(state.dim, -1)
    gamma = mat @ mat.conj().T
    return gamma / np.trace(gamma).real


def trace_norm_vs_pure(gamma: np.ndarray, orbital: np.ndarray) -> float:
    """Trace norm of gamma - |phi><phi| via exact eigendecomposition.

    The difference is formed densely, so its entries carry round-off near
    1e-16 whatever the distance: for a state close to a product the relative
    error grows like 1e-16 / distance.  ``trace_distance`` keeps its
    precision there and uses this only as its fallback.
    """
    orb = np.asarray(orbital, dtype=complex)
    diff = gamma - np.outer(orb, orb.conj())
    diff = 0.5 * (diff + diff.conj().T)
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


# Lanczos steps before trace_distance falls back to the dense eigvalsh, and
# the Ritz residual taken as converged: gamma has unit trace, so a computed
# product gamma x carries round-off near 1e-16 whatever the state.
_LANCZOS_STEPS = 40
_RITZ_TOL = 1e-14


def trace_distance(state: ManyBodyState, orbital: np.ndarray) -> float:
    """||gamma - |phi><phi|||_1 for the one-particle reduced density matrix.

    The difference has a single negative eigenvalue lam and trace 0, so its
    trace norm is 2 |lam| (see the module docstring).  Lanczos with full
    reorthogonalization on gamma, started at q_1 = phi, gives lam as the
    lowest eigenvalue of T_k - e_1 e_1^T.  With M the state read as
    d x d^(N-1), gamma x = M (M^H x) / ||M||^2 is taken as two vector-matrix
    products on M, so neither gamma nor the d x d difference is formed.  The
    first diagonal entry phi^H gamma phi - 1 is -<q_1> = -<n_hat> / N, read
    from the counter Gram matrix as -sum_k (k / N) ||P_k psi||^2 / ||psi||^2:
    each term is formed from q-parts, so it keeps its relative precision
    when the state is close to a product.  That costs a full counter pass
    (``_counter_sums``), heavier than the Lanczos steps at N = 3;
    ``counting_sample`` reuses the pass it makes anyway.  The iteration
    stops once the Ritz residual beta_k |s_k| is at round-off, which
    includes the breakdown beta_k = 0 of a product state at step 1; past
    the step cap the dense rdm and eigvalsh value is returned instead.
    """
    return _lanczos_distance(state, orbital, _counter_sums(state, orbital)[1])


def _lanczos_distance(state: ManyBodyState, orbital: np.ndarray,
                      gram: np.ndarray) -> float:
    """trace_distance, given the state's counter Gram matrix."""
    orb = _check_orbital(state, orbital)
    n = state.n_particles
    mat = state.tensor.reshape(state.dim, -1)
    scale = 1.0 / float(np.vdot(mat, mat).real)
    outside = sum(k * gram[k, k].real for k in range(1, n + 1)) / n
    diag = [-outside * scale]
    off: list[float] = []
    basis = np.empty((_LANCZOS_STEPS + 1, state.dim), dtype=complex)
    basis[0] = orb
    w = (mat @ (orb.conj() @ mat).conj()) * scale
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
    return trace_norm_vs_pure(rdm(state), orb)


# ---------------------------------------------------------------------------
# desk-scale Hamiltonians


def check_pair_range(pair_range: float, axes) -> None:
    """ResolutionError unless the range spans 4 points of the coarsest axis."""
    coarsest = max(axis.dx for axis in axes)
    if pair_range < 4.0 * coarsest:
        raise ResolutionError(
            f"pair interaction range {pair_range:g} spans fewer than 4 grid "
            f"points at spacing {coarsest:g}")


def _site_pair_block(tiled: np.ndarray, start: int, stop: int,
                     out: np.ndarray) -> np.ndarray:
    """Rows start..stop - 1 of the (d, d) site-pair matrix of an even offset
    table.

    ``tiled`` is the table over the grid's shape tiled twice per axis.  Entry
    (i, j) is table[(i - j) mod n] on each axis, so column j is the slice
    [n - j_a, 2 n - j_a) of ``tiled`` on each axis a, and as the table is
    even it is row j too.  Sites that differ only on the last axis take one
    strided slice of the windows of ``tiled`` along that axis.  ``out`` is
    shaped (width, *grid.shape) and returned as a (stop - start, d) view.
    """
    shape = tuple(n // 2 for n in tiled.shape)
    last = shape[-1]
    windows = np.lib.stride_tricks.sliding_window_view(tiled, last, axis=-1)
    site = start
    while site < stop:
        index = np.unravel_index(site, shape)
        run = min(last - index[-1], stop - site)
        first = last - index[-1]
        part = windows[tuple(slice(n - j, 2 * n - j)
                             for n, j in zip(shape, index[:-1]))
                       + (slice(first, first - run, -1),)]
        out[site - start:site - start + run] = np.moveaxis(part, -2, 0)
        site += run
    return out.reshape(len(out), -1)[:stop - start]


@dataclass(eq=False)
class HamiltonianSpec:
    """Single-particle grid data for the N-body energy per particle.

    ``grid`` is the unflattened single-particle grid; tensors index the
    flattened dimension.  ``e0_shift`` removes the confinement offset so the
    energy per particle is directly comparable with the 1d functional.
    Functions of the distance between two sites (the pair potential, the pair
    form's mask and (w_mu - U) / 2) depend only on the sites' offset on the
    periodic grid, so they are kept as tables of d offsets: the pair
    potential tiled twice per axis, for the rows of its site-pair matrix, and
    the pair form's over the grid's shape; no d x d array is formed.
    """

    grid: ProductGrid
    v_diag: np.ndarray                     # flattened (d,)
    pair_potential: Callable[[np.ndarray], np.ndarray] | None
    e0_shift: float
    pair_range: float | None = None
    _pair_table: np.ndarray | None = None  # W, tiled
    _pair_form: tuple | None = None        # (corr, mask, (w_mu - U) / 2, D_a)

    def __post_init__(self) -> None:
        if self.pair_potential is not None and self.pair_range is not None:
            check_pair_range(self.pair_range, self.grid.axes)

    @property
    def dim(self) -> int:
        return math.prod(self.grid.shape)

    def _offset_distances(self) -> np.ndarray:
        """Minimum-image distance of each site from site 0, over grid.shape.

        Offset o on an axis of n points is min(o, n - o) spacings, so the
        table is even in o bit for bit; the per-axis squares are summed in
        axis order.
        """
        ndim = len(self.grid.axes)
        total = 0.0
        for i, axis in enumerate(self.grid.axes):
            offset = np.arange(axis.n)
            delta = np.minimum(offset, axis.n - offset) * axis.dx
            view = [1] * ndim
            view[i] = axis.n
            total = total + (delta**2).reshape(view)
        return np.sqrt(total)

    def _pair_potential_table(self) -> np.ndarray | None:
        """W on the offsets, tiled twice per axis; built once."""
        if self.pair_potential is not None and self._pair_table is None:
            self._pair_table = np.tile(np.asarray(
                self.pair_potential(self._offset_distances()), dtype=float),
                (2,) * len(self.grid.axes))
        return self._pair_table

    def _pair_form_tables(self, corr: CorrectionProfile) -> tuple:
        """Indicator of |z1 - z2| < R, as 0.0 or 1.0, and (w_mu - U) / 2 on
        the offsets, over the grid's shape, and each axis's differentiation
        matrix.

        They depend only on the grid and the correction profile, so they are
        cached for the last ``corr`` seen and rebuilt for any other one.
        """
        if self._pair_form is None or self._pair_form[0] is not corr:
            dist = self._offset_distances()
            sol = corr.solution
            half_wu = sol.potential.scaled(dist, sol.mu) - corr.u_potential(dist)
            half_wu *= 0.5
            self._pair_form = (corr, (dist < corr.outer_radius).astype(float),
                               half_wu,
                               [_derivative_matrix(axis) for axis in self.grid.axes])
        return self._pair_form[1:]


def line_hamiltonian(grid: Grid1D,
                     v_par: Callable[[float, np.ndarray], np.ndarray] | None = None,
                     pair_potential: Callable[[np.ndarray], np.ndarray] | None = None,
                     pair_range: float | None = None) -> HamiltonianSpec:
    """Dimensionally reduced single-particle grid: a periodic line."""
    x = grid.x
    v = np.asarray(v_par(0.0, x), dtype=float) if v_par is not None \
        else np.zeros_like(x)
    return HamiltonianSpec(grid=ProductGrid((grid,)), v_diag=v,
                           pair_potential=pair_potential, e0_shift=0.0,
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
                           pair_range=pair_range)


def confined_hamiltonian(x_grid: Grid1D, mode: TransverseMode,
                         v_perp: Callable[[np.ndarray, np.ndarray], np.ndarray],
                         v_par: Callable[[float, np.ndarray], np.ndarray] | None = None,
                         pair_potential: Callable[[np.ndarray], np.ndarray] | None = None,
                         pair_range: float | None = None) -> HamiltonianSpec:
    """Flattened 3d box with the scaled confinement and its energy offset.

    ``mode`` must be a rescaled transverse mode; V_par acts on x only.
    """
    if mode.epsilon is None:
        raise InterfaceError("confined Hamiltonian needs a rescaled mode")
    y = mode.y
    conf = _confinement(y, mode.epsilon, v_perp)
    x = x_grid.x
    v_line = np.asarray(v_par(0.0, x), dtype=float) if v_par is not None \
        else np.zeros_like(x)
    v_diag = (v_line[:, None, None] + conf[None, :, :]).ravel()
    return HamiltonianSpec(grid=ProductGrid((x_grid, y, y)), v_diag=v_diag,
                           pair_potential=pair_potential, e0_shift=mode.E0,
                           pair_range=pair_range)


def orbital_from_fields(phi: Field, mode: TransverseMode | None) -> np.ndarray:
    """Plain-normalized grid orbital Phi (x) chi_eps(y), flattened."""
    line = phi.values * math.sqrt(phi.grid.dx)
    if mode is None:
        orb = line
    else:
        orb = (line[:, None, None] * (mode.chi * mode.y.dx)[None, :, :]).ravel()
    return orb / np.linalg.norm(orb)


def _fft_over(a: np.ndarray, axes: range, out: np.ndarray) -> None:
    """fftn over ``axes`` into ``out``; one axis goes to fft, which costs
    fewer calls."""
    if len(axes) == 1:
        np.fft.fft(a, axis=axes[0], out=out)
    else:
        np.fft.fftn(a, axes=axes, out=out)


def energy_per_particle(state: ManyBodyState, ham: HamiltonianSpec) -> float:
    """E_psi = <psi, H psi> / N minus the confinement offset.

    psi is symmetric (see ``ManyBodyState``), so every slot has slot 0's
    one-body energy and every pair the pair (0, 1)'s: E_psi is <-Lap + V> on
    slot 0 plus (N - 1) / 2 times <W> on slots (0, 1).  Two passes, each
    through one reused buffer.  Over blocks of columns, the FFT over slot
    0's axes gives its kinetic term (Parseval), contracted with |k|^2.  Over
    blocks of slot-0 rows, |psi|^2 summed over all other slots is slot 0's
    marginal, which V weighs, and the block's rows of W from the offset
    table, contracted with |psi|^2 over slot 1 and summed over the rest,
    give the pair (0, 1)'s term.
    """
    if state.dim != ham.dim:
        raise InterfaceError("state dimension does not match the Hamiltonian grid")
    d = ham.dim
    psi = np.ascontiguousarray(state.tensor).reshape(d, -1)
    rest = psi.shape[1]
    ksq = ham.grid.k_squared().ravel()
    cols = _block_rows(rest, psi.size)
    rows = _block_rows(d, psi.size)
    buf = np.empty(max(d * cols, rows * rest), dtype=complex)
    power = buf.view(np.float64)                    # interleaved re, im

    kinetic = 0.0
    for start in range(0, rest, cols):
        block = psi[:, start:start + cols]
        psi_hat = buf[:block.size].reshape(*ham.grid.shape, -1)
        _fft_over(block.reshape(psi_hat.shape), range(len(ham.grid.axes)),
                  psi_hat)
        sq = power[:2 * block.size]
        np.square(sq, out=sq)
        kinetic += float(np.sum(ksq @ sq.reshape(d, -1))) / d

    table = ham._pair_potential_table()
    if table is not None:
        w_buf = np.empty((rows,) + ham.grid.shape)
    slot_dens = np.empty(d)
    pair = 0.0
    for start in range(0, d, rows):
        block = psi[start:start + rows]
        stop = start + len(block)
        dens = power[:block.size].reshape(len(block), d, -1)
        np.abs(block.reshape(dens.shape), out=dens)
        dens **= 2
        slot_dens[start:stop] = dens.sum(axis=(1, 2))
        if table is not None:
            w_rows = _site_pair_block(table, start, stop, w_buf)
            pair += float(np.sum(np.matmul(w_rows[:, None], dens)))
    return (kinetic + float(ham.v_diag @ slot_dens)
            + 0.5 * (state.n_particles - 1) * pair - ham.e0_shift)


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


def counting_sample(state: ManyBodyState, orbital: np.ndarray,
                    weights: WeightTable, ham: HamiltonianSpec,
                    e_phi: float) -> CountingSample:
    """alpha = <m_hat> + |E_psi - E_phi|, the trace distance and both bounds.

    ``e_phi`` is the line functional of the condensate that ``orbital``
    samples; the counters are checked for completeness and orthogonality on
    the way.  One counter pass serves <m_hat>, both checks and the trace
    distance's first Lanczos entry.
    """
    n = state.n_particles
    if weights.n_particles != n:
        raise InterfaceError("weight table built for a different particle number")
    resid_sq, gram = _counter_sums(state, orbital)
    orthogonality = max(abs(complex(gram[j, k]))
                        for j, k in itertools.combinations(range(n + 1), 2))
    counting = float(sum(weights.m[k] * gram[k, k].real for k in range(n + 1)))
    gap = abs(energy_per_particle(state, ham) - e_phi)
    alpha = counting + gap
    dist = _lanczos_distance(state, orbital, gram)
    bound_rhs = math.sqrt(8.0 * alpha)
    reverse_rhs = gap + math.sqrt(dist) + 0.5 * n ** (-weights.xi)
    passed = (dist <= bound_rhs + _BOUND_SLACK
              and alpha <= reverse_rhs + _BOUND_SLACK)
    return CountingSample(math.sqrt(resid_sq), orthogonality, counting, gap,
                          alpha, dist, bound_rhs, reverse_rhs, passed)


# ---------------------------------------------------------------------------
# pair-correlation checks


def _derivative_matrix(axis: Grid1D) -> np.ndarray:
    """n x n spectral first derivative ifft(i k fft(I)) on a periodic axis.

    It uses the axis's FFT wavenumbers, Nyquist mode included, so applying
    it by matmul equals the FFT derivative to round-off.
    """
    return np.fft.ifft(1j * axis.k[:, None] * np.fft.fft(np.eye(axis.n), axis=0),
                       axis=0)


def relative_pair_form(h: np.ndarray, ham: HamiltonianSpec,
                       corr: CorrectionProfile) -> tuple[float, float]:
    """sum_K q(h_K) and sum_K ||h_K||^2 over the sectors h_K, the rows of ``h``.

    Read in relative coordinates, a pair state is
    psi(z1, z2) = d^(-1/2) sum_K e^{iK.z2} h_K(z1 - z2): a permutation of
    its entries, then a DFT over z2, so the map is unitary and
    ||psi||^2 = sum_K ||h_K||^2.  The mask 1_{|z1-z2|<R}, (w_mu - U) / 2 and
    the spectral grad_1 commute with joint translations, so the compensated
    pair form ||1_R grad_1 psi||^2 + <psi, (w_mu - U) psi> / 2 is
    sum_K q(h_K), with

        q(h) = sum_r 1_R(r) sum_a |D_a h(r)|^2 + (w_mu - U)(r) / 2 |h(r)|^2.

    psi is symmetric exactly when h_K(r) = e^{iK.r} h_K(-r) for every K.  The
    form is non-negative in the continuum because the compensated profile has
    zero scattering length; here it is evaluated exactly on the grid.  A row
    holds one sector's d offsets in the grid's C order.  The tables are the
    Hamiltonian's, over the grid's shape; D_a is applied by its
    differentiation matrix and masked, as the mask is 0 or 1, in one scratch
    buffer of h's shape.  On the last, contiguous axis that is one matrix
    product over all rows, h (rows, n) times D^T; on the others a stack of
    D times (n, trailing) products.
    """
    h = np.ascontiguousarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[1] != ham.dim:
        raise InterfaceError("sectors do not match the Hamiltonian grid")
    mask, half_wu, derivatives = ham._pair_form_tables(corr)
    mask, half_wu = mask.reshape(-1), half_wu.reshape(-1)
    work = np.empty_like(h)
    norm = float(np.vdot(h, h).real)
    np.multiply(h, half_wu, out=work)
    form = float(np.vdot(h, work).real)
    lead, trail = len(h), ham.dim
    for axis, derivative in zip(ham.grid.axes, derivatives):
        trail //= axis.n
        if trail == 1:      # the last axis: one product over all rows
            np.matmul(h.reshape(-1, axis.n), derivative.T,
                      out=work.reshape(-1, axis.n))
        else:
            np.matmul(derivative, h.reshape(lead, axis.n, trail),
                      out=work.reshape(lead, axis.n, trail))
        work *= mask
        form += float(np.vdot(work, work).real)
        lead *= axis.n
    return form, norm


def random_pair_form(ham: HamiltonianSpec, corr: CorrectionProfile,
                     rng: np.random.Generator) -> float:
    """Q(psi) / ||psi||^2 for one random symmetric pair state, drawn sector by
    sector.

    psi is G + G^T for a complex Gaussian d x d tensor G, the distribution of
    ``random_symmetric_states(2, d, rng)``.  The change to relative
    coordinates (see ``relative_pair_form``) is unitary, so it maps G to
    independent complex Gaussian sectors g_K, and G^T to e^{iK.r} g_K(-r).
    The sectors are drawn _BLOCK at a time, ``_read_ahead`` drawing the
    next block into a second buffer while the form sums this one, and
    h_K = g_K + e^{iK.r} g_K(-r) is formed in a third, with the phase as one
    factor per axis; psi itself is never formed.  The normals are taken from
    the stream in another order than ``random_symmetric_states`` takes them,
    so the value is that of another state of the same distribution.
    """
    shape, d = ham.grid.shape, ham.dim
    offsets = np.indices(shape).reshape(len(shape), -1)
    reflected = np.ravel_multi_index(tuple(-offsets), shape, mode="wrap")
    # e^{iK_a r_a} on each axis, from the exact residue of K_a r_a mod n
    waves = [np.exp(2j * math.pi / n * (np.multiply.outer(range(n), range(n)) % n))
             for n in shape]
    rows = min(_BLOCK, d)
    raws = [np.empty((rows, 2 * d)), np.empty((rows, 2 * d))]
    h_buf = np.empty((rows, d), dtype=complex)
    starts = range(0, d, rows)

    def fill(raw: np.ndarray, i: int) -> None:
        rng.standard_normal(out=raw[:min(rows, d - starts[i])])

    form = norm = 0.0
    with closing(_read_ahead(fill, raws, len(starts))) as blocks:
        for start, raw in zip(starts, blocks):
            g = raw[:min(rows, d - start)].view(complex)
            h = h_buf[:len(g)]
            # g_K(-r); mode="raise" would buffer the output, and no index clips
            np.take(g, reflected, axis=1, out=h, mode="clip")
            on_grid = h.reshape((len(h),) + shape)
            sectors = np.unravel_index(range(start, start + len(h)), shape)
            for a, (k, wave) in enumerate(zip(sectors, waves)):
                on_grid *= wave[k].reshape((len(h),) + tuple(
                    n if b == a else 1 for b, n in enumerate(shape)))
            h += g
            block_form, block_norm = relative_pair_form(h, ham, corr)
            form += block_form
            norm += block_norm
    return form / norm
