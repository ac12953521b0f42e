"""Whole-array references for the blocked kernels of quasi1d.manybody.

Each recipe here is written from its definition, with no blocking and no
in-place steps, so that the tests can hold the kernels that runs use
straight against it: the counter split against ``subset_components``, the
permutation sum against ``permutation_average`` and, bit for bit, against
``coset_sum_recipe``, and the offset tables against ``hand_distances``
through ``site_pair_matrix``.
"""

import itertools
import math

import numpy as np


def subset_components(tensor, orb):
    """P_k psi as the sum over slot sets S, |S| = k, of prod_S q prod_rest p."""
    def p_slot(t, slot):
        moved = np.moveaxis(t, slot, 0).reshape(orb.size, -1)
        projected = np.outer(orb, orb.conj() @ moved)
        return np.moveaxis(projected.reshape((orb.size,) + t.shape[1:]),
                           0, slot)

    n = tensor.ndim
    comps = [np.zeros_like(tensor) for _ in range(n + 1)]
    for outside in itertools.product((False, True), repeat=n):
        term = tensor
        for slot, is_q in enumerate(outside):
            p_term = p_slot(term, slot)
            term = term - p_term if is_q else p_term
        comps[sum(outside)] += term
    return comps


def permutation_average(tensor):
    perms = list(itertools.permutations(range(tensor.ndim)))
    return sum(tensor.transpose(perm) for perm in perms) / len(perms)


def coset_sum_recipe(tensor):
    """The permutation sum by cosets, each step out of place: the coset sum
    as first shipped."""
    n = tensor.ndim
    out = tensor + tensor.swapaxes(0, 1)
    for m in range(3, n + 1):
        part = out
        shifts = [[(axis + shift) % m for axis in range(m)] + list(range(m, n))
                  for shift in range(1, m)]
        out = part + part.transpose(shifts[0])
        for perm in shifts[1:]:
            out += part.transpose(perm)
    return out


def site_sums(shape, sign):
    """Flat index of (a + sign b) mod n on each axis, for all flat sites a
    (rows) and b (columns) of ``shape``."""
    sites = np.unravel_index(np.arange(math.prod(shape)), shape)
    return np.ravel_multi_index(
        tuple(i[:, None] + sign * i[None, :] for i in sites), shape, mode="wrap")


def site_pair_matrix(ham, table):
    """Entry (i, j) is the offset table, over the grid's shape, at the
    offset of site i from site j."""
    return table.reshape(-1)[site_sums(ham.grid.shape, -1)]


def hand_distances(coords, box_lengths):
    """Minimum-image distances from a (d, ndim) array of site coordinates."""
    total = np.zeros((len(coords), len(coords)))
    for axis, box in enumerate(box_lengths):
        delta = np.abs(coords[:, None, axis] - coords[None, :, axis])
        delta = np.minimum(delta, box - delta)
        total += delta**2
    return np.sqrt(total)


def coords_of(*axes):
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                    axis=1)
