"""Brute-force reference in the computational (local s_z) basis.

Every spin path can be expanded over the 2^N tensor-product basis by coupling
one spin-1/2 at a time with standard Condon-Shortley Clebsch-Gordan factors.
This scales exponentially and exists to validate the permutation-rule
machinery on small chains.  The computational-basis operators
apply_permutation (an axis swap of the amplitudes), apply_total_s2 and
apply_total_sz are also the observables of the computational-basis Trotter
run (`evolve --basis sz`, and the bond-error reference of the encoded
`evolve`), which sim.sz_trotter_layer evolves without gates; the gate
simulator is its cross-check there, as for the encoded runs.

Bit convention: bit i holds site i (1-based site i+1), site 0 is the most
significant bit of the amplitude index; alpha=0, beta=1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np
import scipy.sparse as sp

from .basis import SpinPath
from .errors import InvalidQuantumNumbersError, ResourceLimitError

EXPAND_MAX_SITES = 14
MATRIX_ELEMENT_MAX_SITES = 12


@dataclass(frozen=True)
class DenseStateSz:
    """Dense state over the 2^N computational basis."""

    n_sites: int
    amplitudes: np.ndarray


def expand_csf(path: SpinPath, magnetization_x2: int | None = None) -> DenseStateSz:
    """Genealogical expansion of a spin path into the computational basis.

    Couples site by site; an up-coupled site multiplies by
    sqrt((h' + m +- 1)/(2(h'+1))) and a down-coupled site by the partner
    coefficient with the minus sign on the alpha branch (Condon-Shortley).
    """
    n = path.n_sites
    if n > EXPAND_MAX_SITES:
        raise ResourceLimitError(
            f"expansion over 2^{n} amplitudes refused (N > {EXPAND_MAX_SITES})")
    ts = path.total_spin_x2
    if magnetization_x2 is None:
        magnetization_x2 = ts
    if abs(magnetization_x2) > ts or (magnetization_x2 - ts) % 2 != 0:
        raise InvalidQuantumNumbersError(
            f"2M={magnetization_x2} invalid for 2S={ts}")

    # amps[mu_x2] = vector over bitstrings of the first i sites
    amps: dict[int, np.ndarray] = {0: np.ones(1)}
    for i in range(1, n + 1):
        hp, h = path.heights[i - 1], path.heights[i]
        up = h == hp + 1
        new: dict[int, np.ndarray] = {}
        for mu in range(-h, h + 1, 2):
            vec = np.zeros(1 << i)
            prev = amps.get(mu - 1)
            if prev is not None:  # append alpha (bit 0)
                c = sqrt((hp + mu + 1) / (2 * (hp + 1))) if up \
                    else -sqrt((hp - mu + 1) / (2 * (hp + 1)))
                vec[0::2] += c * prev
            prev = amps.get(mu + 1)
            if prev is not None:  # append beta (bit 1)
                c = sqrt((hp - mu + 1) / (2 * (hp + 1))) if up \
                    else sqrt((hp + mu + 1) / (2 * (hp + 1)))
                vec[1::2] += c * prev
            if np.any(vec):
                new[mu] = vec
        amps = new
    return DenseStateSz(n, amps[magnetization_x2].astype(complex))


# --- bitwise operator applications (site 0 = MSB) ---

def _down_counts(n_sites: int) -> np.ndarray:
    """Number of beta (bit 1) sites of every amplitude index, as int8."""
    down = np.zeros(1, dtype=np.int8)
    for _ in range(n_sites):
        down = np.concatenate([down, down + 1])   # one more leading bit
    return down


def _site_view(amplitudes: np.ndarray, site: int) -> np.ndarray:
    """The amplitudes with 0-based site `site` on the middle axis of three:
    [:, 0] its alpha slice, [:, 1] its beta slice."""
    return amplitudes.reshape(1 << site, 2, -1)


def apply_permutation(amplitudes: np.ndarray, n_sites: int, i: int, j: int) -> np.ndarray:
    """Transposition pi_{i,j} of sites i and j (1-based): with site s on axis
    s of the amplitudes reshaped to [2]*N, the swap of axes i-1 and j-1, as a
    new flat array."""
    grid = amplitudes.reshape((2,) * n_sites)
    return np.swapaxes(grid, i - 1, j - 1).reshape(-1)


def apply_heisenberg(amplitudes: np.ndarray, n_sites: int,
                     coupling: float = 1.0) -> np.ndarray:
    """Matrix-free H = J sum_i (XX+YY+ZZ)_{i,i+1}/4 via the transposition identity.

    s_i.s_j = pi_{i,j}/2 - 1/4, so each bond contributes (swap - 1/2)/2 * J.
    """
    out = np.zeros_like(amplitudes)
    for p in range(1, n_sites):
        out += apply_permutation(amplitudes, n_sites, p, p + 1)
    out -= (n_sites - 1) / 2 * amplitudes
    return (coupling / 2) * out


def apply_total_sz(amplitudes: np.ndarray, n_sites: int) -> np.ndarray:
    """Total S_z (in units of hbar): sum over sites of +-1/2."""
    return (n_sites / 2 - _down_counts(n_sites)) * amplitudes


def apply_total_s2(amplitudes: np.ndarray, n_sites: int) -> np.ndarray:
    """Total S^2 = S_- S_+ + S_z (S_z + 1), in 2N single-site passes.

    S_+ = sum_i s_+^i adds each site's beta slice into its alpha slice of a
    zero register, and S_- adds that register's alpha slices back into the
    beta slices of the result, on the (2^i, 2, rest) view of site i.
    """
    sz = n_sites / 2 - _down_counts(n_sites)
    raised = np.zeros_like(amplitudes)
    for site in range(n_sites):
        _site_view(raised, site)[:, 0] += _site_view(amplitudes, site)[:, 1]
    out = sz * (sz + 1) * amplitudes
    for site in range(n_sites):
        _site_view(out, site)[:, 1] += _site_view(raised, site)[:, 0]
    return out


def sz_hamiltonian_matrix(n_sites: int, coupling: float = 1.0) -> sp.csr_matrix:
    """Explicit sparse Heisenberg matrix over the full 2^N space."""
    if n_sites > EXPAND_MAX_SITES:
        raise ResourceLimitError(
            f"dense-basis Hamiltonian refused for N={n_sites} > {EXPAND_MAX_SITES}")
    dim = 1 << n_sites
    eye = sp.identity(dim, format="csr")
    ham = sp.csr_matrix((dim, dim))
    for p in range(1, n_sites):
        cols = np.arange(dim)
        rows = np.asarray(apply_permutation(cols, n_sites, p, p + 1))
        swap = sp.csr_matrix((np.ones(dim), (rows, cols)), shape=(dim, dim))
        ham = ham + (coupling / 2) * (swap - 0.5 * eye)
    return ham.tocsr()


def oracle_matrix_element(op, bra: SpinPath, ket: SpinPath,
                          magnetization_x2: int | None = None,
                          coupling: float = 1.0) -> float:
    """<bra| Op |ket> evaluated entirely in the computational basis.

    op is either ("perm", i, j) with 1-based sites, or "H" for the full chain
    Hamiltonian.  Both paths must share (N, 2S).
    """
    n = bra.n_sites
    if n > MATRIX_ELEMENT_MAX_SITES:
        raise ResourceLimitError(
            f"oracle matrix element refused for N={n} > {MATRIX_ELEMENT_MAX_SITES}")
    if ket.n_sites != n or ket.total_spin_x2 != bra.total_spin_x2:
        raise InvalidQuantumNumbersError("bra and ket sectors differ")
    b = expand_csf(bra, magnetization_x2)
    k = expand_csf(ket, magnetization_x2)
    if op == "H":
        vec = apply_heisenberg(k.amplitudes, n, coupling)
    else:
        tag, i, j = op
        if tag != "perm":
            raise ValueError(f"unknown operator {op!r}")
        vec = apply_permutation(k.amplitudes, n, i, j)
    val = np.vdot(b.amplitudes, vec)
    assert abs(val.imag) < 1e-12
    return float(val.real)


def oracle_operator_matrix(op, basis, magnetization_x2: int | None = None,
                           coupling: float = 1.0) -> np.ndarray:
    """Full operator matrix over a CsfBasis, one expansion per path."""
    n = basis.n_sites
    if n > MATRIX_ELEMENT_MAX_SITES:
        raise ResourceLimitError(
            f"oracle matrix refused for N={n} > {MATRIX_ELEMENT_MAX_SITES}")
    vecs = np.array([expand_csf(p, magnetization_x2).amplitudes for p in basis])
    if op == "H":
        imgs = np.array([apply_heisenberg(v, n, coupling) for v in vecs])
    else:
        _, i, j = op
        imgs = np.array([apply_permutation(v, n, i, j) for v in vecs])
    mat = vecs.conj() @ imgs.T
    assert np.abs(mat.imag).max() < 1e-12
    return mat.real
