"""Permutation representations and band Hamiltonians on spin-path bases.

The chain Hamiltonian is a sum of nearest-neighbor transpositions (Dirac
identity), and a transposition acts on a spin path through local rules on the
height triple (h[p-1], h[p], h[p+1]):

    monotone triple          -> unchanged
    ends equal at s, peak    -> -a_s * peak + b_s * valley
    ends equal at s, valley  -> +a_s * valley + b_s * peak

with a_s = 1/(2s+1), b_s = sqrt(1-a_s^2).  Grouping terms by band: the mixing
block belongs to band s = the shared end height, the monotone pass-through to
band s = the center height.  Summed over bands this reproduces the full rules;
band by band it matches the tensor-product operators used for the qubit
encodings (ZZ pass-through between next-nearest neighbors plus a projected
tilted field), which is the grouping the truncated Hamiltonians are built on.

Every operator is assembled one bond at a time (_bond_sums): the rules run
on the bond's three height columns, each row's kept diagonal coefficients
are added into one vector, and only the flips that stay inside the
truncation become int32 COO entries.  The diagonal thus has one entry per
row rather than N-1 summed by the COO -> CSR conversion, and the peak
allocation of build_hamiltonian stays near 3x the CSR it returns.

All site/permutation indices here are 1-based; heights are twice-integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import acos, sqrt

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import CsfBasis, enumerate_paths
from .errors import InvalidQuantumNumbersError

PRUNE_TOL = 1e-14

BAND_MODE = "band"      # drop the boundary band entirely (sparse, not variational)
HEIGHT_MODE = "height"  # keep its surviving diagonal: exact projected Hamiltonian


@dataclass(frozen=True)
class BandCoefficients:
    """Mixing coefficients of one intermediate-spin band."""

    s_x2: int
    a_exact: Fraction

    @property
    def a(self) -> float:
        return float(self.a_exact)

    @property
    def b(self) -> float:
        return sqrt(1.0 - self.a * self.a)

    @property
    def theta(self) -> float:
        return acos(self.a)


def band_coefficients(s_x2: int) -> BandCoefficients:
    if s_x2 < 0:
        raise InvalidQuantumNumbersError("band label must be non-negative")
    return BandCoefficients(s_x2, Fraction(1, s_x2 + 1))


def _height_rule(triples: np.ndarray):
    """The transposition (p, p+1) on height triples (h[p-1], h[p], h[p+1]).

    triples has the three heights on its last axis.  Returns, per triple,
    (band, diag, flip, off): the band label (the shared end height if the
    triple mixes, the center height if it passes through), the diagonal
    coefficient (1, -a or +a), the flipped center height (-1 if none) and
    the flip's coefficient b.
    """
    hm, hc, hp = (triples[..., k].astype(np.int64) for k in range(3))
    mix = hm == hp
    peak = hc > hm
    band = np.where(mix, hm, hc)
    a = 1.0 / (band + 1)          # a_s = 1/(2s+1), as in band_coefficients
    diag = np.where(mix, np.where(peak, -a, a), 1.0)
    flip = np.where(mix, np.where(peak, hm - 1, hm + 1), -1)
    off = np.where(mix, np.sqrt(1.0 - a * a), 0.0)
    return band, diag, flip, off


@dataclass(frozen=True)
class SparseOperator:
    """Real symmetric sparse operator over a CsfBasis."""

    basis: CsfBasis
    matrix: sp.csr_matrix

    @property
    def dim(self) -> int:
        return len(self.basis)

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def export_coo(self) -> str:
        """Coordinate text dump: 'dim <n>' header then 'row col value' lines."""
        coo = self.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        lines = [f"dim {self.dim}"]
        for k in order:
            lines.append(f"{coo.row[k]} {coo.col[k]} {coo.data[k]:.17g}")
        return "\n".join(lines) + "\n"


def _bond_sums(basis: CsfBasis, outputs, bonds=None):
    """The transpositions (p, p+1), p in bonds (default: every bond), on
    every basis row, taken one bond at a time and sorted into outputs by
    band.

    outputs is a list of band ranges.  For each bond, _height_rule runs on
    the view heights[:, p-1:p+2]; each row's diagonal coefficients of the
    bands in outputs[k] are added into diag[k], and the flips that stay in
    the truncation, of a band in some output, are kept.  A flip changes
    only the rank terms of steps p and p+1: a valley's partner lies
    walks[p+1, s] rows later, a peak's that many rows earlier.

    Returns (diag, rows, cols, off): diag of shape (len(outputs), dim); int32
    rows and cols holding the diagonal positions 0..dim-1 first, then each
    kept flip as (partner, row); and off, the flips' coefficients b.  The
    flips carry no output: every caller sends them all to one matrix (band
    0 has none, its only mixing triple (0, 1, 0) would flip to height -1).
    int32 holds every row: the size guard of enumerate_paths keeps the
    dimension far below 2^31.
    """
    h, walks, dim = basis.heights, basis.walks, len(basis)
    slot = np.full(walks.shape[1], -1)       # output of each band label
    for k, bands in enumerate(outputs):
        slot[bands.start:bands.stop] = k
    diag = np.zeros((len(outputs), dim))
    eye = np.arange(dim, dtype=np.int32)
    rows, cols, off = [eye], [eye], [np.zeros(0)]
    for p in range(1, basis.n_sites) if bonds is None else bonds:
        band, coeff, flip, b = _height_rule(h[:, p - 1:p + 2])
        out = slot[band]
        for k in range(len(outputs)):
            diag[k] += np.where(out == k, coeff, 0.0)
        hop = np.flatnonzero((flip >= 0) & (flip <= basis.trunc_x2) & (out >= 0))
        shift = walks[p + 1, band[hop]]
        rows.append((hop + np.where(flip[hop] > h[hop, p], shift, -shift))
                    .astype(np.int32))
        cols.append(hop.astype(np.int32))
        off.append(b[hop])
    return diag, np.concatenate(rows), np.concatenate(cols), np.concatenate(off)


def _csr(basis: CsfBasis, rows, cols, vals) -> sp.csr_matrix:
    """COO entries as a matrix over the basis, round-off entries dropped."""
    dim = len(basis)
    return _pruned(sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim)))


def _pruned(mat: sp.csr_matrix) -> sp.csr_matrix:
    """Drop the entries that sum to round-off level."""
    mat.data[np.abs(mat.data) <= PRUNE_TOL] = 0.0
    mat.eliminate_zeros()
    return mat


def _bond_matrix(basis: CsfBasis, p: int) -> sp.csr_matrix:
    """pi_{p,p+1} on the basis, flips out of the truncation dropped."""
    diag, rows, cols, off = _bond_sums(basis, [range(basis.walks.shape[1])], [p])
    return _csr(basis, rows, cols, np.concatenate([diag[0], off]))


def permutation_matrix(basis: CsfBasis, i: int, j: int) -> SparseOperator:
    """Matrix of pi_{i,j} on the basis.

    Adjacent transpositions come straight from the rules.  The general case
    conjugates pi_{j-1,j} with the chain of elementary ones on the
    untruncated basis of the same (N, 2S), where every intermediate lies, and
    restricts the product to the basis rows and columns at the end.
    """
    if not 1 <= i < j <= basis.n_sites:
        raise IndexError(f"need 1 <= i < j <= N, got ({i}, {j})")
    if j == i + 1:
        return SparseOperator(basis, _bond_matrix(basis, i))
    full = enumerate_paths(basis.n_sites, basis.total_spin_x2)
    # conjugation telescopes to the palindrome
    # pi_{i,i+1} ... pi_{j-2,j-1} pi_{j-1,j} pi_{j-2,j-1} ... pi_{i,i+1}
    mat = _bond_matrix(full, j - 1)
    for p in range(j - 2, i - 1, -1):
        step = _bond_matrix(full, p)
        mat = step @ mat @ step
    sel = full.ranks(basis.heights)
    return SparseOperator(basis, _pruned(mat[sel][:, sel]))


def band_hamiltonian(basis: CsfBasis, s_x2: int) -> SparseOperator:
    """Band operator: all transpositions' band-s_x2 pieces, truncated."""
    diag, rows, cols, off = _bond_sums(basis, [range(s_x2, s_x2 + 1)])
    return SparseOperator(basis, _csr(basis, rows, cols,
                                      np.concatenate([diag[0], off])))


def _hamiltonian_coo(basis: CsfBasis, mode: str, coupling: float):
    """COO entries (rows, cols, vals) of (J/2)(sum_s H_s - (N-1)/2) over the
    bands that mode keeps, one entry per diagonal position and per flip.

    mode="band" keeps the bands strictly below the truncation level (drops
    the boundary band: sparser, not variational); mode="height" keeps the
    boundary band too, whose valleys keep their diagonal after the flip is
    truncated away, and equals the exact projection of the full Hamiltonian.
    Every flip that stays in the truncation belongs to a band below it, so
    the modes differ on the diagonal only.
    """
    if mode not in (BAND_MODE, HEIGHT_MODE):
        raise ValueError(f"mode must be '{BAND_MODE}' or '{HEIGHT_MODE}'")
    top = basis.trunc_x2 + (mode == HEIGHT_MODE)
    diag, rows, cols, off = _bond_sums(basis, [range(top)])
    shift = (basis.n_sites - 1) / 2
    return rows, cols, (coupling / 2) * np.concatenate([diag[0] - shift, off])


def build_hamiltonian(basis: CsfBasis, mode: str = HEIGHT_MODE,
                      coupling: float = 1.0) -> SparseOperator:
    """Chain Hamiltonian on the truncated basis, H = (J/2)(sum_s H_s - (N-1)/2),
    over the bands that mode ("band" or "height") keeps."""
    return SparseOperator(basis, _csr(basis, *_hamiltonian_coo(basis, mode,
                                                                coupling)))


def apply_hamiltonian(basis: CsfBasis, mode: str, vector: np.ndarray,
                      coupling: float = 1.0) -> np.ndarray:
    """Matrix-free product with build_hamiltonian(basis, mode)'s matrix.

    Cross-check route only: it re-derives every rule entry on each call, so
    it stores as many entries as the assembled matrix.  Every
    diagonalization runs on that matrix; the tests check this product
    against it.
    """
    rows, cols, vals = _hamiltonian_coo(basis, mode, coupling)
    out = np.zeros_like(vector, dtype=np.result_type(vector, float))
    np.add.at(out, rows, vals * vector[cols])
    return out


def ground_state(op: SparseOperator, n_values: int = 1):
    """Lowest eigenvalues/vector via Lanczos, dense fallback for small blocks.

    Deterministic: the Lanczos start vector is fixed.
    """
    dim = op.dim
    if dim <= max(2 * n_values + 2, 64):
        w, v = np.linalg.eigh(op.toarray())
        return w[:n_values], v[:, 0]
    v0 = np.full(dim, 1.0 / sqrt(dim))
    w, v = spla.eigsh(op.matrix, k=n_values, which="SA", v0=v0)
    order = np.argsort(w)
    return w[order], v[:, order[0]]


def ground_energy_matrix_free(basis: CsfBasis, mode: str,
                              coupling: float = 1.0, n_values: int = 1):
    """Lanczos on apply_hamiltonian, no matrix materialized.

    Cross-check route only: ground_state(build_hamiltonian(...)) is the
    eigensolve every caller uses, and the tests check that both agree.
    """
    dim = len(basis)
    if dim <= max(2 * n_values + 2, 64):
        mat = np.column_stack([
            apply_hamiltonian(basis, mode, col, coupling)
            for col in np.eye(dim)])
        return np.linalg.eigvalsh(mat)[:n_values]
    linop = spla.LinearOperator(
        (dim, dim), matvec=lambda x: apply_hamiltonian(basis, mode, x, coupling))
    v0 = np.full(dim, 1.0 / sqrt(dim))
    w = spla.eigsh(linop, k=n_values, which="SA", v0=v0,
                   return_eigenvectors=False)
    return np.sort(w)
