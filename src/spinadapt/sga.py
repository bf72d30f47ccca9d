"""Permutation representations and band Hamiltonians on spin-path bases.

The chain Hamiltonian is a sum of nearest-neighbor transpositions (Dirac
identity), and a transposition acts on a spin path through local rules on the
height triple (h[p-1], h[p], h[p+1]):

    monotone triple          -> unchanged
    ends equal at s, peak    -> -a_s * peak + b_s * valley
    ends equal at s, valley  -> +a_s * valley + b_s * peak

with a_s = 1/(2s+1), b_s = sqrt(1-a_s^2).  band_coefficients is the one
statement of (a_s, b_s): the height rules, encode's Pauli sums and the
circuits' mixing angles all read it.  Grouping terms by band: the mixing
block belongs to band s = the shared end height, the monotone pass-through to
band s = the center height.  Summed over bands this reproduces the full rules;
band by band it matches the tensor-product operators used for the qubit
encodings (ZZ pass-through between next-nearest neighbors plus a projected
tilted field), which is the grouping the truncated Hamiltonians are built on.

One walk over the bonds (_bond_rules) runs the rules on each bond's three
height columns and keeps the flips that stay in the truncation, one (valley,
peak) pair each; every operator and sim's Trotter step read it.  _bond_sums
adds each row's kept diagonal coefficients into one vector (one entry per
row, not N-1 summed by the COO -> CSR conversion) and emits each pair as two
int32 COO entries, so build_hamiltonian peaks near 3x the CSR it returns.

All site/permutation indices here are 1-based; heights are twice-integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse._sparsetools import csr_matvec

from .basis import CsfBasis, enumerate_paths
from .errors import InvalidQuantumNumbersError, ResourceLimitError

PRUNE_TOL = 1e-14

# ground_state solves blocks up to DENSE_MAX_DIM densely, the measured
# crossover (on a 2-vCPU host dense takes half the Lanczos time at dim 132
# and more from dim 233 on).  Above it ARPACK keeps LANCZOS_NCV vectors: its
# reorthogonalisation against all of them, not the sparse product, dominates
# a solve on these sectors.
DENSE_MAX_DIM = 200
LANCZOS_NCV = 12

BAND_MODE = "band"      # drop the boundary band entirely (sparse, not variational)
HEIGHT_MODE = "height"  # keep its surviving diagonal: exact projected Hamiltonian


def band_coefficients(s_x2):
    """(a_s, b_s) = (1/(2s+1), sqrt(1 - a_s^2)) of the band label s_x2 = 2s,
    an int or an int array (elementwise): the one statement of the mixing
    rule, read by the height rules, the Pauli sums and the circuits.  A
    negative scalar label raises InvalidQuantumNumbersError; a scalar label
    gives Python floats."""
    scalar = not isinstance(s_x2, np.ndarray)
    if scalar and s_x2 < 0:
        raise InvalidQuantumNumbersError("band label must be non-negative")
    a = 1.0 / (s_x2 + 1)
    b = np.sqrt(1.0 - a * a)
    return (float(a), float(b)) if scalar else (a, b)


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
    a, b = band_coefficients(band)
    diag = np.where(mix, np.where(peak, -a, a), 1.0)
    flip = np.where(mix, np.where(peak, hm - 1, hm + 1), -1)
    off = np.where(mix, b, 0.0)
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


def _bond_rules(basis: CsfBasis, bonds=None):
    """Each transposition (p, p+1), p in bonds (default: every bond), on
    every basis row, streamed one bond at a time: yields (p, band, diag,
    valleys, peaks, off).  band and diag are _height_rule's per row; valleys
    the rows whose upward flip stays within the truncation, peaks their
    partners walks[p+1, band] rows later (the flip changes only the rank
    terms of steps p and p+1), off the flips' coefficients b.  Every kept
    flip is one (valley, peak) pair: a peak's downward flip always fits, and
    band 0 has no valley."""
    h = basis.heights
    for p in range(1, basis.n_sites) if bonds is None else bonds:
        band, diag, flip, off = _height_rule(h[:, p - 1:p + 2])
        valleys = np.flatnonzero((flip > h[:, p]) & (flip <= basis.trunc_x2))
        peaks = valleys + basis.walks[p + 1, band[valleys]]
        yield p, band, diag, valleys, peaks, off[valleys]


def _bond_sums(basis: CsfBasis, bands: range, bonds=None, shift=0.0):
    """COO entries (rows, cols, vals) at unit coupling of the bands in the
    range `bands` of the transpositions (p, p+1), p in bonds (default: every
    bond), from _bond_rules: the dim diagonal positions first, each row's
    coefficients of those bands summed, minus shift; then each kept pair of
    those bands as (peak, valley) and (valley, peak).  int32 holds every
    row: the size guard of enumerate_paths keeps dim far below 2^31.
    """
    diag = np.zeros(len(basis))
    eye = np.arange(len(basis), dtype=np.int32)
    rows, cols, vals = [eye], [eye], [diag]
    for _, band, coeff, valleys, peaks, off in _bond_rules(basis, bonds):
        inside = (band >= bands.start) & (band < bands.stop)
        diag += np.where(inside, coeff, 0.0)
        pair = inside[valleys]
        lo, hi = valleys[pair].astype(np.int32), peaks[pair].astype(np.int32)
        rows += [hi, lo]
        cols += [lo, hi]
        vals += [off[pair]] * 2
    diag -= shift
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _scaled(vals: np.ndarray, scale: float) -> np.ndarray:
    """Unit-coupling rule sums times scale, in place, round-off (at most
    PRUNE_TOL) first set to 0, so the same values survive at every nonzero
    scale; an overflowed value raises ResourceLimitError."""
    vals[np.abs(vals) <= PRUNE_TOL] = 0.0
    with np.errstate(over="ignore"):
        vals *= scale
    if not np.isfinite(vals).all():
        raise ResourceLimitError(f"scaling by {scale:g} overflows an entry")
    return vals


def _csr(basis: CsfBasis, rows, cols, vals, scale=1.0) -> sp.csr_matrix:
    """The constructor of every spin-path operator: unit-coupling COO
    entries, duplicates summed, _scaled, exact zeros not stored."""
    dim = len(basis)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    _scaled(mat.data, scale)
    mat.eliminate_zeros()
    return mat


def _bond_matrix(basis: CsfBasis, p: int) -> sp.csr_matrix:
    """pi_{p,p+1} on the basis, flips out of the truncation dropped."""
    return _csr(basis, *_bond_sums(basis, range(basis.walks.shape[1]), [p]))


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
    sub = mat[sel][:, sel].tocoo()
    return SparseOperator(basis, _csr(basis, sub.row, sub.col, sub.data))


def band_hamiltonian(basis: CsfBasis, s_x2: int) -> SparseOperator:
    """Band operator: all transpositions' band-s_x2 pieces, truncated."""
    sums = _bond_sums(basis, range(s_x2, s_x2 + 1))
    return SparseOperator(basis, _csr(basis, *sums))


def _hamiltonian_coo(basis: CsfBasis, mode: str):
    """COO entries (rows, cols, vals) of H/(J/2) = sum_s H_s - (N-1)/2 over
    the bands that mode keeps, one entry per diagonal position and per flip.

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
    return _bond_sums(basis, range(top), shift=(basis.n_sites - 1) / 2)


def build_hamiltonian(basis: CsfBasis, mode: str = HEIGHT_MODE,
                      coupling: float = 1.0) -> SparseOperator:
    """Chain Hamiltonian on the truncated basis, H = (J/2)(sum_s H_s - (N-1)/2),
    over the bands that mode ("band" or "height") keeps."""
    return SparseOperator(basis, _csr(basis, *_hamiltonian_coo(basis, mode),
                                      coupling / 2))


def apply_hamiltonian(basis: CsfBasis, mode: str, vector: np.ndarray,
                      coupling: float = 1.0) -> np.ndarray:
    """Matrix-free product with build_hamiltonian(basis, mode)'s matrix.

    Cross-check route only: it re-derives every rule entry on each call, so
    it stores as many entries as the assembled matrix.  Every
    diagonalization runs on that matrix; the tests check this product
    against it.
    """
    rows, cols, vals = _hamiltonian_coo(basis, mode)
    out = np.zeros_like(vector, dtype=np.result_type(vector, float))
    np.add.at(out, rows, (coupling / 2) * vals * vector[cols])
    return out


def ground_state(op: SparseOperator, n_values: int = 1):
    """Lowest n_values eigenvalues (ascending) and the ground-state vector.

    A block of dimension up to DENSE_MAX_DIM (the measured crossover), or
    up to 2 n_values + 2, is solved densely for the asked eigenpairs only.
    A larger one runs ARPACK's implicitly restarted Lanczos with LANCZOS_NCV
    basis vectors (2 n_values + 1 above n_values = 5: ARPACK wants about
    twice k) on one raw csr_matvec per product, the kernel `matrix @ x`
    runs without its dispatch, from a fixed start vector and to ARPACK's
    default tolerance (machine precision).  A run that does not converge
    raises ArpackNoConvergence.  Raises ValueError unless
    1 <= n_values <= op.dim.
    """
    dim, basis = op.dim, op.basis
    if not 1 <= n_values <= dim:
        raise ValueError(
            f"n_values={n_values} outside [1, {dim}], the dimension of the "
            f"sector N={basis.n_sites}, 2S={basis.total_spin_x2}, "
            f"trunc {basis.trunc_x2}")
    if dim <= max(DENSE_MAX_DIM, 2 * n_values + 2):
        w, v = sla.eigh(op.toarray(), subset_by_index=[0, n_values - 1])
        return w, v[:, 0]
    mat = op.matrix

    def matvec(x):
        out = np.zeros(dim)
        csr_matvec(dim, dim, mat.indptr, mat.indices, mat.data, x, out)
        return out

    linop = spla.LinearOperator((dim, dim), matvec=matvec, dtype=mat.dtype)
    v0 = np.full(dim, 1.0 / sqrt(dim))
    w, v = spla.eigsh(linop, k=n_values, which="SA", v0=v0,
                      ncv=max(LANCZOS_NCV, 2 * n_values + 1))
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
