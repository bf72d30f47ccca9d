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

One walk over the bonds (_bond_rules) applies the rules to every row of each
bond and keeps the flips that stay in the truncation, one (valley, peak) pair
each; every operator, sim's Trotter step and the bond energies read it.  The
walk evaluates the rules once, on the triples the sector can hold (a peak, a
pass-through and a valley per centre height, _rule_table), and each bond
gathers its rows' values from those tables by the triple's code
2 (h[p-1] + h[p+1]) + h[p].  _bond_sums adds each row's kept diagonal
coefficients into one vector (one entry per row, not N-1 summed by the
COO -> CSR conversion) and emits each pair as two int32 COO entries, so
build_hamiltonian peaks near 3x the CSR it returns (full N=24: an 83 MiB
rise of the process's peak RSS for a 29 MiB CSR).

A height-mode rung is the exact projection of any taller height-mode rung
onto its paths, which keep their lexicographic order, so height_rung slices
a lower rung out of an assembled taller one, entry for entry what assembling
it gives.  diag's default height ladder is therefore one assembly (its full
rung) sliced by maximum height; band mode drops a different boundary band at
every truncation and assembles each rung on its own.

All site/permutation indices here are 1-based; heights are twice-integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse._sparsetools import csr_matvec

from .basis import CsfBasis, enumerate_paths, sector_walks
from .errors import InvalidQuantumNumbersError, ResourceLimitError

PRUNE_TOL = 1e-14

# ground_state solves blocks up to DENSE_MAX_DIM densely, the measured
# crossover (two lowest pairs, medians of 21 solves on a 2-vCPU host, dense
# against Lanczos: 0.66/1.16 ms at dim 132, 1.56/2.02 at 196, 1.76/1.94 at
# 208, 2.08/1.61 at 221).  Above it ARPACK keeps LANCZOS_NCV vectors: its
# reorthogonalisation against all of them, not the sparse product, dominates
# a solve on these sectors.
DENSE_MAX_DIM = 200
LANCZOS_NCV = 12
# ARPACK stops once each Ritz estimate ||r|| is at most LANCZOS_TOL |theta|.
# A Ritz value's error is at most ||r||^2 / delta <= LANCZOS_TOL^2 theta^2 /
# delta (Kato-Temple), with delta its distance to the rest of the spectrum:
# every eigenvalue with delta above about 1e-4 |theta| comes back to 2^-53
# relative, and the returned vector's residual is at most LANCZOS_TOL |theta|.
# ARPACK's default, tol=0, drives ||r|| itself to machine precision: 129
# rather than 90 products for the full N=18 singlet.
LANCZOS_TOL = 1e-10

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


def _rule_table(basis: CsfBasis):
    """_height_rule on every height triple the sector can hold, as tables
    (band, diag, kept, off) indexed by the triple's code 2 (h[p-1] +
    h[p+1]) + h[p]: 5h - 4 for a peak at centre height h, 5h for a
    pass-through (both directions share the rule), 5h + 4 for a valley.
    kept marks the valleys whose upward flip stays within the truncation.
    Triples with an end below height 0 cannot occur and are left out (the
    rule would divide by zero on band -1), so every code is non-negative;
    the codes between those of real triples are never read."""
    centre = np.arange(basis.walks.shape[1] - 1)    # every height
    hm = (centre[:, None] + [-1, -1, 1]).ravel()    # peak, pass, valley
    hp = (centre[:, None] + [-1, 1, 1]).ravel()
    triples = np.stack([hm, np.repeat(centre, 3), hp], axis=1)[hm >= 0]
    band, diag, flip, off = _height_rule(triples)
    kept = (flip > triples[:, 1]) & (flip <= basis.trunc_x2)
    code = 2 * (triples[:, 0] + triples[:, 2]) + triples[:, 1]
    tables = []
    for rule in (band, diag, kept, off):
        table = np.zeros(5 * len(centre), dtype=rule.dtype)
        table[code] = rule
        tables.append(table)
    return tables


def _bond_rules(basis: CsfBasis, bonds=None):
    """Each transposition (p, p+1), p in bonds (default: every bond), on
    every basis row, streamed one bond at a time: yields (p, band, diag,
    valleys, peaks, off).  band and diag are _height_rule's per row; valleys
    the rows whose upward flip stays within the truncation, peaks their
    partners walks[p+1, band] rows later (the flip changes only the rank
    terms of steps p and p+1), off the flips' coefficients b.  Every kept
    flip is one (valley, peak) pair: a peak's downward flip always fits, and
    band 0 has no valley.  The rule runs once per call (_rule_table); each
    bond gathers its rows' values by triple code."""
    h = basis.heights
    band_of, diag_of, kept_of, off_of = _rule_table(basis)
    for p in range(1, basis.n_sites) if bonds is None else bonds:
        code = np.add(h[:, p - 1], h[:, p + 1], dtype=np.intp)
        code *= 2
        code += h[:, p]
        band = band_of.take(code)
        valleys = np.flatnonzero(kept_of.take(code))
        peaks = valleys + basis.walks[p + 1, band[valleys]]
        yield p, band, diag_of.take(code), valleys, peaks, \
            off_of.take(code[valleys])


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
        np.add(diag, coeff, out=diag, where=inside)
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


def height_rung(op: SparseOperator, trunc_x2: int) -> SparseOperator:
    """The height-mode Hamiltonian of op's sector truncated at trunc_x2,
    sliced out of op, a height-mode operator of the same sector at that
    truncation or above: the rows and columns of the paths whose maximum
    height is at most trunc_x2, in op's (lexicographic) order.  Equal, array
    for array, to build_hamiltonian(enumerate_paths(N, 2S, trunc_x2),
    "height", J) at op's J.  A band-mode op gives no band-mode rung: band
    mode is not a projection.  Raises ValueError when op's basis is
    truncated below trunc_x2."""
    basis = op.basis
    n = basis.n_sites
    if min(trunc_x2, n) > min(basis.trunc_x2, n):
        raise ValueError(f"trunc {trunc_x2} is above the operator's "
                         f"truncation {basis.trunc_x2}")
    rows = np.flatnonzero(basis.heights.max(axis=1) <= trunc_x2)
    heights = basis.heights[rows]
    heights.setflags(write=False)
    walks = sector_walks(n, basis.total_spin_x2, trunc_x2)
    walks.setflags(write=False)
    rung = CsfBasis(n, basis.total_spin_x2, trunc_x2, heights, walks)
    return SparseOperator(rung, op.matrix[rows][:, rows])


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


def _start_vector(dim: int) -> np.ndarray:
    """The Lanczos start vector of every eigensolve, a fixed pseudo-random
    one.  Not the uniform vector: it is even under symmetries of H (path
    reversal at 2S = 0), so its Krylov space misses every odd eigenvector
    but for round-off.  At N=18, 2S=2, trunc 1 in band mode the second
    eigenvector is odd, and at LANCZOS_TOL the third eigenvalue came back in
    its place; at N=20, 2S=2, trunc 1 in band mode the uniform vector's
    overlap with the ground state itself is round-off."""
    return np.random.default_rng(0).standard_normal(dim)


def ground_state(op: SparseOperator, n_values: int = 1):
    """Lowest n_values eigenvalues (ascending) and the ground-state vector.

    A block of dimension up to DENSE_MAX_DIM (the measured crossover), or
    up to 2 n_values + 2, is solved densely for the asked eigenpairs only.
    A larger one runs ARPACK's implicitly restarted Lanczos with LANCZOS_NCV
    basis vectors (2 n_values + 1 above n_values = 5: ARPACK wants about
    twice k) on one raw csr_matvec per product, the kernel `matrix @ x`
    runs without its dispatch, from a fixed pseudo-random start vector,
    until each Ritz estimate is at most LANCZOS_TOL times its value: the
    eigenvalues come back to machine precision, the vector's residual is at
    most LANCZOS_TOL |E0|.  A run that does not converge raises
    ArpackNoConvergence.  Raises ValueError unless
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
    w, v = spla.eigsh(linop, k=n_values, which="SA", v0=_start_vector(dim),
                      ncv=max(LANCZOS_NCV, 2 * n_values + 1), tol=LANCZOS_TOL)
    order = np.argsort(w)
    return w[order], v[:, order[0]]


def ground_energy_matrix_free(basis: CsfBasis, mode: str,
                              coupling: float = 1.0, n_values: int = 1):
    """Lanczos on apply_hamiltonian, no matrix materialized, from
    ground_state's start vector.

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
    w = spla.eigsh(linop, k=n_values, which="SA", v0=_start_vector(dim),
                   return_eigenvectors=False)
    return np.sort(w)
